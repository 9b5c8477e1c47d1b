//! Multi-run modes: every workload (or one) N times, each run a child
//! process of its own so peak RSS and allocator state start fresh, then
//! the median, quartiles and spread of each end-to-end metric against
//! its bound.

use std::process::{Command, ExitCode, Stdio};

use crate::ledger::{END_TO_END, WORKLOADS};
use crate::Args;

/// One child run's result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Read back the line `Sheet::json` wrote.
fn parse_result(line: &str) -> Option<RunResult> {
    let field = |key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        Some(rest[..rest.find([',', '}'])?].trim().to_string())
    };
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("\"}") {
        let Some(name_start) = entry.find('"') else {
            continue;
        };
        let rest = &entry[name_start + 1..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let Some(value_at) = rest.find("\"value\": ") else {
            continue;
        };
        let value = &rest[value_at + 9..];
        let value = &value[..value.find(',')?];
        metrics.push((rest[..name_end].to_string(), value.trim().parse().ok()?));
    }
    Some(RunResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// Run one workload in a child process, echoing its table.
fn child(workload: &str, seed: u64, seconds: f64, args: &Args) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().expect("child run starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{table}");
    let result = parse_result(last);
    if result.is_none() || !output.status.success() {
        eprintln!("{workload} seed {seed}: run failed ({})", output.status);
    }
    result
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1, 2, 3].map(|q| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.max(2) - 1);
        let frac = pos - j as f64;
        if n == 1 {
            v[0]
        } else {
            v[j - 1] + frac * (v[j] - v[j - 1])
        }
    })
}

pub fn run(args: &Args, seconds: f64) -> ExitCode {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(w, _)| *w).collect(),
    };
    let runs = args.repeat.unwrap_or(1);
    let mut ok = true;
    let mut summary = String::new();
    for workload in workloads {
        let mut results = Vec::new();
        for i in 0..runs {
            let seed = if args.vary_seed {
                args.seed + i as u64
            } else {
                args.seed
            };
            match child(workload, seed, seconds, args) {
                Some(r) => {
                    ok &= r.correct && r.failed == 0;
                    results.push(r);
                }
                None => ok = false,
            }
        }
        if args.repeat.is_none() || args.traced || results.is_empty() {
            continue;
        }
        let (attempted, failed) = results
            .iter()
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        summary.push_str(&format!(
            "\n== {workload} · {} runs · seed {}{} · failed {failed} of {attempted} ==\n{:<18} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}\n",
            results.len(),
            args.seed,
            if args.vary_seed { "+i" } else { "" },
            "metric", "q1", "median", "q3", "max", "spread", "bound"
        ));
        for m in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                .collect();
            let [q1, q2, q3] = quartiles(&values);
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            // The driver's spread: interquartile distance over the median.
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
            let flag = match () {
                _ if m.name == "setup_s" => "",
                _ if spread > m.bound => "  EXCEEDS BOUND",
                _ if spread > m.bound / 3.0 => "  above a third of the bound",
                _ => "",
            };
            summary.push_str(&format!(
                "{:<18} {q1:>14.4} {q2:>14.4} {q3:>14.4} {max:>14.4} {:>7.2}% {:>5.0}%{flag}\n",
                m.name,
                spread * 100.0,
                m.bound * 100.0
            ));
        }
    }
    print!("{summary}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Sheet;

    #[test]
    fn result_line_round_trips() {
        let mut sheet = Sheet::default();
        sheet.attempted = 12;
        for (i, m) in END_TO_END.iter().enumerate() {
            sheet.set(m.name, 1.5 + i as f64);
        }
        let r = parse_result(&sheet.json(false)).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (12, 0));
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.metrics[1], ("ops_per_s".to_string(), 2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    }
}
