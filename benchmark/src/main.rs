//! The layer-attributed benchmark ledger.
//!
//! `asr-ledger --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//! runs one workload, checks its answers, prints every metric by name
//! with its unit, and ends with the one-line JSON result the driver
//! reads.  Without `--workload` it runs all four, each in a process of
//! its own (peak RSS is per process); `--repeat N` does that N times and
//! prints the spread of every end-to-end metric against its bound.
//! See `benchmark/README.md`.

mod embedded;
mod hist;
mod layers;
mod ledger;
mod repeat;
mod restart;
mod serve;
mod stage;
mod trace;
mod util;
mod window;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{DEFAULT_SEED, HELD_OUT_SEED, RUN_SECONDS, WORKLOADS};
use util::Cfg;

fn usage() -> String {
    format!(
        "usage: run.sh [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] \
[--quick] [--repeat <n> [--vary-seed]] [--manifest]
  workloads: serve-query, serve-mixed, embedded-query, restart (default: all four)
  --trace       per-layer run: onion-peel replays, spans to benchmark/out/trace-<workload>.jsonl
  --quick       smoke mode: 1 s windows, 300-op count prefix, every check on
  --repeat n    n runs per workload; median, quartiles and spread per end-to-end metric
  --vary-seed   with --repeat: run i uses seed + i (the driver's procedure) instead of one seed
  --manifest    print BENCHMARK.json from the metric registry
  seeds: {DEFAULT_SEED} by default; {HELD_OUT_SEED} is held out for checking a claimed gain"
    )
}

/// The parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub traced: bool,
    pub quick: bool,
    pub repeat: Option<usize>,
    pub vary_seed: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
        repeat: None,
        vary_seed: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat 0".to_string());
                }
                args.repeat = Some(n);
            }
            "--vary-seed" => args.vary_seed = true,
            "--manifest" => args.manifest = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One workload in this process: table, then the driver's JSON line.
fn run_one(cfg: &Cfg) -> ExitCode {
    let sheet = match cfg.workload.as_str() {
        "serve-query" => serve::run(cfg, false),
        "serve-mixed" => serve::run(cfg, true),
        "embedded-query" => embedded::run(cfg),
        "restart" => restart::run(cfg),
        other => unreachable!("validated workload {other}"),
    };
    cfg.clean_scratch();
    print!("{}", sheet.table(&cfg.workload, cfg.seed, cfg.traced));
    println!("{}", sheet.json(cfg.traced));
    if sheet.incorrect.is_some() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(64);
        }
    };
    if args.manifest {
        print!("{}", ledger::manifest());
        return ExitCode::SUCCESS;
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 1.0 } else { RUN_SECONDS as f64 });
    match (&args.workload, args.repeat) {
        (Some(workload), None) => run_one(&Cfg {
            workload: workload.clone(),
            seed: args.seed,
            seconds,
            traced: args.traced,
            quick: args.quick,
            // `run.sh` names its own directory; a bare `cargo run` falls
            // back to where the crate was built.
            home: std::env::var_os("ASR_LEDGER_HOME")
                .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from),
        }),
        _ => repeat::run(&args, seconds),
    }
}
