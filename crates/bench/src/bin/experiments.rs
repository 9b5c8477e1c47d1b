//! The experiment driver: regenerate any (or every) figure of the paper.
//!
//! ```text
//! cargo run --release -p asr-bench --bin experiments -- all
//! cargo run --release -p asr-bench --bin experiments -- fig6 fig11
//! cargo run --release -p asr-bench --bin experiments -- --list
//! ```
//!
//! CSV output lands in `results/` (override with `--out <dir>`, suppress
//! with `--no-csv`).  `--metrics-out` additionally writes a
//! machine-readable metrics snapshot (`<id>_metrics.jsonl`) per figure:
//! run duration, table/row/note counts, one line per metric.

use std::path::PathBuf;
use std::time::Instant;

use asr_bench::experiments::{registry, ExperimentOutput};
use asr_obs::MetricsRegistry;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir: Option<PathBuf> = Some(PathBuf::from("results"));
    let mut metrics_out = false;
    let mut selected: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                for (id, desc, _) in registry() {
                    println!("{id:<10} {desc}");
                }
                return;
            }
            "--no-csv" => out_dir = None,
            "--out" => {
                let dir = iter.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory argument");
                    std::process::exit(2);
                });
                out_dir = Some(PathBuf::from(dir));
            }
            "--metrics-out" => metrics_out = true,
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        eprintln!(
            "usage: experiments [--list] [--no-csv] [--out DIR] [--metrics-out] <id>... | all"
        );
        eprintln!("known experiments:");
        for (id, desc, _) in registry() {
            eprintln!("  {id:<10} {desc}");
        }
        std::process::exit(2);
    }

    let run_all = selected.iter().any(|s| s == "all");
    let known = registry();
    // Validate the selection up front.
    for want in &selected {
        if want != "all" && !known.iter().any(|(id, _, _)| id == want) {
            eprintln!("unknown experiment `{want}` — try --list");
            std::process::exit(2);
        }
    }
    let to_run = known
        .iter()
        .filter(|(id, _, _)| run_all || selected.iter().any(|s| s == id));

    // Emit each figure as soon as it finishes.
    for (id, desc, runner) in to_run {
        let started = Instant::now();
        let output = runner();
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        println!("### {id} — {desc}\n");
        output.emit(id, out_dir.as_deref());
        if metrics_out {
            let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("results"));
            match write_metrics(&dir, id, &output, elapsed_ms) {
                Ok(path) => println!("metrics snapshot written to {}", path.display()),
                Err(e) => eprintln!("warning: could not save metrics for {id}: {e}"),
            }
        }
    }
    if let Some(dir) = &out_dir {
        println!("CSV series written to {}", dir.display());
    }
}

/// Snapshot one figure's run into `<dir>/<id>_metrics.jsonl`.
fn write_metrics(
    dir: &std::path::Path,
    id: &str,
    output: &ExperimentOutput,
    elapsed_ms: f64,
) -> std::io::Result<PathBuf> {
    let metrics = MetricsRegistry::new();
    metrics.inc_counter("experiment.tables", output.tables.len() as u64);
    metrics.inc_counter(
        "experiment.rows",
        output.tables.iter().map(|t| t.len() as u64).sum(),
    );
    metrics.inc_counter("experiment.notes", output.notes.len() as u64);
    metrics.set_gauge("experiment.duration_ms", elapsed_ms);
    metrics.observe(
        "experiment.duration_ms",
        &[1.0, 10.0, 100.0, 1_000.0, 10_000.0],
        elapsed_ms,
    );
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}_metrics.jsonl"));
    std::fs::write(&path, metrics.snapshot().to_jsonl())?;
    Ok(path)
}
