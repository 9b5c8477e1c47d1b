//! # asr-bench — the experiment harness
//!
//! One experiment per figure of the paper's evaluation (Figures 4–9 and
//! 11–17), plus an empirical-vs-analytical validation run and the
//! physical-design optimizer demo.  Each experiment prints the same series
//! the paper plots and emits a CSV file under `results/`.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p asr-bench --bin experiments -- all
//! ```
//!
//! or a single figure: `… -- fig6`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use table::Table;
