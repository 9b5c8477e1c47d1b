//! The per-figure experiments.
//!
//! Each module regenerates one figure of the paper's evaluation: it
//! evaluates the analytical cost model on the paper's application profile,
//! prints the series the figure plots, and (for the figures whose claims
//! are checkable at laptop scale) cross-checks the *shape* against
//! measured page accesses on a generated database.

pub mod ablation;
pub mod design;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod validate;

use std::path::Path;

use asr_pagesim::IoSnapshot;

use crate::table::Table;

/// A finished experiment: its rendered tables plus free-form notes.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Tables, printed and saved as CSV.
    pub tables: Vec<Table>,
    /// Shape observations ("who wins, by what factor").
    pub notes: Vec<String>,
    /// Modeled page I/O this experiment performed against a real
    /// generated database (zero for purely analytic figures).
    pub io: IoSnapshot,
}

impl ExperimentOutput {
    /// Append a table.
    pub fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Append an observation line.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Print to stdout and save CSVs under `dir/<name>_<index>.csv`.
    pub fn emit(&self, name: &str, dir: Option<&Path>) {
        for (i, table) in self.tables.iter().enumerate() {
            println!("{}", table.render());
            if let Some(dir) = dir {
                let file = if self.tables.len() == 1 {
                    name.to_string()
                } else {
                    format!("{name}_{i}")
                };
                if let Err(e) = table.save_csv(dir, &file) {
                    eprintln!("warning: could not save {file}.csv: {e}");
                }
            }
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!();
    }
}

/// One registry entry: `(id, description, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn() -> ExperimentOutput);

/// The registry of all experiments.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        (
            "fig4",
            "storage size by extension and decomposition (Sec 4.4.1)",
            fig4::run,
        ),
        (
            "fig5",
            "storage size while varying d_i (Sec 4.4.2)",
            fig5::run,
        ),
        (
            "fig6",
            "backward query Q_{0,4}(bw) cost (Sec 5.9.1)",
            fig6::run,
        ),
        (
            "fig7",
            "query cost under varying object size (Sec 5.9.2)",
            fig7::run,
        ),
        (
            "fig8",
            "which queries are supported: Q_{0,3}(bw) (Sec 5.9.3)",
            fig8::run,
        ),
        (
            "fig9",
            "canonical/left vs full/right profile (Sec 5.9.4)",
            fig9::run,
        ),
        ("fig11", "update cost for ins_3 (Sec 6.3.1)", fig11::run),
        (
            "fig12",
            "update cost, modified fan profile (Sec 6.3.2)",
            fig12::run,
        ),
        (
            "fig13",
            "update cost under varying object size (Sec 6.3.3)",
            fig13::run,
        ),
        (
            "fig14",
            "operation mix, binary decomposition (Sec 6.4.2)",
            fig14::run,
        ),
        (
            "fig15",
            "operation mix, decomposition (0,3,4) (Sec 6.4.3)",
            fig15::run,
        ),
        (
            "fig16",
            "left-complete vs full, n = 5 (Sec 6.4.4)",
            fig16::run,
        ),
        (
            "fig17",
            "right-complete vs full, n = 5 (Sec 6.4.5)",
            fig17::run,
        ),
        (
            "validate",
            "empirical page counts vs analytical predictions",
            validate::run,
        ),
        (
            "ablation",
            "ASR advantage under LRU buffer pools (extension)",
            ablation::run,
        ),
        ("design", "physical-design optimizer (Sec 7)", design::run),
    ]
}
