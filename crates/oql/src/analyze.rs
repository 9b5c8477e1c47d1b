//! `EXPLAIN ANALYZE`: execute a query with per-operator I/O attribution
//! and print the measured page accesses side-by-side with the analytical
//! cost model's prediction.
//!
//! The measured numbers come from [`crate::exec::ExecProfile`] (every
//! page access of the execution lands in exactly one operator slot); the
//! predictions instantiate the paper's cost model over a profile
//! *derived from the live database* ([`asr_advisor::derive_profile`]) —
//! formula (35)'s `qsup_bw` for predicates answered through an access
//! support relation, `q_nosupport` for naive forward navigation.

use std::fmt::Write as _;

use asr_advisor::derive_profile;
use asr_core::{Database, Extension};
use asr_costmodel::{CostModel, Dec, Ext, QueryKind};
use asr_gom::PathExpression;

use crate::error::Result;
use crate::exec::{run_plan, ExecProfile, OpIo, ResultSet};
use crate::plan::{analyze, Domain};

/// One row of the `EXPLAIN ANALYZE` table.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Human-readable operator description.
    pub label: String,
    /// Measured execution counters.
    pub io: OpIo,
    /// Cost-model page accesses for all calls of this operator, when the
    /// model covers it.
    pub predicted: Option<f64>,
}

/// The full `EXPLAIN ANALYZE` output: operators, result, and the global
/// I/O delta of the execution.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// Per-operator rows, in plan order (bindings, predicates,
    /// projections).
    pub operators: Vec<OperatorReport>,
    /// The query result.
    pub result: ResultSet,
    /// Page reads of the whole execution (global counter delta).
    pub measured_reads: u64,
    /// Page writes of the whole execution (global counter delta).
    pub measured_writes: u64,
}

impl AnalyzeReport {
    /// Sum of the per-operator read/write counters — by construction
    /// equal to (`measured_reads`, `measured_writes`).
    pub fn operator_totals(&self) -> (u64, u64) {
        let reads = self.operators.iter().map(|o| o.io.reads).sum();
        let writes = self.operators.iter().map(|o| o.io.writes).sum();
        (reads, writes)
    }

    /// Sum of the predictions that the model covered.
    pub fn predicted_total(&self) -> f64 {
        self.operators.iter().filter_map(|o| o.predicted).sum()
    }

    /// Render the operator table plus totals (the shell's `\analyze`).
    pub fn render(&self) -> String {
        let width = self
            .operators
            .iter()
            .map(|o| o.label.len())
            .chain(std::iter::once("operator".len()))
            .max()
            .unwrap_or(8);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<width$}  {:>6} {:>8} {:>7} {:>7} {:>6} {:>6} {:>10}",
            "operator", "calls", "rows", "reads", "writes", "hits", "saved", "predicted"
        );
        for op in &self.operators {
            let predicted = match op.predicted {
                Some(p) => format!("{p:.1}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<width$}  {:>6} {:>8} {:>7} {:>7} {:>6} {:>6} {:>10}",
                op.label,
                op.io.calls,
                op.io.rows,
                op.io.reads,
                op.io.writes,
                op.io.buffer_hits,
                op.io.batch_pages_saved,
                predicted
            );
        }
        let _ = writeln!(
            out,
            "measured: {} reads + {} writes = {} page accesses; model predicts {:.1}",
            self.measured_reads,
            self.measured_writes,
            self.measured_reads + self.measured_writes,
            self.predicted_total()
        );
        let saved: u64 = self.operators.iter().map(|o| o.io.batch_pages_saved).sum();
        if saved > 0 {
            let probes: u64 = self.operators.iter().map(|o| o.io.batch_probes).sum();
            let _ = writeln!(
                out,
                "batched probes: {probes} ({saved} page read(s) saved vs. per-key descents)"
            );
        }
        let _ = writeln!(out, "({} row(s))", self.result.rows.len());
        out
    }
}

/// Parse, plan, execute and profile `text`, pairing each operator's
/// measured I/O with the cost model's prediction.
pub fn explain_analyze(db: &Database, text: &str) -> Result<AnalyzeReport> {
    let query = crate::parser::parse(text)?;
    let plan = analyze(db, &query)?;
    let mut profile = ExecProfile::sized(&plan);
    let before = db.stats().snapshot();
    let result = {
        let mut span = db.tracer().span("oql.explain_analyze");
        let result = run_plan(db, &plan, Some(&mut profile))?;
        span.set_rows(result.rows.len() as u64);
        result
    };
    let after = db.stats().snapshot();

    let mut operators = Vec::new();
    for (binding, io) in plan.bindings.iter().zip(&profile.bindings) {
        let (label, predicted) = match &binding.domain {
            Domain::Root(set) => (
                format!("bind {} := elements of root {set}", binding.var),
                None,
            ),
            Domain::Extent(ty) => (
                format!(
                    "bind {} := extent of {}",
                    binding.var,
                    db.base().schema().name(*ty)
                ),
                None,
            ),
            Domain::Navigate { from, path } => (
                format!(
                    "bind {} := navigate {path} from `{}`",
                    binding.var, plan.bindings[*from].var
                ),
                predict_forward(db, path, io.calls),
            ),
        };
        operators.push(OperatorReport {
            label,
            io: *io,
            predicted,
        });
    }
    for (pred, io) in plan.predicates.iter().zip(&profile.predicates) {
        let (label, predicted) = match pred.asr {
            Some(id) => (
                format!(
                    "pred {} {} {:?} [backward, ASR #{id}]",
                    pred.path, pred.op, pred.value
                ),
                predict_backward(db, id, &pred.path, io.calls),
            ),
            None => (
                format!(
                    "pred {} {} {:?} [forward per candidate]",
                    pred.path, pred.op, pred.value
                ),
                predict_forward(db, &pred.path, io.calls),
            ),
        };
        operators.push(OperatorReport {
            label,
            io: *io,
            predicted,
        });
    }
    for (proj, io) in plan.projections.iter().zip(&profile.projections) {
        let predicted = proj
            .path
            .as_ref()
            .and_then(|p| predict_forward(db, p, io.calls));
        operators.push(OperatorReport {
            label: format!("proj {}", proj.label),
            io: *io,
            predicted,
        });
    }

    Ok(AnalyzeReport {
        operators,
        result,
        measured_reads: after.reads - before.reads,
        measured_writes: after.writes - before.writes,
    })
}

fn to_ext(extension: Extension) -> Ext {
    match extension {
        Extension::Canonical => Ext::Canonical,
        Extension::Full => Ext::Full,
        Extension::LeftComplete => Ext::Left,
        Extension::RightComplete => Ext::Right,
    }
}

/// Model a whole-chain backward span query through ASR `id`, scaled by
/// the operator's call count.
fn predict_backward(
    db: &Database,
    id: asr_core::AsrId,
    path: &PathExpression,
    calls: u64,
) -> Option<f64> {
    let asr = db.asr(id).ok()?;
    let model = CostModel::new(derive_profile(db, path).ok()?);
    let dec = Dec(asr.config().decomposition.cuts().to_vec());
    Some(calls as f64 * model.qsup_bw(to_ext(asr.config().extension), 0, path.len(), &dec))
}

/// Model a whole-chain forward navigation: through a supporting ASR when
/// one is registered (that is what the executor routes through), naively
/// otherwise.  Scaled by the operator's call count.
fn predict_forward(db: &Database, path: &PathExpression, calls: u64) -> Option<f64> {
    let model = CostModel::new(derive_profile(db, path).ok()?);
    let per_call = match db.find_supporting_asr(path, 0, path.len()) {
        Some(id) => {
            let asr = db.asr(id).ok()?;
            let dec = Dec(asr.config().decomposition.cuts().to_vec());
            model.qsup_fw(to_ext(asr.config().extension), 0, path.len(), &dec)
        }
        None => model.q_nosupport(QueryKind::Forward, 0, path.len()),
    };
    Some(calls as f64 * per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_report_renders() {
        let report = AnalyzeReport {
            operators: vec![OperatorReport {
                label: "bind x := extent of T".to_string(),
                io: OpIo {
                    calls: 1,
                    rows: 3,
                    reads: 2,
                    ..OpIo::default()
                },
                predicted: None,
            }],
            result: ResultSet {
                columns: vec!["x".to_string()],
                rows: Vec::new(),
            },
            measured_reads: 2,
            measured_writes: 0,
        };
        let text = report.render();
        assert!(text.contains("operator"));
        assert!(text.contains("2 reads + 0 writes = 2 page accesses"));
        assert_eq!(report.operator_totals(), (2, 0));
    }
}
