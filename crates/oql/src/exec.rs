//! Query execution: nested-loop evaluation over the resolved bindings,
//! with indexed predicates evaluated once as backward span queries.

use std::collections::BTreeSet;

use asr_core::{Cell, Database};
use asr_gom::{Oid, Value};

use crate::ast::{Comparison, Query};
use crate::error::{OqlError, Result};
use crate::plan::{analyze, Domain, Plan, ResolvedPredicate};
use crate::route::{LocalRouter, SpanRouter};

/// A query result: column labels plus value rows (duplicates removed,
/// deterministic order).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column labels (the projection texts).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl std::fmt::Display for ResultSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// Measured I/O and row production of one plan operator
/// (see [`ExecProfile`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpIo {
    /// How many times the operator ran.
    pub calls: u64,
    /// Rows/objects it produced across all calls.
    pub rows: u64,
    /// Page reads charged while it ran.
    pub reads: u64,
    /// Page writes charged while it ran.
    pub writes: u64,
    /// Buffer hits recorded while it ran.
    pub buffer_hits: u64,
    /// Batched B+-tree probes issued while it ran.
    pub batch_probes: u64,
    /// Page reads avoided by batching (vs. standalone per-key probes).
    pub batch_pages_saved: u64,
}

impl OpIo {
    /// Total page accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Per-operator execution profile, indexed like the [`Plan`]'s vectors.
/// Every page access an execution charges lands in exactly one slot, so
/// the slots sum to the global `asr_pagesim::IoStats` delta.
#[derive(Debug, Default, Clone)]
pub struct ExecProfile {
    /// One slot per binding: domain materialization (scan or navigate).
    pub bindings: Vec<OpIo>,
    /// One slot per predicate: the backward precompute for indexed
    /// predicates, the per-candidate forward navigation otherwise.
    pub predicates: Vec<OpIo>,
    /// One slot per projection: the emit-time forward navigation.
    pub projections: Vec<OpIo>,
}

impl ExecProfile {
    pub(crate) fn sized(plan: &Plan) -> Self {
        ExecProfile {
            bindings: vec![OpIo::default(); plan.bindings.len()],
            predicates: vec![OpIo::default(); plan.predicates.len()],
            projections: vec![OpIo::default(); plan.projections.len()],
        }
    }

    /// Sum of every operator's counters.
    pub fn total(&self) -> OpIo {
        let mut total = OpIo::default();
        for op in self
            .bindings
            .iter()
            .chain(&self.predicates)
            .chain(&self.projections)
        {
            total.calls += op.calls;
            total.rows += op.rows;
            total.reads += op.reads;
            total.writes += op.writes;
            total.buffer_hits += op.buffer_hits;
            total.batch_probes += op.batch_probes;
            total.batch_pages_saved += op.batch_pages_saved;
        }
        total
    }
}

/// Run `f`, attributing the I/O it charges (and `rows` it reports) to
/// `slot` when profiling is on.
fn charge<T>(db: &Database, slot: Option<&mut OpIo>, f: impl FnOnce() -> T) -> (T, u64)
where
    T: RowCount,
{
    match slot {
        None => {
            let out = f();
            let rows = out.row_count();
            (out, rows)
        }
        Some(op) => {
            let before = db.stats().snapshot();
            let out = f();
            let after = db.stats().snapshot();
            op.calls += 1;
            op.reads += after.reads - before.reads;
            op.writes += after.writes - before.writes;
            op.buffer_hits += after.buffer_hits - before.buffer_hits;
            op.batch_probes += after.batch_probes - before.batch_probes;
            op.batch_pages_saved += after.batch_pages_saved - before.batch_pages_saved;
            let rows = out.row_count();
            op.rows += rows;
            (out, rows)
        }
    }
}

/// Row-production accounting for [`charge`].
trait RowCount {
    fn row_count(&self) -> u64;
}

impl<T> RowCount for Result<Vec<T>> {
    fn row_count(&self) -> u64 {
        self.as_ref().map(|v| v.len() as u64).unwrap_or(0)
    }
}

impl RowCount for Result<BTreeSet<Oid>> {
    fn row_count(&self) -> u64 {
        self.as_ref().map(|v| v.len() as u64).unwrap_or(0)
    }
}

impl RowCount for Result<bool> {
    fn row_count(&self) -> u64 {
        u64::from(*self.as_ref().unwrap_or(&false))
    }
}

/// Parse, analyze, plan and execute a query text.
pub fn execute(db: &Database, text: &str) -> Result<ResultSet> {
    execute_routed(db, text, &mut LocalRouter)
}

/// Parse, analyze, plan and execute a query text, running every span
/// navigation through `router` (single-node or scatter-gather).
pub fn execute_routed(db: &Database, text: &str, router: &mut dyn SpanRouter) -> Result<ResultSet> {
    let query = crate::parser::parse(text)?;
    let plan = analyze(db, &query)?;
    run_plan(db, &plan, None, router)
}

/// Execute an already parsed query.
pub fn execute_query(db: &Database, query: &Query) -> Result<ResultSet> {
    let plan = analyze(db, query)?;
    run_plan(db, &plan, None, &mut LocalRouter)
}

/// Execute a query and return the per-operator execution profile next to
/// the result (the measurement half of `EXPLAIN ANALYZE`).
pub fn execute_profiled(db: &Database, query: &Query) -> Result<(ResultSet, ExecProfile)> {
    let plan = analyze(db, query)?;
    let mut profile = ExecProfile::sized(&plan);
    let result = run_plan(db, &plan, Some(&mut profile), &mut LocalRouter)?;
    Ok((result, profile))
}

/// Execute an analyzed plan, optionally profiling per-operator I/O.
pub(crate) fn run_plan(
    db: &Database,
    plan: &Plan,
    mut profile: Option<&mut ExecProfile>,
    router: &mut dyn SpanRouter,
) -> Result<ResultSet> {
    emit_usage_events(db, plan);
    let mut span = db.tracer().span("oql.query");
    let columns = plan.projections.iter().map(|p| p.label.clone()).collect();

    // Pre-compute candidate sets for indexed predicates (one backward
    // span query each — the paper's supported evaluation).
    let mut candidate_sets: Vec<Option<BTreeSet<Oid>>> = vec![None; plan.bindings.len()];
    for (k, pred) in plan.predicates.iter().enumerate() {
        if let Some(asr) = pred.asr {
            let target = Cell::from_gom(&pred.value)
                .ok_or_else(|| OqlError::Semantic("indexed predicate against NULL".to_string()))?;
            let slot = profile.as_deref_mut().map(|p| &mut p.predicates[k]);
            let (hits, _) = charge(db, slot, || -> Result<BTreeSet<Oid>> {
                Ok(router
                    .backward_span(db, asr, 0, pred.path.len(), &target)?
                    .into_iter()
                    .collect())
            });
            let hits = hits?;
            match &mut candidate_sets[pred.binding] {
                Some(existing) => {
                    existing.retain(|o| hits.contains(o));
                }
                slot @ None => *slot = Some(hits),
            }
        }
    }

    let mut rows: BTreeSet<Vec<Value>> = BTreeSet::new();
    let mut env: Vec<Option<Oid>> = vec![None; plan.bindings.len()];
    eval_bindings(
        db,
        plan,
        &candidate_sets,
        0,
        &mut env,
        &mut rows,
        &mut profile,
        router,
    )?;
    span.set_rows(rows.len() as u64);
    Ok(ResultSet {
        columns,
        rows: rows.into_iter().collect(),
    })
}

/// Report the query's span usage to any tracing subscriber (e.g. the
/// advisor's usage recorder): every predicate is a whole-chain backward
/// span, every path projection a whole-chain forward span.
fn emit_usage_events(db: &Database, plan: &Plan) {
    let tracer = db.tracer();
    for pred in &plan.predicates {
        tracer.event(
            "usage.backward",
            &[("i", "0".to_string()), ("j", pred.path.len().to_string())],
        );
    }
    for proj in plan.projections.iter().filter_map(|p| p.path.as_ref()) {
        tracer.event(
            "usage.forward",
            &[("i", "0".to_string()), ("j", proj.len().to_string())],
        );
    }
}

/// Recursive nested-loop evaluation of bindings `idx..`.
#[allow(clippy::too_many_arguments)]
fn eval_bindings(
    db: &Database,
    plan: &Plan,
    candidates: &[Option<BTreeSet<Oid>>],
    idx: usize,
    env: &mut Vec<Option<Oid>>,
    rows: &mut BTreeSet<Vec<Value>>,
    profile: &mut Option<&mut ExecProfile>,
    router: &mut dyn SpanRouter,
) -> Result<()> {
    if idx == plan.bindings.len() {
        return emit(db, plan, env, rows, profile, router);
    }
    let binding = &plan.bindings[idx];
    let slot = profile.as_deref_mut().map(|p| &mut p.bindings[idx]);
    let (domain, _) = charge(db, slot, || -> Result<Vec<Oid>> {
        Ok(match &binding.domain {
            Domain::Root(set) => db.base().element_oids(*set)?,
            Domain::Extent(ty) => db.base().extent_closure(*ty),
            Domain::Navigate { from, path } => {
                let start = env[*from].expect("earlier binding is bound");
                router
                    .forward_span(db, path, 0, path.len(), start)?
                    .into_iter()
                    .filter_map(|c| c.as_oid())
                    .collect()
            }
        })
    });
    let domain = domain?;
    for obj in domain {
        if let Some(set) = &candidates[idx] {
            if !set.contains(&obj) {
                continue;
            }
        }
        env[idx] = Some(obj);
        // Evaluate the non-indexed predicates bound at this level as soon
        // as the variable is set (predicate push-down).
        let mut ok = true;
        for (k, pred) in plan
            .predicates
            .iter()
            .enumerate()
            .filter(|(_, p)| p.binding == idx && p.asr.is_none())
        {
            let slot = profile.as_deref_mut().map(|p| &mut p.predicates[k]);
            let (holds, _) = charge(db, slot, || eval_predicate(db, pred, obj, router));
            if !holds? {
                ok = false;
                break;
            }
        }
        if ok {
            eval_bindings(db, plan, candidates, idx + 1, env, rows, profile, router)?;
        }
        env[idx] = None;
    }
    Ok(())
}

/// Does `obj` satisfy the predicate?  Paths through sets use existential
/// semantics: the predicate holds when *any* reached value satisfies the
/// comparison (NULL tests invert: `= NULL` holds when nothing is reached).
fn eval_predicate(
    db: &Database,
    pred: &ResolvedPredicate,
    obj: Oid,
    router: &mut dyn SpanRouter,
) -> Result<bool> {
    let reached = router.forward_span(db, &pred.path, 0, pred.path.len(), obj)?;
    if pred.value.is_null() {
        return Ok(match pred.op {
            Comparison::Eq => reached.is_empty(),
            Comparison::Ne => !reached.is_empty(),
            other => {
                return Err(OqlError::Semantic(format!(
                    "operator {other} is not defined on NULL"
                )))
            }
        });
    }
    for cell in reached {
        let value = match cell {
            Cell::Value(v) => v,
            Cell::Oid(o) => Value::Ref(o),
        };
        if compare(&value, pred.op, &pred.value)? {
            return Ok(true);
        }
    }
    Ok(false)
}

fn compare(left: &Value, op: Comparison, right: &Value) -> Result<bool> {
    use std::cmp::Ordering;
    let ord = match (left, right) {
        (Value::Integer(a), Value::Integer(b)) => a.cmp(b),
        (Value::Decimal(a), Value::Decimal(b)) => a.cmp(b),
        (Value::String(a), Value::String(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        (Value::Ref(a), Value::Ref(b)) => a.cmp(b),
        _ => {
            return Ok(matches!(op, Comparison::Ne)); // different kinds never equal
        }
    };
    Ok(match op {
        Comparison::Eq => ord == Ordering::Equal,
        Comparison::Ne => ord != Ordering::Equal,
        Comparison::Lt => ord == Ordering::Less,
        Comparison::Le => ord != Ordering::Greater,
        Comparison::Gt => ord == Ordering::Greater,
        Comparison::Ge => ord != Ordering::Less,
    })
}

/// Emit the projection rows for the current environment (cartesian over
/// multi-valued projections).
fn emit(
    db: &Database,
    plan: &Plan,
    env: &[Option<Oid>],
    rows: &mut BTreeSet<Vec<Value>>,
    profile: &mut Option<&mut ExecProfile>,
    router: &mut dyn SpanRouter,
) -> Result<()> {
    let mut per_column: Vec<Vec<Value>> = Vec::with_capacity(plan.projections.len());
    for (k, proj) in plan.projections.iter().enumerate() {
        let obj = env[proj.binding].expect("binding is bound");
        let slot = profile.as_deref_mut().map(|p| &mut p.projections[k]);
        let (values, _) = charge(db, slot, || -> Result<Vec<Value>> {
            Ok(match &proj.path {
                None => vec![Value::Ref(obj)],
                Some(path) => router
                    .forward_span(db, path, 0, path.len(), obj)?
                    .into_iter()
                    .map(|c| match c {
                        Cell::Value(v) => v,
                        Cell::Oid(o) => Value::Ref(o),
                    })
                    .collect(),
            })
        });
        let values = values?;
        if values.is_empty() {
            return Ok(()); // a NULL projection suppresses the tuple
        }
        per_column.push(values);
    }
    // Cartesian product across the projections.
    let mut stack: Vec<Vec<Value>> = vec![Vec::new()];
    for column in &per_column {
        let mut next = Vec::with_capacity(stack.len() * column.len());
        for prefix in &stack {
            for v in column {
                let mut row = prefix.clone();
                row.push(v.clone());
                next.push(row);
            }
        }
        stack = next;
    }
    rows.extend(stack);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_semantics() {
        let a = Value::Integer(3);
        let b = Value::Integer(5);
        assert!(compare(&a, Comparison::Lt, &b).unwrap());
        assert!(compare(&b, Comparison::Ge, &a).unwrap());
        assert!(!compare(&a, Comparison::Eq, &b).unwrap());
        // Kind mismatch: only != holds.
        let s = Value::string("x");
        assert!(compare(&a, Comparison::Ne, &s).unwrap());
        assert!(!compare(&a, Comparison::Eq, &s).unwrap());
    }
}
