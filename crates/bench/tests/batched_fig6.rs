//! Acceptance check for batched frontier probes on the Figure 6 regime:
//! a backward span query whose frontier reaches ≥ 32 cells must charge
//! strictly fewer measured page reads than per-cell probing, with
//! bit-identical results.

use std::collections::BTreeSet;

use asr_core::cell::Cell;
use asr_core::partition::StoredPartition;
use asr_core::row::Row;
use asr_core::{AsrConfig, Decomposition, Extension};
use asr_costmodel::profiles;
use asr_gom::{Oid, PathExpression, Value};
use asr_workload::{generate, scale_profile, GeneratorSpec};

const SCALE: f64 = 10.0;
/// How many terminal objects share the queried Tag value — the frontier
/// the backward walk carries into the interior partitions.
const SHARED: usize = 64;
const SHARED_TAG: i64 = 999_999;

/// Per-cell reference of the supported backward walk (the pre-batching
/// evaluation): identical partition traversal, but every frontier cell
/// descends its tree independently.  Returns the result cells and the
/// largest frontier the walk carried.
fn backward_per_cell(
    partitions: &[StoredPartition],
    dec: &Decomposition,
    ci: usize,
    cj: usize,
    target: &Cell,
) -> (Vec<Cell>, usize) {
    let mut frontier: BTreeSet<Cell> = BTreeSet::from([target.clone()]);
    let mut max_frontier = 1;
    let spans: Vec<(usize, usize)> = dec.partitions().collect();
    for (idx, &(a, b)) in spans.iter().enumerate().rev() {
        if a >= cj {
            continue;
        }
        if b <= ci {
            break;
        }
        let part = &partitions[idx];
        let rows: Vec<Row> = if b > cj {
            let offset = cj - a;
            let mut hits = Vec::new();
            part.scan(|row| {
                if let Some(cell) = row.cell(offset) {
                    if frontier.contains(cell) {
                        hits.push(row.to_row());
                    }
                }
            });
            hits
        } else {
            frontier.iter().flat_map(|c| part.lookup_last(c)).collect()
        };
        if ci >= a {
            let offset = ci - a;
            let out: BTreeSet<Cell> = rows.iter().filter_map(|r| r.cell(offset).clone()).collect();
            return (out.into_iter().collect(), max_frontier);
        }
        frontier = rows.iter().filter_map(|r| r.first().clone()).collect();
        max_frontier = max_frontier.max(frontier.len());
        if frontier.is_empty() {
            return (Vec::new(), max_frontier);
        }
    }
    (Vec::new(), max_frontier)
}

#[test]
fn fig6_backward_span_with_wide_frontier_reads_fewer_pages_batched() {
    let scaled = scale_profile(&profiles::fig6_profile().profile, SCALE);
    let spec = GeneratorSpec::from_profile(&scaled, 1.0);
    let mut g = generate(&spec, 1);
    let n = scaled.n;

    // Retag SHARED terminal objects that the chain actually reaches with
    // one common Tag value, so the backward walk from that value carries
    // a ≥ 32-cell frontier into the interior partitions.
    let mut referenced: BTreeSet<Oid> = BTreeSet::new();
    for &owner in &g.levels[n - 1] {
        let Ok(v) = g.db.base().get_attribute(owner, &format!("A{n}")) else {
            continue;
        };
        if let Some(set) = v.as_ref_oid() {
            if let Ok(elems) = g.db.base().element_oids(set) {
                referenced.extend(elems);
            }
        }
    }
    assert!(
        referenced.len() >= SHARED,
        "generated fig6 population reaches only {} terminals",
        referenced.len()
    );
    for &o in referenced.iter().take(SHARED) {
        g.db.set_attribute(o, "Tag", Value::Integer(SHARED_TAG))
            .expect("retag terminal");
    }

    // Index the value-terminated chain T0.A1.….An.Tag, fully decomposed
    // (binary) so every hop is a border probe.
    let mut dotted = String::from("T0");
    for i in 1..=n {
        dotted.push_str(&format!(".A{i}"));
    }
    dotted.push_str(".Tag");
    let path = PathExpression::parse(g.db.base().schema(), &dotted).expect("chain path parses");
    let m = path.arity(false) - 1;
    let id =
        g.db.create_asr(
            path,
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");

    let target = Cell::Value(Value::Integer(SHARED_TAG));
    let asr = g.db.asr(id).unwrap();
    let stats = g.db.stats();

    stats.reset();
    let batched = asr.backward(0, m, &target).expect("supported span");
    let batched_reads = stats.reads();
    let probes = stats.batch_probes();
    let saved = stats.batch_pages_saved();

    let dec = asr.config().decomposition.clone();
    stats.reset();
    let (reference, max_frontier) = backward_per_cell(asr.partitions(), &dec, 0, m, &target);
    let per_cell_reads = stats.reads();

    let reference_oids: Vec<Oid> = reference.iter().filter_map(|c| c.as_oid()).collect();
    assert_eq!(batched, reference_oids, "batched results are bit-identical");
    assert!(
        max_frontier >= 32,
        "the walk must carry a wide frontier, got {max_frontier}"
    );
    assert!(
        probes as usize >= SHARED,
        "every frontier cell is one batched probe, got {probes}"
    );
    assert!(
        batched_reads < per_cell_reads,
        "a ≥32-cell frontier must share tree pages: batched {batched_reads} vs per-cell \
         {per_cell_reads}"
    );
    assert!(saved > 0, "the saving lands in the IoStats batch counters");
}
