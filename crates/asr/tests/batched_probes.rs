//! Batched sorted-probe properties:
//!
//! * **equivalence** — `StoredPartition::probe` visits exactly the
//!   concatenation of the per-cell lookups, `forward_supported` /
//!   `backward_supported` (which batch their frontier probes) are
//!   bit-identical to per-cell reference evaluations across every
//!   decomposition, and the same walk over the partitions' pinned MVCC
//!   versions answers exactly what the live walk answers;
//! * **accounting** — a batch never charges more page reads than the
//!   per-cell probes it replaces, and charges strictly fewer as soon as
//!   two probe keys share a leaf page; a pinned version's meter charges
//!   exactly what the live `IoStats` charges for the same walk or scan.

use std::collections::BTreeSet;
use std::rc::Rc;

use asr_core::cell::Cell;
use asr_core::partition::{fresh_stats, StoredPartition};
use asr_core::query::{backward_supported, forward_supported, SpanSource};
use asr_core::row::Row;
use asr_core::{Decomposition, Frontier, PinnedPartition, Relation};
use asr_gom::Oid;
use proptest::prelude::*;

fn cell(raw: u64) -> Cell {
    Cell::Oid(Oid::from_raw(raw))
}

/// Build the stored partitions of `rel` under `dec`, sharing one stats
/// handle.
fn load(rel: &Relation, dec: &Decomposition) -> Vec<StoredPartition> {
    let stats = fresh_stats();
    dec.decompose(rel)
        .unwrap()
        .into_iter()
        .zip(dec.partitions())
        .map(|(p, (a, b))| {
            let mut sp = StoredPartition::new(a, b, Rc::clone(&stats));
            for row in p.iter() {
                sp.insert(row.clone()).unwrap();
            }
            sp
        })
        .collect()
}

/// The rows one batched probe visits, copied out.
fn probed(part: &StoredPartition, forward: bool, cells: &[Cell]) -> Vec<Row> {
    let frontier = Frontier::ascending(cells.to_vec()).expect("ascending probe keys");
    let mut rows = Vec::new();
    part.probe(forward, &frontier, &mut |row| rows.push(row.to_row()));
    rows
}

/// Per-cell reference of the border-probe arm of `forward_supported`:
/// identical walk, but every frontier cell descends the tree on its own.
fn forward_per_cell(
    partitions: &[StoredPartition],
    dec: &Decomposition,
    ci: usize,
    cj: usize,
    start: &Cell,
) -> Vec<Cell> {
    let mut frontier: BTreeSet<Cell> = BTreeSet::from([start.clone()]);
    for (idx, (a, b)) in dec.partitions().enumerate() {
        if b <= ci {
            continue;
        }
        if a >= cj {
            break;
        }
        let part = &partitions[idx];
        let rows: Vec<Row> = if a < ci {
            let offset = ci - a;
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
            frontier.iter().flat_map(|c| part.lookup_first(c)).collect()
        };
        if cj <= b {
            let offset = cj - a;
            let out: BTreeSet<Cell> = rows.iter().filter_map(|r| r.cell(offset).clone()).collect();
            return out.into_iter().collect();
        }
        frontier = rows.iter().filter_map(|r| r.last().clone()).collect();
        if frontier.is_empty() {
            return Vec::new();
        }
    }
    Vec::new()
}

/// Per-cell reference of `backward_supported`.
fn backward_per_cell(
    partitions: &[StoredPartition],
    dec: &Decomposition,
    ci: usize,
    cj: usize,
    target: &Cell,
) -> Vec<Cell> {
    let mut frontier: BTreeSet<Cell> = BTreeSet::from([target.clone()]);
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
            return out.into_iter().collect();
        }
        frontier = rows.iter().filter_map(|r| r.first().clone()).collect();
        if frontier.is_empty() {
            return Vec::new();
        }
    }
    Vec::new()
}

/// Run `read` and return its answer together with the pages it charged
/// to `meter` (a running page count).
fn metered<T>(meter: impl Fn() -> u64, read: impl FnOnce() -> T) -> (T, u64) {
    let before = meter();
    let answer = read();
    (answer, meter() - before)
}

/// Random 5-column relations whose cells are namespaced per column
/// (column `c` holds values `100·c …`), so rows chain through shared
/// values exactly like a real extension.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    // Column values draw from 0..7, where 6 encodes NULL.
    proptest::collection::btree_set((0u8..7, 0u8..7, 0u8..7, 0u8..7, 0u8..7), 1..32).prop_map(
        |rows| {
            let rows: Vec<Row> = rows
                .into_iter()
                .map(|(a, b, c0, d, e)| {
                    let cols = [a, b, c0, d, e];
                    Row::new(
                        cols.iter()
                            .enumerate()
                            .map(|(c, &v)| (v < 6).then(|| cell(100 * c as u64 + v as u64)))
                            .collect(),
                    )
                })
                .filter(|r| !r.is_all_null())
                .collect();
            Relation::from_rows(5, rows).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched frontier probes leave span-query results bit-identical to
    /// per-cell evaluation, for every decomposition and span.
    #[test]
    fn span_queries_match_per_cell_reference(rel in relation_strategy()) {
        for dec in Decomposition::enumerate_all(4) {
            let parts = load(&rel, &dec);
            for (ci, cj) in [(0, 4), (0, 2), (1, 3), (2, 4), (1, 4), (0, 1)] {
                for v in 0..6u64 {
                    let start = cell(100 * ci as u64 + v);
                    prop_assert_eq!(
                        forward_supported(&parts, &dec, ci, cj, &start),
                        forward_per_cell(&parts, &dec, ci, cj, &start),
                        "forward {}..{} from {:?} under {}", ci, cj, start, dec
                    );
                    let target = cell(100 * cj as u64 + v);
                    prop_assert_eq!(
                        backward_supported(&parts, &dec, ci, cj, &target),
                        backward_per_cell(&parts, &dec, ci, cj, &target),
                        "backward {}..{} to {:?} under {}", ci, cj, target, dec
                    );
                }
            }
        }
    }

    /// Over every span of every decomposition, the walk over the pinned
    /// MVCC versions answers exactly what the live walk answers and
    /// charges the pinned meter exactly the pages the live walk charges
    /// `IoStats`; so does a full scan of each partition (a `PartitionScan`).
    #[test]
    fn pinned_walk_matches_live_walk(rel in relation_strategy()) {
        for dec in Decomposition::enumerate_all(4) {
            let mut parts = load(&rel, &dec);
            let pinned: Vec<PinnedPartition> = parts.iter_mut().map(PinnedPartition::pin).collect();
            let stats = Rc::clone(parts[0].stats());
            let live = || stats.reads();
            let pinned_meter = || pinned.iter().map(PinnedPartition::pages_read).sum::<u64>();
            for ci in 0..4usize {
                for cj in ci + 1..=4 {
                    for v in 0..6u64 {
                        let start = cell(100 * ci as u64 + v);
                        prop_assert_eq!(
                            metered(pinned_meter, || forward_supported(&pinned, &dec, ci, cj, &start)),
                            metered(live, || forward_supported(&parts, &dec, ci, cj, &start)),
                            "forward {}..{} from {:?} under {}", ci, cj, start, dec
                        );
                        let target = cell(100 * cj as u64 + v);
                        prop_assert_eq!(
                            metered(pinned_meter, || backward_supported(&pinned, &dec, ci, cj, &target)),
                            metered(live, || backward_supported(&parts, &dec, ci, cj, &target)),
                            "backward {}..{} to {:?} under {}", ci, cj, target, dec
                        );
                    }
                }
            }
            for (idx, (a, _)) in dec.partitions().enumerate() {
                let frontier: Frontier = (0..6).map(|v| cell(100 * (a as u64 + 1) + v)).collect();
                let scan = |part: &dyn SpanSource| {
                    let mut rows = Vec::new();
                    part.scan(1, &frontier, &mut |row| rows.push(row.to_row()));
                    rows
                };
                prop_assert_eq!(
                    metered(pinned_meter, || scan(&pinned[idx])),
                    metered(live, || scan(&parts[idx])),
                    "scan of partition {} under {}", idx, dec
                );
            }
        }
    }

    /// The batched probe equals the concatenated per-cell lookups and never
    /// charges more page reads; with ≥2 probes into a single-leaf tree it
    /// charges strictly fewer.
    #[test]
    fn lookup_many_equivalence_and_accounting(
        firsts in proptest::collection::vec(0u8..40, 1..120),
        probes in proptest::collection::btree_set(0u8..40, 1..20),
    ) {
        let stats = fresh_stats();
        let mut part = StoredPartition::new(0, 2, Rc::clone(&stats));
        for (i, &f) in firsts.iter().enumerate() {
            part.insert(Row::new(vec![
                Some(cell(f as u64)),
                Some(cell(1000 + i as u64)),
                Some(cell(2000 + (f as u64 % 5))),
            ]))
            .unwrap();
        }
        let cells: Vec<Cell> = probes.iter().map(|&p| cell(p as u64)).collect();

        for forward in [true, false] {
            let lookup_one = |c: &Cell| -> Vec<Row> {
                if forward { part.lookup_first(c) } else { part.lookup_last(c) }
            };
            // The backward tree clusters on column 2 (values 2000..2005);
            // probe those cells instead so both directions get hits.
            let cells: Vec<Cell> = if forward {
                cells.clone()
            } else {
                probes.iter().map(|&p| cell(2000 + p as u64 % 5)).collect::<BTreeSet<_>>()
                    .into_iter().collect()
            };

            stats.reset();
            let batched = probed(&part, forward, &cells);
            let batched_reads = stats.reads();

            stats.reset();
            let per_cell: Vec<Row> = cells.iter().flat_map(lookup_one).collect();
            let per_cell_reads = stats.reads();

            prop_assert_eq!(&batched, &per_cell, "forward={}", forward);
            prop_assert!(
                batched_reads <= per_cell_reads,
                "batch charged {} > per-cell {} (forward={})",
                batched_reads, per_cell_reads, forward
            );
            let tree = if forward { part.forward_tree() } else { part.backward_tree() };
            if cells.len() >= 2 && tree.pages().leaf_page_count() == 1 {
                // ≥2 probes into the same (single) leaf: the batch reads
                // the page once, per-cell probes read it once each.
                prop_assert!(
                    batched_reads < per_cell_reads,
                    "shared leaf must save reads: batch {} vs per-cell {} (forward={})",
                    batched_reads, per_cell_reads, forward
                );
            }
        }
    }
}

/// Deterministic shared-leaf saving: many adjacent probes over a large
/// partition charge strictly fewer reads batched than per-cell, and the
/// global stats counters record the saving.
#[test]
fn adjacent_probes_save_reads_and_count_them() {
    let stats = fresh_stats();
    let mut part = StoredPartition::new(0, 2, Rc::clone(&stats));
    for k in 0..600u64 {
        part.insert(Row::new(vec![
            Some(cell(k)),
            Some(cell(10_000 + k)),
            Some(cell(20_000 + k / 3)),
        ]))
        .unwrap();
    }
    let cells: Vec<Cell> = (100..140).map(cell).collect();

    stats.reset();
    let batched = probed(&part, true, &cells);
    let batched_reads = stats.reads();
    let probes = stats.batch_probes();
    let saved = stats.batch_pages_saved();

    stats.reset();
    let per_cell: Vec<Row> = cells.iter().flat_map(|c| part.lookup_first(c)).collect();
    let per_cell_reads = stats.reads();

    assert_eq!(batched, per_cell);
    assert_eq!(probes, cells.len() as u64);
    assert!(
        batched_reads < per_cell_reads,
        "40 adjacent probes must share pages: batch {batched_reads} vs per-cell {per_cell_reads}"
    );
    assert!(saved > 0, "the saving is recorded in IoStats");
    assert_eq!(
        batched_reads + saved,
        per_cell_reads,
        "pages_saved accounts exactly for the per-cell difference"
    );
}
