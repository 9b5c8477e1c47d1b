//! What the workloads' reports share: page counts over the count
//! prefix, the `pagesim` figures (with a micro-leg on a B+ tree of the
//! largest partition's size and key shape), the no-support baseline, and
//! the end of a traced run.

use std::hint::black_box;
use std::time::Instant;

use asr_core::{AsrId, Database};
use asr_pagesim::{BPlusTree, IoSnapshot, IoStats, OID_SIZE};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::ledger::Sheet;
use crate::stage::Class;
use crate::trace::SpanLog;
use crate::util::{cpus, ratio, Cfg};

/// Modeled pages and batched probes per operation class, summed over
/// the count prefix.
#[derive(Default)]
pub struct Counts {
    pages: [u64; 3],
    probes: [u64; 3],
    ops: [u64; 3],
}

impl Counts {
    pub fn add(&mut self, class: Class, io: &IoSnapshot) {
        self.pages[class as usize] += io.accesses();
        self.probes[class as usize] += io.batch_probes;
        self.ops[class as usize] += 1;
    }

    pub fn ops(&self, class: Class) -> f64 {
        self.ops[class as usize] as f64
    }

    pub fn pages_per(&self, class: Class) -> f64 {
        ratio(self.pages[class as usize] as f64, self.ops(class))
    }

    fn per_query(&self, what: &[u64; 3]) -> f64 {
        let (bw, fw) = (Class::Bw as usize, Class::Fw as usize);
        ratio(
            (what[bw] + what[fw]) as f64,
            (self.ops[bw] + self.ops[fw]) as f64,
        )
    }

    /// Pages per query, the classes weighted as the prefix drew them.
    pub fn pages_per_query(&self) -> f64 {
        self.per_query(&self.pages)
    }

    fn probes_per_query(&self) -> f64 {
        self.per_query(&self.probes)
    }
}

/// The paper's no-support baseline beside the supported page count:
/// `checks` unindexed backward evaluations took `ns` and `pages`.
pub fn naive(checks: u64, ns: u64, pages: u64, counts: &Counts, sheet: &mut Sheet) {
    let naive_pages = ratio(pages as f64, checks as f64);
    sheet.set("asr.naive_bw_us", ratio(ns as f64 / 1e3, checks as f64));
    sheet.set("asr.naive_pages_per_bw", naive_pages);
    sheet.set(
        "asr.support_page_ratio",
        ratio(counts.pages_per(Class::Bw), naive_pages),
    );
}

/// Every `pagesim.*` figure of a query workload: the shares `io` (the
/// database's counters over the run) shows, the micro-leg, and — an
/// estimate until in-program spans exist — a query's batched probes
/// priced at the micro-leg's lookup time, as a share of `query_us`.
pub fn pagesim_report(
    db: &Database,
    asr: AsrId,
    io: &IoSnapshot,
    counts: &Counts,
    query_us: f64,
    sheet: &mut Sheet,
) {
    sheet.set(
        "pagesim.buffer_hit_share",
        ratio(io.buffer_hits as f64, (io.buffer_hits + io.reads) as f64),
    );
    sheet.set(
        "pagesim.batch_pages_saved_share",
        ratio(
            io.batch_pages_saved as f64,
            (io.batch_pages_saved + io.reads) as f64,
        ),
    );
    let lookup_ns = pagesim(db, asr, sheet);
    sheet.set(
        "pagesim.probe_share_of_query",
        ratio(counts.probes_per_query() * lookup_ns / 1e3, query_us),
    );
}

/// The end of every traced run: what the tracing cost, how much was
/// done, and the span file.
pub fn finish_trace(cfg: &Cfg, spans: &SpanLog, overhead: f64, ops: u64, sheet: &mut Sheet) {
    sheet.set("obs.trace_overhead_share", overhead);
    sheet.set("obs.spans", spans.len() as f64);
    sheet.set("ledger.ops", ops as f64);
    sheet.set("ledger.cpus", cpus() as f64);
    let path = cfg.trace_path();
    spans
        .write_jsonl(&path, &cfg.workload, cfg.seed)
        .expect("trace file under benchmark/out");
    sheet.note(format!("{} spans in {}", spans.len(), path.display()));
}

/// `asr.total_pages` and `asr.total_rows`.
pub fn structure(db: &Database, asr: AsrId, sheet: &mut Sheet) {
    let asr = db.asr(asr).expect("the staged ASR");
    sheet.set("asr.total_pages", asr.total_pages() as f64);
    sheet.set("asr.total_rows", asr.total_rows() as f64);
}

/// Insert, point-lookup and scan a tree shaped like the ASR's largest
/// partition (binary rows: an OID key, a two-OID tuple).  Returns the
/// lookup time in ns, which prices a query's batched probes.
pub fn pagesim(db: &Database, asr: AsrId, sheet: &mut Sheet) -> f64 {
    let rows = db
        .asr(asr)
        .expect("the staged ASR")
        .partitions()
        .iter()
        .map(|p| p.len())
        .max()
        .unwrap_or(0)
        .max(1) as u64;
    let mut keys: Vec<u64> = (0..rows).collect();
    // Fixed seed: the micro-leg measures the structure, not the workload.
    keys.shuffle(&mut SmallRng::seed_from_u64(rows));
    let stats = IoStats::new_handle();
    let mut tree = BPlusTree::<u64, u64>::new(2 * OID_SIZE, OID_SIZE, stats.clone());

    let t = Instant::now();
    for &k in &keys {
        tree.insert(black_box(k), k).expect("distinct keys insert");
    }
    sheet.set(
        "pagesim.btree_insert_ns",
        t.elapsed().as_nanos() as f64 / rows as f64,
    );

    let before = stats.snapshot();
    let t = Instant::now();
    let mut found = 0u64;
    for k in &keys {
        found += u64::from(tree.get(black_box(k)).is_some());
    }
    let lookup_ns = t.elapsed().as_nanos() as f64 / rows as f64;
    assert_eq!(found, rows, "every inserted key is found");
    sheet.set("pagesim.btree_lookup_ns", lookup_ns);
    sheet.set(
        "pagesim.pages_per_lookup",
        ratio((stats.snapshot().reads - before.reads) as f64, rows as f64),
    );

    let t = Instant::now();
    let mut scanned = 0u64;
    tree.scan_all(|k, _| scanned += u64::from(*black_box(k) < rows));
    sheet.set(
        "pagesim.btree_scan_ns_per_row",
        t.elapsed().as_nanos() as f64 / rows as f64,
    );
    assert_eq!(scanned, rows, "the scan visits every row");
    lookup_ns
}
