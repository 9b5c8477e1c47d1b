//! `embedded-query`: the paper's §6.4.2 query mix called in-process on
//! `Database::backward` / `Database::forward` — no `net`, `server`, `oql`
//! or `durable` on the path.  `asr` query evaluation and `pagesim`
//! B+-tree probes do all the work, so this is the control for
//! `serve-query` and the one place a probe or partition-walk gain shows
//! while the TCP loop's idle sleep still floors served latency.

use std::hint::black_box;
use std::time::Instant;

use asr_core::{Cell, Database};
use asr_costmodel::{Dec, Ext};
use asr_gom::Oid;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::layers::{self, Counts};
use crate::ledger::Sheet;
use crate::stage::{model, stage, Class, Design, Mix, Op, OpStream};
use crate::trace::SpanLog;
use crate::util::{cpus, io_diff, median, peak_rss_mb, ratio, Cfg};
use crate::window::Window;

const SPAN: &str = "E3.database";
/// The 1 % oracle sample is drawn from the first this many operations:
/// an unindexed evaluation costs a thousand supported ones.
const ORACLE_OPS: usize = 20_000;

/// What a query answered: OIDs backward, cells forward.
#[derive(Debug, PartialEq)]
enum Found {
    Oids(Vec<Oid>),
    Cells(Vec<Cell>),
}

fn call(db: &Database, design: &Design, op: &Op) -> asr_core::Result<Found> {
    match op {
        Op::Bw { i, j, target } => db.backward(design.asr, *i, *j, target).map(Found::Oids),
        Op::Fw { i, j, start } => db.forward(design.asr, *i, *j, *start).map(Found::Cells),
        other => unreachable!("not an embedded operation: {other:?}"),
    }
}

/// The paper's evaluation without access support, sorted for comparison.
fn call_unindexed(db: &Database, design: &Design, op: &Op) -> asr_core::Result<Found> {
    match op {
        Op::Bw { i, j, target } => db
            .backward_unindexed(&design.path, *i, *j, target)
            .map(Found::Oids),
        Op::Fw { i, j, start } => db
            .forward_unindexed(&design.path, *i, *j, *start)
            .map(Found::Cells),
        other => unreachable!("not an embedded operation: {other:?}"),
    }
}

fn sorted(found: Found) -> Found {
    match found {
        Found::Oids(mut v) => {
            v.sort();
            v.dedup();
            Found::Oids(v)
        }
        Found::Cells(mut v) => {
            v.sort();
            v.dedup();
            Found::Cells(v)
        }
    }
}

pub fn run(cfg: &Cfg) -> Sheet {
    let mut sheet = Sheet::default();
    let mut setup_s = Vec::new();
    let mut staged = None;
    for _ in 0..cfg.setups() {
        drop(staged.take());
        let t = Instant::now();
        staged = Some(stage());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (db, design) = staged.expect("at least one set-up");
    let run_io = db.stats().snapshot();
    let mut stream = OpStream::new(cfg.seed, Mix::Embedded, design.pop.clone());
    let mut oracle_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x6f72_6163_6c65);
    let mut issued = 0usize;

    // Prefix (counts) and warm-up, with the unindexed oracle on a seeded
    // 1 % of the early operations.
    // Operations cost a microsecond here, so the count prefix can be long
    // enough that the draw of the mix does not show in the page counts.
    let prefix = cfg.prefix_ops() * 50;
    let mut counts = Counts::default();
    let (mut oracle_checks, mut naive_ns, mut naive_pages, mut naive_bw) = (0u64, 0u64, 0u64, 0u64);
    let warm = Instant::now();
    while issued < prefix || warm.elapsed().as_secs_f64() < cfg.warmup_s() {
        let op = stream.next().expect("endless stream");
        let before = db.stats().snapshot();
        let found = call(&db, &design, &op);
        if issued < prefix {
            counts.add(op.class(), &io_diff(&db.stats().snapshot(), &before));
        }
        sheet.attempted += 1;
        match found {
            Err(e) => sheet.op_failed(format!("op {issued} {op:?} → {e}")),
            Ok(found) if issued < ORACLE_OPS && oracle_rng.gen_range(0..100) == 0 => {
                let before = db.stats().snapshot();
                let t = Instant::now();
                let naive = call_unindexed(&db, &design, &op);
                if op.class() == Class::Bw {
                    naive_ns += t.elapsed().as_nanos() as u64;
                    naive_pages += io_diff(&db.stats().snapshot(), &before).accesses();
                    naive_bw += 1;
                }
                oracle_checks += 1;
                if sorted(naive.expect("unindexed evaluation")) != sorted(found) {
                    sheet.wrong(format!(
                        "op {issued} {op:?}: the ASR answer differs from the unindexed evaluation"
                    ));
                }
            }
            Ok(_) => {}
        }
        issued += 1;
    }

    // The timed window: call → return per operation.
    let mut spans = SpanLog::new();
    let mut window = Window::open(cfg.seconds);
    let mut busy_ns = 0u64;
    loop {
        let op = stream.next().expect("endless stream");
        let start = Instant::now();
        let found = black_box(call(&db, &design, black_box(&op)));
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        busy_ns += ns;
        sheet.attempted += 1;
        if let Err(e) = found {
            sheet.op_failed(format!("op {issued} {op:?} → {e}"));
        }
        issued += 1;
        if window.late(end) && cfg.traced {
            spans.close(SPAN, op.class().name(), issued as u64 - 1, None, start, end);
        }
        window.query(ns);
        if !window.op_done(end) {
            break;
        }
    }
    let timed = window.close();
    let (window_ops, window_s) = (timed.ops, timed.seconds);
    let mean_us = ratio(busy_ns as f64 / 1e3, window_ops as f64);

    sheet.set("setup_s", median(&setup_s));
    sheet.set("ops_per_s", timed.ops_per_s);
    sheet.set("query_p50_us", timed.query_p50_us);
    sheet.set("query_p99_us", timed.query_tail_us);
    sheet.set("pages_per_query", counts.pages_per_query());
    sheet.note(format!(
        "in-process closed loop, 1 thread, cpus {}; {window_ops} ops in a {window_s:.2} s window after {} warm-up ops; counts over the first {prefix} ops",
        cpus(),
        issued as u64 - window_ops
    ));
    sheet.note(timed.note);
    sheet.note(format!(
        "{oracle_checks} answers compared with the unindexed evaluation"
    ));

    if cfg.traced {
        sheet.set("asr.bw_us", spans.median_us(SPAN, Class::Bw.name()).0);
        sheet.set("asr.fw_us", spans.median_us(SPAN, Class::Fw.name()).0);
        sheet.set("asr.pages_per_bw", counts.pages_per(Class::Bw));
        sheet.set("asr.pages_per_fw", counts.pages_per(Class::Fw));
        layers::naive(naive_bw, naive_ns, naive_pages, &counts, &mut sheet);
        // The mix draws Q_{0,4}(bw) twice as often as Q_{0,3}(bw).
        let (cost, dec) = (model(), Dec::binary(5));
        sheet.set(
            "costmodel.bw_page_residual",
            counts.pages_per(Class::Bw)
                - (2.0 * cost.qsup_bw(Ext::Full, 0, 4, &dec) + cost.qsup_bw(Ext::Full, 0, 3, &dec))
                    / 3.0,
        );
        sheet.set(
            "costmodel.fw_page_residual",
            counts.pages_per(Class::Fw) - cost.qsup_fw(Ext::Full, 1, 2, &dec),
        );
        layers::structure(&db, design.asr, &mut sheet);
        let io = io_diff(&db.stats().snapshot(), &run_io);
        layers::pagesim_report(&db, design.asr, &io, &counts, mean_us, &mut sheet);
        sheet.set("ledger.e3_us", mean_us);
        layers::finish_trace(
            cfg,
            &spans,
            timed.second_half_slowdown,
            issued as u64,
            &mut sheet,
        );
    }
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet
}
