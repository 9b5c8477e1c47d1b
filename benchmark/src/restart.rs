//! `restart`: durability cycles on `FsStorage`.
//!
//! Staged once per set-up: population + ASR, `DurableDatabase::create`,
//! one full `checkpoint()`, then 16 logged `ins_3` (the "ins_3 x16
//! delta" of BENCH_3–10).  A cycle copies the staged directory, opens it
//! (checkpoint load + 16-record replay), checks answers against the ones
//! the live database gave before it was dropped, and checkpoints.
//! `asr::persist` text parse/serialise and `durable` replay dominate,
//! and no other workload touches them.

use std::path::Path;
use std::time::Instant;

use asr_core::{Cell, Database};
use asr_durable::{DurableDatabase, FlushPolicy, FsStorage, CHECKPOINT_FILE};
use asr_gom::{Oid, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::layers;
use crate::ledger::Sheet;
use crate::stage::{stage, Design, Mix, Op, OpStream, POPULATION_SEED};
use crate::trace::SpanLog;
use crate::util::{copy_dir, cpus, io_diff, median, peak_rss_mb, ratio, Cfg};
use crate::window::Window;

/// Logged updates between the staged checkpoint and the "crash".
const DELTA_OPS: usize = 16;
/// Backward queries per answer check.
/// Enough that the one cold query right after an open sits beyond the
/// 99th percentile instead of being it, and that which tags `--seed`
/// drew does not show in the pages per query.
const CHECK_QUERIES: usize = 1600;
const CLASS: &str = "cycle";

/// The staged oracle: check queries with the answers the live database
/// gave after the delta, before it was dropped.
struct Oracle {
    design: Design,
    checks: Vec<(Cell, Vec<Oid>)>,
}

fn answer(db: &Database, design: &Design, target: &Cell) -> Vec<Oid> {
    let mut oids = db
        .backward(design.asr, 0, 5, target)
        .expect("whole-chain backward query");
    oids.sort();
    oids
}

/// One set-up: everything up to the point where the process "crashes".
/// The logged delta belongs to the staged state and is drawn from the
/// population's seed; `seed` draws the check queries.
fn stage_crashed(seed: u64, dir: &Path) -> Oracle {
    let (db, design) = stage();
    let storage = FsStorage::new(dir).expect("staging directory");
    let mut durable =
        DurableDatabase::create(storage, db, FlushPolicy::EveryRecord).expect("durable create");
    durable.checkpoint().expect("staged checkpoint");
    let mut stream = OpStream::new(POPULATION_SEED, Mix::ServeMixed, design.pop.clone());
    let mut targets = Vec::new();
    for _ in 0..DELTA_OPS {
        let Op::Ins { owner, elem } = stream.ins() else {
            unreachable!("ins() yields inserts")
        };
        let fresh = durable
            .insert_into_attr_set(owner, "A4", Value::Ref(elem))
            .expect("logged ins_3");
        assert!(fresh, "generated inserts are new to their sets");
        // The inserted element's own tag: an answer the delta changed.
        let tag = durable
            .base()
            .get_attribute(elem, "Tag")
            .expect("T4 objects carry a tag");
        targets.push(Cell::Value(tag));
    }
    let tags = design.pop.levels[4].len() as i64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6368_6563_6b00);
    while targets.len() < CHECK_QUERIES {
        targets.push(Cell::Value(Value::Integer(rng.gen_range(0..tags))));
    }
    let checks = targets
        .into_iter()
        .map(|t| {
            let oids = answer(durable.database(), &design, &t);
            (t, oids)
        })
        .collect();
    // Dropped without a checkpoint: only the files survive.
    Oracle { design, checks }
}

pub fn run(cfg: &Cfg) -> Sheet {
    let mut sheet = Sheet::default();
    let staged_dir = cfg.scratch("staged");
    let work_dir = cfg.scratch("work");
    let mut setup_s = Vec::new();
    let mut oracle = None;
    for _ in 0..cfg.setups() {
        drop(oracle.take());
        let _ = std::fs::remove_dir_all(&staged_dir);
        let t = Instant::now();
        oracle = Some(stage_crashed(cfg.seed, &staged_dir));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Oracle { design, checks } = oracle.expect("at least one set-up");

    let mut spans = SpanLog::new();
    let (mut open_ms, mut checkpoint_ms) = (Vec::new(), Vec::new());
    let (mut open0_ms, mut load_ms, mut write_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut check_pages, mut checkpoint_bytes, mut checkpoint_pages) = (0u64, 0u64, 0u64);
    let (mut check_ns, mut snapshot_bytes) = (0u64, 0usize);
    let mut window = Window::open(cfg.seconds);
    let mut harness = Instant::now();
    // Always two cycles, and never spin on a storage that keeps failing.
    let mut more = true;
    while (more || window.ops() < 2) && sheet.failed < 3 {
        let record = window.late(harness) && cfg.traced;
        let op_id = window.ops();
        let first = op_id == 0;
        // The copy (and the traced run's peeling below) is the
        // harness's time, not the system's: out of the throughput.
        let _ = std::fs::remove_dir_all(&work_dir);
        copy_dir(&staged_dir, &work_dir).expect("copies the staged directory");
        let storage = FsStorage::new(&work_dir).expect("work directory");
        sheet.attempted += 1;
        window.exclude(harness.elapsed());

        // Restart: checkpoint load + replay of the logged delta.
        let start = Instant::now();
        let opened = DurableDatabase::open(storage);
        let end = Instant::now();
        let mut durable = match opened {
            Ok(d) => d,
            Err(e) => {
                sheet.op_failed(format!("cycle {op_id}: open → {e}"));
                harness = Instant::now();
                continue;
            }
        };
        open_ms.push((end - start).as_secs_f64() * 1e3);
        let cycle_span = record
            .then(|| spans.close("restart.open", CLASS, op_id, None, start, end))
            .flatten();
        let replayed = durable.recovery_report().records_replayed;
        if replayed != DELTA_OPS as u64 {
            sheet.wrong(format!(
                "cycle {op_id}: recovery replayed {replayed} records, {DELTA_OPS} were logged"
            ));
        }

        // Answer check against the staged oracle, each query timed.
        let io_before = durable.stats().snapshot();
        let check_start = Instant::now();
        for (target, expected) in &checks {
            let t = Instant::now();
            let got = answer(durable.database(), &design, target);
            let ns = t.elapsed().as_nanos() as u64;
            window.query(ns);
            check_ns += ns;
            if &got != expected {
                sheet.wrong(format!(
                    "cycle {op_id}: {target:?} answers {got:?} after restart, {expected:?} before"
                ));
            }
        }
        let check_end = Instant::now();
        if first {
            check_pages = io_diff(&durable.stats().snapshot(), &io_before).accesses();
        }
        if record {
            spans.close(
                "restart.check",
                CLASS,
                op_id,
                cycle_span,
                check_start,
                check_end,
            );
        }

        let start = Instant::now();
        let done = durable.checkpoint();
        let end = Instant::now();
        harness = end;
        if let Err(e) = done {
            sheet.op_failed(format!("cycle {op_id}: checkpoint → {e}"));
            continue;
        }
        checkpoint_ms.push((end - start).as_secs_f64() * 1e3);
        if record {
            spans.close("restart.checkpoint", CLASS, op_id, cycle_span, start, end);
        }
        more = window.op_done(end);
        if first {
            checkpoint_bytes = std::fs::metadata(work_dir.join(CHECKPOINT_FILE))
                .expect("checkpoint file")
                .len();
            checkpoint_pages = durable.wal_status().last_checkpoint_pages;
        }

        if cfg.traced {
            // Peel `durable` from `asr::persist`: reopen with nothing left
            // to replay, then parse and serialise the snapshot directly.
            drop(durable);
            let storage = FsStorage::new(&work_dir).expect("work directory");
            let t = Instant::now();
            let reopened = DurableDatabase::open(storage).expect("reopens after checkpoint");
            open0_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if reopened.recovery_report().records_replayed != 0 {
                sheet.wrong(format!(
                    "cycle {op_id}: records replayed after a checkpoint"
                ));
            }
            let t = Instant::now();
            let text = reopened.database().save_to_string();
            write_ms.push(t.elapsed().as_secs_f64() * 1e3);
            snapshot_bytes = text.len();
            let t = Instant::now();
            let loaded = Database::load_from_string_report(&text);
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let (loaded, _) = loaded.expect("snapshot loads");
            let (target, expected) = &checks[0];
            if &answer(&loaded, &design, target) != expected {
                sheet.wrong(format!(
                    "cycle {op_id}: the reloaded snapshot answers differently"
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let timed = window.close();

    sheet.set("setup_s", median(&setup_s));
    sheet.set("ops_per_s", timed.ops_per_s);
    sheet.set("query_p50_us", timed.query_p50_us);
    sheet.set("query_p99_us", timed.query_tail_us);
    sheet.set("pages_per_query", check_pages as f64 / CHECK_QUERIES as f64);
    sheet.extra("restart_ms", "ms", median(&open_ms));
    sheet.extra("checkpoint_ms", "ms", median(&checkpoint_ms));
    sheet.extra("checkpoint_bytes", "B", checkpoint_bytes as f64);
    sheet.note(format!(
        "1 thread, cpus {}; {} cycles (open, {CHECK_QUERIES}-query check, checkpoint) in a {:.2} s window; an op is a cycle, the harness's directory copy between cycles is left out of ops_per_s; {DELTA_OPS} records replayed per open; restart_ms and checkpoint_ms are medians over the cycles",
        cpus(),
        timed.ops,
        timed.seconds
    ));
    sheet.note(timed.note);

    if cfg.traced {
        let restart = median(&open_ms);
        let load0 = median(&open0_ms);
        let bw_us = ratio(
            check_ns as f64 / 1e3,
            (timed.ops * CHECK_QUERIES as u64) as f64,
        );
        sheet.set("asr.bw_us", bw_us);
        sheet.set(
            "asr.pages_per_bw",
            check_pages as f64 / CHECK_QUERIES as f64,
        );
        sheet.set("asr.snapshot_load_ms", median(&load_ms));
        sheet.set("asr.snapshot_write_ms", median(&write_ms));
        sheet.set("asr.snapshot_bytes", snapshot_bytes as f64);
        sheet.set("durable.checkpoint_load_ms", load0);
        sheet.set(
            "durable.replay_us_per_record",
            (restart - load0) * 1e3 / DELTA_OPS as f64,
        );
        sheet.set("durable.checkpoint_pages", checkpoint_pages as f64);
        sheet.set("durable.records_replayed", DELTA_OPS as f64);
        let (db, _) = stage();
        layers::structure(&db, design.asr, &mut sheet);
        layers::pagesim(&db, design.asr, &mut sheet);
        sheet.set("ledger.e3_us", bw_us);
        layers::finish_trace(
            cfg,
            &spans,
            timed.second_half_slowdown,
            timed.ops,
            &mut sheet,
        );
    }
    sheet.set("peak_rss_mb", peak_rss_mb());
    sheet
}
