//! The metric registry — the single source `BENCHMARK.json` is printed
//! from (`run.sh --manifest`) — and one run's result sheet.
//!
//! Every run reports every registered metric of its mode: all end-to-end
//! metrics untraced, all per-layer metrics traced.  A per-layer metric
//! of a layer the workload does not traverse reads 0: that layer's share
//! of this workload is nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve-query",
        "read-only OQL over real TCP through serve_until_shutdown: the front door (server, net, oql) is >99% of latency, so front-door gains show here and nowhere else",
    ),
    (
        "serve-mixed",
        "same front door on a durable database, P_up=0.2 ins_3 beside the query mix, fsync per record: ASR maintenance and WAL carry update latency, read gains that tax writes show here",
    ),
    (
        "embedded-query",
        "paper 6.4.2 query mix in-process through Database::backward/forward: asr and pagesim do all the work, bypassing every front-door layer; the control for serve-query",
    ),
    (
        "restart",
        "durability cycles on FsStorage (open = checkpoint load + 16-record replay, answer check, checkpoint): asr::persist parse/serialise and durable replay dominate, untouched elsewhere",
    ),
];

/// Measurement seconds per run the driver asks for.
pub const RUN_SECONDS: u64 = 10;
/// The seed runs default to, and the one held out for checking a claim.
pub const DEFAULT_SEED: u64 = 7;
pub const HELD_OUT_SEED: u64 = 1990;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Metrics a user of the system sees; every workload reports all of them.
/// The timing bounds are the widest the driver allows, not the issue's
/// 10 %: on the shared sandbox ten runs of `restart` spread by up to 12 %
/// even from their least-disturbed slices, and two sets of ten taken an
/// hour apart moved its medians by 16–19 % (`BASELINE.md`).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "pages_per_query",
        unit: "pages",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric on which workload this should move
    /// (written down before measuring; printed in the README table).
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const Q_SERVE: &str = "query_p50_us, ops_per_s on serve-query";
const Q_EMBED: &str = "ops_per_s, pages_per_query on embedded-query";
const U_MIXED: &str = "update_p50_us, ops_per_s on serve-mixed";
const RESTART: &str = "restart_ms, ops_per_s on restart";
const CKPT: &str = "checkpoint_ms, ops_per_s on restart";
const FAILED: &str = "failed on every serve workload";
const INFO: &str = "informational";

/// Single-layer metrics, crate names as layer names.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("server.tcp_self_us", "us", "lower", Q_SERVE),
    layer("server.session_self_us", "us", "lower", Q_SERVE),
    layer("server.executed", "count", "higher", INFO),
    layer("server.replayed", "count", "lower", FAILED),
    layer("server.nacked", "count", "lower", FAILED),
    layer("server.tcp_accepts", "count", "lower", INFO),
    layer("net.codec_us_per_op", "us", "lower", Q_SERVE),
    layer("net.request_bytes_per_op", "B", "lower", Q_SERVE),
    layer("net.response_bytes_per_op", "B", "lower", Q_SERVE),
    layer("net.retries", "count", "lower", FAILED),
    layer("net.damaged_responses", "count", "lower", FAILED),
    layer("oql.parse_us", "us", "lower", Q_SERVE),
    layer("oql.plan_us", "us", "lower", Q_SERVE),
    layer("oql.self_us", "us", "lower", Q_SERVE),
    layer(
        "oql.indexed_share",
        "share",
        "higher",
        "pages_per_query on serve-query",
    ),
    layer("oql.rows_per_query", "count", "lower", INFO),
    layer("asr.bw_us", "us", "lower", Q_EMBED),
    layer("asr.fw_us", "us", "lower", Q_EMBED),
    layer("asr.pages_per_bw", "pages", "lower", Q_EMBED),
    layer("asr.pages_per_fw", "pages", "lower", Q_EMBED),
    layer("asr.maintain_us", "us", "lower", U_MIXED),
    layer(
        "asr.pages_per_ins",
        "pages",
        "lower",
        "pages_per_update on serve-mixed",
    ),
    layer("asr.naive_bw_us", "us", "lower", INFO),
    layer("asr.naive_pages_per_bw", "pages", "lower", INFO),
    layer("asr.support_page_ratio", "ratio", "lower", INFO),
    layer("asr.snapshot_load_ms", "ms", "lower", RESTART),
    layer("asr.snapshot_write_ms", "ms", "lower", CKPT),
    layer(
        "asr.snapshot_bytes",
        "B",
        "lower",
        "checkpoint_bytes on restart",
    ),
    layer("asr.total_pages", "pages", "lower", INFO),
    layer("asr.total_rows", "count", "lower", INFO),
    layer("pagesim.btree_lookup_ns", "ns", "lower", Q_EMBED),
    layer("pagesim.btree_insert_ns", "ns", "lower", U_MIXED),
    layer("pagesim.btree_scan_ns_per_row", "ns", "lower", RESTART),
    layer("pagesim.pages_per_lookup", "pages", "lower", Q_EMBED),
    layer("pagesim.buffer_hit_share", "share", "higher", Q_EMBED),
    layer(
        "pagesim.batch_pages_saved_share",
        "share",
        "higher",
        Q_EMBED,
    ),
    layer("pagesim.probe_share_of_query", "share", "lower", Q_EMBED),
    layer("durable.append_us", "us", "lower", U_MIXED),
    layer("durable.fsyncs_per_update", "count", "lower", U_MIXED),
    layer(
        "durable.wal_bytes_per_update",
        "B",
        "lower",
        "wal_bytes_per_update on serve-mixed",
    ),
    layer(
        "durable.wal_pages_per_update",
        "pages",
        "lower",
        "pages_per_update on serve-mixed",
    ),
    layer("durable.checkpoint_load_ms", "ms", "lower", RESTART),
    layer("durable.replay_us_per_record", "us", "lower", RESTART),
    layer("durable.checkpoint_pages", "pages", "lower", CKPT),
    layer("durable.records_replayed", "count", "lower", RESTART),
    layer("costmodel.bw_page_residual", "pages", "lower", INFO),
    layer("costmodel.fw_page_residual", "pages", "lower", INFO),
    layer("costmodel.ins_page_residual", "pages", "lower", INFO),
    layer(
        "obs.trace_overhead_share",
        "share",
        "lower",
        "ops_per_s on every workload",
    ),
    layer("obs.spans", "count", "higher", INFO),
    layer("ledger.e0_p50_us", "us", "lower", INFO),
    layer("ledger.e0_mean_us", "us", "lower", INFO),
    layer("ledger.e1_us", "us", "lower", INFO),
    layer("ledger.e2_us", "us", "lower", INFO),
    layer("ledger.e3_us", "us", "lower", INFO),
    layer("ledger.parts_over_whole", "ratio", "lower", INFO),
    layer("ledger.ops", "count", "higher", INFO),
    layer("ledger.cpus", "count", "higher", INFO),
];

/// One run's results.
#[derive(Default)]
pub struct Sheet {
    pub attempted: u64,
    pub failed: u64,
    /// Set by the first failed correctness check.
    pub incorrect: Option<String>,
    values: BTreeMap<&'static str, f64>,
    /// Workload-specific figures a user would see (update latency,
    /// restart time, …) that the uniform JSON line cannot carry: printed
    /// in the table and recorded in `BASELINE.md`.
    pub extra: Vec<(&'static str, &'static str, f64)>,
    /// Free-form lines for the table (sample counts, policies).
    pub notes: Vec<String>,
}

impl Sheet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn extra(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.extra.push((name, unit, value));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a correctness failure (first one wins) and print it.
    pub fn wrong(&mut self, what: String) {
        eprintln!("INCORRECT: {what}");
        self.incorrect.get_or_insert(what);
    }

    /// A failed operation: counted, printed, never fatal on its own.
    pub fn op_failed(&mut self, what: String) {
        eprintln!("FAILED OP: {what}");
        self.failed += 1;
    }

    /// (name, unit, value, what it should move) of every registered
    /// metric of the mode.
    fn rows(&self, traced: bool) -> Vec<(&'static str, &'static str, f64, &'static str)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, self.get(m.name), m.moves))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = *self
                        .values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                    (m.name, m.unit, v, "")
                })
                .collect()
        }
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn table(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = String::new();
        let mode = if traced {
            "per-layer (traced; \u{2192} the end-to-end metric it should move)"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "== {workload} · seed {seed} · {mode} ==");
        for (name, unit, value, moves) in self.rows(traced) {
            let arrow = if moves.is_empty() { "" } else { "  \u{2192} " };
            let _ = writeln!(out, "{name:<34} {value:>16.4} {unit:<6}{arrow}{moves}");
        }
        // Workload-specific user-visible figures ride along untraced.
        for (name, unit, value) in self.extra.iter().filter(|_| !traced) {
            let _ = writeln!(out, "{name:<34} {value:>16.4} {unit}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<34} {share:>16.4} share ({} of {})",
            "failed_ops_share", self.failed, self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        match &self.incorrect {
            None => out.push_str("  correctness: all checks passed\n"),
            Some(what) => {
                let _ = writeln!(out, "  correctness: FAILED — {what}");
            }
        }
        out
    }

    /// The driver's result line.
    pub fn json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .rows(traced)
            .into_iter()
            .map(|(name, unit, value, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.incorrect.is_none(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `BENCHMARK.json`, printed from the registry above.
pub fn manifest() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the driver refuses a manifest over.
    #[test]
    fn registry_fits_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}"
            );
        }
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in &PER_LAYER {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && names.insert(m.name),
                "{}",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
            assert!(!m.moves.is_empty());
        }
        assert!(manifest().len() < 64 * 1024);
    }
}
