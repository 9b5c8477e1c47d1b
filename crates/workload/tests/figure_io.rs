//! The measured page I/O of the workloads behind Figures 6 and 11,
//! pinned: each figure's population at 1/5 scale with one Full/binary
//! ASR over the generated chain, driven by a seeded trace.  The page
//! simulation is exact, so every counter is a literal.

use asr_core::{AsrConfig, Decomposition, Extension};
use asr_costmodel::{profiles, Mix, Op, Profile};
use asr_pagesim::IoSnapshot;
use asr_workload::{execute_trace, generate, generate_trace, scale_profile, GeneratorSpec};

const SCALE: f64 = 5.0;

/// Generate `profile` at 1/[`SCALE`] with `gen_seed`, index its chain,
/// and return the I/O of `ops` operations of `mix` drawn with
/// `trace_seed`.
fn measure(profile: &Profile, gen_seed: u64, mix: &Mix, ops: usize, trace_seed: u64) -> IoSnapshot {
    let scaled = scale_profile(profile, SCALE);
    let mut g = generate(&GeneratorSpec::from_profile(&scaled, 1.0), gen_seed);
    let m = g.path.arity(false) - 1;
    let id =
        g.db.create_asr(
            g.path.clone(),
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let trace = generate_trace(&g, mix, ops, trace_seed);
    g.db.stats().reset();
    let path = g.path.clone();
    execute_trace(&mut g.db, Some(id), &path, &trace);
    g.db.stats().snapshot()
}

/// Thirty whole-chain backward queries `Q_{0,n}(bw)`: the supported
/// regime Figure 6 prices, with the batched frontier probes it shares.
#[test]
fn fig6_backward_queries_charge_pinned_pages() {
    let profile = profiles::fig6_profile().profile;
    let mix = Mix::new(vec![(1.0, Op::bw(0, profile.n))], vec![], 0.0);
    assert_eq!(
        measure(&profile, 1, &mix, 30, 2),
        IoSnapshot {
            reads: 114,
            writes: 0,
            buffer_hits: 0,
            batch_probes: 76,
            batch_pages_saved: 19,
        }
    );
}

/// Twenty `ins_3` updates maintaining the ASR: the update regime
/// Figure 11 prices.  Each update inserts a new member into an owner's
/// non-empty `A4` set: one read and one write of the owner's page in
/// `objects.T3`, and one insert into each tree of the partition `[3,4]`
/// holding the step (a root and a leaf read, a leaf write), 5 reads and
/// 3 writes in all.  No other partition is probed or written: the owner
/// already had rows there, and column 4 is the last.
#[test]
fn fig11_ins3_updates_charge_pinned_pages() {
    let profile = profiles::fig11_profile().profile;
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    assert_eq!(
        measure(&profile, 3, &mix, 20, 4),
        IoSnapshot {
            reads: 100,
            writes: 60,
            buffer_hits: 0,
            batch_probes: 0,
            batch_pages_saved: 0,
        }
    );
}
