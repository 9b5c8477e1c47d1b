#![allow(dead_code)] // each test target uses a subset of these helpers

//! Shared staging for the serving tests: durable primaries over the
//! company example and over randomly decomposed generated chains.

use asr_core::{AsrConfig, AsrId, Decomposition, Extension};
use asr_durable::{DurableDatabase, FlushPolicy, MemStorage};
use asr_workload::{generate, GeneratorSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The company example wrapped in a WAL-backed primary, with one full
/// ASR over the paper's three-step path.
pub fn company_primary() -> (DurableDatabase<MemStorage>, AsrId) {
    let ex = asr_workload::company_database();
    let mut db = ex.db;
    let m = ex.path.arity(false) - 1;
    let id = db
        .create_asr_on(
            "Division.Manufactures.Composition.Name",
            AsrConfig {
                extension: Extension::Full,
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let durable =
        DurableDatabase::create(MemStorage::new(), db, FlushPolicy::EveryRecord).expect("creates");
    (durable, id)
}

/// A staged chain primary: a generated chain object base with one ASR
/// under a seed-derived extension and decomposition.
pub struct ChainPrimary {
    pub durable: DurableDatabase<MemStorage>,
    pub asr: AsrId,
}

/// Generate a chain database and decompose its ASR randomly — path
/// length, level populations, fan-outs, extension and cut points all
/// derive from `seed`.
pub fn stage_chain(seed: u64) -> ChainPrimary {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CA5E);
    let n = rng.gen_range(2usize..5);
    let counts: Vec<usize> = (0..=n).map(|_| rng.gen_range(5usize..13)).collect();
    let defined: Vec<usize> = counts[..n]
        .iter()
        .map(|&c| rng.gen_range(c.saturating_sub(2).max(1)..c + 1))
        .collect();
    let fan: Vec<usize> = (0..n).map(|_| rng.gen_range(1usize..4)).collect();
    let sizes: Vec<usize> = (0..=n).map(|_| rng.gen_range(64usize..257)).collect();
    let spec = GeneratorSpec {
        counts,
        defined,
        fan,
        sizes,
    };
    let g = generate(&spec, seed);
    let m = g.path.arity(false) - 1;
    let extension = match rng.gen_range(0usize..4) {
        0 => Extension::Canonical,
        1 => Extension::Full,
        2 => Extension::LeftComplete,
        _ => Extension::RightComplete,
    };
    // Random strictly increasing cut points 0 = k0 < … < kp = m.
    let mut cuts = vec![0];
    for k in 1..m {
        if rng.gen_range(0usize..100) < 50 {
            cuts.push(k);
        }
    }
    cuts.push(m);
    let decomposition = Decomposition::new(cuts).expect("cuts are valid");
    let mut db = g.db;
    let dotted = g.path.to_string();
    let asr = db
        .create_asr_on(
            &dotted,
            AsrConfig {
                extension,
                decomposition,
                keep_set_oids: false,
            },
        )
        .expect("ASR builds");
    let durable =
        DurableDatabase::create(MemStorage::new(), db, FlushPolicy::EveryRecord).expect("creates");
    ChainPrimary { durable, asr }
}
