//! Shared harness for the durability integration tests: the paper's
//! company schema, a deterministic generator of guaranteed-effective
//! mutation scripts, and oracle-equivalence assertions.
//!
//! The WAL invariant the oracles rely on: every script operation is
//! *effective* by construction (the generator filters no-ops against a
//! shadow database), so operation `k` logs exactly one record with LSN
//! `k + 1`, and "the database after the first `m` operations" is both a
//! WAL prefix and an oracle a plain database can replay.

#![allow(dead_code)] // each test binary uses a different subset

use std::collections::BTreeSet;

use asr_core::{AsrConfig, AsrId, Cell, Database, Decomposition, Extension};
use asr_durable::{DurableDatabase, DurableError};
use asr_gom::{ObjectBase, ObjectBody, Oid, Schema, Value};
use rand::{Rng, SeedableRng};

pub const PATH: &str = "Division.Manufactures.Composition.Name";
pub const SCRIPT_LEN: usize = 24;

pub fn fuzz_seed() -> u64 {
    std::env::var("ASR_FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xA512_1990)
}

// ----------------------------------------------------------------------
// Seed database (the paper's company schema, small scale)
// ----------------------------------------------------------------------

pub fn company_schema() -> Schema {
    let mut s = Schema::new();
    s.define_tuple(
        "Division",
        [("Name", "STRING"), ("Manufactures", "ProdSET")],
    )
    .unwrap();
    s.define_set("ProdSET", "Product").unwrap();
    s.define_tuple(
        "Product",
        [("Name", "STRING"), ("Composition", "BasePartSET")],
    )
    .unwrap();
    s.define_set("BasePartSET", "BasePart").unwrap();
    s.define_tuple("BasePart", [("Name", "STRING")]).unwrap();
    s.validate().unwrap();
    s
}

/// The seed snapshot `S0`: a small populated company database with all
/// four extensions materialized over the full path, serialized once
/// through save/load so type-id assignment is at its fixed point and
/// every copy loaded from this text behaves identically (including OID
/// generation order).
pub fn seed_snapshot() -> Vec<u8> {
    let mut db = Database::from_base(ObjectBase::new(company_schema()));
    let d = db.instantiate("Division").unwrap();
    db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
    let ps = db.instantiate("ProdSET").unwrap();
    db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
    let prod = db.instantiate("Product").unwrap();
    db.set_attribute(prod, "Name", Value::string("560 SEC"))
        .unwrap();
    db.insert_into_set(ps, Value::Ref(prod)).unwrap();
    let bs = db.instantiate("BasePartSET").unwrap();
    db.set_attribute(prod, "Composition", Value::Ref(bs))
        .unwrap();
    let part = db.instantiate("BasePart").unwrap();
    db.set_attribute(part, "Name", Value::string("Door"))
        .unwrap();
    db.insert_into_set(bs, Value::Ref(part)).unwrap();
    for ext in Extension::ALL {
        db.create_asr_on(
            PATH,
            AsrConfig {
                extension: ext,
                decomposition: Decomposition::binary(3),
                keep_set_oids: false,
            },
        )
        .unwrap();
    }
    let fixed = Database::load_from_string(&db.save_to_string()).unwrap();
    fixed.save_to_string()
}

// ----------------------------------------------------------------------
// Script: guaranteed-effective operations
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
pub enum Op {
    New {
        ty: &'static str,
    },
    Set {
        owner: Oid,
        attr: &'static str,
        value: Value,
    },
    Ins {
        set: Oid,
        elem: Value,
    },
    Rem {
        set: Oid,
        elem: Value,
    },
    Del {
        oid: Oid,
    },
    Bind {
        name: String,
        value: Value,
    },
    Size {
        ty: &'static str,
        bytes: usize,
    },
    MkAsr {
        config: AsrConfig,
    },
    RmAsr {
        id: AsrId,
    },
}

pub fn apply_plain(db: &mut Database, op: &Op) {
    match op {
        Op::New { ty } => {
            db.instantiate(ty).unwrap();
        }
        Op::Set { owner, attr, value } => db.set_attribute(*owner, attr, value.clone()).unwrap(),
        Op::Ins { set, elem } => assert!(db.insert_into_set(*set, elem.clone()).unwrap()),
        Op::Rem { set, elem } => assert!(db.remove_from_set(*set, elem).unwrap()),
        Op::Del { oid } => db.delete_object(*oid).unwrap(),
        Op::Bind { name, value } => db.bind_variable(name, value.clone()),
        Op::Size { ty, bytes } => {
            let id = db.base().schema().resolve(ty).unwrap();
            db.set_type_size(id, *bytes);
        }
        Op::MkAsr { config } => {
            db.create_asr_on(PATH, config.clone()).unwrap();
        }
        Op::RmAsr { id } => db.drop_asr(*id).unwrap(),
    }
}

pub fn apply_durable<S: asr_durable::Storage>(
    dd: &mut DurableDatabase<S>,
    op: &Op,
) -> Result<(), DurableError> {
    match op {
        Op::New { ty } => dd.instantiate(ty).map(drop),
        Op::Set { owner, attr, value } => dd.set_attribute(*owner, attr, value.clone()),
        Op::Ins { set, elem } => dd.insert_into_set(*set, elem.clone()).map(|eff| {
            assert!(eff, "script op generated as effective");
        }),
        Op::Rem { set, elem } => dd.remove_from_set(*set, elem).map(|eff| {
            assert!(eff, "script op generated as effective");
        }),
        Op::Del { oid } => dd.delete_object(*oid),
        Op::Bind { name, value } => dd.bind_variable(name, value.clone()),
        Op::Size { ty, bytes } => dd.set_type_size(ty, *bytes),
        Op::MkAsr { config } => dd.create_asr_on(PATH, config.clone()).map(drop),
        Op::RmAsr { id } => dd.drop_asr(*id),
    }
}

pub struct Generator {
    db: Database, // shadow copy: tracks state so every op is effective
    rng: rand::rngs::SmallRng,
    pools: [Vec<Oid>; 5], // Division, ProdSET, Product, BasePartSET, BasePart
    referenced: BTreeSet<Oid>,
    live_asrs: Vec<AsrId>,
    counter: u64,
}

pub const TYPES: [&str; 5] = ["Division", "ProdSET", "Product", "BasePartSET", "BasePart"];

impl Generator {
    pub fn new(s0: &[u8], seed: u64) -> Self {
        let db = Database::load_from_string(s0).unwrap();
        let mut pools: [Vec<Oid>; 5] = Default::default();
        let mut referenced = BTreeSet::new();
        for obj in db.base().objects() {
            let name = db.base().schema().name(obj.ty).to_string();
            let slot = TYPES.iter().position(|t| *t == name).unwrap();
            pools[slot].push(obj.oid);
            // Seed objects reference each other; treat them all as
            // referenced so deletes only target fresh unlinked objects.
            referenced.insert(obj.oid);
        }
        let live_asrs = db.asrs().map(|(id, _)| id).collect();
        Generator {
            db,
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
            pools,
            referenced,
            live_asrs,
            counter: 0,
        }
    }

    fn pick(&mut self, slot: usize) -> Option<Oid> {
        if self.pools[slot].is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..self.pools[slot].len());
        Some(self.pools[slot][i])
    }

    fn fresh_string(&mut self) -> Value {
        self.counter += 1;
        Value::string(format!("val {}%{}", self.counter, self.counter * 7))
    }

    fn set_elems(&self, set: Oid) -> Vec<Value> {
        match self.db.base().object(set).unwrap().body {
            ObjectBody::Set(elems) => elems.to_vec(),
            _ => Vec::new(),
        }
    }

    /// Propose one effective operation (retrying internally).
    pub fn next_op(&mut self) -> Op {
        for _ in 0..100 {
            let kind = self.rng.gen_range(0..12u32);
            let op = match kind {
                0 | 1 => {
                    let slot = self.rng.gen_range(0..TYPES.len());
                    Some(Op::New { ty: TYPES[slot] })
                }
                2 | 3 => {
                    // Rename a tuple object to a fresh value: always effective.
                    let slot = [0usize, 2, 4][self.rng.gen_range(0..3usize)];
                    let value = self.fresh_string();
                    self.pick(slot).map(|owner| Op::Set {
                        owner,
                        attr: "Name",
                        value,
                    })
                }
                4 => {
                    // Link a division to a product set it doesn't point at.
                    let (d, ps) = match (self.pick(0), self.pick(1)) {
                        (Some(d), Some(ps)) => (d, ps),
                        _ => continue,
                    };
                    let cur = self.db.base().get_attribute(d, "Manufactures").unwrap();
                    if cur == Value::Ref(ps) {
                        continue;
                    }
                    Some(Op::Set {
                        owner: d,
                        attr: "Manufactures",
                        value: Value::Ref(ps),
                    })
                }
                5 => {
                    let (p, bs) = match (self.pick(2), self.pick(3)) {
                        (Some(p), Some(bs)) => (p, bs),
                        _ => continue,
                    };
                    let cur = self.db.base().get_attribute(p, "Composition").unwrap();
                    if cur == Value::Ref(bs) {
                        continue;
                    }
                    Some(Op::Set {
                        owner: p,
                        attr: "Composition",
                        value: Value::Ref(bs),
                    })
                }
                6 => {
                    // Insert an absent element into a set.
                    let (set_slot, elem_slot) = if self.rng.gen_bool(0.5) {
                        (1, 2)
                    } else {
                        (3, 4)
                    };
                    let (set, elem) = match (self.pick(set_slot), self.pick(elem_slot)) {
                        (Some(s), Some(e)) => (s, Value::Ref(e)),
                        _ => continue,
                    };
                    if self.set_elems(set).contains(&elem) {
                        continue;
                    }
                    Some(Op::Ins { set, elem })
                }
                7 => {
                    // Remove a present element.
                    let set_slot = if self.rng.gen_bool(0.5) { 1 } else { 3 };
                    let set = match self.pick(set_slot) {
                        Some(s) => s,
                        None => continue,
                    };
                    let elems = self.set_elems(set);
                    if elems.is_empty() {
                        continue;
                    }
                    let elem = elems[self.rng.gen_range(0..elems.len())].clone();
                    Some(Op::Rem { set, elem })
                }
                8 => {
                    // Delete an object nothing ever referenced.
                    let slot = self.rng.gen_range(0..TYPES.len());
                    let candidates: Vec<Oid> = self.pools[slot]
                        .iter()
                        .copied()
                        .filter(|o| !self.referenced.contains(o))
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let oid = candidates[self.rng.gen_range(0..candidates.len())];
                    Some(Op::Del { oid })
                }
                9 => {
                    let value = if self.rng.gen_bool(0.5) {
                        self.fresh_string()
                    } else {
                        match self.pick(2) {
                            Some(p) => Value::Ref(p),
                            None => continue,
                        }
                    };
                    self.counter += 1;
                    Some(Op::Bind {
                        name: format!("Var{}", self.counter),
                        value,
                    })
                }
                10 => {
                    let slot = self.rng.gen_range(0..TYPES.len());
                    let bytes = self.rng.gen_range(100..2000usize);
                    Some(Op::Size {
                        ty: TYPES[slot],
                        bytes,
                    })
                }
                _ => {
                    // Create or drop an access support relation.
                    if self.rng.gen_bool(0.3) && !self.live_asrs.is_empty() {
                        let i = self.rng.gen_range(0..self.live_asrs.len());
                        Some(Op::RmAsr {
                            id: self.live_asrs[i],
                        })
                    } else {
                        let all = Decomposition::enumerate_all(3);
                        let decomposition = all[self.rng.gen_range(0..all.len())].clone();
                        let ext = Extension::ALL[self.rng.gen_range(0..4usize)];
                        Some(Op::MkAsr {
                            config: AsrConfig {
                                extension: ext,
                                decomposition,
                                keep_set_oids: false,
                            },
                        })
                    }
                }
            };
            if let Some(op) = op {
                self.track(&op);
                return op;
            }
        }
        unreachable!("generator failed to produce an effective op in 100 draws")
    }

    /// Apply to the shadow database and update the bookkeeping pools.
    fn track(&mut self, op: &Op) {
        match op {
            Op::New { ty } => {
                let oid = self.db.instantiate(ty).unwrap();
                let slot = TYPES.iter().position(|t| t == ty).unwrap();
                self.pools[slot].push(oid);
                return;
            }
            Op::Set {
                value: Value::Ref(target),
                ..
            }
            | Op::Ins {
                elem: Value::Ref(target),
                ..
            } => {
                self.referenced.insert(*target);
            }
            Op::Bind {
                value: Value::Ref(target),
                ..
            } => {
                self.referenced.insert(*target);
            }
            Op::Del { oid } => {
                for pool in &mut self.pools {
                    pool.retain(|o| o != oid);
                }
            }
            Op::MkAsr { .. } => {}
            Op::RmAsr { id } => self.live_asrs.retain(|a| a != id),
            _ => {}
        }
        if let Op::MkAsr { config } = op {
            let id = self.db.create_asr_on(PATH, config.clone()).unwrap();
            self.live_asrs.push(id);
            return;
        }
        apply_plain(&mut self.db, op);
    }
}

pub fn make_script(s0: &[u8], seed: u64) -> Vec<Op> {
    let mut g = Generator::new(s0, seed);
    (0..SCRIPT_LEN).map(|_| g.next_op()).collect()
}

/// A script for two checkpoints the second of which is a delta: the
/// first half of a generated script, then generated object operations
/// only (no design change, which would make the checkpoint a full one)
/// up to [`SCRIPT_LEN`].  Returns the script and the two checkpoint
/// positions.  The design operations left out were applied to the
/// generator's shadow only, and no object operation depends on them.
pub fn delta_checkpoint_script(s0: &[u8], seed: u64) -> (Vec<Op>, [usize; 2]) {
    let mut g = Generator::new(s0, seed);
    let mut script: Vec<Op> = (0..SCRIPT_LEN / 2).map(|_| g.next_op()).collect();
    let first = script.len();
    while script.len() < SCRIPT_LEN {
        let op = g.next_op();
        if !matches!(op, Op::Size { .. } | Op::MkAsr { .. } | Op::RmAsr { .. }) {
            script.push(op);
        }
    }
    (script, [first, SCRIPT_LEN])
}

// ----------------------------------------------------------------------
// Equivalence
// ----------------------------------------------------------------------

/// Full structural + query equivalence between a recovered database and
/// the oracle.
pub fn assert_equivalent(recovered: &Database, oracle: &Database, ctx: &str) {
    assert_eq!(
        recovered.save_to_string(),
        oracle.save_to_string(),
        "snapshot divergence ({ctx})"
    );
    let rec: Vec<_> = recovered.asrs().collect();
    let ora: Vec<_> = oracle.asrs().collect();
    assert_eq!(rec.len(), ora.len(), "live ASR count ({ctx})");
    // Collect every part name in the oracle for backward spot queries.
    let part_names: Vec<Value> = oracle
        .base()
        .objects()
        .filter(|o| oracle.base().schema().name(o.ty) == "BasePart")
        .map(|o| oracle.base().get_attribute(o.oid, "Name").unwrap())
        .filter(|v| *v != Value::Null)
        .collect();
    for ((rid, ra), (oid, oa)) in rec.iter().zip(ora.iter()) {
        ra.check_consistency()
            .unwrap_or_else(|e| panic!("recovered ASR {rid} inconsistent ({ctx}): {e}"));
        assert_eq!(ra.config(), oa.config(), "ASR config order ({ctx})");
        if !ra.supports(0, 3) {
            continue;
        }
        for name in &part_names {
            let target = Cell::Value(name.clone());
            let mut r = recovered.backward(*rid, 0, 3, &target).unwrap();
            let mut o = oracle.backward(*oid, 0, 3, &target).unwrap();
            r.sort();
            o.sort();
            assert_eq!(r, o, "backward({name:?}) on ASR {rid} ({ctx})");
        }
    }
}

/// Build the oracle: seed snapshot plus the first `m` script operations.
pub fn oracle_at(s0: &[u8], script: &[Op], m: usize) -> Database {
    let mut db = Database::load_from_string(s0).unwrap();
    for op in &script[..m] {
        apply_plain(&mut db, op);
    }
    db
}
