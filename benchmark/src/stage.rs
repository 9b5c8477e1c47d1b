//! Common set-up shared by every workload: the fig6 population at 1/1
//! scale, one physical design, and the seeded operation stream.
//!
//! One design everywhere (ASR on `T0.A1.A2.A3.A4.Tag`, full extension,
//! binary decomposition) so a layer's numbers line up across workloads.

use std::collections::BTreeSet;

use asr_core::{AsrConfig, AsrId, Cell, Database, Decomposition, Extension};
use asr_costmodel::{profiles, CostModel, Profile};
use asr_gom::{Oid, PathExpression, Value};
use asr_workload::{generate, GeneratorSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The path every workload's ASR materializes.
pub const ASR_PATH: &str = "T0.A1.A2.A3.A4.Tag";
/// The database variable the forward query ranges over.
pub const HOT_VAR: &str = "Hot";
/// The forward OQL query (navigation from the `Hot` set's `T1` members).
pub const FW_QUERY: &str = "select r.A2.A3.A4.Tag from r in Hot";
/// Share of updates in `serve-mixed` (the paper's `P_up`).
pub const P_UP: f64 = 0.2;
/// Share of backward queries among the served queries; the rest are the
/// forward query over `Hot`.
pub const BW_SHARE: f64 = 0.75;

/// The backward OQL query for one tag value.
pub fn bw_query(tag: i64) -> String {
    format!("select t from t in T0 where t.A1.A2.A3.A4.Tag = {tag}")
}

/// What a client needs to know about the generated population to draw
/// operations.  Everything in here is `Send`; the database itself is not
/// and stays in the thread that staged it.
#[derive(Debug, Clone)]
pub struct Population {
    /// `T1 … T4` objects by level (level 0 is `T0`).
    pub levels: Vec<Vec<Oid>>,
    /// Level-3 objects whose `A4` set is defined (legal `ins_3` owners).
    pub owners: Vec<Oid>,
    /// `(owner, elem)` pairs already present in some owner's `A4` set.
    pub members: BTreeSet<(Oid, Oid)>,
    /// The `S1` set instance bound to [`HOT_VAR`].
    pub hot: Oid,
}

/// The physical design of a staged database and the population behind
/// it — everything about a staging that outlives handing the database
/// itself to a server, a durable wrapper or a replay.
#[derive(Debug, Clone)]
pub struct Design {
    pub asr: AsrId,
    /// The ASR's path (`T0.A1.A2.A3.A4.Tag`).
    pub path: PathExpression,
    /// `T1.A2.A3.A4.Tag`, what the forward OQL query navigates.
    pub fw_path: PathExpression,
    pub pop: Population,
}

/// The population's own seed (the one BENCH_3–10 generate with).  Fixed,
/// not taken from `--seed`: the driver accepts the benchmark on the
/// spread of each metric *across* seeds, and page counts per query vary
/// by tens of per cent between generated populations (which `S1` set
/// `Hot` is, how far its members' sub-trees reach).  `--seed` draws the
/// operation stream over this one population instead.
pub const POPULATION_SEED: u64 = 7;

/// Generate the population and build the ASR.  `Hot` is left for each
/// entry depth to bind the way that depth binds variables.
pub fn stage() -> (Database, Design) {
    let spec = GeneratorSpec::from_profile(&profiles::fig6_profile().profile, 1.0);
    let g = generate(&spec, POPULATION_SEED);
    let mut db = g.db;
    let path = PathExpression::parse(db.base().schema(), ASR_PATH).expect("ASR path parses");
    let fw_path =
        PathExpression::parse(db.base().schema(), "T1.A2.A3.A4.Tag").expect("fw path parses");
    let config = AsrConfig {
        extension: Extension::Full,
        decomposition: Decomposition::binary(path.arity(false) - 1),
        keep_set_oids: false,
    };
    let asr = db.create_asr_on(ASR_PATH, config).expect("ASR builds");

    let hot = g.sets[0]
        .iter()
        .flatten()
        .copied()
        .next()
        .expect("some T0 has a defined A1 set");

    let mut owners = Vec::new();
    let mut members = BTreeSet::new();
    for (idx, set) in g.sets[3].iter().enumerate() {
        let Some(set) = set else { continue };
        let owner = g.levels[3][idx];
        owners.push(owner);
        for elem in db.base().element_oids(*set).expect("A4 set exists") {
            members.insert((owner, elem));
        }
    }
    let pop = Population {
        levels: g.levels,
        owners,
        members,
        hot,
    };
    let design = Design {
        asr,
        path,
        fw_path,
        pop,
    };
    (db, design)
}

/// The cost model's view of the same design: the fig6 profile with the
/// `Tag` step appended as a fifth level (10 000 distinct values, each
/// `T4` object carrying exactly one), so the paper's formulas price the
/// path the system actually indexes.
pub fn model() -> CostModel {
    let p = profiles::fig6_profile().profile;
    let last = *p.c.last().expect("profile has levels");
    let (mut c, mut d, mut fan, mut size) = (p.c, p.d, p.fan, p.size);
    c.push(last);
    d.push(last);
    fan.push(1.0);
    size.push(8.0);
    CostModel::new(Profile::new(c, d, fan, size).expect("extended fig6 profile is valid"))
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Q_{i,j}(bw)` towards `target` (`j = 5` targets a `Tag` value).
    Bw { i: usize, j: usize, target: Cell },
    /// `Q_{i,j}(fw)` through the ASR from `start`.
    Fw { i: usize, j: usize, start: Oid },
    /// The fixed forward OQL query over `Hot`.
    FwHot,
    /// The paper's `ins_3`: insert `elem` into `owner.A4`.
    Ins { owner: Oid, elem: Oid },
}

/// Operation classes, for per-class latency and page accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Bw,
    Fw,
    Ins,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Bw, Class::Fw, Class::Ins];

    pub fn name(self) -> &'static str {
        match self {
            Class::Bw => "bw",
            Class::Fw => "fw",
            Class::Ins => "ins",
        }
    }

    pub fn is_query(self) -> bool {
        self != Class::Ins
    }
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Bw { .. } => Class::Bw,
            Op::Fw { .. } | Op::FwHot => Class::Fw,
            Op::Ins { .. } => Class::Ins,
        }
    }
}

/// Which operation stream to draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ¾ whole-chain backward OQL, ¼ forward OQL over `Hot`.
    ServeQuery,
    /// `P_up = 0.2` `ins_3`, the rest the [`Mix::ServeQuery`] mix.
    ServeMixed,
    /// The paper's §6.4.2 query mix: ½ `Q_{0,4}(bw)`, ¼ `Q_{0,3}(bw)`,
    /// ¼ `Q_{1,2}(fw)` (the queries of `profiles::fig14_mix`).
    Embedded,
}

/// The seeded, endless operation stream.  The program under test only
/// ever sees what this yields.
pub struct OpStream {
    rng: SmallRng,
    mix: Mix,
    pop: Population,
}

impl OpStream {
    pub fn new(seed: u64, mix: Mix, pop: Population) -> Self {
        // Decorrelated from the population generator's stream.
        let rng = SmallRng::seed_from_u64(seed ^ 0x6f70_5f73_7472_6d00);
        OpStream { rng, mix, pop }
    }

    fn pick(&mut self, level: usize) -> Oid {
        let objs = &self.pop.levels[level];
        objs[self.rng.gen_range(0..objs.len())]
    }

    fn serve_query(&mut self) -> Op {
        if self.rng.gen_bool(BW_SHARE) {
            let tags = self.pop.levels[4].len() as i64;
            Op::Bw {
                i: 0,
                j: 5,
                target: Cell::Value(Value::Integer(self.rng.gen_range(0..tags))),
            }
        } else {
            Op::FwHot
        }
    }

    /// An `ins_3` that is new to its owner's set, so the server must
    /// answer `Flag(true)` and anything else is a real failure.
    pub fn ins(&mut self) -> Op {
        loop {
            let owner = self.pop.owners[self.rng.gen_range(0..self.pop.owners.len())];
            let elem = self.pick(4);
            if self.pop.members.insert((owner, elem)) {
                return Op::Ins { owner, elem };
            }
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(match self.mix {
            Mix::ServeQuery => self.serve_query(),
            Mix::ServeMixed => {
                if self.rng.gen_bool(P_UP) {
                    self.ins()
                } else {
                    self.serve_query()
                }
            }
            Mix::Embedded => match self.rng.gen_range(0..4) {
                0 | 1 => Op::Bw {
                    i: 0,
                    j: 4,
                    target: Cell::Oid(self.pick(4)),
                },
                2 => Op::Bw {
                    i: 0,
                    j: 3,
                    target: Cell::Oid(self.pick(3)),
                },
                _ => Op::Fw {
                    i: 1,
                    j: 2,
                    start: self.pick(1),
                },
            },
        })
    }
}
