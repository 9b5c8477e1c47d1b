//! The analytical model and the measured system must agree on the paper's
//! qualitative claims (shape-level validation at test-friendly scale).

use access_support::costmodel::{profiles, CostModel, Dec, Ext, Mix, Op};
use access_support::prelude::*;
use access_support::workload::scale_profile;

fn core_ext(ext: Ext) -> Extension {
    match ext {
        Ext::Canonical => Extension::Canonical,
        Ext::Full => Extension::Full,
        Ext::Left => Extension::LeftComplete,
        Ext::Right => Extension::RightComplete,
    }
}

fn measured_backward_cost(scaled: &Profile, ext: Option<Ext>) -> f64 {
    let spec = GeneratorSpec::from_profile(scaled, 1.0);
    let n = scaled.n;
    let mix = Mix::new(vec![(1.0, Op::bw(0, n))], vec![], 0.0);
    let mut g = generate(&spec, 17);
    let id = ext.map(|e| {
        let m = g.path.arity(false) - 1;
        g.db.create_asr(
            g.path.clone(),
            AsrConfig {
                extension: core_ext(e),
                decomposition: Decomposition::binary(m),
                keep_set_oids: false,
            },
        )
        .unwrap()
    });
    let trace = generate_trace(&g, &mix, 15, 23);
    g.db.stats().reset();
    let path = g.path.clone();
    execute_trace(&mut g.db, id, &path, &trace).mean_cost()
}

/// Figure 6's shape holds in the measured system: every supported design
/// is far below the exhaustive search, and the analytical prediction for
/// the *same scaled profile* lands within a reasonable band of the
/// measurement.
#[test]
fn figure6_shape_empirically() {
    let scaled = scale_profile(&profiles::fig6_profile().profile, 10.0);
    let model = CostModel::new(scaled.clone());
    let n = scaled.n;

    let naive = measured_backward_cost(&scaled, None);
    let predicted_naive = model.qnas_bw(0, n);
    assert!(
        naive / predicted_naive > 0.3 && naive / predicted_naive < 3.0,
        "naive measured {naive:.1} vs predicted {predicted_naive:.1}"
    );

    for ext in Ext::ALL {
        let measured = measured_backward_cost(&scaled, Some(ext));
        assert!(
            measured * 3.0 < naive,
            "{ext}: supported {measured:.1} must be well below naive {naive:.1}"
        );
    }
}

/// Figure 11's shape holds empirically: for ins_3, left << right, and the
/// full extension performs no object-representation search at all.
#[test]
fn figure11_shape_empirically() {
    let scaled = scale_profile(&profiles::fig11_profile().profile, 25.0);
    let spec = GeneratorSpec::from_profile(&scaled, 1.0);
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);

    let mut costs = std::collections::HashMap::new();
    for ext in Ext::ALL {
        let mut g = generate(&spec, 31);
        let m = g.path.arity(false) - 1;
        let id =
            g.db.create_asr(
                g.path.clone(),
                AsrConfig {
                    extension: core_ext(ext),
                    decomposition: Decomposition::binary(m),
                    keep_set_oids: false,
                },
            )
            .unwrap();
        let trace = generate_trace(&g, &mix, 12, 77);
        g.db.stats().reset();
        let path = g.path.clone();
        let report = execute_trace(&mut g.db, Some(id), &path, &trace);
        costs.insert(ext.name(), report.mean_cost());
    }
    assert!(
        costs["left"] * 3.0 < costs["right"],
        "left {:.1} must be far below right {:.1}",
        costs["left"],
        costs["right"]
    );
    assert!(
        costs["left"] * 2.0 < costs["canonical"],
        "left {:.1} must beat canonical {:.1}",
        costs["left"],
        costs["canonical"]
    );
}

/// Beyond the shape, the magnitude: a Full/binary `ins_3` charges within
/// ±3 pages of formula (36) plus `aup` (`update_cost`) for the same
/// scaled profile — the object update, one partition's two trees, and
/// the neighbour probes that decide whether anything else changes.
#[test]
fn figure11_full_ins3_magnitude_matches_update_cost() {
    let scaled = scale_profile(&profiles::fig11_profile().profile, 25.0);
    let model = CostModel::new(scaled.clone());
    let spec = GeneratorSpec::from_profile(&scaled, 1.0);
    let mix = Mix::new(vec![], vec![(1.0, Op::ins(3))], 1.0);
    let mut g = generate(&spec, 31);
    let m = g.path.arity(false) - 1;
    let id =
        g.db.create_asr(g.path.clone(), AsrConfig::binary(Extension::Full, &g.path))
            .unwrap();
    let trace = generate_trace(&g, &mix, 12, 77);
    g.db.stats().reset();
    let path = g.path.clone();
    let measured = execute_trace(&mut g.db, Some(id), &path, &trace).mean_cost();
    let predicted = model.update_cost(Ext::Full, 3, &Dec::binary(m));
    assert!(
        (measured - predicted).abs() <= 3.0,
        "ins_3 measured {measured:.2} pages vs update_cost {predicted:.2}"
    );
}

/// The optimizer's recommended design actually beats an arbitrary
/// non-recommended one when both are executed on the generated system.
#[test]
fn optimizer_choice_wins_empirically() {
    let model = profiles::fig14_profile();
    let mix_spec = profiles::fig14_mix(0.2);
    let best = best_design(&model, &mix_spec);
    let best_ext = best.extension.expect("query-heavy mix wants support");

    let scaled = scale_profile(&model.profile, 25.0);
    let spec = GeneratorSpec::from_profile(&scaled, 1.0);

    let run = |ext: Ext, cuts: Vec<usize>| -> f64 {
        let mut g = generate(&spec, 3);
        let id =
            g.db.create_asr(
                g.path.clone(),
                AsrConfig {
                    extension: core_ext(ext),
                    decomposition: Decomposition::new(cuts).unwrap(),
                    keep_set_oids: false,
                },
            )
            .unwrap();
        let trace = generate_trace(&g, &mix_spec, 60, 13);
        g.db.stats().reset();
        let path = g.path.clone();
        execute_trace(&mut g.db, Some(id), &path, &trace).mean_cost()
    };

    let tuned = run(best_ext, best.decomposition.0.clone());
    // A deliberately poor design for this anchored, update-light mix.
    let poor = run(Ext::Right, (0..=model.n()).collect());
    assert!(
        tuned < poor,
        "optimizer pick {tuned:.1}/op must beat the poor design {poor:.1}/op"
    );
}
