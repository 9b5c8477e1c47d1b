//! Cross-crate integration tests: the full stack from schema definition
//! through ASR-backed queries and maintained updates, with page-access
//! assertions.

use access_support::prelude::*;

/// Build the company DB, index it under every extension × three
/// decompositions, and check that all designs answer the paper's queries
/// identically (falling back to naive evaluation where formula 35 demands
/// it).
#[test]
fn every_design_answers_the_paper_queries() {
    for ext in Extension::ALL {
        for cuts in [vec![0usize, 3], vec![0, 1, 2, 3], vec![0, 2, 3]] {
            let mut ex = company_database();
            let path = ex.path.clone();
            let config = AsrConfig {
                extension: ext,
                decomposition: Decomposition::new(cuts.clone()).unwrap(),
                keep_set_oids: false,
            };
            let id = ex.db.create_asr(path.clone(), config).unwrap();

            // Query 2 (backward, whole chain).
            let divisions = ex
                .db
                .backward(id, 0, 3, &Cell::Value(Value::string("Door")))
                .unwrap();
            assert_eq!(divisions.len(), 2, "{ext} {cuts:?}");

            // Query 3 (forward, whole chain).
            let auto = ex.by_name("Auto").unwrap();
            let names = ex.db.forward(id, 0, 3, auto).unwrap();
            assert_eq!(
                names,
                vec![Cell::Value(Value::string("Door"))],
                "{ext} {cuts:?}"
            );

            // Partial span with fallback.
            let sec = ex.by_name("560 SEC").unwrap();
            let parts = ex.db.forward(id, 1, 2, sec).unwrap();
            assert_eq!(parts.len(), 1, "{ext} {cuts:?}");
        }
    }
}

/// Supported evaluation must touch fewer pages than navigation for the
/// whole-chain backward query on a non-trivial population.
#[test]
fn supported_queries_cost_less_pages() {
    let spec = GeneratorSpec {
        counts: vec![20, 100, 200, 1000, 2000],
        defined: vec![18, 80, 160, 400],
        fan: vec![2, 2, 3, 4],
        sizes: vec![500, 400, 300, 300, 100],
    };
    let mut g = generate(&spec, 5);
    let target = Cell::Oid(g.levels[4][0]);
    let path = g.path.clone();

    g.db.stats().reset();
    g.db.backward_unindexed(&path, 0, 4, &target).unwrap();
    let naive_cost = g.db.stats().accesses();

    let id =
        g.db.create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
            .unwrap();
    g.db.stats().reset();
    g.db.backward(id, 0, 4, &target).unwrap();
    let supported_cost = g.db.stats().accesses();

    assert!(
        supported_cost * 5 < naive_cost,
        "supported {supported_cost} should be at least 5x below naive {naive_cost}"
    );
}

/// A long mixed update stream keeps every extension exactly equal to a
/// from-scratch rebuild (the end-to-end version of the maintenance
/// property tests).
#[test]
fn mixed_update_stream_keeps_all_extensions_consistent() {
    let mut ex = company_database();
    let path = ex.path.clone();
    let mut ids = Vec::new();
    for ext in Extension::ALL {
        ids.push(
            ex.db
                .create_asr(path.clone(), AsrConfig::binary(ext, &path))
                .unwrap(),
        );
    }

    // Grow: a new division producing a new product from existing parts.
    let bikes = ex.db.instantiate("Division").unwrap();
    ex.db
        .set_attribute(bikes, "Name", Value::string("Bikes"))
        .unwrap();
    let prods = ex.db.instantiate("ProdSET").unwrap();
    ex.db
        .set_attribute(bikes, "Manufactures", Value::Ref(prods))
        .unwrap();
    let ebike = ex.db.instantiate("Product").unwrap();
    ex.db
        .set_attribute(ebike, "Name", Value::string("eBike"))
        .unwrap();
    ex.db.insert_into_set(prods, Value::Ref(ebike)).unwrap();
    let parts = ex.db.instantiate("BasePartSET").unwrap();
    ex.db
        .set_attribute(ebike, "Composition", Value::Ref(parts))
        .unwrap();
    let door = ex.by_name("Door").unwrap();
    ex.db.insert_into_set(parts, Value::Ref(door)).unwrap();

    // Shrink: Truck stops producing the 560 SEC.
    let truck = ex.by_name("Truck").unwrap();
    let truck_prods = ex
        .db
        .base()
        .get_attribute(truck, "Manufactures")
        .unwrap()
        .as_ref_oid()
        .unwrap();
    let sec = ex.by_name("560 SEC").unwrap();
    ex.db
        .remove_from_set(truck_prods, &Value::Ref(sec))
        .unwrap();

    // Rename the shared part (terminal value update).
    ex.db
        .set_attribute(door, "Name", Value::string("Hatch"))
        .unwrap();

    // All ASRs still equal their rebuilds and answer consistently.
    for &id in &ids {
        let asr = ex.db.asr(id).unwrap();
        asr.check_consistency().unwrap();
        let reference = access_support::asr::AccessSupportRelation::build(
            ex.db.base(),
            asr.path().clone(),
            asr.config().clone(),
            IoStats::new_handle(),
        )
        .unwrap();
        assert!(
            asr.full_rows().eq(reference.full_rows()),
            "{} diverged from rebuild",
            asr.config().extension
        );
        let hits = ex
            .db
            .backward(id, 0, 3, &Cell::Value(Value::string("Hatch")))
            .unwrap();
        // Auto still makes the 560 SEC; Bikes now uses the part too.
        assert_eq!(hits.len(), 2, "{}", asr.config().extension);
    }
}

/// The robot example (linear path, shared subobjects) works through the
/// whole stack including the value-terminated final step.
#[test]
fn robot_scenario_with_shared_subobjects() {
    let mut ex = robot_database();
    let path = ex.path.clone();
    assert!(path.is_linear());
    let id = ex
        .db
        .create_asr(
            path.clone(),
            AsrConfig::non_decomposed(Extension::Canonical, &path),
        )
        .unwrap();
    // All three robots use RobClone (Utopia) tools — two share one tool.
    let hits = ex
        .db
        .backward(id, 0, 4, &Cell::Value(Value::string("Utopia")))
        .unwrap();
    assert_eq!(hits.len(), 3);

    // Moving the shared tool's manufacturer relocates every using robot.
    let gripper = ex
        .db
        .base()
        .find_by_attribute("Function", &Value::string("gripping"))
        .unwrap();
    let local = ex.db.instantiate("MANUFACTURER").unwrap();
    ex.db
        .set_attribute(local, "Location", Value::string("Earth"))
        .unwrap();
    ex.db
        .set_attribute(gripper, "ManufacturedBy", Value::Ref(local))
        .unwrap();

    let hits = ex
        .db
        .backward(id, 0, 4, &Cell::Value(Value::string("Utopia")))
        .unwrap();
    assert_eq!(hits.len(), 1, "only R2D2's welder remains Utopian");
    let hits = ex
        .db
        .backward(id, 0, 4, &Cell::Value(Value::string("Earth")))
        .unwrap();
    assert_eq!(hits.len(), 2, "X4D5 and Robi share the moved tool");
}

/// Dropping and re-creating ASRs with different configurations on a live
/// database.
#[test]
fn asr_lifecycle() {
    let mut ex = company_database();
    let path = ex.path.clone();
    let a = ex
        .db
        .create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
        .unwrap();
    let b = ex
        .db
        .create_asr(
            path.clone(),
            AsrConfig::non_decomposed(Extension::LeftComplete, &path),
        )
        .unwrap();
    assert_eq!(ex.db.asrs().count(), 2);
    ex.db.drop_asr(a).unwrap();
    assert_eq!(ex.db.asrs().count(), 1);
    // The remaining ASR still works and is still maintained.
    let sausage = ex.by_name("Sausage").unwrap();
    let parts = ex
        .db
        .base()
        .get_attribute(sausage, "Composition")
        .unwrap()
        .as_ref_oid()
        .unwrap();
    let door = ex.by_name("Door").unwrap();
    ex.db.insert_into_set(parts, Value::Ref(door)).unwrap();
    let hits = ex
        .db
        .backward(b, 0, 3, &Cell::Value(Value::string("Door")))
        .unwrap();
    assert_eq!(
        hits.len(),
        2,
        "Sausage is not Division-reachable; Auto and Truck are"
    );
}
