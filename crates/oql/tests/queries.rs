//! End-to-end tests: the paper's queries in the paper's own notation,
//! with and without access support relations.

use asr_core::{AsrConfig, Extension};
use asr_gom::Value;
use asr_oql::{execute, explain};
use asr_workload::{company_database, robot_database};

#[test]
fn query_1_robots_using_utopia_tools() {
    let ex = robot_database();
    let result = execute(
        &ex.db,
        r#"select r.Name
           from r in OurRobots
           where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia""#,
    )
    .unwrap();
    assert_eq!(result.columns, vec!["r.Name"]);
    let names: Vec<&str> = result.rows.iter().filter_map(|r| r[0].as_str()).collect();
    assert_eq!(names, vec!["R2D2", "Robi", "X4D5"]);
}

#[test]
fn query_2_divisions_using_door() {
    let ex = company_database();
    let result = execute(
        &ex.db,
        r#"select d.Name
           from d in Mercedes,
                b in d.Manufactures.Composition
           where b.Name = "Door""#,
    )
    .unwrap();
    let names: Vec<&str> = result.rows.iter().filter_map(|r| r[0].as_str()).collect();
    assert_eq!(names, vec!["Auto", "Truck"]);
}

#[test]
fn query_3_baseparts_of_auto() {
    let ex = company_database();
    let result = execute(
        &ex.db,
        r#"select d.Manufactures.Composition.Name
           from d in Mercedes
           where d.Name = "Auto""#,
    )
    .unwrap();
    assert_eq!(result.rows, vec![vec![Value::string("Door")]]);
}

#[test]
fn indexed_and_unindexed_agree_and_index_is_cheaper() {
    let query = r#"select r.Name
                   from r in ROBOT
                   where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia""#;

    let ex = robot_database();
    ex.db.stats().reset();
    let plain = execute(&ex.db, query).unwrap();
    let plain_cost = ex.db.stats().accesses();

    let mut ex = robot_database();
    let path = ex.path.clone();
    ex.db
        .create_asr(path.clone(), AsrConfig::binary(Extension::Canonical, &path))
        .unwrap();
    ex.db.stats().reset();
    let indexed = execute(&ex.db, query).unwrap();
    let indexed_cost = ex.db.stats().accesses();

    assert_eq!(plain.rows, indexed.rows);
    assert!(plain_cost > 0 && indexed_cost > 0);
    // The tiny example barely differentiates; the explain output proves
    // the route taken.
    let plan = explain(&ex.db, query).unwrap();
    assert!(plan.contains("backward span query through ASR"), "{plan}");
    let plain_plan = explain(&company_database().db, "select d.Name from d in Division").unwrap();
    assert!(plain_plan.contains("extent of Division"), "{plain_plan}");
}

#[test]
fn extent_iteration_and_comparisons() {
    let ex = company_database();
    // Price comparison on the BasePart extent.
    let result = execute(
        &ex.db,
        r#"select b.Name from b in BasePart where b.Price >= 1.00"#,
    )
    .unwrap();
    assert_eq!(result.rows, vec![vec![Value::string("Door")]]);
    let result = execute(
        &ex.db,
        r#"select b.Name from b in BasePart where b.Price < 1.00"#,
    )
    .unwrap();
    assert_eq!(result.rows, vec![vec![Value::string("Pepper")]]);
    let result = execute(
        &ex.db,
        r#"select b.Name from b in BasePart where b.Name != "Door""#,
    )
    .unwrap();
    assert_eq!(result.rows, vec![vec![Value::string("Pepper")]]);
}

#[test]
fn null_tests() {
    let ex = company_database();
    // Space has no Manufactures set; MB Trak has no Composition.
    let result = execute(
        &ex.db,
        r#"select d.Name from d in Division where d.Manufactures = NULL"#,
    )
    .unwrap();
    assert_eq!(result.rows, vec![vec![Value::string("Space")]]);
    let result = execute(
        &ex.db,
        r#"select p.Name from p in Product where p.Composition != NULL"#,
    )
    .unwrap();
    let names: Vec<&str> = result.rows.iter().filter_map(|r| r[0].as_str()).collect();
    assert_eq!(names, vec!["560 SEC", "Sausage"]);
}

#[test]
fn conjunction_and_multi_projection() {
    let ex = company_database();
    let result = execute(
        &ex.db,
        r#"select d.Name, d.Manufactures.Name
           from d in Division
           where d.Manufactures.Composition.Name = "Door" and d.Name = "Truck""#,
    )
    .unwrap();
    assert_eq!(result.columns.len(), 2);
    // Truck manufactures both products; each yields a row.
    let pairs: Vec<(String, String)> = result
        .rows
        .iter()
        .map(|r| (r[0].as_str().unwrap().into(), r[1].as_str().unwrap().into()))
        .collect();
    assert!(pairs.contains(&("Truck".into(), "560 SEC".into())));
    assert!(pairs.contains(&("Truck".into(), "MB Trak".into())));
}

#[test]
fn bare_variable_projection_yields_references() {
    let ex = company_database();
    let result = execute(&ex.db, "select b from b in BasePart").unwrap();
    assert_eq!(result.rows.len(), 2);
    assert!(result.rows.iter().all(|r| matches!(r[0], Value::Ref(_))));
}

#[test]
fn semantic_errors() {
    let ex = company_database();
    for (query, needle) in [
        ("select x.Name from d in Division", "unbound variable `x`"),
        (
            "select d.Name from d in Nowhere",
            "neither a database variable nor a type",
        ),
        (
            "select d.Name from d in Division, d in Division",
            "bound twice",
        ),
        (
            r#"select d.Name from d in Division where d.Name = 5"#,
            "cannot compare STRING",
        ),
        (
            r#"select d.Name from d in Division where d = "x""#,
            "must compare an attribute",
        ),
        (
            r#"select d.Name from d in Division where d.Manufactures = "x""#,
            "only NULL tests apply",
        ),
        (
            r#"select d.Name from d in Division where d.Manufactures < NULL"#,
            "not defined on NULL",
        ),
        (
            "select n from d in Division, n in d.Name",
            "cannot range over atomic",
        ),
    ] {
        let err = execute(&ex.db, query).unwrap_err().to_string();
        assert!(err.contains(needle), "query `{query}`: got `{err}`");
    }
}

#[test]
fn indexed_predicate_respects_updates() {
    let mut ex = company_database();
    let path = ex.path.clone();
    ex.db
        .create_asr(path.clone(), AsrConfig::binary(Extension::Full, &path))
        .unwrap();
    let query = r#"select d.Name
                   from d in Division
                   where d.Manufactures.Composition.Name = "Door""#;
    assert_eq!(execute(&ex.db, query).unwrap().rows.len(), 2);

    // Sausage's parts set gains a Door-named part... rather: rename
    // Pepper to Door; Sausage is not Division-reachable, so still 2 rows.
    let pepper = ex.by_name("Pepper").unwrap();
    ex.db
        .set_attribute(pepper, "Name", Value::string("Door"))
        .unwrap();
    assert_eq!(execute(&ex.db, query).unwrap().rows.len(), 2);

    // Renaming the real Door changes the answer through the index.
    let door = ex
        .db
        .base()
        .find_by_attribute("Name", &Value::string("Door"))
        .unwrap();
    ex.db
        .set_attribute(door, "Name", Value::string("Hatch"))
        .unwrap();
    assert_eq!(execute(&ex.db, query).unwrap().rows.len(), 0);
}
