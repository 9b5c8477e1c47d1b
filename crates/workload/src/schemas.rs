//! The paper's two running example databases, ready to use.
//!
//! * [`robot_database`] — Section 2.2's linear engineering schema
//!   (`ROBOT → ARM → TOOL → MANUFACTURER`) with the Figure 1 extension
//!   (`R2D2`, `X4D5`, `Robi`; shared tool `i7`, shared manufacturer
//!   `RobClone`);
//! * [`company_database`] — Section 2.3's schema with set occurrences
//!   (`Division → {Product} → {BasePart}`) and the Figure 2 extension
//!   (`Auto`/`Truck`/`Space`, `560 SEC`/`MB Trak`/`Sausage`,
//!   `Door`/`Pepper`).

use asr_core::Database;
use asr_gom::{Oid, PathExpression, Schema, Value};

/// A ready-made example database plus its canonical path expression.
#[derive(Debug)]
pub struct ExampleDb {
    /// The database (maintained updates and metered queries available).
    pub db: Database,
    /// The path expression the paper's queries navigate.
    pub path: PathExpression,
}

impl ExampleDb {
    /// Find an object by its `Name` attribute (test/demo convenience).
    pub fn by_name(&self, name: &str) -> Option<Oid> {
        self.db
            .base()
            .find_by_attribute("Name", &Value::string(name))
    }
}

/// Build the Section 2.2 robot database (Figure 1 extension).
///
/// Path: `ROBOT.Arm.MountedTool.ManufacturedBy.Location` (Query 1 finds
/// the robots using a tool manufactured in "Utopia").
pub fn robot_database() -> ExampleDb {
    let mut s = Schema::new();
    s.define_set("ROBOT_SET", "ROBOT").unwrap();
    s.define_tuple("ROBOT", [("Name", "STRING"), ("Arm", "ARM")])
        .unwrap();
    s.define_tuple("ARM", [("Kinematics", "STRING"), ("MountedTool", "TOOL")])
        .unwrap();
    s.define_tuple(
        "TOOL",
        [("Function", "STRING"), ("ManufacturedBy", "MANUFACTURER")],
    )
    .unwrap();
    s.define_tuple("MANUFACTURER", [("Name", "STRING"), ("Location", "STRING")])
        .unwrap();
    s.validate().unwrap();
    let path = PathExpression::parse(&s, "ROBOT.Arm.MountedTool.ManufacturedBy.Location").unwrap();
    let mut db = Database::new(s);

    // Figure 1: i0 (R2D2) -> i1 -> i2 (welding) -> i3 (RobClone, Utopia);
    // i5 (X4D5) -> i6 -> i7 (gripping) -> i3; i8 (Robi) -> i9 -> i7.
    let r2d2 = db.instantiate("ROBOT").unwrap();
    let arm1 = db.instantiate("ARM").unwrap();
    let welder = db.instantiate("TOOL").unwrap();
    let robclone = db.instantiate("MANUFACTURER").unwrap();
    let x4d5 = db.instantiate("ROBOT").unwrap();
    let arm2 = db.instantiate("ARM").unwrap();
    let gripper = db.instantiate("TOOL").unwrap();
    let robi = db.instantiate("ROBOT").unwrap();
    let arm3 = db.instantiate("ARM").unwrap();

    db.set_attribute(r2d2, "Name", Value::string("R2D2"))
        .unwrap();
    db.set_attribute(r2d2, "Arm", Value::Ref(arm1)).unwrap();
    db.set_attribute(arm1, "MountedTool", Value::Ref(welder))
        .unwrap();
    db.set_attribute(welder, "Function", Value::string("welding"))
        .unwrap();
    db.set_attribute(welder, "ManufacturedBy", Value::Ref(robclone))
        .unwrap();
    db.set_attribute(robclone, "Name", Value::string("RobClone"))
        .unwrap();
    db.set_attribute(robclone, "Location", Value::string("Utopia"))
        .unwrap();

    db.set_attribute(x4d5, "Name", Value::string("X4D5"))
        .unwrap();
    db.set_attribute(x4d5, "Arm", Value::Ref(arm2)).unwrap();
    db.set_attribute(arm2, "MountedTool", Value::Ref(gripper))
        .unwrap();
    db.set_attribute(gripper, "Function", Value::string("gripping"))
        .unwrap();
    db.set_attribute(gripper, "ManufacturedBy", Value::Ref(robclone))
        .unwrap();

    db.set_attribute(robi, "Name", Value::string("Robi"))
        .unwrap();
    db.set_attribute(robi, "Arm", Value::Ref(arm3)).unwrap();
    // Robi shares X4D5's gripping tool (shared subobject i7).
    db.set_attribute(arm3, "MountedTool", Value::Ref(gripper))
        .unwrap();

    let our_robots = db.instantiate("ROBOT_SET").unwrap();
    for r in [r2d2, x4d5, robi] {
        db.insert_into_set(our_robots, Value::Ref(r)).unwrap();
    }
    db.bind_variable("OurRobots", Value::Ref(our_robots));

    ExampleDb { db, path }
}

/// Build the Section 2.3 company database (Figure 2 extension).
///
/// Path: `Division.Manufactures.Composition.Name` (Query 2 finds the
/// divisions using a BasePart named "Door").
pub fn company_database() -> ExampleDb {
    let mut s = Schema::new();
    s.define_set("Company", "Division").unwrap();
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
    s.define_tuple("BasePart", [("Name", "STRING"), ("Price", "DECIMAL")])
        .unwrap();
    s.validate().unwrap();
    let path = PathExpression::parse(&s, "Division.Manufactures.Composition.Name").unwrap();
    let mut db = Database::new(s);

    let mercedes = db.instantiate("Company").unwrap();
    let auto = db.instantiate("Division").unwrap();
    let truck = db.instantiate("Division").unwrap();
    let space = db.instantiate("Division").unwrap();
    let prods_auto = db.instantiate("ProdSET").unwrap();
    let prods_truck = db.instantiate("ProdSET").unwrap();
    let sec = db.instantiate("Product").unwrap();
    let parts_sec = db.instantiate("BasePartSET").unwrap();
    let door = db.instantiate("BasePart").unwrap();
    let trak = db.instantiate("Product").unwrap();
    let sausage = db.instantiate("Product").unwrap();
    let parts_sausage = db.instantiate("BasePartSET").unwrap();
    let pepper = db.instantiate("BasePart").unwrap();

    for d in [auto, truck, space] {
        db.insert_into_set(mercedes, Value::Ref(d)).unwrap();
    }
    db.set_attribute(auto, "Name", Value::string("Auto"))
        .unwrap();
    db.set_attribute(auto, "Manufactures", Value::Ref(prods_auto))
        .unwrap();
    db.set_attribute(truck, "Name", Value::string("Truck"))
        .unwrap();
    db.set_attribute(truck, "Manufactures", Value::Ref(prods_truck))
        .unwrap();
    db.set_attribute(space, "Name", Value::string("Space"))
        .unwrap();

    db.insert_into_set(prods_auto, Value::Ref(sec)).unwrap();
    db.insert_into_set(prods_truck, Value::Ref(sec)).unwrap();
    db.insert_into_set(prods_truck, Value::Ref(trak)).unwrap();

    db.set_attribute(sec, "Name", Value::string("560 SEC"))
        .unwrap();
    db.set_attribute(sec, "Composition", Value::Ref(parts_sec))
        .unwrap();
    db.set_attribute(trak, "Name", Value::string("MB Trak"))
        .unwrap();
    db.set_attribute(sausage, "Name", Value::string("Sausage"))
        .unwrap();
    db.set_attribute(sausage, "Composition", Value::Ref(parts_sausage))
        .unwrap();

    db.insert_into_set(parts_sec, Value::Ref(door)).unwrap();
    db.insert_into_set(parts_sausage, Value::Ref(pepper))
        .unwrap();
    db.set_attribute(door, "Name", Value::string("Door"))
        .unwrap();
    db.set_attribute(door, "Price", Value::decimal(1205, 50))
        .unwrap();
    db.set_attribute(pepper, "Name", Value::string("Pepper"))
        .unwrap();
    db.set_attribute(pepper, "Price", Value::decimal(0, 12))
        .unwrap();

    db.bind_variable("Mercedes", Value::Ref(mercedes));

    ExampleDb { db, path }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asr_core::{AsrConfig, Cell, Decomposition, Extension};

    #[test]
    fn query_1_robots_using_utopia_tools() {
        let mut ex = robot_database();
        let id = ex
            .db
            .create_asr(
                ex.path.clone(),
                AsrConfig {
                    extension: Extension::Canonical,
                    decomposition: Decomposition::binary(4),
                    keep_set_oids: false,
                },
            )
            .unwrap();
        let hits = ex
            .db
            .backward(id, 0, 4, &Cell::Value(Value::string("Utopia")))
            .unwrap();
        let names: Vec<String> = hits
            .iter()
            .map(|&o| {
                ex.db
                    .base()
                    .get_attribute(o, "Name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            names.len(),
            3,
            "all three robots use RobClone tools: {names:?}"
        );
    }

    #[test]
    fn query_2_divisions_using_door() {
        let mut ex = company_database();
        let id = ex
            .db
            .create_asr(
                ex.path.clone(),
                AsrConfig {
                    extension: Extension::Full,
                    decomposition: Decomposition::binary(3),
                    keep_set_oids: false,
                },
            )
            .unwrap();
        let hits = ex
            .db
            .backward(id, 0, 3, &Cell::Value(Value::string("Door")))
            .unwrap();
        assert_eq!(hits.len(), 2, "Auto and Truck both reach Door");
        assert!(hits.contains(&ex.by_name("Auto").unwrap()));
        assert!(hits.contains(&ex.by_name("Truck").unwrap()));
    }

    #[test]
    fn query_3_baseparts_of_auto() {
        let ex = company_database();
        let auto = ex.by_name("Auto").unwrap();
        let names = ex.db.forward_unindexed(&ex.path, 0, 3, auto).unwrap();
        assert_eq!(names, vec![Cell::Value(Value::string("Door"))]);
    }

    #[test]
    fn variables_bound() {
        let ex = company_database();
        assert!(ex.db.base().variable("Mercedes").is_ok());
        let ex = robot_database();
        assert!(ex.db.base().variable("OurRobots").is_ok());
        assert_eq!(ex.by_name("NotAThing"), None);
    }
}
