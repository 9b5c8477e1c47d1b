//! Malformed object and partition sections of a text checkpoint get
//! typed errors, the same ones the object-at-a-time readers gave: each
//! case below damages one line of a small `ASRDB 2` checkpoint (the text
//! format the binary one replaced, still read) and pins exactly what the
//! load reports.  Object sections fail the load with the [`GomError`] of
//! the first bad line; a partition section that cannot be restored sends
//! its ASR down the rebuild path with the reason recorded.

use asr_core::{AsrConfig, AsrError, AsrLoadMode, Cell, Database, Decomposition, Extension};
use asr_gom::{snapshot, GomError, ObjectBase, Oid, Schema, Value};

const PATH: &str = "Division.Manufactures.Composition.Name";

/// Division `i0` manufactures the set `i1` = {product `i2`}, whose
/// composition `i3` = {part `i4` "Door", part `i5` "Roof"}; one
/// Full/binary ASR on [`PATH`].
fn database() -> Database {
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
    let mut db = Database::from_base(ObjectBase::new(s));
    let d = db.instantiate("Division").unwrap();
    let ps = db.instantiate("ProdSET").unwrap();
    let prod = db.instantiate("Product").unwrap();
    let bs = db.instantiate("BasePartSET").unwrap();
    db.set_attribute(d, "Name", Value::string("Auto")).unwrap();
    db.set_attribute(d, "Manufactures", Value::Ref(ps)).unwrap();
    db.insert_into_set(ps, Value::Ref(prod)).unwrap();
    db.set_attribute(prod, "Name", Value::string("560 SEC"))
        .unwrap();
    db.set_attribute(prod, "Composition", Value::Ref(bs))
        .unwrap();
    for name in ["Door", "Roof"] {
        let part = db.instantiate("BasePart").unwrap();
        db.set_attribute(part, "Name", Value::string(name)).unwrap();
        db.insert_into_set(bs, Value::Ref(part)).unwrap();
    }
    db.create_asr_on(
        PATH,
        AsrConfig {
            extension: Extension::Full,
            decomposition: Decomposition::binary(3),
            keep_set_oids: false,
        },
    )
    .unwrap();
    db
}

/// [`database`] as the text writer rendered it.
const CHECKPOINT: &str = "\
ASRDB 2\n\
A Division.Manufactures.Composition.Name full 0,1,2,3 0\n\
P 0 0 0 1 1 1\n\
R 0 1 R:i0 R:i2\n\
T 0 0 f 0 1 1 1 -\n\
N f 0 L - 0\n\
T 0 0 b 0 1 1 1 -\n\
N b 0 L - 0\n\
P 0 1 1 2 2 2\n\
R 0 1 R:i2 R:i4\n\
R 1 1 R:i2 R:i5\n\
T 0 1 f 0 1 2 1 -\n\
N f 0 L - 0,1\n\
T 0 1 b 0 1 2 1 -\n\
N b 0 L - 0,1\n\
P 0 2 2 3 2 2\n\
R 0 1 R:i4 S:Door\n\
R 1 1 R:i5 S:Roof\n\
T 0 2 f 0 1 2 1 -\n\
N f 0 L - 0,1\n\
T 0 2 b 0 1 2 1 -\n\
N b 0 L - 0,1\n\
--BASE--\n\
GOMSNAP 1\n\
T ProdSET SET Product\n\
T Division TUPLE | Name=STRING Manufactures=ProdSET\n\
T Product TUPLE | Name=STRING Composition=BasePartSET\n\
T BasePartSET SET BasePart\n\
T BasePart TUPLE | Name=STRING\n\
O i0 Division TUPLE Manufactures=R:i1 Name=S:Auto\n\
O i1 ProdSET SET R:i2\n\
O i2 Product TUPLE Composition=R:i3 Name=S:560%20SEC\n\
O i3 BasePartSET SET R:i4 R:i5\n\
O i4 BasePart TUPLE Name=S:Door\n\
O i5 BasePart TUPLE Name=S:Roof\n\
";

fn checkpoint() -> String {
    CHECKPOINT.to_string()
}

/// `text` with its one line equal to `line` replaced by `with`.
fn damaged(text: &str, line: &str, with: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.iter().filter(|l| **l == line).count(),
        1,
        "`{line}` is one line of\n{text}"
    );
    let mut out = String::new();
    for l in lines {
        out.push_str(if l == line { with } else { l });
        out.push('\n');
    }
    out
}

/// `text` with the first `old` at or after byte `from` replaced by `new`.
fn spliced(text: &str, from: usize, old: &str, new: &str) -> String {
    let at = from + text[from..].find(old).unwrap();
    format!("{}{new}{}", &text[..at], &text[at + old.len()..])
}

/// The object-section error: the same from the object reader and from
/// the whole-database load.
fn object_error(text: &str) -> GomError {
    let base = &text[text.find("--BASE--\n").unwrap() + 9..];
    let err = snapshot::read_base(base).unwrap_err();
    match Database::load_from_string(text.as_bytes()) {
        Err(AsrError::Gom(e)) => assert_eq!(e, err),
        other => panic!("load gave {other:?}, the object reader {err:?}"),
    }
    err
}

/// How the one ASR came back from a load that succeeded.
fn asr_mode(text: &str) -> AsrLoadMode {
    let (_, report) = Database::load_from_string_report(text.as_bytes()).unwrap();
    report.asrs[0].1.clone()
}

fn door_divisions(db: &Database) -> Vec<Oid> {
    let (id, _) = db.asrs().next().unwrap();
    db.backward(id, 0, 3, &Cell::Value(Value::string("Door")))
        .unwrap()
}

#[test]
fn the_fixture_loads_physically() {
    let text = checkpoint();
    assert_eq!(asr_mode(&text), AsrLoadMode::Physical);
    let db = Database::load_from_string(text.as_bytes()).unwrap();
    assert_eq!(door_divisions(&db), vec![Oid::from_raw(0)]);
    assert_eq!(db.save_to_string(), database().save_to_string());
}

#[test]
fn unknown_type() {
    let text = checkpoint();
    let bad = damaged(
        &text,
        "O i3 BasePartSET SET R:i4 R:i5",
        "O i3 PartSET SET R:i4 R:i5",
    );
    assert_eq!(object_error(&bad), GomError::UnknownType("PartSET".into()));
}

#[test]
fn unknown_attribute() {
    let text = checkpoint();
    let bad = damaged(
        &text,
        "O i0 Division TUPLE Manufactures=R:i1 Name=S:Auto",
        "O i0 Division TUPLE Manufactures=R:i1 Boss=S:Auto",
    );
    assert_eq!(
        object_error(&bad),
        GomError::UnknownAttribute {
            ty: "Division".into(),
            attr: "Boss".into()
        }
    );
}

#[test]
fn live_reference_of_the_wrong_type() {
    let text = checkpoint();
    let bad = damaged(
        &text,
        "O i0 Division TUPLE Manufactures=R:i1 Name=S:Auto",
        "O i0 Division TUPLE Manufactures=R:i2 Name=S:Auto",
    );
    assert_eq!(
        object_error(&bad),
        GomError::TypeViolation {
            expected: "ProdSET".into(),
            actual: "Product".into()
        }
    );
}

#[test]
fn bad_set_elements() {
    let text = checkpoint();
    let line = "O i1 ProdSET SET R:i2";
    let wrong_type = damaged(&text, line, "O i1 ProdSET SET R:i2 R:i4");
    assert_eq!(
        object_error(&wrong_type),
        GomError::TypeViolation {
            expected: "Product".into(),
            actual: "BasePart".into()
        }
    );
    let atomic = damaged(&text, line, "O i1 ProdSET SET I:7 R:i2");
    assert_eq!(
        object_error(&atomic),
        GomError::TypeViolation {
            expected: "Product".into(),
            actual: "INTEGER".into()
        }
    );
    let token = damaged(&text, line, "O i1 ProdSET SET R:zebra");
    assert_eq!(
        object_error(&token),
        GomError::InvalidPath("snapshot: bad reference `zebra`".into())
    );
    let on_a_tuple = damaged(
        &text,
        "O i0 Division TUPLE Manufactures=R:i1 Name=S:Auto",
        "O i0 Division SET R:i2",
    );
    assert_eq!(
        object_error(&on_a_tuple),
        GomError::WrongStructure {
            oid: Oid::from_raw(0),
            expected: "set"
        }
    );
}

#[test]
fn duplicate_oid() {
    let text = checkpoint();
    let line = "O i5 BasePart TUPLE Name=S:Roof";
    let twice = damaged(
        &text,
        line,
        &format!("{line}\nO i5 BasePart TUPLE Name=S:Roof"),
    );
    assert_eq!(
        object_error(&twice),
        GomError::DuplicateObject(Oid::from_raw(5))
    );
    let out_of_order = damaged(&text, line, &format!("{line}\nO i2 BasePart TUPLE"));
    assert_eq!(
        object_error(&out_of_order),
        GomError::DuplicateObject(Oid::from_raw(2))
    );
}

/// The `R` lines of the fixture's last partition (`BasePart` → `Name`).
fn last_partition_rows(text: &str) -> Vec<&str> {
    let at = text.find("P 0 2 ").unwrap();
    text[at..]
        .lines()
        .skip(1)
        .take_while(|l| l.starts_with("R "))
        .collect()
}

#[test]
fn duplicate_row_id() {
    let text = checkpoint();
    let rows = last_partition_rows(&text);
    assert_eq!(rows, ["R 0 1 R:i4 S:Door", "R 1 1 R:i5 S:Roof"]);
    let bad = damaged(&text, rows[1], "R 0 1 R:i5 S:Roof");
    assert_eq!(
        asr_mode(&bad),
        AsrLoadMode::Rebuilt("row id 0 appears twice".into())
    );
    let db = Database::load_from_string(bad.as_bytes()).unwrap();
    assert_eq!(door_divisions(&db), vec![Oid::from_raw(0)]);
}

#[test]
fn out_of_order_row_ids_load_as_listed() {
    let text = checkpoint();
    let at = text.find("P 0 2 ").unwrap();
    let swapped = spliced(
        &text,
        at,
        "R 0 1 R:i4 S:Door\nR 1 1 R:i5 S:Roof\n",
        "R 1 1 R:i5 S:Roof\nR 0 1 R:i4 S:Door\n",
    );
    let (db, report) = Database::load_from_string_report(swapped.as_bytes()).unwrap();
    assert_eq!(report.asrs[0].1, AsrLoadMode::Physical);
    assert_eq!(db.save_to_string(), database().save_to_string());
    assert_eq!(door_divisions(&db), vec![Oid::from_raw(0)]);
}

#[test]
fn leaf_naming_an_unknown_row_id() {
    let text = checkpoint();
    let at = text.find("T 0 2 b ").unwrap();
    let bad = spliced(&text, at, "N b 0 L - 0,1\n", "N b 0 L - 0,9\n");
    assert_eq!(
        asr_mode(&bad),
        AsrLoadMode::Rebuilt("a b leaf names unknown row id 9".into())
    );
}

#[test]
fn one_row_listed_under_two_row_ids() {
    let text = checkpoint();
    let rows = last_partition_rows(&text);
    let bad = damaged(&text, rows[1], "R 1 1 R:i4 S:Door");
    assert_eq!(
        asr_mode(&bad),
        AsrLoadMode::Rebuilt("1 rows listed twice under different row ids".into())
    );
    let db = Database::load_from_string(bad.as_bytes()).unwrap();
    assert_eq!(door_divisions(&db), vec![Oid::from_raw(0)]);
}

#[test]
fn leaves_naming_a_row_id_twice() {
    let text = checkpoint();
    let at = text.find("T 0 2 b ").unwrap();
    let bad = spliced(&text, at, "N b 0 L - 0,1\n", "N b 0 L - 0,0\n");
    assert_eq!(
        asr_mode(&bad),
        AsrLoadMode::Rebuilt("the b leaves name row id 0 twice".into())
    );
    let db = Database::load_from_string(bad.as_bytes()).unwrap();
    assert_eq!(door_divisions(&db), vec![Oid::from_raw(0)]);
}
