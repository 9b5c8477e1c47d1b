//! Snapshot persistence: a versioned, line-based text format for schemas
//! and object bases.
//!
//! The format is deliberately simple and diff-friendly (one declaration
//! per line), durable across OID assignment (objects are restored with
//! their original identifiers), and self-contained:
//!
//! ```text
//! GOMSNAP 1
//! T MANUFACTURER TUPLE | Name:STRING Location:STRING
//! T ROBOT_SET SET ROBOT
//! O i3 MANUFACTURER TUPLE Name=S:RobClone Location=S:Utopia
//! O i9 ROBOT_SET SET R:i0 R:i5 R:i8
//! V OurRobots R:i9
//! ```
//!
//! Values encode as `N` (NULL), `I:<i64>`, `F:<f64 bits>`, `D:<scaled>`,
//! `S:<percent-escaped utf-8>`, `C:<char>`, `B:<0|1>`, `R:i<oid>`.
//!
//! [`read_base`] builds the base in bulk rather than replaying the
//! mutation API object by object: it resolves each type name and each
//! (type, attribute) slot once and files each object's body in one piece
//! through [`BaseBuilder`], which assembles the object table, the extents
//! and the referrer index in one pass.  It checks strong typing as
//! [`ObjectBase::set_attribute`] and [`ObjectBase::insert_into_set`] do,
//! and a bad line gets the error those give.  A reference to an object
//! the snapshot does not hold is not an error: the model lets a
//! referenced object be deleted, so the reader keeps the reference as the
//! live base held it — indexed as a referrer, read as `NULL` by
//! navigation, and type-checked only when its target is present.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::base::{BaseBuilder, ObjectBase};
use crate::error::{GomError, Result};
use crate::object::{Object, ObjectBody};
use crate::oid::Oid;
use crate::schema::Schema;
use crate::types::{TypeId, TypeKind};
use crate::value::Value;

const MAGIC: &str = "GOMSNAP 1";

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

/// Percent-escape a token so it survives the space-separated, line-based
/// snapshot format (also used by the `asr-durable` write-ahead log, which
/// shares this encoding for its record payloads).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to `out`: clean runs are copied whole and nothing
/// is allocated beyond `out`'s own growth.
fn escape_into(out: &mut String, s: &str) {
    let mut clean = 0;
    for (at, c) in s.char_indices() {
        let code = match c {
            '%' => "%25",
            ' ' => "%20",
            '\n' => "%0A",
            '\r' => "%0D",
            '=' => "%3D",
            _ => continue,
        };
        out.push_str(&s[clean..at]);
        out.push_str(code);
        clean = at + 1;
    }
    out.push_str(&s[clean..]);
}

/// Inverse of [`escape`].  Tokens without an escape are borrowed.  Only
/// the five codes [`escape`] emits are accepted: any other `%XX` cannot
/// have come from the writer and is damage.
pub fn unescape(s: &str) -> Result<Cow<'_, str>> {
    if !s.contains('%') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('%') {
        out.push_str(&rest[..at]);
        let code = rest
            .get(at..at + 3)
            .ok_or_else(|| bad(format!("truncated escape in `{s}`")))?;
        out.push(match code {
            "%25" => '%',
            "%20" => ' ',
            "%0A" => '\n',
            "%0D" => '\r',
            "%3D" => '=',
            _ => return Err(bad(format!("bad escape {code}"))),
        });
        rest = &rest[at + 3..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

fn bad(msg: String) -> GomError {
    GomError::InvalidPath(format!("snapshot: {msg}"))
}

/// Append `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Append `n` in decimal, `-` first when negative.
fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Encode one [`Value`] in the snapshot's tagged text form
/// (`N`, `I:<i64>`, `S:<escaped>`, `R:i<oid>`, …).
pub fn encode_value(v: &Value) -> String {
    let mut out = String::new();
    encode_value_into(&mut out, v);
    out
}

/// [`encode_value`], appended to `out`.
fn encode_value_into(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push('N'),
        Value::Integer(i) => {
            out.push_str("I:");
            push_i64(out, *i);
        }
        Value::Float(bits) => {
            out.push_str("F:");
            push_u64(out, *bits);
        }
        Value::Decimal(scaled) => {
            out.push_str("D:");
            push_i64(out, *scaled);
        }
        Value::String(s) => {
            out.push_str("S:");
            escape_into(out, s);
        }
        Value::Char(c) => {
            out.push_str("C:");
            escape_into(out, c.encode_utf8(&mut [0; 4]));
        }
        Value::Bool(b) => out.push_str(if *b { "B:1" } else { "B:0" }),
        Value::Ref(oid) => {
            out.push_str("R:i");
            push_u64(out, oid.as_raw());
        }
    }
}

/// Inverse of [`encode_value`].
pub fn decode_value(s: &str) -> Result<Value> {
    // References, the commonest token, skip the dispatch on the tag.
    if let Some(raw) = s.strip_prefix("R:i").and_then(|r| r.parse::<u64>().ok()) {
        return Ok(Value::Ref(Oid::from_raw(raw)));
    }
    if s == "N" {
        return Ok(Value::Null);
    }
    let (tag, body) = s
        .split_once(':')
        .ok_or_else(|| bad(format!("bad value `{s}`")))?;
    let parse_i64 = |b: &str| {
        b.parse::<i64>()
            .map_err(|_| bad(format!("bad integer `{b}`")))
    };
    Ok(match tag {
        "I" => Value::Integer(parse_i64(body)?),
        "F" => Value::Float(
            body.parse()
                .map_err(|_| bad(format!("bad float `{body}`")))?,
        ),
        "D" => Value::Decimal(parse_i64(body)?),
        "S" => Value::string(unescape(body)?),
        "C" => {
            let s = unescape(body)?;
            Value::Char(s.chars().next().ok_or_else(|| bad("empty char".into()))?)
        }
        "B" => match body {
            "1" => Value::Bool(true),
            "0" => Value::Bool(false),
            _ => return Err(bad(format!("bad bool `{body}`"))),
        },
        "R" => {
            let raw = body
                .strip_prefix('i')
                .and_then(|r| r.parse::<u64>().ok())
                .ok_or_else(|| bad(format!("bad reference `{body}`")))?;
            Value::Ref(Oid::from_raw(raw))
        }
        other => return Err(bad(format!("unknown value tag `{other}`"))),
    })
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

/// Serialize a schema to snapshot lines.
pub fn write_schema(schema: &Schema) -> String {
    let mut out = String::new();
    for (_, def) in schema.types() {
        out.push_str("T ");
        escape_into(&mut out, &def.name);
        match &def.kind {
            TypeKind::Tuple {
                supertypes,
                attributes,
            } => {
                out.push_str(" TUPLE ");
                for (i, &sup) in supertypes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(schema.name(sup));
                }
                out.push('|');
                for a in attributes {
                    out.push(' ');
                    escape_into(&mut out, &a.name);
                    out.push('=');
                    escape_into(&mut out, &schema.ref_name(a.ty));
                }
            }
            TypeKind::Set { element } => {
                out.push_str(" SET ");
                escape_into(&mut out, &schema.ref_name(*element));
            }
            TypeKind::List { element } => {
                out.push_str(" LIST ");
                escape_into(&mut out, &schema.ref_name(*element));
            }
        }
        out.push('\n');
    }
    out
}

/// Serialize a whole object base (schema, objects, variables).
pub fn write_base(base: &ObjectBase) -> String {
    let mut out = String::new();
    write_base_into(&mut out, base);
    out
}

/// [`write_base`], appended to `out`.
fn write_base_into(out: &mut String, base: &ObjectBase) {
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&write_schema(base.schema()));
    for obj in base.objects() {
        write_object_line(out, base.schema(), obj);
    }
    for (name, value) in base.variables() {
        write_variable_line(out, name, value);
    }
}

/// One `O i<oid> <type> <structure> …` line.
fn write_object_line(out: &mut String, schema: &Schema, obj: Object<'_>) {
    out.push_str("O i");
    push_u64(out, obj.oid.as_raw());
    out.push(' ');
    escape_into(out, schema.name(obj.ty));
    match obj.body {
        ObjectBody::Tuple(slots) => {
            out.push_str(" TUPLE");
            let layout = schema.layout(obj.ty).unwrap_or_default();
            for (attr, value) in layout.iter().zip(slots.iter()) {
                if !value.is_null() {
                    out.push(' ');
                    escape_into(out, &attr.name);
                    out.push('=');
                    encode_value_into(out, value);
                }
            }
        }
        ObjectBody::Set(elems) => push_elements(out, " SET", elems),
        ObjectBody::List(elems) => push_elements(out, " LIST", elems),
    }
    out.push('\n');
}

/// A collection's structure tag and its space-separated elements.
fn push_elements<'a>(out: &mut String, tag: &str, elems: impl IntoIterator<Item = &'a Value>) {
    out.push_str(tag);
    for v in elems {
        out.push(' ');
        encode_value_into(out, v);
    }
}

/// One `V <name> <value>` line.
fn write_variable_line(out: &mut String, name: &str, value: &Value) {
    out.push_str("V ");
    escape_into(out, name);
    out.push(' ');
    encode_value_into(out, value);
    out.push('\n');
}

// ----------------------------------------------------------------------
// Reading
// ----------------------------------------------------------------------

/// Reconstruct an object base from snapshot text.  Objects keep their
/// original OIDs; the OID generator resumes past the maximum seen.
pub fn read_base(text: &str) -> Result<ObjectBase> {
    let mut lines = text.lines();
    let first = lines.next().ok_or_else(|| bad("empty snapshot".into()))?;
    if first.trim() != MAGIC {
        return Err(bad(format!("bad magic `{first}` (expected `{MAGIC}`)")));
    }
    let mut schema = Schema::new();
    let mut type_lines: Vec<&str> = Vec::new();
    let mut object_lines: Vec<&str> = Vec::new();
    let mut var_lines: Vec<&str> = Vec::new();
    for line in lines {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tag = line.split_once(' ').map_or(line, |(tag, _)| tag);
        match tag {
            "T" => type_lines.push(line),
            "O" => object_lines.push(line),
            "V" => var_lines.push(line),
            other => return Err(bad(format!("unknown record `{:?}`", Some(other)))),
        }
    }
    // Two passes: declare every type name in file order first, so that
    // type-id assignment (and therefore re-serialization order) matches
    // the file exactly; then define structures.
    for line in &type_lines {
        let name = line
            .split(' ')
            .nth(1)
            .ok_or_else(|| bad("missing type name".into()))?;
        schema.declare(&unescape(name)?)?;
    }
    for line in &type_lines {
        read_type_line(&mut schema, line)?;
    }
    schema.validate()?;
    let objects = read_objects(schema, &object_lines)?;
    let mut variables = HashMap::new();
    for line in var_lines {
        let mut parts = line.splitn(3, ' ');
        let _v = parts.next();
        let name = unescape(
            parts
                .next()
                .ok_or_else(|| bad("missing variable name".into()))?,
        )?;
        let value = decode_value(
            parts
                .next()
                .ok_or_else(|| bad("missing variable value".into()))?,
        )?;
        variables.insert(name.into_owned(), value);
    }
    objects.finish(variables)
}

/// One `O` line's header: the object's identity and type, and the rest of
/// the line (its structure tag and contents).
struct ObjectHeader<'a> {
    oid: Oid,
    ty: TypeId,
    rest: &'a str,
}

/// File every object of the `O` lines into a [`BaseBuilder`], in OID
/// order (the writer's order; lines in another are sorted first), each
/// body in one piece.  Type names and (type, attribute) slots are resolved
/// once each, and a set's members are sorted.  A bad line gets the error
/// the object-at-a-time API ([`ObjectBase::restore_object`],
/// [`ObjectBase::set_attribute`], [`ObjectBase::insert_into_set`],
/// [`ObjectBase::push_to_list`]) gives it, with one exception that is not
/// an error: a reference to an object the snapshot does not hold is kept
/// as the live base holds it, dangling, and is type-checked only when its
/// target is present.
fn read_objects(schema: Schema, lines: &[&str]) -> Result<BaseBuilder> {
    let mut headers: Vec<ObjectHeader<'_>> = Vec::with_capacity(lines.len());
    let mut types: Vec<(Cow<'_, str>, TypeId)> = Vec::new();
    for line in lines {
        let mut parts = line.splitn(4, ' ');
        let _o = parts.next();
        let oid_str = parts.next().ok_or_else(|| bad("missing oid".into()))?;
        let name = unescape(parts.next().ok_or_else(|| bad("missing type".into()))?)?;
        let rest = parts.next().unwrap_or("");
        let oid = oid_str
            .strip_prefix('i')
            .and_then(|r| r.parse::<u64>().ok())
            .map(Oid::from_raw)
            .ok_or_else(|| bad(format!("bad oid `{oid_str}`")))?;
        let ty = match types.iter().find(|(known, _)| *known == name) {
            Some(&(_, ty)) => ty,
            None => {
                let ty = schema.require(&name)?;
                types.push((name, ty));
                ty
            }
        };
        headers.push(ObjectHeader { oid, ty, rest });
    }
    headers.sort_by_key(|h| h.oid);
    let mut attr_slots: Vec<(TypeId, Cow<'_, str>, usize)> = Vec::new();
    // A tuple's (slot, value) pairs, reused from object to object.
    let mut assigned: Vec<(usize, Value)> = Vec::new();
    let mut builder = BaseBuilder::new(schema, headers.len());
    for ObjectHeader { oid, ty, rest } in headers {
        let schema = builder.schema();
        let kind = &schema.def(ty)?.kind;
        let mut fields = rest.split(' ');
        let tag = fields
            .next()
            .ok_or_else(|| bad("missing structure tag".into()))?;
        let fields = fields.filter(|f| !f.is_empty());
        // A collection's elements in listing order.
        let mut elements = Vec::new();
        match tag {
            "TUPLE" => {
                for field in fields {
                    let (attr, value) = field
                        .split_once('=')
                        .ok_or_else(|| bad(format!("bad attribute `{field}`")))?;
                    let attr = unescape(attr)?;
                    let value = decode_value(value)?;
                    let known = attr_slots
                        .iter()
                        .find(|(t, known, _)| *t == ty && *known == attr);
                    let slot = match known {
                        Some(&(.., slot)) => slot,
                        None => {
                            let (slot, _) = schema.slot(ty, &attr)?;
                            attr_slots.push((ty, attr, slot));
                            slot
                        }
                    };
                    assigned.push((slot, value));
                }
            }
            "SET" | "LIST" => {
                let expected = if tag == "SET" { "set" } else { "list" };
                let wrong = GomError::WrongStructure { oid, expected };
                elements.reserve_exact(fields.clone().count());
                for field in fields {
                    let value = decode_value(field)?;
                    match (kind, expected) {
                        (TypeKind::Set { .. }, "set") | (TypeKind::List { .. }, "list") => {}
                        _ => return Err(wrong),
                    }
                    elements.push(value);
                }
            }
            other => return Err(bad(format!("unknown structure `{other}`"))),
        }
        match kind {
            TypeKind::Tuple { .. } => builder.tuple(oid, ty, |slots| {
                for (slot, value) in assigned.drain(..) {
                    slots[slot] = value;
                }
                Ok::<_, GomError>(())
            })?,
            TypeKind::Set { .. } => {
                elements.sort_unstable();
                elements.dedup();
                builder.collection(oid, ty, elements)?;
            }
            TypeKind::List { .. } => builder.collection(oid, ty, elements)?,
        }
    }
    Ok(builder)
}

fn read_type_line(schema: &mut Schema, line: &str) -> Result<()> {
    let mut parts = line.splitn(4, ' ');
    let _t = parts.next();
    let name = unescape(
        parts
            .next()
            .ok_or_else(|| bad("missing type name".into()))?,
    )?;
    // Pin the type id to file order before resolving referenced names, so
    // a snapshot round-trips to the identical id assignment (and thus to
    // byte-identical re-serialization).
    schema.declare(&name)?;
    let kind = parts
        .next()
        .ok_or_else(|| bad("missing type kind".into()))?;
    let rest = parts.next().unwrap_or("");
    match kind {
        "TUPLE" => {
            let (sups, attrs) = rest
                .split_once('|')
                .ok_or_else(|| bad(format!("bad tuple line `{line}`")))?;
            let supertypes: Vec<Cow<'_, str>> = sups
                .split(',')
                .filter(|s| !s.is_empty())
                .map(unescape)
                .collect::<Result<_>>()?;
            let mut attributes: Vec<(Cow<'_, str>, Cow<'_, str>)> = Vec::new();
            for field in attrs.split(' ').filter(|f| !f.is_empty()) {
                let (a, t) = field
                    .split_once('=')
                    .ok_or_else(|| bad(format!("bad attribute decl `{field}`")))?;
                attributes.push((unescape(a)?, unescape(t)?));
            }
            schema.define_tuple_sub(
                &name,
                supertypes.iter().map(|s| &**s),
                attributes.iter().map(|(a, t)| (&**a, &**t)),
            )?;
        }
        "SET" => {
            schema.define_set(&name, &unescape(rest)?)?;
        }
        "LIST" => {
            schema.define_list(&name, &unescape(rest)?)?;
        }
        other => return Err(bad(format!("unknown type kind `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_base() -> ObjectBase {
        let mut s = Schema::new();
        s.define_tuple("NAMED", [("Name", "STRING")]).unwrap();
        s.define_tuple_sub(
            "PART",
            ["NAMED"],
            [
                ("Price", "DECIMAL"),
                ("Weight", "FLOAT"),
                ("Tags", "TAGS"),
                ("Serial", "INTEGER"),
            ],
        )
        .unwrap();
        s.define_set("TAGS", "STRING").unwrap();
        s.define_list("PARTLIST", "PART").unwrap();
        s.validate().unwrap();
        let mut base = ObjectBase::new(s);
        let p = base.instantiate("PART").unwrap();
        base.set_attribute(p, "Name", Value::string("Door with spaces & =% signs"))
            .unwrap();
        base.set_attribute(p, "Price", Value::decimal(1205, 50))
            .unwrap();
        base.set_attribute(p, "Weight", Value::float(-2.75))
            .unwrap();
        base.set_attribute(p, "Serial", Value::Integer(-42))
            .unwrap();
        let tags = base.instantiate("TAGS").unwrap();
        base.insert_into_set(tags, Value::string("heavy")).unwrap();
        base.insert_into_set(tags, Value::string("steel")).unwrap();
        base.set_attribute(p, "Tags", Value::Ref(tags)).unwrap();
        let list = base.instantiate("PARTLIST").unwrap();
        base.push_to_list(list, Value::Ref(p)).unwrap();
        base.push_to_list(list, Value::Ref(p)).unwrap();
        base.bind_variable("AllParts", Value::Ref(list));
        base
    }

    /// One object per value kind the codec knows, with every escaped
    /// byte in a name, a string and a char.
    fn every_value_base() -> ObjectBase {
        let mut s = Schema::new();
        s.define_tuple(
            "ALL KINDS",
            [
                ("Int", "INTEGER"),
                ("Flt", "FLOAT"),
                ("Dec", "DECIMAL"),
                ("Str =%", "STRING"),
                ("Chr", "CHAR"),
                ("Yes", "BOOL"),
                ("No", "BOOL"),
                ("Peer", "ALL KINDS"),
                ("Unset", "STRING"),
            ],
        )
        .unwrap();
        s.define_set("FLAGS", "BOOL").unwrap();
        s.define_list("CHARS", "CHAR").unwrap();
        s.validate().unwrap();
        let mut base = ObjectBase::new(s);
        let a = base.instantiate("ALL KINDS").unwrap();
        let b = base.instantiate("ALL KINDS").unwrap();
        base.set_attribute(a, "Int", Value::Integer(i64::MIN))
            .unwrap();
        base.set_attribute(a, "Flt", Value::float(-2.75)).unwrap();
        base.set_attribute(a, "Dec", Value::decimal(-3, 7)).unwrap();
        base.set_attribute(a, "Str =%", Value::string("a b%c=d\ne\rf \u{e9}"))
            .unwrap();
        base.set_attribute(a, "Chr", Value::Char(' ')).unwrap();
        base.set_attribute(a, "Yes", Value::Bool(true)).unwrap();
        base.set_attribute(a, "No", Value::Bool(false)).unwrap();
        base.set_attribute(a, "Peer", Value::Ref(b)).unwrap();
        base.set_attribute(b, "Int", Value::Integer(0)).unwrap();
        base.set_attribute(b, "Str =%", Value::string("")).unwrap();
        let flags = base.instantiate("FLAGS").unwrap();
        base.insert_into_set(flags, Value::Bool(true)).unwrap();
        base.insert_into_set(flags, Value::Bool(false)).unwrap();
        let chars = base.instantiate("CHARS").unwrap();
        for c in ['%', '=', '\n', 'x'] {
            base.push_to_list(chars, Value::Char(c)).unwrap();
        }
        base.bind_variable("The Flags", Value::Ref(flags));
        base.bind_variable("nothing", Value::Null);
        base
    }

    /// The text the writer produced before it stopped building a `String`
    /// per token: the format is frozen byte for byte.
    #[test]
    fn write_base_text_is_pinned() {
        let text = write_base(&every_value_base());
        assert_eq!(text, PINNED_BASE);
        assert_eq!(write_base(&read_base(&text).unwrap()), text);
    }

    const PINNED_BASE: &str = "\
GOMSNAP 1\n\
T ALL%20KINDS TUPLE | Int=INTEGER Flt=FLOAT Dec=DECIMAL Str%20%3D%25=STRING Chr=CHAR Yes=BOOL No=BOOL Peer=ALL%20KINDS Unset=STRING\n\
T FLAGS SET BOOL\n\
T CHARS LIST CHAR\n\
O i0 ALL%20KINDS TUPLE Chr=C:%20 Dec=D:-307 Flt=F:13836746905142427648 Int=I:-9223372036854775808 No=B:0 Peer=R:i1 Str%20%3D%25=S:a%20b%25c%3Dd%0Ae%0Df%20é Yes=B:1\n\
O i1 ALL%20KINDS TUPLE Int=I:0 Str%20%3D%25=S:\n\
O i2 FLAGS SET B:0 B:1\n\
O i3 CHARS LIST C:%25 C:%3D C:%0A C:x\n\
V The%20Flags R:i2\n\
V nothing N\n";

    #[test]
    fn round_trip_preserves_everything() {
        let base = sample_base();
        let text = write_base(&base);
        let restored = read_base(&text).unwrap();
        assert_eq!(restored.object_count(), base.object_count());
        // Objects identical (same OIDs, same bodies).
        for obj in base.objects() {
            assert_eq!(restored.object(obj.oid).unwrap(), obj);
        }
        assert_eq!(
            restored.variable("AllParts").unwrap(),
            base.variable("AllParts").unwrap()
        );
        // Schema equivalent: same flattened attributes per type.
        for (id, def) in base.schema().types() {
            let rid = restored.schema().resolve(&def.name).unwrap();
            if def.kind.is_tuple() {
                assert_eq!(
                    base.schema().all_attributes(id).unwrap().len(),
                    restored.schema().all_attributes(rid).unwrap().len(),
                    "{}",
                    def.name
                );
            }
        }
        // A second round trip is byte-identical (canonical form).
        assert_eq!(write_base(&restored), text);
    }

    #[test]
    fn restored_base_accepts_new_objects_without_oid_collision() {
        let base = sample_base();
        let max_oid = base.objects().map(|o| o.oid.as_raw()).max().unwrap();
        let mut restored = read_base(&write_base(&base)).unwrap();
        let fresh = restored.instantiate("PART").unwrap();
        assert!(fresh.as_raw() > max_oid, "generator resumed past {max_oid}");
    }

    #[test]
    fn value_encoding_round_trips() {
        for v in [
            Value::Null,
            Value::Integer(i64::MIN),
            Value::float(f64::NAN),
            Value::decimal(-3, 7),
            Value::string("a b%c=d\ne"),
            Value::Char('%'),
            Value::Bool(true),
            Value::Ref(Oid::from_raw(u64::MAX)),
        ] {
            let enc = encode_value(&v);
            assert!(!enc.contains(' '), "encoding must be space-free: {enc}");
            let dec = decode_value(&enc).unwrap();
            assert_eq!(dec, v, "{enc}");
        }
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(read_base("").is_err());
        assert!(read_base("WRONG 9").is_err());
        assert!(read_base("GOMSNAP 1\nX junk").is_err());
        assert!(read_base("GOMSNAP 1\nO i0 MISSING TUPLE").is_err());
        assert!(read_base("GOMSNAP 1\nT A TUPLE |\nO i0 A TUPLE x").is_err());
        assert!(decode_value("Q:1").is_err());
        assert!(decode_value("R:zebra").is_err());
        assert!(unescape("%zz").is_err());
        assert!(unescape("%2").is_err());
        // Hostile bytes the writer can never have produced: a bool that
        // is neither 0 nor 1, and escapes outside the five it emits
        // (`%E9` used to decode to a Latin-1 `é`, `%41` to `A`).
        for tok in [
            "B:", "B:2", "B:true", "B:01", "S:caf%E9", "S:%41", "S:%0a", "C:%80",
        ] {
            let err = decode_value(tok).unwrap_err();
            assert!(matches!(err, GomError::InvalidPath(_)), "`{tok}` → {err:?}");
        }
        assert!(read_base("GOMSNAP 1\nT A%FF TUPLE |").is_err());
        assert!(read_base("GOMSNAP 1\nT A TUPLE | x=BOOL\nO i0 A TUPLE x=B:9").is_err());
        assert!(read_base("GOMSNAP 1\nV a%00b N").is_err());
        for (tok, want) in [("B:1", Value::Bool(true)), ("B:0", Value::Bool(false))] {
            assert_eq!(decode_value(tok).unwrap(), want);
        }
    }

    #[test]
    fn comments_and_blank_lines_tolerated() {
        let mut text = write_base(&sample_base());
        text.push_str("\n# trailing comment\n\n");
        assert!(read_base(&text).is_ok());
    }
}
