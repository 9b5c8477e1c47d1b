//! Values: the things attributes, set elements and list elements hold.
//!
//! A GOM value is either `NULL` (the undefined value every tuple attribute
//! is initialized to), an instance of a built-in elementary type (identified
//! by its value), or a *reference* to an object carrying identity.

use std::cmp::Ordering;
use std::fmt;

use crate::atomic::AtomicType;
use crate::oid::Oid;

/// Scale factor used for [`Value::Decimal`]: values are stored as integer
/// multiples of 1/100 (two decimal digits, enough for the paper's `Price`
/// examples such as `1205.50`).
pub const DECIMAL_SCALE: i64 = 100;

/// A GOM value.  Two words: a tag and an 8-byte payload (a string is
/// one pointer to its heap buffer).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// The undefined value.  Freshly instantiated tuple attributes are NULL.
    Null,
    /// `INTEGER` value.
    Integer(i64),
    /// `FLOAT` value.  Stored as raw bits so `Value` can be `Eq + Hash`;
    /// constructed via [`Value::float`] and read via [`Value::as_float`].
    Float(u64),
    /// `DECIMAL` value scaled by [`DECIMAL_SCALE`].
    Decimal(i64),
    /// `STRING` value, boxed so that a `Value` is two words: every
    /// attribute slot, ASR cell and tree key is sized by the largest
    /// variant, and a `String` inline would make it three.
    String(Box<String>),
    /// `CHAR` value.
    Char(char),
    /// `BOOL` value.
    Bool(bool),
    /// Reference to an identity-carrying object.
    Ref(Oid),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

impl Value {
    /// Build a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(Box::new(s.into()))
    }

    /// Build a float value from an `f64`.
    pub fn float(f: f64) -> Value {
        Value::Float(f.to_bits())
    }

    /// Build a decimal value from whole and fractional (cents) parts,
    /// e.g. `Value::decimal(1205, 50)` for the paper's `1205.50`.
    pub fn decimal(whole: i64, cents: i64) -> Value {
        let sign = if whole < 0 { -1 } else { 1 };
        Value::Decimal(whole * DECIMAL_SCALE + sign * cents)
    }

    /// Read a float value back, if this is one.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Read the referenced OID, if this value is a reference.
    pub fn as_ref_oid(&self) -> Option<Oid> {
        match self {
            Value::Ref(oid) => Some(*oid),
            _ => None,
        }
    }

    /// Read an integer back, if this is one.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Read a string slice back, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// `true` iff this is the undefined value.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The atomic type of this value, or `None` for `NULL` and references.
    pub fn atomic_type(&self) -> Option<AtomicType> {
        match self {
            Value::Integer(_) => Some(AtomicType::Integer),
            Value::Float(_) => Some(AtomicType::Float),
            Value::Decimal(_) => Some(AtomicType::Decimal),
            Value::String(_) => Some(AtomicType::String),
            Value::Char(_) => Some(AtomicType::Char),
            Value::Bool(_) => Some(AtomicType::Bool),
            Value::Null | Value::Ref(_) => None,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order used for B+ tree keys.  Values of different kinds order
    /// by a kind tag first; floats order by their IEEE total-order bits.
    fn cmp(&self, other: &Self) -> Ordering {
        fn tag(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Integer(_) => 1,
                Value::Float(_) => 2,
                Value::Decimal(_) => 3,
                Value::String(_) => 4,
                Value::Char(_) => 5,
                Value::Bool(_) => 6,
                Value::Ref(_) => 7,
            }
        }
        tag(self)
            .cmp(&tag(other))
            .then_with(|| match (self, other) {
                (Value::Integer(a), Value::Integer(b)) => a.cmp(b),
                (Value::Float(a), Value::Float(b)) => {
                    f64::from_bits(*a).total_cmp(&f64::from_bits(*b))
                }
                (Value::Decimal(a), Value::Decimal(b)) => a.cmp(b),
                (Value::String(a), Value::String(b)) => a.cmp(b),
                (Value::Char(a), Value::Char(b)) => a.cmp(b),
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Ref(a), Value::Ref(b)) => a.cmp(b),
                _ => Ordering::Equal,
            })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Float(bits) => write!(f, "{}", f64::from_bits(*bits)),
            Value::Decimal(scaled) => {
                // The sign is written on its own: the whole part of a
                // value in (-1, 0) is `0`, which has none.
                let sign = if *scaled < 0 { "-" } else { "" };
                let abs = scaled.unsigned_abs();
                let scale = DECIMAL_SCALE.unsigned_abs();
                write!(f, "{sign}{}.{:02}", abs / scale, abs % scale)
            }
            Value::String(s) => write!(f, "\"{s}\""),
            Value::Char(c) => write!(f, "'{c}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ref(oid) => write!(f, "{oid}"),
        }
    }
}

impl From<Oid> for Value {
    fn from(oid: Oid) -> Self {
        Value::Ref(oid)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::string(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_display_matches_paper() {
        assert_eq!(Value::decimal(1205, 50).to_string(), "1205.50");
        assert_eq!(Value::decimal(0, 12).to_string(), "0.12");
    }

    #[test]
    fn decimal_display_keeps_the_sign_below_one() {
        assert_eq!(Value::Decimal(-5).to_string(), "-0.05");
        assert_eq!(Value::Decimal(-105).to_string(), "-1.05");
        assert_eq!(Value::Decimal(5).to_string(), "0.05");
        assert_eq!(Value::Decimal(-100).to_string(), "-1.00");
        assert_eq!(Value::decimal(-1, 5).to_string(), "-1.05");
        assert_eq!(
            Value::Decimal(i64::MIN).to_string(),
            "-92233720368547758.08"
        );
    }

    #[test]
    fn float_round_trips() {
        let v = Value::float(3.25);
        assert_eq!(v.as_float(), Some(3.25));
        assert_eq!(v.atomic_type(), Some(AtomicType::Float));
    }

    #[test]
    fn ordering_is_total_and_kind_first() {
        let mut vals = vec![
            Value::string("b"),
            Value::Integer(5),
            Value::Null,
            Value::Ref(Oid::from_raw(1)),
            Value::string("a"),
            Value::Integer(-1),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Integer(-1),
                Value::Integer(5),
                Value::string("a"),
                Value::string("b"),
                Value::Ref(Oid::from_raw(1)),
            ]
        );
    }

    #[test]
    fn float_ordering_uses_total_cmp() {
        let a = Value::float(-1.0);
        let b = Value::float(1.0);
        let nan = Value::float(f64::NAN);
        assert!(a < b);
        assert!(
            b < nan,
            "positive NaN sorts above all finite values in total order"
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Integer(7).as_integer(), Some(7));
        assert_eq!(Value::string("x").as_str(), Some("x"));
        assert_eq!(
            Value::Ref(Oid::from_raw(3)).as_ref_oid(),
            Some(Oid::from_raw(3))
        );
        assert!(Value::Null.is_null());
        assert_eq!(Value::string("x").as_integer(), None);
    }
}
