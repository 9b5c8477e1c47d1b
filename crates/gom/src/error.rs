//! Error type for all GOM operations.

use std::fmt;

use crate::oid::Oid;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GomError>;

/// Errors raised by schema definition, object manipulation and path
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GomError {
    /// A type with this name was already defined in the schema.
    DuplicateType(String),
    /// Referenced type name is not defined in the schema.
    UnknownType(String),
    /// A tuple type declared two attributes with the same name
    /// (directly or via inheritance from multiple supertypes).
    DuplicateAttribute {
        /// Type in which the clash occurs.
        ty: String,
        /// The clashing attribute name.
        attr: String,
    },
    /// Attribute lookup failed.
    UnknownAttribute {
        /// Type that was searched (including its supertypes).
        ty: String,
        /// The attribute that was not found.
        attr: String,
    },
    /// A supertype of a tuple type is not itself a tuple type.
    InvalidSupertype {
        /// The subtype being defined.
        ty: String,
        /// The offending supertype.
        supertype: String,
    },
    /// The supertype graph contains a cycle.
    InheritanceCycle(String),
    /// An object with this OID does not exist in the object base.
    UnknownObject(Oid),
    /// An object with this OID already exists (a snapshot listing one OID
    /// twice, or restoring over a live object).
    DuplicateObject(Oid),
    /// The object exists but has the wrong structure for the operation
    /// (e.g. `insert_into_set` on a tuple object).
    WrongStructure {
        /// The object operated on.
        oid: Oid,
        /// What the operation expected ("tuple", "set", "list").
        expected: &'static str,
    },
    /// Strong typing violation: a value was assigned whose type is not a
    /// subtype of the declared attribute/element type.
    TypeViolation {
        /// Declared upper-bound type.
        expected: String,
        /// The actual type of the offending value.
        actual: String,
    },
    /// A named database variable ("root") was not found.
    UnknownVariable(String),
    /// Path-expression syntax or semantics error (Definition 3.1).
    InvalidPath(String),
    /// The operation would instantiate an abstract construct (e.g. `ANY`).
    NotInstantiable(String),
}

impl fmt::Display for GomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GomError::DuplicateType(name) => write!(f, "type `{name}` is already defined"),
            GomError::UnknownType(name) => write!(f, "type `{name}` is not defined"),
            GomError::DuplicateAttribute { ty, attr } => {
                write!(f, "type `{ty}` declares attribute `{attr}` more than once")
            }
            GomError::UnknownAttribute { ty, attr } => {
                write!(f, "type `{ty}` has no attribute `{attr}`")
            }
            GomError::InvalidSupertype { ty, supertype } => {
                write!(f, "supertype `{supertype}` of `{ty}` is not a tuple type")
            }
            GomError::InheritanceCycle(name) => {
                write!(f, "inheritance cycle detected through type `{name}`")
            }
            GomError::UnknownObject(oid) => write!(f, "object {oid} does not exist"),
            GomError::DuplicateObject(oid) => write!(f, "object {oid} already exists"),
            GomError::WrongStructure { oid, expected } => {
                write!(f, "object {oid} is not a {expected} instance")
            }
            GomError::TypeViolation { expected, actual } => {
                write!(
                    f,
                    "type violation: expected (a subtype of) `{expected}`, got `{actual}`"
                )
            }
            GomError::UnknownVariable(name) => write!(f, "database variable `{name}` is not bound"),
            GomError::InvalidPath(msg) => write!(f, "invalid path expression: {msg}"),
            GomError::NotInstantiable(name) => write!(f, "type `{name}` cannot be instantiated"),
        }
    }
}

impl std::error::Error for GomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_context() {
        let err = GomError::UnknownAttribute {
            ty: "ROBOT".into(),
            attr: "Arm".into(),
        };
        assert_eq!(err.to_string(), "type `ROBOT` has no attribute `Arm`");
        let err = GomError::TypeViolation {
            expected: "TOOL".into(),
            actual: "ROBOT".into(),
        };
        assert!(err.to_string().contains("expected (a subtype of) `TOOL`"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            GomError::UnknownType("X".into()),
            GomError::UnknownType("X".into())
        );
        assert_ne!(
            GomError::UnknownType("X".into()),
            GomError::DuplicateType("X".into())
        );
    }
}
