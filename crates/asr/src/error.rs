//! Error type for access-support-relation operations.

use std::fmt;

use asr_gom::GomError;
use asr_pagesim::PageSimError;

/// Convenience alias.
pub type Result<T> = std::result::Result<T, AsrError>;

/// Errors raised while building, querying or maintaining access support
/// relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsrError {
    /// An underlying object-model error.
    Gom(GomError),
    /// An underlying storage error.
    PageSim(PageSimError),
    /// The requested decomposition is malformed (cut points not strictly
    /// increasing from 0 to m).
    InvalidDecomposition(String),
    /// The chosen extension cannot evaluate the requested span query
    /// (formula 35 of the paper); callers may fall back to naive
    /// evaluation.
    Unsupported {
        /// Extension name.
        extension: &'static str,
        /// Query span start `i`.
        i: usize,
        /// Query span end `j`.
        j: usize,
        /// Path length `n`.
        n: usize,
    },
    /// A query span `[i, j]` was out of range for the path.
    InvalidSpan {
        /// Span start.
        i: usize,
        /// Span end.
        j: usize,
        /// Path length.
        n: usize,
    },
    /// Arity mismatch between a row and the relation or partition it was
    /// offered to.
    ArityMismatch {
        /// What the structure expects.
        expected: usize,
        /// What the row has.
        actual: usize,
    },
    /// A maintenance operation referenced a path position that does not
    /// match the updated object's type.
    BadUpdatePosition(String),
    /// A snapshot (or WAL checkpoint) could not be parsed: truncated
    /// files, garbled headers, bad `A`-lines, a missing `--BASE--`
    /// marker.  Loading corrupt input returns this — it never panics.
    Snapshot(String),
    /// Probe keys offered as a [`crate::query::Frontier`] were not
    /// strictly ascending: key `index` does not follow key `index − 1`.
    FrontierOrder {
        /// Position of the first key out of order.
        index: usize,
    },
}

impl fmt::Display for AsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsrError::Gom(e) => write!(f, "object model error: {e}"),
            AsrError::PageSim(e) => write!(f, "storage error: {e}"),
            AsrError::InvalidDecomposition(msg) => write!(f, "invalid decomposition: {msg}"),
            AsrError::Unsupported { extension, i, j, n } => write!(
                f,
                "the {extension} extension cannot evaluate Q_{{{i},{j}}} on a path of length {n}"
            ),
            AsrError::InvalidSpan { i, j, n } => {
                write!(f, "span [{i},{j}] is invalid for a path of length {n}")
            }
            AsrError::ArityMismatch { expected, actual } => {
                write!(f, "arity mismatch: expected {expected}, got {actual}")
            }
            AsrError::BadUpdatePosition(msg) => write!(f, "bad update position: {msg}"),
            AsrError::Snapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            AsrError::FrontierOrder { index } => write!(
                f,
                "probe keys must be strictly ascending: key {index} does not follow key {}",
                index - 1
            ),
        }
    }
}

impl std::error::Error for AsrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsrError::Gom(e) => Some(e),
            AsrError::PageSim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GomError> for AsrError {
    fn from(e: GomError) -> Self {
        AsrError::Gom(e)
    }
}

impl From<PageSimError> for AsrError {
    fn from(e: PageSimError) -> Self {
        AsrError::PageSim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: AsrError = GomError::UnknownVariable("x".into()).into();
        assert!(e.to_string().contains("object model error"));
        let e: AsrError = PageSimError::NotFound("k".into()).into();
        assert!(e.to_string().contains("storage error"));
        let e = AsrError::Unsupported {
            extension: "canonical",
            i: 1,
            j: 3,
            n: 4,
        };
        assert_eq!(
            e.to_string(),
            "the canonical extension cannot evaluate Q_{1,3} on a path of length 4"
        );
    }
}
