//! Error types for HDT construction and document parsing.

use std::fmt;

/// Maximum nesting depth the recursive-descent parsers accept.
///
/// Adversarial inputs like `[[[[…]]]]` or `<a><a><a>…` would otherwise drive the
/// parser recursion (and the recursive drop of the parsed value) arbitrarily
/// deep and crash with a stack overflow — an abort, not an unwindable panic, so
/// not something the fault-tolerance layer can catch.  Every parser counts its
/// container nesting and returns [`HdtError::DepthLimit`] past this bound.
pub const MAX_PARSE_DEPTH: usize = 10_000;

/// Errors produced while parsing XML/JSON documents or building trees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HdtError {
    /// A syntax error at a byte offset in the input document.
    Parse {
        /// Human readable description of what went wrong.
        message: String,
        /// Byte offset into the input where the error was detected.
        offset: usize,
    },
    /// Container nesting exceeded [`MAX_PARSE_DEPTH`] at the given byte offset.
    DepthLimit {
        /// The limit that was exceeded.
        limit: usize,
        /// Byte offset of the container that went one level too deep.
        offset: usize,
    },
    /// The document was well-formed but structurally unusable (e.g. empty).
    Structure(String),
    /// A tree's leaf data would pass the `limit` bytes its one text buffer
    /// addresses (`u32::MAX`).
    TextLimit {
        /// The largest text buffer a tree can address, in bytes.
        limit: usize,
    },
    /// A tree would pass the `limit` nodes its `u32` node ids can number.
    NodeLimit {
        /// The most nodes a tree can hold.
        limit: usize,
    },
}

impl HdtError {
    /// Convenience constructor for parse errors.
    pub fn parse(message: impl Into<String>, offset: usize) -> Self {
        HdtError::Parse {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for HdtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdtError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            HdtError::DepthLimit { limit, offset } => {
                write!(f, "nesting depth limit ({limit}) exceeded at byte {offset}")
            }
            HdtError::Structure(msg) => write!(f, "structure error: {msg}"),
            HdtError::TextLimit { limit } => {
                write!(
                    f,
                    "leaf data exceeds the tree's text limit of {limit} bytes"
                )
            }
            HdtError::NodeLimit { limit } => {
                write!(f, "the tree exceeds its limit of {limit} nodes")
            }
        }
    }
}

impl std::error::Error for HdtError {}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, HdtError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_error_mentions_offset() {
        let e = HdtError::parse("unexpected '<'", 42);
        let s = e.to_string();
        assert!(s.contains("42"));
        assert!(s.contains("unexpected"));
    }

    #[test]
    fn display_structure_error() {
        let e = HdtError::Structure("empty document".into());
        assert!(e.to_string().contains("empty document"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(HdtError::parse("x", 1), HdtError::parse("x", 1));
        assert_ne!(HdtError::parse("x", 1), HdtError::parse("x", 2));
    }
}
