//! Node model for hierarchical data trees.
//!
//! A node is the triple `(tag, pos, data)` of Definition 1.  Nodes are stored in a flat
//! arena inside [`crate::tree::Hdt`] and referenced by [`NodeId`], a small copyable
//! index.  Keeping nodes in an arena (rather than `Rc`-linked structures) makes the
//! synthesis algorithms cheap: node sets become sorted `Vec<NodeId>`s and hashing a
//! DFA state is hashing a slice of `u32`s.
//!
//! An arena slot owns no heap memory: it holds the node's tag, its parent link, its
//! child count and the span of its data in the tree's one text buffer, 20 bytes in
//! all.  The node's children and its `pos` are functions of the arena, which the
//! tree's index derives (see [`crate::tree`]).

use crate::error::{HdtError, Result};
use crate::intern::TagId;
use std::fmt;

/// Identifier of a node inside a particular [`crate::Hdt`] arena.
///
/// `NodeId`s are only meaningful with respect to the tree that produced them; they are
/// assigned densely starting from zero (the root is always id 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root node of every tree.
    pub const ROOT: NodeId = NodeId(0);

    /// Returns the underlying index as a `usize` for arena addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of arena index `index`, or [`HdtError::NodeLimit`] past the last id
    /// a tree can hand out (`u32::MAX` marks the root's missing parent).
    pub(crate) fn at(index: usize) -> Result<NodeId> {
        match u32::try_from(index) {
            Ok(id) if id != NO_PARENT => Ok(NodeId(id)),
            _ => Err(HdtError::NodeLimit {
                limit: NO_PARENT as usize,
            }),
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// The `parent` of the root.
const NO_PARENT: u32 = u32::MAX;

/// One arena slot: Definition 1's `tag` and `data`, plus the parent link and child
/// count the tree's index derives children from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Label of the node (XML element name, JSON key, synthetic tag, ...), interned.
    pub(crate) tag: TagId,
    /// Arena index of the parent, or [`NO_PARENT`] for the root.
    parent: u32,
    /// How many nodes name this one as their parent.
    pub(crate) child_count: u32,
    /// Where the node's data sits in the tree's text buffer.
    pub(crate) data: Span,
}

impl Node {
    /// A node under `parent` (`None` for a root) with no children yet.
    pub(crate) fn new(tag: TagId, parent: Option<NodeId>, data: Span) -> Node {
        Node {
            tag,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            child_count: 0,
            data,
        }
    }

    /// The parent link (`None` for the root).
    #[inline]
    pub(crate) fn parent(&self) -> Option<NodeId> {
        (self.parent != NO_PARENT).then_some(NodeId(self.parent))
    }

    /// Points the node at `parent`.
    pub(crate) fn set_parent(&mut self, parent: NodeId) {
        self.parent = parent.0;
    }
}

/// A node's data: the bytes `start..end` of its tree's text buffer, or no data
/// when `start` is [`Span::NONE`]'s.  An empty datum is `0..0`, so a span that
/// starts at `u32::MAX` is always the missing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The span of a node without data.
    pub(crate) const NONE: Span = Span {
        start: u32::MAX,
        end: u32::MAX,
    };

    /// The span of the text buffer's bytes `start..end`, or
    /// [`HdtError::TextLimit`] when `end` is past `u32::MAX`: spans never
    /// truncate.
    pub(crate) fn new(start: usize, end: usize) -> Result<Span> {
        if start == end {
            return Ok(Span { start: 0, end: 0 });
        }
        match (u32::try_from(start), u32::try_from(end)) {
            (Ok(start), Ok(end)) => Ok(Span { start, end }),
            _ => Err(HdtError::TextLimit {
                limit: u32::MAX as usize,
            }),
        }
    }

    /// The byte range of the datum, if there is one.
    #[inline]
    pub(crate) fn range(self) -> Option<std::ops::Range<usize>> {
        (self.start != u32::MAX).then_some(self.start as usize..self.end as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId::ROOT, NodeId(0));
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(25).to_string(), "n25");
    }

    #[test]
    fn a_node_owns_no_heap_memory() {
        assert_eq!(std::mem::size_of::<Node>(), 20);
        let node = Node::new(TagId::from("name"), Some(NodeId(3)), Span::NONE);
        assert_eq!((node.parent(), node.child_count), (Some(NodeId(3)), 0));
        assert_eq!(Node::new(node.tag, None, Span::NONE).parent(), None);
    }

    #[test]
    fn node_ids_past_the_limit_are_a_typed_error_not_a_truncation() {
        let max = u32::MAX as usize;
        assert_eq!(NodeId::at(7), Ok(NodeId(7)));
        assert_eq!(NodeId::at(max - 1), Ok(NodeId(u32::MAX - 1)));
        for index in [max, max + 1, usize::MAX] {
            assert_eq!(NodeId::at(index), Err(HdtError::NodeLimit { limit: max }));
        }
    }

    #[test]
    fn spans_past_u32_max_are_a_typed_error_not_a_truncation() {
        let max = u32::MAX as usize;
        assert_eq!(Span::new(3, 8).unwrap().range(), Some(3..8));
        assert_eq!(Span::new(max - 1, max).unwrap().range(), Some(max - 1..max));
        // An empty datum anywhere, even past the limit, is `0..0`.
        assert_eq!(Span::new(max + 5, max + 5).unwrap().range(), Some(0..0));
        assert_eq!(Span::NONE.range(), None);
        for (start, end) in [(max - 1, max + 1), (max, max + 1), (max + 1, max + 9)] {
            assert_eq!(
                Span::new(start, end),
                Err(HdtError::TextLimit { limit: max }),
                "{start}..{end}"
            );
        }
    }
}
