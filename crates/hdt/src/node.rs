//! Node model for hierarchical data trees.
//!
//! A node is the triple `(tag, pos, data)` of Definition 1.  Nodes are stored in a flat
//! arena inside [`crate::tree::Hdt`] and referenced by [`NodeId`], a small copyable
//! index.  A node stores its tag and data; its `pos` is a function of the tree, which
//! the tree's index derives (see [`crate::tree`]).  Keeping nodes in an arena (rather than `Rc`-linked structures) makes the
//! synthesis algorithms cheap: node sets become sorted `Vec<NodeId>`s and hashing a
//! DFA state is hashing a slice of `u32`s.

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

/// A single node of a hierarchical data tree.
///
/// Mirrors Definition 1: `tag` is the label (an interned [`TagId`]) and `data` the
/// payload (only meaningful for leaves).  The parent/children links are maintained by
/// the owning [`crate::Hdt`], which also answers the node's `pos` ([`crate::Hdt::pos`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Label of the node (XML element name, JSON key, synthetic tag, ...), interned.
    pub tag: TagId,
    /// Data stored at the node.  `None` for internal nodes, `Some` for leaves.
    pub data: Option<String>,
    /// Parent link (`None` only for the root).
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
}

impl Node {
    /// Creates a new node with no parent/children links yet.
    pub fn new(tag: impl Into<TagId>, data: Option<String>) -> Self {
        Node {
            tag: tag.into(),
            data,
            parent: None,
            children: Vec::new(),
        }
    }

    /// True when the node stores data and has no children (leaf of the HDT).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
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
    fn leaf_detection() {
        let mut n = Node::new("name", Some("Alice".into()));
        assert!(n.is_leaf());
        n.children.push(NodeId(3));
        assert!(!n.is_leaf());
    }
}
