//! The hierarchical data tree (HDT) arena.
//!
//! [`Hdt`] owns all nodes of one document in a flat vector and exposes the traversal
//! primitives that the DSL semantics (Figure 7) need: children lookup by tag, children
//! lookup by tag *and* position, descendant search by tag, and parent lookup.
//!
//! A node owns no heap memory: its slot holds its tag, its parent link, its child
//! count and the span of its data in the tree's one text buffer.  Every parent
//! precedes its children in the arena ([`Hdt::add_child`] needs an existing parent),
//! and arena order is insertion order.
//!
//! Tags are interned [`TagId`]s (see [`crate::intern`]), so every lookup compares
//! `u32`s.  On top of the arena the tree maintains a lazily built `TreeIndex`, whose
//! build makes a few linear passes over the arena:
//!
//! * **every node's children**, in the order [`Hdt::add_child`] added them, in one
//!   flat array node after node: one forward pass places each node in its parent's
//!   span, which starts at the prefix sum of the earlier nodes' child counts.
//!   [`Hdt::children`] reads it;
//! * a **pre-order numbering** — `preorder(n)` and an exclusive `subtree_end(n)` — so
//!   that "is `d` a descendant of `n`" becomes an interval test.  One backward pass
//!   sums subtree sizes and one forward pass hands out numbers and depths;
//! * a **per-tag occurrence list** sorted by pre-order number, making
//!   [`Hdt::descendants_with_tag`] a binary-search range scan (`O(log n + k)`) that
//!   returns a contiguous slice, instead of a full subtree walk;
//! * **children sorted by tag**, a copy of the children array whose spans are stably
//!   sorted by tag, making [`Hdt::children_with_tag`] two binary searches in the
//!   node's span that return a slice in document order;
//! * **every node's `pos`**, its offset in its tag's run of that array: the number of
//!   earlier siblings with its tag, as Definition 1 asks.  [`Hdt::pos`] reads it, and
//!   [`Hdt::child`] is the `pos`'th entry of [`Hdt::children_with_tag`].
//!
//! The index is built on first query and invalidated by mutation ([`Hdt::add_child`]),
//! so construction stays cheap and read-heavy workloads (synthesis, evaluation) pay
//! the build cost exactly once per tree.  No node stores its children or its `pos`,
//! so every ingestion path builds a tree with plain pushes.

use crate::error::{HdtError, Result};
use crate::intern::TagId;
use crate::node::{Node, NodeId, Span};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Derived navigation indexes over one [`Hdt`] arena (see the module docs).
#[derive(Debug, Clone)]
struct TreeIndex {
    /// Pre-order number of each node, indexed by arena position.
    pre: Vec<u32>,
    /// Exclusive end of each node's subtree in pre-order numbering: every strict
    /// descendant `d` of `n` satisfies `pre[n] < pre[d] < end[n]`.
    end: Vec<u32>,
    /// Depth of each node (root is 0), indexed by arena position.  Cached so the
    /// executor's structural interval joins can compare ancestor distances in O(1)
    /// instead of walking parent chains.
    depth: Vec<u32>,
    /// Per-tag occurrence lists, both vectors sorted by pre-order number in lockstep.
    occurrences: HashMap<TagId, TagOccurrences>,
    /// Every node's children in the order they were added, laid out node after node
    /// in arena order.
    children: Vec<NodeId>,
    /// `children` with each node's span stably sorted by tag, so each tag's
    /// children stay in document order.
    children_by_tag: Vec<NodeId>,
    /// Node `n`'s span of both arrays is `child_start[n]..child_start[n + 1]`.
    child_start: Vec<u32>,
    /// Each node's offset in its tag's run of its parent's span (0 for the root).
    pos: Vec<u32>,
}

/// All nodes carrying one tag, sorted by pre-order number.  `pre` and `nodes` are
/// parallel: `nodes[i]` has pre-order number `pre[i]`.  Keeping them parallel lets
/// range queries return a borrowed `&[NodeId]` slice with no per-query allocation.
#[derive(Debug, Clone, Default)]
struct TagOccurrences {
    pre: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl TreeIndex {
    fn build(tree: &Hdt) -> TreeIndex {
        let nodes = &tree.nodes;
        let n = nodes.len();

        // Each node's span of the children array starts after every earlier
        // node's children.
        let mut child_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut total = 0u32;
        for node in nodes {
            child_start.push(total);
            total += node.child_count;
        }
        child_start.push(total);

        // One forward pass: arena order is insertion order, so each parent's
        // children arrive in the order they were added.  `pre` serves as the
        // fill cursor of each span until the numbering pass below overwrites it.
        let mut children = vec![NodeId::ROOT; total as usize];
        let mut pre = child_start[..n].to_vec();
        for (id, node) in nodes.iter().enumerate() {
            if let Some(parent) = node.parent() {
                let cursor = &mut pre[parent.index()];
                children[*cursor as usize] = NodeId(id as u32);
                *cursor += 1;
            }
        }

        // Every parent precedes its children, so one backward pass sums the
        // subtree sizes (kept in `end` until the numbering pass turns them into
        // ends) ...
        let mut end = vec![1u32; n];
        for (id, node) in nodes.iter().enumerate().skip(1).rev() {
            if let Some(parent) = node.parent() {
                end[parent.index()] += end[id];
            }
        }
        // ... and one forward pass numbers each node's children after it, each
        // child's subtree after its earlier siblings'.
        let mut depth = vec![0u32; n];
        pre[0] = 0;
        for id in 0..n {
            let mut next = pre[id] + 1;
            for &c in &children[child_span(&child_start, id)] {
                pre[c.index()] = next;
                depth[c.index()] = depth[id] + 1;
                next += end[c.index()];
            }
            end[id] += pre[id];
        }

        // Occurrence lists: pushing in pre-order keeps each tag's vectors sorted.
        // A tag-id-indexed slot table groups the nodes, so the map takes one
        // entry per distinct tag rather than one hash per node.
        let mut order = vec![NodeId::ROOT; n];
        for (id, &number) in pre.iter().enumerate() {
            order[number as usize] = NodeId(id as u32);
        }
        let mut slot_of: Vec<u32> = Vec::new();
        let mut lists: Vec<(TagId, TagOccurrences)> = Vec::new();
        for (number, id) in order.iter().enumerate() {
            let tag = nodes[id.index()].tag;
            let t = tag.id() as usize;
            if t >= slot_of.len() {
                slot_of.resize(t + 1, u32::MAX);
            }
            if slot_of[t] == u32::MAX {
                slot_of[t] = lists.len() as u32;
                lists.push((tag, TagOccurrences::default()));
            }
            let occ = &mut lists[slot_of[t] as usize].1;
            occ.pre.push(number as u32);
            occ.nodes.push(*id);
        }
        let occurrences: HashMap<TagId, TagOccurrences> = lists.into_iter().collect();

        // Children sorted by tag, node after node; the sort is stable, so each
        // tag's children keep their document order, and a child's offset in its
        // tag's run is its `pos`.
        let mut children_by_tag = children.clone();
        let mut pos = vec![0u32; n];
        for id in 0..n {
            let span = &mut children_by_tag[child_span(&child_start, id)];
            span.sort_by_key(|c| nodes[c.index()].tag);
            let mut run_tag = None;
            let mut offset = 0;
            for c in span.iter() {
                let tag = nodes[c.index()].tag;
                if run_tag != Some(tag) {
                    run_tag = Some(tag);
                    offset = 0;
                }
                pos[c.index()] = offset;
                offset += 1;
            }
        }

        TreeIndex {
            pre,
            end,
            depth,
            occurrences,
            children,
            children_by_tag,
            child_start,
            pos,
        }
    }
}

/// Node `id`'s span of `children` and `children_by_tag`.
#[inline]
fn child_span(child_start: &[u32], id: usize) -> std::ops::Range<usize> {
    child_start[id] as usize..child_start[id + 1] as usize
}

/// A hierarchical data tree: a rooted, ordered tree of `(tag, pos, data)` nodes.
///
/// Nodes are stored in an arena; [`NodeId`]s index into it.  The root always has id 0.
#[derive(Debug)]
pub struct Hdt {
    nodes: Vec<Node>,
    /// Every node's data, back to back; each node's [`Span`] says where its own is.
    text: String,
    /// Lazily built navigation index; cleared by every mutation.
    index: OnceLock<TreeIndex>,
}

/// Cloning copies the tree structure but *not* the derived index: a clone starts cold
/// and rebuilds on its first indexed query.  This keeps clones cheap and gives
/// benchmarks a way to measure the index build.
impl Clone for Hdt {
    fn clone(&self) -> Self {
        Hdt {
            nodes: self.nodes.clone(),
            text: self.text.clone(),
            index: OnceLock::new(),
        }
    }
}

/// Equality compares every node's tag, parent, child count and data text; where
/// each datum sits in the text buffer, and the derived index, are ignored.
impl PartialEq for Hdt {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.ids().all(|id| {
                let (a, b) = (&self.nodes[id.index()], &other.nodes[id.index()]);
                a.tag == b.tag
                    && a.parent() == b.parent()
                    && a.child_count == b.child_count
                    && self.data(id) == other.data(id)
            })
    }
}

impl Eq for Hdt {}

impl Hdt {
    /// Creates a tree consisting only of a root node with the given tag.
    pub fn with_root(tag: impl Into<TagId>) -> Self {
        Hdt {
            nodes: vec![Node::new(tag.into(), None, Span::NONE)],
            text: String::new(),
            index: OnceLock::new(),
        }
    }

    /// Id of the root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Total number of nodes in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree has only its root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Interned tag of a node.
    #[inline]
    pub fn tag(&self, id: NodeId) -> TagId {
        self.nodes[id.index()].tag
    }

    /// Tag of a node, resolved to its name (string boundary only — rendering,
    /// diagnostics, SQL/codegen emission).
    #[inline]
    pub fn tag_name(&self, id: NodeId) -> &'static str {
        self.tag(id).as_str()
    }

    /// Position of a node among same-tag siblings: how many of its parent's earlier
    /// children share its tag (0 for the root).  Read from the navigation index.
    #[inline]
    pub fn pos(&self, id: NodeId) -> usize {
        self.index().pos[id.index()] as usize
    }

    /// Data stored at a node (only leaves carry data).
    #[inline]
    pub fn data(&self, id: NodeId) -> Option<&str> {
        let range = self.nodes[id.index()].data.range()?;
        Some(&self.text[range])
    }

    /// True if the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].child_count == 0
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent()
    }

    /// Children of a node in document order (the order they were added), read
    /// from the navigation index.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let idx = self.index();
        &idx.children[child_span(&idx.child_start, id.index())]
    }

    /// The navigation index, building it on first use.
    #[inline]
    fn index(&self) -> &TreeIndex {
        self.index.get_or_init(|| TreeIndex::build(self))
    }

    /// Eagerly builds the navigation index if it does not exist yet.
    ///
    /// Parallel synthesis shares one tree across many workers; without this, the
    /// first indexed query from each worker funnels through the `OnceLock`
    /// initialization, serializing every thread behind one index build at the worst
    /// possible moment.  Calling `ensure_index` once before fanning out moves the
    /// build to the coordinating thread so workers only ever take the fast
    /// read-only path.
    pub fn ensure_index(&self) {
        let _ = self.index();
    }

    /// Adds a child node as the last child of `parent`, copying `data` into the
    /// tree's text buffer.  Its `pos` is derived, when the index is next built, as
    /// the number of `parent`'s earlier children with the same tag.
    ///
    /// # Panics
    /// Panics, leaving the tree unchanged, if `parent` does not belong to this
    /// tree, if the tree's leaf data would pass [`HdtError::TextLimit`]'s
    /// `u32::MAX` bytes, or if the tree would pass [`HdtError::NodeLimit`]'s
    /// `u32::MAX` nodes.
    pub fn add_child(
        &mut self,
        parent: NodeId,
        tag: impl Into<TagId>,
        data: Option<String>,
    ) -> NodeId {
        match self.push_child(parent, tag, data.as_deref()) {
            Ok(id) => id,
            Err(e) => panic!("add_child: {e}"),
        }
    }

    /// [`Hdt::add_child`] for the parsers: the data is borrowed, and a text buffer
    /// or a node count that would pass `u32::MAX` is a typed error.  An
    /// out-of-range `parent` panics before the arena changes.
    pub(crate) fn push_child(
        &mut self,
        parent: NodeId,
        tag: impl Into<TagId>,
        data: Option<&str>,
    ) -> Result<NodeId> {
        let len = self.nodes.len();
        assert!(
            parent.index() < len,
            "parent {parent} is out of range ({len} nodes)"
        );
        let id = NodeId::at(len)?;
        let span = match data {
            Some(data) => {
                let start = self.text.len();
                let span = Span::new(start, start + data.len())?;
                self.text.push_str(data);
                span
            }
            None => Span::NONE,
        };
        self.nodes[parent.index()].child_count += 1;
        self.nodes.push(Node::new(tag.into(), Some(parent), span));
        // Any previously built index is stale now.
        self.index.take();
        Ok(id)
    }

    /// Gives `leaf`, a node added without data, the text `write` appends to the
    /// tree's text buffer, so the parsers write data in place.
    pub(crate) fn fill_leaf(
        &mut self,
        leaf: NodeId,
        write: impl FnOnce(&mut String),
    ) -> Result<()> {
        let start = self.text.len();
        write(&mut self.text);
        match Span::new(start, self.text.len()) {
            Ok(span) => {
                self.nodes[leaf.index()].data = span;
                Ok(())
            }
            Err(e) => {
                self.text.truncate(start);
                Err(e)
            }
        }
    }

    /// Children of `id` whose tag equals `tag` (the `children` DSL construct), in
    /// document order: two binary searches in `id`'s span of the index's
    /// tag-sorted child array.
    pub fn children_with_tag(&self, id: NodeId, tag: impl Into<TagId>) -> &[NodeId] {
        let tag = tag.into();
        let idx = self.index();
        let span = &idx.children_by_tag[child_span(&idx.child_start, id.index())];
        let a = span.partition_point(|c| self.tag(*c) < tag);
        let b = a + span[a..].partition_point(|c| self.tag(*c) == tag);
        &span[a..b]
    }

    /// The child of `id` with the given tag and pos (the `child` node-extractor
    /// construct of the predicate language, and the one node `pchildren` selects
    /// under `id`): the `pos`'th entry of [`Hdt::children_with_tag`].  Returns `None`
    /// if no such child exists.
    pub fn child(&self, id: NodeId, tag: impl Into<TagId>, pos: usize) -> Option<NodeId> {
        self.children_with_tag(id, tag).get(pos).copied()
    }

    /// All (strict) descendants of `id` with the given tag, in pre-order
    /// (the `descendants` DSL construct).
    ///
    /// `O(log n + k)`: a binary search over the tag's occurrence list for the
    /// pre-order interval of `id`'s subtree, returning the matching nodes as a
    /// borrowed contiguous slice.
    pub fn descendants_with_tag(&self, id: NodeId, tag: impl Into<TagId>) -> &[NodeId] {
        let tag = tag.into();
        let idx = self.index();
        let Some(occ) = idx.occurrences.get(&tag) else {
            return &[];
        };
        // Strict descendants: the interval starts one past the node itself.
        let lo = idx.pre[id.index()] + 1;
        let hi = idx.end[id.index()];
        let a = occ.pre.partition_point(|&p| p < lo);
        let b = occ.pre.partition_point(|&p| p < hi);
        &occ.nodes[a..b]
    }

    /// Depth of a node via the navigation index (root is 0).  O(1) once the index
    /// exists.
    #[inline]
    pub fn node_depth(&self, id: NodeId) -> u32 {
        self.index().depth[id.index()]
    }

    /// Number of nodes in the whole tree carrying the given tag — the length of the
    /// tag's occurrence list.  The query planner uses this as a column-cardinality
    /// estimate when ordering joins.
    pub fn tag_count(&self, tag: impl Into<TagId>) -> usize {
        let tag = tag.into();
        self.index()
            .occurrences
            .get(&tag)
            .map(|occ| occ.nodes.len())
            .unwrap_or(0)
    }

    /// Pre-order number of a node (root is 0).
    #[inline]
    pub fn preorder_number(&self, id: NodeId) -> u32 {
        self.index().pre[id.index()]
    }

    /// Exclusive end of a node's subtree in pre-order numbering: every strict
    /// descendant `d` satisfies `preorder_number(id) < preorder_number(d) <
    /// subtree_end(id)`.
    #[inline]
    pub fn subtree_end(&self, id: NodeId) -> u32 {
        self.index().end[id.index()]
    }

    /// All nodes in pre-order (root first).
    pub fn preorder(&self) -> Vec<NodeId> {
        let idx = self.index();
        let mut order = vec![NodeId::ROOT; self.len()];
        for id in self.ids() {
            order[idx.pre[id.index()] as usize] = id;
        }
        order
    }

    /// Iterator over every node id in arena order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Set of distinct tags appearing in the tree, in order of first appearance
    /// (arena order).
    pub fn tags(&self) -> Vec<TagId> {
        let mut seen = std::collections::HashSet::new();
        let mut tags = Vec::new();
        for n in &self.nodes {
            if seen.insert(n.tag) {
                tags.push(n.tag);
            }
        }
        tags
    }

    /// All leaf data values in the tree (used for constant mining in predicate
    /// universe construction, rule (4) of Figure 10).
    pub fn data_values(&self) -> Vec<&str> {
        self.ids().filter_map(|id| self.data(id)).collect()
    }

    /// Counts "elements": internal nodes plus the root.  Used to report the
    /// `#Elements` statistic of Table 1.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.child_count > 0)
            .count()
            .max(1)
    }

    /// Validates internal consistency: the root has no parent, every other node's
    /// parent precedes it, and every child count matches the parent links.
    /// Intended for tests and debugging.
    pub fn validate(&self) -> Result<()> {
        if self.nodes[0].parent().is_some() {
            return Err(HdtError::Structure("root must not have a parent".into()));
        }
        let mut counts = vec![0u32; self.len()];
        for id in self.ids().skip(1) {
            match self.parent(id) {
                Some(p) if p < id => counts[p.index()] += 1,
                _ => {
                    return Err(HdtError::Structure(format!(
                        "{id} does not follow its parent"
                    )))
                }
            }
        }
        for (id, count) in self.ids().zip(counts) {
            let counted = self.nodes[id.index()].child_count;
            if counted != count {
                return Err(HdtError::Structure(format!(
                    "{id} counts {counted} children, but {count} nodes name it their parent"
                )));
            }
        }
        Ok(())
    }

    /// Puts a new root tagged `tag` above the current root, which becomes its first
    /// child.  Every id shifts up by one, so arena order stays document order.  The
    /// HTML parser calls this when a fragment's second top-level element opens.
    pub(crate) fn wrap_root(&mut self, tag: impl Into<TagId>) -> Result<()> {
        NodeId::at(self.nodes.len())?;
        for node in &mut self.nodes {
            node.set_parent(node.parent().map_or(NodeId::ROOT, |p| NodeId(p.0 + 1)));
        }
        let mut root = Node::new(tag.into(), None, Span::NONE);
        root.child_count = 1;
        self.nodes.insert(0, root);
        self.index.take();
        Ok(())
    }
}

/// The text content of one open markup element, which Section 3 maps to a nested
/// `text` leaf.  The XML and HTML parsers create that leaf at the element's first
/// non-blank text, so it sits at that text's document position (after any child
/// elements that precede the text), and fill in its data when the element closes.
///
/// The text itself waits in one scratch `String` per parse, used as a stack: an
/// element's text starts at the scratch's length when its first non-blank text
/// arrives, and each child element closes before its parent does, copying its own
/// text into the tree and truncating the scratch back.  So an open element's text
/// is always the scratch's top segment, and every byte is pushed once and copied
/// once.
#[derive(Debug, Default)]
pub(crate) struct ElementText {
    leaf: Option<NodeId>,
    /// Where the element's text starts in the scratch.
    start: usize,
}

impl ElementText {
    /// Appends text parsed directly inside `element`.  Blank text before the first
    /// non-blank text, and that text's leading whitespace, are dropped: both
    /// formats trim them.
    pub(crate) fn push(
        &mut self,
        tree: &mut Hdt,
        scratch: &mut String,
        element: NodeId,
        text: &str,
    ) -> Result<()> {
        let text = if self.leaf.is_some() {
            text
        } else {
            text.trim_start()
        };
        if text.is_empty() {
            return Ok(());
        }
        if self.leaf.is_none() {
            self.leaf = Some(tree.push_child(element, "text", None)?);
            self.start = scratch.len();
        }
        scratch.push_str(text);
        Ok(())
    }

    /// Fills in the `text` leaf, if the element has one, when the element closes:
    /// `write` copies the gathered text, trimmed, into the tree's text buffer (HTML
    /// collapses whitespace runs on the way; XML keeps them).
    pub(crate) fn close(
        self,
        tree: &mut Hdt,
        scratch: &mut String,
        write: fn(&mut String, &str),
    ) -> Result<()> {
        let Some(leaf) = self.leaf else {
            return Ok(());
        };
        let text = scratch[self.start..].trim_end();
        tree.fill_leaf(leaf, |buf| write(buf, text))?;
        scratch.truncate(self.start);
        Ok(())
    }
}

/// Convenience builder for constructing trees in a nested, declarative style.
///
/// All four ingestion paths (XML, JSON, HTML and the synthetic generators) funnel
/// through the one arena mutator behind [`Hdt::add_child`], which interns every tag
/// through the shared global interner.
///
/// ```
/// use mitra_hdt::HdtBuilder;
/// let tree = HdtBuilder::new("root")
///     .open("Person")
///     .leaf("name", "Alice")
///     .close()
///     .build();
/// assert_eq!(tree.len(), 3);
/// ```
#[derive(Debug)]
pub struct HdtBuilder {
    tree: Hdt,
    stack: Vec<NodeId>,
}

impl HdtBuilder {
    /// Starts a new tree with the given root tag.
    pub fn new(root_tag: impl Into<TagId>) -> Self {
        let tree = Hdt::with_root(root_tag);
        HdtBuilder {
            stack: vec![tree.root()],
            tree,
        }
    }

    fn top(&self) -> NodeId {
        // `new()` seeds the stack with the root and `close()` refuses to pop it,
        // so the stack is never empty; fall back to the root id for safety.
        self.stack.last().copied().unwrap_or(NodeId::ROOT)
    }

    /// Opens a new internal node and makes it the current parent.
    pub fn open(mut self, tag: impl Into<TagId>) -> Self {
        let id = self.tree.add_child(self.top(), tag, None);
        self.stack.push(id);
        self
    }

    /// Adds a leaf node carrying data under the current parent.
    pub fn leaf(mut self, tag: impl Into<TagId>, data: impl Into<String>) -> Self {
        self.tree.add_child(self.top(), tag, Some(data.into()));
        self
    }

    /// Adds an empty (data-less) leaf under the current parent.
    pub fn empty(mut self, tag: impl Into<TagId>) -> Self {
        self.tree.add_child(self.top(), tag, None);
        self
    }

    /// Closes the current parent, returning to its parent.
    ///
    /// # Panics
    /// Panics if called more times than [`HdtBuilder::open`].
    pub fn close(mut self) -> Self {
        assert!(self.stack.len() > 1, "close() without matching open()");
        self.stack.pop();
        self
    }

    /// Finishes building and returns the tree.
    pub fn build(self) -> Hdt {
        self.tree
    }
}

/// Compile-time guarantee that a tree can be shared across pool workers: the lazy
/// index lives in a `OnceLock` and every lookup returns borrowed data, so `&Hdt` is
/// safe to hand to scoped threads without cloning.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Hdt>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern;

    fn sample() -> Hdt {
        HdtBuilder::new("root")
            .open("Person")
            .leaf("name", "Alice")
            .leaf("id", "1")
            .open("Friendship")
            .open("Friend")
            .leaf("fid", "2")
            .leaf("years", "3")
            .close()
            .close()
            .close()
            .open("Person")
            .leaf("name", "Bob")
            .leaf("id", "2")
            .close()
            .build()
    }

    #[test]
    fn builder_produces_consistent_tree() {
        let t = sample();
        t.validate().expect("tree should validate");
        assert_eq!(t.tag(t.root()), intern::intern("root"));
        assert_eq!(t.tag_name(t.root()), "root");
        assert_eq!(t.children_with_tag(t.root(), "Person").len(), 2);
    }

    #[test]
    fn pos_assignment_counts_same_tag_siblings() {
        let t = sample();
        let persons = t.children_with_tag(t.root(), "Person");
        assert_eq!(t.pos(persons[0]), 0);
        assert_eq!(t.pos(persons[1]), 1);
    }

    #[test]
    fn child_filters_both_tag_and_pos() {
        let t = sample();
        let persons = t.children_with_tag(t.root(), "Person");
        assert_eq!(t.child(t.root(), "Person", 1), Some(persons[1]));
        assert_eq!(t.child(t.root(), "Person", 5), None);
        assert_eq!(t.child(t.root(), "name", 0), None);
    }

    #[test]
    fn descendants_search_is_preorder_and_deep() {
        let t = sample();
        let names = t.descendants_with_tag(t.root(), "name");
        assert_eq!(names.len(), 2);
        assert_eq!(t.data(names[0]), Some("Alice"));
        assert_eq!(t.data(names[1]), Some("Bob"));
        let years = t.descendants_with_tag(t.root(), "years");
        assert_eq!(years.len(), 1);
    }

    /// Every strict descendant of `id`, by an explicit-stack walk in pre-order.
    fn subtree_walk(t: &Hdt, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = t.children(id).iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(t.children(n).iter().rev());
        }
        out
    }

    #[test]
    fn indexed_lookups_agree_with_naive_reference() {
        let t = sample();
        for id in t.ids() {
            for tag in t.tags() {
                let walked: Vec<NodeId> = subtree_walk(&t, id)
                    .into_iter()
                    .filter(|&d| t.tag(d) == tag)
                    .collect();
                assert_eq!(
                    t.descendants_with_tag(id, tag).to_vec(),
                    walked,
                    "descendants mismatch at {id} tag {tag}"
                );
                let scanned: Vec<NodeId> = t
                    .children(id)
                    .iter()
                    .copied()
                    .filter(|&c| t.tag(c) == tag)
                    .collect();
                assert_eq!(
                    t.children_with_tag(id, tag).to_vec(),
                    scanned,
                    "children mismatch at {id} tag {tag}"
                );
            }
        }
    }

    #[test]
    fn ensure_index_prebuilds_and_mutation_invalidates() {
        let mut t = sample();
        t.ensure_index();
        assert!(t.index.get().is_some(), "index must exist after ensure");
        assert_eq!(t.descendants_with_tag(t.root(), "Person").len(), 2);
        let root = t.root();
        t.add_child(root, "Person", None);
        assert!(t.index.get().is_none(), "mutation must clear the index");
        t.ensure_index();
        assert_eq!(t.descendants_with_tag(t.root(), "Person").len(), 3);
    }

    #[test]
    fn index_is_rebuilt_after_mutation() {
        let mut t = sample();
        // Force the index to exist, then mutate.
        assert_eq!(t.descendants_with_tag(t.root(), "Person").len(), 2);
        let root = t.root();
        t.add_child(root, "Person", None);
        assert_eq!(t.descendants_with_tag(t.root(), "Person").len(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn preorder_numbers_nest_subtrees() {
        let t = sample();
        for id in t.ids() {
            let lo = t.preorder_number(id);
            let hi = t.subtree_end(id);
            assert!(lo < hi);
            for d in subtree_walk(&t, id) {
                assert!(t.preorder_number(d) > lo && t.preorder_number(d) < hi);
            }
        }
        assert_eq!(t.preorder_number(t.root()), 0);
        assert_eq!(t.subtree_end(t.root()) as usize, t.len());
    }

    #[test]
    fn child_lookup_by_tag_and_pos() {
        let t = sample();
        let p0 = t.children_with_tag(t.root(), "Person")[0];
        let name = t.child(p0, "name", 0).unwrap();
        assert_eq!(t.data(name), Some("Alice"));
        assert!(t.child(p0, "name", 1).is_none());
    }

    #[test]
    fn depth_and_height() {
        let t = sample();
        assert_eq!(t.node_depth(t.root()), 0);
        // root -> Person -> Friendship -> Friend -> fid
        assert_eq!(t.ids().map(|id| t.node_depth(id)).max(), Some(4));
    }

    #[test]
    fn node_depth_agrees_with_parent_walk() {
        let t = sample();
        for id in t.ids() {
            let mut walked = 0;
            let mut cur = id;
            while let Some(p) = t.parent(cur) {
                walked += 1;
                cur = p;
            }
            assert_eq!(t.node_depth(id), walked, "depth mismatch at {id}");
        }
    }

    #[test]
    fn tag_count_matches_occurrences() {
        let t = sample();
        assert_eq!(t.tag_count("Person"), 2);
        assert_eq!(t.tag_count("name"), 2);
        assert_eq!(t.tag_count("years"), 1);
        assert_eq!(t.tag_count("root"), 1);
        assert_eq!(t.tag_count("absent"), 0);
    }

    #[test]
    fn data_values_and_tags() {
        let t = sample();
        let vals = t.data_values();
        assert!(vals.contains(&"Alice"));
        assert!(vals.contains(&"3"));
        let tags = t.tags();
        assert!(tags.iter().any(|t| t.as_str() == "Friendship"));
    }

    #[test]
    fn preorder_visits_every_node_once() {
        let t = sample();
        let order = t.preorder();
        assert_eq!(order.len(), t.len());
        let mut seen = order.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), t.len());
        assert_eq!(order[0], t.root());
    }

    #[test]
    fn an_out_of_range_parent_panics_before_the_arena_changes() {
        let mut t = sample();
        let before = t.clone();
        let added = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.add_child(NodeId(9999), "x", Some("data".into()))
        }));
        assert!(added.is_err());
        assert_eq!(t, before);
        assert_eq!(
            (t.nodes.len(), t.text.len()),
            (before.len(), before.text.len())
        );
        t.validate().unwrap();
    }

    #[test]
    fn leaf_detection() {
        let mut t = sample();
        let name = t
            .child(t.root(), "Person", 0)
            .and_then(|p| t.child(p, "name", 0));
        let name = name.unwrap();
        assert!(t.is_leaf(name));
        assert!(!t.is_leaf(t.root()));
        t.add_child(name, "inner", None);
        assert!(!t.is_leaf(name));
        assert_eq!(t.data(name), Some("Alice"), "a leaf keeps its data");
    }

    #[test]
    fn validate_checks_parent_order_and_child_counts() {
        let mut t = sample();
        t.nodes[1].child_count += 1;
        assert!(
            t.validate().is_err(),
            "a child count the links do not match"
        );
        let mut t = sample();
        t.nodes[2].set_parent(NodeId(5));
        assert!(t.validate().is_err(), "a parent after its child");
        let mut t = sample();
        t.nodes[0].set_parent(NodeId(1));
        assert!(t.validate().is_err(), "a root with a parent");
    }

    #[test]
    fn filled_leaves_and_clones_keep_their_data() {
        let mut t = Hdt::with_root("r");
        let root = t.root();
        let a = t.push_child(root, "a", None).unwrap();
        let b = t.push_child(root, "b", Some("bee")).unwrap();
        let empty = t.push_child(root, "e", Some("")).unwrap();
        t.fill_leaf(a, |buf| buf.push_str("ay")).unwrap();
        assert_eq!(
            [t.data(a), t.data(b), t.data(empty), t.data(root)],
            [Some("ay"), Some("bee"), Some(""), None]
        );
        let u = t.clone();
        assert_eq!(u, t);
        assert_eq!(u.data(a), Some("ay"));
        assert!(u.index.get().is_none(), "a clone starts with a cold index");
    }

    #[test]
    fn element_and_leaf_counts() {
        let t = sample();
        assert_eq!(t.ids().filter(|&id| t.is_leaf(id)).count(), 6);
        assert!(t.element_count() >= 4);
    }

    #[test]
    fn wrap_root_shifts_ids_and_keeps_document_order() {
        let mut t = sample();
        let before = t.len();
        t.wrap_root("html").unwrap();
        t.validate().unwrap();
        assert_eq!(t.len(), before + 1);
        assert_eq!(t.tag_name(t.root()), "html");
        assert_eq!(t.children(t.root()), &[NodeId(1)]);
        assert_eq!(t.tag_name(NodeId(1)), "root");
        assert_eq!(t.preorder(), t.ids().collect::<Vec<_>>());
        // Later children of the new root and of shifted nodes count their siblings.
        let root = t.root();
        let second = t.add_child(root, "root", None);
        assert_eq!(t.pos(second), 1);
        let person = t.children_with_tag(NodeId(1), "Person")[1];
        let name = t.add_child(person, "name", None);
        assert_eq!(t.pos(name), 1);
        t.validate().unwrap();
    }

    #[test]
    fn clone_and_equality_ignore_index_state() {
        let t = sample();
        let mut u = t.clone();
        assert_eq!(t, u);
        // Querying one side builds its index; equality must be unaffected.
        assert_eq!(u.descendants_with_tag(u.root(), "name").len(), 2);
        assert_eq!(t, u);
        let root = u.root();
        u.add_child(root, "Person", None);
        assert_ne!(t, u);
    }

    /// How many of `child`'s siblings before it share its tag: the `pos` that the
    /// index must derive for it.
    fn earlier_same_tag(t: &Hdt, child: NodeId) -> usize {
        let parent = t.parent(child).expect("not the root");
        let siblings = t.children(parent).iter().take_while(|&&c| c != child);
        siblings.filter(|&&c| t.tag(c) == t.tag(child)).count()
    }

    #[test]
    fn add_child_counts_siblings_under_interleaved_parents() {
        // Same-tag siblings under one parent, and under a parent that gets
        // children after a later one.
        let mut t = Hdt::with_root("root");
        let root = t.root();
        let first = t.add_child(root, "a", None);
        t.add_child(root, "a", None);
        let mut added = vec![t.add_child(root, "a", None)];
        t.add_child(root, "b", None);
        added.push(t.add_child(root, "b", None));
        added.push(t.add_child(first, "c", None));
        t.add_child(first, "c", None);
        added.push(t.add_child(root, "a", None));
        added.push(t.add_child(first, "c", None));
        let positions: Vec<usize> = added.iter().map(|&id| t.pos(id)).collect();
        assert_eq!(positions, [2, 1, 0, 3, 2]);
        for id in added {
            assert_eq!(t.pos(id), earlier_same_tag(&t, id), "{id}");
        }
        t.validate().unwrap();
    }

    #[test]
    fn add_child_counts_siblings_the_parsers_added() {
        let mut t = crate::xml::xml_to_hdt("<r><a/><b x=\"1\"/><a/>y<a/></r>").unwrap();
        let root = t.root();
        let b = t.children_with_tag(root, "b")[0];
        let added = [
            t.add_child(root, "a", None),
            t.add_child(root, "text", None),
            t.add_child(b, "x", None),
            t.add_child(root, "b", None),
        ];
        let positions: Vec<usize> = added.iter().map(|&id| t.pos(id)).collect();
        assert_eq!(positions, [3, 1, 1, 1]);
        // A fragment: the parser wrapped the first `p` under a synthetic root.
        let mut h = crate::html::html_to_hdt("<p>one</p><p>two</p><ul><li>x</ul>").unwrap();
        let root = h.root();
        let ul = h.children_with_tag(root, "ul")[0];
        added_positions_match(&mut h, &[(root, "p"), (ul, "li"), (root, "ul"), (ul, "li")]);
    }

    /// Adds `(parent, tag)` children one by one, checking each new `pos`.
    fn added_positions_match(t: &mut Hdt, children: &[(NodeId, &str)]) {
        for &(parent, tag) in children {
            let id = t.add_child(parent, tag, None);
            assert_eq!(t.pos(id), earlier_same_tag(t, id), "{tag} under {parent}");
        }
        t.validate().unwrap();
    }

    #[test]
    fn add_child_counts_siblings_after_wrap_root() {
        // Wrapping a tree built by `add_child` and one parsed from XML.
        let built = sample();
        let parsed = crate::xml::xml_to_hdt("<r><a/><a><b/></a></r>").unwrap();
        for mut t in [built, parsed] {
            let old_root = t.tag(t.root());
            t.wrap_root("html").unwrap();
            let root = t.root();
            let first = NodeId(1);
            let inner = t.children(first).last().copied().unwrap();
            let inner_tag = t.tag_name(inner);
            added_positions_match(
                &mut t,
                &[
                    (root, old_root.as_str()),
                    (first, inner_tag),
                    (root, "other"),
                    (root, old_root.as_str()),
                    (inner, "b"),
                ],
            );
        }
    }

    #[test]
    fn pos_counts_each_parents_children_by_tag() {
        // Children of an earlier parent added after a later parent's.
        let mut t = Hdt::with_root("r");
        let root = t.root();
        let a = t.add_child(root, "a", None);
        let b = t.add_child(root, "b", None);
        for (parent, tag) in [
            (b, "x"),
            (a, "x"),
            (b, "x"),
            (root, "a"),
            (a, "y"),
            (a, "x"),
        ] {
            t.add_child(parent, tag, None);
        }
        t.validate().unwrap();
        for id in t.ids().skip(1) {
            assert_eq!(t.pos(id), earlier_same_tag(&t, id), "{id}");
        }
    }

    #[test]
    fn a_pos_read_after_a_mutation_counts_the_new_sibling() {
        let mut t = sample();
        let root = t.root();
        let persons = t.children_with_tag(root, "Person").to_vec();
        assert_eq!(t.pos(persons[1]), 1);
        let third = t.add_child(root, "Person", None);
        assert_eq!(t.pos(third), 2);
        assert_eq!(t.child(root, "Person", 2), Some(third));
        let name = t.add_child(persons[1], "name", None);
        assert_eq!(t.pos(name), 1);
        assert_eq!(t.pos(persons[1]), 1, "earlier siblings keep their pos");
    }
}
