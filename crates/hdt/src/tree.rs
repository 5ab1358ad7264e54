//! The hierarchical data tree (HDT) arena.
//!
//! [`Hdt`] owns all nodes of one document in a flat vector and exposes the traversal
//! primitives that the DSL semantics (Figure 7) need: children lookup by tag, children
//! lookup by tag *and* position, descendant search by tag, and parent lookup.
//!
//! Tags are interned [`TagId`]s (see [`crate::intern`]), so every lookup compares and
//! hashes `u32`s.  On top of the arena the tree maintains a lazily built
//! `TreeIndex`:
//!
//! * a **pre-order numbering** — `preorder(n)` and an exclusive `subtree_end(n)` — so
//!   that "is `d` a descendant of `n`" becomes an interval test;
//! * a **per-tag occurrence list** sorted by pre-order number, making
//!   [`Hdt::descendants_with_tag`] a binary-search range scan (`O(log n + k)`) that
//!   returns a contiguous slice, instead of a full subtree walk;
//! * a **children-grouped-by-tag map**, making [`Hdt::children_with_tag`] a single
//!   hash lookup returning a slice.
//!
//! The index is built on first query and invalidated by mutation (`add_child*`), so
//! construction stays cheap and read-heavy workloads (synthesis, evaluation) pay the
//! build cost exactly once per tree.

use crate::error::{HdtError, Result};
use crate::intern::TagId;
use crate::node::{Node, NodeId};
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
    /// Children of a node holding a given tag, in document order.
    children_by_tag: HashMap<(NodeId, TagId), Vec<NodeId>>,
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
        let n = tree.nodes.len();
        let mut pre = vec![0u32; n];
        let mut end = vec![0u32; n];
        let mut depth = vec![0u32; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);

        // Iterative pre-order numbering with explicit enter/exit frames so arbitrarily
        // deep documents cannot overflow the call stack.
        enum Frame {
            Enter(NodeId),
            Exit(NodeId),
        }
        let mut counter = 0u32;
        let mut stack = vec![Frame::Enter(tree.root())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(id) => {
                    pre[id.index()] = counter;
                    counter += 1;
                    order.push(id);
                    stack.push(Frame::Exit(id));
                    for c in tree.node(id).children.iter().rev() {
                        depth[c.index()] = depth[id.index()] + 1;
                        stack.push(Frame::Enter(*c));
                    }
                }
                Frame::Exit(id) => end[id.index()] = counter,
            }
        }

        // Occurrence lists: pushing in pre-order keeps each tag's vectors sorted.
        let mut occurrences: HashMap<TagId, TagOccurrences> = HashMap::new();
        for id in &order {
            let node = tree.node(*id);
            let occ = occurrences.entry(node.tag).or_default();
            occ.pre.push(pre[id.index()]);
            occ.nodes.push(*id);
        }

        // Children grouped by tag, preserving document order within each group.
        let mut children_by_tag: HashMap<(NodeId, TagId), Vec<NodeId>> = HashMap::new();
        for id in tree.ids() {
            for c in &tree.node(id).children {
                children_by_tag
                    .entry((id, tree.node(*c).tag))
                    .or_default()
                    .push(*c);
            }
        }

        TreeIndex {
            pre,
            end,
            depth,
            occurrences,
            children_by_tag,
        }
    }
}

/// A hierarchical data tree: a rooted, ordered tree of `(tag, pos, data)` nodes.
///
/// Nodes are stored in an arena; [`NodeId`]s index into it.  The root always has id 0.
#[derive(Debug)]
pub struct Hdt {
    nodes: Vec<Node>,
    /// Number of children with a given tag already inserted under a parent; makes
    /// automatic `pos` assignment in [`Hdt::add_child`] O(1) instead of a scan over
    /// the parent's children (quadratic ingestion for wide nodes).
    child_tag_counts: HashMap<(NodeId, TagId), usize>,
    /// Lazily built navigation index; cleared by every mutation.
    index: OnceLock<TreeIndex>,
}

/// Cloning copies the tree structure and construction bookkeeping but *not* the
/// derived index: a clone starts cold and rebuilds on its first indexed query.  This
/// keeps clones cheap and gives benchmarks a way to measure the index build.
impl Clone for Hdt {
    fn clone(&self) -> Self {
        Hdt {
            nodes: self.nodes.clone(),
            child_tag_counts: self.child_tag_counts.clone(),
            index: OnceLock::new(),
        }
    }
}

/// Equality considers only the tree structure; the derived index and construction
/// bookkeeping are ignored (they are functions of the nodes).
impl PartialEq for Hdt {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

impl Eq for Hdt {}

impl Hdt {
    /// Creates a tree consisting only of a root node with the given tag.
    pub fn with_root(tag: impl Into<TagId>) -> Self {
        Hdt {
            nodes: vec![Node::new(tag, 0, None)],
            child_tag_counts: HashMap::new(),
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

    /// Immutable access to a node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this tree.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Checked access to a node.
    pub fn try_node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.index()).ok_or_else(|| {
            HdtError::InvalidNode(format!("{id} out of range ({} nodes)", self.len()))
        })
    }

    /// Interned tag of a node.
    #[inline]
    pub fn tag(&self, id: NodeId) -> TagId {
        self.node(id).tag
    }

    /// Tag of a node, resolved to its name (string boundary only — rendering,
    /// diagnostics, SQL/codegen emission).
    #[inline]
    pub fn tag_name(&self, id: NodeId) -> &'static str {
        self.node(id).tag.as_str()
    }

    /// Position of a node among same-tag siblings.
    #[inline]
    pub fn pos(&self, id: NodeId) -> usize {
        self.node(id).pos
    }

    /// Data stored at a node (only leaves carry data).
    #[inline]
    pub fn data(&self, id: NodeId) -> Option<&str> {
        self.node(id).data.as_deref()
    }

    /// True if the node has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.node(id).children.is_empty()
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// Children of a node in document order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.node(id).children
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

    /// Adds a child node under `parent`.  The `pos` field is computed automatically as
    /// the number of existing children of `parent` with the same tag (O(1) via the
    /// per-parent tag counts).
    pub fn add_child(
        &mut self,
        parent: NodeId,
        tag: impl Into<TagId>,
        data: Option<String>,
    ) -> NodeId {
        let tag = tag.into();
        let pos = self
            .child_tag_counts
            .get(&(parent, tag))
            .copied()
            .unwrap_or(0);
        self.add_child_with_pos(parent, tag, pos, data)
    }

    /// Adds a child node under `parent` with an explicit `pos` value.
    pub fn add_child_with_pos(
        &mut self,
        parent: NodeId,
        tag: impl Into<TagId>,
        pos: usize,
        data: Option<String>,
    ) -> NodeId {
        let tag = tag.into();
        let id = NodeId(self.nodes.len() as u32);
        let mut node = Node::new(tag, pos, data);
        node.parent = Some(parent);
        self.nodes.push(node);
        self.nodes[parent.index()].children.push(id);
        *self.child_tag_counts.entry((parent, tag)).or_insert(0) += 1;
        // Any previously built index is stale now.
        self.index.take();
        id
    }

    /// Children of `id` whose tag equals `tag` (the `children` DSL construct).
    /// A single hash lookup into the children-by-tag index.
    pub fn children_with_tag(&self, id: NodeId, tag: impl Into<TagId>) -> &[NodeId] {
        let tag = tag.into();
        self.index()
            .children_by_tag
            .get(&(id, tag))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Children of `id` whose tag equals `tag`, computed by scanning the child list.
    /// Reference implementation used by property tests and benchmarks to validate the
    /// indexed [`Hdt::children_with_tag`].
    pub fn children_with_tag_naive(&self, id: NodeId, tag: impl Into<TagId>) -> Vec<NodeId> {
        let tag = tag.into();
        self.children(id)
            .iter()
            .copied()
            .filter(|c| self.node(*c).tag == tag)
            .collect()
    }

    /// Children of `id` whose tag equals `tag` and whose pos equals `pos`
    /// (the `pchildren` DSL construct).
    pub fn children_with_tag_pos(
        &self,
        id: NodeId,
        tag: impl Into<TagId>,
        pos: usize,
    ) -> Vec<NodeId> {
        self.children_with_tag(id, tag)
            .iter()
            .copied()
            .filter(|c| self.node(*c).pos == pos)
            .collect()
    }

    /// A single child of `id` with the given tag and pos (the `child` node-extractor
    /// construct of the predicate language).  Returns `None` if no such child exists.
    pub fn child(&self, id: NodeId, tag: impl Into<TagId>, pos: usize) -> Option<NodeId> {
        self.children_with_tag(id, tag)
            .iter()
            .copied()
            .find(|c| self.node(*c).pos == pos)
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
    /// exists; [`Hdt::depth`] is the index-free O(depth) parent walk.
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

    /// All (strict) descendants of `id` with the given tag, found by walking the
    /// subtree.  Reference implementation used by property tests and benchmarks to
    /// validate the indexed [`Hdt::descendants_with_tag`].
    pub fn descendants_with_tag_naive(&self, id: NodeId, tag: impl Into<TagId>) -> Vec<NodeId> {
        let tag = tag.into();
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.children(id).iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            if self.node(n).tag == tag {
                out.push(n);
            }
            for c in self.children(n).iter().rev() {
                stack.push(*c);
            }
        }
        out
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

    /// Set of distinct `pos` values appearing in the tree.
    pub fn positions(&self) -> Vec<usize> {
        let mut ps: Vec<usize> = Vec::new();
        for n in &self.nodes {
            if !ps.contains(&n.pos) {
                ps.push(n.pos);
            }
        }
        ps.sort_unstable();
        ps
    }

    /// All leaf data values in the tree (used for constant mining in predicate
    /// universe construction, rule (4) of Figure 10).
    pub fn data_values(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| n.data.as_deref())
            .collect()
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the whole tree (max depth over all nodes).
    pub fn height(&self) -> usize {
        self.ids().map(|id| self.depth(id)).max().unwrap_or(0)
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_empty()).count()
    }

    /// Counts "elements": internal nodes plus the root.  Used to report the
    /// `#Elements` statistic of Table 1.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.children.is_empty())
            .count()
            .max(1)
    }

    /// Validates internal consistency (parent/child symmetry and pos correctness).
    /// Intended for tests and debugging.
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(HdtError::Structure("tree has no nodes".into()));
        }
        if self.nodes[0].parent.is_some() {
            return Err(HdtError::Structure("root must not have a parent".into()));
        }
        for id in self.ids() {
            let n = self.node(id);
            // pos must equal the index among same-tag siblings; counting with a
            // per-tag map keeps validation linear in the child count.
            let mut tag_counts: HashMap<TagId, usize> = HashMap::new();
            for c in &n.children {
                let child = self.try_node(*c)?;
                if child.parent != Some(id) {
                    return Err(HdtError::Structure(format!(
                        "child {c} of {id} has wrong parent link"
                    )));
                }
                let expected = tag_counts.entry(child.tag).or_insert(0);
                if child.pos != *expected {
                    return Err(HdtError::Structure(format!(
                        "{c} has pos {} but is the {}'th `{}` child of {id}",
                        child.pos,
                        expected,
                        child.tag.as_str()
                    )));
                }
                *expected += 1;
            }
            if let Some(p) = n.parent {
                if !self.node(p).children.contains(&id) {
                    return Err(HdtError::Structure(format!(
                        "{id} not listed among children of its parent {p}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Test-only access to the raw node storage (used to corrupt trees on purpose).
    #[cfg(test)]
    pub(crate) fn nodes_mut(&mut self) -> &mut Vec<Node> {
        self.index.take();
        &mut self.nodes
    }
}

/// Convenience builder for constructing trees in a nested, declarative style.
///
/// All four ingestion paths (XML, JSON, HTML and the synthetic generators) funnel
/// through the same arena mutators ([`Hdt::add_child`]/[`Hdt::add_child_with_pos`]),
/// which intern every tag through the shared global interner.
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
    fn children_with_tag_pos_filters_both() {
        let t = sample();
        assert_eq!(t.children_with_tag_pos(t.root(), "Person", 1).len(), 1);
        assert_eq!(t.children_with_tag_pos(t.root(), "Person", 5).len(), 0);
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

    #[test]
    fn indexed_lookups_agree_with_naive_reference() {
        let t = sample();
        for id in t.ids() {
            for tag in t.tags() {
                assert_eq!(
                    t.descendants_with_tag(id, tag).to_vec(),
                    t.descendants_with_tag_naive(id, tag),
                    "descendants mismatch at {id} tag {tag}"
                );
                assert_eq!(
                    t.children_with_tag(id, tag).to_vec(),
                    t.children_with_tag_naive(id, tag),
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
            for d in t.descendants_with_tag_naive(id, "fid") {
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
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.height(), 4); // root -> Person -> Friendship -> Friend -> fid
    }

    #[test]
    fn node_depth_agrees_with_parent_walk() {
        let t = sample();
        for id in t.ids() {
            assert_eq!(
                t.node_depth(id) as usize,
                t.depth(id),
                "depth mismatch at {id}"
            );
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
    fn validate_detects_bad_pos() {
        let mut t = sample();
        // Corrupt a pos on purpose.
        let persons = t.children_with_tag(t.root(), "Person").to_vec();
        t.nodes_mut()[persons[1].index()].pos = 7;
        assert!(t.validate().is_err());
    }

    #[test]
    fn try_node_out_of_range_errors() {
        let t = sample();
        assert!(t.try_node(NodeId(9999)).is_err());
    }

    #[test]
    fn element_and_leaf_counts() {
        let t = sample();
        assert_eq!(t.leaf_count(), 6);
        assert!(t.element_count() >= 4);
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
}
