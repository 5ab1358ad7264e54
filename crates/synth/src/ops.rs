//! Physical operators backing the query planner (`plan.rs`) and the executor
//! (`exec.rs`).
//!
//! The operator inventory is deliberately small — scan, hash join, structural
//! interval join and cross product — and every operator works over [`Tuples`], a
//! struct-of-arrays tuple store that tracks, for each tuple and column, the
//! *position* of the chosen node inside its filtered column.  Those positions are
//! what lets the executor emit rows in [`crate::plan::emission_order`] no matter
//! which join order the planner chose.
//!
//! Join keys mirror the comparison semantics of Figure 7: internal nodes join by
//! identity, leaves by the *rendered* typed value of their data (so `"1"` and
//! `"1.0"` collide).  [`KeyInterner`] turns both into dense `u32` ids, derived once
//! per node, so [`hash_join`] indexes a column with two flat arrays.  Every other
//! atom — pushed-down filters, residual clauses, join constraints no step used —
//! the executor checks with `mitra_dsl::eval::eval_predicate` itself.

use mitra_dsl::ast::NodeExtractor;
use mitra_dsl::eval::eval_node_extractor;
use mitra_dsl::Value;
use mitra_hdt::{Hdt, NodeId};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The end of a hash-join chain.
const NONE: u32 = u32::MAX;

/// Dense hash-join keys from one id space: an internal node gets a fresh id, so
/// it joins by identity; a leaf gets the id of its rendered data, so two leaves
/// share an id exactly when `Value::from_data(data).render()` agrees.  Each
/// node's id is cached by arena position, so a leaf's text is hashed at most
/// once per execution, and only scalar data allocates its rendering.
pub struct KeyInterner<'t> {
    tree: &'t Hdt,
    /// Each node's id plus one by arena position (0 until derived), sized at
    /// the first lookup; a zeroed allocation, which the allocator can serve
    /// from pages no one has touched.
    by_node: Vec<u32>,
    by_raw: HashMap<&'t str, u32>,
    by_rendered: HashMap<Cow<'t, str>, u32>,
    next: u32,
}

impl<'t> KeyInterner<'t> {
    /// Creates an empty interner over one tree.
    pub fn new(tree: &'t Hdt) -> Self {
        KeyInterner {
            tree,
            by_node: Vec::new(),
            by_raw: HashMap::new(),
            by_rendered: HashMap::new(),
            next: 0,
        }
    }

    /// The join key of a node.
    pub fn key(&mut self, node: NodeId) -> u32 {
        if self.by_node.is_empty() {
            self.by_node = vec![0; self.tree.len()];
        }
        if let Some(id) = self.by_node[node.index()].checked_sub(1) {
            return id;
        }
        let fresh = self.next;
        let id = if self.tree.is_leaf(node) {
            let raw = self.tree.data(node).unwrap_or("");
            match self.by_raw.entry(raw) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let rendered = self.by_rendered.entry(Value::rendered_data(raw));
                    *e.insert(*rendered.or_insert(fresh))
                }
            }
        } else {
            fresh
        };
        if id == fresh {
            self.next += 1;
        }
        self.by_node[node.index()] = id + 1;
        id
    }
}

/// A struct-of-arrays tuple store: `arity`-strided rows of node ids plus, in
/// lockstep, the position of each node inside its filtered column.  Cells of
/// not-yet-joined columns hold `NodeId(u32::MAX)` / `u32::MAX` placeholders.
#[derive(Debug, Clone)]
pub struct Tuples {
    arity: usize,
    nodes: Vec<NodeId>,
    pos: Vec<u32>,
}

impl Tuples {
    /// An empty store of the given arity.
    pub fn new(arity: usize) -> Self {
        Tuples {
            arity,
            nodes: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.nodes.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node ids of tuple `i`, indexed by column.
    pub fn row(&self, i: usize) -> &[NodeId] {
        &self.nodes[i * self.arity..(i + 1) * self.arity]
    }

    /// The column positions of tuple `i`, indexed by column.
    pub fn row_pos(&self, i: usize) -> &[u32] {
        &self.pos[i * self.arity..(i + 1) * self.arity]
    }

    /// Appends a copy of `src`'s tuple `i` extended with `node` (at position
    /// `position` of its column) in column `col`.
    fn push_extended(&mut self, src: &Tuples, i: usize, col: usize, node: NodeId, position: u32) {
        self.nodes.extend_from_slice(src.row(i));
        self.pos.extend_from_slice(src.row_pos(i));
        let base = self.nodes.len() - self.arity;
        self.nodes[base + col] = node;
        self.pos[base + col] = position;
    }
}

/// Materializes a filtered column as the initial tuple set (one tuple per node,
/// position = index in the column).
pub fn scan(arity: usize, col: usize, nodes: &[NodeId]) -> Tuples {
    let mut out = Tuples {
        arity,
        nodes: Vec::with_capacity(nodes.len() * arity),
        pos: Vec::with_capacity(nodes.len() * arity),
    };
    for (p, &n) in nodes.iter().enumerate() {
        out.nodes.resize(out.nodes.len() + arity, NodeId(u32::MAX));
        out.pos.resize(out.pos.len() + arity, u32::MAX);
        let base = out.nodes.len() - arity;
        out.nodes[base + col] = n;
        out.pos[base + col] = p as u32;
    }
    out
}

/// Hash join: extends each input tuple with the nodes of `col` whose derived join
/// key matches the key derived from the tuple's `old_col` node.  The column is
/// indexed as chains: `head[key]` is the first position with that key and
/// `next[position]` the one after it, threaded back to front so every chain
/// lists its positions in ascending order.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    tree: &Hdt,
    interner: &mut KeyInterner<'_>,
    input: &Tuples,
    col: usize,
    col_nodes: &[NodeId],
    new_extractor: &NodeExtractor,
    old_col: usize,
    old_extractor: &NodeExtractor,
) -> Tuples {
    let mut head: Vec<u32> = Vec::new();
    let mut next = vec![NONE; col_nodes.len()];
    for (p, &n) in col_nodes.iter().enumerate().rev() {
        if let Some(target) = eval_node_extractor(tree, n, new_extractor) {
            let key = interner.key(target) as usize;
            if key >= head.len() {
                head.resize(key + 1, NONE);
            }
            next[p] = head[key];
            head[key] = p as u32;
        }
    }
    let mut out = Tuples::new(input.arity);
    for i in 0..input.len() {
        let old_node = input.row(i)[old_col];
        let Some(target) = eval_node_extractor(tree, old_node, old_extractor) else {
            continue;
        };
        // A key first derived after the build has no chain.
        let mut p = head
            .get(interner.key(target) as usize)
            .copied()
            .unwrap_or(NONE);
        while p != NONE {
            out.push_extended(input, i, col, col_nodes[p as usize], p);
            p = next[p as usize];
        }
    }
    out
}

/// Structural interval join for constraints whose new-column extractor is a pure
/// parent chain `parent^q(n)`: a match means the tuple's anchor node (derived via
/// the old column's extractor) is the unique `q`-th ancestor of the new node, i.e.
/// the new node lies strictly inside the anchor's pre-order interval at depth
/// `depth(anchor) + q`.  Leaf anchors have an empty strict interval, matching the
/// hash-join semantics where a `Data` key never equals a `Node` key.
pub fn interval_join(
    tree: &Hdt,
    input: &Tuples,
    col: usize,
    col_nodes: &[NodeId],
    chain_len: usize,
    old_col: usize,
    old_extractor: &NodeExtractor,
) -> Tuples {
    // Sort the new column once by pre-order number (duplicated nodes stay adjacent
    // in position order); every probe is then a binary-searched range scan.
    let mut sorted: Vec<(u32, u32, NodeId)> = col_nodes
        .iter()
        .enumerate()
        .map(|(p, &n)| (tree.preorder_number(n), p as u32, n))
        .collect();
    sorted.sort_unstable();
    let pres: Vec<u32> = sorted.iter().map(|e| e.0).collect();
    let mut out = Tuples::new(input.arity);
    for i in 0..input.len() {
        let old_node = input.row(i)[old_col];
        let Some(anchor) = eval_node_extractor(tree, old_node, old_extractor) else {
            continue;
        };
        let lo = tree.preorder_number(anchor) + 1;
        let hi = tree.subtree_end(anchor);
        if lo >= hi {
            continue;
        }
        let want_depth = tree.node_depth(anchor) + chain_len as u32;
        let a = pres.partition_point(|&p| p < lo);
        let b = pres.partition_point(|&p| p < hi);
        for &(_, p, n) in &sorted[a..b] {
            if tree.node_depth(n) == want_depth {
                out.push_extended(input, i, col, n, p);
            }
        }
    }
    out
}

/// Cross product: extends each input tuple with every node of `col`.
pub fn cross_join(input: &Tuples, col: usize, col_nodes: &[NodeId]) -> Tuples {
    let mut out = Tuples::new(input.arity);
    for i in 0..input.len() {
        for (p, &n) in col_nodes.iter().enumerate() {
            out.push_extended(input, i, col, n, p as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_hdt::HdtBuilder;

    fn two_person_tree() -> Hdt {
        HdtBuilder::new("root")
            .open("Person")
            .leaf("id", "1")
            .leaf("score", "1.0")
            .close()
            .open("Person")
            .leaf("id", "01")
            .leaf("score", "2")
            .close()
            .build()
    }

    #[test]
    fn interned_keys_match_rendered_value_semantics() {
        let tree = two_person_tree();
        let mut interner = KeyInterner::new(&tree);
        let ids = tree.descendants_with_tag(tree.root(), "id").to_vec();
        // "1" and "01" both render to "1": identical keys.
        assert_eq!(interner.key(ids[0]), interner.key(ids[1]));
        let scores = tree.descendants_with_tag(tree.root(), "score").to_vec();
        // "1.0" renders to "1" as well — the rendered-value collision must be preserved.
        assert_eq!(interner.key(ids[0]), interner.key(scores[0]));
        assert_ne!(interner.key(scores[0]), interner.key(scores[1]));
        // Internal nodes key by identity, never equal to a leaf key.
        let persons = tree.children_with_tag(tree.root(), "Person").to_vec();
        assert_eq!(interner.key(persons[0]), interner.key(persons[0]));
        assert_ne!(interner.key(persons[0]), interner.key(persons[1]));
        assert_ne!(interner.key(persons[0]), interner.key(ids[0]));
    }

    /// The join-key rule the interner must reproduce: internal nodes by
    /// identity, leaves by the rendering of their parsed data.
    fn same_join_key(tree: &Hdt, a: NodeId, b: NodeId) -> bool {
        match (tree.is_leaf(a), tree.is_leaf(b)) {
            (false, false) => a == b,
            (true, true) => {
                let render = |n| Value::from_data(tree.data(n).unwrap_or("")).render();
                render(a) == render(b)
            }
            _ => false,
        }
    }

    #[test]
    fn join_keys_agree_with_rendered_value_equality_in_any_lookup_order() {
        const POOL: [&str; 20] = [
            "9007199254740992",
            "9007199254740993",
            "9007199254740994",
            "9007199254740992.0",
            "1",
            "01",
            "1.0",
            "1e0",
            "true",
            "false",
            "0",
            "",
            "null",
            "NaN",
            "1e400",
            "abc",
            "1a",
            " x ",
            "-0.0",
            "2.5",
        ];
        let mut builder = HdtBuilder::new("root");
        for (i, raw) in POOL.iter().enumerate() {
            builder = builder.open("rec").leaf("v", *raw);
            if i % 3 == 0 {
                builder = builder.empty("nothing");
            }
            builder = builder.close();
        }
        let tree = builder.build();
        let all: Vec<NodeId> = tree.ids().collect();
        let mut orders = vec![all.clone(), all.iter().rev().copied().collect()];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..8 {
            let mut order = all.clone();
            for i in (1..order.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            orders.push(order);
        }
        for order in orders {
            let mut interner = KeyInterner::new(&tree);
            let mut keys = vec![NONE; tree.len()];
            for &n in &order {
                keys[n.index()] = interner.key(n);
            }
            for &a in &all {
                for &b in &all {
                    assert_eq!(
                        keys[a.index()] == keys[b.index()],
                        same_join_key(&tree, a, b),
                        "{:?} vs {:?}",
                        tree.data(a),
                        tree.data(b)
                    );
                }
            }
        }
    }

    #[test]
    fn hash_join_chains_yield_matches_in_column_position_order() {
        let tree = HdtBuilder::new("root")
            .leaf("probe", "a")
            .leaf("probe", "1")
            .leaf("probe", "c")
            .leaf("probe", "a")
            .leaf("v", "a")
            .leaf("v", "b")
            .leaf("v", "a")
            .leaf("v", "1")
            .leaf("v", "01")
            .leaf("v", "a")
            .build();
        let probes = tree.children_with_tag(tree.root(), "probe").to_vec();
        let column = tree.children_with_tag(tree.root(), "v").to_vec();
        let input = scan(2, 0, &probes);
        let mut interner = KeyInterner::new(&tree);
        let out = hash_join(
            &tree,
            &mut interner,
            &input,
            1,
            &column,
            &NodeExtractor::Id,
            0,
            &NodeExtractor::Id,
        );
        let positions: Vec<(u32, u32)> = (0..out.len())
            .map(|i| (out.row_pos(i)[0], out.row_pos(i)[1]))
            .collect();
        // Probes 0 and 3 ("a") match "a" at 0, 2 and 5; probe 1 ("1") matches
        // "1" and "01" at 3 and 4; probe 2 ("c") matches nothing.
        let expected = [
            (0, 0),
            (0, 2),
            (0, 5),
            (1, 3),
            (1, 4),
            (3, 0),
            (3, 2),
            (3, 5),
        ];
        assert_eq!(positions, expected);
        for (i, &(p, q)) in positions.iter().enumerate() {
            assert_eq!(out.row(i), [probes[p as usize], column[q as usize]]);
        }
    }

    #[test]
    fn scan_records_positions() {
        let tree = two_person_tree();
        let persons = tree.children_with_tag(tree.root(), "Person").to_vec();
        let t = scan(2, 1, &persons);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0)[1], persons[0]);
        assert_eq!(t.row_pos(0), &[u32::MAX, 0]);
        assert_eq!(t.row_pos(1), &[u32::MAX, 1]);
    }

    #[test]
    fn interval_join_matches_parent_chain_hash_join() {
        let tree = two_person_tree();
        let persons = tree.children_with_tag(tree.root(), "Person").to_vec();
        let ids = tree.descendants_with_tag(tree.root(), "id").to_vec();
        let input = scan(2, 0, &persons);
        // Constraint: parent(t[1]) = t[0], i.e. the id leaf's parent is the person.
        let chain = NodeExtractor::parent(NodeExtractor::Id);
        let mut interner = KeyInterner::new(&tree);
        let via_hash = hash_join(
            &tree,
            &mut interner,
            &input,
            1,
            &ids,
            &chain,
            0,
            &NodeExtractor::Id,
        );
        let via_interval = interval_join(&tree, &input, 1, &ids, 1, 0, &NodeExtractor::Id);
        assert_eq!(via_hash.len(), 2);
        assert_eq!(via_interval.len(), via_hash.len());
        for i in 0..via_hash.len() {
            assert_eq!(via_interval.row(i), via_hash.row(i));
            assert_eq!(via_interval.row_pos(i), via_hash.row_pos(i));
        }
    }
}
