//! Shared column-evaluation cache for candidate enumeration.
//!
//! The top-level synthesis loop tries up to `max_table_candidates` table extractors,
//! but they are combinations of the columns' streamed words, so column extractors
//! recur across combos: the cheap combos the search pops pair a few short words of
//! each column in many ways.  Evaluating `[[π]]T` once per distinct extractor per
//! example — instead of once per combo — removes the redundant tree walks, and
//! sharing the cache across pool workers means concurrent candidates never repeat
//! each other's work either.
//!
//! Keys are [`ColumnExtractor`]s, which hash as their interned `TagId` step paths
//! (`u32` handles, no strings).  Values are `Arc`'d so workers borrow a cached
//! evaluation without cloning it.  Every entry lives in an insert-only `Memo`
//! (`crate::memo`) for the length of one synthesis call.
//!
//! Per (example, π) it also keeps the output rows each node of `[[π]]T` matches
//! (`ColumnEvalCache::row_coverage`): predicate learning labels every tuple of
//! the intermediate table from them, without materializing a tuple or a value.
//!
//! The cache also memoizes predicate learning's set covers (`ColumnEvalCache::cover`).
//! Candidates with different extensions, which the search's outcome memo keeps
//! apart, often build byte-equal cover instances: of the 233 instances a `table2`
//! benchmark pass builds, 97 repeat one of the same synthesis call.

use crate::bits;
use crate::cover::{solve_exact, Cover, CoverInstance, MAX_COVER_NODES};
use crate::memo::{memo_counters, Memo};
use crate::synthesize::Example;
use crate::universe::{mine_constants, valid_node_extractors_with_nodes, UniverseConfig};
use mitra_dsl::ast::{ColumnExtractor, NodeExtractor};
use mitra_dsl::eval::{eval_column, node_value};
use mitra_dsl::{Table, Value};
use mitra_hdt::{Hdt, NodeId};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

/// A node with its comparison data for the pairwise predicate rule (rule 5):
/// leafness, the interned value id, and whether the value is NULL.  Ids are
/// assigned through [`Value`]'s `Eq`/`Hash` (which are defined as
/// `compare() == Some(Equal)`), so id equality *is* value equality under the
/// DSL's comparison.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeInfo {
    /// The node; internal nodes compare by identity.
    pub(crate) node: NodeId,
    /// Whether the node is a leaf (only leaf pairs compare by value).
    pub(crate) leaf: bool,
    /// Interned value id: equal ids ⟺ `Value::compare` yields `Some(Equal)`.
    pub(crate) value: u32,
    /// Whether the value is SQL NULL.  This alone decides when
    /// [`Value::compare`] returns `None` for two data values: a NULL compares
    /// only to NULL, and [`Value::from_data`] makes numbers of finite parses only,
    /// so no data value is NaN.
    pub(crate) null: bool,
}

/// One behaviour class of the valid node extractors of a column extractor π,
/// with everything the fast predicate-learning path needs to build truth vectors
/// without re-walking the trees per tuple.
///
/// Two extractors are *behaviourally equivalent* when they map every column node of
/// every example to the same node; equivalent extractors produce identical truth
/// vectors in every predicate context, so predicate learning only evaluates one
/// representative per class (~an order of magnitude fewer on the benchmark
/// datasets).
#[derive(Debug)]
pub(crate) struct PhiClass {
    /// The representative: the class's first member in the canonical enumeration
    /// order of [`crate::universe::valid_node_extractors`].  The enumeration is
    /// size-nondecreasing per BFS level, so it is also a minimum-size member.
    pub(crate) phi: NodeExtractor,
    /// `nodes[e][k]`: `phi` applied to the `k`-th node of `[[π]]T_e`, with its
    /// comparison data.  Never ⊥ — validity is exactly the never-⊥ judgement.
    pub(crate) nodes: Vec<Vec<NodeInfo>>,
    /// `orderings[e][c * len + k]`, with `len = nodes[e].len()`: how the value of
    /// `nodes[e][k]` compares against constant `c` of
    /// [`ColumnEvalCache::constants`] ([`Value::compare`]); rule 4 reads all six
    /// operators from one ordering.
    pub(crate) orderings: Vec<Vec<Option<Ordering>>>,
}

/// The output rows each node of `[[π]]T_e` matches, per output column: node `k`'s
/// column-`c` mask holds the rows whose column-`c` cell equals the node's value
/// under `Value`'s `==`, which is [`Value::compare`]'s `Equal`.  A tuple of
/// the intermediate table is a row of the output exactly when the AND of its
/// nodes' masks (node `i`'s in column `i`) is not empty.
///
/// Each column keeps one mask per distinct cell value, and a node holds the index
/// of its value's mask in each column, so the memo grows with nodes × columns
/// plus the output's size, not with nodes × rows.
#[derive(Debug)]
pub(crate) struct RowCoverage {
    /// Output columns.
    arity: usize,
    /// Words per mask: ⌈output rows / 64⌉.
    words: usize,
    /// Node `k`'s column-`c` mask index, at `k * arity + c`; mask 0 is empty, for
    /// a value no cell of the column holds.
    groups: Vec<u32>,
    /// The masks, `words` each.
    masks: Vec<u64>,
}

impl RowCoverage {
    /// The rows whose column-`c` cell equals node `k`'s value.
    pub(crate) fn mask(&self, k: usize, c: usize) -> &[u64] {
        let at = self.groups[k * self.arity + c] as usize * self.words;
        &self.masks[at..at + self.words]
    }
}

/// Concurrent per-example memo tables for `[[π]]T` evaluations, plus the derived
/// per-extractor artifacts the best-first search reuses across candidate combos:
/// row coverage (tuple labels), behaviour classes of the valid node extractors
/// (fast predicate learning), the mined constants and the set covers.  One cache
/// lives for the duration of one synthesis call; the examples it serves are fixed,
/// so every entry is insert-only.
#[derive(Debug)]
pub struct ColumnEvalCache {
    /// Per example: `π → [[π]]T_e`.
    nodes: Vec<Memo<ColumnExtractor, Arc<Vec<NodeId>>>>,
    /// Per example: `π →` its row coverage.
    coverage: Vec<Memo<ColumnExtractor, Arc<RowCoverage>>>,
    /// `π →` its behaviour classes (one memo across examples: validity spans all
    /// of them).
    phi_data: Memo<ColumnExtractor, Arc<Vec<PhiClass>>>,
    /// The constants mined from the example trees (rule 4), under the one key `()`.
    constants: Memo<(), Arc<Vec<Value>>>,
    /// Value interner backing [`NodeInfo::value`].  Ids depend on insertion order
    /// (hence on worker interleaving), but they are only ever compared for
    /// equality within one cache, so results stay deterministic.
    values: Mutex<HashMap<Value, u32>>,
    /// Predicate learning's cover instances and their exact covers.
    covers: Memo<CoverInstance, Option<Cover>>,
}

impl ColumnEvalCache {
    /// Creates a cache for a call with `num_examples` examples.
    pub fn new(num_examples: usize) -> Self {
        ColumnEvalCache {
            nodes: (0..num_examples)
                .map(|_| Memo::new(memo_counters!("cache.column_nodes")))
                .collect(),
            coverage: (0..num_examples)
                .map(|_| Memo::new(memo_counters!("cache.row_coverage")))
                .collect(),
            phi_data: Memo::new(memo_counters!("cache.phi_data")),
            constants: Memo::new(memo_counters!("cache.constants")),
            values: Mutex::default(),
            covers: Memo::new([
                "synth.cover.reused",
                "synth.cover.miss",
                "synth.cover.insert",
            ]),
        }
    }

    /// Interns a value, returning its id.  Id equality is `Value` equality
    /// (`compare() == Some(Equal)`).
    fn intern_value(&self, v: Value) -> u32 {
        let mut map = self.values.lock().unwrap_or_else(PoisonError::into_inner);
        let next = map.len() as u32;
        *map.entry(v).or_insert(next)
    }

    /// The node set `[[π]]T` for example `ex_idx`, computed on first use.
    pub(crate) fn column_nodes(
        &self,
        ex_idx: usize,
        tree: &Hdt,
        pi: &ColumnExtractor,
    ) -> Arc<Vec<NodeId>> {
        self.nodes[ex_idx].get_or_insert_with(pi, || Arc::new(eval_column(tree, pi)))
    }

    /// The row coverage of extractor `pi` on example `ex_idx` (see
    /// [`RowCoverage`]), computed on first use.
    ///
    /// The caller must pass the same `output` for a given `ex_idx` for the lifetime
    /// of the cache (one synthesis call fixes the examples), since the masks are
    /// memoized per extractor only.
    pub(crate) fn row_coverage(
        &self,
        ex_idx: usize,
        tree: &Hdt,
        pi: &ColumnExtractor,
        output: &Table,
    ) -> Arc<RowCoverage> {
        self.coverage[ex_idx].get_or_insert_with(pi, || {
            let nodes = self.column_nodes(ex_idx, tree, pi);
            let (arity, rows) = (output.arity(), output.rows.len());
            let words = rows.div_ceil(64);
            // Each column's mask index by cell value (`Value`'s hash agrees with its
            // `==`), and the masks, the empty one first.
            let mut by_value: Vec<HashMap<&Value, u32>> = vec![HashMap::new(); arity];
            let mut masks = bits::zeros(rows);
            for (r, row) in output.rows.iter().enumerate() {
                for (groups, value) in by_value.iter_mut().zip(row) {
                    let g = *groups.entry(value).or_insert_with(|| {
                        masks.extend(bits::zeros(rows));
                        (masks.len() / words - 1) as u32
                    });
                    bits::set(&mut masks[g as usize * words..], r);
                }
            }
            let mut groups = Vec::with_capacity(nodes.len() * arity);
            for &n in nodes.iter() {
                let value = node_value(tree, n);
                groups.extend(
                    by_value
                        .iter()
                        .map(|column| column.get(&value).copied().unwrap_or(0)),
                );
            }
            Arc::new(RowCoverage {
                arity,
                words,
                groups,
                masks,
            })
        })
    }

    /// The behaviour classes of the valid node extractors of `pi` (see
    /// [`PhiClass`]), in enumeration order, computed on first use.
    pub(crate) fn phi_data(
        &self,
        examples: &[Example],
        pi: &ColumnExtractor,
        config: &UniverseConfig,
    ) -> Arc<Vec<PhiClass>> {
        self.phi_data.get_or_insert_with(pi, || {
            let with_nodes = valid_node_extractors_with_nodes(examples, pi, config);
            let constants = self.constants(examples, config.max_constants);
            let mut seen: HashSet<&Vec<Vec<NodeId>>> = HashSet::new();
            let mut classes = Vec::new();
            for (phi, nodes) in &with_nodes {
                // The first extractor with a given node map represents its class.
                if !seen.insert(nodes) {
                    continue;
                }
                // Per extracted node: leafness, interned value id and null flag, so
                // rule 5 compares node pairs through integer ids instead of
                // re-deriving values per tuple, and the node's ordering against
                // every mined constant for rule 4.
                let mut class = PhiClass {
                    phi: phi.clone(),
                    nodes: Vec::with_capacity(examples.len()),
                    orderings: Vec::with_capacity(examples.len()),
                };
                for (ex, per_ex) in examples.iter().zip(nodes) {
                    let tree = &ex.tree;
                    let mut info = Vec::with_capacity(per_ex.len());
                    let mut orderings = vec![None; constants.len() * per_ex.len()];
                    for (k, &node) in per_ex.iter().enumerate() {
                        let value = node_value(tree, node);
                        for (c, constant) in constants.iter().enumerate() {
                            orderings[c * per_ex.len() + k] = value.compare(constant);
                        }
                        info.push(NodeInfo {
                            node,
                            leaf: tree.is_leaf(node),
                            null: value.is_null(),
                            value: self.intern_value(value),
                        });
                    }
                    class.nodes.push(info);
                    class.orderings.push(orderings);
                }
                classes.push(class);
            }
            Arc::new(classes)
        })
    }

    /// The constants mined from the example trees (rule 4's `c ∈ data(T)` side
    /// condition), computed on first use.  `max` must not vary across calls on one
    /// cache (one synthesis call fixes the universe configuration).
    pub(crate) fn constants(&self, examples: &[Example], max: usize) -> Arc<Vec<Value>> {
        self.constants
            .get_or_insert_with(&(), || Arc::new(mine_constants(examples, max)))
    }

    /// `solve_exact(instance, MAX_COVER_NODES)`, computed once per distinct
    /// instance.  The key is the whole instance, compared exactly, and the search
    /// is deterministic, so a reused answer is the one a new search would give;
    /// each reuse adds one to `synth.cover.reused`.
    pub(crate) fn cover(&self, instance: &CoverInstance) -> Option<Cover> {
        self.covers
            .get_or_insert_with(instance, || solve_exact(instance, MAX_COVER_NODES))
    }
}

#[cfg(test)]
impl ColumnEvalCache {
    /// Total number of cached (example, extractor) evaluations.
    pub(crate) fn len(&self) -> usize {
        self.nodes.iter().map(Memo::len).sum()
    }

    /// Number of memoized cover instances.
    pub(crate) fn covers_len(&self) -> usize {
        self.covers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_hdt::generate::social_network;

    #[test]
    fn cache_returns_same_nodes_as_direct_evaluation() {
        let tree = social_network(3, 1);
        let pi = ColumnExtractor::pchildren(
            ColumnExtractor::children(ColumnExtractor::Input, "Person"),
            "name",
            0,
        );
        let cache = ColumnEvalCache::new(1);
        assert_eq!(cache.len(), 0);
        let cached = cache.column_nodes(0, &tree, &pi);
        assert_eq!(*cached, eval_column(&tree, &pi));
        // Second lookup hits the memo (same Arc) and does not grow the cache.
        let again = cache.column_nodes(0, &tree, &pi);
        assert!(Arc::ptr_eq(&cached, &again));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn shards_are_per_example() {
        let t1 = social_network(2, 1);
        let t2 = social_network(3, 1);
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let cache = ColumnEvalCache::new(2);
        let n1 = cache.column_nodes(0, &t1, &pi);
        let n2 = cache.column_nodes(1, &t2, &pi);
        assert_eq!(n1.len(), 2);
        assert_eq!(n2.len(), 3);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let tree = social_network(4, 2);
        tree.ensure_index();
        let pi = ColumnExtractor::descendants(ColumnExtractor::Input, "name");
        let cache = ColumnEvalCache::new(1);
        let expected = eval_column(&tree, &pi);
        let lookups: Vec<usize> = (0..16).collect();
        let results = mitra_pool::parallel_map(4, &lookups, |_, _| {
            cache.column_nodes(0, &tree, &pi).to_vec()
        });
        for r in results {
            assert_eq!(r, expected);
        }
        assert_eq!(cache.len(), 1);
    }
}
