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
//! (`u32` handles, no strings).  Values are `Arc`'d node lists so workers borrow the
//! cached evaluation without cloning it.  Each example tree gets its own shard with
//! an independent lock; entries are only ever inserted, never invalidated, because
//! the trees are immutable for the duration of one synthesis call.
//!
//! Lock poisoning is recovered from (`PoisonError::into_inner`) rather than
//! propagated: the cache is insert-only and every value is a pure function of its
//! key, so a shard abandoned mid-insert by a panicking worker is at worst missing
//! an entry — surviving siblings recompute it, they never observe torn state.
//!
//! The cache also memoizes predicate learning's set covers ([`ColumnEvalCache::cover`]).
//! Candidates with different extensions, which the search's outcome memo keeps
//! apart, often build byte-equal cover instances: of the 233 instances a `table2`
//! benchmark pass builds, 97 repeat one of the same synthesis call, and of its 40
//! searches that stopped at the 200,000-node cap, 17 remain.

use crate::cover::{solve_exact, Cover, CoverInstance, MAX_COVER_NODES};
use crate::synthesize::Example;
use crate::universe::{mine_constants, valid_node_extractors_with_nodes, UniverseConfig};
use mitra_dsl::ast::{ColumnExtractor, NodeExtractor};
use mitra_dsl::eval::{eval_column, node_value};
use mitra_dsl::{Table, Value};
use mitra_hdt::{Hdt, NodeId};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

/// Per-node comparison data for the pairwise predicate rule (rule 5): leafness,
/// the interned value id, and whether the value is NULL.  Ids are assigned through
/// [`Value`]'s `Eq`/`Hash` (which are defined as `compare() == Some(Equal)`), so
/// id equality *is* value equality under the DSL's comparison.
#[derive(Debug, Clone, Copy)]
pub struct NodeInfo {
    /// Whether the node is a leaf (only leaf pairs compare by value).
    pub leaf: bool,
    /// Interned value id: equal ids ⟺ `Value::compare` yields `Some(Equal)`.
    pub value: u32,
    /// Whether the value is SQL NULL.  This alone decides when
    /// [`Value::compare`] returns `None` for two data values: a NULL compares
    /// only to NULL, and [`Value::from_data`] makes numbers of finite parses only,
    /// so no data value is NaN.
    pub null: bool,
}

/// The valid node extractors of one column extractor π, with their evaluations and
/// behavioural equivalence classes — everything the fast predicate-learning path
/// needs to build truth vectors without re-walking the trees per tuple.
///
/// Two extractors are *behaviourally equivalent* when they map every column node of
/// every example to the same node; equivalent extractors produce identical truth
/// vectors in every predicate context, so predicate learning only evaluates the
/// class representatives (~an order of magnitude fewer on the benchmark datasets).
#[derive(Debug)]
pub struct ColumnPhiData {
    /// Valid node extractors, in the canonical enumeration order of
    /// [`crate::universe::valid_node_extractors`].
    pub phis: Vec<NodeExtractor>,
    /// `nodes[p][e][k]`: extractor `phis[p]` applied to the `k`-th node of
    /// `[[π]]T_e`.  Never ⊥ — validity is exactly the never-⊥ judgement.
    pub nodes: Vec<Vec<Vec<NodeId>>>,
    /// Indices of the first member (= representative) of each distinct behaviour
    /// class, in enumeration order.
    pub reps: Vec<usize>,
    /// `info[p][e][k]`: comparison data for `nodes[p][e][k]`, populated for
    /// behaviour-class representatives only (`info[p]` is empty otherwise) — the
    /// predicate rules never touch non-representatives.
    pub info: Vec<Vec<Vec<NodeInfo>>>,
    /// `orderings[p][e][c * len + k]`, with `len = nodes[p][e].len()`: how the
    /// value of `nodes[p][e][k]` compares against constant `c` of
    /// [`ColumnEvalCache::constants`] ([`Value::compare`]).  Populated for
    /// representatives only, like `info`; rule 4 reads all six operators from
    /// one ordering.
    pub orderings: Vec<Vec<Vec<Option<Ordering>>>>,
}

/// Concurrent per-example memo table for `[[π]]T` evaluations, plus the derived
/// per-extractor artifacts the best-first search reuses across candidate combos:
/// row-coverage bitmaps (incremental combo pruning) and valid-node-extractor data
/// (fast predicate learning).  One cache lives for the duration of one synthesis
/// call; the examples it serves are fixed, so every entry is insert-only.
#[derive(Debug)]
pub struct ColumnEvalCache {
    shards: Vec<Mutex<HashMap<ColumnExtractor, Arc<Vec<NodeId>>>>>,
    /// Per-example `(π → coverage bitmap)` maps: bit `c` says whether every value
    /// of output column `c` occurs among `[[π]]T`'s node values.
    coverage: Vec<Mutex<HashMap<ColumnExtractor, Arc<Vec<bool>>>>>,
    /// `π → ColumnPhiData` (one map across examples: validity spans all of them).
    phi_data: Mutex<HashMap<ColumnExtractor, Arc<ColumnPhiData>>>,
    /// Constants mined from the example trees (rule 4), computed on first use.
    constants: Mutex<Option<Arc<Vec<Value>>>>,
    /// Value interner backing [`NodeInfo::value`].  Ids depend on insertion order
    /// (hence on worker interleaving), but they are only ever compared for
    /// equality within one cache, so results stay deterministic.
    values: Mutex<HashMap<Value, u32>>,
    /// Predicate learning's cover instances and their exact covers.
    covers: Mutex<HashMap<CoverInstance, Option<Cover>>>,
}

impl ColumnEvalCache {
    /// Creates a cache with one shard per example.
    pub fn new(num_examples: usize) -> Self {
        let mut shards = Vec::with_capacity(num_examples);
        shards.resize_with(num_examples, || Mutex::new(HashMap::new()));
        let mut coverage = Vec::with_capacity(num_examples);
        coverage.resize_with(num_examples, || Mutex::new(HashMap::new()));
        ColumnEvalCache {
            shards,
            coverage,
            phi_data: Mutex::new(HashMap::new()),
            constants: Mutex::new(None),
            values: Mutex::new(HashMap::new()),
            covers: Mutex::new(HashMap::new()),
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
    ///
    /// Two workers racing on the same key may both evaluate the extractor; the
    /// evaluation is deterministic, so whichever insertion wins stores the same
    /// value.  The lock is released during evaluation to keep the critical section
    /// to two hash operations.
    pub fn column_nodes(
        &self,
        ex_idx: usize,
        tree: &Hdt,
        pi: &ColumnExtractor,
    ) -> Arc<Vec<NodeId>> {
        if let Some(hit) = self.shards[ex_idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(pi)
        {
            mitra_trace::counter_add!("cache.column_nodes.hit", 1);
            return Arc::clone(hit);
        }
        mitra_trace::counter_add!("cache.column_nodes.miss", 1);
        let nodes = Arc::new(eval_column(tree, pi));
        let mut shard = self.shards[ex_idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match shard.entry(pi.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                mitra_trace::counter_add!("cache.column_nodes.insert", 1);
                Arc::clone(e.insert(nodes))
            }
        }
    }

    /// The row-coverage bitmap of extractor `pi` on example `ex_idx`: bit `c` is
    /// set when every value of `output` column `c` occurs among the values of
    /// `[[π]]T`'s nodes.  A combo whose column `c` extractor has bit `c` clear can
    /// never reproduce the example rows, so the search rejects it without labelling
    /// tuples or learning a predicate.
    ///
    /// The caller must pass the same `output` for a given `ex_idx` for the lifetime
    /// of the cache (one synthesis call fixes the examples), since the bitmap is
    /// memoized per extractor only.
    pub fn row_coverage(
        &self,
        ex_idx: usize,
        tree: &Hdt,
        pi: &ColumnExtractor,
        output: &Table,
    ) -> Arc<Vec<bool>> {
        if let Some(hit) = self.coverage[ex_idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(pi)
        {
            mitra_trace::counter_add!("cache.row_coverage.hit", 1);
            return Arc::clone(hit);
        }
        mitra_trace::counter_add!("cache.row_coverage.miss", 1);
        let nodes = self.column_nodes(ex_idx, tree, pi);
        let values: Vec<Value> = nodes.iter().map(|n| node_value(tree, *n)).collect();
        let bitmap: Vec<bool> = (0..output.arity())
            .map(|c| output.rows.iter().all(|row| values.contains(&row[c])))
            .collect();
        let bitmap = Arc::new(bitmap);
        let mut shard = self.coverage[ex_idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match shard.entry(pi.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                mitra_trace::counter_add!("cache.row_coverage.insert", 1);
                Arc::clone(e.insert(bitmap))
            }
        }
    }

    /// The valid node extractors of `pi` with their evaluations and behaviour
    /// classes, computed on first use (see [`ColumnPhiData`]).
    pub fn phi_data(
        &self,
        examples: &[Example],
        pi: &ColumnExtractor,
        config: &UniverseConfig,
    ) -> Arc<ColumnPhiData> {
        if let Some(hit) = self
            .phi_data
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(pi)
        {
            mitra_trace::counter_add!("cache.phi_data.hit", 1);
            return Arc::clone(hit);
        }
        mitra_trace::counter_add!("cache.phi_data.miss", 1);
        let with_nodes = valid_node_extractors_with_nodes(examples, pi, config);
        let mut phis = Vec::with_capacity(with_nodes.len());
        let mut nodes = Vec::with_capacity(with_nodes.len());
        for (phi, extracted) in with_nodes {
            phis.push(phi);
            nodes.push(extracted);
        }
        // Behaviour classes: first extractor with a given node map represents it.
        // The enumeration is size-nondecreasing per BFS level, so a representative
        // is also a minimum-size member of its class.
        let mut seen: HashSet<&[Vec<NodeId>]> = HashSet::new();
        let reps: Vec<usize> = (0..nodes.len())
            .filter(|&p| seen.insert(nodes[p].as_slice()))
            .collect();
        drop(seen);
        // Comparison data for the representatives: leafness, interned value id and
        // null flag per extracted node, so rule 5 compares node pairs
        // through integer ids instead of re-deriving values per tuple, and the
        // node's ordering against every mined constant for rule 4.
        let constants = self.constants(examples, config.max_constants);
        let mut info: Vec<Vec<Vec<NodeInfo>>> = vec![Vec::new(); nodes.len()];
        let mut orderings: Vec<Vec<Vec<Option<Ordering>>>> = vec![Vec::new(); nodes.len()];
        for &p in &reps {
            for (e, per_ex) in nodes[p].iter().enumerate() {
                let tree = &examples[e].tree;
                let mut ex_info = Vec::with_capacity(per_ex.len());
                let mut ex_orderings = vec![None; constants.len() * per_ex.len()];
                for (k, &n) in per_ex.iter().enumerate() {
                    let value = node_value(tree, n);
                    for (c, constant) in constants.iter().enumerate() {
                        ex_orderings[c * per_ex.len() + k] = value.compare(constant);
                    }
                    ex_info.push(NodeInfo {
                        leaf: tree.is_leaf(n),
                        null: value.is_null(),
                        value: self.intern_value(value),
                    });
                }
                info[p].push(ex_info);
                orderings[p].push(ex_orderings);
            }
        }
        let data = Arc::new(ColumnPhiData {
            phis,
            nodes,
            reps,
            info,
            orderings,
        });
        let mut map = self.phi_data.lock().unwrap_or_else(PoisonError::into_inner);
        match map.entry(pi.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                mitra_trace::counter_add!("cache.phi_data.insert", 1);
                Arc::clone(e.insert(data))
            }
        }
    }

    /// The constants mined from the example trees (rule 4's `c ∈ data(T)` side
    /// condition), computed on first use.  `max` must not vary across calls on one
    /// cache (one synthesis call fixes the universe configuration).
    pub fn constants(&self, examples: &[Example], max: usize) -> Arc<Vec<Value>> {
        let mut slot = self
            .constants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some(hit) => {
                mitra_trace::counter_add!("cache.constants.hit", 1);
                Arc::clone(hit)
            }
            None => {
                mitra_trace::counter_add!("cache.constants.miss", 1);
                let mined = Arc::new(mine_constants(examples, max));
                *slot = Some(Arc::clone(&mined));
                mined
            }
        }
    }

    /// `solve_exact(&instance, MAX_COVER_NODES)`, computed once per distinct
    /// instance.  The key is the whole instance, compared exactly, and the search
    /// is deterministic, so a reused answer is the one a new search would give;
    /// each reuse adds one to `synth.cover.reused`.  Two workers racing on one
    /// instance may both solve it, as with the other entries.
    pub fn cover(&self, instance: CoverInstance) -> Option<Cover> {
        if let Some(hit) = self
            .covers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&instance)
        {
            mitra_trace::counter_add!("synth.cover.reused", 1);
            return hit.clone();
        }
        let cover = solve_exact(&instance, MAX_COVER_NODES);
        self.covers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(instance)
            .or_insert_with(|| cover.clone());
        cover
    }

    /// Total number of cached (example, extractor) evaluations.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
impl ColumnEvalCache {
    /// Number of memoized cover instances.
    pub(crate) fn covers_len(&self) -> usize {
        self.covers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
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
        assert!(cache.is_empty());
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
