//! Predicate learning (`LearnPredicate`, Algorithm 3).
//!
//! Given the examples and one candidate table extractor ψ, the learner:
//!
//! 1. builds the atomic-predicate universe (Figure 10),
//! 2. splits the intermediate table \[\[ψ\]\]T into positive tuples (those whose data
//!    projection is a row of the output example) and negative tuples,
//! 3. finds a minimum subset Φ* of atomic predicates distinguishing every
//!    positive/negative pair (Algorithm 4, via the exact set-cover solver),
//! 4. finds a smallest DNF classifier over Φ* with Quine–McCluskey minimization.
//!
//! The result is a [`Predicate`] that keeps every positive tuple and removes every
//! negative one; `None` is returned when no such predicate exists in the (bounded)
//! universe.
//!
//! ## One layout, no materialized intermediate table
//!
//! A private `Layout` decides the intermediate table's shape in one place: one
//! block per example of the cached column node lists, the *last* column varying
//! fastest as in the naive cross product, and the checked product against
//! `max_intermediate_rows`.  The search's per-candidate checks, the labels, the
//! truth vectors, the cover rows and the reference path all read it, and no
//! tuple is ever built for the fast path.  Labels come from the per-node
//! output-row masks of `ColumnEvalCache::row_coverage`: a tuple is positive when
//! the AND of its nodes' masks is not empty, and ψ over-approximates an output
//! when the positives' ANDs OR to every row.
//!
//! ## The fast truth-vector path
//!
//! Evaluating every universe predicate on every intermediate tuple with
//! [`eval_predicate`] dominated synthesis cost (on MONDIAL: ~97 % of the wall
//! time), because the universe re-walks the tree per tuple and because most of the
//! universe is behaviourally redundant — node extractors that map every column
//! node to the same node yield byte-identical truth vectors in every predicate.
//! [`learn_predicate`] therefore:
//!
//! * evaluates each valid node extractor **once per column node** (cached in
//!   [`ColumnPhiData`]) instead of once per tuple, and tiles the per-node results
//!   across the layout of the intermediate table;
//! * enumerates only the behaviour-class **representatives** of each column's
//!   extractors.  Equivalent extractors produce equal truth vectors, the
//!   representative is the earliest (hence smallest) member of its class, and the
//!   downstream dedup fold keeps the earliest minimum-weight member of every truth
//!   class — which is always a representative pair — so the surviving predicate
//!   set is byte-identical to the exhaustive enumeration;
//! * compares tuple components (rule 5) through **interned value ids** once per
//!   node pair instead of once per tuple: the Eq/Ne truth values of a pair
//!   predicate factor through a per-block node-pair matrix (the diagonal when both
//!   sides index the same column), both ops share one pass over it, and matrices
//!   that come out constant — most cross-column comparisons — are skipped before
//!   any tuple-length vector is materialized;
//! * compares column nodes against constants (rule 4) through the **cached
//!   ordering** of every representative node against every mined constant
//!   ([`ColumnPhiData::orderings`], computed once per synthesis call): the six
//!   operators read one ordering, and per-node bits that come out all-true or
//!   all-false are skipped before tiling, as in rule 5.
//!
//! Truth vectors are packed 64 tuples to a `u64` word end to end.  Both rules
//! tile into one reusable buffer per call; the `Dedup` fold keys and keeps the
//! words and recognises constant vectors by word compares; and a predicate's AST
//! is built only when its vector opens a truth class or replaces a heavier
//! member, its weight computed from the parts.  The set-cover rows are built from
//! the words segment by segment (see [`crate::cover`]).
//!
//! The cover instance goes through [`ColumnEvalCache::cover`], which solves each
//! distinct instance once per synthesis call: candidates with different
//! extensions often build byte-equal instances.
//!
//! [`learn_predicate_reference`] retains the direct per-tuple evaluation over the
//! full universe, decoding each tuple's nodes from the layout, and it calls
//! [`solve_exact`] itself instead of the memo; `tests/search_equivalence.rs` and
//! the unit tests below assert the two paths agree, and it serves as the oracle
//! for differential testing.  The test module keeps the labelling oracle, which
//! materializes every tuple through the naive cross product.
//!
//! Spans `label_tuples` (the mask walk), `truth_vectors`, `cover` and `qm` split
//! the caller's `predicate_learn` span, and each call adds its tallies to the
//! counters `synth.predicate.{vectors,constant_skipped,kept}`.

use crate::bits;
use crate::cache::{ColumnEvalCache, ColumnPhiData};
use crate::cover::{solve_exact, Cover, CoverInstance, MAX_COVER_NODES};
use crate::qm::minimize;
use crate::synthesize::{Example, SynthConfig};
use crate::universe::construct_universe;
use mitra_dsl::ast::{ColumnExtractor, CompareOp, Operand, Predicate, TableExtractor};
use mitra_dsl::eval::eval_predicate;
use mitra_hdt::NodeId;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum number of distinct predicates kept after behaviour deduplication.
const MAX_UNIVERSE: usize = 20_000;

/// ψ's intermediate table on the examples: example blocks in order, and within a
/// block the *last* column varying fastest, so tuple `t` of a block holds node
/// `(t / strides[c]) % counts[c]` of column `c`.  The one place that decides the
/// table's product and tuple order; it keeps the examples, columns and cache it
/// was built from, so what reads it cannot pair it with others.
pub(crate) struct Layout<'a> {
    examples: &'a [Example],
    /// ψ's columns.
    columns: &'a [ColumnExtractor],
    cache: &'a ColumnEvalCache,
    /// `[[π_i]]T_e` for every example `e` (outer) and column `i` (inner): the
    /// table's extension, which the search keys its outcome memo by.
    extension: Vec<Arc<Vec<NodeId>>>,
    blocks: Vec<Block>,
    /// Tuples over all blocks.
    len: usize,
}

/// One example's block of the layout.
struct Block {
    /// The block's first tuple.
    base: usize,
    /// Its tuples: the product of `counts`, or zero when a column is empty.
    len: usize,
    /// Nodes per column.
    counts: Vec<usize>,
    /// Tuples between consecutive nodes of a column (the last column's is 1).
    strides: Vec<usize>,
}

impl<'a> Layout<'a> {
    /// The layout of the columns' node lists on `examples`, or `None` when some
    /// example's product overflows or exceeds `max_rows`.  As in the naive cross
    /// product, no columns or an empty column give an empty block.
    pub(crate) fn new(
        examples: &'a [Example],
        columns: &'a [ColumnExtractor],
        max_rows: usize,
        cache: &'a ColumnEvalCache,
    ) -> Option<Layout<'a>> {
        let arity = columns.len();
        let mut extension = Vec::with_capacity(examples.len() * arity);
        let mut blocks = Vec::with_capacity(examples.len());
        let mut base = 0;
        for (e, ex) in examples.iter().enumerate() {
            let counts: Vec<usize> = columns
                .iter()
                .map(|pi| {
                    let nodes = cache.column_nodes(e, &ex.tree, pi);
                    let count = nodes.len();
                    extension.push(nodes);
                    count
                })
                .collect();
            let mut strides = vec![0; arity];
            let len = if arity == 0 || counts.contains(&0) {
                0
            } else {
                let len = counts
                    .iter()
                    .try_fold(1usize, |acc, &n| acc.checked_mul(n))
                    .filter(|&len| len <= max_rows)?;
                strides[arity - 1] = 1;
                for c in (0..arity - 1).rev() {
                    strides[c] = strides[c + 1] * counts[c + 1];
                }
                len
            };
            blocks.push(Block {
                base,
                len,
                counts,
                strides,
            });
            base += len;
        }
        Some(Layout {
            examples,
            columns,
            cache,
            extension,
            blocks,
            len: base,
        })
    }

    /// Example `e`'s tuples.
    pub(crate) fn block_len(&self, e: usize) -> usize {
        self.blocks[e].len
    }

    /// The node lists of every example (outer) and column (inner).
    pub(crate) fn extension(&self) -> &[Arc<Vec<NodeId>>] {
        &self.extension
    }

    /// The positive tuples as a bitset over the layout, or `None` when ψ does not
    /// over-approximate some example's output: a row no tuple produces.  A tuple
    /// is positive when its values are a row of its example's output, that is
    /// when the AND of its nodes' row masks is not empty (see the module docs).
    fn labels(&self) -> Option<Vec<u64>> {
        let mut positive = bits::zeros(self.len);
        for (e, (ex, block)) in self.examples.iter().zip(&self.blocks).enumerate() {
            let rows = ex.output.rows.len();
            let mut covered = bits::zeros(rows);
            // A tuple of another arity is no row.
            if self.columns.len() == ex.output.arity() && block.len > 0 {
                let coverage: Vec<_> = self
                    .columns
                    .iter()
                    .map(|pi| self.cache.row_coverage(e, &ex.tree, pi, &ex.output))
                    .collect();
                let mut and = bits::zeros(rows);
                for t in 0..block.len {
                    and.fill(!0);
                    for (c, rows_of) in coverage.iter().enumerate() {
                        let mask = rows_of.mask(block.node(t, c), c);
                        and.iter_mut().zip(mask).for_each(|(w, m)| *w &= m);
                    }
                    if and.iter().any(|w| *w != 0) {
                        bits::set(&mut positive, block.base + t);
                        bits::or_at(&mut covered, 0, &and);
                    }
                }
            }
            if bits::count(&covered) != rows {
                return None;
            }
        }
        Some(positive)
    }

    /// Every tuple's example and nodes, in layout order.
    fn tuples(&self) -> impl Iterator<Item = (usize, Vec<NodeId>)> + '_ {
        self.blocks.iter().enumerate().flat_map(move |(e, block)| {
            let arity = block.counts.len();
            let columns = &self.extension[e * arity..(e + 1) * arity];
            (0..block.len).map(move |t| {
                let nodes = (0..arity).map(|c| columns[c][block.node(t, c)]).collect();
                (e, nodes)
            })
        })
    }
}

impl Block {
    /// The node of column `c` that tuple `t` of the block holds.
    fn node(&self, t: usize, c: usize) -> usize {
        (t / self.strides[c]) % self.counts[c]
    }

    /// Sets the bits of the tuples whose column-`col` node `k` has `bit(k)`: node
    /// `k` of column `col` covers the runs of `strides[col]` tuples starting at
    /// `(r * counts[col] + k) * strides[col]` for r = 0, 1, ….
    fn tile(&self, vector: &mut [u64], col: usize, bit: impl Fn(usize) -> bool) {
        let (stride, count) = (self.strides[col], self.counts[col]);
        let (mut t, mut k) = (0, 0);
        while t < self.len {
            if bit(k) {
                bits::set_range(vector, self.base + t, self.base + t + stride);
            }
            t += stride;
            k = if k + 1 == count { 0 } else { k + 1 };
        }
    }

    /// Sets the bits of the tuples whose nodes `ki` of column `i` and `kj` of
    /// column `j` (`i != j`) have `cell(ki, kj)`.  With `a` the earlier of the two
    /// columns and `b` the later, the tuples come in runs of `strides[b]`, and run
    /// `((r * counts[a] + ka) * gap + m) * counts[b] + kb` holds nodes `ka` and
    /// `kb`, where `gap` is the product of the counts of the columns between them.
    fn tile_pair(
        &self,
        vector: &mut [u64],
        i: usize,
        j: usize,
        cell: impl Fn(usize, usize) -> bool,
    ) {
        if self.len == 0 {
            return;
        }
        let (a, b) = (i.min(j), i.max(j));
        let run = self.strides[b];
        let gap = self.strides[a] / (self.counts[b] * run);
        let mut t = 0;
        while t < self.len {
            for ka in 0..self.counts[a] {
                for _ in 0..gap {
                    for kb in 0..self.counts[b] {
                        let (ki, kj) = if i < j { (ka, kb) } else { (kb, ka) };
                        if cell(ki, kj) {
                            bits::set_range(vector, self.base + t, self.base + t + run);
                        }
                        t += run;
                    }
                }
            }
        }
    }
}

/// Learns a filtering predicate for the candidate table extractor ψ, following
/// Algorithm 3.  Returns `None` when no classifier exists within the configured
/// universe bounds.  Of `config` it reads `universe` and `max_intermediate_rows`.
///
/// The top-level synthesis loop passes one `cache` for all candidate table
/// extractors of a task, which also shares the per-column [`ColumnPhiData`] across
/// every combo touching the same column extractor.
///
/// The result depends on ψ only through the node lists `[[π_i]]T_e` of its columns
/// (read via [`ColumnEvalCache::column_nodes`] and the [`ColumnPhiData`] built from
/// them), never on the syntax of π: the search reuses one call's result for every
/// candidate with the same lists.  A change that reads π itself must add π to that
/// memo's key in `synthesize.rs`.
pub fn learn_predicate(
    examples: &[Example],
    psi: &TableExtractor,
    config: &SynthConfig,
    cache: &ColumnEvalCache,
) -> Option<Predicate> {
    let layout = Layout::new(examples, &psi.columns, config.max_intermediate_rows, cache)?;
    learn_predicate_on(&layout, config)
}

/// [`learn_predicate`] on ψ's layout, which the caller has already built.
pub(crate) fn learn_predicate_on(layout: &Layout, config: &SynthConfig) -> Option<Predicate> {
    let positive = {
        let _span = mitra_trace::span("synth", "label_tuples");
        layout.labels()?
    };
    let positives = bits::count(&positive);
    if positives == 0 {
        return None;
    }
    if positives == layout.len {
        // The filter-free program already matches the example exactly: skip the
        // whole truth-vector universe (on exact extractors this is the only
        // predicate-learning work the search does).
        return Some(Predicate::True);
    }
    let kept = {
        let _span = mitra_trace::span("synth", "truth_vectors");
        truth_vectors(layout, config)
    };
    classifier_from_kept(&positive, layout.len, kept, |instance| {
        layout.cache.cover(instance)
    })
}

/// Rules 4 and 5 of the universe over behaviour-class representatives, folded
/// into the kept truth classes (see the module docs).
fn truth_vectors(layout: &Layout, config: &SynthConfig) -> Vec<(Predicate, Vec<u64>, usize)> {
    let (examples, cache) = (layout.examples, layout.cache);
    let per_column: Vec<Arc<ColumnPhiData>> = layout
        .columns
        .iter()
        .map(|pi| cache.phi_data(examples, pi, &config.universe))
        .collect();
    let constants = cache.constants(examples, config.universe.max_constants);

    // The reduced universe enumeration: identical loop structure and order as
    // `construct_universe`, but over behaviour-class representatives only, feeding
    // truth vectors straight into the shared [`Dedup`] fold.
    let const_ops: &[CompareOp] = if config.universe.with_ordering {
        &[
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ]
    } else {
        &[CompareOp::Eq, CompareOp::Ne]
    };

    let mut dedup = Dedup::new(layout.len);
    // One truth-vector buffer for every predicate of this call.
    let mut vector = bits::zeros(layout.len);
    let mut constant_skipped = 0u64;
    let mut capped = false;

    // Rule 4: comparisons against constants.  A tuple's truth value is its
    // column-`i` node's, read from the node's cached ordering against `c`.  The
    // blocks are full cross products, so every node of a non-empty block is hit
    // by some tuple: when the node bits are all-true or all-false the vector is
    // constant and is skipped before tiling, as the fold would drop it.
    'outer4: for (i, data) in per_column.iter().enumerate() {
        for &p in &data.reps {
            let weight = 1 + data.phis[p].size();
            for (ci, c) in constants.iter().enumerate() {
                // Block `e`'s node orderings against `c`.
                let orderings = |e: usize| {
                    let len = data.nodes[p][e].len();
                    &data.orderings[p][e][ci * len..(ci + 1) * len]
                };
                let numeric = c.as_number().is_some();
                for op in const_ops {
                    if !numeric
                        && matches!(
                            op,
                            CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge
                        )
                    {
                        continue;
                    }
                    let bit = |ord: &Option<Ordering>| ord.is_some_and(|o| op.test(o));
                    let (mut any_t, mut any_f) = (false, false);
                    for (e, block) in layout.blocks.iter().enumerate() {
                        if block.len > 0 {
                            any_t |= orderings(e).iter().any(bit);
                            any_f |= !orderings(e).iter().all(bit);
                        }
                    }
                    if !(any_t && any_f) {
                        constant_skipped += 1;
                        continue;
                    }
                    vector.fill(0);
                    for (e, block) in layout.blocks.iter().enumerate() {
                        if block.len > 0 {
                            let ords = orderings(e);
                            block.tile(&mut vector, i, |k| bit(&ords[k]));
                        }
                    }
                    let pred = || Predicate::Compare {
                        extractor: data.phis[p].clone(),
                        index: i,
                        op: *op,
                        rhs: Operand::Const(c.clone()),
                    };
                    if !dedup.fold(&vector, weight, pred) {
                        capped = true;
                        break 'outer4;
                    }
                }
            }
        }
    }

    // Rule 5: comparisons between two tuple components.  A tuple's truth value
    // depends only on its (node_i, node_j) pair, so each representative pair is
    // compared once per *node* pair — through the interned ids of
    // [`ColumnPhiData::info`] — and both ops share that comparison.  Vectors whose
    // node-pair cells come out constant (most cross-column comparisons: unrelated
    // fields are never equal) are recognised before tiling and skipped outright,
    // exactly as the fold would have dropped them.
    if !capped {
        // Eq/Ne truth values for one node pair, matching `Value::compare`
        // semantics: leaf pairs compare by value (Ne additionally requires
        // comparability: both or neither NULL), internal pairs by node identity,
        // mixed pairs are false under both ops.
        let cell = |l: &crate::cache::NodeInfo,
                    r: &crate::cache::NodeInfo,
                    ln: NodeId,
                    rn: NodeId|
         -> (bool, bool) {
            if l.leaf && r.leaf {
                let eq = l.value == r.value;
                (eq, !eq && l.null == r.null)
            } else if !l.leaf && !r.leaf {
                let same = ln == rn;
                (same, !same)
            } else {
                (false, false)
            }
        };
        // Per-block cell tables for both ops, reused across pairs: block `e`'s
        // cells start at `cell_start[e]`.
        let mut eq_cells: Vec<bool> = Vec::new();
        let mut ne_cells: Vec<bool> = Vec::new();
        let mut cell_start: Vec<usize> = Vec::with_capacity(layout.blocks.len());
        'outer5: for (i, data_i) in per_column.iter().enumerate() {
            for (j, data_j) in per_column.iter().enumerate() {
                for &p1 in &data_i.reps {
                    for &p2 in &data_j.reps {
                        if i == j && data_i.phis[p1] == data_j.phis[p2] {
                            continue; // trivially true under Eq
                        }
                        // The diagonal only when i == j (both nodes coincide), the
                        // full node-pair matrix otherwise.
                        eq_cells.clear();
                        ne_cells.clear();
                        cell_start.clear();
                        let (mut eq_any_t, mut eq_any_f) = (false, false);
                        let (mut ne_any_t, mut ne_any_f) = (false, false);
                        for (ex_idx, block) in layout.blocks.iter().enumerate() {
                            cell_start.push(eq_cells.len());
                            if block.len == 0 {
                                continue;
                            }
                            let linfo = &data_i.info[p1][ex_idx];
                            let rinfo = &data_j.info[p2][ex_idx];
                            let lnodes = &data_i.nodes[p1][ex_idx];
                            let rnodes = &data_j.nodes[p2][ex_idx];
                            if i == j {
                                for k in 0..linfo.len() {
                                    let (e, n) = cell(&linfo[k], &rinfo[k], lnodes[k], rnodes[k]);
                                    eq_cells.push(e);
                                    ne_cells.push(n);
                                }
                            } else {
                                for (ki, li) in linfo.iter().enumerate() {
                                    for (kj, rj) in rinfo.iter().enumerate() {
                                        let (e, n) = cell(li, rj, lnodes[ki], rnodes[kj]);
                                        eq_cells.push(e);
                                        ne_cells.push(n);
                                    }
                                }
                            }
                            let from = cell_start[ex_idx];
                            for &b in &eq_cells[from..] {
                                eq_any_t |= b;
                                eq_any_f |= !b;
                            }
                            for &b in &ne_cells[from..] {
                                ne_any_t |= b;
                                ne_any_f |= !b;
                            }
                        }
                        let weight = 1 + data_i.phis[p1].size() + data_j.phis[p2].size();
                        // The blocks are full cross products, so every cell is hit
                        // by some tuple: the vector is constant iff the cells are.
                        for (op, cells, any_t, any_f) in [
                            (CompareOp::Eq, &eq_cells, eq_any_t, eq_any_f),
                            (CompareOp::Ne, &ne_cells, ne_any_t, ne_any_f),
                        ] {
                            if !(any_t && any_f) {
                                constant_skipped += 1;
                                continue;
                            }
                            vector.fill(0);
                            for (ex_idx, block) in layout.blocks.iter().enumerate() {
                                if block.len == 0 {
                                    continue;
                                }
                                let cell_bits = &cells[cell_start[ex_idx]..];
                                if i == j {
                                    block.tile(&mut vector, i, |k| cell_bits[k]);
                                } else {
                                    let cj = block.counts[j];
                                    block.tile_pair(&mut vector, i, j, |ki, kj| {
                                        cell_bits[ki * cj + kj]
                                    });
                                }
                            }
                            let pred = || Predicate::Compare {
                                extractor: data_i.phis[p1].clone(),
                                index: i,
                                op,
                                rhs: Operand::Column {
                                    extractor: data_j.phis[p2].clone(),
                                    index: j,
                                },
                            };
                            if !dedup.fold(&vector, weight, pred) {
                                break 'outer5;
                            }
                        }
                    }
                }
            }
        }
    }

    mitra_trace::counter_add!("synth.predicate.vectors", dedup.folded);
    mitra_trace::counter_add!("synth.predicate.constant_skipped", constant_skipped);
    let kept = dedup.into_kept();
    mitra_trace::counter_add!("synth.predicate.kept", kept.len() as u64);
    kept
}

/// Reference implementation of [`learn_predicate`]: full universe construction and
/// direct per-tuple [`eval_predicate`] evaluation.  Kept as the oracle for the
/// differential suite (`tests/search_equivalence.rs`) — the fast path must produce
/// byte-identical predicates.  Besides what [`learn_predicate`] reads, it
/// evaluates the universe on `config.threads` workers (`0` resolves to the
/// process-global setting); the result is identical for every value.
pub fn learn_predicate_reference(
    examples: &[Example],
    psi: &TableExtractor,
    config: &SynthConfig,
    cache: &ColumnEvalCache,
) -> Option<Predicate> {
    let layout = Layout::new(examples, &psi.columns, config.max_intermediate_rows, cache)?;
    let positive = layout.labels()?;
    let positives = bits::count(&positive);
    if positives == 0 {
        return None;
    }
    if positives == layout.len {
        // Nothing to filter out: the trivial predicate works.
        return Some(Predicate::True);
    }

    // Build the universe and evaluate every predicate on every tuple.
    let universe = construct_universe(examples, psi, &config.universe);
    if universe.is_empty() {
        return None;
    }

    // Only behaviourally distinct predicates matter: the truth vectors over all
    // labelled tuples feed the shared [`Dedup`] fold, which also shrinks the ILP.
    let tuples: Vec<(usize, Vec<NodeId>)> = layout.tuples().collect();
    let truth_vector = |p: &Predicate| -> Vec<u64> {
        let mut vector = bits::zeros(tuples.len());
        for (i, (e, nodes)) in tuples.iter().enumerate() {
            if eval_predicate(&examples[*e].tree, nodes, p) {
                bits::set(&mut vector, i);
            }
        }
        vector
    };
    let threads = mitra_pool::resolve(config.threads);
    // The candidates are independent, so the truth vectors fan out across workers;
    // the dedup fold below runs in universe order either way, so `kept` is identical
    // for every thread count.  Tiny universes stay inline: spawning costs more than
    // the evaluation itself.
    let vectors: Vec<Vec<u64>> = if threads > 1 && universe.len() >= 64 {
        mitra_pool::parallel_map(threads, &universe, |_, p| truth_vector(p))
    } else {
        universe.iter().map(truth_vector).collect()
    };
    let mut dedup = Dedup::new(tuples.len());
    for (p, vector) in universe.into_iter().zip(vectors) {
        if !dedup.fold(&vector, predicate_weight(&p), || p) {
            break;
        }
    }
    // The reference solves every cover itself, so the search-equivalence suite
    // referees the fast path's cover memo too.
    classifier_from_kept(&positive, layout.len, dedup.into_kept(), |instance| {
        solve_exact(&instance, MAX_COVER_NODES)
    })
}

/// The behaviour dedup fold shared by the fast and reference paths: predicates
/// with a constant truth vector are dropped, the earliest predicate of each truth
/// class is kept, and a later strictly lighter member replaces it.
///
/// Every truth vector folded into one `Dedup` is a packed bitset over the same
/// labelled tuples.
struct Dedup {
    /// `(predicate, weight)` per truth class, in first-seen order.
    kept: Vec<(Predicate, usize)>,
    /// Index into `kept` by truth vector.
    by_vector: HashMap<Vec<u64>, usize>,
    /// The valid bits of a vector's last word.
    tail: u64,
    /// Vectors folded in.
    folded: u64,
}

impl Dedup {
    fn new(num_tuples: usize) -> Dedup {
        Dedup {
            kept: Vec::new(),
            by_vector: HashMap::new(),
            tail: bits::tail_mask(num_tuples),
            folded: 0,
        }
    }

    /// Folds in one truth vector of a predicate of the given weight; false once
    /// [`MAX_UNIVERSE`] classes are kept.  `predicate` is only called when the
    /// vector opens a class or its predicate replaces a heavier member.
    fn fold(
        &mut self,
        vector: &[u64],
        weight: usize,
        predicate: impl FnOnce() -> Predicate,
    ) -> bool {
        self.folded += 1;
        let Some((&last, body)) = vector.split_last() else {
            return true;
        };
        if (last == 0 && body.iter().all(|w| *w == 0))
            || (last == self.tail && body.iter().all(|w| *w == !0))
        {
            return true;
        }
        match self.by_vector.get(vector) {
            Some(&class) => {
                let kept = &mut self.kept[class];
                if weight < kept.1 {
                    *kept = (predicate(), weight);
                }
            }
            None => {
                self.by_vector.insert(vector.to_vec(), self.kept.len());
                self.kept.push((predicate(), weight));
                if self.kept.len() >= MAX_UNIVERSE {
                    return false;
                }
            }
        }
        true
    }

    /// The kept classes in first-seen order: `(predicate, truth vector, weight)`.
    fn into_kept(self) -> Vec<(Predicate, Vec<u64>, usize)> {
        let mut vectors = vec![Vec::new(); self.kept.len()];
        for (vector, class) in self.by_vector {
            vectors[class] = vector;
        }
        self.kept
            .into_iter()
            .zip(vectors)
            .map(|((p, weight), vector)| (p, vector, weight))
            .collect()
    }
}

/// Algorithm 3 steps 3–4 over the deduplicated predicate set: minimum set cover of
/// the positive/negative pairs, then Quine–McCluskey DNF minimization.  Shared
/// verbatim by the fast and reference paths so any divergence is confined to the
/// truth-vector construction and to `solve`, which answers the cover instance:
/// the fast path through [`ColumnEvalCache::cover`]'s memo, the reference with
/// [`solve_exact`] itself.  `positive` marks the positive ones of the `len`
/// tuples.
fn classifier_from_kept(
    positive: &[u64],
    len: usize,
    kept: Vec<(Predicate, Vec<u64>, usize)>,
    solve: impl FnOnce(CoverInstance) -> Option<Cover>,
) -> Option<Predicate> {
    if kept.is_empty() {
        return None;
    }
    let (pos_idx, neg_idx): (Vec<usize>, Vec<usize>) =
        (0..len).partition(|&t| bits::get(positive, t));

    let chosen = {
        let _span = mitra_trace::span("synth", "cover");
        // The set-cover instance: element `pi * N + ni` is the pair of positive
        // `pi` and negative `ni` (N negatives), and a predicate covers a pair when
        // its truth value differs on the two tuples.  Positive `pi`'s segment of a
        // row is therefore the negatives' bits when the predicate is false on it,
        // and their complement when it is true.
        let negatives = neg_idx.len();
        let num_elements = pos_idx.len() * negatives;
        let covers: Vec<Vec<u64>> = kept
            .iter()
            .map(|(_, vector, _)| {
                let mut off = bits::zeros(negatives);
                for (ni, &n) in neg_idx.iter().enumerate() {
                    if bits::get(vector, n) {
                        bits::set(&mut off, ni);
                    }
                }
                let mut on: Vec<u64> = off.iter().map(|w| !w).collect();
                if let Some(last) = on.last_mut() {
                    *last &= bits::tail_mask(negatives);
                }
                let mut row = bits::zeros(num_elements);
                for (pi, &p) in pos_idx.iter().enumerate() {
                    let segment = if bits::get(vector, p) { &on } else { &off };
                    bits::or_at(&mut row, pi * negatives, segment);
                }
                row
            })
            .collect();
        solve(CoverInstance {
            num_elements,
            covers,
            weights: kept.iter().map(|(_, _, s)| *s).collect(),
        })?
    };
    if chosen.is_empty() {
        return None;
    }

    let _span = mitra_trace::span("synth", "qm");
    // Build the partial truth table over the chosen predicates and minimize.
    let assignment =
        |t: usize| -> Vec<bool> { chosen.iter().map(|&k| bits::get(&kept[k].1, t)).collect() };
    let on_set: Vec<Vec<bool>> = pos_idx.iter().map(|&t| assignment(t)).collect();
    let off_set: Vec<Vec<bool>> = neg_idx.iter().map(|&t| assignment(t)).collect();
    let dnf = minimize(chosen.len(), &on_set, &off_set)?;

    // Translate the DNF over variable indices back into a DSL predicate.
    let mut clauses = Vec::new();
    for term in &dnf.terms {
        let mut lits = Vec::new();
        for (var, lit) in term.literals.iter().enumerate() {
            match lit {
                None => {}
                Some(true) => lits.push(kept[chosen[var]].0.clone()),
                Some(false) => lits.push(Predicate::not(kept[chosen[var]].0.clone())),
            }
        }
        clauses.push(Predicate::conjunction(lits));
    }
    let formula = if dnf.terms.is_empty() {
        Predicate::False
    } else {
        Predicate::disjunction(clauses)
    };
    Some(formula)
}

/// Syntactic weight of a predicate, used for tie-breaking in the cover solver.
fn predicate_weight(p: &Predicate) -> usize {
    match p {
        Predicate::Compare { extractor, rhs, .. } => {
            1 + extractor.size()
                + match rhs {
                    Operand::Const(_) => 0,
                    Operand::Column { extractor, .. } => extractor.size(),
                }
        }
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;
    use mitra_dsl::eval::{cross_product, eval_column, eval_program, node_value, EvalLimits};
    use mitra_dsl::{Program, Table, Value};
    use mitra_hdt::generate::{nested_objects, social_network, wide};
    use mitra_hdt::Hdt;

    /// A tuple of the intermediate table, as the labelling oracle materializes it.
    #[derive(Debug, Clone)]
    struct LabelledTuple {
        /// Index of the example this tuple came from.
        example: usize,
        /// The node tuple.
        nodes: Vec<NodeId>,
        /// True when the tuple's data projection appears in the output example.
        positive: bool,
    }

    /// The labelling oracle: every tuple of every example materialized through the
    /// naive cross product, its values looked up among the output's rows with
    /// `Value`'s `==`.  `None` when an intermediate table exceeds
    /// `max_rows` or ψ does not over-approximate some output example.
    fn label_tuples(
        examples: &[Example],
        psi: &TableExtractor,
        max_rows: usize,
        cache: &ColumnEvalCache,
    ) -> Option<Vec<LabelledTuple>> {
        let mut out = Vec::new();
        let limits = EvalLimits::with_max_rows(max_rows);
        for (ex_idx, ex) in examples.iter().enumerate() {
            let columns: Vec<_> = psi
                .columns
                .iter()
                .map(|pi| cache.column_nodes(ex_idx, &ex.tree, pi))
                .collect();
            let slices: Vec<&[NodeId]> = columns.iter().map(|c| c.as_slice()).collect();
            let tuples = cross_product(&slices, &limits).ok()?;
            let mut covered_rows = vec![false; ex.output.rows.len()];
            for nodes in tuples {
                let values: Vec<Value> = nodes.iter().map(|n| node_value(&ex.tree, *n)).collect();
                let mut positive = false;
                for (ri, row) in ex.output.rows.iter().enumerate() {
                    if *row == values {
                        covered_rows[ri] = true;
                        positive = true;
                    }
                }
                out.push(LabelledTuple {
                    example: ex_idx,
                    nodes,
                    positive,
                });
            }
            if !covered_rows.iter().all(|b| *b) {
                return None;
            }
        }
        Some(out)
    }

    /// The layout's labels, or `None` where it or they reject ψ.
    fn labels<'a>(
        examples: &'a [Example],
        psi: &'a TableExtractor,
        max_rows: usize,
        cache: &'a ColumnEvalCache,
    ) -> Option<(Layout<'a>, Vec<u64>)> {
        let layout = Layout::new(examples, &psi.columns, max_rows, cache)?;
        let positive = layout.labels()?;
        Some((layout, positive))
    }

    /// Asserts that the layout decodes the oracle's tuples in its order and labels
    /// the same ones positive, or that both reject ψ; returns whether they accept.
    fn assert_labels_match_the_oracle(
        examples: &[Example],
        psi: &TableExtractor,
        max_rows: usize,
        what: &str,
    ) -> bool {
        let cache = ColumnEvalCache::new(examples.len());
        let want = label_tuples(examples, psi, max_rows, &cache);
        let got = labels(examples, psi, max_rows, &cache);
        let (Some(tuples), Some((layout, positive))) = (&want, &got) else {
            assert_eq!(
                got.is_some(),
                want.is_some(),
                "{what}: accepted by one side"
            );
            return false;
        };
        let decoded: Vec<(usize, Vec<NodeId>)> = layout.tuples().collect();
        let materialized: Vec<(usize, Vec<NodeId>)> = tuples
            .iter()
            .map(|t| (t.example, t.nodes.clone()))
            .collect();
        let differs = decoded.iter().zip(&materialized).position(|(a, b)| a != b);
        assert_eq!(differs, None, "{what}: first tuple out of order");
        assert_eq!(decoded.len(), materialized.len(), "{what}: tuples");
        let mut want_positive = bits::zeros(tuples.len());
        for (i, _) in tuples.iter().enumerate().filter(|(_, t)| t.positive) {
            bits::set(&mut want_positive, i);
        }
        assert_eq!(*positive, want_positive, "{what}: positive tuples");
        true
    }

    /// The default configuration, with the reference path's universe evaluated
    /// inline.
    fn one_thread() -> SynthConfig {
        SynthConfig {
            threads: 1,
            ..Default::default()
        }
    }

    fn social_example() -> Example {
        Example {
            tree: social_network(2, 1),
            output: Table::from_rows(
                &["Person", "Friend-with", "years"],
                &[&["Alice", "Bob", "12"], &["Bob", "Alice", "21"]],
            ),
        }
    }

    fn social_psi() -> TableExtractor {
        use ColumnExtractor as CE;
        let name = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        let pi_f = CE::pchildren(CE::children(CE::Input, "Person"), "Friendship", 0);
        let years = CE::pchildren(CE::children(pi_f, "Friend"), "years", 0);
        TableExtractor::new(vec![name.clone(), name, years])
    }

    #[test]
    fn labels_mark_positive_rows() {
        let (examples, psi) = ([social_example()], social_psi());
        let cache = ColumnEvalCache::new(1);
        let (layout, positive) = labels(&examples, &psi, 10_000, &cache).unwrap();
        // 2 names × 2 names × 2 years = 8 tuples, 2 of which are positive.
        assert_eq!(layout.len, 8);
        assert_eq!(bits::count(&positive), 2);
    }

    #[test]
    fn labels_reject_a_non_overapproximating_extractor() {
        let ex = social_example();
        // Only one column extractor -> arity mismatch means no row can be covered.
        let psi = TableExtractor::new(vec![ColumnExtractor::children(
            ColumnExtractor::Input,
            "Person",
        )]);
        assert!(labels(&[ex], &psi, 10_000, &ColumnEvalCache::new(1)).is_none());
    }

    #[test]
    fn learns_predicate_for_motivating_example() {
        let ex = social_example();
        let psi = social_psi();
        let phi = learn_predicate(
            std::slice::from_ref(&ex),
            &psi,
            &one_thread(),
            &ColumnEvalCache::new(1),
        )
        .expect("a predicate should be found");
        let prog = Program::new(psi, phi);
        let out = eval_program(&ex.tree, &prog).unwrap();
        assert!(
            out.same_bag(&ex.output),
            "synthesized filter does not reproduce the example: {out}"
        );
    }

    #[test]
    fn trivial_predicate_when_extractor_is_exact() {
        // Single column: person names; the cross product is already exactly the output.
        let ex = Example {
            tree: social_network(2, 1),
            output: Table::from_rows(&["name"], &[&["Alice"], &["Bob"]]),
        };
        let psi = TableExtractor::new(vec![ColumnExtractor::pchildren(
            ColumnExtractor::children(ColumnExtractor::Input, "Person"),
            "name",
            0,
        )]);
        let phi = learn_predicate(&[ex], &psi, &one_thread(), &ColumnEvalCache::new(1)).unwrap();
        assert_eq!(phi, Predicate::True);
    }

    #[test]
    fn figure8_constant_filter_is_learned() {
        // Keep the text of objects whose id < 20, paired with the text of their
        // directly nested object.
        let tree = nested_objects();
        let output = Table::from_rows(&["outer", "inner"], &[&["outer-a", "inner-a"]]);
        let ex = Example { tree, output };
        let pi = ColumnExtractor::pchildren(
            ColumnExtractor::descendants(ColumnExtractor::Input, "object"),
            "text",
            0,
        );
        let psi = TableExtractor::new(vec![pi.clone(), pi]);
        let phi = learn_predicate(
            std::slice::from_ref(&ex),
            &psi,
            &one_thread(),
            &ColumnEvalCache::new(1),
        )
        .expect("predicate expected");
        let prog = Program::new(psi, phi);
        let out = eval_program(&ex.tree, &prog).unwrap();
        assert!(out.same_bag(&ex.output), "got {out}");
    }

    #[test]
    fn fast_path_matches_reference_on_motivating_example() {
        let ex = social_example();
        let psi = social_psi();
        let config = one_thread();
        let fast = learn_predicate(
            std::slice::from_ref(&ex),
            &psi,
            &config,
            &ColumnEvalCache::new(1),
        );
        let reference = learn_predicate_reference(
            std::slice::from_ref(&ex),
            &psi,
            &config,
            &ColumnEvalCache::new(1),
        );
        assert_eq!(fast, reference);
        assert!(fast.is_some());
    }

    #[test]
    fn fast_path_matches_reference_on_figure8() {
        let tree = nested_objects();
        let output = Table::from_rows(&["outer", "inner"], &[&["outer-a", "inner-a"]]);
        let ex = Example { tree, output };
        let pi = ColumnExtractor::pchildren(
            ColumnExtractor::descendants(ColumnExtractor::Input, "object"),
            "text",
            0,
        );
        let psi = TableExtractor::new(vec![pi.clone(), pi]);
        for with_ordering in [false, true] {
            let config = SynthConfig {
                universe: UniverseConfig {
                    with_ordering,
                    ..Default::default()
                },
                ..one_thread()
            };
            let fast = learn_predicate(
                std::slice::from_ref(&ex),
                &psi,
                &config,
                &ColumnEvalCache::new(1),
            );
            let reference = learn_predicate_reference(
                std::slice::from_ref(&ex),
                &psi,
                &config,
                &ColumnEvalCache::new(1),
            );
            assert_eq!(fast, reference, "with_ordering={with_ordering} diverged");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_learned_predicate() {
        let ex = social_example();
        let psi = social_psi();
        let sequential = learn_predicate_reference(
            std::slice::from_ref(&ex),
            &psi,
            &one_thread(),
            &ColumnEvalCache::new(1),
        );
        for threads in [2, 4] {
            let config = SynthConfig {
                threads,
                ..one_thread()
            };
            let parallel = learn_predicate_reference(
                std::slice::from_ref(&ex),
                &psi,
                &config,
                &ColumnEvalCache::new(1),
            );
            assert_eq!(sequential, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn shared_cache_reuses_column_evaluations_across_candidates() {
        let ex = social_example();
        let cache = ColumnEvalCache::new(1);
        let psi = social_psi();
        let (first, _) = labels(std::slice::from_ref(&ex), &psi, 10_000, &cache).unwrap();
        let cached_entries = cache.len();
        // ψ has two identical name columns -> strictly fewer cache entries than
        // columns; relabelling with the same cache must not grow it.
        assert!(cached_entries < psi.columns.len() + 1);
        let (second, _) = labels(std::slice::from_ref(&ex), &psi, 10_000, &cache).unwrap();
        assert_eq!(cache.len(), cached_entries);
        for (a, b) in first.extension().iter().zip(second.extension()) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    /// Leaf data whose values meet across spellings: `1`, `01`, `1.0` and `1e0`
    /// are one number, `true` and the empty cell (NULL) only themselves, and
    /// 2^60 comes as an integer and as a float.
    const DATA: [&str; 10] = [
        "1",
        "01",
        "1.0",
        "1e0",
        "true",
        "",
        "2",
        "x",
        "1152921504606846976",
        "1.152921504606846976e18",
    ];

    /// A SplitMix64 stream of draws below `n`.
    fn draws(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |n: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A seeded tree over the tags `a`, `b`, `c` with [`DATA`] at its leaves, a ψ
    /// of one to three columns (one may read the absent tag `z`, an empty
    /// column), and an output drawn from ψ's own tuples: duplicated rows, cells
    /// respelled or made NULL, now and then a row no tuple produces or a column
    /// too few.
    fn seeded_example(seed: u64) -> (Example, TableExtractor) {
        use ColumnExtractor as CE;
        let mut next = draws(seed);
        let tags = ["a", "b", "c"];
        let mut tree = Hdt::with_root("root");
        let mut internal = vec![tree.root()];
        for _ in 0..4 + next(14) {
            let parent = internal[next(internal.len())];
            let tag = tags[next(tags.len())];
            if next(3) == 0 {
                internal.push(tree.add_child(parent, tag, None));
            } else {
                tree.add_child(parent, tag, Some(DATA[next(DATA.len())].to_string()));
            }
        }
        let columns: Vec<ColumnExtractor> = (0..1 + next(3))
            .map(|_| {
                let tag = if next(12) == 0 { "z" } else { tags[next(3)] };
                match next(3) {
                    0 => CE::descendants(CE::Input, tag),
                    1 => CE::children(CE::descendants(CE::Input, tags[next(3)]), tag),
                    _ => CE::pchildren(CE::descendants(CE::Input, tags[next(3)]), tag, 0),
                }
            })
            .collect();
        let nodes: Vec<Vec<NodeId>> = columns.iter().map(|pi| eval_column(&tree, pi)).collect();
        let arity = if next(10) == 0 {
            columns.len() + 1
        } else {
            columns.len()
        };
        let mut output = Table::anonymous(arity);
        for _ in 0..next(6) {
            let row: Vec<Value> = (0..arity)
                .map(|c| match nodes.get(c).filter(|n| !n.is_empty()) {
                    Some(n) if next(8) != 0 => {
                        let value = node_value(&tree, n[next(n.len())]);
                        match next(6) {
                            0 => Value::from_data(DATA[next(DATA.len())]),
                            1 if value == Value::int(1) => Value::from_data(DATA[next(4)]),
                            _ => value,
                        }
                    }
                    _ => Value::Null,
                })
                .collect();
            for _ in 0..1 + next(2) {
                output.push(row.clone());
            }
        }
        (Example::new(tree, output), TableExtractor::new(columns))
    }

    #[test]
    fn labels_match_the_oracle_on_seeded_trees() {
        let mut accepted = 0;
        for seed in 0..400u64 {
            let (ex, psi) = seeded_example(seed);
            let (other, _) = seeded_example(seed ^ 0x5EED);
            let cache = ColumnEvalCache::new(1);
            let product = Layout::new(std::slice::from_ref(&ex), &psi.columns, usize::MAX, &cache)
                .map_or(0, |layout| layout.len);
            // The cap unbinding, binding exactly, and one row short.
            for max_rows in [10_000, product, product.saturating_sub(1)] {
                let what = format!("seed {seed}, max_rows {max_rows}");
                let one = std::slice::from_ref(&ex);
                accepted += assert_labels_match_the_oracle(one, &psi, max_rows, &what) as usize;
                // A second example with its own output under the same ψ.
                let two = [ex.clone(), other.clone()];
                assert_labels_match_the_oracle(&two, &psi, max_rows, &what);
            }
        }
        assert!(accepted >= 300, "{accepted} accepted");

        // Products past `usize`: twelve columns of fifty nodes, in front of an
        // empty column and on their own.
        let ex = Example::new(wide(50), Table::anonymous(13));
        let val = ColumnExtractor::descendants(ColumnExtractor::Input, "val");
        let empty = ColumnExtractor::descendants(ColumnExtractor::Input, "z");
        let mut columns = vec![val; 12];
        let cache = ColumnEvalCache::new(1);
        assert!(Layout::new(std::slice::from_ref(&ex), &columns, usize::MAX, &cache).is_none());
        columns.push(empty);
        let psi = TableExtractor::new(columns);
        let examples = std::slice::from_ref(&ex);
        assert!(assert_labels_match_the_oracle(
            examples,
            &psi,
            10,
            "empty column"
        ));
        let psi = TableExtractor::new(psi.columns[..12].to_vec());
        let ex = Example::new(wide(50), Table::anonymous(12));
        assert!(!assert_labels_match_the_oracle(
            &[ex],
            &psi,
            usize::MAX,
            "overflow"
        ));
    }

    /// The first `max` candidates of each example's column automata, in the
    /// search's pop order, with the first `words` words of each column.
    fn automaton_candidates(
        examples: &[Example],
        limits: crate::dfa::DfaLimits,
        words: usize,
        max: usize,
    ) -> Vec<TableExtractor> {
        let arity = examples[0].output.arity();
        let automata = crate::column::learn_column_automata(examples, arity, limits, 1, None);
        let per_column: Vec<Vec<ColumnExtractor>> = automata
            .dfas
            .iter()
            .flatten()
            .map(|dfa| {
                let mut stream = dfa.stream(limits.max_word_len);
                std::iter::from_fn(|| stream.next_word())
                    .take(words)
                    .map(|word| ColumnExtractor::from_steps(&word))
                    .collect()
            })
            .collect();
        crate::synthesize::ordered_combinations(&per_column, max)
            .into_iter()
            .map(TableExtractor::new)
            .collect()
    }

    #[test]
    fn labels_match_the_oracle_on_table1_and_table2_candidates() {
        let mut accepted = 0;
        let mut tasks = 0;
        for task in mitra_datagen::generate_corpus()
            .iter()
            .filter(|t| t.expressible)
        {
            let example = Example::new(task.example.tree.clone(), task.example.output.clone());
            let examples = std::slice::from_ref(&example);
            let config = SynthConfig::default();
            for psi in automaton_candidates(examples, config.dfa_limits, 3, 8) {
                let what = format!("task {}, {psi:?}", task.name);
                let max_rows = config.max_intermediate_rows;
                accepted +=
                    assert_labels_match_the_oracle(examples, &psi, max_rows, &what) as usize;
            }
            tasks += 1;
        }
        assert_eq!(tasks, 92);

        // The dataset configuration, read field by field: mitra-datagen links its
        // own build of this crate.
        let config = mitra_datagen::datasets::dataset_synth_config();
        let limits = crate::dfa::DfaLimits {
            max_states: config.dfa_limits.max_states,
            max_word_len: config.dfa_limits.max_word_len,
        };
        let max_rows = config.max_intermediate_rows;
        let mut tables = 0;
        for spec in mitra_datagen::datasets::all_datasets() {
            let (sample, expected) = spec.generate(2);
            for table in &spec.schema().tables {
                let example = Example::new(sample.clone(), expected[&table.name].clone());
                let examples = std::slice::from_ref(&example);
                for psi in automaton_candidates(examples, limits, 2, 4) {
                    let what = format!("{} {}, {psi:?}", spec.name, table.name);
                    accepted +=
                        assert_labels_match_the_oracle(examples, &psi, max_rows, &what) as usize;
                }
                tables += 1;
            }
        }
        assert_eq!(tables, 50);
        assert!(accepted >= 900, "{accepted} accepted");
    }

    /// Two same-shaped subtrees `A` and `B` of `item`s with a `k` and a `v`
    /// leaf, and the table of their (k, v) pairs.
    fn twin_example() -> Example {
        let mut tree = mitra_hdt::Hdt::with_root("root");
        for side in ["A", "B"] {
            let subtree = tree.add_child(tree.root(), side, None);
            for (k, v) in [("1", "x"), ("2", "y")] {
                let item = tree.add_child(subtree, "item", None);
                tree.add_child(item, "k", Some(k.to_string()));
                tree.add_child(item, "v", Some(v.to_string()));
            }
        }
        Example {
            tree,
            output: Table::from_rows(&["k", "v"], &[&["1", "x"], &["2", "y"]]),
        }
    }

    /// The (k, v) columns read from one side's items.
    fn twin_psi(side: &str) -> TableExtractor {
        use ColumnExtractor as CE;
        let items = CE::children(CE::children(CE::Input, side), "item");
        TableExtractor::new(vec![
            CE::pchildren(items.clone(), "k", 0),
            CE::pchildren(items, "v", 0),
        ])
    }

    #[test]
    fn equal_cover_instances_are_solved_once_per_cache() {
        // The two candidates select different nodes, so the search's outcome memo
        // keeps them apart, but their cover instances are byte-equal.
        let ex = twin_example();
        let examples = std::slice::from_ref(&ex);
        let config = one_thread();
        let (a, b) = (twin_psi("A"), twin_psi("B"));
        let fresh = |psi: &TableExtractor| {
            learn_predicate(examples, psi, &config, &ColumnEvalCache::new(1))
                .expect("a predicate should be found")
        };
        let (want_a, want_b) = (fresh(&a), fresh(&b));

        let cache = ColumnEvalCache::new(1);
        assert_ne!(
            cache.column_nodes(0, &ex.tree, &a.columns[0]),
            cache.column_nodes(0, &ex.tree, &b.columns[0])
        );
        assert_eq!(
            learn_predicate(examples, &a, &config, &cache).as_ref(),
            Some(&want_a)
        );
        assert_eq!(cache.covers_len(), 1);
        // One entry after both: `b`'s instance is `a`'s, and `b` took `a`'s cover.
        assert_eq!(
            learn_predicate(examples, &b, &config, &cache).as_ref(),
            Some(&want_b)
        );
        assert_eq!(cache.covers_len(), 1);

        // The reference solves its covers itself: it neither reads nor fills the
        // memo of the cache it is given.
        let cache = ColumnEvalCache::new(1);
        for (psi, want) in [(&a, &want_a), (&b, &want_b)] {
            let reference = learn_predicate_reference(examples, psi, &config, &cache);
            assert_eq!(reference.as_ref(), Some(want));
        }
        assert_eq!(cache.covers_len(), 0);
    }

    #[test]
    fn impossible_output_returns_none() {
        // Output contains a row whose years value never co-occurs, and no predicate in
        // a tiny universe can separate it.
        let ex = Example {
            tree: social_network(2, 1),
            output: Table::from_rows(
                &["Person", "Friend-with", "years"],
                &[&["Alice", "Alice", "4"]],
            ),
        };
        let psi = social_psi();
        let config = SynthConfig {
            universe: UniverseConfig {
                max_node_extractor_depth: 0,
                ..Default::default()
            },
            ..one_thread()
        };
        // With only identity node extractors the spurious (Alice, Alice, 4) cannot be
        // distinguished from (Alice, Bob, 4) tuples sharing all leaf data... the learner
        // may or may not find a classifier, but it must not panic and must return a
        // predicate that actually reproduces the example if it returns one.
        if let Some(phi) = learn_predicate(
            std::slice::from_ref(&ex),
            &psi,
            &config,
            &ColumnEvalCache::new(1),
        ) {
            let prog = Program::new(psi, phi);
            assert!(eval_program(&ex.tree, &prog).unwrap().same_bag(&ex.output));
        }
    }
}
