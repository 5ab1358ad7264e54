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
//!   across the cross-product layout of the intermediate table;
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
//! full universe, and it calls [`solve_exact`] itself instead of the memo;
//! `tests/search_equivalence.rs` and the unit tests below assert the two paths
//! agree, and it serves as the oracle for differential testing.
//!
//! Spans `label_tuples`, `truth_vectors`, `cover` and `qm` split the caller's
//! `predicate_learn` span, and each call adds its tallies to the counters
//! `synth.predicate.{vectors,constant_skipped,kept}`.

use crate::bits;
use crate::cache::{ColumnEvalCache, ColumnPhiData};
use crate::cover::{solve_exact, Cover, CoverInstance, MAX_COVER_NODES};
use crate::qm::minimize;
use crate::synthesize::{Example, SynthConfig};
use crate::universe::construct_universe;
use mitra_dsl::ast::{CompareOp, Operand, Predicate, TableExtractor};
use mitra_dsl::eval::{cross_product, eval_predicate, node_value, EvalLimits};
use mitra_dsl::Value;
use mitra_hdt::NodeId;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum number of distinct predicates kept after behaviour deduplication.
const MAX_UNIVERSE: usize = 20_000;

/// A labelled tuple of the intermediate table.
#[derive(Debug, Clone)]
pub struct LabelledTuple {
    /// Index of the example this tuple came from.
    pub example: usize,
    /// The node tuple.
    pub nodes: Vec<NodeId>,
    /// True when the tuple's data projection appears in the output example.
    pub positive: bool,
}

/// Builds the positive/negative example tuples for a candidate table extractor.
///
/// Returns `None` when an intermediate table exceeds `max_rows` (the candidate should
/// then be skipped) or when ψ does not overapproximate some output example (a required
/// precondition of Theorem 2).  Each distinct column extractor of ψ is evaluated at
/// most once per example across all candidates (and all pool workers) sharing
/// `cache`.
pub fn label_tuples(
    examples: &[Example],
    psi: &TableExtractor,
    max_rows: usize,
    cache: &ColumnEvalCache,
) -> Option<Vec<LabelledTuple>> {
    let mut out = Vec::new();
    let limits = EvalLimits::with_max_rows(max_rows);
    for (ex_idx, ex) in examples.iter().enumerate() {
        // The row cap doubles as the candidate filter: an oversized intermediate
        // table rejects the candidate without materializing anything.
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
            let positive = ex.output.contains_row(&values);
            if positive {
                for (ri, row) in ex.output.rows.iter().enumerate() {
                    if row.as_slice() == values.as_slice() {
                        covered_rows[ri] = true;
                    }
                }
            }
            out.push(LabelledTuple {
                example: ex_idx,
                nodes,
                positive,
            });
        }
        // ψ must overapproximate the output table: every output row must be produced
        // by at least one tuple.
        if !covered_rows.iter().all(|b| *b) {
            return None;
        }
    }
    Some(out)
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
    let tuples = {
        let _span = mitra_trace::span("synth", "label_tuples");
        label_tuples(examples, psi, config.max_intermediate_rows, cache)?
    };
    if !tuples.iter().any(|t| t.positive) {
        return None;
    }
    if tuples.iter().all(|t| t.positive) {
        // The filter-free program already matches the example exactly: skip the
        // whole truth-vector universe (tentpole (d) — on exact extractors this is
        // the only predicate-learning work the search does).
        return Some(Predicate::True);
    }
    let kept = {
        let _span = mitra_trace::span("synth", "truth_vectors");
        truth_vectors(examples, psi, tuples.len(), config, cache)
    };
    classifier_from_kept(&tuples, kept, |instance| cache.cover(instance))
}

/// Cross-product layout of one example's block of the intermediate table.
struct Block {
    base: usize,
    len: usize,
    counts: Vec<usize>,
    strides: Vec<usize>,
}

impl Block {
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
}

/// Rules 4 and 5 of the universe over behaviour-class representatives, folded
/// into the kept truth classes (see the module docs).
fn truth_vectors(
    examples: &[Example],
    psi: &TableExtractor,
    num_tuples: usize,
    config: &SynthConfig,
    cache: &ColumnEvalCache,
) -> Vec<(Predicate, Vec<u64>, usize)> {
    // Cross-product layout of the intermediate table: example blocks in order, and
    // within a block the *last* column varies fastest (the mixed-radix order of
    // `cross_product`), so tuple `t` of a block uses node
    // `(t / stride[c]) % count[c]` of column `c`.
    let arity = psi.columns.len();
    let mut layout: Vec<Block> = Vec::with_capacity(examples.len());
    let mut base = 0usize;
    for (ex_idx, ex) in examples.iter().enumerate() {
        let counts: Vec<usize> = psi
            .columns
            .iter()
            .map(|pi| cache.column_nodes(ex_idx, &ex.tree, pi).len())
            .collect();
        let len = counts.iter().product::<usize>();
        let mut strides = vec![1usize; arity];
        for c in (0..arity.saturating_sub(1)).rev() {
            strides[c] = strides[c + 1] * counts[c + 1];
        }
        layout.push(Block {
            base,
            len,
            counts,
            strides,
        });
        base += len;
    }
    debug_assert_eq!(base, num_tuples, "layout must match the labelled tuples");

    let per_column: Vec<Arc<ColumnPhiData>> = psi
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

    let mut dedup = Dedup::new(num_tuples);
    // One truth-vector buffer for every predicate of this call.
    let mut vector = bits::zeros(num_tuples);
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
                    for (e, block) in layout.iter().enumerate() {
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
                    for (e, block) in layout.iter().enumerate() {
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
        // Mixed-radix digit of every tuple per column, so non-diagonal tiling is a
        // pair of table lookups instead of two divisions.
        let digits: Vec<Vec<Vec<u32>>> = layout
            .iter()
            .map(|block| {
                (0..arity)
                    .map(|c| {
                        (0..block.len)
                            .map(|t| ((t / block.strides[c]) % block.counts[c]) as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect();
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
        let mut cell_start: Vec<usize> = Vec::with_capacity(layout.len());
        'outer5: for (i, data_i) in per_column.iter().enumerate() {
            for (j, data_j) in per_column.iter().enumerate() {
                for &p1 in &data_i.reps {
                    for &p2 in &data_j.reps {
                        if i == j && data_i.phis[p1] == data_j.phis[p2] {
                            continue; // trivially true under Eq
                        }
                        // The diagonal only when i == j (both digits coincide), the
                        // full node-pair matrix otherwise.
                        eq_cells.clear();
                        ne_cells.clear();
                        cell_start.clear();
                        let (mut eq_any_t, mut eq_any_f) = (false, false);
                        let (mut ne_any_t, mut ne_any_f) = (false, false);
                        for (ex_idx, block) in layout.iter().enumerate() {
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
                            for (ex_idx, block) in layout.iter().enumerate() {
                                if block.len == 0 {
                                    continue;
                                }
                                let cell_bits = &cells[cell_start[ex_idx]..];
                                if i == j {
                                    block.tile(&mut vector, i, |k| cell_bits[k]);
                                } else {
                                    let di = &digits[ex_idx][i];
                                    let dj = &digits[ex_idx][j];
                                    let cj = block.counts[j];
                                    for t in 0..block.len {
                                        if cell_bits[di[t] as usize * cj + dj[t] as usize] {
                                            bits::set(&mut vector, block.base + t);
                                        }
                                    }
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
    let tuples = label_tuples(examples, psi, config.max_intermediate_rows, cache)?;
    if !tuples.iter().any(|t| t.positive) {
        return None;
    }
    if tuples.iter().all(|t| t.positive) {
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
    let truth_vector = |p: &Predicate| -> Vec<u64> {
        let mut vector = bits::zeros(tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            if eval_predicate(&examples[t.example].tree, &t.nodes, p) {
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
    classifier_from_kept(&tuples, dedup.into_kept(), |instance| {
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
/// [`solve_exact`] itself.
fn classifier_from_kept(
    tuples: &[LabelledTuple],
    kept: Vec<(Predicate, Vec<u64>, usize)>,
    solve: impl FnOnce(CoverInstance) -> Option<Cover>,
) -> Option<Predicate> {
    if kept.is_empty() {
        return None;
    }
    let pos_idx: Vec<usize> = tuples
        .iter()
        .enumerate()
        .filter(|(_, t)| t.positive)
        .map(|(i, _)| i)
        .collect();
    let neg_idx: Vec<usize> = tuples
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.positive)
        .map(|(i, _)| i)
        .collect();

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
    use mitra_dsl::ast::ColumnExtractor;
    use mitra_dsl::eval::eval_program;
    use mitra_dsl::{Program, Table};
    use mitra_hdt::generate::{nested_objects, social_network};

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
    fn label_tuples_marks_positive_rows() {
        let ex = social_example();
        let tuples = label_tuples(&[ex], &social_psi(), 10_000, &ColumnEvalCache::new(1)).unwrap();
        // 2 names × 2 names × 2 years = 8 tuples, 2 of which are positive.
        assert_eq!(tuples.len(), 8);
        assert_eq!(tuples.iter().filter(|t| t.positive).count(), 2);
    }

    #[test]
    fn label_tuples_rejects_non_overapproximating_extractor() {
        let ex = social_example();
        // Only one column extractor -> arity mismatch means no row can be covered.
        let psi = TableExtractor::new(vec![ColumnExtractor::children(
            ColumnExtractor::Input,
            "Person",
        )]);
        assert!(label_tuples(&[ex], &psi, 10_000, &ColumnEvalCache::new(1)).is_none());
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
        let first = label_tuples(std::slice::from_ref(&ex), &psi, 10_000, &cache).unwrap();
        let cached_entries = cache.len();
        // ψ has two identical name columns -> strictly fewer cache entries than
        // columns; relabelling with the same cache must not grow it.
        assert!(cached_entries < psi.columns.len() + 1);
        let second = label_tuples(std::slice::from_ref(&ex), &psi, 10_000, &cache).unwrap();
        assert_eq!(cache.len(), cached_entries);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.positive, b.positive);
        }
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
