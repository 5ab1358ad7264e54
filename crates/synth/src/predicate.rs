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
//!   any tuple-length vector is materialized.
//!
//! [`learn_predicate_reference`] retains the direct per-tuple evaluation over the
//! full universe; `tests/search_equivalence.rs` and the unit tests below assert
//! the two paths agree, and it serves as the oracle for differential testing.

use crate::cache::{ColumnEvalCache, ColumnPhiData};
use crate::cover::{solve_exact, solve_greedy, CoverInstance};
use crate::qm::minimize;
use crate::synthesize::Example;
use crate::universe::{construct_universe, UniverseConfig};
use mitra_dsl::ast::{CompareOp, Operand, Predicate, TableExtractor};
use mitra_dsl::eval::{cross_product, eval_predicate, node_value, EvalLimits};
use mitra_dsl::Value;
use mitra_hdt::NodeId;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// Node budget for the exact cover search.
const MAX_COVER_NODES: usize = 200_000;

/// Maximum number of distinct predicates kept after behaviour deduplication.
const MAX_UNIVERSE: usize = 20_000;

/// Configuration for predicate learning.
#[derive(Debug, Clone, Copy)]
pub struct PredicateLearnConfig {
    /// Universe construction knobs.
    pub universe: UniverseConfig,
    /// Upper bound on the number of intermediate tuples considered per example; larger
    /// intermediate tables cause the candidate ψ to be rejected (the top-level loop
    /// will try another one).
    pub max_intermediate_rows: usize,
    /// Use the exact branch-and-bound cover solver (true) or the greedy approximation.
    pub exact_cover: bool,
    /// Worker threads for the reference path's universe evaluation (1 = sequential;
    /// 0 = the process-global setting).  The fast path's truth vectors are cheap
    /// enough to always compute inline, so this only affects
    /// [`learn_predicate_reference`]; results are identical for every value.
    pub threads: usize,
}

impl Default for PredicateLearnConfig {
    fn default() -> Self {
        PredicateLearnConfig {
            universe: UniverseConfig::default(),
            max_intermediate_rows: 50_000,
            exact_cover: true,
            threads: 1,
        }
    }
}

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
/// universe bounds.
///
/// The top-level synthesis loop passes one `cache` for all candidate table
/// extractors of a task, which also shares the per-column [`ColumnPhiData`] across
/// every combo touching the same column extractor.
pub fn learn_predicate(
    examples: &[Example],
    psi: &TableExtractor,
    config: &PredicateLearnConfig,
    cache: &ColumnEvalCache,
) -> Option<Predicate> {
    let tuples = label_tuples(examples, psi, config.max_intermediate_rows, cache)?;
    if !tuples.iter().any(|t| t.positive) {
        return None;
    }
    if tuples.iter().all(|t| t.positive) {
        // The filter-free program already matches the example exactly: skip the
        // whole truth-vector universe (tentpole (d) — on exact extractors this is
        // the only predicate-learning work the search does).
        return Some(Predicate::True);
    }

    // Cross-product layout of the intermediate table: example blocks in order, and
    // within a block the *last* column varies fastest (the mixed-radix order of
    // `cross_product`), so tuple `t` of a block uses node
    // `(t / stride[c]) % count[c]` of column `c`.
    let arity = psi.columns.len();
    struct Block {
        base: usize,
        len: usize,
        counts: Vec<usize>,
        strides: Vec<usize>,
    }
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
    debug_assert_eq!(base, tuples.len(), "layout must match the labelled tuples");

    let per_column: Vec<Arc<ColumnPhiData>> = psi
        .columns
        .iter()
        .map(|pi| cache.phi_data(examples, pi, &config.universe))
        .collect();
    let constants = cache.constants(examples, config.universe.max_constants);

    // Tiles per-node truth bits across a block: bit `k` of column `c` covers every
    // tuple whose `c`-th digit is `k`.
    let tile_const = |vector: &mut [bool], block: &Block, col: usize, bits: &[bool]| {
        for t in 0..block.len {
            vector[block.base + t] = bits[(t / block.strides[col]) % block.counts[col]];
        }
    };

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

    let mut dedup = Dedup::default();
    let mut capped = false;

    // Rule 4: comparisons against constants.
    'outer4: for (i, data) in per_column.iter().enumerate() {
        for &p in &data.reps {
            for c in constants.iter() {
                for op in const_ops {
                    if matches!(
                        op,
                        CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge
                    ) && c.as_number().is_none()
                    {
                        continue;
                    }
                    let mut vector = vec![false; tuples.len()];
                    for (ex_idx, block) in layout.iter().enumerate() {
                        if block.len == 0 {
                            continue;
                        }
                        let tree = &examples[ex_idx].tree;
                        let bits: Vec<bool> = data.nodes[p][ex_idx]
                            .iter()
                            .map(|n| match node_value(tree, *n).compare(c) {
                                Some(ord) => op.test(ord),
                                None => false,
                            })
                            .collect();
                        tile_const(&mut vector, block, i, &bits);
                    }
                    let pred = Predicate::Compare {
                        extractor: data.phis[p].clone(),
                        index: i,
                        op: *op,
                        rhs: Operand::Const(c.clone()),
                    };
                    if !dedup.fold(pred, vector) {
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
    // exactly as the fold below would have dropped them.
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
        // comparability), internal pairs by node identity, mixed pairs are false
        // under both ops.
        let cell = |l: &crate::cache::NodeInfo,
                    r: &crate::cache::NodeInfo,
                    ln: NodeId,
                    rn: NodeId|
         -> (bool, bool) {
            if l.leaf && r.leaf {
                let eq = l.value == r.value;
                (
                    eq,
                    !eq && crate::cache::classes_comparable(l.class, r.class),
                )
            } else if !l.leaf && !r.leaf {
                let same = ln == rn;
                (same, !same)
            } else {
                (false, false)
            }
        };
        'outer5: for (i, data_i) in per_column.iter().enumerate() {
            for (j, data_j) in per_column.iter().enumerate() {
                for &p1 in &data_i.reps {
                    for &p2 in &data_j.reps {
                        if i == j && data_i.phis[p1] == data_j.phis[p2] {
                            continue; // trivially true under Eq
                        }
                        // Per-block cell tables for both ops: the diagonal only
                        // when i == j (both digits coincide), the full node-pair
                        // matrix otherwise.
                        let mut eq_blocks: Vec<Vec<bool>> = Vec::with_capacity(layout.len());
                        let mut ne_blocks: Vec<Vec<bool>> = Vec::with_capacity(layout.len());
                        let (mut eq_any_t, mut eq_any_f) = (false, false);
                        let (mut ne_any_t, mut ne_any_f) = (false, false);
                        for (ex_idx, block) in layout.iter().enumerate() {
                            if block.len == 0 {
                                eq_blocks.push(Vec::new());
                                ne_blocks.push(Vec::new());
                                continue;
                            }
                            let linfo = &data_i.info[p1][ex_idx];
                            let rinfo = &data_j.info[p2][ex_idx];
                            let lnodes = &data_i.nodes[p1][ex_idx];
                            let rnodes = &data_j.nodes[p2][ex_idx];
                            let mut eq;
                            let mut ne;
                            if i == j {
                                eq = Vec::with_capacity(linfo.len());
                                ne = Vec::with_capacity(linfo.len());
                                for k in 0..linfo.len() {
                                    let (e, n) = cell(&linfo[k], &rinfo[k], lnodes[k], rnodes[k]);
                                    eq.push(e);
                                    ne.push(n);
                                }
                            } else {
                                eq = Vec::with_capacity(linfo.len() * rinfo.len());
                                ne = Vec::with_capacity(linfo.len() * rinfo.len());
                                for (ki, li) in linfo.iter().enumerate() {
                                    for (kj, rj) in rinfo.iter().enumerate() {
                                        let (e, n) = cell(li, rj, lnodes[ki], rnodes[kj]);
                                        eq.push(e);
                                        ne.push(n);
                                    }
                                }
                            }
                            for &b in &eq {
                                eq_any_t |= b;
                                eq_any_f |= !b;
                            }
                            for &b in &ne {
                                ne_any_t |= b;
                                ne_any_f |= !b;
                            }
                            eq_blocks.push(eq);
                            ne_blocks.push(ne);
                        }
                        // The blocks are full cross products, so every cell is hit
                        // by some tuple: the vector is constant iff the cells are.
                        for (op, cells, any_t, any_f) in [
                            (CompareOp::Eq, &eq_blocks, eq_any_t, eq_any_f),
                            (CompareOp::Ne, &ne_blocks, ne_any_t, ne_any_f),
                        ] {
                            if !(any_t && any_f) {
                                continue; // constant vector: the fold would drop it
                            }
                            let mut vector = vec![false; tuples.len()];
                            for (ex_idx, block) in layout.iter().enumerate() {
                                if block.len == 0 {
                                    continue;
                                }
                                let bits = &cells[ex_idx];
                                if i == j {
                                    tile_const(&mut vector, block, i, bits);
                                } else {
                                    let di = &digits[ex_idx][i];
                                    let dj = &digits[ex_idx][j];
                                    let cj = block.counts[j];
                                    for t in 0..block.len {
                                        vector[block.base + t] =
                                            bits[di[t] as usize * cj + dj[t] as usize];
                                    }
                                }
                            }
                            let pred = Predicate::Compare {
                                extractor: data_i.phis[p1].clone(),
                                index: i,
                                op,
                                rhs: Operand::Column {
                                    extractor: data_j.phis[p2].clone(),
                                    index: j,
                                },
                            };
                            if !dedup.fold(pred, vector) {
                                break 'outer5;
                            }
                        }
                    }
                }
            }
        }
    }

    classifier_from_kept(&tuples, dedup.kept, config)
}

/// Reference implementation of [`learn_predicate`]: full universe construction and
/// direct per-tuple [`eval_predicate`] evaluation.  Kept as the oracle for the
/// differential suite (`tests/search_equivalence.rs`) — the fast path must produce
/// byte-identical predicates.
pub fn learn_predicate_reference(
    examples: &[Example],
    psi: &TableExtractor,
    config: &PredicateLearnConfig,
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
    let truth_vector = |p: &Predicate| -> Vec<bool> {
        tuples
            .iter()
            .map(|t| eval_predicate(&examples[t.example].tree, &t.nodes, p))
            .collect()
    };
    let threads = mitra_pool::resolve(config.threads);
    // The candidates are independent, so the truth vectors fan out across workers;
    // the dedup fold below runs in universe order either way, so `kept` is identical
    // for every thread count.  Tiny universes stay inline: spawning costs more than
    // the evaluation itself.
    let prepared: Vec<(Predicate, Vec<bool>)> = if threads > 1 && universe.len() >= 64 {
        let vectors = mitra_pool::parallel_map(threads, &universe, |_, p| truth_vector(p));
        universe.into_iter().zip(vectors).collect()
    } else {
        universe
            .into_iter()
            .map(|p| {
                let v = truth_vector(&p);
                (p, v)
            })
            .collect()
    };
    let mut dedup = Dedup::default();
    for (p, vector) in prepared {
        if !dedup.fold(p, vector) {
            break;
        }
    }
    classifier_from_kept(&tuples, dedup.kept, config)
}

/// The behaviour dedup fold shared by the fast and reference paths: predicates
/// with a constant truth vector are dropped, the earliest predicate of each truth
/// class is kept, and a later strictly lighter member replaces it.
#[derive(Default)]
struct Dedup {
    /// `(predicate, truth vector, weight)` per truth class, in first-seen order.
    kept: Vec<(Predicate, Vec<bool>, usize)>,
    /// Index into `kept` by truth vector, packed 64 tuples to a word.  Every
    /// vector folded into one `Dedup` has the same length (the labelled tuple
    /// count), so packing keeps the classes apart, and a key hashes in one pass
    /// rather than one hasher call per tuple.
    by_vector: HashMap<Vec<u64>, usize>,
}

impl Dedup {
    /// Folds in one predicate; false once [`MAX_UNIVERSE`] classes are kept.
    fn fold(&mut self, p: Predicate, vector: Vec<bool>) -> bool {
        if vector.iter().all(|b| *b) || vector.iter().all(|b| !*b) {
            return true;
        }
        let size = predicate_weight(&p);
        let key: Vec<u64> = vector
            .chunks(64)
            .map(|bits| {
                bits.iter()
                    .rev()
                    .fold(0, |word, &b| word << 1 | u64::from(b))
            })
            .collect();
        match self.by_vector.entry(key) {
            Entry::Occupied(class) => {
                let kept = &mut self.kept[*class.get()];
                if size < kept.2 {
                    kept.0 = p;
                    kept.2 = size;
                }
            }
            Entry::Vacant(class) => {
                class.insert(self.kept.len());
                self.kept.push((p, vector, size));
                if self.kept.len() >= MAX_UNIVERSE {
                    return false;
                }
            }
        }
        true
    }
}

/// Algorithm 3 steps 3–4 over the deduplicated predicate set: minimum set cover of
/// the positive/negative pairs, then Quine–McCluskey DNF minimization.  Shared
/// verbatim by the fast and reference paths so any divergence is confined to the
/// truth-vector construction.
fn classifier_from_kept(
    tuples: &[LabelledTuple],
    kept: Vec<(Predicate, Vec<bool>, usize)>,
    config: &PredicateLearnConfig,
) -> Option<Predicate> {
    if kept.is_empty() {
        return None;
    }

    // Build the set-cover instance: elements are (positive, negative) pairs, a
    // predicate covers a pair when its truth value differs on the two tuples.
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
    let num_elements = pos_idx.len() * neg_idx.len();
    let covers: Vec<Vec<usize>> = kept
        .iter()
        .map(|(_, vector, _)| {
            let mut cov = Vec::new();
            for (pi, &p) in pos_idx.iter().enumerate() {
                for (ni, &n) in neg_idx.iter().enumerate() {
                    if vector[p] != vector[n] {
                        cov.push(pi * neg_idx.len() + ni);
                    }
                }
            }
            cov
        })
        .collect();
    let instance = CoverInstance {
        num_elements,
        covers,
        weights: kept.iter().map(|(_, _, s)| *s).collect(),
    };
    let chosen = if config.exact_cover {
        solve_exact(&instance, MAX_COVER_NODES)?
    } else {
        solve_greedy(&instance)?
    };
    if chosen.is_empty() {
        return None;
    }

    // Build the partial truth table over the chosen predicates and minimize.
    let on_set: Vec<Vec<bool>> = pos_idx
        .iter()
        .map(|&t| chosen.iter().map(|&k| kept[k].1[t]).collect())
        .collect();
    let off_set: Vec<Vec<bool>> = neg_idx
        .iter()
        .map(|&t| chosen.iter().map(|&k| kept[k].1[t]).collect())
        .collect();
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
    use mitra_dsl::ast::ColumnExtractor;
    use mitra_dsl::eval::eval_program;
    use mitra_dsl::{Program, Table};
    use mitra_hdt::generate::{nested_objects, social_network};

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
            &PredicateLearnConfig::default(),
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
        let phi = learn_predicate(
            &[ex],
            &psi,
            &PredicateLearnConfig::default(),
            &ColumnEvalCache::new(1),
        )
        .unwrap();
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
            &PredicateLearnConfig::default(),
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
        let config = PredicateLearnConfig::default();
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
            let config = PredicateLearnConfig {
                universe: UniverseConfig {
                    with_ordering,
                    ..Default::default()
                },
                ..Default::default()
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
            &PredicateLearnConfig::default(),
            &ColumnEvalCache::new(1),
        );
        for threads in [2, 4] {
            let config = PredicateLearnConfig {
                threads,
                ..Default::default()
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

    #[test]
    fn greedy_mode_also_learns_a_correct_predicate() {
        let ex = social_example();
        let psi = social_psi();
        let config = PredicateLearnConfig {
            exact_cover: false,
            ..Default::default()
        };
        let phi = learn_predicate(
            std::slice::from_ref(&ex),
            &psi,
            &config,
            &ColumnEvalCache::new(1),
        )
        .expect("greedy predicate");
        let prog = Program::new(psi, phi);
        assert!(eval_program(&ex.tree, &prog).unwrap().same_bag(&ex.output));
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
        let config = PredicateLearnConfig {
            universe: UniverseConfig {
                max_node_extractor_depth: 0,
                ..Default::default()
            },
            ..Default::default()
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
