//! Minimum predicate-set selection (`FindMinCover`, Algorithm 4).
//!
//! The paper formulates the problem as 0–1 integer linear programming: choose the
//! smallest subset of atomic predicates such that every (positive, negative) example
//! pair is *distinguished* by at least one chosen predicate.  This is exactly a
//! minimum set-cover instance where the elements are the pairs and each predicate
//! covers the pairs on which its truth value differs.
//!
//! Predicate learning (through the per-call memo of
//! [`crate::cache::ColumnEvalCache::cover`]) and QM's Petrick step call
//! [`solve_exact`], a branch-and-bound
//! search that returns an optimal cover (the behaviour required by Theorem 2).  Ties
//! between equally-sized covers are broken in favour of smaller total predicate
//! weight (we use the predicate's syntactic size as weight so the Occam's-razor
//! ranking is deterministic).  Its initial upper bound, and its answer when the node
//! cap stops it before it finds a better cover, is [`solve_greedy`], the classical
//! ln(n)-approximation.
//!
//! Both solvers return the empty cover for a zero-element instance.  Since the
//! cost-ordered search landed, predicate learning short-circuits the all-positive
//! case (`Predicate::True`) before constructing a universe, so the degenerate
//! no-negative-tuples instance no longer reaches these solvers from the synthesis
//! path; the early exits remain for direct callers.
//!
//! ## Packed rows and the search order
//!
//! Each set is one bitset row, 64 elements to a `u64` word, so a greedy gain is
//! `popcount(row & !covered)` and choosing a set is one word-wise OR.  The exact
//! search keeps the covered bitset of every depth on a stack instead of
//! per-element cover counters.  It visits its nodes in a fixed order — the greedy
//! bound first; the pivot is the first uncovered element in (coverer count,
//! element index) order; the pivot's coverers are tried in ascending set index —
//! and every node counts against `max_nodes`.  The memo answers a repeated
//! instance with the cover a new search would return, so it leaves the order
//! alone.
//!
//! ## Reduce, then search
//!
//! Before it searches, [`solve_exact`] drops two kinds of rows and columns that
//! cannot change its answer (DESIGN §8 has the proof):
//!
//! - **twin sets**: set `j` goes when an earlier set `i < j` has the identical
//!   row and `w_i ≤ w_j`.  A predicate and its complement distinguish the same
//!   pairs at the same weight, so about half of a predicate instance's rows go.
//!   Wherever `j` would be tried, `i` was tried first at no greater cost;
//! - **implied elements**: element `e` goes when an element `f` before it in the
//!   pivot order has `coverers(f) ⊆ coverers(e)`.  While `e` is uncovered so is
//!   `f`, so `e` is never a pivot, and covering `f` covers `e`.
//!
//! The search then runs on the kept rows, with the kept elements in the given
//! instance's pivot order, so it visits a subsequence of the nodes the unreduced
//! search visits, in the same order and with the same incumbents.  Where the
//! unreduced search finishes within the cap, the cover is the same; where the
//! cap would stop it, the reduced search gets further for the same nodes and
//! returns the same cover or a strictly cheaper one.  On a `table2` benchmark
//! pass the reductions cut the nodes visited from 3.99M to 0.53M and the capped
//! searches from 17 to 2.  The list-based solvers the bitset ones replaced
//! survive in the test module as the oracle of that statement.

use crate::bits;
use std::collections::HashMap;

/// Node budget of the exact cover search, shared by predicate learning and QM's
/// Petrick step.
pub const MAX_COVER_NODES: usize = 200_000;

/// A set-cover instance over the elements `0..num_elements`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoverInstance {
    /// Number of elements to cover.
    pub num_elements: usize,
    /// For each candidate set, its elements as a bitset: element `e` is bit
    /// `e % 64` of word `e / 64`.  Every row has `num_elements.div_ceil(64)`
    /// words, and the bits past `num_elements` are clear.
    pub covers: Vec<Vec<u64>>,
    /// Tie-breaking weight of each set (smaller preferred); typically predicate size.
    pub weights: Vec<usize>,
}

impl CoverInstance {
    /// Builds an instance from a boolean coverage matrix: `matrix[k][e]` is true when
    /// set `k` covers element `e`.
    pub fn from_matrix(matrix: &[Vec<bool>]) -> CoverInstance {
        let num_elements = matrix.first().map(Vec::len).unwrap_or(0);
        let covers = matrix
            .iter()
            .map(|row| {
                let mut set = bits::zeros(num_elements);
                for (e, _) in row.iter().enumerate().filter(|(_, b)| **b) {
                    bits::set(&mut set, e);
                }
                set
            })
            .collect();
        CoverInstance {
            num_elements,
            covers,
            weights: vec![1; matrix.len()],
        }
    }

    fn coverable(&self) -> bool {
        let mut covered = bits::zeros(self.num_elements);
        for row in &self.covers {
            or_into(&mut covered, row);
        }
        covered
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            == self.num_elements
    }
}

/// `dst |= src`, word by word.
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Number of elements of `row` not yet in `covered`.
fn gain(row: &[u64], covered: &[u64]) -> usize {
    row.iter()
        .zip(covered)
        .map(|(r, c)| (r & !c).count_ones() as usize)
        .sum()
}

/// Calls `f` with the index of every set bit of `set`, ascending.
fn for_each_one(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Result of a cover computation: the chosen set indices (sorted).
pub type Cover = Vec<usize>;

/// Greedy set cover: repeatedly picks the set covering the most uncovered elements
/// (ties broken by smaller weight, then smaller index).  Returns `None` when the
/// elements cannot be covered at all.
pub fn solve_greedy(instance: &CoverInstance) -> Option<Cover> {
    if instance.num_elements == 0 {
        return Some(Vec::new());
    }
    if !instance.coverable() {
        return None;
    }
    let mut covered = bits::zeros(instance.num_elements);
    let mut remaining = instance.num_elements;
    let mut chosen = Vec::new();
    while remaining > 0 {
        // A chosen set has no uncovered element left, so it never wins again.
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (k, row) in instance.covers.iter().enumerate() {
            let gain = gain(row, &covered);
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bg, bk)) => {
                    gain > bg
                        || (gain == bg && (instance.weights[k], k) < (instance.weights[bk], bk))
                }
            };
            if better {
                best = Some((gain, k));
            }
        }
        let (gain, k) = best?;
        chosen.push(k);
        or_into(&mut covered, &instance.covers[k]);
        remaining -= gain;
    }
    chosen.sort_unstable();
    Some(chosen)
}

/// The instance [`solve_exact`] searches: the given one without twin sets and
/// implied elements (module docs).
struct Reduced {
    /// The given index of each kept set, ascending.
    sets: Vec<usize>,
    /// Each kept set's row over the kept elements, where bit `p` is the `p`-th
    /// kept element in the given instance's pivot order.
    rows: Vec<Vec<u64>>,
    /// `coverers[p * set_words..][..set_words]`: the kept sets covering element
    /// `p`, a bitset over the indices of `sets`.
    coverers: Vec<u64>,
    set_words: usize,
}

impl Reduced {
    /// Number of kept elements.
    fn elements(&self) -> usize {
        self.coverers.len() / self.set_words
    }
}

/// Drops the twin sets and the implied elements of a coverable instance.
fn reduce(instance: &CoverInstance) -> Reduced {
    let n = instance.num_elements;
    // The pivot order: elements by (coverer count, index) in the given instance,
    // by a counting sort.
    let mut count = vec![0u32; n];
    for row in &instance.covers {
        for_each_one(row, |e| count[e] += 1);
    }
    let max_count = count.iter().copied().max().unwrap_or(0) as usize;
    let mut start = vec![0usize; max_count + 2];
    for &c in &count {
        start[c as usize + 1] += 1;
    }
    for c in 1..start.len() {
        start[c] += start[c - 1];
    }
    let mut order = vec![0usize; n];
    for (e, &c) in count.iter().enumerate() {
        order[start[c as usize]] = e;
        start[c as usize] += 1;
    }

    // Twin sets: keep a row only while it is lighter than every earlier copy.
    let mut lightest: HashMap<&[u64], usize> = HashMap::new();
    let sets: Vec<usize> = (0..instance.covers.len())
        .filter(|&k| {
            let weight = instance.weights[k];
            let min = lightest.entry(&instance.covers[k]).or_insert(usize::MAX);
            let kept = weight < *min;
            *min = (*min).min(weight);
            kept
        })
        .collect();

    // Each element's kept coverers, then the implied elements: an element is
    // kept unless the coverers of a kept element before it in pivot order are a
    // subset of its own.  Every dropped twin has a kept copy, so a subset here
    // is one in the given instance too, with no more coverers: it comes first
    // in pivot order unless the two are equal, and then the first of them is kept.
    let set_words = sets.len().div_ceil(64);
    let mut columns = vec![0u64; n * set_words];
    for (r, &k) in sets.iter().enumerate() {
        for_each_one(&instance.covers[k], |e| {
            columns[e * set_words + r / 64] |= 1 << (r % 64);
        });
    }
    let mut coverers: Vec<u64> = Vec::new();
    for &e in &order {
        let column = &columns[e * set_words..][..set_words];
        let implied = coverers
            .chunks_exact(set_words)
            .any(|f| f.iter().zip(column).all(|(f, c)| f & !c == 0));
        if !implied {
            coverers.extend_from_slice(column);
        }
    }

    let elements = coverers.len() / set_words;
    let mut rows = vec![bits::zeros(elements); sets.len()];
    for (p, column) in coverers.chunks_exact(set_words).enumerate() {
        for_each_one(column, |r| bits::set(&mut rows[r], p));
    }
    Reduced {
        sets,
        rows,
        coverers,
        set_words,
    }
}

/// Exact minimum set cover by branch and bound.
///
/// The objective is lexicographic: first minimize the number of chosen sets, then the
/// sum of their weights.  The search runs on the instance without its twin sets and
/// implied elements (module docs), and its answer is the one the search of the
/// whole instance gives, or at a binding cap that answer or a strictly cheaper
/// one.  `max_nodes` bounds the search effort; when exceeded the best solution
/// found so far (at worst the greedy one) is returned, so the result is always a
/// valid cover when one exists.  A one-set greedy cover is returned at once: no
/// other one-set cover is lighter, and a larger one cannot win.
pub fn solve_exact(instance: &CoverInstance, max_nodes: usize) -> Option<Cover> {
    if instance.num_elements == 0 {
        return Some(Vec::new());
    }
    let greedy = solve_greedy(instance)?;
    if greedy.len() == 1 {
        return Some(greedy);
    }
    let reduced = reduce(instance);
    let elements = reduced.elements();
    mitra_trace::counter_add!(
        "synth.cover.sets_dropped",
        (instance.covers.len() - reduced.sets.len()) as u64
    );
    mitra_trace::counter_add!(
        "synth.cover.elements_dropped",
        (instance.num_elements - elements) as u64
    );

    struct Search<'a> {
        instance: &'a CoverInstance,
        reduced: &'a Reduced,
        words: usize,
        /// `levels[d * words..][..words]`: the covered kept elements at depth `d`.
        levels: Vec<u64>,
        /// The given indices of the sets on the current path.
        chosen: Vec<usize>,
        best: Vec<usize>,
        best_cost: (usize, usize),
        nodes: usize,
        max_nodes: usize,
        capped: bool,
    }

    impl Search<'_> {
        /// `from`: the parent's pivot.  Every element before it was covered at
        /// the parent, and covered sets only grow with depth.
        fn run(&mut self, depth: usize, from: usize, uncovered: usize) {
            if self.nodes >= self.max_nodes {
                self.capped = true;
                return;
            }
            self.nodes += 1;
            if uncovered == 0 {
                let cost = cover_cost(self.instance, &self.chosen);
                if cost < self.best_cost {
                    self.best_cost = cost;
                    self.best = self.chosen.clone();
                }
                return;
            }
            // Lower bound: at least one more set is needed.
            if self.chosen.len() + 1 > self.best_cost.0 {
                return;
            }
            // Branch on the first uncovered element, which has the fewest
            // coverers; an uncovered one exists, so the scan stops in range.
            let level = depth * self.words;
            let covered = &self.levels[level..level + self.words];
            let mut w = from / 64;
            let mut free = !covered[w] & (!0u64 << (from % 64));
            while free == 0 {
                w += 1;
                free = !covered[w];
            }
            let pivot = w * 64 + free.trailing_zeros() as usize;
            if self.levels.len() < level + 2 * self.words {
                self.levels.resize(level + 2 * self.words, 0);
            }
            let set_words = self.reduced.set_words;
            for sw in 0..set_words {
                let mut rest = self.reduced.coverers[pivot * set_words + sw];
                while rest != 0 {
                    let r = sw * 64 + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let (parent, child) = self.levels[level..].split_at_mut(self.words);
                    let mut newly = 0;
                    for ((c, p), s) in child.iter_mut().zip(&*parent).zip(&self.reduced.rows[r]) {
                        newly += (s & !p).count_ones() as usize;
                        *c = p | s;
                    }
                    self.chosen.push(self.reduced.sets[r]);
                    self.run(depth + 1, pivot, uncovered - newly);
                    self.chosen.pop();
                }
            }
        }
    }

    let words = elements.div_ceil(64);
    let mut search = Search {
        instance,
        reduced: &reduced,
        words,
        levels: vec![0; words],
        chosen: Vec::new(),
        best_cost: cover_cost(instance, &greedy),
        best: greedy,
        nodes: 0,
        max_nodes,
        capped: false,
    };
    search.run(0, 0, elements);
    mitra_trace::counter_add!("synth.cover.nodes", search.nodes as u64);
    mitra_trace::counter_add!("synth.cover.node_cap_hits", u64::from(search.capped));
    let mut best = search.best;
    best.sort_unstable();
    Some(best)
}

fn cover_cost(instance: &CoverInstance, cover: &[usize]) -> (usize, usize) {
    (
        cover.len(),
        cover.iter().map(|&k| instance.weights[k]).sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(matrix: &[&[bool]]) -> CoverInstance {
        CoverInstance::from_matrix(&matrix.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
    }

    /// The elements of a row, ascending.
    fn elements(row: &[u64]) -> Vec<usize> {
        (0..row.len() * 64).filter(|&e| bits::get(row, e)).collect()
    }

    #[test]
    fn empty_instance_needs_nothing() {
        let inst = CoverInstance {
            num_elements: 0,
            covers: vec![],
            weights: vec![],
        };
        assert_eq!(solve_exact(&inst, 1000), Some(vec![]));
        assert_eq!(solve_greedy(&inst), Some(vec![]));
    }

    #[test]
    fn single_set_covering_everything() {
        let inst = instance(&[&[true, true, true]]);
        assert_eq!(solve_exact(&inst, 1000), Some(vec![0]));
    }

    #[test]
    fn uncoverable_returns_none() {
        let inst = instance(&[&[true, false, false], &[false, true, false]]);
        assert_eq!(solve_exact(&inst, 1000), None);
        assert_eq!(solve_greedy(&inst), None);
    }

    #[test]
    fn exact_beats_greedy_on_classic_trap() {
        // Elements 0..5.  Greedy picks the big set (covers 4), then needs 2 more = 3.
        // Optimal is the two disjoint sets of size 3 = 2 sets.
        let inst = instance(&[
            &[true, true, true, false, false, false], // A
            &[false, false, false, true, true, true], // B
            &[true, true, false, true, true, false],  // big greedy bait (covers 4)
            &[false, false, true, false, false, false],
            &[false, false, false, false, false, true],
        ]);
        let greedy = solve_greedy(&inst).unwrap();
        let exact = solve_exact(&inst, 100_000).unwrap();
        assert!(exact.len() <= greedy.len());
        assert_eq!(exact, vec![0, 1]);
        assert_eq!(greedy.len(), 3);
    }

    #[test]
    fn exact_respects_weights_on_ties() {
        // Two equally sized optimal covers exist; weights must break the tie.
        let mut inst = instance(&[&[true, true], &[true, true]]);
        inst.weights = vec![5, 1];
        let exact = solve_exact(&inst, 1000).unwrap();
        assert_eq!(exact, vec![1]);
    }

    #[test]
    fn paper_example5_cover_is_three_predicates() {
        // Figure 12 of the paper: rows are predicates φ1..φ7, columns are the nine
        // (positive, negative) pairs υ11..υ33.  The optimal cover has 3 predicates and
        // the paper reports {φ2, φ5, φ7}.
        let matrix: Vec<Vec<bool>> = vec![
            vec![true, true, false, false, false, true, false, false, true], // φ1
            vec![true, false, true, true, false, true, true, false, true],   // φ2
            vec![true, true, true, false, false, false, false, false, false], // φ3
            vec![true, true, false, false, false, true, false, false, true], // φ4
            vec![true, true, true, true, true, true, false, false, false],   // φ5
            vec![true, true, true, false, false, false, false, false, false], // φ6
            vec![false, true, true, true, false, false, false, true, true],  // φ7
        ];
        let inst = CoverInstance::from_matrix(&matrix);
        let exact = solve_exact(&inst, 1_000_000).unwrap();
        assert_eq!(exact.len(), 3);
        // Verify it is a genuine cover.
        let mut covered = [false; 9];
        for &k in &exact {
            for (e, b) in matrix[k].iter().enumerate() {
                if *b {
                    covered[e] = true;
                }
            }
        }
        assert!(covered.iter().all(|b| *b));
        // The paper's choice {φ2, φ5, φ7} (indices 1, 4, 6) is one optimal answer.
        assert!(exact.contains(&4), "φ5 is the only predicate covering υ22");
    }

    #[test]
    fn greedy_always_produces_valid_cover() {
        let inst = instance(&[
            &[true, false, true, false],
            &[false, true, false, true],
            &[true, true, false, false],
        ]);
        let cover = solve_greedy(&inst).unwrap();
        let mut covered = [false; 4];
        for &k in &cover {
            for e in elements(&inst.covers[k]) {
                covered[e] = true;
            }
        }
        assert!(covered.iter().all(|b| *b));
    }

    #[test]
    fn node_budget_still_returns_valid_cover() {
        let inst = instance(&[
            &[true, true, true, false, false, false],
            &[false, false, false, true, true, true],
            &[true, true, false, true, true, false],
            &[false, false, true, false, false, true],
        ]);
        let cover = solve_exact(&inst, 1).unwrap();
        let mut covered = [false; 6];
        for &k in &cover {
            for e in elements(&inst.covers[k]) {
                covered[e] = true;
            }
        }
        assert!(covered.iter().all(|b| *b));
    }

    /// The list-based solvers the bitset ones replaced: `covers[k]` lists set
    /// `k`'s elements in ascending order.  Kept as the oracle of the search order.
    mod reference {
        use super::super::Cover;

        pub struct Lists {
            pub num_elements: usize,
            pub covers: Vec<Vec<usize>>,
            pub weights: Vec<usize>,
        }

        fn cost(inst: &Lists, cover: &[usize]) -> (usize, usize) {
            (cover.len(), cover.iter().map(|&k| inst.weights[k]).sum())
        }

        pub fn solve_greedy(inst: &Lists) -> Option<Cover> {
            if inst.num_elements == 0 {
                return Some(Vec::new());
            }
            let mut covered = vec![false; inst.num_elements];
            for c in &inst.covers {
                for &e in c {
                    covered[e] = true;
                }
            }
            if !covered.iter().all(|b| *b) {
                return None;
            }
            let mut covered = vec![false; inst.num_elements];
            let mut remaining = inst.num_elements;
            let mut chosen = Vec::new();
            while remaining > 0 {
                let mut best: Option<(usize, usize)> = None;
                for (k, cov) in inst.covers.iter().enumerate() {
                    if chosen.contains(&k) {
                        continue;
                    }
                    let gain = cov.iter().filter(|&&e| !covered[e]).count();
                    if gain == 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((bg, bk)) => {
                            gain > bg
                                || (gain == bg && (inst.weights[k], k) < (inst.weights[bk], bk))
                        }
                    };
                    if better {
                        best = Some((gain, k));
                    }
                }
                let (_, k) = best?;
                chosen.push(k);
                for &e in &inst.covers[k] {
                    if !covered[e] {
                        covered[e] = true;
                        remaining -= 1;
                    }
                }
            }
            chosen.sort_unstable();
            Some(chosen)
        }

        /// The cover, and whether the search stopped at `max_nodes`.
        pub fn solve_exact(inst: &Lists, max_nodes: usize) -> (Option<Cover>, bool) {
            if inst.num_elements == 0 {
                return (Some(Vec::new()), false);
            }
            let Some(greedy) = solve_greedy(inst) else {
                return (None, false);
            };
            let mut coverers: Vec<Vec<usize>> = vec![Vec::new(); inst.num_elements];
            for (k, cov) in inst.covers.iter().enumerate() {
                for &e in cov {
                    coverers[e].push(k);
                }
            }
            struct Search<'a> {
                inst: &'a Lists,
                coverers: &'a [Vec<usize>],
                best: Vec<usize>,
                best_cost: (usize, usize),
                nodes: usize,
                max_nodes: usize,
                capped: bool,
            }
            impl Search<'_> {
                fn run(
                    &mut self,
                    chosen: &mut Vec<usize>,
                    covered: &mut [usize],
                    uncovered: usize,
                ) {
                    if self.nodes >= self.max_nodes {
                        self.capped = true;
                        return;
                    }
                    self.nodes += 1;
                    if uncovered == 0 {
                        let c = cost(self.inst, chosen);
                        if c < self.best_cost {
                            self.best_cost = c;
                            self.best = chosen.clone();
                        }
                        return;
                    }
                    if chosen.len() + 1 > self.best_cost.0 {
                        return;
                    }
                    let mut pivot: Option<usize> = None;
                    let mut pivot_options = usize::MAX;
                    for (e, cnt) in covered.iter().enumerate() {
                        if *cnt > 0 {
                            continue;
                        }
                        let options = self.coverers[e].len();
                        if options < pivot_options {
                            pivot_options = options;
                            pivot = Some(e);
                        }
                    }
                    let Some(pivot) = pivot else { return };
                    for k in self.coverers[pivot].clone() {
                        if chosen.contains(&k) {
                            continue;
                        }
                        chosen.push(k);
                        let mut newly = 0;
                        for &e in &self.inst.covers[k] {
                            if covered[e] == 0 {
                                newly += 1;
                            }
                            covered[e] += 1;
                        }
                        self.run(chosen, covered, uncovered - newly);
                        for &e in &self.inst.covers[k] {
                            covered[e] -= 1;
                        }
                        chosen.pop();
                    }
                }
            }
            let mut search = Search {
                inst,
                coverers: &coverers,
                best_cost: cost(inst, &greedy),
                best: greedy,
                nodes: 0,
                max_nodes,
                capped: false,
            };
            search.run(
                &mut Vec::new(),
                &mut vec![0; inst.num_elements],
                inst.num_elements,
            );
            let mut best = search.best;
            best.sort_unstable();
            (Some(best), search.capped)
        }
    }

    /// SplitMix64: a seeded generator for the oracle loop (no dependency).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Whether `cover` covers every element of `inst`.
    fn covers_all(inst: &CoverInstance, cover: &[usize]) -> bool {
        let mut covered = bits::zeros(inst.num_elements);
        for &k in cover {
            or_into(&mut covered, &inst.covers[k]);
        }
        bits::count(&covered) == inst.num_elements
    }

    #[test]
    fn bitset_solvers_match_the_list_oracle_at_every_cap() {
        // A reference search that runs into the 200,000-node cap takes ~50 ms in
        // release, so that cap runs on one instance in 30, offset from the
        // uncoverable tenth.
        let caps = [1, 10, 1_000, 200_000];
        let mut binding = [0usize; 4];
        let mut cheaper = 0;
        let (mut twins_dropped, mut implied_dropped) = (0, 0);
        let mut rng = Rng(0x5EED_C0DE);
        // Draws the planted rows and columns, so `rng` draws the same base
        // instances as before they were planted.
        let mut plant = Rng(0x0B5E_55ED);
        for case in 0..3000 {
            let num_elements = 1 + rng.below(300);
            let sets = 1 + rng.below(80);
            let density = [2, 5, 15, 40, 70][rng.below(5)];
            let max_weight = [1, 3, 10][rng.below(3)];
            let mut matrix: Vec<Vec<bool>> = (0..sets)
                .map(|_| {
                    (0..num_elements)
                        .map(|_| rng.below(100) < density)
                        .collect()
                })
                .collect();
            let mut weights: Vec<usize> = (0..sets).map(|_| 1 + rng.below(max_weight)).collect();
            if case % 10 == 0 {
                // No set covers this element: the instance is uncoverable.
                let hole = rng.below(num_elements);
                for row in &mut matrix {
                    row[hole] = false;
                }
            }
            if case % 3 != 0 {
                // Implied elements: an element's coverers and a few more, with a
                // later index.
                for _ in 0..1 + plant.below(20) {
                    let f = plant.below(matrix[0].len());
                    for row in &mut matrix {
                        let extra = plant.below(100) < density;
                        row.push(row[f] || extra);
                    }
                }
            }
            if case % 2 == 1 {
                // Twins: an earlier row again, at a weight one below (kept), equal
                // to or above (dropped) its own.
                for _ in 0..1 + plant.below(sets) {
                    let k = plant.below(matrix.len());
                    matrix.push(matrix[k].clone());
                    weights.push((weights[k] + plant.below(3)).saturating_sub(1).max(1));
                }
            }
            let mut inst = CoverInstance::from_matrix(&matrix);
            inst.weights = weights;
            let lists = reference::Lists {
                num_elements: inst.num_elements,
                covers: inst.covers.iter().map(|row| elements(row)).collect(),
                weights: inst.weights.clone(),
            };
            let greedy = solve_greedy(&inst);
            assert_eq!(
                greedy,
                reference::solve_greedy(&lists),
                "greedy, case {case}"
            );
            if greedy.is_some() {
                let reduced = reduce(&inst);
                twins_dropped += usize::from(reduced.sets.len() < inst.covers.len());
                implied_dropped += usize::from(reduced.elements() < inst.num_elements);
            }
            for (c, &cap) in caps.iter().enumerate() {
                if cap == 200_000 && case % 30 != 7 {
                    continue;
                }
                let (want, capped) = reference::solve_exact(&lists, cap);
                let got = solve_exact(&inst, cap);
                if got != want {
                    // Only a binding cap may differ, and only by a cheaper cover.
                    let (got, want) = (got.unwrap_or_default(), want.unwrap_or_default());
                    assert!(
                        capped
                            && covers_all(&inst, &got)
                            && cover_cost(&inst, &got) < cover_cost(&inst, &want),
                        "exact, case {case}, cap {cap}: {got:?} against {want:?}"
                    );
                    cheaper += 1;
                }
                binding[c] += usize::from(capped);
            }
        }
        // Every cap must bind somewhere, or the search order is not under test;
        // both reductions and the cheaper answer at a cap must occur.
        assert!(binding.iter().all(|&n| n > 0), "caps binding: {binding:?}");
        assert!(
            twins_dropped > 0 && implied_dropped > 0 && cheaper > 0,
            "instances with twins dropped {twins_dropped}, with implied elements \
             dropped {implied_dropped}, cheaper at a cap {cheaper}"
        );
    }
}
