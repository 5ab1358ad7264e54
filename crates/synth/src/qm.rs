//! Quine–McCluskey logic minimization with don't-cares.
//!
//! Algorithm 3 needs, after the minimum predicate set Φ* has been chosen, a *smallest
//! DNF formula* over Φ* that evaluates to true on every positive example and false on
//! every negative example (Figure 13 in the paper).  The truth table is partial: only
//! the combinations actually observed among the examples are constrained, every other
//! combination is a don't-care that the minimizer may use freely.
//!
//! The implementation follows the classical two-step method:
//! 1. compute all prime implicants of (on-set ∪ don't-care-set) by iterative merging,
//! 2. choose a minimum subset of prime implicants covering the on-set (Petrick's
//!    problem), reusing the exact set-cover solver from [`crate::cover`].
//!
//! ## Packed terms
//!
//! Inside [`minimize`] a term is packed into `u64` words: the care bits (which
//! variables appear) and then the value bits, 64 variables to a word, so every
//! variable count takes one code path.  Two terms merge when they have the same
//! care bits and their values differ in exactly one of them, so a term's merge
//! partners are found by flipping each of its care bits in turn and looking the
//! result up in a hash index of its level; each level is deduplicated through a
//! hash set, and level 0 (the on-set and the don't-cares) is the codes a 2^n
//! bitmap of the off-set leaves unmarked.  The result is the one the list-based
//! minimizer this replaced computed, which the test module keeps as the oracle:
//! level 0 is sorted in its literal order (`None < Some(false) < Some(true)`,
//! variable 0 first), later levels keep the order in which merges first produce
//! a term (pairs `(i, j)`, `i < j`, in lexicographic order), primes keep the
//! order in which terms go unmerged, and Petrick's instance, weights and answer
//! follow from those.

use crate::bits;
use crate::cover::{solve_exact, CoverInstance, MAX_COVER_NODES};
use std::collections::{HashMap, HashSet};

/// A product term over `n` boolean variables: for each variable either a required
/// value or "don't care" (the variable does not appear in the term).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Term {
    /// `literals[i]` is `Some(true)` for the positive literal, `Some(false)` for the
    /// negated literal, `None` when variable `i` does not appear.
    pub literals: Vec<Option<bool>>,
}

impl Term {
    /// The term consisting of exactly one assignment (a minterm).
    pub fn minterm(assignment: &[bool]) -> Term {
        Term {
            literals: assignment.iter().map(|b| Some(*b)).collect(),
        }
    }

    /// Number of literals in the term.
    pub fn num_literals(&self) -> usize {
        self.literals.iter().filter(|l| l.is_some()).count()
    }

    /// Whether the term evaluates to true under the given assignment.
    pub fn matches(&self, assignment: &[bool]) -> bool {
        self.literals
            .iter()
            .zip(assignment)
            .all(|(lit, val)| match lit {
                None => true,
                Some(required) => required == val,
            })
    }
}

/// A DNF formula: disjunction of product terms.  An empty disjunction is `false`; a
/// formula containing an empty term (no literals) is `true`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dnf {
    /// The terms of the formula.
    pub terms: Vec<Term>,
}

impl Dnf {
    /// Evaluates the formula under an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.terms.iter().any(|t| t.matches(assignment))
    }

    /// Total number of literal occurrences (used to compare formula sizes).
    pub fn literal_count(&self) -> usize {
        self.terms.iter().map(Term::num_literals).sum()
    }
}

/// A term over `num_vars` variables packed into `2 * words` words: `words` care
/// words, then `words` value words (see the module docs).  Value bits outside the
/// care bits, and all bits past `num_vars`, are clear.
type Packed = Box<[u64]>;

/// Minimizes a partially-specified boolean function of `num_vars` variables.
///
/// `on_set` are assignments that must evaluate to true, `off_set` assignments that must
/// evaluate to false; everything else is a don't-care.  Returns `None` when the
/// specification is contradictory (some assignment appears in both sets).
pub fn minimize(num_vars: usize, on_set: &[Vec<bool>], off_set: &[Vec<bool>]) -> Option<Dnf> {
    let words = num_vars.div_ceil(64);
    let minterm = |assignment: &[bool]| -> Packed {
        let mut term = vec![0u64; 2 * words];
        for (i, &b) in assignment.iter().enumerate() {
            bits::set(&mut term[..words], i);
            if b {
                bits::set(&mut term[words..], i);
            }
        }
        term.into_boxed_slice()
    };
    let off: HashSet<Packed> = off_set.iter().map(|a| minterm(a)).collect();
    let mut on: Vec<Packed> = on_set.iter().map(|a| minterm(a)).collect();
    // Contradiction check.
    if on.iter().any(|a| off.contains(a)) {
        return None;
    }
    // Minterms in literal order: by value, variable 0 most significant.
    let literal_order =
        |t: &Packed| -> Vec<u64> { t[words..].iter().map(|w| w.reverse_bits()).collect() };
    on.sort_by_cached_key(literal_order);
    on.dedup();
    if on.is_empty() {
        return Some(Dnf { terms: vec![] });
    }

    // Don't-cares: all assignments not in on ∪ off.  Only enumerate them when the
    // variable count is small enough; otherwise minimize without don't-cares (still
    // correct, possibly less minimal).  Level 0 is every code the off-set leaves
    // unmarked: the on-set and the don't-cares.
    let mut current: Vec<Packed> = if num_vars <= 14 {
        let code = |t: &Packed| t[words..].first().map_or(0, |&w| w as usize);
        let mut marked = vec![false; 1 << num_vars];
        for t in &off {
            marked[code(t)] = true;
        }
        let mut level: Vec<Packed> = (0..1usize << num_vars)
            .filter(|&c| !marked[c])
            .map(|c| minterm(&(0..num_vars).map(|i| c >> i & 1 == 1).collect::<Vec<_>>()))
            .collect();
        level.sort_by_cached_key(literal_order);
        level
    } else {
        on.clone()
    };

    // Step 1: prime implicants by iterative merging.  Each merge clears one care
    // bit, so level `k` holds terms of `num_vars - k` literals: a term unmerged at
    // one level never recurs at another, and `primes` needs no dedup.
    let mut primes: Vec<Packed> = Vec::new();
    // (partner index, care word, care bit) of one term, and a term to look up.
    let mut partners: Vec<(usize, usize, u64)> = Vec::new();
    let mut probe: Vec<u64> = vec![0; 2 * words];
    while !current.is_empty() {
        let index: HashMap<&[u64], usize> = current
            .iter()
            .enumerate()
            .map(|(i, t)| (&t[..], i))
            .collect();
        let mut merged_any = vec![false; current.len()];
        let mut next: Vec<Packed> = Vec::new();
        let mut seen: HashSet<Packed> = HashSet::new();
        for (i, term) in current.iter().enumerate() {
            // The later terms this one merges with, in index order: the pairs
            // `(i, j)` the list-based minimizer tried, in the order it tried them.
            partners.clear();
            probe.copy_from_slice(term);
            for w in 0..words {
                let mut care = term[w];
                while care != 0 {
                    let bit = care & care.wrapping_neg();
                    care &= care - 1;
                    probe[words + w] ^= bit;
                    match index.get(&probe[..]) {
                        Some(&j) if j > i => partners.push((j, w, bit)),
                        _ => {}
                    }
                    probe[words + w] ^= bit;
                }
            }
            partners.sort_unstable();
            for &(j, w, bit) in &partners {
                merged_any[i] = true;
                merged_any[j] = true;
                let mut merged = term.clone();
                merged[w] &= !bit;
                merged[words + w] &= !bit;
                if seen.insert(merged.clone()) {
                    next.push(merged);
                }
            }
        }
        drop(index);
        primes.extend(
            current
                .into_iter()
                .zip(merged_any)
                .filter(|(_, merged)| !merged)
                .map(|(t, _)| t),
        );
        current = next;
    }

    // Step 2: minimum cover of the on-set by prime implicants (Petrick), via the exact
    // set-cover solver.  Weights = literal counts so that ties favour shorter terms.
    let covers = primes
        .iter()
        .map(|p| {
            let mut row = bits::zeros(on.len());
            for (e, a) in on.iter().enumerate() {
                if (0..words).all(|w| (a[words + w] & p[w]) == p[words + w]) {
                    bits::set(&mut row, e);
                }
            }
            row
        })
        .collect();
    let instance = CoverInstance {
        num_elements: on.len(),
        covers,
        weights: primes
            .iter()
            .map(|p| p[..words].iter().map(|w| w.count_ones() as usize).sum())
            .collect(),
    };
    let chosen = solve_exact(&instance, MAX_COVER_NODES)?;
    let terms = chosen
        .into_iter()
        .map(|k| Term {
            literals: (0..num_vars)
                .map(|i| {
                    bits::get(&primes[k][..words], i).then(|| bits::get(&primes[k][words..], i))
                })
                .collect(),
        })
        .collect();
    let dnf = Dnf { terms };

    // Sanity: the result must satisfy the specification.
    debug_assert!(on_set.iter().all(|a| dnf.eval(a)));
    debug_assert!(off_set.iter().all(|a| !dnf.eval(a)));
    Some(dnf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(bits: &[u8]) -> Vec<bool> {
        bits.iter().map(|b| *b == 1).collect()
    }

    /// The list-based minimizer the packed one replaced: terms are
    /// `Vec<Option<bool>>`, merge partners come from trying every pair, and
    /// membership is a linear scan.  Kept as the oracle of [`minimize`]'s output,
    /// terms and their order included.
    mod reference {
        use super::super::{Dnf, Term};
        use crate::cover::{solve_exact, CoverInstance, MAX_COVER_NODES};

        /// Merges two terms differing in exactly one specified literal.
        pub fn merge(a: &Term, b: &Term) -> Option<Term> {
            let mut diff = 0;
            let mut merged = Vec::with_capacity(a.literals.len());
            for (x, y) in a.literals.iter().zip(&b.literals) {
                if x == y {
                    merged.push(*x);
                } else if x.is_some() && y.is_some() {
                    diff += 1;
                    if diff > 1 {
                        return None;
                    }
                    merged.push(None);
                } else {
                    return None;
                }
            }
            (diff == 1).then_some(Term { literals: merged })
        }

        pub fn minimize(
            num_vars: usize,
            on_set: &[Vec<bool>],
            off_set: &[Vec<bool>],
        ) -> Option<Dnf> {
            for on in on_set {
                if off_set.iter().any(|off| off == on) {
                    return None;
                }
            }
            let mut on: Vec<Vec<bool>> = on_set.to_vec();
            on.sort();
            on.dedup();
            if on.is_empty() {
                return Some(Dnf { terms: vec![] });
            }
            let mut off: Vec<Vec<bool>> = off_set.to_vec();
            off.sort();
            off.dedup();
            let mut care_terms: Vec<Term> = on.iter().map(|a| Term::minterm(a)).collect();
            if num_vars <= 14 {
                for code in 0u32..(1u32 << num_vars) {
                    let assignment: Vec<bool> =
                        (0..num_vars).map(|i| (code >> i) & 1 == 1).collect();
                    if !on.contains(&assignment) && !off.contains(&assignment) {
                        care_terms.push(Term::minterm(&assignment));
                    }
                }
            }
            let mut primes: Vec<Term> = Vec::new();
            let mut current = care_terms;
            current.sort_by_key(|t| t.literals.clone());
            current.dedup();
            while !current.is_empty() {
                let mut merged_any = vec![false; current.len()];
                let mut next: Vec<Term> = Vec::new();
                for i in 0..current.len() {
                    for j in (i + 1)..current.len() {
                        if let Some(m) = merge(&current[i], &current[j]) {
                            merged_any[i] = true;
                            merged_any[j] = true;
                            if !next.contains(&m) {
                                next.push(m);
                            }
                        }
                    }
                }
                for (i, t) in current.iter().enumerate() {
                    if !merged_any[i] && !primes.contains(t) {
                        primes.push(t.clone());
                    }
                }
                current = next;
            }
            let matrix: Vec<Vec<bool>> = primes
                .iter()
                .map(|p| on.iter().map(|a| p.matches(a)).collect())
                .collect();
            let mut instance = CoverInstance::from_matrix(&matrix);
            instance.weights = primes.iter().map(Term::num_literals).collect();
            let chosen = solve_exact(&instance, MAX_COVER_NODES)?;
            let terms = chosen.into_iter().map(|k| primes[k].clone()).collect();
            Some(Dnf { terms })
        }
    }

    /// SplitMix64: a seeded generator for the oracle loop.
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

        fn row(&mut self, num_vars: usize) -> Vec<bool> {
            (0..num_vars).map(|_| self.below(2) == 1).collect()
        }
    }

    #[test]
    fn packed_minimizer_matches_the_list_oracle() {
        let mut rng = Rng(0x0C0F_FEE5);
        let mut kinds = [0usize; 4]; // false, true-with-terms, contradiction, merged
        for case in 0..2400 {
            let (num_vars, mut on, mut off): (usize, Vec<Vec<bool>>, Vec<Vec<bool>>) =
                match case % 16 {
                    // 15–70 variables: no don't-cares are enumerated.  The on rows
                    // are one row with a few bits flipped, so some of them merge.
                    0..=3 => {
                        let n = 15 + rng.below(56);
                        let base = rng.row(n);
                        let on = (0..rng.below(10))
                            .map(|_| {
                                let mut row = base.clone();
                                for _ in 0..1 + rng.below(2) {
                                    let v = rng.below(n);
                                    row[v] = !row[v];
                                }
                                row
                            })
                            .collect();
                        let off = (0..rng.below(20)).map(|_| rng.row(n)).collect();
                        (n, on, off)
                    }
                    // 7–12 variables: the off-set leaves at most 40 codes free, near
                    // one another so that some merge, and the oracle's pairwise
                    // merging stays small.
                    4 | 5 => {
                        let n = 7 + rng.below(6);
                        let base = rng.below(1 << n);
                        let free: Vec<usize> = (0..1 + rng.below(40))
                            .map(|_| base ^ (1 << rng.below(n)) ^ (1 << rng.below(n)))
                            .collect();
                        let row =
                            |code: usize| (0..n).map(|i| (code >> i) & 1 == 1).collect::<Vec<_>>();
                        let on = free
                            .iter()
                            .filter(|_| rng.below(2) == 0)
                            .map(|&c| row(c))
                            .collect();
                        let off = (0..1usize << n)
                            .filter(|c| !free.contains(c))
                            .map(row)
                            .collect();
                        (n, on, off)
                    }
                    // 0–6 variables: any mix of on, off and don't-care rows.
                    _ => {
                        let n = rng.below(7);
                        let on = (0..rng.below(8)).map(|_| rng.row(n)).collect();
                        let off = (0..rng.below(1 + (1 << n) / 2))
                            .map(|_| rng.row(n))
                            .collect();
                        (n, on, off)
                    }
                };
            // Duplicate rows, and now and then a row in both sets.
            if !on.is_empty() && rng.below(4) == 0 {
                on.push(on[rng.below(on.len())].clone());
            }
            if !off.is_empty() && rng.below(4) == 0 {
                off.push(off[rng.below(off.len())].clone());
            }
            if !on.is_empty() && rng.below(12) == 0 {
                off.push(on[rng.below(on.len())].clone());
            }
            let want = reference::minimize(num_vars, &on, &off);
            assert_eq!(
                minimize(num_vars, &on, &off),
                want,
                "case {case}: {num_vars} variables, on {on:?}, off {off:?}"
            );
            match &want {
                None => kinds[2] += 1,
                Some(dnf) if dnf.terms.is_empty() => kinds[0] += 1,
                Some(dnf) if dnf.terms.iter().any(|t| t.num_literals() < num_vars) => kinds[3] += 1,
                Some(_) => kinds[1] += 1,
            }
        }
        // Every outcome must occur, or part of the minimizer is not under test.
        assert!(kinds.iter().all(|&n| n > 0), "outcomes: {kinds:?}");
    }

    #[test]
    fn single_positive_no_negative_is_trivially_true() {
        let dnf = minimize(2, &[assignment(&[1, 0])], &[]).unwrap();
        // With every other assignment a don't-care, the minimal formula is `true`
        // (a single empty term).
        assert_eq!(dnf.terms.len(), 1);
        assert_eq!(dnf.terms[0].num_literals(), 0);
        assert!(dnf.eval(&assignment(&[0, 0])));
    }

    #[test]
    fn contradiction_returns_none() {
        let a = assignment(&[1, 1]);
        assert!(minimize(2, std::slice::from_ref(&a), std::slice::from_ref(&a)).is_none());
    }

    #[test]
    fn empty_on_set_is_false() {
        let dnf = minimize(2, &[], &[assignment(&[0, 0])]).unwrap();
        assert!(dnf.terms.is_empty());
        assert!(!dnf.eval(&assignment(&[1, 1])));
    }

    #[test]
    fn xor_needs_two_terms() {
        let on = vec![assignment(&[0, 1]), assignment(&[1, 0])];
        let off = vec![assignment(&[0, 0]), assignment(&[1, 1])];
        let dnf = minimize(2, &on, &off).unwrap();
        assert_eq!(dnf.terms.len(), 2);
        for a in &on {
            assert!(dnf.eval(a));
        }
        for a in &off {
            assert!(!dnf.eval(a));
        }
    }

    #[test]
    fn dont_cares_enable_simplification() {
        // f(a,b,c): on = {111}, off = {000}.  Everything else don't-care, so a single
        // positive literal suffices.
        let dnf = minimize(3, &[assignment(&[1, 1, 1])], &[assignment(&[0, 0, 0])]).unwrap();
        assert_eq!(dnf.terms.len(), 1);
        assert_eq!(dnf.terms[0].num_literals(), 1);
    }

    #[test]
    fn paper_figure13_truth_table() {
        // Variables: (φ2, φ5, φ7).  Positive rows: (T,T,F), (T,T,T), (T,F,F);
        // negative rows: (F,F,F), (T,F,T), (F,F,T).  The paper reports the minimal
        // classifier φ5 ∨ (φ2 ∧ ¬φ7).
        let on = vec![
            assignment(&[1, 1, 0]),
            assignment(&[1, 1, 1]),
            assignment(&[1, 0, 0]),
        ];
        let off = vec![
            assignment(&[0, 0, 0]),
            assignment(&[1, 0, 1]),
            assignment(&[0, 0, 1]),
        ];
        let dnf = minimize(3, &on, &off).unwrap();
        for a in &on {
            assert!(dnf.eval(a));
        }
        for a in &off {
            assert!(!dnf.eval(a));
        }
        // Minimal solution uses 2 terms and 3 literal occurrences, matching
        // φ5 ∨ (φ2 ∧ ¬φ7).
        assert_eq!(dnf.terms.len(), 2);
        assert_eq!(dnf.literal_count(), 3);
    }

    #[test]
    fn term_merge_rules() {
        let a = Term::minterm(&assignment(&[1, 0, 1]));
        let b = Term::minterm(&assignment(&[1, 1, 1]));
        let m = reference::merge(&a, &b).unwrap();
        assert_eq!(m.literals, vec![Some(true), None, Some(true)]);
        // Terms differing in two positions do not merge.
        let c = Term::minterm(&assignment(&[0, 1, 0]));
        assert!(reference::merge(&a, &c).is_none());
    }

    #[test]
    fn five_variable_function_minimizes_correctly() {
        // f = x0 ∧ x4 with all combinations explicitly specified (no don't-cares).
        let mut on = Vec::new();
        let mut off = Vec::new();
        for code in 0u32..32 {
            let a: Vec<bool> = (0..5).map(|i| (code >> i) & 1 == 1).collect();
            if a[0] && a[4] {
                on.push(a);
            } else {
                off.push(a);
            }
        }
        let dnf = minimize(5, &on, &off).unwrap();
        assert_eq!(dnf.terms.len(), 1);
        assert_eq!(dnf.terms[0].num_literals(), 2);
    }
}
