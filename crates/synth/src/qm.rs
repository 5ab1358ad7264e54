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

use crate::cover::{solve_exact, CoverInstance, MAX_COVER_NODES};

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

    /// Attempts to merge two terms differing in exactly one specified literal.
    fn merge(&self, other: &Term) -> Option<Term> {
        let mut diff = 0;
        let mut merged = Vec::with_capacity(self.literals.len());
        for (a, b) in self.literals.iter().zip(&other.literals) {
            if a == b {
                merged.push(*a);
            } else if a.is_some() && b.is_some() {
                diff += 1;
                if diff > 1 {
                    return None;
                }
                merged.push(None);
            } else {
                return None;
            }
        }
        if diff == 1 {
            Some(Term { literals: merged })
        } else {
            None
        }
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

/// Minimizes a partially-specified boolean function of `num_vars` variables.
///
/// `on_set` are assignments that must evaluate to true, `off_set` assignments that must
/// evaluate to false; everything else is a don't-care.  Returns `None` when the
/// specification is contradictory (some assignment appears in both sets).
pub fn minimize(num_vars: usize, on_set: &[Vec<bool>], off_set: &[Vec<bool>]) -> Option<Dnf> {
    // Contradiction check.
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

    // Don't-cares: all assignments not in on ∪ off.  Only enumerate them when the
    // variable count is small enough; otherwise minimize without don't-cares (still
    // correct, possibly less minimal).
    let mut care_terms: Vec<Term> = on.iter().map(|a| Term::minterm(a)).collect();
    if num_vars <= 14 {
        for code in 0u32..(1u32 << num_vars) {
            let assignment: Vec<bool> = (0..num_vars).map(|i| (code >> i) & 1 == 1).collect();
            if !on.contains(&assignment) && !off.contains(&assignment) {
                care_terms.push(Term::minterm(&assignment));
            }
        }
    }

    // Step 1: prime implicants by iterative merging.
    let mut primes: Vec<Term> = Vec::new();
    let mut current = care_terms;
    current.sort_by_key(|t| t.literals.clone());
    current.dedup();
    while !current.is_empty() {
        let mut merged_any = vec![false; current.len()];
        let mut next: Vec<Term> = Vec::new();
        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                if let Some(m) = current[i].merge(&current[j]) {
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

    // Step 2: minimum cover of the on-set by prime implicants (Petrick), via the exact
    // set-cover solver.  Weights = literal counts so that ties favour shorter terms.
    let matrix: Vec<Vec<bool>> = primes
        .iter()
        .map(|p| on.iter().map(|a| p.matches(a)).collect())
        .collect();
    let mut instance = CoverInstance::from_matrix(&matrix);
    instance.weights = primes.iter().map(Term::num_literals).collect();
    let chosen = solve_exact(&instance, MAX_COVER_NODES)?;
    let terms = chosen.into_iter().map(|k| primes[k].clone()).collect();
    let dnf = Dnf { terms };

    // Sanity: the result must satisfy the specification.
    debug_assert!(on.iter().all(|a| dnf.eval(a)));
    debug_assert!(off.iter().all(|a| !dnf.eval(a)));
    Some(dnf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignment(bits: &[u8]) -> Vec<bool> {
        bits.iter().map(|b| *b == 1).collect()
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
        let m = a.merge(&b).unwrap();
        assert_eq!(m.literals, vec![Some(true), None, Some(true)]);
        // Terms differing in two positions do not merge.
        let c = Term::minterm(&assignment(&[0, 1, 0]));
        assert!(a.merge(&c).is_none());
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
