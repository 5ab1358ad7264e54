//! The heuristic cost function θ (Section 6, Occam's razor ranking).
//!
//! Given two candidate programs, the one with fewer atomic predicates wins; ties are
//! broken by the number of constructs used in the column extractors, then by the total
//! size of node extractors inside predicates (a refinement that keeps ranking
//! deterministic).

use crate::ast::{Operand, Predicate, Program};

/// A program cost.  Lower is simpler/better.  Ordering is lexicographic over
/// `(atomic predicates, column-extractor constructs, node-extractor steps)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cost {
    /// Number of atomic predicate occurrences in φ (primary criterion).
    pub atoms: usize,
    /// Total number of constructs in the column extractors (secondary criterion).
    pub extractor_constructs: usize,
    /// Total number of parent/child steps inside predicate node extractors (tie break).
    pub node_extractor_steps: usize,
}

impl Cost {
    /// The maximum possible cost; useful as the initial value of a running minimum
    /// (plays the role of θ(⊥) = ∞ in Algorithm 1).
    pub const MAX: Cost = Cost {
        atoms: usize::MAX,
        extractor_constructs: usize::MAX,
        node_extractor_steps: usize::MAX,
    };

    /// An admissible lower bound on the cost of any program whose predicate has at
    /// least `atoms` atoms and whose table extractor has at least
    /// `extractor_constructs` constructs: the best-first search compares incumbents
    /// against these bounds to prune combos and to prove minimality at termination.
    /// It passes the examples' atom floor as `atoms` (every program consistent with
    /// them has that many; DESIGN.md §8), raised to 1 for a combo whose row product
    /// differs from an example's output size.
    ///
    /// Admissibility rests on θ being lexicographic with non-negative components —
    /// zeroing the `node_extractor_steps` tie-break can only under-estimate.
    pub const fn lower_bound(atoms: usize, extractor_constructs: usize) -> Cost {
        Cost {
            atoms,
            extractor_constructs,
            node_extractor_steps: 0,
        }
    }
}

/// Computes θ(P).
pub fn cost(program: &Program) -> Cost {
    Cost {
        atoms: program.predicate.atom_count(),
        extractor_constructs: program.extractor.size(),
        node_extractor_steps: predicate_extractor_steps(&program.predicate),
    }
}

fn predicate_extractor_steps(p: &Predicate) -> usize {
    match p {
        Predicate::True | Predicate::False => 0,
        Predicate::Compare { extractor, rhs, .. } => {
            extractor.size()
                + match rhs {
                    Operand::Const(_) => 0,
                    Operand::Column { extractor, .. } => extractor.size(),
                }
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            predicate_extractor_steps(a) + predicate_extractor_steps(b)
        }
        Predicate::Not(a) => predicate_extractor_steps(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ColumnExtractor, CompareOp, NodeExtractor, TableExtractor};
    use crate::value::Value;

    fn simple_program(n_atoms: usize, extractor_depth: usize) -> Program {
        let mut pi = ColumnExtractor::Input;
        for i in 0..extractor_depth {
            pi = ColumnExtractor::children(pi, format!("t{i}"));
        }
        let atom = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::int(1)),
        };
        let mut pred = Predicate::True;
        for _ in 0..n_atoms {
            pred = Predicate::and(pred, atom.clone());
        }
        Program::new(TableExtractor::new(vec![pi]), pred)
    }

    #[test]
    fn fewer_atoms_always_wins() {
        let p1 = simple_program(1, 10);
        let p2 = simple_program(2, 1);
        assert!(cost(&p1) < cost(&p2));
    }

    #[test]
    fn ties_broken_by_extractor_size() {
        let p1 = simple_program(2, 1);
        let p2 = simple_program(2, 3);
        assert!(cost(&p1) < cost(&p2));
    }

    #[test]
    fn max_cost_is_greater_than_any_real_cost() {
        let p = simple_program(5, 5);
        assert!(cost(&p) < Cost::MAX);
    }

    #[test]
    fn node_extractor_steps_counted() {
        let deep = Predicate::Compare {
            extractor: NodeExtractor::parent(NodeExtractor::parent(NodeExtractor::Id)),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::Id, "x", 0),
                index: 1,
            },
        };
        let shallow = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::Id,
                index: 1,
            },
        };
        let psi = TableExtractor::new(vec![ColumnExtractor::Input, ColumnExtractor::Input]);
        let c_deep = cost(&Program::new(psi.clone(), deep));
        let c_shallow = cost(&Program::new(psi, shallow));
        assert!(c_shallow < c_deep);
    }
}
