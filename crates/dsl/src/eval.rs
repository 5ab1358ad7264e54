//! Denotational semantics of the DSL (Figure 7).
//!
//! This module implements the *naive* semantics: column extractors are evaluated
//! against the tree, the table extractor materializes the full cross product, and the
//! predicate filters rows.  This is exactly the meaning the synthesizer reasons about.
//! The optimized execution engine that avoids materializing the cross product lives in
//! `mitra-synth::exec` (Appendix C of the paper).

use crate::ast::{ColumnExtractor, NodeExtractor, Operand, Predicate, Program};
use crate::table::Table;
use crate::value::Value;
use mitra_hdt::{Hdt, NodeId};
use std::fmt;

/// Default cap on the number of rows the naive cross product may materialize.
///
/// The limit exists to turn a hopeless `children(s,a) × children(s,b) × …` blow-up
/// into a reported error instead of an out-of-memory abort; the optimized executor in
/// `mitra-synth::exec` is the right tool for large documents.
pub const DEFAULT_MAX_ROWS: usize = 4_000_000;

/// Resource limits applied by the naive evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalLimits {
    /// Maximum number of rows a materialized cross product may contain.
    pub max_rows: usize,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_rows: DEFAULT_MAX_ROWS,
        }
    }
}

impl EvalLimits {
    /// Limits with a specific row cap.
    pub fn with_max_rows(max_rows: usize) -> Self {
        EvalLimits { max_rows }
    }
}

/// Errors raised by the naive evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The product of the per-column set sizes overflowed `usize`.
    ProductOverflow {
        /// Number of columns in the offending table extractor.
        arity: usize,
    },
    /// The cross product would materialize more rows than the configured cap.
    TooManyRows {
        /// The number of rows the cross product would produce.
        rows: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::ProductOverflow { arity } => write!(
                f,
                "cross product of {arity} columns overflows the row counter"
            ),
            EvalError::TooManyRows { rows, cap } => write!(
                f,
                "cross product would materialize {rows} rows, above the cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a column extractor on a set of starting nodes, returning the extracted
/// node set in document order (duplicates possible, as in the paper's set-of-nodes with
/// multiplicity given by the traversal).
fn eval_column_from(tree: &Hdt, start: &[NodeId], pi: &ColumnExtractor) -> Vec<NodeId> {
    match pi {
        ColumnExtractor::Input => start.to_vec(),
        ColumnExtractor::Children { inner, tag } => {
            let base = eval_column_from(tree, start, inner);
            base.iter()
                .flat_map(|n| tree.children_with_tag(*n, *tag).iter().copied())
                .collect()
        }
        ColumnExtractor::PChildren { inner, tag, pos } => {
            let base = eval_column_from(tree, start, inner);
            base.iter()
                .flat_map(|n| tree.children_with_tag_pos(*n, *tag, *pos))
                .collect()
        }
        ColumnExtractor::Descendants { inner, tag } => {
            let base = eval_column_from(tree, start, inner);
            base.iter()
                .flat_map(|n| tree.descendants_with_tag(*n, *tag).iter().copied())
                .collect()
        }
    }
}

/// Evaluates a column extractor starting from `{root(τ)}` (the `(λs.π){root(τ)}` form).
pub fn eval_column(tree: &Hdt, pi: &ColumnExtractor) -> Vec<NodeId> {
    eval_column_from(tree, &[tree.root()], pi)
}

/// Cross product of the per-column node lists, in mixed-radix order (the last
/// column varies fastest).  Entries are node ids, matching the paper's intermediate
/// tables whose cells are "pointers" to nodes.
///
/// The row count is computed with checked multiplication *before* anything is
/// materialized, so an oversized product is rejected as an [`EvalError`] instead of
/// allocating.
pub fn cross_product(
    columns: &[&[NodeId]],
    limits: &EvalLimits,
) -> Result<Vec<Vec<NodeId>>, EvalError> {
    if columns.is_empty() || columns.iter().any(|c| c.is_empty()) {
        return Ok(vec![]);
    }
    let total = columns
        .iter()
        .map(|c| c.len())
        .try_fold(1usize, |acc, len| acc.checked_mul(len))
        .ok_or(EvalError::ProductOverflow {
            arity: columns.len(),
        })?;
    if total > limits.max_rows {
        return Err(EvalError::TooManyRows {
            rows: total,
            cap: limits.max_rows,
        });
    }
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; columns.len()];
    loop {
        out.push(idx.iter().zip(columns).map(|(i, c)| c[*i]).collect());
        // Increment the mixed-radix counter.
        let mut k = columns.len();
        loop {
            if k == 0 {
                return Ok(out);
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < columns[k].len() {
                break;
            }
            idx[k] = 0;
        }
    }
}

/// Evaluates a node extractor on a node.  Returns `None` when the extractor "throws"
/// (⊥): a missing parent or a missing child.
pub fn eval_node_extractor(tree: &Hdt, node: NodeId, phi: &NodeExtractor) -> Option<NodeId> {
    match phi {
        NodeExtractor::Id => Some(node),
        NodeExtractor::Parent(inner) => {
            let n = eval_node_extractor(tree, node, inner)?;
            tree.parent(n)
        }
        NodeExtractor::Child { inner, tag, pos } => {
            let n = eval_node_extractor(tree, node, inner)?;
            tree.child(n, *tag, *pos)
        }
    }
}

/// The data value stored at a node, as a typed [`Value`] (NULL for internal nodes).
pub fn node_value(tree: &Hdt, node: NodeId) -> Value {
    match tree.data(node) {
        Some(d) => Value::from_data(d),
        None => Value::Null,
    }
}

/// Evaluates a predicate on a tuple of nodes (Figure 7, bottom half).
pub fn eval_predicate(tree: &Hdt, tuple: &[NodeId], phi: &Predicate) -> bool {
    match phi {
        Predicate::True => true,
        Predicate::False => false,
        Predicate::Not(p) => !eval_predicate(tree, tuple, p),
        Predicate::And(a, b) => eval_predicate(tree, tuple, a) && eval_predicate(tree, tuple, b),
        Predicate::Or(a, b) => eval_predicate(tree, tuple, a) || eval_predicate(tree, tuple, b),
        Predicate::Compare {
            extractor,
            index,
            op,
            rhs,
        } => {
            let Some(&ni) = tuple.get(*index) else {
                return false;
            };
            let Some(left) = eval_node_extractor(tree, ni, extractor) else {
                return false;
            };
            match rhs {
                Operand::Const(c) => {
                    let lv = node_value(tree, left);
                    match lv.compare(c) {
                        Some(ord) => op.test(ord),
                        None => false,
                    }
                }
                Operand::Column {
                    extractor: ext2,
                    index: j,
                } => {
                    let Some(&nj) = tuple.get(*j) else {
                        return false;
                    };
                    let Some(right) = eval_node_extractor(tree, nj, ext2) else {
                        return false;
                    };
                    let left_leaf = tree.is_leaf(left);
                    let right_leaf = tree.is_leaf(right);
                    if left_leaf && right_leaf {
                        let lv = node_value(tree, left);
                        let rv = node_value(tree, right);
                        match lv.compare(&rv) {
                            Some(ord) => op.test(ord),
                            None => false,
                        }
                    } else if !left_leaf && !right_leaf {
                        // Only identity comparison is defined on internal nodes.
                        match op {
                            crate::ast::CompareOp::Eq => left == right,
                            crate::ast::CompareOp::Ne => left != right,
                            _ => false,
                        }
                    } else {
                        false
                    }
                }
            }
        }
    }
}

/// Evaluates a full program on a tree, producing the relational output table
/// (`filter(ψ, λt.φ)` of Figure 7): tuples of node *data* for the rows that satisfy φ.
pub fn eval_program(tree: &Hdt, program: &Program) -> Result<Table, EvalError> {
    eval_program_with(tree, program, &EvalLimits::default())
}

/// Like [`eval_program`], with an explicit row cap for the intermediate product.
pub fn eval_program_with(
    tree: &Hdt,
    program: &Program,
    limits: &EvalLimits,
) -> Result<Table, EvalError> {
    let mut table = if program.column_names.is_empty() {
        Table::anonymous(program.arity())
    } else {
        Table::new(program.column_names.clone())
    };
    let columns: Vec<Vec<NodeId>> = program
        .extractor
        .columns
        .iter()
        .map(|pi| eval_column(tree, pi))
        .collect();
    let slices: Vec<&[NodeId]> = columns.iter().map(Vec::as_slice).collect();
    for tuple in cross_product(&slices, limits)? {
        if eval_predicate(tree, &tuple, &program.predicate) {
            table.push(tuple.iter().map(|n| node_value(tree, *n)).collect());
        }
    }
    Ok(table)
}

/// Compile-time guarantee that everything a synthesis worker context needs — the
/// program under evaluation, the resource limits threaded into it, and the produced
/// table — can cross thread boundaries.  Parallel candidate validation shares
/// `&Program`/`EvalLimits` across scoped workers and sends `Table`s back.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<EvalLimits>();
    assert_send_sync::<EvalError>();
    assert_send_sync::<Table>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CompareOp, TableExtractor};
    use mitra_hdt::generate::social_network;
    use mitra_hdt::HdtBuilder;

    /// The synthesized program of Figure 3, built by hand.
    fn figure3_program() -> Program {
        use ColumnExtractor as CE;
        let pi11 = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        let pi21 = pi11.clone();
        let pi_f = CE::pchildren(CE::children(CE::Input, "Person"), "Friendship", 0);
        let pi31 = CE::pchildren(CE::children(pi_f, "Friend"), "years", 0);
        let psi = TableExtractor::new(vec![pi11, pi21, pi31]);

        // φ1: parent(t[0]) = parent(parent(parent(t[2])))
        let phi1 = Predicate::Compare {
            extractor: NodeExtractor::parent(NodeExtractor::Id),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::parent(NodeExtractor::parent(NodeExtractor::parent(
                    NodeExtractor::Id,
                ))),
                index: 2,
            },
        };
        // φ2: child(parent(t[1]), id, 0) = child(parent(t[2]), fid, 0)
        let phi2 = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "id", 0),
            index: 1,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "fid", 0),
                index: 2,
            },
        };
        Program::new(psi, Predicate::and(phi1, phi2))
    }

    #[test]
    fn column_extractor_semantics() {
        let t = social_network(2, 1);
        let pi = ColumnExtractor::pchildren(
            ColumnExtractor::children(ColumnExtractor::Input, "Person"),
            "name",
            0,
        );
        let nodes = eval_column(&t, &pi);
        assert_eq!(nodes.len(), 2);
        assert_eq!(node_value(&t, nodes[0]), Value::str("Alice"));
    }

    #[test]
    fn descendants_extractor_reaches_deep_nodes() {
        let t = social_network(2, 1);
        let pi = ColumnExtractor::descendants(ColumnExtractor::Input, "years");
        assert_eq!(eval_column(&t, &pi).len(), 2);
    }

    #[test]
    fn cross_product_sizes_multiply() {
        let cols: [&[NodeId]; 3] = [
            &[NodeId(1), NodeId(2)],
            &[NodeId(3)],
            &[NodeId(4), NodeId(5), NodeId(6)],
        ];
        let limits = EvalLimits::default();
        assert_eq!(cross_product(&cols, &limits).unwrap().len(), 6);
        assert!(cross_product(&[&[], &[NodeId(1)]], &limits)
            .unwrap()
            .is_empty());
        assert!(cross_product(&[], &limits).unwrap().is_empty());
    }

    #[test]
    fn cross_product_row_cap_is_enforced_before_allocation() {
        let (a, b) = (vec![NodeId(0); 100], vec![NodeId(1); 100]);
        let cols = [a.as_slice(), b.as_slice()];
        assert_eq!(
            cross_product(&cols, &EvalLimits::with_max_rows(5_000)),
            Err(EvalError::TooManyRows {
                rows: 10_000,
                cap: 5_000
            })
        );
        // Under the cap the product materializes normally.
        assert_eq!(
            cross_product(&cols, &EvalLimits::with_max_rows(10_000))
                .unwrap()
                .len(),
            10_000
        );
    }

    #[test]
    fn cross_product_overflow_is_reported_not_wrapped() {
        // Column sizes whose product overflows usize must be rejected via checked
        // multiplication, not wrap around to a small allocation.
        let big = vec![NodeId(0); 1 << 20];
        let cols = [big.as_slice(); 4];
        assert_eq!(
            cross_product(&cols, &EvalLimits::default()),
            Err(EvalError::ProductOverflow { arity: 4 })
        );
    }

    #[test]
    fn eval_program_surfaces_row_cap_errors() {
        let t = social_network(40, 1);
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let psi = TableExtractor::new(vec![pi.clone(), pi.clone(), pi]);
        let prog = Program::new(psi, Predicate::True);
        let limits = EvalLimits::with_max_rows(100);
        assert!(matches!(
            eval_program_with(&t, &prog, &limits),
            Err(EvalError::TooManyRows { .. })
        ));
    }

    #[test]
    fn node_extractor_parent_child_and_bottom() {
        let t = HdtBuilder::new("r")
            .open("a")
            .leaf("b", "1")
            .close()
            .build();
        let a = t.children_with_tag(t.root(), "a")[0];
        let b = t.child(a, "b", 0).unwrap();
        assert_eq!(
            eval_node_extractor(&t, b, &NodeExtractor::parent(NodeExtractor::Id)),
            Some(a)
        );
        assert_eq!(
            eval_node_extractor(&t, a, &NodeExtractor::child(NodeExtractor::Id, "b", 0)),
            Some(b)
        );
        // root has no parent -> ⊥
        assert_eq!(
            eval_node_extractor(&t, t.root(), &NodeExtractor::parent(NodeExtractor::Id)),
            None
        );
        // missing child -> ⊥
        assert_eq!(
            eval_node_extractor(&t, a, &NodeExtractor::child(NodeExtractor::Id, "zz", 0)),
            None
        );
    }

    #[test]
    fn figure3_program_produces_expected_table() {
        let t = social_network(2, 1);
        let program = figure3_program();
        let out = eval_program(&t, &program).unwrap();
        // Alice(1) friends Bob(2) for (1+2)%10+1=4 years; Bob friends Alice for 4 years.
        let expected = Table::from_rows(
            &["c0", "c1", "c2"],
            &[&["Alice", "Bob", "12"], &["Bob", "Alice", "21"]],
        );
        assert!(out.same_bag(&expected), "got {out}");
    }

    #[test]
    fn predicate_bottom_filters_row_out() {
        let t = social_network(2, 1);
        // Compare against a child that does not exist: must evaluate to false, not panic.
        let p = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "missing", 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::int(1)),
        };
        let psi = TableExtractor::new(vec![ColumnExtractor::children(
            ColumnExtractor::Input,
            "Person",
        )]);
        let prog = Program::new(psi, p);
        assert!(eval_program(&t, &prog).unwrap().is_empty());
    }

    #[test]
    fn internal_node_equality_compares_identity() {
        let t = social_network(2, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        // t[0] = t[1] where both are internal Person nodes.
        let p = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::Id,
                index: 1,
            },
        };
        assert!(eval_predicate(&t, &[persons[0], persons[0]], &p));
        assert!(!eval_predicate(&t, &[persons[0], persons[1]], &p));
        // Ordering comparison on internal nodes is always false.
        let p_lt = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Lt,
            rhs: Operand::Column {
                extractor: NodeExtractor::Id,
                index: 1,
            },
        };
        assert!(!eval_predicate(&t, &[persons[0], persons[1]], &p_lt));
    }

    #[test]
    fn constant_comparison_with_numbers() {
        let t = social_network(4, 1);
        // Keep persons whose id < 3.
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let p = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Lt,
            rhs: Operand::Const(Value::int(3)),
        };
        let prog = Program::new(TableExtractor::new(vec![pi]), p);
        assert_eq!(eval_program(&t, &prog).unwrap().len(), 2);
    }

    #[test]
    fn eval_program_uses_column_names_when_given() {
        let t = social_network(2, 1);
        let mut prog = figure3_program();
        prog.column_names = vec!["Person".into(), "Friend-with".into(), "years".into()];
        let out = eval_program(&t, &prog).unwrap();
        assert_eq!(out.columns, vec!["Person", "Friend-with", "years"]);
    }
}
