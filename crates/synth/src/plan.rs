//! Query planning for synthesized programs (the planning half of Appendix C).
//!
//! [`plan`] decomposes a program's predicate into per-column filters, equi-join
//! constraints and residual clauses, then chooses a join order and a physical
//! method for every step:
//!
//! * **scan** — materialize the first column from the tag-indexed occurrence lists;
//! * **interval join** — when the new column's join extractor is a pure parent chain
//!   `parent^q(n)`, the constraint is an ancestor/descendant relation and is answered
//!   with a pre-order interval test (`preorder`/`subtree_end` containment plus a depth
//!   check) instead of hashing;
//! * **hash join** — the general equi-join, probing interned join keys;
//! * **cross product** — the fallback for columns no constraint reaches, deferred to
//!   the end of the order.
//!
//! [`plan_with_tree`] additionally estimates column cardinalities from the tree's
//! per-tag occurrence lists ([`mitra_hdt::Hdt::tag_count`]) and orders joins
//! smallest-first; [`plan`] without a tree uses the static [`emission_order`], as
//! the code generators do, where no document is available.
//!
//! What no join step checks — the unused join constraints and the residual
//! clauses — is one predicate, [`Plan::residual`], which the executor checks on
//! every joined tuple with the DSL's own `eval_predicate`; pushed-down filters go
//! through the same function.
//!
//! Whatever order the planner picks, execution re-sorts the finished rows by their
//! column positions permuted into [`emission_order`] (see `exec::run_plan`), so the
//! emitted table is byte-identical for every plan shape.

use mitra_dsl::ast::{CompareOp, NodeExtractor, Operand, Predicate, Program};
use mitra_dsl::eval::{eval_column, eval_predicate};
use mitra_dsl::pretty;
use mitra_hdt::{Hdt, NodeId};

/// A join/filter plan derived from a program's predicate.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per-column constant filters (conjunction of atoms mentioning only that column).
    pub column_filters: Vec<Vec<Predicate>>,
    /// Equality join constraints between two columns.
    pub joins: Vec<JoinConstraint>,
    /// Whatever could not be pushed down or turned into a join, in clause form
    /// (each clause a disjunction of literals).
    pub residual_clauses: Vec<Vec<Predicate>>,
    /// One physical step per column, in execution order.
    pub steps: Vec<PlanStep>,
    /// Indices into [`Plan::joins`] of constraints that did not drive any join step
    /// (e.g. a second constraint between an already-joined pair); they are re-checked
    /// as part of [`Plan::residual`].
    pub unused_joins: Vec<usize>,
    /// Per-column cardinality estimates used for ordering (empty for static plans).
    pub estimates: Vec<u64>,
}

/// An equi-join constraint `(λn.ϕa) t[a] = (λn.ϕb) t[b]`.
#[derive(Debug, Clone)]
pub struct JoinConstraint {
    /// Left column index.
    pub left_col: usize,
    /// Node extractor applied to the left column's node.
    pub left_extractor: NodeExtractor,
    /// Right column index.
    pub right_col: usize,
    /// Node extractor applied to the right column's node.
    pub right_extractor: NodeExtractor,
}

impl JoinConstraint {
    /// The constraint as the DSL atom it came from.
    pub fn predicate(&self) -> Predicate {
        Predicate::Compare {
            extractor: self.left_extractor.clone(),
            index: self.left_col,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: self.right_extractor.clone(),
                index: self.right_col,
            },
        }
    }

    /// True when this constraint can extend a partial tuple over `placed` with `col`.
    fn links(&self, col: usize, placed: &[bool]) -> bool {
        (self.left_col == col && placed[self.right_col])
            || (self.right_col == col && placed[self.left_col])
    }

    /// Normalizes the constraint so the first extractor applies to the *new* column
    /// `col`; returns `(new_extractor, old_col, old_extractor)`.
    pub fn oriented(&self, col: usize) -> (&NodeExtractor, usize, &NodeExtractor) {
        if self.left_col == col {
            (&self.left_extractor, self.right_col, &self.right_extractor)
        } else {
            (&self.right_extractor, self.left_col, &self.left_extractor)
        }
    }
}

/// One step of a plan: which column is brought in and by which physical method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// The column this step materializes.
    pub col: usize,
    /// How the column is combined with the tuples built so far.
    pub method: StepMethod,
}

/// Physical method of a plan step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepMethod {
    /// Materialize the (filtered) column as the initial tuple set.
    Scan,
    /// Sort-merge over pre-order intervals: the new column's nodes are matched
    /// against the subtree interval of the anchor node derived from the old column.
    IntervalJoin {
        /// Index into [`Plan::joins`] of the driving constraint.
        join: usize,
        /// Length `q` of the new column's `parent^q` chain (≥ 1).
        chain_len: usize,
    },
    /// Hash join on interned join keys.
    HashJoin {
        /// Index into [`Plan::joins`] of the driving constraint.
        join: usize,
    },
    /// Cross product with the new column (no constraint reaches it yet).
    CrossProduct,
}

/// If the predicate references exactly one tuple component, returns its index.
/// Such single-literal clauses are pushed down onto the column as a pre-filter
/// (this covers constant comparisons, their negations, and same-column
/// extractor comparisons).
fn single_column_of(p: &Predicate) -> Option<usize> {
    match p {
        Predicate::Compare {
            index,
            rhs: Operand::Const(_),
            ..
        } => Some(*index),
        Predicate::Compare {
            index,
            rhs: Operand::Column { index: j, .. },
            ..
        } if index == j => Some(*index),
        Predicate::Not(inner) => single_column_of(inner),
        _ => None,
    }
}

/// Builds an execution plan for a program without document statistics: joins
/// follow the static [`emission_order`].  Used by the code generators, which
/// analyze programs independently of any particular tree.
pub fn plan(program: &Program) -> Plan {
    let arity = program.arity();
    let mut column_filters: Vec<Vec<Predicate>> = vec![Vec::new(); arity];
    let mut joins: Vec<JoinConstraint> = Vec::new();
    let mut residual_clauses: Vec<Vec<Predicate>> = Vec::new();

    for clause in program.predicate.to_cnf() {
        if clause.len() == 1 {
            if let Some(col) = single_column_of(&clause[0]) {
                column_filters[col].push(clause[0].clone());
                continue;
            }
            if let Predicate::Compare {
                extractor,
                index,
                op: CompareOp::Eq,
                rhs:
                    Operand::Column {
                        extractor: rhs_extractor,
                        index: rhs_index,
                    },
            } = &clause[0]
            {
                if index != rhs_index {
                    joins.push(JoinConstraint {
                        left_col: *index,
                        left_extractor: extractor.clone(),
                        right_col: *rhs_index,
                        right_extractor: rhs_extractor.clone(),
                    });
                    continue;
                }
            }
        }
        residual_clauses.push(clause);
    }

    let (steps, unused_joins) = schedule(arity, &joins, None);
    Plan {
        column_filters,
        joins,
        residual_clauses,
        steps,
        unused_joins,
        estimates: Vec::new(),
    }
}

/// Builds a cost-based execution plan for a program over a concrete document:
/// column cardinalities are estimated from the tree's per-tag occurrence lists
/// (exactly, for columns with pushed-down filters) and joins are ordered
/// smallest-first.  This is the plan `exec::run_plan` executes and `--explain`
/// renders.
pub fn plan_with_tree(program: &Program, tree: &Hdt) -> Plan {
    plan_and_columns(program, tree).0
}

/// Like [`plan_with_tree`], also returning the evaluated (and pre-filtered) columns
/// so the executor does not evaluate them a second time.  Cardinality estimates are
/// the tag-occurrence counts for unfiltered columns and the exact filtered lengths
/// otherwise.
pub fn plan_and_columns(program: &Program, tree: &Hdt) -> (Plan, Vec<Vec<NodeId>>) {
    let mut p = plan(program);
    let columns: Vec<Vec<NodeId>> = program
        .extractor
        .columns
        .iter()
        .enumerate()
        .map(|(i, pi)| {
            let mut nodes = eval_column(tree, pi);
            if !p.column_filters[i].is_empty() {
                // Column filters mention only column i: one scratch tuple carries
                // each node in slot i.
                let mut tuple = vec![NodeId::ROOT; i + 1];
                nodes.retain(|&n| {
                    tuple[i] = n;
                    p.column_filters[i]
                        .iter()
                        .all(|f| eval_predicate(tree, &tuple, f))
                });
            }
            nodes
        })
        .collect();
    p.estimates = columns
        .iter()
        .enumerate()
        .map(|(i, nodes)| {
            if p.column_filters[i].is_empty() {
                match program.extractor.columns[i].last_tag() {
                    Some(tag) => tree.tag_count(tag) as u64,
                    // The identity extractor yields exactly the root.
                    None => 1,
                }
            } else {
                nodes.len() as u64
            }
        })
        .collect();
    (p.steps, p.unused_joins) = schedule(program.arity(), &p.joins, Some(&p.estimates));
    (p, columns)
}

/// The output order every plan honors: column 0 first, then repeatedly the
/// smallest-indexed column that a join constraint links to the placed set,
/// otherwise the smallest unplaced column.  The executor sorts its finished rows
/// by their per-column positions permuted into this order, so the emitted table
/// does not depend on the join order the cost model picks.
pub fn emission_order(arity: usize, joins: &[JoinConstraint]) -> Vec<usize> {
    order_columns(arity, joins, None).0
}

/// Chooses the column order and the driving constraint per step.  With estimates,
/// starts from the smallest column and repeatedly adds the smallest joinable one
/// (ties broken by column index); without, follows the [`emission_order`] rule.
/// Cross products are always deferred: a non-joinable column is only placed when
/// no joinable one exists.  Returns `(order, per-step driving join index)`.
fn order_columns(
    arity: usize,
    joins: &[JoinConstraint],
    estimates: Option<&[u64]>,
) -> (Vec<usize>, Vec<Option<usize>>) {
    let mut order = Vec::with_capacity(arity);
    let mut drivers = Vec::with_capacity(arity);
    if arity == 0 {
        return (order, drivers);
    }
    let cost = |c: usize| estimates.map(|e| e[c]).unwrap_or(0);
    let first = match estimates {
        None => 0,
        Some(_) => (0..arity).min_by_key(|&c| (cost(c), c)).unwrap_or(0),
    };
    let mut placed = vec![false; arity];
    order.push(first);
    drivers.push(None);
    placed[first] = true;
    while order.len() < arity {
        let mut joinable =
            (0..arity).filter(|&c| !placed[c] && joins.iter().any(|j| j.links(c, &placed)));
        let next = match estimates {
            None => joinable.next(),
            Some(_) => joinable.min_by_key(|&c| (cost(c), c)),
        };
        let next = next.or_else(|| match estimates {
            None => (0..arity).find(|&c| !placed[c]),
            Some(_) => (0..arity)
                .filter(|&c| !placed[c])
                .min_by_key(|&c| (cost(c), c)),
        });
        // `order.len() < arity` guarantees an unplaced column exists, so the
        // fallback always finds one; bail out instead of panicking if not.
        let Some(next) = next else { break };
        // The driving constraint is the first (by index) linking the column in.
        let driver = joins.iter().position(|j| j.links(next, &placed));
        order.push(next);
        drivers.push(driver);
        placed[next] = true;
    }
    (order, drivers)
}

/// Orders the columns (see [`order_columns`]) and picks each step's physical
/// method; returns the steps and the indices of the constraints no step used.
fn schedule(
    arity: usize,
    joins: &[JoinConstraint],
    estimates: Option<&[u64]>,
) -> (Vec<PlanStep>, Vec<usize>) {
    let (order, drivers) = order_columns(arity, joins, estimates);
    let mut used = vec![false; joins.len()];
    let steps: Vec<PlanStep> = order
        .iter()
        .zip(&drivers)
        .enumerate()
        .map(|(step_idx, (&col, &driver))| {
            let method = match driver {
                None if step_idx == 0 => StepMethod::Scan,
                None => StepMethod::CrossProduct,
                Some(join) => {
                    used[join] = true;
                    let (new_extractor, _, _) = joins[join].oriented(col);
                    match new_extractor.parent_chain_depth() {
                        Some(q) if q >= 1 => StepMethod::IntervalJoin { join, chain_len: q },
                        _ => StepMethod::HashJoin { join },
                    }
                }
            };
            PlanStep { col, method }
        })
        .collect();
    let unused_joins = (0..joins.len()).filter(|&j| !used[j]).collect();
    (steps, unused_joins)
}

impl Plan {
    /// What the executor checks on each joined tuple: the unused join constraints
    /// and the residual clauses, each clause as the disjunction of its literals
    /// (`True` when nothing is left).
    pub fn residual(&self) -> Predicate {
        let unused = self.unused_joins.iter().map(|&j| self.joins[j].predicate());
        let clauses = self
            .residual_clauses
            .iter()
            .map(|clause| Predicate::disjunction(clause.iter().cloned()));
        Predicate::conjunction(unused.chain(clauses))
    }

    /// Number of steps executed with each physical method, as
    /// `(interval_joins, hash_joins, cross_products)`.
    pub fn method_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for s in &self.steps {
            match s.method {
                StepMethod::Scan => {}
                StepMethod::IntervalJoin { .. } => counts.0 += 1,
                StepMethod::HashJoin { .. } => counts.1 += 1,
                StepMethod::CrossProduct => counts.2 += 1,
            }
        }
        counts
    }

    /// Renders the plan as a stable, human-readable step list (the `--explain`
    /// output).  One line per physical step, then the residual work and the output
    /// ordering contract.
    pub fn explain(&self, program: &Program) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan: {} column(s), {} join constraint(s), {} pushed-down filter(s)\n",
            program.arity(),
            self.joins.len(),
            self.column_filters.iter().map(Vec::len).sum::<usize>(),
        ));
        for (i, step) in self.steps.iter().enumerate() {
            let col = step.col;
            let est = self
                .estimates
                .get(col)
                .map(|e| format!(", est {e}"))
                .unwrap_or_default();
            let filters = if self.column_filters[col].is_empty() {
                String::new()
            } else {
                let fs: Vec<String> = self.column_filters[col]
                    .iter()
                    .map(pretty::predicate)
                    .collect();
                format!(" where {}", fs.join(" && "))
            };
            let source = pretty::column_extractor(&program.extractor.columns[col]);
            match step.method {
                StepMethod::Scan => {
                    out.push_str(&format!(
                        "  {}. scan         t[{col}] := {source}{filters}{est}\n",
                        i + 1
                    ));
                }
                StepMethod::IntervalJoin { join, chain_len } => {
                    let (_, old_col, old_extractor) = self.joins[join].oriented(col);
                    out.push_str(&format!(
                        "  {}. interval-join t[{col}] := {source}{filters} inside subtree of ((\\n.{}) t[{old_col}]) at depth +{chain_len}{est}\n",
                        i + 1,
                        pretty::node_extractor(old_extractor),
                    ));
                }
                StepMethod::HashJoin { join } => {
                    let (new_extractor, old_col, old_extractor) = self.joins[join].oriented(col);
                    out.push_str(&format!(
                        "  {}. hash-join    t[{col}] := {source}{filters} on ((\\n.{}) t[{col}]) = ((\\n.{}) t[{old_col}]){est}\n",
                        i + 1,
                        pretty::node_extractor(new_extractor),
                        pretty::node_extractor(old_extractor),
                    ));
                }
                StepMethod::CrossProduct => {
                    out.push_str(&format!(
                        "  {}. cross        t[{col}] := {source}{filters}{est}\n",
                        i + 1
                    ));
                }
            }
        }
        let residual_desc = if self.residual_clauses.is_empty() && self.unused_joins.is_empty() {
            "none".to_string()
        } else {
            let mut parts = Vec::new();
            if !self.residual_clauses.is_empty() {
                parts.push(format!("{} clause(s)", self.residual_clauses.len()));
            }
            if !self.unused_joins.is_empty() {
                parts.push(format!(
                    "{} unused join constraint(s) re-checked",
                    self.unused_joins.len()
                ));
            }
            parts.join(", ")
        };
        out.push_str(&format!("  residual: {residual_desc}\n"));
        out.push_str(&format!(
            "  output: rows sorted by column positions in order {:?}\n",
            emission_order(program.arity(), &self.joins)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::ast::{ColumnExtractor, TableExtractor};
    use mitra_dsl::Value;
    use mitra_hdt::generate::social_network;

    fn filter_lt(index: usize, tag: &str, k: i64) -> Predicate {
        Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, tag, 0),
            index,
            op: CompareOp::Lt,
            rhs: Operand::Const(Value::int(k)),
        }
    }

    fn join(l: usize, r: usize) -> Predicate {
        Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: l,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::Id,
                index: r,
            },
        }
    }

    fn person() -> ColumnExtractor {
        ColumnExtractor::children(ColumnExtractor::Input, "Person")
    }

    #[test]
    fn static_plan_follows_emission_order() {
        // Joins (0,2) only; column 1 must be cross-producted last: [0, 2, 1].
        let program = mitra_dsl::Program::new(
            TableExtractor::new(vec![person(), person(), person()]),
            join(0, 2),
        );
        let p = plan(&program);
        let order: Vec<usize> = p.steps.iter().map(|s| s.col).collect();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(order, emission_order(3, &p.joins));
        assert_eq!(p.steps[2].method, StepMethod::CrossProduct);
        assert!(p.estimates.is_empty());
    }

    #[test]
    fn negated_and_same_column_literals_are_pushed_down() {
        let not_filter = Predicate::not(filter_lt(0, "id", 3));
        let same_col = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
                index: 0,
            },
        };
        let program = mitra_dsl::Program::new(
            TableExtractor::new(vec![person()]),
            Predicate::and(not_filter, same_col),
        );
        let p = plan(&program);
        assert_eq!(p.column_filters[0].len(), 2);
        assert!(p.residual_clauses.is_empty());
    }

    #[test]
    fn cost_based_order_starts_from_smallest_column() {
        // Column 1 is filtered down to id < 2 (1 node); the cost-based plan must
        // start there even though the static order starts at column 0.
        let tree = social_network(6, 1);
        let program = mitra_dsl::Program::new(
            TableExtractor::new(vec![person(), person()]),
            Predicate::and(filter_lt(1, "id", 2), join(0, 1)),
        );
        let p = plan_with_tree(&program, &tree);
        assert_eq!(p.steps[0].col, 1);
        assert_eq!(p.estimates.len(), 2);
        assert_eq!(p.estimates[1], 1);
        assert_eq!(p.estimates[0], 6);
        // The output contract is unchanged.
        assert_eq!(emission_order(2, &p.joins), vec![0, 1]);
    }

    #[test]
    fn parent_chain_joins_become_interval_joins() {
        // parent(t[0]) = parent(parent(t[1])): whichever side joins second has a
        // pure parent chain, so the step must be an interval join.
        let pred = Predicate::Compare {
            extractor: NodeExtractor::parent(NodeExtractor::Id),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::parent(NodeExtractor::parent(NodeExtractor::Id)),
                index: 1,
            },
        };
        let program = mitra_dsl::Program::new(TableExtractor::new(vec![person(), person()]), pred);
        let p = plan(&program);
        assert_eq!(p.method_counts().0, 1, "expected one interval join");
    }

    #[test]
    fn child_extractor_joins_stay_hash_joins() {
        let pred = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::Id, "fid", 0),
                index: 1,
            },
        };
        let program = mitra_dsl::Program::new(TableExtractor::new(vec![person(), person()]), pred);
        let p = plan(&program);
        assert_eq!(p.method_counts(), (0, 1, 0));
    }

    #[test]
    fn duplicate_constraints_land_in_unused_joins() {
        let program = mitra_dsl::Program::new(
            TableExtractor::new(vec![person(), person()]),
            Predicate::and(join(0, 1), join(1, 0)),
        );
        let p = plan(&program);
        assert_eq!(p.joins.len(), 2);
        assert_eq!(p.unused_joins, vec![1]);
        assert_eq!(p.residual(), join(1, 0));
    }

    #[test]
    fn explain_renders_each_step() {
        let tree = social_network(4, 1);
        let program = mitra_dsl::Program::new(
            TableExtractor::new(vec![person(), person(), person()]),
            Predicate::and(filter_lt(2, "id", 3), join(0, 2)),
        );
        let p = plan_with_tree(&program, &tree);
        let text = p.explain(&program);
        assert!(text.contains("scan"), "{text}");
        assert!(text.contains("hash-join"), "{text}");
        assert!(text.contains("cross"), "{text}");
        assert!(text.contains("output: rows sorted"), "{text}");
    }
}
