//! Optimized execution of synthesized programs (Appendix C).
//!
//! The naive semantics of `filter(π1 × … × πk, φ)` materializes the full cross product
//! before filtering, which is hopeless on large documents (the intermediate table grows
//! as the product of the column sizes).  Execution here is split into a query planner
//! ([`crate::plan`]) and a physical-operator layer ([`crate::ops`]):
//!
//! 1. the planner pushes single-column comparisons down onto individual columns,
//!    turns equality comparisons between two tuple components into join constraints,
//!    and orders the joins smallest-first using cardinality estimates from the tree's
//!    per-tag occurrence lists (columns themselves are materialized through the same
//!    index — `eval_column` resolves `descendants` steps as `descendants_with_tag`
//!    range scans over the pre-order interval);
//! 2. join steps run as pre-order **interval joins** when the constraint is an
//!    ancestor/descendant relation, as **hash joins** over interned keys otherwise,
//!    with cross products deferred to last;
//! 3. a joined tuple is kept when `mitra_dsl::eval::eval_predicate` accepts
//!    [`Plan::residual`]: the join constraints no step used and the clauses no
//!    filter or join took.  Pushed-down filters go through the same function, so
//!    Figure 7's semantics has one implementation.
//!
//! Whatever order the planner picks, finished rows are sorted by their per-column
//! positions permuted into [`emission_order`], so the output is byte-identical at
//! every thread count and plan shape.  The reference is the naive semantics
//! (`mitra_dsl::eval`): its rows, stably sorted the same way, are exactly the
//! executor's rows, which `tests/planner_equivalence.rs` checks.  Row-budget checks
//! stay at canonical sequential points (after the initial scan, after each join
//! step, after the residual check), so a `BudgetBreach` fires after exactly the
//! same work regardless of threading.

use crate::budget::{Budget, BudgetBreach, BudgetResource};
use crate::ops;
pub use crate::plan::{
    emission_order, plan, plan_with_tree, JoinConstraint, Plan, PlanStep, StepMethod,
};
use mitra_dsl::ast::Program;
use mitra_dsl::eval::{eval_predicate, node_value};
use mitra_dsl::Table;
use mitra_hdt::{Hdt, NodeId};

/// Statistics gathered during execution (useful for the ablation benchmarks and
/// the migration execution profile).
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Tuples produced before the residual predicate.
    pub tuples_considered: usize,
    /// Rows in the final output.
    pub rows_emitted: usize,
    /// Join steps executed as pre-order interval joins.
    pub interval_join_steps: usize,
    /// Join steps executed as hash joins.
    pub hash_join_steps: usize,
    /// Extension steps executed as cross products.
    pub cross_product_steps: usize,
}

/// The rows an execution keeps, in emission order: `arity`-strided node ids in
/// one buffer.
#[derive(Debug, Default)]
pub struct NodeRows {
    arity: usize,
    nodes: Vec<NodeId>,
}

impl NodeRows {
    /// Number of rows (0 at arity 0).
    pub fn len(&self) -> usize {
        self.nodes.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when no row survived.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The rows, each one node per column.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.nodes.chunks_exact(self.arity.max(1))
    }
}

/// Executes a program with the optimized plan, returning the output table.
pub fn execute(tree: &Hdt, program: &Program) -> Table {
    execute_with_stats(tree, program).0
}

/// Executes a program and returns its node-level rows (for key generation) and
/// the execution statistics (for the migration execution profile), bounded by a
/// deterministic row budget (`None` = unlimited): the cumulative count of tuples
/// materialized by the scan, the join steps and the residual check is compared
/// with it at canonical points of the (sequential) plan order, so a breach fires
/// after exactly the same work at every thread count.
pub fn execute_nodes_budgeted(
    tree: &Hdt,
    program: &Program,
    max_rows: Option<u64>,
) -> Result<(NodeRows, ExecStats), BudgetBreach> {
    run_plan(tree, program, max_rows)
}

/// Executes a program with the optimized plan, returning the table and statistics.
pub fn execute_with_stats(tree: &Hdt, program: &Program) -> (Table, ExecStats) {
    match run_plan(tree, program, None) {
        Ok((rows, stats)) => (project(tree, program, &rows), stats),
        // An unlimited budget cannot breach.
        Err(_) => unreachable!("unlimited row budget breached"),
    }
}

fn project(tree: &Hdt, program: &Program, rows: &NodeRows) -> Table {
    let mut table = if program.column_names.is_empty() {
        Table::anonymous(program.arity())
    } else {
        Table::new(program.column_names.clone())
    };
    for row in rows.rows() {
        table.push(row.iter().map(|n| node_value(tree, *n)).collect());
    }
    table
}

fn run_plan(
    tree: &Hdt,
    program: &Program,
    max_rows: Option<u64>,
) -> Result<(NodeRows, ExecStats), BudgetBreach> {
    let _span = mitra_trace::span("exec", "run_plan");
    let arity = program.arity();
    let budget = Budget {
        max_rows,
        ..Budget::UNLIMITED
    };
    let mut materialized: u64 = 0;
    let mut stats = ExecStats::default();
    if arity == 0 {
        return Ok((NodeRows::default(), stats));
    }

    let (p, columns) = crate::plan::plan_and_columns(program, tree);

    // Initial scan (the first plan step is always a scan).
    let first = p.steps[0].col;
    let mut tuples = ops::scan(arity, first, &columns[first]);
    materialized += tuples.len() as u64;
    budget.check(BudgetResource::Rows, materialized)?;

    let mut interner = ops::KeyInterner::new(tree);
    for step in &p.steps[1..] {
        let col = step.col;
        tuples = match step.method {
            StepMethod::Scan => unreachable!("scan can only be the first plan step"),
            StepMethod::IntervalJoin { join, chain_len } => {
                stats.interval_join_steps += 1;
                let (_, old_col, old_extractor) = p.joins[join].oriented(col);
                ops::interval_join(
                    tree,
                    &tuples,
                    col,
                    &columns[col],
                    chain_len,
                    old_col,
                    old_extractor,
                )
            }
            StepMethod::HashJoin { join } => {
                stats.hash_join_steps += 1;
                let (new_extractor, old_col, old_extractor) = p.joins[join].oriented(col);
                ops::hash_join(
                    tree,
                    &mut interner,
                    &tuples,
                    col,
                    &columns[col],
                    new_extractor,
                    old_col,
                    old_extractor,
                )
            }
            StepMethod::CrossProduct => {
                stats.cross_product_steps += 1;
                ops::cross_join(&tuples, col, &columns[col])
            }
        };
        // Row fuel pays per tuple materialized; checking after each (sequential)
        // join step keeps the breach point independent of the thread count.
        materialized += tuples.len() as u64;
        budget.check(BudgetResource::Rows, materialized)?;
    }

    stats.tuples_considered = tuples.len();

    let residual = p.residual();
    let mut survivors: Vec<u32> = (0..tuples.len())
        .filter(|&i| eval_predicate(tree, tuples.row(i), &residual))
        .map(|i| i as u32)
        .collect();

    // Emission-order contract: rows sorted lexicographically by their per-column
    // positions permuted into the emission order.  Position vectors are unique per
    // tuple, so this is a total (deterministic) order.
    let order = emission_order(arity, &p.joins);
    survivors.sort_unstable_by(|&a, &b| {
        let pa = tuples.row_pos(a as usize);
        let pb = tuples.row_pos(b as usize);
        order
            .iter()
            .map(|&c| pa[c].cmp(&pb[c]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut nodes = Vec::with_capacity(survivors.len() * arity);
    for &i in &survivors {
        nodes.extend_from_slice(tuples.row(i as usize));
    }
    let result = NodeRows { arity, nodes };
    stats.rows_emitted = result.len();
    materialized += result.len() as u64;
    budget.check(BudgetResource::Rows, materialized)?;
    mitra_trace::counter_add!("exec.tuples_considered", stats.tuples_considered as u64);
    mitra_trace::counter_add!("exec.rows_emitted", stats.rows_emitted as u64);
    if stats.interval_join_steps > 0 {
        mitra_trace::counter_add!("exec.join.interval", stats.interval_join_steps as u64);
    }
    if stats.hash_join_steps > 0 {
        mitra_trace::counter_add!("exec.join.hash", stats.hash_join_steps as u64);
    }
    if stats.cross_product_steps > 0 {
        mitra_trace::counter_add!("exec.join.cross", stats.cross_product_steps as u64);
    }
    Ok((result, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::{learn_transformation, Example, SynthConfig};
    use mitra_dsl::ast::{
        ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, TableExtractor,
    };
    use mitra_dsl::eval::eval_program;
    use mitra_dsl::Value;
    use mitra_hdt::generate::{social_network, social_network_rows};

    fn social_example(n: usize, f: usize) -> Example {
        let tree = social_network(n, f);
        let rows = social_network_rows(n, f);
        let mut output = Table::new(vec!["Person".into(), "Friend-with".into(), "years".into()]);
        for r in rows {
            output.push(r.iter().map(|s| Value::from_data(s)).collect());
        }
        Example::new(tree, output)
    }

    fn synthesized_program() -> mitra_dsl::Program {
        let ex = social_example(3, 1);
        learn_transformation(&[ex], &SynthConfig::default())
            .unwrap()
            .program
    }

    #[test]
    fn optimized_execution_matches_naive_semantics() {
        let program = synthesized_program();
        for (n, f) in [(2, 1), (4, 2), (6, 3)] {
            let tree = social_network(n, f);
            let naive = eval_program(&tree, &program).unwrap();
            let fast = execute(&tree, &program);
            assert!(naive.same_bag(&fast), "mismatch at n={n} f={f}");
        }
    }

    #[test]
    fn plan_extracts_joins_from_motivating_example() {
        let program = synthesized_program();
        let p = plan(&program);
        assert!(!p.joins.is_empty(), "expected at least one equi-join");
    }

    #[test]
    fn motivating_example_uses_an_interval_join() {
        // The synthesized predicate joins via parent-chain extractors
        // (parent(t[0]) = parent^3(t[2]) in Figure 3); at least one join step must
        // compile to a pre-order interval join.
        let program = synthesized_program();
        let tree = social_network(10, 2);
        let (_, stats) = execute_with_stats(&tree, &program);
        assert!(
            stats.interval_join_steps >= 1,
            "expected an interval join, got {stats:?}"
        );
    }

    #[test]
    fn optimized_execution_avoids_cross_product_blowup() {
        let program = synthesized_program();
        let tree = social_network(60, 4);
        let (_, stats) = execute_with_stats(&tree, &program);
        // The naive cross product would be 60 * 60 * 240 = 864k tuples; the join plan
        // must consider far fewer.
        assert!(
            stats.tuples_considered < 100_000,
            "considered {} tuples",
            stats.tuples_considered
        );
        assert_eq!(stats.rows_emitted, social_network_rows(60, 4).len());
    }

    #[test]
    fn constant_filters_are_pushed_down() {
        // program: single column of Person nodes with id < 3.
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let pred = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Lt,
            rhs: Operand::Const(Value::int(3)),
        };
        let program = mitra_dsl::Program::new(TableExtractor::new(vec![pi]), pred);
        let p = plan(&program);
        assert_eq!(p.column_filters[0].len(), 1);
        assert!(p.joins.is_empty());
        let tree = social_network(10, 1);
        let out = execute(&tree, &program);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn residual_predicates_still_enforced() {
        // A disjunction cannot be pushed down or joined; it must be evaluated as residual.
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let a = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::int(1)),
        };
        let b = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::int(3)),
        };
        let program = mitra_dsl::Program::new(TableExtractor::new(vec![pi]), Predicate::or(a, b));
        let tree = social_network(5, 1);
        let naive = eval_program(&tree, &program).unwrap();
        let fast = execute(&tree, &program);
        assert!(naive.same_bag(&fast));
        assert_eq!(fast.len(), 2);
    }

    #[test]
    fn residual_check_keeps_the_naive_row_order() {
        // 100 × 100 = 10_000 intermediate tuples under a two-column residual
        // atom; the emitted rows must match the naive semantics in order.
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let pred = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Ne,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
                index: 1,
            },
        };
        let program = mitra_dsl::Program::new(TableExtractor::new(vec![pi.clone(), pi]), pred);
        let tree = social_network(100, 1);
        let naive = eval_program(&tree, &program).unwrap();
        let fast = execute(&tree, &program);
        assert_eq!(naive.rows, fast.rows, "row order must be preserved");
    }

    #[test]
    fn empty_predicate_program_is_full_cross_product() {
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let program =
            mitra_dsl::Program::new(TableExtractor::new(vec![pi.clone(), pi]), Predicate::True);
        let tree = social_network(3, 1);
        let (out, stats) = execute_with_stats(&tree, &program);
        assert_eq!(out.len(), 9);
        assert_eq!(stats.cross_product_steps, 1);
    }

    #[test]
    fn row_budget_breaches_on_materialized_tuples() {
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let program =
            mitra_dsl::Program::new(TableExtractor::new(vec![pi.clone(), pi]), Predicate::True);
        let tree = social_network(3, 1);
        // 3 first-column tuples + 9 cross-product tuples + 9 filtered rows = 21
        // units of fuel; a cap below that must breach, an exact one must not...
        let breach = execute_nodes_budgeted(&tree, &program, Some(9)).unwrap_err();
        assert_eq!(breach.resource, crate::budget::BudgetResource::Rows);
        // ...because `check` trips at spent >= limit.
        let (rows, _) = execute_nodes_budgeted(&tree, &program, Some(22)).unwrap();
        assert_eq!(rows.len(), 9);
        // Unlimited path is untouched.
        let (rows, _) = execute_nodes_budgeted(&tree, &program, None).unwrap();
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn no_rows_at_arity_zero_or_without_survivors() {
        let tree = social_network(3, 1);
        let nullary = mitra_dsl::Program::new(TableExtractor::new(Vec::new()), Predicate::True);
        let (rows, _) = execute_nodes_budgeted(&tree, &nullary, None).unwrap();
        assert!(rows.is_empty());
        assert_eq!(rows.len(), 0);
        assert_eq!(rows.rows().count(), 0);

        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let none_match = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, "id", 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::Id, "name", 0),
                index: 1,
            },
        };
        let program =
            mitra_dsl::Program::new(TableExtractor::new(vec![pi.clone(), pi]), none_match);
        let (rows, stats) = execute_nodes_budgeted(&tree, &program, None).unwrap();
        assert_eq!(stats.hash_join_steps, 1);
        assert!(rows.is_empty());
        assert_eq!(rows.len(), 0);
        assert_eq!(rows.rows().count(), 0);
    }

    #[test]
    fn typed_equality_and_hash_joins_agree_on_big_integers_and_booleans() {
        // filter(children(children(s, A), k) × children(children(s, B), k), t[0] = t[1])
        let column = |tag| {
            ColumnExtractor::children(ColumnExtractor::children(ColumnExtractor::Input, tag), "k")
        };
        let program = mitra_dsl::Program::new(
            TableExtractor::new(vec![column("A"), column("B")]),
            Predicate::Compare {
                extractor: NodeExtractor::Id,
                index: 0,
                op: CompareOp::Eq,
                rhs: Operand::Column {
                    extractor: NodeExtractor::Id,
                    index: 1,
                },
            },
        );
        for (a, b, rows) in [
            ("9007199254740993", "9007199254740992", 0),
            ("true", "1", 0),
            ("false", "0", 0),
            ("01", "1.0", 1),
            ("9007199254740993", "9007199254740993", 1),
        ] {
            let tree = mitra_hdt::HdtBuilder::new("root")
                .open("A")
                .leaf("k", a)
                .close()
                .open("B")
                .leaf("k", b)
                .close()
                .build();
            let referee = eval_program(&tree, &program).unwrap();
            let (fast, stats) = execute_with_stats(&tree, &program);
            assert_eq!(stats.hash_join_steps, 1);
            assert_eq!(referee.rows, fast.rows, "{a} = {b}");
            assert_eq!(fast.len(), rows, "{a} = {b}");
        }
    }
}
