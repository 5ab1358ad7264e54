//! Shared predicate-pushdown analysis for the code-generation back-ends.
//!
//! Both generators emit one nested loop per column (always in column order, which
//! is the order the paper's artifacts use) and formerly evaluated the entire
//! predicate inside the innermost loop.  [`guards_by_depth`] instead asks the
//! static query planner ([`mitra_synth::plan`]) how the predicate decomposes —
//! per-column filters, equi-join constraints, residual CNF clauses — and assigns
//! each fragment to the shallowest loop depth at which every referenced column is
//! bound.  The generated code then prunes tuples as early as the executor's plan
//! does instead of enumerating the full cross product first.

use mitra_dsl::ast::{Predicate, Program};
use mitra_synth::exec::plan;

/// For each loop depth `d` (the scope where `c0..cd` are bound), the predicates
/// that become checkable there.  The conjunction of all guards over all depths is
/// equivalent to the program's predicate; a `True` predicate yields no guards at
/// all, and `False` yields an (empty-disjunction) `False` guard at depth 0.
pub(crate) fn guards_by_depth(program: &Program) -> Vec<Vec<Predicate>> {
    let arity = program.arity();
    let mut guards: Vec<Vec<Predicate>> = vec![Vec::new(); arity.max(1)];
    let p = plan(program);
    for (col, filters) in p.column_filters.iter().enumerate() {
        guards[col].extend(filters.iter().cloned());
    }
    for j in &p.joins {
        guards[j.left_col.max(j.right_col)].push(j.predicate());
    }
    for clause in &p.residual_clauses {
        let pred = Predicate::disjunction(clause.iter().cloned());
        let depth = pred.max_column_index().unwrap_or(0).min(guards.len() - 1);
        guards[depth].push(pred);
    }
    guards
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::ast::{ColumnExtractor, CompareOp, NodeExtractor, Operand, TableExtractor};
    use mitra_dsl::Value;

    #[test]
    fn filters_land_on_their_column_and_joins_at_the_deeper_one() {
        use ColumnExtractor as CE;
        let cols = vec![
            CE::children(CE::Input, "a"),
            CE::children(CE::Input, "b"),
            CE::children(CE::Input, "c"),
        ];
        let filter = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Lt,
            rhs: Operand::Const(Value::int(3)),
        };
        let join = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 1,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::Id,
                index: 2,
            },
        };
        let program = Program::new(TableExtractor::new(cols), Predicate::and(filter, join));
        let guards = guards_by_depth(&program);
        assert_eq!(guards[0].len(), 1);
        assert_eq!(guards[1].len(), 0);
        assert_eq!(guards[2].len(), 1);
    }

    #[test]
    fn true_predicate_has_no_guards() {
        let program = Program::new(
            TableExtractor::new(vec![ColumnExtractor::children(ColumnExtractor::Input, "x")]),
            Predicate::True,
        );
        assert!(guards_by_depth(&program).iter().all(Vec::is_empty));
    }

    #[test]
    fn false_predicate_guards_depth_zero() {
        let program = Program::new(
            TableExtractor::new(vec![ColumnExtractor::children(ColumnExtractor::Input, "x")]),
            Predicate::False,
        );
        let guards = guards_by_depth(&program);
        assert_eq!(guards[0], vec![Predicate::False]);
    }
}
