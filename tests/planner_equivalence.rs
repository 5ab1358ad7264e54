//! Differential tests for the query planner and physical-operator layer, refereed
//! by the DSL semantics (`mitra::dsl::eval`, Figure 7):
//!
//! * [`naive_in_emission_order`] enumerates the column cross product, keeps the
//!   tuples that satisfy the predicate, and sorts them stably by their positions
//!   permuted into `emission_order` — the executor's output contract.  The
//!   executor's table must be **byte-identical** to it for every program of a
//!   fixed operator matrix (scans, interval joins, hash joins on values and on
//!   derived nodes, cross products, pushed-down filters, residual clauses, a join
//!   constraint re-checked after the joins) on random trees, for the synthesized
//!   motivating-example program at three scales, and for all 50 Table 2 programs
//!   of the program snapshot;
//! * a program wider than 256 columns plans, executes, explains and generates code;
//! * the planner's output must be byte-identical at 1 and 4 worker threads on a
//!   residual check over more than 8192 joined tuples;
//! * `Plan::explain` output is snapshot-pinned for the synthesized
//!   motivating-example program and for a synthesized MONDIAL table, so `--explain`
//!   stays stable unless the plan genuinely changes.

use mitra::codegen::{generate, Backend};
use mitra::dsl::ast::{
    ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, Program, TableExtractor,
};
use mitra::dsl::eval::{eval_column, eval_predicate, node_value};
use mitra::dsl::parse::parse_program;
use mitra::dsl::{Table, Value};
use mitra::hdt::generate::social_network;
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::{Hdt, NodeId};
use mitra::synth::exec::{emission_order, execute, plan, plan_with_tree};
use mitra::synth::synthesize::{learn_transformation, Example, SynthConfig};
use mitra_datagen::datasets::{all_datasets, dataset_synth_config};
use mitra_datagen::social;
use proptest::prelude::*;

/// The executor's reference: the naive cross-product semantics with the surviving
/// tuples stably sorted by their per-column positions permuted into
/// `emission_order`.  Positions index the unfiltered columns; the executor's index
/// the filtered ones, which keep the same relative order.
fn naive_in_emission_order(tree: &Hdt, program: &Program) -> Table {
    let columns: Vec<Vec<NodeId>> = program
        .extractor
        .columns
        .iter()
        .map(|pi| eval_column(tree, pi))
        .collect();
    let arity = columns.len();
    let total: usize = columns.iter().map(Vec::len).product();
    // Tuple `r` of the mixed-radix enumeration (last column fastest) as positions.
    let mut kept: Vec<Vec<usize>> = (0..total)
        .map(|mut r| {
            let mut positions = vec![0; arity];
            for c in (0..arity).rev() {
                positions[c] = r % columns[c].len();
                r /= columns[c].len();
            }
            positions
        })
        .filter(|positions| {
            let tuple: Vec<NodeId> = positions.iter().zip(&columns).map(|(&i, c)| c[i]).collect();
            eval_predicate(tree, &tuple, &program.predicate)
        })
        .collect();
    let order = emission_order(arity, &plan(program).joins);
    kept.sort_by_key(|positions| order.iter().map(|&c| positions[c]).collect::<Vec<_>>());
    let mut table = if program.column_names.is_empty() {
        Table::anonymous(arity)
    } else {
        Table::new(program.column_names.clone())
    };
    for positions in kept {
        table.push(
            positions
                .iter()
                .zip(&columns)
                .map(|(&i, c)| node_value(tree, c[i]))
                .collect(),
        );
    }
    table
}

/// Leaf data for [`random_tree`]: the numbers `0`–`8` the filters below test
/// against, and beside them spellings that `Value::compare` equates with one of
/// them or with each other (`01`, `1.0`, `1e0` for `1`; 2^60 as an integer and
/// as a float), `true` and the empty cell, so hash joins meet one value in
/// several spellings.
const LEAF_DATA: [&str; 16] = [
    "0",
    "1",
    "2",
    "3",
    "4",
    "5",
    "6",
    "7",
    "8",
    "01",
    "1.0",
    "1e0",
    "true",
    "",
    "1152921504606846976",
    "1.152921504606846976e18",
];

/// Strategy for small random trees mixing internal nodes and [`LEAF_DATA`] leaves
/// over a fixed tag alphabet, so the operator matrix below always has something
/// to chew on.
fn random_tree() -> impl Strategy<Value = Hdt> {
    let ops = prop::collection::vec((0u8..3, 0usize..4, 0usize..LEAF_DATA.len()), 1..40);
    ops.prop_map(|ops| {
        let tags = ["item", "group", "entry", "field"];
        let mut tree = Hdt::with_root("root");
        let mut stack = vec![tree.root()];
        for (kind, tag_idx, val) in ops {
            let top = *stack.last().unwrap();
            match kind {
                0 => {
                    let id = tree.add_child(top, tags[tag_idx], None);
                    stack.push(id);
                }
                1 => {
                    tree.add_child(top, tags[tag_idx], Some(LEAF_DATA[val].to_string()));
                }
                _ => {
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
            }
        }
        tree
    })
}

fn leaf_cmp(index: usize, op: CompareOp, k: i64) -> Predicate {
    Predicate::Compare {
        extractor: NodeExtractor::Id,
        index,
        op,
        rhs: Operand::Const(Value::int(k)),
    }
}

/// `not(child(t[0], missing, 0) = 1)`: the extractor is ⊥ on every node, so the
/// comparison is false and its negation true.
fn negated_bottom() -> Predicate {
    Predicate::not(Predicate::Compare {
        extractor: NodeExtractor::child(NodeExtractor::Id, "missing", 0),
        index: 0,
        op: CompareOp::Eq,
        rhs: Operand::Const(Value::int(1)),
    })
}

/// `t[0] = t[1]`, `t[1] = t[2]` and `closing`: the joins use the first two, so
/// `closing` is re-checked on every joined tuple.
fn join_cycle(closing: Predicate) -> Predicate {
    let id = || NodeExtractor::Id;
    Predicate::conjunction([
        col_join(id(), 0, id(), 1),
        col_join(id(), 1, id(), 2),
        closing,
    ])
}

fn col_join(
    left: NodeExtractor,
    left_col: usize,
    right: NodeExtractor,
    right_col: usize,
) -> Predicate {
    Predicate::Compare {
        extractor: left,
        index: left_col,
        op: CompareOp::Eq,
        rhs: Operand::Column {
            extractor: right,
            index: right_col,
        },
    }
}

/// A fixed set of programs covering every physical operator and every predicate
/// decomposition path in the planner.
fn operator_matrix() -> Vec<Program> {
    use ColumnExtractor as CE;
    let d = |t: &str| CE::descendants(CE::Input, t);
    let item = CE::children(CE::Input, "item");
    let child_field = NodeExtractor::child(NodeExtractor::Id, "field", 0);
    vec![
        // Scan with a pushed-down constant filter on leaf values.
        Program::new(
            TableExtractor::new(vec![d("field")]),
            leaf_cmp(0, CompareOp::Lt, 5),
        ),
        // Interval join: the new column's extractor is a pure parent chain.
        Program::new(
            TableExtractor::new(vec![d("item"), d("entry")]),
            col_join(
                NodeExtractor::Id,
                0,
                NodeExtractor::parent(NodeExtractor::Id),
                1,
            ),
        ),
        // Hash join on leaf values (interned Data keys).
        Program::new(
            TableExtractor::new(vec![d("field"), d("field")]),
            col_join(NodeExtractor::Id, 0, NodeExtractor::Id, 1),
        ),
        // Hash join through a child extractor (stays a hash join, never interval).
        Program::new(
            TableExtractor::new(vec![d("item"), d("group")]),
            col_join(child_field.clone(), 0, child_field.clone(), 1),
        ),
        // Pure cross product.
        Program::new(
            TableExtractor::new(vec![item.clone(), d("group")]),
            Predicate::True,
        ),
        // Join (0,2) with a cross-producted middle column: emission order [0, 2, 1].
        Program::new(
            TableExtractor::new(vec![d("item"), d("group"), d("item")]),
            col_join(NodeExtractor::Id, 0, NodeExtractor::Id, 2),
        ),
        // Residual clause spanning both columns (a true disjunction, not pushable).
        Program::new(
            TableExtractor::new(vec![d("item"), d("field")]),
            Predicate::or(
                leaf_cmp(1, CompareOp::Lt, 4),
                col_join(child_field.clone(), 0, NodeExtractor::Id, 1),
            ),
        ),
        // Negated pushed-down filter plus a residual disjunction.
        Program::new(
            TableExtractor::new(vec![d("field"), d("entry")]),
            Predicate::and(
                Predicate::not(leaf_cmp(0, CompareOp::Eq, 3)),
                Predicate::or(leaf_cmp(0, CompareOp::Gt, 1), leaf_cmp(1, CompareOp::Ne, 2)),
            ),
        ),
        // Same-column extractor comparison: pushed down, not a join.
        Program::new(
            TableExtractor::new(vec![d("group")]),
            col_join(
                child_field,
                0,
                NodeExtractor::child(NodeExtractor::Id, "entry", 0),
                0,
            ),
        ),
        // Unsatisfiable predicate: every engine must emit the empty table.
        Program::new(
            TableExtractor::new(vec![item, d("entry")]),
            Predicate::False,
        ),
        // A join cycle: `t[0] = t[2]` drives no join step and is re-checked.
        Program::new(
            TableExtractor::new(vec![d("field"), d("field"), d("field")]),
            join_cycle(col_join(NodeExtractor::Id, 0, NodeExtractor::Id, 2)),
        ),
        // A cycle whose re-checked constraint the joins do not imply.
        Program::new(
            TableExtractor::new(vec![d("field"), d("field"), d("field")]),
            join_cycle(col_join(
                NodeExtractor::parent(NodeExtractor::Id),
                0,
                NodeExtractor::parent(NodeExtractor::Id),
                2,
            )),
        ),
        // A ⊥ extractor under a negation, pushed down and inside a residual
        // disjunction whose other literal never holds: both keep every tuple.
        Program::new(
            TableExtractor::new(vec![d("field"), d("entry")]),
            Predicate::and(
                negated_bottom(),
                Predicate::or(negated_bottom(), leaf_cmp(1, CompareOp::Lt, 0)),
            ),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planner_matches_naive_semantics_in_emission_order(tree in random_tree()) {
        for (i, program) in operator_matrix().iter().enumerate() {
            let fast = execute(&tree, program);
            let reference = naive_in_emission_order(&tree, program);
            prop_assert!(
                fast.to_csv() == reference.to_csv(),
                "program {} diverged from the naive semantics in emission order", i
            );
        }
    }
}

#[test]
fn a_join_on_two_spellings_of_one_value_keeps_the_row() {
    // 2^60 as an integer and as a float: equal under `Value::compare`, so the
    // naive semantics joins them, and so must the executor's hash join.
    let tree =
        xml_to_hdt(r#"<root><a k="1152921504606846976"/><b k="1.152921504606846976e18"/></root>"#)
            .expect("well-formed XML");
    let k = NodeExtractor::child(NodeExtractor::Id, "k", 0);
    let program = Program::new(
        TableExtractor::new(vec![
            ColumnExtractor::descendants(ColumnExtractor::Input, "a"),
            ColumnExtractor::descendants(ColumnExtractor::Input, "b"),
        ]),
        col_join(k.clone(), 0, k, 1),
    );
    let reference = naive_in_emission_order(&tree, &program);
    assert_eq!(reference.len(), 1);
    assert_eq!(execute(&tree, &program).to_csv(), reference.to_csv());
}

#[test]
fn a_join_cycle_rechecks_its_unused_constraint() {
    // Three spellings of one value under two parents: the joins `t[0] = t[1]`
    // and `t[1] = t[2]` keep all 27 tuples.  `t[0] = t[2]` holds on each of them;
    // `parent(t[0]) = parent(t[2])`, re-checked after the joins, keeps the 15
    // whose first and last nodes share a parent.
    let mut tree = Hdt::with_root("root");
    for (parent, leaves) in [("a", ["1", "01"].as_slice()), ("b", &["1.0"])] {
        let node = tree.add_child(tree.root(), parent, None);
        for leaf in leaves {
            tree.add_child(node, "field", Some(leaf.to_string()));
        }
    }
    let field = || ColumnExtractor::descendants(ColumnExtractor::Input, "field");
    let parent = || NodeExtractor::parent(NodeExtractor::Id);
    for (closing, rows) in [
        (col_join(NodeExtractor::Id, 0, NodeExtractor::Id, 2), 27),
        (col_join(parent(), 0, parent(), 2), 15),
    ] {
        let program = Program::new(
            TableExtractor::new(vec![field(), field(), field()]),
            join_cycle(closing.clone()),
        );
        let p = plan_with_tree(&program, &tree);
        assert_eq!(p.unused_joins, vec![2]);
        assert_eq!(p.residual(), closing);
        let reference = naive_in_emission_order(&tree, &program);
        assert_eq!(reference.len(), rows);
        assert_eq!(execute(&tree, &program).to_csv(), reference.to_csv());
    }
}

#[test]
fn synthesized_motivating_program_matches_naive_semantics() {
    let program = learn_transformation(&[social::training_example()], &SynthConfig::default())
        .expect("synthesis succeeds")
        .program;
    for (persons, friends) in [(2, 1), (5, 2), (20, 3)] {
        let tree = social_network(persons, friends);
        assert_eq!(
            execute(&tree, &program).to_csv(),
            naive_in_emission_order(&tree, &program).to_csv(),
            "row mismatch at persons={persons} friends={friends}"
        );
    }
}

#[test]
fn table2_snapshot_programs_match_naive_semantics() {
    // The pinned Table 2 programs, parsed from the snapshot instead of synthesized:
    // `t2/<DATASET>.<table>: <program> cost=(..) tried=n`.
    let fixture = include_str!("fixtures/program_snapshots.txt");
    let mut checked = 0;
    for spec in all_datasets() {
        let (tree, _) = spec.generate(3);
        let prefix = format!("t2/{}.", spec.name);
        for line in fixture.lines().filter(|l| l.starts_with(&prefix)) {
            let (name, rest) = line
                .split_once(": ")
                .expect("snapshot lines are `name: ...`");
            let (text, _) = rest
                .rsplit_once(" cost=")
                .expect("snapshot lines carry a cost");
            let program = parse_program(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                execute(&tree, &program).to_csv(),
                naive_in_emission_order(&tree, &program).to_csv(),
                "{name} diverged from the naive semantics in emission order"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 50, "every Table 2 program is checked");
}

#[test]
fn programs_wider_than_256_columns_plan_and_execute() {
    let tree = xml_to_hdt("<r><a>1</a></r>").expect("well-formed XML");
    let column = ColumnExtractor::descendants(ColumnExtractor::Input, "a");
    let program = Program::new(TableExtractor::new(vec![column; 257]), Predicate::True);
    let table = execute(&tree, &program);
    assert_eq!(table.len(), 1);
    assert_eq!(
        table.to_csv(),
        naive_in_emission_order(&tree, &program).to_csv()
    );
    let text = plan_with_tree(&program, &tree).explain(&program);
    assert!(text.starts_with("plan: 257 column(s)"), "{text}");
    assert!(!generate(&program, Backend::JavaScript).source.is_empty());
}

#[test]
fn planner_output_is_identical_at_1_and_4_threads() {
    // 150 × 150 descendants cross product = 22_500 intermediate tuples under a
    // two-column residual clause, of which more than 8192 survive.
    let tree = social_network(150, 1);
    let program = Program::new(
        TableExtractor::new(vec![
            ColumnExtractor::descendants(ColumnExtractor::Input, "fid"),
            ColumnExtractor::descendants(ColumnExtractor::Input, "years"),
        ]),
        Predicate::or(
            leaf_cmp(0, CompareOp::Lt, 70),
            leaf_cmp(1, CompareOp::Gt, 1200),
        ),
    );
    mitra_pool::set_threads(1);
    let sequential = execute(&tree, &program);
    mitra_pool::set_threads(4);
    let parallel = execute(&tree, &program);
    mitra_pool::set_threads(0);
    assert!(
        sequential.len() > 8192,
        "fewer rows than the workload was sized for"
    );
    assert_eq!(sequential.to_csv(), parallel.to_csv());
}

#[test]
fn explain_snapshot_motivating_example() {
    let example = social::training_example();
    let synthesis =
        learn_transformation(&[example], &SynthConfig::default()).expect("synthesis succeeds");
    let tree = social_network(5, 2);
    let text = plan_with_tree(&synthesis.program, &tree).explain(&synthesis.program);
    let expected = "\
plan: 3 column(s), 2 join constraint(s), 0 pushed-down filter(s)
  1. scan         t[0] := descendants(s, name), est 5
  2. interval-join t[2] := descendants(s, years) inside subtree of ((\\n.parent(n)) t[0]) at depth +3, est 10
  3. hash-join    t[1] := descendants(s, name) on ((\\n.child(parent(n), id, 0)) t[1]) = ((\\n.child(parent(n), fid, 0)) t[2]), est 5
  residual: none
  output: rows sorted by column positions in order [0, 2, 1]
";
    assert_eq!(text, expected, "\n--- explain output ---\n{text}");
}

#[test]
fn explain_snapshot_mondial_province() {
    let spec = all_datasets()
        .into_iter()
        .find(|s| s.name == "MONDIAL")
        .expect("MONDIAL spec exists");
    let (tree, expected_tables) = spec.generate(2);
    let output = expected_tables
        .get("province")
        .expect("province table exists")
        .clone();
    let example = Example::new(tree.clone(), output);
    let synthesis =
        learn_transformation(&[example], &dataset_synth_config()).expect("synthesis succeeds");
    let text = plan_with_tree(&synthesis.program, &tree).explain(&synthesis.program);
    let expected = "\
plan: 5 column(s), 4 join constraint(s), 0 pushed-down filter(s)
  1. scan         t[0] := descendants(s, country_code), est 2
  2. interval-join t[1] := descendants(s, province_name) inside subtree of ((\\n.parent(n)) t[0]) at depth +2, est 4
  3. hash-join    t[2] := descendants(s, province_capital) on ((\\n.child(parent(n), province_name, 0)) t[2]) = ((\\n.n) t[1]), est 4
  4. hash-join    t[3] := descendants(s, province_area) on ((\\n.child(parent(n), province_name, 0)) t[3]) = ((\\n.n) t[1]), est 4
  5. hash-join    t[4] := descendants(s, city_population) on ((\\n.n) t[4]) = ((\\n.child(parent(n), province_population, 0)) t[1]), est 4
  residual: none
  output: rows sorted by column positions in order [0, 1, 2, 3, 4]
";
    assert_eq!(text, expected, "\n--- explain output ---\n{text}");
}
