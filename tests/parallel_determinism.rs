//! Thread-count determinism of the parallel synthesizer.
//!
//! The worker pool merges per-worker results in canonical order (candidates by
//! enumeration index, migration tables by task order), so `learn_transformation`
//! must produce **byte-identical** programs — and identical executed tables — at
//! every thread count.  These tests drive the property on the motivating example
//! and on the same kind of random trees `tests/index_properties.rs` uses.

use mitra::dsl::eval::eval_program;
use mitra::dsl::{pretty, Table, Value};
use mitra::hdt::generate::{social_network, social_network_rows};
use mitra::hdt::Hdt;
use mitra::synth::synthesize::{learn_transformation, Example, SynthConfig, SynthError};
use proptest::prelude::*;

/// A synthesis configuration with explicit thread count and no wall-clock budget
/// (a timeout could fire on one run and not the other, which is scheduling noise,
/// not nondeterminism).
fn config(threads: usize) -> SynthConfig {
    SynthConfig {
        timeout: None,
        max_table_candidates: 16,
        threads,
        ..Default::default()
    }
}

/// Runs synthesis at two thread counts and asserts equal outcomes: same error, or
/// the same pretty-printed program producing the same table on the example tree.
fn assert_deterministic(examples: &[Example], a: usize, b: usize) -> Result<(), TestCaseError> {
    let ra = learn_transformation(examples, &config(a));
    let rb = learn_transformation(examples, &config(b));
    match (&ra, &rb) {
        (Ok(sa), Ok(sb)) => {
            prop_assert!(
                pretty::program(&sa.program) == pretty::program(&sb.program),
                "programs diverged between {} and {} threads:\n{}\nvs\n{}",
                a,
                b,
                pretty::program(&sa.program),
                pretty::program(&sb.program)
            );
            prop_assert_eq!(sa.cost, sb.cost);
            prop_assert_eq!(
                sa.profile.candidates_examined,
                sb.profile.candidates_examined
            );
            prop_assert_eq!(sa.programs_found, sb.programs_found);
            for ex in examples {
                let ta = eval_program(&ex.tree, &sa.program).expect("program evaluates");
                let tb = eval_program(&ex.tree, &sb.program).expect("program evaluates");
                prop_assert_eq!(ta.rows, tb.rows);
            }
        }
        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
        _ => prop_assert!(
            false,
            "one thread count succeeded and the other failed: {:?} vs {:?}",
            ra.as_ref().map(|s| s.programs_found),
            rb.as_ref().map(|s| s.programs_found)
        ),
    }
    Ok(())
}

#[test]
fn motivating_example_is_identical_across_thread_counts() {
    let tree = social_network(3, 1);
    let rows = social_network_rows(3, 1);
    let mut output = Table::new(vec![
        "Person".to_string(),
        "Friend-with".to_string(),
        "years".to_string(),
    ]);
    for r in rows {
        output.push(r.iter().map(|s| Value::from_data(s)).collect());
    }
    let examples = [Example::new(tree, output)];
    for threads in [2, 4, 8] {
        assert_deterministic(&examples, 1, threads).unwrap();
    }
}

#[test]
fn unsatisfiable_examples_fail_identically_across_thread_counts() {
    let ex = Example::new(
        social_network(2, 1),
        Table::from_rows(&["x"], &[&["value-not-in-the-tree"]]),
    );
    let seq = learn_transformation(std::slice::from_ref(&ex), &config(1)).unwrap_err();
    let par = learn_transformation(std::slice::from_ref(&ex), &config(4)).unwrap_err();
    assert_eq!(seq, par);
    assert_eq!(seq, SynthError::NoColumnExtractor(0));
}

/// Strategy for small random trees built through the arena mutators — the same
/// shape as `tests/index_properties.rs`, but leaves always carry data so output
/// examples can be derived from them.
fn random_tree() -> impl Strategy<Value = Hdt> {
    let ops = prop::collection::vec((0u8..3, 0usize..4, 0usize..9), 1..40);
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
                    tree.add_child(top, tags[tag_idx], Some(val.to_string()));
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

/// Derives a single-column output example from the data of every `field` leaf in
/// the tree (possibly empty — synthesis must then fail the same way everywhere).
fn field_output(tree: &Hdt) -> Table {
    let mut out = Table::new(vec!["field".to_string()]);
    for id in tree.descendants_with_tag(tree.root(), "field") {
        if let Some(d) = tree.data(*id) {
            out.push(vec![Value::from_data(d)]);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_trees_synthesize_identically_at_1_and_4_threads(tree in random_tree()) {
        let output = field_output(&tree);
        let examples = [Example::new(tree, output)];
        assert_deterministic(&examples, 1, 4)?;
    }

    #[test]
    fn random_two_column_tasks_are_deterministic(tree in random_tree()) {
        // Pair every `field` value with itself: a 2-column task exercising the
        // candidate cartesian product and the predicate learner.
        let mut output = Table::new(vec!["a".to_string(), "b".to_string()]);
        for id in tree.descendants_with_tag(tree.root(), "field") {
            if let Some(d) = tree.data(*id) {
                output.push(vec![Value::from_data(d), Value::from_data(d)]);
            }
        }
        let examples = [Example::new(tree, output)];
        assert_deterministic(&examples, 1, 3)?;
    }
}
