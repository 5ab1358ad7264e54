//! Differential suite for the cost-ordered best-first search.
//!
//! The lazy heap-frontier search in `learn_transformation` must be a pure
//! performance transformation: on any specification where the combination cap
//! does not bind, it and the exhaustive sweep `learn_transformation_exhaustive`
//! (every combination of the streamed column words, no reuse, no pruning, no
//! early stop) explore the same program space and must return **identical**
//! programs and costs (or the same error).
//!
//! The suite also pins the headline search-space win: the two Table 1 slice tasks
//! that used to report `truncated: true` (the per-column word cap cut their
//! enumeration short) now stream candidates from the automata and report
//! `truncated: false`.
//!
//! Below the search, `learn_predicate` must agree with
//! `learn_predicate_reference` under the default predicate universe, ordering
//! operators included, on documents mixing numeric, boolean, empty and textual
//! leaves.

use mitra::datagen::generate_corpus;
use mitra::dsl::ast::{ColumnExtractor, TableExtractor};
use mitra::dsl::cost::Cost;
use mitra::dsl::{pretty, Table, Value};
use mitra::hdt::generate::{social_network, social_network_rows};
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::Hdt;
use mitra::synth::dfa::DfaLimits;
use mitra::synth::predicate::{learn_predicate, learn_predicate_reference};
use mitra::synth::synthesize::{
    learn_transformation, learn_transformation_exhaustive, Example, SynthConfig, SynthError,
};
use mitra::synth::universe::UniverseConfig;
use mitra::synth::ColumnEvalCache;
use proptest::prelude::*;
use std::time::Duration;

/// A configuration whose combination cap is wide enough that the exhaustive
/// path sweeps the whole space (its per-column word cap is derived from it, so
/// it does not bind either): the two searches then range over the same
/// programs and must agree exactly.  The space itself is kept
/// small through the word-length bound and a light predicate universe — the
/// exhaustive referee sweeps every combination, and the best-first search stops
/// by proof only once its incumbent reaches the atom floor `(L, Σ sizes, 0)` of
/// the frontier; a winner with more atoms than the floor keeps it popping until
/// the frontier drains, so "non-binding caps" over the full default space would
/// mean sweeping it exhaustively on both sides.
fn uncapped_config() -> SynthConfig {
    SynthConfig {
        timeout: None,
        dfa_limits: DfaLimits {
            max_word_len: 4,
            ..Default::default()
        },
        universe: UniverseConfig {
            max_node_extractor_depth: 2,
            max_extractors_per_column: 12,
            max_constants: 8,
            with_ordering: false,
        },
        max_table_candidates: 100_000,
        threads: 1,
        ..Default::default()
    }
}

/// Runs both searches and asserts identical outcomes: the same error, or the same
/// pretty-printed program at the same cost.
fn assert_equivalent(examples: &[Example]) -> Result<(), TestCaseError> {
    let config = uncapped_config();
    let fast = learn_transformation(examples, &config);
    let slow = learn_transformation_exhaustive(examples, &config);
    match (&fast, &slow) {
        (Ok(f), Ok(s)) => {
            prop_assert!(
                pretty::program(&f.program) == pretty::program(&s.program),
                "programs diverged:\nbest-first: {}\nexhaustive: {}",
                pretty::program(&f.program),
                pretty::program(&s.program)
            );
            prop_assert_eq!(f.cost, s.cost);
        }
        (Err(ef), Err(es)) => prop_assert_eq!(ef, es),
        _ => prop_assert!(
            false,
            "outcomes diverged: best-first {:?}, exhaustive {:?}",
            fast.as_ref().map(|s| pretty::program(&s.program)),
            slow.as_ref().map(|s| pretty::program(&s.program))
        ),
    }
    Ok(())
}

fn social_example(n: usize, f: usize) -> Example {
    let tree = social_network(n, f);
    let rows = social_network_rows(n, f);
    let mut output = Table::new(vec![
        "Person".to_string(),
        "Friend-with".to_string(),
        "years".to_string(),
    ]);
    for r in rows {
        output.push(r.iter().map(|s| Value::from_data(s)).collect());
    }
    Example::new(tree, output)
}

#[test]
fn equivalent_on_the_motivating_example() {
    assert_equivalent(&[social_example(2, 1)]).unwrap();
}

#[test]
fn equivalent_on_single_column_projection() {
    let ex = Example::new(
        social_network(3, 1),
        Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]),
    );
    assert_equivalent(&[ex]).unwrap();
}

/// The motivating example's first popped combo yields a program with the atom
/// floor's two atoms, and every later combo has a larger extractor size, so the
/// search proves that program minimal after one pop: the cap and the thread count
/// change nothing.
#[test]
fn motivating_example_stops_by_proof_after_one_pop() {
    let ex = social_example(3, 1);
    let mut first: Option<(String, Cost)> = None;
    for max_table_candidates in [128, 10_000] {
        for threads in [1, 4] {
            let config = SynthConfig {
                timeout: None,
                max_table_candidates,
                threads,
                ..Default::default()
            };
            let s = learn_transformation(std::slice::from_ref(&ex), &config).unwrap();
            assert_eq!(
                s.profile.candidates_examined + s.profile.candidates_pruned,
                1,
                "cap {max_table_candidates}, {threads} threads"
            );
            let got = (pretty::program(&s.program), s.cost);
            assert_eq!(first.get_or_insert_with(|| got.clone()), &got);
        }
    }
    let (program, cost) = first.unwrap();
    assert_eq!(program, MOTIVATING_PROGRAM);
    assert_eq!(cost, MOTIVATING_COST);
}

/// The motivating example's θ-minimal program and its cost.
const MOTIVATING_PROGRAM: &str = concat!(
    r"\tau. filter((\s.descendants(s, name)){root(tau)} x ",
    r"(\s.descendants(s, name)){root(tau)} x (\s.descendants(s, years)){root(tau)}, ",
    r"\t. ((\n.parent(n)) t[0]) = ((\n.parent(parent(parent(n)))) t[2]) && ",
    r"((\n.child(parent(n), id, 0)) t[1]) = ((\n.child(parent(n), fid, 0)) t[2]))"
);
const MOTIVATING_COST: Cost = Cost {
    atoms: 2,
    extractor_constructs: 3,
    node_extractor_steps: 8,
};

/// A one-column output has an atom floor of zero.  A 1-atom program that keeps
/// every `text` node but `y` comes up before the 0-atom program, so a floor that
/// over-counted would stop there and return it.
#[test]
fn an_atom_free_program_beats_an_earlier_one_atom_program() {
    let tree = xml_to_hdt("<r><a><name>x</name></a><b><name>y</name></b><a><name>z</name></a></r>")
        .unwrap();
    let ex = Example::new(tree, Table::from_rows(&["name"], &[&["x"], &["z"]]));
    let config = SynthConfig {
        timeout: None,
        threads: 1,
        ..Default::default()
    };
    let s = learn_transformation(std::slice::from_ref(&ex), &config).unwrap();
    assert_eq!(
        pretty::table_extractor(&s.program.extractor),
        "(\\s.descendants(children(s, a), text)){root(tau)}"
    );
    assert_eq!(s.cost.atoms, 0);
}

/// Two examples on which the shortest extractor, `descendants(s, text)`, is exact
/// on the first and over-approximates the second, where it also selects the
/// company's name.  The search reuses predicate outcomes between candidates whose
/// columns select the same nodes on *every* example; a reuse keyed by the first
/// example alone would hand later candidates that first rejection or a predicate
/// learned for other nodes, and return a 1-atom program.
#[test]
fn outcome_reuse_reads_every_example() {
    let example = |doc: &str, names: &[&[&str]]| {
        Example::new(xml_to_hdt(doc).unwrap(), Table::from_rows(&["name"], names))
    };
    let examples = [
        example(
            "<r><p><name>Ann</name></p><p><name>Bob</name></p></r>",
            &[&["Ann"], &["Bob"]],
        ),
        example(
            "<r><p><name>Cy</name></p><c><name>Acme</name></c></r>",
            &[&["Cy"]],
        ),
    ];
    assert_equivalent(&examples).unwrap();
    let config = SynthConfig {
        timeout: None,
        threads: 1,
        ..Default::default()
    };
    let s = learn_transformation(&examples, &config).unwrap();
    assert_eq!(
        pretty::program(&s.program),
        r"\tau. filter((\s.descendants(children(s, p), text)){root(tau)}, \t. true)"
    );
    assert_eq!(s.cost.atoms, 0);
}

#[test]
fn equivalent_on_unsatisfiable_specification() {
    let ex = Example::new(
        social_network(2, 1),
        Table::from_rows(&["x"], &[&["value-not-in-tree"]]),
    );
    let config = uncapped_config();
    assert_eq!(
        learn_transformation(std::slice::from_ref(&ex), &config).unwrap_err(),
        SynthError::NoColumnExtractor(0)
    );
    assert_eq!(
        learn_transformation_exhaustive(&[ex], &config).unwrap_err(),
        SynthError::NoColumnExtractor(0)
    );
}

/// A small random tree of people with ids and cities, plus an output projecting a
/// random subset of the available fields — the same document family the index and
/// determinism property tests use.
fn random_projection_spec(people: usize, pick_city: bool, seed: u64) -> (Hdt, Table) {
    let mut doc = String::from("<db>");
    for i in 0..people {
        // Deterministic but seed-scrambled field values.
        let v = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64);
        doc.push_str(&format!(
            "<person><name>p{i}</name><id>{}</id><city>c{}</city></person>",
            v % 97,
            v % 5
        ));
    }
    doc.push_str("</db>");
    let tree = mitra::hdt::xml::xml_to_hdt(&doc).expect("valid XML");
    let mut table = if pick_city {
        Table::new(vec!["name".to_string(), "city".to_string()])
    } else {
        Table::new(vec!["name".to_string()])
    };
    for i in 0..people {
        let v = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64);
        let mut row = vec![Value::from_data(&format!("p{i}"))];
        if pick_city {
            row.push(Value::from_data(&format!("c{}", v % 5)));
        }
        table.push(row);
    }
    (tree, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn best_first_matches_exhaustive_on_random_projections(
        people in 2usize..5,
        pick_city in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (tree, output) = random_projection_spec(people, pick_city, seed);
        assert_equivalent(&[Example::new(tree, output)])?;
    }
}

/// Leaf texts of the rule-4 differential: integers, decimals, numeric text with
/// surrounding spaces, booleans, empty values and words — every class the
/// ordering operators treat differently.
const LEAF_TEXTS: &[&str] = &[
    "0", "7", "-3", "42", "2.5", "-0.5", "7.0", " 7 ", "  12", "3.25 ", "true", "false", "", "  ",
    "apple", "Pear", "10x",
];

/// A document of `records` records whose leaves `a`, `b` and `c` are drawn from
/// [`LEAF_TEXTS`] by `seed`, the ψ selecting the first `arity` leaf tags, and an
/// output holding seeded data rows of ψ's tuples.
fn rule4_spec(records: usize, arity: usize, seed: u64) -> (Example, TableExtractor) {
    let mut state = seed;
    let mut next = move |n: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n as u64) as usize
    };
    let tags = ["a", "b", "c"];
    let mut tree = Hdt::with_root("db");
    let root = tree.root();
    let mut columns: Vec<Vec<Value>> = vec![Vec::new(); arity];
    for _ in 0..records {
        let rec = tree.add_child(root, "rec", None);
        for (t, tag) in tags.iter().enumerate() {
            let text = LEAF_TEXTS[next(LEAF_TEXTS.len())];
            tree.add_child(rec, *tag, Some(text.to_string()));
            if t < arity {
                columns[t].push(Value::from_data(text));
            }
        }
    }
    // The data rows of ψ's tuples: the cross product of the columns' values.
    let mut rows: Vec<Vec<Value>> = vec![Vec::new()];
    for column in &columns {
        rows = rows
            .iter()
            .flat_map(|row| {
                column.iter().map(move |v| {
                    let mut row = row.clone();
                    row.push(v.clone());
                    row
                })
            })
            .collect();
    }
    // Up to `records` rows, as many as a real example of this document holds (a
    // third of a 125-tuple product makes QM's minimization the whole test).
    let mut output = Table::new(tags[..arity].iter().map(|t| t.to_string()).collect());
    for _ in 0..=next(records) {
        output.push(rows[next(rows.len())].clone());
    }
    let psi = TableExtractor::new(
        tags[..arity]
            .iter()
            .map(|&t| ColumnExtractor::descendants(ColumnExtractor::Input, t))
            .collect(),
    );
    (Example::new(tree, output), psi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // `uncapped_config` runs without the ordering operators; this compares the
    // two predicate learners under the default universe (`<`, `<=`, `>`, `>=`
    // on, 64 constants) on mixed numeric, boolean, empty and textual leaves.
    #[test]
    fn rule4_fast_path_matches_reference_with_ordering(
        records in 2usize..6,
        arity in 2usize..4,
        seed in any::<u64>(),
    ) {
        let (ex, psi) = rule4_spec(records, arity, seed);
        let config = SynthConfig {
            threads: 1,
            ..Default::default()
        };
        prop_assert!(config.universe.with_ordering);
        prop_assert_eq!(config.universe.max_constants, 64);
        let examples = std::slice::from_ref(&ex);
        let fast = learn_predicate(examples, &psi, &config, &ColumnEvalCache::new(1));
        let reference =
            learn_predicate_reference(examples, &psi, &config, &ColumnEvalCache::new(1));
        prop_assert_eq!(fast, reference);
    }
}

/// Table 1 slice regression: corpus tasks 10 and 11 (`nested-join-2col-*`) used to
/// report `truncated: true` because the 16-word enumeration cap cut their column
/// candidate lists short.  Streaming enumeration has no such cap — the flag now
/// only reports DFA *construction* limits, which these tasks do not hit.
#[test]
fn previously_truncated_table1_tasks_are_now_exact() {
    let tasks = generate_corpus();
    let config = SynthConfig {
        timeout: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    for id in [10usize, 11] {
        let task = &tasks[id];
        assert_eq!(task.id, id);
        let synthesis = learn_transformation(std::slice::from_ref(&task.example), &config)
            .unwrap_or_else(|e| panic!("task {id} ({}) failed: {e}", task.name));
        assert!(
            !synthesis.truncated,
            "task {id} ({}) still reports a truncated search space",
            task.name
        );
    }
}
