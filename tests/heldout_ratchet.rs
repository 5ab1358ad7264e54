//! Held-out ratchets: programs synthesized from a small example must migrate a
//! larger document of the same generator to its ground truth, compared as a bag
//! (`Table::same_bag`).
//!
//! - **Table 2**: each dataset's example-based migration plan
//!   (`DatasetSpec::migration_plan`: programs synthesized from the scale-2
//!   example, here with no deadline) migrates `generate(200)`.
//!   `tests/fixtures/heldout_failures.txt` pins the tables that differ.
//! - **Table 1**: each of the 92 expressible tasks' programs (one thread, no
//!   deadline, as the program snapshot synthesizes them) runs on
//!   `Task::scaled_example` at 2×, 5× and 20× the example's records.
//!   `tests/fixtures/heldout_failures_table1.txt` pins the (task, scale) pairs
//!   that differ.
//!
//! Each fixture line carries the migrated and true row counts.  A test fails on
//! a failure its fixture does not list, on a changed count, and on a listed
//! case that now passes, so a fix must also shrink the fixture.  On a mismatch
//! it prints the lines it computed.

use mitra::datagen::datasets::all_datasets;
use mitra::datagen::generate_corpus;
use mitra::synth::exec::execute;
use mitra::synth::synthesize::{learn_transformation, SynthConfig};
use std::collections::BTreeMap;

const TABLE2_FIXTURE: &str = include_str!("fixtures/heldout_failures.txt");
const TABLE1_FIXTURE: &str = include_str!("fixtures/heldout_failures_table1.txt");
const HELDOUT_SCALE: usize = 200;
const TABLE1_SCALES: [usize; 3] = [2, 5, 20];

/// Failing cases by name: (rows migrated, rows in the ground truth).
type Failures = BTreeMap<String, (usize, usize)>;

/// Compares the failing cases with the fixture's lines, and fails with the
/// differences and the computed lines.
fn check(fixture: &str, failing: &Failures) {
    let pinned: Failures = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            let count = |i: usize| -> usize {
                fields[i]
                    .parse()
                    .unwrap_or_else(|e| panic!("fixture line `{l}`: {e}"))
            };
            assert_eq!(fields.len(), 3, "fixture line `{l}`");
            (fields[0].to_string(), (count(1), count(2)))
        })
        .collect();

    let mut problems = Vec::new();
    for (name, &(rows, truth)) in failing {
        match pinned.get(name) {
            None => problems.push(format!("{name}: new failure, {rows} rows against {truth}")),
            Some(&old) if old != (rows, truth) => problems.push(format!(
                "{name}: {rows} rows against {truth}, pinned {} against {}",
                old.0, old.1
            )),
            Some(_) => {}
        }
    }
    for name in pinned.keys().filter(|n| !failing.contains_key(*n)) {
        problems.push(format!("{name}: passes now; remove it from the fixture"));
    }
    let computed: Vec<String> = failing
        .iter()
        .map(|(name, (rows, truth))| format!("{name} {rows} {truth}"))
        .collect();
    assert!(
        problems.is_empty(),
        "{}\n--- computed failing cases ---\n{}",
        problems.join("\n"),
        computed.join("\n")
    );
}

#[test]
fn table2_heldout_failures_match_the_fixture() {
    let mut failing = Failures::new();
    let mut checked = 0;
    for spec in all_datasets() {
        let mut plan = spec.migration_plan();
        // No deadline: programs must not depend on machine speed.
        plan.synth_config.timeout = None;
        let (doc, truth) = spec.generate(HELDOUT_SCALE);
        let report = plan
            .run(&doc)
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for t in &report.tables {
            let want = &truth[&t.table];
            let got = report.database.table(&t.table);
            if !got.is_some_and(|g| g.same_bag(want)) {
                let rows = got.map_or(0, |g| g.len());
                failing.insert(format!("{}.{}", spec.name, t.table), (rows, want.len()));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 50, "every Table 2 table is checked");
    check(TABLE2_FIXTURE, &failing);
}

#[test]
fn table1_heldout_failures_match_the_fixture() {
    let config = SynthConfig {
        timeout: None,
        threads: 1,
        ..SynthConfig::default()
    };
    let tasks: Vec<_> = generate_corpus()
        .into_iter()
        .filter(|t| t.expressible)
        .collect();
    assert_eq!(tasks.len(), 92, "every expressible Table 1 task is checked");
    let mut failing = Failures::new();
    for task in &tasks {
        let program = learn_transformation(std::slice::from_ref(&task.example), &config)
            .unwrap_or_else(|e| panic!("{}: {e}", task.name))
            .program;
        for scale in TABLE1_SCALES {
            let heldout = task.scaled_example(scale);
            let got = execute(&heldout.tree, &program);
            if !got.same_bag(&heldout.output) {
                let name = format!("{}@{scale}x", task.name);
                failing.insert(name, (got.len(), heldout.output.len()));
            }
        }
    }
    check(TABLE1_FIXTURE, &failing);
}
