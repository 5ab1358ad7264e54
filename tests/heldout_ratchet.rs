//! Held-out ratchet for Table 2: each dataset's example-based migration plan
//! (`DatasetSpec::migration_plan`: programs synthesized from the scale-2
//! example, here with no deadline) migrates `generate(200)`, and every table is
//! compared with the ground truth as a bag (`Table::same_bag`).
//!
//! `tests/fixtures/heldout_failures.txt` pins the tables that differ, each with
//! its migrated and true row counts.  The test fails on a failure the fixture
//! does not list, on a changed count, and on a listed table that now passes, so
//! a fix must also shrink the fixture.  On a mismatch it prints the lines it
//! computed.

use mitra::datagen::datasets::all_datasets;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/heldout_failures.txt");
const HELDOUT_SCALE: usize = 200;

#[test]
fn table2_heldout_failures_match_the_fixture() {
    let mut failing: BTreeMap<String, (usize, usize)> = BTreeMap::new();
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

    let pinned: BTreeMap<String, (usize, usize)> = FIXTURE
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
    for (name, &(rows, truth)) in &failing {
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
        "{}\n--- computed failing tables ---\n{}",
        problems.join("\n"),
        computed.join("\n")
    );
}
