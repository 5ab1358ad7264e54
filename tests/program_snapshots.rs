//! Program snapshot: the exact programs the synthesizer returns on the benchmark
//! tasks, pinned line by line in `tests/fixtures/program_snapshots.txt`.
//!
//! The differential suites compare two search or predicate-learning paths that
//! share the cover solver and the classifier construction, so a change to those
//! shared parts moves both sides at once.  This snapshot pins the outputs
//! themselves: every Table 1 task and every Table 2 table, synthesized at one
//! thread with no deadline (as the benchmark does), renders as `name: <program>
//! cost=(atoms,constructs,steps) tried=<candidates>`, or `name: ERR <error>`.
//! Each program must also parse back from its pretty text to the same extractor
//! and predicate.
//!
//! On a mismatch the test writes every line it computed to
//! `program_snapshots.<group>.actual.txt` in cargo's temporary test directory
//! (`target/tmp`), so the fixture can be reviewed and replaced deliberately.

use mitra::datagen::datasets::all_datasets;
use mitra::datagen::{generate_corpus, Category};
use mitra::dsl::parse::parse_program;
use mitra::dsl::pretty;
use mitra::migrate::TableSource;
use mitra::synth::synthesize::{learn_transformation, Example, SynthConfig};
use std::collections::BTreeMap;

/// Unoptimized (dev-profile) synthesis is an order of magnitude slower than
/// release, so a debug run checks a slice: every third Table 1 task of at most
/// three columns and the DBLP and IMDB tables.  `cargo test --release --test
/// program_snapshots` checks all 148 lines.
const FULL_COVERAGE: bool = !cfg!(debug_assertions);

const FIXTURE: &str = include_str!("fixtures/program_snapshots.txt");

/// Synthesizes one task and renders its snapshot line, checking the DSL
/// round-trip on the way.
fn snapshot_line(name: &str, examples: &[Example], config: &SynthConfig) -> String {
    match learn_transformation(examples, config) {
        Ok(s) => {
            let text = pretty::program(&s.program);
            let reparsed = parse_program(&text)
                .unwrap_or_else(|e| panic!("{name}: pretty text does not parse: {e}\n{text}"));
            assert_eq!(reparsed.extractor, s.program.extractor, "{name}: {text}");
            assert_eq!(reparsed.predicate, s.program.predicate, "{name}: {text}");
            let c = s.cost;
            format!(
                "{name}: {text} cost=({},{},{}) tried={}",
                c.atoms,
                c.extractor_constructs,
                c.node_extractor_steps,
                s.profile.candidates_examined
            )
        }
        Err(e) => format!("{name}: ERR {e}"),
    }
}

fn fixture() -> BTreeMap<&'static str, &'static str> {
    FIXTURE
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| (l.split_once(": ").map_or(l, |(n, _)| n), l))
        .collect()
}

/// Compares computed lines with the fixture's lines of this group; in full
/// coverage every fixture line of the group must have been computed, and the
/// group must hold `expected_names` tasks.
fn check(group: &str, lines: &[(String, String)], expected_names: usize) {
    let fixture = fixture();
    let mut diffs = Vec::new();
    for (name, line) in lines {
        match fixture.get(name.as_str()) {
            Some(want) if *want == line => {}
            Some(want) => diffs.push(format!("- {want}\n+ {line}")),
            None => diffs.push(format!("+ {line} (not in the fixture)")),
        }
    }
    if FULL_COVERAGE {
        for (name, want) in fixture
            .iter()
            .filter(|(n, _)| n.starts_with(&format!("{group}/")))
        {
            if !lines.iter().any(|(n, _)| n == name) {
                diffs.push(format!("- {want} (not computed)"));
            }
        }
    }
    if !diffs.is_empty() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("program_snapshots.{group}.actual.txt"));
        let all: Vec<&str> = lines.iter().map(|(_, l)| l.as_str()).collect();
        let _ = std::fs::write(&path, all.join("\n") + "\n");
        panic!(
            "{} of {} {group} programs differ from the snapshot (computed lines in {}):\n{}",
            diffs.len(),
            lines.len(),
            path.display(),
            diffs.join("\n")
        );
    }
    if FULL_COVERAGE {
        assert_eq!(lines.len(), expected_names, "{group}: task count changed");
    }
}

#[test]
fn table1_programs_match_the_snapshot() {
    let config = SynthConfig {
        timeout: None,
        threads: 1,
        ..SynthConfig::default()
    };
    let tasks: Vec<_> = generate_corpus()
        .into_iter()
        .filter(|t| FULL_COVERAGE || t.category <= Category::Three)
        .collect();
    let step = if FULL_COVERAGE { 1 } else { 3 };
    let lines: Vec<(String, String)> = tasks
        .iter()
        .step_by(step)
        .map(|t| {
            let name = format!("t1/{}", t.name);
            let line = snapshot_line(&name, std::slice::from_ref(&t.example), &config);
            (name, line)
        })
        .collect();
    check("t1", &lines, 98);
}

#[test]
fn table2_programs_match_the_snapshot() {
    let mut lines = Vec::new();
    for spec in all_datasets() {
        if !FULL_COVERAGE && !matches!(spec.name, "DBLP" | "IMDB") {
            continue;
        }
        let mut plan = spec.migration_plan();
        plan.synth_config.threads = 1;
        plan.synth_config.timeout = None;
        for task in &plan.tasks {
            let TableSource::Examples(examples) = &task.source else {
                continue;
            };
            let name = format!("t2/{}.{}", spec.name, task.table);
            let line = snapshot_line(&name, examples, &plan.synth_config);
            lines.push((name, line));
        }
    }
    check("t2", &lines, 50);
}
