//! Robustness of the fault-tolerance layer (DESIGN.md §10).
//!
//! Three contracts, all deterministic:
//!
//! 1. Every file in `tests/fixtures/malformed/` — truncated, unbalanced,
//!    invalid-UTF-8 and adversarially deep documents — yields a **typed error**,
//!    never a panic and never a stack overflow.
//! 2. A multi-table migration with one poisoned table (an injected worker panic)
//!    still populates the sibling tables and reports the poisoned one as
//!    `failed`; foreign-key dependents of a failed table are `skipped`, not
//!    silently empty.
//! 3. Degraded reports are byte-identical at 1 vs 4 synthesis threads, both for
//!    an injected panic and for an exhausted fuel budget — degradation is part
//!    of the determinism contract, not an excuse to break it.
//!
//! It also runs a fixed-seed slice of the differential fuzz suite: seven
//! scenarios covering all seven kinds, each learned program checked best-first
//! against exhaustive search and planner against the naive evaluator.

use mitra::datagen::fuzz::{migration_scenario, run_suite};
use mitra::hdt::{html::html_to_hdt, json::json_to_hdt, xml::xml_to_hdt, HdtError};
use mitra::migrate::{MigrationError, TableOutcome};
use mitra::synth::budget::Budget;
use mitra::trace::fault::{set_fault, FaultSpec};
use std::path::{Path, PathBuf};

/// Parse stack head-room for the depth-limit fixtures: the guard caps recursion
/// at 10k frames, which fits easily in 64 MiB even in debug builds, so a panic
/// here means the guard regressed — not that the harness was too stingy.
const PARSE_STACK: usize = 64 << 20;

fn malformed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("malformed")
}

/// Parses one document in a dedicated big-stack thread, converting a panic (or
/// stack overflow short of an abort) into a test failure with the file name.
fn parse_in_thread(name: String, bytes: Vec<u8>) -> Result<(), String> {
    let worker_name = name.clone();
    std::thread::Builder::new()
        .name(format!("parse-{name}"))
        .stack_size(PARSE_STACK)
        .spawn(move || {
            let name = worker_name;
            // Invalid UTF-8 is rejected at the decode layer with a typed error;
            // that counts as a graceful rejection for binary fixtures.
            let Ok(text) = std::str::from_utf8(&bytes) else {
                return Err("invalid UTF-8".to_string());
            };
            let parsed = match name.rsplit('.').next() {
                Some("json") => json_to_hdt(text),
                Some("html") | Some("htm") => html_to_hdt(text),
                _ => xml_to_hdt(text),
            };
            parsed.map(|_| ()).map_err(|e: HdtError| e.to_string())
        })
        .expect("spawn parser thread")
        .join()
        .unwrap_or_else(|_| panic!("parser PANICKED on fixture `{name}`"))
}

#[test]
fn every_malformed_fixture_is_a_typed_error() {
    let dir = malformed_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/fixtures/malformed must exist")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 10,
        "expected the committed corpus, found {} files in {}",
        entries.len(),
        dir.display()
    );
    for path in entries {
        let name = path
            .file_name()
            .expect("fixture file name")
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&path).expect("readable fixture");
        match parse_in_thread(name.clone(), bytes) {
            Err(message) => {
                assert!(!message.is_empty(), "`{name}` produced an empty error");
            }
            Ok(()) => panic!("fixture `{name}` parsed successfully — corpus no longer malformed"),
        }
    }
}

#[test]
fn deep_fixtures_report_the_depth_limit() {
    // The three `deep.*` fixtures nest one level past MAX_PARSE_DEPTH; the guard
    // must identify them as depth-limit breaches, not generic syntax errors.
    for name in ["deep.xml", "deep.json", "deep.html"] {
        let bytes = std::fs::read(malformed_dir().join(name)).expect("readable fixture");
        let message =
            parse_in_thread(name.to_string(), bytes).expect_err("deep fixtures must be rejected");
        assert!(
            message.contains("depth limit"),
            "`{name}`: expected a depth-limit error, got: {message}"
        );
    }
}

#[test]
fn poisoned_table_degrades_alone_and_identically_at_any_thread_count() {
    // Serialize the two fault-injecting sections inside ONE test: the installed
    // fault is process-global, so two tests racing on it would be flaky.
    const SEED: u64 = 0x0B_0557;

    // (a) One injected worker panic: the poisoned table fails, every sibling
    // still populates, and the degradation summary is byte-identical at 1 vs 4
    // synthesis threads.
    let mut summaries = Vec::new();
    for threads in [1usize, 4] {
        set_fault(FaultSpec::parse("panic:migrate.table:1"));
        let (doc, mut plan) = migration_scenario(SEED, 4);
        plan.synth_config.threads = threads;
        let report = plan.run(&doc).expect("non-strict runs degrade, not abort");
        set_fault(None);

        let d = report.degradation();
        assert_eq!((d.ok, d.failed), (3, 1), "{}", report.summary_json());
        assert!(
            matches!(
                report.tables[1].outcome,
                TableOutcome::Failed(MigrationError::Panicked { .. })
            ),
            "table 1 outcome: {}",
            report.tables[1].outcome
        );
        for (i, table) in report.tables.iter().enumerate() {
            if i != 1 {
                assert!(table.outcome.is_ok(), "sibling {i}: {}", table.outcome);
                assert!(table.rows > 0, "sibling {i} produced no rows");
            }
        }
        summaries.push(report.summary_json());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "panic degradation must not depend on threads"
    );

    // (b) A fuel budget that exhausts mid-search: same determinism contract.
    let mut summaries = Vec::new();
    for threads in [1usize, 4] {
        let (doc, mut plan) = migration_scenario(SEED, 4);
        plan.synth_config.threads = threads;
        plan.synth_config.budget = Budget {
            max_candidates: Some(0),
            ..Budget::UNLIMITED
        };
        let report = plan.run(&doc).expect("non-strict runs degrade, not abort");
        assert_eq!(
            report.degradation().budget_exhausted,
            4,
            "{}",
            report.summary_json()
        );
        summaries.push(report.summary_json());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "budget degradation must not depend on threads"
    );

    // (c) Strict mode restores abort-on-first-error for the same poisoned plan.
    set_fault(FaultSpec::parse("panic:migrate.table:1"));
    let (doc, plan) = migration_scenario(SEED, 4);
    let strict = plan.with_strict(true);
    let err = strict.run(&doc);
    set_fault(None);
    assert!(
        matches!(err, Err(MigrationError::Panicked { .. })),
        "strict mode must surface the panic as an error: {err:?}"
    );
}

#[test]
fn a_small_suite_has_no_failures() {
    let report = run_suite(7, 7, 1);
    assert_eq!(report.outcomes.len(), 7);
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "unexpected fuzz failures: {:?}",
        failures
            .iter()
            .map(|o| (o.id, o.kind, &o.verdict))
            .collect::<Vec<_>>()
    );
}
