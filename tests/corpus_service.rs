//! Integration tests for the checkpointed corpus migration service
//! (DESIGN.md §12): crash-resume byte-identity at 1 vs 4 threads (with one
//! shape and with two), exact quarantine of a seeded malformed fraction with
//! zero FK violations, synthesize-once-per-shape verified through the
//! `synth.candidates.examined` counter, parse-once verified through the
//! `ingest.xml.docs` counter, and escalating retries under a row budget.
//!
//! Fault injection and metrics counters are process-global, so the tests
//! serialize on one mutex.

use mitra::datagen::fuzz::{mixed_corpus, mixer_job, CorpusMix};
use mitra::migrate::corpus::{parse_corpus_text, resume, run, CorpusError, CorpusJob, FailureKind};
use mitra::synth::fingerprint::fingerprint;
use mitra::trace::fault::{set_fault, FaultSpec};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

/// Clears any injected fault when a test exits (even by panic).
struct FaultGuard;

impl Drop for FaultGuard {
    fn drop(&mut self) {
        set_fault(None);
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mitra-corpus-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The comparable artifacts of a finished run, as raw bytes.
fn artifacts(out_dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = vec![
        "failure_ledger.jsonl".to_string(),
        "summary.json".to_string(),
    ];
    let tables_dir = out_dir.join("tables");
    let mut tables: Vec<String> = std::fs::read_dir(&tables_dir)
        .unwrap()
        .map(|e| format!("tables/{}", e.unwrap().file_name().to_string_lossy()))
        .collect();
    tables.sort();
    files.extend(tables);
    files
        .into_iter()
        .map(|rel| {
            let bytes = std::fs::read(out_dir.join(&rel)).unwrap();
            (rel, bytes)
        })
        .collect()
}

fn mixer_job_with(threads: usize, shard_size: usize) -> CorpusJob {
    let mut job = mixer_job();
    job.config.threads = threads;
    job.config.shard_size = shard_size;
    job
}

#[test]
fn crash_resume_is_byte_identical_to_an_uninterrupted_run() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mix = CorpusMix {
        seed: 42,
        docs: 60,
        malformed_pct: 10,
        promo_pct: 0,
    };
    let corpus = mixed_corpus(&mix);
    let mut per_thread_artifacts = Vec::new();
    for threads in [1usize, 4] {
        let job = mixer_job_with(threads, 8);

        let clean_dir = temp_dir(&format!("clean-t{threads}"));
        let clean = run(&job, &corpus.text, &clean_dir).unwrap();
        assert_eq!(clean.resumed_shards, 0);
        assert_eq!(clean.shards, 8);

        // Kill the shard-3 worker mid-corpus, then resume.
        let faulted_dir = temp_dir(&format!("faulted-t{threads}"));
        let _fault_guard = FaultGuard;
        set_fault(FaultSpec::parse("panic:corpus.shard:3"));
        let interrupted = run(&job, &corpus.text, &faulted_dir);
        match interrupted {
            Err(CorpusError::ShardPanicked { shard, .. }) => assert_eq!(shard, 3),
            other => panic!("expected a shard panic, got {other:?}"),
        }
        set_fault(None);
        let resumed = resume(&job, &corpus.text, &faulted_dir).unwrap();
        assert!(
            resumed.resumed_shards >= 3,
            "shards before the fault were checkpointed ({} resumed)",
            resumed.resumed_shards
        );
        assert_eq!(resumed.summary_json(), clean.summary_json());

        let clean_bytes = artifacts(&clean_dir);
        let resumed_bytes = artifacts(&faulted_dir);
        assert_eq!(
            clean_bytes, resumed_bytes,
            "interrupted+resumed artifacts must be byte-identical (threads={threads})"
        );
        per_thread_artifacts.push(clean_bytes);
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&faulted_dir).ok();
    }
    assert_eq!(
        per_thread_artifacts[0], per_thread_artifacts[1],
        "artifacts must be byte-identical at 1 vs 4 threads"
    );
}

#[test]
fn two_shape_crash_resume_is_byte_identical_to_an_uninterrupted_run() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Seed 25's second shape first appears in shard 2.
    let mix = CorpusMix {
        seed: 25,
        docs: 64,
        malformed_pct: 10,
        promo_pct: 20,
    };
    let corpus = mixed_corpus(&mix);
    // The second shape's exemplar: the first document whose fingerprint
    // differs from the first well-formed document's.
    let fingerprints: Vec<_> = parse_corpus_text(&corpus.text)
        .iter()
        .map(|doc| {
            mitra::hdt::xml::xml_to_hdt(doc.text)
                .ok()
                .map(|t| fingerprint(&t))
        })
        .collect();
    let first = fingerprints.iter().flatten().next().unwrap();
    let second = fingerprints
        .iter()
        .position(|fp| fp.is_some_and(|fp| fp != *first))
        .expect("the corpus has a second shape");
    let shard_size = 8;
    assert!(
        second >= shard_size,
        "the second shape starts after shard 0"
    );
    let crash = second / shard_size + 1;
    assert!(crash < mix.docs / shard_size, "the crash shard exists");
    for threads in [1usize, 4] {
        let job = mixer_job_with(threads, shard_size);
        let clean_dir = temp_dir(&format!("two-shape-clean-t{threads}"));
        let clean = run(&job, &corpus.text, &clean_dir).unwrap();
        assert_eq!((clean.shapes, clean.programs_synthesized), (2, 4));

        // Crash after the exemplar's shard is checkpointed: the resume must
        // find that exemplar again while scanning checkpointed shards.
        let faulted_dir = temp_dir(&format!("two-shape-faulted-t{threads}"));
        let _fault_guard = FaultGuard;
        set_fault(FaultSpec::parse(&format!("panic:corpus.shard:{crash}")));
        match run(&job, &corpus.text, &faulted_dir) {
            Err(CorpusError::ShardPanicked { shard, .. }) => assert_eq!(shard, crash),
            other => panic!("expected a shard panic, got {other:?}"),
        }
        set_fault(None);
        let resumed = resume(&job, &corpus.text, &faulted_dir).unwrap();
        assert!(resumed.resumed_shards >= crash);
        assert_eq!(
            artifacts(&clean_dir),
            artifacts(&faulted_dir),
            "interrupted+resumed artifacts must be byte-identical (threads={threads})"
        );
        // A resume with nothing pending reads the shape counts from the
        // journal's `synth` record.
        let again = resume(&job, &corpus.text, &faulted_dir).unwrap();
        assert_eq!(again.resumed_shards, clean.shards);
        assert_eq!(again.summary_json(), clean.summary_json());
        // Re-running only shard 0 still scans to the corpus end, so the
        // second shape is counted again.
        std::fs::remove_file(faulted_dir.join("shards").join("shard-000000.tbl")).unwrap();
        let rerun = resume(&job, &corpus.text, &faulted_dir).unwrap();
        assert_eq!(rerun.resumed_shards, clean.shards - 1);
        assert_eq!(artifacts(&clean_dir), artifacts(&faulted_dir));
        std::fs::remove_dir_all(&clean_dir).ok();
        std::fs::remove_dir_all(&faulted_dir).ok();
    }
}

#[test]
fn a_fresh_run_parses_each_well_formed_document_once() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mix = CorpusMix {
        seed: 5,
        docs: 120,
        malformed_pct: 10,
        promo_pct: 30,
    };
    let corpus = mixed_corpus(&mix);
    let well_formed = (mix.docs - corpus.malformed.len()) as u64;
    for threads in [1usize, 4] {
        let job = mixer_job_with(threads, 16);
        let dir = temp_dir(&format!("parse-once-t{threads}"));
        let before = mitra::trace::snapshot();
        let report = run(&job, &corpus.text, &dir).unwrap();
        let parses = mitra::trace::snapshot()
            .delta(&before)
            .counter("ingest.xml.docs");
        assert_eq!(report.shapes, 2);
        assert_eq!(
            parses, well_formed,
            "every well-formed document is parsed once (threads={threads})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn seeded_malformed_fraction_is_exactly_quarantined_with_zero_violations() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mix = CorpusMix {
        seed: 7,
        docs: 100,
        malformed_pct: 10,
        promo_pct: 0,
    };
    let corpus = mixed_corpus(&mix);
    assert!(!corpus.malformed.is_empty());
    let job = mixer_job_with(0, 16);
    let out_dir = temp_dir("quarantine");
    let report = run(&job, &corpus.text, &out_dir).unwrap();

    let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.doc).collect();
    assert_eq!(
        quarantined, corpus.malformed,
        "exactly the seeded malformed documents are quarantined, in order"
    );
    assert!(
        report
            .quarantined
            .iter()
            .all(|q| q.kind == FailureKind::Malformed && q.attempts == 1),
        "corruption quarantines with a typed parse error, never a panic"
    );
    for q in &report.quarantined {
        let line = corpus.text[q.offset..].split('\n').next().unwrap();
        assert!(
            mitra::hdt::xml::xml_to_hdt(line).is_err(),
            "ledger offset {} must point at the corrupted line",
            q.offset
        );
    }
    assert_eq!(report.ok_docs + report.quarantined.len(), report.docs);
    assert_eq!(
        report.violations, 0,
        "no FK violations among surviving rows"
    );

    // The ledger on disk matches the report, one fixed-order record per line.
    let ledger = std::fs::read_to_string(out_dir.join("failure_ledger.jsonl")).unwrap();
    assert_eq!(ledger.lines().count(), report.quarantined.len());
    assert!(ledger
        .lines()
        .all(|l| l.contains("\"kind\": \"malformed\"")));

    // Foreign keys are real values resolving to customer primary keys, not
    // NULLs that would vacuously satisfy the constraint check.
    let customers = std::fs::read_to_string(out_dir.join("tables").join("customer.csv")).unwrap();
    let pks: HashSet<&str> = customers
        .lines()
        .skip(1)
        .map(|l| l.split(',').next().unwrap())
        .collect();
    let purchases = std::fs::read_to_string(out_dir.join("tables").join("purchase.csv")).unwrap();
    let mut fk_rows = 0usize;
    for line in purchases.lines().skip(1) {
        let fk = line.split(',').nth(1).unwrap();
        assert!(!fk.is_empty(), "foreign key must not be NULL: {line}");
        assert!(pks.contains(fk), "fk {fk} must resolve to a customer pk");
        fk_rows += 1;
    }
    assert!(fk_rows > 0);
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn thousand_document_single_shape_corpus_synthesizes_exactly_once() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mix_one = CorpusMix {
        seed: 9,
        docs: 1,
        malformed_pct: 0,
        promo_pct: 0,
    };
    let mix_all = CorpusMix {
        docs: 1000,
        ..mix_one
    };
    let one = mixed_corpus(&mix_one);
    let all = mixed_corpus(&mix_all);
    let job = mixer_job_with(0, 128);

    let before = mitra::trace::snapshot();
    let dir_one = temp_dir("shape-one");
    let report_one = run(&job, &one.text, &dir_one).unwrap();
    let mid = mitra::trace::snapshot();
    let dir_all = temp_dir("shape-all");
    let report_all = run(&job, &all.text, &dir_all).unwrap();
    let after = mitra::trace::snapshot();

    assert_eq!(report_one.shapes, 1);
    assert_eq!(report_all.shapes, 1);
    assert_eq!(report_all.docs, 1000);
    assert_eq!(report_all.ok_docs, 1000);
    assert_eq!(
        report_all.programs_synthesized, 2,
        "one synthesis per oracle table for the single shape"
    );

    // Documents 0 of both corpora are identical (same (seed, index) stream),
    // so if the 1000-document corpus synthesized only once its candidate fuel
    // equals the 1-document corpus's exactly.
    let examined_one = mid.delta(&before).counter("synth.candidates.examined");
    let examined_all = after.delta(&mid).counter("synth.candidates.examined");
    assert!(examined_one > 0, "synthesis must examine candidates");
    assert_eq!(
        examined_all, examined_one,
        "1000-document corpus must spend the same synthesis fuel as 1 document"
    );
    assert_eq!(
        after.delta(&mid).counter("cache.shape_programs.insert"),
        1,
        "exactly one shape's programs were stored"
    );
    std::fs::remove_dir_all(&dir_one).ok();
    std::fs::remove_dir_all(&dir_all).ok();
}

#[test]
fn row_budget_escalates_then_quarantines() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mix = CorpusMix {
        seed: 11,
        docs: 400,
        malformed_pct: 10,
        promo_pct: 0,
    };
    let corpus = mixed_corpus(&mix);
    let mut per_thread_artifacts = Vec::new();
    for threads in [1usize, 2] {
        // Row fuel 2, then 8, then 32: no document fits in 8 rows, so every
        // surviving document takes all three attempts.
        let mut job = mixer_job_with(threads, 16);
        job.config.synth.budget.max_rows = Some(2);
        let dir = temp_dir(&format!("row-budget-t{threads}"));
        let report = run(&job, &corpus.text, &dir).unwrap();
        let kinds =
            |kind: FailureKind| report.quarantined.iter().filter(|q| q.kind == kind).count();
        assert_eq!((report.ok_docs, report.quarantined.len()), (196, 204));
        assert_eq!(
            (kinds(FailureKind::Malformed), kinds(FailureKind::Budget)),
            (38, 166)
        );
        assert_eq!(report.retried, 392, "two retries per surviving document");
        assert_eq!(
            report.table_rows,
            [("customer".to_string(), 480), ("purchase".to_string(), 866)]
        );
        let ledger = std::fs::read_to_string(dir.join("failure_ledger.jsonl")).unwrap();
        assert_eq!(
            ledger.lines().next(),
            Some(
                "{\"doc\": 3, \"offset\": 1198, \"kind\": \"budget-exhausted\", \"error\": \
                 \"rows-materialized fuel exhausted (33 spent of 32 allowed)\", \"attempts\": 3}"
            ),
            "the third attempt runs with 2 × 4² rows of fuel"
        );
        per_thread_artifacts.push(artifacts(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        per_thread_artifacts[0], per_thread_artifacts[1],
        "budgeted artifacts must be byte-identical at 1 vs 2 threads"
    );
}

#[test]
fn quoted_newlines_survive_shard_files_and_resume() {
    use mitra::dsl::ast::{ColumnExtractor, Predicate, TableExtractor};
    use mitra::dsl::Program;
    use mitra::migrate::{
        Column, CorpusConfig, CorpusTableSource, CorpusTask, DocFormat, KeySpec, Schema,
        TableSchema,
    };

    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // One-line JSON documents; the first holds an escaped newline in a name.
    let corpus = concat!(
        r#"{"p":[{"name":"a\nb"},{"name":"c"}]}"#,
        "\n",
        r#"{"p":[{"name":"d"}]}"#,
        "\n"
    );
    let names = ColumnExtractor::children(
        ColumnExtractor::children(ColumnExtractor::Input, "p"),
        "name",
    );
    let job = CorpusJob {
        schema: Schema::new().with_table(
            TableSchema::new("t", vec![Column::text("pk"), Column::text("name")])
                .with_primary_key(&["pk"]),
        ),
        tasks: vec![CorpusTask {
            table: "t".into(),
            source: CorpusTableSource::Program(Program::new(
                TableExtractor::new(vec![names]),
                Predicate::True,
            )),
            keys: vec![("pk".into(), KeySpec::SyntheticPrimary)],
            data_columns: vec!["name".into()],
        }],
        format: DocFormat::Json,
        config: CorpusConfig {
            shard_size: 1,
            threads: 1,
            ..CorpusConfig::default()
        },
    };
    let dir = temp_dir("newline");
    let report = run(&job, corpus, &dir).unwrap();
    assert_eq!((report.ok_docs, report.violations), (2, 0));
    let csv = std::fs::read_to_string(dir.join("tables").join("t.csv")).unwrap();
    let table = mitra::parse_csv_table(&csv).unwrap();
    let read_back: Vec<String> = table.rows.iter().map(|row| row[1].render()).collect();
    assert_eq!(read_back, ["a\nb", "c", "d"]);

    // Losing the shard with the newline forces resume to re-execute it.
    let clean = artifacts(&dir);
    std::fs::remove_file(dir.join("shards").join("shard-000000.tbl")).unwrap();
    let resumed = resume(&job, corpus, &dir).unwrap();
    assert_eq!(resumed.resumed_shards, 1);
    assert_eq!(artifacts(&dir), clean, "resume must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hash_leading_first_cells_survive_shard_files_and_resume() {
    use mitra::dsl::ast::{ColumnExtractor, Predicate, TableExtractor};
    use mitra::dsl::Program;
    use mitra::migrate::{
        Column, CorpusConfig, CorpusTableSource, CorpusTask, DocFormat, KeySpec, Schema,
        TableSchema,
    };

    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // The data column comes first, so the `#table x` value starts a shard row.
    let corpus = concat!(
        r##"{"p":[{"name":"#table x"}]}"##,
        "\n",
        r#"{"p":[{"name":"y"}]}"#,
        "\n"
    );
    let names = ColumnExtractor::children(
        ColumnExtractor::children(ColumnExtractor::Input, "p"),
        "name",
    );
    let job = CorpusJob {
        schema: Schema::new().with_table(
            TableSchema::new("t", vec![Column::text("name"), Column::text("pk")])
                .with_primary_key(&["pk"]),
        ),
        tasks: vec![CorpusTask {
            table: "t".into(),
            source: CorpusTableSource::Program(Program::new(
                TableExtractor::new(vec![names]),
                Predicate::True,
            )),
            keys: vec![("pk".into(), KeySpec::SyntheticPrimary)],
            data_columns: vec!["name".into()],
        }],
        format: DocFormat::Json,
        config: CorpusConfig {
            shard_size: 1,
            threads: 1,
            ..CorpusConfig::default()
        },
    };
    let dir = temp_dir("hash-lead");
    let report = run(&job, corpus, &dir).unwrap();
    assert_eq!((report.ok_docs, report.violations), (2, 0));
    let csv = std::fs::read_to_string(dir.join("tables").join("t.csv")).unwrap();
    let table = mitra::parse_csv_table(&csv).unwrap();
    let read_back: Vec<String> = table.rows.iter().map(|row| row[0].render()).collect();
    assert_eq!(read_back, ["#table x", "y"]);

    // Losing the shard with the `#table x` row forces resume to re-execute it.
    let clean = artifacts(&dir);
    std::fs::remove_file(dir.join("shards").join("shard-000000.tbl")).unwrap();
    let resumed = resume(&job, corpus, &dir).unwrap();
    assert_eq!(resumed.resumed_shards, 1);
    assert_eq!(artifacts(&dir), clean, "resume must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}
