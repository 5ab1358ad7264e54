//! Integration tests for the checkpointed corpus migration service
//! (DESIGN.md §12): crash-resume byte-identity at 1 vs 4 threads, exact
//! quarantine of a seeded malformed fraction with zero FK violations, and
//! synthesize-once-per-shape verified through the `synth.candidates.examined`
//! counter.
//!
//! Fault injection and metrics counters are process-global, so the tests
//! serialize on one mutex.

use mitra::datagen::fuzz::{mixed_corpus, mixer_job, CorpusMix};
use mitra::migrate::corpus::{resume, run, CorpusError, CorpusJob, FailureKind};
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
        "exactly one shape entered the program cache"
    );
    std::fs::remove_dir_all(&dir_one).ok();
    std::fs::remove_dir_all(&dir_all).ok();
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
