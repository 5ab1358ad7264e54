//! Corpus-service smoke harness (DESIGN.md §12).
//!
//! Drives the checkpointed corpus migration service end to end on a seeded
//! mixer corpus and checks every robustness contract the service makes:
//!
//! * **thread-count determinism** — the artifacts (tables, failure ledger,
//!   summary) of a 1-thread and a 4-thread run are byte-identical;
//! * **crash-resume determinism** — a run killed by an injected shard panic
//!   (`panic:corpus.shard:N`) and then resumed produces artifacts
//!   byte-identical to an uninterrupted run;
//! * **exact quarantine** — precisely the seeded malformed documents land in
//!   the failure ledger, every one with a typed error, and the surviving rows
//!   have zero constraint violations;
//! * **metrics surfacing** — the `corpus.*` and `pool.panics_caught` counters
//!   observe the run (the injected panic is caught, not fatal).
//!
//! `bench_smoke` embeds the measurement as the `corpus` block of
//! `BENCH_synthesis.json` and gates each contract.

use crate::json::{int, num, obj, JsonValue};
use mitra_datagen::fuzz::{mixed_corpus, mixer_job, CorpusMix};
use mitra_migrate::corpus::{resume, run, CorpusError, CorpusJob, CorpusReport};
use mitra_trace::fault::{set_fault, FaultSpec};
use std::path::Path;
use std::time::Instant;

/// The measured corpus-service run.
pub struct CorpusBench {
    /// Documents in the generated corpus.
    pub docs: usize,
    /// Documents the mixer corrupted (the expected quarantine set size).
    pub malformed_expected: usize,
    /// Documents the service actually quarantined.
    pub quarantined: usize,
    /// Escalating-budget retry attempts.
    pub retried: u64,
    /// Constraint violations in the assembled database (gate: 0).
    pub violations: usize,
    /// Total rows across tables.
    pub rows: usize,
    /// Shards in the corpus.
    pub shards: usize,
    /// Shards the resumed run replayed from the journal.
    pub resumed_shards: usize,
    /// Distinct shapes and synthesis calls (once per shape x oracle table).
    pub shapes: usize,
    /// `learn_transformation` invocations across the clean run.
    pub programs_synthesized: usize,
    /// Exactly the seeded malformed documents were quarantined, all typed.
    pub quarantine_exact: bool,
    /// 1-thread and 4-thread artifacts are byte-identical.
    pub threads_identical: bool,
    /// Crashed+resumed artifacts match the uninterrupted run byte for byte.
    pub resume_identical: bool,
    /// Documents migrated per second in the clean 4-thread run.
    pub docs_per_sec: f64,
    /// Rows emitted per second in the clean 4-thread run.
    pub rows_per_sec: f64,
    /// Counter deltas observed over the whole measurement, surfaced even when
    /// zero so the bench JSON always carries the full set.
    pub counters: Vec<(&'static str, u64)>,
}

/// The counters the harness surfaces into the bench JSON (satellite of the
/// corpus-service issue): worker-pool panic isolation plus the corpus
/// service's own quarantine / retry / resume activity.
pub const SURFACED_COUNTERS: [&str; 6] = [
    "pool.panics_caught",
    "corpus.docs",
    "corpus.quarantined",
    "corpus.retried",
    "corpus.resumed_shards",
    "corpus.programs_synthesized",
];

impl CorpusBench {
    /// The measured delta of a surfaced counter (0 for any other name).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The `corpus` block of `BENCH_synthesis.json`.
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("docs", int(self.docs)),
            ("malformed_expected", int(self.malformed_expected)),
            ("quarantined", int(self.quarantined)),
            ("retried", int(self.retried as usize)),
            ("violations", int(self.violations)),
            ("rows", int(self.rows)),
            ("shards", int(self.shards)),
            ("resumed_shards", int(self.resumed_shards)),
            ("shapes", int(self.shapes)),
            ("programs_synthesized", int(self.programs_synthesized)),
            ("quarantine_exact", JsonValue::Bool(self.quarantine_exact)),
            ("threads_identical", JsonValue::Bool(self.threads_identical)),
            ("resume_identical", JsonValue::Bool(self.resume_identical)),
            ("docs_per_sec", num(self.docs_per_sec)),
            ("rows_per_sec", num(self.rows_per_sec)),
            (
                "counters",
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.to_string(), int(*v as usize)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The comparable artifacts of a finished run, as `(relative path, bytes)`.
fn artifacts(out_dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = vec![
        "failure_ledger.jsonl".to_string(),
        "summary.json".to_string(),
    ];
    let mut tables: Vec<String> = std::fs::read_dir(out_dir.join("tables"))
        .expect("tables directory exists after a run")
        .map(|e| format!("tables/{}", e.unwrap().file_name().to_string_lossy()))
        .collect();
    tables.sort();
    files.extend(tables);
    files
        .into_iter()
        .map(|rel| {
            let bytes = std::fs::read(out_dir.join(&rel)).expect("artifact exists");
            (rel, bytes)
        })
        .collect()
}

fn job_with(threads: usize, shard_size: usize) -> CorpusJob {
    let mut job = mixer_job();
    job.config.threads = threads;
    job.config.shard_size = shard_size;
    job
}

/// Runs the full corpus-service measurement under `base` (a scratch directory
/// the caller owns; its `t1`/`t4`/`crash` subdirectories are overwritten).
///
/// Fault injection is process-global, so callers must not run concurrent
/// migrations while this executes.
pub fn measure(docs: usize, malformed_pct: u32, seed: u64, base: &Path) -> CorpusBench {
    let mix = CorpusMix {
        seed,
        docs,
        malformed_pct,
        promo_pct: 0,
    };
    let corpus = mixed_corpus(&mix);
    let shard_size = (docs / 8).max(1);
    let before = mitra_trace::snapshot();

    // Clean runs at 1 and 4 threads.
    let t1_dir = fresh_dir(base, "t1");
    let report_t1 = run(&job_with(1, shard_size), &corpus.text, &t1_dir).expect("1-thread run");
    let t4_dir = fresh_dir(base, "t4");
    let start = Instant::now();
    let report = run(&job_with(4, shard_size), &corpus.text, &t4_dir).expect("4-thread run");
    let clean_secs = start.elapsed().as_secs_f64().max(f64::EPSILON);
    let threads_identical = artifacts(&t1_dir) == artifacts(&t4_dir);
    assert_eq!(report_t1.summary_json(), report.summary_json());

    // Crash mid-corpus (injected shard-worker panic), then resume.
    let crash_dir = fresh_dir(base, "crash");
    let crash_shard = report.shards / 2;
    set_fault(FaultSpec::parse(&format!(
        "panic:corpus.shard:{crash_shard}"
    )));
    let interrupted = run(&job_with(4, shard_size), &corpus.text, &crash_dir);
    set_fault(None);
    assert!(
        matches!(interrupted, Err(CorpusError::ShardPanicked { .. })),
        "the injected shard panic must abort the run: {interrupted:?}"
    );
    let resumed = resume(&job_with(4, shard_size), &corpus.text, &crash_dir).expect("resume");
    let resume_identical = artifacts(&t4_dir) == artifacts(&crash_dir);

    let quarantine_exact = exact_quarantine(&report, &corpus.malformed);
    let after = mitra_trace::snapshot();
    let delta = after.delta(&before);
    let counters = SURFACED_COUNTERS
        .iter()
        .map(|&name| (name, delta.counter(name)))
        .collect();

    CorpusBench {
        docs,
        malformed_expected: corpus.malformed.len(),
        quarantined: report.quarantined.len(),
        retried: report.retried,
        violations: report.violations,
        rows: report.total_rows(),
        shards: report.shards,
        resumed_shards: resumed.resumed_shards,
        shapes: report.shapes,
        programs_synthesized: report.programs_synthesized,
        quarantine_exact,
        threads_identical,
        resume_identical,
        docs_per_sec: docs as f64 / clean_secs,
        rows_per_sec: report.total_rows() as f64 / clean_secs,
        counters,
    }
}

/// True when the quarantine ledger names exactly the seeded malformed
/// documents, in order, every one with a typed (non-panic) error.
fn exact_quarantine(report: &CorpusReport, expected: &[usize]) -> bool {
    let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.doc).collect();
    quarantined == expected
        && report
            .quarantined
            .iter()
            .all(|q| q.kind == mitra_migrate::corpus::FailureKind::Malformed)
}

fn fresh_dir(base: &Path, name: &str) -> std::path::PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_bench_json_carries_every_surfaced_counter() {
        let bench = CorpusBench {
            docs: 10,
            malformed_expected: 1,
            quarantined: 1,
            retried: 0,
            violations: 0,
            rows: 40,
            shards: 2,
            resumed_shards: 1,
            shapes: 1,
            programs_synthesized: 2,
            quarantine_exact: true,
            threads_identical: true,
            resume_identical: true,
            docs_per_sec: 100.0,
            rows_per_sec: 400.0,
            counters: SURFACED_COUNTERS.iter().map(|&n| (n, 0)).collect(),
        };
        let text = bench.to_json().to_string_compact();
        for name in SURFACED_COUNTERS {
            assert!(text.contains(name), "{name} missing from {text}");
        }
        assert!(text.contains("\"docs_per_sec\""));
    }
}
