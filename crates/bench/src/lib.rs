//! # mitra-bench — the evaluation harness
//!
//! One regenerating target per table/figure of the paper's evaluation (see the
//! experiment index in DESIGN.md), plus the two CI gates:
//!
//! * `cargo run -p mitra-bench --release --bin table1` — Table 1 (the 98-task corpus):
//!   per-category solved counts, median/average synthesis time, example sizes,
//!   predicate counts and LOC of the emitted code;
//! * `cargo run -p mitra-bench --release --bin table2` — Table 2 (full-database
//!   migration of the four dataset simulators): per-dataset table/column counts,
//!   synthesis and execution times, row counts;
//! * `cargo run -p mitra-bench --release --bin scalability` — the §7.1 performance
//!   paragraph and §2 claim: execution time of synthesized programs against document
//!   size, optimized engine vs naive cross product (E3, and E7's design-choice pair);
//! * `cargo run -p mitra-bench --release --bin bench_smoke` — the perf ledger
//!   `BENCH_synthesis.json` (Table 1, Table 2, overheads, the corpus
//!   service, the descendants index and the executor), with its gates;
//! * `cargo run -p mitra-bench --release --bin fuzz_smoke` — the seeded
//!   differential suite plus fault-injection and budget-exhaustion gates.
//!
//! The library part of this crate contains the shared measurement helpers, so the
//! bins report identical quantities.

use mitra_codegen::{generate, Backend};
use mitra_datagen::corpus::{DocFormat, Task};
use mitra_synth::synthesize::{learn_transformation, SynthConfig, SynthProfile, Synthesis};
use std::time::Duration;

pub mod corpus_bench;
pub mod descend;
pub mod json;
pub mod table2;

/// Result of running the synthesizer on one corpus task.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The task's id.
    pub id: usize,
    /// The task's name.
    pub name: String,
    /// Format of the input document.
    pub format: DocFormat,
    /// Whether a program consistent with the example was found.
    pub solved: bool,
    /// Synthesis wall-clock time.
    pub time: Duration,
    /// Elements in the input example.
    pub elements: usize,
    /// Rows in the output example.
    pub rows: usize,
    /// Number of atomic predicates in the synthesized program (0 when unsolved).
    pub predicates: usize,
    /// Lines of code of the emitted artifact (0 when unsolved).
    pub loc: usize,
    /// True when DFA construction hit a limit for this task: its search space was
    /// silently under-explored and its numbers must be read accordingly.
    pub truncated: bool,
    /// Per-phase synthesis profile (default-zero when unsolved).
    pub profile: SynthProfile,
}

/// Runs the synthesizer on one corpus task and gathers the Table 1 statistics.
pub fn run_task(task: &Task, config: &SynthConfig) -> TaskResult {
    let start = std::time::Instant::now();
    let outcome: Result<Synthesis, _> =
        learn_transformation(std::slice::from_ref(&task.example), config);
    let time = start.elapsed();
    match outcome {
        Ok(synthesis) => {
            let backend = match task.format {
                DocFormat::Xml => Backend::Xslt,
                DocFormat::Json => Backend::JavaScript,
            };
            let artifact = generate(&synthesis.program, backend);
            TaskResult {
                id: task.id,
                name: task.name.clone(),
                format: task.format,
                solved: true,
                time,
                elements: task.element_count(),
                rows: task.row_count(),
                predicates: synthesis.cost.atoms,
                loc: artifact.loc(),
                truncated: synthesis.truncated,
                profile: synthesis.profile,
            }
        }
        Err(_) => TaskResult {
            id: task.id,
            name: task.name.clone(),
            format: task.format,
            solved: false,
            time,
            elements: task.element_count(),
            rows: task.row_count(),
            predicates: 0,
            loc: 0,
            truncated: false,
            profile: SynthProfile::default(),
        },
    }
}

/// The per-phase synthesis profile as a JSON object (seconds and counts), shared by
/// the `table1` block and every Table 2 row of `BENCH_synthesis.json`.
pub fn profile_to_json(p: &SynthProfile) -> json::JsonValue {
    json::obj(vec![
        ("dfa_build_secs", json::num(p.dfa_build.as_secs_f64())),
        (
            "dfa_intersect_secs",
            json::num(p.dfa_intersect.as_secs_f64()),
        ),
        (
            "dfa_enumerate_secs",
            json::num(p.dfa_enumerate.as_secs_f64()),
        ),
        (
            "predicate_learn_secs",
            json::num(p.predicate_learn.as_secs_f64()),
        ),
        ("validate_secs", json::num(p.validate.as_secs_f64())),
        ("candidates_examined", json::int(p.candidates_examined)),
        ("candidates_pruned", json::int(p.candidates_pruned)),
    ])
}

/// A [`mitra_trace::MetricsSnapshot`] (usually a [`delta`] isolating one measured
/// region) as a JSON object: counters by name, histogram summaries by name, and
/// per-worker pool utilization.  Embedded in every Table 2 row of
/// `BENCH_synthesis.json` so cache hit rates, frontier depth and worker busy/idle
/// time are attributable per run.
///
/// [`delta`]: mitra_trace::MetricsSnapshot::delta
pub fn metrics_to_json(m: &mitra_trace::MetricsSnapshot) -> json::JsonValue {
    let counters = json::JsonValue::Object(
        m.counters
            .iter()
            .map(|&(name, v)| (name.to_string(), json::int(v as usize)))
            .collect(),
    );
    let histograms = json::JsonValue::Object(
        m.histograms
            .iter()
            .map(|&(name, h)| {
                (
                    name.to_string(),
                    json::obj(vec![
                        ("count", json::int(h.count as usize)),
                        ("sum", json::int(h.sum as usize)),
                        ("min", json::int(h.min as usize)),
                        ("max", json::int(h.max as usize)),
                        ("mean", json::num(h.mean())),
                    ]),
                )
            })
            .collect(),
    );
    let workers = json::JsonValue::Array(
        m.workers
            .iter()
            .map(|w| {
                let busy = w.busy_ns as f64 / 1e9;
                let idle = w.idle_ns as f64 / 1e9;
                json::obj(vec![
                    ("slot", json::int(w.slot)),
                    ("busy_secs", json::num(busy)),
                    ("idle_secs", json::num(idle)),
                    ("pulls", json::int(w.pulls as usize)),
                    (
                        "utilization",
                        json::num(if busy + idle > 0.0 {
                            busy / (busy + idle)
                        } else {
                            0.0
                        }),
                    ),
                ])
            })
            .collect(),
    );
    json::obj(vec![
        ("counters", counters),
        ("histograms", histograms),
        ("pool_workers", workers),
    ])
}

/// The per-table execution breakdown of a migration as a JSON object — the
/// execution-side sibling of [`profile_to_json`]: the phase wall clock plus, per
/// table in task order, its execution wall and engine statistics.
pub fn execution_to_json(wall: Duration, tables: &[mitra_migrate::TableReport]) -> json::JsonValue {
    json::obj(vec![
        ("wall_secs", json::num(wall.as_secs_f64())),
        (
            "tables",
            json::JsonValue::Array(
                tables
                    .iter()
                    .map(|t| {
                        let e = &t.exec_stats;
                        json::obj(vec![
                            ("table", json::s(&t.table)),
                            ("wall_secs", json::num(t.execution_time.as_secs_f64())),
                            ("tuples_considered", json::int(e.tuples_considered)),
                            ("rows_emitted", json::int(e.rows_emitted)),
                            ("interval_join_steps", json::int(e.interval_join_steps)),
                            ("hash_join_steps", json::int(e.hash_join_steps)),
                            ("cross_product_steps", json::int(e.cross_product_steps)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Median of a slice of f64 values (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The `q`-quantile of a slice of f64 values by the nearest-rank method (0.0 for
/// an empty slice): the smallest value at or above a `q` share of them, so
/// `percentile(v, 1.0)` is the maximum.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of a slice of f64 values (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The synthesis configuration used by the Table 1 harness (the default configuration,
/// as an end user would run it).
pub fn table1_config() -> SynthConfig {
    SynthConfig {
        timeout: Some(Duration::from_secs(60)),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_datagen::generate_corpus;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.9), 9.0);
        assert_eq!(percentile(&ten, 1.0), 10.0);
        assert_eq!(percentile(&[2.0], 0.9), 2.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn run_task_reports_solved_and_unsolved() {
        let tasks = generate_corpus();
        let config = table1_config();
        let easy = tasks.iter().find(|t| t.expressible).unwrap();
        let hard = tasks.iter().find(|t| !t.expressible).unwrap();
        let solved = run_task(easy, &config);
        assert!(solved.solved);
        assert!(solved.loc > 0);
        let unsolved = run_task(hard, &config);
        assert!(!unsolved.solved);
        assert_eq!(unsolved.predicates, 0);
    }
}
