//! The gates `bench_smoke` enforces on its own measurements.
//!
//! Every gate reads a value `bench_smoke` computed in this process, never the
//! JSON it writes.  Every bound is a named constant beside its check, with the
//! bound's origin in a comment.

use mitra_bench::corpus_bench::CorpusBench;
use mitra_bench::descend::DescendMeasurement;
use mitra_bench::table2::MigrationRow;
use std::fmt;

/// A table fingerprint: the row count and the FNV-1a hash of the tables' CSV
/// text, concatenated in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub fnv: u64,
}

impl Fingerprint {
    /// A fingerprint of `rows` rows whose CSV text hashes to `fnv`.
    pub const fn new(rows: usize, fnv: u64) -> Self {
        Fingerprint { rows, fnv }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {:016x})", self.rows, self.fnv)
    }
}

/// One executor workload: its name (a label or a dataset name), the
/// fingerprint of the tables it produced, and its best-of-n planner wall time.
pub struct Workload {
    pub name: &'static str,
    pub fingerprint: Fingerprint,
    pub planner_secs: f64,
}

/// The same work timed without and with the overhead under test.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    pub base_secs: f64,
    pub secs: f64,
}

impl Overhead {
    /// `secs / base_secs` (1 when the base run took no measurable time).
    pub fn ratio(&self) -> f64 {
        if self.base_secs > 0.0 {
            self.secs / self.base_secs
        } else {
            1.0
        }
    }
}

/// Every measurement a gate reads.
pub struct Measured {
    pub descendants: DescendMeasurement,
    /// The sequential Table 2 migrations.
    pub sequential: Vec<MigrationRow>,
    /// Both Table 2 runs synthesized the same programs and rows (true when
    /// there was no parallel run).
    pub programs_identical: bool,
    /// Thread count of the parallel Table 2 run (1: no parallel run).
    pub parallel_threads: usize,
    /// MONDIAL's sequential over parallel synthesis wall time.
    pub mondial_speedup: Option<f64>,
    /// MONDIAL sequential synthesis with tracing off vs in summary mode.
    pub trace_overhead: Overhead,
    /// MONDIAL sequential synthesis unlimited vs under a never-binding budget.
    pub budget_overhead: Overhead,
    /// The E3, join-ordering and per-dataset executor workloads.
    pub executor: Vec<Workload>,
    pub corpus: CorpusBench,
}

/// The outcome of one gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Pass,
    Fail,
    /// The gate does not apply to this run.
    Skip,
}

/// One gate's verdict: its stable dotted name, its outcome, and the measured
/// value beside its bound.
#[derive(Debug)]
pub struct Verdict {
    pub gate: String,
    pub outcome: Outcome,
    pub detail: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let outcome = format!("{:?}", self.outcome).to_uppercase();
        write!(f, "{outcome} {}: {}", self.gate, self.detail)
    }
}

#[derive(Default)]
struct Verdicts(Vec<Verdict>);

impl Verdicts {
    fn check(&mut self, gate: impl Into<String>, pass: bool, detail: impl Into<String>) {
        let outcome = if pass { Outcome::Pass } else { Outcome::Fail };
        self.push(gate, outcome, detail);
    }

    fn push(&mut self, gate: impl Into<String>, outcome: Outcome, detail: impl Into<String>) {
        self.0.push(Verdict {
            gate: gate.into(),
            outcome,
            detail: detail.into(),
        });
    }
}

/// The indexed descendants scan must stay at least 2× faster than the naive
/// subtree walk: the acceptance bar of the tag-interned, indexed HDT arena.
const DESCENDANTS_MIN_SPEEDUP: f64 = 2.0;

/// Summary-mode tracing may cost at most 5% of untraced MONDIAL synthesis: the
/// "cheap enough to leave on" claim of the metrics layer.
const TRACE_MAX_RATIO: f64 = 1.05;

/// A never-binding finite fuel budget may cost at most 2% of the unlimited
/// run: fuel accounting is always on, so its checks must be nearly free.
const BUDGET_MAX_RATIO: f64 = 1.02;

/// Absolute slack on both overhead ceilings, so sub-second timing noise on
/// shared runners cannot flake them.
const OVERHEAD_SLACK_SECS: f64 = 0.25;

/// Checks every gate on `m`, in a fixed order.
pub fn check(m: &Measured) -> Vec<Verdict> {
    let mut v = Verdicts::default();
    let speedup = m.descendants.speedup();
    v.check(
        "descendants_index.speedup",
        speedup >= DESCENDANTS_MIN_SPEEDUP,
        format!("{speedup:.1}x (floor {DESCENDANTS_MIN_SPEEDUP}x)"),
    );
    table2(&mut v, m);
    for (gate, o, max_ratio) in [
        ("trace_overhead", m.trace_overhead, TRACE_MAX_RATIO),
        ("budget_overhead", m.budget_overhead, BUDGET_MAX_RATIO),
    ] {
        let ceiling = o.base_secs * max_ratio + OVERHEAD_SLACK_SECS;
        v.check(
            gate,
            o.secs <= ceiling,
            format!(
                "{:.2}s vs {:.2}s base, ratio {:.3} (ceiling {ceiling:.2}s)",
                o.secs,
                o.base_secs,
                o.ratio()
            ),
        );
    }
    executor(&mut v, &m.executor);
    corpus(&mut v, &m.corpus);
    v.0
}

/// Sequential synthesis ceilings, each a multiple faster than a committed
/// baseline of an earlier pipeline: MONDIAL at least 5× faster than the 97.47 s
/// of the materialize-then-sweep search, YELP at least 3× faster than the
/// 9.33 s of list-based predicate covers.
const SYNTH_CEILING_SECS: [(&str, f64); 2] = [("MONDIAL", 97.47 / 5.0), ("YELP", 9.33 / 3.0)];

/// On a multi-core run, parallel MONDIAL synthesis must never be slower than
/// sequential synthesis (a soft floor; no speedup is promised).
const MONDIAL_MIN_PARALLEL_SPEEDUP: f64 = 1.0;

/// Sequential MONDIAL synthesis explores one DFA state graph per synthesis
/// call (its 25 tables have one example each) and derives one column automaton
/// per (column, example) pair from them (120 columns).  Exploring a graph per
/// column automaton again would read 120 graphs.
const MONDIAL_DFA_GRAPHS: u64 = 25;
const MONDIAL_COLUMN_AUTOMATA: u64 = 120;

fn table2(v: &mut Verdicts, m: &Measured) {
    v.check(
        "table2.programs_identical",
        m.programs_identical,
        format!("programs and rows at threads 1 vs {}", m.parallel_threads),
    );
    for (name, ceiling) in SYNTH_CEILING_SECS {
        let row = m.sequential.iter().find(|r| r.name == name);
        let error = row.map_or(Some("no run"), |r| r.error.as_deref());
        v.check(
            format!("table2.{name}.migrated"),
            error.is_none(),
            error.unwrap_or("ok"),
        );
        let Some(row) = row.filter(|r| r.error.is_none()) else {
            continue;
        };
        let secs = row.synth_total_secs;
        v.check(
            format!("table2.{name}.synth_secs"),
            secs <= ceiling,
            format!("{secs:.2}s sequential (ceiling {ceiling:.2}s)"),
        );
        if name == "MONDIAL" {
            // The metrics block must observe the run it is attached to.
            let hits = row.metrics.counter("cache.column_nodes.hit");
            let hits_detail = format!("cache.column_nodes.hit = {hits}");
            v.check("table2.MONDIAL.cache_hits", hits > 0, hits_detail);
            let workers = row.metrics.workers.len();
            let workers_detail = format!("pool worker slots recorded: {workers}");
            v.check("table2.MONDIAL.pool_workers", workers > 0, workers_detail);
            let graphs = row.metrics.counter("synth.dfa.graphs");
            let automata = row.metrics.counter("synth.dfa.column_automata");
            v.check(
                "table2.MONDIAL.dfa_graphs",
                graphs == MONDIAL_DFA_GRAPHS && automata == MONDIAL_COLUMN_AUTOMATA,
                format!(
                    "{graphs} graphs for {automata} column automata \
                     (expected {MONDIAL_DFA_GRAPHS} for {MONDIAL_COLUMN_AUTOMATA})"
                ),
            );
        }
    }
    let gate = "table2.MONDIAL.parallel_speedup";
    match (m.parallel_threads, m.mondial_speedup) {
        (1, _) => v.push(gate, Outcome::Skip, "one thread: no parallel run"),
        (threads, Some(x)) => v.check(
            gate,
            x >= MONDIAL_MIN_PARALLEL_SPEEDUP,
            format!("{x:.2}x at {threads} threads (floor {MONDIAL_MIN_PARALLEL_SPEEDUP}x)"),
        ),
        (threads, None) => v.check(gate, false, format!("no speedup at {threads} threads")),
    }
}

/// Each executor workload's table fingerprint, recorded on the last commit
/// that kept the pre-planner progressive join, where the planner's tables were
/// byte-identical to that join's.  They hold at Table 2 scale 25 only.
const FINGERPRINTS: [(&str, Fingerprint); 6] = [
    (
        "motivating-1M",
        Fingerprint::new(500_000, 0xb9bada76de370167),
    ),
    ("join-ordering", Fingerprint::new(4_000, 0x3e79619184fb95a3)),
    ("DBLP", Fingerprint::new(275, 0x071497e2c104781a)),
    ("IMDB", Fingerprint::new(350, 0xd2a82a80bcda83bc)),
    ("MONDIAL", Fingerprint::new(1_225, 0x9b73af9f5b858729)),
    ("YELP", Fingerprint::new(300, 0xa1836f47e0a02a4f)),
];

/// The join-ordering workload, where the static join order cross-products two
/// large columns, must stay at least 2× faster than the 0.1296 s the
/// progressive join took on it in the committed baseline.
const ORDERING_CEILING_SECS: f64 = 0.1296 / 2.0;

/// The progressive join's committed wall time for re-executing each dataset's
/// Table 2 programs.  The planner must stay within noise of it: at most
/// [`EXEC_MAX_RATIO`] times it plus [`EXEC_SLACK_SECS`], as the walls are
/// sub-millisecond.
const PROGRESSIVE_SECS: [(&str, f64); 4] = [
    ("DBLP", 0.00119),
    ("IMDB", 0.00124),
    ("MONDIAL", 0.00478),
    ("YELP", 0.00078),
];
const EXEC_MAX_RATIO: f64 = 1.10;
const EXEC_SLACK_SECS: f64 = 0.05;

/// The planner wall-time ceiling of an executor workload, if it has one.
fn planner_ceiling_secs(name: &str) -> Option<f64> {
    if name == "join-ordering" {
        return Some(ORDERING_CEILING_SECS);
    }
    PROGRESSIVE_SECS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, secs)| secs * EXEC_MAX_RATIO + EXEC_SLACK_SECS)
}

fn executor(v: &mut Verdicts, workloads: &[Workload]) {
    let mut names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
    let mut pinned: Vec<&str> = FINGERPRINTS.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    pinned.sort_unstable();
    v.check(
        "executor.workloads",
        names == pinned,
        format!("{names:?} (expected {pinned:?})"),
    );
    for w in workloads {
        let pinned = FINGERPRINTS.iter().find(|(n, _)| *n == w.name);
        v.check(
            format!("executor.{}.fingerprint", w.name),
            pinned.is_some_and(|(_, f)| *f == w.fingerprint),
            format!(
                "{} (pinned {})",
                w.fingerprint,
                pinned.map_or("none".to_string(), |(_, f)| f.to_string())
            ),
        );
        if let Some(ceiling) = planner_ceiling_secs(w.name) {
            v.check(
                format!("executor.{}.planner_secs", w.name),
                w.planner_secs <= ceiling,
                format!(
                    "{:.2}ms (ceiling {:.2}ms)",
                    w.planner_secs * 1e3,
                    ceiling * 1e3
                ),
            );
        }
    }
}

/// Corpus throughput floor: tiny documents behind the per-shape program cache
/// migrate orders of magnitude faster than this even on shared runners, so
/// falling below it means synthesis runs per document again.
const CORPUS_MIN_DOCS_PER_SEC: f64 = 5.0;

fn corpus(v: &mut Verdicts, c: &CorpusBench) {
    let contracts = [
        ("threads_identical", c.threads_identical, "1 vs 4 threads"),
        ("resume_identical", c.resume_identical, "crash + resume"),
        ("quarantine_exact", c.quarantine_exact, "seeded and typed"),
    ];
    for (gate, pass, detail) in contracts {
        v.check(format!("corpus.{gate}"), pass, detail);
    }
    v.check(
        "corpus.quarantined",
        c.quarantined == c.malformed_expected,
        format!("{} (expected {})", c.quarantined, c.malformed_expected),
    );
    v.check(
        "corpus.violations",
        c.violations == 0,
        format!("{} among survivors", c.violations),
    );
    v.check(
        "corpus.docs_per_sec",
        c.docs_per_sec >= CORPUS_MIN_DOCS_PER_SEC,
        format!("{:.0} (floor {CORPUS_MIN_DOCS_PER_SEC})", c.docs_per_sec),
    );
    v.check(
        "corpus.resumed_shards",
        c.resumed_shards >= 1,
        format!("{} replayed from the journal", c.resumed_shards),
    );
    let floors = [
        ("pool.panics_caught", 1),
        ("corpus.resumed_shards", 1),
        ("corpus.quarantined", c.malformed_expected as u64),
    ];
    for (name, floor) in floors {
        let value = c.counter(name);
        let detail = format!("{value} (floor {floor})");
        v.check(format!("corpus.counter.{name}"), value >= floor, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_bench::corpus_bench::SURFACED_COUNTERS;
    use mitra_bench::json::JsonValue;
    use mitra_synth::SynthProfile;
    use mitra_trace::{MetricsSnapshot, WorkerSnapshot};

    fn row(name: &str, synth_total_secs: f64) -> MigrationRow {
        MigrationRow {
            name: name.to_string(),
            format: "XML".to_string(),
            elements: 0,
            tables: 1,
            columns: 1,
            synth_total_secs,
            synth_cpu_secs: synth_total_secs,
            rows: 0,
            exec_total_secs: 0.0,
            violations: 0,
            threads: 1,
            programs: Vec::new(),
            profile: SynthProfile::default(),
            execution: JsonValue::Null,
            metrics: MetricsSnapshot::default(),
            error: None,
        }
    }

    /// Measurements that sit exactly on every bound.
    fn at_bounds() -> Measured {
        let sequential = ["DBLP", "IMDB", "MONDIAL", "YELP"]
            .into_iter()
            .map(|name| {
                let ceiling = SYNTH_CEILING_SECS.iter().find(|(n, _)| *n == name);
                let mut r = row(name, ceiling.map_or(0.0, |(_, c)| *c));
                if name == "MONDIAL" {
                    r.metrics.counters = vec![
                        ("cache.column_nodes.hit", 1),
                        ("synth.dfa.column_automata", MONDIAL_COLUMN_AUTOMATA),
                        ("synth.dfa.graphs", MONDIAL_DFA_GRAPHS),
                    ];
                    r.metrics.workers = vec![WorkerSnapshot {
                        slot: 0,
                        busy_ns: 1,
                        idle_ns: 0,
                        pulls: 1,
                    }];
                }
                r
            })
            .collect();
        let at_ceiling = |base_secs: f64, ratio: f64| Overhead {
            base_secs,
            secs: base_secs * ratio + OVERHEAD_SLACK_SECS,
        };
        let corpus = CorpusBench {
            docs: 200,
            malformed_expected: 13,
            quarantined: 13,
            retried: 0,
            violations: 0,
            rows: 1714,
            shards: 8,
            resumed_shards: 1,
            shapes: 1,
            programs_synthesized: 2,
            quarantine_exact: true,
            threads_identical: true,
            resume_identical: true,
            docs_per_sec: CORPUS_MIN_DOCS_PER_SEC,
            rows_per_sec: 0.0,
            counters: SURFACED_COUNTERS
                .iter()
                .map(|&name| {
                    let floor = match name {
                        "pool.panics_caught" | "corpus.resumed_shards" => 1,
                        "corpus.quarantined" => 13,
                        _ => 0,
                    };
                    (name, floor)
                })
                .collect(),
        };
        Measured {
            descendants: DescendMeasurement {
                nodes: 1,
                queries: 1,
                hits: 1,
                naive_secs: DESCENDANTS_MIN_SPEEDUP,
                indexed_secs: 1.0,
            },
            sequential,
            programs_identical: true,
            parallel_threads: 2,
            mondial_speedup: Some(MONDIAL_MIN_PARALLEL_SPEEDUP),
            trace_overhead: at_ceiling(4.0, TRACE_MAX_RATIO),
            budget_overhead: at_ceiling(4.0, BUDGET_MAX_RATIO),
            executor: FINGERPRINTS
                .iter()
                .map(|&(name, fingerprint)| Workload {
                    name,
                    fingerprint,
                    planner_secs: planner_ceiling_secs(name).unwrap_or(10.0),
                })
                .collect(),
            corpus,
        }
    }

    fn outcome(m: &Measured, gate: &str) -> Outcome {
        check(m)
            .into_iter()
            .find(|v| v.gate == gate)
            .unwrap_or_else(|| panic!("no verdict for gate `{gate}`"))
            .outcome
    }

    fn failures(m: &Measured) -> Vec<String> {
        check(m)
            .into_iter()
            .filter(|v| v.outcome == Outcome::Fail)
            .map(|v| v.gate)
            .collect()
    }

    /// Asserts that `gate` passes at its bound and that, once `past` moves its
    /// input one step past the bound, it is the only gate that fails.
    fn flips(gate: &str, past: impl FnOnce(&mut Measured)) {
        let mut m = at_bounds();
        assert_eq!(outcome(&m, gate), Outcome::Pass, "{gate} at its bound");
        past(&mut m);
        assert_eq!(failures(&m), [gate], "{gate} one step past its bound");
    }

    fn workload<'a>(m: &'a mut Measured, name: &str) -> &'a mut Workload {
        m.executor
            .iter_mut()
            .find(|w| w.name == name)
            .expect("workload")
    }

    fn counter<'a>(m: &'a mut Measured, name: &str) -> &'a mut u64 {
        let (_, value) = m
            .corpus
            .counters
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("surfaced counter");
        value
    }

    #[test]
    fn every_gate_passes_at_its_bound() {
        let verdicts = check(&at_bounds());
        assert_eq!(verdicts.len(), 34);
        let not_passed: Vec<String> = verdicts
            .iter()
            .filter(|v| v.outcome != Outcome::Pass)
            .map(ToString::to_string)
            .collect();
        assert!(not_passed.is_empty(), "{not_passed:?}");
    }

    #[test]
    fn descendants_speedup_floor() {
        flips("descendants_index.speedup", |m| {
            m.descendants.naive_secs = DESCENDANTS_MIN_SPEEDUP.next_down()
        });
    }

    #[test]
    fn programs_must_be_identical_across_thread_counts() {
        flips("table2.programs_identical", |m| {
            m.programs_identical = false
        });
    }

    #[test]
    fn a_failed_or_missing_migration_fails_its_dataset() {
        flips("table2.MONDIAL.migrated", |m| {
            m.sequential[2].error = Some("synthesis failed".to_string())
        });
        flips("table2.YELP.migrated", |m| {
            m.sequential.retain(|r| r.name != "YELP")
        });
    }

    #[test]
    fn sequential_synthesis_ceilings() {
        for (name, ceiling) in SYNTH_CEILING_SECS {
            flips(&format!("table2.{name}.synth_secs"), |m| {
                let row = m.sequential.iter_mut().find(|r| r.name == name).unwrap();
                row.synth_total_secs = ceiling.next_up();
            });
        }
    }

    fn mondial_counter<'a>(m: &'a mut Measured, name: &str) -> &'a mut u64 {
        let (_, value) = m.sequential[2]
            .metrics
            .counters
            .iter_mut()
            .find(|(n, _)| *n == name)
            .expect("MONDIAL counter");
        value
    }

    #[test]
    fn mondial_metrics_must_observe_the_run() {
        flips("table2.MONDIAL.cache_hits", |m| {
            *mondial_counter(m, "cache.column_nodes.hit") = 0
        });
        flips("table2.MONDIAL.pool_workers", |m| {
            m.sequential[2].metrics.workers.clear()
        });
    }

    #[test]
    fn mondial_builds_one_dfa_graph_per_table() {
        flips("table2.MONDIAL.dfa_graphs", |m| {
            *mondial_counter(m, "synth.dfa.graphs") += 1
        });
        flips("table2.MONDIAL.dfa_graphs", |m| {
            *mondial_counter(m, "synth.dfa.column_automata") += 1
        });
    }

    #[test]
    fn parallel_speedup_floor_and_presence() {
        let gate = "table2.MONDIAL.parallel_speedup";
        flips(gate, |m| {
            m.mondial_speedup = Some(MONDIAL_MIN_PARALLEL_SPEEDUP.next_down())
        });
        flips(gate, |m| m.mondial_speedup = None);
    }

    #[test]
    fn parallel_speedup_gate_is_skipped_at_one_thread() {
        let mut m = at_bounds();
        m.parallel_threads = 1;
        m.mondial_speedup = None;
        assert_eq!(
            outcome(&m, "table2.MONDIAL.parallel_speedup"),
            Outcome::Skip
        );
        assert!(failures(&m).is_empty());
    }

    #[test]
    fn overhead_ceilings() {
        flips("trace_overhead", |m| {
            m.trace_overhead.secs = m.trace_overhead.secs.next_up()
        });
        flips("budget_overhead", |m| {
            m.budget_overhead.secs = m.budget_overhead.secs.next_up()
        });
    }

    #[test]
    fn a_changed_table_fnv_or_row_count_fails_its_fingerprint() {
        for (name, _) in FINGERPRINTS {
            flips(&format!("executor.{name}.fingerprint"), |m| {
                workload(m, name).fingerprint.fnv ^= 1
            });
        }
        flips("executor.join-ordering.fingerprint", |m| {
            workload(m, "join-ordering").fingerprint.rows += 1
        });
    }

    #[test]
    fn executor_wall_ceilings() {
        for (name, _) in FINGERPRINTS {
            let Some(ceiling) = planner_ceiling_secs(name) else {
                continue;
            };
            flips(&format!("executor.{name}.planner_secs"), |m| {
                workload(m, name).planner_secs = ceiling.next_up()
            });
        }
    }

    #[test]
    fn a_missing_dataset_fails_the_executor_block() {
        flips("executor.workloads", |m| {
            m.executor.retain(|w| w.name != "IMDB")
        });
    }

    #[test]
    fn corpus_determinism_and_quarantine() {
        flips("corpus.threads_identical", |m| {
            m.corpus.threads_identical = false
        });
        flips("corpus.resume_identical", |m| {
            m.corpus.resume_identical = false
        });
        flips("corpus.quarantine_exact", |m| {
            m.corpus.quarantine_exact = false
        });
        flips("corpus.quarantined", |m| m.corpus.quarantined += 1);
        flips("corpus.violations", |m| m.corpus.violations = 1);
        flips("corpus.resumed_shards", |m| m.corpus.resumed_shards = 0);
    }

    #[test]
    fn corpus_throughput_floor() {
        flips("corpus.docs_per_sec", |m| {
            m.corpus.docs_per_sec = CORPUS_MIN_DOCS_PER_SEC.next_down()
        });
    }

    #[test]
    fn corpus_counter_floors() {
        flips("corpus.counter.pool.panics_caught", |m| {
            *counter(m, "pool.panics_caught") = 0
        });
        flips("corpus.counter.corpus.resumed_shards", |m| {
            *counter(m, "corpus.resumed_shards") = 0
        });
        flips("corpus.counter.corpus.quarantined", |m| {
            *counter(m, "corpus.quarantined") -= 1
        });
    }
}
