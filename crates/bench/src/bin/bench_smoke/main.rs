//! Bench-smoke harness: measures a fast, machine-readable snapshot of the
//! performance trajectory, writes it as `BENCH_synthesis.json`, and gates it.
//!
//! Run with: `cargo run -p mitra-bench --release --bin bench_smoke [-- --out PATH]
//! [-- --threads N] [-- --trace-out PATH]`
//!
//! The output has seven blocks:
//!
//! * `table1` — synthesis over all 98 corpus tasks (Table 1), run at the
//!   parallel thread count: solved tasks, and the median, p90 and max synthesis
//!   time per column-count category;
//! * `table2` — full-database migration of the four dataset simulators at scale
//!   25, measured **twice**: once sequentially and once at the parallel thread
//!   count (`--threads N`, default all cores), with a check that both runs
//!   synthesized byte-identical programs (the worker pool's canonical-merge
//!   determinism guarantee) and the MONDIAL synthesis speedup;
//! * `trace_overhead` / `budget_overhead` — MONDIAL sequential synthesis with the
//!   metrics layer off vs on, and with an unlimited vs a never-binding finite
//!   fuel budget, each the fastest run per side of three interleaved pairs;
//! * `corpus` — the checkpointed corpus migration service on a seeded mixer
//!   corpus: thread-count and crash-resume byte-identity, exact quarantine of
//!   the malformed fraction, docs/sec throughput, and the surfaced
//!   `corpus.*` / `pool.panics_caught` counters;
//! * `descendants_index` — the descendants-heavy evaluation workload comparing the
//!   naive subtree walk against the pre-order/occurrence-list index;
//! * `executor` — planner wall time, plan shape and a table fingerprint (`rows`
//!   and the FNV-1a hash of the CSV text) on the E3 million-element document, a
//!   join-ordering workload, and every Table 2 dataset.
//!
//! With `--trace-out` it also writes a full-mode MONDIAL Perfetto trace.  After
//! writing the file it checks every gate in [`gates`] on the values it measured,
//! prints one verdict line per gate, and exits non-zero if any gate failed.

mod gates;

use gates::{Fingerprint, Measured, Outcome, Overhead, Workload};
use mitra_bench::descend;
use mitra_bench::json::{int, num, obj, s, JsonValue};
use mitra_bench::table2::{rows_to_json_value, run_single_dataset, run_table2_with, MigrationRow};
use mitra_bench::{median, percentile, profile_to_json, run_task, table1_config};
use mitra_datagen::corpus::Category;
use mitra_datagen::datasets::all_datasets;
use mitra_datagen::generate_corpus;
use mitra_datagen::social;
use mitra_dsl::ast::{
    ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, Program, TableExtractor,
};
use mitra_dsl::parse::parse_program;
use mitra_dsl::{Table, Value};
use mitra_hdt::Hdt;
use mitra_synth::budget::Budget;
use mitra_synth::exec::{execute_with_stats, plan_with_tree};
use mitra_synth::fingerprint::{fnv1a, FNV_OFFSET};
use mitra_synth::synthesize::{learn_transformation, SynthConfig};
use mitra_trace::TraceMode;
use std::process::ExitCode;
use std::time::Instant;

/// Per-entity scale of the Table 2 execution documents; the executor
/// fingerprint gates hold at this scale only.
const SCALE: usize = 25;

/// Interleaved (base, measured) run pairs per overhead check.  Single runs of
/// one commit read budget ratios from 0.82 to 1.38 on a shared 2-vCPU VM, wider
/// than the 2% bound, so each side is gated on its fastest run.
const OVERHEAD_PAIRS: usize = 3;

fn main() -> ExitCode {
    let mut out_path = "BENCH_synthesis.json".to_string();
    let mut threads = 0usize;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--out", Some(v)) => out_path = v,
            ("--threads", Some(v)) => threads = v.parse().expect("--threads takes a number"),
            ("--trace-out", Some(v)) => trace_out = Some(v),
            _ => {
                eprintln!("usage: bench_smoke [--out PATH] [--threads N] [--trace-out PATH]");
                return ExitCode::FAILURE;
            }
        }
    }
    let parallel_threads = mitra_pool::resolve(threads);
    // Pin the trace mode so the measured runs carry metrics regardless of the
    // environment's MITRA_TRACE; the overhead block below flips it deliberately.
    mitra_trace::set_mode(TraceMode::Summary);

    // Table 1, every corpus task, at the parallel thread count.
    let tasks = generate_corpus();
    eprintln!(
        "bench_smoke: table1 ({} tasks, {parallel_threads} threads)...",
        tasks.len()
    );
    let mut config = table1_config();
    config.threads = parallel_threads;
    let results: Vec<_> = tasks.iter().map(|t| run_task(t, &config)).collect();
    let table1_unsolved: Vec<String> = results
        .iter()
        .filter(|r| !r.solved)
        .map(|r| r.name.clone())
        .collect();
    let table1_solved = results.len() - table1_unsolved.len();
    let categories = [
        Category::AtMostTwo,
        Category::Three,
        Category::Four,
        Category::FivePlus,
    ]
    .map(|category| {
        let in_category = tasks
            .iter()
            .zip(&results)
            .filter(|(t, _)| t.category == category);
        let times: Vec<f64> = in_category
            .clone()
            .filter(|(_, r)| r.solved)
            .map(|(_, r)| r.time.as_secs_f64())
            .collect();
        obj(vec![
            ("columns", s(category.label())),
            ("tasks", int(in_category.count())),
            ("solved", int(times.len())),
            ("median_time_secs", num(median(&times))),
            ("p90_time_secs", num(percentile(&times, 0.9))),
            ("max_time_secs", num(percentile(&times, 1.0))),
        ])
    });
    let table1 = obj(vec![
        ("tasks", int(results.len())),
        ("solved", int(table1_solved)),
        (
            "unsolved",
            JsonValue::Array(table1_unsolved.iter().map(s).collect()),
        ),
        (
            "truncated_tasks",
            int(results.iter().filter(|r| r.truncated).count()),
        ),
        ("threads", int(parallel_threads)),
        ("categories", JsonValue::Array(Vec::from(categories))),
        ("profile", {
            let mut total = mitra_synth::SynthProfile::default();
            for r in &results {
                total.merge(&r.profile);
            }
            profile_to_json(&total)
        }),
    ]);

    // Table 2: sequential baseline, then the parallel run of the same plans.
    eprintln!("bench_smoke: table2 migrations (scale {SCALE}, 1 thread)...");
    let sequential = run_table2_with(SCALE, 1);
    let (parallel, programs_identical, mondial_speedup) = if parallel_threads > 1 {
        eprintln!("bench_smoke: table2 migrations (scale {SCALE}, {parallel_threads} threads)...");
        let parallel = run_table2_with(SCALE, parallel_threads);
        let identical = programs_match(&sequential, &parallel);
        let speedup = dataset_speedup(&sequential, &parallel, "MONDIAL");
        (Some(parallel), identical, speedup)
    } else {
        eprintln!("bench_smoke: single-threaded environment, skipping the parallel run");
        (None, true, None)
    };

    let mondial = |threads, budget| {
        run_single_dataset("MONDIAL", SCALE, threads, budget).expect("MONDIAL spec exists")
    };

    // Tracing-overhead check: MONDIAL sequential with the metrics layer off vs on
    // (summary mode) — the "cheap enough to leave on" claim, measured.  The
    // summary side runs last, so the pinned mode is restored.
    eprintln!("bench_smoke: MONDIAL tracing-overhead check (off vs summary)...");
    let trace_overhead = overhead_best_of(
        || {
            mitra_trace::set_mode(TraceMode::Off);
            mondial(1, Budget::UNLIMITED).synth_total_secs
        },
        || {
            mitra_trace::set_mode(TraceMode::Summary);
            mondial(1, Budget::UNLIMITED).synth_total_secs
        },
    );

    // Budget-overhead check: MONDIAL sequential with the default unlimited budget
    // vs a generous *finite* budget that never binds (the checks run, exhaustion
    // never fires).
    eprintln!("bench_smoke: MONDIAL budget-overhead check (unlimited vs finite)...");
    let generous = Budget {
        max_candidates: Some(u64::MAX / 2),
        max_dfa_states: Some(u64::MAX / 2),
        max_rows: Some(u64::MAX / 2),
    };
    let budget_overhead = overhead_best_of(
        || mondial(1, Budget::UNLIMITED).synth_total_secs,
        || mondial(1, generous).synth_total_secs,
    );

    // Optional Perfetto artifact: re-run MONDIAL in full mode and export the span
    // buffer as Chrome trace-event JSON.
    if let Some(path) = &trace_out {
        eprintln!("bench_smoke: recording MONDIAL full-mode trace -> {path}...");
        mitra_trace::set_mode(TraceMode::Full);
        mitra_trace::clear_events();
        mondial(parallel_threads, Budget::UNLIMITED);
        let events = mitra_trace::take_events();
        mitra_trace::set_mode(TraceMode::Summary);
        std::fs::write(path, mitra_trace::export::chrome_trace(&events))
            .expect("write trace artifact");
        eprintln!("bench_smoke: wrote {path} ({} events)", events.len());
    }

    // The synthesized motivating-example program, the executor's E3 workload.
    let motivating = learn_transformation(&[social::training_example()], &SynthConfig::default())
        .expect("motivating-example synthesis succeeds")
        .program;

    // Executor workloads: the planner-driven engine on the E3 million-element
    // document, on a join-ordering workload the static order handles badly, and
    // across every Table 2 dataset.
    eprintln!("bench_smoke: executor workloads (E3 1M elements + join ordering + datasets)...");
    let (executor, executor_json) = executor_block(&sequential, &motivating);

    // Corpus-service block: the checkpointed migration service on a seeded
    // mixer corpus — thread-count determinism, crash-resume byte-identity
    // (injected shard panic), exact quarantine of the malformed fraction, and
    // the surfaced corpus.* / pool.panics_caught counters (DESIGN.md §12).
    eprintln!("bench_smoke: corpus service (200 docs, 10% malformed, crash + resume)...");
    let corpus_scratch =
        std::env::temp_dir().join(format!("mitra-bench-corpus-{}", std::process::id()));
    let corpus = mitra_bench::corpus_bench::measure(200, 10, 0xC0FF, &corpus_scratch);
    let _ = std::fs::remove_dir_all(&corpus_scratch);

    // The descendants-index headline comparison.
    eprintln!("bench_smoke: descendants index workload...");
    let descendants = descend::measure(400, 400, 5);

    let mut table2_fields = vec![
        (
            "threads",
            obj(vec![
                ("sequential", int(1)),
                ("parallel", int(parallel_threads)),
            ]),
        ),
        ("sequential", rows_to_json_value(&sequential)),
    ];
    if let Some(par) = &parallel {
        table2_fields.push(("parallel", rows_to_json_value(par)));
    }
    table2_fields.push(("programs_identical", JsonValue::Bool(programs_identical)));
    if let Some(x) = mondial_speedup {
        table2_fields.push(("mondial_synth_speedup", num(x)));
    }
    let overhead_json = |o: Overhead, base: &'static str, measured: &'static str| {
        obj(vec![
            ("pairs", int(OVERHEAD_PAIRS)),
            (base, num(o.base_secs)),
            (measured, num(o.secs)),
            ("overhead_ratio", num(o.ratio())),
        ])
    };

    let doc = obj(vec![
        (
            "config",
            s(format!(
                "table1 all {} tasks, table2 scale={SCALE} at threads 1 vs {parallel_threads}, descend 400x400 best-of-5",
                tasks.len()
            )),
        ),
        ("table1", table1),
        ("table2", obj(table2_fields)),
        (
            "trace_overhead",
            overhead_json(trace_overhead, "off_secs", "summary_secs"),
        ),
        (
            "budget_overhead",
            overhead_json(budget_overhead, "unbudgeted_secs", "budgeted_secs"),
        ),
        ("corpus", corpus.to_json()),
        (
            "descendants_index",
            obj(vec![
                ("nodes", int(descendants.nodes)),
                ("queries", int(descendants.queries)),
                ("hits", int(descendants.hits)),
                ("naive_secs", num(descendants.naive_secs)),
                ("indexed_secs", num(descendants.indexed_secs)),
                ("speedup", num(descendants.speedup())),
            ]),
        ),
        ("executor", executor_json),
    ]);
    std::fs::write(&out_path, format!("{}\n", doc.to_string_pretty()))
        .expect("write baseline file");
    eprintln!("bench_smoke: wrote {out_path}");

    let verdicts = gates::check(&Measured {
        table1_solved,
        table1_unsolved,
        descendants,
        sequential,
        programs_identical,
        parallel_threads,
        mondial_speedup,
        trace_overhead,
        budget_overhead,
        executor,
        corpus,
    });
    for verdict in &verdicts {
        println!("{verdict}");
    }
    let failed = verdicts
        .iter()
        .filter(|v| v.outcome == Outcome::Fail)
        .count();
    eprintln!("bench_smoke: {failed} of {} gates failed", verdicts.len());
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Best-of-`n` wall time of `f`, returning the fastest run's result and seconds.
fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..n.max(1) {
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((value, secs));
        }
    }
    best.expect("n >= 1")
}

/// Runs `base` and `measured` (each returning its seconds) as [`OVERHEAD_PAIRS`]
/// interleaved pairs and keeps each side's fastest run, as [`best_of`] does for
/// one workload; interleaving exposes both sides to the same drift of the machine.
fn overhead_best_of(mut base: impl FnMut() -> f64, mut measured: impl FnMut() -> f64) -> Overhead {
    let mut o = Overhead {
        base_secs: f64::INFINITY,
        secs: f64::INFINITY,
    };
    for _ in 0..OVERHEAD_PAIRS {
        o.base_secs = o.base_secs.min(base());
        o.secs = o.secs.min(measured());
    }
    o
}

/// The three-column workload whose static join order is pathological: the only
/// constraint links columns 1 and 2, so the static order ([0, 1, 2]) cross-products
/// the two large columns before the join can prune, while the cost-based order
/// starts from the handful of filtered column-2 rows.
fn ordering_workload() -> (Hdt, Program) {
    let doc = mitra_hdt::generate::social_network(1_000, 1);
    let person = ColumnExtractor::children(ColumnExtractor::Input, "Person");
    let fid = ColumnExtractor::descendants(ColumnExtractor::Input, "fid");
    let id_of = NodeExtractor::child(NodeExtractor::Id, "id", 0);
    let filter = Predicate::Compare {
        extractor: id_of.clone(),
        index: 2,
        op: CompareOp::Lt,
        rhs: Operand::Const(Value::int(5)),
    };
    let join = Predicate::Compare {
        extractor: NodeExtractor::Id,
        index: 1,
        op: CompareOp::Eq,
        rhs: Operand::Column {
            extractor: id_of,
            index: 2,
        },
    };
    let program = Program::new(
        TableExtractor::new(vec![person.clone(), fid, person]),
        Predicate::and(filter, join),
    );
    (doc, program)
}

/// The row count and the FNV-1a hash of the tables' CSV text, concatenated in
/// order.
fn table_fingerprint(tables: &[Table]) -> Fingerprint {
    let fnv = tables
        .iter()
        .fold(FNV_OFFSET, |h, t| fnv1a(h, t.to_csv().as_bytes()));
    Fingerprint::new(tables.iter().map(Table::len).sum(), fnv)
}

/// The JSON fields of a workload: its fingerprint and planner wall time.
fn workload_json(w: &Workload) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("rows", int(w.fingerprint.rows)),
        ("table_fnv", s(format!("{:016x}", w.fingerprint.fnv))),
        ("planner_secs", num(w.planner_secs)),
    ]
}

/// One executor workload, best of `runs`, with the fields of its JSON object.
fn executor_workload(
    name: &'static str,
    doc: &Hdt,
    program: &Program,
    runs: usize,
) -> (Workload, Vec<(&'static str, JsonValue)>) {
    let ((table, stats), planner_secs) = best_of(runs, || execute_with_stats(doc, program));
    let workload = Workload {
        name,
        fingerprint: table_fingerprint(std::slice::from_ref(&table)),
        planner_secs,
    };
    let mut fields = vec![("workload", s(name))];
    fields.extend(workload_json(&workload));
    fields.extend([
        ("interval_join_steps", int(stats.interval_join_steps)),
        ("hash_join_steps", int(stats.hash_join_steps)),
        ("cross_product_steps", int(stats.cross_product_steps)),
    ]);
    (workload, fields)
}

/// Measures the executor workloads: the E3 million-element motivating-example
/// document, the join-ordering workload, and a per-dataset re-execution of the
/// Table 2 programs.  Returns them with the `executor` JSON block.
fn executor_block(sequential: &[MigrationRow], motivating: &Program) -> (Vec<Workload>, JsonValue) {
    let doc = social::social_network_with_elements(1_000_000, 2);
    let elements = doc.element_count();
    let (counts_i, counts_h, counts_c) = plan_with_tree(motivating, &doc).method_counts();
    let (e3, mut e3_json) = executor_workload("motivating-1M", &doc, motivating, 1);
    drop(doc);
    e3_json.push(("elements", int(elements)));
    if e3.planner_secs > 0.0 {
        e3_json.push(("elements_per_sec", num(elements as f64 / e3.planner_secs)));
        e3_json.push((
            "rows_per_sec",
            num(e3.fingerprint.rows as f64 / e3.planner_secs),
        ));
    }
    e3_json.push((
        "plan_shape",
        s(format!(
            "{counts_i} interval / {counts_h} hash / {counts_c} cross"
        )),
    ));

    let (ordering_doc, ordering_program) = ordering_workload();
    let (ordering, ordering_json) =
        executor_workload("join-ordering", &ordering_doc, &ordering_program, 3);

    let mut workloads = vec![e3, ordering];

    // Re-execute every synthesized Table 2 program on its dataset.
    let mut datasets = Vec::new();
    for spec in all_datasets() {
        let Some(row) = sequential.iter().find(|r| r.name == spec.name) else {
            continue;
        };
        if row.programs.is_empty() {
            continue;
        }
        let (tree, _) = spec.generate(SCALE);
        let programs: Vec<Program> = row
            .programs
            .iter()
            .map(|text| parse_program(text).expect("synthesized programs re-parse"))
            .collect();
        let (tables, planner_secs) = best_of(3, || {
            programs
                .iter()
                .map(|p| execute_with_stats(&tree, p).0)
                .collect::<Vec<Table>>()
        });
        let workload = Workload {
            name: spec.name,
            fingerprint: table_fingerprint(&tables),
            planner_secs,
        };
        let mut fields = vec![("dataset", s(spec.name)), ("tables", int(programs.len()))];
        fields.extend(workload_json(&workload));
        datasets.push(obj(fields));
        workloads.push(workload);
    }
    let json = obj(vec![
        ("e3_motivating", obj(e3_json)),
        ("ordering", obj(ordering_json)),
        ("datasets", JsonValue::Array(datasets)),
    ]);
    (workloads, json)
}

/// True when both runs synthesized byte-identical programs for every dataset.
fn programs_match(a: &[MigrationRow], b: &[MigrationRow]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.name == rb.name && ra.programs == rb.programs && ra.rows == rb.rows)
}

/// Wall-clock synthesis speedup of run `b` over run `a` for one dataset.
fn dataset_speedup(a: &[MigrationRow], b: &[MigrationRow], name: &str) -> Option<f64> {
    let base = a.iter().find(|r| r.name == name)?;
    let fast = b.iter().find(|r| r.name == name)?;
    if fast.synth_total_secs > 0.0 {
        Some(base.synth_total_secs / fast.synth_total_secs)
    } else {
        None
    }
}
