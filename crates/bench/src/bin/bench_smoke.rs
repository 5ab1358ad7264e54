//! Bench-smoke harness: a fast, machine-readable snapshot of the performance
//! trajectory, written as `BENCH_synthesis.json`.
//!
//! Run with: `cargo run -p mitra-bench --release --bin bench_smoke [-- --out PATH]
//! [-- --limit N] [-- --scale N] [-- --threads N] [-- --trace-out PATH]`
//!
//! The output has eight blocks:
//!
//! * `table1` — synthesis over the first `limit` corpus tasks (Table 1 smoke slice),
//!   run at the parallel thread count;
//! * `table2` — full-database migration of the four dataset simulators at `scale`,
//!   measured **twice**: once sequentially (`--threads 1`) and once at the parallel
//!   thread count (`--threads N`, default all cores).  The harness asserts that the
//!   synthesized programs are byte-identical across the two runs (the worker pool's
//!   canonical-merge determinism guarantee) and reports the MONDIAL synthesis
//!   speedup;
//! * `trace_overhead` / `budget_overhead` — MONDIAL sequential synthesis with the
//!   metrics layer off vs on, and with an unlimited vs a never-binding finite
//!   fuel budget;
//! * `degradation` — a seeded 4-table fuzz migration degraded by an injected
//!   worker panic and by a zero-candidate budget, its summaries embedded verbatim;
//! * `corpus` — the checkpointed corpus migration service on a seeded mixer
//!   corpus: thread-count and crash-resume byte-identity, exact quarantine of
//!   the malformed fraction, docs/sec throughput, and the surfaced
//!   `corpus.*` / `pool.panics_caught` counters;
//! * `descendants_index` — the descendants-heavy evaluation workload comparing the
//!   naive subtree walk against the pre-order/occurrence-list index (`speedup`
//!   must stay well above 2);
//! * `executor` — planner wall time, plan shape and a table fingerprint (`rows`
//!   and the FNV-1a hash of the CSV text) on the E3 million-element document, a
//!   join-ordering workload, and every Table 2 dataset.
//!
//! With `--trace-out` it also writes a full-mode MONDIAL Perfetto trace.  CI runs
//! this binary on every push, gates the JSON (the executor fingerprints against
//! literals, the timings against ceilings) and uploads it as an artifact; the
//! repository keeps a committed baseline so the trajectory is reviewable in-diff.
//! The process exits non-zero when the synthesis determinism check or a corpus
//! gate fails, so CI cannot silently ship a scheduling-dependent synthesizer.

use mitra_bench::descend;
use mitra_bench::json::{int, num, obj, s, JsonValue};
use mitra_bench::table2::{
    rows_to_json_value, run_single_dataset, run_single_dataset_budgeted, run_table2_with,
    MigrationRow,
};
use mitra_bench::{mean, median, profile_to_json, run_task, table1_config};
use mitra_datagen::datasets::all_datasets;
use mitra_datagen::fuzz::migration_scenario;
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
use mitra_trace::fault::{set_fault, FaultSpec};
use mitra_trace::TraceMode;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = get("--out").unwrap_or_else(|| "BENCH_synthesis.json".to_string());
    let limit: usize = get("--limit").and_then(|v| v.parse().ok()).unwrap_or(12);
    let scale: usize = get("--scale").and_then(|v| v.parse().ok()).unwrap_or(25);
    let threads: usize = get("--threads").and_then(|v| v.parse().ok()).unwrap_or(0);
    let trace_out = get("--trace-out");
    let parallel_threads = mitra_pool::resolve(threads);
    // Pin the trace mode so the measured runs carry metrics regardless of the
    // environment's MITRA_TRACE; the overhead block below flips it deliberately.
    mitra_trace::set_mode(TraceMode::Summary);

    // Table 1 smoke slice, at the parallel thread count.
    eprintln!("bench_smoke: table1 slice ({limit} tasks, {parallel_threads} threads)...");
    let mut tasks = generate_corpus();
    tasks.truncate(limit);
    let mut config = table1_config();
    config.threads = parallel_threads;
    let results: Vec<_> = tasks.iter().map(|t| run_task(t, &config)).collect();
    let times: Vec<f64> = results
        .iter()
        .filter(|r| r.solved)
        .map(|r| r.time.as_secs_f64())
        .collect();
    let table1 = obj(vec![
        ("tasks", int(results.len())),
        ("solved", int(results.iter().filter(|r| r.solved).count())),
        ("median_time_secs", num(median(&times))),
        ("mean_time_secs", num(mean(&times))),
        (
            "truncated_tasks",
            int(results.iter().filter(|r| r.truncated).count()),
        ),
        ("threads", int(parallel_threads)),
        ("profile", {
            let mut total = mitra_synth::SynthProfile::default();
            for r in &results {
                total.merge(&r.profile);
            }
            profile_to_json(&total)
        }),
    ]);

    // Table 2: sequential baseline, then the parallel run of the same plans.
    eprintln!("bench_smoke: table2 migrations (scale {scale}, 1 thread)...");
    let sequential = run_table2_with(scale, 1);
    let (parallel, programs_identical, mondial_speedup) = if parallel_threads > 1 {
        eprintln!("bench_smoke: table2 migrations (scale {scale}, {parallel_threads} threads)...");
        let parallel = run_table2_with(scale, parallel_threads);
        let identical = programs_match(&sequential, &parallel);
        let speedup = dataset_speedup(&sequential, &parallel, "MONDIAL");
        (Some(parallel), identical, speedup)
    } else {
        eprintln!("bench_smoke: single-threaded environment, skipping the parallel run");
        (None, true, None)
    };

    // Tracing-overhead check: MONDIAL sequential with the metrics layer off vs on
    // (summary mode).  The CI gate asserts the summary-mode run stays within 5% of
    // the untraced wall time — the "cheap enough to leave on" claim, measured.
    eprintln!("bench_smoke: MONDIAL tracing-overhead check (off vs summary)...");
    mitra_trace::set_mode(TraceMode::Off);
    let mondial_off = run_single_dataset("MONDIAL", scale, 1).expect("MONDIAL spec exists");
    mitra_trace::set_mode(TraceMode::Summary);
    let mondial_summary = run_single_dataset("MONDIAL", scale, 1).expect("MONDIAL spec exists");
    let overhead_ratio = if mondial_off.synth_total_secs > 0.0 {
        mondial_summary.synth_total_secs / mondial_off.synth_total_secs
    } else {
        1.0
    };
    let trace_overhead = obj(vec![
        ("off_secs", num(mondial_off.synth_total_secs)),
        ("summary_secs", num(mondial_summary.synth_total_secs)),
        ("overhead_ratio", num(overhead_ratio)),
    ]);
    eprintln!(
        "bench_smoke: MONDIAL synthesis off {:.2}s vs summary {:.2}s ({:+.1}% overhead)",
        mondial_off.synth_total_secs,
        mondial_summary.synth_total_secs,
        (overhead_ratio - 1.0) * 100.0
    );

    // Budget-overhead check: MONDIAL sequential with the default unlimited budget
    // vs a generous *finite* budget that never binds (the checks run, exhaustion
    // never fires).  The CI gate asserts the budgeted run stays within 2% of the
    // unlimited wall time — fuel accounting must be cheap enough to leave on.
    eprintln!("bench_smoke: MONDIAL budget-overhead check (unlimited vs finite)...");
    let mondial_unbudgeted = run_single_dataset("MONDIAL", scale, 1).expect("MONDIAL spec exists");
    let generous = Budget {
        max_candidates: Some(u64::MAX / 2),
        max_dfa_states: Some(u64::MAX / 2),
        max_rows: Some(u64::MAX / 2),
    };
    let mondial_budgeted =
        run_single_dataset_budgeted("MONDIAL", scale, 1, generous).expect("MONDIAL spec exists");
    let budget_ratio = if mondial_unbudgeted.synth_total_secs > 0.0 {
        mondial_budgeted.synth_total_secs / mondial_unbudgeted.synth_total_secs
    } else {
        1.0
    };
    let budget_overhead = obj(vec![
        ("unbudgeted_secs", num(mondial_unbudgeted.synth_total_secs)),
        ("budgeted_secs", num(mondial_budgeted.synth_total_secs)),
        ("overhead_ratio", num(budget_ratio)),
    ]);
    eprintln!(
        "bench_smoke: MONDIAL synthesis unlimited {:.2}s vs budgeted {:.2}s ({:+.1}% overhead)",
        mondial_unbudgeted.synth_total_secs,
        mondial_budgeted.synth_total_secs,
        (budget_ratio - 1.0) * 100.0
    );

    // Degradation snapshot: a 4-table fuzz migration degraded two ways — one
    // injected worker panic, then a zero-candidate fuel budget — with the
    // summary JSON embedded verbatim.  Everything here is deterministic (seeded
    // scenario, work-counting budgets, no wall-clock in any outcome), so the
    // block is diff-stable across machines; byte-identity across thread counts
    // is asserted by the fuzz_smoke gate.
    eprintln!("bench_smoke: degradation snapshot (injected panic + exhausted budget)...");
    const DEGRADATION_SEED: u64 = 0x004D_177A;
    set_fault(FaultSpec::parse("panic:migrate.table:2"));
    let (fuzz_doc, mut fault_plan) = migration_scenario(DEGRADATION_SEED, 4);
    fault_plan.synth_config.threads = 1;
    let fault_report = fault_plan.run(&fuzz_doc).expect("non-strict runs degrade");
    set_fault(None);
    let (fuzz_doc, mut budget_plan) = migration_scenario(DEGRADATION_SEED, 4);
    budget_plan.synth_config.threads = 1;
    budget_plan.synth_config.budget = Budget {
        max_candidates: Some(0),
        ..Budget::UNLIMITED
    };
    let budget_report = budget_plan.run(&fuzz_doc).expect("non-strict runs degrade");
    let summary_value =
        |json: &str| mitra_hdt::parse_json(json).expect("degradation summaries are valid JSON");
    let degradation = obj(vec![
        ("seed", int(DEGRADATION_SEED as usize)),
        ("fault", s("panic:migrate.table:2")),
        (
            "fault_injection",
            summary_value(&fault_report.summary_json()),
        ),
        (
            "budget_exhaustion",
            summary_value(&budget_report.summary_json()),
        ),
    ]);

    // Optional Perfetto artifact: re-run MONDIAL in full mode and export the span
    // buffer as Chrome trace-event JSON.
    if let Some(path) = &trace_out {
        eprintln!("bench_smoke: recording MONDIAL full-mode trace -> {path}...");
        mitra_trace::set_mode(TraceMode::Full);
        mitra_trace::clear_events();
        let _ = run_single_dataset("MONDIAL", scale, parallel_threads);
        let events = mitra_trace::take_events();
        mitra_trace::set_mode(TraceMode::Summary);
        std::fs::write(path, mitra_trace::export::chrome_trace(&events))
            .expect("write trace artifact");
        eprintln!("bench_smoke: wrote {path} ({} events)", events.len());
    }

    // Executor workloads: the planner-driven engine on the E3 million-element
    // document, on a join-ordering workload the static order handles badly, and
    // across every Table 2 dataset.  CI pins each workload's table fingerprint.
    eprintln!("bench_smoke: executor workloads (E3 1M elements + join ordering + datasets)...");
    let executor = executor_block(&sequential, scale);

    // Corpus-service block: the checkpointed migration service on a seeded
    // mixer corpus — thread-count determinism, crash-resume byte-identity
    // (injected shard panic), exact quarantine of the malformed fraction, and
    // the surfaced corpus.* / pool.panics_caught counters (DESIGN.md §12).
    eprintln!("bench_smoke: corpus service (200 docs, 10% malformed, crash + resume)...");
    let corpus_scratch =
        std::env::temp_dir().join(format!("mitra-bench-corpus-{}", std::process::id()));
    let corpus_bench = mitra_bench::corpus_bench::measure(200, 10, 0xC0FF, &corpus_scratch);
    let _ = std::fs::remove_dir_all(&corpus_scratch);
    eprintln!(
        "bench_smoke: corpus {} ok / {} quarantined, {:.0} docs/s, resume_identical={}",
        corpus_bench.docs - corpus_bench.quarantined,
        corpus_bench.quarantined,
        corpus_bench.docs_per_sec,
        corpus_bench.resume_identical
    );
    let corpus_ok = corpus_bench.passed();
    let corpus = corpus_bench.to_json();

    // The descendants-index headline comparison.
    eprintln!("bench_smoke: descendants index workload...");
    let m = descend::measure(400, 400, 5);
    let descendants = obj(vec![
        ("nodes", int(m.nodes)),
        ("queries", int(m.queries)),
        ("hits", int(m.hits)),
        ("naive_secs", num(m.naive_secs)),
        ("indexed_secs", num(m.indexed_secs)),
        ("speedup", num(m.speedup())),
    ]);

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
    let table2 = obj(table2_fields);

    let doc = obj(vec![
        (
            "config",
            s(format!(
                "table1 limit={limit}, table2 scale={scale} at threads 1 vs {parallel_threads}, descend 400x400 best-of-5"
            )),
        ),
        ("table1", table1),
        ("table2", table2),
        ("trace_overhead", trace_overhead),
        ("budget_overhead", budget_overhead),
        ("degradation", degradation),
        ("corpus", corpus),
        ("descendants_index", descendants),
        ("executor", executor),
    ]);

    std::fs::write(&out_path, format!("{}\n", doc.to_string_pretty()))
        .expect("write baseline file");
    eprintln!(
        "bench_smoke: wrote {out_path} (descendants speedup: {:.1}x{})",
        m.speedup(),
        match mondial_speedup {
            Some(x) => format!(", MONDIAL synth speedup: {x:.2}x"),
            None => String::new(),
        }
    );
    if !programs_identical {
        eprintln!("bench_smoke: FATAL: synthesized programs differ between thread counts");
        std::process::exit(1);
    }
    if !corpus_ok {
        eprintln!("bench_smoke: FATAL: a corpus-service determinism or quarantine gate failed");
        std::process::exit(1);
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

/// The fingerprint CI pins for an executor workload: the row count and the
/// FNV-1a hash of the tables' CSV text, concatenated in order.
fn table_fingerprint(tables: &[Table]) -> [(&'static str, JsonValue); 2] {
    let fnv = tables
        .iter()
        .fold(FNV_OFFSET, |h, t| fnv1a(h, t.to_csv().as_bytes()));
    [
        ("rows", int(tables.iter().map(Table::len).sum())),
        ("table_fnv", s(format!("{fnv:016x}"))),
    ]
}

/// One executor workload, best of `runs`: the fields of its JSON object, the
/// row count and the planner's wall time.
fn executor_workload(
    label: &str,
    doc: &Hdt,
    program: &Program,
    runs: usize,
) -> (Vec<(&'static str, JsonValue)>, usize, f64) {
    let ((table, stats), planner_secs) = best_of(runs, || execute_with_stats(doc, program));
    let mut fields = vec![("workload", s(label))];
    fields.extend(table_fingerprint(std::slice::from_ref(&table)));
    fields.extend([
        ("planner_secs", num(planner_secs)),
        ("interval_join_steps", int(stats.interval_join_steps)),
        ("hash_join_steps", int(stats.hash_join_steps)),
        ("cross_product_steps", int(stats.cross_product_steps)),
    ]);
    (fields, table.len(), planner_secs)
}

/// Builds the `executor` JSON block: the E3 million-element motivating-example
/// document, the join-ordering workload (whose planner time CI gates), and a
/// per-dataset re-execution of the Table 2 programs.
fn executor_block(sequential: &[MigrationRow], scale: usize) -> JsonValue {
    // E3: the synthesized motivating-example program over ~1M elements.
    let example = social::training_example();
    let synthesis = learn_transformation(&[example], &SynthConfig::default())
        .expect("motivating-example synthesis succeeds");
    let motivating = synthesis.program;
    let doc = social::social_network_with_elements(1_000_000, 2);
    let elements = doc.element_count();
    let (counts_i, counts_h, counts_c) = plan_with_tree(&motivating, &doc).method_counts();
    let (mut e3, rows, planner_secs) = executor_workload("motivating-1M", &doc, &motivating, 1);
    drop(doc);
    e3.push(("elements", int(elements)));
    if planner_secs > 0.0 {
        e3.push(("elements_per_sec", num(elements as f64 / planner_secs)));
        e3.push(("rows_per_sec", num(rows as f64 / planner_secs)));
    }
    e3.push((
        "plan_shape",
        s(format!(
            "{counts_i} interval / {counts_h} hash / {counts_c} cross"
        )),
    ));

    // The join-ordering workload, whose planner time CI gates.
    let (ordering_doc, ordering_program) = ordering_workload();
    let (ordering, _, ordering_secs) =
        executor_workload("join-ordering", &ordering_doc, &ordering_program, 3);

    // Re-execute every synthesized Table 2 program on its dataset.
    let mut datasets = Vec::new();
    for spec in all_datasets() {
        let Some(row) = sequential.iter().find(|r| r.name == spec.name) else {
            continue;
        };
        if row.programs.is_empty() {
            continue;
        }
        let (tree, _) = spec.generate(scale);
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
        let mut fields = vec![("dataset", s(spec.name)), ("tables", int(programs.len()))];
        fields.extend(table_fingerprint(&tables));
        fields.push(("planner_secs", num(planner_secs)));
        datasets.push(obj(fields));
    }

    eprintln!("bench_smoke: executor join-ordering workload {ordering_secs:.4}s");
    obj(vec![
        ("e3_motivating", obj(e3)),
        ("ordering", obj(ordering)),
        ("datasets", JsonValue::Array(datasets)),
    ])
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
