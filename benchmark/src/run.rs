//! One benchmark run: set-up, timed passes, checks, metrics, result line.

use crate::calibrate;
use crate::json::Json;
use crate::meter::{Bucket, Meter};
use crate::stats::{median, tail};
use crate::sys;
use crate::workloads::{self, Info};
use mitra_trace::{MetricsSnapshot, TraceMode};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Appends the stamped result as one JSON line.
    pub out: Option<PathBuf>,
    /// Where a traced run writes `<workload>.trace.json`.
    pub trace_dir: PathBuf,
}

/// The benchmark package directory (holds `out/`, the scratch root).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct PassRecord {
    elapsed: Duration,
    meter: Meter,
    traced: bool,
    metrics: MetricsSnapshot,
    /// Wall time of the pass's steps (the pass without the benchmark's own
    /// checks) at the reference speed.
    scaled_wall: f64,
}

impl PassRecord {
    /// Wall time of the pass's steps, raw.
    fn wall(&self) -> f64 {
        self.meter.raw_wall().as_secs_f64()
    }
}

/// A metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs one workload and prints its metrics; the last stdout line is the
/// result object.
pub fn run(args: &Args) -> Result<(), String> {
    let info = workloads::info(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    // End-to-end numbers are measured with tracing off; a traced run turns it
    // on only for its traced passes.
    mitra_trace::set_mode(TraceMode::Off);
    // Fan-outs that resolve their thread count from the process (execution's
    // chunked filtering, plans without an explicit count) get the same one.
    mitra_pool::set_threads(workloads::THREADS);
    let out_dir = package_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut workload = workloads::create(&args.workload, args.seed, &out_dir)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;

    // Calibration points follow every step of a set-up or a pass; once the
    // run is over, each step is scaled by the points near it.
    let mut points = vec![(Instant::now(), calibrate::point())];
    let mut setups: Vec<Meter> = Vec::new();
    for _ in 0..info.setups {
        let mut meter = Meter::default();
        workload.setup(&mut meter);
        points.extend_from_slice(&meter.points);
        setups.push(meter);
    }

    // Closed loop: passes back to back until the measured time is used up.
    // A traced run alternates untraced and traced passes, so the overhead
    // compares passes measured under the same conditions.
    let min_passes = if args.trace { 2 } else { 1 };
    let mut passes: Vec<PassRecord> = Vec::new();
    let mut measured = Duration::ZERO;
    while passes.len() < min_passes || measured.as_secs_f64() < args.seconds {
        let traced = args.trace && passes.len() % 2 == 1;
        if traced {
            mitra_trace::set_mode(TraceMode::Full);
        }
        let before = mitra_trace::snapshot();
        let mut meter = Meter::default();
        let start = Instant::now();
        workload.pass(&mut meter);
        let elapsed = start.elapsed();
        let metrics = mitra_trace::snapshot().delta(&before);
        mitra_trace::set_mode(TraceMode::Off);
        measured += elapsed;
        points.extend_from_slice(&meter.points);
        passes.push(PassRecord {
            elapsed,
            meter,
            traced,
            metrics,
            scaled_wall: 0.0,
        });
    }

    let timeline = calibrate::Timeline::new(points.clone());
    let scaled =
        |start: Instant, raw: Duration| raw.as_secs_f64() * timeline.scale(start, start + raw);
    let scaled_wall = |m: &Meter| m.steps.iter().map(|s| scaled(s.start, s.raw)).sum::<f64>();
    let setup_walls: Vec<f64> = setups.iter().map(scaled_wall).collect();
    // An operation may take several steps; its latency in a pass is theirs
    // summed.
    let mut op_samples: Vec<(u64, f64)> = Vec::new();
    for p in &mut passes {
        p.scaled_wall = scaled_wall(&p.meter);
        let mut by_op: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in &p.meter.steps {
            if let Some(key) = s.op {
                *by_op.entry(key).or_default() += scaled(s.start, s.raw);
            }
        }
        op_samples.extend(by_op);
    }

    let mut total = Meter::default();
    for p in &passes {
        total.merge(&p.meter);
    }
    let correct = total.wrong == 0 && total.failed == 0 && total.attempted > 0;
    for problem in &total.problems {
        eprintln!("problem: {problem}");
    }

    let ops = op_latencies(&op_samples);
    let op_tail = tail(&ops);
    let traced = Traced::of(&passes);
    let metrics = if args.trace {
        per_layer(&passes, &traced)
    } else {
        end_to_end(&passes, &setup_walls, &total, &ops)
    };

    let stamp = stamp(args, &info, workload.scratch());
    let detail = Json::obj([
        ("passes", Json::Num(passes.len() as f64)),
        ("setups", Json::Num(setups.len() as f64)),
        ("operation", Json::str(info.op)),
        ("operations", Json::Num(ops.len() as f64)),
        ("tail_percentile", Json::Num(f64::from(op_tail.percentile))),
        ("item", Json::str(info.item)),
        ("items", Json::Num(total.items as f64)),
        ("wrong", Json::Num(total.wrong as f64)),
        ("heldout_checked", Json::Num(total.heldout_checked as f64)),
        ("heldout_ok", Json::Num(total.heldout_ok as f64)),
        (
            "calibration_ms",
            Json::Num(median(&points.iter().map(|&(_, v)| v).collect::<Vec<_>>()) * 1e3),
        ),
        (
            "raw_setup_s",
            Json::Num(median(
                &setups
                    .iter()
                    .map(|m| m.raw_wall().as_secs_f64())
                    .collect::<Vec<_>>(),
            )),
        ),
        (
            "raw_wall_s",
            Json::Num(median(
                &passes.iter().map(PassRecord::wall).collect::<Vec<_>>(),
            )),
        ),
    ]);

    println!(
        "{} seed {}: {} passes, {} operations ({}), {} thread(s), {} set-ups",
        info.name,
        args.seed,
        passes.len(),
        ops.len(),
        info.op,
        workloads::THREADS,
        setups.len()
    );
    for m in &metrics {
        println!(
            "  {:<40} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    if !args.trace {
        println!(
            "  (latency_tail_ms is p{} of {} operations)",
            op_tail.percentile,
            ops.len()
        );
    }

    if args.trace {
        write_trace(args, &info, &traced, &metrics, &stamp)?;
    }

    let metrics_json = metrics_json(&metrics);
    if let Some(path) = &args.out {
        let line = Json::obj([
            ("workload", Json::str(info.name)),
            ("trace", Json::Bool(args.trace)),
            ("stamp", stamp),
            ("detail", detail),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(total.attempted as f64)),
            ("failed", Json::Num(total.failed as f64)),
            ("metrics", metrics_json.clone()),
        ]);
        append_line(path, &line.render())?;
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(total.attempted as f64)),
            ("failed", Json::Num(total.failed as f64)),
            ("metrics", metrics_json),
        ])
        .render()
    );
    Ok(())
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// The metrics a user of the system sees, from the untraced passes, with
/// every timing at the reference speed.
fn end_to_end(passes: &[PassRecord], setups: &[f64], total: &Meter, ops: &[f64]) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| p.scaled_wall).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| ratio(p.meter.items as f64, p.scaled_wall))
        .collect();
    vec![
        metric("setup_s", median(setups), "s"),
        metric("wall_s", median(&walls), "s"),
        metric("latency_p50_ms", median(ops) * 1e3, "ms"),
        metric("latency_tail_ms", tail(ops).value * 1e3, "ms"),
        metric("items_per_s", median(&rates), "1/s"),
        metric(
            "heldout_ok_frac",
            ratio(total.heldout_ok as f64, total.heldout_checked as f64),
            "frac",
        ),
        metric("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
    ]
}

/// One latency per distinct operation, at the reference speed: the median
/// of its samples.  A task that every pass repeats counts once, so the
/// percentiles fall on specific operations instead of on the boundary
/// between two of them.
fn op_latencies(ops: &[(u64, f64)]) -> Vec<f64> {
    let mut by_key: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(key, seconds) in ops {
        by_key.entry(key).or_default().push(seconds);
    }
    by_key.values().map(|samples| median(samples)).collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced passes of a run, merged.
struct Traced<'a> {
    passes: Vec<&'a PassRecord>,
    meter: Meter,
    /// Their wall time, checks and calibration included.
    elapsed: f64,
}

impl<'a> Traced<'a> {
    fn of(passes: &'a [PassRecord]) -> Traced<'a> {
        let passes: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
        let mut meter = Meter::default();
        for p in &passes {
            meter.merge(&p.meter);
        }
        let elapsed = passes.iter().map(|p| p.elapsed.as_secs_f64()).sum();
        Traced {
            passes,
            meter,
            elapsed,
        }
    }

    /// The share of the traced wall time no bucket accounts for.
    fn unattributed(&self) -> f64 {
        let attributed: f64 = Bucket::ALL
            .iter()
            .map(|&b| self.meter.bucket(b).as_secs_f64())
            .sum();
        1.0 - ratio(attributed, self.elapsed)
    }
}

/// The metrics of single layers, from the traced passes.
fn per_layer(passes: &[PassRecord], traced: &Traced) -> Vec<Metric> {
    let n = traced.passes.len() as f64;
    let m = &traced.meter;
    let elapsed = traced.elapsed;
    let counter = |name: &str| {
        traced
            .passes
            .iter()
            .map(|p| p.metrics.counter(name) as f64)
            .sum::<f64>()
    };
    let counters_with = |suffix: &str| {
        traced
            .passes
            .iter()
            .flat_map(|p| p.metrics.counters.iter())
            .filter(|(name, _)| {
                name.starts_with("cache.")
                    && !name.starts_with("cache.shape_programs")
                    && name.ends_with(suffix)
            })
            .map(|&(_, v)| v as f64)
            .sum::<f64>()
    };
    let workers = || traced.passes.iter().flat_map(|p| p.metrics.workers.iter());
    let busy: f64 = workers().map(|w| w.busy_ns as f64 / 1e9).sum();
    let idle: f64 = workers().map(|w| w.idle_ns as f64 / 1e9).sum();
    let share = |b: Bucket| ratio(m.bucket(b).as_secs_f64(), elapsed);
    let phase = |d: Duration| ratio(d.as_secs_f64(), elapsed);
    let count = |name: &str| m.counts.get(name).copied().unwrap_or(0.0);
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.scaled_wall)
        .collect();
    let traced_walls: Vec<f64> = traced.passes.iter().map(|p| p.scaled_wall).collect();
    let hits = counters_with(".hit");
    let misses = counters_with(".miss");

    vec![
        metric("hdt.parse_frac", share(Bucket::HdtParse), "frac"),
        metric("hdt.index_frac", share(Bucket::HdtIndex), "frac"),
        metric(
            "hdt.parse_mb_per_s",
            ratio(
                count("hdt.bytes") / 1e6,
                m.bucket(Bucket::HdtParse).as_secs_f64(),
            ),
            "MB/s",
        ),
        metric(
            "hdt.nodes",
            (counter("ingest.xml.nodes")
                + counter("ingest.json.nodes")
                + counter("ingest.html.nodes"))
                / n,
            "count",
        ),
        metric("synth.frac", share(Bucket::Synth), "frac"),
        metric("synth.dfa_build_frac", phase(m.profile.dfa_build), "frac"),
        metric(
            "synth.dfa_enumerate_frac",
            phase(m.profile.dfa_enumerate),
            "frac",
        ),
        metric(
            "synth.predicate_learn_frac",
            phase(m.profile.predicate_learn),
            "frac",
        ),
        metric("synth.validate_frac", phase(m.profile.validate), "frac"),
        metric(
            "synth.candidates_examined",
            counter("synth.candidates.examined") / n,
            "count",
        ),
        metric(
            "synth.candidates_pruned",
            counter("synth.candidates.pruned") / n,
            "count",
        ),
        metric("synth.cache_hit_frac", ratio(hits, hits + misses), "frac"),
        metric(
            "synth.exec_tuples_per_row",
            ratio(count("exec.tuples"), count("exec.rows")),
            "ratio",
        ),
        metric(
            "synth.join_steps.interval",
            count("synth.join_steps.interval") / n,
            "count",
        ),
        metric(
            "synth.join_steps.hash",
            count("synth.join_steps.hash") / n,
            "count",
        ),
        metric(
            "synth.join_steps.cross",
            count("synth.join_steps.cross") / n,
            "count",
        ),
        metric(
            "migrate.corpus_scan_frac",
            share(Bucket::CorpusScan),
            "frac",
        ),
        metric(
            "migrate.execute_frac",
            share(Bucket::MigrateExecute),
            "frac",
        ),
        metric(
            "migrate.constraints_frac",
            share(Bucket::MigrateConstraints),
            "frac",
        ),
        metric(
            "migrate.dump_sql_frac",
            share(Bucket::MigrateDumpSql),
            "frac",
        ),
        metric("migrate.rows", count("migrate.rows") / n, "count"),
        metric(
            "migrate.violations",
            count("migrate.violations") / n,
            "count",
        ),
        metric(
            "migrate.sql_bytes_per_input_byte",
            ratio(count("migrate.sql_bytes"), count("migrate.input_bytes")),
            "ratio",
        ),
        metric(
            "migrate.corpus.programs_synthesized",
            count("migrate.corpus.programs_synthesized") / n,
            "count",
        ),
        metric(
            "migrate.corpus.quarantined",
            count("migrate.corpus.quarantined") / n,
            "count",
        ),
        metric(
            "migrate.corpus.shards",
            count("migrate.corpus.shards") / n,
            "count",
        ),
        metric(
            "migrate.corpus.bytes_written_per_input_byte",
            ratio(
                count("migrate.corpus.bytes_written"),
                count("migrate.input_bytes"),
            ),
            "ratio",
        ),
        metric("codegen.frac", share(Bucket::Codegen), "frac"),
        metric("codegen.loc", count("codegen.loc") / n, "count"),
        metric("pool.busy_frac", ratio(busy, elapsed), "frac"),
        metric("pool.idle_frac", ratio(idle, elapsed), "frac"),
        metric("pool.utilization", ratio(busy, busy + idle), "frac"),
        metric(
            "pool.spawned",
            counter("pool.parallel_map.spawned") / n,
            "count",
        ),
        metric("bench.frac", share(Bucket::Bench), "frac"),
        metric("trace.unattributed_frac", traced.unattributed(), "frac"),
        metric(
            "trace.overhead_frac",
            ratio(median(&traced_walls), median(&untraced)) - 1.0,
            "frac",
        ),
    ]
}

fn stamp(args: &Args, info: &Info, scratch: Option<String>) -> Json {
    let root = package_dir().parent().unwrap_or(package_dir());
    Json::obj([
        ("workload", Json::str(info.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("git_rev", Json::str(sys::git_rev(root))),
        ("rustc", Json::str(sys::rustc_version())),
        (
            "available_parallelism",
            Json::Num(sys::available_parallelism() as f64),
        ),
        ("threads", Json::Num(workloads::THREADS as f64)),
        ("corpus_scratch", scratch.map_or(Json::Null, Json::Str)),
        (
            "flush_policy",
            Json::str(
                "fsync calls unchanged (one per journal record); corpus scratch lives under \
                 benchmark/out on the checkout's own filesystem",
            ),
        ),
        (
            "trace_mode",
            Json::str(if args.trace {
                "full on traced passes"
            } else {
                "off"
            }),
        ),
    ])
}

/// Writes `<trace_dir>/<workload>.trace.json`: the Chrome trace of the traced
/// passes, with the self-time table and per-layer metrics under `otherData`.
fn write_trace(
    args: &Args,
    info: &Info,
    traced: &Traced,
    metrics: &[Metric],
    stamp: &Json,
) -> Result<(), String> {
    let elapsed = traced.elapsed;
    println!(
        "  self time over {} traced passes ({elapsed:.6} s):",
        traced.passes.len()
    );
    let mut rows = Vec::new();
    for b in Bucket::ALL {
        let s = traced.meter.bucket(b).as_secs_f64();
        println!(
            "    {:<24} {:>12.6} s {:>7.2}%",
            b.name(),
            s,
            100.0 * ratio(s, elapsed)
        );
        rows.push(Json::obj([
            ("layer", Json::str(b.name())),
            ("self_s", Json::Num(s)),
            ("share", Json::Num(ratio(s, elapsed))),
        ]));
    }
    let unattributed = traced.unattributed();
    let flagged = unattributed > 0.05;
    if flagged {
        println!(
            "  UNEXPLAINED TIME: {:.2}% of the traced wall is outside every layer span",
            100.0 * unattributed
        );
    }

    let events = mitra_trace::take_events();
    let chrome = mitra_trace::export::chrome_trace(&events);
    let other = Json::obj([
        ("stamp", stamp.clone()),
        ("traced_passes", Json::Num(traced.passes.len() as f64)),
        ("traced_elapsed_s", Json::Num(elapsed)),
        ("self_time", Json::Arr(rows)),
        ("unattributed_over_5pct", Json::Bool(flagged)),
        ("per_layer", metrics_json(metrics)),
    ]);
    // `chrome_trace` renders one object; add `otherData`, the trace-event
    // format's slot for metadata, before its closing brace.
    let body = chrome.strip_suffix('}').unwrap_or(&chrome);
    let text = format!("{body},\"otherData\":{}}}\n", other.render());
    std::fs::create_dir_all(&args.trace_dir)
        .map_err(|e| format!("{}: {e}", args.trace_dir.display()))?;
    let path = args.trace_dir.join(format!("{}.trace.json", info.name));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  trace written to {}", path.display());
    Ok(())
}
