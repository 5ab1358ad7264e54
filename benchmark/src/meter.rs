//! Timing of one pass from outside the layers.
//!
//! Every call a workload makes into a layer goes through [`Meter::call`] (or
//! [`Meter::time`] when the layer's own report splits the time further): it
//! opens a `mitra_trace` span named after the layer — recorded only when the
//! trace mode is `full` — and adds the call's wall time to a bucket.  The
//! buckets of one pass tile its wall time; what they do not cover is the
//! unattributed share the traced run reports.

use crate::calibrate;
use mitra_migrate::MigrationReport;
use mitra_synth::synthesize::SynthProfile;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Where a slice of a pass's wall time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// Text → HDT parsing (`mitra-hdt` parsers).
    HdtParse,
    /// Building a document's tree index (`Hdt::ensure_index`).
    HdtIndex,
    /// Program synthesis (`learn_transformation`, or the synthesis wall a
    /// migration report returns).
    Synth,
    /// The corpus service's scan: parsing and fingerprinting every document
    /// and synthesizing once per shape (the scan wall a corpus report
    /// returns, which does not split further).
    CorpusScan,
    /// Program execution and key evaluation (the execution wall of a report).
    MigrateExecute,
    /// The rest of a migration or corpus run: constraint checks, plus shard
    /// assembly and artifact writes for corpus runs.
    MigrateConstraints,
    /// SQL dump (`dump_sql`).
    MigrateDumpSql,
    /// JS/XSLT generation (`mitra-codegen`).
    Codegen,
    /// The benchmark's own work: output checks, scratch-directory resets
    /// and speed calibration.
    Bench,
}

impl Bucket {
    pub const ALL: [Bucket; 9] = [
        Bucket::HdtParse,
        Bucket::HdtIndex,
        Bucket::Synth,
        Bucket::CorpusScan,
        Bucket::MigrateExecute,
        Bucket::MigrateConstraints,
        Bucket::MigrateDumpSql,
        Bucket::Codegen,
        Bucket::Bench,
    ];

    /// The layer (span category) the bucket belongs to.
    pub fn layer(self) -> &'static str {
        match self {
            Bucket::HdtParse | Bucket::HdtIndex => "hdt",
            Bucket::Synth => "synth",
            Bucket::CorpusScan
            | Bucket::MigrateExecute
            | Bucket::MigrateConstraints
            | Bucket::MigrateDumpSql => "migrate",
            Bucket::Codegen => "codegen",
            Bucket::Bench => "bench",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Bucket::HdtParse => "hdt.parse",
            Bucket::HdtIndex => "hdt.index",
            Bucket::Synth => "synth",
            Bucket::CorpusScan => "migrate.corpus_scan",
            Bucket::MigrateExecute => "migrate.execute",
            Bucket::MigrateConstraints => "migrate.constraints",
            Bucket::MigrateDumpSql => "migrate.dump_sql",
            Bucket::Codegen => "codegen.generate",
            Bucket::Bench => "bench",
        }
    }
}

/// Everything measured during one set-up or pass.
#[derive(Debug, Default)]
pub struct Meter {
    buckets: BTreeMap<Bucket, Duration>,
    /// Synthesis sub-phases summed over every profile the pass saw (worker
    /// time: under parallel synthesis they can exceed the synthesis wall).
    pub profile: SynthProfile,
    /// The steps: the work a user waits for, without the benchmark's checks.
    pub steps: Vec<Step>,
    /// Calibration points taken after the steps: when, and the kernel time
    /// in seconds.
    pub points: Vec<(Instant, f64)>,
    /// Work units completed (tasks, tables, elements or documents).
    pub items: u64,
    /// Operations attempted and failed (errors, panics, unexpected quarantines).
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differ from their reference.
    pub wrong: u64,
    /// Held-out outputs checked and those equal to their reference.
    pub heldout_checked: u64,
    pub heldout_ok: u64,
    /// Named work counts (per-layer metrics read from reports).
    pub counts: BTreeMap<&'static str, f64>,
    /// A few descriptions of wrong or failed outputs, for the log.
    pub problems: Vec<String>,
}

/// One timed step of a pass.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub start: Instant,
    pub raw: Duration,
    /// The operation the step is part of, if any.  An operation repeated
    /// every pass keeps its key; a one-off operation gets a key of its own.
    pub op: Option<u64>,
}

impl Meter {
    /// Runs one step of a set-up or a pass — work a user waits for, without
    /// the benchmark's checks — records its time and takes a calibration
    /// point after it; `op` names the operation the step is part of, if any.
    pub fn step<T>(&mut self, op: Option<u64>, f: impl FnOnce(&mut Meter) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.steps.push(Step {
            start,
            raw: start.elapsed(),
            op,
        });
        let at = Instant::now();
        let point = self.call(Bucket::Bench, "calibrate", calibrate::point);
        self.points.push((at, point));
        out
    }

    /// Total raw time of the steps.
    pub fn raw_wall(&self) -> Duration {
        self.steps.iter().map(|s| s.raw).sum()
    }

    /// Times a call into a layer and books it to `bucket`.
    pub fn call<T>(&mut self, bucket: Bucket, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, elapsed) = self.time(bucket.layer(), name, f);
        self.add(bucket, elapsed);
        out
    }

    /// Times a call inside a span without booking it; the caller books the
    /// parts the layer's report breaks it into.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let _span = mitra_trace::span(layer, name);
        let start = Instant::now();
        let out = f();
        (out, start.elapsed())
    }

    /// Runs the benchmark's own checking work, booked to [`Bucket::Bench`].
    pub fn checked<T>(&mut self, f: impl FnOnce(&mut Meter) -> T) -> T {
        let _span = mitra_trace::span("bench", "check");
        let start = Instant::now();
        let out = f(self);
        self.add(Bucket::Bench, start.elapsed());
        out
    }

    pub fn add(&mut self, bucket: Bucket, elapsed: Duration) {
        *self.buckets.entry(bucket).or_default() += elapsed;
    }

    pub fn bucket(&self, bucket: Bucket) -> Duration {
        self.buckets.get(&bucket).copied().unwrap_or_default()
    }

    /// Adds to a named count.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Books a `MigrationPlan::run` that took `total` from its report's walls:
    /// synthesis, execution, and the remainder (constraint checks).
    pub fn book_migration(&mut self, total: Duration, report: &MigrationReport) {
        let synth = report.synthesis_wall.min(total);
        let exec = report.execution_wall.min(total - synth);
        self.add(Bucket::Synth, synth);
        self.add(Bucket::MigrateExecute, exec);
        self.add(Bucket::MigrateConstraints, total - synth - exec);
        self.profile.merge(&report.synthesis_profile());
        self.count("migrate.rows", report.total_rows() as f64);
        self.count("migrate.violations", report.violations as f64);
        for t in &report.tables {
            self.count(
                "synth.join_steps.interval",
                t.exec_stats.interval_join_steps as f64,
            );
            self.count("synth.join_steps.hash", t.exec_stats.hash_join_steps as f64);
            self.count(
                "synth.join_steps.cross",
                t.exec_stats.cross_product_steps as f64,
            );
            self.count("exec.tuples", t.exec_stats.tuples_considered as f64);
            self.count("exec.rows", t.exec_stats.rows_emitted as f64);
        }
    }

    /// Records a wrong or failed output.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Folds another pass's measurements into this one.
    pub fn merge(&mut self, other: &Meter) {
        for (&b, &d) in &other.buckets {
            self.add(b, d);
        }
        self.profile.merge(&other.profile);
        self.steps.extend_from_slice(&other.steps);
        self.points.extend_from_slice(&other.points);
        self.items += other.items;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.heldout_checked += other.heldout_checked;
        self.heldout_ok += other.heldout_ok;
        for (&k, &v) in &other.counts {
            self.count(k, v);
        }
        for p in &other.problems {
            self.problem(p.clone());
        }
    }
}
