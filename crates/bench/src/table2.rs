//! Shared measurement for the Table 2 harness (full-database migration of the four
//! dataset simulators), used by the `table2` binary, its `--json` mode and the
//! `bench_smoke` baseline writer.

use crate::json::{int, num, obj, s, JsonValue};
use crate::{execution_to_json, metrics_to_json, profile_to_json};
use mitra_datagen::datasets::{all_datasets, DatasetSpec};
use mitra_synth::budget::Budget;
use mitra_synth::synthesize::SynthProfile;
use mitra_trace::MetricsSnapshot;
use std::time::Duration;

/// One dataset's migration measurement (one row of Table 2).
#[derive(Debug, Clone)]
pub struct MigrationRow {
    /// Dataset name (dblp, imdb, mondial, yelp).
    pub name: String,
    /// Input format (XML/JSON).
    pub format: String,
    /// Internal elements in the execution document.
    pub elements: usize,
    /// Tables in the target schema.
    pub tables: usize,
    /// Total columns across tables.
    pub columns: usize,
    /// Wall-clock time of the synthesis phase in seconds.  With one worker this
    /// equals the per-table sum; with several it is what the user actually waits.
    pub synth_total_secs: f64,
    /// Sum of per-table synthesis times in seconds (CPU-ish time; overlaps under
    /// parallelism, so it can exceed `synth_total_secs`).
    pub synth_cpu_secs: f64,
    /// Rows migrated across all tables.
    pub rows: usize,
    /// Total execution time in seconds.
    pub exec_total_secs: f64,
    /// Constraint violations in the migrated database (0 on success).
    pub violations: usize,
    /// Worker threads the migration plan was run with (after resolution).
    pub threads: usize,
    /// Pretty-printed synthesized programs in table order — not serialized; used by
    /// `bench_smoke` to assert thread-count determinism.
    pub programs: Vec<String>,
    /// Field-wise sum of the per-table synthesis profiles.
    pub profile: SynthProfile,
    /// Per-table execution breakdown (wall, chunk fan-out, tuple counts), as
    /// rendered by [`execution_to_json`].
    pub execution: JsonValue,
    /// Metrics recorded during this dataset's run (a [`MetricsSnapshot::delta`]
    /// against the registry state just before it): cache hit/miss/insert counters,
    /// frontier-depth histograms, per-worker pool utilization.  Empty when the
    /// trace mode is `off`.
    pub metrics: MetricsSnapshot,
    /// Error message when the migration failed outright.
    pub error: Option<String>,
}

/// Runs every dataset simulator's migration plan at the given scale, on the
/// process-global thread count.
pub fn run_table2(scale: usize) -> Vec<MigrationRow> {
    run_table2_with(scale, 0)
}

/// Runs every dataset simulator's migration plan at the given scale and worker
/// thread count (`0` = the process-global setting, `1` = sequential).
pub fn run_table2_with(scale: usize, threads: usize) -> Vec<MigrationRow> {
    let resolved = mitra_pool::resolve(threads);
    all_datasets()
        .into_iter()
        .map(|spec| run_dataset_row(&spec, scale, resolved, Budget::UNLIMITED))
        .collect()
}

/// Runs a single dataset's migration plan by (case-insensitive) name — the
/// overhead-measurement and trace-artifact paths of `bench_smoke` use this to
/// re-run MONDIAL alone instead of the whole suite.
pub fn run_single_dataset(name: &str, scale: usize, threads: usize) -> Option<MigrationRow> {
    run_single_dataset_budgeted(name, scale, threads, Budget::UNLIMITED)
}

/// Like [`run_single_dataset`] but under an explicit fuel budget — the
/// budget-overhead gate runs MONDIAL with a generous (never-binding) budget and
/// compares against the unlimited run to price the budget checks themselves.
pub fn run_single_dataset_budgeted(
    name: &str,
    scale: usize,
    threads: usize,
    budget: Budget,
) -> Option<MigrationRow> {
    let resolved = mitra_pool::resolve(threads);
    all_datasets()
        .into_iter()
        .find(|spec| spec.name.eq_ignore_ascii_case(name))
        .map(|spec| run_dataset_row(&spec, scale, resolved, budget))
}

fn run_dataset_row(
    spec: &DatasetSpec,
    scale: usize,
    resolved: usize,
    budget: Budget,
) -> MigrationRow {
    let mut plan = spec.migration_plan();
    plan.synth_config.threads = resolved;
    plan.synth_config.budget = budget;
    // Measure complete synthesis: a wall-clock timeout firing mid-search
    // would change *which candidates get examined* depending on machine
    // speed and thread count, making both the timing columns and the
    // cross-thread-count determinism check meaningless on slow runners.
    plan.synth_config.timeout = None;
    let (document, _expected) = spec.generate(scale);
    let elements = document.ids().filter(|id| !document.is_leaf(*id)).count();
    // The registry is process-global and cumulative; the delta against this
    // snapshot attributes metrics to this dataset's run alone.
    let metrics_before = mitra_trace::snapshot();
    match plan.run(&document) {
        Ok(report) => MigrationRow {
            name: spec.name.to_string(),
            format: spec.format.to_string(),
            elements,
            tables: spec.table_count(),
            columns: spec.schema().total_columns(),
            synth_total_secs: report.synthesis_wall.as_secs_f64(),
            synth_cpu_secs: report.total_synthesis_time().as_secs_f64(),
            rows: report.total_rows(),
            exec_total_secs: report.total_execution_time().as_secs_f64(),
            violations: report.violations,
            threads: resolved,
            programs: report.programs().into_iter().map(str::to_string).collect(),
            profile: report.synthesis_profile(),
            execution: execution_to_json(report.execution_wall, &report.tables),
            metrics: mitra_trace::snapshot().delta(&metrics_before),
            error: None,
        },
        Err(e) => MigrationRow {
            name: spec.name.to_string(),
            format: spec.format.to_string(),
            elements,
            tables: spec.table_count(),
            columns: spec.schema().total_columns(),
            synth_total_secs: 0.0,
            synth_cpu_secs: 0.0,
            rows: 0,
            exec_total_secs: 0.0,
            violations: 0,
            threads: resolved,
            programs: Vec::new(),
            profile: SynthProfile::default(),
            execution: execution_to_json(Duration::ZERO, &[]),
            metrics: mitra_trace::snapshot().delta(&metrics_before),
            error: Some(e.to_string()),
        },
    }
}

/// The rows as a JSON array value (insertion-ordered fields).
pub fn rows_to_json_value(rows: &[MigrationRow]) -> JsonValue {
    JsonValue::Array(
        rows.iter()
            .map(|r| {
                let mut fields = vec![
                    ("name", s(&r.name)),
                    ("format", s(&r.format)),
                    ("elements", int(r.elements)),
                    ("tables", int(r.tables)),
                    ("columns", int(r.columns)),
                    ("synth_total_secs", num(r.synth_total_secs)),
                    ("synth_cpu_secs", num(r.synth_cpu_secs)),
                    ("rows", int(r.rows)),
                    ("exec_total_secs", num(r.exec_total_secs)),
                    ("violations", int(r.violations)),
                    ("threads", int(r.threads)),
                    ("profile", profile_to_json(&r.profile)),
                    ("execution", r.execution.clone()),
                    ("metrics", metrics_to_json(&r.metrics)),
                ];
                if let Some(e) = &r.error {
                    fields.push(("error", s(e)));
                }
                obj(fields)
            })
            .collect(),
    )
}

/// The rows as compact JSON text.
pub fn rows_to_json(rows: &[MigrationRow]) -> String {
    rows_to_json_value(rows).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_migrate::{TableOutcome, TableReport};
    use mitra_synth::exec::ExecStats;

    // End-to-end `run_table2` is exercised by the release binaries (`table2`,
    // `bench_smoke`) and the CI bench-smoke job; running dataset synthesis under the
    // debug profile is far too slow for the unit suite, so only the serialization is
    // tested here.
    #[test]
    fn rows_serialize_with_stable_fields() {
        let rows = vec![
            MigrationRow {
                name: "dblp".into(),
                format: "XML".into(),
                elements: 276,
                tables: 9,
                columns: 39,
                synth_total_secs: 3.5,
                synth_cpu_secs: 3.5,
                rows: 275,
                exec_total_secs: 0.001,
                violations: 0,
                threads: 1,
                programs: vec!["filter(...)".into()],
                profile: SynthProfile::default(),
                execution: execution_to_json(
                    Duration::from_millis(1),
                    &[TableReport {
                        table: "person".into(),
                        outcome: TableOutcome::Ok,
                        synthesis_time: Duration::ZERO,
                        execution_time: Duration::from_millis(1),
                        rows: 275,
                        program: String::new(),
                        profile: None,
                        exec_stats: ExecStats {
                            chunks: 1,
                            tuples_considered: 300,
                            rows_emitted: 275,
                            hash_join_steps: 1,
                            ..Default::default()
                        },
                    }],
                ),
                metrics: MetricsSnapshot::default(),
                error: None,
            },
            MigrationRow {
                name: "broken".into(),
                format: "JSON".into(),
                elements: 0,
                tables: 1,
                columns: 2,
                synth_total_secs: 0.0,
                synth_cpu_secs: 0.0,
                rows: 0,
                exec_total_secs: 0.0,
                violations: 0,
                threads: 1,
                programs: Vec::new(),
                profile: SynthProfile::default(),
                execution: execution_to_json(Duration::ZERO, &[]),
                metrics: MetricsSnapshot::default(),
                error: Some("synthesis failed".into()),
            },
        ];
        let json = rows_to_json(&rows);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\":\"dblp\""));
        assert!(json.contains("\"rows\":275"));
        assert!(json.contains("\"threads\":1"));
        assert!(json.contains("\"synth_cpu_secs\":3.5"));
        assert!(json.contains("\"profile\":{\"dfa_build_secs\":0"));
        assert!(json.contains("\"candidates_pruned\":0"));
        // The execution profile and metrics block ride along in every row.
        assert!(json.contains("\"execution\":{\"wall_secs\":0.001"));
        assert!(json.contains("\"table\":\"person\""));
        assert!(json.contains("\"chunks\":1"));
        assert!(json.contains("\"tuples_considered\":300"));
        assert!(json.contains("\"metrics\":{\"counters\":{}"));
        assert!(json.contains("\"error\":\"synthesis failed\""));
        // Programs are an in-process determinism probe, not part of the JSON.
        assert!(!json.contains("filter(...)"));
        // The emitted document round-trips through the hdt parser.
        assert_eq!(
            mitra_hdt::parse_json(&json).expect("valid JSON"),
            rows_to_json_value(&rows)
        );
    }
}
