//! Full-database migration orchestration (Section 6).
//!
//! A [`MigrationPlan`] describes, for every table of the target schema, how its data
//! columns are produced (either a DSL program given directly or input–output examples
//! from which one is synthesized) and how its key columns are produced (via
//! [`KeySpec`]s).  Running the plan against a document yields a populated [`Database`]
//! together with per-table statistics (synthesis time, execution time, row counts) —
//! the numbers reported in Table 2 of the paper.

use crate::database::Database;
use crate::keys::{eval_key, KeySpec};
use crate::schema::{Schema, TableSchema};
use mitra_dsl::eval::node_value;
use mitra_dsl::{pretty, Program, Row, Table, Value};
use mitra_hdt::json::json_string;
use mitra_hdt::Hdt;
use mitra_synth::budget::{BudgetBreach, BudgetExhausted};
use mitra_synth::exec::{execute_nodes_budgeted, ExecStats};
use mitra_synth::synthesize::{
    learn_transformation, Example, SynthConfig, SynthError, SynthProfile,
};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// How the data columns of one target table are obtained.
#[derive(Debug, Clone)]
pub enum TableSource {
    /// A DSL program is already known (e.g. written by hand or previously synthesized).
    Program(Program),
    /// Input–output examples from which the program must be synthesized.
    Examples(Vec<Example>),
}

/// Description of how to populate one table of the target schema.
#[derive(Debug, Clone)]
pub struct TableTask {
    /// Name of the target table (must exist in the schema).
    pub table: String,
    /// Where the data columns come from.
    pub source: TableSource,
    /// For each *key* column of the table (columns not produced by the program), the
    /// key specification, in schema-column order: entries are `(column name, spec)`.
    pub keys: Vec<(String, KeySpec)>,
    /// The schema columns (by name, in order) that the program's output columns map to.
    pub data_columns: Vec<String>,
}

/// A full migration plan: the target schema plus one task per table.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// The target relational schema.
    pub schema: Schema,
    /// Per-table population tasks.
    pub tasks: Vec<TableTask>,
    /// Synthesis configuration used for example-based tasks.
    pub synth_config: SynthConfig,
    /// Abort on the first failing table (`Err` from [`MigrationPlan::run`])
    /// instead of degrading to a partial report.  Plan-level problems — an
    /// invalid schema, a task naming an unknown table or column — abort in
    /// either mode; `strict` only governs per-table synthesis/execution
    /// failures.
    pub strict: bool,
}

/// What became of one table of a (non-strict) migration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableOutcome {
    /// The table synthesized, executed and populated normally.
    Ok,
    /// A deterministic fuel budget ran out for this table (during synthesis or
    /// execution); the payload carries the breach and partial work profile.
    BudgetExhausted(BudgetExhausted),
    /// Synthesis or execution failed (including a caught worker panic).
    Failed(MigrationError),
    /// The table was not attempted: one of its foreign keys references a table
    /// that did not populate, so its rows could only dangle.
    Skipped {
        /// Human-readable reason (names the failed referenced table).
        reason: String,
    },
}

impl TableOutcome {
    /// True for [`TableOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, TableOutcome::Ok)
    }

    /// Stable lowercase label (`ok` / `budget-exhausted` / `failed` / `skipped`)
    /// for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            TableOutcome::Ok => "ok",
            TableOutcome::BudgetExhausted(_) => "budget-exhausted",
            TableOutcome::Failed(_) => "failed",
            TableOutcome::Skipped { .. } => "skipped",
        }
    }
}

impl fmt::Display for TableOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableOutcome::Ok => f.write_str("ok"),
            TableOutcome::BudgetExhausted(e) => write!(f, "budget exhausted: {e}"),
            TableOutcome::Failed(e) => write!(f, "failed: {e}"),
            TableOutcome::Skipped { reason } => write!(f, "skipped: {reason}"),
        }
    }
}

/// Per-table migration statistics.
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table name.
    pub table: String,
    /// What became of the table.  Non-`Ok` tables report zero rows, an empty
    /// program (unless synthesis succeeded and execution failed) and default
    /// execution stats.
    pub outcome: TableOutcome,
    /// Time spent synthesizing the program (zero when a program was supplied).
    /// With a parallel plan this is the table's own wall time on its worker;
    /// per-table times overlap and may sum to more than the phase wall clock.
    pub synthesis_time: Duration,
    /// Time spent executing the program and generating keys.
    pub execution_time: Duration,
    /// Rows produced.
    pub rows: usize,
    /// The program that populated the table, pretty-printed.  Thread-count
    /// determinism checks compare this text across runs.
    pub program: String,
    /// Per-phase synthesis profile (`None` when a program was supplied directly).
    pub profile: Option<SynthProfile>,
    /// Execution-engine statistics for this table (tuples considered before the
    /// residual check, rows emitted, join steps by method).
    pub exec_stats: ExecStats,
}

/// The result of running a migration plan.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Populated database.
    pub database: Database,
    /// Per-table statistics.
    pub tables: Vec<TableReport>,
    /// Constraint violations found in the final database (empty on success).
    pub violations: usize,
    /// Wall-clock time of the synthesis phase (all tables, including fan-out).
    pub synthesis_wall: Duration,
    /// Wall-clock time of the execution phase (all tables).
    pub execution_wall: Duration,
}

impl MigrationReport {
    /// Total synthesis time across tables (sum of per-table worker times; see
    /// [`MigrationReport::synthesis_wall`] for the elapsed wall clock).
    pub fn total_synthesis_time(&self) -> Duration {
        self.tables.iter().map(|t| t.synthesis_time).sum()
    }

    /// Total execution time across tables.
    pub fn total_execution_time(&self) -> Duration {
        self.tables.iter().map(|t| t.execution_time).sum()
    }

    /// Total rows across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// The pretty-printed programs of every table, in task order.  Two runs of the
    /// same plan — at any two thread counts — must produce equal vectors.
    pub fn programs(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.program.as_str()).collect()
    }

    /// Field-wise sum of the per-table synthesis profiles (tables whose program was
    /// supplied directly contribute nothing).
    pub fn synthesis_profile(&self) -> SynthProfile {
        let mut total = SynthProfile::default();
        for t in &self.tables {
            if let Some(p) = &t.profile {
                total.merge(p);
            }
        }
        total
    }

    /// Counts per-table outcomes — the degradation matrix of a non-strict run.
    pub fn degradation(&self) -> DegradationSummary {
        let mut d = DegradationSummary::default();
        for t in &self.tables {
            match &t.outcome {
                TableOutcome::Ok => d.ok += 1,
                TableOutcome::BudgetExhausted(_) => d.budget_exhausted += 1,
                TableOutcome::Failed(_) => d.failed += 1,
                TableOutcome::Skipped { .. } => d.skipped += 1,
            }
        }
        d
    }

    /// True when at least one table did not populate normally.
    pub fn is_degraded(&self) -> bool {
        self.tables.iter().any(|t| !t.outcome.is_ok())
    }

    /// True when *no* table populated — the only degraded state that maps to a
    /// nonzero CLI/bench exit code.
    pub fn all_failed(&self) -> bool {
        !self.tables.is_empty() && self.tables.iter().all(|t| !t.outcome.is_ok())
    }

    /// A deterministic one-object JSON rendering of the degradation state: the
    /// outcome counts plus a per-table `[name, outcome-label, detail]` list in
    /// task order.  Built by hand — the migrate crate deliberately has no JSON
    /// dependency — and containing no wall-clock fields, so two runs of the same
    /// plan at any two thread counts render byte-identical summaries.
    pub fn summary_json(&self) -> String {
        let d = self.degradation();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"ok\": {}, \"budget_exhausted\": {}, \"failed\": {}, \"skipped\": {}, \"tables\": [",
            d.ok, d.budget_exhausted, d.failed, d.skipped
        ));
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let detail = match &t.outcome {
                TableOutcome::Ok => String::new(),
                other => other.to_string(),
            };
            out.push_str(&format!(
                "[{}, {}, {}]",
                json_string(&t.table),
                json_string(t.outcome.label()),
                json_string(&detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Outcome counts of a migration run, one bucket per [`TableOutcome`] variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationSummary {
    /// Tables that populated normally.
    pub ok: usize,
    /// Tables whose fuel budget ran out.
    pub budget_exhausted: usize,
    /// Tables whose synthesis or execution failed (including caught panics).
    pub failed: usize,
    /// Tables skipped because a referenced table did not populate.
    pub skipped: usize,
}

impl DegradationSummary {
    /// Total number of tables.
    pub fn total(&self) -> usize {
        self.ok + self.budget_exhausted + self.failed + self.skipped
    }
}

impl fmt::Display for DegradationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} tables ok ({} budget-exhausted, {} failed, {} skipped)",
            self.ok,
            self.total(),
            self.budget_exhausted,
            self.failed,
            self.skipped
        )
    }
}

/// Checks a schema and its `(table, data columns, keys)` tasks for
/// [`MigrationPlan::validate`] and `CorpusJob::validate`: every task must name
/// a schema table and only columns of it.
pub(crate) fn validate_tasks<'a>(
    schema: &Schema,
    tasks: impl IntoIterator<Item = (&'a str, &'a [String], &'a [(String, KeySpec)])>,
) -> Result<(), MigrationError> {
    schema
        .validate()
        .map_err(|e| MigrationError::InvalidSchema(e.0))?;
    for (table, data_columns, keys) in tasks {
        let Some(table_schema) = schema.table(table) else {
            return Err(MigrationError::UnknownTable(table.to_string()));
        };
        for col in data_columns.iter().chain(keys.iter().map(|(c, _)| c)) {
            if table_schema.column_index(col).is_none() {
                return Err(MigrationError::UnknownColumn {
                    table: table.to_string(),
                    column: col.clone(),
                });
            }
        }
    }
    Ok(())
}

/// Fills one table from one document (Section 6), for [`MigrationPlan::run`]
/// and the corpus service alike: runs `program` under the row budget, puts its
/// output columns at the `data_columns` positions of `schema` and derives the
/// key columns with [`eval_key`] (`Null` when underivable).  `map_key` sees
/// each derived key; the corpus service namespaces keys per document with it.
pub(crate) fn execute_table(
    document: &Hdt,
    program: &Program,
    schema: &TableSchema,
    data_columns: &[String],
    keys: &[(String, KeySpec)],
    max_rows: Option<u64>,
    map_key: impl Fn(Value, &KeySpec) -> Value,
) -> Result<(Vec<Row>, ExecStats), BudgetBreach> {
    let (node_rows, stats) = execute_nodes_budgeted(document, program, max_rows)?;
    let key_idx: Vec<Option<usize>> = keys.iter().map(|(c, _)| schema.column_index(c)).collect();
    // A key column that is also a data column keeps the key.
    let data_idx: Vec<Option<usize>> = data_columns
        .iter()
        .map(|c| {
            schema
                .column_index(c)
                .filter(|i| !key_idx.contains(&Some(*i)))
        })
        .collect();
    let rows = node_rows
        .rows()
        .map(|nodes| {
            let mut row: Row = vec![Value::Null; schema.arity()];
            for ((_, spec), idx) in keys.iter().zip(&key_idx) {
                if let Some(idx) = *idx {
                    let key = eval_key(document, nodes, spec).unwrap_or(Value::Null);
                    row[idx] = map_key(key, spec);
                }
            }
            for (&node, idx) in nodes.iter().zip(&data_idx) {
                if let Some(idx) = *idx {
                    row[idx] = node_value(document, node);
                }
            }
            row
        })
        .collect();
    Ok((rows, stats))
}

/// Errors raised while running a migration plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// The schema itself is invalid.
    InvalidSchema(String),
    /// A task references a table that is not part of the schema.
    UnknownTable(String),
    /// A task references a column that is not part of its table.
    UnknownColumn {
        /// The table of the task.
        table: String,
        /// The missing column.
        column: String,
    },
    /// Synthesis failed for a table.
    Synthesis {
        /// The table whose program could not be synthesized.
        table: String,
        /// The underlying synthesis error.
        error: SynthError,
    },
    /// The program arity does not match the declared data columns.
    ArityMismatch(String),
    /// A worker panicked while synthesizing or executing a table; the panic was
    /// caught at the table boundary and isolated to that table.
    Panicked {
        /// The table whose worker panicked.
        table: String,
        /// The stringified panic payload.
        message: String,
    },
}

impl fmt::Display for MigrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrationError::InvalidSchema(e) => write!(f, "invalid schema: {e}"),
            MigrationError::UnknownTable(t) => write!(f, "task references unknown table `{t}`"),
            MigrationError::UnknownColumn { table, column } => {
                write!(f, "task for `{table}` references unknown column `{column}`")
            }
            MigrationError::Synthesis { table, error } => {
                write!(f, "synthesis failed for table `{table}`: {error}")
            }
            MigrationError::ArityMismatch(t) => {
                write!(
                    f,
                    "program arity does not match data columns for table `{t}`"
                )
            }
            MigrationError::Panicked { table, message } => {
                write!(f, "worker panicked for table `{table}`: {message}")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

impl MigrationPlan {
    /// Creates a plan for a schema with no tasks yet.
    pub fn new(schema: Schema) -> Self {
        MigrationPlan {
            schema,
            tasks: Vec::new(),
            synth_config: SynthConfig::default(),
            strict: false,
        }
    }

    /// Adds a task (builder style).
    pub fn with_task(mut self, task: TableTask) -> Self {
        self.tasks.push(task);
        self
    }

    /// Sets abort-on-first-error mode (builder style).
    pub fn with_strict(mut self, strict: bool) -> Self {
        self.strict = strict;
        self
    }

    /// Validates the plan against the schema without running it.
    pub fn validate(&self) -> Result<(), MigrationError> {
        validate_tasks(
            &self.schema,
            self.tasks.iter().map(|t| {
                (
                    t.table.as_str(),
                    t.data_columns.as_slice(),
                    t.keys.as_slice(),
                )
            }),
        )
    }

    /// Runs the plan against a document, producing the populated database and report.
    ///
    /// The same `document` is used for every table, matching the paper's setting where
    /// a single large dataset is shredded into multiple tables.
    ///
    /// Synthesis is the dominant cost and every table's task is independent, so the
    /// synthesis phase fans out across tables on up to `synth_config.threads` pool
    /// workers (`0` = the process-global setting, `1` = sequential); each table's
    /// own `learn_transformation` may fan out further, bounded by the pool's nesting
    /// limit.  Results are deterministic: per-table outcomes are merged in task
    /// order, so the populated database, the reported error (if any) and the
    /// synthesized programs are identical at every thread count.
    ///
    /// **Partial failure.** By default a failing table — synthesis error, budget
    /// exhaustion, or a worker panic — degrades only itself: its
    /// [`TableReport::outcome`] records what happened, tables whose foreign keys
    /// reference it are [`TableOutcome::Skipped`], and every other table still
    /// synthesizes, executes, and emits rows.  `run` returns `Err` only for
    /// plan-validation failures; use [`MigrationReport::degradation`] /
    /// [`MigrationReport::all_failed`] to inspect the outcome matrix.  With
    /// [`MigrationPlan::with_strict`] the pre-degradation behaviour is restored:
    /// the first failure in task order aborts the whole run with `Err`.
    pub fn run(&self, document: &Hdt) -> Result<MigrationReport, MigrationError> {
        let _run_span = mitra_trace::span_detail("migrate", "run_plan", || {
            format!("tasks={}", self.tasks.len())
        });
        self.validate()?;
        // Shared read-only across workers (synthesis examples carry their own trees,
        // but execution below reuses this document): build its index exactly once.
        document.ensure_index();
        let threads = mitra_pool::resolve(self.synth_config.threads);

        // Phase 1 — synthesis fan-out: obtain every table's program.  The arity
        // check lives inside the worker so the canonical task-order merge reports
        // the same first error the sequential loop would have.  Each slot is
        // panic-isolated: a panicking table (including an injected
        // `migrate.table` fault) poisons only its own outcome.
        let _synth_span = mitra_trace::span("migrate", "synthesis_phase");
        let synth_start = Instant::now();
        type Synthesized = (Program, Duration, Option<SynthProfile>);
        type TableProgram = Result<Synthesized, MigrationError>;
        let outcomes: Vec<Result<TableProgram, mitra_pool::PanicPayload>> =
            mitra_pool::parallel_map_catch(threads, &self.tasks, |i, task| {
                let _span =
                    mitra_trace::span_detail("migrate", "synthesize_table", || task.table.clone());
                // Fault-injection site keyed by the task index, so which table
                // dies is independent of worker scheduling.
                mitra_trace::fault::hit("migrate.table", i as u64);
                let t0 = Instant::now();
                let (program, profile) = match &task.source {
                    TableSource::Program(p) => (p.clone(), None),
                    TableSource::Examples(examples) => {
                        let synthesis = learn_transformation(examples, &self.synth_config)
                            .map_err(|error| MigrationError::Synthesis {
                                table: task.table.clone(),
                                error,
                            })?;
                        (synthesis.program, Some(synthesis.profile))
                    }
                };
                let synthesis_time = match &task.source {
                    TableSource::Program(_) => Duration::ZERO,
                    TableSource::Examples(_) => t0.elapsed(),
                };
                if program.arity() != task.data_columns.len() {
                    return Err(MigrationError::ArityMismatch(task.table.clone()));
                }
                Ok((program, synthesis_time, profile))
            });
        // Canonical task-order merge.  Strict mode reports the first failure in
        // task order — the same error the sequential abort-on-first-error loop
        // would have raised.
        let mut synthesized: Vec<(Option<Synthesized>, TableOutcome)> =
            Vec::with_capacity(outcomes.len());
        for (task, outcome) in self.tasks.iter().zip(outcomes) {
            match outcome {
                Ok(Ok(p)) => synthesized.push((Some(p), TableOutcome::Ok)),
                Ok(Err(e)) => {
                    if self.strict {
                        return Err(e);
                    }
                    let o = match e {
                        MigrationError::Synthesis {
                            error: SynthError::BudgetExhausted(b),
                            ..
                        } => TableOutcome::BudgetExhausted(b),
                        other => TableOutcome::Failed(other),
                    };
                    synthesized.push((None, o));
                }
                Err(panic) => {
                    let e = MigrationError::Panicked {
                        table: task.table.clone(),
                        message: panic.message,
                    };
                    if self.strict {
                        return Err(e);
                    }
                    synthesized.push((None, TableOutcome::Failed(e)));
                }
            }
        }
        let synthesis_wall = synth_start.elapsed();
        drop(_synth_span);

        // Degrade dependents, to a fixpoint: a table whose foreign key references
        // a table that did not populate would only emit dangling rows — skip it
        // (and anything referencing *it*) instead.
        loop {
            let bad: std::collections::HashSet<&str> = self
                .tasks
                .iter()
                .zip(&synthesized)
                .filter(|(_, (_, o))| !o.is_ok())
                .map(|(t, _)| t.table.as_str())
                .collect();
            let mut changed = false;
            for (task, slot) in self.tasks.iter().zip(synthesized.iter_mut()) {
                if !slot.1.is_ok() {
                    continue;
                }
                // Tables were validated against the schema up front; a miss here
                // simply means no FK edges to inspect for this task.
                let Some(table_schema) = self.schema.table(&task.table) else {
                    continue;
                };
                if let Some(fk) = table_schema
                    .foreign_keys
                    .iter()
                    .find(|fk| bad.contains(fk.referenced_table.as_str()))
                {
                    slot.1 = TableOutcome::Skipped {
                        reason: format!(
                            "foreign key references table `{}` which did not populate",
                            fk.referenced_table
                        ),
                    };
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 2 — execution, in task order.  Non-`Ok` tables contribute a
        // report entry but no rows; each executing table is wrapped in its own
        // `catch_unwind` (the nested pool fan-out re-panics deterministically,
        // so a worker panic surfaces here) and bounded by the row budget.
        let _exec_span = mitra_trace::span("migrate", "execution_phase");
        let exec_start = Instant::now();
        let mut database = Database::new(self.schema.clone());
        let mut reports = Vec::with_capacity(self.tasks.len());
        for (task, (prog, outcome)) in self.tasks.iter().zip(synthesized) {
            // A skipped table did synthesize: keep its program and profile so
            // the degradation report shows what was lost.
            let (program_text, synthesis_time, profile) = match &prog {
                Some((program, time, profile)) => (pretty::program(program), *time, *profile),
                None => (String::new(), Duration::ZERO, None),
            };
            let mut report = TableReport {
                table: task.table.clone(),
                outcome,
                synthesis_time,
                execution_time: Duration::ZERO,
                rows: 0,
                program: program_text,
                profile,
                exec_stats: ExecStats::default(),
            };
            match prog {
                Some((program, ..)) if report.outcome.is_ok() => {
                    let start = Instant::now();
                    match self.execute_task(document, task, &program, profile) {
                        Ok((table, exec_stats)) => {
                            report.rows = table.len();
                            report.exec_stats = exec_stats;
                            database.set_table(&task.table, table);
                        }
                        Err(TableOutcome::BudgetExhausted(exhausted)) if self.strict => {
                            return Err(MigrationError::Synthesis {
                                table: task.table.clone(),
                                error: SynthError::BudgetExhausted(exhausted),
                            });
                        }
                        Err(TableOutcome::Failed(e)) if self.strict => return Err(e),
                        Err(failure) => report.outcome = failure,
                    }
                    report.execution_time = start.elapsed();
                }
                // An `Ok` outcome always carries a program by construction;
                // should that invariant ever break, report it instead of
                // panicking mid-migration.
                None if report.outcome.is_ok() => {
                    report.outcome = TableOutcome::Failed(MigrationError::Synthesis {
                        table: task.table.clone(),
                        error: SynthError::NoProgram,
                    });
                }
                _ => {}
            }
            reports.push(report);
        }
        let execution_wall = exec_start.elapsed();
        drop(_exec_span);

        let violations = database.check_constraints().len();
        Ok(MigrationReport {
            database,
            tables: reports,
            violations,
            synthesis_wall,
            execution_wall,
        })
    }

    /// Fills one table with [`execute_table`], panic-isolated and under the
    /// plan's row budget.  `Err` carries the table's degraded outcome.
    fn execute_task(
        &self,
        document: &Hdt,
        task: &TableTask,
        program: &Program,
        profile: Option<SynthProfile>,
    ) -> Result<(Table, ExecStats), TableOutcome> {
        // `run` validated every task table against the schema up front.
        let Some(schema) = self.schema.table(&task.table) else {
            let e = MigrationError::UnknownTable(task.table.clone());
            return Err(TableOutcome::Failed(e));
        };
        let _span = mitra_trace::span_detail("migrate", "execute_table", || task.table.clone());
        let max_rows = self.synth_config.budget.max_rows;
        let executed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            execute_table(
                document,
                program,
                schema,
                &task.data_columns,
                &task.keys,
                max_rows,
                |key, _| key,
            )
        }));
        match executed {
            Ok(Ok((rows, exec_stats))) => {
                let columns = schema.column_names();
                Ok((Table { columns, rows }, exec_stats))
            }
            Ok(Err(breach)) => Err(TableOutcome::BudgetExhausted(BudgetExhausted::new(
                breach,
                profile.unwrap_or_default(),
            ))),
            Err(payload) => Err(TableOutcome::Failed(MigrationError::Panicked {
                table: task.table.clone(),
                message: mitra_pool::panic_message(payload.as_ref()),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};
    use mitra_dsl::ast::{
        ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, TableExtractor,
    };
    use mitra_hdt::generate::social_network;

    /// Schema: person(pk, name, pid) and friendship(person_fk, friend_pid, years).
    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new(
                    "person",
                    vec![
                        Column::text("pk"),
                        Column::integer("pid"),
                        Column::text("name"),
                    ],
                )
                .with_primary_key(&["pk"]),
            )
            .with_table(
                TableSchema::new(
                    "friendship",
                    vec![
                        Column::text("person_fk"),
                        Column::integer("friend_pid"),
                        Column::integer("years"),
                    ],
                )
                .with_foreign_key(&["person_fk"], "person", &["pk"]),
            )
    }

    fn person_program() -> Program {
        use ColumnExtractor as CE;
        let id = CE::pchildren(CE::children(CE::Input, "Person"), "id", 0);
        let name = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        let pred = Predicate::Compare {
            extractor: NodeExtractor::parent(NodeExtractor::Id),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::parent(NodeExtractor::Id),
                index: 1,
            },
        };
        Program::new(TableExtractor::new(vec![id, name]), pred)
    }

    fn friendship_program() -> Program {
        use ColumnExtractor as CE;
        let friend = CE::children(
            CE::pchildren(CE::children(CE::Input, "Person"), "Friendship", 0),
            "Friend",
        );
        let fid = CE::pchildren(friend.clone(), "fid", 0);
        let years = CE::pchildren(friend, "years", 0);
        let pred = Predicate::Compare {
            extractor: NodeExtractor::parent(NodeExtractor::Id),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::parent(NodeExtractor::Id),
                index: 1,
            },
        };
        Program::new(TableExtractor::new(vec![fid, years]), pred)
    }

    fn plan() -> MigrationPlan {
        MigrationPlan::new(schema())
            .with_task(TableTask {
                table: "person".to_string(),
                source: TableSource::Program(person_program()),
                // pk is synthesized from the row's nodes.
                keys: vec![("pk".to_string(), KeySpec::SyntheticPrimary)],
                data_columns: vec!["pid".to_string(), "name".to_string()],
            })
            .with_task(TableTask {
                table: "friendship".to_string(),
                source: TableSource::Program(friendship_program()),
                // The foreign key recovers the Person row's (id, name) nodes from the
                // fid node: Person = parent(parent(parent(fid))).
                keys: vec![(
                    "person_fk".to_string(),
                    KeySpec::Foreign {
                        derivations: vec![
                            (
                                0,
                                NodeExtractor::child(
                                    NodeExtractor::parent(NodeExtractor::parent(
                                        NodeExtractor::parent(NodeExtractor::Id),
                                    )),
                                    "id",
                                    0,
                                ),
                            ),
                            (
                                0,
                                NodeExtractor::child(
                                    NodeExtractor::parent(NodeExtractor::parent(
                                        NodeExtractor::parent(NodeExtractor::Id),
                                    )),
                                    "name",
                                    0,
                                ),
                            ),
                        ],
                    },
                )],
                data_columns: vec!["friend_pid".to_string(), "years".to_string()],
            })
    }

    #[test]
    fn a_key_column_that_is_also_a_data_column_keeps_the_key() {
        let doc = social_network(3, 1);
        let schema = schema();
        let person = schema.table("person").unwrap();
        let data_columns = ["pk".to_string(), "name".to_string()];
        let keys = [("pk".to_string(), KeySpec::SyntheticPrimary)];
        let program = person_program();
        let (rows, _) = execute_table(
            &doc,
            &program,
            person,
            &data_columns,
            &keys,
            None,
            |key, _| key,
        )
        .unwrap();
        let (node_rows, _) = execute_nodes_budgeted(&doc, &program, None).unwrap();
        assert_eq!(rows.len(), 3);
        for (row, nodes) in rows.iter().zip(node_rows.rows()) {
            // The key joins two node ids, so it never equals the `id` value.
            assert_eq!(row[0].render(), crate::keys::node_key(nodes).render());
            assert!(row[0].render().contains('_'));
            assert!(row[1].is_null(), "pid is neither a data nor a key column");
            assert_eq!(row[2], node_value(&doc, nodes[1]));
        }
    }

    #[test]
    fn plan_validation_catches_unknown_names() {
        let mut bad = plan();
        bad.tasks[0].table = "nope".to_string();
        assert!(matches!(
            bad.run(&social_network(2, 1)),
            Err(MigrationError::UnknownTable(_))
        ));

        let mut bad2 = plan();
        bad2.tasks[0].data_columns[0] = "ghost".to_string();
        assert!(matches!(
            bad2.run(&social_network(2, 1)),
            Err(MigrationError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn migration_populates_both_tables() {
        let doc = social_network(4, 2);
        let report = plan().run(&doc).unwrap();
        assert_eq!(report.database.row_count("person"), 4);
        assert_eq!(report.database.row_count("friendship"), 8);
        assert_eq!(report.total_rows(), 12);
        assert_eq!(report.tables.len(), 2);
    }

    #[test]
    fn execution_stats_report_every_table() {
        let doc = social_network(4, 2);
        let report = plan().run(&doc).unwrap();
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[0].table, "person");
        assert_eq!(report.tables[1].table, "friendship");
        for t in &report.tables {
            let stats = &t.exec_stats;
            assert!(stats.tuples_considered >= stats.rows_emitted);
        }
        assert_eq!(report.tables[0].exec_stats.rows_emitted, 4);
        assert_eq!(report.tables[1].exec_stats.rows_emitted, 8);
        assert!(report.execution_wall >= report.total_execution_time());
    }

    #[test]
    fn generated_keys_satisfy_constraints() {
        let doc = social_network(5, 2);
        let report = plan().run(&doc).unwrap();
        assert_eq!(report.violations, 0, "constraint violations found");
    }

    #[test]
    fn foreign_keys_join_back_to_the_right_person() {
        let doc = social_network(3, 1);
        let report = plan().run(&doc).unwrap();
        let db = &report.database;
        // Every friendship row's person_fk must resolve to a person row, and the
        // referenced person must not be the friend itself (fid differs from pid).
        let person = db.table("person").unwrap();
        let friendship = db.table("friendship").unwrap();
        for row in &friendship.rows {
            let fk = &row[0];
            let person = person
                .rows
                .iter()
                .find(|p| &p[0] == fk)
                .expect("fk must resolve");
            let friend_pid = &row[1];
            assert_ne!(
                &person[1], friend_pid,
                "a person cannot befriend themselves"
            );
        }
    }

    #[test]
    fn synthesis_based_task_works_end_to_end() {
        // Synthesize the person-name table from an example instead of a hand-written program.
        let example_doc = social_network(3, 1);
        let output = Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]);
        let schema = Schema::new().with_table(
            TableSchema::new("names", vec![Column::text("pk"), Column::text("name")])
                .with_primary_key(&["pk"]),
        );
        let plan = MigrationPlan::new(schema).with_task(TableTask {
            table: "names".to_string(),
            source: TableSource::Examples(vec![Example::new(example_doc, output)]),
            keys: vec![("pk".to_string(), KeySpec::SyntheticPrimary)],
            data_columns: vec!["name".to_string()],
        });
        let big = social_network(10, 1);
        let report = plan.run(&big).unwrap();
        assert_eq!(report.database.row_count("names"), 10);
        assert!(report.total_synthesis_time() > Duration::ZERO);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn thread_count_does_not_change_migration_results() {
        let example_doc = social_network(3, 1);
        let output = Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]);
        let schema = Schema::new().with_table(
            TableSchema::new("names", vec![Column::text("pk"), Column::text("name")])
                .with_primary_key(&["pk"]),
        );
        let base_plan = MigrationPlan::new(schema).with_task(TableTask {
            table: "names".to_string(),
            source: TableSource::Examples(vec![Example::new(example_doc, output)]),
            keys: vec![("pk".to_string(), KeySpec::SyntheticPrimary)],
            data_columns: vec!["name".to_string()],
        });
        let big = social_network(8, 2);
        let run_at = |threads: usize| {
            let mut plan = base_plan.clone();
            plan.synth_config.threads = threads;
            plan.run(&big).unwrap()
        };
        let sequential = run_at(1);
        let parallel = run_at(4);
        assert_eq!(sequential.programs(), parallel.programs());
        assert_eq!(
            sequential.database.table("names").unwrap().rows,
            parallel.database.table("names").unwrap().rows
        );
        assert!(sequential.synthesis_wall > Duration::ZERO);
        assert!(!sequential.tables[0].program.is_empty());
    }

    #[test]
    fn arity_mismatch_degrades_the_table_and_strict_mode_aborts() {
        let mut p = plan();
        p.tasks[0].data_columns.pop();
        // Non-strict: person fails, friendship (whose foreign key references
        // person) is skipped, and the run still returns a report.
        let report = p.run(&social_network(2, 1)).unwrap();
        assert!(matches!(
            report.tables[0].outcome,
            TableOutcome::Failed(MigrationError::ArityMismatch(_))
        ));
        match &report.tables[1].outcome {
            TableOutcome::Skipped { reason } => assert!(reason.contains("person")),
            other => panic!("expected friendship to be skipped, got {other:?}"),
        }
        assert_eq!(report.total_rows(), 0);
        assert!(report.all_failed());
        // Strict restores the abort-on-first-error contract.
        let strict = p.with_strict(true);
        assert!(matches!(
            strict.run(&social_network(2, 1)),
            Err(MigrationError::ArityMismatch(_))
        ));
    }

    /// Four independent tables, all driven by the same hand-written program.
    fn four_table_plan() -> MigrationPlan {
        let mut schema = Schema::new();
        let mut tasks = Vec::new();
        for name in ["t0", "t1", "t2", "t3"] {
            schema = schema.with_table(
                TableSchema::new(
                    name,
                    vec![
                        Column::text("pk"),
                        Column::integer("pid"),
                        Column::text("name"),
                    ],
                )
                .with_primary_key(&["pk"]),
            );
            tasks.push(TableTask {
                table: name.to_string(),
                source: TableSource::Program(person_program()),
                keys: vec![("pk".to_string(), KeySpec::SyntheticPrimary)],
                data_columns: vec!["pid".to_string(), "name".to_string()],
            });
        }
        let mut plan = MigrationPlan::new(schema);
        for task in tasks {
            plan = plan.with_task(task);
        }
        plan
    }

    /// Clears the process-global fault even when the test panics mid-way.
    struct FaultGuard;
    impl Drop for FaultGuard {
        fn drop(&mut self) {
            mitra_trace::fault::set_fault(None);
        }
    }

    #[test]
    fn poisoned_table_leaves_siblings_populated_and_identical_across_threads() {
        // `migrate.table#3` only exists in this 4-task plan, so the
        // process-global fault cannot fire in concurrently running tests (their
        // plans have at most 2 tasks).
        let _guard = FaultGuard;
        mitra_trace::fault::set_fault(Some(mitra_trace::fault::FaultSpec {
            site: "migrate.table".into(),
            nth: 3,
        }));
        let doc = social_network(4, 2);
        let run_at = |threads: usize| {
            let mut p = four_table_plan();
            p.synth_config.threads = threads;
            p.run(&doc).unwrap()
        };
        let seq = run_at(1);
        assert_eq!(seq.tables.len(), 4);
        for t in &seq.tables[..3] {
            assert!(t.outcome.is_ok(), "table {} should be ok", t.table);
            assert_eq!(t.rows, 4);
        }
        match &seq.tables[3].outcome {
            TableOutcome::Failed(MigrationError::Panicked { table, message }) => {
                assert_eq!(table, "t3");
                assert_eq!(message, "injected fault: migrate.table#3");
            }
            other => panic!("expected a panicked outcome, got {other:?}"),
        }
        let d = seq.degradation();
        assert_eq!(
            (d.ok, d.failed, d.skipped, d.budget_exhausted),
            (3, 1, 0, 0)
        );
        assert!(seq.is_degraded());
        assert!(!seq.all_failed());
        // The degradation report is byte-identical at every thread count.
        let par = run_at(4);
        assert_eq!(seq.summary_json(), par.summary_json());
        // Strict mode turns the same poison into a hard error.
        let strict = four_table_plan().with_strict(true);
        assert!(matches!(
            strict.run(&doc),
            Err(MigrationError::Panicked { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_degrades_only_the_affected_table() {
        let example_doc = social_network(3, 1);
        let output = Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]);
        let schema = Schema::new()
            .with_table(
                TableSchema::new("names", vec![Column::text("pk"), Column::text("name")])
                    .with_primary_key(&["pk"]),
            )
            .with_table(
                TableSchema::new(
                    "person",
                    vec![
                        Column::text("pk"),
                        Column::integer("pid"),
                        Column::text("name"),
                    ],
                )
                .with_primary_key(&["pk"]),
            );
        let mut plan = MigrationPlan::new(schema)
            .with_task(TableTask {
                table: "names".to_string(),
                source: TableSource::Examples(vec![Example::new(example_doc, output)]),
                keys: vec![("pk".to_string(), KeySpec::SyntheticPrimary)],
                data_columns: vec!["name".to_string()],
            })
            .with_task(TableTask {
                table: "person".to_string(),
                source: TableSource::Program(person_program()),
                keys: vec![("pk".to_string(), KeySpec::SyntheticPrimary)],
                data_columns: vec!["pid".to_string(), "name".to_string()],
            });
        // Zero candidate fuel: the synthesis-backed table exhausts immediately,
        // the program-backed table is untouched (its source needs no search).
        plan.synth_config.budget = mitra_synth::budget::Budget {
            max_candidates: Some(0),
            ..Default::default()
        };
        let report = plan.run(&social_network(4, 2)).unwrap();
        match &report.tables[0].outcome {
            TableOutcome::BudgetExhausted(b) => {
                assert_eq!(
                    b.breach.resource,
                    mitra_synth::budget::BudgetResource::Candidates
                );
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert_eq!(report.tables[0].rows, 0);
        assert!(report.tables[1].outcome.is_ok());
        assert_eq!(report.tables[1].rows, 4);
        assert!(report.is_degraded());
        assert!(!report.all_failed());
        let summary = report.summary_json();
        assert!(summary.contains("\"budget_exhausted\": 1"), "{summary}");
        assert!(summary.contains("\"ok\": 1"), "{summary}");
    }
}
