//! The corpus runner: scan → synthesize-per-shape → execute in checkpointed
//! shard waves → assemble.
//!
//! Determinism contract (the corpus-level extension of the per-table contract
//! in [`crate::migrate`]):
//!
//! * every per-document decision — parse outcome, shape, retry escalation,
//!   quarantine — is a pure function of the corpus text and the job, never of
//!   wall-clock or scheduling;
//! * shard workers fan out over `mitra-pool` but their outputs are journaled
//!   and persisted **in shard order**, and final tables are assembled by
//!   concatenating the persisted shard files in shard order, so assembled
//!   artifacts are byte-identical at every thread count;
//! * [`resume`] takes the same assembly path over a mix of journaled and
//!   freshly executed shards, which makes interrupted+resumed byte-identity
//!   structural rather than incidental.
//!
//! The scan is the only place a document gets its shape: it parses and
//! fingerprints every document once, and execution reads the shape index it
//! recorded.
//!
//! Fault sites: `corpus.shard` fires at shard-worker entry (an injected panic
//! kills the run mid-corpus, exercising crash-resume); `corpus.doc` fires at
//! document entry inside the per-document `catch_unwind` (an injected panic is
//! quarantined as a typed `panic` failure instead).

use super::journal::{
    self, quarantine_json, JournalHeader, JournalState, JournalWriter, ShardRecord,
};
use super::shard::{parse_shard, render_shard, shard_file_name, Section};
use super::{
    io_err, parse_corpus_text, CorpusDoc, CorpusError, CorpusJob, CorpusReport, CorpusTableSource,
    FailureKind, QuarantineRecord, RetryPolicy,
};
use crate::database::Database;
use crate::keys::KeySpec;
use crate::migrate::execute_table;
use crate::schema::TableSchema;
use mitra_dsl::table::write_csv_row;
use mitra_dsl::{Program, Table, Value};
use mitra_pool::{panic_message, parallel_map_catch};
use mitra_synth::budget::BudgetBreach;
use mitra_synth::fingerprint::{fingerprint, fnv1a, Fingerprint, FNV_OFFSET};
use mitra_synth::synthesize::{learn_transformation, Example, SynthError};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// A typed document failure: its quarantine kind and error text.
type Failure = (FailureKind, String);

/// What the scan learned.  Shapes are numbered in first-seen order, so each
/// shape's exemplar is its lowest-index document.
#[derive(Default)]
struct Scan {
    /// Per document: its shape index, or the failure it is quarantined with
    /// (`malformed` with the parser's error, or `panic` if its slot panicked).
    shapes: Vec<Result<usize, Failure>>,
    /// Per shape: the per-task programs, or the failure every document of the
    /// shape inherits.
    programs: Vec<Result<Vec<Program>, Failure>>,
}

/// Runs a corpus job from scratch, truncating any previous journal in
/// `out_dir`.  On success the directory holds `journal.jsonl`,
/// `shards/shard-*.tbl`, `tables/<table>.csv`, `failure_ledger.jsonl`,
/// `summary.json` and `timings.json`.
pub fn run(
    job: &CorpusJob,
    corpus_text: &str,
    out_dir: &Path,
) -> Result<CorpusReport, CorpusError> {
    run_impl(job, corpus_text, out_dir, false)
}

/// Resumes an interrupted run: verifies the journal against the corpus,
/// re-executes only the shards without a verified checkpoint, and assembles
/// artifacts byte-identical to an uninterrupted [`run`].
pub fn resume(
    job: &CorpusJob,
    corpus_text: &str,
    out_dir: &Path,
) -> Result<CorpusReport, CorpusError> {
    run_impl(job, corpus_text, out_dir, true)
}

fn run_impl(
    job: &CorpusJob,
    corpus_text: &str,
    out_dir: &Path,
    resuming: bool,
) -> Result<CorpusReport, CorpusError> {
    let run_start = Instant::now();
    // Preparation: split and hash the corpus, and open the journal (a fresh
    // run fsyncs its header; a resume verifies the journaled shards).
    let prepare_span = mitra_trace::span("migrate", "corpus_prepare");
    job.validate().map_err(CorpusError::Plan)?;
    let schemas: Vec<TableSchema> = job
        .tasks
        .iter()
        .filter_map(|t| job.schema.table(&t.table).cloned())
        .collect();
    if schemas.len() != job.tasks.len() {
        // validate() checked every task table; reaching here means the schema
        // changed under us.
        return Err(CorpusError::Corpus("schema lost a task table".into()));
    }
    let docs = parse_corpus_text(corpus_text);
    let shard_size = job.config.shard_size.max(1);
    let shard_count = docs.len().div_ceil(shard_size);
    let tables = job.table_names();
    let corpus_hash = fnv1a(FNV_OFFSET, corpus_text.as_bytes());

    let shards_dir = out_dir.join("shards");
    let tables_dir = out_dir.join("tables");
    std::fs::create_dir_all(&shards_dir).map_err(io_err(&shards_dir))?;
    std::fs::create_dir_all(&tables_dir).map_err(io_err(&tables_dir))?;
    let journal_path = out_dir.join("journal.jsonl");

    let expected_header = JournalHeader {
        version: 1,
        format: job.format.label().to_string(),
        corpus_hash,
        docs: docs.len(),
        shard_size,
        shards: shard_count,
        tables: tables.clone(),
    };

    let mut completed: BTreeMap<usize, ShardRecord> = BTreeMap::new();
    let mut prior_synth: Option<(usize, usize)> = None;
    let mut writer = if resuming {
        let state: JournalState = journal::load_journal(&journal_path)?;
        if state.header != expected_header {
            return Err(CorpusError::Journal(format!(
                "journal does not match this corpus/job (journaled {:?}, expected {:?})",
                state.header, expected_header
            )));
        }
        for (idx, record) in state.shards {
            if idx < shard_count && journal::verify_shard_file(&shards_dir, &record) {
                completed.insert(idx, record);
            }
        }
        prior_synth = state.synth;
        mitra_trace::counter_add!("corpus.resumed_shards", completed.len() as u64);
        JournalWriter::append(&journal_path)?
    } else {
        let mut w = JournalWriter::create(&journal_path)?;
        w.record(&expected_header.to_json_line())?;
        w
    };
    let resumed_shards = completed.len();

    let pending: Vec<usize> = (0..shard_count)
        .filter(|i| !completed.contains_key(i))
        .collect();
    drop(prepare_span);

    // Pass 1+2: fingerprint every document and synthesize once per shape.
    // The scan covers *all* documents — even those of already-checkpointed
    // shards — so each shape's exemplar (its lowest document index) is a pure
    // function of the corpus, identical for fresh and resumed runs.
    let synth_start = Instant::now();
    let mut scan = Scan::default();
    let (shapes, programs_synthesized) = if pending.is_empty() {
        prior_synth.unwrap_or((0, 0))
    } else {
        let scan_span = mitra_trace::span("migrate", "corpus_scan");
        let fps = parallel_map_catch(job.config.threads, &docs, |_, doc| {
            job.format.parse(doc.text).map(|t| fingerprint(&t))
        });
        let mut shape_of: HashMap<Fingerprint, usize> = HashMap::new();
        let mut exemplars: Vec<usize> = Vec::new();
        for (i, slot) in fps.into_iter().enumerate() {
            scan.shapes.push(match slot {
                Ok(Ok(fp)) => Ok(*shape_of.entry(fp).or_insert_with(|| {
                    exemplars.push(i);
                    exemplars.len() - 1
                })),
                Ok(Err(e)) => Err((FailureKind::Malformed, e.to_string())),
                Err(payload) => Err((FailureKind::Panic, payload.message)),
            });
        }
        drop(scan_span);
        let _synth_span = mitra_trace::span("migrate", "corpus_synthesis");
        let learned = parallel_map_catch(job.config.threads, &exemplars, |_, &exemplar| {
            synthesize_shape(job, docs[exemplar])
        });
        let mut programs = 0usize;
        for slot in learned {
            let (entry, count) =
                slot.unwrap_or_else(|payload| (Err((FailureKind::Panic, payload.message)), 0));
            programs += count;
            mitra_trace::counter_add!("cache.shape_programs.insert", 1);
            scan.programs.push(entry);
        }
        mitra_trace::counter_add!("corpus.programs_synthesized", programs as u64);
        writer.record(&format!(
            "{{\"kind\": \"synth\", \"shapes\": {}, \"programs\": {programs}}}",
            exemplars.len()
        ))?;
        (exemplars.len(), programs)
    };
    let synth_wall = synth_start.elapsed();

    // Pass 3: execute pending shards in waves of one shard per worker; each
    // wave's results are journaled and persisted in shard order before the
    // next wave starts, so a crash loses at most one wave of work.
    let exec_start = Instant::now();
    let wave_size = mitra_pool::resolve(job.config.threads).max(1);
    for wave in pending.chunks(wave_size) {
        let results = parallel_map_catch(job.config.threads, wave, |_, &shard_idx| {
            run_shard(job, &schemas, &docs, shard_idx, shard_size, &scan)
        });
        let mut panicked: Option<(usize, String)> = None;
        for (&shard_idx, slot) in wave.iter().zip(results) {
            match slot {
                Ok(output) => {
                    let record =
                        persist_shard(&shards_dir, &mut writer, shard_idx, &tables, output)?;
                    completed.insert(shard_idx, record);
                }
                Err(payload) => {
                    // Keep journaling the wave's survivors before reporting
                    // the first panicked shard — that is the checkpoint a
                    // resume continues from.
                    if panicked.is_none() {
                        panicked = Some((shard_idx, payload.message));
                    }
                }
            }
        }
        if let Some((shard, message)) = panicked {
            return Err(CorpusError::ShardPanicked { shard, message });
        }
    }
    let exec_wall = exec_start.elapsed();

    // Assembly: concatenate the persisted shard files in shard order.  Fresh
    // and resumed runs share this path, so byte-identity of the final tables
    // does not depend on which shards were replayed.
    let assemble_span = mitra_trace::span("migrate", "corpus_assemble");
    let mut table_cells: Vec<Vec<Vec<String>>> = vec![Vec::new(); tables.len()];
    for shard_idx in 0..shard_count {
        let path = shards_dir.join(shard_file_name(shard_idx));
        let text = std::fs::read_to_string(&path).map_err(io_err(&path))?;
        let sections = parse_shard(&text)?;
        if sections.len() != tables.len() {
            return Err(CorpusError::Corpus(format!(
                "shard {shard_idx} has {} sections, expected {}",
                sections.len(),
                tables.len()
            )));
        }
        for (t, (name, rows)) in sections.into_iter().enumerate() {
            if name != tables[t] {
                return Err(CorpusError::Corpus(format!(
                    "shard {shard_idx} section {t} is {name:?}, expected {:?}",
                    tables[t]
                )));
            }
            table_cells[t].extend(rows);
        }
    }

    let mut table_rows: Vec<(String, usize)> = Vec::with_capacity(tables.len());
    let mut table_csvs: Vec<String> = Vec::with_capacity(tables.len());
    let mut built: Vec<Table> = Vec::with_capacity(tables.len());
    for ((name, schema), rows) in tables.iter().zip(&schemas).zip(table_cells) {
        let columns = schema.column_names();
        let mut csv = String::new();
        write_csv_row(&mut csv, &columns);
        let mut table = Table::new(columns);
        for cells in &rows {
            if cells.len() != table.arity() {
                return Err(CorpusError::Corpus(format!(
                    "table {name}: a shard row has {} cells, expected {}",
                    cells.len(),
                    table.arity()
                )));
            }
            write_csv_row(&mut csv, cells);
            table.push(cells.iter().map(|c| Value::from_data(c)).collect());
        }
        table_csvs.push(csv);
        table_rows.push((name.clone(), table.len()));
        built.push(table);
    }
    drop(assemble_span);
    let violations = {
        let _span = mitra_trace::span("migrate", "corpus_constraints");
        let mut database = Database::new(job.schema.clone());
        for (name, table) in tables.iter().zip(built) {
            database.set_table(name, table);
        }
        database.check_constraints().len()
    };

    let _writes_span = mitra_trace::span("migrate", "corpus_write_outputs");
    for (name, csv) in tables.iter().zip(table_csvs) {
        let path = tables_dir.join(format!("{name}.csv"));
        std::fs::write(&path, csv).map_err(io_err(&path))?;
    }
    let mut quarantined: Vec<QuarantineRecord> = Vec::new();
    let mut ok_docs = 0usize;
    let mut retried = 0u64;
    for record in completed.values() {
        ok_docs += record.ok;
        retried += record.retried;
        quarantined.extend(record.quarantined.iter().cloned());
    }
    let mut ledger = String::new();
    for q in &quarantined {
        ledger.push_str(&quarantine_json(q));
        ledger.push('\n');
    }
    let ledger_path = out_dir.join("failure_ledger.jsonl");
    std::fs::write(&ledger_path, ledger).map_err(io_err(&ledger_path))?;

    let report = CorpusReport {
        docs: docs.len(),
        ok_docs,
        shards: shard_count,
        shapes,
        programs_synthesized,
        resumed_shards,
        retried,
        quarantined,
        table_rows,
        violations,
        synth_wall,
        exec_wall,
        wall: run_start.elapsed(),
    };
    let summary_path = out_dir.join("summary.json");
    std::fs::write(&summary_path, report.summary_json()).map_err(io_err(&summary_path))?;
    let timings_path = out_dir.join("timings.json");
    std::fs::write(&timings_path, report.timings_json()).map_err(io_err(&timings_path))?;
    writer.record(&format!(
        "{{\"kind\": \"complete\", \"ok_docs\": {ok_docs}, \"quarantined\": {}, \"violations\": {violations}}}",
        report.quarantined.len()
    ))?;
    Ok(report)
}

/// Learns the per-task programs for one shape from its exemplar document.
/// Returns the shape's entry plus the number of `learn_transformation` calls
/// that produced a program.
fn synthesize_shape(
    job: &CorpusJob,
    exemplar: CorpusDoc<'_>,
) -> (Result<Vec<Program>, Failure>, usize) {
    let tree = match job.format.parse(exemplar.text) {
        Ok(t) => t,
        // The scan already parsed this document; treat a flaky re-parse as a
        // shape-level failure rather than crashing the pass.
        Err(e) => return (Err((FailureKind::Malformed, e.to_string())), 0),
    };
    // Collecting stops at the first failing table, so `learned` counts only
    // the programs synthesized before it.
    let mut learned = 0usize;
    let programs = job
        .tasks
        .iter()
        .map(|task| match &task.source {
            CorpusTableSource::Program(p) => Ok(p.clone()),
            CorpusTableSource::Oracle(oracle) => {
                let table = &task.table;
                let expected = oracle(&tree).ok_or_else(|| {
                    let error = format!("oracle produced no example for table {table}");
                    (FailureKind::Synthesis, error)
                })?;
                let example = Example::new(tree.clone(), expected);
                let synthesis =
                    learn_transformation(&[example], &job.config.synth).map_err(|e| match e {
                        SynthError::BudgetExhausted(e) => (
                            FailureKind::Budget,
                            format!("synthesis for table {table}: {e}"),
                        ),
                        e => (
                            FailureKind::Synthesis,
                            format!("synthesis for table {table}: {e}"),
                        ),
                    })?;
                learned += 1;
                Ok(synthesis.program)
            }
        })
        .collect();
    (programs, learned)
}

/// The in-memory result of one executed shard, before persistence.
struct ShardOutput {
    docs: usize,
    ok: usize,
    retried: u64,
    quarantined: Vec<QuarantineRecord>,
    /// The shard file's sections, in task order.
    sections: Vec<Section>,
}

/// What became of one document.
enum DocResult {
    /// Rendered rows per task (task order) plus retry attempts spent.
    Ok(Vec<Vec<Vec<String>>>, u64),
    Quarantine(QuarantineRecord),
}

fn run_shard(
    job: &CorpusJob,
    schemas: &[TableSchema],
    docs: &[CorpusDoc<'_>],
    shard_idx: usize,
    shard_size: usize,
    scan: &Scan,
) -> ShardOutput {
    let _span =
        mitra_trace::span_detail("migrate", "corpus_execute_shard", || shard_idx.to_string());
    mitra_trace::fault::hit("corpus.shard", shard_idx as u64);
    let start = shard_idx * shard_size;
    let end = (start + shard_size).min(docs.len());
    let mut sections: Vec<Section> = job
        .tasks
        .iter()
        .map(|t| (t.table.clone(), Vec::new()))
        .collect();
    let mut quarantined = Vec::new();
    let mut ok = 0usize;
    let mut retried = 0u64;
    for doc in &docs[start..end] {
        let outcome = catch_unwind(AssertUnwindSafe(|| process_doc(job, schemas, *doc, scan)));
        match outcome {
            Ok(DocResult::Ok(rows, doc_retries)) => {
                ok += 1;
                retried += doc_retries;
                for ((_, section), task_rows) in sections.iter_mut().zip(rows) {
                    section.extend(task_rows);
                }
            }
            Ok(DocResult::Quarantine(record)) => quarantined.push(record),
            Err(payload) => quarantined.push(QuarantineRecord {
                doc: doc.index,
                offset: doc.offset,
                kind: FailureKind::Panic,
                error: panic_message(payload.as_ref()),
                attempts: 1,
            }),
        }
    }
    ShardOutput {
        docs: end - start,
        ok,
        retried,
        quarantined,
        sections,
    }
}

/// Processes one document end to end.  Whole-document atomic: rows are only
/// committed when **every** task executed within budget, so a quarantined
/// document contributes no rows to any table and surviving rows can never
/// dangle across tables.
fn process_doc(
    job: &CorpusJob,
    schemas: &[TableSchema],
    doc: CorpusDoc<'_>,
    scan: &Scan,
) -> DocResult {
    mitra_trace::fault::hit("corpus.doc", doc.index as u64);
    let quarantine = |kind: FailureKind, error: String, attempts: u32| {
        DocResult::Quarantine(QuarantineRecord {
            doc: doc.index,
            offset: doc.offset,
            kind,
            error,
            attempts,
        })
    };
    let programs = match scan.shapes[doc.index].as_ref().map(|&s| &scan.programs[s]) {
        Ok(Ok(programs)) => programs,
        Ok(Err((kind, error))) | Err((kind, error)) => return quarantine(*kind, error.clone(), 1),
    };
    // Parsed again rather than kept from the scan, so only the documents in
    // flight hold a tree.
    let tree = match job.format.parse(doc.text) {
        Ok(t) => t,
        Err(e) => return quarantine(FailureKind::Malformed, e.to_string(), 1),
    };

    let max_attempts = job.config.retry.max_attempts.max(1);
    let base_fuel = job.config.synth.budget.max_rows;
    let mut retries = 0u64;
    for attempt in 1..=max_attempts {
        // Fuel-based escalation: attempt k runs with base * ESCALATION^(k-1)
        // row fuel — a pure function of the attempt number, so retry outcomes
        // are identical at every thread count.
        let fuel = base_fuel
            .map(|base| base.saturating_mul(RetryPolicy::ESCALATION.saturating_pow(attempt - 1)));
        let executed: Result<Vec<Vec<Vec<String>>>, BudgetBreach> = job
            .tasks
            .iter()
            .zip(programs)
            .zip(schemas)
            .map(|((task, program), schema)| {
                let (rows, _stats) = execute_table(
                    &tree,
                    program,
                    schema,
                    &task.data_columns,
                    &task.keys,
                    fuel,
                    |key, spec| namespace_key(key, spec, doc.index),
                )?;
                Ok(rows
                    .iter()
                    .map(|row| row.iter().map(Value::render).collect())
                    .collect())
            })
            .collect();
        match executed {
            Ok(rendered) => return DocResult::Ok(rendered, retries),
            Err(_) if attempt < max_attempts && base_fuel.is_some() => {
                retries += 1;
            }
            Err(breach) => return quarantine(FailureKind::Budget, breach.to_string(), attempt),
        }
    }
    // Unreachable: the loop always returns; satisfy the checker defensively.
    quarantine(
        FailureKind::Budget,
        "retry loop exhausted".into(),
        max_attempts,
    )
}

/// Namespaces node-identity keys per document: `node_key` joins node ids that
/// are only unique *within* one tree, so synthetic primary keys and the
/// foreign keys that re-derive them get a `d<doc>_` prefix to stay injective
/// across the concatenated corpus.  Data-derived keys pass through untouched.
fn namespace_key(value: Value, spec: &KeySpec, doc_index: usize) -> Value {
    match (value, spec) {
        (v, KeySpec::FromColumn(_)) => v,
        (Value::Str(s), _) => Value::Str(format!("d{doc_index}_{s}")),
        (v, _) => v,
    }
}

/// Writes one executed shard's file, fsyncs it, and journals its record
/// followed by a non-compared `timing` record.
fn persist_shard(
    shards_dir: &Path,
    writer: &mut JournalWriter,
    shard_idx: usize,
    tables: &[String],
    output: ShardOutput,
) -> Result<ShardRecord, CorpusError> {
    let _span =
        mitra_trace::span_detail("migrate", "corpus_persist_shard", || shard_idx.to_string());
    let shard_start = Instant::now();
    // Unpacked so the shard's rows are freed inside the span.
    let ShardOutput {
        docs,
        ok,
        retried,
        quarantined,
        sections,
    } = output;
    let text = render_shard(&sections);
    let path = shards_dir.join(shard_file_name(shard_idx));
    std::fs::write(&path, &text).map_err(io_err(&path))?;
    let file = std::fs::File::open(&path).map_err(io_err(&path))?;
    file.sync_data().map_err(io_err(&path))?;
    let record = ShardRecord {
        shard: shard_idx,
        docs,
        ok,
        retried,
        rows: tables
            .iter()
            .zip(&sections)
            .map(|(name, (_, rows))| (name.clone(), rows.len()))
            .collect(),
        quarantined,
        result_hash: fnv1a(FNV_OFFSET, text.as_bytes()),
    };
    writer.record(&record.to_json_line())?;
    mitra_trace::counter_add!("corpus.docs", record.docs as u64);
    mitra_trace::counter_add!("corpus.quarantined", record.quarantined.len() as u64);
    mitra_trace::counter_add!("corpus.retried", record.retried);
    writer.record(&format!(
        "{{\"kind\": \"timing\", \"shard\": {shard_idx}, \"secs\": {:.6}}}",
        shard_start.elapsed().as_secs_f64()
    ))?;
    Ok(record)
}
