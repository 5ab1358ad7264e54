//! The corpus runner: waves of scan → synthesize new shapes → execute →
//! persist, then one assembly.
//!
//! Determinism contract (the corpus-level extension of the per-table contract
//! in [`crate::migrate`]):
//!
//! * every per-document decision — parse outcome, shape, retry escalation,
//!   quarantine — is a pure function of the corpus text and the job, never of
//!   wall-clock or scheduling;
//! * shard workers fan out over `mitra-pool` but their outputs are journaled
//!   and persisted **in shard order**, and final tables concatenate the
//!   shards' rows in shard order, so assembled artifacts are byte-identical
//!   at every thread count;
//! * [`resume`] takes the same assembly path over a mix of journaled shards,
//!   read back from their files, and freshly executed ones, kept in memory;
//!   a shard file parses back to the rows it was rendered from, which makes
//!   interrupted+resumed byte-identity structural rather than incidental.
//!
//! Each document is parsed once, and the scan is the only place it gets its
//! shape.  The run walks the corpus in waves of pending shards, one shard per
//! worker.  A wave first scans: it parses and fingerprints every document up
//! to the end of its last shard (the last wave's scan runs to the end of the
//! corpus, so every shape is synthesized), numbering new shapes in
//! first-seen order, so each shape's exemplar is its lowest-index document on
//! fresh and resumed runs alike.  The scan keeps the trees of the wave's own
//! documents and of its new shapes' exemplars; it drops every other tree (the
//! documents of checkpointed shards) as soon as their shard is numbered.  The
//! wave then synthesizes its new shapes from their exemplars' trees and
//! executes its shards on the kept trees, each freed as soon as its document
//! has run.  So at most one wave's documents and its new exemplars hold a tree
//! at a time, plus, while a resume scans a checkpointed shard, that shard's
//! documents.
//!
//! Fault sites: `corpus.shard` fires at shard-worker entry (an injected panic
//! kills the run mid-corpus, exercising crash-resume); `corpus.doc` fires at
//! document entry inside the per-document `catch_unwind` (an injected panic is
//! quarantined as a typed `panic` failure instead).

use super::journal::{
    self, quarantine_json, JournalHeader, JournalState, JournalWriter, ShardRecord,
};
use super::shard::{read_shard_file, render_shard, shard_file_name, Section};
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
use mitra_hdt::Hdt;
use mitra_pool::{panic_message, parallel_map_catch};
use mitra_synth::budget::BudgetBreach;
use mitra_synth::fingerprint::{fingerprint, fnv1a, Fingerprint, FNV_OFFSET};
use mitra_synth::synthesize::{learn_transformation, Example, SynthError};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A typed document failure: its quarantine kind and error text.
type Failure = (FailureKind, String);

/// The trees a wave holds, by document index.  Each sits in a slot of its
/// own, which the document's execution empties, so the tree is freed while it
/// is still in cache and its memory goes straight to the next document.
/// Freeing a wave's trees together after its execution made the benchmark's
/// `corpus` runs about 14% slower (2-vCPU VM, one thread).
#[derive(Default)]
struct Trees(BTreeMap<usize, Mutex<Option<Hdt>>>);

impl Trees {
    fn keep(&mut self, doc: usize, tree: Hdt) {
        self.0.insert(doc, Mutex::new(Some(tree)));
    }

    /// Applies `f` to document `doc`'s tree, leaving it in its slot.
    fn with<R>(&self, doc: usize, f: impl FnOnce(&Hdt) -> R) -> Option<R> {
        // A slot is poisoned only by a panic while `f` read its tree, which
        // left the tree intact.
        let slot = self.0.get(&doc)?.lock();
        slot.unwrap_or_else(PoisonError::into_inner).as_ref().map(f)
    }

    /// Takes document `doc`'s tree out of its slot.
    fn take(&self, doc: usize) -> Option<Hdt> {
        let slot = self.0.get(&doc)?.lock();
        slot.unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// What the scan has learned so far.  Shapes are numbered in first-seen order,
/// so each shape's exemplar is its lowest-index document.
#[derive(Default)]
struct Scan {
    /// Per scanned document, in document order: its shape index, or the
    /// failure it is quarantined with (`malformed` with the parser's error, or
    /// `panic` if its slot panicked).
    shapes: Vec<Result<usize, Failure>>,
    /// Shape index by fingerprint.
    shape_of: HashMap<Fingerprint, usize>,
    /// Per shape: the per-task programs, or the failure every document of the
    /// shape inherits.
    programs: Vec<Result<Vec<Program>, Failure>>,
    /// `learn_transformation` calls that produced a program.
    programs_synthesized: usize,
}

impl Scan {
    /// Parses and fingerprints `docs`, the next unscanned documents, and
    /// numbers their new shapes, pushing each new shape's exemplar onto
    /// `exemplars`.  The exemplars' trees go into `trees`, and so does every
    /// tree when `keep` is set; the others are dropped here.
    fn extend(
        &mut self,
        job: &CorpusJob,
        docs: &[CorpusDoc<'_>],
        keep: bool,
        trees: &mut Trees,
        exemplars: &mut Vec<usize>,
    ) {
        let parsed = parallel_map_catch(job.config.threads, docs, |_, doc| {
            job.format
                .parse(doc.text)
                .map(|tree| (fingerprint(&tree), tree))
        });
        for (doc, slot) in docs.iter().zip(parsed) {
            self.shapes.push(match slot {
                Ok(Ok((fp, tree))) => {
                    let next = self.shape_of.len();
                    let shape = *self.shape_of.entry(fp).or_insert(next);
                    if shape == next {
                        exemplars.push(doc.index);
                    }
                    if keep || shape == next {
                        trees.keep(doc.index, tree);
                    }
                    Ok(shape)
                }
                Ok(Err(e)) => Err((FailureKind::Malformed, e.to_string())),
                Err(payload) => Err((FailureKind::Panic, payload.message)),
            });
        }
    }

    /// Learns the programs of the new shapes whose exemplars are `exemplars`,
    /// from the exemplars' trees.
    fn synthesize(&mut self, job: &CorpusJob, exemplars: &[usize], trees: &Trees) {
        let learned = parallel_map_catch(job.config.threads, exemplars, |_, &doc| {
            trees
                .with(doc, |tree| synthesize_shape(job, tree))
                .expect("the scan keeps every new exemplar's tree")
        });
        let mut programs = 0usize;
        for slot in learned {
            let (entry, count) =
                slot.unwrap_or_else(|payload| (Err((FailureKind::Panic, payload.message)), 0));
            programs += count;
            mitra_trace::counter_add!("cache.shape_programs.insert", 1);
            self.programs.push(entry);
        }
        self.programs_synthesized += programs;
        mitra_trace::counter_add!("corpus.programs_synthesized", programs as u64);
    }
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
    // run fsyncs its header; a resume reads back the journaled shards).
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

    // Every completed shard's journal record and rows, by shard index.
    let mut completed: BTreeMap<usize, (ShardRecord, Vec<Section>)> = BTreeMap::new();
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
            if idx >= shard_count {
                continue;
            }
            if let Some(sections) = read_shard_file(&shards_dir, &record)? {
                completed.insert(idx, (record, sections));
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

    // Waves of one pending shard per worker: scan and synthesize, then
    // execute; each wave's results are journaled and persisted in shard order
    // before the next wave starts, so a crash loses at most one wave of work.
    let wave_size = mitra_pool::resolve(job.config.threads).max(1);
    let wave_count = pending.len().div_ceil(wave_size);
    let mut scan = Scan::default();
    let mut scanned_shards = 0usize;
    let mut synth_wall = Duration::ZERO;
    let mut exec_wall = Duration::ZERO;
    for (w, wave) in pending.chunks(wave_size).enumerate() {
        let last_wave = w + 1 == wave_count;
        let synth_start = Instant::now();
        let mut trees = Trees::default();
        let mut exemplars = Vec::new();
        let scan_span = mitra_trace::span("migrate", "corpus_scan");
        // The last wave scans to the end of the corpus, so every shape is
        // synthesized before the `synth` record.
        let scan_end = if last_wave {
            shard_count
        } else {
            wave[wave.len() - 1] + 1
        };
        let in_wave = |shard: usize| wave.binary_search(&shard).is_ok();
        while scanned_shards < scan_end {
            // The wave's consecutive shards are scanned together; any other
            // (checkpointed) shard alone, so its trees go before the next
            // shard is parsed.
            let keep = in_wave(scanned_shards);
            let mut stop = scanned_shards + 1;
            while keep && stop < scan_end && in_wave(stop) {
                stop += 1;
            }
            let range = scanned_shards * shard_size..(stop * shard_size).min(docs.len());
            scan.extend(job, &docs[range], keep, &mut trees, &mut exemplars);
            scanned_shards = stop;
        }
        drop(scan_span);
        {
            let _span = mitra_trace::span("migrate", "corpus_synthesis");
            scan.synthesize(job, &exemplars, &trees);
        }
        if last_wave {
            writer.record(&format!(
                "{{\"kind\": \"synth\", \"shapes\": {}, \"programs\": {}}}",
                scan.programs.len(),
                scan.programs_synthesized
            ))?;
        }
        synth_wall += synth_start.elapsed();

        let exec_start = Instant::now();
        let results = parallel_map_catch(job.config.threads, wave, |_, &shard_idx| {
            run_shard(job, &schemas, &docs, shard_idx, shard_size, &scan, &trees)
        });
        drop(trees);
        let mut panicked: Option<(usize, String)> = None;
        for (&shard_idx, slot) in wave.iter().zip(results) {
            match slot {
                Ok(output) => {
                    let done = persist_shard(&shards_dir, &mut writer, shard_idx, output)?;
                    completed.insert(shard_idx, done);
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
        exec_wall += exec_start.elapsed();
        if let Some((shard, message)) = panicked {
            return Err(CorpusError::ShardPanicked { shard, message });
        }
    }
    let (shapes, programs_synthesized) = if pending.is_empty() {
        prior_synth.unwrap_or((0, 0))
    } else {
        (scan.programs.len(), scan.programs_synthesized)
    };

    // Assembly: concatenate the completed shards' rows in shard order.  Fresh
    // and resumed shards share this path, so byte-identity of the final
    // tables does not depend on which shards were replayed.
    let assemble_span = mitra_trace::span("migrate", "corpus_assemble");
    let mut table_csvs: Vec<String> = Vec::with_capacity(tables.len());
    let mut built: Vec<Table> = Vec::with_capacity(tables.len());
    for schema in &schemas {
        let columns = schema.column_names();
        let mut csv = String::new();
        write_csv_row(&mut csv, &columns);
        table_csvs.push(csv);
        built.push(Table::new(columns));
    }
    let mut quarantined: Vec<QuarantineRecord> = Vec::new();
    let mut ok_docs = 0usize;
    let mut retried = 0u64;
    for (shard_idx, (record, sections)) in completed {
        ok_docs += record.ok;
        retried += record.retried;
        quarantined.extend(record.quarantined);
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
            let table = &mut built[t];
            for cells in rows {
                if cells.len() != table.arity() {
                    return Err(CorpusError::Corpus(format!(
                        "table {name}: a shard row has {} cells, expected {}",
                        cells.len(),
                        table.arity()
                    )));
                }
                write_csv_row(&mut table_csvs[t], &cells);
                table.push(cells.into_iter().map(Value::from).collect());
            }
        }
    }
    let table_rows: Vec<(String, usize)> = tables
        .iter()
        .zip(&built)
        .map(|(name, table)| (name.clone(), table.len()))
        .collect();
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

/// Learns the per-task programs for one shape from its exemplar's tree.
/// Returns the shape's entry plus the number of `learn_transformation` calls
/// that produced a program.
fn synthesize_shape(job: &CorpusJob, tree: &Hdt) -> (Result<Vec<Program>, Failure>, usize) {
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
                let expected = oracle(tree).ok_or_else(|| {
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
    trees: &Trees,
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
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            process_doc(job, schemas, *doc, scan, trees)
        }));
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
    trees: &Trees,
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
    let tree = trees
        .take(doc.index)
        .expect("the scan keeps the tree of every document in its wave");

    let prefix = format!("d{}_", doc.index);
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
                    |key, spec| namespace_key(key, spec, &prefix),
                )?;
                Ok(rows
                    .into_iter()
                    .map(|row| row.into_iter().map(into_cell).collect())
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

/// A value's shard-file cell: a `Str`'s own string, any other value rendered.
fn into_cell(value: Value) -> String {
    match value {
        Value::Str(s) => s,
        other => other.render(),
    }
}

/// Namespaces node-identity keys per document: `node_key` joins node ids that
/// are only unique *within* one tree, so synthetic primary keys and the
/// foreign keys that re-derive them get a `d<doc>_` prefix to stay injective
/// across the concatenated corpus.  Data-derived keys pass through untouched.
/// The document's `prefix` goes into the key's own string.
fn namespace_key(value: Value, spec: &KeySpec, prefix: &str) -> Value {
    match (value, spec) {
        (v, KeySpec::FromColumn(_)) => v,
        (Value::Str(mut s), _) => {
            s.insert_str(0, prefix);
            Value::Str(s)
        }
        (v, _) => v,
    }
}

/// Writes one executed shard's file, fsyncs it, and journals its record
/// followed by a non-compared `timing` record, both with one write and one
/// fsync.  Returns the record and the shard's rows.
fn persist_shard(
    shards_dir: &Path,
    writer: &mut JournalWriter,
    shard_idx: usize,
    output: ShardOutput,
) -> Result<(ShardRecord, Vec<Section>), CorpusError> {
    let _span =
        mitra_trace::span_detail("migrate", "corpus_persist_shard", || shard_idx.to_string());
    let shard_start = Instant::now();
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
        rows: sections
            .iter()
            .map(|(name, rows)| (name.clone(), rows.len()))
            .collect(),
        quarantined,
        result_hash: fnv1a(FNV_OFFSET, text.as_bytes()),
    };
    let timing = format!(
        "{{\"kind\": \"timing\", \"shard\": {shard_idx}, \"secs\": {:.6}}}",
        shard_start.elapsed().as_secs_f64()
    );
    writer.record_all(&[&record.to_json_line(), &timing])?;
    mitra_trace::counter_add!("corpus.docs", record.docs as u64);
    mitra_trace::counter_add!("corpus.quarantined", record.quarantined.len() as u64);
    mitra_trace::counter_add!("corpus.retried", record.retried);
    Ok((record, sections))
}
