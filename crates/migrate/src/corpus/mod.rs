//! Checkpointed corpus migration service (DESIGN.md §12).
//!
//! `mitra-synth` learns one program in seconds and executes it in milliseconds;
//! a corpus-scale migration (many documents sharing a handful of shapes) must
//! therefore synthesize **once per shape** and stream the learned programs over
//! every document.  This module is the long-running service around that split:
//!
//! * **Synthesis once per shape** — one scan fingerprints each document
//!   ([`mitra_synth::fingerprint()`]) and numbers the distinct shapes, and
//!   synthesis runs once per shape, not once per document.  The scan advances
//!   wave by wave and hands each wave's trees to its execution, so every
//!   document is parsed once.
//! * **Deterministic sharding** — documents are processed in fixed-size shards,
//!   fanned across `mitra-pool` in waves, with per-shard result tables and a
//!   canonical-order concatenation, so the assembled tables are byte-identical
//!   at every thread count.
//! * **Checkpointing** — an append-only journal ([`journal`]) records one
//!   fsync'd record per completed shard; [`run::resume`] replays only
//!   unfinished shards and produces artifacts byte-identical to an
//!   uninterrupted run.
//! * **Quarantine** — documents that fail with typed errors (malformed parse,
//!   budget exhaustion, panic-isolated workers) land in a failure ledger with
//!   error text and byte offset; `BudgetExhausted` documents are retried with
//!   deterministically escalating fuel budgets before being quarantined.
//!
//! All comparable artifacts (assembled tables, failure ledger, `summary.json`)
//! use fixed field order and carry **no timings**; wall-clock numbers live in
//! `timings.json` and journal `timing` records, which byte-identity probes
//! ignore.

pub mod journal;
pub mod run;
pub mod shard;

use crate::keys::KeySpec;
use crate::migrate::{validate_tasks, MigrationError};
use crate::schema::Schema;
use mitra_dsl::{Program, Table};
use mitra_hdt::json::json_string;
use mitra_hdt::Hdt;
use mitra_synth::synthesize::SynthConfig;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

pub use journal::{JournalHeader, JournalState, JournalWriter, ShardRecord};
pub use mitra_hdt::DocFormat;
pub use run::{resume, run};

/// A pure function from a parsed document to the expected output table for one
/// target table — the corpus-side analogue of a per-document input–output
/// example.  Returning `None` marks the shape unsynthesizable for this table.
pub type ExampleOracle = Arc<dyn Fn(&Hdt) -> Option<Table> + Send + Sync>;

/// How the data columns of one corpus table are obtained.
#[derive(Clone)]
pub enum CorpusTableSource {
    /// A DSL program known up front (applied to every shape unchanged).
    Program(Program),
    /// An oracle that builds the expected output for a shape's exemplar
    /// document; a program is synthesized from that example once per shape.
    Oracle(ExampleOracle),
}

impl fmt::Debug for CorpusTableSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusTableSource::Program(p) => f.debug_tuple("Program").field(p).finish(),
            CorpusTableSource::Oracle(_) => f.write_str("Oracle(..)"),
        }
    }
}

/// Description of how to populate one table of the target schema from every
/// document of the corpus.  Mirrors [`crate::migrate::TableTask`].
#[derive(Debug, Clone)]
pub struct CorpusTask {
    /// Name of the target table (must exist in the schema).
    pub table: String,
    /// Where the data columns come from.
    pub source: CorpusTableSource,
    /// Key specifications `(column name, spec)` for the key columns, in schema
    /// order.  Synthetic and foreign keys are namespaced per document (prefix
    /// `d<doc>_`) so they stay injective across the concatenated corpus.
    pub keys: Vec<(String, KeySpec)>,
    /// The schema columns (by name, in order) the program's output maps to.
    pub data_columns: Vec<String>,
}

/// Deterministic retry policy for `BudgetExhausted` documents: fuel-based,
/// never wall-clock, so retry outcomes are identical at any thread count.
/// Attempt `k` (1-based) runs with `synth.budget.max_rows * 4^(k-1)` row fuel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per document (first try included).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Fuel multiplier applied on each retry.
    pub(crate) const ESCALATION: u64 = 4;
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Knobs of a corpus run.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Documents per shard (the checkpoint granularity).
    pub shard_size: usize,
    /// Worker threads for scanning and shard execution (`0` = process-global).
    pub threads: usize,
    /// Synthesis configuration used for oracle-sourced tables.  Its
    /// `budget.max_rows` is the row fuel of one document's execution (`None`
    /// = unlimited; retries escalate from this base), the field
    /// `MigrationPlan` executes under too; synthesis never reads it.
    pub synth: SynthConfig,
    /// Retry policy for budget-exhausted documents.
    pub retry: RetryPolicy,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            shard_size: 32,
            threads: 0,
            synth: SynthConfig::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// A full corpus job: target schema, per-table tasks, document format, knobs.
#[derive(Debug, Clone)]
pub struct CorpusJob {
    /// The target relational schema.
    pub schema: Schema,
    /// Per-table population tasks (every document feeds every table).
    pub tasks: Vec<CorpusTask>,
    /// Format every corpus document is parsed as.
    pub format: DocFormat,
    /// Run configuration.
    pub config: CorpusConfig,
}

impl CorpusJob {
    /// Validates schema and tasks without running (mirrors
    /// [`crate::migrate::MigrationPlan::validate`]).
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

    /// The target table names, in task order (the canonical table order of
    /// every shard file and journal record).
    pub fn table_names(&self) -> Vec<String> {
        self.tasks.iter().map(|t| t.table.clone()).collect()
    }
}

/// Why a document was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The document failed to parse in the corpus format.
    Malformed,
    /// A deterministic fuel budget ran out (after retries).
    Budget,
    /// A worker panicked while processing the document (panic-isolated).
    Panic,
    /// Synthesis failed for the document's shape.
    Synthesis,
}

impl FailureKind {
    /// Stable lowercase label used in the failure ledger and journal.
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Malformed => "malformed",
            FailureKind::Budget => "budget-exhausted",
            FailureKind::Panic => "panic",
            FailureKind::Synthesis => "synthesis",
        }
    }

    /// Inverse of [`FailureKind::label`].
    pub fn from_label(label: &str) -> Option<FailureKind> {
        match label {
            "malformed" => Some(FailureKind::Malformed),
            "budget-exhausted" => Some(FailureKind::Budget),
            "panic" => Some(FailureKind::Panic),
            "synthesis" => Some(FailureKind::Synthesis),
            _ => None,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One quarantined document: identity, typed failure, and how hard we tried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Document index within the corpus (0-based, comment/blank lines skipped).
    pub doc: usize,
    /// Byte offset of the document's line start within the corpus file.
    pub offset: usize,
    /// Typed failure kind.
    pub kind: FailureKind,
    /// Human-readable error text.
    pub error: String,
    /// Attempts made (>1 only for escalating budget retries).
    pub attempts: u32,
}

/// One document of a parsed corpus: index, byte offset of its line start, text.
#[derive(Debug, Clone, Copy)]
pub struct CorpusDoc<'a> {
    /// 0-based document index (comment and blank lines are not documents).
    pub index: usize,
    /// Byte offset of the line start within the corpus text.
    pub offset: usize,
    /// The document source (one line).
    pub text: &'a str,
}

/// Splits corpus text into documents: one document per line; blank lines and
/// `#`-prefixed lines (such as a leading `#mitra-corpus` line) are skipped.
/// Offsets are byte offsets of line starts, so ledger entries point back into
/// the corpus file.
pub fn parse_corpus_text(text: &str) -> Vec<CorpusDoc<'_>> {
    let mut docs = Vec::new();
    let mut offset = 0usize;
    for line in text.split('\n') {
        let start = offset;
        offset += line.len() + 1;
        let trimmed = line.trim_end_matches('\r');
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        docs.push(CorpusDoc {
            index: docs.len(),
            offset: start,
            text: trimmed,
        });
    }
    docs
}

/// Errors of the corpus service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// Path involved.
        path: String,
        /// Rendered `std::io::Error`.
        error: String,
    },
    /// The corpus text or a shard file is unusable.
    Corpus(String),
    /// The checkpoint journal is missing, corrupt, or inconsistent with the
    /// corpus being resumed.
    Journal(String),
    /// The job failed validation against its schema.
    Plan(MigrationError),
    /// A shard worker panicked (e.g. an injected `MITRA_FAULT`); completed
    /// shards of the wave were journaled first, so `resume` can continue.
    ShardPanicked {
        /// The shard whose worker panicked.
        shard: usize,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, error } => write!(f, "io error on {path}: {error}"),
            CorpusError::Corpus(m) => write!(f, "invalid corpus: {m}"),
            CorpusError::Journal(m) => write!(f, "journal error: {m}"),
            CorpusError::Plan(e) => write!(f, "invalid corpus job: {e}"),
            CorpusError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// Maps an I/O failure on `path` to [`CorpusError::Io`].
pub(crate) fn io_err(path: &Path) -> impl Fn(std::io::Error) -> CorpusError + '_ {
    move |e| CorpusError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    }
}

/// The result of a corpus run: counts for the comparable summary plus
/// wall-clock timings (reported separately, never in comparable payloads).
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Documents in the corpus.
    pub docs: usize,
    /// Documents that produced rows in every table.
    pub ok_docs: usize,
    /// Total shards.
    pub shards: usize,
    /// Distinct document shapes observed.
    pub shapes: usize,
    /// `learn_transformation` calls made (once per shape × oracle table).
    pub programs_synthesized: usize,
    /// Shards skipped on resume because the journal already recorded them.
    pub resumed_shards: usize,
    /// Escalating-budget retry attempts made.
    pub retried: u64,
    /// Quarantined documents, in document order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Rows per table `(name, rows)`, in task order.
    pub table_rows: Vec<(String, usize)>,
    /// Constraint violations in the assembled database.
    pub violations: usize,
    /// Wall clock of scanning and synthesis, summed over the execution waves
    /// (each wave scans and synthesizes before it executes).
    pub synth_wall: Duration,
    /// Wall clock of shard execution and persistence, summed over the waves.
    pub exec_wall: Duration,
    /// Wall clock of the whole run.
    pub wall: Duration,
}

impl CorpusReport {
    /// Total rows across tables.
    pub fn total_rows(&self) -> usize {
        self.table_rows.iter().map(|(_, n)| n).sum()
    }

    /// The comparable summary: fixed field order, **no timings** and no
    /// resume-dependent fields, so an interrupted+resumed run renders the
    /// byte-identical summary of an uninterrupted run.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"docs\": {},\n", self.docs));
        out.push_str(&format!("  \"ok_docs\": {},\n", self.ok_docs));
        out.push_str(&format!("  \"quarantined\": {},\n", self.quarantined.len()));
        out.push_str(&format!("  \"retried\": {},\n", self.retried));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"shapes\": {},\n", self.shapes));
        out.push_str(&format!(
            "  \"programs_synthesized\": {},\n",
            self.programs_synthesized
        ));
        out.push_str("  \"tables\": [");
        for (i, (name, rows)) in self.table_rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{}, {rows}]", json_string(name)));
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"violations\": {}\n", self.violations));
        out.push_str("}\n");
        out
    }

    /// The non-compared timing block: wall clocks, throughput rates, and the
    /// resume-dependent shard count.
    pub fn timings_json(&self) -> String {
        let wall = self.wall.as_secs_f64().max(f64::EPSILON);
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"wall_secs\": {:.6},\n",
            self.wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"synth_secs\": {:.6},\n",
            self.synth_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"exec_secs\": {:.6},\n",
            self.exec_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "  \"docs_per_sec\": {:.3},\n",
            self.docs as f64 / wall
        ));
        out.push_str(&format!(
            "  \"rows_per_sec\": {:.3},\n",
            self.total_rows() as f64 / wall
        ));
        out.push_str(&format!("  \"resumed_shards\": {}\n", self.resumed_shards));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_text_parsing_skips_comments_and_tracks_offsets() {
        let text = "#mitra-corpus v1 format=xml seed=7\n<a/>\n\n# note\n<b>x</b>\n";
        let docs = parse_corpus_text(text);
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].index, 0);
        assert_eq!(docs[0].text, "<a/>");
        assert_eq!(&text[docs[0].offset..docs[0].offset + 4], "<a/>");
        assert_eq!(docs[1].index, 1);
        assert_eq!(&text[docs[1].offset..docs[1].offset + 8], "<b>x</b>");
    }

    #[test]
    fn failure_kind_labels_round_trip() {
        for kind in [
            FailureKind::Malformed,
            FailureKind::Budget,
            FailureKind::Panic,
            FailureKind::Synthesis,
        ] {
            assert_eq!(FailureKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(FailureKind::from_label("nope"), None);
    }

    #[test]
    fn summary_json_has_fixed_field_order_and_no_timings() {
        let report = CorpusReport {
            docs: 10,
            ok_docs: 9,
            shards: 2,
            shapes: 1,
            programs_synthesized: 2,
            resumed_shards: 1,
            retried: 3,
            quarantined: vec![QuarantineRecord {
                doc: 4,
                offset: 123,
                kind: FailureKind::Malformed,
                error: "boom".into(),
                attempts: 1,
            }],
            table_rows: vec![("customer".into(), 20), ("purchase".into(), 31)],
            violations: 0,
            synth_wall: Duration::from_millis(5),
            exec_wall: Duration::from_millis(7),
            wall: Duration::from_millis(13),
        };
        let summary = report.summary_json();
        assert!(
            !summary.contains("secs"),
            "no timings in comparable payload"
        );
        assert!(!summary.contains("resumed"), "no resume-dependent fields");
        let docs_pos = summary.find("\"docs\"").unwrap();
        let tables_pos = summary.find("\"tables\"").unwrap();
        let violations_pos = summary.find("\"violations\"").unwrap();
        assert!(docs_pos < tables_pos && tables_pos < violations_pos);
        assert!(summary.contains("[\"customer\", 20], [\"purchase\", 31]"));
        let timings = report.timings_json();
        assert!(timings.contains("\"docs_per_sec\""));
        assert!(timings.contains("\"resumed_shards\": 1"));
    }
}
