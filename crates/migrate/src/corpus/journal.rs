//! The append-only checkpoint journal (`journal.jsonl`).
//!
//! One JSON record per line, every record with a **fixed field order** so the
//! journal of an uninterrupted run is byte-deterministic at every thread count
//! (shards are journaled in shard order).  Timings are carried by separate
//! `timing` records — never inside the comparable `header`/`shard`/`complete`
//! payloads — so byte-identity probes can filter them out mechanically.
//!
//! Record kinds ([`load_journal`] reads them by kind, wherever they sit):
//!
//! * `header`  — corpus identity (FNV hash, doc count, shard layout, tables);
//!   written once at the start of a fresh run, validated on resume.
//! * `synth`   — the shape and program counts of the whole corpus, journaled
//!   by the last execution wave once its scan has reached the corpus end,
//!   before that wave's `shard` records, so a resume that finds no pending
//!   shard still finds it.
//! * `shard`   — one per completed shard, fsync'd before the next wave starts:
//!   per-table row counts, quarantine records, and the FNV hash of the written
//!   shard file, so resume can verify the checkpoint survived the crash.
//! * `timing`  — wall-clock seconds spent persisting one shard (rendering,
//!   writing and fsyncing its file; the journal write is not counted).  It
//!   shares its `shard` record's write and fsync, is not compared, and resume
//!   never reads it.
//! * `complete` — terminal record of a finished run.

use super::{io_err, CorpusError, FailureKind, QuarantineRecord};
use mitra_hdt::json::json_string;
use mitra_hdt::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Renders one quarantine record with fixed field order — the exact line
/// format of the failure ledger.
pub(crate) fn quarantine_json(q: &QuarantineRecord) -> String {
    format!(
        "{{\"doc\": {}, \"offset\": {}, \"kind\": {}, \"error\": {}, \"attempts\": {}}}",
        q.doc,
        q.offset,
        json_string(q.kind.label()),
        json_string(&q.error),
        q.attempts
    )
}

/// The parsed `header` record of a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Journal format version.
    pub version: u64,
    /// Document format label (`xml` / `json` / `html`).
    pub format: String,
    /// FNV-1a hash of the whole corpus text.
    pub corpus_hash: u64,
    /// Documents in the corpus.
    pub docs: usize,
    /// Documents per shard.
    pub shard_size: usize,
    /// Total shards.
    pub shards: usize,
    /// Target table names, in task order.
    pub tables: Vec<String>,
}

impl JournalHeader {
    /// Renders the header record (fixed field order).
    pub fn to_json_line(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(|t| json_string(t)).collect();
        format!(
            "{{\"kind\": \"header\", \"version\": {}, \"format\": {}, \"corpus_hash\": \"{:016x}\", \
             \"docs\": {}, \"shard_size\": {}, \"shards\": {}, \"tables\": [{}]}}",
            self.version,
            json_string(&self.format),
            self.corpus_hash,
            self.docs,
            self.shard_size,
            self.shards,
            tables.join(", ")
        )
    }
}

/// The journal record of one completed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Shard index.
    pub shard: usize,
    /// Documents in the shard.
    pub docs: usize,
    /// Documents that produced rows.
    pub ok: usize,
    /// Escalating-budget retry attempts made within the shard.
    pub retried: u64,
    /// Rows per table `(name, rows)`, in task order.
    pub rows: Vec<(String, usize)>,
    /// Quarantined documents of this shard, in document order.
    pub quarantined: Vec<QuarantineRecord>,
    /// FNV-1a hash of the shard result file's bytes.
    pub result_hash: u64,
}

impl ShardRecord {
    /// Renders the shard record (fixed field order, no timings).
    pub fn to_json_line(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, n)| format!("[{}, {n}]", json_string(name)))
            .collect();
        let quarantined: Vec<String> = self.quarantined.iter().map(quarantine_json).collect();
        format!(
            "{{\"kind\": \"shard\", \"shard\": {}, \"docs\": {}, \"ok\": {}, \"retried\": {}, \
             \"rows\": [{}], \"quarantined\": [{}], \"result_hash\": \"{:016x}\"}}",
            self.shard,
            self.docs,
            self.ok,
            self.retried,
            rows.join(", "),
            quarantined.join(", "),
            self.result_hash
        )
    }
}

/// Appends fsync'd records to `journal.jsonl`.  Every [`JournalWriter::record`]
/// call (or `record_all`, for several lines) writes its lines in one write and
/// `sync_data`s them, so a record observed by a resumed process is complete.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalWriter {
    /// Starts a fresh journal (truncates any previous one).
    pub fn create(path: &Path) -> Result<JournalWriter, CorpusError> {
        let file = File::create(path).map_err(io_err(path))?;
        let path = path.to_path_buf();
        Ok(JournalWriter { file, path })
    }

    /// Opens an existing journal for appending (resume).  When a crash tore
    /// the last line (it has no `\n`), a newline ends it first, so the next
    /// record starts a line of its own instead of being glued to the garbage.
    pub fn append(path: &Path) -> Result<JournalWriter, CorpusError> {
        let io_err = io_err(path);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(&io_err)?;
        let len = file.metadata().map_err(&io_err)?.len();
        if len > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::Start(len - 1)).map_err(&io_err)?;
            file.read_exact(&mut last).map_err(&io_err)?;
            if last != *b"\n" {
                // Appending writes at the end whatever the read position.
                file.write_all(b"\n").map_err(&io_err)?;
            }
        }
        let path = path.to_path_buf();
        Ok(JournalWriter { file, path })
    }

    /// Appends one record line and fsyncs it to disk.
    pub fn record(&mut self, line: &str) -> Result<(), CorpusError> {
        self.record_all(&[line])
    }

    /// Appends record lines with one write and one fsync.
    pub(crate) fn record_all(&mut self, lines: &[&str]) -> Result<(), CorpusError> {
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        let io_err = io_err(&self.path);
        self.file.write_all(text.as_bytes()).map_err(&io_err)?;
        self.file.sync_data().map_err(&io_err)?;
        Ok(())
    }
}

/// Everything a resume needs from a journal: the header, the completed shards
/// (last record per shard wins), the synthesis counts, and whether the run
/// already completed.
#[derive(Debug, Clone)]
pub struct JournalState {
    /// The validated header record.
    pub header: JournalHeader,
    /// Completed shards by index.
    pub shards: BTreeMap<usize, ShardRecord>,
    /// `(shapes, programs_synthesized)` from the synth record, if present.
    pub synth: Option<(usize, usize)>,
    /// True when a `complete` record was journaled.
    pub complete: bool,
}

fn num_u64(v: &JsonValue) -> Option<u64> {
    match v {
        JsonValue::Number(n) if *n >= 0.0 => Some(*n as u64),
        _ => None,
    }
}

fn field_u64(obj: &JsonValue, key: &str) -> Result<u64, CorpusError> {
    obj.get(key)
        .and_then(num_u64)
        .ok_or_else(|| CorpusError::Journal(format!("record missing numeric field `{key}`")))
}

fn field_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str, CorpusError> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CorpusError::Journal(format!("record missing string field `{key}`")))
}

fn field_hex(obj: &JsonValue, key: &str) -> Result<u64, CorpusError> {
    let s = field_str(obj, key)?;
    u64::from_str_radix(s, 16)
        .map_err(|_| CorpusError::Journal(format!("field `{key}` is not a hex hash: {s:?}")))
}

fn parse_quarantine(v: &JsonValue) -> Result<QuarantineRecord, CorpusError> {
    let kind = field_str(v, "kind")?;
    let kind = FailureKind::from_label(kind)
        .ok_or_else(|| CorpusError::Journal(format!("unknown failure kind {kind:?}")))?;
    Ok(QuarantineRecord {
        doc: field_u64(v, "doc")? as usize,
        offset: field_u64(v, "offset")? as usize,
        kind,
        error: field_str(v, "error")?.to_string(),
        attempts: field_u64(v, "attempts")? as u32,
    })
}

fn parse_shard(v: &JsonValue) -> Result<ShardRecord, CorpusError> {
    let rows = match v.get("rows") {
        Some(JsonValue::Array(entries)) => {
            let mut rows = Vec::with_capacity(entries.len());
            for e in entries {
                let JsonValue::Array(pair) = e else {
                    return Err(CorpusError::Journal("shard row entry is not a pair".into()));
                };
                let (Some(name), Some(n)) = (
                    pair.first().and_then(JsonValue::as_str),
                    pair.get(1).and_then(num_u64),
                ) else {
                    return Err(CorpusError::Journal("shard row entry is not a pair".into()));
                };
                rows.push((name.to_string(), n as usize));
            }
            rows
        }
        _ => return Err(CorpusError::Journal("shard record missing `rows`".into())),
    };
    let quarantined = match v.get("quarantined") {
        Some(JsonValue::Array(entries)) => entries
            .iter()
            .map(parse_quarantine)
            .collect::<Result<Vec<_>, _>>()?,
        _ => {
            return Err(CorpusError::Journal(
                "shard record missing `quarantined`".into(),
            ))
        }
    };
    Ok(ShardRecord {
        shard: field_u64(v, "shard")? as usize,
        docs: field_u64(v, "docs")? as usize,
        ok: field_u64(v, "ok")? as usize,
        retried: field_u64(v, "retried")?,
        rows,
        quarantined,
        result_hash: field_hex(v, "result_hash")?,
    })
}

/// Loads and parses a journal file.  Unknown record kinds are ignored (forward
/// compatibility); a trailing partial line — possible if the crash hit mid
/// `write` — is tolerated and discarded, which is safe because a record only
/// *gains* effect once fully written and parseable.
pub fn load_journal(path: &Path) -> Result<JournalState, CorpusError> {
    let text = std::fs::read_to_string(path).map_err(io_err(path))?;
    let mut header: Option<JournalHeader> = None;
    let mut shards: BTreeMap<usize, ShardRecord> = BTreeMap::new();
    let mut synth: Option<(usize, usize)> = None;
    let mut complete = false;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = parse_json(line) else {
            // A torn final record from the crash; everything before it is
            // intact because each record was fsync'd separately.
            continue;
        };
        let kind = value.get("kind").and_then(JsonValue::as_str).unwrap_or("");
        match kind {
            "header" => {
                let tables = match value.get("tables") {
                    Some(JsonValue::Array(entries)) => entries
                        .iter()
                        .map(|t| {
                            t.as_str().map(str::to_string).ok_or_else(|| {
                                CorpusError::Journal("header table name is not a string".into())
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(CorpusError::Journal("header missing `tables`".into())),
                };
                header = Some(JournalHeader {
                    version: field_u64(&value, "version")?,
                    format: field_str(&value, "format")?.to_string(),
                    corpus_hash: field_hex(&value, "corpus_hash")?,
                    docs: field_u64(&value, "docs")? as usize,
                    shard_size: field_u64(&value, "shard_size")? as usize,
                    shards: field_u64(&value, "shards")? as usize,
                    tables,
                });
            }
            "shard" => {
                let record = parse_shard(&value)?;
                shards.insert(record.shard, record);
            }
            "synth" => {
                synth = Some((
                    field_u64(&value, "shapes")? as usize,
                    field_u64(&value, "programs")? as usize,
                ));
            }
            "complete" => complete = true,
            _ => {}
        }
    }
    let header = header.ok_or_else(|| CorpusError::Journal("journal has no header".into()))?;
    Ok(JournalState {
        header,
        shards,
        synth,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ShardRecord {
        ShardRecord {
            shard: 3,
            docs: 32,
            ok: 30,
            retried: 2,
            rows: vec![("customer".into(), 61), ("purchase".into(), 95)],
            quarantined: vec![QuarantineRecord {
                doc: 100,
                offset: 4523,
                kind: FailureKind::Malformed,
                error: "xml parse error: unexpected \"end\"".into(),
                attempts: 1,
            }],
            result_hash: 0x0123_4567_89ab_cdef,
        }
    }

    #[test]
    fn records_round_trip_through_the_journal() {
        let dir = std::env::temp_dir().join(format!("mitra-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let header = JournalHeader {
            version: 1,
            format: "xml".into(),
            corpus_hash: 0xdead_beef_0000_0001,
            docs: 200,
            shard_size: 32,
            shards: 7,
            tables: vec!["customer".into(), "purchase".into()],
        };
        let record = sample_record();
        {
            let mut w = JournalWriter::create(&path).unwrap();
            w.record(&header.to_json_line()).unwrap();
            w.record("{\"kind\": \"synth\", \"shapes\": 2, \"programs\": 4}")
                .unwrap();
            w.record(&record.to_json_line()).unwrap();
            w.record("{\"kind\": \"timing\", \"shard\": 3, \"secs\": 0.125}")
                .unwrap();
        }
        // A torn trailing record must not poison the intact prefix.
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.record("{\"kind\": \"shard\", \"shard\": 4, \"do")
                .unwrap();
        }
        let state = load_journal(&path).unwrap();
        assert_eq!(state.header, header);
        assert_eq!(state.synth, Some((2, 4)));
        assert!(!state.complete);
        assert_eq!(state.shards.len(), 1);
        assert_eq!(state.shards[&3], record);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_resume_after_a_torn_tail_keeps_its_first_record() {
        let dir = std::env::temp_dir().join(format!("mitra-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let header = JournalHeader {
            version: 1,
            format: "xml".into(),
            corpus_hash: 7,
            docs: 2,
            shard_size: 1,
            shards: 2,
            tables: vec!["t".into()],
        };
        // The crash tore the shard record mid-line: no newline follows it.
        let torn = format!(
            "{}\n{{\"kind\": \"shard\", \"shard\": 0, \"do",
            header.to_json_line()
        );
        std::fs::write(&path, torn).unwrap();
        let mut w = JournalWriter::append(&path).unwrap();
        w.record("{\"kind\": \"synth\", \"shapes\": 2, \"programs\": 4}")
            .unwrap();
        let state = load_journal(&path).unwrap();
        assert_eq!(state.header, header);
        assert_eq!(state.synth, Some((2, 4)));
        assert!(state.shards.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_lines_use_fixed_field_order() {
        let line = sample_record().to_json_line();
        let shard_pos = line.find("\"shard\"").unwrap();
        let rows_pos = line.find("\"rows\"").unwrap();
        let q_pos = line.find("\"quarantined\"").unwrap();
        let hash_pos = line.find("\"result_hash\"").unwrap();
        assert!(shard_pos < rows_pos && rows_pos < q_pos && q_pos < hash_pos);
        assert!(!line.contains("secs"), "no timings in shard records");
        assert!(line.contains("\"result_hash\": \"0123456789abcdef\""));
    }
}
