//! Per-shard result files (`shards/shard-NNNNNN.tbl`).
//!
//! Each completed shard persists its rows to one file, the checkpoint a
//! resume continues from.  A run keeps the rows of the shards it executes in
//! memory and reads back only the shards a previous run journaled, each file
//! once (`read_shard_file`); final tables concatenate the shards' rows in
//! shard order either way.  Because [`parse_shard`] inverts [`render_shard`],
//! a shard's rows are the same whichever way they arrive, so the assembled
//! tables are the same on every path — fresh run, crash-resume, any thread
//! count.  The format is CSV grouped into `#table <name>` sections, one
//! section per task table **in task order** (present even when empty, so the
//! section layout is a pure function of the job).  Rows use the workspace CSV
//! codec ([`mitra_dsl::table`]), so a cell holding a raw newline is quoted and
//! may span lines, and a cell starting with `#` is quoted too; the reader is
//! quote-aware and only recognizes a `#table` line where a record starts, so
//! no row reads back as a section header.

use super::journal::ShardRecord;
use super::CorpusError;
use mitra_dsl::table::{read_csv_record, write_csv_row};
use mitra_synth::fingerprint::{fnv1a, FNV_OFFSET};
use std::path::Path;

/// One shard section: a table name and its rows as rendered cell text.
pub type Section = (String, Vec<Vec<String>>);

/// The file name of shard `i` (fixed width so lexicographic = numeric order).
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:06}.tbl")
}

/// Renders a shard's sections (in task order) as the shard file text.
pub fn render_shard(sections: &[Section]) -> String {
    let mut out = String::new();
    for (table, rows) in sections {
        out.push_str("#table ");
        out.push_str(table);
        out.push('\n');
        for row in rows {
            write_csv_row(&mut out, row);
        }
    }
    out
}

/// Parses a shard file back into its sections; the inverse of
/// [`render_shard`].
pub fn parse_shard(text: &str) -> Result<Vec<Section>, CorpusError> {
    let mut sections: Vec<Section> = Vec::new();
    let mut pos = 0;
    while pos < text.len() {
        if let Some(rest) = text[pos..].strip_prefix("#table ") {
            let name = rest.split('\n').next().unwrap_or_default();
            sections.push((name.to_string(), Vec::new()));
            pos = (pos + "#table ".len() + name.len() + 1).min(text.len());
            continue;
        }
        let start = pos;
        let row = read_csv_record(text, &mut pos)
            .ok_or_else(|| CorpusError::Corpus("shard file: unterminated quoted cell".into()))?;
        match sections.last_mut() {
            Some((_, rows)) => rows.push(row),
            None => {
                return Err(CorpusError::Corpus(format!(
                    "shard file row before any #table section: {:?}",
                    &text[start..pos]
                )))
            }
        }
    }
    Ok(sections)
}

/// Reads a journaled shard's file once: `None` when the file cannot be read or
/// no longer hashes to the record's `result_hash` (resume re-runs such a
/// shard), else the sections it holds.
pub(crate) fn read_shard_file(
    shards_dir: &Path,
    record: &ShardRecord,
) -> Result<Option<Vec<Section>>, CorpusError> {
    let path = shards_dir.join(shard_file_name(record.shard));
    let bytes = match std::fs::read(&path) {
        Ok(bytes) if fnv1a(FNV_OFFSET, &bytes) == record.result_hash => bytes,
        _ => return Ok(None),
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| CorpusError::Corpus(format!("shard file {} is not UTF-8", path.display())))?;
    parse_shard(&text).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(row: &[&str]) -> Vec<String> {
        row.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn shard_file_names_sort_numerically() {
        assert_eq!(shard_file_name(0), "shard-000000.tbl");
        assert_eq!(shard_file_name(123), "shard-000123.tbl");
        assert!(shard_file_name(9) < shard_file_name(10));
    }

    #[test]
    fn render_and_parse_round_trip() {
        let sections = vec![
            (
                "customer".to_string(),
                vec![
                    cells(&["d0_1", "alice", "2"]),
                    cells(&["d1_1", "a,b", "3"]),
                    cells(&["d2_1", "a\nb", "say \"hi\""]),
                    cells(&["d3_1", "#table x", ""]),
                    cells(&["#table y", "d4_1", "4"]),
                ],
            ),
            ("purchase".to_string(), Vec::new()),
        ];
        let text = render_shard(&sections);
        assert_eq!(parse_shard(&text).unwrap(), sections);
    }

    #[test]
    fn empty_sections_are_preserved() {
        let sections = vec![("a".to_string(), Vec::new()), ("b".to_string(), Vec::new())];
        let parsed = parse_shard(&render_shard(&sections)).unwrap();
        assert_eq!(parsed, sections);
    }

    #[test]
    fn rows_before_a_section_and_open_quotes_are_rejected() {
        assert!(parse_shard("x,y\n#table t\n").is_err());
        assert!(parse_shard("#table t\n\"x,y\n").is_err());
    }
}
