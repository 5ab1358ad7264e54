//! Bag-semantics relational tables.
//!
//! Per Section 4 of the paper, relational tables are bags (multisets) of tuples.  The
//! synthesizer compares an extracted table with the user-supplied output example under
//! bag semantics, so [`Table::same_bag`] counts multiplicities.

use crate::value::Value;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// A single row (tuple) of a relational table.
pub type Row = Vec<Value>;

/// A relational table: an optional list of column names plus a bag of rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Column names; empty when the table is anonymous (e.g. intermediate tables).
    pub columns: Vec<String>,
    /// The rows, in insertion order.
    pub rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Creates an anonymous table with `arity` unnamed columns.
    pub fn anonymous(arity: usize) -> Self {
        Table {
            columns: (0..arity).map(|i| format!("c{i}")).collect(),
            rows: Vec::new(),
        }
    }

    /// Builds a table from string literals; each inner slice is one row.
    ///
    /// Convenient for writing output examples in tests:
    /// `Table::from_rows(&["Person","Years"], &[&["Alice","3"]])`.
    pub fn from_rows(columns: &[&str], rows: &[&[&str]]) -> Self {
        Table {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|c| Value::from_data(c)).collect())
                .collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        if self.columns.is_empty() {
            self.rows.first().map(Vec::len).unwrap_or(0)
        } else {
            self.columns.len()
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics in debug builds if the row arity does not match the table arity.
    pub fn push(&mut self, row: Row) {
        debug_assert!(
            self.rows.is_empty() && self.columns.is_empty() || row.len() == self.arity(),
            "row arity {} does not match table arity {}",
            row.len(),
            self.arity()
        );
        self.rows.push(row);
    }

    /// The `i`'th column as a vector of values (the `column(R, i)` notation).
    pub fn column(&self, i: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r[i].clone()).collect()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// True when `row` occurs in this table at least once (bag membership).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        self.rows.iter().any(|r| r.as_slice() == row)
    }

    /// Multiplicity map of the rows (for bag-equality checks).
    fn counts(&self) -> HashMap<Vec<String>, usize> {
        let mut m: HashMap<Vec<String>, usize> = HashMap::with_capacity(self.rows.len());
        for r in &self.rows {
            let key: Vec<String> = r.iter().map(Value::render).collect();
            *m.entry(key).or_insert(0) += 1;
        }
        m
    }

    /// Bag equality: same rows with the same multiplicities, ignoring row order and
    /// column names.
    pub fn same_bag(&self, other: &Table) -> bool {
        self.rows.len() == other.rows.len() && self.counts() == other.counts()
    }

    /// Set containment: every row of `self` (ignoring multiplicity) appears in `other`.
    pub fn subset_of(&self, other: &Table) -> bool {
        let other_counts = other.counts();
        self.rows
            .iter()
            .all(|r| other_counts.contains_key(&r.iter().map(Value::render).collect::<Vec<_>>()))
    }

    /// Removes duplicate rows (set projection), keeping first occurrences.
    pub fn dedup(&mut self) {
        let mut seen: HashMap<Vec<String>, ()> = HashMap::new();
        self.rows.retain(|r| {
            let key: Vec<String> = r.iter().map(Value::render).collect();
            seen.insert(key, ()).is_none()
        });
    }

    /// Renders the table as CSV (columns header first when present), one
    /// [`write_csv_row`] record per row.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        if !self.columns.is_empty() {
            write_csv_row(&mut out, &self.columns);
        }
        for row in &self.rows {
            write_csv_row(&mut out, row.iter().map(Value::render));
        }
        out
    }
}

// The workspace's one CSV codec: every CSV writer and reader goes through
// `write_csv_row` and `read_csv_record`, so whatever one writes the others
// read back unchanged.

/// Escapes one CSV cell: cells holding `,` `"` `\n` `\r` or leading/trailing
/// whitespace, or starting with `#` (which would read as a corpus shard section
/// header at the start of a record), are wrapped in quotes with inner quotes
/// doubled; all others are written as they are.
fn csv_escape(cell: &str) -> Cow<'_, str> {
    let needs_quotes =
        cell.contains([',', '"', '\n', '\r']) || cell.trim() != cell || cell.starts_with('#');
    if needs_quotes {
        Cow::Owned(format!("\"{}\"", cell.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(cell)
    }
}

/// Appends one CSV record to `out`: the escaped cells joined by `,`, then
/// `\n`.
pub fn write_csv_row<S: AsRef<str>>(out: &mut String, cells: impl IntoIterator<Item = S>) {
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&csv_escape(cell.as_ref()));
    }
    out.push('\n');
}

/// Reads the CSV record that starts at byte `*pos` of `text` and advances
/// `*pos` past its terminating `\n` (or to the end of `text`); `None` when a
/// quoted cell never closes.
///
/// The inverse of [`write_csv_row`]: a cell whose first non-blank character is `"`
/// is quoted, may contain `,`, doubled quotes and raw newlines, and is kept
/// exactly.  Unquoted cells are trimmed, which also drops the `\r` of a CRLF
/// line end.
pub fn read_csv_record(text: &str, pos: &mut usize) -> Option<Vec<String>> {
    let mut cells = Vec::new();
    let mut rest = &text[*pos..];
    loop {
        let body = rest.trim_start_matches(|c: char| c != '\n' && c.is_whitespace());
        let (mut cell, after) = match body.strip_prefix('"') {
            Some(quoted) => read_quoted(quoted)?,
            None => (String::new(), body),
        };
        // Unquoted text, and any text after a closing quote, runs to the
        // next delimiter.
        let end = after.find([',', '\n']).unwrap_or(after.len());
        cell.push_str(after[..end].trim_end());
        cells.push(cell);
        rest = &after[end..];
        match rest.strip_prefix(',') {
            Some(next) => rest = next,
            None => break,
        }
    }
    *pos = text.len() - rest.strip_prefix('\n').unwrap_or(rest).len();
    Some(cells)
}

/// Reads a quoted cell's text up to its closing quote (`s` starts just after
/// the opening one), undoubling inner quotes; returns the text after it.
fn read_quoted(mut s: &str) -> Option<(String, &str)> {
    let mut cell = String::new();
    loop {
        let quote = s.find('"')?;
        cell.push_str(&s[..quote]);
        s = &s[quote + 1..];
        match s.strip_prefix('"') {
            Some(next) => {
                cell.push('"');
                s = next;
            }
            None => return Some((cell, s)),
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_rows(
            &["Person", "Friend-with", "years"],
            &[
                &["Alice", "Bob", "3"],
                &["Bob", "Alice", "3"],
                &["Alice", "Bob", "3"],
            ],
        )
    }

    #[test]
    fn arity_and_len() {
        let t = sample();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn column_extraction() {
        let t = sample();
        let col = t.column(0);
        assert_eq!(col.len(), 3);
        assert_eq!(col[0], Value::str("Alice"));
        assert_eq!(t.column_index("years"), Some(2));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn bag_equality_respects_multiplicity() {
        let a = sample();
        let mut b = sample();
        assert!(a.same_bag(&b));
        b.rows.pop();
        assert!(!a.same_bag(&b));
        // order does not matter
        let mut c = sample();
        c.rows.reverse();
        assert!(a.same_bag(&c));
    }

    #[test]
    fn bag_equality_uses_typed_values() {
        let a = Table::from_rows(&["x"], &[&["3"]]);
        let b = Table::from_rows(&["x"], &[&["3"]]);
        assert!(a.same_bag(&b));
    }

    #[test]
    fn subset_and_contains() {
        let a = Table::from_rows(&["x", "y"], &[&["1", "2"]]);
        let b = Table::from_rows(&["x", "y"], &[&["1", "2"], &["3", "4"]]);
        assert!(a.subset_of(&b));
        assert!(!b.subset_of(&a));
        assert!(b.contains_row(&[Value::int(3), Value::int(4)]));
        assert!(!b.contains_row(&[Value::int(3), Value::int(5)]));
    }

    #[test]
    fn dedup_removes_duplicates_only() {
        let mut t = sample();
        t.dedup();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_rendering_escapes() {
        let t = Table::from_rows(&["a"], &[&["x,y"], &["say \"hi\""]]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
        let headed = Table::from_rows(&["a,b", "c"], &[]);
        assert_eq!(headed.to_csv(), "\"a,b\",c\n");
    }

    #[test]
    fn csv_escape_quotes_exactly_the_unsafe_cells() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape(""), "");
        assert_eq!(csv_escape("a#"), "a#");
        for (cell, escaped) in [
            ("a,b", "\"a,b\""),
            ("say \"hi\"", "\"say \"\"hi\"\"\""),
            ("a\nb", "\"a\nb\""),
            ("a\rb", "\"a\rb\""),
            (" a", "\" a\""),
            ("a\t", "\"a\t\""),
            ("#table x", "\"#table x\""),
        ] {
            assert_eq!(csv_escape(cell), escaped);
        }
    }

    #[test]
    fn records_read_back_across_quoted_newlines() {
        let text = "x,\"a\nb\",\" c \"\r\n  d , e\n";
        let mut pos = 0;
        assert_eq!(
            read_csv_record(text, &mut pos).unwrap(),
            vec!["x", "a\nb", " c "]
        );
        assert_eq!(read_csv_record(text, &mut pos).unwrap(), vec!["d", "e"]);
        assert_eq!(pos, text.len());
        let mut pos = 0;
        assert_eq!(read_csv_record("", &mut pos).unwrap(), vec![""]);
        assert_eq!(read_csv_record("a,\"b\nc", &mut 0), None);
    }

    #[test]
    fn anonymous_table_names_columns() {
        let t = Table::anonymous(2);
        assert_eq!(t.columns, vec!["c0", "c1"]);
    }
}
