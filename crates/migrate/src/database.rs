//! A small in-memory relational database substrate.
//!
//! The migration engine needs somewhere to put the rows it produces and a way to check
//! primary/foreign-key constraints, count rows per table (the `#Rows` statistic of
//! Table 2), and dump the result.  This module provides exactly that: a map from table
//! name to a [`Table`] of typed values governed by a [`Schema`].

use crate::schema::{Schema, TableSchema};
use mitra_dsl::{Row, Table, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fmt::Write as _;

/// An in-memory relational database: a schema plus one value table per schema table.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema this database conforms to.
    pub schema: Schema,
    tables: HashMap<String, Table>,
}

/// Constraint violations detected by [`Database::check_constraints`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// Two rows share the same primary key in the named table.
    DuplicatePrimaryKey {
        /// Table with the duplicate key.
        table: String,
        /// The rendered key values.
        key: Vec<String>,
    },
    /// A primary key column holds NULL.
    NullInPrimaryKey {
        /// Table with the NULL key.
        table: String,
    },
    /// A foreign key references a key that does not exist in the referenced table.
    DanglingForeignKey {
        /// The referencing table.
        table: String,
        /// The referenced table.
        referenced_table: String,
        /// The rendered key values that failed to resolve.
        key: Vec<String>,
    },
    /// A row has the wrong number of columns for its table.
    ArityMismatch {
        /// Offending table.
        table: String,
    },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::DuplicatePrimaryKey { table, key } => {
                write!(f, "duplicate primary key {key:?} in table {table}")
            }
            ConstraintViolation::NullInPrimaryKey { table } => {
                write!(f, "NULL primary key value in table {table}")
            }
            ConstraintViolation::DanglingForeignKey {
                table,
                referenced_table,
                key,
            } => write!(
                f,
                "foreign key {key:?} in {table} has no match in {referenced_table}"
            ),
            ConstraintViolation::ArityMismatch { table } => {
                write!(f, "row arity mismatch in table {table}")
            }
        }
    }
}

impl Database {
    /// Creates an empty database for the given schema.
    pub fn new(schema: Schema) -> Self {
        let tables = schema
            .tables
            .iter()
            .map(|t| (t.name.clone(), Table::new(t.column_names())))
            .collect();
        Database { schema, tables }
    }

    /// The populated table with the given name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Inserts a row into a table.  Returns false when the table does not exist or the
    /// row arity does not match the schema.
    pub fn insert(&mut self, table: &str, row: Row) -> bool {
        let Some(schema) = self.schema.table(table) else {
            return false;
        };
        if row.len() != schema.arity() {
            return false;
        }
        self.tables
            .get_mut(table)
            .map(|t| t.rows.push(row))
            .is_some()
    }

    /// Replaces the entire contents of a table.
    pub fn set_table(&mut self, table: &str, rows: Table) -> bool {
        let Some(schema) = self.schema.table(table) else {
            return false;
        };
        if rows.rows.iter().any(|r| r.len() != schema.arity()) {
            return false;
        }
        let mut named = Table::new(schema.column_names());
        named.rows = rows.rows;
        self.tables.insert(table.to_string(), named);
        true
    }

    /// Number of rows in one table.
    pub fn row_count(&self, table: &str) -> usize {
        self.tables.get(table).map(Table::len).unwrap_or(0)
    }

    /// Total number of rows across all tables (the `#Rows` statistic of Table 2).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Checks all primary- and foreign-key constraints, returning every violation.
    ///
    /// Keys compare by their cells' rendering, so `Int(1)` matches `Str("1")`;
    /// a primary key may not hold NULL, and a foreign key with a NULL cell
    /// references nothing.  Violations come table by table in schema order:
    /// arity, then each row's primary key, then each foreign key's rows.
    pub fn check_constraints(&self) -> Vec<ConstraintViolation> {
        let mut violations = Vec::new();
        // The key set of each referenced (table, columns), built once for
        // every foreign key that points there.
        let mut referenced: HashMap<(&str, Vec<usize>), HashSet<Cow<'_, str>>> = HashMap::new();
        for ts in &self.schema.tables {
            let Some(table) = self.tables.get(&ts.name) else {
                continue;
            };
            // Arity.
            if table.rows.iter().any(|r| r.len() != ts.arity()) {
                violations.push(ConstraintViolation::ArityMismatch {
                    table: ts.name.clone(),
                });
                continue;
            }
            // Primary key uniqueness / non-null.
            if !ts.primary_key.is_empty() {
                let idx = column_indices(ts, &ts.primary_key);
                let mut seen: HashSet<Cow<'_, str>> = HashSet::with_capacity(table.len());
                for row in &table.rows {
                    if idx.iter().any(|&i| row[i].is_null()) {
                        violations.push(ConstraintViolation::NullInPrimaryKey {
                            table: ts.name.clone(),
                        });
                    }
                    if !seen.insert(row_key(row, &idx)) {
                        violations.push(ConstraintViolation::DuplicatePrimaryKey {
                            table: ts.name.clone(),
                            key: rendered_key(row, &idx),
                        });
                    }
                }
            }
            // Foreign keys.
            for fk in &ts.foreign_keys {
                let Some(ref_schema) = self.schema.table(&fk.referenced_table) else {
                    continue;
                };
                let Some(ref_table) = self.tables.get(&fk.referenced_table) else {
                    continue;
                };
                let ref_idx = column_indices(ref_schema, &fk.referenced_columns);
                let idx = column_indices(ts, &fk.columns);
                // Keys of different widths never match.
                let comparable = idx.len() == ref_idx.len();
                let keys = referenced
                    .entry((fk.referenced_table.as_str(), ref_idx))
                    .or_insert_with_key(|(_, ref_idx)| {
                        ref_table.rows.iter().map(|r| row_key(r, ref_idx)).collect()
                    });
                for row in &table.rows {
                    // NULL foreign keys are allowed (no reference).
                    if idx.iter().any(|&i| row[i].is_null()) {
                        continue;
                    }
                    if !comparable || !keys.contains(&row_key(row, &idx)) {
                        violations.push(ConstraintViolation::DanglingForeignKey {
                            table: ts.name.clone(),
                            referenced_table: fk.referenced_table.clone(),
                            key: rendered_key(row, &idx),
                        });
                    }
                }
            }
        }
        violations
    }
}

/// The schema positions of the named columns, skipping unknown names.
fn column_indices(ts: &TableSchema, columns: &[String]) -> Vec<usize> {
    columns.iter().filter_map(|c| ts.column_index(c)).collect()
}

/// A cell's rendering, borrowed from a `Str` cell.
fn cell_text(value: &Value) -> Cow<'_, str> {
    match value {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.render()),
    }
}

/// The comparable text of a row's key: a one-column key is its cell's
/// rendering, and a wider key each cell's rendering behind its byte length,
/// so two keys of one width are equal exactly when their renderings are.
fn row_key<'a>(row: &'a [Value], idx: &[usize]) -> Cow<'a, str> {
    if let [i] = idx {
        return cell_text(&row[*i]);
    }
    let mut key = String::new();
    for &i in idx {
        let text = cell_text(&row[i]);
        let _ = write!(key, "{}:", text.len());
        key.push_str(&text);
    }
    Cow::Owned(key)
}

/// A row's key as the rendered cells a violation reports.
fn rendered_key(row: &[Value], idx: &[usize]) -> Vec<String> {
    idx.iter().map(|&i| row[i].render()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema, TableSchema};

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new("person", vec![Column::integer("pid"), Column::text("name")])
                    .with_primary_key(&["pid"]),
            )
            .with_table(
                TableSchema::new(
                    "friendship",
                    vec![Column::integer("pid"), Column::integer("fid")],
                )
                .with_primary_key(&["pid", "fid"])
                .with_foreign_key(&["pid"], "person", &["pid"])
                .with_foreign_key(&["fid"], "person", &["pid"]),
            )
    }

    fn populated() -> Database {
        let mut db = Database::new(schema());
        db.insert("person", vec![Value::int(1), Value::str("Alice")]);
        db.insert("person", vec![Value::int(2), Value::str("Bob")]);
        db.insert("friendship", vec![Value::int(1), Value::int(2)]);
        db
    }

    #[test]
    fn insert_and_count() {
        let db = populated();
        assert_eq!(db.row_count("person"), 2);
        assert_eq!(db.total_rows(), 3);
        assert!(db.table("person").is_some());
    }

    #[test]
    fn insert_rejects_bad_arity_and_unknown_table() {
        let mut db = Database::new(schema());
        assert!(!db.insert("person", vec![Value::int(1)]));
        assert!(!db.insert("nope", vec![Value::int(1)]));
    }

    #[test]
    fn constraints_hold_for_consistent_data() {
        assert!(populated().check_constraints().is_empty());
    }

    #[test]
    fn duplicate_primary_key_detected() {
        let mut db = populated();
        db.insert("person", vec![Value::int(1), Value::str("Clone")]);
        let v = db.check_constraints();
        assert!(v
            .iter()
            .any(|x| matches!(x, ConstraintViolation::DuplicatePrimaryKey { table, .. } if table == "person")));
    }

    #[test]
    fn dangling_foreign_key_detected() {
        let mut db = populated();
        db.insert("friendship", vec![Value::int(1), Value::int(99)]);
        let v = db.check_constraints();
        assert!(v
            .iter()
            .any(|x| matches!(x, ConstraintViolation::DanglingForeignKey { referenced_table, .. } if referenced_table == "person")));
    }

    #[test]
    fn null_primary_key_detected() {
        let mut db = populated();
        db.insert("person", vec![Value::Null, Value::str("Ghost")]);
        let v = db.check_constraints();
        assert!(v.iter().any(
            |x| matches!(x, ConstraintViolation::NullInPrimaryKey { table } if table == "person")
        ));
    }

    #[test]
    fn set_table_replaces_contents() {
        let mut db = populated();
        let mut t = Table::new(vec!["pid".into(), "name".into()]);
        t.push(vec![Value::int(7), Value::str("Grace")]);
        assert!(db.set_table("person", t));
        assert_eq!(db.row_count("person"), 1);
        // Arity mismatch rejected.
        let mut bad = Table::new(vec!["pid".into()]);
        bad.push(vec![Value::int(7)]);
        assert!(!db.set_table("person", bad));
    }
}
