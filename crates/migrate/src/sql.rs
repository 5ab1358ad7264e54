//! SQL dump back-end: emits `CREATE TABLE` DDL and `INSERT` statements for a populated
//! database, so migration results can be loaded into an actual RDBMS.
//!
//! [`dump_sql`] writes every statement straight into its one output string: a
//! table's quoted `INSERT INTO "t" ("c", …) VALUES (` prefix is built once, and each
//! row's literals are written in place after it.

use crate::database::Database;
use crate::schema::{Schema, TableSchema};
use mitra_dsl::Value;
use std::fmt::Write as _;

/// Emits `CREATE TABLE` statements for the whole schema.
pub fn dump_ddl(schema: &Schema) -> String {
    let mut out = String::new();
    for table in &schema.tables {
        out.push_str(&create_table(table));
        out.push('\n');
    }
    out
}

/// Emits the `CREATE TABLE` statement for one table.
pub fn create_table(table: &TableSchema) -> String {
    let mut out = format!("CREATE TABLE {} (\n", quote_ident(&table.name));
    let mut lines: Vec<String> = table
        .columns
        .iter()
        .map(|c| format!("  {} {}", quote_ident(&c.name), c.ty.sql_name()))
        .collect();
    if !table.primary_key.is_empty() {
        lines.push(format!(
            "  PRIMARY KEY ({})",
            table
                .primary_key
                .iter()
                .map(|c| quote_ident(c))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    for fk in &table.foreign_keys {
        lines.push(format!(
            "  FOREIGN KEY ({}) REFERENCES {} ({})",
            fk.columns
                .iter()
                .map(|c| quote_ident(c))
                .collect::<Vec<_>>()
                .join(", "),
            quote_ident(&fk.referenced_table),
            fk.referenced_columns
                .iter()
                .map(|c| quote_ident(c))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out.push_str(&lines.join(",\n"));
    out.push_str("\n);\n");
    out
}

/// Emits a full dump: DDL followed by one `INSERT` statement per row, tables in
/// schema order.
pub fn dump_sql(db: &Database) -> String {
    let mut out = dump_ddl(&db.schema);
    out.push('\n');
    for table in &db.schema.tables {
        let Some(data) = db.table(&table.name) else {
            continue;
        };
        let columns: Vec<String> = table.columns.iter().map(|c| quote_ident(&c.name)).collect();
        let prefix = format!(
            "INSERT INTO {} ({}) VALUES (",
            quote_ident(&table.name),
            columns.join(", ")
        );
        for row in &data.rows {
            out.push_str(&prefix);
            for (i, value) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_literal(&mut out, value);
            }
            out.push_str(");\n");
        }
    }
    out
}

/// Writes a value as a SQL literal: `NULL`, `TRUE`/`FALSE`, a bare number, or a
/// single-quoted string with `'` doubled.
fn write_literal(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("NULL"),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            let _ = write!(out, "{f}");
        }
        Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        Value::Str(s) => {
            out.push('\'');
            for (i, part) in s.split('\'').enumerate() {
                if i > 0 {
                    out.push_str("''");
                }
                out.push_str(part);
            }
            out.push('\'');
        }
    }
}

/// Quotes an identifier with double quotes (escaping embedded quotes).
pub fn quote_ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, TableSchema};

    fn schema() -> Schema {
        Schema::new()
            .with_table(
                TableSchema::new("person", vec![Column::integer("pid"), Column::text("name")])
                    .with_primary_key(&["pid"]),
            )
            .with_table(
                TableSchema::new(
                    "friend",
                    vec![Column::integer("pid"), Column::integer("fid")],
                )
                .with_foreign_key(&["pid"], "person", &["pid"]),
            )
    }

    #[test]
    fn ddl_contains_keys_and_types() {
        let ddl = dump_ddl(&schema());
        assert!(ddl.contains("CREATE TABLE \"person\""));
        assert!(ddl.contains("\"pid\" INTEGER"));
        assert!(ddl.contains("PRIMARY KEY (\"pid\")"));
        assert!(ddl.contains("FOREIGN KEY (\"pid\") REFERENCES \"person\" (\"pid\")"));
    }

    #[test]
    fn insert_statements_escape_strings() {
        let mut db = Database::new(schema());
        db.insert("person", vec![Value::int(1), Value::str("O'Brien")]);
        let dump = dump_sql(&db);
        let inserts: Vec<&str> = dump.lines().filter(|l| l.starts_with("INSERT")).collect();
        assert_eq!(
            inserts,
            ["INSERT INTO \"person\" (\"pid\", \"name\") VALUES (1, 'O''Brien');"]
        );
    }

    #[test]
    fn literals_for_all_value_kinds() {
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![
                Column::integer("i"),
                Column::integer("n"),
                Column::integer("b"),
                Column::integer("f"),
                Column::text("s"),
            ],
        ));
        let mut db = Database::new(schema);
        let row = vec![
            Value::int(-7),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::str("''"),
        ];
        assert!(db.insert("t", row));
        db.insert("t", vec![Value::Bool(false); 5]);
        let dump = dump_sql(&db);
        assert!(
            dump.ends_with(
                "INSERT INTO \"t\" (\"i\", \"n\", \"b\", \"f\", \"s\") \
                 VALUES (-7, NULL, TRUE, 2.5, '''''');\n\
                 INSERT INTO \"t\" (\"i\", \"n\", \"b\", \"f\", \"s\") \
                 VALUES (FALSE, FALSE, FALSE, FALSE, FALSE);\n"
            ),
            "{dump}"
        );
    }

    #[test]
    fn full_dump_contains_rows() {
        let mut db = Database::new(schema());
        db.insert("person", vec![Value::int(1), Value::str("Alice")]);
        db.insert("friend", vec![Value::int(1), Value::int(1)]);
        let dump = dump_sql(&db);
        assert!(dump.contains("INSERT INTO \"person\""));
        assert!(dump.contains("'Alice'"));
        assert!(dump.contains("INSERT INTO \"friend\""));
    }

    #[test]
    fn non_finite_spellings_dump_as_quoted_text() {
        let mut db = Database::new(schema());
        for (pid, name) in [(1, "Infinity"), (2, "NaN"), (3, "1e400")] {
            db.insert("person", vec![Value::int(pid), Value::from_data(name)]);
        }
        let dump = dump_sql(&db);
        for literal in ["'Infinity'", "'NaN'", "'1e400'"] {
            assert!(dump.contains(literal), "{literal} missing from:\n{dump}");
        }
        assert!(!dump.contains(", inf)"), "{dump}");
    }

    #[test]
    fn identifiers_with_quotes_are_escaped() {
        assert_eq!(quote_ident("we\"ird"), "\"we\"\"ird\"");
    }
}
