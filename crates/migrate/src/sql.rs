//! SQL dump back-end: emits `CREATE TABLE` DDL and `INSERT` statements for a populated
//! database, so migration results can be loaded into an actual RDBMS.

use crate::database::Database;
use crate::schema::{Schema, TableSchema};
use mitra_dsl::Value;

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

/// Emits a full dump: DDL followed by `INSERT` statements for every row.
pub fn dump_sql(db: &Database) -> String {
    let mut out = dump_ddl(&db.schema);
    out.push('\n');
    for table in &db.schema.tables {
        if let Some(data) = db.table(&table.name) {
            for row in &data.rows {
                out.push_str(&insert_statement(&table.name, &table.column_names(), row));
                out.push('\n');
            }
        }
    }
    out
}

/// Emits one `INSERT` statement.
pub fn insert_statement(table: &str, columns: &[String], row: &[Value]) -> String {
    let cols = columns
        .iter()
        .map(|c| quote_ident(c))
        .collect::<Vec<_>>()
        .join(", ");
    let vals = row.iter().map(sql_literal).collect::<Vec<_>>().join(", ");
    format!(
        "INSERT INTO {} ({cols}) VALUES ({vals});",
        quote_ident(table)
    )
}

/// Renders a value as a SQL literal.
pub fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
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
        let stmt = insert_statement(
            "person",
            &["pid".to_string(), "name".to_string()],
            &[Value::int(1), Value::str("O'Brien")],
        );
        assert_eq!(
            stmt,
            "INSERT INTO \"person\" (\"pid\", \"name\") VALUES (1, 'O''Brien');"
        );
    }

    #[test]
    fn literals_for_all_value_kinds() {
        assert_eq!(sql_literal(&Value::Null), "NULL");
        assert_eq!(sql_literal(&Value::Bool(true)), "TRUE");
        assert_eq!(sql_literal(&Value::Float(2.5)), "2.5");
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
