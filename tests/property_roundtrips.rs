//! Property-based integration tests: parser and codec round-trips and
//! execution-engine equivalence over randomly generated documents and programs.

use mitra::dsl::ast::{
    ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, TableExtractor,
};
use mitra::dsl::eval::eval_program;
use mitra::dsl::validate::validate_against;
use mitra::dsl::{Program, Table, Value};
use mitra::hdt::html::parse_html;
use mitra::hdt::json::json_string;
use mitra::hdt::{parse_json, parse_xml, Hdt, JsonValue};
use mitra::migrate::corpus::journal::{load_journal, JournalHeader, JournalWriter, ShardRecord};
use mitra::migrate::corpus::shard::{parse_shard, render_shard};
use mitra::migrate::corpus::{FailureKind, QuarantineRecord};
use mitra::migrate::query::run_query;
use mitra::migrate::{Column, Database, Schema, TableSchema};
use mitra::parse_csv_table;
use mitra::synth::exec::execute;
use mitra::synth::fingerprint::{fnv1a, FNV_OFFSET};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy for arbitrary JSON values of bounded depth.
fn json_value(depth: u32) -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-1000i64..1000).prop_map(|i| JsonValue::Number(i as f64)),
        "[a-zA-Z0-9 _-]{0,12}".prop_map(JsonValue::String),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(JsonValue::Object),
        ]
    })
}

/// Strategy for small random trees built through the builder API.
fn random_tree() -> impl Strategy<Value = Hdt> {
    // Tags drawn from a small alphabet so that structure repeats and extractors match.
    let ops = prop::collection::vec((0u8..3, 0usize..4, 0usize..50), 1..40);
    ops.prop_map(|ops| {
        let tags = ["item", "group", "entry", "field"];
        let mut tree = Hdt::with_root("root");
        let mut stack = vec![tree.root()];
        for (kind, tag_idx, val) in ops {
            match kind {
                0 => {
                    let id = tree.add_child(*stack.last().unwrap(), tags[tag_idx], None);
                    stack.push(id);
                }
                1 => {
                    tree.add_child(*stack.last().unwrap(), tags[tag_idx], Some(val.to_string()));
                }
                _ => {
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
            }
        }
        tree
    })
}

/// Strategy for simple programs over the random-tree tag alphabet.
fn random_program() -> impl Strategy<Value = Program> {
    let tags = prop_oneof![
        Just("item".to_string()),
        Just("group".to_string()),
        Just("entry".to_string()),
        Just("field".to_string()),
    ];
    let extractor =
        prop::collection::vec((0u8..3, tags.clone(), 0usize..2), 1..3).prop_map(|steps| {
            let mut pi = ColumnExtractor::Input;
            for (kind, tag, pos) in steps {
                pi = match kind {
                    0 => ColumnExtractor::children(pi, tag),
                    1 => ColumnExtractor::pchildren(pi, tag, pos),
                    _ => ColumnExtractor::descendants(pi, tag),
                };
            }
            pi
        });
    (
        prop::collection::vec(extractor, 1..3),
        0usize..50,
        prop_oneof![
            Just(CompareOp::Eq),
            Just(CompareOp::Ne),
            Just(CompareOp::Lt),
            Just(CompareOp::Gt)
        ],
    )
        .prop_map(|(cols, constant, op)| {
            let arity = cols.len();
            let pred = Predicate::Compare {
                extractor: NodeExtractor::Id,
                index: arity - 1,
                op,
                rhs: Operand::Const(Value::int(constant as i64)),
            };
            Program::new(TableExtractor::new(cols), pred)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_pretty_roundtrip(value in json_value(3)) {
        let text = value.to_string_pretty();
        let reparsed = parse_json(&text).expect("pretty output parses");
        prop_assert_eq!(&reparsed, &value);
        let compact = value.to_string_compact();
        prop_assert_eq!(parse_json(&compact).expect("compact output parses"), value);
    }

    #[test]
    fn xml_roundtrip_of_generated_trees(tree in random_tree()) {
        // Serialize via the datagen helper and reparse through the XML plug-in; the
        // resulting HDT must have the same number of data leaves.
        let xml = mitra::datagen::corpus::hdt_to_xml_text(&tree);
        let doc = parse_xml(&xml).expect("generated XML parses");
        let reparsed = doc.to_hdt();
        prop_assert_eq!(
            reparsed.data_values().len(),
            tree.data_values().len()
        );
    }

    #[test]
    fn optimized_execution_agrees_with_naive_semantics(
        tree in random_tree(),
        program in random_program()
    ) {
        let naive = eval_program(&tree, &program).expect("random programs stay tiny");
        let fast = execute(&tree, &program);
        prop_assert!(naive.same_bag(&fast), "naive {} vs fast {}", naive.len(), fast.len());
    }

    #[test]
    fn generated_trees_always_validate(tree in random_tree()) {
        prop_assert!(tree.validate().is_ok());
    }

    #[test]
    fn parse_and_pretty_roundtrip_for_random_programs(program in random_program()) {
        // Printing a program in the paper's textual syntax and parsing it back must
        // yield a program with identical behaviour (same AST up to column names).
        let text = mitra::dsl::pretty::program(&program);
        let reparsed = mitra::dsl::parse::parse_program(&text).expect("pretty output parses");
        prop_assert_eq!(reparsed.extractor, program.extractor);
        prop_assert_eq!(reparsed.predicate, program.predicate);
    }

    #[test]
    fn random_programs_validate_cleanly_against_random_trees(
        tree in random_tree(),
        program in random_program()
    ) {
        // The generated programs stay within the tag alphabet and tuple arity, so the
        // validator must never report errors (warnings about missing tags are fine).
        let validation = validate_against(&program, &tree);
        prop_assert!(validation.is_valid(), "unexpected errors: {:?}", validation.errors());
    }

    #[test]
    fn html_parser_is_total_on_tagged_input(
        prefix in "[ a-zA-Z0-9>=\"']{0,40}",
        tag in "[a-z]{1,8}",
        body in "[ a-zA-Z0-9&;<]{0,30}"
    ) {
        // The lenient HTML parser must never panic, and any input whose first markup is
        // a well-formed opening tag must produce a document.  (A `<`-containing prefix
        // could swallow the tag as a bogus comment, browser-style, so the prefix stays
        // markup-free; hostile prefixes are covered by unit tests in the html module.)
        let html = format!("{prefix}<{tag}>{body}");
        let parsed = parse_html(&html);
        prop_assert!(parsed.is_ok(), "input with a tag must parse: {html}");
        // Whatever markup soup surrounded it, the parser produced a lowercase-named
        // element tree (the prefix may legitimately contribute the root element).
        let root = parsed.unwrap().root;
        prop_assert!(!root.name.is_empty());
        prop_assert!(root.name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()
            || c == '-' || c == '_' || c == ':'));
    }

    #[test]
    fn sql_where_filter_matches_direct_evaluation(
        values in prop::collection::vec((0i64..100, 0i64..100), 1..40),
        threshold in 0i64..100
    ) {
        // A single-table WHERE query must return exactly the rows whose column passes
        // the comparison, in the original order.
        let schema = Schema::new().with_table(TableSchema::new(
            "t",
            vec![Column::integer("a"), Column::integer("b")],
        ));
        let mut db = Database::new(schema);
        for (a, b) in &values {
            db.insert("t", vec![Value::int(*a), Value::int(*b)]);
        }
        let sql = format!("SELECT a, b FROM t WHERE a >= {threshold}");
        let result = run_query(&db, &sql).expect("query runs");
        let expected: Vec<Vec<Value>> = values
            .iter()
            .filter(|(a, _)| *a >= threshold)
            .map(|(a, b)| vec![Value::int(*a), Value::int(*b)])
            .collect();
        prop_assert_eq!(result.rows, expected);

        // COUNT(*) agrees with the filtered row count.
        let count_sql = format!("SELECT COUNT(*) FROM t WHERE a >= {threshold}");
        let count = run_query(&db, &count_sql).expect("count runs");
        let expected_count = values.iter().filter(|(a, _)| *a >= threshold).count() as i64;
        prop_assert_eq!(count.rows[0][0].clone(), Value::int(expected_count));
    }

    #[test]
    fn table_csv_roundtrips_through_parse_csv_table(
        header in prop::collection::vec(csv_text(), 1..4),
        cells in prop::collection::vec(csv_text(), 3..13)
    ) {
        // At least one full row; every cell holds an `x`, so no cell reads back
        // as a number, bool or NULL.
        let rows: Vec<Vec<Value>> = cells
            .chunks(header.len())
            .filter(|row| row.len() == header.len())
            .map(|row| row.iter().map(|c| Value::str(c.clone())).collect())
            .collect();
        let table = Table { columns: header.clone(), rows };
        let parsed = parse_csv_table(&table.to_csv()).expect("to_csv output parses");
        prop_assert_eq!(&parsed.columns, &header);
        prop_assert_eq!(rendered(&parsed), rendered(&table));
    }

    #[test]
    fn shard_files_roundtrip(
        tables in prop::collection::vec(("[a-z]{1,6}", prop::collection::vec(csv_text(), 0..7)), 1..4)
    ) {
        let sections: Vec<(String, Vec<Vec<String>>)> = tables
            .into_iter()
            .map(|(name, cells)| (name, cells.chunks(2).map(<[String]>::to_vec).collect()))
            .collect();
        let text = render_shard(&sections);
        prop_assert_eq!(parse_shard(&text).expect("rendered shards parse"), sections);
    }

    #[test]
    fn journal_records_roundtrip_through_load_journal(
        header in journal_header(),
        records in prop::collection::vec(shard_record(), 0..4)
    ) {
        let dir = std::env::temp_dir().join(format!("mitra-journal-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("journal.jsonl");
        let mut writer = JournalWriter::create(&path).expect("journal opens");
        writer.record(&header.to_json_line()).expect("header written");
        for record in &records {
            writer.record(&record.to_json_line()).expect("shard record written");
        }
        let state = load_journal(&path).expect("journal loads");
        std::fs::remove_dir_all(&dir).ok();
        // The last record per shard index wins, as on resume.
        let shards: BTreeMap<usize, ShardRecord> =
            records.into_iter().map(|r| (r.shard, r)).collect();
        prop_assert_eq!(state.header, header);
        prop_assert_eq!(state.shards, shards);
    }

    #[test]
    fn json_string_writer_roundtrips_through_parse_json(s in "[a-z\"\\\\/\n\r\t\u{1}\u{1f} é€]{0,16}") {
        let literal = json_string(&s);
        prop_assert_eq!(parse_json(&literal).expect("a JSON string literal parses"), JsonValue::String(s));
    }
}

/// Cell or header text drawn from every character the CSV codec must quote,
/// always holding one `x`.  It may start with `#` or `#table `, which a shard
/// file must not read back as a section header.
fn csv_text() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just(""), Just("#"), Just("#table ")],
        "[ ,\"\n\ra#]{0,4}",
        "[ ,\"\n\ra#]{0,4}",
    )
        .prop_map(|(lead, pre, post)| format!("{lead}{pre}x{post}"))
}

/// Counts and offsets the journal stores as JSON numbers stay exact below 2^53.
const JSON_EXACT: usize = 1 << 53;

/// Journal text (table names, error messages) drawn from what a JSON string
/// literal must escape or carry through: quotes, backslashes, commas, line
/// breaks, control characters and non-BMP characters.
fn journal_text() -> impl Strategy<Value = String> {
    "[a\"\\\\,\n\r\t\u{1}\u{1f}\u{7f}é\u{1f600}\u{1d11e}]{0,8}"
}

fn journal_header() -> impl Strategy<Value = JournalHeader> {
    (
        (0..JSON_EXACT as u64, journal_text(), any::<u64>()),
        (0..JSON_EXACT, 0..JSON_EXACT, 0..JSON_EXACT),
        prop::collection::vec(journal_text(), 0..4),
    )
        .prop_map(
            |((version, format, corpus_hash), (docs, shard_size, shards), tables)| JournalHeader {
                version,
                format,
                corpus_hash,
                docs,
                shard_size,
                shards,
                tables,
            },
        )
}

fn quarantine_record() -> impl Strategy<Value = QuarantineRecord> {
    (
        0..JSON_EXACT,
        0..JSON_EXACT,
        0usize..4,
        journal_text(),
        any::<u32>(),
    )
        .prop_map(|(doc, offset, kind, error, attempts)| QuarantineRecord {
            doc,
            offset,
            kind: [
                FailureKind::Malformed,
                FailureKind::Budget,
                FailureKind::Panic,
                FailureKind::Synthesis,
            ][kind],
            error,
            attempts,
        })
}

fn shard_record() -> impl Strategy<Value = ShardRecord> {
    (
        (
            0..JSON_EXACT,
            0..JSON_EXACT,
            0..JSON_EXACT,
            0..JSON_EXACT as u64,
        ),
        prop::collection::vec((journal_text(), 0..JSON_EXACT), 0..4),
        prop::collection::vec(quarantine_record(), 0..3),
        any::<u64>(),
    )
        .prop_map(
            |((shard, docs, ok, retried), rows, quarantined, result_hash)| ShardRecord {
                shard,
                docs,
                ok,
                retried,
                rows,
                quarantined,
                result_hash,
            },
        )
}

fn rendered(table: &Table) -> Vec<Vec<String>> {
    table
        .rows
        .iter()
        .map(|row| row.iter().map(Value::render).collect())
        .collect()
}

#[test]
fn fnv1a_matches_the_standard_vectors() {
    // Journals written by earlier builds hash corpora and shard files with
    // these exact values, so resume depends on them staying fixed.
    assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(
        fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
        fnv1a(FNV_OFFSET, b"foobar")
    );
}
