//! Property-based integration tests: parser and codec round-trips and
//! execution-engine equivalence over randomly generated documents and programs.

use mitra::datagen::datasets::all_datasets;
use mitra::datagen::fuzz::{mixed_corpus, scenario, CorpusMix, Payload, ScenarioKind};
use mitra::dsl::ast::{
    ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, TableExtractor,
};
use mitra::dsl::eval::{eval_program, node_value};
use mitra::dsl::validate::validate_against;
use mitra::dsl::{Program, Table, Value};
use mitra::hdt::html::html_to_hdt;
use mitra::hdt::json::{format_number, json_string, json_to_hdt};
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::{parse_json, Hdt, HdtError, JsonValue, NodeId};
use mitra::migrate::corpus::journal::{load_journal, JournalHeader, JournalWriter, ShardRecord};
use mitra::migrate::corpus::shard::{parse_shard, render_shard};
use mitra::migrate::corpus::{FailureKind, QuarantineRecord};
use mitra::migrate::database::ConstraintViolation;
use mitra::migrate::sql::{dump_ddl, dump_sql, quote_ident};
use mitra::migrate::{Column, Database, Schema, TableSchema};
use mitra::parse_csv_table;
use mitra::synth::exec::execute;
use mitra::synth::fingerprint::{fingerprint, fnv1a, FNV_OFFSET};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// Strategy for arbitrary JSON values of bounded depth: numbers with fractions and
/// large and tiny magnitudes, and strings and keys that need escapes or hold
/// non-ASCII text.
fn json_value(depth: u32) -> impl Strategy<Value = JsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        (-1000i64..1000).prop_map(|i| JsonValue::Number(i as f64)),
        finite_f64().prop_map(JsonValue::Number),
        "[a-zA-Z0-9 _-]{0,12}".prop_map(JsonValue::String),
        "[a\"\\/\n\t\u{1}\u{1f} é€\u{1f600}]{0,8}".prop_map(JsonValue::String),
    ];
    let key = prop_oneof!["[a-z]{1,6}", "[a\"\\\n\u{1}é€\u{1f600}]{1,4}"];
    leaf.prop_recursive(depth, 24, 4, move |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::vec((key.clone(), inner), 0..4).prop_map(JsonValue::Object),
        ]
    })
}

/// Strategy for finite `f64`s: fractions, integers around 2^53 (15 to 16 digits),
/// powers of ten past 1e15, and arbitrary bit patterns for huge and tiny magnitudes.
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-100_000i64..100_000).prop_map(|i| i as f64 / 64.0),
        (-10_000i64..10_000).prop_map(|i| i as f64 / 1000.0),
        (-(1i64 << 53)..(1i64 << 53)).prop_map(|i| i as f64),
        (1i64..1_000_000, 10i32..25).prop_map(|(m, e)| m as f64 * 10f64.powi(e)),
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            if f.is_finite() {
                f
            } else {
                -1e300
            }
        }),
    ]
}

/// The two-step JSON→HDT mapping that `json_to_hdt` replaced, kept as its oracle:
/// a parsed [`JsonValue`] copied into an arena with Section 3's mapping.
fn json_to_hdt_oracle(value: &JsonValue) -> Hdt {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    match value {
        JsonValue::Object(fields) => {
            for (key, v) in fields {
                add_entry(&mut tree, root, key, v);
            }
        }
        // A bare array at this level: entries become `item` nodes.
        JsonValue::Array(_) => add_entry(&mut tree, root, "item", value),
        scalar => {
            tree.add_child(root, "value", scalar_data(scalar));
        }
    }
    tree
}

fn add_entry(tree: &mut Hdt, parent: NodeId, key: &str, value: &JsonValue) {
    match value {
        JsonValue::Array(items) => {
            for item in items {
                add_entry(tree, parent, key, item);
            }
        }
        JsonValue::Object(fields) => {
            let id = tree.add_child(parent, key, None);
            for (k, v) in fields {
                add_entry(tree, id, k, v);
            }
        }
        scalar => {
            tree.add_child(parent, key, scalar_data(scalar));
        }
    }
}

/// A scalar's node data.
fn scalar_data(value: &JsonValue) -> Option<String> {
    match value {
        JsonValue::Null => Some("null".to_string()),
        JsonValue::Bool(b) => Some(b.to_string()),
        JsonValue::Number(n) => Some(format_number(*n)),
        JsonValue::String(s) => Some(s.clone()),
        _ => None,
    }
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

/// Strategy for HTML pages: one to three top-level `<section>`s (several make a
/// fragment with a synthetic root) holding pieces that exercise implicit closes,
/// void elements, raw-text elements and text before and after child elements.
fn html_page() -> impl Strategy<Value = String> {
    let pieces = [
        "<li>one",
        "<li>two",
        "<p>para",
        "<div>",
        "</div>",
        "<td>1<td>2",
        "<tr>",
        "</p>",
        "<br>",
        "<img src=x.png>",
        "<input checked>",
        " tail ",
        "<b>bold</b>",
        "<script>if (a < b) { f('<td>'); }</script>",
        "<style> p { } </style>",
        "&amp; text",
    ];
    let section = prop::collection::vec(0..pieces.len(), 0..10).prop_map(move |picks| {
        let body: String = picks.iter().map(|&i| pieces[i]).collect();
        format!("<section>{body}</section>")
    });
    prop::collection::vec(section, 1..4).prop_map(|sections| sections.concat())
}

/// A random mixed-content document, as XML and as HTML text, with the data each
/// element's `text` leaf must hold, element by element in document order (`None`
/// where the element has no text leaf).
#[derive(Debug, Clone)]
struct MixedContent {
    xml: String,
    html: String,
    xml_texts: Vec<Option<String>>,
    html_texts: Vec<Option<String>>,
}

/// Element names of [`mixed_content`]: none is void, raw-text or closed
/// implicitly in HTML, and none is an attribute name or `text`.
const MIXED_ELEMENTS: [&str; 4] = ["r", "e", "f", "g"];

/// Strategy for mixed content: text runs alternating with child elements that
/// carry their own text, attributes and, in the XML rendering, CDATA.  The HTML
/// rendering leaves the elements open at the end to the end of input.  A
/// per-element accumulator is the oracle: an XML element's text is its runs
/// concatenated, then trimmed, and an HTML element's is the words of its runs
/// joined by single spaces (a child element splits two runs apart).
fn mixed_content() -> impl Strategy<Value = MixedContent> {
    // (markup, decoded text) of a text run.
    const RUNS: [(&str, &str); 7] = [
        ("x", "x"),
        (" y z ", " y z "),
        ("\n  ", "\n  "),
        ("w\tv", "w\tv"),
        ("&lt;u&gt;", "<u>"),
        ("  ", "  "),
        ("q", "q"),
    ];
    const CDATA: [&str; 3] = [" <raw>& ", "]", "c  d"];
    const VALUES: [&str; 3] = ["1", "v w", ""];
    prop::collection::vec((0u8..4, 0usize..64), 0..40).prop_map(|ops| {
        /// One open element: its index in document order, its name, and its
        /// text so far in both renderings.
        struct Open {
            element: usize,
            name: &'static str,
            xml: String,
            html: String,
        }
        let mut xml = String::from("<r>");
        let mut html = String::from("<r>");
        let mut texts: Vec<(String, String)> = vec![(String::new(), String::new())];
        let mut stack = vec![Open {
            element: 0,
            name: "r",
            xml: String::new(),
            html: String::new(),
        }];
        let close = |open: Open, texts: &mut Vec<(String, String)>| {
            texts[open.element] = (open.xml, open.html);
        };
        for (kind, pick) in ops {
            match kind {
                0 => {
                    let name = MIXED_ELEMENTS[1 + pick % 3];
                    let mut tag = name.to_string();
                    for a in 0..pick % 3 {
                        tag.push_str(&format!(" k{a}=\"{}\"", VALUES[(pick + a) % 3]));
                    }
                    xml.push_str(&format!("<{tag}>"));
                    html.push_str(&format!("<{tag}>"));
                    // A child element splits its parent's HTML text runs.
                    if let Some(parent) = stack.last_mut() {
                        parent.html.push(' ');
                    }
                    stack.push(Open {
                        element: texts.len(),
                        name,
                        xml: String::new(),
                        html: String::new(),
                    });
                    texts.push((String::new(), String::new()));
                }
                1 => {
                    let (markup, text) = RUNS[pick % RUNS.len()];
                    xml.push_str(markup);
                    html.push_str(markup);
                    if let Some(open) = stack.last_mut() {
                        open.xml.push_str(text);
                        open.html.push_str(text);
                    }
                }
                2 => {
                    let cdata = CDATA[pick % CDATA.len()];
                    xml.push_str(&format!("<![CDATA[{cdata}]]>"));
                    if let Some(open) = stack.last_mut() {
                        open.xml.push_str(cdata);
                    }
                }
                _ => {
                    if stack.len() > 1 {
                        let open = stack.pop().expect("an open child");
                        xml.push_str(&format!("</{}>", open.name));
                        html.push_str(&format!("</{}>", open.name));
                        close(open, &mut texts);
                    }
                }
            }
        }
        // HTML leaves the rest open: the end of input closes them all at once.
        while let Some(open) = stack.pop() {
            xml.push_str(&format!("</{}>", open.name));
            close(open, &mut texts);
        }
        let nonempty = |s: String| (!s.is_empty()).then_some(s);
        let words = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
        MixedContent {
            xml,
            html,
            xml_texts: texts
                .iter()
                .map(|(x, _)| nonempty(x.trim().to_string()))
                .collect(),
            html_texts: texts.iter().map(|(_, h)| nonempty(words(h))).collect(),
        }
    })
}

/// The data of each element's `text` leaf, element by element in arena order,
/// checking that no element has two.
fn element_texts(tree: &Hdt) -> Result<Vec<Option<String>>, TestCaseError> {
    let mut texts = Vec::new();
    for id in tree.ids() {
        if MIXED_ELEMENTS.contains(&tree.tag_name(id)) {
            let leaves = tree.children_with_tag(id, "text");
            prop_assert!(leaves.len() <= 1, "{} has {} text leaves", id, leaves.len());
            texts.push(
                leaves
                    .first()
                    .and_then(|&t| tree.data(t))
                    .map(str::to_string),
            );
        }
    }
    Ok(texts)
}

/// Parsed markup must validate and be numbered in document order: arena order is
/// pre-order, because the parsers create each node when its start is parsed.
fn assert_document_order(tree: &Hdt) -> Result<(), TestCaseError> {
    prop_assert!(tree.validate().is_ok());
    prop_assert_eq!(tree.preorder(), tree.ids().collect::<Vec<_>>());
    assert_positions_count_earlier_siblings(tree)
}

/// Every node's `pos` is the number of its earlier same-tag siblings, counted in
/// its parent's child list, and `child(parent, tag, pos)` finds it.
fn assert_positions_count_earlier_siblings(tree: &Hdt) -> Result<(), TestCaseError> {
    for id in tree.ids().skip(1) {
        let parent = tree.parent(id).expect("only the root has no parent");
        let earlier = tree.children(parent).iter().take_while(|&&c| c != id);
        let naive = earlier.filter(|&&c| tree.tag(c) == tree.tag(id)).count();
        prop_assert!(tree.pos(id) == naive, "pos of {}", id);
        prop_assert_eq!(tree.child(parent, tree.tag(id), naive), Some(id));
    }
    Ok(())
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
    fn json_to_hdt_matches_the_two_step_oracle(value in json_value(3)) {
        let want = json_to_hdt_oracle(&value);
        for text in [value.to_string_compact(), value.to_string_pretty()] {
            let tree = json_to_hdt(&text).expect("serialized JSON parses");
            prop_assert!(tree == want, "json_to_hdt differs from the oracle on {}", text);
        }
    }

    #[test]
    fn json_to_hdt_numbers_same_tag_siblings_consecutively(value in json_value(3)) {
        // Nested arrays and repeated keys continue their key's numbering.
        let tree = json_to_hdt(&value.to_string_compact()).expect("serialized JSON parses");
        prop_assert!(tree.validate().is_ok());
        assert_positions_count_earlier_siblings(&tree)?;
    }

    #[test]
    fn sql_dump_reads_back_cell_for_cell(
        parents in prop::collection::vec((sql_cell(), sql_cell()), 0..6),
        children in prop::collection::vec((0usize..8, sql_cell()), 0..8)
    ) {
        let db = two_table_database(&parents, &children);
        let dump = dump_sql(&db);
        prop_assert_eq!(&dump, &reference_dump(&db));
        let ddl = format!("{}\n", dump_ddl(&db.schema));
        prop_assert!(dump.starts_with(&ddl));
        let statements = read_inserts(&dump[ddl.len()..]);
        let written: Vec<(&str, Vec<String>, &Vec<Value>)> = db
            .schema
            .tables
            .iter()
            .flat_map(|t| {
                let rows = db.table(&t.name).map_or(&[][..], |data| &data.rows[..]);
                rows.iter().map(move |row| (t.name.as_str(), t.column_names(), row))
            })
            .collect();
        prop_assert_eq!(statements.len(), written.len());
        for ((table, columns, literals), (want_table, want_columns, row)) in statements.iter().zip(&written) {
            prop_assert_eq!(table, want_table);
            prop_assert_eq!(columns, want_columns);
            prop_assert_eq!(literals.len(), row.len());
            for (literal, value) in literals.iter().zip(row.iter()) {
                prop_assert!(literal.reads_back_as(value), "{:?} read back from {:?}", literal, value);
            }
        }
    }

    #[test]
    fn xml_roundtrip_of_generated_trees(tree in random_tree()) {
        // Serialize via the datagen helper and reparse through the XML plug-in; the
        // resulting HDT must hold the same data values in document order.  Shapes
        // differ by design: the plug-in puts an element's text in a `text` child.
        let xml = mitra::datagen::corpus::hdt_to_xml_text(&tree);
        let reparsed = xml_to_hdt(&xml).expect("generated XML parses");
        prop_assert_eq!(reparsed.data_values(), tree.data_values());
    }

    #[test]
    fn xml_of_generated_trees_parses_in_document_order(tree in random_tree()) {
        let xml = mitra::datagen::corpus::hdt_to_xml_text(&tree);
        assert_document_order(&xml_to_hdt(&xml).expect("generated XML parses"))?;
    }

    #[test]
    fn mixed_content_text_matches_a_per_element_accumulator(doc in mixed_content()) {
        let tree = xml_to_hdt(&doc.xml).expect("generated XML parses");
        assert_document_order(&tree)?;
        prop_assert_eq!(element_texts(&tree)?, doc.xml_texts);
        let tree = html_to_hdt(&doc.html).expect("generated HTML parses");
        assert_document_order(&tree)?;
        prop_assert_eq!(element_texts(&tree)?, doc.html_texts);
    }

    #[test]
    fn html_pages_parse_in_document_order(html in html_page()) {
        assert_document_order(&html_to_hdt(&html).expect("a page with a section parses"))?;
    }

    #[test]
    fn json_roundtrip_of_generated_trees(tree in random_tree()) {
        // Through JSON text and the JSON plug-in the tree keeps its tag paths, and
        // its leaves keep their values as a multiset: repeated tags are grouped
        // into arrays, and a childless element comes back as `null`, which reads
        // as `Null` like the element's missing data.
        let json = mitra::datagen::corpus::hdt_to_json_text(&tree);
        let reparsed = json_to_hdt(&json).expect("generated JSON parses");
        prop_assert_eq!(fingerprint(&reparsed), fingerprint(&tree));
        let leaf_values = |t: &Hdt| {
            let mut values: Vec<String> = t
                .ids()
                .filter(|&n| t.is_leaf(n))
                .map(|n| node_value(t, n).render())
                .collect();
            values.sort();
            values
        };
        prop_assert_eq!(leaf_values(&reparsed), leaf_values(&tree));
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
        let parsed = html_to_hdt(&html);
        prop_assert!(parsed.is_ok(), "input with a tag must parse: {html}");
        // Whatever markup soup surrounded it, the parser produced a lowercase-named
        // root element (the prefix may legitimately contribute it).
        let tree = parsed.unwrap();
        let root = tree.tag_name(tree.root());
        prop_assert!(!root.is_empty());
        prop_assert!(root.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()
            || c == '-' || c == '_' || c == ':'));
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
    fn constraint_checks_match_the_reference_implementation(
        a in prop::collection::vec((key_cell(), key_cell()), 0..7),
        b in prop::collection::vec((key_cell(), key_cell(), key_cell(), key_cell()), 0..7),
        c in prop::collection::vec((key_cell(), key_cell(), key_cell()), 0..7)
    ) {
        let db = keyed_database(&a, &b, &c);
        prop_assert_eq!(db.check_constraints(), reference_constraints(&db));
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
fn mixer_corpus_documents_parse_in_document_order() {
    let mix = CorpusMix {
        seed: 11,
        docs: 400,
        malformed_pct: 10,
        promo_pct: 20,
    };
    let corpus = mixed_corpus(&mix);
    let trees: Vec<Hdt> = corpus
        .text
        .lines()
        .filter_map(|line| xml_to_hdt(line).ok())
        .collect();
    assert_eq!(trees.len(), 400 - corpus.malformed.len());
    for tree in &trees {
        assert_document_order(tree).expect("mixer document in document order");
    }
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

#[test]
fn table2_dumps_load_under_per_statement_foreign_key_checks() {
    // sqlite3 with `PRAGMA foreign_keys=ON`, like PostgreSQL without deferred
    // constraints, checks each `INSERT`'s foreign keys as it runs.  So the dump
    // must write one `INSERT` per migrated row, and each non-NULL foreign-key
    // tuple must match a key that an earlier `INSERT` of the referenced table
    // wrote.
    for spec in all_datasets() {
        let (document, _) = spec.generate(25);
        let report = spec
            .migration_plan()
            .run(&document)
            .expect("Table 2 migrates");
        let db = &report.database;
        let dump = dump_sql(db);
        let ddl = format!("{}\n", dump_ddl(&db.schema));
        let statements = read_inserts(&dump[ddl.len()..]);
        assert_eq!(statements.len(), report.total_rows(), "{}", spec.name);
        for table in &db.schema.tables {
            let inserts = statements.iter().filter(|(t, ..)| *t == table.name).count();
            assert_eq!(
                inserts,
                db.row_count(&table.name),
                "{}.{}",
                spec.name,
                table.name
            );
        }
        // The key tuples written so far, per referenced (table, columns).
        let mut written: BTreeMap<(&str, &[String]), HashSet<Vec<&SqlLiteral>>> = BTreeMap::new();
        for (table, columns, literals) in &statements {
            let cell =
                |column: &String| &literals[columns.iter().position(|c| c == column).unwrap()];
            let ts = db.schema.table(table).unwrap();
            for fk in &ts.foreign_keys {
                let key: Vec<&SqlLiteral> = fk.columns.iter().map(cell).collect();
                if key.contains(&&SqlLiteral::Null) {
                    continue;
                }
                let target = (fk.referenced_table.as_str(), &fk.referenced_columns[..]);
                assert!(
                    written.get(&target).is_some_and(|keys| keys.contains(&key)),
                    "{}: {table} references {target:?} = {key:?} before it is written",
                    spec.name
                );
            }
            for referencing in &db.schema.tables {
                for fk in referencing
                    .foreign_keys
                    .iter()
                    .filter(|fk| fk.referenced_table == *table)
                {
                    let key = fk.referenced_columns.iter().map(cell).collect();
                    written
                        .entry((table.as_str(), &fk.referenced_columns[..]))
                        .or_default()
                        .insert(key);
                }
            }
        }
    }
}

#[test]
fn json_numbers_keep_the_format_number_rule() {
    // (literal, node data): a number's data is `format_number` of its `f64`, in
    // an object and in an array alike.
    let cases = [
        ("0", "0"),
        ("-0", "0"),
        ("1.0", "1"),
        ("1.50", "1.5"),
        ("1e2", "100"),
        ("-12.0", "-12"),
        ("123456789012345", "123456789012345"),
        ("-999999999999999", "-999999999999999"),
        ("1234567890123456", "1234567890123456"),
        ("9007199254740993", "9007199254740992"),
        ("123456789012345678", "123456789012345680"),
        ("1e400", "inf"),
    ];
    for (literal, data) in cases {
        let text = format!("{{\"n\": {literal}, \"a\": [{literal}]}}");
        let tree = json_to_hdt(&text).expect("a number parses");
        let oracle = json_to_hdt_oracle(&parse_json(&text).expect("a number parses"));
        assert_eq!(tree, oracle, "{literal}");
        for tag in ["n", "a"] {
            let node = tree.child(tree.root(), tag, 0).expect("one node per key");
            assert_eq!(tree.data(node), Some(data), "{literal} under {tag}");
        }
    }
    // (literal, error) for literals RFC 8259 rejects: a leading zero, a missing
    // digit before or after `.`, and a `\u` escape that is not four hex digits.
    // Each error sits at the literal's start (byte 6), or at the escape's digits.
    let number = |text: &str| HdtError::parse(format!("invalid number '{text}'"), 6);
    let rejected = [
        ("007", number("007")),
        ("-007", number("-007")),
        ("01", number("01")),
        ("1.", number("1.")),
        ("-.5", number("-.5")),
        ("1.e5", number("1.e5")),
        ("\"\\u+041\"", HdtError::parse("invalid \\u escape", 9)),
    ];
    for (literal, error) in rejected {
        let text = format!("{{\"n\": {literal}}}");
        assert_eq!(json_to_hdt(&text).err(), Some(error.clone()), "{literal}");
        assert_eq!(parse_json(&text).err(), Some(error), "{literal}");
    }
}

/// The suite seed `fuzz_smoke` runs by default.
const FUZZ_SEED: u64 = 0x004D_177A;

#[test]
fn json_to_hdt_and_parse_json_agree_on_malformed_json() {
    let mut texts: Vec<(String, String)> = (0..1_400)
        .filter(|id| id % 7 == 5)
        .map(|id| match scenario(FUZZ_SEED, id).payload {
            Payload::Malformed {
                kind: ScenarioKind::MalformedJson,
                text,
            } => (format!("scenario {id}"), text),
            other => panic!("scenario {id} is not malformed JSON: {other:?}"),
        })
        .collect();
    assert_eq!(texts.len(), 200);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/malformed");
    let mut fixtures = 0;
    for entry in std::fs::read_dir(&dir).expect("the malformed fixtures exist") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).expect("JSON fixtures are UTF-8");
            texts.push((path.display().to_string(), text));
            fixtures += 1;
        }
    }
    assert_eq!(fixtures, 4);
    // `deep.json` recurses to the depth guard, which needs more than the
    // default test stack.
    let parsed = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let mut parsed = Vec::new();
            for (name, text) in &texts {
                match (json_to_hdt(text), parse_json(text)) {
                    (Ok(tree), Ok(value)) => {
                        assert_eq!(tree, json_to_hdt_oracle(&value), "{name}");
                        parsed.push(name.clone());
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{name}");
                        assert_eq!(a.to_string(), b.to_string(), "{name}");
                    }
                    (a, b) => panic!(
                        "{name}: json_to_hdt {:?} but parse_json {:?}",
                        a.err(),
                        b.err()
                    ),
                }
            }
            parsed
        })
        .expect("spawn a big-stack thread")
        .join()
        .expect("no panic");
    // Six of the corrupted texts are still JSON; no fixture is.
    assert_eq!(parsed.len(), 6, "{parsed:?}");
    assert!(
        parsed.iter().all(|name| name.starts_with("scenario")),
        "{parsed:?}"
    );
}

/// Cells of every kind `dump_sql` writes: `NULL`, booleans, extreme and ordinary
/// integers, finite floats, and strings holding quotes, SQL punctuation,
/// newlines, `""`, non-ASCII text and keyword- or number-like text.
fn sql_cell() -> impl Strategy<Value = Value> {
    let text = "[a',();\n\"é€\u{1f600} ]{0,10}";
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop_oneof![Just(i64::MIN), Just(i64::MAX), -1000i64..1000].prop_map(Value::Int),
        finite_f64().prop_map(Value::Float),
        text.prop_map(Value::Str),
        (text, text).prop_map(|(a, b)| Value::Str(format!("{a}\"\"{b}"))),
        prop_oneof![
            Just("NULL"),
            Just("TRUE"),
            Just("-0"),
            Just("1.5"),
            Just("")
        ]
        .prop_map(Value::str),
    ]
}

/// Key cells that collide under rendering: NULL, `Int`s and the `Str`s and
/// `Float`s that render like them, the empty string, and text that looks
/// like a length-prefixed key (`"1:11:1"` is how a two-column key of two
/// `"1"` cells is written).
fn key_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(|i| Value::str(i.to_string())),
        Just(Value::Float(1.0)),
        Just(Value::Float(2.5)),
        Just(Value::str("2.5")),
        Just(Value::str("")),
        Just(Value::str("1:1")),
        Just(Value::str("1:11:1")),
        Just(Value::str("a")),
        Just(Value::Bool(true)),
        Just(Value::str("true")),
    ]
}

/// Three tables: `a` with a two-column primary key; `b` with a one-column
/// primary key and a two-column foreign key into `a`; `c` with no primary key,
/// two foreign keys to `b`'s primary key, one to `b`'s non-key `name`, and one
/// whose single column references `a`'s two (keys of different widths never
/// match; only an unvalidated schema can hold it).
fn keyed_database(
    a: &[(Value, Value)],
    b: &[(Value, Value, Value, Value)],
    c: &[(Value, Value, Value)],
) -> Database {
    let schema = Schema::new()
        .with_table(
            TableSchema::new("a", vec![Column::text("k1"), Column::integer("k2")])
                .with_primary_key(&["k1", "k2"]),
        )
        .with_table(
            TableSchema::new(
                "b",
                vec![
                    Column::integer("id"),
                    Column::text("name"),
                    Column::text("a1"),
                    Column::integer("a2"),
                ],
            )
            .with_primary_key(&["id"])
            .with_foreign_key(&["a1", "a2"], "a", &["k1", "k2"]),
        )
        .with_table(
            TableSchema::new(
                "c",
                vec![
                    Column::integer("x"),
                    Column::integer("y"),
                    Column::text("z"),
                ],
            )
            .with_foreign_key(&["x"], "b", &["id"])
            .with_foreign_key(&["y"], "b", &["id"])
            .with_foreign_key(&["z"], "b", &["name"])
            .with_foreign_key(&["z"], "a", &["k1", "k2"]),
        );
    let mut db = Database::new(schema);
    for (k1, k2) in a {
        assert!(db.insert("a", vec![k1.clone(), k2.clone()]));
    }
    for (id, name, a1, a2) in b {
        let row = vec![id.clone(), name.clone(), a1.clone(), a2.clone()];
        assert!(db.insert("b", row));
    }
    for (x, y, z) in c {
        assert!(db.insert("c", vec![x.clone(), y.clone(), z.clone()]));
    }
    db
}

/// `Database::check_constraints` as it was before keys were borrowed: every
/// key a `Vec` of rendered cells, and one referenced-key set per foreign key.
/// Kept as the reference for the violation list.
fn reference_constraints(db: &Database) -> Vec<ConstraintViolation> {
    let mut violations = Vec::new();
    for ts in &db.schema.tables {
        let Some(table) = db.table(&ts.name) else {
            continue;
        };
        if table.rows.iter().any(|r| r.len() != ts.arity()) {
            violations.push(ConstraintViolation::ArityMismatch {
                table: ts.name.clone(),
            });
            continue;
        }
        if !ts.primary_key.is_empty() {
            let idx: Vec<usize> = ts
                .primary_key
                .iter()
                .filter_map(|c| ts.column_index(c))
                .collect();
            let mut seen: HashSet<Vec<String>> = HashSet::new();
            for row in &table.rows {
                let key: Vec<String> = idx.iter().map(|&i| row[i].render()).collect();
                if idx.iter().any(|&i| row[i].is_null()) {
                    violations.push(ConstraintViolation::NullInPrimaryKey {
                        table: ts.name.clone(),
                    });
                }
                if !seen.insert(key.clone()) {
                    violations.push(ConstraintViolation::DuplicatePrimaryKey {
                        table: ts.name.clone(),
                        key,
                    });
                }
            }
        }
        for fk in &ts.foreign_keys {
            let (Some(ref_schema), Some(ref_table)) = (
                db.schema.table(&fk.referenced_table),
                db.table(&fk.referenced_table),
            ) else {
                continue;
            };
            let ref_idx: Vec<usize> = fk
                .referenced_columns
                .iter()
                .filter_map(|c| ref_schema.column_index(c))
                .collect();
            let referenced_keys: HashSet<Vec<String>> = ref_table
                .rows
                .iter()
                .map(|r| ref_idx.iter().map(|&i| r[i].render()).collect())
                .collect();
            let idx: Vec<usize> = fk
                .columns
                .iter()
                .filter_map(|c| ts.column_index(c))
                .collect();
            for row in &table.rows {
                let key: Vec<String> = idx.iter().map(|&i| row[i].render()).collect();
                if idx.iter().any(|&i| row[i].is_null()) {
                    continue;
                }
                if !referenced_keys.contains(&key) {
                    violations.push(ConstraintViolation::DanglingForeignKey {
                        table: ts.name.clone(),
                        referenced_table: fk.referenced_table.clone(),
                        key,
                    });
                }
            }
        }
    }
    violations
}

/// A database of two tables, the second with a foreign key into the first; each
/// child row points at a parent by index (or at a missing id when out of range).
fn two_table_database(parents: &[(Value, Value)], children: &[(usize, Value)]) -> Database {
    let schema = Schema::new()
        .with_table(
            TableSchema::new(
                "parent",
                vec![
                    Column::integer("id"),
                    Column::text("we\"ird"),
                    Column::text("b"),
                ],
            )
            .with_primary_key(&["id"]),
        )
        .with_table(
            TableSchema::new("child's", vec![Column::integer("pid"), Column::text("x")])
                .with_foreign_key(&["pid"], "parent", &["id"]),
        );
    let mut db = Database::new(schema);
    for (id, (a, b)) in parents.iter().enumerate() {
        assert!(db.insert("parent", vec![Value::int(id as i64), a.clone(), b.clone()]));
    }
    for (parent, x) in children {
        assert!(db.insert("child's", vec![Value::int(*parent as i64), x.clone()]));
    }
    db
}

/// `dump_sql` as it was before it wrote in place: one rendered statement per
/// row, each literal its own `String`.  Kept as the reference for the dump's
/// bytes.
fn reference_dump(db: &Database) -> String {
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

fn insert_statement(table: &str, columns: &[String], row: &[Value]) -> String {
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

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// A literal read back from a SQL dump.
#[derive(Debug, PartialEq, Eq, Hash)]
enum SqlLiteral {
    Null,
    Bool(bool),
    /// A bare number, as written.
    Number(String),
    Str(String),
}

impl SqlLiteral {
    /// Whether the literal reads back as `value`: a string as the exact string,
    /// an integer as the same integer, a float as a number with the same bits.
    fn reads_back_as(&self, value: &Value) -> bool {
        match (self, value) {
            (SqlLiteral::Null, Value::Null) => true,
            (SqlLiteral::Bool(a), Value::Bool(b)) => a == b,
            (SqlLiteral::Number(text), Value::Int(i)) => text.parse::<i64>() == Ok(*i),
            (SqlLiteral::Number(text), Value::Float(f)) => {
                text.parse::<f64>().map(f64::to_bits) == Ok(f.to_bits())
            }
            (SqlLiteral::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// Reads the `INSERT` statements of a SQL dump (the text after its DDL): each
/// statement's table, columns and literals.
fn read_inserts(mut sql: &str) -> Vec<(String, Vec<String>, Vec<SqlLiteral>)> {
    let mut statements = Vec::new();
    while !sql.is_empty() {
        sql = expect(sql, "INSERT INTO ");
        let (table, rest) = read_ident(sql);
        sql = expect(rest, " (");
        let mut columns = Vec::new();
        loop {
            let (column, rest) = read_ident(sql);
            columns.push(column);
            match rest.strip_prefix(", ") {
                Some(rest) => sql = rest,
                None => {
                    sql = expect(rest, ") VALUES (");
                    break;
                }
            }
        }
        let mut literals = Vec::new();
        loop {
            let (literal, rest) = read_literal(sql);
            literals.push(literal);
            match rest.strip_prefix(", ") {
                Some(rest) => sql = rest,
                None => {
                    sql = expect(rest, ");\n");
                    break;
                }
            }
        }
        statements.push((table, columns, literals));
    }
    statements
}

fn expect<'a>(sql: &'a str, token: &str) -> &'a str {
    sql.strip_prefix(token)
        .unwrap_or_else(|| panic!("expected {token:?} at {sql:?}"))
}

/// Reads text quoted by `quote`, in which a doubled quote stands for one.
fn read_quoted(sql: &str, quote: char) -> (String, &str) {
    let mut rest = expect(sql, &quote.to_string());
    let mut text = String::new();
    loop {
        let end = rest
            .find(quote)
            .unwrap_or_else(|| panic!("unterminated {quote} in {sql:?}"));
        text.push_str(&rest[..end]);
        rest = &rest[end + 1..];
        match rest.strip_prefix(quote) {
            Some(after) => {
                text.push(quote);
                rest = after;
            }
            None => return (text, rest),
        }
    }
}

fn read_ident(sql: &str) -> (String, &str) {
    read_quoted(sql, '"')
}

fn read_literal(sql: &str) -> (SqlLiteral, &str) {
    if sql.starts_with('\'') {
        let (text, rest) = read_quoted(sql, '\'');
        return (SqlLiteral::Str(text), rest);
    }
    for (keyword, literal) in [
        ("NULL", SqlLiteral::Null),
        ("TRUE", SqlLiteral::Bool(true)),
        ("FALSE", SqlLiteral::Bool(false)),
    ] {
        if let Some(rest) = sql.strip_prefix(keyword) {
            return (literal, rest);
        }
    }
    let end = sql
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(sql.len());
    assert!(end > 0, "expected a literal at {sql:?}");
    (SqlLiteral::Number(sql[..end].to_string()), &sql[end..])
}
