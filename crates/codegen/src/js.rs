//! The Mitra-json back-end: translating DSL programs to JavaScript.
//!
//! The emitted program expects the parsed JSON document as input and returns an array
//! of row objects.  It reuses a small, fixed runtime prelude (marked as boilerplate so
//! it is excluded from the LOC statistic, as in the paper): `toHdt`, which maps the
//! JSON value to its HDT as `mitra_hdt::json::json_to_hdt` does (an array's entries,
//! nested arrays flattened, are siblings under its key; a node's `pos` counts its
//! earlier same-tag siblings; a bare root array's entries are tagged `item` and a
//! bare root scalar is a `value` leaf; `plainNumber` writes a number's data as
//! `format_number` does, never in exponent notation), and helpers over that view
//! (`children`, `pchildren`, `descendants`, `parent`, `child`, `data`).
//! `JSON.parse` keeps only the last of repeated keys, so a document with repeated
//! keys is not supported.
//!
//! The program body mirrors the DSL structure: one nested loop per column
//! extractor, with predicate guards pushed to the shallowest loop that binds all of
//! their columns (per the static query plan), so generated programs prune tuples as
//! early as the executor does.

use crate::guards::guards_by_depth;
use mitra_dsl::ast::{ColumnExtractor, NodeExtractor, Operand, Predicate, Program};
use mitra_hdt::json::json_string;

/// Generates a self-contained JavaScript program implementing `program`.
pub fn generate_javascript(program: &Program) -> String {
    let mut out = String::new();
    out.push_str("// Generated by the Mitra reproduction (mitra-codegen, JavaScript backend)\n");
    out.push_str(PRELUDE);
    out.push_str("function transform(doc) {\n");
    out.push_str("  const root = toHdt(doc);\n");
    out.push_str("  const rows = [];\n");

    let arity = program.arity();
    let guards = guards_by_depth(program);
    let mut indent = String::from("  ");
    // Braces opened at each depth: the column loop plus an optional combined guard.
    let mut opened: Vec<usize> = Vec::with_capacity(arity);
    for (i, pi) in program.extractor.columns.iter().enumerate() {
        let expr = column_expr(pi);
        out.push_str(&format!("{indent}for (const c{i} of {expr}) {{\n"));
        indent.push_str("  ");
        let mut blocks = 1;
        if let Some(g) = guards.get(i).filter(|g| !g.is_empty()) {
            let cond = combined_guard(g);
            out.push_str(&format!("{indent}if ({cond}) {{\n"));
            indent.push_str("  ");
            blocks += 1;
        }
        opened.push(blocks);
    }
    out.push_str(&format!("{indent}rows.push({{\n"));
    for i in 0..arity {
        let name = program
            .column_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("c{i}"));
        out.push_str(&format!("{indent}  {}: data(c{i}),\n", json_string(&name)));
    }
    out.push_str(&format!("{indent}}});\n"));
    for blocks in opened.iter().rev() {
        for _ in 0..*blocks {
            indent.truncate(indent.len() - 2);
            out.push_str(&format!("{indent}}}\n"));
        }
    }
    out.push_str("  return rows;\n");
    out.push_str("}\n");
    out.push_str("module.exports = { transform };\n");
    out
}

/// Joins a depth's guard predicates into one `&&`-combined boolean expression
/// (each wrapped in parentheses when there is more than one, since a residual
/// clause renders with a top-level `||`).
fn combined_guard(guards: &[Predicate]) -> String {
    if guards.len() == 1 {
        predicate_expr(&guards[0])
    } else {
        guards
            .iter()
            .map(|g| format!("({})", predicate_expr(g)))
            .collect::<Vec<_>>()
            .join(" && ")
    }
}

/// JavaScript expression (an array of nodes) for a column extractor.
pub fn column_expr(pi: &ColumnExtractor) -> String {
    match pi {
        ColumnExtractor::Input => "[root]".to_string(),
        ColumnExtractor::Children { inner, tag } => {
            format!(
                "children({}, {})",
                column_expr(inner),
                json_string(tag.as_str())
            )
        }
        ColumnExtractor::PChildren { inner, tag, pos } => {
            format!(
                "pchildren({}, {}, {})",
                column_expr(inner),
                json_string(tag.as_str()),
                pos
            )
        }
        ColumnExtractor::Descendants { inner, tag } => {
            format!(
                "descendants({}, {})",
                column_expr(inner),
                json_string(tag.as_str())
            )
        }
    }
}

/// JavaScript expression (a node or null) for a node extractor applied to `base`.
pub fn node_expr(base: &str, phi: &NodeExtractor) -> String {
    match phi {
        NodeExtractor::Id => base.to_string(),
        NodeExtractor::Parent(inner) => format!("parent({})", node_expr(base, inner)),
        NodeExtractor::Child { inner, tag, pos } => {
            format!(
                "child({}, {}, {})",
                node_expr(base, inner),
                json_string(tag.as_str()),
                pos
            )
        }
    }
}

/// JavaScript boolean expression for a predicate over the `c0..ck` loop variables.
pub fn predicate_expr(p: &Predicate) -> String {
    match p {
        Predicate::True => "true".to_string(),
        Predicate::False => "false".to_string(),
        Predicate::Not(inner) => format!("!({})", predicate_expr(inner)),
        Predicate::And(a, b) => format!("({}) && ({})", predicate_expr(a), predicate_expr(b)),
        Predicate::Or(a, b) => format!("({}) || ({})", predicate_expr(a), predicate_expr(b)),
        Predicate::Compare {
            extractor,
            index,
            op,
            rhs,
        } => {
            let lhs = node_expr(&format!("c{index}"), extractor);
            match rhs {
                Operand::Const(c) => {
                    let constant = if c.as_number().is_some() {
                        c.render()
                    } else {
                        json_string(&c.render())
                    };
                    let op = json_string(op.symbol());
                    format!("cmp(data({lhs}), {constant}, {op})")
                }
                Operand::Column {
                    extractor: phi2,
                    index: j,
                } => {
                    let rhs_expr = node_expr(&format!("c{j}"), phi2);
                    let op = json_string(op.symbol());
                    format!("cmpNodes({lhs}, {rhs_expr}, {op})")
                }
            }
        }
    }
}

/// Fixed runtime helpers shared by every generated program.  Kept inside boilerplate
/// markers so [`crate::loc::lines_of_code`] excludes them, matching the paper's LOC
/// accounting.
const PRELUDE: &str = r#"// BOILERPLATE-BEGIN
function toHdt(doc) {
  const newNode = (tag, pos, parent) => ({ tag, pos, data: null, children: [], parent, seen: new Map() });
  const add = (parent, tag, value) => {
    if (Array.isArray(value)) { value.forEach(item => add(parent, tag, item)); return; }
    const pos = parent.seen.get(tag) || 0;
    parent.seen.set(tag, pos + 1);
    const node = newNode(tag, pos, parent);
    parent.children.push(node);
    if (value !== null && typeof value === 'object') fill(node, value);
    else node.data = value === null ? 'null' : typeof value === 'number' ? plainNumber(value) : String(value);
  };
  const fill = (node, object) => { for (const [key, v] of Object.entries(object)) add(node, key, v); };
  const root = newNode('root', 0, null);
  if (Array.isArray(doc)) add(root, 'item', doc);
  else if (doc !== null && typeof doc === 'object') fill(root, doc);
  else add(root, 'value', doc);
  return root;
}
function plainNumber(x) {
  const s = String(x), e = s.indexOf('e');
  if (e < 0) return s;
  const sign = x < 0 ? '-' : '', mantissa = s.slice(sign.length, e);
  const digits = mantissa.replace('.', ''), dot = mantissa.indexOf('.');
  const point = (dot < 0 ? mantissa.length : dot) + Number(s.slice(e + 1));
  if (point <= 0) return sign + '0.' + '0'.repeat(-point) + digits;
  if (point >= digits.length) return sign + digits + '0'.repeat(point - digits.length);
  return sign + digits.slice(0, point) + '.' + digits.slice(point);
}
function children(nodes, tag) {
  return nodes.flatMap(n => n.children.filter(c => c.tag === tag));
}
function pchildren(nodes, tag, pos) {
  return nodes.flatMap(n => n.children.filter(c => c.tag === tag && c.pos === pos));
}
function descendants(nodes, tag) {
  const out = [];
  const walk = n => { for (const kid of n.children) { if (kid.tag === tag) out.push(kid); walk(kid); } };
  nodes.forEach(walk);
  return out;
}
function parent(n) { return n ? n.parent : null; }
function child(n, tag, pos) {
  return n ? (n.children.find(c => c.tag === tag && c.pos === pos) || null) : null;
}
function data(n) { return n ? n.data : null; }
function cmp(a, b, op) {
  if (a === null || b === null) return false;
  const na = Number(a), nb = Number(b);
  const numeric = !Number.isNaN(na) && !Number.isNaN(nb);
  const [x, y] = numeric ? [na, nb] : [String(a), String(b)];
  switch (op) {
    case '=': return x === y;
    case '!=': return x !== y;
    case '<': return x < y;
    case '<=': return x <= y;
    case '>': return x > y;
    case '>=': return x >= y;
  }
  return false;
}
function cmpNodes(a, b, op) {
  if (!a || !b) return false;
  const aLeaf = a.children.length === 0, bLeaf = b.children.length === 0;
  if (aLeaf && bLeaf) return cmp(a.data, b.data, op);
  if (!aLeaf && !bLeaf) return op === '=' ? a === b : op === '!=' ? a !== b : false;
  return false;
}
// BOILERPLATE-END
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::lines_of_code;
    use mitra_dsl::ast::{CompareOp, TableExtractor};
    use mitra_dsl::{Program, Value};
    use mitra_hdt::json::{json_to_hdt, parse_json, JsonValue};
    use mitra_hdt::Hdt;
    use mitra_synth::exec::execute_nodes_budgeted;
    use std::io::Write;
    use std::process::{Command, Stdio};

    fn sample_program() -> Program {
        use ColumnExtractor as CE;
        let name = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        let years = CE::descendants(CE::Input, "years");
        let pred = Predicate::and(
            Predicate::Compare {
                extractor: NodeExtractor::parent(NodeExtractor::Id),
                index: 0,
                op: CompareOp::Eq,
                rhs: Operand::Column {
                    extractor: NodeExtractor::parent(NodeExtractor::parent(NodeExtractor::Id)),
                    index: 1,
                },
            },
            Predicate::Compare {
                extractor: NodeExtractor::Id,
                index: 1,
                op: CompareOp::Lt,
                rhs: Operand::Const(Value::int(10)),
            },
        );
        let mut p = Program::new(TableExtractor::new(vec![name, years]), pred);
        p.column_names = vec!["Person".into(), "years".into()];
        p
    }

    #[test]
    fn program_has_one_loop_per_column() {
        let js = generate_javascript(&sample_program());
        assert_eq!(js.matches("for (const c").count(), 2);
        assert!(js.contains("rows.push"));
        assert!(js.contains("\"Person\": data(c0)"));
    }

    #[test]
    fn column_expressions_translate() {
        use ColumnExtractor as CE;
        let pi = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        assert_eq!(
            column_expr(&pi),
            "pchildren(children([root], \"Person\"), \"name\", 0)"
        );
    }

    #[test]
    fn node_expressions_translate() {
        let phi = NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "id", 0);
        assert_eq!(node_expr("c1", &phi), "child(parent(c1), \"id\", 0)");
    }

    #[test]
    fn predicate_expressions_use_runtime_helpers() {
        let js = generate_javascript(&sample_program());
        assert!(js.contains("cmpNodes("));
        assert!(js.contains("cmp(data("));
    }

    #[test]
    fn prelude_is_excluded_from_loc() {
        let js = generate_javascript(&sample_program());
        let loc = lines_of_code(&js);
        // The prelude alone is ~50 lines; the counted body must be much smaller.
        assert!(loc < 25, "LOC {loc} unexpectedly large");
        assert!(loc >= 8);
    }

    #[test]
    fn single_column_filters_are_checked_before_inner_loops() {
        use ColumnExtractor as CE;
        // Filter on c0 only: its guard must sit between the two loops, not inside
        // the innermost one.
        let pred = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Lt,
            rhs: Operand::Const(Value::int(5)),
        };
        let program = Program::new(
            TableExtractor::new(vec![
                CE::descendants(CE::Input, "years"),
                CE::children(CE::Input, "Person"),
            ]),
            pred,
        );
        let js = generate_javascript(&program);
        let guard_at = js.find("if (cmp(data(c0)").expect("guard emitted");
        let inner_loop_at = js.find("for (const c1").expect("inner loop emitted");
        assert!(
            guard_at < inner_loop_at,
            "guard should precede the inner loop:\n{js}"
        );
    }

    #[test]
    fn true_predicate_emits_no_guard() {
        use ColumnExtractor as CE;
        let program = Program::new(
            TableExtractor::new(vec![CE::children(CE::Input, "item")]),
            Predicate::True,
        );
        let js = generate_javascript(&program);
        let body = js
            .split("function transform")
            .nth(1)
            .expect("transform body");
        assert!(!body.contains("if ("), "no guard expected:\n{body}");
    }

    #[test]
    fn literals_are_json_strings() {
        use ColumnExtractor as CE;
        // Rust's `{:?}` writes `\u{0}`, which is no JavaScript escape.
        let text = "a\u{0}1b\"\\\n\u{2028}é";
        let eq = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::Id, text, 0),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::str(text)),
        };
        let mut program = Program::new(
            TableExtractor::new(vec![CE::pchildren(
                CE::descendants(CE::Input, text),
                text,
                0,
            )]),
            eq,
        );
        program.column_names = vec![text.into()];
        let js = generate_javascript(&program);
        let literal = json_string(text);
        assert!(!js.contains("\\u{"), "{js}");
        for expected in [
            format!("pchildren(descendants([root], {literal}), {literal}, 0)"),
            format!("cmp(data(child(c0, {literal}, 0)), {literal}, \"=\")"),
            format!("{literal}: data(c0)"),
        ] {
            assert!(js.contains(&expected), "{expected} missing from\n{js}");
        }
    }

    #[test]
    fn string_constants_are_quoted() {
        let p = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::str("Alice")),
        };
        assert!(predicate_expr(&p).contains("\"Alice\""));
    }

    /// JSON documents the emitted JavaScript runs on in `node`: arrays nested
    /// under a key and at the root, objects inside them, a bare root scalar, and
    /// numbers that JavaScript's `String` writes in exponent notation.
    const DOCUMENTS: [&str; 5] = [
        r#"{"k": [[1, 2], [3]]}"#,
        "[[1, 2], [3]]",
        r#"[[{"k": [4, [5]]}], {"k": 6, "item": [7, [8, 9]]}]"#,
        "7",
        r#"{"k": [1e21, -1e22, 2.5e-7, 123.456]}"#,
    ];

    /// `children`, `pchildren(…, 2)` and `descendants` of the root for each tag
    /// the documents use.
    fn node_programs() -> Vec<Program> {
        use ColumnExtractor as CE;
        let mut out = Vec::new();
        for tag in ["k", "item", "value"] {
            for column in [
                CE::children(CE::Input, tag),
                CE::pchildren(CE::Input, tag, 2),
                CE::descendants(CE::Input, tag),
            ] {
                out.push(Program::new(
                    TableExtractor::new(vec![column]),
                    Predicate::True,
                ));
            }
        }
        out
    }

    /// Runs every program on every document in one `node` process; the result is
    /// indexed by document, then program, then row.  `None` when `node` is missing.
    fn run_in_node(programs: &[Program]) -> Option<JsonValue> {
        let mut script = String::from("const programs = [\n");
        for p in programs {
            script.push_str(&format!(
                "(() => {{\n{}\nreturn transform;\n}})(),\n",
                generate_javascript(p)
            ));
        }
        script.push_str(
            "];\nconst docs = JSON.parse(require('fs').readFileSync(0, 'utf8'));\n\
             process.stdout.write(JSON.stringify(docs.map(d => programs.map(t => t(d)))));\n",
        );
        let mut child = match Command::new("node")
            .arg("-e")
            .arg(&script)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
        {
            Ok(child) => child,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => panic!("cannot start node: {e}"),
        };
        let docs = format!("[{}]", DOCUMENTS.join(",\n"));
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(docs.as_bytes())
            .expect("node reads the documents");
        let out = child.wait_with_output().expect("node runs");
        assert!(
            out.status.success(),
            "node failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).expect("node writes UTF-8");
        Some(parse_json(&text).expect("node writes JSON"))
    }

    /// The rows of a table as a sorted bag of cell texts: `None` for an
    /// internal node, whose data is `null`.
    type TextRows = Vec<Vec<Option<String>>>;

    /// A JSON array of row objects, cell by cell as the prelude writes data.
    fn text_rows(rows: &JsonValue) -> TextRows {
        let JsonValue::Array(rows) = rows else {
            panic!("rows are an array: {rows:?}");
        };
        let mut out: TextRows = rows
            .iter()
            .map(|row| {
                let JsonValue::Object(cells) = row else {
                    panic!("a row is an object: {row:?}");
                };
                cells
                    .iter()
                    .map(|(_, cell)| match cell {
                        JsonValue::String(s) => Some(s.to_string()),
                        JsonValue::Null => None,
                        other => panic!("a cell is a string or null: {other:?}"),
                    })
                    .collect()
            })
            .collect();
        out.sort();
        out
    }

    /// The executor's rows, each cell the text `json_to_hdt` stored at the node.
    fn executor_rows(tree: &Hdt, program: &Program) -> TextRows {
        let (rows, _) = execute_nodes_budgeted(tree, program, None).expect("no row budget");
        let mut out: TextRows = rows
            .rows()
            .map(|row| {
                row.iter()
                    .map(|&n| tree.data(n).map(str::to_string))
                    .collect()
            })
            .collect();
        out.sort();
        out
    }

    /// The emitted program, run with `node`, returns the executor's rows as a
    /// bag, cell text included: the prelude maps a JSON value to the tree
    /// `json_to_hdt` builds, and writes a number as `format_number` does.
    /// When `node` is not on `PATH` the test prints a note and returns.
    #[test]
    fn emitted_javascript_returns_the_executors_rows() {
        let programs = node_programs();
        let per_doc = match run_in_node(&programs) {
            Some(JsonValue::Array(per_doc)) => per_doc,
            Some(other) => panic!("one result per document: {other:?}"),
            None => {
                eprintln!("note: `node` is not on PATH; the emitted JavaScript was not run");
                return;
            }
        };
        assert_eq!(per_doc.len(), DOCUMENTS.len());
        let mut rows = 0;
        for (doc, results) in DOCUMENTS.iter().zip(&per_doc) {
            let tree = json_to_hdt(doc).expect("well-formed JSON");
            let JsonValue::Array(results) = results else {
                panic!("one result per program: {results:?}");
            };
            assert_eq!(results.len(), programs.len());
            for (program, result) in programs.iter().zip(results) {
                let expected = executor_rows(&tree, program);
                let actual = text_rows(result);
                assert_eq!(
                    actual,
                    expected,
                    "{doc} | {}: node, then the executor",
                    mitra_dsl::pretty::program(program)
                );
                rows += expected.len();
            }
        }
        // `children(s, k)` on the first document alone gives 1, 2 and 3.
        assert!(rows >= 3, "the documents give rows to compare");
    }
}
