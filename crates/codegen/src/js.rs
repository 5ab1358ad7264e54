//! The Mitra-json back-end: translating DSL programs to JavaScript.
//!
//! The emitted program expects the parsed JSON document as input and returns an array
//! of row objects.  It reuses a small, fixed runtime prelude (marked as boilerplate so
//! it is excluded from the LOC statistic, as in the paper): helpers that materialize
//! the HDT view of the JSON value (`children`, `pchildren`, `descendants`, `parent`,
//! `child`, `data`).  The program body mirrors the DSL structure: one nested loop per
//! column extractor, with predicate guards pushed to the shallowest loop that binds
//! all of their columns (per the static query plan), so generated programs prune
//! tuples as early as the executor does.

use crate::guards::guards_by_depth;
use mitra_dsl::ast::{ColumnExtractor, NodeExtractor, Operand, Predicate, Program};
use mitra_hdt::json::json_string;

/// Generates a self-contained JavaScript program implementing `program`.
pub fn generate_javascript(program: &Program) -> String {
    let mut out = String::new();
    out.push_str("// Generated by the Mitra reproduction (mitra-codegen, JavaScript backend)\n");
    out.push_str(PRELUDE);
    out.push_str("function transform(doc) {\n");
    out.push_str("  const root = toHdt(doc, 'root');\n");
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
function toHdt(value, tag, pos = 0, parentNode = null) {
  const node = { tag, pos, data: null, children: [], parent: parentNode };
  if (Array.isArray(value)) {
    value.forEach((item, i) => node.children.push(toHdt(item, 'item', i, node)));
  } else if (value !== null && typeof value === 'object') {
    for (const [key, v] of Object.entries(value)) {
      if (Array.isArray(v)) {
        v.forEach((item, i) => node.children.push(toHdt(item, key, i, node)));
      } else {
        node.children.push(toHdt(v, key, 0, node));
      }
    }
  } else {
    node.data = value === null ? 'null' : String(value);
  }
  return node;
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
}
