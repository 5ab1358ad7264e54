//! The Mitra-xml back-end: translating DSL programs to XSLT 1.0 stylesheets.
//!
//! The emitted stylesheet walks the input document with one nested `<xsl:for-each>`
//! per column extractor, evaluates the predicate with `<xsl:if>` tests — one per loop
//! depth, holding the guards that become checkable once that depth's variable is
//! bound (per the static query plan) — and writes one `<row>` element (with one
//! `<cell>` per column) for every surviving tuple.  Column extractors map to XPath
//! axes: `children(π, t)` → `π/t`, `pchildren(π, t, p)` → `π/t[p+1]`,
//! `descendants(π, t)` → `π//t`; node extractors inside predicates map to `..`
//! (parent) and `child[pos]` steps.
//!
//! XPath is built as plain text, string constants quoted as XPath literals, and
//! every attribute value is escaped exactly once, by [`mitra_hdt::xml::escape`],
//! as it is written.

use crate::guards::guards_by_depth;
use mitra_dsl::ast::{ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, Program};
use mitra_hdt::xml::escape;

/// Generates an XSLT stylesheet implementing `program`.
pub fn generate_xslt(program: &Program) -> String {
    let mut out = String::new();
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str(
        "<xsl:stylesheet version=\"1.0\" xmlns:xsl=\"http://www.w3.org/1999/XSL/Transform\">\n",
    );
    out.push_str("  <xsl:output method=\"xml\" indent=\"yes\"/>\n");
    out.push_str("  <!-- Generated by the Mitra reproduction (mitra-codegen, XSLT backend) -->\n");
    out.push_str("  <xsl:template match=\"/\">\n");
    out.push_str("    <table>\n");

    // One nested for-each per column extractor; variable ci holds the column-i node.
    // Each depth's guards (pushed-down filters, joins whose deeper column this is,
    // residual clauses) combine into one <xsl:if> directly inside that loop.
    let arity = program.arity();
    let guards = guards_by_depth(program);
    let mut indent = String::from("      ");
    let mut has_guard: Vec<bool> = Vec::with_capacity(arity);
    for (i, pi) in program.extractor.columns.iter().enumerate() {
        let path = escape(&column_xpath(pi));
        out.push_str(&format!("{indent}<xsl:for-each select=\"{path}\">\n"));
        indent.push_str("  ");
        out.push_str(&format!(
            "{indent}<xsl:variable name=\"c{i}\" select=\".\"/>\n"
        ));
        let guarded = guards.get(i).map(|g| !g.is_empty()).unwrap_or(false);
        if guarded {
            let test = escape(&combined_test(&guards[i]));
            out.push_str(&format!("{indent}<xsl:if test=\"{test}\">\n"));
            indent.push_str("  ");
        }
        has_guard.push(guarded);
    }
    out.push_str(&format!("{indent}<row>\n"));
    for i in 0..arity {
        let name = program
            .column_names
            .get(i)
            .cloned()
            .unwrap_or_else(|| format!("c{i}"));
        out.push_str(&format!(
            "{indent}  <cell column=\"{}\"><xsl:value-of select=\"${}\"/></cell>\n",
            escape(&name),
            format_args!("c{i}")
        ));
    }
    out.push_str(&format!("{indent}</row>\n"));

    for &guarded in has_guard.iter().rev() {
        if guarded {
            indent.truncate(indent.len() - 2);
            out.push_str(&format!("{indent}</xsl:if>\n"));
        }
        indent.truncate(indent.len() - 2);
        out.push_str(&format!("{indent}</xsl:for-each>\n"));
    }
    out.push_str("    </table>\n");
    out.push_str("  </xsl:template>\n");
    out.push_str("</xsl:stylesheet>\n");
    out
}

/// Joins a depth's guard predicates into one `and`-combined XPath test (each
/// wrapped in parentheses when there is more than one, since equi-joins and
/// residual clauses render with top-level `or`).
fn combined_test(guards: &[Predicate]) -> String {
    if guards.len() == 1 {
        predicate_xpath(&guards[0])
    } else {
        guards
            .iter()
            .map(|g| format!("({})", predicate_xpath(g)))
            .collect::<Vec<_>>()
            .join(" and ")
    }
}

/// XPath expression for a column extractor, relative to the document root.
pub fn column_xpath(pi: &ColumnExtractor) -> String {
    match pi {
        ColumnExtractor::Input => "/*".to_string(),
        ColumnExtractor::Children { inner, tag } => format!("{}/{}", column_xpath(inner), tag),
        ColumnExtractor::PChildren { inner, tag, pos } => {
            format!("{}/{}[{}]", column_xpath(inner), tag, pos + 1)
        }
        ColumnExtractor::Descendants { inner, tag } => {
            format!("{}//{}", column_xpath(inner), tag)
        }
    }
}

/// XPath expression for a node extractor, relative to a context node expression.
pub fn node_xpath(context: &str, phi: &NodeExtractor) -> String {
    match phi {
        NodeExtractor::Id => context.to_string(),
        NodeExtractor::Parent(inner) => format!("{}/..", node_xpath(context, inner)),
        NodeExtractor::Child { inner, tag, pos } => {
            format!("{}/{}[{}]", node_xpath(context, inner), tag, pos + 1)
        }
    }
}

/// XPath boolean expression for a predicate over the `$c0..$ck` column variables.
pub fn predicate_xpath(p: &Predicate) -> String {
    match p {
        Predicate::True => "true()".to_string(),
        Predicate::False => "false()".to_string(),
        Predicate::Not(inner) => format!("not({})", predicate_xpath(inner)),
        Predicate::And(a, b) => format!("({}) and ({})", predicate_xpath(a), predicate_xpath(b)),
        Predicate::Or(a, b) => format!("({}) or ({})", predicate_xpath(a), predicate_xpath(b)),
        Predicate::Compare {
            extractor,
            index,
            op,
            rhs,
        } => {
            let lhs = node_xpath(&format!("$c{index}"), extractor);
            match rhs {
                Operand::Const(c) => {
                    let constant = if c.as_number().is_some() {
                        c.render()
                    } else {
                        string_literal(&c.render())
                    };
                    format!("{} {} {}", value_of(&lhs), xpath_op(*op), constant)
                }
                Operand::Column {
                    extractor: phi2,
                    index: j,
                } => {
                    let rhs_path = node_xpath(&format!("$c{j}"), phi2);
                    match op {
                        // Node-identity equality is expressed with generate-id() so that
                        // internal-node comparisons follow the Figure 7 semantics.
                        CompareOp::Eq => format!(
                            "generate-id({lhs}) = generate-id({rhs_path}) or {} = {}",
                            value_of(&lhs),
                            value_of(&rhs_path)
                        ),
                        _ => format!(
                            "{} {} {}",
                            value_of(&lhs),
                            xpath_op(*op),
                            value_of(&rhs_path)
                        ),
                    }
                }
            }
        }
    }
}

fn value_of(path: &str) -> String {
    format!("string({path})")
}

fn xpath_op(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    }
}

/// An XPath 1.0 string literal of `s`, which has no escapes: quoted with `'`, or
/// with `"` when `s` holds `'`, or as a `concat()` of both kinds of pieces when it
/// holds both quotes.
fn string_literal(s: &str) -> String {
    if !s.contains('\'') {
        format!("'{s}'")
    } else if !s.contains('"') {
        format!("\"{s}\"")
    } else {
        let pieces: Vec<String> = s.split('\'').map(|piece| format!("'{piece}'")).collect();
        format!("concat({})", pieces.join(", \"'\", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::ast::TableExtractor;
    use mitra_dsl::{Program, Value};

    fn social_program() -> Program {
        use ColumnExtractor as CE;
        let name = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        let years = CE::descendants(CE::Input, "years");
        let pred = Predicate::Compare {
            extractor: NodeExtractor::parent(NodeExtractor::Id),
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::parent(NodeExtractor::parent(NodeExtractor::parent(
                    NodeExtractor::Id,
                ))),
                index: 1,
            },
        };
        let mut p = Program::new(TableExtractor::new(vec![name, years]), pred);
        p.column_names = vec!["Person".into(), "years".into()];
        p
    }

    #[test]
    fn column_xpath_translation() {
        use ColumnExtractor as CE;
        let pi = CE::pchildren(CE::children(CE::Input, "Person"), "name", 0);
        assert_eq!(column_xpath(&pi), "/*/Person/name[1]");
        let pi2 = CE::descendants(CE::Input, "object");
        assert_eq!(column_xpath(&pi2), "/*//object");
    }

    #[test]
    fn node_xpath_translation() {
        let phi = NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "id", 0);
        assert_eq!(node_xpath("$c0", &phi), "$c0/../id[1]");
    }

    #[test]
    fn stylesheet_contains_one_for_each_per_column() {
        let xslt = generate_xslt(&social_program());
        assert_eq!(xslt.matches("<xsl:for-each").count(), 2);
        assert_eq!(xslt.matches("</xsl:for-each>").count(), 2);
        assert!(xslt.contains("<xsl:if test="));
        assert!(xslt.contains("column=\"Person\""));
    }

    #[test]
    fn constant_comparisons_are_quoted_appropriately() {
        let p = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Lt,
            rhs: Operand::Const(Value::int(20)),
        };
        let s = predicate_xpath(&p);
        assert!(s.contains("< 20"));
        let p2 = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::str("Alice")),
        };
        assert!(predicate_xpath(&p2).contains("'Alice'"));
    }

    #[test]
    fn string_literals_survive_quotes_and_ampersands() {
        let eq = |constant: &str| Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::str(constant)),
        };
        assert_eq!(string_literal("a'b\"c"), r#"concat('a', "'", 'b"c')"#);
        let pred = Predicate::or(eq("O'Brien"), Predicate::or(eq("AT&T"), eq("x<y")));
        let mut program = Program::new(
            TableExtractor::new(vec![ColumnExtractor::descendants(
                ColumnExtractor::Input,
                "name",
            )]),
            pred,
        );
        program.column_names = vec!["a&b \"c\"".into()];
        let xslt = generate_xslt(&program);
        let tree = mitra_hdt::xml::xml_to_hdt(&xslt).expect("well-formed");
        let data_of = |tag: &str| -> Vec<String> {
            let nodes = tree.descendants_with_tag(tree.root(), tag);
            nodes
                .iter()
                .filter_map(|&n| tree.data(n).map(str::to_string))
                .collect()
        };
        let test = data_of("test");
        assert_eq!(
            test,
            [r#"((string($c0) = "O'Brien") or (string($c0) = 'AT&T')) or (string($c0) = 'x<y')"#]
        );
        assert_eq!(data_of("column"), ["a&b \"c\""]);
    }

    #[test]
    fn single_column_filters_are_tested_before_inner_loops() {
        use ColumnExtractor as CE;
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
        let xslt = generate_xslt(&program);
        let guard_at = xslt.find("<xsl:if test=").expect("guard emitted");
        let inner_loop_at = xslt
            .match_indices("<xsl:for-each")
            .nth(1)
            .expect("inner loop emitted")
            .0;
        assert!(
            guard_at < inner_loop_at,
            "guard should precede the inner loop:\n{xslt}"
        );
        // The pushed-up guard still nests correctly.
        let tree = mitra_hdt::xml::xml_to_hdt(&xslt).expect("well-formed");
        assert_eq!(tree.tag_name(tree.root()), "xsl:stylesheet");
    }

    #[test]
    fn stylesheet_is_well_formed_xml() {
        // Parse the emitted stylesheet with our own XML parser as a structural check.
        let xslt = generate_xslt(&social_program());
        let tree =
            mitra_hdt::xml::xml_to_hdt(&xslt).expect("emitted XSLT should be well-formed XML");
        assert_eq!(tree.tag_name(tree.root()), "xsl:stylesheet");
    }

    #[test]
    fn boolean_connectives_render() {
        let a = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::int(1)),
        };
        let s = predicate_xpath(&Predicate::or(Predicate::not(a.clone()), a));
        assert!(s.contains(" or "));
        assert!(s.contains("not("));
    }
}
