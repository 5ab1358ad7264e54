//! Static well-formedness checks for DSL programs.
//!
//! Programs produced by the synthesizer are correct by construction, but programs can
//! also be written by hand or loaded from text (see [`crate::parse`]) — for example by
//! the command-line front end before running a user-supplied program over a large
//! document.  This module checks such programs *before* evaluation and reports
//! problems as structured diagnostics instead of silently producing empty tables:
//!
//! * **errors** — the program is structurally broken (no columns, tuple indices out of
//!   range, a mismatched number of column names);
//! * **warnings** — the program is well-formed but suspicious against a given input
//!   tree (it references tags that never occur, or positions larger than any sibling
//!   group in the document), which almost always means an empty result.

use crate::ast::{ColumnExtractor, NodeExtractor, Operand, Predicate, Program};
use mitra_hdt::{Hdt, TagId};
use std::collections::HashSet;
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is well-formed but unlikely to do what the author intends.
    Warning,
    /// The program cannot be evaluated meaningfully.
    Error,
}

/// One finding of the validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Diagnostic {
    fn error(message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            message: message.into(),
        }
    }

    fn warning(message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{kind}: {}", self.message)
    }
}

/// The result of validating a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Validation {
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Validation {
    /// True when no error-severity diagnostics were produced.
    pub fn is_valid(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .collect()
    }

    fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| b.severity.cmp(&a.severity).then(a.message.cmp(&b.message)));
    }
}

/// Checks the purely structural properties of a program (no input tree required).
pub fn validate(program: &Program) -> Validation {
    let mut v = Validation::default();
    let arity = program.arity();

    if arity == 0 {
        v.push(Diagnostic::error("the table extractor has no columns"));
    }
    if let Some(names) = non_empty(&program.column_names) {
        if names.len() != arity {
            v.push(Diagnostic::error(format!(
                "{} column names are declared but the table extractor has {arity} columns",
                names.len()
            )));
        }
        let mut seen = HashSet::new();
        for name in names {
            if !seen.insert(name) {
                v.push(Diagnostic::warning(format!(
                    "duplicate column name `{name}`"
                )));
            }
        }
    }

    check_predicate_indices(&program.predicate, arity, &mut v);
    v.sort();
    v
}

/// Checks a program against a concrete input tree: structural checks plus
/// tag-alphabet and position plausibility checks.
pub fn validate_against(program: &Program, tree: &Hdt) -> Validation {
    let mut v = validate(program);
    let alphabet: HashSet<TagId> = tree.ids().map(|id| tree.tag(id)).collect();
    let max_pos = tree.ids().map(|id| tree.pos(id)).max().unwrap_or(0);

    for (i, column) in program.extractor.columns.iter().enumerate() {
        check_column_tags(column, i, &alphabet, max_pos, &mut v);
    }
    for atom in program.predicate.atoms() {
        if let Predicate::Compare { extractor, rhs, .. } = &atom {
            check_node_extractor_tags(extractor, &alphabet, max_pos, &mut v);
            if let Operand::Column { extractor, .. } = rhs {
                check_node_extractor_tags(extractor, &alphabet, max_pos, &mut v);
            }
        }
    }
    v.sort();
    v.diagnostics.dedup();
    v
}

fn non_empty(names: &[String]) -> Option<&[String]> {
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

fn check_predicate_indices(predicate: &Predicate, arity: usize, v: &mut Validation) {
    match predicate {
        Predicate::True | Predicate::False => {}
        Predicate::Compare { index, rhs, .. } => {
            if *index >= arity {
                v.push(Diagnostic::error(format!(
                    "predicate refers to tuple component t[{index}] but the tuple has {arity} components"
                )));
            }
            if let Operand::Column { index, .. } = rhs {
                if *index >= arity {
                    v.push(Diagnostic::error(format!(
                        "predicate refers to tuple component t[{index}] but the tuple has {arity} components"
                    )));
                }
            }
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            check_predicate_indices(a, arity, v);
            check_predicate_indices(b, arity, v);
        }
        Predicate::Not(inner) => check_predicate_indices(inner, arity, v),
    }
}

fn check_column_tags(
    column: &ColumnExtractor,
    column_index: usize,
    alphabet: &HashSet<TagId>,
    max_pos: usize,
    v: &mut Validation,
) {
    match column {
        ColumnExtractor::Input => {}
        ColumnExtractor::Children { inner, tag } | ColumnExtractor::Descendants { inner, tag } => {
            warn_unknown_tag(*tag, column_index, alphabet, v);
            check_column_tags(inner, column_index, alphabet, max_pos, v);
        }
        ColumnExtractor::PChildren { inner, tag, pos } => {
            warn_unknown_tag(*tag, column_index, alphabet, v);
            if *pos > max_pos {
                v.push(Diagnostic::warning(format!(
                    "column {column_index} selects position {pos} of `{tag}`, but no node in the \
                     document has a sibling position greater than {max_pos}"
                )));
            }
            check_column_tags(inner, column_index, alphabet, max_pos, v);
        }
    }
}

fn warn_unknown_tag(
    tag: TagId,
    column_index: usize,
    alphabet: &HashSet<TagId>,
    v: &mut Validation,
) {
    if !alphabet.contains(&tag) {
        v.push(Diagnostic::warning(format!(
            "column {column_index} selects tag `{tag}`, which does not occur in the document"
        )));
    }
}

fn check_node_extractor_tags(
    extractor: &NodeExtractor,
    alphabet: &HashSet<TagId>,
    max_pos: usize,
    v: &mut Validation,
) {
    match extractor {
        NodeExtractor::Id => {}
        NodeExtractor::Parent(inner) => check_node_extractor_tags(inner, alphabet, max_pos, v),
        NodeExtractor::Child { inner, tag, pos } => {
            if !alphabet.contains(tag) {
                v.push(Diagnostic::warning(format!(
                    "predicate follows child tag `{tag}`, which does not occur in the document"
                )));
            }
            if *pos > max_pos {
                v.push(Diagnostic::warning(format!(
                    "predicate selects child position {pos} of `{tag}`, larger than any sibling \
                     position in the document ({max_pos})"
                )));
            }
            check_node_extractor_tags(inner, alphabet, max_pos, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CompareOp, TableExtractor};
    use crate::Value;
    use mitra_hdt::generate::social_network;

    fn person_name_program() -> Program {
        let pi = ColumnExtractor::pchildren(
            ColumnExtractor::children(ColumnExtractor::Input, "Person"),
            "name",
            0,
        );
        let mut program = Program::new(TableExtractor::new(vec![pi]), Predicate::True);
        program.column_names = vec!["name".to_string()];
        program
    }

    #[test]
    fn well_formed_program_is_valid() {
        let program = person_name_program();
        let v = validate(&program);
        assert!(v.is_valid());
        assert!(v.diagnostics.is_empty());
        let v = validate_against(&program, &social_network(3, 1));
        assert!(v.is_valid());
        assert!(v.warnings().is_empty());
    }

    #[test]
    fn zero_columns_is_an_error() {
        let program = Program::new(TableExtractor::new(vec![]), Predicate::True);
        let v = validate(&program);
        assert!(!v.is_valid());
        assert_eq!(v.errors().len(), 1);
    }

    #[test]
    fn column_name_count_mismatch_is_an_error() {
        let mut program = person_name_program();
        program.column_names = vec!["a".to_string(), "b".to_string()];
        assert!(!validate(&program).is_valid());
    }

    #[test]
    fn duplicate_column_names_are_a_warning() {
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "Person");
        let mut program = Program::new(TableExtractor::new(vec![pi.clone(), pi]), Predicate::True);
        program.column_names = vec!["x".to_string(), "x".to_string()];
        let v = validate(&program);
        assert!(v.is_valid());
        assert_eq!(v.warnings().len(), 1);
    }

    #[test]
    fn out_of_range_tuple_index_is_an_error() {
        let mut program = person_name_program();
        program.predicate = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 3,
            op: CompareOp::Eq,
            rhs: Operand::Const(Value::int(1)),
        };
        let v = validate(&program);
        assert!(!v.is_valid());
        assert!(v.errors()[0].message.contains("t[3]"));
    }

    #[test]
    fn out_of_range_index_in_rhs_is_detected() {
        let mut program = person_name_program();
        program.predicate = Predicate::Compare {
            extractor: NodeExtractor::Id,
            index: 0,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::Id,
                index: 7,
            },
        };
        assert!(!validate(&program).is_valid());
    }

    #[test]
    fn unknown_tags_are_warnings_against_a_tree() {
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "NoSuchTag");
        let program = Program::new(TableExtractor::new(vec![pi]), Predicate::True);
        let v = validate_against(&program, &social_network(2, 1));
        assert!(v.is_valid());
        assert_eq!(v.warnings().len(), 1);
        assert!(v.warnings()[0].message.contains("NoSuchTag"));
    }

    #[test]
    fn implausible_positions_are_warnings() {
        let pi = ColumnExtractor::pchildren(
            ColumnExtractor::children(ColumnExtractor::Input, "Person"),
            "name",
            99,
        );
        let program = Program::new(TableExtractor::new(vec![pi]), Predicate::True);
        let v = validate_against(&program, &social_network(2, 1));
        assert!(v.is_valid());
        assert!(v
            .warnings()
            .iter()
            .any(|d| d.message.contains("position 99")));
    }

    #[test]
    fn position_warnings_fire_exactly_past_the_widest_array() {
        // The largest `pos` in the document is the last entry of the 50-wide array.
        let items: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let text = format!("{{\"a\": [{}], \"b\": {{\"c\": 1}}}}", items.join(", "));
        let tree = mitra_hdt::json::json_to_hdt(&text).unwrap();
        assert_eq!(tree.ids().map(|id| tree.pos(id)).max(), Some(49));
        for pos in [0, 48, 49, 50, 1000] {
            let pi = ColumnExtractor::pchildren(ColumnExtractor::Input, "a", pos);
            let mut program = Program::new(TableExtractor::new(vec![pi]), Predicate::True);
            program.predicate = Predicate::Compare {
                extractor: NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "a", pos),
                index: 0,
                op: CompareOp::Ne,
                rhs: Operand::Const(Value::str("x")),
            };
            let v = validate_against(&program, &tree);
            let warnings = v.warnings();
            let positional = warnings.iter().filter(|d| d.message.contains("position"));
            // One warning for the column, one for the predicate, or none at all.
            let expected = if pos > 49 { 2 } else { 0 };
            assert_eq!(positional.count(), expected, "pos {pos}: {warnings:?}");
        }
    }

    #[test]
    fn predicate_tags_are_checked_against_the_tree() {
        let mut program = person_name_program();
        program.predicate = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "ghost", 0),
            index: 0,
            op: CompareOp::Ne,
            rhs: Operand::Const(Value::str("x")),
        };
        let v = validate_against(&program, &social_network(2, 1));
        assert!(v.is_valid());
        assert!(v.warnings().iter().any(|d| d.message.contains("ghost")));
    }

    #[test]
    fn diagnostics_render_with_severity_prefix() {
        let d = Diagnostic::error("boom");
        assert_eq!(d.to_string(), "error: boom");
        let w = Diagnostic::warning("hmm");
        assert_eq!(w.to_string(), "warning: hmm");
    }

    #[test]
    fn errors_sort_before_warnings() {
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "NoSuchTag");
        let mut program = Program::new(TableExtractor::new(vec![pi]), Predicate::True);
        program.column_names = vec!["a".to_string(), "b".to_string()];
        let v = validate_against(&program, &social_network(2, 1));
        assert!(!v.is_valid());
        assert_eq!(v.diagnostics[0].severity, Severity::Error);
        assert_eq!(
            *v.diagnostics.last().unwrap(),
            *v.warnings()[v.warnings().len() - 1]
        );
    }
}
