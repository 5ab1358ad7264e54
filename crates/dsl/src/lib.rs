//! # mitra-dsl — the tree-to-table transformation DSL
//!
//! This crate implements the domain-specific language of Figure 6 of the paper and its
//! denotational semantics (Figure 7).  A program has the shape
//!
//! ```text
//! P  ::=  λτ. filter(ψ, λt. φ)
//! ψ  ::=  (λs.π){root(τ)}  |  ψ1 × ψ2            -- table extractor
//! π  ::=  s | children(π, tag) | pchildren(π, tag, pos) | descendants(π, tag)
//! φ  ::=  (λn.ϕ) t[i] ⊙ c | (λn.ϕ1) t[i] ⊙ (λn.ϕ2) t[j] | φ∧φ | φ∨φ | ¬φ
//! ϕ  ::=  n | parent(ϕ) | child(ϕ, tag, pos)      -- node extractor
//! ```
//!
//! Modules:
//! * [`value`] — typed relational cell values with the comparison semantics the
//!   predicates need (numeric when both sides parse as numbers, lexicographic
//!   otherwise);
//! * [`table`] — bag-semantics relational tables with named columns;
//! * [`ast`] — the DSL abstract syntax;
//! * [`eval`] — the naive denotational evaluator of Figure 7 (cross product + filter);
//! * [`cost`](mod@cost) — the Occam's-razor cost function θ of Section 6;
//! * [`pretty`] — the human-readable syntax used in the paper's figures;
//! * [`parse`] — a parser for that textual syntax (round-trips with [`pretty`]);
//! * [`validate`](mod@validate) — static well-formedness checks for hand-written or loaded programs.

// This crate is part of the hardened fault-tolerance surface: panicking
// shortcuts are lint-rejected outside tests (see clippy.toml for the list).
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod ast;
pub mod cost;
pub mod eval;
pub mod parse;
pub mod pretty;
pub mod table;
pub mod validate;
pub mod value;

pub use ast::{
    ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, Program, TableExtractor,
};
pub use cost::{cost, Cost};
pub use eval::{
    eval_column, eval_node_extractor, eval_predicate, eval_program, eval_program_with, EvalError,
    EvalLimits,
};
pub use table::{Row, Table};
pub use validate::{validate, validate_against, Diagnostic, Severity, Validation};
pub use value::Value;
