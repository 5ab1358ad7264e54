//! # mitra-synth — the Mitra synthesis engine
//!
//! This crate implements the paper's synthesis algorithm (Section 5) and its
//! optimizations (Section 6, Appendix C):
//!
//! * [`dfa`] — deterministic finite automata whose states are node sets of an HDT and
//!   whose alphabet is the column-extractor operators (Figure 9); one state graph per
//!   example tree is shared by the automata of all its columns.  Supports
//!   intersection and shortest-word-first streaming of the accepted words.
//! * [`column`](mod@column) — `LearnColExtractors` (Algorithm 2): learning the set of column
//!   extraction programs consistent with all examples.
//! * [`universe`] — construction of the atomic-predicate universe (Figure 10).
//! * [`cover`] — the 0–1 ILP / minimum set-cover solver behind `FindMinCover`
//!   (Algorithm 4): exact branch and bound, seeded with a greedy cover as its
//!   initial bound, on the instance without twin sets and implied elements.
//! * [`qm`] — Quine–McCluskey logic minimization with don't-cares plus a Petrick-style
//!   minimum prime-implicant cover, used to produce the smallest DNF classifier.
//! * [`predicate`] — `LearnPredicate` (Algorithm 3): positive/negative example
//!   construction and classifier learning.
//! * [`synthesize`] — `LearnTransformation` (Algorithm 1): the best-first search with
//!   the Occam's-razor ranking of Section 6, and the exhaustive sweep that referees
//!   it.  Both phases fan out over a scoped worker pool (`mitra-pool`) with
//!   canonical-order merges, so results are byte-identical at every thread count.
//! * [`cache`] — the shared, concurrency-safe column-evaluation cache that candidate
//!   validation workers use to avoid repeating `[[π]]T` tree walks.
//! * [`budget`] — deterministic fuel budgets (candidates / DFA states / rows, never
//!   wall-clock) checked at the frontier, the automata intersection, and the
//!   executor, so exhaustion is identical at every thread count.
//! * [`plan`]/[`ops`]/[`exec`] — the Appendix C execution engine, split into a
//!   cost-based query planner, a physical-operator layer (tag-indexed scans,
//!   pre-order interval joins, interned-key hash joins, cross products) and the
//!   executor driving them, which checks every atom no join step checks with
//!   `mitra_dsl::eval::eval_predicate`.  Its reference is the naive cross-product
//!   semantics in `mitra_dsl::eval`.
//! * [`fingerprint`](mod@fingerprint) — document-shape fingerprints (stable tag-path-set hashes),
//!   which let the corpus service synthesize once per shape.

mod bits;
pub mod budget;
pub mod cache;
pub mod column;
pub mod cover;
pub mod dfa;
pub mod exec;
pub mod fingerprint;
mod memo;
pub mod ops;
pub mod plan;
pub mod predicate;
pub mod qm;
pub mod synthesize;
pub mod universe;

pub use budget::{Budget, BudgetBreach, BudgetExhausted, BudgetResource};
pub use cache::ColumnEvalCache;
pub use column::learn_column_automata;
pub use exec::{execute, execute_nodes_budgeted};
pub use fingerprint::{fingerprint, Fingerprint};
pub use plan::{plan_with_tree, Plan, PlanStep, StepMethod};
pub use predicate::{learn_predicate, learn_predicate_reference};
pub use synthesize::{
    learn_transformation, learn_transformation_exhaustive, Example, SynthConfig, SynthError,
    SynthProfile, Synthesis,
};
