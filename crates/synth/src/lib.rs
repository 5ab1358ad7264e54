//! # mitra-synth — the Mitra synthesis engine
//!
//! This crate implements the paper's synthesis algorithm (Section 5) and its
//! optimizations (Section 6, Appendix C):
//!
//! * [`dfa`] — deterministic finite automata whose states are node sets of an HDT and
//!   whose alphabet is the column-extractor operators (Figure 9); one state graph per
//!   example tree is shared by the automata of all its columns.  Supports
//!   intersection and shortest-word enumeration.
//! * [`column`](mod@column) — `LearnColExtractors` (Algorithm 2): learning the set of column
//!   extraction programs consistent with all examples.
//! * [`universe`] — construction of the atomic-predicate universe (Figure 10).
//! * [`cover`] — the 0–1 ILP / minimum set-cover solver behind `FindMinCover`
//!   (Algorithm 4), with both an exact branch-and-bound mode and a greedy mode.
//! * [`qm`] — Quine–McCluskey logic minimization with don't-cares plus a Petrick-style
//!   minimum prime-implicant cover, used to produce the smallest DNF classifier.
//! * [`predicate`] — `LearnPredicate` (Algorithm 3): positive/negative example
//!   construction and classifier learning.
//! * [`synthesize`] — `LearnTransformation` (Algorithm 1): the top-level loop with the
//!   Occam's-razor ranking of Section 6.  Both phases fan out over a scoped worker
//!   pool (`mitra-pool`) with canonical-order merges, so results are byte-identical
//!   at every thread count.
//! * [`cache`] — the shared, concurrency-safe column-evaluation cache that candidate
//!   validation workers use to avoid repeating `[[π]]T` tree walks.
//! * [`budget`] — deterministic fuel budgets (candidates / DFA states / rows, never
//!   wall-clock) checked at the frontier, the automata intersection, and the
//!   executor, so exhaustion is identical at every thread count.
//! * [`plan`]/[`ops`]/[`exec`] — the Appendix C execution engine, split into a
//!   cost-based query planner, a physical-operator layer (tag-indexed scans,
//!   pre-order interval joins, interned-key hash joins, vectorized residual
//!   filters) and the executor driving them.  Its reference is the naive
//!   cross-product semantics in `mitra_dsl::eval`.
//! * [`fingerprint`](mod@fingerprint) — document-shape fingerprints (stable tag-path-set hashes) and the
//!   per-shape program cache that lets the corpus service synthesize once per shape.
//! * [`baseline`] — a deliberately naive enumerative synthesizer used for the ablation
//!   experiments (E7 in DESIGN.md).

pub mod baseline;
mod bits;
pub mod budget;
pub mod cache;
pub mod column;
pub mod cover;
pub mod dfa;
pub mod exec;
pub mod fingerprint;
pub mod ops;
pub mod plan;
pub mod predicate;
pub mod qm;
pub mod synthesize;
pub mod universe;

pub use budget::{Budget, BudgetBreach, BudgetExhausted, BudgetResource};
pub use cache::{ColumnEvalCache, ColumnPhiData};
pub use column::{learn_all_columns, learn_column_automata};
pub use exec::{execute, execute_nodes_budgeted};
pub use fingerprint::{fingerprint, Fingerprint, ProgramCache};
pub use ops::ValueInterner;
pub use plan::{plan_with_tree, Plan, PlanStep, StepMethod};
pub use predicate::{learn_predicate, learn_predicate_reference};
pub use synthesize::{
    learn_transformation, learn_transformation_exhaustive, Example, SynthConfig, SynthError,
    SynthProfile, Synthesis,
};
