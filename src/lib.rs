//! # mitra — programming-by-example migration of hierarchical data to relational tables
//!
//! This is the umbrella crate of the Mitra reproduction (VLDB 2018, "Automated
//! Migration of Hierarchical Data to Relational Tables using Programming-by-Example").
//! It re-exports the public API of the underlying crates:
//!
//! * [`Mitra`] — the high-level engine (synthesize from XML/JSON/HTML + CSV examples,
//!   run programs, emit XSLT/JavaScript);
//! * [`hdt`] — hierarchical data trees and the XML/JSON/HTML plug-ins;
//! * [`dsl`] — the tree-to-table transformation DSL and its semantics;
//! * [`synth`] — the synthesis engine (DFA column learning, predicate learning,
//!   query planner, execution engine);
//! * [`codegen`] — the XSLT and JavaScript back-ends;
//! * [`migrate`] — relational schemas, key generation and full-database migration;
//! * [`datagen`] — synthetic workloads used by the evaluation harness;
//! * [`trace`] — structured spans, the metrics registry and the Chrome-trace /
//!   folded-stack exporters (`MITRA_TRACE=off|summary|full`, DESIGN.md §9).
//!
//! See `examples/quickstart.rs` for a two-minute tour and DESIGN.md (§6, the
//! experiment index) for the mapping from the paper's evaluation to the benchmark
//! harness.

pub use mitra_core::{codegen, dsl, hdt, migrate, synth, trace};
pub use mitra_core::{intern, Interner, Symbol, TagId};
pub use mitra_core::{parse_csv_table, DocFormat, Mitra, MitraError};
pub use mitra_datagen as datagen;
