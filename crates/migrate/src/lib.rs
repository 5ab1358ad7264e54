//! # mitra-migrate — full-database migration (Section 6)
//!
//! The synthesis algorithm of `mitra-synth` learns a program for *one* relational
//! table.  Real migrations target a whole database: the paper handles this by invoking
//! the synthesizer once per target table and post-processing the programs so that
//! primary- and foreign-key constraints hold.  This crate implements:
//!
//! * [`schema`] — relational schema descriptions (tables, columns, primary keys,
//!   foreign keys) plus validation of a populated database against its schema;
//! * [`database`] — a small in-memory relational database substrate (insert, scan,
//!   lookup by key) used to hold migration results and check constraints;
//! * [`keys`] — the injective key-generation scheme of Section 6: a synthetic primary
//!   key is derived from the identities of the tree nodes a row was built from, and a
//!   foreign key re-derives the referenced row's node identities through learned node
//!   extractors;
//! * [`migrate`] — the per-table orchestration: synthesize (or accept) one program per
//!   table, execute them with the optimized engine, generate keys, and assemble the
//!   final database;
//! * [`corpus`] — the checkpointed corpus migration service: per-shape program reuse,
//!   deterministic shard waves, a crash-resume journal and a quarantine ledger;
//! * [`sql`] — a SQL dump back-end (DDL `CREATE TABLE` + `INSERT` statements);
//! * [`query`] — a small SQL `SELECT` engine over the migrated database, closing the
//!   loop on the paper's motivation that migrated data is meant to be queried
//!   relationally.

pub mod corpus;
pub mod database;
pub mod keys;
pub mod migrate;
pub mod query;
pub mod schema;
pub mod sql;

pub use corpus::{
    CorpusConfig, CorpusError, CorpusJob, CorpusReport, CorpusTableSource, CorpusTask, DocFormat,
    FailureKind, QuarantineRecord, RetryPolicy,
};
pub use database::Database;
pub use keys::KeySpec;
pub use migrate::{
    DegradationSummary, MigrationError, MigrationPlan, MigrationReport, TableOutcome, TableReport,
    TableSource, TableTask,
};
pub use query::{run_query, QueryError};
pub use schema::{Column, ColumnType, ForeignKey, Schema, TableSchema};
pub use sql::dump_sql;
