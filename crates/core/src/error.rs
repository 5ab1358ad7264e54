//! The unified error layer of the Mitra stack.
//!
//! Each crate in the workspace keeps a small, crate-local error type close to the
//! code that raises it (`HdtError` in `mitra-hdt`, `SynthError` in `mitra-synth`,
//! `ParseError` in `mitra-dsl`, `MigrationError` / `SchemaError` in
//! `mitra-migrate`). Those types cannot share a definition without inverting the
//! dependency DAG, so the unification happens here, at the top of the DAG:
//! [`MitraError`] wraps every crate-local error *losslessly* (the full inner error
//! is stored, nothing is flattened to a string), provides one consistent
//! [`std::fmt::Display`] rendering, and chains the inner error through
//! [`std::error::Error::source`] so callers using `anyhow`-style chain walking see
//! the crate-local error as the cause.
//!
//! `MitraError` is the only error type the `mitra` facade crate exports.

use mitra_dsl::eval::EvalError;
use mitra_dsl::parse::ParseError;
use mitra_hdt::HdtError;
use mitra_migrate::migrate::MigrationError;
use mitra_migrate::schema::SchemaError;
use mitra_synth::budget::BudgetExhausted;
use mitra_synth::synthesize::SynthError;
use std::fmt;

/// Any error the Mitra stack can surface, one variant per subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitraError {
    /// The input document could not be parsed by a plug-in (XML/JSON/HTML).
    Parse(HdtError),
    /// The output-example CSV could not be interpreted.
    BadOutputExample(String),
    /// A DSL program's textual form could not be parsed.
    DslParse(ParseError),
    /// Naive evaluation exceeded its resource limits (cross-product row cap).
    Eval(EvalError),
    /// Synthesis failed.
    Synthesis(SynthError),
    /// A deterministic fuel budget ran out before any program was found; the
    /// payload carries the exhausted resource and the partial work profile.
    BudgetExhausted(BudgetExhausted),
    /// Full-database migration failed.
    Migration(MigrationError),
    /// A relational schema was invalid.
    Schema(SchemaError),
}

impl fmt::Display for MitraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MitraError::Parse(e) => write!(f, "failed to parse input document: {e}"),
            MitraError::BadOutputExample(e) => write!(f, "bad output example: {e}"),
            MitraError::DslParse(e) => write!(f, "failed to parse DSL program: {e}"),
            MitraError::Eval(e) => write!(f, "evaluation failed: {e}"),
            MitraError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            MitraError::BudgetExhausted(e) => write!(f, "synthesis budget exhausted: {e}"),
            MitraError::Migration(e) => write!(f, "migration failed: {e}"),
            MitraError::Schema(e) => write!(f, "invalid schema: {e}"),
        }
    }
}

impl std::error::Error for MitraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MitraError::Parse(e) => Some(e),
            MitraError::BadOutputExample(_) => None,
            MitraError::DslParse(e) => Some(e),
            MitraError::Eval(e) => Some(e),
            MitraError::Synthesis(e) => Some(e),
            MitraError::BudgetExhausted(e) => Some(e),
            MitraError::Migration(e) => Some(e),
            MitraError::Schema(e) => Some(e),
        }
    }
}

impl From<HdtError> for MitraError {
    fn from(e: HdtError) -> Self {
        MitraError::Parse(e)
    }
}

impl From<ParseError> for MitraError {
    fn from(e: ParseError) -> Self {
        MitraError::DslParse(e)
    }
}

impl From<EvalError> for MitraError {
    fn from(e: EvalError) -> Self {
        MitraError::Eval(e)
    }
}

impl From<SynthError> for MitraError {
    fn from(e: SynthError) -> Self {
        match e {
            // Budget exhaustion gets its own top-level variant: callers (CLI,
            // migration degradation reports) treat "ran out of fuel" differently
            // from "no program exists".
            SynthError::BudgetExhausted(b) => MitraError::BudgetExhausted(b),
            other => MitraError::Synthesis(other),
        }
    }
}

impl From<BudgetExhausted> for MitraError {
    fn from(e: BudgetExhausted) -> Self {
        MitraError::BudgetExhausted(e)
    }
}

impl From<MigrationError> for MitraError {
    fn from(e: MigrationError) -> Self {
        MitraError::Migration(e)
    }
}

impl From<SchemaError> for MitraError {
    fn from(e: SchemaError) -> Self {
        MitraError::Schema(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn from_hdt_error_is_lossless() {
        let inner = HdtError::parse("unexpected '<'", 42);
        let e: MitraError = inner.clone().into();
        assert_eq!(e, MitraError::Parse(inner.clone()));
        // Display wraps but preserves the inner rendering.
        assert!(e.to_string().contains(&inner.to_string()));
    }

    #[test]
    fn from_synth_error_is_lossless() {
        let e: MitraError = SynthError::NoColumnExtractor(3).into();
        assert_eq!(e, MitraError::Synthesis(SynthError::NoColumnExtractor(3)));
        assert!(e.to_string().contains("column 3"));
    }

    #[test]
    fn from_conversions_cover_every_subsystem() {
        let cases: Vec<MitraError> = vec![
            HdtError::Structure("empty".into()).into(),
            ParseError {
                message: "bad token".into(),
                offset: 7,
            }
            .into(),
            EvalError::TooManyRows { rows: 10, cap: 5 }.into(),
            SynthError::Timeout.into(),
            SynthError::BudgetExhausted(BudgetExhausted {
                breach: mitra_synth::budget::BudgetBreach {
                    resource: mitra_synth::budget::BudgetResource::Candidates,
                    spent: 8,
                    limit: 8,
                },
                profile: Default::default(),
            })
            .into(),
            MigrationError::UnknownTable("t".into()).into(),
            SchemaError("dangling foreign key".into()).into(),
        ];
        // Each conversion lands in its own variant.
        let variants: Vec<&'static str> = cases
            .iter()
            .map(|e| match e {
                MitraError::Parse(_) => "parse",
                MitraError::BadOutputExample(_) => "example",
                MitraError::DslParse(_) => "dsl",
                MitraError::Eval(_) => "eval",
                MitraError::Synthesis(_) => "synth",
                MitraError::BudgetExhausted(_) => "budget",
                MitraError::Migration(_) => "migration",
                MitraError::Schema(_) => "schema",
            })
            .collect();
        assert_eq!(
            variants,
            vec![
                "parse",
                "dsl",
                "eval",
                "synth",
                "budget",
                "migration",
                "schema"
            ]
        );
    }

    #[test]
    fn source_chains_to_the_crate_local_error() {
        let e: MitraError = SynthError::Timeout.into();
        let source = e.source().expect("wrapped errors expose a source");
        assert_eq!(source.to_string(), SynthError::Timeout.to_string());

        let e: MitraError = SchemaError("dangling foreign key".into()).into();
        assert!(e.source().unwrap().to_string().contains("dangling"));

        // String-only variants have no structured cause.
        assert!(MitraError::BadOutputExample("empty".into())
            .source()
            .is_none());
    }

    #[test]
    fn display_is_prefixed_per_subsystem() {
        assert!(MitraError::from(SynthError::NoProgram)
            .to_string()
            .starts_with("synthesis failed"));
        assert!(MitraError::from(MigrationError::ArityMismatch("t".into()))
            .to_string()
            .starts_with("migration failed"));
        assert!(MitraError::from(SchemaError("no tables".into()))
            .to_string()
            .starts_with("invalid schema"));
    }
}
