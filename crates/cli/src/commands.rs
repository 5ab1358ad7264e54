//! Implementations of the CLI subcommands.
//!
//! Every command is a pure function from parsed inputs (document text, example CSV,
//! options) to a rendered output string, so the commands are unit-testable without
//! touching the filesystem; [`crate::run_cli`] wires them to files and stdout.

use mitra_codegen::{generate, Backend};
use mitra_core::{parse_csv_table, Mitra, MitraError};
use mitra_datagen::datasets::{all_datasets, dataset_synth_config, DatasetSpec};
use mitra_dsl::parse::parse_program;
use mitra_dsl::pretty;
use mitra_dsl::validate::validate_against;
use mitra_hdt::DocFormat;
use mitra_migrate::Database;
use mitra_synth::budget::Budget;
use mitra_synth::exec::execute;
use mitra_synth::synthesize::Example;
use std::fmt::Write as _;
use std::time::Instant;

use crate::CliError;

/// What `synthesize` should print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitKind {
    /// The DSL program in the paper's textual syntax.
    Dsl,
    /// An XSLT stylesheet (the Mitra-xml back end).
    Xslt,
    /// A JavaScript program (the Mitra-json back end).
    JavaScript,
}

impl EmitKind {
    /// Parses an `--emit` value.
    pub fn from_option(text: &str) -> Result<EmitKind, CliError> {
        match text.to_ascii_lowercase().as_str() {
            "dsl" | "program" => Ok(EmitKind::Dsl),
            "xslt" | "xsl" => Ok(EmitKind::Xslt),
            "js" | "javascript" => Ok(EmitKind::JavaScript),
            other => Err(CliError::Usage(format!(
                "unknown emit target `{other}` (expected dsl, xslt or js)"
            ))),
        }
    }
}

/// `synthesize`: learn a program from one (document, output CSV) example.
///
/// Returns the artifact (the program text or the generated code, ending in a
/// newline) and a one-line `-- synthesized in …` report.
pub fn synthesize(
    document: &str,
    output_csv: &str,
    format: DocFormat,
    emit: EmitKind,
) -> Result<(String, String), CliError> {
    let start = Instant::now();
    let tree = format.parse(document).map_err(MitraError::from)?;
    let example = Example::new(tree, parse_csv_table(output_csv)?);
    let synthesis = Mitra::new().synthesize(&[example])?;
    let elapsed = start.elapsed();

    let mut out = String::new();
    match emit {
        EmitKind::Dsl => out.push_str(&pretty::program(&synthesis.program)),
        EmitKind::Xslt => out.push_str(&generate(&synthesis.program, Backend::Xslt).source),
        EmitKind::JavaScript => {
            out.push_str(&generate(&synthesis.program, Backend::JavaScript).source)
        }
    }
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let report = format!(
        "-- synthesized in {:.2}s ({} candidate table extractors, {} consistent programs, {} predicate atoms)",
        elapsed.as_secs_f64(),
        synthesis.profile.candidates_examined,
        synthesis.programs_found,
        synthesis.cost.atoms,
    );
    Ok((out, report))
}

/// `run`: evaluate a DSL program (in the paper's textual syntax) over a document and
/// render the resulting table as CSV.  Validation warnings are prepended as `--`
/// comment lines.
pub fn run_program(
    document: &str,
    program_text: &str,
    format: DocFormat,
    explain: bool,
) -> Result<String, CliError> {
    let program = parse_program(program_text).map_err(MitraError::from)?;
    let tree = format.parse(document).map_err(MitraError::from)?;

    let validation = validate_against(&program, &tree);
    if !validation.is_valid() {
        let messages: Vec<String> = validation
            .errors()
            .iter()
            .map(|d| d.message.clone())
            .collect();
        return Err(CliError::Input(format!(
            "program failed validation: {}",
            messages.join("; ")
        )));
    }

    let mut out = String::new();
    for warning in validation.warnings() {
        let _ = writeln!(out, "-- warning: {}", warning.message);
    }
    if explain {
        // `--explain`: render the cost-based query plan instead of executing it.
        out.push_str(&mitra_synth::plan_with_tree(&program, &tree).explain(&program));
        return Ok(out);
    }
    let table = execute(&tree, &program);
    out.push_str(&table.to_csv());
    Ok(out)
}

/// `corpus run` / `corpus resume`: render the finished [`mitra_migrate::CorpusReport`] as a
/// human-readable summary pointing at the artifacts on disk.
pub fn corpus_service_summary(report: &mitra_migrate::CorpusReport, out_dir: &str) -> String {
    let mut out = String::new();
    let wall = report.wall.as_secs_f64().max(f64::EPSILON);
    let _ = writeln!(
        out,
        "corpus: {} documents in {} shards ({} resumed from the journal)",
        report.docs, report.shards, report.resumed_shards
    );
    let _ = writeln!(
        out,
        "shapes: {} distinct; {} programs synthesized (once per shape)",
        report.shapes, report.programs_synthesized
    );
    let _ = writeln!(
        out,
        "migrated: {} ok, {} quarantined, {} budget retries, {} constraint violations",
        report.ok_docs,
        report.quarantined.len(),
        report.retried,
        report.violations
    );
    for (table, rows) in &report.table_rows {
        let _ = writeln!(out, "table {table}: {rows} rows");
    }
    let _ = writeln!(
        out,
        "throughput: {:.1} docs/s, {:.1} rows/s over {:.2}s (synthesis {:.2}s, execution {:.2}s)",
        report.docs as f64 / wall,
        report.total_rows() as f64 / wall,
        wall,
        report.synth_wall.as_secs_f64(),
        report.exec_wall.as_secs_f64(),
    );
    let _ = writeln!(
        out,
        "artifacts: {out_dir}/tables/*.csv, {out_dir}/failure_ledger.jsonl, {out_dir}/summary.json"
    );
    out
}

/// `migrate`: migrate one of the built-in dataset simulators into a relational
/// database at the given scale.  Returns the report text and the migrated
/// database, which `--out` writes as a SQL dump.
///
/// Under `strict`, any degraded table aborts the whole migration with the first
/// failure; otherwise degraded tables are reported per-table and the healthy
/// remainder still populates.  `budget` caps synthesis/execution fuel per table
/// (candidates popped, DFA states built, rows materialized) — exhaustion degrades
/// that table to `budget-exhausted` instead of running unboundedly.
pub fn migrate_dataset(
    name: &str,
    per_entity: usize,
    strict: bool,
    budget: Budget,
) -> Result<(String, Database), CliError> {
    let spec = find_dataset(name)?;
    let (document, _expected) = spec.generate(per_entity);
    let mut plan = spec.migration_plan().with_strict(strict);
    plan.synth_config.budget = budget;
    let report = plan.run(&document).map_err(MitraError::from)?;

    // The header gives the phases' wall times; the per-table lines give each
    // table's worker times, which overlap when tables run concurrently.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "dataset {}: {} tables, {} columns, {} rows migrated in {:.2}s (synthesis {:.2}s)",
        spec.name,
        spec.table_count(),
        spec.schema().total_columns(),
        report.total_rows(),
        report.execution_wall.as_secs_f64(),
        report.synthesis_wall.as_secs_f64(),
    );
    let _ = writeln!(out, "constraint violations: {}", report.violations);
    for table in &report.tables {
        if table.outcome.is_ok() {
            let _ = writeln!(
                out,
                "  {:<24} {:>8} rows  worker synth {:>6.2}s  exec {:>6.2}s",
                table.table,
                table.rows,
                table.synthesis_time.as_secs_f64(),
                table.execution_time.as_secs_f64(),
            );
        } else {
            let _ = writeln!(
                out,
                "  {:<24} {:>16}  {}",
                table.table,
                table.outcome.label(),
                table.outcome,
            );
        }
    }
    let degradation = report.degradation();
    if report.is_degraded() {
        let _ = writeln!(
            out,
            "degraded: {} ok, {} budget-exhausted, {} failed, {} skipped",
            degradation.ok, degradation.budget_exhausted, degradation.failed, degradation.skipped,
        );
    }
    if report.all_failed() {
        return Err(CliError::Synthesis(format!(
            "no table migrated: {}",
            report.summary_json()
        )));
    }
    Ok((out, report.database))
}

/// Lists the built-in dataset simulators.
pub fn list_datasets() -> String {
    let mut out = String::new();
    for spec in all_datasets() {
        let _ = writeln!(
            out,
            "{:<10} {:>2} tables {:>4} columns ({})",
            spec.name,
            spec.table_count(),
            spec.schema().total_columns(),
            spec.format,
        );
    }
    out
}

fn find_dataset(name: &str) -> Result<DatasetSpec, CliError> {
    all_datasets()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            CliError::Usage(format!(
                "unknown dataset `{name}` (expected one of: {})",
                all_datasets()
                    .iter()
                    .map(|d| d.name.to_ascii_lowercase())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })
}

/// The knobs that bound synthesis in dataset migrations, as `datasets --verbose`
/// prints them: the table candidates examined, the DFA limits and the timeout.
pub fn dataset_config_summary() -> String {
    let config = dataset_synth_config();
    format!(
        "dataset synthesis config: {} table candidates, DFA of at most {} states and {}-letter words, timeout {:?}",
        config.max_table_candidates,
        config.dfa_limits.max_states,
        config.dfa_limits.max_word_len,
        config.timeout
    )
}

/// Validates an example CSV early so the user gets a CSV error rather than a synthesis
/// failure when the output example is malformed.
pub fn check_output_example(csv: &str) -> Result<(), CliError> {
    parse_csv_table(csv).map(|_| ()).map_err(CliError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = r#"<root>
      <person><name>Ada</name><role>engineer</role></person>
      <person><name>Grace</name><role>admiral</role></person>
    </root>"#;
    const OUT: &str = "name,role\nAda,engineer\nGrace,admiral\n";

    #[test]
    fn synthesize_emits_dsl_and_code() {
        let (dsl, report) = synthesize(XML, OUT, DocFormat::Xml, EmitKind::Dsl).unwrap();
        assert!(dsl.contains("filter"));
        assert!(!dsl.contains("synthesized in"));
        assert!(report.contains("synthesized in"));
        let (xslt, _) = synthesize(XML, OUT, DocFormat::Xml, EmitKind::Xslt).unwrap();
        assert!(xslt.contains("xsl:stylesheet"));
        let (js, _) = synthesize(XML, OUT, DocFormat::Xml, EmitKind::JavaScript).unwrap();
        assert!(js.contains("function transform"));
    }

    #[test]
    fn synthesize_reports_failures() {
        let err = synthesize(
            XML,
            "name\nNotInTheDocument\n",
            DocFormat::Xml,
            EmitKind::Dsl,
        );
        assert!(matches!(err, Err(CliError::Synthesis(_))));
    }

    #[test]
    fn run_round_trips_a_synthesized_program() {
        // Synthesize, print the DSL program, parse it back, and run it: the output must
        // match the original example.
        let (program_text, _) = synthesize(XML, OUT, DocFormat::Xml, EmitKind::Dsl).unwrap();
        let csv = run_program(XML, &program_text, DocFormat::Xml, false).unwrap();
        assert!(csv.contains("Ada,engineer"));
        assert!(csv.contains("Grace,admiral"));
    }

    #[test]
    fn run_rejects_invalid_programs() {
        assert!(run_program(XML, "not a program", DocFormat::Xml, false).is_err());
    }

    #[test]
    fn run_warns_about_foreign_tags() {
        // A program that references tags absent from the document still runs, but the
        // CSV is prefixed with warning comments.
        let program_text =
            "\\tau. filter((\\s.pchildren(children(s, nosuch), name, 0)){root(tau)}, \\t. true)";
        let out = run_program(XML, program_text, DocFormat::Xml, false).unwrap();
        assert!(out.contains("-- warning"));
    }

    #[test]
    fn dataset_listing_and_lookup() {
        let listing = list_datasets();
        for name in ["DBLP", "IMDB", "MONDIAL", "YELP"] {
            assert!(listing.contains(name), "{listing}");
        }
        assert!(find_dataset("imdb").is_ok());
        assert!(find_dataset("oracle").is_err());
        assert!(!dataset_config_summary().is_empty());
    }

    #[test]
    fn migrate_dataset_reports_the_database_it_returns() {
        let scale = if cfg!(debug_assertions) { 2 } else { 3 };
        let (out, database) = migrate_dataset("yelp", scale, false, Budget::UNLIMITED).unwrap();
        assert!(out.contains("constraint violations: 0"), "{out}");
        assert!(!out.contains("degraded:"), "{out}");
        let rows = format!("{} rows migrated", database.total_rows());
        assert!(out.contains(&rows), "{rows}: {out}");
        for table in &database.schema.tables {
            let line = format!(
                "{:<24} {:>8} rows",
                table.name,
                database.row_count(&table.name)
            );
            assert!(out.contains(&line), "{line}: {out}");
        }
    }

    #[test]
    fn migrate_dataset_reports_wall_times() {
        // The header's figures are the phases' wall times, so neither exceeds the
        // call's own elapsed time (plus the 0.005 s of rounding to two places);
        // the sum of the tables' worker times would at several threads.
        let start = std::time::Instant::now();
        let (out, _) = migrate_dataset("yelp", 2, false, Budget::UNLIMITED).unwrap();
        let elapsed = start.elapsed().as_secs_f64();
        let header = out.lines().next().unwrap();
        let seconds = |after: &str| -> f64 {
            let rest = &header[header.find(after).unwrap() + after.len()..];
            rest[..rest.find('s').unwrap()].parse().unwrap()
        };
        let (execution, synthesis) = (seconds("migrated in "), seconds("(synthesis "));
        assert!(
            synthesis <= elapsed + 0.005,
            "{synthesis} > {elapsed}: {header}"
        );
        assert!(
            execution <= elapsed + 0.005,
            "{execution} > {elapsed}: {header}"
        );
        assert!(out.contains(" rows  worker synth "), "{out}");
    }

    #[test]
    fn migrate_dataset_under_a_zero_budget_degrades_every_table() {
        // A zero-candidate fuel budget exhausts every table; with every table
        // degraded the non-strict run still returns a report, but the CLI treats
        // an all-failed migration as a synthesis error.
        let exhausted = Budget {
            max_candidates: Some(0),
            ..Budget::UNLIMITED
        };
        let err = migrate_dataset("yelp", 2, false, exhausted).unwrap_err();
        match err {
            CliError::Synthesis(msg) => {
                assert!(msg.contains("no table migrated"), "{msg}");
                assert!(msg.contains("budget_exhausted"), "{msg}");
            }
            other => panic!("expected a synthesis error, got {other:?}"),
        }
    }

    #[test]
    fn migrate_dataset_strict_aborts_on_the_first_exhausted_table() {
        let exhausted = Budget {
            max_candidates: Some(0),
            ..Budget::UNLIMITED
        };
        let err = migrate_dataset("yelp", 2, true, exhausted).unwrap_err();
        assert!(
            matches!(&err, CliError::Synthesis(msg) if msg.contains("fuel exhausted")),
            "{err:?}"
        );
    }

    #[test]
    fn output_example_validation() {
        assert!(check_output_example(OUT).is_ok());
        assert!(check_output_example("").is_err());
        assert!(check_output_example("a,b\n1\n").is_err());
    }
}
