//! # mitra-cli — command-line front end for the Mitra reproduction
//!
//! The binary wires the library crates to files and stdout:
//!
//! ```text
//! mitra-cli synthesize --input doc.xml --output example.csv [--format xml|json|html]
//!                      [--emit dsl|xslt|js] [--out program.txt]
//! mitra-cli run        --program program.dsl --input big.xml [--format ...] [--out rows.csv] [--explain]
//! mitra-cli corpus gen --out F [--docs N] [--seed S] [--malformed-pct P]
//! mitra-cli corpus run|resume --input F --out-dir D [--shard-size N] [--retries K] [--budget-rows N]
//! mitra-cli datasets
//! mitra-cli migrate    <dblp|imdb|mondial|yelp> [--scale N] [--out dump.sql] [--strict]
//!                      [--budget-candidates N] [--budget-dfa-states N] [--budget-rows N]
//! ```
//!
//! `migrate --out` writes the migrated database as a SQL dump (`CREATE TABLE` and
//! `INSERT` statements) that an existing RDBMS loads, e.g. `sqlite3 db < dump.sql`.
//!
//! All the work happens in [`commands`], which operates on strings and is therefore
//! unit-testable; [`run_cli`] performs the I/O.

pub mod args;
pub mod commands;

use args::ParsedArgs;
use commands::EmitKind;
use mitra_hdt::DocFormat;
use std::fmt;
use std::fs;

/// Errors surfaced to the user by the CLI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself is malformed.
    Usage(String),
    /// An input file or document could not be read or parsed.
    Input(String),
    /// Synthesis or migration failed.
    Synthesis(String),
    /// Writing an output file failed.
    Output(String),
    /// A corpus run stopped part-way (a shard worker crashed); the shards that
    /// finished are journaled, so `corpus resume` continues from there.
    Interrupted(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Input(m) => write!(f, "input error: {m}"),
            CliError::Synthesis(m) => write!(f, "synthesis error: {m}"),
            CliError::Output(m) => write!(f, "output error: {m}"),
            CliError::Interrupted(m) => write!(f, "interrupted: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<mitra_core::MitraError> for CliError {
    /// Routes the unified library error into the CLI's user-facing categories:
    /// synthesis/migration failures are reported as synthesis errors, everything
    /// else (document parsing, bad examples, bad programs, bad schemas) as input
    /// errors.
    fn from(e: mitra_core::MitraError) -> Self {
        use mitra_core::MitraError;
        match &e {
            MitraError::Synthesis(_)
            | MitraError::Migration(_)
            | MitraError::BudgetExhausted(_) => CliError::Synthesis(e.to_string()),
            MitraError::Parse(_)
            | MitraError::BadOutputExample(_)
            | MitraError::DslParse(_)
            | MitraError::Eval(_)
            | MitraError::Schema(_) => CliError::Input(e.to_string()),
        }
    }
}

/// The help text printed by `mitra-cli help` (and on usage errors).
pub const USAGE: &str = "mitra-cli — programming-by-example migration of hierarchical data to relational tables

USAGE:
    mitra-cli synthesize --input <doc> --output <example.csv> [--format xml|json|html] [--emit dsl|xslt|js] [--out <file>]
    mitra-cli run --program <program.dsl> --input <doc> [--format xml|json|html] [--out <file>] [--explain]
    mitra-cli corpus gen --out <file> [--docs <n>] [--seed <s>] [--malformed-pct <p>]
    mitra-cli corpus run --input <file> --out-dir <dir> [--shard-size <n>] [--retries <k>] [--budget-rows <n>]
    mitra-cli corpus resume --input <file> --out-dir <dir> [--shard-size <n>] [--retries <k>] [--budget-rows <n>]
    mitra-cli datasets [--verbose]
    mitra-cli migrate <dblp|imdb|mondial|yelp> [--scale <per-entity>] [--out <dump.sql>] [--strict]
                      [--budget-candidates <n>] [--budget-dfa-states <n>] [--budget-rows <n>]
    mitra-cli help

Every command accepts --threads <n>: the number of worker threads for synthesis and
execution (default: the MITRA_THREADS environment variable, else all available
cores; 1 forces the sequential path).  Results are identical at every thread count.

Every command also accepts --trace-out <file> and/or --trace-folded <file>: record a
full trace of the run (spans across ingest, synthesis, execution and the worker
pool) and write Chrome trace-event JSON — load it in Perfetto (ui.perfetto.dev) or
chrome://tracing — or folded stacks for flamegraph tooling.  Tracing never changes
results; without these flags the MITRA_TRACE environment variable (off|summary|full,
default summary) picks how much the always-on metrics layer records.

The synthesize command learns a transformation program from a single input document and
the relational table it should produce (given as CSV with a header line).  The run
command executes a previously saved program (in the textual DSL syntax) over a new,
usually much larger, document; with --explain it prints the cost-based query plan
(scan / interval-join / hash-join / cross steps with cardinality estimates) instead
of executing the program.

The corpus service (`corpus gen` / `corpus run` / `corpus resume`) migrates a
whole corpus of documents — one document per line — through the checkpointed
pipeline of DESIGN.md §12: programs are synthesized once per document *shape*
and reused, shards execute in deterministic waves, every completed shard is
journaled (fsync'd, fixed field order) so `corpus resume` after a crash replays
only unfinished shards and produces byte-identical tables, and malformed or
budget-exhausted documents land in `<out-dir>/failure_ledger.jsonl` with a
typed error instead of aborting the run.

The migrate command prints a per-table report; with --out it also writes the
migrated database as a SQL dump (CREATE TABLE and INSERT statements, tables in
schema order) to load into an existing RDBMS, e.g. `sqlite3 db < dump.sql`.
It writes no file when no table migrates or --strict aborts the migration.

The migrate command accepts deterministic fuel budgets: --budget-candidates,
--budget-dfa-states and --budget-rows cap, per table, the candidate programs
examined, the DFA states built, and the rows materialized (unset means unlimited).
Budgets count work, never wall-clock, so a given budget degrades identically on
every machine and at every thread count.  By default a table whose budget runs out
(or whose synthesis fails or panics) is reported as degraded while the remaining
tables still migrate; --strict restores fail-fast behaviour, aborting the whole
migration on the first problem.";

/// Runs the CLI on already-split arguments and returns the text to print.
///
/// Separated from `main` so integration tests can drive the full command dispatch
/// without spawning a process.
pub fn run_cli<I, S>(raw_args: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = ParsedArgs::parse(raw_args).map_err(CliError::Usage)?;
    // `--threads N` configures the process-global worker pool before any command
    // runs; 0 (the default) leaves the MITRA_THREADS / auto-detection chain in
    // charge.  Thread count never changes results, only wall-clock time.
    let threads = args.numeric_option("threads", 0).map_err(CliError::Usage)?;
    if threads > 0 {
        mitra_pool::set_threads(threads);
    }
    let command = match &args.command {
        Some(command) if !args.has_flag("help") => command.clone(),
        _ => return Ok(USAGE.to_string()),
    };

    // `--trace-out` / `--trace-folded` record a full trace of the command and write
    // the Chrome trace-event JSON (Perfetto / chrome://tracing) or folded stacks
    // (flamegraph input) after it completes.  Tracing never changes results — only
    // what gets recorded (DESIGN.md §9).
    let tracing = args.option("trace-out").is_some() || args.option("trace-folded").is_some();
    if tracing {
        mitra_trace::set_mode(mitra_trace::TraceMode::Full);
        mitra_trace::clear_events();
    }
    let result = dispatch(&args, &command);
    if tracing {
        let events = mitra_trace::take_events();
        if let Some(path) = args.option("trace-out") {
            fs::write(path, mitra_trace::export::chrome_trace(&events))
                .map_err(|e| CliError::Output(format!("cannot write `{path}`: {e}")))?;
        }
        if let Some(path) = args.option("trace-folded") {
            fs::write(path, mitra_trace::export::folded_stacks(&events))
                .map_err(|e| CliError::Output(format!("cannot write `{path}`: {e}")))?;
        }
    }
    result
}

/// How many positional arguments `command` takes after its name: the dataset of
/// `migrate`, the verb of `corpus`, none for the others.  `None` for an
/// unknown command.
fn positional_arity(command: &str) -> Option<usize> {
    match command {
        "migrate" | "corpus" => Some(1),
        "help" | "-h" | "synthesize" | "run" | "datasets" => Some(0),
        _ => None,
    }
}

/// Dispatches one parsed command line to its [`commands`] implementation.
fn dispatch(args: &ParsedArgs, command: &str) -> Result<String, CliError> {
    if let Some(extra) = positional_arity(command).and_then(|n| args.positional.get(n)) {
        return Err(CliError::Usage(format!(
            "unexpected argument `{extra}` for `{command}`"
        )));
    }
    match command {
        "help" | "-h" => Ok(USAGE.to_string()),
        "synthesize" => {
            let input_path = args.require("input").map_err(CliError::Usage)?;
            let output_path = args.require("output").map_err(CliError::Usage)?;
            let document = read_file(input_path)?;
            let example = read_file(output_path)?;
            commands::check_output_example(&example)?;
            let format = resolve_format(args, input_path)?;
            let emit = match args.option("emit") {
                Some(kind) => EmitKind::from_option(kind)?,
                None => EmitKind::Dsl,
            };
            let (artifact, report) = commands::synthesize(&document, &example, format, emit)?;
            // The report goes to stderr, so stdout and `--out` carry the artifact alone.
            eprintln!("{report}");
            write_or_return(args, artifact)
        }
        "run" => {
            let program_path = args.require("program").map_err(CliError::Usage)?;
            let input_path = args.require("input").map_err(CliError::Usage)?;
            let program_text = read_file(program_path)?;
            let document = read_file(input_path)?;
            let format = resolve_format(args, input_path)?;
            // Strip comment lines, such as the report line older `synthesize --out`
            // files end with.
            let program_text: String = program_text
                .lines()
                .filter(|l| !l.trim_start().starts_with("--"))
                .collect::<Vec<_>>()
                .join("\n");
            let rendered =
                commands::run_program(&document, &program_text, format, args.has_flag("explain"))?;
            write_or_return(args, rendered)
        }
        "corpus" => match args.positional.first().map(String::as_str) {
            Some("gen") => corpus_gen(args),
            Some(verb @ ("run" | "resume")) => corpus_service(args, verb),
            Some(other) => Err(CliError::Usage(format!(
                "unknown corpus subcommand `{other}` (expected gen, run or resume)"
            ))),
            None => Err(CliError::Usage(
                "`corpus` needs a subcommand: gen, run or resume".to_string(),
            )),
        },
        "datasets" => {
            let mut out = commands::list_datasets();
            if args.has_flag("verbose") {
                out.push_str(&commands::dataset_config_summary());
                out.push('\n');
            }
            Ok(out)
        }
        "migrate" => {
            let dataset = args
                .positional
                .first()
                .cloned()
                .ok_or_else(|| CliError::Usage("migrate expects a dataset name".to_string()))?;
            let scale = args.numeric_option("scale", 25).map_err(CliError::Usage)?;
            let budget = mitra_synth::budget::Budget {
                max_candidates: budget_option(args, "budget-candidates")?,
                max_dfa_states: budget_option(args, "budget-dfa-states")?,
                max_rows: budget_option(args, "budget-rows")?,
            };
            let (report, database) =
                commands::migrate_dataset(&dataset, scale, args.has_flag("strict"), budget)?;
            // `--out` takes the migrated database as a SQL dump; the report stays on stdout.
            match args.option("out") {
                None => Ok(report),
                Some(_) => Ok(report + &write_or_return(args, mitra_migrate::dump_sql(&database))?),
            }
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

/// `corpus gen`: write a seeded mixer corpus (one XML document per line, a
/// configurable fraction corrupted until unparseable) for `corpus run`.
fn corpus_gen(args: &ParsedArgs) -> Result<String, CliError> {
    let out = args.require("out").map_err(CliError::Usage)?;
    let docs = args.numeric_option("docs", 100).map_err(CliError::Usage)?;
    let seed = args.numeric_option("seed", 1).map_err(CliError::Usage)? as u64;
    let malformed_pct = args
        .numeric_option("malformed-pct", 10)
        .map_err(CliError::Usage)?;
    if malformed_pct > 100 {
        return Err(CliError::Usage(
            "option `--malformed-pct` expects a percentage (0-100)".to_string(),
        ));
    }
    let mix = mitra_datagen::fuzz::CorpusMix {
        seed,
        docs,
        malformed_pct: malformed_pct as u32,
        promo_pct: 0,
    };
    let corpus = mitra_datagen::fuzz::mixed_corpus(&mix);
    fs::write(out, &corpus.text)
        .map_err(|e| CliError::Output(format!("cannot write `{out}`: {e}")))?;
    Ok(format!(
        "wrote {docs} documents ({} malformed) to {out}\n",
        corpus.malformed.len()
    ))
}

/// `corpus run` / `corpus resume`: migrate a mixer corpus through the
/// checkpointed corpus service (DESIGN.md §12).  `run` starts fresh; `resume`
/// replays the journal in `--out-dir` and executes only unfinished shards.
fn corpus_service(args: &ParsedArgs, verb: &str) -> Result<String, CliError> {
    let input = args.require("input").map_err(CliError::Usage)?;
    let out_dir = args.require("out-dir").map_err(CliError::Usage)?;
    let text = read_file(input)?;
    let mut job = mitra_datagen::fuzz::mixer_job();
    job.config.shard_size = args
        .numeric_option("shard-size", 32)
        .map_err(CliError::Usage)?;
    let retries = args.numeric_option("retries", 3).map_err(CliError::Usage)?;
    job.config.retry.max_attempts = (retries as u32).max(1);
    job.config.synth.budget.max_rows = budget_option(args, "budget-rows")?;
    if verb == "resume" && !std::path::Path::new(out_dir).join("journal.jsonl").exists() {
        return Err(CliError::Input(format!(
            "nothing to resume: `{out_dir}/journal.jsonl` does not exist (run `corpus run` first)"
        )));
    }
    let report = match verb {
        "resume" => mitra_migrate::corpus::resume(&job, &text, std::path::Path::new(out_dir)),
        _ => mitra_migrate::corpus::run(&job, &text, std::path::Path::new(out_dir)),
    }
    .map_err(corpus_error)?;
    Ok(commands::corpus_service_summary(&report, out_dir))
}

/// The CLI category of a corpus-service failure.  Failed documents never get here:
/// the service quarantines them in its failure ledger.
fn corpus_error(e: mitra_migrate::CorpusError) -> CliError {
    use mitra_migrate::CorpusError;
    match &e {
        CorpusError::Io { .. } => CliError::Output(e.to_string()),
        CorpusError::Corpus(_) | CorpusError::Journal(_) | CorpusError::Plan(_) => {
            CliError::Input(e.to_string())
        }
        CorpusError::ShardPanicked { .. } => {
            CliError::Interrupted(format!("{e}; `corpus resume` continues from the journal"))
        }
    }
}

/// Parses one optional `--budget-*` fuel limit; absent means unlimited.
fn budget_option(args: &ParsedArgs, key: &str) -> Result<Option<u64>, CliError> {
    match args.option(key) {
        None => Ok(None),
        Some(text) => text.parse::<u64>().map(Some).map_err(|_| {
            CliError::Usage(format!("option `--{key}` expects a number, got `{text}`"))
        }),
    }
}

/// The `--format` option, else the input file's extension, else XML.
fn resolve_format(args: &ParsedArgs, input_path: &str) -> Result<DocFormat, CliError> {
    match args.option("format") {
        Some(f) => DocFormat::from_label(f).ok_or_else(|| {
            CliError::Usage(format!(
                "unknown format `{}` (expected xml, json or html)",
                f.to_ascii_lowercase()
            ))
        }),
        None => Ok(input_path
            .rsplit_once('.')
            .and_then(|(_, extension)| DocFormat::from_label(extension))
            .unwrap_or(DocFormat::Xml)),
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Input(format!("cannot read `{path}`: {e}")))
}

fn write_or_return(args: &ParsedArgs, rendered: String) -> Result<String, CliError> {
    match args.option("out") {
        None => Ok(rendered),
        Some(path) => {
            fs::write(path, &rendered)
                .map_err(|e| CliError::Output(format!("cannot write `{path}`: {e}")))?;
            Ok(format!("wrote {} bytes to {path}\n", rendered.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("mitra-cli-test-{}-{name}", std::process::id()));
        fs::write(&path, contents).unwrap();
        path
    }

    const XML: &str = "<root><person><name>Ada</name><role>engineer</role></person>\
                       <person><name>Grace</name><role>admiral</role></person></root>";
    const OUT: &str = "name,role\nAda,engineer\nGrace,admiral\n";

    #[test]
    fn no_arguments_prints_usage() {
        let out = run_cli(Vec::<String>::new()).unwrap();
        assert!(out.contains("USAGE"));
        assert_eq!(run_cli(["help"]).unwrap(), USAGE);
    }

    #[test]
    fn format_comes_from_the_option_then_the_extension() {
        let inferred = ParsedArgs::parse(["run"]).unwrap();
        assert_eq!(
            resolve_format(&inferred, "a/b/doc.json"),
            Ok(DocFormat::Json)
        );
        assert_eq!(resolve_format(&inferred, "page.HTML"), Ok(DocFormat::Html));
        assert_eq!(resolve_format(&inferred, "page.htm"), Ok(DocFormat::Html));
        assert_eq!(resolve_format(&inferred, "data.xml"), Ok(DocFormat::Xml));
        assert_eq!(resolve_format(&inferred, "noext"), Ok(DocFormat::Xml));
        assert_eq!(resolve_format(&inferred, "a.json/doc"), Ok(DocFormat::Xml));
        let htm = ParsedArgs::parse(["run", "--format", "HTM"]).unwrap();
        assert_eq!(resolve_format(&htm, "doc.json"), Ok(DocFormat::Html));
        let yaml = ParsedArgs::parse(["run", "--format", "YAML"]).unwrap();
        assert_eq!(
            resolve_format(&yaml, "doc.xml"),
            Err(CliError::Usage(
                "unknown format `yaml` (expected xml, json or html)".into()
            ))
        );
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert!(matches!(run_cli(["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_switch_prints_usage() {
        assert_eq!(run_cli(["--help"]).unwrap(), USAGE);
        assert_eq!(run_cli(["migrate", "yelp", "--help"]).unwrap(), USAGE);
    }

    #[test]
    fn unknown_options_are_usage_errors() {
        assert_eq!(
            run_cli(["migrate", "yelp", "--query", "x"]),
            Err(CliError::Usage("unknown option `--query`".into()))
        );
        assert_eq!(
            run_cli(["datasets", "--thread", "2"]),
            Err(CliError::Usage("unknown option `--thread`".into()))
        );
        assert_eq!(
            run_cli(["datasets", "--verbose=yes"]),
            Err(CliError::Usage("switch `--verbose` takes no value".into()))
        );
    }

    #[test]
    fn extra_positional_arguments_are_usage_errors() {
        for (args, extra) in [
            (
                &["migrate", "yelp", "extra-arg", "--scale", "2"][..],
                "extra-arg",
            ),
            (&["migrate", "yelp", "-h", "--scale", "2"], "-h"),
            (&["datasets", "foo", "bar"], "foo"),
            (&["corpus", "gen", "x", "--out", "/nonexistent/c.txt"], "x"),
            (
                &["run", "p.dsl", "--program", "p.dsl", "--input", "d.xml"],
                "p.dsl",
            ),
            (&["synthesize", "doc.xml"], "doc.xml"),
            (&["help", "migrate"], "migrate"),
        ] {
            let command = args[0];
            assert_eq!(
                run_cli(args.iter().copied()),
                Err(CliError::Usage(format!(
                    "unexpected argument `{extra}` for `{command}`"
                ))),
                "{args:?}"
            );
        }
        // The positionals a command takes still work, and an unknown command is
        // reported as one, not as an extra argument.
        assert!(run_cli(["datasets"]).is_ok());
        assert!(matches!(
            run_cli(["corpus", "frobnicate"]),
            Err(CliError::Usage(m)) if m.contains("unknown corpus subcommand")
        ));
        // `corpus` alone names its verbs; `--limit` is gone with the Table 1 run.
        assert!(matches!(
            run_cli(["corpus"]),
            Err(CliError::Usage(m)) if m.contains("gen, run or resume")
        ));
        assert!(matches!(
            run_cli(["corpus", "--limit", "3"]),
            Err(CliError::Usage(m)) if m.contains("--limit")
        ));
        assert!(matches!(
            run_cli(["frobnicate", "x"]),
            Err(CliError::Usage(m)) if m.starts_with("unknown command `frobnicate`")
        ));
    }

    #[test]
    fn synthesize_then_run_through_files() {
        let doc = temp_file("doc.xml", XML);
        let example = temp_file("example.csv", OUT);
        let program_out = run_cli([
            "synthesize",
            "--input",
            doc.to_str().unwrap(),
            "--output",
            example.to_str().unwrap(),
        ])
        .unwrap();
        assert!(program_out.contains("filter"));

        // Save the program and run it over the same document.
        let program_file = temp_file("program.dsl", &program_out);
        let csv = run_cli([
            "run",
            "--program",
            program_file.to_str().unwrap(),
            "--input",
            doc.to_str().unwrap(),
        ])
        .unwrap();
        assert!(csv.contains("Ada,engineer"));

        // `--explain` renders the query plan instead of the table.
        let plan = run_cli([
            "run",
            "--program",
            program_file.to_str().unwrap(),
            "--input",
            doc.to_str().unwrap(),
            "--explain",
        ])
        .unwrap();
        assert!(plan.starts_with("plan:"), "{plan}");
        assert!(plan.contains("scan"), "{plan}");
        assert!(plan.contains("output: rows sorted"), "{plan}");
        assert!(!plan.contains("Ada,engineer"), "{plan}");
        for path in [doc, example, program_file] {
            let _ = fs::remove_file(path);
        }
    }

    #[test]
    fn synthesize_out_writes_the_artifact_alone() {
        let doc = temp_file("emit-doc.xml", XML);
        let example = temp_file("emit-example.csv", OUT);
        for (emit, last_line) in [
            ("dsl", None),
            ("xslt", Some("</xsl:stylesheet>")),
            ("js", Some("module.exports = { transform };")),
        ] {
            let out = temp_file(&format!("emit-program.{emit}"), "");
            run_cli([
                "synthesize",
                "--input",
                doc.to_str().unwrap(),
                "--output",
                example.to_str().unwrap(),
                "--emit",
                emit,
                "--out",
                out.to_str().unwrap(),
            ])
            .unwrap();
            let written = fs::read_to_string(&out).unwrap();
            assert!(!written.contains("-- synthesized"), "{emit}: {written}");
            let last = written.lines().last().unwrap();
            match last_line {
                Some(line) => assert_eq!(last, line, "{emit}"),
                None => assert!(last.contains("filter"), "{emit}: {written}"),
            }
            let _ = fs::remove_file(out);
        }
        for path in [doc, example] {
            let _ = fs::remove_file(path);
        }
    }

    #[test]
    fn trace_out_writes_a_chrome_trace_document() {
        let doc = temp_file("trace-doc.xml", XML);
        let example = temp_file("trace-example.csv", OUT);
        let trace_path = temp_file("trace.json", "");
        let out = run_cli([
            "synthesize",
            "--input",
            doc.to_str().unwrap(),
            "--output",
            example.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("filter"), "synthesis still succeeds: {out}");
        let trace = fs::read_to_string(&trace_path).unwrap();
        // The file is valid JSON in the Chrome trace-event format with real events.
        let parsed = mitra_hdt::parse_json(&trace).expect("trace file must be valid JSON");
        let rendered = parsed.to_string_compact();
        assert!(rendered.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"B\""), "no begin events recorded");
        assert!(trace.contains("\"ph\":\"E\""), "no end events recorded");
        assert!(trace.contains("learn_transformation"), "synth span missing");
        // Restore the default mode for the other tests in this process.
        mitra_trace::set_mode(mitra_trace::TraceMode::Summary);
        for path in [doc, example, trace_path] {
            let _ = fs::remove_file(path);
        }
    }

    #[test]
    fn missing_files_are_input_errors() {
        let err = run_cli([
            "synthesize",
            "--input",
            "/no/such/file.xml",
            "--output",
            "/also/missing.csv",
        ]);
        assert!(matches!(err, Err(CliError::Input(_))));
    }

    #[test]
    fn migrate_requires_a_dataset_name() {
        assert!(matches!(run_cli(["migrate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn migrate_budget_flags_are_parsed_and_enforced() {
        // A zero-candidate fuel budget exhausts every table immediately; the CLI
        // reports the all-degraded migration as a synthesis error (and the run is
        // fast, because no search happens).
        let err = run_cli([
            "migrate",
            "yelp",
            "--scale",
            "2",
            "--budget-candidates",
            "0",
        ]);
        assert!(
            matches!(&err, Err(CliError::Synthesis(msg)) if msg.contains("budget_exhausted")),
            "{err:?}"
        );
        // A malformed budget value is a usage error, as is a missing one.
        assert!(matches!(
            run_cli(["migrate", "yelp", "--budget-rows", "lots"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(["migrate", "yelp", "--budget-dfa-states"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn migrate_out_writes_the_sql_dump() {
        let dump = std::env::temp_dir().join(format!("mitra-cli-dump-{}.sql", std::process::id()));
        let path = dump.to_str().unwrap();
        let _ = fs::remove_file(&dump);
        let out = run_cli(["migrate", "yelp", "--scale", "2", "--out", path]).unwrap();
        let spec = mitra_datagen::datasets::yelp();
        let report = spec.migration_plan().run(&spec.generate(2).0).unwrap();
        let expected = mitra_migrate::dump_sql(&report.database);
        assert_eq!(fs::read_to_string(&dump).unwrap(), expected);
        assert!(out.starts_with("dataset YELP: "), "{out}");
        assert!(out.contains("constraint violations: 0"), "{out}");
        let wrote = format!("wrote {} bytes to {path}\n", expected.len());
        assert!(out.ends_with(&wrote), "{out}");
        fs::remove_file(&dump).unwrap();

        // A run that migrates no table fails and writes no file.
        let err = run_cli([
            "migrate",
            "yelp",
            "--scale",
            "2",
            "--budget-candidates",
            "0",
            "--out",
            path,
        ]);
        assert!(matches!(err, Err(CliError::Synthesis(_))), "{err:?}");
        assert!(!dump.exists());
    }

    #[test]
    fn threads_flag_is_parsed_and_validated() {
        // A valid thread count is accepted by any command (results never depend on
        // it, so `datasets` is a cheap probe)...
        let out = run_cli(["datasets", "--threads", "2"]).unwrap();
        assert!(out.contains("DBLP"));
        // ...and a malformed one is a usage error.
        assert!(matches!(
            run_cli(["datasets", "--threads", "lots"]),
            Err(CliError::Usage(_))
        ));
        // Restore the auto-detection default for the other tests in this process.
        mitra_pool::set_threads(0);
    }

    #[test]
    fn corpus_gen_run_and_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("mitra-cli-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let corpus_file = dir.join("corpus.txt");
        let out_dir = dir.join("out");

        let gen_msg = run_cli([
            "corpus",
            "gen",
            "--out",
            corpus_file.to_str().unwrap(),
            "--docs",
            "20",
            "--seed",
            "5",
            "--malformed-pct",
            "10",
        ])
        .unwrap();
        assert!(gen_msg.contains("wrote 20 documents"), "{gen_msg}");

        let run_msg = run_cli([
            "corpus",
            "run",
            "--input",
            corpus_file.to_str().unwrap(),
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--shard-size",
            "4",
        ])
        .unwrap();
        assert!(run_msg.contains("20 documents in 5 shards"), "{run_msg}");
        assert!(run_msg.contains("table customer:"), "{run_msg}");
        assert!(run_msg.contains("0 constraint violations"), "{run_msg}");
        assert!(out_dir.join("tables").join("purchase.csv").exists());
        assert!(out_dir.join("failure_ledger.jsonl").exists());

        // Resuming a finished run replays every shard from the journal and
        // rewrites identical artifacts.
        let before = fs::read(out_dir.join("tables").join("customer.csv")).unwrap();
        let resume_msg = run_cli([
            "corpus",
            "resume",
            "--input",
            corpus_file.to_str().unwrap(),
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--shard-size",
            "4",
        ])
        .unwrap();
        assert!(
            resume_msg.contains("(5 resumed from the journal)"),
            "{resume_msg}"
        );
        let after = fs::read(out_dir.join("tables").join("customer.csv")).unwrap();
        assert_eq!(before, after);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_subcommands_validate_their_options() {
        assert!(matches!(
            run_cli(["corpus", "frobnicate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(["corpus", "gen"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(["corpus", "gen", "--out", "/tmp/x", "--malformed-pct", "150"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli([
                "corpus",
                "run",
                "--input",
                "/no/such/corpus",
                "--out-dir",
                "/tmp/x"
            ]),
            Err(CliError::Input(_))
        ));
        // Resuming with no journal in the output directory is an input error.
        let dir = std::env::temp_dir().join(format!("mitra-cli-nojournal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let corpus_file = dir.join("c.txt");
        fs::write(&corpus_file, "<shop><customer><name>a</name><tier>1</tier><order><item>s</item><total>2</total></order></customer></shop>\n").unwrap();
        assert!(matches!(
            run_cli([
                "corpus",
                "resume",
                "--input",
                corpus_file.to_str().unwrap(),
                "--out-dir",
                dir.join("out").to_str().unwrap(),
            ]),
            Err(CliError::Input(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_corpus_error_maps_to_its_category() {
        use mitra_migrate::{CorpusError, MigrationError};
        let io = CorpusError::Io {
            path: "out/shard-0.csv".into(),
            error: "permission denied".into(),
        };
        assert_eq!(corpus_error(io.clone()), CliError::Output(io.to_string()));
        for input in [
            CorpusError::Corpus("empty corpus".into()),
            CorpusError::Journal("bad header".into()),
            CorpusError::Plan(MigrationError::UnknownTable("nope".into())),
        ] {
            assert_eq!(
                corpus_error(input.clone()),
                CliError::Input(input.to_string())
            );
        }
        let crashed = corpus_error(CorpusError::ShardPanicked {
            shard: 2,
            message: "injected fault: corpus.shard#2".into(),
        });
        assert_eq!(
            crashed.to_string(),
            "interrupted: shard 2 worker panicked: injected fault: corpus.shard#2; \
             `corpus resume` continues from the journal"
        );
    }

    #[test]
    fn datasets_listing_includes_all_four() {
        let out = run_cli(["datasets", "--verbose"]).unwrap();
        for name in ["DBLP", "IMDB", "MONDIAL", "YELP"] {
            assert!(out.contains(name));
        }
        assert!(out.contains(
            "dataset synthesis config: 24 table candidates, DFA of at most 2048 states \
             and 4-letter words, timeout Some(120s)"
        ));
    }
}
