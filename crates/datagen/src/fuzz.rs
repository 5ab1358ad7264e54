//! Seeded adversarial fuzz harness (ROADMAP item 5, wired in by the
//! fault-tolerance PR — see DESIGN.md §10).
//!
//! The harness generates two families of scenarios from one `u64` suite seed:
//!
//! * **structured** scenarios — small hostile input–output examples (deep
//!   nesting, wide fan-out with decoy siblings, optional/missing fields, tag
//!   collisions across levels) that are run *differentially*: the best-first
//!   search ([`learn_transformation`]) against the exhaustive reference
//!   ([`learn_transformation_exhaustive`]), and the optimized join-based
//!   executor against the naive cross-product evaluator.  The two searches must
//!   agree on learnability and cost, and the two engines must produce the same
//!   table — whether or not the scenario is expressible in the DSL;
//! * **malformed** scenarios — syntactically corrupted XML/JSON/HTML text
//!   (truncations, stray metacharacters, duplicated/deleted slices) that must
//!   parse to `Ok` or a *typed* error, never a panic.
//!
//! Every scenario is a pure function of `(suite_seed, id)`; [`Verdict`]s carry
//! no wall-clock fields, so a verdict comparison across thread counts
//! (`run_scenario(s, 1) == run_scenario(s, 4)`) is exactly the determinism
//! contract of DESIGN.md §8.  The `fuzz_smoke` bench binary and the CI
//! `fuzz-smoke` job drive [`run_suite`] at threads 1 vs 4 and fail on any
//! [`Verdict::is_failure`] or cross-thread mismatch.
//!
//! [`learn_transformation`]: mitra_synth::synthesize::learn_transformation
//! [`learn_transformation_exhaustive`]: mitra_synth::synthesize::learn_transformation_exhaustive

use mitra_dsl::ast::NodeExtractor;
use mitra_dsl::eval::{eval_program_with, node_value, EvalLimits};
use mitra_dsl::{pretty, Table, Value};
use mitra_hdt::html::html_to_hdt;
use mitra_hdt::json::json_to_hdt;
use mitra_hdt::xml::xml_to_hdt;
use mitra_hdt::Hdt;
use mitra_migrate::corpus::{CorpusJob, CorpusTableSource, CorpusTask, DocFormat, ExampleOracle};
use mitra_migrate::migrate::{MigrationPlan, TableSource, TableTask};
use mitra_migrate::{Column, KeySpec, Schema, TableSchema};
use mitra_synth::exec::execute_with_stats;
use mitra_synth::synthesize::{
    learn_transformation, learn_transformation_exhaustive, Example, SynthConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The scenario families the harness cycles through (`id % 7` selects one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// A record section buried under a randomly deep chain of wrapper nodes.
    DeepNesting,
    /// Records interleaved with decoy siblings that reuse the same field tags.
    WideFanOut,
    /// Records where a middle field is present only sometimes.
    OptionalFields,
    /// The same tag reused across levels (`item` inside `item`, field `item`).
    TagCollisions,
    /// Corrupted XML text: must parse to `Ok` or a typed error.
    MalformedXml,
    /// Corrupted JSON text.
    MalformedJson,
    /// Corrupted HTML text (the parser is lenient, so most corruptions parse).
    MalformedHtml,
}

impl ScenarioKind {
    const ALL: [ScenarioKind; 7] = [
        ScenarioKind::DeepNesting,
        ScenarioKind::WideFanOut,
        ScenarioKind::OptionalFields,
        ScenarioKind::TagCollisions,
        ScenarioKind::MalformedXml,
        ScenarioKind::MalformedJson,
        ScenarioKind::MalformedHtml,
    ];

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::DeepNesting => "deep-nesting",
            ScenarioKind::WideFanOut => "wide-fan-out",
            ScenarioKind::OptionalFields => "optional-fields",
            ScenarioKind::TagCollisions => "tag-collisions",
            ScenarioKind::MalformedXml => "malformed-xml",
            ScenarioKind::MalformedJson => "malformed-json",
            ScenarioKind::MalformedHtml => "malformed-html",
        }
    }
}

/// What a scenario feeds the pipeline.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A synthesis input–output example (differential synth + exec checks).
    Structured(Box<Example>),
    /// Raw document text for one of the three parsers (crash-safety check).
    Malformed {
        /// Which parser the text is fed to.
        kind: ScenarioKind,
        /// The (corrupted) document text.
        text: String,
    },
}

/// One generated scenario: a pure function of `(suite_seed, id)`.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index within the suite.
    pub id: usize,
    /// The scenario family.
    pub kind: ScenarioKind,
    /// What to run.
    pub payload: Payload,
}

/// The outcome of running one scenario.  Verdicts carry no wall-clock fields,
/// so equality across thread counts is the determinism check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both searches learned programs of equal cost and both engines agree.
    Learned {
        /// Pretty-printed best-first program.
        program: String,
        /// Rows the program produces on the scenario input.
        rows: usize,
    },
    /// Both searches failed with the same typed error.
    Unlearnable {
        /// The shared error rendering.
        error: String,
    },
    /// The parser rejected the malformed text with a typed error (good).
    ParseRejected {
        /// The error rendering.
        error: String,
    },
    /// The parser accepted the (perhaps only mildly corrupted) text.
    ParsedOk {
        /// Node count of the resulting tree.
        nodes: usize,
    },
    /// The two search strategies or the two execution engines disagreed.
    Divergence {
        /// What disagreed.
        detail: String,
    },
    /// Something panicked instead of returning a typed error.
    Panicked {
        /// The stringified panic payload.
        detail: String,
    },
}

impl Verdict {
    /// True for the two failing verdicts ([`Verdict::Divergence`] and
    /// [`Verdict::Panicked`]).
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Divergence { .. } | Verdict::Panicked { .. })
    }

    /// Stable lowercase label for summary counting.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Learned { .. } => "learned",
            Verdict::Unlearnable { .. } => "unlearnable",
            Verdict::ParseRejected { .. } => "parse-rejected",
            Verdict::ParsedOk { .. } => "parsed-ok",
            Verdict::Divergence { .. } => "divergence",
            Verdict::Panicked { .. } => "panicked",
        }
    }
}

/// Generates scenario `id` of the suite seeded with `suite_seed`.
pub fn scenario(suite_seed: u64, id: usize) -> Scenario {
    // Mix the id into the seed (splitmix-style) so neighbouring scenarios do
    // not share RNG prefixes.
    let mut rng = StdRng::seed_from_u64(
        suite_seed
            ^ (id as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17),
    );
    let kind = ScenarioKind::ALL[id % ScenarioKind::ALL.len()];
    let payload = match kind {
        ScenarioKind::DeepNesting => Payload::Structured(Box::new(deep_nesting(&mut rng))),
        ScenarioKind::WideFanOut => Payload::Structured(Box::new(wide_fan_out(&mut rng))),
        ScenarioKind::OptionalFields => Payload::Structured(Box::new(optional_fields(&mut rng))),
        ScenarioKind::TagCollisions => Payload::Structured(Box::new(tag_collisions(&mut rng))),
        ScenarioKind::MalformedXml => {
            let template = xml_template(&mut rng);
            Payload::Malformed {
                kind,
                text: corrupt(&mut rng, &template),
            }
        }
        ScenarioKind::MalformedJson => {
            let template = json_template(&mut rng);
            Payload::Malformed {
                kind,
                text: corrupt(&mut rng, &template),
            }
        }
        ScenarioKind::MalformedHtml => {
            let template = html_template(&mut rng);
            Payload::Malformed {
                kind,
                text: corrupt(&mut rng, &template),
            }
        }
    };
    Scenario { id, kind, payload }
}

/// Runs one scenario with `threads` synthesis workers and returns its verdict.
///
/// Every pipeline entry point is wrapped in `catch_unwind`, so a panic anywhere
/// (including one injected via `MITRA_FAULT`) becomes [`Verdict::Panicked`]
/// rather than aborting the suite.
pub fn run_scenario(s: &Scenario, threads: usize) -> Verdict {
    match &s.payload {
        Payload::Structured(example) => run_structured(example, threads),
        Payload::Malformed { kind, text } => run_malformed(*kind, text),
    }
}

fn run_structured(example: &Example, threads: usize) -> Verdict {
    let config = SynthConfig {
        threads,
        ..SynthConfig::default()
    };
    let examples = [example.clone()];
    let best_first = catch_unwind(AssertUnwindSafe(|| {
        learn_transformation(&examples, &config)
    }));
    let exhaustive = catch_unwind(AssertUnwindSafe(|| {
        learn_transformation_exhaustive(&examples, &config)
    }));
    let (best_first, exhaustive) = match (best_first, exhaustive) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(p), _) | (_, Err(p)) => {
            return Verdict::Panicked {
                detail: mitra_pool::panic_message(p.as_ref()),
            }
        }
    };
    match (best_first, exhaustive) {
        (Ok(bf), Ok(ex)) => {
            if bf.cost != ex.cost {
                return Verdict::Divergence {
                    detail: format!(
                        "best-first cost {:?} != exhaustive cost {:?}",
                        bf.cost, ex.cost
                    ),
                };
            }
            // Differential execution: the optimized join-based engine vs the
            // naive cross-product evaluator, on both learned programs.
            let mut rows = 0;
            for (label, program) in [("best-first", &bf.program), ("exhaustive", &ex.program)] {
                let optimized = match catch_unwind(AssertUnwindSafe(|| {
                    execute_with_stats(&example.tree, program).0
                })) {
                    Ok(t) => t,
                    Err(p) => {
                        return Verdict::Panicked {
                            detail: mitra_pool::panic_message(p.as_ref()),
                        }
                    }
                };
                let limits = EvalLimits {
                    max_rows: 1_000_000,
                };
                let naive =
                    match eval_program_with(&example.tree, program, &limits) {
                        Ok(t) => t,
                        Err(e) => {
                            return Verdict::Divergence {
                                detail: format!(
                                    "optimized engine succeeded but naive eval failed on the {label} program: {e}"
                                ),
                            }
                        }
                    };
                if optimized != naive {
                    return Verdict::Divergence {
                        detail: format!(
                            "optimized ({} rows) and naive ({} rows) tables differ on the {label} program",
                            optimized.len(),
                            naive.len()
                        ),
                    };
                }
                rows = optimized.len();
            }
            Verdict::Learned {
                program: pretty::program(&bf.program),
                rows,
            }
        }
        (Err(a), Err(b)) => {
            let (a, b) = (a.to_string(), b.to_string());
            if a == b {
                Verdict::Unlearnable { error: a }
            } else {
                Verdict::Divergence {
                    detail: format!("best-first error `{a}` != exhaustive error `{b}`"),
                }
            }
        }
        (Ok(bf), Err(e)) => Verdict::Divergence {
            detail: format!(
                "best-first learned `{}` but exhaustive failed: {e}",
                pretty::program(&bf.program)
            ),
        },
        (Err(e), Ok(ex)) => Verdict::Divergence {
            detail: format!(
                "exhaustive learned `{}` but best-first failed: {e}",
                pretty::program(&ex.program)
            ),
        },
    }
}

fn run_malformed(kind: ScenarioKind, text: &str) -> Verdict {
    let parsed = catch_unwind(AssertUnwindSafe(|| match kind {
        ScenarioKind::MalformedXml => xml_to_hdt(text).map(|t| t.len()),
        ScenarioKind::MalformedJson => json_to_hdt(text).map(|t| t.len()),
        _ => html_to_hdt(text).map(|t| t.len()),
    }));
    match parsed {
        Err(p) => Verdict::Panicked {
            detail: mitra_pool::panic_message(p.as_ref()),
        },
        Ok(Ok(nodes)) => Verdict::ParsedOk { nodes },
        Ok(Err(e)) => Verdict::ParseRejected {
            error: e.to_string(),
        },
    }
}

/// One suite entry: the scenario's identity plus its verdict.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Scenario index within the suite.
    pub id: usize,
    /// Scenario family label.
    pub kind: &'static str,
    /// The verdict.
    pub verdict: Verdict,
}

/// The result of a whole fuzz suite run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// One outcome per scenario, in id order.
    pub outcomes: Vec<FuzzOutcome>,
}

impl FuzzReport {
    /// The failing outcomes (divergences and panics).
    pub fn failures(&self) -> Vec<&FuzzOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_failure())
            .collect()
    }

    /// Deterministic JSON summary: per-verdict counts in fixed order, no
    /// wall-clock fields.
    pub fn summary_json(&self) -> String {
        let count = |label: &str| {
            self.outcomes
                .iter()
                .filter(|o| o.verdict.label() == label)
                .count()
        };
        format!(
            concat!(
                "{{\"scenarios\": {}, \"learned\": {}, \"unlearnable\": {}, ",
                "\"parsed_ok\": {}, \"parse_rejected\": {}, ",
                "\"divergence\": {}, \"panicked\": {}}}"
            ),
            self.outcomes.len(),
            count("learned"),
            count("unlearnable"),
            count("parsed-ok"),
            count("parse-rejected"),
            count("divergence"),
            count("panicked"),
        )
    }
}

/// Runs scenarios `0..count` of the suite at the given thread count.
pub fn run_suite(suite_seed: u64, count: usize, threads: usize) -> FuzzReport {
    let outcomes = (0..count)
        .map(|id| {
            let s = scenario(suite_seed, id);
            FuzzOutcome {
                id,
                kind: s.kind.label(),
                verdict: run_scenario(&s, threads),
            }
        })
        .collect();
    FuzzReport { outcomes }
}

/// Runs the suite at two thread counts and returns the scenarios whose
/// verdicts differ — the cross-thread determinism gate of DESIGN.md §8.
pub fn cross_thread_mismatches(
    suite_seed: u64,
    count: usize,
    threads_a: usize,
    threads_b: usize,
) -> Vec<(usize, Verdict, Verdict)> {
    let a = run_suite(suite_seed, count, threads_a);
    let b = run_suite(suite_seed, count, threads_b);
    a.outcomes
        .into_iter()
        .zip(b.outcomes)
        .filter(|(x, y)| x.verdict != y.verdict)
        .map(|(x, y)| (x.id, x.verdict, y.verdict))
        .collect()
}

/// A deterministic multi-table migration scenario for fault-injection tests:
/// `tables` independent record sections, each driving one example-based table
/// task.  Used with `MITRA_FAULT=panic:migrate.table:<n>` to check that one
/// poisoned table degrades while its siblings populate identically at every
/// thread count.
pub fn migration_scenario(seed: u64, tables: usize) -> (Hdt, MigrationPlan) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = Hdt::with_root("db");
    let root = tree.root();
    let mut schema = Schema::new();
    let mut tasks = Vec::with_capacity(tables);
    for t in 0..tables {
        let section_tag = format!("sec{t}");
        let rec_tag = format!("rec{t}");
        let section = tree.add_child(root, section_tag, None);
        let mut output = Table::new(vec!["id".to_string(), "label".to_string()]);
        for r in 0..3 + rng.gen_range(0usize..3) {
            let rec = tree.add_child(section, rec_tag.clone(), None);
            let id = format!("{t}-{r}");
            let label = format!("label-{t}-{r}-{}", rng.gen_range(0u64..1000));
            tree.add_child(rec, "id", Some(id.clone()));
            tree.add_child(rec, "label", Some(label.clone()));
            output.push(vec![Value::from_data(&id), Value::from_data(&label)]);
        }
        let table_name = format!("table{t}");
        schema = schema.with_table(TableSchema::new(
            table_name.clone(),
            vec![Column::text("id"), Column::text("label")],
        ));
        tasks.push(TableTask {
            table: table_name,
            source: TableSource::Examples(vec![Example::new(tree.clone(), output)]),
            keys: Vec::new(),
            data_columns: vec!["id".to_string(), "label".to_string()],
        });
    }
    // Rebuild the examples against the finished tree so every task sees the
    // same document it will be executed on.
    let mut plan = MigrationPlan::new(schema);
    for mut task in tasks {
        if let TableSource::Examples(examples) = &mut task.source {
            for ex in examples.iter_mut() {
                ex.tree = tree.clone();
            }
        }
        plan.tasks.push(task);
    }
    (tree, plan)
}

// ---------------------------------------------------------------------------
// Structured scenario generators
// ---------------------------------------------------------------------------

/// Records buried under a chain of 2–7 wrapper nodes.
fn deep_nesting(rng: &mut StdRng) -> Example {
    let mut tree = Hdt::with_root("root");
    let mut cursor = tree.root();
    let depth = rng.gen_range(2usize..8);
    for d in 0..depth {
        cursor = tree.add_child(cursor, format!("wrap{}", d % 3), None);
    }
    let mut out = Table::anonymous(2);
    for r in 0..rng.gen_range(2usize..5) {
        let rec = tree.add_child(cursor, "rec", None);
        let a = format!("a-{r}");
        let b = format!("b-{r}-{}", rng.gen_range(0u64..100));
        tree.add_child(rec, "alpha", Some(a.clone()));
        tree.add_child(rec, "beta", Some(b.clone()));
        out.push(vec![Value::from_data(&a), Value::from_data(&b)]);
    }
    Example::new(tree, out)
}

/// Records interleaved with decoy siblings reusing the same field tags.
fn wide_fan_out(rng: &mut StdRng) -> Example {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let mut out = Table::anonymous(2);
    for r in 0..rng.gen_range(8usize..20) {
        if r % 3 == 0 {
            // Decoy: same field tags under a different element tag.
            let decoy = tree.add_child(root, "noise", None);
            tree.add_child(decoy, "alpha", Some(format!("decoy-a-{r}")));
            tree.add_child(decoy, "beta", Some(format!("decoy-b-{r}")));
        } else {
            let rec = tree.add_child(root, "rec", None);
            let a = format!("a-{r}");
            let b = format!("b-{r}-{}", rng.gen_range(0u64..100));
            tree.add_child(rec, "alpha", Some(a.clone()));
            tree.add_child(rec, "beta", Some(b.clone()));
            out.push(vec![Value::from_data(&a), Value::from_data(&b)]);
        }
    }
    Example::new(tree, out)
}

/// Records whose middle field is present only sometimes; the expected output
/// contains only the complete records (cross-product semantics drop the rest).
fn optional_fields(rng: &mut StdRng) -> Example {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let mut out = Table::anonymous(2);
    for r in 0..rng.gen_range(4usize..9) {
        let rec = tree.add_child(root, "rec", None);
        let a = format!("a-{r}");
        tree.add_child(rec, "alpha", Some(a.clone()));
        if rng.gen_range(0u64..10) < 6 {
            let b = format!("b-{r}");
            tree.add_child(rec, "beta", Some(b.clone()));
            out.push(vec![Value::from_data(&a), Value::from_data(&b)]);
        }
    }
    Example::new(tree, out)
}

/// The same tag at several levels: `item` sections containing `item` rows, with
/// an `item` *field* inside each row for good measure.
fn tag_collisions(rng: &mut StdRng) -> Example {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let mut out = Table::anonymous(2);
    for g in 0..rng.gen_range(2usize..4) {
        let outer = tree.add_child(root, "item", None);
        for r in 0..rng.gen_range(1usize..4) {
            let inner = tree.add_child(outer, "item", None);
            let name = format!("n-{g}-{r}");
            let item = format!("i-{g}-{r}-{}", rng.gen_range(0u64..50));
            tree.add_child(inner, "name", Some(name.clone()));
            tree.add_child(inner, "item", Some(item.clone()));
            out.push(vec![Value::from_data(&name), Value::from_data(&item)]);
        }
    }
    Example::new(tree, out)
}

// ---------------------------------------------------------------------------
// Malformed text generators
// ---------------------------------------------------------------------------

fn xml_template(rng: &mut StdRng) -> String {
    let mut s = String::from("<root>");
    for r in 0..rng.gen_range(2usize..6) {
        s.push_str(&format!(
            "<rec id=\"r{r}\"><name>n-{r}</name><val>{}</val></rec>",
            rng.gen_range(0u64..1000)
        ));
    }
    s.push_str("</root>");
    s
}

fn json_template(rng: &mut StdRng) -> String {
    let mut s = String::from("{\"recs\": [");
    let n = rng.gen_range(2usize..6);
    for r in 0..n {
        if r > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"name\": \"n-{r}\", \"val\": {}, \"tags\": [1, 2, 3]}}",
            rng.gen_range(0u64..1000)
        ));
    }
    s.push_str("]}");
    s
}

fn html_template(rng: &mut StdRng) -> String {
    let mut s = String::from("<html><body><table>");
    for r in 0..rng.gen_range(2usize..6) {
        s.push_str(&format!(
            "<tr><td>n-{r}</td><td>{}</td>",
            rng.gen_range(0u64..1000)
        ));
    }
    s.push_str("</table></body>");
    s
}

/// Applies 1–4 random corruptions: truncation, hostile-byte insertion, slice
/// duplication, slice deletion.  Operates on char boundaries so the result is
/// always a valid `&str` (the parsers' input type).
fn corrupt(rng: &mut StdRng, text: &str) -> String {
    const HOSTILE: &[char] = &[
        '<', '>', '"', '\'', '{', '}', '[', ']', '&', ';', ',', ':', '\\', '\0', '\u{FFFD}',
    ];
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..rng.gen_range(1usize..5) {
        if chars.is_empty() {
            break;
        }
        match rng.gen_range(0u64..4) {
            0 => {
                // Truncate.
                let at = rng.gen_range(0usize..chars.len());
                chars.truncate(at);
            }
            1 => {
                // Insert a hostile character.
                let at = rng.gen_range(0usize..chars.len() + 1);
                let ch = HOSTILE[rng.gen_range(0usize..HOSTILE.len())];
                chars.insert(at, ch);
            }
            2 => {
                // Duplicate a slice.
                let start = rng.gen_range(0usize..chars.len());
                let len = rng.gen_range(1usize..(chars.len() - start + 1).min(12));
                let slice: Vec<char> = chars[start..start + len].to_vec();
                chars.splice(start..start, slice);
            }
            _ => {
                // Delete a slice.
                let start = rng.gen_range(0usize..chars.len());
                let len = rng.gen_range(1usize..(chars.len() - start + 1).min(12));
                chars.drain(start..start + len);
            }
        }
    }
    chars.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Seeded corpus mixer (corpus-service harness, DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Parameters of a mixed corpus: N shop documents sharing one schema, with a
/// seeded fraction corrupted via the `corrupt` modes (the same corruption
/// family as the `tests/fixtures/malformed/` fixtures) and an optional
/// fraction carrying a `<promo>` element that gives them a second shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusMix {
    /// Suite seed; every document is a pure function of `(seed, index)`.
    pub seed: u64,
    /// Documents to generate.
    pub docs: usize,
    /// Percentage (0–100) of documents corrupted into unparseable text.
    pub malformed_pct: u32,
    /// Percentage (0–100) of well-formed documents that carry a `<promo>`
    /// child (a second document shape); `0` keeps the corpus single-shape.
    pub promo_pct: u32,
}

/// A generated corpus: the text (one document per line, `#mitra-corpus`
/// header first) plus the indices of the documents that were corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixedCorpus {
    /// The corpus text, ready for `mitra_migrate::corpus::run`.
    pub text: String,
    /// Document indices (0-based, in corpus order) that are malformed.
    pub malformed: Vec<usize>,
}

/// One guaranteed-unparseable, non-blank, non-comment line — the fallback when
/// `corrupt` happens to produce text the strict XML parser still accepts.
const MALFORMED_FALLBACK: &str = "<shop><broken";

fn mixed_doc(rng: &mut StdRng, doc: usize, promo: bool) -> String {
    let mut text = String::from("<shop>");
    if promo {
        text.push_str("<promo>save-big</promo>");
    }
    // Every value is unique *within the document*: any document can become the
    // shape's synthesis exemplar, and the example-based predicate learner
    // labels candidate tuples by value, so a tier or total duplicated across
    // rows would make the exemplar's expected table ambiguous (several node
    // tuples render the same row) and synthesis would correctly report that
    // no program is consistent.  Uniqueness comes from embedding the customer
    // and order indices in the low digits; the random high digits still vary
    // the data across documents.
    for c in 0..2 + rng.gen_range(0usize..3) {
        text.push_str("<customer>");
        text.push_str(&format!("<name>c{doc}x{c}</name>"));
        text.push_str(&format!(
            "<tier>{}</tier>",
            rng.gen_range(1u32..6) * 10 + c as u32
        ));
        for o in 0..1 + rng.gen_range(0usize..3) {
            text.push_str(&format!(
                "<order><item>sku{doc}x{c}x{o}</item><total>{}</total></order>",
                rng.gen_range(1u32..10) * 100 + (c as u32) * 10 + o as u32
            ));
        }
        text.push_str("</customer>");
    }
    text.push_str("</shop>");
    text
}

/// Corrupts a document until the strict XML parser rejects it, falling back to
/// [`MALFORMED_FALLBACK`] if 16 corruption rounds all stayed parseable.  The
/// result is always a single non-blank, non-comment line, so corrupting a
/// document never changes the corpus's document indexing.
fn corrupt_until_unparseable(rng: &mut StdRng, clean: &str) -> String {
    for _ in 0..16 {
        let candidate: String = corrupt(rng, clean).replace('\n', " ");
        if candidate.trim().is_empty() || candidate.trim_start().starts_with('#') {
            continue;
        }
        if xml_to_hdt(&candidate).is_err() {
            return candidate;
        }
    }
    MALFORMED_FALLBACK.to_string()
}

/// Generates a mixed corpus.  Every document is a pure function of
/// `(mix.seed, index)`, so two calls with the same mix produce byte-identical
/// text and the same malformed index set.
pub fn mixed_corpus(mix: &CorpusMix) -> MixedCorpus {
    let mut text = format!(
        "#mitra-corpus v1 format=xml job=mixer seed={} docs={} malformed_pct={} promo_pct={}\n",
        mix.seed, mix.docs, mix.malformed_pct, mix.promo_pct
    );
    let mut malformed = Vec::new();
    for i in 0..mix.docs {
        let mut rng = StdRng::seed_from_u64(
            mix.seed
                ^ (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17),
        );
        let is_malformed = rng.gen_range(0u32..100) < mix.malformed_pct;
        let promo = rng.gen_range(0u32..100) < mix.promo_pct;
        let clean = mixed_doc(&mut rng, i, promo);
        if is_malformed {
            malformed.push(i);
            text.push_str(&corrupt_until_unparseable(&mut rng, &clean));
        } else {
            text.push_str(&clean);
        }
        text.push('\n');
    }
    MixedCorpus { text, malformed }
}

/// The mixer's target schema: `customer(ck PK, name, tier)` and
/// `purchase(pk PK, customer_fk → customer.ck, item, total)`.
pub fn mixer_schema() -> Schema {
    Schema::new()
        .with_table(
            TableSchema::new(
                "customer",
                vec![
                    Column::text("ck"),
                    Column::text("name"),
                    Column::integer("tier"),
                ],
            )
            .with_primary_key(&["ck"]),
        )
        .with_table(
            TableSchema::new(
                "purchase",
                vec![
                    Column::text("pk"),
                    Column::text("customer_fk"),
                    Column::text("item"),
                    Column::integer("total"),
                ],
            )
            .with_primary_key(&["pk"])
            .with_foreign_key(&["customer_fk"], "customer", &["ck"]),
        )
}

/// The `text` leaf holding an element's character data (the XML→HDT mapping
/// stores `<name>c0x0</name>` as an internal `name` node with a `text` leaf
/// child — see `mitra_hdt::xml`).
fn text_leaf(tree: &Hdt, parent: mitra_hdt::NodeId, tag: &str) -> Option<mitra_hdt::NodeId> {
    tree.child(tree.child(parent, tag, 0)?, "text", 0)
}

fn expected_customers(tree: &Hdt) -> Option<Table> {
    let mut out = Table::new(vec!["name".to_string(), "tier".to_string()]);
    for &cust in tree.children_with_tag(tree.root(), "customer") {
        let name = text_leaf(tree, cust, "name")?;
        let tier = text_leaf(tree, cust, "tier")?;
        out.push(vec![node_value(tree, name), node_value(tree, tier)]);
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn expected_purchases(tree: &Hdt) -> Option<Table> {
    let mut out = Table::new(vec!["item".to_string(), "total".to_string()]);
    for &cust in tree.children_with_tag(tree.root(), "customer") {
        for &order in tree.children_with_tag(cust, "order") {
            let item = text_leaf(tree, order, "item")?;
            let total = text_leaf(tree, order, "total")?;
            out.push(vec![node_value(tree, item), node_value(tree, total)]);
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// The corpus tasks matching [`mixer_schema`].  Data columns come from oracles
/// (so a program is synthesized once per shape); `purchase.customer_fk`
/// re-derives the owning customer's node tuple — item text leaf → item element
/// → order → customer → (name text, tier text) — mirroring the row nodes the
/// customer program produces.
pub fn mixer_tasks() -> Vec<CorpusTask> {
    let customers: ExampleOracle = std::sync::Arc::new(expected_customers);
    let purchases: ExampleOracle = std::sync::Arc::new(expected_purchases);
    let owner = NodeExtractor::parent(NodeExtractor::parent(NodeExtractor::parent(
        NodeExtractor::Id,
    )));
    vec![
        CorpusTask {
            table: "customer".to_string(),
            source: CorpusTableSource::Oracle(customers),
            keys: vec![("ck".to_string(), KeySpec::SyntheticPrimary)],
            data_columns: vec!["name".to_string(), "tier".to_string()],
        },
        CorpusTask {
            table: "purchase".to_string(),
            source: CorpusTableSource::Oracle(purchases),
            keys: vec![
                ("pk".to_string(), KeySpec::SyntheticPrimary),
                (
                    "customer_fk".to_string(),
                    KeySpec::Foreign {
                        derivations: vec![
                            (
                                0,
                                NodeExtractor::child(
                                    NodeExtractor::child(owner.clone(), "name", 0),
                                    "text",
                                    0,
                                ),
                            ),
                            (
                                0,
                                NodeExtractor::child(
                                    NodeExtractor::child(owner, "tier", 0),
                                    "text",
                                    0,
                                ),
                            ),
                        ],
                    },
                ),
            ],
            data_columns: vec!["item".to_string(), "total".to_string()],
        },
    ]
}

/// A ready-to-run corpus job for mixer corpora (default [`CorpusJob::config`];
/// callers tune shard size, budgets and threads on the returned value).
pub fn mixer_job() -> CorpusJob {
    CorpusJob {
        schema: mixer_schema(),
        tasks: mixer_tasks(),
        format: DocFormat::Xml,
        config: Default::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_pure_functions_of_seed_and_id() {
        for id in 0..14 {
            let a = scenario(42, id);
            let b = scenario(42, id);
            assert_eq!(a.kind, b.kind);
            match (&a.payload, &b.payload) {
                (Payload::Structured(x), Payload::Structured(y)) => {
                    assert_eq!(x.output, y.output);
                    assert_eq!(x.tree.len(), y.tree.len());
                }
                (Payload::Malformed { text: x, .. }, Payload::Malformed { text: y, .. }) => {
                    assert_eq!(x, y)
                }
                _ => panic!("payload families differ for id {id}"),
            }
        }
    }

    #[test]
    fn a_small_suite_has_no_failures() {
        let report = run_suite(7, 7, 1);
        assert_eq!(report.outcomes.len(), 7);
        let failures = report.failures();
        assert!(
            failures.is_empty(),
            "unexpected fuzz failures: {:?}",
            failures
                .iter()
                .map(|o| (o.id, o.kind, &o.verdict))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn verdicts_match_across_thread_counts() {
        let mismatches = cross_thread_mismatches(11, 7, 1, 4);
        assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
    }

    #[test]
    fn summary_json_is_deterministic_and_complete() {
        let a = run_suite(3, 7, 1).summary_json();
        let b = run_suite(3, 7, 2).summary_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"scenarios\": 7"), "{a}");
    }

    #[test]
    fn migration_scenario_is_deterministic_and_runs_clean() {
        let (doc, plan) = migration_scenario(5, 3);
        let report = plan.run(&doc).unwrap();
        assert_eq!(report.degradation().ok, 3);
        let (doc2, plan2) = migration_scenario(5, 3);
        let report2 = plan2.run(&doc2).unwrap();
        assert_eq!(report.summary_json(), report2.summary_json());
    }

    #[test]
    fn mixed_corpus_is_deterministic_and_exactly_the_seeded_fraction_fails() {
        let mix = CorpusMix {
            seed: 42,
            docs: 50,
            malformed_pct: 20,
            promo_pct: 0,
        };
        let a = mixed_corpus(&mix);
        let b = mixed_corpus(&mix);
        assert_eq!(a, b, "byte-identical for the same mix");
        assert!(
            !a.malformed.is_empty(),
            "20% of 50 docs should corrupt some"
        );
        let (header, docs) = mitra_migrate::corpus::parse_corpus_text(&a.text);
        assert_eq!(header.get("job"), Some("mixer"));
        assert_eq!(docs.len(), mix.docs, "corruption must not change indexing");
        for doc in &docs {
            let parsed = xml_to_hdt(doc.text);
            assert_eq!(
                parsed.is_err(),
                a.malformed.contains(&doc.index),
                "doc {} parse outcome must match the seeded malformed set",
                doc.index
            );
        }
    }

    #[test]
    fn malformed_fallback_line_is_unparseable() {
        assert!(xml_to_hdt(MALFORMED_FALLBACK).is_err());
        assert!(!MALFORMED_FALLBACK.trim().is_empty());
        assert!(!MALFORMED_FALLBACK.starts_with('#'));
    }

    #[test]
    fn single_shape_mix_fingerprints_identically() {
        let mix = CorpusMix {
            seed: 7,
            docs: 12,
            malformed_pct: 0,
            promo_pct: 0,
        };
        let corpus = mixed_corpus(&mix);
        let (_, docs) = mitra_migrate::corpus::parse_corpus_text(&corpus.text);
        let fps: Vec<_> = docs
            .iter()
            .map(|d| mitra_synth::fingerprint::fingerprint(&xml_to_hdt(d.text).unwrap()))
            .collect();
        assert!(fps.windows(2).all(|w| w[0] == w[1]), "one shape expected");
        let promo_mix = CorpusMix {
            promo_pct: 100,
            ..mix
        };
        let promo = mixed_corpus(&promo_mix);
        let (_, pdocs) = mitra_migrate::corpus::parse_corpus_text(&promo.text);
        let pfp = mitra_synth::fingerprint::fingerprint(&xml_to_hdt(pdocs[0].text).unwrap());
        assert_ne!(pfp, fps[0], "promo documents are a second shape");
    }

    #[test]
    fn mixer_oracles_walk_the_generated_documents() {
        let mut rng = StdRng::seed_from_u64(3);
        let doc = mixed_doc(&mut rng, 0, false);
        let tree = xml_to_hdt(&doc).unwrap();
        let customers = expected_customers(&tree).unwrap();
        let purchases = expected_purchases(&tree).unwrap();
        assert!(customers.len() >= 2);
        assert!(purchases.len() >= customers.len());
        // The oracles must land on the `text` leaves, not the internal
        // element nodes whose node_value is NULL.
        for row in customers.rows.iter().chain(purchases.rows.iter()) {
            assert!(
                row.iter().all(|v| !matches!(v, mitra_dsl::Value::Null)),
                "oracle rows must carry real data: {row:?}"
            );
        }
        assert!(mixer_job().validate().is_ok());
    }
}
