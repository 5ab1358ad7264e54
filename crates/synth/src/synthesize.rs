//! Top-level synthesis (`LearnTransformation`, Algorithm 1), as a lazy cost-ordered
//! best-first search.
//!
//! The algorithm learns, for each output column, the intersected DFA of candidate
//! column extractors (via [`crate::column`]), then explores the cartesian product of
//! the columns' accepted words through a binary-heap frontier keyed by the admissible
//! θ-cost lower bound `(0, Σ column-extractor sizes, 0)`.  Combos pop in true cost
//! order — per-column candidates *stream* out of the automata on demand instead of
//! being capped and materialized up front — and each popped combo learns a filtering
//! predicate ([`crate::predicate`]) and validates against every example.  The search
//! stops at the first point where the best validated program provably beats every
//! unexplored combo (see DESIGN.md §8), or after `max_table_candidates` pops.
//!
//! The returned program is identical at every thread count: batches of combos are
//! popped on a deterministic schedule, evaluated concurrently, and merged in pop
//! order with strict-improvement ties (cost, then enumeration index).

use crate::budget::{Budget, BudgetBreach, BudgetExhausted, BudgetResource};
use crate::cache::ColumnEvalCache;
use crate::column::{learn_all_columns, learn_column_automata, ColumnLearnConfig};
use crate::dfa::{DfaLimits, WordStream};
use crate::predicate::{learn_predicate, learn_predicate_reference, PredicateLearnConfig};
use crate::universe::UniverseConfig;
use mitra_dsl::ast::{ColumnExtractor, Program, TableExtractor};
use mitra_dsl::cost::{cost, Cost};
use mitra_dsl::eval::{eval_program_with, EvalLimits};
use mitra_dsl::Table;
use mitra_hdt::Hdt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One input–output example: an HDT and the relational table it should map to.
#[derive(Debug, Clone)]
pub struct Example {
    /// The input hierarchical data tree.
    pub tree: Hdt,
    /// The expected output table.
    pub output: Table,
}

impl Example {
    /// Creates an example.
    pub fn new(tree: Hdt, output: Table) -> Self {
        Example { tree, output }
    }
}

/// Tunable parameters of the synthesizer.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Limits for DFA construction and enumeration.
    pub dfa_limits: DfaLimits,
    /// Maximum candidate column extractors per column.
    ///
    /// Only the exhaustive reference path materializes per-column candidate lists;
    /// the best-first search streams candidates from the column automata and is
    /// bounded by `max_table_candidates` alone.
    pub max_column_candidates: usize,
    /// Maximum candidate table extractors (combinations) examined.
    pub max_table_candidates: usize,
    /// Predicate-universe knobs.
    pub universe: UniverseConfig,
    /// Maximum intermediate-table size per example.
    pub max_intermediate_rows: usize,
    /// Whether the exact (ILP-equivalent) cover solver is used.
    pub exact_cover: bool,
    /// Overall wall-clock budget; `None` means unlimited.
    pub timeout: Option<Duration>,
    /// Deterministic fuel budget (candidates popped, DFA states, rows
    /// materialized).  Unlike `timeout`, exhaustion is a pure function of the
    /// work done, so results under a budget are identical at every thread count
    /// and machine speed.  Default: unlimited.
    pub budget: Budget,
    /// Worker threads for DFA construction and candidate validation.
    ///
    /// `0` resolves to the process-global setting (`--threads` / `MITRA_THREADS` /
    /// available parallelism), `1` restores the fully sequential path.  The learned
    /// program is identical for every value: per-worker results are merged in
    /// canonical candidate order.
    pub threads: usize,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            dfa_limits: DfaLimits::default(),
            max_column_candidates: 16,
            max_table_candidates: 128,
            universe: UniverseConfig::default(),
            max_intermediate_rows: 50_000,
            exact_cover: true,
            timeout: Some(Duration::from_secs(120)),
            budget: Budget::UNLIMITED,
            threads: 0,
        }
    }
}

/// Reasons why synthesis can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// No examples were provided, or an example had zero columns.
    EmptySpecification,
    /// The examples disagree on the number of output columns.
    InconsistentArity,
    /// No column extractor consistent with the examples exists for the given column.
    NoColumnExtractor(usize),
    /// Column extractors were found but no (extractor, predicate) combination
    /// reproduces the examples.
    NoProgram,
    /// The configured timeout was exceeded before a program was found.
    Timeout,
    /// A deterministic fuel budget ran out before any program was found; the
    /// payload carries the breach and the partial work profile.
    BudgetExhausted(BudgetExhausted),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::EmptySpecification => write!(f, "no usable input-output examples"),
            SynthError::InconsistentArity => {
                write!(f, "output examples have different numbers of columns")
            }
            SynthError::NoColumnExtractor(i) => {
                write!(f, "no column extractor found for column {i}")
            }
            SynthError::NoProgram => write!(f, "no DSL program is consistent with the examples"),
            SynthError::Timeout => write!(f, "synthesis timed out"),
            SynthError::BudgetExhausted(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Wall-time and work breakdown of one synthesis call, threaded into
/// [`Synthesis`], migration reports, `bench_smoke`'s ledger
/// (`BENCH_synthesis.json`) and the benchmark's result lines (the
/// `synth.*_frac` metrics), so perf work can attribute wins per phase.
///
/// The duration fields are *summed across pool workers* where a phase fans out
/// (DFA build, predicate learning, validation), so on multi-threaded runs they
/// can exceed the elapsed wall clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynthProfile {
    /// Building each example's DFA state graph and deriving the per-(column,
    /// example) automata from it.
    pub dfa_build: Duration,
    /// Intersecting them into per-column product automata.
    pub dfa_intersect: Duration,
    /// Streaming words out of the product automata.
    pub dfa_enumerate: Duration,
    /// Learning filtering predicates for popped combos.
    pub predicate_learn: Duration,
    /// Validating candidate programs against the examples.
    pub validate: Duration,
    /// Combos that ran candidate evaluation (rejected or valid).
    pub candidates_examined: usize,
    /// Combos discarded by the admissible lower bound before any evaluation.
    pub candidates_pruned: usize,
}

impl SynthProfile {
    /// Field-wise sum, for aggregating per-table profiles into a migration total.
    pub fn merge(&mut self, other: &SynthProfile) {
        self.dfa_build += other.dfa_build;
        self.dfa_intersect += other.dfa_intersect;
        self.dfa_enumerate += other.dfa_enumerate;
        self.predicate_learn += other.predicate_learn;
        self.validate += other.validate;
        self.candidates_examined += other.candidates_examined;
        self.candidates_pruned += other.candidates_pruned;
    }
}

/// Result of a successful synthesis, with statistics used by the benchmark harness.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The best (lowest-cost) program found.
    pub program: Program,
    /// Its cost under θ.
    pub cost: Cost,
    /// Number of candidate table extractors examined.
    pub candidates_tried: usize,
    /// Number of candidate programs that satisfied all examples.
    pub programs_found: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True when any column's DFA *construction* hit a configured limit: the
    /// search space was under-explored and "no better program" claims must be
    /// read accordingly.  (Enumeration no longer truncates — candidates stream
    /// from the automata on demand.)
    pub truncated: bool,
    /// Worker threads actually used (after resolving `SynthConfig::threads`).
    pub threads_used: usize,
    /// Per-phase wall times and candidate counts.
    pub profile: SynthProfile,
    /// Set when a fuel budget ran out *after* a valid program was already in
    /// hand: the incumbent is returned, but the search was cut short and
    /// "no better program" claims must be read accordingly.
    pub budget_breach: Option<BudgetBreach>,
}

/// What became of one candidate table extractor.
enum CandidateOutcome {
    /// The wall-clock budget was already exhausted when the candidate came up.
    DeadlineSkipped,
    /// The admissible lower bound proved the combo cannot beat the incumbent
    /// program; no predicate was learned.
    Pruned,
    /// No predicate was found, or the validated table did not match an example.
    Rejected,
    /// A program consistent with every example.
    Valid(Box<Program>, Cost),
}

/// Evaluates one candidate table extractor: cheap incremental pruning first (row
/// coverage, product bounds, the admissible cost floor), then learn a predicate,
/// build the program, and validate it against every example (Theorem 3 soundness
/// check).
///
/// The row cap matches the one `learn_predicate` already enforced on the same trees
/// and extractor, so a candidate that reached validation can never fail on
/// resources — `Err` there (impossible by that invariant) conservatively rejects
/// the candidate rather than panicking.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidate(
    examples: &[Example],
    combo: &[ColumnExtractor],
    combo_size: usize,
    floor: Option<Cost>,
    pred_config: &PredicateLearnConfig,
    cache: &ColumnEvalCache,
    max_intermediate_rows: usize,
    predicate_nanos: &AtomicU64,
    validate_nanos: &AtomicU64,
) -> CandidateOutcome {
    // Tentpole (c): a combo dies the moment one column's evaluated value-set can no
    // longer cover the example rows — no tuple labelling, no universe.
    for (ex_idx, ex) in examples.iter().enumerate() {
        for (col, pi) in combo.iter().enumerate() {
            if !cache.row_coverage(ex_idx, &ex.tree, pi, &ex.output)[col] {
                return CandidateOutcome::Rejected;
            }
        }
    }

    // Row-product guard (checked multiplication, mirroring `cross_product`)
    // plus the admissible atom bound: an intermediate table bigger or smaller than
    // the output needs at least one predicate atom to filter or fail.
    let mut atoms_lower_bound = 0usize;
    for (ex_idx, ex) in examples.iter().enumerate() {
        let mut product: Option<usize> = Some(1);
        for pi in combo {
            let n = cache.column_nodes(ex_idx, &ex.tree, pi).len();
            product = product.and_then(|p| p.checked_mul(n));
        }
        match product {
            // Overflow: `cross_product` would reject the candidate too.
            None => return CandidateOutcome::Rejected,
            Some(p) if p > max_intermediate_rows => return CandidateOutcome::Rejected,
            Some(p) => {
                if p != ex.output.rows.len() {
                    atoms_lower_bound = 1;
                }
            }
        }
    }
    if let Some(floor) = floor {
        // Any program this combo can produce costs at least the bound, and on an
        // exact tie the earlier-popped incumbent wins — so `<=` prunes.
        if floor <= Cost::lower_bound(atoms_lower_bound, combo_size) {
            return CandidateOutcome::Pruned;
        }
    }

    let psi = TableExtractor::new(combo.to_vec());
    let phi = {
        let _span = mitra_trace::span_acc("synth", "predicate_learn", predicate_nanos);
        learn_predicate(examples, &psi, pred_config, cache)
    };
    let Some(phi) = phi else {
        return CandidateOutcome::Rejected;
    };
    let mut program = Program::new(psi, phi);
    program.column_names = examples[0].output.columns.clone();
    let limits = EvalLimits::with_max_rows(max_intermediate_rows);
    let valid = {
        let _span = mitra_trace::span_acc("synth", "validate", validate_nanos);
        examples.iter().all(|ex| {
            eval_program_with(&ex.tree, &program, &limits)
                .map(|t| t.same_bag(&ex.output))
                .unwrap_or(false)
        })
    };
    if !valid {
        return CandidateOutcome::Rejected;
    }
    let c = cost(&program);
    CandidateOutcome::Valid(Box::new(program), c)
}

/// Lazily materialized per-column candidate stream over a column automaton.
///
/// Words arrive shortest-first from [`WordStream`], and a word's extractor size
/// equals its length, so `words[i].1` is nondecreasing in `i` — the monotonicity
/// the heap keys rely on.
struct ColumnStream<'a> {
    words: Vec<(ColumnExtractor, usize)>,
    stream: WordStream<'a>,
    exhausted: bool,
}

impl<'a> ColumnStream<'a> {
    fn new(stream: WordStream<'a>) -> Self {
        ColumnStream {
            words: Vec::new(),
            stream,
            exhausted: false,
        }
    }

    /// Pulls words until index `idx` exists; false when the bounded language is
    /// exhausted first.  Pull time is accounted to the enumerate phase.
    fn ensure(&mut self, idx: usize, enumerate_nanos: &AtomicU64) -> bool {
        if self.exhausted || self.words.len() > idx {
            return self.words.len() > idx;
        }
        let _span = mitra_trace::span_acc("synth", "dfa_enumerate", enumerate_nanos);
        while !self.exhausted && self.words.len() <= idx {
            match self.stream.next_word() {
                Some(word) => {
                    let extractor = ColumnExtractor::from_steps(&word);
                    let size = extractor.size();
                    self.words.push((extractor, size));
                    mitra_trace::counter_add!("synth.words_streamed", 1);
                }
                None => self.exhausted = true,
            }
        }
        self.words.len() > idx
    }

    fn size(&self, idx: usize) -> usize {
        self.words[idx].1
    }

    fn extractor(&self, idx: usize) -> &ColumnExtractor {
        &self.words[idx].0
    }
}

/// The heap key of a combo: the sum of its column extractors' sizes (saturating —
/// the sum, not a product, but wide candidate sets must degrade gracefully rather
/// than wrap).  Equals the `extractor_constructs` component of any program built
/// from the combo, which makes `(0, key, 0)` an admissible θ lower bound.
fn combo_key(streams: &[ColumnStream<'_>], idxs: &[usize]) -> usize {
    idxs.iter().enumerate().fold(0usize, |acc, (col, &i)| {
        acc.saturating_add(streams[col].size(i))
    })
}

/// Learns a DSL program consistent with the given examples (Algorithm 1), by
/// lazy cost-ordered best-first search over candidate table extractors.
///
/// Combos (one streamed word per column) pop off a binary-heap frontier in
/// `(Σ sizes, enumeration index)` order; each popped combo is first subjected to
/// cheap incremental pruning (per-column row-coverage bitmaps, checked row
/// products, the admissible cost floor against the incumbent best program) and
/// only then runs predicate learning.  The search ends when the incumbent
/// provably beats every unexplored combo, when `max_table_candidates` combos have
/// been popped, or when the frontier empties.
///
/// With `config.threads > 1` (or `0` resolving to a parallel global setting)
/// combos are evaluated concurrently in deterministically-scheduled batches;
/// outcomes merge in pop order with strict-improvement ties, and workers prune
/// against the incumbent from *before* their batch, so the result — program,
/// cost, and all candidate counts — is **identical to the sequential path** at
/// every thread count.
///
/// One caveat: a configured `timeout` trades that determinism for bounded wall
/// clock.  The deadline decides *which candidates get examined* by elapsed time,
/// so once it fires, results can differ across machine speeds — and therefore
/// across thread counts, since more workers get further before the budget runs
/// out.  Callers that need bit-for-bit reproducibility (determinism tests, the
/// bench harness) must run with `timeout: None`.
pub fn learn_transformation(
    examples: &[Example],
    config: &SynthConfig,
) -> Result<Synthesis, SynthError> {
    let start = Instant::now();
    if examples.is_empty() {
        return Err(SynthError::EmptySpecification);
    }
    let arity = examples[0].output.arity();
    if arity == 0 {
        return Err(SynthError::EmptySpecification);
    }
    if examples.iter().any(|e| e.output.arity() != arity) {
        return Err(SynthError::InconsistentArity);
    }
    let _span = mitra_trace::span_detail("synth", "learn_transformation", || {
        format!("arity={arity} examples={}", examples.len())
    });
    let threads = mitra_pool::resolve(config.threads);

    // Build every example tree's navigation index up front: the workers below share
    // the trees read-only and must not serialize behind a lazy first-touch build.
    for ex in examples {
        ex.tree.ensure_index();
    }

    // Phase 1: the per-column product automata, derived from one state graph per
    // example, built in parallel.  State accounting is canonical (pair order, then
    // intersection order), so a `dfa_states` budget exhausts identically at every
    // thread count.
    let automata = learn_column_automata(
        examples,
        arity,
        config.dfa_limits,
        threads,
        config.budget.max_dfa_states,
    );
    if let Some(breach) = automata.breach {
        return Err(SynthError::BudgetExhausted(BudgetExhausted::new(
            breach,
            SynthProfile {
                dfa_build: automata.build,
                dfa_intersect: automata.intersect,
                ..Default::default()
            },
        )));
    }
    let mut truncated = false;
    let mut dfas = Vec::with_capacity(arity);
    for (col, dfa) in automata.dfas.into_iter().enumerate() {
        let Some(dfa) = dfa else {
            return Err(SynthError::NoColumnExtractor(col));
        };
        truncated |= dfa.truncated;
        dfas.push(dfa);
    }

    // Phase 2: best-first search over streamed combos.
    let _search_span = mitra_trace::span("synth", "best_first_search");
    let enumerate_nanos = AtomicU64::new(0);
    let mut streams: Vec<ColumnStream<'_>> = dfas
        .iter()
        .map(|dfa| ColumnStream::new(dfa.stream(config.dfa_limits.max_word_len)))
        .collect();
    for (col, stream) in streams.iter_mut().enumerate() {
        if !stream.ensure(0, &enumerate_nanos) {
            return Err(SynthError::NoColumnExtractor(col));
        }
    }

    let pred_config = PredicateLearnConfig {
        universe: config.universe,
        max_intermediate_rows: config.max_intermediate_rows,
        exact_cover: config.exact_cover,
        threads,
    };
    let cache = ColumnEvalCache::new(examples.len());
    let predicate_nanos = AtomicU64::new(0);
    let validate_nanos = AtomicU64::new(0);

    // The frontier: combos keyed by (Σ sizes, index vector).  Every index vector is
    // generated exactly once — combo `v` is pushed only by its canonical
    // predecessor `v - e_p` where `p` is `v`'s last nonzero position — and keys are
    // monotone along successor edges because per-column sizes are nondecreasing, so
    // pops happen in true (cost bound, enumeration index) order.
    let mut heap: BinaryHeap<Reverse<(usize, Vec<usize>)>> = BinaryHeap::new();
    let seed = vec![0usize; arity];
    heap.push(Reverse((combo_key(&streams, &seed), seed)));

    let mut best: Option<(Program, Cost)> = None;
    let mut candidates_tried = 0usize;
    let mut programs_found = 0usize;
    let mut pruned = 0usize;
    let mut timed_out = false;
    let mut budget_breach: Option<BudgetBreach> = None;
    let mut popped_total = 0usize;
    // Deterministic batch schedule, independent of the thread count: batches grow
    // geometrically so the incumbent (and with it the pruning floor and the
    // termination bound) refreshes quickly early on, while later batches are wide
    // enough to keep a pool busy.
    let mut batch_size = 1usize;

    while popped_total < config.max_table_candidates {
        // Candidate fuel pays per frontier pop; the check (and the batch clamp
        // below) depend only on the pop count, never on elapsed time.
        if let Err(breach) = config
            .budget
            .check(BudgetResource::Candidates, popped_total as u64)
        {
            budget_breach = Some(breach);
            break;
        }
        mitra_trace::hist_observe!("synth.frontier_depth", heap.len() as u64);
        // Provably-minimal stop (DESIGN.md §8): every unexplored combo — frontier
        // entry or descendant thereof — has Σ sizes ≥ the frontier's minimum key,
        // hence program cost ≥ (0, min_key, 0).  An incumbent at or below that
        // bound cannot be beaten, and on ties the incumbent's earlier enumeration
        // index wins.
        let Some(Reverse((min_key, _))) = heap.peek() else {
            break;
        };
        if let Some((_, best_cost)) = &best {
            if *best_cost <= Cost::lower_bound(0, *min_key) {
                break;
            }
        }

        // Pop a deterministic batch, expanding successors as we go (a successor can
        // be popped within the same batch).
        let mut take = batch_size.min(config.max_table_candidates - popped_total);
        if let Some(limit) = config.budget.max_candidates {
            take = take.min((limit as usize).saturating_sub(popped_total));
        }
        let mut batch: Vec<(usize, Vec<usize>)> = Vec::new();
        while batch.len() < take {
            let Some(Reverse((key, idxs))) = heap.pop() else {
                break;
            };
            let last_nonzero = idxs.iter().rposition(|&i| i != 0).unwrap_or(0);
            for col in last_nonzero..arity {
                let mut succ = idxs.clone();
                succ[col] += 1;
                if streams[col].ensure(succ[col], &enumerate_nanos) {
                    let succ_key = combo_key(&streams, &succ);
                    heap.push(Reverse((succ_key, succ)));
                }
            }
            batch.push((key, idxs));
        }
        if batch.is_empty() {
            break;
        }
        let batch_start = popped_total;
        popped_total += batch.len();

        let jobs: Vec<(usize, Vec<ColumnExtractor>)> = batch
            .iter()
            .map(|(key, idxs)| {
                let combo: Vec<ColumnExtractor> = idxs
                    .iter()
                    .enumerate()
                    .map(|(col, &i)| streams[col].extractor(i).clone())
                    .collect();
                (*key, combo)
            })
            .collect();
        // Workers prune against the incumbent from before the batch: in-batch
        // improvements must not influence later jobs, or the outcome (and the
        // candidate counts) would depend on scheduling.
        let floor = best.as_ref().map(|(_, c)| *c);
        let outcomes = mitra_pool::parallel_map_catch(threads, &jobs, |j, (key, combo)| {
            // Fault-injection site keyed by the global pop index — which candidate
            // dies is a pure function of the spec, never of worker scheduling.
            mitra_trace::fault::hit("synth.validate", (batch_start + j) as u64);
            // The deadline check mirrors the sequential loop: a candidate whose
            // turn comes up after the budget is spent is skipped, not started.
            if let Some(limit) = config.timeout {
                if start.elapsed() > limit {
                    return CandidateOutcome::DeadlineSkipped;
                }
            }
            evaluate_candidate(
                examples,
                combo,
                *key,
                floor,
                &pred_config,
                &cache,
                config.max_intermediate_rows,
                &predicate_nanos,
                &validate_nanos,
            )
        });

        // Canonical merge, in pop order with strict improvement: ties between
        // equal-cost programs go to the earlier enumeration index.
        let mut panicked = 0u64;
        for outcome in outcomes {
            match outcome {
                // A panicking evaluation poisons only its own slot; the combo
                // counts as examined-and-rejected, so candidate accounting (and
                // with it the returned program) is identical at every thread
                // count for an index-keyed fault.
                Err(_) => {
                    candidates_tried += 1;
                    panicked += 1;
                }
                Ok(CandidateOutcome::DeadlineSkipped) => timed_out = true,
                Ok(CandidateOutcome::Pruned) => pruned += 1,
                Ok(CandidateOutcome::Rejected) => candidates_tried += 1,
                Ok(CandidateOutcome::Valid(program, c)) => {
                    candidates_tried += 1;
                    programs_found += 1;
                    let better = match &best {
                        None => true,
                        Some((_, bc)) => c < *bc,
                    };
                    if better {
                        best = Some((*program, c));
                    }
                }
            }
        }
        if panicked > 0 {
            mitra_trace::counter_add!("synth.candidates.panicked", panicked);
        }
        if timed_out {
            break;
        }
        batch_size = (batch_size * 2).min(16);
    }

    mitra_trace::counter_add!("synth.candidates.examined", candidates_tried as u64);
    mitra_trace::counter_add!("synth.candidates.pruned", pruned as u64);
    let profile = SynthProfile {
        dfa_build: automata.build,
        dfa_intersect: automata.intersect,
        dfa_enumerate: Duration::from_nanos(enumerate_nanos.load(Relaxed)),
        predicate_learn: Duration::from_nanos(predicate_nanos.load(Relaxed)),
        validate: Duration::from_nanos(validate_nanos.load(Relaxed)),
        candidates_examined: candidates_tried,
        candidates_pruned: pruned,
    };
    match best {
        Some((program, c)) => Ok(Synthesis {
            program,
            cost: c,
            candidates_tried,
            programs_found,
            elapsed: start.elapsed(),
            truncated,
            threads_used: threads,
            profile,
            budget_breach,
        }),
        None => {
            if let Some(breach) = budget_breach {
                Err(SynthError::BudgetExhausted(BudgetExhausted::new(
                    breach, profile,
                )))
            } else if timed_out {
                Err(SynthError::Timeout)
            } else {
                Err(SynthError::NoProgram)
            }
        }
    }
}

/// The pre-refactor materialize-then-sweep pipeline, kept as the oracle for the
/// differential suite (`tests/search_equivalence.rs`): capped per-column candidate
/// lists, every combination evaluated with the reference predicate learner, no
/// early termination and no pruning.  When neither the per-column cap nor the
/// combination cap binds, the best-first search must return a byte-identical
/// program and cost.
pub fn learn_transformation_exhaustive(
    examples: &[Example],
    config: &SynthConfig,
) -> Result<Synthesis, SynthError> {
    let start = Instant::now();
    if examples.is_empty() {
        return Err(SynthError::EmptySpecification);
    }
    let arity = examples[0].output.arity();
    if arity == 0 {
        return Err(SynthError::EmptySpecification);
    }
    if examples.iter().any(|e| e.output.arity() != arity) {
        return Err(SynthError::InconsistentArity);
    }
    let threads = mitra_pool::resolve(config.threads);
    for ex in examples {
        ex.tree.ensure_index();
    }

    let col_config = ColumnLearnConfig {
        limits: config.dfa_limits,
        max_candidates: config.max_column_candidates,
    };
    let learned = learn_all_columns(examples, arity, &col_config, threads);
    let mut truncated = false;
    let mut per_column: Vec<Vec<ColumnExtractor>> = Vec::with_capacity(arity);
    for (col, cands) in learned.into_iter().enumerate() {
        if cands.extractors.is_empty() {
            return Err(SynthError::NoColumnExtractor(col));
        }
        truncated |= cands.truncated;
        per_column.push(cands.extractors);
    }

    let combos = ordered_combinations(&per_column, config.max_table_candidates);
    let pred_config = PredicateLearnConfig {
        universe: config.universe,
        max_intermediate_rows: config.max_intermediate_rows,
        exact_cover: config.exact_cover,
        threads,
    };
    let cache = ColumnEvalCache::new(examples.len());
    let limits = EvalLimits::with_max_rows(config.max_intermediate_rows);

    let mut best: Option<(Program, Cost)> = None;
    let mut candidates_tried = 0usize;
    let mut programs_found = 0usize;
    let mut timed_out = false;
    let mut budget_breach: Option<BudgetBreach> = None;
    for combo in &combos {
        // The reference path spends candidate fuel per combo examined, matching
        // the best-first frontier's pay-per-pop accounting.
        if let Err(breach) = config
            .budget
            .check(BudgetResource::Candidates, candidates_tried as u64)
        {
            budget_breach = Some(breach);
            break;
        }
        if let Some(limit) = config.timeout {
            if start.elapsed() > limit {
                timed_out = true;
                continue;
            }
        }
        candidates_tried += 1;
        let psi = TableExtractor::new(combo.clone());
        let Some(phi) = learn_predicate_reference(examples, &psi, &pred_config, &cache) else {
            continue;
        };
        let mut program = Program::new(psi, phi);
        program.column_names = examples[0].output.columns.clone();
        if !examples.iter().all(|ex| {
            eval_program_with(&ex.tree, &program, &limits)
                .map(|t| t.same_bag(&ex.output))
                .unwrap_or(false)
        }) {
            continue;
        }
        let c = cost(&program);
        programs_found += 1;
        let better = match &best {
            None => true,
            Some((_, bc)) => c < *bc,
        };
        if better {
            best = Some((program, c));
        }
    }

    let profile = SynthProfile {
        candidates_examined: candidates_tried,
        ..Default::default()
    };
    match best {
        Some((program, c)) => Ok(Synthesis {
            program,
            cost: c,
            candidates_tried,
            programs_found,
            elapsed: start.elapsed(),
            truncated,
            threads_used: threads,
            profile,
            budget_breach,
        }),
        None => {
            if let Some(breach) = budget_breach {
                Err(SynthError::BudgetExhausted(BudgetExhausted::new(
                    breach, profile,
                )))
            } else if timed_out {
                Err(SynthError::Timeout)
            } else {
                Err(SynthError::NoProgram)
            }
        }
    }
}

/// Enumerates combinations (one candidate per column), ordered by the total size of
/// the chosen extractors so that simpler table extractors are tried first, capped at
/// `max` combinations.
///
/// Only the exhaustive reference path uses this; the best-first search generates
/// the same (size, index) order lazily through its heap frontier.
fn ordered_combinations(
    per_column: &[Vec<ColumnExtractor>],
    max: usize,
) -> Vec<Vec<ColumnExtractor>> {
    let mut combos: Vec<Vec<usize>> = vec![vec![]];
    for cands in per_column {
        let mut next = Vec::new();
        for combo in &combos {
            for (i, _) in cands.iter().enumerate() {
                let mut c = combo.clone();
                c.push(i);
                next.push(c);
            }
        }
        combos = next;
        // Keep the combination count in check as we go: sort by partial size and trim.
        if combos.len() > max * 8 {
            combos.sort_by_key(|c| partial_size(per_column, c));
            combos.truncate(max * 8);
        }
    }
    combos.sort_by_key(|c| partial_size(per_column, c));
    combos.truncate(max);
    combos
        .into_iter()
        .map(|idxs| {
            idxs.iter()
                .enumerate()
                .map(|(col, &i)| per_column[col][i].clone())
                .collect()
        })
        .collect()
}

/// Total extractor size of a (partial) combination.  Saturating: on pathologically
/// wide candidate sets the sum must degrade to "effectively infinite", not wrap
/// around and sort a gigantic combo ahead of everything else.
fn partial_size(per_column: &[Vec<ColumnExtractor>], combo: &[usize]) -> usize {
    combo.iter().enumerate().fold(0usize, |acc, (col, &i)| {
        acc.saturating_add(per_column[col][i].size())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::eval::eval_program;
    use mitra_dsl::pretty;
    use mitra_hdt::generate::{nested_objects, social_network, social_network_rows};

    fn social_example(n: usize, f: usize) -> Example {
        let tree = social_network(n, f);
        let rows = social_network_rows(n, f);
        let mut output = Table::new(vec![
            "Person".to_string(),
            "Friend-with".to_string(),
            "years".to_string(),
        ]);
        for r in rows {
            output.push(r.iter().map(|s| mitra_dsl::Value::from_data(s)).collect());
        }
        Example::new(tree, output)
    }

    #[test]
    fn synthesizes_motivating_example() {
        let ex = social_example(3, 1);
        let result =
            learn_transformation(std::slice::from_ref(&ex), &SynthConfig::default()).unwrap();
        // The program must generalize: run it on a bigger document.
        let big = social_example(5, 2);
        let out = eval_program(&big.tree, &result.program).unwrap();
        assert!(
            out.same_bag(&big.output),
            "program does not generalize:\n{}\ngot {out}",
            pretty::program_summary(&result.program)
        );
        assert!(result.cost.atoms >= 1);
    }

    #[test]
    fn synthesizes_single_column_projection() {
        let ex = Example::new(
            social_network(3, 1),
            Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]),
        );
        let result = learn_transformation(&[ex], &SynthConfig::default()).unwrap();
        assert_eq!(result.program.arity(), 1);
        // Simplest program should need no predicate atoms at all.
        assert_eq!(result.cost.atoms, 0);
    }

    #[test]
    fn synthesizes_figure8_example() {
        let tree = nested_objects();
        let output = Table::from_rows(&["outer", "inner"], &[&["outer-a", "inner-a"]]);
        let ex = Example::new(tree, output);
        let result =
            learn_transformation(std::slice::from_ref(&ex), &SynthConfig::default()).unwrap();
        let check = eval_program(&ex.tree, &result.program).unwrap();
        assert!(check.same_bag(&ex.output));
    }

    #[test]
    fn error_on_empty_examples() {
        assert_eq!(
            learn_transformation(&[], &SynthConfig::default()).unwrap_err(),
            SynthError::EmptySpecification
        );
    }

    #[test]
    fn error_on_inconsistent_arity() {
        let e1 = Example::new(
            social_network(2, 1),
            Table::from_rows(&["a"], &[&["Alice"]]),
        );
        let e2 = Example::new(
            social_network(2, 1),
            Table::from_rows(&["a", "b"], &[&["Alice", "Bob"]]),
        );
        assert_eq!(
            learn_transformation(&[e1, e2], &SynthConfig::default()).unwrap_err(),
            SynthError::InconsistentArity
        );
    }

    #[test]
    fn error_when_column_value_missing_from_tree() {
        let ex = Example::new(
            social_network(2, 1),
            Table::from_rows(&["x"], &[&["not-in-the-tree"]]),
        );
        match learn_transformation(&[ex], &SynthConfig::default()) {
            Err(SynthError::NoColumnExtractor(0)) => {}
            other => panic!("expected NoColumnExtractor, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_spellings_synthesize_like_any_name() {
        // Names that Rust's float parser reads as NaN or infinity are text: a
        // NaN-valued `Nan` cell would equal no node, and column 0 would have no
        // extractor.
        for name in ["Nina", "Nan", "inf", "Infinity"] {
            let doc = format!(
                "<people><person><name>Alice</name><age>31</age></person>\
                 <person><name>{name}</name><age>27</age></person>\
                 <person><name>Bob</name><age>45</age></person></people>"
            );
            let tree = mitra_hdt::xml::xml_to_hdt(&doc).unwrap();
            let output = Table::from_rows(&["name"], &[&["Alice"], &[name], &["Bob"]]);
            let ex = Example::new(tree, output);
            let result = learn_transformation(std::slice::from_ref(&ex), &SynthConfig::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                pretty::table_extractor(&result.program.extractor),
                "(\\s.children(descendants(s, name), text)){root(tau)}",
                "{name}"
            );
            let out = eval_program(&ex.tree, &result.program).unwrap();
            assert!(out.same_bag(&ex.output), "{name}: got {out}");
        }
    }

    #[test]
    fn ranking_prefers_fewer_atoms() {
        // For the simple projection task the chosen program must not carry a
        // gratuitous predicate even though predicated programs also satisfy it.
        let ex = Example::new(
            social_network(2, 1),
            Table::from_rows(&["id"], &[&["1"], &["2"]]),
        );
        let result = learn_transformation(&[ex], &SynthConfig::default()).unwrap();
        assert_eq!(result.cost.atoms, 0);
    }

    #[test]
    fn multiple_examples_are_all_satisfied() {
        let e1 = social_example(2, 1);
        let e2 = social_example(3, 1);
        let result =
            learn_transformation(&[e1.clone(), e2.clone()], &SynthConfig::default()).unwrap();
        for ex in [e1, e2] {
            assert!(eval_program(&ex.tree, &result.program)
                .unwrap()
                .same_bag(&ex.output));
        }
    }

    #[test]
    fn combination_ordering_is_by_size() {
        let small = ColumnExtractor::children(ColumnExtractor::Input, "a");
        let big = ColumnExtractor::descendants(
            ColumnExtractor::children(ColumnExtractor::Input, "a"),
            "b",
        );
        let combos =
            ordered_combinations(&[vec![small.clone(), big.clone()], vec![small, big]], 10);
        let sizes: Vec<usize> = combos
            .iter()
            .map(|c| c.iter().map(ColumnExtractor::size).sum())
            .collect();
        for w in sizes.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn best_first_matches_exhaustive_on_motivating_example() {
        let ex = social_example(3, 1);
        // Caps wide enough that neither path's bound binds: the searches explore
        // the same space and must agree byte-for-byte.
        let config = SynthConfig {
            timeout: None,
            max_column_candidates: 1_000,
            max_table_candidates: 2_000,
            threads: 1,
            ..Default::default()
        };
        let fast = learn_transformation(std::slice::from_ref(&ex), &config).unwrap();
        let slow = learn_transformation_exhaustive(std::slice::from_ref(&ex), &config).unwrap();
        assert_eq!(
            pretty::program(&fast.program),
            pretty::program(&slow.program)
        );
        assert_eq!(fast.cost, slow.cost);
    }

    #[test]
    fn zero_candidate_budget_errs_with_partial_profile() {
        let ex = social_example(3, 1);
        let config = SynthConfig {
            timeout: None,
            threads: 1,
            budget: Budget {
                max_candidates: Some(0),
                ..Budget::UNLIMITED
            },
            ..Default::default()
        };
        match learn_transformation(&[ex], &config) {
            Err(SynthError::BudgetExhausted(e)) => {
                assert_eq!(e.breach.resource, BudgetResource::Candidates);
                assert_eq!(e.breach.limit, 0);
                assert_eq!(e.profile.candidates_examined, 0);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn dfa_state_budget_errs_before_search_starts() {
        let ex = social_example(3, 1);
        let config = SynthConfig {
            timeout: None,
            threads: 1,
            budget: Budget {
                max_dfa_states: Some(1),
                ..Budget::UNLIMITED
            },
            ..Default::default()
        };
        match learn_transformation(&[ex], &config) {
            Err(SynthError::BudgetExhausted(e)) => {
                assert_eq!(e.breach.resource, BudgetResource::DfaStates);
                assert_eq!(e.profile.candidates_examined, 0);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn budget_breach_with_incumbent_returns_the_program() {
        // The projection task terminates naturally well before the candidate cap
        // (see `prunes_and_terminates_early_on_projection`), so the loop-top
        // budget check — not the `max_table_candidates` loop condition — is what
        // fires in the capped rerun.
        let ex = Example::new(
            social_network(3, 1),
            Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]),
        );
        let unlimited = SynthConfig {
            timeout: None,
            max_table_candidates: 10_000,
            threads: 1,
            ..Default::default()
        };
        let free = learn_transformation(std::slice::from_ref(&ex), &unlimited).unwrap();
        assert!(free.budget_breach.is_none());
        // Allow exactly as many pops as the natural run makes: the loop-top check
        // trips before the termination bound does, so the same incumbent comes
        // back carrying a breach.
        let total_pops = free.candidates_tried + free.profile.candidates_pruned;
        let capped = SynthConfig {
            budget: Budget {
                max_candidates: Some(total_pops as u64),
                ..Budget::UNLIMITED
            },
            ..unlimited
        };
        let cut = learn_transformation(std::slice::from_ref(&ex), &capped).unwrap();
        let breach = cut.budget_breach.expect("budget must have breached");
        assert_eq!(breach.resource, BudgetResource::Candidates);
        assert_eq!(breach.spent, total_pops as u64);
        assert_eq!(
            pretty::program(&cut.program),
            pretty::program(&free.program)
        );
        assert_eq!(cut.cost, free.cost);
    }

    #[test]
    fn budget_exhaustion_is_identical_across_thread_counts() {
        let ex = social_example(3, 1);
        let run = |threads: usize, max_candidates: u64| {
            let config = SynthConfig {
                timeout: None,
                threads,
                budget: Budget {
                    max_candidates: Some(max_candidates),
                    ..Budget::UNLIMITED
                },
                ..Default::default()
            };
            learn_transformation(std::slice::from_ref(&ex), &config)
        };
        for cap in [0, 1, 3, 7, 50] {
            let seq = run(1, cap);
            let par = run(4, cap);
            match (&seq, &par) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(pretty::program(&a.program), pretty::program(&b.program));
                    assert_eq!(a.cost, b.cost);
                    assert_eq!(a.candidates_tried, b.candidates_tried);
                    assert_eq!(a.budget_breach, b.budget_breach, "cap={cap}");
                }
                // Work counters must match exactly; profile *durations* are wall
                // clock and legitimately differ between runs.
                (Err(SynthError::BudgetExhausted(a)), Err(SynthError::BudgetExhausted(b))) => {
                    assert_eq!(a.breach, b.breach, "cap={cap}");
                    assert_eq!(
                        a.profile.candidates_examined, b.profile.candidates_examined,
                        "cap={cap}"
                    );
                    assert_eq!(
                        a.profile.candidates_pruned, b.profile.candidates_pruned,
                        "cap={cap}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "cap={cap}"),
                other => panic!("thread counts diverged at cap={cap}: {other:?}"),
            }
        }
    }

    #[test]
    fn prunes_and_terminates_early_on_projection() {
        // A 0-atom winner lets the search stop as soon as the frontier bound
        // catches up — far fewer candidates than the cap.
        let ex = Example::new(
            social_network(3, 1),
            Table::from_rows(&["name"], &[&["Alice"], &["Bob"], &["Carol"]]),
        );
        let config = SynthConfig {
            timeout: None,
            max_table_candidates: 10_000,
            threads: 1,
            ..Default::default()
        };
        let result = learn_transformation(&[ex], &config).unwrap();
        assert_eq!(result.cost.atoms, 0);
        assert!(
            result.candidates_tried + result.profile.candidates_pruned < 10_000,
            "search did not terminate early: {} tried, {} pruned",
            result.candidates_tried,
            result.profile.candidates_pruned
        );
    }
}
