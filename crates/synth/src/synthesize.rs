//! Top-level synthesis (`LearnTransformation`, Algorithm 1), as a lazy cost-ordered
//! best-first search.
//!
//! The algorithm learns, for each output column, the intersected DFA of candidate
//! column extractors (via [`crate::column`]), then explores the cartesian product of
//! the columns' accepted words through a binary-heap frontier keyed by the sum of
//! column-extractor sizes.  With the *atom floor* `L` — a lower bound on the atoms
//! of any valid program, read off the example outputs alone — every combo's programs
//! cost at least the admissible θ bound `(L, Σ sizes, 0)`.  Combos pop in true cost
//! order — per-column candidates *stream* out of the automata on demand instead of
//! being capped and materialized up front — and each popped combo learns a filtering
//! predicate ([`crate::predicate`]) and validates against every example.  Both read a
//! combo only through its columns' node lists on the examples, so combos whose
//! columns select the same nodes as an earlier pop's reuse that pop's outcome: a
//! call learns one predicate per distinct intermediate table.  The search
//! stops at the first point where the best validated program provably beats every
//! unexplored combo (see DESIGN.md §8), when the frontier drains, or after
//! `max_table_candidates` pops; the `synth.search.stop.*` counters record which.
//!
//! The returned program is identical at every thread count: batches of combos are
//! popped on a deterministic schedule, evaluated concurrently, and merged in pop
//! order with strict-improvement ties (cost, then enumeration index).

use crate::budget::{Budget, BudgetBreach, BudgetExhausted, BudgetResource};
use crate::cache::ColumnEvalCache;
use crate::column::learn_column_automata;
use crate::dfa::{DfaLimits, WordStream};
use crate::predicate::{learn_predicate_on, learn_predicate_reference, Layout};
use crate::universe::UniverseConfig;
use mitra_dsl::ast::{ColumnExtractor, Predicate, Program, TableExtractor};
use mitra_dsl::cost::{cost, Cost};
use mitra_dsl::eval::{eval_program_with, EvalLimits};
use mitra_dsl::{Table, Value};
use mitra_hdt::{Hdt, NodeId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Maximum candidate table extractors (combinations) examined.  The
    /// exhaustive referee derives its per-column word cap from it (see
    /// [`learn_transformation_exhaustive`]).
    pub max_table_candidates: usize,
    /// Predicate-universe knobs.
    pub universe: UniverseConfig,
    /// Maximum intermediate-table size per example.
    pub max_intermediate_rows: usize,
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
            max_table_candidates: 128,
            universe: UniverseConfig::default(),
            max_intermediate_rows: 50_000,
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
    /// Number of candidate programs that satisfied all examples.
    pub programs_found: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// True when any column's DFA *construction* hit a configured limit: the
    /// search space was under-explored and "no better program" claims must be
    /// read accordingly.  (Words stream from the automata on demand, so
    /// enumeration itself never truncates.)
    pub truncated: bool,
    /// Per-phase wall times and candidate counts; `profile.candidates_examined`
    /// is the number of candidate table extractors examined.
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

/// What predicate learning plus validation made of each intermediate table one
/// `learn_transformation` call examined, keyed by the table's *extension*: the
/// node lists `[[π_i]]T_e` of its columns on every example `e` (outer) and column
/// `i` (inner).  `Some(φ)` when `Program(ψ, φ)` validated; `None` when no
/// predicate was found or validation rejected the program.  Both read ψ only
/// through those lists (DESIGN.md §8), so a candidate with a recorded extension
/// takes the recorded outcome and only builds and costs its own program.  One
/// entry per examined candidate at most; workers racing on one extension both
/// compute the same value.
type OutcomeMemo = Mutex<HashMap<Vec<Arc<Vec<NodeId>>>, Option<Predicate>>>;

/// The atom floor `L`: a lower bound on the atom count of every program consistent
/// with `examples`, read off the example outputs alone (proof in DESIGN.md §8).
///
/// Column `i` is *required* when, in some example, the output's distinct rows are
/// not the product of its distinct column-`i` values and its distinct rows of the
/// other columns, with rows keyed by [`Value::render`] as [`Table::same_bag`] keys
/// them.  A predicate that reads no component `i` keeps every column-`i` node beside
/// each rest-of-tuple it accepts, so its distinct rows are such a product: every
/// required column is read by some atom, and an atom reads at most two columns.
fn atom_floor(examples: &[Example]) -> usize {
    let mut required = vec![false; examples[0].output.arity()];
    for ex in examples {
        let rows: Vec<Vec<String>> = ex
            .output
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        let distinct: HashSet<&[String]> = rows.iter().map(Vec::as_slice).collect();
        for (col, req) in required.iter_mut().enumerate().filter(|(_, req)| !**req) {
            let values: HashSet<&str> = rows.iter().map(|r| r[col].as_str()).collect();
            let rest: HashSet<(&[String], &[String])> =
                rows.iter().map(|r| (&r[..col], &r[col + 1..])).collect();
            // Distinct rows are always a subset of this product.
            *req = values.len().checked_mul(rest.len()) != Some(distinct.len());
        }
        if required.iter().all(|&req| req) {
            break;
        }
    }
    required.iter().filter(|&&req| req).count().div_ceil(2)
}

/// Evaluates one candidate table extractor: cheap incremental pruning first (row
/// coverage, the layout's product cap, the admissible cost floor), then learn a
/// predicate on that layout, build the program, and validate it against every
/// example (Theorem 3 soundness check).  Learning and validation run once per
/// distinct extension: a candidate whose column node lists an earlier one of this
/// call already had reuses that one's predicate or rejection from `memo` (counted
/// as `synth.candidates.reused`), after the same cheap rejections and prune, so
/// the `Pruned` and `Rejected` counts do not change.
///
/// Validation's row cap is the one the layout already enforced on the same trees
/// and extractor, so a candidate that reached validation can never fail on
/// resources — `Err` there (impossible by that invariant) conservatively rejects
/// the candidate rather than panicking.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidate(
    examples: &[Example],
    combo: &[ColumnExtractor],
    combo_size: usize,
    atom_floor: usize,
    incumbent: Option<Cost>,
    config: &SynthConfig,
    cache: &ColumnEvalCache,
    memo: &OutcomeMemo,
    predicate_nanos: &AtomicU64,
    validate_nanos: &AtomicU64,
) -> CandidateOutcome {
    // A combo dies the moment one column's node values can no longer cover the
    // example rows: no layout, no universe.
    for (ex_idx, ex) in examples.iter().enumerate() {
        for (col, pi) in combo.iter().enumerate() {
            if !cache.row_coverage(ex_idx, &ex.tree, pi, &ex.output).covers[col] {
                return CandidateOutcome::Rejected;
            }
        }
    }

    // The intermediate table's layout rejects an oversized product.  The
    // admissible atom bound is the call's atom floor, raised to one when an
    // intermediate table bigger or smaller than the output needs a predicate atom
    // to filter or fail.
    let Some(layout) = Layout::new(examples, combo, config.max_intermediate_rows, cache) else {
        return CandidateOutcome::Rejected;
    };
    let mut atoms_lower_bound = atom_floor;
    for (ex_idx, ex) in examples.iter().enumerate() {
        if layout.block_len(ex_idx) != ex.output.rows.len() {
            atoms_lower_bound = atoms_lower_bound.max(1);
        }
    }
    if let Some(incumbent) = incumbent {
        // Any program this combo can produce costs at least the bound, and on an
        // exact tie the earlier-popped incumbent wins — so `<=` prunes.
        if incumbent <= Cost::lower_bound(atoms_lower_bound, combo_size) {
            return CandidateOutcome::Pruned;
        }
    }

    let psi = TableExtractor::new(combo.to_vec());
    let recorded = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(layout.extension())
        .cloned();
    let phi = if let Some(phi) = recorded {
        mitra_trace::counter_add!("synth.candidates.reused", 1);
        phi
    } else {
        let phi = {
            let _span = mitra_trace::span_acc("synth", "predicate_learn", predicate_nanos);
            learn_predicate_on(&layout, config)
        };
        let limits = EvalLimits::with_max_rows(config.max_intermediate_rows);
        let phi = phi.and_then(|phi| {
            let _span = mitra_trace::span_acc("synth", "validate", validate_nanos);
            let program = Program::new(psi.clone(), phi);
            let valid = examples.iter().all(|ex| {
                eval_program_with(&ex.tree, &program, &limits)
                    .map(|t| t.same_bag(&ex.output))
                    .unwrap_or(false)
            });
            valid.then_some(program.predicate)
        });
        memo.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(layout.extension().to_vec(), phi.clone());
        phi
    };
    let Some(phi) = phi else {
        return CandidateOutcome::Rejected;
    };
    let mut program = Program::new(psi, phi);
    program.column_names = examples[0].output.columns.clone();
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
/// from the combo, which makes `(L, key, 0)` an admissible θ lower bound for the
/// call's atom floor `L`.
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
/// been popped, when the frontier empties, or when the budget or the deadline
/// runs out; each call that reaches the search adds one to the matching
/// `synth.search.stop.*` counter.  The proof uses the atom floor `L`, computed
/// once per call from the example outputs (DESIGN.md §8): every valid program has
/// at least `L` atoms, so once the incumbent has `L` atoms the search stops as
/// soon as the frontier's keys pass its extractor size.
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

    let cache = ColumnEvalCache::new(examples.len());
    let memo = OutcomeMemo::default();
    let predicate_nanos = AtomicU64::new(0);
    let validate_nanos = AtomicU64::new(0);
    let atom_floor = atom_floor(examples);

    // The frontier: combos keyed by (Σ sizes, index vector).  Every index vector is
    // generated exactly once — combo `v` is pushed only by its canonical
    // predecessor `v - e_p` where `p` is `v`'s last nonzero position — and keys are
    // monotone along successor edges because per-column sizes are nondecreasing, so
    // pops happen in true (cost bound, enumeration index) order.
    let mut heap: BinaryHeap<Reverse<(usize, Vec<usize>)>> = BinaryHeap::new();
    let seed = vec![0usize; arity];
    heap.push(Reverse((combo_key(&streams, &seed), seed)));

    let mut best: Option<(Program, Cost)> = None;
    let mut examined = 0usize;
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
    // Why the loop ended; the cap unless a `break` below says otherwise.
    let mut stop = "synth.search.stop.cap";

    while popped_total < config.max_table_candidates {
        // Candidate fuel pays per frontier pop; the check (and the batch clamp
        // below) depend only on the pop count, never on elapsed time.
        if let Err(breach) = config
            .budget
            .check(BudgetResource::Candidates, popped_total as u64)
        {
            budget_breach = Some(breach);
            stop = "synth.search.stop.budget";
            break;
        }
        mitra_trace::hist_observe!("synth.frontier_depth", heap.len() as u64);
        // Provably-minimal stop (DESIGN.md §8): every unexplored combo — frontier
        // entry or descendant thereof — has Σ sizes ≥ the frontier's minimum key,
        // and every valid program has at least `atom_floor` atoms, hence program
        // cost ≥ (atom_floor, min_key, 0).  An incumbent at or below that bound
        // cannot be beaten, and on ties the incumbent's earlier enumeration index
        // wins.
        let Some(Reverse((min_key, _))) = heap.peek() else {
            stop = "synth.search.stop.frontier";
            break;
        };
        if let Some((_, best_cost)) = &best {
            if *best_cost <= Cost::lower_bound(atom_floor, *min_key) {
                stop = "synth.search.stop.proof";
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
            stop = "synth.search.stop.frontier";
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
        let incumbent = best.as_ref().map(|(_, c)| *c);
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
                atom_floor,
                incumbent,
                config,
                &cache,
                &memo,
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
                    examined += 1;
                    panicked += 1;
                }
                Ok(CandidateOutcome::DeadlineSkipped) => timed_out = true,
                Ok(CandidateOutcome::Pruned) => pruned += 1,
                Ok(CandidateOutcome::Rejected) => examined += 1,
                Ok(CandidateOutcome::Valid(program, c)) => {
                    examined += 1;
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
            stop = "synth.search.stop.deadline";
            break;
        }
        batch_size = (batch_size * 2).min(16);
    }

    mitra_trace::counter(stop).add(1);
    mitra_trace::counter_add!("synth.candidates.examined", examined as u64);
    mitra_trace::counter_add!("synth.candidates.pruned", pruned as u64);
    let profile = SynthProfile {
        dfa_build: automata.build,
        dfa_intersect: automata.intersect,
        dfa_enumerate: Duration::from_nanos(enumerate_nanos.load(Relaxed)),
        predicate_learn: Duration::from_nanos(predicate_nanos.load(Relaxed)),
        validate: Duration::from_nanos(validate_nanos.load(Relaxed)),
        candidates_examined: examined,
        candidates_pruned: pruned,
    };
    match best {
        Some((program, c)) => Ok(Synthesis {
            program,
            cost: c,
            programs_found,
            elapsed: start.elapsed(),
            truncated,
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

/// The referee of the best-first search, kept as the oracle for the differential
/// suite (`tests/search_equivalence.rs`) and the fuzz harness: every combination
/// evaluated in (Σ sizes, index vector) order with the reference predicate
/// learner, with no outcome reuse, no pruning and no early stop.  When the
/// combination cap does not bind, the best-first search must return a
/// byte-identical program and cost.
///
/// Each column streams at most `max_table_candidates` words from the automata of
/// [`learn_column_automata`], as the search does.  That per-column cap is exact: a
/// combo holding word `k` in some column comes after the `k` combos that hold
/// words `0..k` there instead, so none of the first `max_table_candidates` combos
/// holds a later word.
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

    let automata = learn_column_automata(examples, arity, config.dfa_limits, threads, None);
    let mut truncated = false;
    let mut per_column: Vec<Vec<ColumnExtractor>> = Vec::with_capacity(arity);
    for (col, dfa) in automata.dfas.iter().enumerate() {
        let Some(dfa) = dfa else {
            return Err(SynthError::NoColumnExtractor(col));
        };
        let mut stream = dfa.stream(config.dfa_limits.max_word_len);
        // At least one word, so that a column without extractors still fails as
        // one under a zero cap.
        let words: Vec<ColumnExtractor> = std::iter::from_fn(|| stream.next_word())
            .take(config.max_table_candidates.max(1))
            .map(|word| ColumnExtractor::from_steps(&word))
            .collect();
        if words.is_empty() {
            return Err(SynthError::NoColumnExtractor(col));
        }
        truncated |= dfa.truncated;
        per_column.push(words);
    }

    let combos = ordered_combinations(&per_column, config.max_table_candidates);
    let cache = ColumnEvalCache::new(examples.len());
    let limits = EvalLimits::with_max_rows(config.max_intermediate_rows);

    let mut best: Option<(Program, Cost)> = None;
    let mut examined = 0usize;
    let mut programs_found = 0usize;
    let mut timed_out = false;
    let mut budget_breach: Option<BudgetBreach> = None;
    for combo in &combos {
        // The reference path spends candidate fuel per combo examined, matching
        // the best-first frontier's pay-per-pop accounting.
        if let Err(breach) = config
            .budget
            .check(BudgetResource::Candidates, examined as u64)
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
        examined += 1;
        let psi = TableExtractor::new(combo.clone());
        let Some(phi) = learn_predicate_reference(examples, &psi, config, &cache) else {
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
        candidates_examined: examined,
        ..Default::default()
    };
    match best {
        Some((program, c)) => Ok(Synthesis {
            program,
            cost: c,
            programs_found,
            elapsed: start.elapsed(),
            truncated,
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

/// The first `max` combinations (one candidate per column) in (Σ sizes, index
/// vector) order, the order in which the best-first search pops them.
///
/// Each column's extension is cut to its first `max` prefixes in that order.
/// The cut is exact: putting an earlier prefix in place of a combo's prefix gives
/// an earlier combo, so a prefix with `max` prefixes before it starts no combo
/// among the first `max`.
pub(crate) fn ordered_combinations(
    per_column: &[Vec<ColumnExtractor>],
    max: usize,
) -> Vec<Vec<ColumnExtractor>> {
    let key = |idxs: &Vec<usize>| {
        let size = idxs.iter().enumerate().fold(0usize, |acc, (col, &i)| {
            acc.saturating_add(per_column[col][i].size())
        });
        (size, idxs.clone())
    };
    let mut combos: Vec<Vec<usize>> = vec![vec![]];
    for cands in per_column {
        combos = combos
            .iter()
            .flat_map(|combo| {
                (0..cands.len()).map(move |i| {
                    let mut c = combo.clone();
                    c.push(i);
                    c
                })
            })
            .collect();
        combos.sort_by_cached_key(key);
        combos.truncate(max);
    }
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

    /// A `children` chain of `size` steps over `tag`.
    fn chain_of(tag: &str, size: usize) -> ColumnExtractor {
        (0..size).fold(ColumnExtractor::Input, |pi, _| {
            ColumnExtractor::children(pi, tag)
        })
    }

    #[test]
    fn trimmed_combinations_are_the_first_of_the_full_order() {
        // Per-column word sizes, shortest first as the streams produce them; each
        // word has its own tag.  Prefix (1, 0) is shorter than (0, 1) but
        // lexicographically later, and the last column brings both to Σ sizes 4
        // as (1, 0, 1) and (0, 1, 0): a cut that kept prefixes in size order
        // alone would put (1, 0, 1) first.
        let sizes: [&[usize]; 3] = [&[1, 1, 2, 2, 2, 3], &[1, 2, 2, 2, 2, 3], &[1, 2]];
        let per_column: Vec<Vec<ColumnExtractor>> = (0..3)
            .map(|col| {
                let word = |(i, &size): (usize, &usize)| chain_of(&format!("c{col}w{i}"), size);
                sizes[col].iter().enumerate().map(word).collect()
            })
            .collect();
        // Every index vector in lexicographic order, then stably by Σ sizes: the
        // (Σ sizes, index vector) order of the best-first frontier.
        let mut all: Vec<Vec<ColumnExtractor>> = Vec::new();
        for a in &per_column[0] {
            for b in &per_column[1] {
                for c in &per_column[2] {
                    all.push(vec![a.clone(), b.clone(), c.clone()]);
                }
            }
        }
        all.sort_by_key(|combo| combo.iter().map(ColumnExtractor::size).sum::<usize>());
        for max in 1..=all.len() + 1 {
            let combos = ordered_combinations(&per_column, max);
            assert_eq!(combos, all[..max.min(all.len())], "max {max}");
        }
    }

    #[test]
    fn best_first_matches_exhaustive_on_motivating_example() {
        let ex = social_example(3, 1);
        // The referee sweeps the first 2,000 of the 4,018 combos (7 × 7 × 82
        // words), which hold the θ-minimal program: the best-first search proves
        // it minimal after one pop, and both must return it byte for byte.
        let config = SynthConfig {
            timeout: None,
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
    fn a_zero_cap_finds_no_program_in_either_search() {
        // Every column has extractors, so neither search may report a column
        // without one.
        let ex = social_example(2, 1);
        let config = SynthConfig {
            timeout: None,
            max_table_candidates: 0,
            threads: 1,
            ..Default::default()
        };
        let examples = std::slice::from_ref(&ex);
        let fast = learn_transformation(examples, &config).unwrap_err();
        let slow = learn_transformation_exhaustive(examples, &config).unwrap_err();
        assert_eq!((fast, slow), (SynthError::NoProgram, SynthError::NoProgram));
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
        let total_pops = free.profile.candidates_examined + free.profile.candidates_pruned;
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
                    assert_eq!(a.profile.candidates_examined, b.profile.candidates_examined);
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

    /// An example whose output alone matters: `atom_floor` never reads the tree.
    fn output_example(columns: &[&str], rows: &[&[&str]]) -> Example {
        Example::new(social_network(2, 1), Table::from_rows(columns, rows))
    }

    #[test]
    fn atom_floor_of_one_column_is_zero() {
        let ex = output_example(&["name"], &[&["x"], &["y"], &["x"]]);
        assert_eq!(atom_floor(&[ex]), 0);
    }

    #[test]
    fn atom_floor_of_the_motivating_example_is_two() {
        // All three columns are required, and two atoms can read three columns.
        assert_eq!(atom_floor(&[social_example(3, 1)]), 2);
    }

    /// Column 0 pairs each of its values with every row of columns 1–2, which
    /// vary together.
    fn column0_free() -> Example {
        output_example(
            &["a", "b", "c"],
            &[
                &["1", "x", "p"],
                &["2", "x", "p"],
                &["1", "y", "q"],
                &["2", "y", "q"],
            ],
        )
    }

    /// Column 2 pairs every value with every row of columns 0–1.
    fn column2_free() -> Example {
        output_example(
            &["a", "b", "c"],
            &[
                &["1", "x", "p"],
                &["2", "y", "p"],
                &["1", "x", "q"],
                &["2", "y", "q"],
            ],
        )
    }

    #[test]
    fn atom_floor_skips_a_column_closed_under_swapping_its_values() {
        // Columns 1 and 2 are required, column 0 is not: ⌈2/2⌉ = 1.
        assert_eq!(atom_floor(&[column0_free()]), 1);
    }

    #[test]
    fn atom_floor_of_an_empty_output_is_zero() {
        assert_eq!(atom_floor(&[output_example(&["a", "b", "c"], &[])]), 0);
    }

    #[test]
    fn atom_floor_unions_the_required_columns_of_every_example() {
        // {1, 2} ∪ {0, 1} = all three columns: ⌈3/2⌉ = 2.
        assert_eq!(atom_floor(&[column2_free()]), 1);
        assert_eq!(atom_floor(&[column0_free(), column2_free()]), 2);
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
            result.profile.candidates_examined + result.profile.candidates_pruned < 10_000,
            "search did not terminate early: {} examined, {} pruned",
            result.profile.candidates_examined,
            result.profile.candidates_pruned
        );
    }
}
