//! Observability must be free of observer effects.
//!
//! The trace layer records spans and metrics into process-global state, so these
//! tests drive two end-to-end properties through the facade:
//!
//! * **determinism** — synthesis returns byte-identical programs and costs with
//!   tracing fully on (`full`) and fully off, at 1 and at 4 worker threads.  The
//!   instrumentation may cost time but must never change results;
//! * **export round-trip** — the Chrome trace-event document produced from a real
//!   migration run is valid JSON with balanced B/E span pairs and per-thread
//!   monotone timestamps, i.e. something Perfetto will actually load;
//! * **search stops** — each synthesis call that reaches the best-first search adds
//!   one to exactly one `synth.search.stop.*` counter;
//! * **outcome reuse** — `synth.candidates.reused` counts the examined candidates
//!   that took an earlier candidate's predicate-learning outcome;
//! * **cover reuse** — `synth.cover.reused` counts the cover instances predicate
//!   learning answered from its memo, which the reference path never consults;
//! * **cover reductions** — `synth.cover.sets_dropped` and
//!   `synth.cover.elements_dropped` count the twin sets and implied elements
//!   `solve_exact` removes before its search.
//!
//! The trace mode is a process-global `AtomicU8`, so every test that flips it
//! holds `MODE_LOCK` and restores the summary default before releasing it.

use mitra::datagen::generate_corpus;
use mitra::dsl::ast::{ColumnExtractor, TableExtractor};
use mitra::dsl::{pretty, Table, Value};
use mitra::hdt::generate::{social_network, social_network_rows};
use mitra::hdt::{Hdt, JsonValue};
use mitra::synth::budget::Budget;
use mitra::synth::cover::{solve_exact, CoverInstance, MAX_COVER_NODES};
use mitra::synth::synthesize::{learn_transformation, Example, SynthConfig};
use mitra::synth::{learn_predicate, learn_predicate_reference, ColumnEvalCache};
use mitra::trace::{self, export, Phase, TraceMode};
use std::sync::Mutex;

/// Serializes tests that flip the process-global trace mode.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn config(threads: usize) -> SynthConfig {
    SynthConfig {
        timeout: None,
        max_table_candidates: 16,
        threads,
        ..Default::default()
    }
}

/// The motivating example as a synthesis task (tree + expected output table).
fn motivating_example() -> Example {
    let tree = social_network(3, 1);
    let rows = social_network_rows(3, 1);
    let mut output = Table::new(vec![
        "Person".to_string(),
        "Friend-with".to_string(),
        "years".to_string(),
    ]);
    for r in rows {
        output.push(r.iter().map(|s| Value::from_data(s)).collect());
    }
    Example::new(tree, output)
}

#[test]
fn trace_mode_never_changes_synthesis_results() {
    let _guard = MODE_LOCK.lock().unwrap();
    let example = motivating_example();
    let examples = std::slice::from_ref(&example);

    let mut baselines: Vec<(usize, String, String)> = Vec::new();
    for threads in [1usize, 4] {
        trace::set_mode(TraceMode::Off);
        let off = learn_transformation(examples, &config(threads)).expect("synthesis (off)");
        trace::set_mode(TraceMode::Full);
        trace::clear_events();
        let full = learn_transformation(examples, &config(threads)).expect("synthesis (full)");
        let events = trace::take_events();
        trace::set_mode(TraceMode::Summary);

        assert_eq!(
            pretty::program(&off.program),
            pretty::program(&full.program),
            "tracing changed the synthesized program at {threads} threads"
        );
        assert_eq!(off.cost, full.cost);
        assert_eq!(
            off.profile.candidates_examined,
            full.profile.candidates_examined
        );
        assert_eq!(off.programs_found, full.programs_found);
        // Full mode actually recorded the search; off mode stays silent by design.
        assert!(
            events.iter().any(|e| e.name == "learn_transformation"),
            "full mode recorded no learn_transformation span"
        );
        baselines.push((
            threads,
            pretty::program(&off.program),
            format!("{:?}", off.cost),
        ));
    }
    // And the thread counts agree with each other, traced or not.
    assert_eq!(baselines[0].1, baselines[1].1);
    assert_eq!(baselines[0].2, baselines[1].2);
}

#[test]
fn chrome_trace_export_round_trips_through_the_json_parser() {
    let _guard = MODE_LOCK.lock().unwrap();
    trace::set_mode(TraceMode::Full);
    trace::clear_events();
    let example = motivating_example();
    learn_transformation(std::slice::from_ref(&example), &config(4)).expect("synthesis");
    let events = trace::take_events();
    trace::set_mode(TraceMode::Summary);
    assert!(!events.is_empty(), "full mode produced no events");

    let doc = export::chrome_trace(&events);
    // Valid JSON: the exporter's output must parse with the repo's own parser.
    let parsed = mitra::hdt::parse_json(&doc).expect("chrome trace is valid JSON");
    let JsonValue::Object(fields) = &parsed else {
        panic!("chrome trace root is not an object");
    };
    let trace_events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents field");
    let JsonValue::Array(items) = trace_events else {
        panic!("traceEvents is not an array");
    };
    assert!(!items.is_empty());

    // Balanced B/E and monotone timestamps, checked per thread lane straight on
    // the event buffer the document was generated from.
    let mut stacks: std::collections::HashMap<u32, Vec<&'static str>> = Default::default();
    let mut last_ts: std::collections::HashMap<u32, u64> = Default::default();
    for e in &events {
        let prev = last_ts.entry(e.tid).or_insert(0);
        assert!(
            e.ts_ns >= *prev,
            "timestamps regressed on tid {}: {} after {}",
            e.tid,
            e.ts_ns,
            prev
        );
        *prev = e.ts_ns;
        match e.phase {
            Phase::Begin => stacks.entry(e.tid).or_default().push(e.name),
            Phase::End => {
                let open = stacks.entry(e.tid).or_default().pop();
                assert_eq!(open, Some(e.name), "unbalanced span end on tid {}", e.tid);
            }
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    // The serialized document mirrors the buffer: every non-metadata JSON event
    // carries the Chrome phase letters and microsecond timestamps.
    let span_items = items
        .iter()
        .filter_map(|item| {
            let JsonValue::Object(ev) = item else {
                return None;
            };
            let get = |k: &str| ev.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            match get("ph") {
                Some(JsonValue::String(ph)) if ph == "B" || ph == "E" => Some(()),
                _ => None,
            }
        })
        .count();
    let buffer_spans = events
        .iter()
        .filter(|e| matches!(e.phase, Phase::Begin | Phase::End))
        .count();
    assert_eq!(span_items, buffer_spans);
}

/// The ways a best-first search can end, one counter each.
const STOPS: [&str; 5] = [
    "synth.search.stop.proof",
    "synth.search.stop.frontier",
    "synth.search.stop.cap",
    "synth.search.stop.budget",
    "synth.search.stop.deadline",
];

/// The `STOPS` counters one synthesis call adds, in `STOPS` order.
fn stops_added_by(examples: &[Example], config: &SynthConfig) -> [u64; 5] {
    let before = trace::snapshot();
    let _ = learn_transformation(examples, config);
    let delta = trace::snapshot().delta(&before);
    STOPS.map(|name| delta.counter(name))
}

#[test]
fn every_search_counts_how_it_stopped() {
    // The registry is process-global: hold the lock so that no other test in
    // this binary synthesizes between the two snapshots.
    let _guard = MODE_LOCK.lock().unwrap();
    trace::set_mode(TraceMode::Summary);
    let example = motivating_example();
    let examples = std::slice::from_ref(&example);

    // The first popped program has the atom floor's two atoms: a stop by proof.
    assert_eq!(stops_added_by(examples, &config(1)), [1, 0, 0, 0, 0]);
    let no_candidates = SynthConfig {
        budget: Budget {
            max_candidates: Some(0),
            ..Budget::UNLIMITED
        },
        ..config(1)
    };
    assert_eq!(stops_added_by(examples, &no_candidates), [0, 0, 0, 1, 0]);
    // A column without extractors fails before the search starts.
    let unsatisfiable = Example::new(
        social_network(2, 1),
        Table::from_rows(&["x"], &[&["not-in-the-tree"]]),
    );
    assert_eq!(stops_added_by(&[unsatisfiable], &config(1)), [0; 5]);
}

/// `synth.candidates.reused` and the examined-candidate count of one synthesis
/// call at one thread with the default configuration and no deadline.
fn reused_and_examined(examples: &[Example]) -> (u64, usize) {
    let config = SynthConfig {
        timeout: None,
        threads: 1,
        ..Default::default()
    };
    let before = trace::snapshot();
    let s = learn_transformation(examples, &config).expect("synthesis");
    let delta = trace::snapshot().delta(&before);
    (
        delta.counter("synth.candidates.reused"),
        s.profile.candidates_examined,
    )
}

#[test]
fn candidates_with_an_examined_extension_reuse_its_outcome() {
    let _guard = MODE_LOCK.lock().unwrap();
    trace::set_mode(TraceMode::Summary);
    // A four-column Table 1 task pops to the cap, and every examined candidate
    // after the first selects the first one's nodes.
    let task = generate_corpus()
        .into_iter()
        .find(|t| t.name == "flat-4col-29")
        .expect("corpus task");
    let examples = std::slice::from_ref(&task.example);
    assert_eq!(reused_and_examined(examples), (127, 128));
    // The motivating example stops by proof after one pop: nothing to reuse.
    let example = motivating_example();
    let examples = std::slice::from_ref(&example);
    assert_eq!(reused_and_examined(examples), (0, 1));
}

#[test]
fn equal_cover_instances_are_solved_once_per_call() {
    let _guard = MODE_LOCK.lock().unwrap();
    trace::set_mode(TraceMode::Summary);
    // Two same-shaped subtrees: the candidates reading the (k, v) pairs of one or
    // of the other select different nodes but build byte-equal cover instances.
    let mut tree = Hdt::with_root("root");
    for side in ["A", "B"] {
        let subtree = tree.add_child(tree.root(), side, None);
        for (k, v) in [("1", "x"), ("2", "y")] {
            let item = tree.add_child(subtree, "item", None);
            tree.add_child(item, "k", Some(k.to_string()));
            tree.add_child(item, "v", Some(v.to_string()));
        }
    }
    let output = Table::from_rows(&["k", "v"], &[&["1", "x"], &["2", "y"]]);
    let example = Example::new(tree, output);
    let examples = std::slice::from_ref(&example);
    let psi = |side: &str| {
        let items = ColumnExtractor::children(
            ColumnExtractor::children(ColumnExtractor::Input, side),
            "item",
        );
        TableExtractor::new(vec![
            ColumnExtractor::pchildren(items.clone(), "k", 0),
            ColumnExtractor::pchildren(items, "v", 0),
        ])
    };
    let config = config(1);
    let reused = |learn: &dyn Fn(&TableExtractor, &ColumnEvalCache) -> bool| {
        let cache = ColumnEvalCache::new(1);
        let before = trace::snapshot();
        assert!(learn(&psi("A"), &cache) && learn(&psi("B"), &cache));
        trace::snapshot()
            .delta(&before)
            .counter("synth.cover.reused")
    };
    let fast = reused(&|psi, cache| learn_predicate(examples, psi, &config, cache).is_some());
    let reference =
        reused(&|psi, cache| learn_predicate_reference(examples, psi, &config, cache).is_some());
    assert_eq!((fast, reference), (1, 0));
}

#[test]
fn cover_reductions_count_twin_sets_and_implied_elements() {
    let _guard = MODE_LOCK.lock().unwrap();
    trace::set_mode(TraceMode::Summary);
    // Set 2 repeats set 0's row at the same weight, a twin.  Element 1's
    // coverers include element 2's, so element 1 is implied.
    let instance = CoverInstance::from_matrix(&[
        vec![true, true, false],
        vec![false, true, true],
        vec![true, true, false],
    ]);
    let before = trace::snapshot();
    assert_eq!(solve_exact(&instance, MAX_COVER_NODES), Some(vec![0, 1]));
    let delta = trace::snapshot().delta(&before);
    assert_eq!(
        (
            delta.counter("synth.cover.sets_dropped"),
            delta.counter("synth.cover.elements_dropped")
        ),
        (1, 1)
    );
}
