//! Learning column extraction programs (Algorithm 2, `LearnColExtractors`).
//!
//! For each input–output example we build the DFA of Figure 9 and intersect them; the
//! words accepted by the resulting automaton are exactly the column extractors
//! consistent with every example.  The top-level synthesizer streams the accepted
//! words shortest-first ([`Dfa::stream`]), so the simplest candidates come first.
//!
//! The states and transitions of an example's automata depend on its tree only, so
//! each example's state graph is explored once and shared by the automata of all its
//! columns, which differ in their accepting states alone.

use crate::budget::{Budget, BudgetBreach, BudgetResource};
use crate::dfa::{Dfa, DfaLimits, StateGraph};
use crate::synthesize::Example;
use mitra_dsl::Value;

/// Per-column product automata plus phase timings for [`learn_column_automata`].
#[derive(Debug)]
pub struct ColumnAutomata {
    /// The intersected automaton of each column (`None` when there are no
    /// examples, i.e. nothing to intersect — or when a state budget breached
    /// before the column's product was completed).
    pub dfas: Vec<Option<Dfa>>,
    /// CPU time spent building each example's state graph and deriving its
    /// per-column automata from it, summed across workers.
    pub build: std::time::Duration,
    /// Wall time spent intersecting automata (sequential, in example order).
    pub intersect: std::time::Duration,
    /// DFA states charged as fuel: each per-(column, example) automaton's states
    /// (its graph's, charged once per column the graph serves) in canonical pair
    /// order, then each intersection product's states in column-major order —
    /// identical at every thread count.
    pub states_total: u64,
    /// Set when a state budget ran out; `dfas` is then partial and must not be
    /// used for synthesis.
    pub breach: Option<BudgetBreach>,
}

/// Builds the intersected column automaton for **every** output column `0..arity`
/// on up to `threads` pool workers.
///
/// Rules 1–4 of Figure 9 read only the example tree, so each example's state graph
/// is explored once (the examples fan out), and every (column, example) automaton
/// is derived from its example's graph by computing acceptance alone (the pairs fan
/// out).  The per-column product automata are then intersected **in example
/// order**, so the resulting automata (and the words streamed from them) are
/// byte-identical to the sequential path regardless of scheduling.
///
/// `max_states` is an optional deterministic state budget.  State fuel is spent in
/// canonical order — every per-(column, example) automaton's states first (pair
/// order, regardless of which worker built it, so a graph serving several columns
/// is charged once per column), then each sequential intersection product's states
/// — so the breach point is a pure function of the inputs, never of the thread
/// count.  On a breach the per-example automata are still all built (their
/// construction fans out before accounting), but intersection stops and the result
/// carries `breach: Some(..)` with every remaining column `None`.
///
/// Adds the graphs built, their states and the automata derived from them to the
/// `synth.dfa.{graphs,graph_states,column_automata}` counters.
pub fn learn_column_automata(
    examples: &[Example],
    arity: usize,
    limits: DfaLimits,
    threads: usize,
    max_states: Option<u64>,
) -> ColumnAutomata {
    // Workers share the example trees read-only: make sure no two of them race to
    // lazily build the same navigation index.
    for ex in examples {
        ex.tree.ensure_index();
    }
    let budget = Budget {
        max_dfa_states: max_states,
        ..Budget::UNLIMITED
    };
    // Both spans feed `build_nanos` on drop: summed across workers this is the
    // CPU-time view the `SynthProfile` reports.
    let build_nanos = std::sync::atomic::AtomicU64::new(0);
    let graphs: Vec<StateGraph> = mitra_pool::parallel_map(threads, examples, |_, ex| {
        let _span = mitra_trace::span_acc("synth", "dfa_build", &build_nanos);
        StateGraph::build(&ex.tree, limits)
    });
    let pairs: Vec<(usize, usize)> = (0..arity)
        .flat_map(|col| (0..examples.len()).map(move |ex| (col, ex)))
        .collect();
    let dfas: Vec<Dfa> = mitra_pool::parallel_map(threads, &pairs, |_, &(col, ex_idx)| {
        let _span = mitra_trace::span_acc("synth", "dfa_build", &build_nanos);
        let ex = &examples[ex_idx];
        let column: Vec<Value> = ex.output.column(col);
        graphs[ex_idx].with_column(&ex.tree, &column)
    });
    mitra_trace::counter_add!("synth.dfa.graphs", graphs.len() as u64);
    let graph_states: usize = graphs.iter().map(StateGraph::num_states).sum();
    mitra_trace::counter_add!("synth.dfa.graph_states", graph_states as u64);
    mitra_trace::counter_add!("synth.dfa.column_automata", dfas.len() as u64);

    // Charge construction fuel in canonical pair order, after the fan-out: every
    // automaton is built either way (that keeps the build phase schedule-free),
    // but the breach point is deterministic.
    let mut states_total: u64 = 0;
    let mut breach: Option<BudgetBreach> = None;
    for dfa in &dfas {
        states_total += dfa.num_states() as u64;
        if let Err(b) = budget.check(BudgetResource::DfaStates, states_total) {
            breach = Some(b);
            break;
        }
    }

    let intersect_nanos = std::sync::atomic::AtomicU64::new(0);
    let combined: Vec<Option<Dfa>> = {
        let _span = mitra_trace::span_acc("synth", "dfa_intersect", &intersect_nanos);
        let mut per_dfa = dfas.into_iter();
        (0..arity)
            .map(|_| {
                // Canonical merge: intersect this column's automata in example
                // order, charging each product's states as it is built and
                // bailing out of further intersection work once fuel runs out.
                let mut combined: Option<Dfa> = None;
                for _ in 0..examples.len() {
                    // `dfas` holds exactly one DFA per (column, example) pair, so
                    // the iterator cannot run dry; stop merging rather than panic
                    // if that invariant is ever broken.
                    let Some(dfa) = per_dfa.next() else { break };
                    if breach.is_some() {
                        continue;
                    }
                    combined = Some(match combined {
                        None => dfa,
                        Some(acc) => {
                            let product = acc.intersect(&dfa);
                            states_total += product.num_states() as u64;
                            if let Err(b) = budget.check(BudgetResource::DfaStates, states_total) {
                                breach = Some(b);
                            }
                            product
                        }
                    });
                }
                if breach.is_some() {
                    None
                } else {
                    combined
                }
            })
            .collect()
    };
    ColumnAutomata {
        dfas: combined,
        build: std::time::Duration::from_nanos(
            build_nanos.load(std::sync::atomic::Ordering::Relaxed),
        ),
        intersect: std::time::Duration::from_nanos(
            intersect_nanos.load(std::sync::atomic::Ordering::Relaxed),
        ),
        states_total,
        breach,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::ast::ColumnExtractor;
    use mitra_dsl::eval::{eval_column, node_value};
    use mitra_dsl::Table;
    use mitra_hdt::generate::social_network;

    /// The first 32 words of column `col`'s automaton, as extractors, built at
    /// `threads` workers.
    fn learn_column(examples: &[Example], col: usize, threads: usize) -> Vec<ColumnExtractor> {
        let limits = DfaLimits::default();
        let arity = examples[0].output.arity();
        let automata = learn_column_automata(examples, arity, limits, threads, None);
        let dfa = automata.dfas[col].as_ref().expect("examples to intersect");
        let mut stream = dfa.stream(limits.max_word_len);
        std::iter::from_fn(|| stream.next_word())
            .take(32)
            .map(|word| ColumnExtractor::from_steps(&word))
            .collect()
    }

    fn example() -> Example {
        Example {
            tree: social_network(2, 1),
            output: Table::from_rows(
                &["Person", "Friend-with", "years"],
                &[&["Alice", "Bob", "12"], &["Bob", "Alice", "21"]],
            ),
        }
    }

    #[test]
    fn learns_name_extractor_for_first_column() {
        let ex = example();
        let cands = learn_column(std::slice::from_ref(&ex), 0, 1);
        assert!(!cands.is_empty());
        // Every candidate must cover {Alice, Bob}.
        for pi in &cands {
            let nodes = eval_column(&ex.tree, pi);
            let vals: Vec<String> = nodes
                .iter()
                .map(|n| node_value(&ex.tree, *n).render())
                .collect();
            assert!(vals.contains(&"Alice".to_string()));
            assert!(vals.contains(&"Bob".to_string()));
        }
    }

    #[test]
    fn candidates_are_ordered_simplest_first() {
        let ex = example();
        let cands = learn_column(&[ex], 0, 1);
        for pair in cands.windows(2) {
            assert!(pair[0].size() <= pair[1].size());
        }
    }

    #[test]
    fn years_column_has_multiple_extractors() {
        // The paper notes four different extractors for the `years` column (π31..π34);
        // we only require that more than one exists (e.g. via years and via id).
        let ex = example();
        let cands = learn_column(&[ex], 2, 1);
        assert!(
            cands.len() > 1,
            "expected several candidates, got {cands:?}"
        );
    }

    #[test]
    fn impossible_column_yields_no_extractor() {
        let ex = Example {
            tree: social_network(2, 1),
            output: Table::from_rows(&["x"], &[&["value-not-in-tree"]]),
        };
        let cands = learn_column(&[ex], 0, 1);
        assert!(cands.is_empty());
    }

    #[test]
    fn multiple_examples_restrict_candidates() {
        let examples = two_examples();
        let one = learn_column(&examples[..1], 0, 1);
        let both = learn_column(&examples, 0, 1);
        assert!(!both.is_empty());
        assert!(both.len() <= one.len());
    }

    /// `example()` plus a three-person example of the same three columns.
    fn two_examples() -> [Example; 2] {
        let ex2 = Example {
            tree: social_network(3, 1),
            output: Table::from_rows(
                &["Person", "Friend-with", "years"],
                &[
                    &["Alice", "Bob", "12"],
                    &["Bob", "Carol", "23"],
                    &["Carol", "Alice", "31"],
                ],
            ),
        };
        [example(), ex2]
    }

    #[test]
    fn dfa_state_budget_breaches_at_the_same_point() {
        // Each example's automata have 22 and 29 states, and each column's
        // product 22: pair charges run 22, 51, 73, 102, 124, 153, then the
        // products 175, 197, 219.  A limit of 120 trips at the fifth pair, 190
        // at the second product.  Fuel charged once per graph instead of once
        // per column automaton would stay below both limits.
        let examples = two_examples();
        for (limit, spent) in [(120, 124), (190, 197)] {
            for threads in [1, 4] {
                let automata =
                    learn_column_automata(&examples, 3, DfaLimits::default(), threads, Some(limit));
                let expected = BudgetBreach {
                    resource: BudgetResource::DfaStates,
                    spent,
                    limit,
                };
                assert_eq!(
                    automata.breach,
                    Some(expected),
                    "limit {limit} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn column_words_are_identical_across_thread_counts() {
        let examples = two_examples();
        for col in 0..3 {
            assert_eq!(
                learn_column(&examples, col, 1),
                learn_column(&examples, col, 4),
                "column {col} diverged between thread counts"
            );
        }
    }
}
