//! Baseline synthesizer used by the ablation experiments (E7 in DESIGN.md).
//!
//! The paper's design rests on two choices: (1) column extractors are learned through a
//! DFA whose language is exactly the consistent programs, and (2) the minimum predicate
//! set is found exactly through a 0-1 ILP formulation.  To quantify what those choices
//! buy, this module provides a deliberately simpler synthesizer:
//!
//! * column extractors are found by *blind enumeration* of operator sequences (no DFA,
//!   no state sharing), checking each candidate against every example from scratch;
//! * the predicate is learned with the greedy cover heuristic instead of the exact
//!   solver.
//!
//! The result quality is comparable on easy tasks, but enumeration explores many more
//! candidates and degrades quickly as the alphabet (number of distinct tags) grows —
//! which is what the ablation benchmark measures.

use crate::cache::ColumnEvalCache;
use crate::dfa::{alphabet_of, apply_step, covers_column};
use crate::predicate::{learn_predicate, PredicateLearnConfig};
use crate::synthesize::{Example, SynthConfig, SynthError, Synthesis};
use mitra_dsl::ast::{ColumnExtractor, ExtractorStep, Program, TableExtractor};
use mitra_dsl::cost::cost;
use mitra_dsl::eval::{eval_program_with, EvalLimits};
use mitra_dsl::Value;
use std::time::Instant;

/// Statistics from blind column-extractor enumeration.
#[derive(Debug, Clone, Default)]
pub struct EnumerationStats {
    /// Number of candidate words (operator sequences) evaluated.
    pub candidates_evaluated: usize,
}

/// Enumerates column extractors for column `col` by breadth-first search over operator
/// sequences, without building a DFA.  Every candidate is evaluated against every
/// example tree from scratch.
pub fn enumerate_column_extractors_blind(
    examples: &[Example],
    col: usize,
    max_len: usize,
    max_candidates: usize,
    stats: &mut EnumerationStats,
) -> Vec<ColumnExtractor> {
    let mut results = Vec::new();
    // The alphabet is the union of the per-example alphabets.
    let mut alphabet: Vec<ExtractorStep> = Vec::new();
    for ex in examples {
        for letter in alphabet_of(&ex.tree) {
            if !alphabet.contains(&letter) {
                alphabet.push(letter);
            }
        }
    }
    let columns: Vec<Vec<Value>> = examples.iter().map(|ex| ex.output.column(col)).collect();

    let mut frontier: Vec<Vec<ExtractorStep>> = vec![Vec::new()];
    for _ in 0..=max_len {
        let mut next = Vec::new();
        for word in &frontier {
            stats.candidates_evaluated += 1;
            // Evaluate the word on every example (from scratch — no memoization).
            let mut consistent = true;
            let mut all_empty = false;
            for (ex, column) in examples.iter().zip(&columns) {
                let mut set = vec![ex.tree.root()];
                for step in word {
                    set = apply_step(&ex.tree, &set, step);
                    if set.is_empty() {
                        break;
                    }
                }
                if set.is_empty() {
                    all_empty = true;
                }
                if !covers_column(&ex.tree, &set, column) {
                    consistent = false;
                }
            }
            if consistent && !word.is_empty() {
                results.push(ColumnExtractor::from_steps(word));
                if results.len() >= max_candidates {
                    return results;
                }
            }
            if !all_empty && word.len() < max_len {
                for letter in &alphabet {
                    let mut w = word.clone();
                    w.push(*letter);
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    results
}

/// Baseline end-to-end synthesis: blind column enumeration + greedy predicate cover.
///
/// Returns the same [`Synthesis`] structure as the main algorithm so the two can be
/// compared directly; `candidates_tried` reports the number of *enumerated words*,
/// which is the quantity the ablation benchmark contrasts with the DFA approach.
pub fn learn_transformation_baseline(
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

    let mut stats = EnumerationStats::default();
    let mut per_column = Vec::with_capacity(arity);
    for col in 0..arity {
        let cands = enumerate_column_extractors_blind(
            examples,
            col,
            config.dfa_limits.max_word_len,
            config.max_column_candidates,
            &mut stats,
        );
        if cands.is_empty() {
            return Err(SynthError::NoColumnExtractor(col));
        }
        per_column.push(cands);
    }

    let pred_config = PredicateLearnConfig {
        universe: config.universe,
        max_intermediate_rows: config.max_intermediate_rows,
        exact_cover: false,
        ..Default::default()
    };

    // Try combinations in the order produced (no size-based ranking): first success wins.
    let mut best: Option<(Program, mitra_dsl::Cost)> = None;
    let mut combos = vec![Vec::new()];
    for cands in &per_column {
        let mut next = Vec::new();
        for combo in &combos {
            for pi in cands {
                let mut c: Vec<ColumnExtractor> = combo.clone();
                c.push(pi.clone());
                next.push(c);
            }
        }
        combos = next;
        if combos.len() > config.max_table_candidates * 4 {
            combos.truncate(config.max_table_candidates * 4);
        }
    }
    combos.truncate(config.max_table_candidates);

    let mut programs_found = 0;
    for combo in combos {
        if let Some(limit) = config.timeout {
            if start.elapsed() > limit {
                break;
            }
        }
        let psi = TableExtractor::new(combo);
        let cache = ColumnEvalCache::new(examples.len());
        let Some(phi) = learn_predicate(examples, &psi, &pred_config, &cache) else {
            continue;
        };
        let mut program = Program::new(psi, phi);
        program.column_names = examples[0].output.columns.clone();
        // Same validation cap as the predicate learner (see `learn_transformation`):
        // resource failures are impossible for candidates that got this far.
        let limits = EvalLimits::with_max_rows(config.max_intermediate_rows);
        if !examples.iter().all(|ex| {
            eval_program_with(&ex.tree, &program, &limits)
                .map(|t| t.same_bag(&ex.output))
                .unwrap_or(false)
        }) {
            continue;
        }
        programs_found += 1;
        let c = cost(&program);
        if best.as_ref().map(|(_, bc)| c < *bc).unwrap_or(true) {
            best = Some((program, c));
        }
        // Baseline stops at the first working program (no Occam's-razor sweep).
        break;
    }

    match best {
        Some((program, c)) => Ok(Synthesis {
            program,
            cost: c,
            candidates_tried: stats.candidates_evaluated,
            programs_found,
            elapsed: start.elapsed(),
            // The blind baseline does not track search-space truncation and always
            // runs sequentially (it exists for the E7 ablation only).
            truncated: false,
            threads_used: 1,
            profile: crate::synthesize::SynthProfile::default(),
            budget_breach: None,
        }),
        None => Err(SynthError::NoProgram),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::learn_transformation;
    use mitra_dsl::eval::eval_program;
    use mitra_dsl::Table;
    use mitra_hdt::generate::social_network;

    fn simple_example() -> Example {
        Example::new(
            social_network(2, 1),
            Table::from_rows(&["name"], &[&["Alice"], &["Bob"]]),
        )
    }

    #[test]
    fn blind_enumeration_finds_extractors() {
        let mut stats = EnumerationStats::default();
        let cands = enumerate_column_extractors_blind(&[simple_example()], 0, 4, 16, &mut stats);
        assert!(!cands.is_empty());
        assert!(stats.candidates_evaluated > cands.len());
    }

    #[test]
    fn baseline_solves_simple_projection() {
        let ex = simple_example();
        let result =
            learn_transformation_baseline(std::slice::from_ref(&ex), &SynthConfig::default())
                .unwrap();
        assert!(eval_program(&ex.tree, &result.program)
            .unwrap()
            .same_bag(&ex.output));
    }

    #[test]
    fn baseline_evaluates_more_candidates_than_dfa() {
        let ex = simple_example();
        let dfa_result =
            learn_transformation(std::slice::from_ref(&ex), &SynthConfig::default()).unwrap();
        let base_result = learn_transformation_baseline(&[ex], &SynthConfig::default()).unwrap();
        // The DFA path counts table-extractor candidates (small); the blind path counts
        // every enumerated word, which is much larger even on this tiny example.
        assert!(base_result.candidates_tried > dfa_result.candidates_tried);
    }

    #[test]
    fn baseline_rejects_unsatisfiable_columns() {
        let ex = Example::new(
            social_network(2, 1),
            Table::from_rows(&["x"], &[&["missing-value"]]),
        );
        assert!(matches!(
            learn_transformation_baseline(&[ex], &SynthConfig::default()),
            Err(SynthError::NoColumnExtractor(0))
        ));
    }
}
