//! The paper's motivating example (Section 2): convert a social-network XML document
//! mapping persons to friend ids into a `(Person, Friend-with, years)` table.
//!
//! Run with: `cargo run --release --example social_network`

use mitra::datagen::social;
use mitra::synth::exec::{execute_with_stats, plan_with_tree};
use mitra::synth::synthesize::{learn_transformation, SynthConfig};
use mitra::{DocFormat, Mitra};
use std::time::Instant;

fn main() {
    // The training example: a three-person network (representative enough to pin down
    // the intended friendship-join program).
    let example = social::training_example();
    println!(
        "Training example: {} elements, {} output rows",
        example.tree.element_count(),
        example.output.len()
    );

    let start = Instant::now();
    let synthesis = learn_transformation(std::slice::from_ref(&example), &SynthConfig::default())
        .expect("synthesis");
    println!(
        "Synthesized in {:.2?} ({} candidate table extractors tried, {} consistent programs)",
        start.elapsed(),
        synthesis.profile.candidates_examined,
        synthesis.programs_found
    );
    println!(
        "{}",
        mitra::dsl::pretty::program_summary(&synthesis.program)
    );

    // Appendix C: the plan the executor runs — joins, pushed-down filters, residual.
    print!(
        "{}",
        plan_with_tree(&synthesis.program, &example.tree).explain(&synthesis.program)
    );

    // Scale up: run the synthesized program over much larger documents.
    for persons in [1_000usize, 10_000, 50_000] {
        let doc = social::social_network(persons, 2);
        let start = Instant::now();
        let (table, stats) = execute_with_stats(&doc, &synthesis.program);
        println!(
            "persons={persons:>6}  elements={:>7}  rows={:>7}  tuples considered={:>8}  time={:.2?}",
            doc.element_count(),
            table.len(),
            stats.tuples_considered,
            start.elapsed()
        );
        assert!(table.same_bag(&social::expected_table(persons, 2)));
    }

    // The engine also works directly from XML text via the plug-in. The
    // attribute-style rendering (Figure 2a) parses to the same HDT shape as the
    // programmatic tree, so the synthesized program applies unchanged; the
    // element-text rendering would put values one level deeper and match nothing.
    let mitra = Mitra::new();
    let xml = social::social_network_xml_attrs(100, 1);
    let table = mitra
        .run_on(DocFormat::Xml, &synthesis.program, &xml)
        .expect("run on xml");
    println!("From XML text (100 persons): {} rows", table.len());
    assert_eq!(
        table.len(),
        100,
        "every person contributes one friendship row"
    );
}
