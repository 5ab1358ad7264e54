//! JSON plug-in walkthrough on a YELP-like dataset: synthesize a review-extraction
//! program from a JSON example, run it over a larger document, and emit the JavaScript
//! program a user would deploy.
//!
//! Run with: `cargo run --release --example yelp_json_orders`

use mitra::codegen::Backend;
use mitra::datagen::datasets::document_text;
use mitra::datagen::yelp;
use mitra::synth::synthesize::Example;
use mitra::{DocFormat, Mitra};

fn main() {
    let spec = yelp();

    // Build the training example directly from the dataset simulator: the `review`
    // table (business key + review fields) from a two-business sample.
    let (sample, expected) = spec.generate(2);
    let example = Example::new(sample, expected["review"].clone());
    println!(
        "Example: {} elements -> {} review rows x {} columns",
        example.tree.element_count(),
        example.output.len(),
        example.output.arity()
    );

    let mitra = Mitra::with_config(mitra::datagen::datasets::dataset_synth_config());
    let synthesis = mitra.synthesize(&[example]).expect("synthesis");
    println!(
        "Synthesized in {:.2?}; program:\n{}",
        synthesis.elapsed,
        mitra::dsl::pretty::program_summary(&synthesis.program)
    );

    // Run the program over a larger document, going through real JSON text to exercise
    // the JSON plug-in end to end.
    let json = document_text(&spec, 20);
    println!("Full document: {} bytes of JSON", json.len());
    let table = mitra
        .run_on(DocFormat::Json, &synthesis.program, &json)
        .expect("execution");
    let (_, expected_large) = spec.generate(20);
    println!(
        "Extracted {} review rows (expected {})",
        table.len(),
        expected_large["review"].len()
    );
    assert_eq!(table.len(), expected_large["review"].len());

    // Emit the JavaScript artifact (the Mitra-json backend of the paper).
    let js = mitra.emit(&synthesis.program, Backend::JavaScript);
    println!("\nGenerated JavaScript ({} LOC):\n{}", js.loc(), js.source);
}
