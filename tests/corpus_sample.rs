//! Cross-crate integration test over a sample of the benchmark corpus (experiment E1):
//! a slice of tasks from every category must synthesize, reproduce their examples, and
//! produce emitting-ready artifacts.  The full 98-task sweep lives in the bench
//! harness (`cargo run -p mitra-bench --bin table1`).

use mitra::codegen::{generate, Backend};
use mitra::datagen::{generate_corpus, Category, DocFormat};
use mitra::synth::exec::execute;
use mitra::synth::synthesize::{learn_transformation, SynthConfig};

/// Unoptimized (dev-profile) synthesis is one to two orders of magnitude slower than
/// release, so the dev run covers a reduced slice; `cargo test --release` covers the
/// full matrix.
const FULL_COVERAGE: bool = !cfg!(debug_assertions);

#[test]
fn one_task_per_category_and_format_synthesizes() {
    let tasks = generate_corpus();
    let mut covered: Vec<(DocFormat, Category)> = Vec::new();
    let config = SynthConfig::default();
    let target_cells = if FULL_COVERAGE { 8 } else { 2 };
    for task in &tasks {
        let key = (task.format, task.category);
        if !task.expressible || covered.contains(&key) || covered.len() >= target_cells {
            continue;
        }
        covered.push(key);
        let synthesis = learn_transformation(std::slice::from_ref(&task.example), &config)
            .unwrap_or_else(|e| panic!("task {} failed to synthesize: {e}", task.name));
        let out = execute(&task.example.tree, &synthesis.program);
        assert!(
            out.same_bag(&task.example.output),
            "task {} output mismatch",
            task.name
        );
        // The appropriate backend must produce non-trivial code.
        let backend = match task.format {
            DocFormat::Xml => Backend::Xslt,
            DocFormat::Json => Backend::JavaScript,
        };
        assert!(generate(&synthesis.program, backend).loc() > 0);
    }
    // 2 formats x 4 categories in release; a 2-cell smoke slice in dev builds.
    assert_eq!(
        covered.len(),
        target_cells,
        "expected to cover every targeted (format, category) cell"
    );
}

#[test]
fn synthesized_programs_generalize_to_scaled_documents() {
    // For a handful of expressible tasks, run the synthesized program on a 5x larger
    // document of the same shape and check it still produces the right number of rows
    // per record (structure-preserving generalization).
    let tasks = generate_corpus();
    let config = SynthConfig::default();
    let sample = if FULL_COVERAGE { 4 } else { 1 };
    for task in tasks
        .iter()
        .filter(|t| t.expressible)
        .step_by(23)
        .take(sample)
    {
        let synthesis =
            learn_transformation(std::slice::from_ref(&task.example), &config).expect("synthesis");
        let small_rows = execute(&task.example.tree, &synthesis.program).len();
        let big = task.scaled_example(5).tree;
        let big_rows = execute(&big, &synthesis.program).len();
        assert!(
            big_rows > small_rows,
            "task {}: scaled document should produce more rows ({big_rows} vs {small_rows})",
            task.name
        );
    }
}
