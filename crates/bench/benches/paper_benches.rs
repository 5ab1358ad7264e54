//! Criterion benchmarks mirroring the paper's evaluation:
//!
//! * `table1_synthesis/*` — synthesis latency per output-column category (Table 1's
//!   median/average synthesis-time columns);
//! * `table2_migration/*` — per-dataset single-table synthesis plus execution on a
//!   scaled document (the components of Table 2's timing columns);
//! * `execution_scaling/*` — execution time vs. document size for the motivating
//!   example (§7.1 performance paragraph / §2 claim);
//! * `ablation/*` — the E7 design-choice ablations: optimized join execution vs naive
//!   cross-product, exact ILP cover vs greedy cover, and DFA-based column learning vs
//!   blind enumeration.
//!
//! These benches favour small sample counts: the quantities of interest are
//! milliseconds-to-seconds, and the bin harnesses produce the full paper-style tables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mitra_bench::table1_config;
use mitra_datagen::corpus::Category;
use mitra_datagen::datasets::{dataset_synth_config, dblp, yelp};
use mitra_datagen::{generate_corpus, social};
use mitra_dsl::eval::eval_program;
use mitra_dsl::Table;
use mitra_synth::baseline::{
    enumerate_column_extractors_blind, learn_transformation_baseline, EnumerationStats,
};
use mitra_synth::column::{learn_all_columns, ColumnLearnConfig};
use mitra_synth::exec::execute;
use mitra_synth::predicate::{learn_predicate, PredicateLearnConfig};
use mitra_synth::synthesize::{learn_transformation, Example, SynthConfig};
use mitra_synth::universe::UniverseConfig;
use mitra_synth::ColumnEvalCache;
use std::time::Duration;

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

/// Table 1: synthesis latency, one representative task per category.
fn bench_table1_synthesis(c: &mut Criterion) {
    let tasks = generate_corpus();
    let config = table1_config();
    let mut group = c.benchmark_group("table1_synthesis");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for cat in [
        Category::AtMostTwo,
        Category::Three,
        Category::Four,
        Category::FivePlus,
    ] {
        let task = tasks
            .iter()
            .find(|t| t.category == cat && t.expressible)
            .expect("task exists");
        group.bench_with_input(BenchmarkId::new("columns", cat.label()), task, |b, task| {
            b.iter(|| {
                learn_transformation(std::slice::from_ref(&task.example), &config)
                    .expect("synthesis succeeds")
            })
        });
    }
    group.finish();
}

/// Table 2: per-dataset single-table synthesis and scaled execution.
fn bench_table2_migration(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_migration");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));

    // Synthesis component: one representative table per dataset format.
    let dblp_spec = dblp();
    let (dblp_sample, dblp_tables) = dblp_spec.generate(2);
    let dblp_example = Example::new(dblp_sample, dblp_tables["phdthesis"].clone());
    group.bench_function("synthesize/dblp_phdthesis", |b| {
        b.iter(|| {
            learn_transformation(std::slice::from_ref(&dblp_example), &dataset_synth_config())
                .expect("synthesis")
        })
    });

    let yelp_spec = yelp();
    let (yelp_sample, yelp_tables) = yelp_spec.generate(2);
    let yelp_example = Example::new(yelp_sample, yelp_tables["business_category"].clone());
    group.bench_function("synthesize/yelp_business_category", |b| {
        b.iter(|| {
            learn_transformation(std::slice::from_ref(&yelp_example), &dataset_synth_config())
                .expect("synthesis")
        })
    });

    // Execution component: run the synthesized program over a scaled document.
    let program =
        learn_transformation(std::slice::from_ref(&dblp_example), &dataset_synth_config())
            .expect("synthesis")
            .program;
    let (big, _) = dblp_spec.generate(200);
    group.bench_function("execute/dblp_phdthesis_x200", |b| {
        b.iter(|| execute(&big, &program))
    });
    group.finish();
}

/// §7.1 / §2: execution time of the motivating-example program vs document size.
fn bench_execution_scaling(c: &mut Criterion) {
    let synthesis = learn_transformation(&[social::training_example()], &SynthConfig::default())
        .expect("synthesis");
    let mut group = c.benchmark_group("execution_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for elements in [1_000usize, 10_000] {
        let doc = social::social_network_with_elements(elements, 2);
        group.bench_with_input(BenchmarkId::new("elements", elements), &doc, |b, doc| {
            b.iter(|| execute(doc, &synthesis.program))
        });
    }
    group.finish();
}

/// E7 ablations.
fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));

    // (a) optimized join execution vs naive cross-product semantics.
    let synthesis = learn_transformation(&[social::training_example()], &SynthConfig::default())
        .expect("synthesis");
    let doc = social::social_network(80, 3);
    group.bench_function("execution/optimized_join", |b| {
        b.iter(|| execute(&doc, &synthesis.program))
    });
    group.bench_function("execution/naive_cross_product", |b| {
        b.iter(|| eval_program(&doc, &synthesis.program))
    });

    // (b) exact (ILP-equivalent) predicate cover vs greedy cover.
    let example = social::training_example();
    let psi = synthesis.program.extractor.clone();
    let exact_cfg = PredicateLearnConfig {
        universe: UniverseConfig::default(),
        exact_cover: true,
        ..Default::default()
    };
    let greedy_cfg = PredicateLearnConfig {
        exact_cover: false,
        ..exact_cfg
    };
    let examples = std::slice::from_ref(&example);
    group.bench_function("predicate_cover/exact", |b| {
        b.iter(|| learn_predicate(examples, &psi, &exact_cfg, &ColumnEvalCache::new(1)))
    });
    group.bench_function("predicate_cover/greedy", |b| {
        b.iter(|| learn_predicate(examples, &psi, &greedy_cfg, &ColumnEvalCache::new(1)))
    });

    // (c) DFA-based column learning vs blind enumeration, plus the end-to-end baseline.
    // Both learn column 0 alone, sequentially.
    let mut first_column = Table::new(vec![example.output.columns[0].clone()]);
    for value in example.output.column(0) {
        first_column.push(vec![value]);
    }
    let column_example = Example::new(example.tree.clone(), first_column);
    let col_config = ColumnLearnConfig::default();
    group.bench_function("column_learning/dfa", |b| {
        b.iter(|| learn_all_columns(std::slice::from_ref(&column_example), 1, &col_config, 1))
    });
    group.bench_function("column_learning/blind_enumeration", |b| {
        b.iter(|| {
            let mut stats = EnumerationStats::default();
            enumerate_column_extractors_blind(std::slice::from_ref(&example), 0, 4, 16, &mut stats)
        })
    });
    group.bench_function("end_to_end/baseline_synthesizer", |b| {
        b.iter(|| {
            learn_transformation_baseline(std::slice::from_ref(&example), &SynthConfig::default())
                .expect("baseline synthesis")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table1_synthesis,
    bench_table2_migration,
    bench_execution_scaling,
    bench_ablation
);
criterion_main!(benches);

// Silence the unused helper warning if criterion's macro shape changes.
#[allow(dead_code)]
fn _keep(c: &mut Criterion) {
    configure(c);
}
