//! Regenerates Table 1 of the paper: synthesis results over the 98-task corpus,
//! grouped by input format and output column count.
//!
//! Run with: `cargo run -p mitra-bench --release --bin table1 [-- --threads N]`
//!
//! `--threads N` sets the synthesis worker count (default: `MITRA_THREADS`, else
//! all cores; results are identical at every value, only timings change).

use mitra_bench::{mean, median, run_task, table1_config, TaskResult};
use mitra_datagen::corpus::{Category, DocFormat};
use mitra_datagen::generate_corpus;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);

    let tasks = generate_corpus();
    let mut config = table1_config();
    config.threads = threads;
    eprintln!(
        "Running synthesis on {} corpus tasks ({} worker threads)...",
        tasks.len(),
        mitra_pool::resolve(threads)
    );
    let results: Vec<(Category, TaskResult)> = tasks
        .iter()
        .map(|task| {
            let r = run_task(task, &config);
            eprintln!(
                "  [{}] {:<24} {:>8.2?} {}",
                if r.solved { "ok " } else { "FAIL" },
                r.name,
                r.time,
                if task.expressible {
                    ""
                } else {
                    "(expected unsolved: outside DSL)"
                }
            );
            (task.category, r)
        })
        .collect();

    println!("\nTable 1 — synthesis over the 98-task corpus (reproduction)\n");
    println!(
        "{:<6} {:<6} | {:>5} {:>7} | {:>10} {:>10} | {:>9} {:>9} {:>7} {:>7} | {:>6} {:>6}",
        "Format",
        "#Cols",
        "Total",
        "#Solved",
        "Median(s)",
        "Avg(s)",
        "ElemsMed",
        "ElemsAvg",
        "RowsMed",
        "RowsAvg",
        "#Preds",
        "LOC"
    );
    let categories = [
        Category::AtMostTwo,
        Category::Three,
        Category::Four,
        Category::FivePlus,
    ];
    for format in [DocFormat::Xml, DocFormat::Json] {
        for with_total in [false, true] {
            if with_total {
                print_row(
                    &format!("{format:?}"),
                    "Total",
                    results
                        .iter()
                        .filter(|(_, r)| r.format == format)
                        .map(|(_, r)| r),
                );
            } else {
                for cat in categories {
                    print_row(
                        &format!("{format:?}"),
                        cat.label(),
                        results
                            .iter()
                            .filter(|(c, r)| *c == cat && r.format == format)
                            .map(|(_, r)| r),
                    );
                }
            }
        }
    }
    print_row("Overall", "", results.iter().map(|(_, r)| r));
}

fn print_row<'a>(format: &str, cols: &str, rows: impl Iterator<Item = &'a TaskResult>) {
    let rows: Vec<&TaskResult> = rows.collect();
    if rows.is_empty() {
        return;
    }
    let total = rows.len();
    let solved = rows.iter().filter(|r| r.solved).count();
    let times: Vec<f64> = rows
        .iter()
        .filter(|r| r.solved)
        .map(|r| r.time.as_secs_f64())
        .collect();
    let elements: Vec<f64> = rows.iter().map(|r| r.elements as f64).collect();
    let out_rows: Vec<f64> = rows.iter().map(|r| r.rows as f64).collect();
    let preds: Vec<f64> = rows
        .iter()
        .filter(|r| r.solved)
        .map(|r| r.predicates as f64)
        .collect();
    let locs: Vec<f64> = rows
        .iter()
        .filter(|r| r.solved)
        .map(|r| r.loc as f64)
        .collect();
    println!(
        "{:<6} {:<6} | {:>5} {:>7} | {:>10.2} {:>10.2} | {:>9.1} {:>9.1} {:>7.1} {:>7.1} | {:>6.1} {:>6.1}",
        format,
        cols,
        total,
        solved,
        median(&times),
        mean(&times),
        median(&elements),
        mean(&elements),
        median(&out_rows),
        mean(&out_rows),
        mean(&preds),
        mean(&locs)
    );
}
