//! Regenerates Table 2 of the paper: example-driven migration of the four dataset
//! simulators (DBLP, IMDB, MONDIAL, YELP) into full relational databases.
//!
//! Run with: `cargo run -p mitra-bench --release --bin table2 [scale] [-- --threads N]`
//!
//! `scale` is the number of instances per top-level entity used for the *execution*
//! document (the synthesis examples always use a tiny 2-instance sample, as in the
//! paper).  The default of 200 keeps the run under a couple of minutes; larger values
//! scale the `#Rows` and execution-time columns linearly.  `--threads N` sets the
//! synthesis worker count (default: `MITRA_THREADS`, else all cores); the
//! `SynthTot(s)` column reports the synthesis phase's wall clock, so it shrinks as
//! the fan-out widens while the migrated rows stay byte-identical.

use mitra_bench::table2::run_table2_with;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0);
    let scale: usize = args
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            // Skip the value of --threads so `table2 -- --threads 4` keeps scale 200.
            args.get(i.wrapping_sub(1))
                .is_none_or(|prev| prev != "--threads")
        })
        .find_map(|(_, s)| s.parse().ok())
        .unwrap_or(200);

    println!("Table 2 — full-database migration of the dataset simulators (reproduction)\n");
    println!(
        "{:<9} {:<7} {:>9} | {:>7} {:>6} | {:>12} {:>12} | {:>9} {:>13} {:>13} | {:>10}",
        "Name",
        "Format",
        "Elements",
        "#Tables",
        "#Cols",
        "SynthTot(s)",
        "SynthAvg(s)",
        "#Rows",
        "ExecTot(s)",
        "ExecAvg(s)",
        "Violations"
    );

    for row in run_table2_with(scale, threads) {
        if let Some(e) = &row.error {
            println!("{:<9} {:<7} MIGRATION FAILED: {e}", row.name, row.format);
            continue;
        }
        let n = row.tables.max(1) as f64;
        println!(
            "{:<9} {:<7} {:>9} | {:>7} {:>6} | {:>12.2} {:>12.2} | {:>9} {:>13.2} {:>13.2} | {:>10}",
            row.name,
            row.format,
            row.elements,
            row.tables,
            row.columns,
            row.synth_total_secs,
            row.synth_total_secs / n,
            row.rows,
            row.exec_total_secs,
            row.exec_total_secs / n,
            row.violations
        );
    }
    println!("\n(execution scale: {scale} instances per top-level entity; synthesis always uses a 2-instance example)");
}
