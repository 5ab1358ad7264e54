//! `table2`: full-database migration of the four Table 2 dataset simulators.
//!
//! An operation migrates one dataset: it synthesizes every table of the
//! simulator's example plan (`DatasetSpec::migration_plan`) with the plan's
//! configuration, then runs a `MigrationPlan` of the synthesized programs
//! (execution, keys, constraint checks) on the scale-25 document and dumps it
//! as SQL.  Synthesizing table by table, rather than inside one
//! `MigrationPlan::run`, makes each table a step of its own, timed and
//! calibrated separately.  (Per-table latencies were no operation to take
//! percentiles over: the median fell in a gap between tables of 120 and
//! 180 ms and jumped across it from run to run.)  The check compares every
//! table with the simulator's ground truth and requires zero constraint
//! violations.
//! Held out: the synthesized programs then run on the scale-200 document,
//! whose tables are compared the same way; some over-general programs are
//! expected to fail there, which is what `heldout_ok_frac` shows.

use super::{Info, Workload};
use crate::meter::{Bucket, Meter};
use crate::util::{same_rows, SplitMix64};
use mitra_datagen::datasets::all_datasets;
use mitra_dsl::Table;
use mitra_hdt::Hdt;
use mitra_migrate::{dump_sql, MigrationPlan, MigrationReport, TableSource, TableTask};
use mitra_synth::synthesize::learn_transformation;
use std::collections::HashMap;

pub const INFO: Info = Info {
    name: "table2",
    setups: 5,
    op: "dataset migration",
    item: "tables",
};

/// Entities per kind in the in-sample and held-out documents.
const SCALE: usize = 25;
const HELDOUT_SCALE: usize = 200;

pub struct Table2 {
    seed: u64,
    datasets: Vec<Dataset>,
}

struct Dataset {
    name: &'static str,
    plan: MigrationPlan,
    doc: Hdt,
    truth: HashMap<String, Table>,
    heldout_doc: Hdt,
    heldout_truth: HashMap<String, Table>,
}

impl Table2 {
    pub fn new(seed: u64) -> Self {
        Table2 {
            seed,
            datasets: Vec::new(),
        }
    }
}

impl Workload for Table2 {
    fn setup(&mut self, m: &mut Meter) {
        let mut datasets: Vec<Dataset> = m.step(None, |_| {
            all_datasets()
                .into_iter()
                .map(|spec| {
                    let mut plan = spec.migration_plan();
                    plan.synth_config.threads = super::THREADS;
                    // No deadline: programs must not depend on machine speed.
                    plan.synth_config.timeout = None;
                    for task in &plan.tasks {
                        if let TableSource::Examples(examples) = &task.source {
                            for e in examples {
                                e.tree.ensure_index();
                            }
                        }
                    }
                    let (doc, truth) = spec.generate(SCALE);
                    let (heldout_doc, heldout_truth) = spec.generate(HELDOUT_SCALE);
                    doc.ensure_index();
                    heldout_doc.ensure_index();
                    Dataset {
                        name: spec.name,
                        plan,
                        doc,
                        truth,
                        heldout_doc,
                        heldout_truth,
                    }
                })
                .collect()
        });
        SplitMix64::new(self.seed).shuffle(&mut datasets);
        self.datasets = datasets;
    }

    fn pass(&mut self, m: &mut Meter) {
        for (di, d) in self.datasets.iter().enumerate() {
            let tables = d.plan.tasks.len() as u64;
            m.attempted += tables;
            m.items += tables;

            // Synthesis from the plan's examples with the plan's
            // configuration, as `MigrationPlan::run` does, one step per table.
            // The plan of the programs synthesizes nothing, so it keeps the
            // default configuration.
            let mut plan = MigrationPlan::new(d.plan.schema.clone());
            for task in &d.plan.tasks {
                let TableSource::Examples(examples) = &task.source else {
                    continue;
                };
                let result = m.step(Some(di as u64), |m| {
                    m.call(Bucket::Synth, "learn_transformation", || {
                        learn_transformation(examples, &d.plan.synth_config)
                    })
                });
                match result {
                    Ok(s) => {
                        m.profile.merge(&s.profile);
                        plan.tasks.push(TableTask {
                            table: task.table.clone(),
                            source: TableSource::Program(s.program),
                            keys: task.keys.clone(),
                            data_columns: task.data_columns.clone(),
                        });
                    }
                    Err(e) => {
                        m.failed += 1;
                        m.problem(format!("{}.{}: {e}", d.name, task.table));
                    }
                }
            }

            // Execution, keys and constraint checks in-sample, and the dump.
            let result = m.step(Some(di as u64), |m| {
                let (result, total) = m.time("migrate", "MigrationPlan::run", || plan.run(&d.doc));
                if let Ok(report) = &result {
                    m.book_migration(total, report);
                    let sql = m.call(Bucket::MigrateDumpSql, "dump_sql", || {
                        dump_sql(&report.database)
                    });
                    m.count("migrate.sql_bytes", sql.len() as f64);
                }
                result
            });
            // The same programs on the held-out document.
            let heldout = m.step(None, |m| {
                let (result, total) =
                    m.time("migrate", "MigrationPlan::run", || plan.run(&d.heldout_doc));
                if let Ok(report) = &result {
                    m.book_migration(total, report);
                }
                result
            });

            m.checked(|m| {
                let report = match result {
                    Ok(report) => report,
                    Err(e) => {
                        m.failed += tables;
                        m.problem(format!("{}: {e}", d.name));
                        return;
                    }
                };
                for t in &report.tables {
                    if !t.outcome.is_ok() {
                        m.failed += 1;
                        m.problem(format!("{}.{}: {}", d.name, t.table, t.outcome));
                    } else if !matches(&report, &d.truth, &t.table) {
                        m.wrong += 1;
                        m.problem(format!(
                            "{}.{}: rows differ from the ground truth",
                            d.name, t.table
                        ));
                    }
                }
                if report.violations > 0 {
                    m.wrong += 1;
                    m.problem(format!(
                        "{}: {} constraint violations",
                        d.name, report.violations
                    ));
                }
                m.heldout_checked += tables;
                if let Ok(h) = &heldout {
                    m.heldout_ok += report
                        .tables
                        .iter()
                        .filter(|t| matches(h, &d.heldout_truth, &t.table))
                        .count() as u64;
                }
            });
        }
    }
}

fn matches(report: &MigrationReport, truth: &HashMap<String, Table>, table: &str) -> bool {
    match (report.database.table(table), truth.get(table)) {
        (Some(got), Some(want)) => same_rows(got, want),
        _ => false,
    }
}
