//! The workloads.  Each is a closed loop with one client: the next operation
//! starts when the previous one has finished.
//!
//! A workload is built in two steps.  [`create`] generates the benchmark's own
//! inputs from the seed (untimed).  [`Workload::setup`] then does everything
//! else that must happen before the first timed pass — generating inputs with
//! `mitra-datagen`, synthesizing programs, a warm-up pass — in timed steps;
//! the runner repeats it and reports the median, so work moved into set-up
//! shows.

use crate::meter::Meter;

mod bulk;
mod corpus;
mod table1;
mod table2;

/// Worker threads every workload asks the layers for.  On the 2-vCPU
/// machine the benchmark was tuned on, two workers made run-to-run spreads
/// 6–23% (table2 and corpus) where one made 3–10%: load on the second vCPU
/// from outside the container comes and goes.  With one thread the pool runs
/// its inline path, so pool changes are predicted to move nothing here.
pub const THREADS: usize = 1;

pub trait Workload {
    /// Set-up, its work timed as steps of `m` (what else it books is
    /// ignored).  Every call must leave the workload ready to run passes.
    fn setup(&mut self, m: &mut Meter);
    /// One timed pass: books every layer call, operation and check into `m`.
    fn pass(&mut self, m: &mut Meter);
    /// Directory the workload writes to, if any (for the result stamp).
    fn scratch(&self) -> Option<String> {
        None
    }
}

/// Static facts about a workload.
#[derive(Debug, Clone, Copy)]
pub struct Info {
    pub name: &'static str,
    /// Set-up repetitions.
    pub setups: usize,
    /// What one operation is, and what the throughput counts.
    pub op: &'static str,
    pub item: &'static str,
}

pub const ALL: [Info; 5] = [
    table1::INFO,
    table2::INFO,
    bulk::XML_INFO,
    bulk::JSON_INFO,
    corpus::INFO,
];

/// Builds a workload from its name and seed (generating the benchmark's own
/// inputs), or `None` for an unknown name.
pub fn create(name: &str, seed: u64, scratch_root: &std::path::Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "table1" => Box::new(table1::Table1::new(seed)),
        "table2" => Box::new(table2::Table2::new(seed)),
        "bulk_xml" => Box::new(bulk::Bulk::xml(seed)),
        "bulk_json" => Box::new(bulk::Bulk::json(seed)),
        "corpus" => Box::new(corpus::Corpus::new(seed, scratch_root)),
        _ => return None,
    })
}

pub fn info(name: &str) -> Option<Info> {
    ALL.iter().copied().find(|i| i.name == name)
}
