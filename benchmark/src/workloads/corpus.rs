//! `corpus`: the checkpointed corpus service on a stream of mixed corpora.
//!
//! Each operation runs `corpus::run` over one seeded mixer corpus (2,000
//! one-line XML documents, 5% malformed, 20% carrying a `promo` element that
//! makes a second document shape, led by one fixed exemplar of each shape)
//! into a fresh scratch directory.  The service synthesizes once per shape, journals every shard
//! with an fsync, and writes per-shard and per-table files; the benchmark
//! leaves that flush policy as it is.  The check requires the quarantine to
//! be exactly the mixer's malformed list, zero constraint violations, and the
//! data columns of both output tables to equal the job's own example oracles
//! applied to every well-formed document.  Documents other than a shape's
//! first are held out from its synthesis, so the table check counts as held
//! out.

use super::{Info, Workload};
use crate::meter::{Bucket, Meter};
use crate::util::{bag_of, rendered_rows, SplitMix64};
use mitra_datagen::fuzz::{mixed_corpus, mixer_job, CorpusMix};
use mitra_migrate::corpus::{run, FailureKind};
use mitra_migrate::{CorpusJob, CorpusTableSource};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

pub const INFO: Info = Info {
    name: "corpus",
    setups: 5,
    op: "corpus run",
    item: "docs",
};

const DOCS: usize = 2_000;
const MALFORMED_PCT: u32 = 5;
const PROMO_PCT: u32 = 20;
/// Distinct corpora generated per run; operations cycle through them.
const CORPORA: usize = 3;
/// Seed of the corpus the two shape exemplars come from.
const EXEMPLAR_SEED: u64 = 1;
/// Documents per shard (one journal fsync each).
const SHARD_SIZE: usize = 250;

type Bag = HashMap<Vec<String>, usize>;

struct Prepared {
    text: String,
    docs: usize,
    malformed: Vec<usize>,
    /// Per task table: its data columns and the expected bag of their values.
    expected: Vec<(String, Vec<String>, Bag)>,
}

pub struct Corpus {
    corpora: Vec<Prepared>,
    job: CorpusJob,
    dir: PathBuf,
    next: usize,
}

impl Corpus {
    pub fn new(seed: u64, scratch_root: &Path) -> Self {
        let mut job = mixer_job();
        job.config.threads = super::THREADS;
        job.config.shard_size = SHARD_SIZE;
        let exemplars = exemplars();
        let mut rng = SplitMix64::new(seed);
        let corpora = (0..CORPORA)
            .map(|_| {
                let mix = CorpusMix {
                    seed: rng.fork(),
                    docs: DOCS - exemplars.len(),
                    malformed_pct: MALFORMED_PCT,
                    promo_pct: PROMO_PCT,
                };
                let mixed = mixed_corpus(&mix);
                let (header, body) = mixed.text.split_once('\n').unwrap_or(("", &mixed.text));
                let text = format!("{header}\n{}\n{body}", exemplars.join("\n"));
                let malformed: Vec<usize> = mixed
                    .malformed
                    .iter()
                    .map(|d| d + exemplars.len())
                    .collect();
                let expected = expected_tables(&job, &text, &malformed);
                Prepared {
                    text,
                    docs: DOCS,
                    malformed,
                    expected,
                }
            })
            .collect();
        Corpus {
            corpora,
            job,
            dir: scratch_root.join(format!("corpus-{}", std::process::id())),
            next: 0,
        }
    }

    fn operation(&mut self, m: &mut Meter) {
        let c = &self.corpora[self.next % self.corpora.len()];
        self.next += 1;
        m.attempted += c.docs as u64;
        let fresh = m.checked(|_| {
            let _ = std::fs::remove_dir_all(&self.dir);
            std::fs::create_dir_all(&self.dir)
        });
        if let Err(e) = fresh {
            m.failed += c.docs as u64;
            m.problem(format!("cannot create {}: {e}", self.dir.display()));
            return;
        }
        let (result, total) = m.step(Some(self.next as u64), |m| {
            m.time("migrate", "corpus::run", || {
                run(&self.job, &c.text, &self.dir)
            })
        });
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                m.failed += c.docs as u64;
                m.problem(format!("corpus run failed: {e}"));
                return;
            }
        };
        m.items += c.docs as u64;
        let scan = report.synth_wall.min(total);
        let exec = report.exec_wall.min(total - scan);
        m.add(Bucket::CorpusScan, scan);
        m.add(Bucket::MigrateExecute, exec);
        m.add(Bucket::MigrateConstraints, total - scan - exec);
        m.count("migrate.rows", report.total_rows() as f64);
        m.count("migrate.violations", report.violations as f64);
        m.count("migrate.input_bytes", c.text.len() as f64);
        m.count(
            "migrate.corpus.programs_synthesized",
            report.programs_synthesized as f64,
        );
        m.count(
            "migrate.corpus.quarantined",
            report.quarantined.len() as f64,
        );
        m.count("migrate.corpus.shards", report.shards as f64);

        m.checked(|m| {
            m.count("migrate.corpus.bytes_written", dir_bytes(&self.dir) as f64);
            let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.doc).collect();
            let unexpected = quarantined
                .iter()
                .filter(|d| c.malformed.binary_search(d).is_err())
                .count()
                + c.malformed
                    .iter()
                    .filter(|d| !quarantined.contains(d))
                    .count()
                + report
                    .quarantined
                    .iter()
                    .filter(|q| q.kind != FailureKind::Malformed)
                    .count();
            if unexpected > 0 {
                m.failed += unexpected as u64;
                m.problem(format!(
                    "{unexpected} documents quarantined unexpectedly or missed"
                ));
            }
            if report.violations > 0 {
                m.wrong += 1;
                m.problem(format!("{} constraint violations", report.violations));
            }
            for (table, columns, want) in &c.expected {
                m.heldout_checked += 1;
                match read_table(
                    &self.dir.join("tables").join(format!("{table}.csv")),
                    columns,
                ) {
                    Ok(got) if got == *want => m.heldout_ok += 1,
                    Ok(_) => {
                        m.wrong += 1;
                        m.problem(format!("{table}: rows differ from the oracle"));
                    }
                    Err(e) => {
                        m.wrong += 1;
                        m.problem(format!("{table}: {e}"));
                    }
                }
            }
        });
    }
}

impl Workload for Corpus {
    fn setup(&mut self, m: &mut Meter) {
        self.operation(m);
    }

    fn pass(&mut self, m: &mut Meter) {
        self.operation(m);
    }

    fn scratch(&self) -> Option<String> {
        Some(self.dir.display().to_string())
    }
}

impl Drop for Corpus {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The first plain and the first `promo` document of a fixed mixer corpus.
///
/// Every corpus starts with these two, so each shape is synthesized from the
/// same exemplar whatever the seed: synthesis time grows steeply with the
/// exemplar's size, and a seeded exemplar made runs differ by 13%.
fn exemplars() -> Vec<String> {
    let mixed = mixed_corpus(&CorpusMix {
        seed: EXEMPLAR_SEED,
        docs: 20,
        malformed_pct: 0,
        promo_pct: 50,
    });
    let docs: Vec<&str> = documents(&mixed.text).collect();
    [false, true]
        .into_iter()
        .filter_map(|promo| docs.iter().find(|d| d.contains("<promo>") == promo))
        .map(|d| d.to_string())
        .collect()
}

/// The documents of a corpus text: one per line, skipping empty and `#` lines.
fn documents(text: &str) -> impl Iterator<Item = &str> {
    text.split('\n')
        .map(|l| l.trim_end_matches('\r'))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// Applies each task's example oracle to every well-formed document.
fn expected_tables(
    job: &CorpusJob,
    text: &str,
    malformed: &[usize],
) -> Vec<(String, Vec<String>, Bag)> {
    let trees: Vec<_> = documents(text)
        .enumerate()
        .filter(|(i, _)| malformed.binary_search(i).is_err())
        .filter_map(|(_, doc)| mitra_hdt::xml::xml_to_hdt(doc).ok())
        .collect();
    job.tasks
        .iter()
        .filter_map(|task| {
            let CorpusTableSource::Oracle(oracle) = &task.source else {
                return None;
            };
            let rows = trees
                .iter()
                .filter_map(|tree| oracle(tree))
                .flat_map(|t| rendered_rows(&t).collect::<Vec<_>>());
            Some((task.table.clone(), task.data_columns.clone(), bag_of(rows)))
        })
        .collect()
}

/// Reads `columns` of a CSV table the corpus service wrote, as a bag of rows.
fn read_table(path: &Path, columns: &[String]) -> Result<Bag, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = split_csv(lines.next().unwrap_or_default());
    let idx: Vec<usize> = columns
        .iter()
        .map(|c| header.iter().position(|h| h == c))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("{}: missing a data column", path.display()))?;
    let mut rows = Vec::new();
    for line in lines {
        let cells = split_csv(line);
        let row: Option<Vec<String>> = idx.iter().map(|&i| cells.get(i).cloned()).collect();
        rows.push(row.ok_or_else(|| format!("{}: short row {line:?}", path.display()))?);
    }
    Ok(bag_of(rows))
}

/// Splits one CSV line (quoted cells with doubled quotes allowed).
fn split_csv(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        let cell = cells.last_mut().expect("at least one cell");
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            ('"', _) => quoted = !quoted,
            (',', false) => cells.push(String::new()),
            (c, _) => cell.push(c),
        }
    }
    cells
}

/// Total size of the files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            _ => entry.metadata().map_or(0, |md| md.len()),
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_cells_split_with_quotes() {
        assert_eq!(split_csv("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(
            split_csv("\"x,y\",\"say \"\"hi\"\"\",z"),
            vec!["x,y", "say \"hi\"", "z"]
        );
        assert_eq!(split_csv(""), vec![""]);
    }
}
