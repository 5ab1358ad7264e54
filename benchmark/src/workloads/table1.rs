//! `table1`: synthesis of the Table 1 tasks with at most three output columns.
//!
//! The tasks fall into scenario families: same scenario, column count and
//! format, different document sizes.  The largest task of each family with
//! two or more members is held out; the other 36 tasks are synthesized.
//! Each operation synthesizes one task's program from its example and emits
//! XSLT (XML tasks) or JavaScript (JSON tasks).  The check runs the program on
//! the example document and compares with the example's output table; the two
//! string-concatenation tasks are outside the DSL and must stay unsolved.
//! Held out: the program also runs on its family's held-out task, whose
//! example output is the reference.
//!
//! Tasks with four or more columns are left out: at one thread they take
//! 45 s or more per pass, and those with five or more stop at the
//! synthesis deadline, so their programs would depend on machine speed.
//! Holding the largest tasks out also keeps a pass near two seconds, so a
//! run has several passes to take medians over.

use super::{Info, Workload};
use crate::meter::{Bucket, Meter};
use crate::util::{same_rows, SplitMix64};
use mitra_codegen::{generate, Backend};
use mitra_datagen::corpus::{Category, DocFormat, Task};
use mitra_datagen::generate_corpus;
use mitra_synth::exec::execute;
use mitra_synth::synthesize::{learn_transformation, Example, SynthConfig};

pub const INFO: Info = Info {
    name: "table1",
    // A set-up takes about a millisecond, so the median needs many.
    setups: 15,
    op: "task",
    item: "tasks",
};

pub struct Table1 {
    seed: u64,
    config: SynthConfig,
    tasks: Vec<Prepared>,
}

struct Prepared {
    task: Task,
    /// The held-out example of the task's family, if there is one.
    heldout: Option<Example>,
}

impl Table1 {
    pub fn new(seed: u64) -> Self {
        Table1 {
            seed,
            // No deadline: a deadline firing mid-search would make the
            // programs depend on machine speed.
            config: SynthConfig {
                timeout: None,
                threads: super::THREADS,
                ..SynthConfig::default()
            },
            tasks: Vec::new(),
        }
    }
}

/// The scenario family of a task: its name without the trailing task id
/// (`flat-2col` for `flat-2col-3`), and its format.
fn family(task: &Task) -> (&str, DocFormat) {
    let name = task
        .name
        .rsplit_once('-')
        .map_or(task.name.as_str(), |(f, _)| f);
    (name, task.format)
}

fn in_family<'a>(tasks: &'a [Task], t: &'a Task) -> impl Iterator<Item = &'a Task> + 'a {
    tasks.iter().filter(move |s| family(s) == family(t))
}

impl Workload for Table1 {
    fn setup(&mut self, m: &mut Meter) {
        let mut prepared = m.step(None, |_| {
            let tasks: Vec<Task> = generate_corpus()
                .into_iter()
                .filter(|t| t.category <= Category::Three)
                .collect();
            let prepared: Vec<Prepared> = tasks
                .iter()
                .filter_map(|t| {
                    let largest = in_family(&tasks, t).max_by_key(|s| s.element_count())?;
                    if largest.id == t.id {
                        // The family's held-out task (or a family of one).
                        return (in_family(&tasks, t).count() == 1).then(|| Prepared {
                            task: t.clone(),
                            heldout: None,
                        });
                    }
                    Some(Prepared {
                        task: t.clone(),
                        heldout: Some(largest.example.clone()),
                    })
                })
                .collect();
            for p in &prepared {
                p.task.example.tree.ensure_index();
                if let Some(h) = &p.heldout {
                    h.tree.ensure_index();
                }
            }
            prepared
        });
        SplitMix64::new(self.seed).shuffle(&mut prepared);
        self.tasks = prepared;
    }

    fn pass(&mut self, m: &mut Meter) {
        for p in &self.tasks {
            let task = &p.task;
            let backend = match task.format {
                DocFormat::Xml => Backend::Xslt,
                DocFormat::Json => Backend::JavaScript,
            };
            let (result, artifact) = m.step(Some(task.id as u64), |m| {
                let result = m.call(Bucket::Synth, "learn_transformation", || {
                    learn_transformation(std::slice::from_ref(&task.example), &self.config)
                });
                let artifact = result.as_ref().ok().map(|s| {
                    m.call(Bucket::Codegen, "generate", || {
                        generate(&s.program, backend)
                    })
                });
                (result, artifact)
            });
            m.attempted += 1;
            m.items += 1;

            m.checked(|m| match (&result, task.expressible) {
                (Ok(s), true) => {
                    m.profile.merge(&s.profile);
                    m.count("codegen.loc", artifact.map_or(0, |a| a.loc()) as f64);
                    if !same_rows(
                        &execute(&task.example.tree, &s.program),
                        &task.example.output,
                    ) {
                        m.wrong += 1;
                        m.problem(format!(
                            "{}: program output differs from the example",
                            task.name
                        ));
                    }
                    if let Some(h) = &p.heldout {
                        m.heldout_checked += 1;
                        if same_rows(&execute(&h.tree, &s.program), &h.output) {
                            m.heldout_ok += 1;
                        }
                    }
                }
                (Ok(_), false) => {
                    m.wrong += 1;
                    m.problem(format!("{}: solved a task outside the DSL", task.name));
                }
                (Err(e), true) => {
                    m.failed += 1;
                    m.problem(format!("{}: {e}", task.name));
                }
                (Err(_), false) => {}
            });
        }
    }
}
