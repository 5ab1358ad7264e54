//! The descendants-heavy evaluation workload used to quantify the HDT index win.
//!
//! The pre-refactor `descendants_with_tag` walked the entire subtree per query; the
//! indexed version answers from the per-tag occurrence list with a binary search
//! (`O(log n + k)`).  The workload here is shaped like what the synthesizer's DFA
//! construction and the evaluator actually do: many `descendants` queries for a
//! *selective* tag issued against interior nodes of a large document.  Both
//! implementations are exercised through public `Hdt` API so the comparison stays
//! honest: [`walk_descendants`] is the pre-refactor traversal, an explicit-stack
//! subtree walk over `Hdt::children`, kept here as the reference implementation.

use mitra_hdt::{Hdt, NodeId, TagId};
use std::time::Instant;

/// Builds the benchmark corpus: `root` → `sections` sections → `items` items each,
/// every item carrying `name`/`value` leaves and every 50th item an extra rare
/// `anchor` leaf.  With the defaults this is a wide, shallow document whose
/// `descendants(·, anchor)` queries are highly selective — exactly the case where a
/// subtree walk wastes the most work.
pub fn corpus(sections: usize, items: usize) -> Hdt {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    for s in 0..sections {
        let section = tree.add_child(root, "section", None);
        for i in 0..items {
            let item = tree.add_child(section, "item", None);
            tree.add_child(item, "name", Some(format!("item-{s}-{i}")));
            tree.add_child(item, "value", Some((s * items + i).to_string()));
            if i % 50 == 0 {
                tree.add_child(item, "anchor", Some(format!("a{s}")));
            }
        }
    }
    tree
}

/// The query mix: for every section, `descendants(section, anchor)` and
/// `descendants(section, value)`, plus one whole-document `descendants(root, anchor)`.
pub fn queries(tree: &Hdt) -> Vec<(NodeId, TagId)> {
    let anchor: TagId = "anchor".into();
    let value: TagId = "value".into();
    let mut out = Vec::new();
    for &section in tree.children_with_tag(tree.root(), "section") {
        out.push((section, anchor));
        out.push((section, value));
    }
    out.push((tree.root(), anchor));
    out
}

/// Runs the query mix through the indexed range-scan implementation, returning the
/// total number of hits (used to keep the optimizer from discarding the work and to
/// cross-check both implementations return the same answer).
pub fn run_indexed(tree: &Hdt, queries: &[(NodeId, TagId)]) -> usize {
    queries
        .iter()
        .map(|(n, t)| tree.descendants_with_tag(*n, *t).len())
        .sum()
}

/// All strict descendants of `id` tagged `tag`, in pre-order, found by walking the
/// whole subtree with an explicit stack: the pre-refactor `descendants_with_tag`.
pub fn walk_descendants(tree: &Hdt, id: NodeId, tag: TagId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = tree.children(id).iter().rev().copied().collect();
    while let Some(n) = stack.pop() {
        if tree.tag(n) == tag {
            out.push(n);
        }
        for c in tree.children(n).iter().rev() {
            stack.push(*c);
        }
    }
    out
}

/// Runs the query mix through the pre-refactor full-subtree walk.
pub fn run_naive(tree: &Hdt, queries: &[(NodeId, TagId)]) -> usize {
    queries
        .iter()
        .map(|(n, t)| walk_descendants(tree, *n, *t).len())
        .sum()
}

/// One measured comparison of the two implementations.
#[derive(Debug, Clone)]
pub struct DescendMeasurement {
    /// Nodes in the corpus.
    pub nodes: usize,
    /// Queries per repetition.
    pub queries: usize,
    /// Total hits per repetition (identical for both implementations).
    pub hits: usize,
    /// Best-of-N wall-clock seconds for the naive subtree walk.
    pub naive_secs: f64,
    /// Best-of-N wall-clock seconds for the indexed range scan.
    pub indexed_secs: f64,
}

impl DescendMeasurement {
    /// naive / indexed.
    pub fn speedup(&self) -> f64 {
        if self.indexed_secs > 0.0 {
            self.naive_secs / self.indexed_secs
        } else {
            f64::INFINITY
        }
    }
}

/// Measures both implementations on the standard corpus, best-of-`repeats`.
///
/// The index is built *before* the timing loop (the query-construction and
/// cross-check steps touch it), so both numbers are steady-state query costs.  The
/// one-time index build is not timed here; `benchmark/` reports it as
/// `hdt.index_frac`.
pub fn measure(sections: usize, items: usize, repeats: usize) -> DescendMeasurement {
    let tree = corpus(sections, items);
    let qs = queries(&tree);
    let hits_indexed = run_indexed(&tree, &qs);
    let hits_naive = run_naive(&tree, &qs);
    assert_eq!(
        hits_indexed, hits_naive,
        "indexed and naive descendants disagree"
    );

    let mut naive_secs = f64::INFINITY;
    let mut indexed_secs = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        std::hint::black_box(run_naive(&tree, &qs));
        naive_secs = naive_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        std::hint::black_box(run_indexed(&tree, &qs));
        indexed_secs = indexed_secs.min(t.elapsed().as_secs_f64());
    }

    DescendMeasurement {
        nodes: tree.len(),
        queries: qs.len(),
        hits: hits_indexed,
        naive_secs,
        indexed_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_expected_shape() {
        let t = corpus(10, 100);
        assert_eq!(t.children_with_tag(t.root(), "section").len(), 10);
        // 10 sections * (1 section + 100 items * 2 leaves + 100 items) + anchors + root
        assert!(t.len() > 3_000);
        t.validate().unwrap();
    }

    #[test]
    fn implementations_agree_on_the_workload() {
        let t = corpus(5, 60);
        let qs = queries(&t);
        assert_eq!(run_indexed(&t, &qs), run_naive(&t, &qs));
        assert!(run_indexed(&t, &qs) > 0);
    }

    #[test]
    fn measure_reports_consistent_counts() {
        let m = measure(4, 50, 2);
        assert!(m.nodes > 0);
        assert!(m.queries > 0);
        assert!(m.hits > 0);
        assert!(m.naive_secs >= 0.0 && m.indexed_secs >= 0.0);
    }
}
