//! Key generation for full-database migration (Section 6).
//!
//! When the target schema asks for primary/foreign keys that do not come from the
//! input dataset, the paper generates them with an injective function `f(n1,…,nk)` of
//! the tree nodes a row was constructed from — in the implementation, simply the
//! concatenation of the nodes' unique identifiers.  A foreign key in table `T`
//! referencing table `T'` is generated by applying learned *(node extractor, column)*
//! pairs that recover, for a row of `T`, the nodes from which the corresponding row of
//! `T'` was built, and feeding them through the same `f`.

use mitra_dsl::ast::NodeExtractor;
use mitra_dsl::eval::{eval_node_extractor, node_value};
use mitra_dsl::Value;
use mitra_hdt::{Hdt, NodeId, TagId};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Specification of how to produce one key value from the node tuple of a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeySpec {
    /// A synthetic primary key: `f` applied to all the row's nodes.
    SyntheticPrimary,
    /// A foreign key referencing another table's synthetic primary key: for each
    /// (column index, node extractor) pair, apply the extractor to that component of
    /// this row's node tuple to recover one node of the referenced row, then apply `f`.
    Foreign {
        /// The (column index, extractor) pairs that recover the referenced row's nodes,
        /// in the referenced table's node-tuple order.
        derivations: Vec<(usize, NodeExtractor)>,
    },
    /// The key value is simply one of the row's data columns (keys already present in
    /// the dataset).
    FromColumn(usize),
}

/// The injective function `f(n1,…,nk)`: concatenation of node identifiers.
pub fn node_key(nodes: &[NodeId]) -> Value {
    let mut s = String::with_capacity(nodes.len() * 8);
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            s.push('_');
        }
        let _ = write!(s, "{}", n.0);
    }
    Value::Str(s)
}

/// Evaluates a key specification on a row's node tuple ([`KeySpec::FromColumn`]
/// reads its column's node value).  Returns `None` when a foreign-key derivation
/// fails (a node extractor hits ⊥), which migration reports as a constraint
/// problem.
pub fn eval_key(tree: &Hdt, nodes: &[NodeId], spec: &KeySpec) -> Option<Value> {
    match spec {
        KeySpec::SyntheticPrimary => Some(node_key(nodes)),
        KeySpec::FromColumn(i) => nodes.get(*i).map(|&n| node_value(tree, n)),
        KeySpec::Foreign { derivations } => {
            let mut referenced = Vec::with_capacity(derivations.len());
            for (col, extractor) in derivations {
                let base = *nodes.get(*col)?;
                let target = eval_node_extractor(tree, base, extractor)?;
                referenced.push(target);
            }
            Some(node_key(&referenced))
        }
    }
}

/// Learns a foreign-key derivation from examples of aligned rows.
///
/// Given, for a sample of rows of the referencing table, the node tuple of the row and
/// the node tuple of the row it should reference, this searches (bounded by `depth`)
/// for one `(column, extractor)` pair per referenced node that maps the referencing
/// tuple onto the referenced tuple for *all* provided samples.  This is the learning of
/// the `(χ_j, n_{t_j})` pairs described in Section 6.
pub fn learn_foreign_derivation(
    tree: &Hdt,
    samples: &[(Vec<NodeId>, Vec<NodeId>)],
    depth: usize,
) -> Option<Vec<(usize, NodeExtractor)>> {
    let first = samples.first()?;
    let referenced_arity = first.1.len();
    let referencing_arity = first.0.len();
    let extractors = enumerate_extractors(tree, depth);
    let mut derivations = Vec::with_capacity(referenced_arity);
    for target_idx in 0..referenced_arity {
        let mut found = None;
        'search: for col in 0..referencing_arity {
            for ext in &extractors {
                if samples.iter().all(|(from, to)| {
                    eval_node_extractor(tree, from[col], ext) == Some(to[target_idx])
                }) {
                    found = Some((col, ext.clone()));
                    break 'search;
                }
            }
        }
        derivations.push(found?);
    }
    Some(derivations)
}

/// Enumerates node extractors up to the given depth over the tags/positions of `tree`.
fn enumerate_extractors(tree: &Hdt, depth: usize) -> Vec<NodeExtractor> {
    let mut seen: HashSet<(TagId, usize)> = HashSet::new();
    let mut tag_pos: Vec<(TagId, usize)> = Vec::new();
    for id in tree.ids() {
        if id == tree.root() {
            continue;
        }
        let key = (tree.tag(id), tree.pos(id));
        if seen.insert(key) {
            tag_pos.push(key);
        }
    }
    let mut all = vec![NodeExtractor::Id];
    let mut frontier = vec![NodeExtractor::Id];
    for _ in 0..depth {
        let mut next = Vec::new();
        for base in &frontier {
            let p = NodeExtractor::parent(base.clone());
            if !all.contains(&p) {
                all.push(p.clone());
                next.push(p);
            }
            for (tag, pos) in &tag_pos {
                let c = NodeExtractor::child(base.clone(), *tag, *pos);
                if !all.contains(&c) {
                    all.push(c.clone());
                    next.push(c);
                }
            }
        }
        frontier = next;
        if all.len() > 500 {
            break;
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_hdt::generate::social_network;

    #[test]
    fn node_key_is_injective_on_distinct_tuples() {
        let a = node_key(&[NodeId(1), NodeId(2)]);
        let b = node_key(&[NodeId(1), NodeId(3)]);
        let c = node_key(&[NodeId(12)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, node_key(&[NodeId(1), NodeId(2)]));
    }

    #[test]
    fn synthetic_primary_key_from_nodes() {
        let t = social_network(2, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        let k = eval_key(&t, persons, &KeySpec::SyntheticPrimary).unwrap();
        assert_eq!(k, node_key(persons));
    }

    #[test]
    fn from_column_key_reads_the_columns_node_value() {
        let t = social_network(2, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        let name = t.child(persons[1], "name", 0).unwrap();
        let row = [persons[0], name];
        let k = eval_key(&t, &row, &KeySpec::FromColumn(1)).unwrap();
        assert_eq!(k, node_value(&t, name));
        assert!(!k.is_null());
        assert_eq!(eval_key(&t, &row, &KeySpec::FromColumn(2)), None);
    }

    #[test]
    fn foreign_key_derivation_via_parent() {
        let t = social_network(2, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        let name0 = t.child(persons[0], "name", 0).unwrap();
        // Referencing row is built from the name node; referenced row from the Person node.
        let spec = KeySpec::Foreign {
            derivations: vec![(0, NodeExtractor::parent(NodeExtractor::Id))],
        };
        let fk = eval_key(&t, &[name0], &spec).unwrap();
        assert_eq!(fk, node_key(&[persons[0]]));
    }

    #[test]
    fn foreign_key_derivation_fails_gracefully() {
        let t = social_network(2, 1);
        let spec = KeySpec::Foreign {
            derivations: vec![(0, NodeExtractor::child(NodeExtractor::Id, "missing", 0))],
        };
        assert_eq!(eval_key(&t, &[t.root()], &spec), None);
    }

    #[test]
    fn learns_parent_derivation_from_samples() {
        let t = social_network(3, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        let samples: Vec<(Vec<NodeId>, Vec<NodeId>)> = persons
            .iter()
            .map(|p| {
                let name = t.child(*p, "name", 0).unwrap();
                (vec![name], vec![*p])
            })
            .collect();
        let derivations = learn_foreign_derivation(&t, &samples, 2).unwrap();
        assert_eq!(derivations.len(), 1);
        assert_eq!(derivations[0].0, 0);
        assert_eq!(derivations[0].1, NodeExtractor::parent(NodeExtractor::Id));
    }

    #[test]
    fn learning_fails_when_no_extractor_exists() {
        let t = social_network(2, 1);
        let persons = t.children_with_tag(t.root(), "Person");
        // Ask to map person 0 to person 1 and person 1 to person 0 — no single
        // parent/child extractor does that.
        let samples = vec![
            (vec![persons[0]], vec![persons[1]]),
            (vec![persons[1]], vec![persons[0]]),
        ];
        assert!(learn_foreign_derivation(&t, &samples, 2).is_none());
    }
}
