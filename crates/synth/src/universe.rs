//! Construction of the atomic-predicate universe (Figure 10).
//!
//! Given a candidate table extractor ψ = π1 × … × πk and the examples, the universe Φ
//! contains:
//!
//! * `((λn.ϕ) t[i]) ⊙ c` for every valid node extractor ϕ of column `i` and every
//!   constant `c` mined from the input trees (rule 4), and
//! * `((λn.ϕ1) t[i]) ⊙ ((λn.ϕ2) t[j])` for every pair of columns and valid node
//!   extractors (rule 5).
//!
//! A node extractor is *valid* for column `i` (the χ_i judgement, rules 1–3) when it
//! never evaluates to ⊥ on any node extracted for that column in any example.  Since
//! `parent`/`child` compositions are unbounded in principle, the enumeration is bounded
//! by a configurable depth.

use crate::synthesize::Example;
use mitra_dsl::ast::{
    ColumnExtractor, CompareOp, NodeExtractor, Operand, Predicate, TableExtractor,
};
use mitra_dsl::eval::{eval_column, eval_node_extractor};
use mitra_dsl::Value;
use mitra_hdt::{Hdt, NodeId, TagId};
use std::collections::HashSet;

/// Configuration for predicate-universe construction.
#[derive(Debug, Clone, Copy)]
pub struct UniverseConfig {
    /// Maximum number of parent/child steps in a node extractor.
    pub max_node_extractor_depth: usize,
    /// Maximum number of valid node extractors kept per column.
    pub max_extractors_per_column: usize,
    /// Maximum number of constants mined from the input trees.
    pub max_constants: usize,
    /// Whether ordering comparisons (`<`, `<=`, `>`, `>=`) are generated in addition to
    /// equality/inequality.
    pub with_ordering: bool,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            max_node_extractor_depth: 3,
            max_extractors_per_column: 24,
            max_constants: 64,
            with_ordering: true,
        }
    }
}

/// Computes the set of valid node extractors χ_i for column `i` of ψ.
///
/// The extractors are enumerated breadth-first by size so that simpler extractors come
/// first; an extractor is kept only if it evaluates to a node (never ⊥) for every node
/// the column extractor produces on every example tree (rules 2–3 of Figure 10).
pub fn valid_node_extractors(
    examples: &[Example],
    pi: &ColumnExtractor,
    config: &UniverseConfig,
) -> Vec<NodeExtractor> {
    valid_node_extractors_with_nodes(examples, pi, config)
        .into_iter()
        .map(|(phi, _)| phi)
        .collect()
}

/// Like [`valid_node_extractors`], but also returns, for each valid extractor, the
/// node it maps every column node to: `nodes[e][k]` is `ϕ` applied to the `k`-th
/// node of `[[π]]T_e`.  Validity is exactly the never-⊥ judgement, so every entry
/// is a real node.  The fast predicate-learning path uses these to evaluate whole
/// truth vectors without re-walking the trees per tuple.
pub fn valid_node_extractors_with_nodes(
    examples: &[Example],
    pi: &ColumnExtractor,
    config: &UniverseConfig,
) -> Vec<(NodeExtractor, Vec<Vec<NodeId>>)> {
    // Pre-compute the nodes each example extracts for this column.
    let per_example_nodes: Vec<(&Hdt, Vec<NodeId>)> = examples
        .iter()
        .map(|ex| (&ex.tree, eval_column(&ex.tree, pi)))
        .collect();

    // Candidate (tag,pos) pairs for `child` steps, mined from all trees.  Sorted by
    // tag *name* so enumeration order is deterministic regardless of interning order.
    let mut seen: HashSet<(TagId, usize)> = HashSet::new();
    let mut tag_pos: Vec<(TagId, usize)> = Vec::new();
    for ex in examples {
        for id in ex.tree.ids() {
            if id == ex.tree.root() {
                continue;
            }
            let key = (ex.tree.tag(id), ex.tree.pos(id));
            if seen.insert(key) {
                tag_pos.push(key);
            }
        }
    }
    tag_pos.sort_by_key(|(t, p)| (t.as_str(), *p));

    let identity_nodes: Vec<Vec<NodeId>> = per_example_nodes
        .iter()
        .map(|(_, nodes)| nodes.clone())
        .collect();
    let mut result: Vec<(NodeExtractor, Vec<Vec<NodeId>>)> = Vec::new();
    let mut frontier: Vec<NodeExtractor> = vec![NodeExtractor::Id];
    result.push((NodeExtractor::Id, identity_nodes));

    for _ in 0..config.max_node_extractor_depth {
        let mut next: Vec<NodeExtractor> = Vec::new();
        for base in &frontier {
            // parent(base)
            let cand = NodeExtractor::parent(base.clone());
            if !result.iter().any(|(phi, _)| *phi == cand) {
                if let Some(extracted) = extract_all(&per_example_nodes, &cand) {
                    result.push((cand.clone(), extracted));
                    next.push(cand);
                    if result.len() >= config.max_extractors_per_column {
                        return result;
                    }
                }
            }
            // child(base, tag, pos)
            for (tag, pos) in &tag_pos {
                let cand = NodeExtractor::child(base.clone(), *tag, *pos);
                if result.iter().any(|(phi, _)| *phi == cand) {
                    continue;
                }
                if let Some(extracted) = extract_all(&per_example_nodes, &cand) {
                    result.push((cand.clone(), extracted));
                    next.push(cand);
                    if result.len() >= config.max_extractors_per_column {
                        return result;
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    result
}

/// Evaluates `phi` on every column node of every example; `None` as soon as any
/// evaluation is ⊥ (i.e. the extractor is not valid, rules 2–3 of Figure 10).
fn extract_all(
    per_example_nodes: &[(&Hdt, Vec<NodeId>)],
    phi: &NodeExtractor,
) -> Option<Vec<Vec<NodeId>>> {
    per_example_nodes
        .iter()
        .map(|(tree, nodes)| {
            nodes
                .iter()
                .map(|n| eval_node_extractor(tree, *n, phi))
                .collect::<Option<Vec<NodeId>>>()
        })
        .collect()
}

/// Mines the constants appearing as leaf data in the example trees (rule 4's
/// `c ∈ data(T)` side condition).
pub fn mine_constants(examples: &[Example], max: usize) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    for ex in examples {
        for d in ex.tree.data_values() {
            let v = Value::from_data(d);
            if !out.contains(&v) {
                out.push(v);
                if out.len() >= max {
                    return out;
                }
            }
        }
    }
    out
}

/// Constructs the full predicate universe for a candidate table extractor.
///
/// Predicates are returned roughly simplest-first (constant comparisons with shallow
/// extractors before deep column-to-column comparisons), which downstream solvers use
/// as a tie-breaking preference.
pub fn construct_universe(
    examples: &[Example],
    psi: &TableExtractor,
    config: &UniverseConfig,
) -> Vec<Predicate> {
    let per_column_extractors: Vec<Vec<NodeExtractor>> = psi
        .columns
        .iter()
        .map(|pi| valid_node_extractors(examples, pi, config))
        .collect();
    let constants = mine_constants(examples, config.max_constants);

    let const_ops: &[CompareOp] = if config.with_ordering {
        &[
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ]
    } else {
        &[CompareOp::Eq, CompareOp::Ne]
    };
    // Column-to-column comparisons are overwhelmingly equality joins in practice (the
    // paper's examples only ever use `=` between tuple components); restricting the
    // pairwise operators keeps the universe — and therefore the ILP — small.
    let pair_ops: &[CompareOp] = &[CompareOp::Eq, CompareOp::Ne];

    let mut universe = Vec::new();

    // Rule 4: comparisons against constants.
    for (i, extractors) in per_column_extractors.iter().enumerate() {
        for phi in extractors {
            for c in &constants {
                for op in const_ops {
                    // Ordering comparisons against non-numeric constants are rarely
                    // meaningful and blow up the universe; keep them for numbers only.
                    if matches!(
                        op,
                        CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge
                    ) && c.as_number().is_none()
                    {
                        continue;
                    }
                    universe.push(Predicate::Compare {
                        extractor: phi.clone(),
                        index: i,
                        op: *op,
                        rhs: Operand::Const(c.clone()),
                    });
                }
            }
        }
    }

    // Rule 5: comparisons between two tuple components.
    for (i, ext_i) in per_column_extractors.iter().enumerate() {
        for (j, ext_j) in per_column_extractors.iter().enumerate() {
            if i == j {
                // Comparing a column with itself through two *different* extractors is
                // still meaningful (e.g. the φ1 of Figure 3 relates t[0] and t[2] — but
                // also id/fid pairs on the same index), so we keep i == j pairs as long
                // as the extractors differ.
            }
            for phi1 in ext_i {
                for phi2 in ext_j {
                    if i == j && phi1 == phi2 {
                        continue; // trivially true under Eq
                    }
                    for op in pair_ops {
                        universe.push(Predicate::Compare {
                            extractor: phi1.clone(),
                            index: i,
                            op: *op,
                            rhs: Operand::Column {
                                extractor: phi2.clone(),
                                index: j,
                            },
                        });
                    }
                }
            }
        }
    }

    universe
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::Table;
    use mitra_hdt::generate::social_network;

    fn example() -> Example {
        Example {
            tree: social_network(2, 1),
            output: Table::from_rows(
                &["Person", "Friend-with", "years"],
                &[&["Alice", "Bob", "12"], &["Bob", "Alice", "21"]],
            ),
        }
    }

    fn name_extractor() -> ColumnExtractor {
        ColumnExtractor::pchildren(
            ColumnExtractor::children(ColumnExtractor::Input, "Person"),
            "name",
            0,
        )
    }

    #[test]
    fn identity_is_always_valid() {
        let ex = example();
        let chis = valid_node_extractors(&[ex], &name_extractor(), &UniverseConfig::default());
        assert!(chis.contains(&NodeExtractor::Id));
    }

    #[test]
    fn parent_is_valid_for_non_root_columns() {
        let ex = example();
        let chis = valid_node_extractors(&[ex], &name_extractor(), &UniverseConfig::default());
        assert!(chis.contains(&NodeExtractor::parent(NodeExtractor::Id)));
    }

    #[test]
    fn invalid_child_steps_are_rejected() {
        let ex = example();
        let chis = valid_node_extractors(&[ex], &name_extractor(), &UniverseConfig::default());
        // name nodes have no child tagged `Person`, so child(n, Person, 0) must be absent.
        assert!(!chis.contains(&NodeExtractor::child(NodeExtractor::Id, "Person", 0)));
    }

    #[test]
    fn sibling_access_via_parent_then_child_is_found() {
        let ex = example();
        let chis = valid_node_extractors(&[ex], &name_extractor(), &UniverseConfig::default());
        let sibling_id = NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "id", 0);
        assert!(
            chis.contains(&sibling_id),
            "expected sibling access in {chis:?}"
        );
    }

    #[test]
    fn constants_are_mined_from_leaves() {
        let ex = example();
        let consts = mine_constants(&[ex], 100);
        assert!(consts.contains(&Value::str("Alice")));
        assert!(consts.contains(&Value::int(12)));
    }

    #[test]
    fn universe_contains_figure3_style_predicates() {
        let ex = example();
        let pi_years = ColumnExtractor::pchildren(
            ColumnExtractor::children(
                ColumnExtractor::pchildren(
                    ColumnExtractor::children(ColumnExtractor::Input, "Person"),
                    "Friendship",
                    0,
                ),
                "Friend",
            ),
            "years",
            0,
        );
        let psi = TableExtractor::new(vec![name_extractor(), name_extractor(), pi_years]);
        let universe = construct_universe(&[ex], &psi, &UniverseConfig::default());
        assert!(!universe.is_empty());
        // φ2 of Figure 3: child(parent(t[1]), id, 0) = child(parent(t[2]), fid, 0)
        let phi2 = Predicate::Compare {
            extractor: NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "id", 0),
            index: 1,
            op: CompareOp::Eq,
            rhs: Operand::Column {
                extractor: NodeExtractor::child(NodeExtractor::parent(NodeExtractor::Id), "fid", 0),
                index: 2,
            },
        };
        assert!(
            universe.contains(&phi2),
            "universe missing the id=fid join predicate"
        );
    }

    #[test]
    fn universe_size_respects_caps() {
        let ex = example();
        let psi = TableExtractor::new(vec![name_extractor()]);
        let small = UniverseConfig {
            max_extractors_per_column: 2,
            max_constants: 2,
            with_ordering: false,
            ..Default::default()
        };
        let big = UniverseConfig::default();
        let u_small = construct_universe(std::slice::from_ref(&ex), &psi, &small);
        let u_big = construct_universe(&[ex], &psi, &big);
        assert!(u_small.len() < u_big.len());
    }
}
