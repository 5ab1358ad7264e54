//! Programmatic tree generators used by tests, examples and benchmarks.
//!
//! The centerpiece is [`social_network`], which builds the motivating example of
//! Section 2 of the paper (persons, friendships, years), parameterized by size so the
//! same generator serves both the tiny input-output example and the million-element
//! scalability experiment (E3 in DESIGN.md).

use crate::tree::{Hdt, HdtBuilder};

/// Builds the social-network HDT of Figure 4a with `n_persons` people.
///
/// Person `i` (1-based id) is friends with persons `i+1 .. i+friends_per_person`
/// (wrapping around), and the friendship with person `j` has lasted `i*10 + j`
/// years.  With `n_persons = 2` and `friends_per_person = 1` this is essentially the
/// paper's running example.
pub fn social_network(n_persons: usize, friends_per_person: usize) -> Hdt {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    for i in 1..=n_persons {
        let person = tree.add_child(root, "Person", None);
        tree.add_child(person, "id", Some(i.to_string()));
        tree.add_child(person, "name", Some(person_name(i)));
        if friends_per_person > 0 {
            let friendship = tree.add_child(person, "Friendship", None);
            for k in 1..=friends_per_person {
                let j = (i + k - 1) % n_persons + 1;
                if j == i {
                    continue;
                }
                let friend = tree.add_child(friendship, "Friend", None);
                tree.add_child(friend, "fid", Some(j.to_string()));
                tree.add_child(friend, "years", Some((i * 10 + j).to_string()));
            }
        }
    }
    tree
}

/// Deterministic person name for id `i` ("Alice", "Bob", ... then `user<i>`).
pub fn person_name(i: usize) -> String {
    const NAMES: [&str; 8] = [
        "Alice", "Bob", "Carol", "Dave", "Erin", "Frank", "Grace", "Heidi",
    ];
    if i >= 1 && i <= NAMES.len() {
        NAMES[i - 1].to_string()
    } else {
        format!("user{i}")
    }
}

/// The expected relational rows for [`social_network`]: `(name, friend_name, years)`.
///
/// This is the ground-truth output table used to check synthesized programs end to end.
pub fn social_network_rows(n_persons: usize, friends_per_person: usize) -> Vec<[String; 3]> {
    let mut rows = Vec::new();
    for i in 1..=n_persons {
        for k in 1..=friends_per_person {
            let j = (i + k - 1) % n_persons + 1;
            if j == i {
                continue;
            }
            rows.push([person_name(i), person_name(j), (i * 10 + j).to_string()]);
        }
    }
    rows
}

/// Builds the Figure 8 example tree: nested `object` elements with `id` and `text`.
pub fn nested_objects() -> Hdt {
    HdtBuilder::new("root")
        .open("object")
        .leaf("id", "10")
        .leaf("text", "outer-a")
        .open("object")
        .leaf("id", "30")
        .leaf("text", "inner-a")
        .close()
        .close()
        .open("object")
        .leaf("id", "25")
        .leaf("text", "outer-b")
        .open("object")
        .leaf("id", "5")
        .leaf("text", "inner-b")
        .close()
        .close()
        .build()
}

/// A richer variant of [`nested_objects`] for the Figure 8 / Example 3 task with two
/// qualifying outer objects (id < 20) and two non-qualifying ones.
///
/// With a single qualifying object the synthesizer can satisfy the example using a
/// purely positional extractor and no predicate (the simplest consistent program),
/// which is not the paper's intent.  The extra records make the example
/// representative: any consistent program must learn both the id-threshold predicate
/// and the nesting constraint.
pub fn nested_objects_rich() -> Hdt {
    let records: [(&str, &str, &str, &str); 4] = [
        ("10", "outer-a", "99", "inner-a"),
        ("15", "outer-b", "98", "inner-b"),
        ("25", "outer-c", "97", "inner-c"),
        ("30", "outer-d", "96", "inner-d"),
    ];
    let mut builder = HdtBuilder::new("root");
    for (outer_id, outer_text, inner_id, inner_text) in records {
        builder = builder
            .open("object")
            .leaf("id", outer_id)
            .leaf("text", outer_text)
            .open("object")
            .leaf("id", inner_id)
            .leaf("text", inner_text)
            .close()
            .close();
    }
    builder.build()
}

/// A deep chain tree of the given depth: `root / level0 / level1 / ... ` with a single
/// data leaf at the bottom.  Useful for stressing descendant search and node-extractor
/// depth limits.
pub fn chain(depth: usize) -> Hdt {
    let mut tree = Hdt::with_root("root");
    let mut cur = tree.root();
    for d in 0..depth {
        cur = tree.add_child(cur, format!("level{d}"), None);
    }
    tree.add_child(cur, "value", Some("bottom".to_string()));
    tree
}

/// A wide tree: `n` children under the root, each with a `val` leaf holding its index.
pub fn wide(n: usize) -> Hdt {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    for i in 0..n {
        let item = tree.add_child(root, "item", None);
        tree.add_child(item, "val", Some(i.to_string()));
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_network_structure() {
        let t = social_network(4, 2);
        t.validate().unwrap();
        assert_eq!(t.children_with_tag(t.root(), "Person").len(), 4);
        let rows = social_network_rows(4, 2);
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn social_network_skips_self_friendship() {
        // With 1 person, any friendship would be with itself and must be skipped.
        let t = social_network(1, 3);
        let persons = t.children_with_tag(t.root(), "Person");
        let friendship = t.child(persons[0], "Friendship", 0).unwrap();
        assert!(t.children_with_tag(friendship, "Friend").is_empty());
        assert!(social_network_rows(1, 3).is_empty());
    }

    #[test]
    fn names_are_deterministic() {
        assert_eq!(person_name(1), "Alice");
        assert_eq!(person_name(2), "Bob");
        assert_eq!(person_name(100), "user100");
    }

    #[test]
    fn chain_has_expected_depth() {
        let t = chain(10);
        assert_eq!(t.ids().map(|id| t.node_depth(id)).max(), Some(11));
        assert_eq!(t.descendants_with_tag(t.root(), "value").len(), 1);
    }

    #[test]
    fn wide_has_expected_breadth() {
        let t = wide(50);
        assert_eq!(t.children_with_tag(t.root(), "item").len(), 50);
        assert_eq!(t.len(), 101);
    }

    #[test]
    fn nested_objects_rich_has_two_qualifying_outer_objects() {
        let t = nested_objects_rich();
        // Four outer objects, each with one nested object.
        assert_eq!(t.children_with_tag(t.root(), "object").len(), 4);
        assert_eq!(t.descendants_with_tag(t.root(), "object").len(), 8);
        // Exactly two outer ids fall below the paper's threshold of 20.
        let qualifying = t
            .children_with_tag(t.root(), "object")
            .iter()
            .filter(|&&obj| {
                t.children_with_tag(obj, "id")
                    .first()
                    .and_then(|&id| t.data(id))
                    .and_then(|d| d.parse::<i64>().ok())
                    .is_some_and(|id| id < 20)
            })
            .count();
        assert_eq!(qualifying, 2);
    }

    #[test]
    fn nested_objects_matches_figure8_shape() {
        let t = nested_objects();
        assert_eq!(t.descendants_with_tag(t.root(), "object").len(), 4);
        assert_eq!(t.descendants_with_tag(t.root(), "text").len(), 4);
    }
}
