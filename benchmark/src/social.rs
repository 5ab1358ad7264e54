//! Seeded social-network documents for the `bulk_xml` workload, with their
//! ground-truth tables.
//!
//! The text is attribute-style XML in the shape of the paper's Figure 2a:
//!
//! ```text
//! <network>
//!   <Person id="p1" name="Ada Okafor">
//!     <Friendship>
//!       <Friend fid="p3" years="12"/>
//!       <Friend fid="p2" years="40"/>
//!     </Friendship>
//!   </Person>
//! </network>
//! ```
//!
//! Every person has the same number of friends, drawn from the other persons
//! without repetition.  The ground truth is built from the same draws as the text, by
//! code that never looks at a parsed tree or a synthesized program.

use crate::util::SplitMix64;
use mitra_dsl::{Table, Value};
use mitra_migrate::{Column, Schema, TableSchema};

const FIRST: [&str; 16] = [
    "Ada", "Bram", "Chiara", "Dmitri", "Esme", "Farid", "Greta", "Hiro", "Ines", "Jonas", "Kemi",
    "Lars", "Mei", "Nadia", "Omar", "Priya",
];
const LAST: [&str; 16] = [
    "Okafor",
    "Lindqvist",
    "Moreau",
    "Tanaka",
    "Silva",
    "Novak",
    "Haddad",
    "Kowalski",
    "Byrne",
    "Castillo",
    "Ivanova",
    "Mensah",
    "Rossi",
    "Sato",
    "Weber",
    "Yilmaz",
];

/// A generated document and its expected tables.
#[derive(Debug, Clone)]
pub struct SocialDoc {
    pub text: String,
    /// `person(pid, name)`.
    pub person: Table,
    /// `friendship(pid, fid, years)`.
    pub friendship: Table,
    /// Internal nodes of the parsed document (root, and per person the
    /// `Person`, `Friendship` and `Friend` elements).
    pub elements: u64,
}

/// The relational target: `person(pid PK, name)` and
/// `friendship(pid → person, fid → person, years)`.
pub fn schema() -> Schema {
    Schema::new()
        .with_table(
            TableSchema::new("person", vec![Column::text("pid"), Column::text("name")])
                .with_primary_key(&["pid"]),
        )
        .with_table(
            TableSchema::new(
                "friendship",
                vec![
                    Column::text("pid"),
                    Column::text("fid"),
                    Column::integer("years"),
                ],
            )
            .with_foreign_key(&["pid"], "person", &["pid"])
            .with_foreign_key(&["fid"], "person", &["pid"]),
        )
}

/// Generates a network of `persons` persons with `friends` friends each from
/// `seed` (`persons > friends`).
pub fn generate(persons: usize, friends: usize, seed: u64) -> SocialDoc {
    assert!(
        persons > friends,
        "every person needs {friends} distinct friends"
    );
    let mut rng = SplitMix64::new(seed);
    let mut text = String::with_capacity(persons * 160);
    text.push_str("<network>\n");
    let mut person = Table::new(vec!["pid".into(), "name".into()]);
    let mut friendship = Table::new(vec!["pid".into(), "fid".into(), "years".into()]);
    for i in 1..=persons {
        let pid = format!("p{i}");
        let name = format!(
            "{} {}",
            FIRST[rng.below(FIRST.len())],
            LAST[rng.below(LAST.len())]
        );
        text.push_str(&format!(
            "  <Person id=\"{pid}\" name=\"{name}\">\n    <Friendship>\n"
        ));
        person.push(vec![Value::from_data(&pid), Value::from_data(&name)]);
        let mut chosen: Vec<usize> = Vec::with_capacity(friends);
        while chosen.len() < friends {
            let j = 1 + rng.below(persons);
            if j != i && !chosen.contains(&j) {
                chosen.push(j);
            }
        }
        for j in chosen {
            let fid = format!("p{j}");
            let years = 1 + rng.below(60);
            text.push_str(&format!(
                "      <Friend fid=\"{fid}\" years=\"{years}\"/>\n"
            ));
            friendship.push(vec![
                Value::from_data(&pid),
                Value::from_data(&fid),
                Value::from_data(&years.to_string()),
            ]);
        }
        text.push_str("    </Friendship>\n  </Person>\n");
    }
    text.push_str("</network>\n");
    SocialDoc {
        text,
        person,
        friendship,
        elements: 1 + (persons * (2 + friends)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_hdt::{Hdt, NodeId};

    fn rows(table: &Table) -> Vec<Vec<String>> {
        table
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect()
    }

    #[test]
    fn three_person_ground_truth_matches_the_hand_written_tables() {
        let doc = generate(3, 2, 7);
        assert_eq!(
            doc.text,
            "<network>\n\
             \x20 <Person id=\"p1\" name=\"Hiro Rossi\">\n    <Friendship>\n\
             \x20     <Friend fid=\"p2\" years=\"6\"/>\n\
             \x20     <Friend fid=\"p3\" years=\"44\"/>\n\
             \x20   </Friendship>\n  </Person>\n\
             \x20 <Person id=\"p2\" name=\"Mei Weber\">\n    <Friendship>\n\
             \x20     <Friend fid=\"p1\" years=\"18\"/>\n\
             \x20     <Friend fid=\"p3\" years=\"41\"/>\n\
             \x20   </Friendship>\n  </Person>\n\
             \x20 <Person id=\"p3\" name=\"Priya Sato\">\n    <Friendship>\n\
             \x20     <Friend fid=\"p2\" years=\"7\"/>\n\
             \x20     <Friend fid=\"p1\" years=\"40\"/>\n\
             \x20   </Friendship>\n  </Person>\n\
             </network>\n"
        );
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            rows(&doc.person),
            vec![
                s(&["p1", "Hiro Rossi"]),
                s(&["p2", "Mei Weber"]),
                s(&["p3", "Priya Sato"]),
            ]
        );
        assert_eq!(
            rows(&doc.friendship),
            vec![
                s(&["p1", "p2", "6"]),
                s(&["p1", "p3", "44"]),
                s(&["p2", "p1", "18"]),
                s(&["p2", "p3", "41"]),
                s(&["p3", "p2", "7"]),
                s(&["p3", "p1", "40"]),
            ]
        );
        assert_eq!(doc.elements, 1 + 3 * 4);
    }

    /// Reads the tables back out of the parsed text with a plain tree walk.
    fn walk(tree: &Hdt) -> (Table, Table) {
        let leaf = |n: NodeId, tag: &str| {
            let c = tree.child(n, tag, 0).expect("attribute present");
            Value::from_data(tree.data(c).expect("attribute value"))
        };
        let mut person = Table::new(vec!["pid".into(), "name".into()]);
        let mut friendship = Table::new(vec!["pid".into(), "fid".into(), "years".into()]);
        for &p in tree.children_with_tag(tree.root(), "Person") {
            person.push(vec![leaf(p, "id"), leaf(p, "name")]);
            for &fs in tree.children_with_tag(p, "Friendship") {
                for &f in tree.children_with_tag(fs, "Friend") {
                    friendship.push(vec![leaf(p, "id"), leaf(f, "fid"), leaf(f, "years")]);
                }
            }
        }
        (person, friendship)
    }

    #[test]
    fn ground_truth_agrees_with_the_parsed_text() {
        let doc = generate(200, 2, 11);
        let tree = mitra_hdt::xml::xml_to_hdt(&doc.text).expect("generated XML parses");
        let (person, friendship) = walk(&tree);
        assert!(person.same_bag(&doc.person));
        assert!(friendship.same_bag(&doc.friendship));
        assert_eq!(tree.element_count() as u64, doc.elements);
    }

    #[test]
    fn seeds_determine_the_document() {
        assert_eq!(generate(50, 2, 3).text, generate(50, 2, 3).text);
        assert_ne!(generate(50, 2, 3).text, generate(50, 2, 4).text);
    }
}
