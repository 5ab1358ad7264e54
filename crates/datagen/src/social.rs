//! The motivating example (Section 2) as a scalable workload.
//!
//! Re-exports the generator from `mitra-hdt` and adds helpers used by the scalability
//! experiment (E3): building documents with a target *element count* and rendering
//! them as XML text, mirroring the paper's "XML document with more than 1 million
//! elements" measurement.

use crate::corpus::hdt_to_xml_text;
use mitra_dsl::{Table, Value};
use mitra_hdt::Hdt;
use mitra_synth::synthesize::Example;

pub use mitra_hdt::generate::{person_name, social_network, social_network_rows};

/// Builds a social-network document with approximately `target_elements` elements
/// (internal nodes).  Each person contributes 2 internal nodes (Person, Friendship)
/// plus `friends` Friend nodes.
pub fn social_network_with_elements(target_elements: usize, friends: usize) -> Hdt {
    let per_person = 2 + friends;
    let persons = (target_elements / per_person).max(2);
    social_network(persons, friends)
}

/// The canonical input–output example used to train the motivating-example program
/// (three persons, one friendship each, which is representative enough to pin down the
/// intended program).
pub fn training_example() -> Example {
    let tree = social_network(3, 1);
    let mut output = Table::new(vec![
        "Person".to_string(),
        "Friend-with".to_string(),
        "years".to_string(),
    ]);
    for row in social_network_rows(3, 1) {
        output.push(row.iter().map(|s| Value::from_data(s)).collect());
    }
    Example::new(tree, output)
}

/// Expected output table for a document produced by [`social_network`].
pub fn expected_table(persons: usize, friends: usize) -> Table {
    let mut output = Table::new(vec![
        "Person".to_string(),
        "Friend-with".to_string(),
        "years".to_string(),
    ]);
    for row in social_network_rows(persons, friends) {
        output.push(row.iter().map(|s| Value::from_data(s)).collect());
    }
    output
}

/// Renders a social-network document as XML text (for size measurements and parser
/// stress tests).
///
/// Every leaf value becomes element *text content*, so after parsing, values sit one
/// level deeper than in the programmatic HDT (inside a `text` node).
pub fn social_network_xml(persons: usize, friends: usize) -> String {
    hdt_to_xml_text(&social_network(persons, friends))
}

/// Renders a social-network document as *attribute-style* XML text, matching the shape
/// of Figure 2a in the paper (ids, names, fids and years are attributes).
///
/// Parsing this text with the XML plug-in yields an HDT identical in shape to
/// [`social_network`], because the Section 3 mapping turns attributes into leaf
/// children — which is exactly why the paper's Figure 3 program uses node extractors of
/// depth three.
pub fn social_network_xml_attrs(persons: usize, friends: usize) -> String {
    let mut out = String::from("<root>\n");
    for i in 1..=persons {
        out.push_str(&format!(
            "  <Person id=\"{i}\" name=\"{}\">\n    <Friendship>\n",
            person_name(i)
        ));
        for k in 1..=friends {
            let j = (i + k - 1) % persons + 1;
            if j == i {
                continue;
            }
            out.push_str(&format!(
                "      <Friend fid=\"{j}\" years=\"{}\"/>\n",
                i * 10 + j
            ));
        }
        out.push_str("    </Friendship>\n  </Person>\n");
    }
    out.push_str("</root>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_target_is_approximately_met() {
        let t = social_network_with_elements(3_000, 1);
        let elements = t.element_count();
        assert!((2_400..=3_600).contains(&elements), "got {elements}");
    }

    #[test]
    fn training_example_is_consistent() {
        let ex = training_example();
        assert_eq!(ex.output.len(), 3);
        assert_eq!(ex.output.arity(), 3);
        ex.tree.validate().unwrap();
    }

    #[test]
    fn expected_table_matches_rows_helper() {
        let t = expected_table(4, 2);
        assert_eq!(t.len(), social_network_rows(4, 2).len());
    }

    #[test]
    fn xml_rendering_parses_back() {
        let xml = social_network_xml(5, 2);
        let tree = mitra_hdt::xml::xml_to_hdt(&xml).unwrap();
        assert_eq!(tree.tag_name(tree.root()), "root");
    }

    #[test]
    fn attribute_xml_parses_to_the_programmatic_hdt_shape() {
        let xml = social_network_xml_attrs(3, 1);
        let tree = mitra_hdt::xml::xml_to_hdt(&xml).unwrap();
        let reference = social_network(3, 1);
        // Same multiset of tags and the same leaf data values: attribute-style XML is
        // shape-equivalent to the programmatic tree.
        let mut tags_a = tree.tags();
        let mut tags_b = reference.tags();
        tags_a.sort();
        tags_b.sort();
        assert_eq!(tags_a, tags_b);
        let mut data_a: Vec<String> = tree.data_values().iter().map(|s| s.to_string()).collect();
        let mut data_b: Vec<String> = reference
            .data_values()
            .iter()
            .map(|s| s.to_string())
            .collect();
        data_a.sort();
        data_b.sort();
        assert_eq!(data_a, data_b);
    }
}
