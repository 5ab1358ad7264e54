//! Property tests for the interned, indexed HDT arena:
//!
//! * the indexed `descendants_with_tag` / `children_with_tag` (pre-order range scan
//!   and tag-sorted child array) must agree with the naive subtree/child-list
//!   traversals on random trees, for every node and every tag: trees built in
//!   document order, trees whose children are added to earlier parents, and trees
//!   with wide nodes of many distinct tags;
//! * a node's `pos`, which the index derives, is the number of its earlier same-tag
//!   siblings, counted in its parent's child list, and `child` finds it;
//! * the pre-order numbering must nest subtrees correctly;
//! * the flat arena answers every node's children, data and leafness from parent
//!   links, child counts and one text buffer: `children` equals a naive scan of the
//!   parent links and, for built trees, the ids `add_child` returned, and equality
//!   ignores where the parsers wrote each datum;
//! * interning must round-trip every tag produced by the XML, JSON and HTML parsers.

use mitra::hdt::html::html_to_hdt;
use mitra::hdt::json::json_to_hdt;
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::{Hdt, NodeId};
use mitra::intern;
use proptest::prelude::*;

/// Strategy for small random trees built in document order through `add_child`,
/// with queries in between.
fn random_tree() -> impl Strategy<Value = Hdt> {
    let ops = prop::collection::vec((0u8..4, 0usize..5, 0usize..50), 1..60);
    ops.prop_map(|ops| {
        let tags = ["item", "group", "entry", "field", "misc"];
        let mut tree = Hdt::with_root("root");
        let mut stack = vec![tree.root()];
        for (kind, tag_idx, val) in ops {
            let top = *stack.last().unwrap();
            match kind {
                0 => {
                    let id = tree.add_child(top, tags[tag_idx], None);
                    stack.push(id);
                }
                1 => {
                    tree.add_child(top, tags[tag_idx], Some(val.to_string()));
                }
                2 => {
                    // Interleave a query so the index gets built and then invalidated
                    // by the next mutation — the staleness path must stay correct.
                    let _ = tree.descendants_with_tag(top, tags[tag_idx]).len();
                }
                _ => {
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
            }
        }
        tree
    })
}

/// A tree and what each `add_child` call was given and returned:
/// `(parent, child, data)`, in call order.
#[derive(Debug, Clone)]
struct Built {
    tree: Hdt,
    calls: Vec<(NodeId, NodeId, Option<String>)>,
}

/// Strategy for random trees built out of document order: every new node goes
/// under any node created so far, with a query now and then so the index is built
/// and then invalidated.  Tags come from an alphabet of 40.
fn scattered_build() -> impl Strategy<Value = Built> {
    let ops = prop::collection::vec((0u8..5, 0usize..1000, 0usize..40, 0usize..4), 1..80);
    ops.prop_map(|ops| {
        let mut tree = Hdt::with_root("root");
        let mut calls = Vec::new();
        for (kind, parent, tag, pos) in ops {
            let parent = NodeId((parent % tree.len()) as u32);
            let tag = format!("s{tag}");
            let data = match kind {
                0..=2 => None,
                3 => Some(pos.to_string()),
                _ => {
                    let _ = tree.children_with_tag(parent, tag.as_str()).len();
                    continue;
                }
            };
            let child = tree.add_child(parent, tag.as_str(), data.clone());
            calls.push((parent, child, data));
        }
        Built { tree, calls }
    })
}

/// The trees of [`scattered_build`].
fn scattered_tree() -> impl Strategy<Value = Hdt> {
    scattered_build().prop_map(|built| built.tree)
}

/// Strategy for HTML fragments: two to four top-level elements (so the parser
/// puts a synthetic root above the first through `wrap_root`), holding text,
/// attributes, implicitly closed items and nested elements.  No piece opens a
/// `div`, `ul` or `section`, so each top-level element's closing tag closes it.
fn html_fragment() -> impl Strategy<Value = String> {
    let pieces = [
        "<li>one",
        "<li>two",
        "<p>para",
        "<b class=x>bold</b>",
        " tail ",
        "<br>",
        "<i>in <u>deep</u> out</i>",
        "<script> s() </script>",
    ];
    let element =
        (0usize..3, prop::collection::vec(0..pieces.len(), 0..6)).prop_map(move |(name, picks)| {
            let name = ["div", "ul", "section"][name];
            let body: String = picks.iter().map(|&i| pieces[i]).collect();
            format!("<{name} id=t>{body}</{name}>")
        });
    prop::collection::vec(element, 2..5).prop_map(|elements| elements.concat())
}

/// The arena's answers against its parent links: `children(n)` is every node
/// whose parent is `n`, in arena order, `is_leaf(n)` holds exactly when there is
/// none, and a clone equals the tree and validates.
fn assert_arena_consistent(tree: &Hdt) -> Result<(), TestCaseError> {
    prop_assert!(tree.validate().is_ok());
    for id in tree.ids() {
        let naive: Vec<NodeId> = tree.ids().filter(|&c| tree.parent(c) == Some(id)).collect();
        prop_assert!(tree.children(id) == naive.as_slice(), "children({})", id);
        prop_assert_eq!(tree.is_leaf(id), naive.is_empty());
    }
    let clone = tree.clone();
    prop_assert!(clone == *tree);
    prop_assert!(clone.validate().is_ok());
    Ok(())
}

/// Strategy for trees with wide nodes: a root and a few internal nodes, each with
/// up to 200 children drawn from 64 tags, with every child added to a random one
/// of them.
fn wide_tree() -> impl Strategy<Value = Hdt> {
    let children = prop::collection::vec((0usize..4, 0usize..64), 1..200);
    (1usize..4, children).prop_map(|(parents, children)| {
        let mut tree = Hdt::with_root("root");
        let mut wide = vec![tree.root()];
        for _ in 1..parents {
            let root = tree.root();
            wide.push(tree.add_child(root, "wide", None));
        }
        for (parent, tag) in children {
            let tag = format!("w{tag}");
            tree.add_child(wide[parent % wide.len()], tag.as_str(), None);
        }
        tree
    })
}

/// Checks every indexed lookup against its naive scan, for every node and tag.
fn assert_lookups_agree(tree: &Hdt) -> Result<(), TestCaseError> {
    let naive_positions: Vec<usize> = tree.ids().map(|id| naive_pos(tree, id)).collect();
    for id in tree.ids() {
        prop_assert!(tree.pos(id) == naive_positions[id.index()], "pos({})", id);
        for tag in all_tags(tree) {
            let indexed: Vec<NodeId> = tree.children_with_tag(id, tag).to_vec();
            let naive = scan_children(tree, id, tag);
            prop_assert!(indexed == naive, "children({}, {})", id, tag);
            for pos in 0..4usize {
                let with_pos = naive
                    .iter()
                    .copied()
                    .find(|c| naive_positions[c.index()] == pos);
                prop_assert_eq!(tree.child(id, tag, pos), with_pos);
            }
            let descendants = tree.descendants_with_tag(id, tag).to_vec();
            prop_assert!(
                descendants == walk_descendants(tree, id, tag),
                "descendants({}, {})",
                id,
                tag
            );
        }
    }
    Ok(())
}

/// Strict descendants of `id` tagged `tag`, by an explicit-stack subtree walk in
/// pre-order: the reference for the indexed range scan.
fn walk_descendants(tree: &Hdt, id: NodeId, tag: mitra::TagId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = tree.children(id).iter().rev().copied().collect();
    while let Some(n) = stack.pop() {
        if tree.tag(n) == tag {
            out.push(n);
        }
        stack.extend(tree.children(n).iter().rev());
    }
    out
}

/// How many of `id`'s siblings before it share its tag, by scanning its parent's
/// child list (0 for the root): the reference for `Hdt::pos`.
fn naive_pos(tree: &Hdt, id: NodeId) -> usize {
    let Some(parent) = tree.parent(id) else {
        return 0;
    };
    let earlier = tree.children(parent).iter().take_while(|&&c| c != id);
    earlier.filter(|&&c| tree.tag(c) == tree.tag(id)).count()
}

/// Children of `id` tagged `tag`, by scanning its child list: the reference for
/// the children-by-tag map.
fn scan_children(tree: &Hdt, id: NodeId, tag: mitra::TagId) -> Vec<NodeId> {
    let children = tree.children(id).iter().copied();
    children.filter(|&c| tree.tag(c) == tag).collect()
}

fn all_tags(tree: &Hdt) -> Vec<mitra::TagId> {
    let mut tags = tree.tags();
    // Also query a tag that never occurs in the tree: both implementations must
    // agree on the empty answer.
    tags.push(intern::intern("no-such-tag-anywhere"));
    tags
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_descendants_agree_with_naive_walk(tree in random_tree()) {
        for id in tree.ids() {
            for tag in all_tags(&tree) {
                let indexed: Vec<NodeId> = tree.descendants_with_tag(id, tag).to_vec();
                let naive = walk_descendants(&tree, id, tag);
                prop_assert!(
                    indexed == naive,
                    "descendants({}, {}) diverged: {:?} vs {:?}", id, tag, indexed, naive
                );
            }
        }
    }

    #[test]
    fn indexed_children_agree_with_naive_scan(tree in random_tree()) {
        for id in tree.ids() {
            for tag in all_tags(&tree) {
                let indexed: Vec<NodeId> = tree.children_with_tag(id, tag).to_vec();
                let naive = scan_children(&tree, id, tag);
                prop_assert!(
                    indexed == naive,
                    "children({}, {}) diverged: {:?} vs {:?}", id, tag, indexed, naive
                );
                // child() must agree with position-filtering the naive result.
                for pos in 0..3usize {
                    let via_child = tree.child(id, tag, pos);
                    let via_naive = naive.iter().copied().find(|&c| naive_pos(&tree, c) == pos);
                    prop_assert_eq!(via_child, via_naive);
                }
            }
        }
    }

    #[test]
    fn indexed_lookups_agree_with_naive_scans_out_of_document_order(tree in scattered_tree()) {
        assert_lookups_agree(&tree)?;
    }

    #[test]
    fn indexed_lookups_agree_with_naive_scans_on_wide_nodes(tree in wide_tree()) {
        assert_lookups_agree(&tree)?;
    }

    #[test]
    fn add_child_counts_earlier_same_tag_siblings(
        ops in prop::collection::vec((any::<bool>(), 0usize..1000, 0usize..6), 1..80)
    ) {
        // Children added under any node so far, with a `pos` read now and then, so
        // the index is built and then invalidated by the next `add_child`.
        let mut tree = Hdt::with_root("root");
        for (read_now, parent, tag) in ops {
            let parent = NodeId((parent % tree.len()) as u32);
            let tag = intern::intern(&format!("c{tag}"));
            let earlier = scan_children(&tree, parent, tag).len();
            let id = tree.add_child(parent, tag, None);
            if read_now {
                prop_assert_eq!(tree.pos(id), earlier);
            }
        }
        for id in tree.ids() {
            prop_assert!(tree.pos(id) == naive_pos(&tree, id), "pos({})", id);
        }
    }

    #[test]
    fn arena_children_data_and_leaves_agree_with_add_child(built in scattered_build()) {
        let tree = &built.tree;
        assert_arena_consistent(tree)?;
        for id in tree.ids() {
            let added: Vec<NodeId> = built
                .calls
                .iter()
                .filter(|call| call.0 == id)
                .map(|call| call.1)
                .collect();
            prop_assert!(tree.children(id) == added.as_slice(), "children({})", id);
        }
        for (_, child, data) in &built.calls {
            prop_assert_eq!(tree.data(*child), data.as_deref());
        }
    }

    #[test]
    fn parsed_html_fragments_keep_a_consistent_arena(html in html_fragment()) {
        let tree = html_to_hdt(&html).expect("a fragment parses");
        prop_assert_eq!(tree.tag_name(tree.root()), "html");
        assert_arena_consistent(&tree)?;
    }

    #[test]
    fn preorder_numbering_nests_subtrees(tree in random_tree()) {
        let order = tree.preorder();
        prop_assert_eq!(order.len(), tree.len());
        for id in tree.ids() {
            let lo = tree.preorder_number(id);
            let hi = tree.subtree_end(id);
            prop_assert!(lo < hi);
            // Every child's interval is strictly inside the parent's.
            for &c in tree.children(id) {
                prop_assert!(tree.preorder_number(c) > lo);
                prop_assert!(tree.subtree_end(c) <= hi);
            }
        }
        prop_assert_eq!(tree.subtree_end(tree.root()) as usize, tree.len());
    }

    #[test]
    fn mixed_pos_assignment_still_validates(tree in random_tree()) {
        prop_assert!(tree.validate().is_ok());
    }

    #[test]
    fn interning_roundtrips_xml_parser_tags(names in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 1..6)) {
        // Build an XML document whose element names are the random identifiers.
        let mut doc = String::from("<root>");
        for n in &names {
            doc.push_str(&format!("<{n} attr_{n}=\"v\">x</{n}>"));
        }
        doc.push_str("</root>");
        let tree = xml_to_hdt(&doc).expect("generated XML parses");
        // Every tag in the tree resolves back to a string that re-interns to the
        // same symbol, and the parsed element names are among them.
        for tag in tree.tags() {
            prop_assert_eq!(intern::intern(tag.as_str()), tag);
        }
        for n in &names {
            let sym = intern::intern(n);
            prop_assert!(tree.tags().contains(&sym), "tag {} lost in XML ingestion", n);
            let attr = intern::intern(&format!("attr_{n}"));
            prop_assert!(tree.tags().contains(&attr), "attribute tag attr_{} lost", n);
        }
    }

    #[test]
    fn interning_roundtrips_json_parser_tags(keys in prop::collection::vec("[a-z][a-z0-9_]{0,8}", 1..6)) {
        let mut doc = String::from("{");
        for (i, k) in keys.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"{k}\": [1, 2]"));
        }
        doc.push('}');
        let tree = json_to_hdt(&doc).expect("generated JSON parses");
        for tag in tree.tags() {
            prop_assert_eq!(intern::intern(tag.as_str()), tag);
        }
        for k in &keys {
            prop_assert!(
                tree.tags().contains(&intern::intern(k)),
                "key {} lost in JSON ingestion", k
            );
        }
    }

    #[test]
    fn interning_roundtrips_html_parser_tags(names in prop::collection::vec("[a-z]{1,8}", 1..5)) {
        let mut doc = String::from("<html><body>");
        for n in &names {
            doc.push_str(&format!("<{n}>text</{n}>"));
        }
        doc.push_str("</body></html>");
        let tree = html_to_hdt(&doc).expect("generated HTML parses");
        for tag in tree.tags() {
            prop_assert_eq!(intern::intern(tag.as_str()), tag);
        }
        // The HTML parser lowercases names; ours are already lowercase.
        for n in &names {
            prop_assert!(
                tree.tags().contains(&intern::intern(n)),
                "element {} lost in HTML ingestion", n
            );
        }
    }
}

#[test]
fn equality_ignores_where_each_datum_was_written() {
    // The parser writes the `text` leaf's data when `a` closes, after `c`'s;
    // `add_child` in arena order writes it first.
    let parsed = xml_to_hdt(r#"<a>x<b c="1"/>y</a>"#).expect("well-formed XML");
    let mut built = Hdt::with_root("a");
    let root = built.root();
    built.add_child(root, "text", Some("xy".into()));
    let b = built.add_child(root, "b", None);
    built.add_child(b, "c", Some("1".into()));
    assert_eq!(parsed, built);
    let mut other = built.clone();
    other.add_child(b, "c", Some("2".into()));
    assert_ne!(parsed, other);
}
