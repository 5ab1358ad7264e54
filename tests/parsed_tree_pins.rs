//! Parsed trees pinned by fingerprint: FNV-1a over every node's tag name, `pos`,
//! data and parent, in arena order.  The literals were recorded before the markup
//! parsers started numbering siblings in one pass after parsing (and before the
//! arena stopped hashing `(parent, tag)` pairs per node), so any change to a
//! parsed tree's shape, numbering or data fails here.

use mitra::datagen::corpus::{hdt_to_json_text, hdt_to_xml_text};
use mitra::datagen::datasets::all_datasets;
use mitra::hdt::html::html_to_hdt;
use mitra::hdt::json::json_to_hdt;
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::Hdt;
use mitra::synth::fingerprint::{fnv1a, FNV_OFFSET};

/// FNV-1a over `(tag name, pos, data, parent)` of every node, in arena order.
/// Lengths and presence markers keep adjacent fields from running together.
fn tree_fnv(tree: &Hdt) -> u64 {
    let mut h = FNV_OFFSET;
    for id in tree.ids() {
        let tag = tree.tag_name(id);
        h = fnv1a(h, &(tag.len() as u64).to_le_bytes());
        h = fnv1a(h, tag.as_bytes());
        h = fnv1a(h, &(tree.pos(id) as u64).to_le_bytes());
        match tree.data(id) {
            Some(data) => {
                h = fnv1a(h, &(data.len() as u64).to_le_bytes());
                h = fnv1a(h, data.as_bytes());
            }
            None => h = fnv1a(h, &u64::MAX.to_le_bytes()),
        }
        let parent = tree.parent(id).map_or(u32::MAX, |p| p.0);
        h = fnv1a(h, &parent.to_le_bytes());
    }
    h
}

/// A parsed tree's node count and [`tree_fnv`].
type Pin = (usize, u64);

fn pin(tree: &Hdt) -> Pin {
    (tree.len(), tree_fnv(tree))
}

/// `(dataset, pin of its XML text parsed, pin of its JSON text parsed)` for the
/// four Table 2 datasets at scale 25.
const TABLE2_PINS: [(&str, Pin, Pin); 4] = [
    (
        "DBLP",
        (2226, 0xc6b3_ea25_bab5_c630),
        (1251, 0x8ff1_c021_61f6_f8a4),
    ),
    (
        "IMDB",
        (2351, 0xdb76_d48b_4d85_4657),
        (1351, 0x53e2_b852_f27f_c275),
    ),
    (
        "MONDIAL",
        (10576, 0x6ac1_8cc9_de36_23e9),
        (5901, 0x8609_1751_7c27_2156),
    ),
    (
        "YELP",
        (2501, 0xd5e4_022d_8092_3712),
        (1401, 0x3007_e505_3ffb_0041),
    ),
];

#[test]
fn table2_documents_parse_to_pinned_trees() {
    let datasets = all_datasets();
    assert_eq!(datasets.len(), TABLE2_PINS.len());
    let mut seen = Vec::new();
    for (spec, (name, _, _)) in datasets.iter().zip(TABLE2_PINS) {
        assert_eq!(spec.name, name);
        let (tree, _) = spec.generate(25);
        let xml = xml_to_hdt(&hdt_to_xml_text(&tree)).expect("rendered XML parses");
        let json = json_to_hdt(&hdt_to_json_text(&tree)).expect("rendered JSON parses");
        seen.push((name, pin(&xml), pin(&json)));
    }
    assert_eq!(seen, TABLE2_PINS.to_vec());
}

/// The two pages of `examples/html_scrape.rs`: the small example page and the
/// longer page the synthesized program runs on.
const HTML_SCRAPE_PAGES: [&str; 2] = [
    r#"<!DOCTYPE html>
    <html><body>
      <h1>Price list</h1>
      <table id="products">
        <tr><th scope=row>Keyboard<td class="price">45
        <tr><th scope=row>Mouse<td class="price">19
      </table>
      <ul><li>shipping is extra<li>prices in EUR</ul>
    </body></html>"#,
    r#"<html><body>
      <table id="products">
        <tr><th scope=row>Keyboard<td class="price">45</tr>
        <tr><th scope=row>Mouse<td class="price">19</tr>
        <tr><th scope=row>Monitor<td class="price">210</tr>
        <tr><th scope=row>Webcam<td class="price">60</tr>
        <tr><th scope=row>Dock<td class="price">120</tr>
      </table>
    </body></html>"#,
];

/// The pin of each page of [`HTML_SCRAPE_PAGES`], parsed.
const HTML_SCRAPE_PINS: [Pin; 2] = [(25, 0x85f7_560b_1bdc_9e88), (39, 0xf996_e1ef_95aa_d5bf)];

#[test]
fn html_scrape_pages_parse_to_pinned_trees() {
    let seen: Vec<Pin> = HTML_SCRAPE_PAGES
        .iter()
        .map(|page| pin(&html_to_hdt(page).expect("the page parses")))
        .collect();
    assert_eq!(seen, HTML_SCRAPE_PINS.to_vec());
}
