//! One digest over the parse results of a fixed input set: the Table 2 datasets
//! at three scales as XML and as JSON text, the mixer corpus line by line, 1,400
//! fuzz scenarios and the malformed fixtures.  For each input it folds either the
//! error's text or every node's tag name, `pos`, data, parent and child list, in
//! arena order, so it pins what `tests/parsed_tree_pins.rs` does not: child
//! order, error texts, and the corpus, fuzz and malformed inputs.
//!
//! The literal was computed by this file's own code against the parsers as they
//! stood before the tree arena stopped giving each node its own child list and
//! data string.  A change that alters parsing on purpose recomputes it the same
//! way from a checkout of its parent commit (see CHANGES.md).

use mitra::datagen::corpus::{hdt_to_json_text, hdt_to_xml_text};
use mitra::datagen::datasets::all_datasets;
use mitra::datagen::fuzz::{mixed_corpus, scenario, CorpusMix, Payload, ScenarioKind};
use mitra::hdt::html::html_to_hdt;
use mitra::hdt::json::json_to_hdt;
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::{Hdt, HdtError};
use mitra::synth::fingerprint::{fnv1a, FNV_OFFSET};
use std::path::{Path, PathBuf};

/// The digest of every input, parsed by the parsers of the commit before the
/// flat arena.
const PARSE_DIGEST: u64 = 0xcb5e_dfa2_3741_e7b3;

/// Stack for the parsing threads: the `deep.*` fixtures recurse to the depth
/// limit, as in `tests/robustness.rs`.
const PARSE_STACK: usize = 64 << 20;

/// The fuzz suite seed `fuzz_smoke` runs by default.
const FUZZ_SEED: u64 = 0x004D_177A;

/// An FNV-1a state folded one length-prefixed field at a time, so adjacent
/// fields cannot run together.
struct Digest(u64);

impl Digest {
    fn int(&mut self, n: u64) {
        self.0 = fnv1a(self.0, &n.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.int(s.len() as u64);
        self.0 = fnv1a(self.0, s.as_bytes());
    }

    /// Folds one parse result: its label, then the error's text or the tree.
    fn parsed(&mut self, label: &str, parsed: Result<Hdt, HdtError>) {
        self.text(label);
        match parsed {
            Err(e) => {
                self.int(0);
                self.text(&e.to_string());
            }
            Ok(tree) => {
                self.int(1);
                self.tree(&tree);
            }
        }
    }

    /// Every node's tag name, `pos`, data, parent and children, in arena order.
    fn tree(&mut self, tree: &Hdt) {
        self.int(tree.len() as u64);
        for id in tree.ids() {
            self.text(tree.tag_name(id));
            self.int(tree.pos(id) as u64);
            match tree.data(id) {
                Some(data) => self.text(data),
                None => self.int(u64::MAX),
            }
            self.int(tree.parent(id).map_or(u64::MAX, |p| u64::from(p.0)));
            let children = tree.children(id);
            self.int(children.len() as u64);
            for c in children {
                self.int(u64::from(c.0));
            }
        }
    }
}

/// Folds the Table 2 datasets, the mixer corpus and the fuzz scenarios.
fn generated_inputs(d: &mut Digest) {
    for spec in all_datasets() {
        for scale in [3, 25, 200] {
            let (tree, _) = spec.generate(scale);
            let label = format!("{} {scale}", spec.name);
            d.parsed(&label, xml_to_hdt(&hdt_to_xml_text(&tree)));
            d.parsed(&label, json_to_hdt(&hdt_to_json_text(&tree)));
        }
    }
    let corpus = mixed_corpus(&CorpusMix {
        seed: 11,
        docs: 400,
        malformed_pct: 10,
        promo_pct: 20,
    });
    for line in corpus.text.lines() {
        d.parsed("mixer", xml_to_hdt(line));
    }
    for id in 0..1_400 {
        let label = format!("scenario {id}");
        match scenario(FUZZ_SEED, id).payload {
            Payload::Structured(example) => {
                d.parsed(&label, xml_to_hdt(&hdt_to_xml_text(&example.tree)));
                d.parsed(&label, json_to_hdt(&hdt_to_json_text(&example.tree)));
            }
            Payload::Malformed { kind, text } => {
                let parsed = match kind {
                    ScenarioKind::MalformedJson => json_to_hdt(&text),
                    ScenarioKind::MalformedHtml => html_to_hdt(&text),
                    _ => xml_to_hdt(&text),
                };
                d.parsed(&label, parsed);
            }
        }
    }
}

fn malformed_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/malformed")
}

/// Parses one malformed fixture by its extension, as `tests/robustness.rs`
/// does; text that is not UTF-8 folds a marker instead.
fn fold_fixture(d: &mut Digest, name: &str, bytes: &[u8]) {
    let Ok(text) = std::str::from_utf8(bytes) else {
        d.text(name);
        d.text("invalid UTF-8");
        return;
    };
    let parsed = match name.rsplit('.').next() {
        Some("json") => json_to_hdt(text),
        Some("html") | Some("htm") => html_to_hdt(text),
        _ => xml_to_hdt(text),
    };
    d.parsed(name, parsed);
}

/// Runs `f` in a big-stack thread on a digest that starts from `state`, and
/// returns the state `f` leaves.
fn in_big_stack(f: impl FnOnce(&mut Digest) + Send + 'static, state: u64) -> u64 {
    std::thread::Builder::new()
        .stack_size(PARSE_STACK)
        .spawn(move || {
            let mut d = Digest(state);
            f(&mut d);
            d.0
        })
        .expect("spawn a big-stack thread")
        .join()
        .expect("no parser panics")
}

#[test]
fn parse_results_match_the_digest_pinned_before_the_flat_arena() {
    let mut state = in_big_stack(generated_inputs, FNV_OFFSET);
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(malformed_dir())
        .expect("the malformed fixtures exist")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    fixtures.sort();
    assert_eq!(fixtures.len(), 10);
    for path in fixtures {
        let name = path
            .file_name()
            .expect("a file name")
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&path).expect("a readable fixture");
        state = in_big_stack(move |d| fold_fixture(d, &name, &bytes), state);
    }
    assert_eq!(state, PARSE_DIGEST, "digest {state:#018x}");
}
