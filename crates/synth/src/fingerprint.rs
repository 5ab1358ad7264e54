//! Document-shape fingerprints (DESIGN.md §12).
//!
//! A corpus-scale migration (millions of documents sharing a handful of
//! layouts) must not pay the ~seconds synthesis cost per document when
//! execution costs milliseconds.  The corpus service therefore synthesizes a
//! program once per document *shape* and streams it over every document with
//! that shape.  The shape of an HDT is its set of root-to-node **tag paths**:
//! two documents with the same path set — no matter how many records each
//! holds — admit exactly the same column extractors (`children`/`pchildren`
//! chains are tag-path programs), so a program learned on one executes on the
//! other.
//!
//! Fingerprints are computed over the interned-tag structure but hashed via the
//! stable *tag names*, not the process-local [`TagId`](mitra_hdt::TagId)
//! values, so a fingerprint written to a checkpoint journal in one process
//! matches the one recomputed after a crash in a fresh process.  The hash is a
//! 64-bit FNV-1a fold over the sorted path-hash set: deterministic, ordering-
//! and multiplicity-insensitive, with no dependency beyond `mitra-hdt`.  The
//! path hashes come from one forward pass over the arena's parent links, so
//! fingerprinting a document never builds its navigation index.

use mitra_hdt::Hdt;

/// The 64-bit FNV-1a offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a 64-bit FNV-1a state; `fnv1a(FNV_OFFSET, bytes)` is
/// the standard FNV-1a hash of `bytes`.  Shape fingerprints and the corpus
/// journal's corpus and shard hashes all fold through this one step.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Extends an FNV-1a state with one path segment (a tag name plus a
/// separator, so `ab`/`c` and `a`/`bc` hash differently).
fn fnv_segment(h: u64, tag: &str) -> u64 {
    fnv1a(fnv1a(h, tag.as_bytes()), &[0x1f])
}

/// A 64-bit shape fingerprint: the FNV-1a fold of a document's sorted
/// tag-path-hash set.  Stable across processes and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fixed-width lowercase hex rendering, used by journals and ledgers.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Computes the shape fingerprint of a document: hash the root-to-node tag
/// path of every node, collect the distinct path hashes, and fold them in
/// sorted order.  Every parent precedes its children in the arena, so one
/// forward pass extends each parent's path hash by its child's tag, with no
/// recursion however deep the document.  It reads only the arena (parent links
/// and tag names) and leaves the tree's navigation index unbuilt: a resumed
/// corpus run fingerprints checkpointed shards' documents without executing
/// them, and execution builds the index on first use.
pub fn fingerprint(tree: &Hdt) -> Fingerprint {
    let mut path: Vec<u64> = Vec::with_capacity(tree.len());
    for id in tree.ids() {
        let prefix = tree.parent(id).map_or(FNV_OFFSET, |p| path[p.index()]);
        path.push(fnv_segment(prefix, tree.tag_name(id)));
    }
    path.sort_unstable();
    path.dedup();
    Fingerprint(
        path.iter()
            .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.to_le_bytes())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_hdt::xml::xml_to_hdt;

    #[test]
    fn multiplicity_does_not_change_the_fingerprint() {
        let two = xml_to_hdt("<r><p><a>1</a><b>2</b></p><p><a>3</a><b>4</b></p></r>").unwrap();
        let five = xml_to_hdt(
            "<r><p><a>1</a><b>2</b></p><p><a>3</a><b>4</b></p><p><a>5</a><b>6</b></p>\
             <p><a>7</a><b>8</b></p><p><a>9</a><b>0</b></p></r>",
        )
        .unwrap();
        assert_eq!(fingerprint(&two), fingerprint(&five));
    }

    #[test]
    fn data_does_not_change_the_fingerprint_but_structure_does() {
        let a = xml_to_hdt("<r><p><a>hello</a></p></r>").unwrap();
        let b = xml_to_hdt("<r><p><a>world</a></p></r>").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let extra = xml_to_hdt("<r><p><a>hello</a><z>1</z></p></r>").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&extra));
        let renamed = xml_to_hdt("<r><q><a>hello</a></q></r>").unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&renamed));
    }

    #[test]
    fn sibling_order_does_not_change_the_fingerprint() {
        let ab = xml_to_hdt("<r><a>1</a><b>2</b></r>").unwrap();
        let ba = xml_to_hdt("<r><b>2</b><a>1</a></r>").unwrap();
        assert_eq!(fingerprint(&ab), fingerprint(&ba));
    }

    #[test]
    fn fingerprints_are_stable_hex_renderable_values() {
        let t = xml_to_hdt("<r><a>1</a></r>").unwrap();
        let fp = fingerprint(&t);
        assert_eq!(fp, fingerprint(&t));
        assert_eq!(fp.to_hex().len(), 16);
        assert_eq!(fp.to_hex(), format!("{fp}"));
    }
}
