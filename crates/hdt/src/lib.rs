//! # mitra-hdt — Hierarchical Data Trees
//!
//! This crate implements the *hierarchical data tree* (HDT) substrate used throughout
//! the Mitra reproduction.  An HDT is a rooted tree whose nodes are triples
//! `(tag, pos, data)` (Definition 1 in the paper): `tag` is a label, `pos` says that the
//! node is the `pos`'th child with that tag under its parent, and `data` is the payload
//! stored at the node (only leaves carry data; internal nodes carry `None`).
//!
//! The crate also contains the *plug-ins* of the paper's architecture (Figure 14):
//!
//! * [`xml`] — a from-scratch XML parser that builds the HDT directly, in document
//!   order, with the Section 3 mapping (elements, attributes and text content all
//!   become HDT nodes).  It has no serializer: [`xml::escape`] and `mitra_datagen`'s
//!   `hdt_to_xml_text` are the XML writers;
//! * [`json`] — a from-scratch JSON parser and serializer plus the JSON→HDT mapping of
//!   Section 3 (objects become internal nodes, array entries become same-tag siblings
//!   with increasing `pos` values).  Its one grammar reports to two builders:
//!   [`parse_json`] builds a [`JsonValue`], the workspace's one JSON model, and
//!   [`json::json_to_hdt`] builds the HDT as it parses, with no `JsonValue` between;
//! * [`html`] — a lenient HTML parser that builds the HDT directly with the XML
//!   plug-in's mapping, demonstrating the "other hierarchical formats" extensibility
//!   claimed in Section 6.
//!
//! [`DocFormat`] names one of the three formats and dispatches to its parser.
//! Finally, [`generate`] contains small helpers used by tests and examples to build
//! trees programmatically.
//!
//! Tags are interned: [`intern`] defines [`Symbol`]/[`TagId`] and the process-wide
//! [`Interner`] every ingestion path funnels through.  A [`tree::Hdt`] is a flat
//! arena whose nodes own no heap memory — a tag, a parent link, a child count and a
//! span of the tree's one text buffer — so parsing a document allocates per
//! document, not per node.  The tree derives each node's children, its `pos` and
//! the pre-order / per-tag occurrence indexes that make `descendants`/`children`
//! lookups `O(log n + k)` range scans from the parent links, in a few linear passes
//! (see DESIGN.md §2 "Tree representation & indexing").

// This crate is part of the hardened ingestion surface: panicking shortcuts are
// lint-rejected outside tests (see clippy.toml for the disallowed method list).
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod error;
pub mod format;
pub mod generate;
pub mod html;
pub mod intern;
pub mod json;
pub mod node;
pub mod tree;
pub mod xml;

pub use error::{HdtError, Result, MAX_PARSE_DEPTH};
pub use format::DocFormat;
pub use intern::{Interner, Symbol, TagId};
pub use json::{parse_json, JsonValue};
pub use node::NodeId;
pub use tree::{Hdt, HdtBuilder};
