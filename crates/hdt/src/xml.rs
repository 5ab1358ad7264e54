//! From-scratch XML parsing straight into an HDT (the XML plug-in).
//!
//! The parser supports the subset of XML needed for data documents: elements,
//! attributes, text content, character entities (`&lt; &gt; &amp; &quot; &apos;`),
//! numeric entities, comments, CDATA sections, processing instructions and an XML
//! declaration.  DTDs and namespaces-as-semantics are out of scope (namespace prefixes
//! are kept as part of the tag name).
//!
//! Per Section 3 of the paper, attributes and text content become nested nodes, so
//! an element with a mix of attributes, text, and nested elements is representable
//! uniformly.  The parser creates every node in the arena as it parses, in document
//! order: an element's node at its start tag, a leaf per attribute `a="v"` (tag `a`,
//! data `v`), and one `text` leaf at the element's first non-blank text, whose data
//! is the trimmed concatenation of all its text (see [`crate::tree`]'s
//! `ElementText`).  Attribute values go straight into the tree's text buffer, and an
//! element's text waits in the parser's one scratch `String` until the element
//! closes, so a parse allocates per document, not per node.  The tree's index
//! derives each node's children and its `pos` among its same-tag siblings.
//!
//! There is no XML serializer here: [`escape`] and `mitra_datagen`'s
//! `hdt_to_xml_text` write XML text.

use crate::error::{HdtError, Result, MAX_PARSE_DEPTH};
use crate::tree::{ElementText, Hdt};
use crate::NodeId;
use std::borrow::Cow;

/// Parses an XML document into a hierarchical data tree (Section 3).
pub fn xml_to_hdt(input: &str) -> Result<Hdt> {
    let _span = mitra_trace::span("ingest", "xml_to_hdt");
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    p.parse_element(None)?;
    p.skip_misc();
    if !p.at_end() {
        return Err(HdtError::parse(
            "trailing content after root element",
            p.pos,
        ));
    }
    mitra_trace::counter_add!("ingest.xml.docs", 1);
    mitra_trace::counter_add!("ingest.xml.nodes", p.tree.len() as u64);
    Ok(p.tree)
}

/// Escapes the five predefined XML entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current element nesting depth, bounded by [`MAX_PARSE_DEPTH`].
    depth: usize,
    /// The arena being built: a placeholder until the root's start tag is parsed.
    tree: Hdt,
    /// The text of the open elements, innermost last (see `ElementText`).
    scratch: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            tree: Hdt::with_root("xml"),
            scratch: String::new(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn skip_prolog(&mut self) -> Result<()> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            match self.input[self.pos..].find("?>") {
                Some(rel) => self.bump(rel + 2),
                None => return Err(HdtError::parse("unterminated XML declaration", self.pos)),
            }
        }
        self.skip_misc();
        if self.starts_with("<!DOCTYPE") {
            // Skip a (non-nested) DOCTYPE declaration.
            match self.input[self.pos..].find('>') {
                Some(rel) => self.bump(rel + 1),
                None => return Err(HdtError::parse("unterminated DOCTYPE", self.pos)),
            }
        }
        self.skip_misc();
        Ok(())
    }

    /// Skips whitespace, comments and processing instructions.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if let Some(rel) = self.input[self.pos..].find("-->") {
                    self.bump(rel + 3);
                    continue;
                }
                // Unterminated comment: consume the rest; parse_element will then error.
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<?") {
                if let Some(rel) = self.input[self.pos..].find("?>") {
                    self.bump(rel + 2);
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            return;
        }
    }

    fn parse_name(&mut self) -> Result<&'a str> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let c = b as char;
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | ':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(HdtError::parse("expected a name", self.pos));
        }
        Ok(&self.input[start..self.pos])
    }

    /// Parses one element into the arena, under `parent` (`None` for the root,
    /// whose start tag replaces the placeholder tree).
    fn parse_element(&mut self, parent: Option<NodeId>) -> Result<()> {
        self.skip_misc();
        if self.peek() != Some(b'<') {
            return Err(HdtError::parse("expected '<'", self.pos));
        }
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(HdtError::DepthLimit {
                limit: MAX_PARSE_DEPTH,
                offset: self.pos,
            });
        }
        self.depth += 1;
        let element = self.element_body(parent);
        self.depth -= 1;
        element
    }

    /// Body of [`Parser::parse_element`], past the depth guard, positioned on `<`.
    fn element_body(&mut self, parent: Option<NodeId>) -> Result<()> {
        self.bump(1);
        let name = self.parse_name()?;
        let id = match parent {
            Some(parent) => self.tree.push_child(parent, name, None)?,
            None => {
                self.tree = Hdt::with_root(name);
                self.tree.root()
            }
        };
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    if self.starts_with("/>") {
                        self.bump(2);
                        return Ok(());
                    }
                    return Err(HdtError::parse("unexpected '/'", self.pos));
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(HdtError::parse(
                            "expected '=' after attribute name",
                            self.pos,
                        ));
                    }
                    self.bump(1);
                    self.skip_ws();
                    let q = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => {
                            return Err(HdtError::parse(
                                "expected quoted attribute value",
                                self.pos,
                            ))
                        }
                    };
                    self.bump(1);
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == q {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.at_end() {
                        return Err(HdtError::parse("unterminated attribute value", start));
                    }
                    let raw = &self.input[start..self.pos];
                    self.bump(1);
                    let value = unescape(raw, start)?;
                    self.tree.push_child(id, key, Some(&value))?;
                }
                None => return Err(HdtError::parse("unexpected end of input in tag", self.pos)),
            }
        }
        // Content.
        let mut text = ElementText::default();
        loop {
            if self.at_end() {
                return Err(HdtError::parse(
                    format!("unexpected end of input inside <{name}>"),
                    self.pos,
                ));
            }
            if self.starts_with("</") {
                self.bump(2);
                let close = self.parse_name()?;
                if close != name {
                    return Err(HdtError::parse(
                        format!("mismatched closing tag: expected </{name}>, found </{close}>"),
                        self.pos,
                    ));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(HdtError::parse(
                        "expected '>' after closing tag name",
                        self.pos,
                    ));
                }
                self.bump(1);
                break;
            } else if self.starts_with("<!--") {
                match self.input[self.pos..].find("-->") {
                    Some(rel) => self.bump(rel + 3),
                    None => return Err(HdtError::parse("unterminated comment", self.pos)),
                }
            } else if self.starts_with("<![CDATA[") {
                self.bump(9);
                match self.input[self.pos..].find("]]>") {
                    Some(rel) => {
                        let cdata = &self.input[self.pos..self.pos + rel];
                        text.push(&mut self.tree, &mut self.scratch, id, cdata)?;
                        self.bump(rel + 3);
                    }
                    None => return Err(HdtError::parse("unterminated CDATA section", self.pos)),
                }
            } else if self.starts_with("<?") {
                match self.input[self.pos..].find("?>") {
                    Some(rel) => self.bump(rel + 2),
                    None => {
                        return Err(HdtError::parse(
                            "unterminated processing instruction",
                            self.pos,
                        ))
                    }
                }
            } else if self.peek() == Some(b'<') {
                self.parse_element(Some(id))?;
            } else {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let chunk = unescape(&self.input[start..self.pos], start)?;
                text.push(&mut self.tree, &mut self.scratch, id, &chunk)?;
            }
        }
        text.close(&mut self.tree, &mut self.scratch, String::push_str)
    }
}

/// Resolves XML character and entity references inside `raw`.
fn unescape(raw: &str, offset: usize) -> Result<Cow<'_, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let end = rest
            .find(';')
            .ok_or_else(|| HdtError::parse("unterminated entity reference", offset))?;
        let entity = &rest[1..end];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let cp = u32::from_str_radix(&entity[2..], 16).map_err(|_| {
                    HdtError::parse(format!("bad numeric entity &{entity};"), offset)
                })?;
                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
            }
            _ if entity.starts_with('#') => {
                let cp: u32 = entity[1..].parse().map_err(|_| {
                    HdtError::parse(format!("bad numeric entity &{entity};"), offset)
                })?;
                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
            }
            other => {
                return Err(HdtError::parse(format!("unknown entity &{other};"), offset));
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOCIAL: &str = r#"<?xml version="1.0"?>
<root>
  <Person id="1">
    <name>Alice</name>
    <Friendship>
      <Friend fid="2" years="3"/>
    </Friendship>
  </Person>
  <Person id="2">
    <name>Bob</name>
  </Person>
</root>"#;

    /// `(tag, pos, data, parent)` of every node, in arena order.
    fn nodes(tree: &Hdt) -> Vec<(&str, usize, Option<&str>, Option<u32>)> {
        tree.ids()
            .map(|n| {
                let parent = tree.parent(n).map(|p| p.0);
                (tree.tag_name(n), tree.pos(n), tree.data(n), parent)
            })
            .collect()
    }

    #[test]
    fn parses_elements_attributes_text() {
        let tree = xml_to_hdt(SOCIAL).unwrap();
        assert_eq!(tree.tag_name(tree.root()), "root");
        assert_eq!(tree.children(tree.root()).len(), 2);
        let p0 = tree.children(tree.root())[0];
        let id = tree.children(p0)[0];
        assert_eq!((tree.tag_name(id), tree.data(id)), ("id", Some("1")));
        let name = tree.child(p0, "name", 0).unwrap();
        assert_eq!(tree.data(tree.children(name)[0]), Some("Alice"));
    }

    #[test]
    fn hdt_mapping_turns_attributes_into_leaves() {
        let tree = xml_to_hdt(SOCIAL).unwrap();
        tree.validate().unwrap();
        let persons = tree.children_with_tag(tree.root(), "Person");
        assert_eq!(persons.len(), 2);
        let id_leaf = tree.child(persons[0], "id", 0).unwrap();
        assert_eq!(tree.data(id_leaf), Some("1"));
        // text content of <name> becomes a `text` leaf under the name node
        let name = tree.child(persons[0], "name", 0).unwrap();
        let text = tree.child(name, "text", 0).unwrap();
        assert_eq!(tree.data(text), Some("Alice"));
    }

    #[test]
    fn self_closing_and_empty_elements() {
        let tree = xml_to_hdt("<a><b/><c></c></a>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("a", 0, None, None),
                ("b", 0, None, Some(0)),
                ("c", 0, None, Some(0))
            ]
        );
    }

    #[test]
    fn entity_unescaping() {
        let tree = xml_to_hdt("<a t=\"x &amp; y\">1 &lt; 2 &#65;</a>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("a", 0, None, None),
                ("t", 0, Some("x & y"), Some(0)),
                ("text", 0, Some("1 < 2 A"), Some(0)),
            ]
        );
    }

    #[test]
    fn cdata_and_comments_are_handled() {
        let tree = xml_to_hdt("<a><!-- hi --><![CDATA[<raw>&]]></a>").unwrap();
        assert_eq!(
            tree.data(tree.child(tree.root(), "text", 0).unwrap()),
            Some("<raw>&")
        );
    }

    #[test]
    fn text_leaf_sits_at_its_first_non_blank_text() {
        // Text after an element child: the leaf follows the child.
        let tree = xml_to_hdt("<a><b/>y</a>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("a", 0, None, None),
                ("b", 0, None, Some(0)),
                ("text", 0, Some("y"), Some(0))
            ]
        );
        // Text on both sides of a child: one leaf, before the child, holding all of it.
        let tree = xml_to_hdt("<a>x<b/>y</a>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("a", 0, None, None),
                ("text", 0, Some("xy"), Some(0)),
                ("b", 0, None, Some(0))
            ]
        );
        // Blank text creates no leaf; inner whitespace survives, the ends are trimmed.
        let tree = xml_to_hdt("<a>  <b/> x <![CDATA[ y ]]> </a>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("a", 0, None, None),
                ("b", 0, None, Some(0)),
                ("text", 0, Some("x  y"), Some(0))
            ]
        );
        assert_eq!(tree.preorder(), tree.ids().collect::<Vec<_>>());
    }

    #[test]
    fn mismatched_tags_error() {
        assert!(xml_to_hdt("<a><b></a></b>").is_err());
        assert!(xml_to_hdt("<a>").is_err());
        assert!(xml_to_hdt("<a></a><b></b>").is_err());
    }

    #[test]
    fn unknown_entity_is_an_error() {
        assert!(xml_to_hdt("<a>&nope;</a>").is_err());
    }

    #[test]
    fn doctype_and_pi_are_skipped() {
        let tree =
            xml_to_hdt("<?xml version=\"1.0\"?><!DOCTYPE root><?pi data?><root><x>1</x></root>")
                .unwrap();
        assert_eq!(tree.children(tree.root()).len(), 1);
    }

    #[test]
    fn escape_escapes_all_specials() {
        assert_eq!(escape("<&>\"'"), "&lt;&amp;&gt;&quot;&apos;");
    }

    #[test]
    fn depth_limit_is_a_typed_error_not_a_crash() {
        // Recursing to the 10k bound needs more stack than the default 2 MiB
        // test thread; the production guard exists precisely so callers never
        // reach the overflow.
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let limit = crate::error::MAX_PARSE_DEPTH;
                let deep = "<a>".repeat(limit + 1);
                match xml_to_hdt(&deep) {
                    Err(HdtError::DepthLimit { limit: l, .. }) => assert_eq!(l, limit),
                    other => panic!("expected depth-limit error, got {other:?}"),
                }
            })
            .expect("spawn big-stack thread")
            .join()
            .expect("no panic");
    }
}
