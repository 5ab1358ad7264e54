//! From-scratch lenient HTML parsing straight into an HDT (the HTML plug-in).
//!
//! Section 6 of the paper notes that Mitra "can be easily extended to handle other
//! forms of hierarchical documents (e.g., HTML and HDF) by implementing suitable
//! plug-ins".  This module is that HTML plug-in.  Unlike the [`crate::xml`] parser it
//! is deliberately forgiving, because real-world HTML rarely satisfies XML's
//! well-formedness rules:
//!
//! * tag names and attribute names are case-insensitive (normalized to lowercase);
//! * void elements (`<br>`, `<img>`, `<meta>`, ...) never take a closing tag;
//! * attributes may be unquoted (`width=80`) or value-less (`disabled`);
//! * a mismatched closing tag closes every open element up to the matching one, and a
//!   closing tag with no matching open element is ignored;
//! * `<li>`, `<p>`, `<td>`, `<tr>`, ... are implicitly closed by a new sibling, as in
//!   the HTML5 "optional tags" rules (a pragmatic subset, not the full algorithm);
//! * `<script>` and `<style>` contents are treated as raw text;
//! * comments and the doctype are skipped.
//!
//! The HDT mapping is the same as the XML one (Section 3), and so is the way it is
//! built: the parser creates each node in the arena when its start tag or attribute
//! is parsed, in document order, and the tree's index derives every `pos`.  Each
//! element becomes an internal node, each attribute a leaf child tagged with the
//! attribute name, and an element's text one `text` leaf, created at its first
//! non-blank text and holding all of its text with whitespace runs collapsed
//! (raw-text elements keep theirs, trimmed).  The open elements' text waits in one
//! scratch `String` used as a stack (see [`crate::tree`]'s `ElementText`), so an
//! element closes before the elements around it, innermost first, and its text goes
//! from the scratch into the tree's text buffer collapsed on the way.  A page with
//! one top-level element (usually `<html>`) has that element as its root; a fragment
//! with several gets a synthetic `html` root, added when the second one opens.

use crate::error::{HdtError, Result, MAX_PARSE_DEPTH};
use crate::tree::{ElementText, Hdt};
use crate::NodeId;

/// Parses an HTML document or fragment into a hierarchical data tree.
pub fn html_to_hdt(input: &str) -> Result<Hdt> {
    let _span = mitra_trace::span("ingest", "html_to_hdt");
    let tree = Parser::new(input).parse()?;
    mitra_trace::counter_add!("ingest.html.docs", 1);
    mitra_trace::counter_add!("ingest.html.nodes", tree.len() as u64);
    Ok(tree)
}

/// Elements that never have content or a closing tag.
const VOID_ELEMENTS: [&str; 14] = [
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Elements whose contents are raw text up to the matching closing tag.
const RAW_TEXT_ELEMENTS: [&str; 2] = ["script", "style"];

fn is_void(name: &str) -> bool {
    VOID_ELEMENTS.contains(&name)
}

fn is_raw_text(name: &str) -> bool {
    RAW_TEXT_ELEMENTS.contains(&name)
}

/// Returns true if opening `incoming` implicitly closes an open `open` element, per a
/// pragmatic subset of the HTML5 optional-tag rules.
fn implicitly_closes(open: &str, incoming: &str) -> bool {
    match open {
        "li" => incoming == "li",
        "p" => matches!(
            incoming,
            "p" | "div"
                | "ul"
                | "ol"
                | "table"
                | "section"
                | "article"
                | "h1"
                | "h2"
                | "h3"
                | "h4"
                | "h5"
                | "h6"
                | "blockquote"
                | "pre"
                | "form"
        ),
        "td" | "th" => matches!(incoming, "td" | "th" | "tr"),
        "tr" => incoming == "tr",
        "dt" | "dd" => matches!(incoming, "dt" | "dd"),
        "option" => matches!(incoming, "option" | "optgroup"),
        "thead" | "tbody" | "tfoot" => matches!(incoming, "tbody" | "tfoot"),
        _ => false,
    }
}

/// An element on the parse stack: its node, its name and its text's place in the
/// scratch.
struct Open {
    id: NodeId,
    name: String,
    text: ElementText,
}

/// Appends `text` to `out` with runs of whitespace collapsed to single spaces and
/// the ends trimmed, the usual HTML rendering treatment of inter-element whitespace.
fn collapse_whitespace(out: &mut String, text: &str) {
    let mut words = text.split_whitespace();
    if let Some(first) = words.next() {
        out.push_str(first);
        for word in words {
            out.push(' ');
            out.push_str(word);
        }
    }
}

/// Decodes the common named entities plus numeric character references.
fn decode_entities(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some(rel_end) = s[i..].find(';').filter(|&e| e <= 12) {
                let entity = &s[i + 1..i + rel_end];
                let decoded = match entity {
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "amp" => Some('&'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    "nbsp" => Some(' '),
                    _ => entity
                        .strip_prefix('#')
                        .and_then(|num| {
                            if let Some(hex) =
                                num.strip_prefix('x').or_else(|| num.strip_prefix('X'))
                            {
                                u32::from_str_radix(hex, 16).ok()
                            } else {
                                num.parse::<u32>().ok()
                            }
                        })
                        .and_then(char::from_u32),
                };
                if let Some(c) = decoded {
                    out.push(c);
                    i += rel_end + 1;
                    continue;
                }
            }
            // Not a recognized entity: keep the ampersand literally (lenient).
            out.push('&');
            i += 1;
        } else {
            let ch_len = s[i..].chars().next().map_or(1, char::len_utf8);
            out.push_str(&s[i..i + ch_len]);
            i += ch_len;
        }
    }
    out
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// The arena being built: a placeholder until the first element opens.
    tree: Hdt,
    /// Top-level elements opened so far.
    top_level: usize,
    /// Elements opened and not yet closed, innermost last.
    stack: Vec<Open>,
    /// The text of the open elements, innermost last (see `ElementText`).
    scratch: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            tree: Hdt::with_root("html"),
            top_level: 0,
            stack: Vec::new(),
            scratch: String::new(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn starts_with_ci(&self, s: &str) -> bool {
        // Byte-wise: a `str` slice of the first `s.len()` bytes panics when that
        // offset lands inside a multi-byte character (e.g. U+FFFD from lossy
        // recovery of corrupted input).
        let rest = &self.input.as_bytes()[self.pos..];
        rest.len() >= s.len() && rest[..s.len()].eq_ignore_ascii_case(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Parses the whole input, driving the lenient stack machine.
    fn parse(mut self) -> Result<Hdt> {
        while !self.at_end() {
            if self.starts_with_ci("<!--") {
                self.skip_comment();
            } else if self.starts_with_ci("<!doctype") || self.rest().starts_with("<!") {
                self.skip_until('>');
            } else if self.rest().starts_with("</") {
                self.handle_closing_tag()?;
            } else if self.peek() == Some(b'<')
                && self
                    .input
                    .as_bytes()
                    .get(self.pos + 1)
                    .is_some_and(|b| b.is_ascii_alphabetic())
            {
                self.handle_opening_tag()?;
            } else {
                // Text (or a stray '<' that does not start a tag — taken literally).
                let text = self.take_text();
                if let Some(open) = self.stack.last_mut() {
                    let (tree, scratch) = (&mut self.tree, &mut self.scratch);
                    open.text.push(tree, scratch, open.id, &text)?;
                    open.text.push(tree, scratch, open.id, " ")?;
                }
            }
        }

        // Any elements still open at end-of-input are closed implicitly.
        self.close_from(0)?;
        if self.top_level == 0 {
            return Err(HdtError::parse("no elements found in HTML input", 0));
        }
        Ok(self.tree)
    }

    /// Closes the open elements from stack index `from` on, innermost first, so
    /// each one's text is the top of the scratch when it closes.
    fn close_from(&mut self, from: usize) -> Result<()> {
        for open in self.stack.drain(from..).rev() {
            open.text
                .close(&mut self.tree, &mut self.scratch, collapse_whitespace)?;
        }
        Ok(())
    }

    fn skip_comment(&mut self) {
        match self.rest().find("-->") {
            Some(rel) => self.bump(rel + 3),
            None => self.pos = self.input.len(),
        }
    }

    fn skip_until(&mut self, terminator: char) {
        match self.rest().find(terminator) {
            Some(rel) => self.bump(rel + terminator.len_utf8()),
            None => self.pos = self.input.len(),
        }
    }

    fn take_text(&mut self) -> String {
        let start = self.pos;
        // A '<' only starts markup if followed by a letter, '/', '!' or '?'.
        loop {
            match self.rest().find('<') {
                None => {
                    self.pos = self.input.len();
                    break;
                }
                Some(rel) => {
                    let candidate = self.pos + rel;
                    let next = self.input.as_bytes().get(candidate + 1).copied();
                    if next.is_some_and(|b| {
                        b.is_ascii_alphabetic() || b == b'/' || b == b'!' || b == b'?'
                    }) {
                        self.pos = candidate;
                        break;
                    }
                    self.pos = candidate + 1;
                }
            }
        }
        decode_entities(&self.input[start..self.pos])
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b':')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(HdtError::parse("expected a tag name", self.pos));
        }
        Ok(self.input[start..self.pos].to_ascii_lowercase())
    }

    fn handle_closing_tag(&mut self) -> Result<()> {
        // "</" then the name.  A closing tag with no name (`</ >`, `</>`) is bogus
        // markup; browsers drop it, and so do we.
        self.bump(2);
        let Ok(name) = self.parse_name() else {
            self.skip_until('>');
            return Ok(());
        };
        self.skip_until('>');
        // Close everything up to and including the innermost match; a closing tag
        // that matches nothing currently open is ignored (lenient).
        match self.stack.iter().rposition(|open| open.name == name) {
            Some(open) => self.close_from(open),
            None => Ok(()),
        }
    }

    fn handle_opening_tag(&mut self) -> Result<()> {
        self.bump(1); // '<'
        let name = self.parse_name()?;

        // Optional-tag rules: the incoming element may implicitly close open ones.
        let kept = self
            .stack
            .iter()
            .rposition(|open| !implicitly_closes(&open.name, &name))
            .map_or(0, |innermost_kept| innermost_kept + 1);
        self.close_from(kept)?;

        let id = self.create(&name)?;
        let self_closing = self.parse_attributes(id)?;
        if is_void(&name) || self_closing {
            return Ok(());
        }

        if is_raw_text(&name) {
            let raw = self.take_raw_text(&name).trim();
            if !raw.is_empty() {
                self.tree.push_child(id, "text", Some(raw))?;
            }
            return Ok(());
        }

        // Nothing here recurses (the arena is flat and so is its drop), but the
        // bound keeps adversarially deep pages a typed `DepthLimit` rejection, as
        // in the XML and JSON parsers; `tests/fixtures/malformed/deep.html` pins it.
        if self.stack.len() >= MAX_PARSE_DEPTH {
            return Err(HdtError::DepthLimit {
                limit: MAX_PARSE_DEPTH,
                offset: self.pos,
            });
        }
        self.stack.push(Open {
            id,
            name,
            text: ElementText::default(),
        });
        Ok(())
    }

    /// Creates the node of an element whose start tag is being parsed: under the
    /// innermost open element, else at the top level.  The first top-level element
    /// becomes the root; the second puts a synthetic `html` root above it.
    fn create(&mut self, name: &str) -> Result<NodeId> {
        if let Some(open) = self.stack.last() {
            return self.tree.push_child(open.id, name, None);
        }
        self.top_level += 1;
        if self.top_level == 1 {
            self.tree = Hdt::with_root(name);
            return Ok(self.tree.root());
        }
        if self.top_level == 2 {
            self.tree.wrap_root("html")?;
        }
        self.tree.push_child(NodeId::ROOT, name, None)
    }

    /// Consumes the contents of a raw-text element up to (and including) its closing
    /// tag; returns the raw contents.
    fn take_raw_text(&mut self, name: &str) -> &'a str {
        // The first `</` followed by the name, ASCII case-insensitively, scanning
        // forward from here only: lowercasing the rest of the input per element
        // made a page of many scripts quadratic.
        let rest = self.rest();
        let closer = rest
            .as_bytes()
            .windows(name.len() + 2)
            .position(|w| w.starts_with(b"</") && w[2..].eq_ignore_ascii_case(name.as_bytes()));
        match closer {
            Some(rel) => {
                self.bump(rel);
                self.skip_until('>');
                &rest[..rel]
            }
            None => {
                self.pos = self.input.len();
                rest
            }
        }
    }

    /// Parses attributes up to the closing `>` into leaves of `element`; returns
    /// whether the tag ended in `/>`.
    fn parse_attributes(&mut self, element: NodeId) -> Result<bool> {
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Ok(false), // unterminated tag: treat as closed (lenient)
                Some(b'>') => {
                    self.bump(1);
                    return Ok(false);
                }
                Some(b'/') => {
                    self.bump(1);
                    self.skip_ws();
                    if self.peek() == Some(b'>') {
                        self.bump(1);
                    }
                    return Ok(true);
                }
                Some(_) => {
                    let key = match self.parse_name() {
                        Ok(k) => k,
                        Err(_) => {
                            // Garbage inside the tag: skip one byte and carry on.
                            self.bump(1);
                            continue;
                        }
                    };
                    self.skip_ws();
                    let value = if self.peek() == Some(b'=') {
                        self.bump(1);
                        self.skip_ws();
                        decode_entities(self.parse_attribute_value())
                    } else {
                        String::new()
                    };
                    self.tree.push_child(element, key, Some(&value))?;
                }
            }
        }
    }

    fn parse_attribute_value(&mut self) -> &'a str {
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.bump(1);
                let start = self.pos;
                while self.peek().is_some_and(|b| b != q) {
                    self.pos += 1;
                }
                let value = &self.input[start..self.pos];
                if !self.at_end() {
                    self.bump(1);
                }
                value
            }
            _ => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| !b.is_ascii_whitespace() && b != b'>' && b != b'/')
                {
                    self.pos += 1;
                }
                &self.input[start..self.pos]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first child of `id` tagged `tag`.
    fn first(tree: &Hdt, id: NodeId, tag: &str) -> NodeId {
        tree.children_with_tag(id, tag)[0]
    }

    /// Data of the attribute (or `text`) leaf `tag` of `id`.
    fn leaf<'t>(tree: &'t Hdt, id: NodeId, tag: &str) -> Option<&'t str> {
        tree.child(id, tag, 0).and_then(|leaf| tree.data(leaf))
    }

    /// Child elements of `id`: its children that are not data leaves.
    fn elements(tree: &Hdt, id: NodeId) -> Vec<NodeId> {
        let children = tree.children(id).iter().copied();
        children.filter(|&c| tree.data(c).is_none()).collect()
    }

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
    fn parses_well_formed_table() {
        let html = r#"<html><body>
            <table id="people">
              <tr><td>Ada</td><td>1815</td></tr>
              <tr><td>Grace</td><td>1906</td></tr>
            </table>
        </body></html>"#;
        let tree = html_to_hdt(html).unwrap();
        assert_eq!(tree.tag_name(tree.root()), "html");
        let body = elements(&tree, tree.root())[0];
        let table = elements(&tree, body)[0];
        assert_eq!(leaf(&tree, table, "id"), Some("people"));
        assert_eq!(elements(&tree, table).len(), 2);
        let td = elements(&tree, elements(&tree, table)[0])[0];
        assert_eq!(leaf(&tree, td, "text"), Some("Ada"));
    }

    #[test]
    fn void_elements_and_unclosed_tags_are_tolerated() {
        let html = "<div><p>first<br>second<p>third<img src=pic.png></div>";
        let tree = html_to_hdt(html).unwrap();
        let div = tree.root();
        assert_eq!(tree.tag_name(div), "div");
        // Two paragraphs: the second <p> implicitly closes the first.
        let paragraphs = tree.children_with_tag(div, "p");
        assert_eq!(paragraphs.len(), 2);
        assert_eq!(tree.tag_name(elements(&tree, paragraphs[0])[0]), "br");
        let img = elements(&tree, paragraphs[1])[0];
        assert_eq!(leaf(&tree, img, "src"), Some("pic.png"));
    }

    #[test]
    fn implicit_closing_of_list_items_and_cells() {
        let html = "<ul><li>one<li>two<li>three</ul>";
        let tree = html_to_hdt(html).unwrap();
        assert_eq!(tree.tag_name(tree.root()), "ul");
        let items = elements(&tree, tree.root());
        assert_eq!(items.len(), 3);
        let texts: Vec<_> = items
            .iter()
            .map(|&li| leaf(&tree, li, "text").unwrap_or(""))
            .collect();
        assert_eq!(texts, vec!["one", "two", "three"]);
    }

    #[test]
    fn attributes_without_values_and_unquoted_values() {
        let html = "<input type=checkbox checked name=\"agree\">";
        let tree = html_to_hdt(html).unwrap();
        let root = tree.root();
        assert_eq!(tree.tag_name(root), "input");
        assert_eq!(leaf(&tree, root, "type"), Some("checkbox"));
        assert_eq!(leaf(&tree, root, "checked"), Some(""));
        assert_eq!(leaf(&tree, root, "name"), Some("agree"));
    }

    #[test]
    fn case_is_normalized_and_doctype_comments_skipped() {
        let html = "<!DOCTYPE html><!-- greeting --><DIV Class=\"Box\">Hi</DIV>";
        let tree = html_to_hdt(html).unwrap();
        let root = tree.root();
        assert_eq!(tree.tag_name(root), "div");
        assert_eq!(leaf(&tree, root, "class"), Some("Box"));
        assert_eq!(leaf(&tree, root, "text"), Some("Hi"));
    }

    #[test]
    fn script_contents_are_raw_text() {
        let html =
            "<body><script>if (a < b && c > d) { render('<td>'); }</script><p>after</p></body>";
        let tree = html_to_hdt(html).unwrap();
        let children = elements(&tree, tree.root());
        assert_eq!(tree.tag_name(children[0]), "script");
        assert!(leaf(&tree, children[0], "text").unwrap().contains("a < b"));
        assert_eq!(leaf(&tree, children[1], "text"), Some("after"));
    }

    #[test]
    fn raw_text_closers_match_ascii_case_insensitively() {
        let html = "<body><script>a()</SCRIPT><style> p { } </StYlE ><p>after</p></body>";
        let tree = html_to_hdt(html).unwrap();
        let children = elements(&tree, tree.root());
        let names: Vec<&str> = children.iter().map(|&c| tree.tag_name(c)).collect();
        assert_eq!(names, ["script", "style", "p"]);
        assert_eq!(leaf(&tree, children[0], "text"), Some("a()"));
        assert_eq!(leaf(&tree, children[1], "text"), Some("p { }"));
        assert_eq!(leaf(&tree, children[2], "text"), Some("after"));
    }

    #[test]
    fn raw_text_runs_to_the_first_closer_with_the_name() {
        // A `</` of another name stays raw text.
        let html = "<body><script>s = '</b>' + '</scrip';</script><p>after</p></body>";
        let tree = html_to_hdt(html).unwrap();
        let children = elements(&tree, tree.root());
        assert_eq!(
            leaf(&tree, children[0], "text"),
            Some("s = '</b>' + '</scrip';")
        );
        assert_eq!(leaf(&tree, children[1], "text"), Some("after"));
        // The name is matched as a prefix: `</scriptx>` ends the script, and the
        // real closer after it closes nothing.
        let html = "<body><script>a</scriptx>b</script><p>after</p></body>";
        let tree = html_to_hdt(html).unwrap();
        let children = elements(&tree, tree.root());
        let names: Vec<&str> = children.iter().map(|&c| tree.tag_name(c)).collect();
        assert_eq!(names, ["script", "p"]);
        assert_eq!(leaf(&tree, children[0], "text"), Some("a"));
        assert_eq!(leaf(&tree, tree.root(), "text"), Some("b"));
    }

    #[test]
    fn an_unterminated_raw_text_element_takes_the_rest() {
        let tree = html_to_hdt("<div><script>if (a < b) { x('</div>') </scrip").unwrap();
        let script = elements(&tree, tree.root())[0];
        assert_eq!(
            leaf(&tree, script, "text"),
            Some("if (a < b) { x('</div>') </scrip")
        );
    }

    #[test]
    fn entities_are_decoded_in_text_and_attributes() {
        let html = "<p title=\"Tom &amp; Jerry\">1 &lt; 2 &#65;&#x42;</p>";
        let tree = html_to_hdt(html).unwrap();
        assert_eq!(leaf(&tree, tree.root(), "title"), Some("Tom & Jerry"));
        assert_eq!(leaf(&tree, tree.root(), "text"), Some("1 < 2 AB"));
    }

    #[test]
    fn mismatched_closing_tag_closes_up_to_match() {
        let html = "<div><span><b>bold</div>";
        let tree = html_to_hdt(html).unwrap();
        assert_eq!(tree.tag_name(tree.root()), "div");
        let span = elements(&tree, tree.root())[0];
        assert_eq!(tree.tag_name(span), "span");
        assert_eq!(tree.tag_name(elements(&tree, span)[0]), "b");
    }

    #[test]
    fn bogus_closing_tags_never_panic() {
        // `</` followed by a non-name is bogus markup; it is skipped up to the next
        // `>`, which may swallow following text exactly as browsers' bogus-comment
        // state does.  The important property is that parsing stays total.
        assert!(html_to_hdt("</<a>").is_err() || html_to_hdt("</<a>").is_ok());
        let root_tag = |html| html_to_hdt(html).map(|t| t.tag_name(t.root()));
        assert_eq!(root_tag("</ ><p>ok</p>"), Ok("p"));
        assert_eq!(root_tag("<div></ ></div>"), Ok("div"));
    }

    #[test]
    fn stray_closing_tag_is_ignored() {
        let html = "<div></table><p>ok</p></div>";
        let tree = html_to_hdt(html).unwrap();
        assert_eq!(tree.tag_name(tree.root()), "div");
        let children = elements(&tree, tree.root());
        assert_eq!(children.len(), 1);
        assert_eq!(leaf(&tree, children[0], "text"), Some("ok"));
    }

    #[test]
    fn fragment_with_multiple_roots_gets_synthetic_html_root() {
        let html = "<h1>Title</h1><p>Body</p><p>More";
        let tree = html_to_hdt(html).unwrap();
        tree.validate().unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("html", 0, None, None),
                ("h1", 0, None, Some(0)),
                ("text", 0, Some("Title"), Some(1)),
                ("p", 0, None, Some(0)),
                ("text", 0, Some("Body"), Some(3)),
                ("p", 1, None, Some(0)),
                ("text", 0, Some("More"), Some(5)),
            ]
        );
    }

    #[test]
    fn text_leaf_sits_at_its_first_non_blank_text() {
        let tree = html_to_hdt("<div><b>x</b> tail</div>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("div", 0, None, None),
                ("b", 0, None, Some(0)),
                ("text", 0, Some("x"), Some(1)),
                ("text", 0, Some("tail"), Some(0)),
            ]
        );
        // One leaf per element, before the child when text precedes it, holding all
        // of the element's text collapsed.
        let tree = html_to_hdt("<p>a<br>b\n  c</p>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("p", 0, None, None),
                ("text", 0, Some("a b c"), Some(0)),
                ("br", 0, None, Some(0)),
            ]
        );
    }

    #[test]
    fn outer_and_inner_text_survive_implicit_closes() {
        // A new `li` or `p` closes the open one; a new `tr` closes a `td` and the
        // `tr` around it, innermost first.
        let tree = html_to_hdt("<ul>list <li>one<li>two</ul>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("ul", 0, None, None),
                ("text", 0, Some("list"), Some(0)),
                ("li", 0, None, Some(0)),
                ("text", 0, Some("one"), Some(2)),
                ("li", 1, None, Some(0)),
                ("text", 0, Some("two"), Some(4)),
            ]
        );
        let tree = html_to_hdt("<div>intro<p>first <b>bold</b> end<p>second</div>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("div", 0, None, None),
                ("text", 0, Some("intro"), Some(0)),
                ("p", 0, None, Some(0)),
                ("text", 0, Some("first end"), Some(2)),
                ("b", 0, None, Some(2)),
                ("text", 0, Some("bold"), Some(4)),
                ("p", 1, None, Some(0)),
                ("text", 0, Some("second"), Some(6)),
            ]
        );
        let tree = html_to_hdt("<table><tr>row<td>cell<tr>next</table>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("table", 0, None, None),
                ("tr", 0, None, Some(0)),
                ("text", 0, Some("row"), Some(1)),
                ("td", 0, None, Some(1)),
                ("text", 0, Some("cell"), Some(3)),
                ("tr", 1, None, Some(0)),
                ("text", 0, Some("next"), Some(5)),
            ]
        );
    }

    #[test]
    fn outer_and_inner_text_survive_a_mismatched_closing_tag() {
        // `</div>` closes `b`, `span` and `div`, innermost first.
        let tree =
            html_to_hdt("<section><div>outer <span>inner <b>bold</div> after</section>").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("section", 0, None, None),
                ("div", 0, None, Some(0)),
                ("text", 0, Some("outer"), Some(1)),
                ("span", 0, None, Some(1)),
                ("text", 0, Some("inner"), Some(3)),
                ("b", 0, None, Some(3)),
                ("text", 0, Some("bold"), Some(5)),
                ("text", 0, Some("after"), Some(0)),
            ]
        );
    }

    #[test]
    fn outer_and_inner_text_survive_the_end_of_input() {
        let tree = html_to_hdt("<div>outer <span>inner <b>bold</b> more").unwrap();
        assert_eq!(
            nodes(&tree),
            vec![
                ("div", 0, None, None),
                ("text", 0, Some("outer"), Some(0)),
                ("span", 0, None, Some(0)),
                ("text", 0, Some("inner more"), Some(2)),
                ("b", 0, None, Some(2)),
                ("text", 0, Some("bold"), Some(4)),
            ]
        );
    }

    #[test]
    fn hdt_mapping_matches_xml_conventions() {
        let html = "<table><tr><td class=\"name\">Ada</td></tr></table>";
        let tree = html_to_hdt(html).unwrap();
        let root = tree.root();
        assert_eq!(tree.tag_name(root), "table");
        let tr = first(&tree, root, "tr");
        let td = first(&tree, tr, "td");
        // Attribute and text content both become leaf children.
        let class = first(&tree, td, "class");
        assert_eq!(tree.data(class), Some("name"));
        let text = first(&tree, td, "text");
        assert_eq!(tree.data(text), Some("Ada"));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(html_to_hdt("").is_err());
        assert!(html_to_hdt("   \n  ").is_err());
        assert!(html_to_hdt("just text, no markup").is_err());
    }

    #[test]
    fn depth_limit_is_a_typed_error_not_a_crash() {
        // The HTML parse is iterative, so no big-stack thread is needed: the
        // guard fires while the open-element stack grows.
        let limit = crate::error::MAX_PARSE_DEPTH;
        let deep = "<div>".repeat(limit + 1);
        match html_to_hdt(&deep) {
            Err(HdtError::DepthLimit { limit: l, .. }) => assert_eq!(l, limit),
            Err(other) => panic!("expected depth-limit error, got {other:?}"),
            Ok(_) => panic!("expected depth-limit error, got a parsed document"),
        }
    }

    #[test]
    fn whitespace_inside_text_is_collapsed() {
        let html = "<p>  spread \n  over   lines  </p>";
        let tree = html_to_hdt(html).unwrap();
        assert_eq!(leaf(&tree, tree.root(), "text"), Some("spread over lines"));
    }

    #[test]
    fn multi_byte_text_at_a_prefix_probe_offset_does_not_panic() {
        // Fixed fuzz regression (seeded suite, scenario 195): lossy recovery of
        // corrupted bytes puts U+FFFD in text content so that the 4-byte `<!--`
        // prefix probe lands inside the character; `starts_with_ci` used to slice
        // the `str` at that offset and panic on the char boundary.
        let html = "n-\u{fffd}0</td><td>545</td><tr><td>n-1</td></table>";
        assert!(html_to_hdt(html).is_ok(), "lenient parse must not panic");
    }
}
