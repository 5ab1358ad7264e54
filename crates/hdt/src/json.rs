//! From-scratch JSON parsing, serialization and the JSON→HDT mapping.
//!
//! The parser accepts the full JSON grammar (RFC 8259): objects, arrays, strings with
//! escapes (including `\uXXXX` surrogate pairs), numbers, booleans and null.  There is
//! one grammar, and it reports what it parses, in document order, to a builder:
//! [`parse_json`] builds a [`JsonValue`], and [`json_to_hdt`] builds the HDT arena as
//! it parses, with no `JsonValue` in between.
//!
//! Section 3 of the paper maps a JSON document to an HDT as follows: each key/value
//! pair becomes a node whose tag is the key and whose data is the value (for scalar
//! values); an object becomes an internal node with `data = nil`, created at its `{`;
//! an array value under key `k` becomes its entries, nodes tagged `k` (an array
//! nested in an array flattens the same way).  The document's own entries hang under
//! a root tagged `root`; a bare root array's entries are tagged `item`, and a bare
//! root scalar is a `value` leaf.  Like every tree's, a node's `pos` is derived by
//! the tree's index: the `k` entries under one parent are numbered 0, 1, 2, … in
//! document order, so nested arrays and repeated keys continue their key's
//! numbering (`{"k": [[1, 2], 3], "k": 4}` gives `k` positions 0 to 3).
//!
//! A scalar's data is its text: a string's content, `true`, `false` or `null`, and for
//! a number [`format_number`] of its `f64` (`1.50` is stored as `1.5`, `1e2` as
//! `100`).  Numbers follow RFC 8259: `007`, `1.` and `.5` are errors.  The arena
//! builder writes each datum straight into the tree's text buffer: a string from the
//! parsed slice, a number through `format_number`'s rule, so a parse allocates per
//! document, not per node.

use crate::error::{HdtError, Result, MAX_PARSE_DEPTH};
use crate::tree::Hdt;
use crate::{NodeId, TagId};
use std::borrow::Cow;
use std::fmt::Write;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as f64 (integers round-trip exactly up to 2^53).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the string content if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, 0, &mut out);
        out
    }

    /// Serializes compactly (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }
}

/// Parses a JSON document.
pub fn parse_json(input: &str) -> Result<JsonValue> {
    Ok(parse(input, ValueBuilder::new())?.root)
}

/// Parses a JSON document into an HDT rooted at a node tagged `root`, building the
/// arena as it parses (the mapping in the module docs).
pub fn json_to_hdt(input: &str) -> Result<Hdt> {
    let _span = mitra_trace::span("ingest", "json_to_hdt");
    let tree = parse(input, TreeBuilder::new())?.tree;
    mitra_trace::counter_add!("ingest.json.docs", 1);
    mitra_trace::counter_add!("ingest.json.nodes", tree.len() as u64);
    Ok(tree)
}

/// Runs the grammar over a whole document, reporting to `builder`.
fn parse<B: Builder>(input: &str, builder: B) -> Result<B> {
    let mut p = JsonParser::new(input, builder);
    p.skip_ws();
    p.parse_value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(HdtError::parse(
            "trailing characters after JSON value",
            p.pos,
        ));
    }
    Ok(p.builder)
}

/// A scalar value as the grammar parsed it.
enum Scalar<'a> {
    Null,
    Bool(bool),
    Number(f64),
    /// A string's content: borrowed from the input when it has no escape.
    String(Cow<'a, str>),
}

/// Receives what the grammar parses, in document order.  Every `begin_*` is matched
/// by one [`Builder::end`], and inside an object each value follows its key.  A
/// builder's error ends the parse.
trait Builder {
    fn begin_object(&mut self) -> Result<()>;
    fn begin_array(&mut self);
    fn key(&mut self, key: Cow<'_, str>);
    /// Closes the innermost open object or array.
    fn end(&mut self);
    fn scalar(&mut self, scalar: Scalar<'_>) -> Result<()>;
}

/// Builds the [`JsonValue`] behind [`parse_json`].
struct ValueBuilder {
    /// Open objects and arrays, innermost last, each with the key it sits under.
    open: Vec<(String, JsonValue)>,
    /// The key of the next object entry.
    key: String,
    /// The document's value once it is complete.
    root: JsonValue,
}

impl ValueBuilder {
    fn new() -> Self {
        ValueBuilder {
            open: Vec::new(),
            key: String::new(),
            root: JsonValue::Null,
        }
    }

    fn begin(&mut self, container: JsonValue) {
        let key = std::mem::take(&mut self.key);
        self.open.push((key, container));
    }

    /// Adds a complete value to the innermost open container, or makes it the root.
    fn add(&mut self, value: JsonValue) {
        match self.open.last_mut() {
            Some((_, JsonValue::Object(fields))) => {
                fields.push((std::mem::take(&mut self.key), value))
            }
            Some((_, JsonValue::Array(items))) => items.push(value),
            _ => self.root = value,
        }
    }
}

impl Builder for ValueBuilder {
    fn begin_object(&mut self) -> Result<()> {
        self.begin(JsonValue::Object(Vec::new()));
        Ok(())
    }

    fn begin_array(&mut self) {
        self.begin(JsonValue::Array(Vec::new()));
    }

    fn key(&mut self, key: Cow<'_, str>) {
        self.key = key.into_owned();
    }

    fn end(&mut self) {
        if let Some((key, value)) = self.open.pop() {
            self.key = key;
            self.add(value);
        }
    }

    fn scalar(&mut self, scalar: Scalar<'_>) -> Result<()> {
        self.add(match scalar {
            Scalar::Null => JsonValue::Null,
            Scalar::Bool(b) => JsonValue::Bool(b),
            Scalar::Number(n) => JsonValue::Number(n),
            Scalar::String(s) => JsonValue::String(s.into_owned()),
        });
        Ok(())
    }
}

/// Builds the HDT behind [`json_to_hdt`], applying Section 3's mapping as the grammar
/// reports.
struct TreeBuilder {
    tree: Hdt,
    /// Open objects and arrays, innermost last.
    open: Vec<Open>,
    /// The tag of the next object entry.
    key: TagId,
}

/// An open object or array, as the arena sees it.
enum Open {
    /// An object whose entries become children of this node.
    Object(NodeId),
    /// An array whose entries become children of `parent` tagged `tag`.
    Array { parent: NodeId, tag: TagId },
}

impl TreeBuilder {
    fn new() -> Self {
        let tree = Hdt::with_root("root");
        let key = tree.tag(tree.root());
        TreeBuilder {
            tree,
            open: Vec::new(),
            key,
        }
    }

    /// The parent and tag of the next value, or `None` at the top level.
    fn slot(&self) -> Option<(NodeId, TagId)> {
        match self.open.last()? {
            Open::Object(node) => Some((*node, self.key)),
            Open::Array { parent, tag } => Some((*parent, *tag)),
        }
    }
}

impl Builder for TreeBuilder {
    fn begin_object(&mut self) -> Result<()> {
        // The document's object is the root itself.
        let node = match self.slot() {
            Some((parent, tag)) => self.tree.push_child(parent, tag, None)?,
            None => NodeId::ROOT,
        };
        self.open.push(Open::Object(node));
        Ok(())
    }

    fn begin_array(&mut self) {
        // An array makes no node: its entries take its slot's parent and tag.
        let (parent, tag) = self
            .slot()
            .unwrap_or_else(|| (NodeId::ROOT, TagId::from("item")));
        self.open.push(Open::Array { parent, tag });
    }

    fn key(&mut self, key: Cow<'_, str>) {
        self.key = TagId::from(&*key);
    }

    fn end(&mut self) {
        self.open.pop();
    }

    fn scalar(&mut self, scalar: Scalar<'_>) -> Result<()> {
        let (parent, tag) = self
            .slot()
            .unwrap_or_else(|| (NodeId::ROOT, TagId::from("value")));
        let data = match scalar {
            Scalar::Null => "null",
            Scalar::Bool(true) => "true",
            Scalar::Bool(false) => "false",
            Scalar::String(s) => return self.tree.push_child(parent, tag, Some(&s)).map(drop),
            Scalar::Number(n) => {
                let leaf = self.tree.push_child(parent, tag, None)?;
                return self.tree.fill_leaf(leaf, |buf| write_number(buf, n));
            }
        };
        self.tree.push_child(parent, tag, Some(data)).map(drop)
    }
}

/// Formats an f64 the way JSON integers are usually written (no trailing `.0`).
pub fn format_number(n: f64) -> String {
    let mut out = String::new();
    write_number(&mut out, n);
    out
}

/// Appends `n` to `out` by [`format_number`]'s rule, through `fmt::Write`.
fn write_number(out: &mut String, n: f64) {
    // Writing into a `String` cannot fail.
    let _ = if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

fn write_value(v: &JsonValue, indent: usize, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => write_number(out, *n),
        JsonValue::String(s) => write_json_string(s, out),
        JsonValue::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        JsonValue::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&"  ".repeat(indent + 1));
                write_json_string(k, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

fn write_compact(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => write_number(out, *n),
        JsonValue::String(s) => write_json_string(s, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

/// Renders `s` as a JSON string literal: the workspace's JSON string writer
/// (only `mitra-trace`, a dependency of this crate, keeps its own).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(s, &mut out);
    out
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonParser<'a, B> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current object/array nesting depth, bounded by [`MAX_PARSE_DEPTH`].
    depth: usize,
    builder: B,
}

impl<'a, B: Builder> JsonParser<'a, B> {
    fn new(input: &'a str, builder: B) -> Self {
        JsonParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
            builder,
        }
    }

    /// Charges one level of container nesting; typed error past the bound.
    fn enter(&mut self) -> Result<()> {
        if self.depth >= MAX_PARSE_DEPTH {
            return Err(HdtError::DepthLimit {
                limit: MAX_PARSE_DEPTH,
                offset: self.pos,
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(HdtError::parse(
                format!("expected '{}'", b as char),
                self.pos,
            ))
        }
    }

    fn parse_value(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.enter()?;
                let v = self.parse_object();
                self.leave();
                v
            }
            Some(b'[') => {
                self.enter()?;
                let v = self.parse_array();
                self.leave();
                v
            }
            Some(b'"') => {
                let s = self.parse_string()?;
                self.builder.scalar(Scalar::String(s))
            }
            Some(b't') => self.parse_keyword("true", Scalar::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Scalar::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Scalar::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(HdtError::parse(
                format!("unexpected character '{}'", c as char),
                self.pos,
            )),
            None => Err(HdtError::parse("unexpected end of input", self.pos)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Scalar<'a>) -> Result<()> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            self.builder.scalar(value)
        } else {
            Err(HdtError::parse(format!("expected '{word}'"), self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<()> {
        self.expect(b'{')?;
        self.builder.begin_object()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.builder.end();
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.builder.key(key);
            self.skip_ws();
            self.expect(b':')?;
            self.parse_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.builder.end();
                    return Ok(());
                }
                _ => return Err(HdtError::parse("expected ',' or '}' in object", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<()> {
        self.expect(b'[')?;
        self.builder.begin_array();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.builder.end();
            return Ok(());
        }
        loop {
            self.parse_value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    self.builder.end();
                    return Ok(());
                }
                _ => return Err(HdtError::parse("expected ',' or ']' in array", self.pos)),
            }
        }
    }

    /// Parses a string literal, borrowing its content from the input when it holds
    /// no escape and copying each run between escapes in one step otherwise.
    fn parse_string(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let input = self.input;
        let mut run = self.pos;
        let mut unescaped: Option<String> = None;
        loop {
            let rest = &self.bytes[self.pos..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            match self.peek() {
                None => return Err(HdtError::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    let tail = &input[run..self.pos];
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(_) => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(&input[run..self.pos]);
                    self.pos += 1;
                    self.parse_escape(out)?;
                    run = self.pos;
                }
            }
        }
    }

    /// Decodes the escape sequence after a backslash into `out`.
    fn parse_escape(&mut self, out: &mut String) -> Result<()> {
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: expect a \uXXXX low surrogate.
                    if self.input[self.pos..].starts_with("\\u") {
                        self.pos += 2;
                        let low = self.parse_hex4()?;
                        if (0xDC00..0xE000).contains(&low) {
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                        } else {
                            // Not a low surrogate: the high one stands alone.
                            out.push('\u{FFFD}');
                            out.push(char::from_u32(low).unwrap_or('\u{FFFD}'));
                        }
                    } else {
                        out.push('\u{FFFD}');
                    }
                } else {
                    out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                }
                return Ok(());
            }
            _ => return Err(HdtError::parse("invalid escape sequence", self.pos)),
        };
        out.push(ch);
        self.pos += 1;
        Ok(())
    }

    /// Reads the four hex digits of a `\u` escape.
    fn parse_hex4(&mut self) -> Result<u32> {
        // Bytes, not a `str` slice: the fourth byte may sit inside a multi-byte
        // character.
        let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(HdtError::parse("truncated \\u escape", self.pos));
        };
        // Four ASCII hex digits (`u32::from_str_radix` would also take a sign).
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(HdtError::parse("invalid \\u escape", self.pos));
        }
        let digit = |b: u8| char::from(b).to_digit(16).unwrap_or(0);
        let cp = hex.iter().fold(0, |cp, &b| cp << 4 | digit(b));
        self.pos += 4;
        Ok(cp)
    }

    /// Skips a run of ASCII digits and returns its length.
    fn skip_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// Parses a number: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, as
    /// RFC 8259 has it.  The scan takes every digit, `.`, exponent and sign in
    /// that order, so a malformed literal is reported whole.
    fn parse_number(&mut self) -> Result<()> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.skip_digits();
        // One digit, or several not led by a zero.
        let mut valid = int == 1 || (int > 1 && self.bytes[self.pos - int] != b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.skip_digits() > 0;
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            valid &= self.skip_digits() > 0;
        }
        let text = &self.input[start..self.pos];
        let value = text
            .parse::<f64>()
            .ok()
            .filter(|_| valid)
            .ok_or_else(|| HdtError::parse(format!("invalid number '{text}'"), start))?;
        self.builder.scalar(Scalar::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOCIAL: &str = r#"{
      "Person": [
        {"id": 1, "name": "Alice", "Friendship": {"Friend": [{"fid": 2, "years": 3}]}},
        {"id": 2, "name": "Bob"}
      ]
    }"#;

    #[test]
    fn parses_nested_objects_and_arrays() {
        let v = parse_json(SOCIAL).unwrap();
        let persons = v.get("Person").unwrap();
        match persons {
            JsonValue::Array(items) => assert_eq!(items.len(), 2),
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn scalar_types_parse() {
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("-12.5e1").unwrap(), JsonValue::Number(-125.0));
        assert_eq!(
            parse_json("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".to_string())
        );
    }

    #[test]
    fn unicode_escapes_incl_surrogates() {
        assert_eq!(
            parse_json("\"\\u0041\"").unwrap(),
            JsonValue::String("A".into())
        );
        assert_eq!(
            parse_json("\"\\uD83D\\uDE00\"").unwrap(),
            JsonValue::String("😀".into())
        );
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"abc").is_err());
    }

    #[test]
    fn hdt_mapping_arrays_get_positions() {
        let tree = json_to_hdt(SOCIAL).unwrap();
        tree.validate().unwrap();
        let persons = tree.children_with_tag(tree.root(), "Person");
        assert_eq!(persons.len(), 2);
        assert_eq!(tree.pos(persons[0]), 0);
        assert_eq!(tree.pos(persons[1]), 1);
        let name = tree.child(persons[0], "name", 0).unwrap();
        assert_eq!(tree.data(name), Some("Alice"));
        // Friend array entries nested two levels down.
        let friendship = tree.child(persons[0], "Friendship", 0).unwrap();
        let friends = tree.children_with_tag(friendship, "Friend");
        assert_eq!(friends.len(), 1);
        assert_eq!(
            tree.data(tree.child(friends[0], "years", 0).unwrap()),
            Some("3")
        );
    }

    #[test]
    fn numbers_are_stored_without_trailing_zero() {
        let tree = json_to_hdt("{\"x\": 5, \"y\": 5.5}").unwrap();
        let x = tree.child(tree.root(), "x", 0).unwrap();
        let y = tree.child(tree.root(), "y", 0).unwrap();
        assert_eq!(tree.data(x), Some("5"));
        assert_eq!(tree.data(y), Some("5.5"));
    }

    #[test]
    fn roundtrip_pretty_and_compact() {
        let v = parse_json(SOCIAL).unwrap();
        let pretty = v.to_string_pretty();
        let compact = v.to_string_compact();
        assert_eq!(parse_json(&pretty).unwrap(), v);
        assert_eq!(parse_json(&compact).unwrap(), v);
        assert!(compact.len() <= pretty.len());
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
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
                let deep = "[".repeat(limit + 1);
                match parse_json(&deep) {
                    Err(HdtError::DepthLimit { limit: l, .. }) => assert_eq!(l, limit),
                    other => panic!("expected depth-limit error, got {other:?}"),
                }
                assert_eq!(json_to_hdt(&deep).err(), parse_json(&deep).err());
                // Exactly at the limit still parses.
                let ok = format!("{}1{}", "[".repeat(limit), "]".repeat(limit));
                assert!(parse_json(&ok).is_ok());
                let tree = json_to_hdt(&ok).unwrap();
                assert_eq!(tree.len(), 2, "nested arrays flatten to one `item` leaf");
            })
            .expect("spawn big-stack thread")
            .join()
            .expect("no panic");
    }

    #[test]
    fn bare_array_root_maps_to_item_nodes() {
        let tree = json_to_hdt("[10, 20, 30]").unwrap();
        let items = tree.children_with_tag(tree.root(), "item");
        assert_eq!(items.len(), 3);
        assert_eq!(tree.pos(items[2]), 2);
        assert_eq!(tree.data(items[2]), Some("30"));
    }

    #[test]
    fn keys_with_and_without_escapes_become_tags() {
        let tree = json_to_hdt(r#"{"plain": 1, "a\"b\u0041": {"x": "y\nz"}}"#).unwrap();
        let root = tree.root();
        assert_eq!(tree.data(tree.child(root, "plain", 0).unwrap()), Some("1"));
        let escaped = tree.child(root, "a\"bA", 0).unwrap();
        assert_eq!(tree.data(escaped), None);
        assert_eq!(
            tree.data(tree.child(escaped, "x", 0).unwrap()),
            Some("y\nz")
        );
    }

    #[test]
    fn nested_arrays_flatten_under_the_enclosing_key() {
        let tree = json_to_hdt(r#"{"k": [[1, 2], 3, {"a": true}]}"#).unwrap();
        let ks = tree.children_with_tag(tree.root(), "k");
        let entries: Vec<(usize, Option<&str>)> =
            ks.iter().map(|&k| (tree.pos(k), tree.data(k))).collect();
        assert_eq!(
            entries,
            [(0, Some("1")), (1, Some("2")), (2, Some("3")), (3, None)]
        );
        assert_eq!(tree.data(tree.child(ks[3], "a", 0).unwrap()), Some("true"));
    }

    #[test]
    fn nested_arrays_and_repeated_keys_continue_their_keys_numbering() {
        for (text, tag) in [
            (r#"{"a":1,"a":2}"#, "a"),
            (r#"{"a":[1,2],"a":[3]}"#, "a"),
            ("[[1],[2,3]]", "item"),
        ] {
            let tree = json_to_hdt(text).unwrap();
            tree.validate().unwrap();
            let entries = tree.children_with_tag(tree.root(), tag);
            let positions: Vec<usize> = entries.iter().map(|&e| tree.pos(e)).collect();
            assert_eq!(positions, (0..entries.len()).collect::<Vec<_>>(), "{text}");
            for (pos, &entry) in entries.iter().enumerate() {
                assert_eq!(tree.child(tree.root(), tag, pos), Some(entry), "{text}");
            }
        }
    }

    #[test]
    fn a_bare_root_scalar_is_a_value_leaf() {
        for (text, data) in [
            ("null", "null"),
            ("false", "false"),
            ("\"s\"", "s"),
            ("-0", "0"),
        ] {
            let tree = json_to_hdt(text).unwrap();
            let value = tree.child(tree.root(), "value", 0).unwrap();
            assert_eq!(tree.data(value), Some(data), "{text}");
        }
    }

    #[test]
    fn malformed_unicode_escapes_are_typed_errors_or_replacements() {
        // The fourth byte after `\u` inside a multi-byte character is a typed
        // error, not a `str` slice across a character boundary.
        for text in ["\"\\u000\u{e9}\"", "{\"\\u00\u{e9}\": 1}"] {
            assert!(
                matches!(parse_json(text), Err(HdtError::Parse { .. })),
                "{text}"
            );
            assert_eq!(json_to_hdt(text).err(), parse_json(text).err());
        }
        // A high surrogate followed by an escape that is no low surrogate stands
        // alone, and the second escape keeps its own character.
        for (text, want) in [
            ("\"\\uD800\\u0041\"", "\u{FFFD}A"),
            ("\"\\uD800\\uE000\"", "\u{FFFD}\u{E000}"),
            ("\"\\uD800x\"", "\u{FFFD}x"),
        ] {
            assert_eq!(parse_json(text).unwrap(), JsonValue::String(want.into()));
        }
    }
}
