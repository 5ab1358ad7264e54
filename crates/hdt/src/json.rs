//! From-scratch JSON parsing, serialization and the JSON→HDT mapping.
//!
//! The parser accepts the full JSON grammar (RFC 8259): objects, arrays, strings with
//! escapes (including `\uXXXX` surrogate pairs), numbers, booleans and null.
//!
//! Section 3 of the paper maps a JSON document to an HDT as follows: each key/value
//! pair becomes a node whose tag is the key and whose data is the value (for scalar
//! values); objects and arrays become internal nodes with `data = nil`; an array value
//! under key `k` becomes several nodes tagged `k` with `pos` 0, 1, 2, ….

use crate::error::{HdtError, Result, MAX_PARSE_DEPTH};
use crate::tree::Hdt;
use crate::NodeId;

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

    /// Renders a scalar value the way it is stored as HDT node data.
    fn scalar_data(&self) -> Option<String> {
        match self {
            JsonValue::Null => Some("null".to_string()),
            JsonValue::Bool(b) => Some(b.to_string()),
            JsonValue::Number(n) => Some(format_number(*n)),
            JsonValue::String(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Number of object/array values in this subtree (the `#Elements` statistic).
    pub fn element_count(&self) -> usize {
        match self {
            JsonValue::Array(items) => {
                1 + items.iter().map(JsonValue::element_count).sum::<usize>()
            }
            JsonValue::Object(fields) => {
                1 + fields.iter().map(|(_, v)| v.element_count()).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Converts the value into an HDT rooted at a node tagged `root_tag`.
    pub fn to_hdt(&self, root_tag: &str) -> Hdt {
        let mut tree = Hdt::with_root(root_tag);
        let root = tree.root();
        fill(&mut tree, root, self);
        tree
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

fn fill(tree: &mut Hdt, parent: NodeId, value: &JsonValue) {
    match value {
        JsonValue::Object(fields) => {
            for (key, v) in fields {
                add_entry(tree, parent, key, v, 0);
            }
        }
        JsonValue::Array(items) => {
            // A bare array at this level: entries become `item` nodes with increasing pos.
            for (i, v) in items.iter().enumerate() {
                add_entry(tree, parent, "item", v, i);
            }
        }
        scalar => {
            if let Some(d) = scalar.scalar_data() {
                tree.add_child_with_pos(parent, "value", 0, Some(d));
            }
        }
    }
}

fn add_entry(tree: &mut Hdt, parent: NodeId, key: &str, value: &JsonValue, pos: usize) {
    match value {
        JsonValue::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                add_entry(tree, parent, key, item, i);
            }
        }
        JsonValue::Object(fields) => {
            let id = tree.add_child_with_pos(parent, key, pos, None);
            for (k, v) in fields {
                add_entry(tree, id, k, v, 0);
            }
        }
        scalar => {
            tree.add_child_with_pos(parent, key, pos, scalar.scalar_data());
        }
    }
}

/// Parses a JSON document.
pub fn parse_json(input: &str) -> Result<JsonValue> {
    let mut p = JsonParser::new(input);
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(HdtError::parse(
            "trailing characters after JSON value",
            p.pos,
        ));
    }
    Ok(v)
}

/// Parses a JSON document and converts it to an HDT rooted at `root`.
pub fn json_to_hdt(input: &str) -> Result<Hdt> {
    let _span = mitra_trace::span("ingest", "json_to_hdt");
    let tree = parse_json(input)?.to_hdt("root");
    mitra_trace::counter_add!("ingest.json.docs", 1);
    mitra_trace::counter_add!("ingest.json.nodes", tree.len() as u64);
    Ok(tree)
}

/// Formats an f64 the way JSON integers are usually written (no trailing `.0`).
pub fn format_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_value(v: &JsonValue, indent: usize, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => out.push_str(&format_number(*n)),
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
        JsonValue::Number(n) => out.push_str(&format_number(*n)),
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

struct JsonParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current object/array nesting depth, bounded by [`MAX_PARSE_DEPTH`].
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn new(input: &'a str) -> Self {
        JsonParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
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

    fn parse_value(&mut self) -> Result<JsonValue> {
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
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(HdtError::parse(
                format!("unexpected character '{}'", c as char),
                self.pos,
            )),
            None => Err(HdtError::parse("unexpected end of input", self.pos)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(HdtError::parse(format!("expected '{word}'"), self.pos))
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(HdtError::parse("expected ',' or '}' in object", self.pos)),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            let value = self.parse_value()?;
            items.push(value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(HdtError::parse("expected ',' or ']' in array", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(HdtError::parse("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: expect \uXXXX low surrogate.
                                if self.input[self.pos..].starts_with("\\u") {
                                    self.pos += 2;
                                    let low = self.parse_hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    out.push(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                                } else {
                                    out.push('\u{FFFD}');
                                }
                            } else {
                                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            }
                            continue;
                        }
                        _ => return Err(HdtError::parse("invalid escape sequence", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character; `peek` saw a byte, so one is
                    // there, but degrade to a typed error rather than panic.
                    let Some(ch) = self.input[self.pos..].chars().next() else {
                        return Err(HdtError::parse("unterminated string", self.pos));
                    };
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(HdtError::parse("truncated \\u escape", self.pos));
        }
        let hex = &self.input[self.pos..self.pos + 4];
        let cp = u32::from_str_radix(hex, 16)
            .map_err(|_| HdtError::parse("invalid \\u escape", self.pos))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| HdtError::parse(format!("invalid number '{text}'"), start))
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
    fn element_count_counts_objects_and_arrays() {
        let v = parse_json(SOCIAL).unwrap();
        // object root + Person array + 2 person objects + Friendship + Friend array + friend object
        assert_eq!(v.element_count(), 7);
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
                // Exactly at the limit still parses.
                let ok = format!("{}1{}", "[".repeat(limit), "]".repeat(limit));
                assert!(parse_json(&ok).is_ok());
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
}
