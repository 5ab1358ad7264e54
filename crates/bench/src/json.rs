//! Small builders over [`mitra_hdt::JsonValue`] for `bench_smoke`'s
//! `BENCH_synthesis.json`.  The hdt crate already owns a full JSON model and
//! serializer (pretty and compact), so the harness only adds convenience
//! constructors; there is no second serializer to keep in sync.

pub use mitra_hdt::JsonValue;

/// An object from `(key, value)` pairs, preserving insertion order.
pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A string value.
pub fn s(v: impl Into<String>) -> JsonValue {
    JsonValue::String(v.into())
}

/// An integer value (exact for |v| < 2^53, far beyond any harness quantity).
pub fn int(v: usize) -> JsonValue {
    JsonValue::Number(v as f64)
}

/// A float value (seconds, ratios).
pub fn num(v: f64) -> JsonValue {
    if v.is_finite() {
        JsonValue::Number(v)
    } else {
        JsonValue::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_roundtrip_through_the_hdt_parser() {
        let doc = obj(vec![
            ("name", s("x")),
            ("n", int(3)),
            ("t", num(0.5)),
            ("flag", JsonValue::Bool(true)),
            ("inf", num(f64::INFINITY)),
            ("rows", JsonValue::Array(vec![int(1), int(2)])),
        ]);
        let text = doc.to_string_compact();
        assert_eq!(
            text,
            "{\"name\":\"x\",\"n\":3,\"t\":0.5,\"flag\":true,\"inf\":null,\"rows\":[1,2]}"
        );
        assert_eq!(mitra_hdt::parse_json(&text).unwrap(), doc);
    }
}
