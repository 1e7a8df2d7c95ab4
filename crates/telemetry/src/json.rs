//! Minimal hand-rolled JSON encoding (the build environment is offline,
//! so no serde). Only what the JSONL exporter and manifests need: objects
//! with string keys and string/number/array values, written in the order
//! fields are pushed.
//!
//! Determinism: callers push fields in a fixed order and numbers are
//! formatted with Rust's shortest-round-trip `{}` formatter, so equal
//! values always serialize to equal bytes.

use std::fmt::Write as _;

/// Escapes `s` per RFC 8259 and appends it, quoted, to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an f64 as a JSON number. NaN and infinities (not representable
/// in JSON) are written as `null`.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// One value a [`JsonObject`] field can hold, for writers that walk a
/// table of (key, value) pairs.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// A string.
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A float (`null` when not finite).
    F64(f64),
    /// An array of unsigned integers.
    U64s(&'a [u64]),
}

/// An in-order JSON object writer producing one `{...}` string.
///
/// ```
/// use tactic_telemetry::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_str("kind", "counter").field_u64("value", 3);
/// assert_eq!(o.finish(), r#"{"kind":"counter","value":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_json_string(&mut self.buf, k);
        self.buf.push(':');
        &mut self.buf
    }

    /// Adds a field of whichever kind `v` is.
    pub fn field(&mut self, k: &str, v: Value<'_>) -> &mut Self {
        match v {
            Value::Str(v) => self.field_str(k, v),
            Value::U64(v) => self.field_u64(k, v),
            Value::F64(v) => self.field_f64(k, v),
            Value::U64s(v) => self.field_u64_array(k, v),
        }
    }

    /// Adds a string field.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        let buf = self.key(k);
        push_json_string(buf, v);
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        let buf = self.key(k);
        let _ = write!(buf, "{v}");
        self
    }

    /// Adds a float field (`null` for non-finite values).
    pub(crate) fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        let buf = self.key(k);
        push_json_f64(buf, v);
        self
    }

    /// Adds an array of floats.
    pub(crate) fn field_f64_array(&mut self, k: &str, vs: &[f64]) -> &mut Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            push_json_f64(buf, *v);
        }
        buf.push(']');
        self
    }

    /// Adds an array of unsigned integers.
    pub(crate) fn field_u64_array(&mut self, k: &str, vs: &[u64]) -> &mut Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "{v}");
        }
        buf.push(']');
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested objects/arrays).
    /// The caller is responsible for `v` being valid JSON.
    pub(crate) fn field_raw(&mut self, k: &str, v: &str) -> &mut Self {
        let buf = self.key(k);
        buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\te\u0001""#);
    }

    /// Edge cases for the workspace's single shared escaping helper:
    /// quotes, backslashes, and every control character below 0x20 must
    /// round-trip to valid RFC 8259 text wherever they appear.
    #[test]
    fn escaping_edge_cases() {
        let check = |input: &str, want: &str| {
            let mut s = String::new();
            push_json_string(&mut s, input);
            assert_eq!(s, want, "escaping {input:?}");
        };
        check("", r#""""#);
        check(r#"""#, r#""\"""#);
        check(r"\", r#""\\""#);
        check(r"\\", r#""\\\\""#);
        check(r#"\""#, r#""\\\"""#);
        check("a\"b\"c", r#""a\"b\"c""#);
        check("\u{7f}", "\"\u{7f}\""); // DEL is not a JSON control char
        check("\n\r\t", r#""\n\r\t""#);
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        check("π≈3", "\"π≈3\"");
        // Every control character renders either a short escape or \uXXXX.
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let mut s = String::new();
            push_json_string(&mut s, &c.to_string());
            assert!(
                s.starts_with("\"\\") && s.ends_with('"'),
                "control {c:?} must be escaped, got {s}"
            );
        }
        // Spot-check the \uXXXX form for NUL and unit separator.
        let mut s = String::new();
        push_json_string(&mut s, "\u{0}");
        assert_eq!(s, "\"\\u0000\"");
        let mut s = String::new();
        push_json_string(&mut s, "\u{1f}");
        assert_eq!(s, "\"\\u001f\"");
    }

    #[test]
    fn field_raw_embeds_nested_json() {
        let mut inner = JsonObject::new();
        inner.field_u64("value", 3);
        let mut o = JsonObject::new();
        o.field_str("ph", "C").field_raw("args", &inner.finish());
        assert_eq!(o.finish(), r#"{"ph":"C","args":{"value":3}}"#);
    }

    #[test]
    fn object_field_order_is_push_order() {
        let mut o = JsonObject::new();
        o.field_u64("b", 2).field_str("a", "x").field_f64("f", 0.5);
        assert_eq!(o.finish(), r#"{"b":2,"a":"x","f":0.5}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.field_f64("nan", f64::NAN)
            .field_f64_array("xs", &[1.0, f64::INFINITY]);
        assert_eq!(o.finish(), r#"{"nan":null,"xs":[1,null]}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
