//! A JSON value with a writer and a parser — enough for the result file,
//! the one-line child protocol and `--compare` (the build is offline, so
//! no serde). Objects keep insertion order, so equal results serialise to
//! equal bytes.

use std::fmt::Write as _;

use tactic_telemetry::json::push_json_string;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

/// A number that JSON cannot carry (NaN or an infinity) reached the
/// writer. A measurement that is not finite is a bug in the benchmark,
/// never something to paper over with `null`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonFinite;

impl std::fmt::Display for NonFinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("non-finite number in JSON output")
    }
}

impl Value {
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Field `key` of an object (`None` for other kinds or a missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53))
            .map(|n| n as u64)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Serialises on one line.
    ///
    /// # Errors
    ///
    /// [`NonFinite`] if any number is NaN or infinite.
    pub fn to_line(&self) -> Result<String, NonFinite> {
        let mut out = String::new();
        self.write(&mut out, None, 0)?;
        Ok(out)
    }

    /// Serialises indented by two spaces per level (the result file).
    ///
    /// # Errors
    ///
    /// [`NonFinite`] if any number is NaN or infinite.
    pub fn to_pretty(&self) -> Result<String, NonFinite> {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0)?;
        out.push('\n');
        Ok(out)
    }

    fn write(
        &self,
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
    ) -> Result<(), NonFinite> {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if !n.is_finite() {
                    return Err(NonFinite);
                }
                // Shortest round-trip form: every digit as measured.
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => push_json_string(out, s),
            Value::Arr(items) => {
                // Arrays of scalars (sample lists) stay on one line.
                let flat = items
                    .iter()
                    .all(|v| !matches!(v, Value::Arr(_) | Value::Obj(_)));
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                        if flat && indent.is_some() {
                            out.push(' ');
                        }
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    v.write(out, indent, depth + 1)?;
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    push_json_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1)?;
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A message with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Result files nest five levels deep; anything deeper is not ours.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(|p| {
                let mut items = Vec::new();
                p.skip_ws();
                if p.bytes.get(p.pos) == Some(&b']') {
                    p.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(p.value()?);
                    p.skip_ws();
                    if p.eat(",") {
                        continue;
                    }
                    p.expect(b']')?;
                    return Ok(Value::Arr(items));
                }
            }),
            Some(b'{') => self.nested(|p| {
                let mut fields = Vec::new();
                p.skip_ws();
                if p.bytes.get(p.pos) == Some(&b'}') {
                    p.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    p.skip_ws();
                    let key = p.string()?;
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    p.skip_ws();
                    if p.eat(",") {
                        continue;
                    }
                    p.expect(b'}')?;
                    return Ok(Value::Obj(fields));
                }
            }),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    /// Consumes the opening bracket, runs `body` one level deeper.
    fn nested(
        &mut self,
        body: impl FnOnce(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("bad UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(hex);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_strings_and_keys() {
        let v = Value::obj([("a\"b", Value::str("line\nbreak\ttab\\ \u{1} é"))]);
        assert_eq!(
            v.to_line().unwrap(),
            r#"{"a\"b":"line\nbreak\ttab\\ \u0001 é"}"#
        );
    }

    #[test]
    fn writer_rejects_non_finite_numbers_anywhere() {
        assert_eq!(Value::Num(f64::NAN).to_line(), Err(NonFinite));
        let nested = Value::obj([(
            "m",
            Value::Arr(vec![Value::Num(1.0), Value::Num(f64::INFINITY)]),
        )]);
        assert_eq!(nested.to_line(), Err(NonFinite));
        assert_eq!(nested.to_pretty(), Err(NonFinite));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(
            Value::Num(0.1 + 0.2).to_line().unwrap(),
            "0.30000000000000004"
        );
        assert_eq!(Value::Num(3.0).to_line().unwrap(), "3");
    }

    #[test]
    fn round_trips_through_both_layouts() {
        let v = Value::obj([
            ("null", Value::Null),
            ("yes", Value::Bool(true)),
            ("n", Value::Num(-1.25e-3)),
            ("s", Value::str("q\"\\\n\u{1}")),
            ("flat", Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)])),
            (
                "deep",
                Value::Arr(vec![Value::obj([("k", Value::Arr(vec![]))])]),
            ),
            ("empty", Value::Obj(vec![])),
        ]);
        assert_eq!(parse(&v.to_line().unwrap()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty().unwrap()).unwrap(), v);
    }

    #[test]
    fn accessors_are_kind_checked() {
        let v = parse(r#"{"a": 3, "b": [true, "x"], "c": 2.5, "d": -1}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("c").and_then(Value::as_u64), None);
        assert_eq!(v.get("d").and_then(Value::as_u64), None);
        let b = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1].as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_obj().map(<[_]>::len), Some(4));
    }

    #[test]
    fn parser_reports_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"open",
            "nul",
            "1 2",
            "1e999",
            "\"\\x\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().contains("too deep"));
    }
}
