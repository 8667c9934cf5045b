//! # serde_json (offline shim)
//!
//! JSON encoding/decoding over the offline `serde` shim's [`Value`]
//! model. Provides the handful of entry points this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`from_slice`],
//! and the [`Value`] re-export.
//!
//! The writer escapes control characters, quotes, and backslashes; the
//! reader is a straightforward recursive-descent parser accepting the
//! full JSON grammar (including `\uXXXX` escapes, with surrogate pairs).
//! Parsing is linear in the input: a string's unescaped runs are copied
//! as slices of the input, which `&str` has already validated as UTF-8.

#![warn(missing_docs)]

use std::fmt::Write as _;

pub use serde::Value;

/// A JSON (de)serialization error.
pub type Error = serde::Error;

/// Serializes a value to compact JSON.
pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize(), Some(2), 0);
    Ok(out)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    T::deserialize(&value)
}

/// Deserializes a value from JSON bytes (must be UTF-8).
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes)
        .map_err(|e| Error::custom(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// How deep arrays and objects may nest, as in the real serde_json:
/// the parser recurses once per level, so a bound keeps a hostile body
/// of `[[[[…` from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input, kept as `&str` so string runs are copied as slices.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Parses JSON text into a [`Value`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!("trailing data at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error::custom(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Parses the array or object at `pos` one level deeper, failing
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of unescaped bytes up to the next `"` or `\`
            // in one go. Both delimiters are ASCII, so the run ends on a
            // char boundary of the (already valid UTF-8) input.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(Error::custom("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => self.escape(&mut out)?, // the run stopped at `\`
            }
        }
    }

    /// Decodes one backslash escape at `pos` into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // A high surrogate pairs only with a following low one.
                let c = if (0xD800..0xDC00).contains(&cp)
                    && self.bytes[self.pos..].starts_with(b"\\u")
                {
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if (0xDC00..=0xDFFF).contains(&lo) {
                        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                out.push(c.ok_or_else(|| Error::custom("invalid \\u escape"))?);
                return Ok(());
            }
            other => {
                return Err(Error::custom(format!(
                    "bad escape {:?}",
                    other.map(|b| b as char)
                )))
            }
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// Reads exactly four ASCII hex digits.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let mut cp = 0;
        for &b in digits {
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::custom("bad \\u escape"))?;
            cp = cp * 16 + d;
        }
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error::custom(format!("bad number `{text}`: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::UInt(1), Value::Int(-2)])),
            ("s".into(), Value::Str("hi \"there\"\n".into())),
            ("n".into(), Value::Null),
            ("b".into(), Value::Bool(true)),
        ]);
        let compact = to_string(&v).unwrap();
        let back: Value = from_str(&compact).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn big_u64_survives() {
        let v = Value::UInt(u64::MAX);
        let back: Value = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| r#"{"a":"#.repeat(n) + "1" + &"}".repeat(n);
        assert!(from_str::<Value>(&arrays(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&objects(MAX_DEPTH)).is_ok());
        for text in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = from_str::<Value>(&text).unwrap_err().to_string();
            assert!(err.contains("recursion limit exceeded"), "{err}");
        }
        // A hostile body far past the limit fails at the limit, with the
        // stack it had: no overflow.
        let err = from_str::<Value>(&"[".repeat(200_000)).unwrap_err().to_string();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
    }

    #[test]
    fn parses_unicode_escapes() {
        let back: Value = from_str(r#""A😀""#).unwrap();
        assert_eq!(back, Value::Str("A😀".into()));
        let back: Value = from_str(r#""\u0041\u00e9\uD83D\uDE00\ud83d\ude00""#).unwrap();
        assert_eq!(back, Value::Str("A\u{e9}\u{1F600}\u{1F600}".into()));
    }

    #[test]
    fn high_surrogate_needs_a_low_surrogate_escape_after_it() {
        // A non-surrogate, a second high surrogate, and a code point just
        // past the low range: none completes the pair.
        for text in [
            r#""\uD800\u0041""#,
            r#""\uD800\uD800""#,
            r#""\uDBFF\uE000""#,
        ] {
            let err = from_str::<Value>(text).unwrap_err().to_string();
            assert!(err.contains("invalid \\u escape"), "{text}: {err}");
        }
        // A lone surrogate of either half is no char either.
        for text in [r#""\uD800""#, r#""\uD800x""#, r#""\uDC00""#] {
            assert!(from_str::<Value>(text).is_err(), "{text}");
        }
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        for text in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#] {
            let err = from_str::<Value>(text).unwrap_err().to_string();
            assert!(err.contains("bad \\u escape"), "{text}: {err}");
        }
        let err = from_str::<Value>(r#""\u004"#).unwrap_err().to_string();
        assert!(err.contains("truncated \\u escape"), "{err}");
    }

    #[test]
    fn multibyte_runs_next_to_escapes_decode_exactly() {
        let back: Value = from_str(r#""é\n😀\"x""#).unwrap();
        assert_eq!(back, Value::Str("é\n😀\"x".into()));
        // Runs of 2-, 3- and 4-byte characters, each ended by an escape.
        let back: Value = from_str(r#"["éé\t€€\\😀😀\/", "\"ß中🦀"]"#).unwrap();
        assert_eq!(
            back,
            Value::Array(vec![
                Value::Str("éé\t€€\\😀😀/".into()),
                Value::Str("\"ß中🦀".into())
            ])
        );
    }

    #[test]
    fn escape_only_and_empty_strings_decode_exactly() {
        let back: Value = from_str(r#""\"\\\/\b\f\n\r\t\u0000""#).unwrap();
        assert_eq!(back, Value::Str("\"\\/\u{8}\u{c}\n\r\t\u{0}".into()));
        assert_eq!(
            from_str::<Value>(r#""""#).unwrap(),
            Value::Str(String::new())
        );
        assert_eq!(
            from_str::<Value>(r#"{"":""}"#).unwrap(),
            Value::Object(vec![(String::new(), Value::Str(String::new()))])
        );
    }

    #[test]
    fn malformed_strings_are_rejected() {
        assert!(from_slice::<Value>(b"\"\xff\"").is_err());
        assert!(from_slice::<Value>(b"\"ok\xc3\"").is_err());
        let err = from_str::<Value>(r#""abc"#).unwrap_err().to_string();
        assert!(err.contains("unterminated string"), "{err}");
        for text in [r#""\x""#, r#""a\"#] {
            let err = from_str::<Value>(text).unwrap_err().to_string();
            assert!(err.contains("bad escape"), "{text}: {err}");
        }
    }

    /// A submission body at the daemon's default `max_body` (4 MiB)
    /// parses in linear time: a per-character rescan of the rest of the
    /// input would take minutes here.
    #[test]
    fn four_mib_string_parses_to_the_same_value() {
        let hex: String = (0..4 << 20)
            .map(|i| b"0123456789abcdef"[i % 16] as char)
            .collect();
        let body = Value::Object(vec![("bytecode".into(), Value::Str(hex))]);
        let text = to_string(&body).unwrap();
        assert!(text.len() > 4 << 20);
        let start = std::time::Instant::now();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back, body);
        assert!(start.elapsed().as_secs() < 5, "took {:?}", start.elapsed());
    }

    /// One character drawn from every class the string scanner treats
    /// differently: ASCII, 2-, 3- and 4-byte UTF-8, the two delimiters,
    /// and control characters the writer emits as escapes.
    fn any_char() -> impl proptest::Strategy<Value = char> {
        use proptest::prelude::*;
        let cp = |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).unwrap());
        prop_oneof![
            cp(0x20, 0x7f),
            cp(0x80, 0x800),
            cp(0x800, 0xD800),
            cp(0xE000, 0x10000),
            cp(0x10000, 0x110000),
            Just('"'),
            Just('\\'),
            cp(0, 0x20),
        ]
    }

    /// `s` with every character written as `\uXXXX` escapes (UTF-16, so
    /// astral characters become surrogate pairs).
    fn all_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for unit in s.encode_utf16() {
            let _ = write!(out, "\\u{unit:04X}");
        }
        out.push('"');
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]

        #[test]
        fn strings_round_trip(chars in proptest::collection::vec(any_char(), 0..48)) {
            let s: String = chars.into_iter().collect();
            let v = Value::Str(s.clone());
            proptest::prop_assert_eq!(from_str::<Value>(&to_string(&v).unwrap()).unwrap(), v.clone());
            proptest::prop_assert_eq!(from_str::<Value>(&all_escaped(&s)).unwrap(), v);
        }
    }

    #[test]
    fn skip_serializing_if_none_omits_the_field() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct Rec {
            a: u32,
            #[serde(default, skip_serializing_if = "Option::is_none")]
            w: Option<u32>,
        }
        let none = Rec { a: 1, w: None };
        let json = to_string(&none).unwrap();
        assert!(!json.contains("\"w\""), "None field must be omitted: {json}");
        assert_eq!(from_str::<Rec>(&json).unwrap(), none);
        let some = Rec { a: 1, w: Some(9) };
        let json = to_string(&some).unwrap();
        assert!(json.contains("\"w\":9"), "Some field must serialize: {json}");
        assert_eq!(from_str::<Rec>(&json).unwrap(), some);
    }

    #[test]
    fn skip_serializing_if_none_works_in_enum_struct_variants() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum Msg {
            Data {
                n: u32,
                #[serde(skip_serializing_if = "Option::is_none")]
                extra: Option<String>,
            },
            Quit,
        }
        let bare = Msg::Data { n: 7, extra: None };
        let json = to_string(&bare).unwrap();
        assert!(!json.contains("extra"), "{json}");
        assert_eq!(from_str::<Msg>(&json).unwrap(), bare);
        let full = Msg::Data { n: 7, extra: Some("x".into()) };
        assert_eq!(from_str::<Msg>(&to_string(&full).unwrap()).unwrap(), full);
        assert_eq!(
            from_str::<Msg>(&to_string(&Msg::Quit).unwrap()).unwrap(),
            Msg::Quit
        );
    }
}
