//! A tiny dependency-free JSON document model and parser.
//!
//! The container this workspace builds in has no access to a crates
//! registry, so `serde`/`serde_json` are unavailable; every serializable
//! artifact (the [`crate::Report`], the experiment figures and tables, the
//! [`crate::Scenario`] sweep files) instead builds a [`JsonValue`] by hand.
//! Output is strict JSON: strings are escaped, non-finite floats serialize
//! as `null`.
//!
//! [`JsonValue::parse`] is the inverse direction: a strict recursive-descent
//! parser that rejects duplicate object keys, leading-zero numbers, and
//! trailing input, returning a typed [`JsonError`] (never panicking) so
//! hand-edited scenario files fail loudly at load time. [`Fields`] then
//! reads a parsed object field by field, for both the scenario format
//! and the wire protocol.

use std::fmt;

/// Maximum array/object nesting [`JsonValue::parse`] accepts.
const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the source text where the error was detected.
    pub offset: usize,
    /// What went wrong.
    pub kind: JsonErrorKind,
}

/// The kinds of [`JsonError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JsonErrorKind {
    /// The input ended in the middle of a value.
    UnexpectedEnd,
    /// A character that cannot appear where it did.
    UnexpectedChar(char),
    /// The same key appeared twice in one object.
    DuplicateKey(String),
    /// A malformed numeric literal (leading zero, lone minus, bare dot…).
    InvalidNumber,
    /// A malformed string escape sequence.
    InvalidEscape,
    /// An unescaped control character inside a string.
    ControlChar,
    /// Non-whitespace input after the top-level value.
    TrailingData,
    /// Nesting deeper than the parser's recursion bound.
    TooDeep,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            JsonErrorKind::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            JsonErrorKind::DuplicateKey(k) => write!(f, "duplicate object key {k:?}"),
            JsonErrorKind::InvalidNumber => write!(f, "malformed number"),
            JsonErrorKind::InvalidEscape => write!(f, "malformed string escape"),
            JsonErrorKind::ControlChar => write!(f, "unescaped control character in string"),
            JsonErrorKind::TrailingData => write!(f, "trailing data after top-level value"),
            JsonErrorKind::TooDeep => write!(f, "nesting exceeds {MAX_DEPTH} levels"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A double (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered object (insertion order preserved).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(fields: I) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr<I: IntoIterator<Item = JsonValue>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Parses strict JSON text into a document.
    ///
    /// Stricter than RFC 8259 in two deliberate ways: duplicate object
    /// keys and anything after the top-level value are errors, so a
    /// hand-edited scenario file cannot silently shadow a field.
    /// Non-negative integers parse as [`JsonValue::UInt`], negative
    /// integers as [`JsonValue::Int`], everything else numeric as
    /// [`JsonValue::Float`].
    ///
    /// # Examples
    ///
    /// ```
    /// use contopt_sim::JsonValue;
    /// let v = JsonValue::parse(r#"{"insts": 50000, "on": true}"#)?;
    /// assert_eq!(v.get("insts").and_then(JsonValue::as_u64), Some(50000));
    /// assert!(JsonValue::parse("{\"a\":1,\"a\":2}").is_err());
    /// # Ok::<(), contopt_sim::JsonError>(())
    /// ```
    pub fn parse(src: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser { src, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos < p.src.len() {
            return Err(p.err(JsonErrorKind::TrailingData));
        }
        Ok(v)
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The unsigned-integer payload, if this is a `UInt`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload widened to `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up `key` in an `Object` (`None` for other variants too).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            JsonValue::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&pad);
                    out.push_str(&format!("{}: ", Escaped(k)));
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

/// The recursive-descent parser behind [`JsonValue::parse`].
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    /// The error for the character (or end) at the cursor.
    fn err_here(&self) -> JsonError {
        match self.src[self.pos..].chars().next() {
            Some(c) => self.err(JsonErrorKind::UnexpectedChar(c)),
            None => self.err(JsonErrorKind::UnexpectedEnd),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `c` or errors at the cursor.
    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err_here())
        }
    }

    /// Consumes a keyword literal (`true`/`false`/`null`).
    fn keyword(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err_here())
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.keyword("null", JsonValue::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err_here()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    offset: key_at,
                    kind: JsonErrorKind::DuplicateKey(key),
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err_here()),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err_here()),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let mut chars = rest.char_indices();
            let Some((_, c)) = chars.next() else {
                return Err(self.err(JsonErrorKind::UnexpectedEnd));
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                '\\' => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                c if (c as u32) < 0x20 => return Err(self.err(JsonErrorKind::ControlChar)),
                c => {
                    self.pos += c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    /// Parses one escape sequence, cursor just past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or(self.err(JsonErrorKind::UnexpectedEnd))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a low surrogate must follow.
                    if self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err(JsonErrorKind::InvalidEscape));
                        }
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(cp).ok_or(self.err(JsonErrorKind::InvalidEscape))?
                    } else {
                        return Err(self.err(JsonErrorKind::InvalidEscape));
                    }
                } else {
                    char::from_u32(hi).ok_or(self.err(JsonErrorKind::InvalidEscape))?
                }
            }
            _ => {
                self.pos -= 1;
                return Err(self.err(JsonErrorKind::InvalidEscape));
            }
        })
    }

    /// Parses four hex digits into a code unit.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or(self.err(JsonErrorKind::UnexpectedEnd))?;
        // `from_str_radix` alone would also accept a leading `+`.
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err(JsonErrorKind::InvalidEscape));
        }
        let cp =
            u32::from_str_radix(digits, 16).map_err(|_| self.err(JsonErrorKind::InvalidEscape))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let bytes = self.src.as_bytes();
        let negative = bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_digits = self.pos - int_start;
        let bad_int = int_digits == 0 || (int_digits > 1 && bytes[int_start] == b'0');
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError {
                    offset: start,
                    kind: JsonErrorKind::InvalidNumber,
                });
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError {
                    offset: start,
                    kind: JsonErrorKind::InvalidNumber,
                });
            }
        }
        if bad_int {
            return Err(JsonError {
                offset: start,
                kind: JsonErrorKind::InvalidNumber,
            });
        }
        let text = &self.src[start..self.pos];
        if integral {
            if !negative {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(JsonValue::UInt(n));
                }
            } else if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        // Fractional, exponential, or beyond 64-bit integer range.
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                offset: start,
                kind: JsonErrorKind::InvalidNumber,
            })
    }
}

/// A JSON-escaped string, quoted.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::UInt(n) => write!(f, "{n}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Float(x) if x.is_finite() => {
                if *x == x.trunc() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            JsonValue::Float(_) => f.write_str("null"),
            JsonValue::Str(s) => write!(f, "{}", Escaped(s)),
            JsonValue::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            JsonValue::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Escaped(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(n: u64) -> JsonValue {
        JsonValue::UInt(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> JsonValue {
        JsonValue::UInt(n as u64)
    }
}

impl From<i64> for JsonValue {
    fn from(n: i64) -> JsonValue {
        JsonValue::Int(n)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> JsonValue {
        JsonValue::Float(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

/// A value of the wrong JSON type, or a required value that is absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Path to the value (`configs[1].label`).
    pub at: String,
    /// What was required there.
    pub what: &'static str,
}

/// The field reader behind the scenario-file and wire decoders: an object
/// and its path, so every error names its value as `<at>.<key>` (`<key>`
/// alone at the top level, where `at` is empty). A strict format rejects
/// the keys [`unknown`](Self::unknown) finds; the wire ignores them.
#[derive(Debug, Clone, Copy)]
pub struct Fields<'a> {
    fields: &'a [(String, JsonValue)],
    at: &'a str,
}

impl<'a> Fields<'a> {
    /// The fields of `doc`, or `None` when it is not an object.
    pub fn of(doc: &'a JsonValue, at: &'a str) -> Option<Fields<'a>> {
        Some(Fields {
            fields: doc.as_object()?,
            at,
        })
    }

    /// The fields of `doc`, reading anything else as an empty object.
    pub fn lenient(doc: &'a JsonValue, at: &'a str) -> Fields<'a> {
        Fields {
            fields: doc.as_object().unwrap_or_default(),
            at,
        }
    }

    /// The path of `key` in this object.
    pub fn path(&self, key: &str) -> String {
        if self.at.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.at)
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value under `key` as `as_t` reads it: `None` when the key is
    /// absent, and an error naming `what` when `as_t` refuses the value.
    pub fn opt<T>(
        &self,
        key: &str,
        as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
        what: &'static str,
    ) -> Result<Option<T>, Expected> {
        self.get(key)
            .map(|v| as_t(v).ok_or_else(|| self.expected(key, what)))
            .transpose()
    }

    /// Like [`opt`](Self::opt), but an absent key is an error too.
    pub fn req<T>(
        &self,
        key: &str,
        as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
        what: &'static str,
    ) -> Result<T, Expected> {
        self.opt(key, as_t, what)?
            .ok_or_else(|| self.expected(key, what))
    }

    /// The array under `key`, each item decoded at its path `<key>[i]`;
    /// `None` when the key is absent.
    pub fn items<T, E: From<Expected>>(
        &self,
        key: &str,
        mut decode: impl FnMut(&'a JsonValue, &str) -> Result<T, E>,
    ) -> Result<Option<Vec<T>>, E> {
        let Some(items) = self.opt(key, JsonValue::as_array, "an array")? else {
            return Ok(None);
        };
        let at = self.path(key);
        items
            .iter()
            .enumerate()
            .map(|(i, item)| decode(item, &format!("{at}[{i}]")))
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// The first key that is not in `known`.
    pub fn unknown(&self, known: &[&str]) -> Option<&'a str> {
        self.fields
            .iter()
            .map(|(k, _)| k.as_str())
            .find(|k| !known.contains(k))
    }

    fn expected(&self, key: &str, what: &'static str) -> Expected {
        Expected {
            at: self.path(key),
            what,
        }
    }
}

/// Types that serialize themselves as JSON.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> JsonValue;
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::arr(self.iter().map(|x| x.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_nesting() {
        let v = JsonValue::obj([
            ("name", JsonValue::from("say \"hi\"\n")),
            ("xs", JsonValue::arr([1u64.into(), 2u64.into()])),
            ("pi", 3.5f64.into()),
            ("nan", f64::NAN.into()),
            ("flag", true.into()),
            ("none", JsonValue::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"say \"hi\"\n","xs":[1,2],"pi":3.5,"nan":null,"flag":true,"none":null}"#
        );
    }

    #[test]
    fn pretty_is_valid_and_indented() {
        let v = JsonValue::obj([("a", JsonValue::arr([JsonValue::from(1u64)]))]);
        let p = v.pretty();
        assert!(p.contains("\n  \"a\": [\n    1\n  ]\n"));
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(JsonValue::from(2.0f64).to_string(), "2.0");
        assert_eq!(JsonValue::from(2.25f64).to_string(), "2.25");
    }

    #[test]
    fn parse_round_trips_compact_and_pretty() {
        let v = JsonValue::obj([
            ("name", JsonValue::from("say \"hi\"\n\t\\")),
            ("xs", JsonValue::arr([1u64.into(), (-2i64).into()])),
            ("pi", 3.25f64.into()),
            ("two", 2.0f64.into()),
            ("flag", true.into()),
            ("off", false.into()),
            ("none", JsonValue::Null),
            ("nested", JsonValue::obj([("k", JsonValue::arr([]))])),
        ]);
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(JsonValue::parse(&text).unwrap(), v, "from {text}");
        }
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(JsonValue::parse("0").unwrap(), JsonValue::UInt(0));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(JsonValue::parse("1.5").unwrap(), JsonValue::Float(1.5));
        assert_eq!(JsonValue::parse("2e3").unwrap(), JsonValue::Float(2000.0));
        assert_eq!(
            JsonValue::parse("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        // One past u64::MAX falls back to a float rather than erroring.
        assert!(matches!(
            JsonValue::parse("18446744073709551616").unwrap(),
            JsonValue::Float(_)
        ));
    }

    #[test]
    fn parse_rejects_truncated_input() {
        for src in ["{\"a\": 1", "[1, 2", "\"abc", "{\"a\":", "tru", "-"] {
            let e = JsonValue::parse(src).unwrap_err();
            assert!(
                matches!(
                    e.kind,
                    JsonErrorKind::UnexpectedEnd
                        | JsonErrorKind::UnexpectedChar(_)
                        | JsonErrorKind::InvalidNumber
                ),
                "{src}: {e:?}"
            );
        }
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        let e = JsonValue::parse("{\"a\":1,\"b\":2,\"a\":3}").unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::DuplicateKey("a".into()));
        // Nested objects check their own scope only.
        assert!(JsonValue::parse("{\"a\":{\"a\":1},\"b\":{\"a\":1}}").is_ok());
    }

    #[test]
    fn parse_rejects_trailing_and_malformed() {
        assert_eq!(
            JsonValue::parse("{} x").unwrap_err().kind,
            JsonErrorKind::TrailingData
        );
        assert_eq!(
            JsonValue::parse("01").unwrap_err().kind,
            JsonErrorKind::InvalidNumber
        );
        assert_eq!(
            JsonValue::parse("1.").unwrap_err().kind,
            JsonErrorKind::InvalidNumber
        );
        assert_eq!(
            JsonValue::parse("\"\\q\"").unwrap_err().kind,
            JsonErrorKind::InvalidEscape
        );
        assert_eq!(
            JsonValue::parse("\"a\u{1}b\"").unwrap_err().kind,
            JsonErrorKind::ControlChar
        );
        assert!(matches!(
            JsonValue::parse("[1 2]").unwrap_err().kind,
            JsonErrorKind::UnexpectedChar(_)
        ));
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap(),
            JsonValue::Str("Aé".into())
        );
        // Surrogate pair (clef symbol) and a lone high surrogate.
        assert_eq!(
            JsonValue::parse("\"\\ud834\\udd1e\"").unwrap(),
            JsonValue::Str("\u{1d11e}".into())
        );
        assert_eq!(
            JsonValue::parse("\"\\ud834\"").unwrap_err().kind,
            JsonErrorKind::InvalidEscape
        );
        // A sign is not a hex digit, even though from_str_radix takes it.
        assert_eq!(
            JsonValue::parse("\"\\u+123\"").unwrap_err().kind,
            JsonErrorKind::InvalidEscape
        );
    }

    #[test]
    fn parse_bounds_recursion_depth() {
        let deep = "[".repeat(400) + &"]".repeat(400);
        assert_eq!(
            JsonValue::parse(&deep).unwrap_err().kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn fields_name_every_value_by_its_path() {
        let doc = JsonValue::parse(r#"{"n": 5, "s": "x", "xs": [1, "two"], "o": {}}"#).unwrap();
        let top = Fields::of(&doc, "").unwrap();
        let err = |at: &str, what| Expected {
            at: at.to_string(),
            what,
        };
        assert_eq!(top.opt("n", JsonValue::as_u64, "n"), Ok(Some(5)));
        assert_eq!(top.opt("gone", JsonValue::as_u64, "n"), Ok(None));
        assert_eq!(top.opt("s", JsonValue::as_u64, "n"), Err(err("s", "n")));
        assert_eq!(
            top.req("gone", JsonValue::as_str, "s"),
            Err(err("gone", "s"))
        );
        let ints = top.items("xs", |v, at| v.as_u64().ok_or_else(|| err(at, "int")));
        assert_eq!(ints, Err(err("xs[1]", "int")));
        assert_eq!(top.unknown(&["n", "s", "o"]), Some("xs"));
        let nested = Fields::of(top.get("o").unwrap(), "payload").unwrap();
        assert_eq!(nested.path("k"), "payload.k");
        assert_eq!(nested.req("k", Some, "k"), Err(err("payload.k", "k")));
        // Only the lenient reader takes a non-object, as an empty object.
        assert!(Fields::of(&JsonValue::Null, "a").is_none());
        assert_eq!(Fields::lenient(&JsonValue::Null, "a").unknown(&[]), None);
    }

    #[test]
    fn accessors_select_by_variant() {
        let v = JsonValue::parse(r#"{"n": 5, "s": "x", "b": true, "xs": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(5.0));
        assert!(v.get("missing").is_none());
        assert!(v.get("n").unwrap().as_str().is_none());
    }
}
