//! The one JSON decoder in the workspace: sealed checkpoint lines
//! ([`crate::ckpt`]), observability exports (`ppf_analysis::observe`) and
//! the performance ledger are all read through [`parse`].
//!
//! It takes strict RFC 8259: no empty members or trailing commas, numbers
//! only in the standard grammar (no `+1`, `01`, `.5`, `1.`, `NaN`, `inf`)
//! and finite as an `f64`, and no key twice in one object; it also refuses
//! `\u` escapes of surrogates, which no writer emits. Containers nest
//! at most [`MAX_DEPTH`] deep, so hostile input cannot exhaust the stack.
//! Every failure is a [`JsonError`]; no input panics. A number keeps its
//! literal, so [`Json::as_u64`] is exact over the whole `u64` range.

use std::collections::HashSet;
use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] follows.
pub const MAX_DEPTH: usize = 16;

/// A decoded JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in input order, no key twice.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value of an object's member `key`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number as the nearest `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// A number written as an integer in `0..=u64::MAX`, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }
}

/// What [`parse`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// The input ends inside a value.
    Eof,
    /// A byte that cannot start or continue a value where it stands.
    Unexpected,
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    Depth,
    /// A number outside the RFC 8259 grammar or the `f64` range.
    Number,
    /// A bad escape, a surrogate escape or a raw control character.
    String,
    /// An object names the same key twice.
    DuplicateKey,
    /// Bytes follow the value.
    Trailing,
}

/// A decoding failure: its reason and the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What is wrong there.
    pub reason: Reason,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.reason {
            Reason::Eof => "input ends inside a value",
            Reason::Unexpected => "unexpected byte",
            Reason::Depth => "arrays and objects nest too deep",
            Reason::Number => "malformed number",
            Reason::String => "malformed string",
            Reason::DuplicateKey => "duplicate key",
            Reason::Trailing => "bytes after the value",
        };
        write!(f, "JSON: {what} at byte {}", self.at)
    }
}

impl std::error::Error for JsonError {}

/// Decodes `text` as exactly one JSON value, with optional whitespace
/// around it.
///
/// # Errors
///
/// A [`JsonError`] for anything else; see the module docs for the grammar.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, i: 0 };
    let value = p.value(0)?;
    p.ws();
    if p.i < text.len() {
        return Err(p.err(Reason::Trailing));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn err(&self, reason: Reason) -> JsonError {
        JsonError { at: self.i, reason }
    }

    /// The next byte, not consumed; the end of input is an error here.
    fn peek(&self) -> Result<u8, JsonError> {
        self.text.as_bytes().get(self.i).copied().ok_or(self.err(Reason::Eof))
    }

    /// Consumes the next byte if `want` accepts it.
    fn eat(&mut self, want: impl Fn(u8) -> bool) -> bool {
        let hit = self.text.as_bytes().get(self.i).is_some_and(|&b| want(b));
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while self.eat(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')) {}
    }

    /// Consumes the exact bytes of `lit`.
    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        for b in lit.bytes() {
            if self.peek()? != b {
                return Err(self.err(Reason::Unexpected));
            }
            self.i += 1;
        }
        Ok(())
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.ws();
        Ok(match self.peek()? {
            b'{' => {
                let mut keys = HashSet::new();
                Json::Obj(self.items(b'}', depth, |p| {
                    p.ws();
                    let at = p.i;
                    let key = p.string()?;
                    if !keys.insert(key.clone()) {
                        return Err(JsonError { at, reason: Reason::DuplicateKey });
                    }
                    p.ws();
                    p.literal(":")?;
                    Ok((key, p.value(depth + 1)?))
                })?)
            }
            b'[' => Json::Arr(self.items(b']', depth, |p| p.value(depth + 1))?),
            b'"' => Json::Str(self.string()?),
            b't' => self.literal("true").map(|()| Json::Bool(true))?,
            b'f' => self.literal("false").map(|()| Json::Bool(false))?,
            b'n' => self.literal("null").map(|()| Json::Null)?,
            b'-' | b'0'..=b'9' => self.number()?,
            _ => return Err(self.err(Reason::Unexpected)),
        })
    }

    /// The comma-separated items of the container that opens at the next
    /// byte, through its `close` byte.
    fn items<T>(
        &mut self,
        close: u8,
        depth: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(Reason::Depth));
        }
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        while !self.eat(|b| b == close) {
            if !items.is_empty() {
                self.literal(",")?;
            }
            items.push(item(self)?);
            self.ws();
        }
        Ok(items)
    }

    /// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`, finite.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        self.eat(|b| b == b'-');
        if !self.eat(|b| b == b'0') {
            self.digits()?;
        }
        if self.eat(|b| b == b'.') {
            self.digits()?;
        }
        if self.eat(|b| b == b'e' || b == b'E') {
            self.eat(|b| b == b'+' || b == b'-');
            self.digits()?;
        }
        let lit = &self.text[start..self.i];
        match lit.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(lit.to_string())),
            _ => Err(JsonError { at: start, reason: Reason::Number }),
        }
    }

    /// One or more decimal digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        if !self.peek()?.is_ascii_digit() {
            return Err(self.err(Reason::Number));
        }
        while self.eat(|b| b.is_ascii_digit()) {}
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.literal("\"")?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.eat(|b| b >= 0x20 && b != b'"' && b != b'\\') {}
            // Runs stop only at ASCII bytes, so each is whole UTF-8.
            out.push_str(&self.text[start..self.i]);
            match self.peek()? {
                b'"' => break,
                b'\\' => {
                    self.i += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err(Reason::String)),
            }
        }
        self.i += 1;
        Ok(out)
    }

    /// The character an escape stands for, after its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let bad = self.err(Reason::String);
        let c = match self.peek()? {
            e @ (b'"' | b'\\' | b'/') => char::from(e),
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                self.i += 1;
                // No writer escapes a character outside the Basic
                // Multilingual Plane, so a surrogate is refused here.
                return char::from_u32(self.hex4()?).ok_or(bad);
            }
            _ => return Err(bad),
        };
        self.i += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = char::from(self.peek()?).to_digit(16).ok_or(self.err(Reason::String))?;
            code = code * 16 + digit;
            self.i += 1;
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_trace::mutate;

    /// A document with every kind of value, every escape and a raw
    /// character outside the Basic Multilingual Plane.
    const DOC: &str = r#"{"n":-12.5e+3,"z":0,"max":18446744073709551615,"t":true,"f":false,"x":null,"s":"a\"\\\/\b\f\n\r\t\u00e9😀","a":[[],{},[1,"two"]]}"#;

    fn fails(text: &str) -> JsonError {
        parse(text).expect_err(text)
    }

    #[test]
    fn decodes_every_kind_of_value() {
        let v = parse(DOC).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-12500.0));
        assert_eq!(v.get("n").and_then(Json::as_u64), None, "not an integer");
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("f"), Some(&Json::Bool(false)));
        assert_eq!(v.get("x"), Some(&Json::Null));
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("a\"\\/\u{8}\u{c}\n\r\t\u{e9}\u{1f600}")
        );
        let inner = Json::Arr(vec![Json::Num("1".into()), Json::Str("two".into())]);
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![]), inner])));
        assert_eq!(v.get("missing"), None);
        assert_eq!(
            parse(" \t\r\n[ 1 , 2 ]\n"),
            Ok(Json::Arr(vec![Json::Num("1".into()), Json::Num("2".into())]))
        );
        for (lit, exact) in [
            ("18446744073709551616", None),
            ("-1", None),
            ("1.0", None),
            ("1e3", None),
            ("7", Some(7)),
        ] {
            assert_eq!(parse(lit).unwrap().as_u64(), exact, "{lit}");
        }
    }

    #[test]
    fn refuses_what_rfc_8259_refuses() {
        use Reason::*;
        for (text, at, reason) in [
            ("", 0, Eof),
            ("  ", 2, Eof),
            (r#"{"v":2,,"kind":"span"}"#, 7, Unexpected),
            (r#"{"v":2,"stride":1,}"#, 18, Unexpected),
            ("[1,]", 3, Unexpected),
            ("[1 2]", 3, Unexpected),
            (r#"{"a" 1}"#, 5, Unexpected),
            ("{a:1}", 1, Unexpected),
            (r#"{"calls":NaN}"#, 9, Unexpected),
            (r#"{"calls":inf}"#, 9, Unexpected),
            (r#"{"calls":+1}"#, 9, Unexpected),
            (r#"{"wall_ns":1e999}"#, 11, Number),
            ("-1e400", 0, Number),
            (r#"{"n":01}"#, 6, Unexpected),
            (".5", 0, Unexpected),
            ("1.", 2, Eof),
            ("1.e5", 2, Number),
            ("1e+", 3, Eof),
            ("-", 1, Eof),
            ("-x", 1, Number),
            (r#"{"gen":12abc}"#, 9, Unexpected),
            ("1x", 1, Trailing),
            (r#"{"a":1}}"#, 7, Trailing),
            (r#"{"tenant":"a","gen":1,"tenant":"b"}"#, 22, DuplicateKey),
            ("tru", 3, Eof),
            ("nul!", 3, Unexpected),
            ("'s'", 0, Unexpected),
            ("\"a\u{1}\"", 2, String),
            (r#""\q""#, 2, String),
            (r#""\u12G4""#, 5, String),
            (r#""\ud800""#, 2, String),
            (r#""\ud83d\ude00""#, 2, String),
            (r#""\udc00""#, 2, String),
        ] {
            assert_eq!(fails(text), JsonError { at, reason }, "{text}");
        }
        assert!(fails(r#"{"a":1,"a":2}"#).to_string().contains("duplicate key at byte 7"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(fails(&nest(MAX_DEPTH + 1)), JsonError { at: MAX_DEPTH, reason: Reason::Depth });
        assert_eq!(fails(&nest(100_000)).reason, Reason::Depth);
        let objects = format!("{}1{}", r#"{"a":"#.repeat(100_000), "}".repeat(100_000));
        assert_eq!(fails(&objects).reason, Reason::Depth);
    }

    #[test]
    fn every_mutation_is_a_typed_error_never_a_panic() {
        // Each proper prefix ends inside the document.
        for cut in mutate::prefixes(DOC.as_bytes()) {
            // Cuts inside a multi-byte character are not `&str` inputs.
            let Ok(text) = std::str::from_utf8(cut) else {
                continue;
            };
            assert_eq!(fails(text), JsonError { at: cut.len(), reason: Reason::Eof }, "{text}");
        }
        let other = r#"{"v":2,"kind":"span","span":3,"calls":10,"wall_ns":2.5e3,"stride":1}"#;
        let flips = mutate::bit_flips(DOC.as_bytes());
        for bytes in flips.chain(mutate::splices(DOC.as_bytes(), other.as_bytes())) {
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse(&text) {
                assert!(e.at <= text.len(), "{e} past the end of {text}");
            }
        }
    }
}
