//! Offline stand-in for the `serde_json` crate.
//!
//! The JSON text format for the serde shim: [`to_string`],
//! [`to_string_pretty`], [`from_str`] and [`parse_value`], plus the
//! [`Error`] type downstream code stores. Both directions stream: the
//! writer appends each scalar and bracket to the output as `Serialize`
//! reaches it, and the reader hands `Deserialize` typed scalars and
//! borrowed keys straight from the input bytes, so no value tree is built.
//! Output is deterministic (object keys keep declaration order, floats are
//! the shortest round-trip digits `{:?}` prints, written by the crate's own
//! Ryu-style `float` module) so golden-file tests are byte-stable.

mod float;

use serde::{DeError, Deserialize, Deserializer, Kind, Serialize, Serializer, Value};

/// JSON serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serializes `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(Writer::run(value, false))
}

/// Serializes `value` to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(Writer::run(value, true))
}

/// Parses JSON text into `T`, rejecting trailing non-whitespace.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = Reader { text: s, pos: 0, first: false, scratch: String::new() };
    let value = T::deserialize(&mut reader)?;
    reader.skip_ws();
    if reader.pos != s.len() {
        return Err(Error::new(format!("trailing characters at byte {}", reader.pos)));
    }
    Ok(value)
}

/// Parses JSON text into a raw [`Value`], checking for trailing garbage.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    from_str(s)
}

// ---------------------------------------------------------------- writer

/// Appends JSON text to `out`. `first` is true between opening a container
/// and its first item; it is the only per-level state the layout needs,
/// because closing a container leaves its parent past its first item.
struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    first: bool,
}

impl Writer {
    fn run<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
        let mut writer = Writer { out: String::new(), pretty, depth: 0, first: false };
        value.serialize(&mut writer);
        writer.out
    }

    fn newline_indent(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..2 * self.depth {
                self.out.push(' ');
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    /// The separator before an array item or object member.
    fn item(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline_indent();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline_indent();
        }
        self.first = false;
        self.out.push(bracket);
    }

    fn string(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // every escaped byte is ASCII, so `run..i` ends on a char boundary
            self.out.push_str(&s[run..i]);
            run = i + 1;
            if escape.is_empty() {
                self.out.push_str("\\u00");
                self.out.push(char::from(HEX[usize::from(b >> 4)]));
                self.out.push(char::from(HEX[usize::from(b & 0xf)]));
            } else {
                self.out.push_str(escape);
            }
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }
}

impl Serializer for Writer {
    fn write_null(&mut self) {
        self.out.push_str("null");
    }

    fn write_bool(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    fn write_u64(&mut self, v: u64) {
        let mut digits = [0u8; 20];
        let n = float::write_digits(v, &mut digits);
        self.out.push_str(std::str::from_utf8(&digits[..n]).expect("digits are ASCII"));
    }

    fn write_i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push('-');
        }
        self.write_u64(v.unsigned_abs());
    }

    fn write_f64(&mut self, v: f64) {
        if v.is_finite() {
            float::write_f64(&mut self.out, v);
        } else {
            // serde_json writes null for NaN / infinities
            self.write_null();
        }
    }

    fn write_str(&mut self, v: &str) {
        self.string(v);
    }

    fn begin_array(&mut self) {
        self.open('[');
    }

    fn element(&mut self) {
        self.item();
    }

    fn end_array(&mut self) {
        self.close(']');
    }

    fn begin_object(&mut self) {
        self.open('{');
    }

    fn key(&mut self, key: &str) {
        self.item();
        self.string(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    fn end_object(&mut self) {
        self.close('}');
    }
}

// ---------------------------------------------------------------- reader

/// Reads JSON text front to back. `first` is true between opening a
/// container and its first item (see [`Writer`]); `scratch` holds a string
/// that had escapes, which an unescaped one borrows from `text` instead.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    first: bool,
    scratch: String,
}

impl<'a> Reader<'a> {
    fn error(&self, what: &str) -> DeError {
        DeError::new(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn next_byte(&mut self) -> Option<u8> {
        self.skip_ws();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8, what: &str) -> Result<(), DeError> {
        if self.next_byte() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn keyword(&mut self, word: &str) -> bool {
        self.skip_ws();
        let hit = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    /// After an item: true if the container continues (`,` consumed, or its
    /// first item is next), false if `close` ended it.
    fn more(&mut self, close: u8, what: &str) -> Result<bool, DeError> {
        let byte = self.next_byte();
        if byte == Some(close) {
            self.pos += 1;
            self.first = false;
            return Ok(false);
        }
        if std::mem::replace(&mut self.first, false) {
            return Ok(true);
        }
        if byte == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.error(what))
    }

    /// Reads a string: `Some(range)` of `text` when it had no escapes,
    /// `None` when it was unescaped into `scratch`. (Returning the place
    /// rather than the `&str` lets `next_key` read the colon before handing
    /// out the borrow.)
    fn string(&mut self) -> Result<Option<(usize, usize)>, DeError> {
        if self.next_byte() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        // the quote and the backslash are ASCII, so every run between them
        // starts and ends on a char boundary of the `&str` input
        let run_end = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|n| from + n)
                .ok_or_else(|| DeError::new("unterminated string"))
        };
        let mut end = run_end(start)?;
        if bytes[end] == b'"' {
            self.pos = end + 1;
            return Ok(Some((start, end)));
        }
        self.scratch.clear();
        self.scratch.push_str(&self.text[start..end]);
        while bytes[end] == b'\\' {
            self.pos = end + 1;
            let unescaped = match bytes.get(self.pos) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{0008}',
                Some(b'f') => '\u{000c}',
                Some(b'u') => {
                    let code = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| DeError::new("truncated \\u escape"))
                        .and_then(|hex| {
                            u32::from_str_radix(hex, 16)
                                .map_err(|_| DeError::new("invalid \\u escape"))
                        })?;
                    self.pos += 4;
                    // surrogate pairs are not produced by our writer; lone
                    // surrogates decode to the replacement char
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.error("invalid escape")),
            };
            self.scratch.push(unescaped);
            let from = self.pos + 1;
            end = run_end(from)?;
            self.scratch.push_str(&self.text[from..end]);
        }
        self.pos = end + 1;
        Ok(None)
    }

    /// The string [`Reader::string`] located.
    fn resolve(&self, at: Option<(usize, usize)>) -> &str {
        match at {
            Some((start, end)) => &self.text[start..end],
            None => &self.scratch,
        }
    }
}

impl Deserializer for Reader<'_> {
    fn peek(&mut self) -> Result<Kind, DeError> {
        Ok(match self.next_byte() {
            None => return Err(DeError::new("unexpected end of input")),
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'"') => Kind::Str,
            Some(b'[') => Kind::Array,
            Some(b'{') => Kind::Object,
            // anything else must parse as a number
            Some(_) => Kind::Number,
        })
    }

    fn read_null(&mut self) -> Result<bool, DeError> {
        Ok(self.keyword("null"))
    }

    fn read_bool(&mut self) -> Result<bool, DeError> {
        if self.keyword("true") {
            Ok(true)
        } else if self.keyword("false") {
            Ok(false)
        } else {
            Err(self.error("expected bool"))
        }
    }

    fn read_number(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // only ASCII bytes were consumed
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(DeError::new(format!("expected number at byte {start}")));
        }
        let float = || text.parse::<f64>().map(Value::Float);
        let parsed = if is_float {
            float()
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).or_else(|_| float())
        } else {
            text.parse::<u64>().map(Value::UInt).or_else(|_| float())
        };
        parsed.map_err(|_| DeError::new(format!("invalid number `{text}`")))
    }

    fn read_str(&mut self) -> Result<&str, DeError> {
        let at = self.string()?;
        Ok(self.resolve(at))
    }

    fn begin_array(&mut self) -> Result<(), DeError> {
        self.expect(b'[', "expected array")?;
        self.first = true;
        Ok(())
    }

    fn next_element(&mut self) -> Result<bool, DeError> {
        self.more(b']', "expected `,` or `]`")
    }

    fn begin_object(&mut self) -> Result<(), DeError> {
        self.expect(b'{', "expected object")?;
        self.first = true;
        Ok(())
    }

    fn next_key(&mut self) -> Result<Option<&str>, DeError> {
        if !self.more(b'}', "expected `,` or `}`")? {
            return Ok(None);
        }
        let at = self.string()?;
        self.expect(b':', "expected `:`")?;
        Ok(Some(self.resolve(at)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        assert_eq!(to_string(&1.5_f64).unwrap(), "1.5");
        assert_eq!(to_string(&1.0_f64).unwrap(), "1.0");
        assert_eq!(to_string(&42_u32).unwrap(), "42");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn roundtrips_containers() {
        let v = vec![1.0_f64, -2.5, 3e10];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<f64>>(&json).unwrap(), v);
    }

    #[test]
    fn escapes_strings() {
        let s = "a\"b\\c\nd".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(json, "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn multibyte_strings_roundtrip() {
        let s = "θ = 0.5 → ε² \u{1f680}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1_u32, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<f64>("1.5 x").is_err());
        assert!(from_str::<Vec<f64>>("[1,]").is_err());
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &f in &[0.1, 1.0 / 3.0, f64::MAX, 5e-324, -0.0] {
            let json = to_string(&f).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap(), f, "{json}");
        }
    }
}
