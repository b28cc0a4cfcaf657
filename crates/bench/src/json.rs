//! A minimal hand-rolled JSON emitter and parser.
//!
//! The build has no registry access, so `serde_json` is unavailable;
//! the benchmark driver needs to *write* small reports
//! (`BENCH_repro.json`, the `--obs` exports) and to *read them back*
//! for validation (`repro obs-validate` and the export tests). This
//! module covers both: objects, arrays, strings, numbers, booleans and
//! null, plus a recursive-descent [`Json::parse`].

use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Debug, Clone)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (non-negative integers parse as
    /// [`Json::U64`]; this variant carries signed values like the
    /// pipetrace slip deltas exactly, where a float would).
    I64(i64),
    /// A finite float (rendered with six decimal places; NaN and
    /// infinities render as `null`, which JSON has no number for).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// The null value.
    Null,
    /// An ordered list of values.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Maximum container nesting depth [`Json::parse`] accepts. The
    /// parser is recursive, so unbounded nesting would overflow the
    /// host stack on adversarial input; the deepest document this crate
    /// ever emits nests four levels, so 128 is generous without
    /// letting a corrupt file take the process down.
    pub const MAX_DEPTH: usize = 128;

    /// An empty object.
    #[must_use]
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds a field to an object (panics on non-objects — emitter
    /// misuse is a programming error, not input-dependent).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(&mut self, key: &str, value: Json) -> &mut Json {
        let Json::Object(fields) = self else { panic!("field() on a non-object") };
        fields.push((key.to_owned(), value));
        self
    }

    /// Parses a JSON document (the inverse of [`Json::render`]).
    ///
    /// Integers without a fraction or exponent that fit a `u64` become
    /// [`Json::U64`]; every other number becomes [`Json::F64`].
    /// Duplicate object keys are kept in order (accessors return the
    /// first). Containers nested deeper than [`Json::MAX_DEPTH`] are
    /// rejected.
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset when the input is not valid
    /// JSON, nests too deep, or has trailing content.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The value of an object field, if `self` is an object having it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if `self` is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if `self` is an integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The signed integer value, if `self` is an integer that fits.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(v) => i64::try_from(*v).ok(),
            Json::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value (integer or float), if `self` is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if `self` is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => write_escaped(s, out),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.6}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        match u64::try_from(v) {
            Ok(u) => Json::U64(u),
            Err(_) => Json::I64(v),
        }
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

/// Recursive-descent parser state over the input bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, bounded by [`Json::MAX_DEPTH`].
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    /// Bumps the nesting depth on container entry (the matching
    /// decrement lives in the [`Parser::object`]/[`Parser::array`]
    /// wrappers).
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > Json::MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {} levels at byte {}",
                Json::MAX_DEPTH,
                self.pos
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.descend()?;
        let value = self.object_body();
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.descend()?;
        let value = self.array_body();
        self.depth -= 1;
        value
    }

    fn object_body(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array_body(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {start}"))?;
                            // Surrogates are not paired (the emitter
                            // never writes them); map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash in one piece: both are ASCII, so in the
                    // `&str` input the run ends on a scalar boundary, and
                    // each byte is decoded once.
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let plain = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(plain);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::I64(v));
                }
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_report_shape() {
        let mut cell = Json::object();
        cell.field("id", "table2/compress".into())
            .field("cycles", 1234u64.into())
            .field("wall_seconds", 0.5f64.into());
        let mut report = Json::object();
        report.field("jobs", 8u64.into()).field("cells", Json::Array(vec![cell]));
        assert_eq!(
            report.render(),
            "{\"jobs\":8,\"cells\":[{\"id\":\"table2/compress\",\
             \"cycles\":1234,\"wall_seconds\":0.500000}]}"
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::Str("a\"b\\c\nd\u{1}".into()).render(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn booleans_and_null_render_bare() {
        let mut obj = Json::object();
        obj.field("ok", true.into()).field("bad", false.into()).field("missing", Json::Null);
        assert_eq!(obj.render(), "{\"ok\":true,\"bad\":false,\"missing\":null}");
    }

    #[test]
    fn parse_round_trips_the_report_shape() {
        let text = "{\"jobs\":8,\"ratio\":0.125000,\"ok\":true,\"err\":null,\
                    \"cells\":[{\"id\":\"table2/compress\",\"cycles\":1234}]}";
        let v = Json::parse(text).expect("parses");
        assert_eq!(v.get("jobs").and_then(Json::as_u64), Some(8));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(0.125));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert!(matches!(v.get("err"), Some(Json::Null)));
        let cells = v.get("cells").and_then(Json::as_array).expect("array");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("id").and_then(Json::as_str), Some("table2/compress"));
        // Re-render equals the input (the emitter's own formatting).
        assert_eq!(v.render(), text.replace(char::is_whitespace, ""));
    }

    #[test]
    fn parse_handles_escapes_and_whitespace() {
        let v = Json::parse(" { \"a\\n\\\"b\" : [ 1 , -2.5e1 , \"\\u0041\" ] } ").expect("parses");
        let items = v.get("a\n\"b").and_then(Json::as_array).expect("array");
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(-25.0));
        assert_eq!(items[2].as_str(), Some("A"));
    }

    #[test]
    fn parse_is_linear_in_string_heavy_documents() {
        // About 5 MB of strings mixing ASCII, multi-byte scalars and
        // escapes, the shape of a pipetrace export. Decoding each
        // scalar against the whole remaining input took minutes here.
        let names: Vec<String> = (0..40_000)
            .map(|i| format!("op {i}: héllo → 世界 🎉 \"q\" \\ tab\t end {}", "x".repeat(64)))
            .collect();
        let doc = Json::Array(
            names
                .iter()
                .map(|name| {
                    let mut op = Json::object();
                    op.field("name", name.as_str().into()).field("seq", 7u64.into());
                    op
                })
                .collect(),
        );
        let text = doc.render();
        assert!(text.len() > 4_000_000, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).expect("parses");
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 10.0, "parse took {elapsed:?}");
        let items = parsed.as_array().expect("array");
        assert_eq!(items.len(), names.len());
        for (item, name) in items.iter().zip(&names) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(name.as_str()));
        }
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"open", "{} trailing", "12x"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_are_kept_in_order_and_get_returns_the_first() {
        let v = Json::parse("{\"k\":1,\"other\":true,\"k\":2}").expect("parses");
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(1), "get() returns the first");
        let Json::Object(fields) = &v else { panic!("object") };
        assert_eq!(fields.len(), 3, "duplicates are kept, not merged");
        assert_eq!(fields[2].0, "k");
        assert_eq!(fields[2].1.as_u64(), Some(2));
    }

    #[test]
    fn nesting_at_the_depth_limit_parses_and_one_past_is_rejected() {
        let nest = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(Json::MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(Json::MAX_DEPTH + 1)).expect_err("rejected");
        assert!(err.contains("nesting deeper than"), "{err}");
        // Objects count against the same budget as arrays.
        let objects =
            format!("{}1{}", "{\"k\":[".repeat(70), "]}".repeat(70));
        let err = Json::parse(&objects).expect_err("140 levels rejected");
        assert!(err.contains("nesting deeper than"), "{err}");
        // Depth is nesting, not sibling count: a long flat array is fine.
        let flat = format!("[{}1]", "1,".repeat(10_000));
        assert!(Json::parse(&flat).is_ok());
    }

    #[test]
    fn lone_surrogate_escapes_decode_as_replacement_characters() {
        // A lone high surrogate is not a scalar value; the parser maps
        // it to U+FFFD rather than erroring (the emitter never writes
        // surrogates, so anything goes on the lenient side).
        assert_eq!(Json::parse("\"\\ud800\"").unwrap().as_str(), Some("\u{fffd}"));
        // Surrogate *pairs* are not combined either: each half decodes
        // independently to U+FFFD.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{fffd}\u{fffd}")
        );
        // Truncated or non-hex escapes are hard errors, not U+FFFD.
        assert!(Json::parse("\"\\u12\"").is_err());
        assert!(Json::parse("\"\\uzzzz\"").is_err());
    }

    #[test]
    fn numbers_beyond_u64_fall_back_to_floats() {
        // u64::MAX still parses as an integer...
        assert_eq!(Json::parse("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        // ...one past it overflows to a float, not an error.
        let over = Json::parse("18446744073709551616").expect("parses");
        assert!(over.as_u64().is_none());
        assert!(matches!(over, Json::F64(_)));
        // Negative integers keep exact signed representation.
        assert!(matches!(Json::parse("-3").unwrap(), Json::I64(-3)));
        assert_eq!(Json::parse("-3").unwrap().as_f64(), Some(-3.0));
        assert_eq!(Json::parse("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(Json::parse("-3").unwrap().render(), "-3");
        assert_eq!(Json::from(-7i64).render(), "-7");
        // Non-negative i64 inputs normalize to the unsigned variant.
        assert!(matches!(Json::from(7i64), Json::U64(7)));
        // One below i64::MIN overflows to a float.
        assert!(matches!(Json::parse("-9223372036854775809").unwrap(), Json::F64(_)));
        // An exponent beyond f64's range parses as infinity — which
        // re-renders as null, like every non-finite float.
        let huge = Json::parse("1e999").expect("parses");
        assert_eq!(huge.as_f64(), Some(f64::INFINITY));
        assert_eq!(huge.render(), "null");
    }
}
