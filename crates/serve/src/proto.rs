//! The wire protocol: length-prefixed JSON frames over a local stream.
//!
//! Every message — request or response — is one UTF-8 JSON text
//! prefixed by its byte length as a 4-byte big-endian integer. Framing
//! is independent of content, so a reader never needs to scan for
//! delimiters inside JSON, and a streaming campaign response is just a
//! sequence of frames ending in a `"report"` (or `"error"`) frame.
//!
//! Every frame is one JSON object. [`Object::parse`] is the crate's
//! only JSON reader: it checks the whole frame and hands back its
//! top-level fields, each with its raw text, borrowing from the frame
//! and allocating nothing. Strings keep their escapes until a caller
//! decodes them ([`JsonStr`]); nested arrays and objects (a trace
//! frame's `hops`) are checked and kept as raw text.

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};

/// Refuse frames above this size: a length prefix this large means a
/// corrupt stream or a hostile peer, not a real request.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame: 4-byte big-endian length, then the payload bytes.
/// A payload over [`MAX_FRAME`], which no reader would accept, is
/// refused before any byte is written.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())
}

/// Reads one frame. `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames, before any byte of a length prefix); an
/// error on a truncated prefix or frame, or an oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    let got = loop {
        match r.read(&mut len) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            got => break got?,
        }
    };
    if got == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len[got..])?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Most top-level fields one object may carry. Every frame the
/// protocol sends has at most nine; the bound lets [`Object::parse`]
/// hold the fields and check for duplicate keys without allocating.
pub const MAX_FIELDS: usize = 16;

/// Deepest nesting a value may have. Trace frames nest three deep
/// (hops, hop, labels); the bound keeps a hostile frame from
/// exhausting the stack.
const MAX_DEPTH: usize = 16;

/// A JSON string as it appears on the wire, between its quotes, with
/// every escape already checked. [`JsonStr::chars`] decodes it and
/// `Display` prints it decoded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JsonStr<'a>(&'a str);

impl<'a> JsonStr<'a> {
    /// The decoded characters: the inverse of
    /// [`wormhole_net::text::json_str`].
    pub fn chars(self) -> impl Iterator<Item = char> + 'a {
        let mut rest = self.0.chars();
        std::iter::from_fn(move || match rest.next()? {
            // Checked when the string was read, so never an `Err`.
            '\\' => escape(&mut rest).ok(),
            c => Some(c),
        })
    }

    /// Whether the decoded string is `s`.
    pub fn is(self, s: &str) -> bool {
        self.chars().eq(s.chars())
    }
}

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.chars().try_for_each(|c| f.write_char(c))
    }
}

/// One JSON value, as [`Object::parse`] reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Value<'a> {
    /// A string, escapes still in place.
    Str(JsonStr<'a>),
    /// A number.
    Num(f64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    #[default]
    Null,
    /// An array or object, checked and kept as its raw text
    /// ([`Field::raw`]).
    Nested,
}

/// One top-level `key: value` pair of an object.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Field<'a> {
    /// The key.
    pub key: JsonStr<'a>,
    /// The value.
    pub value: Value<'a>,
    /// The value's text as sent: quotes, escapes and nesting included.
    pub raw: &'a str,
}

/// The top-level fields of one JSON object, in frame order.
#[derive(Clone, Debug, Default)]
pub struct Object<'a> {
    fields: [Field<'a>; MAX_FIELDS],
    len: usize,
}

impl<'a> Object<'a> {
    /// Reads `frame` as one JSON object. A non-object, a truncated
    /// object, trailing bytes, a duplicate key, a bad escape or number,
    /// or more than [`MAX_FIELDS`] fields is an `Err` naming the fault.
    pub fn parse(frame: &'a str) -> Result<Object<'a>, String> {
        let mut obj = Object::default();
        let frame = ws(frame);
        if !frame.starts_with('{') {
            return Err("not a JSON object".into());
        }
        let rest = members(frame, 0, &mut |key, value, raw| {
            let key = key.unwrap_or_default();
            if obj.fields().iter().any(|f| f.key.chars().eq(key.chars())) {
                return Err(format!("duplicate key \"{key}\""));
            }
            let slot = obj
                .fields
                .get_mut(obj.len)
                .ok_or_else(|| format!("more than {MAX_FIELDS} fields"))?;
            *slot = Field { key, value, raw };
            obj.len += 1;
            Ok(())
        })?;
        match ws(rest) {
            "" => Ok(obj),
            extra => Err(expected("the end of the frame", extra)),
        }
    }

    /// The fields, in frame order.
    pub fn fields(&self) -> &[Field<'a>] {
        &self.fields[..self.len]
    }

    /// The field named `key`.
    pub fn get(&self, key: &str) -> Option<Field<'a>> {
        self.fields().iter().find(|f| f.key.is(key)).copied()
    }
}

/// The string field `key` of the JSON object `frame`, decoded; `None`
/// when the frame is malformed or `key` is absent or not a string.
pub fn str_field(frame: &str, key: &str) -> Option<String> {
    match Object::parse(frame).ok()?.get(key)?.value {
        Value::Str(s) => Some(s.to_string()),
        _ => None,
    }
}

/// `s` without leading JSON whitespace.
fn ws(s: &str) -> &str {
    s.trim_start_matches([' ', '\t', '\n', '\r'])
}

/// The error for finding `s` where `what` belongs, quoting the start
/// of `s`.
fn expected(what: &str, s: &str) -> String {
    let found = s.char_indices().nth(12).map_or(s, |(at, _)| &s[..at]);
    match s {
        "" => format!("truncated: expected {what}"),
        _ => format!("expected {what}, found {found}"),
    }
}

/// Reads the object or array opening `s` at nesting `depth`, handing
/// each member to `each` (with `None` for an array element's key),
/// and returns the text after it.
fn members<'a>(
    s: &'a str,
    depth: usize,
    each: &mut dyn FnMut(Option<JsonStr<'a>>, Value<'a>, &'a str) -> Result<(), String>,
) -> Result<&'a str, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH}"));
    }
    let close = if s.starts_with('{') { '}' } else { ']' };
    let mut rest = ws(&s[1..]);
    if let Some(after) = rest.strip_prefix(close) {
        return Ok(after);
    }
    loop {
        let key = if close == '}' {
            let body = rest
                .strip_prefix('"')
                .ok_or_else(|| expected("a key", rest))?;
            let (key, after) = string(body)?;
            let after = ws(after).strip_prefix(':');
            rest = ws(after.ok_or_else(|| format!("expected : after key \"{key}\""))?);
            Some(key)
        } else {
            None
        };
        let (value, after) = value(rest, depth)?;
        each(key, value, &rest[..rest.len() - after.len()])?;
        rest = ws(after);
        match rest.strip_prefix([',', close]) {
            Some(after) if rest.starts_with(',') => rest = ws(after),
            Some(after) => return Ok(after),
            None => return Err(expected(&format!(", or {close}"), rest)),
        }
    }
}

/// Reads the value at the start of `s`, returning it and the text
/// after it.
fn value(s: &str, depth: usize) -> Result<(Value<'_>, &str), String> {
    let word = |w: &str, v| s.strip_prefix(w).map(|after| (v, after));
    let found = match s.as_bytes().first() {
        Some(b'"') => return string(&s[1..]).map(|(v, after)| (Value::Str(v), after)),
        Some(b'{' | b'[') => {
            let after = members(s, depth + 1, &mut |_, _, _| Ok(()))?;
            return Ok((Value::Nested, after));
        }
        Some(b'-' | b'0'..=b'9') => return number(s),
        Some(b't') => word("true", Value::Bool(true)),
        Some(b'f') => word("false", Value::Bool(false)),
        Some(b'n') => word("null", Value::Null),
        _ => None,
    };
    found.ok_or_else(|| expected("a value", s))
}

/// Reads the JSON number at the start of `s`.
fn number(s: &str) -> Result<(Value<'_>, &str), String> {
    let b = s.as_bytes();
    let digits = |from: usize| from + b[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let int = usize::from(b.first() == Some(&b'-'));
    let mut end = digits(int);
    // One or more digits, with no leading zero.
    let mut ok = end > int && (b[int] != b'0' || end == int + 1);
    if b.get(end) == Some(&b'.') {
        ok &= digits(end + 1) > end + 1;
        end = digits(end + 1);
    }
    if matches!(b.get(end), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(b.get(end + 1), Some(b'+' | b'-')));
        ok &= digits(end + 1 + sign) > end + 1 + sign;
        end = digits(end + 1 + sign);
    }
    match s[..end].parse() {
        Ok(n) if ok => Ok((Value::Num(n), &s[end..])),
        _ => Err(expected("a number", s)),
    }
}

/// Reads a string body (`s` starts just past its opening quote),
/// checking every escape; returns it and the text after the closing
/// quote.
fn string(s: &str) -> Result<(JsonStr<'_>, &str), String> {
    let mut chars = s.chars();
    loop {
        let at = s.len() - chars.as_str().len();
        match chars.next() {
            Some('"') => return Ok((JsonStr(&s[..at]), chars.as_str())),
            Some('\\') => {
                escape(&mut chars)?;
            }
            Some(c) if c < ' ' => return Err(format!("unescaped control character {c:?}")),
            Some(_) => {}
            None => return Err("truncated string".into()),
        }
    }
}

/// Decodes one escape; `chars` starts just past its backslash. A
/// surrogate must come in a `\uD8xx\uDCxx` pair.
fn escape(chars: &mut std::str::Chars<'_>) -> Result<char, String> {
    let c = chars.next().ok_or("truncated string")?;
    if let Some(i) = "\"\\/bfnrt".find(c) {
        return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
    } else if c != 'u' {
        return Err(format!("bad escape \\{c}"));
    }
    let mut code = hex4(chars)?;
    if (0xD800..0xDC00).contains(&code) {
        let pair = chars.next() == Some('\\') && chars.next() == Some('u');
        code = match hex4(chars) {
            Ok(lo @ 0xDC00..=0xDFFF) if pair => 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00),
            // Still a surrogate, so `from_u32` refuses it.
            _ => code,
        };
    }
    char::from_u32(code).ok_or_else(|| "lone surrogate in a \\u escape".into())
}

/// The four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Result<u32, String> {
    (0..4)
        .try_fold(0, |n, _| Some(n * 16 + chars.next()?.to_digit(16)?))
        .ok_or_else(|| "short \\u escape".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"cmd\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("second"));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut r = Cursor::new(vec![0, 0, 0, 9, b'x']);
        assert!(read_frame(&mut r).is_err());
        for cut in 1..4 {
            let mut r = Cursor::new(vec![0; cut]);
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{cut} bytes");
        }
        let mut r = Cursor::new((MAX_FRAME + 1).to_be_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        let mut out = Vec::new();
        let err = write_frame(&mut out, &" ".repeat(MAX_FRAME as usize + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }

    #[test]
    fn escaping_round_trips() {
        let text = "line one\nline \"two\"\t\\slash\u{1}/\u{1F600}";
        let mut frame = String::from("{\"type\":\"report\",\"report\":");
        wormhole_net::text::json_str(&mut frame, text).unwrap();
        frame.push('}');
        assert_eq!(str_field(&frame, "report").as_deref(), Some(text));
        // Escapes `json_str` never writes decode too: `\/`, `\b`,
        // `\f`, upper-case hex and a surrogate pair.
        let frame = r#"{"s":"\/\b\f\u00E9\uD83D\uDE00"}"#;
        assert_eq!(
            str_field(frame, "s").as_deref(),
            Some("/\u{8}\u{c}\u{e9}\u{1F600}")
        );
    }

    #[test]
    fn fields_keep_types_and_raw_text() {
        let line = "{\"cmd\":\"campaign\",\"scale\":\"quick\",\"jobs\":4,\"warm\":true,\"x\":null}";
        let obj = Object::parse(line).unwrap();
        assert_eq!(obj.fields().len(), 5);
        assert!(matches!(obj.get("cmd").unwrap().value, Value::Str(s) if s.is("campaign")));
        assert_eq!(obj.get("scale").unwrap().raw, "\"quick\"");
        assert_eq!(obj.get("jobs").unwrap().value, Value::Num(4.0));
        assert_eq!(obj.get("warm").unwrap().value, Value::Bool(true));
        assert_eq!(obj.get("x").unwrap().value, Value::Null);
        assert_eq!(obj.get("missing"), None);
        assert_eq!(str_field(line, "jobs"), None, "a number is not a string");
    }

    #[test]
    fn fields_tolerate_whitespace() {
        // What a default serializer emits: spaces after colons.
        let line = " {\"cmd\": \"trace\", \"jobs\" : 2,\n\t\"warm\": false } \r\n";
        let obj = Object::parse(line).unwrap();
        assert_eq!(str_field(line, "cmd").as_deref(), Some("trace"));
        assert_eq!(obj.get("jobs").unwrap().value, Value::Num(2.0));
        assert_eq!(obj.get("warm").unwrap().value, Value::Bool(false));
    }

    #[test]
    fn nested_values_are_kept_raw() {
        let hops = r#"[{"ttl":1,"labels":["16"]},{"ttl":2,"x":{}}]"#;
        let line = format!(r#"{{"type":"trace","hops":{hops},"after":[ ],"o":{{"a":[1,{{}}]}}}}"#);
        let obj = Object::parse(&line).unwrap();
        let f = obj.get("hops").unwrap();
        assert_eq!((f.value, f.raw), (Value::Nested, hops));
        assert_eq!(obj.get("after").unwrap().raw, "[ ]");
        assert_eq!(obj.get("o").unwrap().raw, r#"{"a":[1,{}]}"#);
        assert_eq!(str_field(&line, "type").as_deref(), Some("trace"));
    }

    #[test]
    fn malformed_objects_are_errors() {
        let deep = format!("{{\"a\":{}{}}}", "[".repeat(40), "]".repeat(40));
        let many: Vec<String> = (0..=MAX_FIELDS).map(|i| format!("\"k{i}\":{i}")).collect();
        let many = format!("{{{}}}", many.join(","));
        for (frame, fault) in [
            ("", "not a JSON object"),
            ("[1]", "not a JSON object"),
            ("\"cmd\"", "not a JSON object"),
            (r#"{"cmd":"ping""#, "truncated: expected , or }"),
            (
                r#"{"cmd":"ping"}garbage"#,
                "expected the end of the frame, found garbage",
            ),
            (
                r#"{"cmd":"ping"}{}"#,
                "expected the end of the frame, found {}",
            ),
            (
                r#"{"cmd":"ping","cmd":"shutdown"}"#,
                r#"duplicate key "cmd""#,
            ),
            (r#"{"cmd":1,"cmd":2}"#, r#"duplicate key "cmd""#),
            (r#"{"cmd":"ping",}"#, "expected a key, found }"),
            (r#"{"cmd" "ping"}"#, r#"expected : after key "cmd""#),
            (r#"{"n":01}"#, "expected a number, found 01}"),
            (r#"{"n":-}"#, "expected a number, found -}"),
            (r#"{"n":1.}"#, "expected a number, found 1.}"),
            (r#"{"n":1e+}"#, "expected a number, found 1e+}"),
            (r#"{"n":.5}"#, "expected a value, found .5}"),
            (r#"{"n":tru}"#, "expected a value, found tru}"),
            (r#"{"n":[1,]}"#, "expected a value, found ]}"),
            (r#"{"n":[1}"#, "expected , or ], found }"),
            (r#"{"s":"\q"}"#, r"bad escape \q"),
            (r#"{"s":"\u12"}"#, r"short \u escape"),
            (r#"{"s":"\ud83d"}"#, r"lone surrogate in a \u escape"),
            (r#"{"s":"\ud83dA"}"#, r"lone surrogate in a \u escape"),
            (r#"{"s":"\ude00"}"#, r"lone surrogate in a \u escape"),
            ("{\"s\":\"a\nb\"}", "unescaped control character '\\n'"),
            (r#"{"s":"open"#, "truncated string"),
            (&deep, "nested deeper than 16"),
            (&many, "more than 16 fields"),
        ] {
            assert_eq!(
                Object::parse(frame).err().as_deref(),
                Some(fault),
                "{frame}"
            );
            assert_eq!(str_field(frame, "s"), None);
        }
    }

    #[test]
    fn every_truncation_of_a_frame_is_an_error() {
        let frame = r#"{"type":"trace","s":"a\"é😀","hops":[{"ttl":1,"l":["x"]}],"n":-1.5e3,"t":true,"z":null}"#;
        assert!(Object::parse(frame).is_ok());
        for (cut, _) in frame.char_indices().skip(1) {
            assert!(Object::parse(&frame[..cut]).is_err(), "{}", &frame[..cut]);
        }
    }
}
