//! The wire protocol: length-prefixed JSON frames over a local stream.
//!
//! Every message — request or response — is one UTF-8 JSON text
//! prefixed by its byte length as a 4-byte big-endian integer. Framing
//! is independent of content, so a reader never needs to scan for
//! delimiters inside JSON, and a streaming campaign response is just a
//! sequence of frames ending in a `"report"` (or `"error"`) frame.
//!
//! Requests are flat JSON objects; the parser here is the same
//! hand-rolled field extraction the bench harness uses (the workspace
//! is dependency-free, and the protocol's own emitter never produces
//! strings needing escapes in the fields we extract).

use std::io::{self, Read, Write};

/// Refuse frames above this size: a length prefix this large means a
/// corrupt stream or a hostile peer, not a real request.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame: 4-byte big-endian length, then the payload bytes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())
}

/// Reads one frame. `Ok(None)` on a clean end-of-stream (the peer
/// closed between frames); an error on a truncated frame or an
/// oversized length prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
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

/// Escapes `s` for embedding in a JSON string literal (the report
/// frames carry multi-line report text).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`json_escape`] over a string-field value.
pub fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// The text following `"key":` and any whitespace around the colon —
/// clients are not required to send compact JSON. Occurrences of
/// `"key"` not followed by a colon (i.e. as a string *value*) are
/// skipped.
pub(crate) fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let mut from = 0;
    while let Some(at) = line[from..].find(&pat) {
        let rest = line[from + at + pat.len()..].trim_start();
        if let Some(value) = rest.strip_prefix(':') {
            return Some(value.trim_start());
        }
        from += at + pat.len();
    }
    None
}

/// The quoted string following `"key":` in a flat JSON object. Handles
/// escaped content (the value runs to the first unescaped quote).
pub fn str_field(line: &str, key: &str) -> Option<String> {
    let rest = after_key(line, key)?.strip_prefix('"')?;
    let mut end = None;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    Some(json_unescape(&rest[..end?]))
}

/// The number following `"key":` in a flat JSON object.
pub fn num_field(line: &str, key: &str) -> Option<f64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean following `"key":` in a flat JSON object.
pub fn bool_field(line: &str, key: &str) -> Option<bool> {
    let rest = after_key(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
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
        let mut r = Cursor::new((MAX_FRAME + 1).to_be_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn escaping_round_trips() {
        let text = "line one\nline \"two\"\t\\slash\u{1}";
        assert_eq!(json_unescape(&json_escape(text)), text);
        let frame = format!(
            "{{\"type\":\"report\",\"report\":\"{}\"}}",
            json_escape(text)
        );
        assert_eq!(str_field(&frame, "report").as_deref(), Some(text));
    }

    #[test]
    fn field_extraction() {
        let line = "{\"cmd\":\"campaign\",\"scale\":\"quick\",\"jobs\":4,\"warm\":true}";
        assert_eq!(str_field(line, "cmd").as_deref(), Some("campaign"));
        assert_eq!(str_field(line, "scale").as_deref(), Some("quick"));
        assert_eq!(num_field(line, "jobs"), Some(4.0));
        assert_eq!(bool_field(line, "warm"), Some(true));
        assert_eq!(str_field(line, "missing"), None);
    }

    #[test]
    fn field_extraction_tolerates_whitespace() {
        // What a default serializer emits: spaces after colons.
        let line = "{\"cmd\": \"trace\", \"jobs\" : 2, \"warm\": false}";
        assert_eq!(str_field(line, "cmd").as_deref(), Some("trace"));
        assert_eq!(num_field(line, "jobs"), Some(2.0));
        assert_eq!(bool_field(line, "warm"), Some(false));
    }
}
