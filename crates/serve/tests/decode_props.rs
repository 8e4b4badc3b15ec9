//! Properties of [`Request::decode`]: every valid request round-trips,
//! and every damaged one — cut short, with a byte flipped, or with a
//! value of the wrong JSON type — is an `Err`, never a panic and never
//! a silent default. And of the one JSON string escaper,
//! `wormhole_net::text::json_str`: any text it writes into a frame or
//! into `wormhole_lint::to_json` reads back through [`Object::parse`]
//! as exactly that text.

use proptest::prelude::*;
use wormhole_experiments::Scale;
use wormhole_lint::{Diagnostic, Location, Severity};
use wormhole_net::text::json_str;
use wormhole_net::{Addr, FaultScenario};
use wormhole_serve::proto::{Object, Value};
use wormhole_serve::Request;

const EVERY_SCALE: [Scale; 4] = [
    Scale::Quick,
    Scale::Paper,
    Scale::Tenfold,
    Scale::ThousandFold,
];

/// The request that drawn `(cmd, scale, jobs, fault)` and `(_, stream,
/// dst, vp)` pick; the first bool of `b` picks the `scheduling` value
/// [`fields`] sends.
fn request(
    (cmd, scale, jobs, fault): (u8, usize, usize, usize),
    (_, stream, dst, vp): (bool, bool, u32, usize),
) -> Request {
    let scale = EVERY_SCALE[scale % EVERY_SCALE.len()];
    match cmd % 6 {
        0 => Request::Ping,
        1 => Request::History,
        2 => Request::Shutdown,
        3 => Request::Lint { scale },
        4 => Request::Trace {
            scale,
            dst: Addr(dst),
            vp,
        },
        _ => Request::Campaign {
            scale,
            jobs,
            faults: FaultScenario::ALL[fault % FaultScenario::ALL.len()],
            stream,
        },
    }
}

/// A JSON string literal for `s`, its first character written as a
/// `\u` escape when `escaped`.
fn string(s: &str, escaped: bool) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if escaped => format!("\"\\u{:04X}{}\"", c as u32, chars.as_str()),
        _ => format!("\"{s}\""),
    }
}

/// The request's `(key, value text)` fields, `cmd` first. A field at
/// its default is sent only when its bit in `keep` is set. A campaign's
/// `scheduling` key, which decodes to nothing, is sent the same way,
/// as `stealing` or `batches`.
fn fields(r: &Request, stealing: bool, keep: u8, escaped: bool) -> Vec<(&'static str, String)> {
    let s = |v: &str| string(v, escaped);
    let scale = |scale: Scale| ("scale", s(scale.name()), scale == Scale::Quick);
    let (cmd, optional) = match *r {
        Request::Ping => ("ping", vec![]),
        Request::History => ("history", vec![]),
        Request::Shutdown => ("shutdown", vec![]),
        Request::Lint { scale: sc } => ("lint", vec![scale(sc)]),
        Request::Trace { scale: sc, dst, vp } => (
            "trace",
            vec![
                scale(sc),
                ("dst", s(&dst.to_string()), false),
                ("vp", vp.to_string(), vp == 0),
            ],
        ),
        Request::Campaign {
            scale: sc,
            jobs,
            faults,
            stream,
        } => {
            let sched = if stealing { "stealing" } else { "batches" };
            (
                "campaign",
                vec![
                    scale(sc),
                    ("jobs", jobs.to_string(), jobs == 1),
                    ("faults", s(faults.name()), faults == FaultScenario::Clean),
                    ("scheduling", s(sched), true),
                    ("stream", stream.to_string(), stream),
                ],
            )
        }
    };
    let mut out = vec![("cmd", s(cmd))];
    for (bit, (key, value, default)) in optional.into_iter().enumerate() {
        if !default || keep & (1 << bit) != 0 {
            out.push((key, value));
        }
    }
    out
}

/// Joins fields into one object frame, rotated by `turn` so `cmd` is
/// not always first, with spaces around the punctuation when `spaced`.
fn frame(fields: &[(&str, String)], turn: usize, spaced: bool) -> String {
    let (comma, colon) = if spaced { (" , ", " : ") } else { (",", ":") };
    let mut fields = fields.to_vec();
    let len = fields.len();
    fields.rotate_left(turn % len);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\"{colon}{v}"))
        .collect();
    format!("{{{}}}", body.join(comma))
}

/// Values of every JSON type but the one `value` has.
fn other_types(value: &str) -> &'static [&'static str] {
    match value.as_bytes()[0] {
        b'"' => &["7", "-1.5", "true", "null", "[\"quick\"]", "{\"a\":1}"],
        b't' | b'f' => &["\"true\"", "1", "null", "[true]", "{}"],
        _ => &["\"1\"", "true", "null", "[1]", "{\"n\":1}"],
    }
}

/// How an error message names `key`.
fn spelled(key: &str) -> &str {
    match key {
        "faults" => "fault scenario",
        key => key,
    }
}

/// The characters drawn `(class, n)` pairs pick: C0 controls, DEL,
/// quotes, backslashes, the solidus, printable ASCII, other BMP
/// characters and astral ones.
fn text(picks: &[(u8, u32)]) -> String {
    picks
        .iter()
        .map(|&(class, n)| match class {
            0 => char::from(n as u8 % 0x20),
            1 => '\u{7f}',
            2 => '"',
            3 => '\\',
            4 => '/',
            5 => char::from(0x20 + n as u8 % 0x5f),
            6 => char::from_u32(0x80 + n % (0xd800 - 0x80)).expect("below the surrogates"),
            _ => char::from_u32(0x1_0000 + n % 0x10_0000).expect("an astral character"),
        })
        .collect()
}

/// The decoded string field `key` of the object `frame`.
fn decoded(frame: &str, key: &str) -> Result<String, String> {
    match Object::parse(frame)?.get(key).map(|f| f.value) {
        Some(Value::Str(s)) => Ok(s.to_string()),
        other => Err(format!("{key} is {other:?}")),
    }
}

/// `s` escaped into a report frame, and read back.
fn frame_round_trip(s: &str) -> Result<String, String> {
    let mut frame = String::from("{\"type\":\"report\",\"report\":");
    json_str(&mut frame, s).unwrap();
    frame.push('}');
    decoded(&frame, "report")
}

/// `lint::to_json` over one finding carrying `s` as its location,
/// message and hint: the document must parse, and its one finding must
/// read back `s` in all three.
fn lint_round_trip(s: &str) -> Result<[String; 3], String> {
    let d = Diagnostic::new("W107", Severity::Warn, Location::Router(s.into()), s, s);
    let json = wormhole_lint::to_json(&[d]);
    let findings = Object::parse(&json)?
        .get("findings")
        .ok_or("no findings")?
        .raw;
    let finding = findings
        .strip_prefix('[')
        .and_then(|f| f.strip_suffix(']'))
        .ok_or("findings is not an array")?;
    Ok([
        decoded(finding, "location")?,
        decoded(finding, "message")?,
        decoded(finding, "hint")?,
    ])
}

#[test]
fn every_ascii_character_and_an_astral_one_round_trip() {
    let s: String = (0..=0x7f_u8)
        .map(char::from)
        .chain(['é', '\u{1F600}'])
        .collect();
    assert_eq!(frame_round_trip(&s), Ok(s.clone()));
    let located = format!("router {s}");
    assert_eq!(lint_round_trip(&s), Ok([located, s.clone(), s]));
}

proptest! {
    #[test]
    fn escaped_text_round_trips(picks in proptest::collection::vec((0u8..8, any::<u32>()), 0..48)) {
        let s = text(&picks);
        prop_assert_eq!(frame_round_trip(&s), Ok(s.clone()));
        prop_assert_eq!(lint_round_trip(&s), Ok([format!("router {s}"), s.clone(), s]));
    }

    #[test]
    fn valid_requests_round_trip(
        a in (0u8..6, 0usize..4, 0usize..64, 0usize..7),
        b in (any::<bool>(), any::<bool>(), any::<u32>(), 0usize..100),
        shape in (any::<u8>(), 0usize..8, any::<bool>(), any::<bool>()),
    ) {
        let (keep, turn, spaced, escaped) = shape;
        let req = request(a, b);
        let text = frame(&fields(&req, b.0, keep, escaped), turn, spaced);
        prop_assert_eq!(Request::decode(&text), Ok(req));
    }

    #[test]
    fn every_truncation_is_an_error(
        a in (0u8..6, 0usize..4, 0usize..64, 0usize..7),
        b in (any::<bool>(), any::<bool>(), any::<u32>(), 0usize..100),
        shape in (any::<u8>(), 0usize..8, any::<bool>(), any::<bool>()),
    ) {
        let (keep, turn, spaced, escaped) = shape;
        let text = frame(&fields(&request(a, b), b.0, keep, escaped), turn, spaced);
        for cut in 0..text.len() {
            let decoded = Request::decode(&text[..cut]);
            prop_assert!(decoded.is_err(), "{} decoded to {:?}", &text[..cut], decoded);
        }
    }

    #[test]
    fn byte_flips_decode_or_err_without_panicking(
        a in (0u8..6, 0usize..4, 0usize..64, 0usize..7),
        b in (any::<bool>(), any::<bool>(), any::<u32>(), 0usize..100),
        shape in (any::<u8>(), 0usize..8, any::<bool>(), any::<bool>()),
        flip in 1u8..=255,
    ) {
        let (keep, turn, spaced, escaped) = shape;
        let text = frame(&fields(&request(a, b), b.0, keep, escaped), turn, spaced);
        for at in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[at] ^= flip;
            if let Ok(flipped) = String::from_utf8(bytes) {
                // Either outcome is fine; a panic fails the property.
                let _ = Request::decode(&flipped);
            }
        }
    }

    #[test]
    fn a_value_of_another_type_is_an_error_naming_its_key(
        a in (0u8..6, 0usize..4, 0usize..64, 0usize..7),
        b in (any::<bool>(), any::<bool>(), any::<u32>(), 0usize..100),
        shape in (any::<u8>(), 0usize..8, any::<bool>(), any::<bool>()),
        pick in 0usize..8,
    ) {
        let (keep, turn, spaced, escaped) = shape;
        let good = fields(&request(a, b), b.0, keep, escaped);
        for i in 0..good.len() {
            let (key, value) = &good[i];
            let swaps = other_types(value);
            let mut bad = good.clone();
            bad[i].1 = swaps[pick % swaps.len()].to_string();
            let text = frame(&bad, turn, spaced);
            match Request::decode(&text) {
                Err(e) => prop_assert!(e.contains(spelled(key)), "{}: {} names no {}", text, e, key),
                Ok(r) => prop_assert!(false, "{} with {} swapped decoded to {:?}", text, key, r),
            }
        }
    }
}

#[test]
fn every_command_refuses_every_other_commands_keys() {
    let keys = [
        "scale",
        "jobs",
        "faults",
        "scheduling",
        "stream",
        "dst",
        "vp",
        "bogus",
    ];
    let accepts: [(&str, &[&str]); 6] = [
        ("ping", &[]),
        ("history", &[]),
        ("shutdown", &[]),
        ("lint", &["scale"]),
        ("trace", &["scale", "dst", "vp"]),
        (
            "campaign",
            &["scale", "jobs", "faults", "scheduling", "stream"],
        ),
    ];
    for (cmd, own) in accepts {
        for key in keys.iter().filter(|k| !own.contains(k)) {
            let text = format!(r#"{{"cmd":"{cmd}","{key}":"x"}}"#);
            assert_eq!(
                Request::decode(&text),
                Err(format!(r#"unknown key "{key}" in a {cmd} request"#)),
                "{text}"
            );
        }
    }
}

#[test]
fn values_of_the_right_type_that_name_nothing_are_errors() {
    for (text, message) in [
        (r#"{"scale":"quick"}"#, "request has no cmd"),
        (r#"{"cmd":"frobnicate"}"#, "unknown cmd frobnicate"),
        (
            r#"{"cmd":"lint","scale":"galactic"}"#,
            "unknown scale galactic",
        ),
        (r#"{"cmd":"lint","scale":"Quick"}"#, "unknown scale Quick"),
        (
            r#"{"cmd":"campaign","jobs":-0.5}"#,
            "jobs must be a whole number >= 0, got -0.5",
        ),
        (
            r#"{"cmd":"campaign","jobs":1e999}"#,
            "jobs must be a whole number >= 0, got 1e999",
        ),
        (r#"{"cmd":"trace"}"#, "trace needs a dst address"),
        (
            r#"{"cmd":"trace","dst":"10.1.0"}"#,
            r#"dst must be an IPv4 address string, got "10.1.0""#,
        ),
        (
            r#"{"cmd":"trace","dst":"10.1.0.0","dst":"10.1.0.1"}"#,
            r#"malformed request: duplicate key "dst""#,
        ),
    ] {
        assert_eq!(Request::decode(text), Err(message.to_string()), "{text}");
    }
}
