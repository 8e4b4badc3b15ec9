//! Properties of [`Request::decode`]: every valid request round-trips,
//! and every damaged one — cut short, with a byte flipped, or with a
//! value of the wrong JSON type — is an `Err`, never a panic and never
//! a silent default.

use proptest::prelude::*;
use wormhole_experiments::Scale;
use wormhole_net::{Addr, FaultScenario};
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

proptest! {
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
