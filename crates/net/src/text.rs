//! The text writers the outputs share: the campaign report and the
//! JSONL transcript render through them, and serve's frames and the
//! lint JSON escape their strings with [`json_str`].
//!
//! Integers, addresses, `Option<u8>`s, label stack entries and lists
//! are written by hand into any [`fmt::Write`], with the bytes their
//! `Display`/`Debug` impls print (`Some(3)`, `10.0.0.1`,
//! `Lse { label: Label(16), … }`), at about half the cost of `write!`.
//! [`json_str`] is the one JSON string escaper.

use crate::{Addr, Lse};
use std::fmt::{self, Write};

/// `v` in decimal.
pub fn int<W: Write + ?Sized>(w: &mut W, mut v: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"))
}

/// `Some(v)` or `None`, as `Option<u8>`'s `Debug` prints it.
pub fn opt_int<W: Write + ?Sized>(w: &mut W, v: Option<u8>) -> fmt::Result {
    match v {
        Some(v) => {
            w.write_str("Some(")?;
            int(w, u64::from(v))?;
            w.write_char(')')
        }
        None => w.write_str("None"),
    }
}

/// `true` or `false`.
pub fn boolean<W: Write + ?Sized>(w: &mut W, b: bool) -> fmt::Result {
    w.write_str(if b { "true" } else { "false" })
}

/// A dotted quad, as [`Addr`]'s `Display` prints it.
pub fn addr<W: Write + ?Sized>(w: &mut W, a: Addr) -> fmt::Result {
    let mut buf = [0u8; 15];
    let mut len = 0;
    for (i, octet) in a.octets().into_iter().enumerate() {
        if i > 0 {
            buf[len] = b'.';
            len += 1;
        }
        if octet >= 100 {
            buf[len] = b'0' + octet / 100;
            len += 1;
        }
        if octet >= 10 {
            buf[len] = b'0' + octet / 10 % 10;
            len += 1;
        }
        buf[len] = b'0' + octet % 10;
        len += 1;
    }
    w.write_str(std::str::from_utf8(&buf[..len]).expect("a dotted quad is ASCII"))
}

/// One label stack entry, as its derived `Debug` prints it (the
/// report's form).
pub fn lse_debug<W: Write + ?Sized>(w: &mut W, e: &Lse) -> fmt::Result {
    w.write_str("Lse { label: Label(")?;
    int(w, u64::from(e.label.0))?;
    w.write_str("), tc: ")?;
    int(w, u64::from(e.tc))?;
    w.write_str(", bottom: ")?;
    boolean(w, e.bottom)?;
    w.write_str(", ttl: ")?;
    int(w, u64::from(e.ttl))?;
    w.write_str(" }")
}

/// One label stack entry, as its `Display` prints it (the JSONL form,
/// `MPLS Label 16 TTL=1`).
pub fn lse<W: Write + ?Sized>(w: &mut W, e: &Lse) -> fmt::Result {
    w.write_str("MPLS Label ")?;
    int(w, u64::from(e.label.0))?;
    w.write_str(" TTL=")?;
    int(w, u64::from(e.ttl))
}

/// `[a, b, …]`, the `Debug` layout of a slice, each item written by
/// `item`.
pub fn list<W: Write + ?Sized, T>(
    w: &mut W,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    w.write_char('[')?;
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            w.write_str(", ")?;
        }
        item(w, v)?;
    }
    w.write_char(']')
}

/// `s` as a JSON string literal, quotes included (RFC 8259): `"` and
/// `\` are escaped, `\n`, `\r` and `\t` by name, the other C0 controls
/// as `\u00xx`; everything else, DEL and non-ASCII included, is written
/// as is. Unescaped runs are written whole.
pub fn json_str<W: Write + ?Sized>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    let mut run = 0;
    // Every byte that needs escaping is ASCII, so it never falls inside
    // a multi-byte character and every `run..i` is a char boundary.
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        w.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => w.write_str("\\\""),
            b'\\' => w.write_str("\\\\"),
            b'\n' => w.write_str("\\n"),
            b'\r' => w.write_str("\\r"),
            b'\t' => w.write_str("\\t"),
            _ => write!(w, "\\u{b:04x}"),
        }?;
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Label;
    use proptest::prelude::*;

    fn text(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
        let mut s = String::new();
        write(&mut s).unwrap();
        s
    }

    fn entry(label: u32, tc: u8, bottom: bool, ttl: u8) -> Lse {
        Lse {
            label: Label(label),
            tc,
            bottom,
            ttl,
        }
    }

    #[test]
    fn edge_values_print_what_std_prints() {
        for v in [0, 7, 10, 99, 100, 65_535, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(text(|w| int(w, v)), v.to_string());
        }
        for o in [[0, 0, 0, 0], [255, 255, 255, 255], [10, 100, 5, 0]] {
            let a = Addr::from(o);
            assert_eq!(text(|w| addr(w, a)), a.to_string());
        }
        for v in [None, Some(0), Some(64), Some(255)] {
            assert_eq!(text(|w| opt_int(w, v)), format!("{v:?}"));
        }
        let lists: [&[u64]; 3] = [&[], &[5], &[1, 22, 333]];
        for l in lists {
            assert_eq!(text(|w| list(w, l, |w, &v| int(w, v))), format!("{l:?}"));
        }
        for e in [entry(0, 0, false, 0), entry(0xF_FFFF, 7, true, 255)] {
            assert_eq!(text(|w| lse_debug(w, &e)), format!("{e:?}"));
            assert_eq!(text(|w| lse(w, &e)), e.to_string());
        }
    }

    #[test]
    fn json_str_escapes_only_what_rfc_8259_requires() {
        assert_eq!(text(|w| json_str(w, "")), r#""""#);
        assert_eq!(
            text(|w| json_str(w, "a\"b\\c\nd\re\tf\u{0}\u{1f}\u{7f}é😀")),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000\\u001f\u{7f}é😀\""
        );
    }

    proptest! {
        #[test]
        fn writers_print_what_std_prints(
            v in any::<u64>(),
            a in any::<u32>(),
            ttl in (any::<bool>(), any::<u8>()),
            stack in (0u32..=0xF_FFFF, any::<u8>(), 0u32..=0xF_FFFF, any::<u8>()),
        ) {
            prop_assert_eq!(text(|w| int(w, v)), v.to_string());
            let a = Addr(a);
            prop_assert_eq!(text(|w| addr(w, a)), a.to_string());
            let ttl = ttl.0.then_some(ttl.1);
            prop_assert_eq!(text(|w| opt_int(w, ttl)), format!("{ttl:?}"));
            // A two-entry stack over the whole 20-bit label space, every
            // TTL, and both bottom-of-stack values.
            let (l1, t1, l2, t2) = stack;
            let two = [entry(l1, t1 % 8, false, t1), entry(l2, t2 % 8, true, t2)];
            prop_assert_eq!(text(|w| list(w, &two, lse_debug)), format!("{two:?}"));
            for e in &two {
                prop_assert_eq!(text(|w| lse(w, e)), e.to_string());
            }
        }
    }
}
