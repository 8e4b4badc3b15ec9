//! The diagnostics model: rule codes, severities, locations, and
//! human-readable rendering.

use std::fmt::{self, Write as _};
use wormhole_net::{text, Addr, Asn, Prefix};

/// How bad a finding is.
///
/// `Error` marks states the simulator (or the paper's methodology)
/// cannot meaningfully run on — the lint-before-simulate contract
/// refuses to start sessions and campaigns over them. `Warn` marks
/// states that are legitimate in the wild but worth flagging (mixed
/// `ttl-propagate`, asymmetric LDP policies); `Info` is purely
/// descriptive.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Descriptive finding, never blocks anything.
    Info,
    /// Suspicious but legitimately occurring configuration.
    Warn,
    /// A state the toolchain refuses to simulate or audit.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// What a diagnostic points at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Location {
    /// The network as a whole.
    Network,
    /// A router, by name.
    Router(String),
    /// One interface address of a router.
    Interface {
        /// The owning router's name.
        router: String,
        /// The interface address.
        addr: Addr,
    },
    /// An autonomous system.
    As(Asn),
    /// A prefix inside an AS table.
    Prefix {
        /// The AS whose table holds the prefix.
        asn: Asn,
        /// The prefix.
        prefix: Prefix,
    },
    /// An RSVP-TE tunnel, by builder-assigned id.
    Tunnel(u32),
    /// An address pair (candidate ingress/egress, LDP session, …).
    Pair(Addr, Addr),
    /// A single measured address.
    Addr(Addr),
    /// A campaign trace, by index.
    Trace(usize),
    /// An AS persona, by display name.
    Persona(String),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Network => f.write_str("network"),
            Location::Router(name) => write!(f, "router {name}"),
            Location::Interface { router, addr } => write!(f, "router {router} iface {addr}"),
            Location::As(asn) => write!(f, "AS{}", asn.0),
            Location::Prefix { asn, prefix } => write!(f, "AS{} prefix {prefix}", asn.0),
            Location::Tunnel(id) => write!(f, "TE tunnel {id}"),
            Location::Pair(a, b) => write!(f, "pair {a} → {b}"),
            Location::Addr(a) => write!(f, "address {a}"),
            Location::Trace(i) => write!(f, "trace #{i}"),
            Location::Persona(name) => write!(f, "persona {name}"),
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`W1xx` network/config, `X2xx` cross-layer,
    /// `A3xx`/`A4xx` campaign audit, `D5xx` dense-plane verification);
    /// every code is registered in [`crate::registry`].
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        code: &'static str,
        severity: Severity,
        location: Location,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) -> Diagnostic {
        debug_assert!(
            crate::registry::rule(code).is_some(),
            "unregistered rule code {code} — add it to registry::RULES"
        );
        Diagnostic {
            code,
            severity,
            location,
            message: message.into(),
            hint: hint.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}\n  fix: {}",
            self.severity, self.code, self.location, self.message, self.hint
        )
    }
}

/// True when any diagnostic is `Error`-level.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Sorts findings by the stable key *(family, code, location, message)*
/// and drops exact duplicates, making every lint summary byte-identical
/// regardless of rule execution order or build parallelism. Every
/// public `check_*` entry point normalizes before returning.
pub fn normalize(diags: &mut Vec<Diagnostic>) {
    diags.sort_by_cached_key(|d| {
        (
            crate::registry::family_rank(d.code),
            d.code,
            d.location.to_string(),
            d.message.clone(),
            d.severity,
        )
    });
    diags.dedup();
}

/// Renders a diagnostic list, one finding per paragraph, worst first;
/// ties break on the same stable key [`normalize`] sorts by.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_cached_key(|d| {
        (
            std::cmp::Reverse(d.severity),
            crate::registry::family_rank(d.code),
            d.code,
            d.location.to_string(),
            d.message.clone(),
        )
    });
    let mut out = String::new();
    for d in sorted {
        let _ = writeln!(out, "{d}");
    }
    let (e, w, i) = count(diags);
    let _ = writeln!(out, "{e} error(s), {w} warning(s), {i} info");
    out
}

/// Renders findings as a machine-readable JSON document:
/// `{"errors": …, "warnings": …, "infos": …, "findings": […]}` with
/// one object per finding (`code`, `family`, `severity`, `location`,
/// `message`, `hint`). Hand-rolled — the workspace deliberately takes
/// no serialization dependency.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let (e, w, i) = count(diags);
    let mut out = format!("{{\"errors\":{e},\"warnings\":{w},\"infos\":{i},\"findings\":[");
    for (n, d) in diags.iter().enumerate() {
        let family = crate::registry::rule(d.code).map_or("unknown", |r| r.family.name());
        let _ = write!(
            out,
            "{}{{\"code\":\"{}\",\"family\":\"{family}\",\"severity\":\"{}\"",
            if n > 0 { "," } else { "" },
            d.code,
            d.severity
        );
        let location = d.location.to_string();
        for (key, value) in [
            ("location", &location),
            ("message", &d.message),
            ("hint", &d.hint),
        ] {
            let _ = write!(out, ",\"{key}\":");
            let _ = text::json_str(&mut out, value);
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Counts `(errors, warnings, infos)`.
pub fn count(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut n = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => n.0 += 1,
            Severity::Warn => n.1 += 1,
            Severity::Info => n.2 += 1,
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }

    #[test]
    fn rendering_includes_code_location_and_hint() {
        let d = Diagnostic::new(
            "W101",
            Severity::Error,
            Location::Router("VP".into()),
            "host runs MPLS",
            "disable mpls on host configs",
        );
        let s = d.to_string();
        assert!(s.contains("error[W101]"));
        assert!(s.contains("router VP"));
        assert!(s.contains("fix: disable"));
        assert!(has_errors(std::slice::from_ref(&d)));
        let r = render(&[d]);
        assert!(r.ends_with("1 error(s), 0 warning(s), 0 info\n"));
    }

    #[test]
    fn normalize_is_order_insensitive_and_dedups() {
        let a = Diagnostic::new("W107", Severity::Error, Location::Network, "broken", "fix");
        let b = Diagnostic::new(
            "D501",
            Severity::Error,
            Location::Router("P1".into()),
            "csr",
            "fix",
        );
        let c = Diagnostic::new(
            "W102",
            Severity::Warn,
            Location::Router("ce".into()),
            "m",
            "h",
        );
        // Two permutations with a duplicate — as produced by different
        // `jobs` interleavings — must normalize to the same bytes.
        let mut one = vec![b.clone(), a.clone(), c.clone(), a.clone()];
        let mut two = vec![a.clone(), c.clone(), b.clone()];
        normalize(&mut one);
        normalize(&mut two);
        assert_eq!(one, two);
        // Family order (W before D), then code, regardless of severity.
        assert_eq!(
            one.iter().map(|d| d.code).collect::<Vec<_>>(),
            ["W102", "W107", "D501"]
        );
        assert_eq!(render(&one), render(&two));
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let d = Diagnostic::new(
            "W107",
            Severity::Error,
            Location::Router("a\"b".into()),
            "line1\nline2",
            "h",
        );
        let j = to_json(&[d]);
        assert!(j.starts_with("{\"errors\":1,\"warnings\":0,\"infos\":0,"));
        assert!(j.contains("router a\\\"b"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"family\":\"network\""));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn render_sorts_worst_first() {
        let info = Diagnostic::new("W110", Severity::Info, Location::Network, "i", "h");
        let err = Diagnostic::new("W107", Severity::Error, Location::Network, "e", "h");
        let r = render(&[info, err]);
        let first = r.lines().next().unwrap();
        assert!(first.starts_with("error[W107]"));
    }
}
