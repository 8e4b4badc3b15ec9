//! `wormhole-lint` — static analysis over every bundled input: the six
//! Fig. 2 testbed configurations, the two TE variants, the ten paper
//! personas, and a generated Internet at a selectable scale (including
//! the `D5xx` dense-plane verifier over its flat control-plane tables).
//! Exits non-zero when any input reaches the deny level; CI runs this
//! as the lint gate.
//!
//! ```text
//! wormhole-lint [--scale quick|paper|tenfold|thousandfold]
//!               [--format text|json]
//!               [--deny error|warn|info]
//!               [--severity CODE=LEVEL]...   # repeatable reclassification
//! wormhole-lint --explain CODE               # one rule, explained
//! wormhole-lint --rules                      # the full rule table
//! ```

use std::io::{self, BufWriter, Write};
use std::process::ExitCode;
use wormhole::experiments::{internet_config_for, Scale};
use wormhole::lint::{self, LintConfig};
use wormhole::net::PoppingMode;
use wormhole::topo::{generate, gns3_fig2, gns3_fig2_te, paper_personas, Fig2Config, Scenario};

const USAGE: &str = "usage: wormhole-lint [--scale quick|paper|tenfold|thousandfold] \
                     [--format text|json] [--deny LEVEL] [--severity CODE=LEVEL]... \
                     | --explain CODE | --rules";

enum Format {
    Text,
    Json,
}

/// Writes one input's findings (text mode).
fn report(out: &mut dyn Write, name: &str, diags: &[lint::Diagnostic]) -> io::Result<()> {
    let (e, w, i) = lint::count(diags);
    if diags.is_empty() {
        writeln!(out, "{name:<28} clean")
    } else {
        writeln!(out, "{name:<28} {e} error(s), {w} warning(s), {i} info")?;
        for d in diags {
            for line in d.to_string().lines() {
                writeln!(out, "    {line}")?;
            }
        }
        Ok(())
    }
}

fn explain(out: &mut dyn Write, code: &str) -> io::Result<ExitCode> {
    let Some(r) = lint::rule(code) else {
        eprintln!("unknown rule code '{code}' (see wormhole-lint --rules)");
        return Ok(ExitCode::FAILURE);
    };
    writeln!(out, "{} ({}, default {})", r.code, r.family, r.severity)?;
    writeln!(out, "  {}", r.summary)?;
    writeln!(out)?;
    writeln!(out, "{}", r.explanation)?;
    Ok(ExitCode::SUCCESS)
}

/// Runs `body` over a buffered stdout and flushes it. A stdout that
/// fails (a closed pipe, a full disk) ends the command with one line on
/// stderr and a failure exit.
fn printing(body: impl FnOnce(&mut dyn Write) -> io::Result<ExitCode>) -> ExitCode {
    let mut out = BufWriter::new(io::stdout().lock());
    match body(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wormhole-lint: writing to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LintConfig::default();
    let mut scale = Scale::Quick;
    let mut format = Format::Text;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rules" => {
                return printing(|out| {
                    write!(out, "{}", lint::markdown_table())?;
                    Ok(ExitCode::SUCCESS)
                });
            }
            "--explain" => {
                let Some(code) = it.next() else {
                    eprintln!("--explain needs a rule code");
                    return ExitCode::FAILURE;
                };
                return printing(|out| explain(out, code));
            }
            "--scale" => match it.next().map(|s| (s, Scale::parse(s))) {
                Some((_, Some(s))) => scale = s,
                other => {
                    eprintln!("bad --scale {:?}\n{USAGE}", other.map(|(s, _)| s));
                    return ExitCode::FAILURE;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("bad --format {other:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--deny" => match it.next().map(String::as_str).and_then(lint::parse_severity) {
                Some(level) => cfg.deny = level,
                None => {
                    eprintln!("bad --deny level\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--severity" => {
                let Some(spec) = it.next() else {
                    eprintln!("--severity needs CODE=LEVEL");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = cfg.add_override(spec) {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let scenarios: Vec<(String, Scenario)> = Fig2Config::ALL
        .into_iter()
        .map(|c| (format!("fig2/{}", c.name()), gns3_fig2(c)))
        .chain([
            (
                "fig2-te/php".to_string(),
                gns3_fig2_te(PoppingMode::Php, false),
            ),
            (
                "fig2-te/uhp".to_string(),
                gns3_fig2_te(PoppingMode::Uhp, false),
            ),
        ])
        .collect();

    // (input name, findings with overrides applied)
    let mut runs: Vec<(String, Vec<lint::Diagnostic>)> = Vec::new();
    for (name, s) in &scenarios {
        runs.push((name.clone(), lint::check_scenario(s)));
    }
    for p in paper_personas() {
        runs.push((format!("persona/{}", p.name), lint::check_persona(&p)));
    }
    let diags = lint::check_internet(&generate(&internet_config_for(scale, 8)));
    runs.push((format!("internet/{}", scale.name()), diags));

    let mut failed = false;
    for (_, diags) in &mut runs {
        cfg.apply(diags);
        failed |= cfg.fails(diags);
    }

    let code = if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    };
    printing(|out| {
        match format {
            Format::Text => {
                for (name, diags) in &runs {
                    report(out, name, diags)?;
                }
                if failed {
                    eprintln!("lint failed: diagnostics at or above the deny level");
                } else {
                    writeln!(out, "all inputs lint clean at the deny level")?;
                }
            }
            Format::Json => {
                // One aggregated, normalized document across every
                // input — the artifact CI archives.
                let mut all: Vec<lint::Diagnostic> =
                    runs.into_iter().flat_map(|(_, d)| d).collect();
                lint::normalize(&mut all);
                writeln!(out, "{}", lint::to_json(&all))?;
            }
        }
        Ok(code)
    })
}
