//! The two workloads. Each one sets up many times (reporting the
//! median set-up time), runs timed operations in closed loops for the
//! run's measuring time, checking every output, and hands what it
//! observed on the run's own seed to the per-layer panel when the run
//! is traced.
//!
//! A tenfold Internet is small enough that its shape moves campaign
//! cost by ±20% from one seed to the next, so each run covers
//! [`TENFOLD_SUBSTRATES`] Internets: the `--seed` one first, then seeds
//! derived from it. It visits them round-robin in [`ROUNDS`] rounds,
//! each visit with its own cold set-up (a fresh server, a fresh
//! `internet_for`), so every Internet's samples span the whole run and
//! a slow spell of the shared machine hits them all alike.

use crate::layers::{Observed, ServeObs, Shape};
use crate::pace::Pace;
use crate::serve::{campaign_request, u64_field, ServeProc};
use crate::spans;
use crate::util::{check, median, p90, quantile, vm_hwm_mb, Metrics, Ops};
use crate::Ctx;
use std::time::Instant;
use wormhole_core::Scheduling;
use wormhole_experiments::{campaign_over, Scale};
use wormhole_net::FaultScenario;
use wormhole_probe::NullSink;
use wormhole_serve::proto::str_field;

/// Internets per run.
pub const TENFOLD_SUBSTRATES: usize = 8;

/// Visits to each Internet per run; `setup_s` is the median of all
/// `TENFOLD_SUBSTRATES * ROUNDS` cold set-ups.
pub const ROUNDS: usize = 4;

/// The Internet seeds a run covers: `seed` itself, then
/// SplitMix64-derived seeds, so runs on different seeds share none.
fn substrate_seeds(seed: u64) -> Vec<u64> {
    (0..TENFOLD_SUBSTRATES as u64)
        .map(|j| {
            if j == 0 {
                return seed;
            }
            let mut z = seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % 1_000_000
        })
        .collect()
}

/// Timed operations, split by whether span recording was on. Untraced
/// runs record every operation untraced; traced runs alternate, so
/// machine drift during the run hits both halves alike.
#[derive(Default)]
pub struct Samples {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Samples {
    fn push(&mut self, traced: bool, ms: f64) {
        if traced {
            self.traced.push(ms);
        } else {
            self.untraced.push(ms);
        }
    }

    fn extend(&mut self, other: &Samples) {
        self.untraced.extend_from_slice(&other.untraced);
        self.traced.extend_from_slice(&other.traced);
    }
}

/// Runs operations until `seconds` are used up and at least `min`
/// untraced samples exist.
fn closed_loop(
    ctx: &Ctx,
    seconds: f64,
    min: usize,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Samples, String> {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut i = 0;
    while s.untraced.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let traced = ctx.trace && i % 2 == 1;
        spans::set_enabled(traced);
        spans::new_op();
        let ms = op(i)?;
        s.push(traced, ms);
        i += 1;
    }
    spans::set_enabled(ctx.trace);
    Ok(s)
}

/// The decile every gated campaign timing is read at. On a shared
/// machine campaign times are bimodal: a neighbour sharing the
/// physical core or its caches slows a cache-resident tenfold campaign
/// from ~23 ms to ~35 ms for seconds at a time, and the fastest decile,
/// what the code achieves when the machine lets it, rides out those
/// spells better than the median.
const GATED_QUANTILE: f64 = 0.1;

/// Per substrate: the gated campaign time and probes per second.
struct PerSubstrate {
    p10_ms: f64,
    probes_per_s: f64,
}

impl PerSubstrate {
    fn of(seed: u64, probes: u64, samples: &Samples) -> PerSubstrate {
        let p10_ms = quantile(&samples.untraced, GATED_QUANTILE);
        eprintln!(
            "perfbench: seed {seed}: {probes} probes per campaign, p10 {p10_ms:.3} ms, \
             p50 {:.3} ms over {} samples",
            median(&samples.untraced),
            samples.untraced.len()
        );
        PerSubstrate {
            p10_ms,
            probes_per_s: probes as f64 / (p10_ms / 1e3),
        }
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    sum / n as f64
}

/// A run's end-to-end figures, as measured and at the nominal pace.
struct Figures {
    /// Median set-up time, s.
    setup_s: f64,
    /// Probes per campaign over each substrate's fastest-decile
    /// campaign time, averaged over the run's substrates.
    probes_per_s: f64,
    /// That fastest-decile campaign time, averaged likewise, ms.
    p10_ms: f64,
    /// Largest VmHWM of the processes doing the work, MB.
    peak_mb: f64,
    /// Median chase time of the run, ms.
    pace_ms: f64,
    slowdown: f64,
}

impl Figures {
    fn of(
        setups: &[f64],
        samples: &Samples,
        per: &[PerSubstrate],
        peak_mb: f64,
        pace: &Pace,
    ) -> Figures {
        let f = Figures {
            setup_s: median(setups),
            probes_per_s: mean(per.iter().map(|p| p.probes_per_s)),
            p10_ms: mean(per.iter().map(|p| p.p10_ms)),
            peak_mb,
            pace_ms: pace.ms(),
            slowdown: pace.slowdown(),
        };
        let all = &samples.untraced;
        eprintln!(
            "perfbench: setup_s median of {} set-ups (range {:.3}-{:.3} s), campaign p10 \
             {:.3} ms over {} substrates, {:.0} probes/s; all {} samples: p50 {:.3} ms, \
             p90 {}; pace {:.3} ms ({:.3}x nominal); hypervisor steal {:.1}% of CPU time",
            setups.len(),
            quantile(setups, 0.0),
            quantile(setups, 1.0),
            f.p10_ms,
            per.len(),
            f.probes_per_s,
            all.len(),
            median(all),
            p90(all).map_or("n/a (fewer than 100 samples)".into(), |p| format!(
                "{p:.3} ms"
            )),
            f.pace_ms,
            f.slowdown,
            crate::util::steal_share() * 100.0
        );
        f
    }

    /// The gated metrics: set-up time and throughput at the nominal
    /// pace, and the memory high-water mark.
    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s / self.slowdown, "s");
        m.put("probes_per_s", self.probes_per_s * self.slowdown, "1/s");
        m.put("peak_rss_mb", self.peak_mb, "MB");
        m
    }

    /// The same figures as measured, for the traced run's panel.
    fn per_layer(&self, m: &mut Metrics) {
        m.put("e2e.setup_s.raw", self.setup_s, "s");
        m.put("e2e.probes_per_s.raw", self.probes_per_s, "1/s");
        m.put("e2e.campaign_ms.p10", self.p10_ms, "ms");
        m.put("pace.chase_ms", self.pace_ms, "ms");
    }
}

/// What every serve reply on one Internet must match: the in-process
/// `campaign_over` run of the same configuration.
struct Reference {
    seed: u64,
    probes: u64,
    checksum: u64,
    traces: usize,
    report: String,
}

/// Checks one streamed serve reply against the in-process reference.
fn check_reply(reply: &crate::serve::Reply, reference: &Reference) -> Vec<String> {
    let mut errs = Vec::new();
    let last = &reply.last;
    check(&mut errs, last.starts_with("{\"type\":\"report\""), || {
        format!("terminal frame is not a report: {:.200}", last)
    });
    let report = str_field(last, "report").unwrap_or_default();
    check(&mut errs, report == reference.report, || {
        format!(
            "serve report ({} bytes) differs from the in-process report ({} bytes)",
            report.len(),
            reference.report.len()
        )
    });
    check(
        &mut errs,
        u64_field(last, "probes") == Some(reference.probes),
        || {
            format!(
                "probes {:?} != {}",
                u64_field(last, "probes"),
                reference.probes
            )
        },
    );
    check(
        &mut errs,
        u64_field(last, "snapshot_checksum") == Some(reference.checksum),
        || "snapshot_checksum differs from the in-process run".into(),
    );
    check(&mut errs, reply.trace_frames == reference.traces, || {
        format!(
            "{} trace frames for {} traces",
            reply.trace_frames, reference.traces
        )
    });
    check(
        &mut errs,
        u64_field(last, "traces") == Some(reference.traces as u64),
        || "report frame trace count differs".into(),
    );
    errs
}

/// `serve-tenfold`: per visit to a substrate, a fresh resident server
/// answering streamed hostile stealing campaigns on one client
/// connection, in a closed loop; at least 100 requests per run.
pub fn serve_tenfold(ctx: &Ctx, ops: &mut Ops) -> Result<Metrics, String> {
    let shape = Shape {
        scale: Scale::Tenfold,
        faults: FaultScenario::Hostile,
        scheduling: Scheduling::Stealing,
    };
    let req = campaign_request("tenfold", "hostile", "stealing");
    let seeds = substrate_seeds(ctx.seed);
    // The in-process references every serve report must match byte for
    // byte, built before anything is timed. Only the run's own Internet
    // and campaign are kept, for the panel.
    let mut own = None;
    let mut refs = Vec::new();
    for (k, &seed) in seeds.iter().enumerate() {
        let internet = spans::timed("experiments.internet_for", || {
            wormhole_experiments::internet_for(shape.scale, seed)
        });
        let result = campaign_over(&internet, &shape.cfg(), &mut NullSink);
        refs.push(Reference {
            seed,
            probes: result.probes,
            checksum: result.snapshot_checksum,
            traces: result.traces.len(),
            report: result.report().text().to_string(),
        });
        if k == 0 {
            own = Some((internet, result));
        }
    }

    let visits = seeds.len() * ROUNDS;
    let share = ctx.seconds / visits as f64;
    let mut setups = Vec::new();
    let mut samples: Vec<Samples> = seeds.iter().map(|_| Samples::default()).collect();
    let mut peak_mb: f64 = 0.0;
    let mut serve = ServeObs {
        first_frame_ms: Vec::new(),
        frames_per_request: 0.0,
        bytes_per_request: 0.0,
        one_request: Vec::new(),
    };
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    let mut pace = Pace::new();
    for round in 0..ROUNDS {
        for (k, reference) in refs.iter().enumerate() {
            pace.sample();
            spans::new_op();
            let dir = ctx.run.sub(&format!("serve-{k}"));
            let setup = spans::span("setup.serve");
            let t0 = Instant::now();
            let mut srv = ServeProc::launch(&ctx.bins, &dir, reference.seed)
                .map_err(|e| format!("launching wormhole-serve: {e}"))?;
            let mut ready = 0.0;
            let reply = srv
                .campaign(&req, false, || ready = t0.elapsed().as_secs_f64())
                .map_err(|e| format!("cold request: {e}"))?;
            drop(setup);
            setups.push(ready);
            let mut errs = check_reply(&reply, reference);
            check(&mut errs, !reply.warm, || {
                "the first request found a warm substrate".into()
            });
            ops.record("cold serve request", errs);

            let keep = k == 0 && round == 0;
            let s = closed_loop(ctx, share, 100usize.div_ceil(visits), |i| {
                let reply = srv
                    .campaign(&req, keep && i == 0, || {})
                    .map_err(|e| format!("request {i}: {e}"))?;
                let _g = spans::span("check");
                let mut errs = check_reply(&reply, reference);
                check(&mut errs, reply.warm, || {
                    "a later request rebuilt the substrate".into()
                });
                ops.record("serve request", errs);
                if k == 0 {
                    serve.first_frame_ms.push(reply.first_frame_ms);
                    frames.push(reply.frames as f64);
                    bytes.push(reply.bytes as f64);
                }
                if keep && i == 0 {
                    serve.one_request = reply.kept;
                }
                Ok(reply.total_ms)
            })?;
            peak_mb = peak_mb.max(srv.hwm_mb());
            let r = srv.shutdown();
            ops.record("server shutdown", r.err().into_iter().collect());
            samples[k].extend(&s);
        }
    }
    let per: Vec<PerSubstrate> = refs
        .iter()
        .zip(&samples)
        .map(|(r, s)| PerSubstrate::of(r.seed, r.probes, s))
        .collect();
    let mut all = Samples::default();
    for s in &samples {
        all.extend(s);
    }
    let fig = Figures::of(&setups, &all, &per, peak_mb, &pace);
    if !ctx.trace {
        return Ok(fig.end_to_end());
    }
    serve.frames_per_request = median(&frames);
    serve.bytes_per_request = median(&bytes);
    let (internet, result) = own.ok_or("no substrate")?;
    let obs = Observed {
        shape,
        internet: &internet,
        result: &result,
        report: &refs[0].report,
        samples: &all,
        serve: Some(serve),
    };
    let mut m = crate::layers::panel(ctx, ops, &obs);
    fig.per_layer(&mut m);
    Ok(m)
}

/// `campaign-tenfold`: the library batch path, default scheduler, one
/// job, clean plan. Each visit to a substrate builds it afresh with
/// `internet_for` (the set-up), then runs `campaign_over` +
/// `CampaignResult::report()` in a closed loop.
pub fn campaign_tenfold(ctx: &Ctx, ops: &mut Ops) -> Result<Metrics, String> {
    let shape = Shape {
        scale: Scale::Tenfold,
        faults: FaultScenario::Clean,
        scheduling: Scheduling::VpBatches,
    };
    let cfg = shape.cfg();
    let seeds = substrate_seeds(ctx.seed);
    let visits = seeds.len() * ROUNDS;
    let share = ctx.seconds / visits as f64;
    let mut pace = Pace::new();
    let mut setups = Vec::new();
    let mut samples: Vec<Samples> = seeds.iter().map(|_| Samples::default()).collect();
    // Per substrate: the first report, which every later campaign on
    // it (later visits' rebuilt substrates included) must equal.
    let mut firsts: Vec<Option<String>> = vec![None; seeds.len()];
    let mut probes = vec![0; seeds.len()];
    let mut own = None;
    for _ in 0..ROUNDS {
        for (k, &seed) in seeds.iter().enumerate() {
            pace.sample();
            spans::new_op();
            let setup = spans::span("setup.internet_for");
            let t0 = Instant::now();
            let internet = wormhole_experiments::internet_for(shape.scale, seed);
            setups.push(t0.elapsed().as_secs_f64());
            drop(setup);
            let mut last = None;
            let s = closed_loop(ctx, share, 100usize.div_ceil(visits), |i| {
                let t0 = Instant::now();
                let result = spans::timed("experiments.campaign_over", || {
                    campaign_over(&internet, &cfg, &mut NullSink)
                });
                let report = spans::timed("core.report", || result.report().text().to_string());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let _g = spans::span("check");
                let mut errs = Vec::new();
                match &firsts[k] {
                    Some(want) => check(&mut errs, &report == want, || {
                        format!("substrate {seed}: campaign {i} report differs from the first")
                    }),
                    None => firsts[k] = Some(report.clone()),
                }
                check(&mut errs, result.engine_stats.heap_allocs == 0, || {
                    format!("heap_allocs {}", result.engine_stats.heap_allocs)
                });
                check(&mut errs, result.degraded_shards.is_empty(), || {
                    format!("{} degraded shards", result.degraded_shards.len())
                });
                ops.record("campaign", errs);
                probes[k] = result.probes;
                last = Some((result, report));
                Ok(ms)
            })?;
            samples[k].extend(&s);
            if k == 0 {
                own = Some((internet, last.ok_or("no campaign ran")?));
            }
        }
    }
    let per: Vec<PerSubstrate> = seeds
        .iter()
        .zip(&samples)
        .zip(&probes)
        .map(|((&seed, s), &p)| PerSubstrate::of(seed, p, s))
        .collect();
    let mut all = Samples::default();
    for s in &samples {
        all.extend(s);
    }
    let fig = Figures::of(&setups, &all, &per, vm_hwm_mb("self"), &pace);
    if !ctx.trace {
        return Ok(fig.end_to_end());
    }
    let (internet, (result, report)) = own.ok_or("no substrate")?;
    let obs = Observed {
        shape,
        internet: &internet,
        result: &result,
        report: &report,
        samples: &all,
        serve: None,
    };
    let mut m = crate::layers::panel(ctx, ops, &obs);
    fig.per_layer(&mut m);
    Ok(m)
}
