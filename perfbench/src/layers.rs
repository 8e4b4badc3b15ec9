//! The per-layer panel of a traced run: times the public calls into
//! each layer from the benchmark's own files, over the workload's own
//! substrate, campaign and configuration, and reads the counts those
//! calls return. Every metric is measured on every workload; README.md
//! names the workload and end-to-end metric each one is meant to move.

use crate::serve::{campaign_request, ServeProc};
use crate::spans;
use crate::util::{check, median, Metrics, Ops};
use crate::workloads::Samples;
use crate::Ctx;
use std::collections::HashSet;
use std::io::Cursor;
use std::time::Instant;
use wormhole_core::{
    reveal_between, Campaign, CampaignConfig, CampaignResult, DistSummary, DistributedOpts,
    Scheduling,
};
use wormhole_experiments::{
    campaign_config_for, campaign_over, internet_config_for, resolve_worker_substrate, Scale,
};
use wormhole_net::wire::{from_bytes, to_bytes};
use wormhole_net::{ControlPlane, Engine, FaultScenario, Packet, ProbeState, SubstrateRef};
use wormhole_probe::{trace_jsonl, NullSink, Session, Trace};
use wormhole_serve::proto::{read_frame, str_field, write_frame};
use wormhole_topo::{cache_file, config_checksum, generate, generate_cached, CacheStatus};
use wormhole_topo::{Internet, ItdkBuilder, NodeInfo};

/// A workload's campaign configuration.
#[derive(Clone, Copy)]
pub struct Shape {
    pub scale: Scale,
    pub faults: FaultScenario,
    pub scheduling: Scheduling,
}

impl Shape {
    pub fn cfg(&self) -> CampaignConfig {
        campaign_config_for(self.scale, 1, self.faults, self.scheduling)
    }

    fn scheduling_name(&self) -> &'static str {
        match self.scheduling {
            Scheduling::Stealing => "stealing",
            Scheduling::VpBatches => "batches",
        }
    }

    /// The same campaign under the stealing scheduler, the only one the
    /// distributed executor runs.
    fn stealing(&self) -> CampaignConfig {
        campaign_config_for(self.scale, 1, self.faults, Scheduling::Stealing)
    }
}

/// What the serve workload's own loop observed.
pub struct ServeObs {
    pub first_frame_ms: Vec<f64>,
    pub frames_per_request: f64,
    pub bytes_per_request: f64,
    pub one_request: Vec<String>,
}

/// Everything a workload hands to the panel.
pub struct Observed<'a> {
    pub shape: Shape,
    pub internet: &'a Internet,
    /// One in-process campaign over the workload's configuration.
    pub result: &'a CampaignResult,
    pub report: &'a str,
    pub samples: &'a Samples,
    pub serve: Option<ServeObs>,
}

/// Runs `f` under a span named `name`, returning its value and wall ms.
fn timed_ms<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = spans::span(name);
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64() * 1e3)
}

pub fn panel(ctx: &Ctx, ops: &mut Ops, obs: &Observed) -> Metrics {
    spans::set_enabled(true);
    spans::new_op();
    let _panel = spans::span("panel");
    let mut m = Metrics::default();
    let inet = obs.internet;
    let shape = obs.shape;
    let net_cfg = internet_config_for(shape.scale, ctx.seed);

    // topo + net: substrate build, control plane, lint.
    let (regen, ms) = timed_ms("topo.generate", || generate(&net_cfg));
    m.put("topo.generate_s", ms / 1e3, "s");
    drop(regen);
    let (plane, ms) = timed_ms("net.ControlPlane::build", || ControlPlane::build(&inet.net));
    m.put("net.control_plane_build_s", ms / 1e3, "s");
    ops.record(
        "control plane build",
        plane.err().map(|e| e.to_string()).into_iter().collect(),
    );
    let (diags, ms) = timed_ms("lint.check_internet", || {
        wormhole_lint::check_internet(inet)
    });
    m.put("lint.check_internet_s", ms / 1e3, "s");
    ops.record(
        "lint",
        (wormhole_lint::has_errors(&diags))
            .then(|| "the generated Internet has lint errors".to_string())
            .into_iter()
            .collect(),
    );

    cache_layer(ctx, ops, obs, &mut m);
    itdk_layer(inet, obs.result, &mut m);
    walk_layer(ctx, ops, obs, &mut m);
    wire_layer(ops, obs.result, &mut m);
    probe_layer(ctx, obs, &mut m);
    core_layer(ctx, obs, &mut m);
    dist_layer(ctx, ops, obs, &mut m);
    serve_layer(ctx, ops, obs, &mut m);

    let traced = median(&obs.samples.traced);
    let untraced = median(&obs.samples.untraced);
    m.put("trace.overhead_share", traced / untraced - 1.0, "ratio");
    m.put("e2e.samples", obs.samples.untraced.len() as f64, "samples");
    m.put("e2e.campaign_ms.p50", untraced, "ms");
    eprintln!(
        "perfbench: traced op p50 {traced:.3} ms vs untraced {untraced:.3} ms; {} spans",
        spans::count()
    );
    m
}

/// `generate_cached` warm restores, the cache file size, and the
/// worker-side substrate resolution through the same cache.
fn cache_layer(ctx: &Ctx, ops: &mut Ops, obs: &Observed, m: &mut Metrics) {
    let net_cfg = internet_config_for(obs.shape.scale, ctx.seed);
    let dir = ctx.run.sub("panel-cache");
    let cold = spans::timed("topo.generate_cached.cold", || {
        generate_cached(&net_cfg, &dir)
    });
    let mut errs = Vec::new();
    check(
        &mut errs,
        matches!(cold, Ok((_, CacheStatus::Cold))),
        || "the panel cache did not build cold".into(),
    );
    ops.record("panel cache build", errs);
    drop(cold);
    let (path, checksum) = (cache_file(&dir, &net_cfg), config_checksum(&net_cfg));
    let mut restores = Vec::new();
    for _ in 0..3 {
        let (r, ms) = timed_ms("topo.generate_cached.warm", || {
            generate_cached(&net_cfg, &dir)
        });
        let mut errs = Vec::new();
        check(&mut errs, matches!(r, Ok((_, CacheStatus::Warm))), || {
            "a warm restore rebuilt the substrate".into()
        });
        ops.record("warm cache restore", errs);
        restores.push(ms);
    }
    m.put("topo.cache_restore_ms", median(&restores), "ms");
    let bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
    m.put("topo.cache_mb", bytes as f64 / 1e6, "MB");
    let token = format!("{}:{}", obs.shape.scale.name(), ctx.seed);
    let (r, ms) = timed_ms("experiments.resolve_worker_substrate", || {
        resolve_worker_substrate(&token, Some((&path, checksum)))
    });
    m.put("dist.worker_resolve_ms", ms, "ms");
    let mut errs = Vec::new();
    match r {
        Ok(w) => check(&mut errs, w.cache_checksum == Some(checksum), || {
            "worker resolved a different cache checksum".into()
        }),
        Err(e) => errs.push(e),
    }
    ops.record("worker substrate resolve", errs);
}

/// `ItdkBuilder::ingest` + `finish` over the campaign's merged traces.
fn itdk_layer(inet: &Internet, result: &CampaignResult, m: &mut Metrics) {
    let resolve = |a| match inet.net.owner(a) {
        Some(r) => NodeInfo {
            key: u64::from(r.0),
            asn: Some(inet.net.router(r).asn),
        },
        None => NodeInfo {
            key: 0xFFFF_0000_0000_0000 | u64::from(a.0),
            asn: None,
        },
    };
    let (paths, ms) = timed_ms("topo.ItdkBuilder", || {
        let mut b = ItdkBuilder::new();
        for t in &result.traces {
            b.ingest(&t.addr_path(), resolve);
        }
        let n = b.ingested();
        drop(b.finish());
        n
    });
    m.put("topo.itdk_ingest_ms", ms, "ms");
    m.put("topo.itdk_paths", paths as f64, "count");
}

/// `Engine::send` and `Engine::send_batch` over one probe list: six
/// TTLs towards every router loopback from the first vantage point,
/// under the workload's fault plan.
fn walk_layer(ctx: &Ctx, ops: &mut Ops, obs: &Observed, m: &mut Metrics) {
    let inet = obs.internet;
    let plan = obs.shape.cfg().faults;
    let vp = inet.vps[0];
    let src = inet.net.router(vp).loopback;
    let mut pkts = Vec::new();
    for (i, r) in inet.net.routers().iter().enumerate() {
        for (k, ttl) in [1u8, 2, 4, 8, 16, 64].into_iter().enumerate() {
            let n = i * 6 + k;
            pkts.push(Packet::echo_request(
                src,
                r.loopback,
                ttl,
                n as u16,
                (n >> 16) as u16,
                n as u16,
            ));
        }
    }
    let sweep = |batched: bool| {
        let mut eng = Engine::with_faults(&inet.net, &inet.cp, plan.clone(), ctx.seed);
        eng.set_record_paths(false);
        let mut out = Vec::with_capacity(1024);
        let t0 = Instant::now();
        if batched {
            for chunk in pkts.chunks(1024) {
                out.clear();
                eng.send_batch(vp, chunk, &mut out);
            }
        } else {
            for &p in &pkts {
                let _ = eng.send(vp, p);
            }
        }
        (t0.elapsed().as_secs_f64(), eng.stats().clone())
    };
    let mut stats = Vec::new();
    for (batched, name, span) in [
        (false, "net.walk_pps.scalar", "net.Engine::send"),
        (true, "net.walk_pps.batched", "net.Engine::send_batch"),
    ] {
        let _g = spans::span(span);
        let mut secs = Vec::new();
        let t0 = Instant::now();
        while secs.len() < 3 || t0.elapsed().as_secs_f64() < 0.3 {
            let (s, st) = sweep(batched);
            secs.push(s);
            if secs.len() == 1 {
                stats.push(st);
            }
        }
        m.put(name, pkts.len() as f64 / median(&secs), "1/s");
    }
    let (scalar, batched) = (&stats[0], &stats[1]);
    let mut errs = Vec::new();
    check(
        &mut errs,
        scalar.probes == batched.probes
            && scalar.crossings == batched.crossings
            && scalar.lost == batched.lost,
        || "batched walk counters differ from the scalar walk".into(),
    );
    ops.record("engine walks", errs);
    let probes = scalar.probes.max(1) as f64;
    m.put(
        "net.crossings_per_probe",
        scalar.crossings as f64 / probes,
        "ratio",
    );
    m.put("net.lost_share", scalar.lost as f64 / probes, "ratio");
    m.put(
        "net.heap_allocs",
        (scalar.heap_allocs + batched.heap_allocs) as f64,
        "count",
    );
    eprintln!(
        "perfbench: walk over {} routers: scalar {:.0} pps, batched {:.0} pps",
        inet.net.num_routers(),
        m.get("net.walk_pps.scalar").unwrap_or(0.0),
        m.get("net.walk_pps.batched").unwrap_or(0.0)
    );
}

/// `wire::to_bytes` / `from_bytes` of the campaign's traces.
fn wire_layer(ops: &mut Ops, result: &CampaignResult, m: &mut Metrics) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut bytes = Vec::new();
    let mut errs = Vec::new();
    for _ in 0..3 {
        let (b, ms) = timed_ms("net.wire::to_bytes", || to_bytes(&result.traces));
        enc.push(ms);
        let (back, ms) = timed_ms("net.wire::from_bytes", || from_bytes::<Vec<Trace>>(&b));
        dec.push(ms);
        match back {
            Ok(traces) => check(&mut errs, to_bytes(&traces) == b, || {
                "decoded traces re-encode differently".into()
            }),
            Err(e) => errs.push(format!("decoding the campaign's traces: {e:?}")),
        }
        bytes = b;
    }
    ops.record("wire round trip", errs);
    m.put("net.wire_encode_ms", median(&enc), "ms");
    m.put("net.wire_decode_ms", median(&dec), "ms");
    m.put("net.wire_mb", bytes.len() as f64 / 1e6, "MB");
}

/// A fresh session at vantage point `vp` under the workload's fault
/// plan and traceroute options, its fault randomness keyed by `key` —
/// one hermetic session per replayed call, as the stealing executor
/// runs each task, so no rate-limiter state leaks between calls.
fn session<'a>(ctx: &Ctx, obs: &'a Observed, vp: usize, key: usize) -> Session<'a> {
    let inet = obs.internet;
    let cfg = obs.shape.cfg();
    let seed = ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key as u64;
    let mut s = Session::over(
        SubstrateRef::new(&inet.net, &inet.cp),
        inet.vps[vp],
        ProbeState::new(cfg.faults, seed),
    );
    s.set_opts(cfg.trace_opts);
    s
}

/// `Session::traceroute` replay of the campaign's traces, `Session::ping`
/// of every address they discovered, and `trace_jsonl` rendering.
fn probe_layer(ctx: &Ctx, obs: &Observed, m: &mut Metrics) {
    let result = obs.result;
    let mut us = Vec::with_capacity(result.traces.len());
    let mut probes = 0;
    {
        let _g = spans::span("probe.replay_traceroutes");
        for (i, (t, &vp)) in result.traces.iter().zip(&result.trace_vps).enumerate() {
            let mut sess = session(ctx, obs, vp, i);
            let (_, ms) = timed_ms("probe.Session::traceroute", || sess.traceroute(t.dst));
            us.push(ms * 1e3);
            probes += sess.stats.probes;
        }
    }
    m.put("probe.traceroute_us.p50", median(&us), "us");
    m.put("probe.traces", us.len() as f64, "count");
    m.put(
        "probe.probes_per_trace",
        probes as f64 / us.len().max(1) as f64,
        "ratio",
    );

    let mut seen = HashSet::new();
    let mut targets = Vec::new();
    for (t, &vp) in result.traces.iter().zip(&result.trace_vps) {
        for a in t.hops.iter().filter_map(|h| h.addr) {
            if seen.insert(a) {
                targets.push((vp, a));
            }
        }
    }
    let mut us = Vec::with_capacity(targets.len());
    {
        let _g = spans::span("probe.replay_pings");
        for (i, &(vp, a)) in targets.iter().enumerate() {
            let mut sess = session(ctx, obs, vp, i);
            let (_, ms) = timed_ms("probe.Session::ping", || sess.ping(a));
            us.push(ms * 1e3);
        }
    }
    m.put("probe.ping_us.p50", median(&us), "us");
    m.put("probe.pings", us.len() as f64, "count");

    let mut per = Vec::new();
    for _ in 0..3 {
        let (_, ms) = timed_ms("probe.trace_jsonl", || {
            result
                .traces
                .iter()
                .zip(&result.trace_vps)
                .map(|(t, &vp)| trace_jsonl(vp, t).len())
                .sum::<usize>()
        });
        per.push(ms * 1e3 / result.traces.len().max(1) as f64);
    }
    m.put("probe.jsonl_us_per_trace", median(&per), "us");
}

/// The campaign's own phase timings, report rendering, and a
/// `reveal_between` replay over the unique candidate pairs.
fn core_layer(ctx: &Ctx, obs: &Observed, m: &mut Metrics) {
    let r = obs.result;
    m.put("core.probe_ms", r.timings.probe_seconds * 1e3, "ms");
    m.put("core.merge_ms", r.timings.merge_seconds * 1e3, "ms");
    m.put("core.analysis_ms", r.timings.analysis_seconds * 1e3, "ms");
    let mut rep = Vec::new();
    for _ in 0..3 {
        rep.push(timed_ms("core.CampaignResult::report", || r.report()).1);
    }
    m.put("core.report_ms", median(&rep), "ms");
    m.put(
        "core.degraded_shards",
        r.degraded_shards.len() as f64,
        "count",
    );
    let tunnels = r.tunnels().count();
    m.put("core.tunnels_revealed", tunnels as f64, "count");
    m.put(
        "core.probes_per_tunnel",
        r.probes as f64 / tunnels.max(1) as f64,
        "probes",
    );

    let mut pairs = HashSet::new();
    let reveal = obs.shape.cfg().reveal;
    let mut ms_each = Vec::new();
    let mut revealed = 0usize;
    {
        let _g = spans::span("core.replay_reveals");
        for (i, c) in r.candidates.iter().enumerate() {
            if !pairs.insert((c.ingress, c.egress)) {
                continue;
            }
            let mut sess = session(ctx, obs, c.vp_index, i);
            let (out, ms) = timed_ms("core.reveal_between", || {
                reveal_between(&mut sess, c.ingress, c.egress, c.target, &reveal)
            });
            revealed += usize::from(out.tunnel().is_some());
            ms_each.push(ms);
        }
    }
    m.put("core.reveal_ms.p50", median(&ms_each), "ms");
    m.put("core.reveal_pairs", ms_each.len() as f64, "count");
    m.put(
        "core.reveal_useful_share",
        revealed as f64 / ms_each.len().max(1) as f64,
        "ratio",
    );
}

/// Worker spawn cost, distributed-vs-in-process overhead and shard
/// accounting, from one distributed campaign over the panel's cache.
fn dist_layer(ctx: &Ctx, ops: &mut Ops, obs: &Observed, m: &mut Metrics) {
    let cli = ctx.bins.join("wormhole-cli");
    let missing = ctx.run.path.join("no-such.spec");
    let mut spawn = Vec::new();
    for _ in 0..5 {
        let (out, ms) = timed_ms("dist.worker_spawn", || {
            std::process::Command::new(&cli)
                .arg("campaign-worker")
                .arg("--shard-spec")
                .arg(&missing)
                .stdin(std::process::Stdio::null())
                .output()
        });
        spawn.push(ms);
        let mut errs = Vec::new();
        match out {
            Ok(o) => check(
                &mut errs,
                !o.status.success()
                    && String::from_utf8_lossy(&o.stderr).starts_with("campaign-worker: "),
                || "a worker given a missing spec did not fail with its typed error".into(),
            ),
            Err(e) => errs.push(format!("spawning wormhole-cli: {e}")),
        }
        ops.record("worker spawn", errs);
    }
    m.put("dist.worker_spawn_ms", median(&spawn), "ms");

    let inet = obs.internet;
    let cfg = obs.shape.stealing();
    let mut inproc = Vec::new();
    let mut inproc_report = String::new();
    for _ in 0..3 {
        let (r, ms) = timed_ms("dist.in_process_stealing", || {
            let r = campaign_over(inet, &cfg, &mut NullSink);
            r.report().text().to_string()
        });
        inproc.push(ms);
        inproc_report = r;
    }
    let net_cfg = internet_config_for(obs.shape.scale, ctx.seed);
    let checksum = config_checksum(&net_cfg);
    let dir = ctx.run.path.join("panel-cache");
    let opts = DistributedOpts {
        workers: ctx.cap,
        worker_cmd: vec![cli.to_string_lossy().into_owned()],
        substrate_token: format!("{}:{}", obs.shape.scale.name(), ctx.seed),
        work_dir: ctx.run.sub("panel-work"),
        cache: Some((cache_file(&dir, &net_cfg), checksum)),
        keep_files: false,
        chaos_abort_worker: None,
    };
    let campaign = Campaign::new(&inet.net, &inet.cp, inet.vps.clone(), cfg.clone());
    let (r, dist_ms) = timed_ms("dist.run_distributed", || {
        campaign
            .run_distributed(&mut NullSink, &opts)
            .map(|r| (r.report().text().to_string(), r.dist.unwrap_or_default()))
    });
    let mut errs = Vec::new();
    let summary = match r {
        Ok((report, summary)) => {
            check(&mut errs, report == inproc_report, || {
                "distributed report differs from the in-process stealing report".into()
            });
            check_shards(&mut errs, &summary, checksum);
            summary
        }
        Err(e) => {
            errs.push(format!("distributed campaign: {e}"));
            DistSummary::default()
        }
    };
    ops.record("panel distributed campaign", errs);
    m.put("dist.overhead_ms", dist_ms - median(&inproc), "ms");
    let dispatched: usize = summary.phases.iter().map(|p| p.dispatched).sum();
    let missing: usize = summary.phases.iter().map(|p| p.missing.len()).sum();
    m.put("dist.shards_dispatched", dispatched as f64, "count");
    m.put("dist.shards_missing", missing as f64, "count");
}

/// Every phase received what it dispatched with no worker missing,
/// and every worker restored the cache the master wrote.
fn check_shards(errs: &mut Vec<String>, d: &DistSummary, want: u64) {
    for p in &d.phases {
        check(errs, p.received == p.dispatched && p.missing.is_empty(), || {
            format!(
                "phase {}: dispatched {} received {} missing {:?}",
                p.phase, p.dispatched, p.received, p.missing
            )
        });
    }
    check(errs, d.master_cache_checksum == Some(want), || {
        format!("master cache checksum {:?}", d.master_cache_checksum)
    });
    check(
        errs,
        !d.worker_cache_checksums.is_empty()
            && d.worker_cache_checksums.iter().all(|&(_, c)| c == want),
        || format!("worker cache checksums {:?}", d.worker_cache_checksums),
    );
}

/// Request → `start` frame wait, frames and bytes per request, and
/// `write_frame` / `read_frame` over one request's frames. Workloads
/// other than `serve-tenfold` run a short serve session here at their
/// own scale and configuration.
fn serve_layer(ctx: &Ctx, ops: &mut Ops, obs: &Observed, m: &mut Metrics) {
    let own;
    let s = match &obs.serve {
        Some(s) => s,
        None => {
            own = serve_session(ctx, ops, obs);
            &own
        }
    };
    m.put("serve.first_frame_ms.p50", median(&s.first_frame_ms), "ms");
    m.put("serve.requests", s.first_frame_ms.len() as f64, "samples");
    m.put("serve.frames_per_request", s.frames_per_request, "count");
    m.put("serve.mb_per_request", s.bytes_per_request / 1e6, "MB");

    let frames = &s.one_request;
    let n = frames.len().max(1) as f64;
    let mut write_us = Vec::new();
    let mut read_us = Vec::new();
    let mut errs = Vec::new();
    for _ in 0..5 {
        let (buf, ms) = timed_ms("serve.proto::write_frame", || {
            let mut buf = Vec::new();
            for f in frames {
                let _ = write_frame(&mut buf, f);
            }
            buf
        });
        write_us.push(ms * 1e3 / n);
        let (back, ms) = timed_ms("serve.proto::read_frame", || {
            let mut cur = Cursor::new(&buf);
            let mut back = Vec::new();
            while let Ok(Some(f)) = read_frame(&mut cur) {
                back.push(f);
            }
            back
        });
        read_us.push(ms * 1e3 / n);
        check(&mut errs, &back == frames, || {
            "frames did not survive a write/read round trip".into()
        });
    }
    ops.record("frame round trip", errs);
    m.put("serve.frame_write_us", median(&write_us), "us");
    m.put("serve.frame_read_us", median(&read_us), "us");
}

/// A server at the workload's scale: one cold request, then warm ones.
fn serve_session(ctx: &Ctx, ops: &mut Ops, obs: &Observed) -> ServeObs {
    let mut s = ServeObs {
        first_frame_ms: Vec::new(),
        frames_per_request: 0.0,
        bytes_per_request: 0.0,
        one_request: Vec::new(),
    };
    let req = campaign_request(
        obs.shape.scale.name(),
        obs.shape.faults.name(),
        obs.shape.scheduling_name(),
    );
    let warm = 10;
    let mut srv = match ServeProc::launch(&ctx.bins, &ctx.run.sub("panel-serve"), ctx.seed) {
        Ok(srv) => srv,
        Err(e) => {
            ops.record("panel serve launch", vec![e.to_string()]);
            return s;
        }
    };
    let mut frames = Vec::new();
    let mut bytes = Vec::new();
    for i in 0..=warm {
        spans::new_op();
        match srv.campaign(&req, i == 1, || {}) {
            Ok(reply) => {
                let report = str_field(&reply.last, "report").unwrap_or_default();
                let mut errs = Vec::new();
                check(&mut errs, report == obs.report, || {
                    "serve report differs from the in-process report".into()
                });
                check(&mut errs, reply.warm == (i > 0), || {
                    "unexpected warm flag".into()
                });
                ops.record("panel serve request", errs);
                if i > 0 {
                    s.first_frame_ms.push(reply.first_frame_ms);
                    frames.push(reply.frames as f64);
                    bytes.push(reply.bytes as f64);
                }
                if i == 1 {
                    s.one_request = reply.kept;
                }
            }
            Err(e) => {
                ops.record("panel serve request", vec![e.to_string()]);
                break;
            }
        }
    }
    let r = srv.shutdown();
    ops.record("panel serve shutdown", r.err().into_iter().collect());
    s.frames_per_request = median(&frames);
    s.bytes_per_request = median(&bytes);
    s
}
