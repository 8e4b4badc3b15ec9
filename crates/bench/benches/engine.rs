//! Engine microbenchmarks on the tenfold Internet: the recording-off
//! walk every campaign runs versus the ground-truth-recording walk,
//! plus a dedicated timed section that writes `BENCH_engine.json` at
//! the repo root — tenfold and thousandfold walk throughput, the
//! `heap_allocs` proof counters, and serial-vs-parallel control-plane
//! build times.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wormhole_bench::measure;
use wormhole_net::{Engine, FaultPlan, ProbeState, SubstrateRef};
use wormhole_probe::{traceroute, Session, TracerouteOpts};
use wormhole_topo::{generate, InternetConfig};

fn engine_bench(c: &mut Criterion) {
    let internet = generate(&InternetConfig::tenfold(8));
    let sub = SubstrateRef::new(&internet.net, &internet.cp);
    let vp = internet.vps[0];
    // A far loopback: the last router is deep in the most recently
    // generated stub, many hops from the first vantage point.
    let far = internet
        .net
        .routers()
        .last()
        .expect("tenfold Internet has routers")
        .loopback;

    let mut group = c.benchmark_group("engine");
    group.bench_function("traceroute_recording_off", |b| {
        let mut sess = Session::over(sub, vp, ProbeState::new(FaultPlan::none(), 0));
        b.iter(|| black_box(sess.traceroute(far)))
    });
    group.bench_function("traceroute_recording_on", |b| {
        // Same walk over a bare engine with ground-truth path recording
        // turned back on — the gap against `traceroute_recording_off`
        // is the price of the per-probe heap buffers the campaign
        // configuration avoids.
        let mut eng = Engine::over(sub, ProbeState::new(FaultPlan::none(), 0));
        eng.set_record_paths(true);
        let src = internet.net.router(vp).loopback;
        let opts = TracerouteOpts::campaign();
        b.iter(|| black_box(traceroute(&mut eng, vp, src, far, 7, 1, &opts)))
    });
    group.finish();

    let thousandfold = generate(&InternetConfig::thousandfold(8));
    let e = measure::measure_engine(&internet, &thousandfold);
    for w in &e.walks {
        println!(
            "engine {}: {:.0} probes/sec over {} probes ({} traces, {} routers), {} heap allocs",
            w.name, w.probes_per_sec, w.probes, w.traces, w.routers, w.heap_allocs
        );
        assert_eq!(
            w.heap_allocs, 0,
            "recording-off {} must stay allocation-free",
            w.name
        );
    }
    println!(
        "plane build: {:.3}s serial, {:.3}s at {} workers",
        e.plane_serial_seconds, e.plane_parallel_seconds, e.plane_jobs
    );
    measure::write_baseline("BENCH_engine.json", &measure::engine_json(&e));
}

criterion_group!(benches, engine_bench);
criterion_main!(benches);
