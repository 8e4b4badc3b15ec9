//! Substrate benchmarks: control-plane computation and raw forwarding
//! throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wormhole_bench::grid;
use wormhole_net::{ControlPlane, Engine, Packet};
use wormhole_topo::{generate, gns3_fig2, Fig2Config, InternetConfig};

fn control_plane_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("control_plane");
    group.sample_size(20);
    group.bench_function("fig2_testbed", |b| {
        b.iter(|| black_box(gns3_fig2(Fig2Config::BackwardRecursive)))
    });
    let (net, _) = grid(10);
    group.bench_function("grid_10x10", |b| {
        b.iter(|| black_box(ControlPlane::build(&net).expect("builds")))
    });
    group.sample_size(10);
    group.bench_function("paper_internet_generate", |b| {
        b.iter(|| black_box(generate(&InternetConfig::small(1))))
    });
    group.finish();
}

fn forwarding_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("forwarding");
    let (net, cp) = grid(10);
    let vp = net.router_by_name("VP").expect("vp").id;
    let src = net.router(vp).loopback;
    let far = net.router_by_name("g9.9").expect("far").loopback;
    group.bench_function("grid_ping_20_hops", |b| {
        let mut eng = Engine::new(&net, &cp);
        let mut seq = 0u16;
        b.iter(|| {
            seq = seq.wrapping_add(1);
            black_box(eng.send(vp, Packet::echo_request(src, far, 64, 1, 1, seq)))
        })
    });
    let s = gns3_fig2(Fig2Config::Default);
    let vsrc = s.net.router(s.vp).loopback;
    group.bench_function("fig2_probe_through_lsp", |b| {
        let mut eng = Engine::new(&s.net, &s.cp);
        let mut seq = 0u16;
        b.iter(|| {
            seq = seq.wrapping_add(1);
            black_box(eng.send(s.vp, Packet::echo_request(vsrc, s.target, 4, 1, 1, seq)))
        })
    });
    group.finish();
}

criterion_group!(benches, control_plane_benches, forwarding_benches);
criterion_main!(benches);
