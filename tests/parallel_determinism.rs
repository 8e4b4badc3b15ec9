//! Determinism regression: the sharded campaign executor must produce
//! byte-identical output at every worker count.
//!
//! Fault injection is enabled so each vantage point actually consumes
//! its `(seed, vp_index)` RNG stream — a lossless run would pass even
//! with broken per-worker seeding, because no randomness is drawn.

use wormhole::core::{Campaign, CampaignConfig, CampaignReport, CampaignResult, Scheduling};
use wormhole::net::{FaultPlan, FaultScenario};
use wormhole::topo::{generate, Internet, InternetConfig};

fn report(internet: &Internet, jobs: usize, seed: u64) -> CampaignReport {
    report_with(internet, jobs, seed, Scheduling::VpBatches)
}

fn report_with(
    internet: &Internet,
    jobs: usize,
    seed: u64,
    scheduling: Scheduling,
) -> CampaignReport {
    let cfg = CampaignConfig {
        hdn_threshold: 9,
        faults: FaultPlan {
            loss: 0.03,
            icmp_loss: 0.02,
            jitter_ms: 0.7,
            ..FaultPlan::default()
        },
        seed,
        jobs,
        scheduling,
        ..CampaignConfig::default()
    };
    Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
        .run()
        .report()
}

#[test]
fn paper_campaign_is_identical_at_any_worker_count() {
    let internet = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    let serial = report(&internet, 1, 42);
    let parallel = report(&internet, 4, 42);
    assert_eq!(
        serial, parallel,
        "jobs=4 diverged from jobs=1 on the same seed"
    );
    // `jobs=0` (auto parallelism) must land on the same bytes too.
    assert_eq!(serial, report(&internet, 0, 42), "jobs=0 diverged");
    // Same topology, different campaign seed: faults are live, so the
    // transcript must actually change — otherwise the RNG streams were
    // never consumed and this test guards nothing.
    assert_ne!(
        serial,
        report(&internet, 1, 43),
        "different seeds produced identical reports; faults were not exercised"
    );
}

#[test]
fn every_fault_scenario_is_identical_at_any_worker_count() {
    // The ISSUE's headline robustness guarantee: token buckets,
    // persistent silence, and link flaps all run on per-worker virtual
    // clocks, so even the hostile composite shards byte-identically.
    // The aggregate engine counters must agree too, under both
    // schedulers, and the recording-off walk must never touch the heap.
    let internet = generate(&InternetConfig::small(17));
    for scenario in FaultScenario::ALL {
        for scheduling in [Scheduling::VpBatches, Scheduling::Stealing] {
            let run = |jobs: usize| {
                let cfg = CampaignConfig {
                    hdn_threshold: 6,
                    faults: scenario.plan(),
                    seed: 5,
                    jobs,
                    scheduling,
                    ..CampaignConfig::default()
                };
                Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
            };
            assert_jobs_identical(
                &run,
                &[2, 4],
                &format!("{} {scheduling:?}", scenario.name()),
            );
        }
    }
}

/// Runs `run` at one worker and at each of `jobs`, asserting identical
/// reports and engine counters, and that no run's walk allocated.
fn assert_jobs_identical(run: &dyn Fn(usize) -> CampaignResult, jobs: &[usize], what: &str) {
    let serial = run(1);
    assert_eq!(
        serial.engine_stats.heap_allocs, 0,
        "{what}: campaign walk allocated at jobs=1"
    );
    let report = serial.report();
    for &j in jobs {
        let parallel = run(j);
        assert_eq!(
            report,
            parallel.report(),
            "{what}: report diverged at jobs={j}"
        );
        assert_eq!(
            serial.engine_stats, parallel.engine_stats,
            "{what}: engine counters diverged at jobs={j}"
        );
        assert_eq!(
            parallel.engine_stats.heap_allocs, 0,
            "{what}: campaign walk allocated at jobs={j}"
        );
    }
}

#[test]
fn stealing_campaign_is_identical_at_any_worker_count() {
    // Per-trace work stealing executes tasks in whatever order idle
    // workers claim them; byte-identical reports at every job count
    // prove the per-(seed, vp, target) RNG streams really are hermetic.
    let internet = generate(&InternetConfig {
        seed: 8,
        ..InternetConfig::default()
    });
    let serial = report_with(&internet, 1, 42, Scheduling::Stealing);
    for jobs in [2, 4] {
        assert_eq!(
            serial,
            report_with(&internet, jobs, 42, Scheduling::Stealing),
            "stealing diverged at jobs={jobs}"
        );
    }
    assert_eq!(
        serial,
        report_with(&internet, 0, 42, Scheduling::Stealing),
        "stealing diverged at jobs=0"
    );
    // Different seed must change the transcript (streams are consumed).
    assert_ne!(
        serial,
        report_with(&internet, 1, 43, Scheduling::Stealing),
        "different seeds produced identical stealing reports"
    );
}

#[test]
fn stealing_survives_the_hostile_scenario_at_any_worker_count() {
    // The hostile composite (loss + rate limiting + silence + flaps)
    // exercises every per-task fault mechanism; the report must not
    // depend on how tasks are interleaved across stealing workers.
    let internet = generate(&InternetConfig::small(17));
    let hostile = FaultScenario::ALL
        .iter()
        .find(|s| s.name() == "hostile")
        .expect("hostile scenario exists");
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            faults: hostile.plan(),
            seed: 5,
            jobs,
            scheduling: Scheduling::Stealing,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
            .run()
            .report()
    };
    let serial = run(1);
    for jobs in [2, 4] {
        assert_eq!(
            serial,
            run(jobs),
            "hostile stealing diverged at jobs={jobs}"
        );
    }
}

#[test]
fn stealing_survives_the_paranoid_scenario_at_any_worker_count() {
    // The paranoid composite layers every deception (spoofed quoted
    // TTLs, per-probe forking, egress hiding, silence) on top of the
    // stealing executor's arbitrary task interleaving; reports must
    // still be byte-identical at every worker count.
    let internet = generate(&InternetConfig::small(17));
    let paranoid = FaultScenario::ALL
        .iter()
        .find(|s| s.name() == "paranoid")
        .expect("paranoid scenario exists");
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            faults: paranoid.plan(),
            seed: 5,
            jobs,
            scheduling: Scheduling::Stealing,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg)
            .run()
            .report()
    };
    let serial = run(1);
    for jobs in [2, 4] {
        assert_eq!(
            serial,
            run(jobs),
            "paranoid stealing diverged at jobs={jobs}"
        );
    }
}

#[test]
#[ignore = "tenfold scale: run in release CI via --include-ignored"]
fn tenfold_campaign_is_identical_at_one_and_four_workers() {
    let internet = generate(&InternetConfig::tenfold(8));
    let hostile = FaultScenario::ALL
        .iter()
        .find(|s| s.name() == "hostile")
        .expect("hostile scenario exists");
    for (what, faults) in [
        ("tenfold clean", FaultPlan::none()),
        ("tenfold hostile", hostile.plan()),
    ] {
        let run = |jobs: usize| {
            let cfg = CampaignConfig {
                hdn_threshold: 12,
                faults: faults.clone(),
                seed: 11,
                jobs,
                ..CampaignConfig::default()
            };
            Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
        };
        assert_jobs_identical(&run, &[4], what);
    }
}

#[test]
fn incremental_snapshot_is_identical_across_worker_counts() {
    // The streaming builder ingests shard merges in vantage-point
    // order, so its per-phase delta rows and order-independent
    // checksum must land on the same values at every worker count,
    // under both schedulers, clean and hostile.
    let internet = generate(&InternetConfig::small(11));
    let hostile = FaultScenario::ALL
        .iter()
        .copied()
        .find(|s| s.name() == "hostile")
        .expect("hostile scenario exists");
    for faults in [FaultPlan::none(), hostile.plan()] {
        for scheduling in [Scheduling::VpBatches, Scheduling::Stealing] {
            let run = |jobs: usize| {
                let cfg = CampaignConfig {
                    hdn_threshold: 6,
                    faults: faults.clone(),
                    seed: 7,
                    jobs,
                    scheduling,
                    ..CampaignConfig::default()
                };
                Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
            };
            let serial = run(1);
            assert_eq!(serial.snapshot_deltas.len(), 2, "bootstrap + probe rows");
            for jobs in [2, 4] {
                let parallel = run(jobs);
                assert_eq!(
                    serial.snapshot_deltas, parallel.snapshot_deltas,
                    "delta rows diverged at jobs={jobs} ({scheduling:?})"
                );
                assert_eq!(
                    serial.snapshot_checksum, parallel.snapshot_checksum,
                    "snapshot checksum diverged at jobs={jobs} ({scheduling:?})"
                );
            }
        }
    }
}

#[test]
fn probe_accounting_matches_across_worker_counts() {
    let internet = generate(&InternetConfig::small(11));
    let run = |jobs: usize| {
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            faults: FaultPlan::with_loss(0.05).expect("valid loss"),
            seed: 7,
            jobs,
            ..CampaignConfig::default()
        };
        Campaign::new(&internet.net, &internet.cp, internet.vps.clone(), cfg).run()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.probes, b.probes);
    assert_eq!(a.probes_by_vp, b.probes_by_vp);
    assert_eq!(a.trace_vps, b.trace_vps);
    assert_eq!(
        a.tunnels().count(),
        b.tunnels().count(),
        "revealed tunnel count must not depend on the worker count"
    );
}
