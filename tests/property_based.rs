//! Property-based tests over the core data structures and the TTL
//! algebra the techniques rely on.

mod common;

use common::{line, LineOpts};
use proptest::prelude::*;
use wormhole::analysis::Histogram;
use wormhole::core::{infer_initial_ttl, return_path_len};
use wormhole::probe::{Session, TracerouteOpts};

proptest! {
    /// Inferred initial TTLs are the smallest standard initial ≥ the
    /// observation, and the return length stays within (0, init].
    #[test]
    fn initial_ttl_inference_is_monotone(observed in 1u8..=255) {
        let init = infer_initial_ttl(observed);
        prop_assert!(init >= observed);
        prop_assert!([32u8, 64, 128, 255].contains(&init));
        for smaller in [32u8, 64, 128, 255] {
            if smaller < init {
                prop_assert!(smaller < observed);
            }
        }
        let len = return_path_len(observed);
        prop_assert!(len >= 1);
        prop_assert_eq!(len as u16, (init - observed) as u16 + 1);
    }

    /// Histogram statistics agree with direct computation on the raw
    /// samples.
    #[test]
    fn histogram_matches_sorted_vec(samples in proptest::collection::vec(-50i64..50, 1..200)) {
        let h = Histogram::from_iter(samples.iter().copied());
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.median(), Some(sorted[(sorted.len() - 1) / 2]));
        let mean = sorted.iter().map(|&x| x as f64).sum::<f64>() / sorted.len() as f64;
        prop_assert!((h.mean().unwrap() - mean).abs() < 1e-9);
        prop_assert_eq!(h.range(), Some((sorted[0], *sorted.last().unwrap())));
        let total: f64 = h.pdf().iter().map(|&(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Quantiles are order statistics.
        prop_assert_eq!(h.quantile(1.0), Some(*sorted.last().unwrap()));
        prop_assert_eq!(h.quantile(0.0), Some(sorted[0]));
    }

    /// TTL algebra on the wire: for any tunnel length and TTL policy,
    /// a traceroute across the line topology observes exactly the
    /// RFC 3443 arithmetic — hidden tunnels shorten the trace by their
    /// LSR count, visible ones don't, and the egress's return TTL
    /// charges the tunnel iff it is hidden.
    #[test]
    fn ttl_algebra_on_random_tunnels(
        n_lsrs in 1usize..7,
        propagate in any::<bool>(),
    ) {
        let l = line(LineOpts {
            n_lsrs,
            propagate,
            ..LineOpts::default()
        });
        let mut sess = Session::new(&l.net, &l.cp, l.vp);
        sess.set_opts(TracerouteOpts::default());
        let trace = sess.traceroute(l.target);
        prop_assert!(trace.reached);
        let full = n_lsrs + 4; // CE1 PE1 P* PE2 CE2
        if propagate {
            prop_assert_eq!(trace.responsive_count(), full);
            prop_assert!(trace.has_labels());
        } else {
            prop_assert_eq!(trace.responsive_count(), 4);
            prop_assert!(!trace.has_labels());
        }
        // Egress return TTL: the true return path is CE1+PE1+LSRs+1
        // intermediate routers long either way; the *forward* position
        // differs.
        let pe2 = l.net.router_by_name("PE2").unwrap();
        let hop = trace.hop_of(pe2.ifaces[0].addr).expect("egress visible");
        let ret_len = return_path_len(hop.reply_ip_ttl.unwrap());
        prop_assert_eq!(usize::from(ret_len), n_lsrs + 3);
        let fwd = usize::from(hop.ttl);
        if propagate {
            prop_assert_eq!(fwd, n_lsrs + 3);
        } else {
            prop_assert_eq!(fwd, 3);
        }
    }

    /// Echo replies from Juniper targets never charge the return tunnel
    /// (the 64-based side of the RTLA gap), for any tunnel length.
    #[test]
    fn juniper_echo_reply_never_counts_tunnel(n_lsrs in 1usize..7) {
        let l = line(LineOpts {
            n_lsrs,
            vendor: wormhole::net::Vendor::JuniperJunos,
            ldp: wormhole::net::LdpPolicy::LoopbackOnly,
            ..LineOpts::default()
        });
        let mut sess = Session::new(&l.net, &l.cp, l.vp);
        let pe2 = l.net.router_by_name("PE2").unwrap();
        let er = sess.ping(pe2.ifaces[0].addr).reply.expect("pingable");
        // 64 − (CE1 + PE1 decrements) = 62, independent of tunnel size.
        prop_assert_eq!(er.reply_ip_ttl, 62);
    }
}
