//! The immutable measurement substrate: a built [`Network`] plus its
//! computed [`ControlPlane`], bundled so they can be shared by
//! reference between scoped campaign workers.
//!
//! The split this module anchors is the one the parallel campaign
//! relies on: everything topology- and routing-shaped is **immutable
//! and `Send + Sync`** (built once, read by every worker), while all
//! mutable probing state (fault RNG streams, probe counters, flow-id
//! bookkeeping) lives in a per-worker [`crate::state::ProbeState`].
//! Nothing in this crate uses interior mutability, so sharing a
//! substrate across threads needs no locks.

use crate::control::ControlPlane;
use crate::net::Network;

/// A borrowed view of the substrate: the cheap, `Copy` handle that
/// [`crate::engine::Engine`] (and everything above it) forwards over.
///
/// Both referents are immutable and `Sync`, so a `SubstrateRef` can be
/// captured by scoped worker threads directly.
#[derive(Copy, Clone, Debug)]
pub struct SubstrateRef<'a> {
    /// The network topology and router configurations.
    pub net: &'a Network,
    /// The computed FIBs, LFIBs, BGP tables and prefix tries.
    pub cp: &'a ControlPlane,
}

impl<'a> SubstrateRef<'a> {
    /// Bundles a network and its control plane.
    pub fn new(net: &'a Network, cp: &'a ControlPlane) -> SubstrateRef<'a> {
        SubstrateRef { net, cp }
    }
}

// Compile-time audit: the shared substrate must be immutable-shareable
// across campaign workers. If anyone introduces interior mutability
// (Cell, RefCell, Rc) into the topology or routing layers, these
// bounds fail to hold and this module stops compiling.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Network>();
    assert_sync_send::<ControlPlane>();
    assert_sync_send::<SubstrateRef<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Asn;
    use crate::net::{LinkOpts, NetworkBuilder};
    use crate::router::RouterConfig;
    use crate::vendor::Vendor;

    fn two_router_net() -> Network {
        let mut b = NetworkBuilder::new();
        let a = b.add_router("a", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        let t = b.add_router("t", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
        b.link(a, t, LinkOpts::default());
        b.build().expect("builds")
    }

    #[test]
    fn substrate_is_readable_from_scoped_threads() {
        let net = two_router_net();
        let cp = ControlPlane::build(&net).expect("control plane");
        let sref = SubstrateRef::new(&net, &cp);
        let n = std::thread::scope(|s| {
            let h1 = s.spawn(move || sref.net.routers().len());
            let h2 = s.spawn(move || sref.net.routers().len());
            h1.join().expect("worker") + h2.join().expect("worker")
        });
        assert_eq!(n, 4);
    }
}
