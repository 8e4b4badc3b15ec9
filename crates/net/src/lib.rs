//! `wormhole-net`: a packet-level network simulator with vendor-accurate
//! MPLS data planes.
//!
//! This crate is the measurement substrate for the reproduction of
//! *"Through the Wormhole: Tracking Invisible MPLS Tunnels"* (IMC 2017).
//! It models:
//!
//! * IPv4 forwarding over per-AS prefix tables whose FEC slots are
//!   numbered at build time ([`prefixes`]);
//! * per-AS IGP shortest paths with ECMP ([`igp`]);
//! * valley-free inter-domain routing with hot-potato egress selection
//!   ([`bgp`]);
//! * LDP label distribution with per-vendor advertising policies,
//!   PHP/UHP, and `ttl-propagate` (RFC 3032/3443, [`ldp`]);
//! * ICMP generation with RFC 4950 MPLS extensions and per-vendor
//!   initial TTL signatures ([`vendor`], [`engine`]).
//!
//! The engine's TTL semantics reproduce the paper's Fig. 4 emulation
//! outputs exactly; see `engine`'s module docs for the rule list.
//!
//! # Quick example
//!
//! ```
//! use wormhole_net::{
//!     Addr, Asn, ControlPlane, Engine, LinkOpts, NetworkBuilder, Packet,
//!     RelKind, RouterConfig, Vendor,
//! };
//!
//! let mut b = NetworkBuilder::new();
//! let vp = b.add_router("vp", Asn(1), RouterConfig::host());
//! let a = b.add_router("a", Asn(1), RouterConfig::ip_router(Vendor::CiscoIos));
//! let t = b.add_router("t", Asn(2), RouterConfig::ip_router(Vendor::JuniperJunos));
//! b.link(vp, a, LinkOpts::default());
//! b.link(a, t, LinkOpts::default());
//! b.as_rel(Asn(1), Asn(2), RelKind::Peer);
//! let net = b.build().unwrap();
//! let cp = ControlPlane::build(&net).unwrap();
//! let mut eng = Engine::new(&net, &cp);
//! let dst = net.router_by_name("t").unwrap().loopback;
//! let src = net.router(vp).loopback;
//! let out = eng.send(vp, Packet::echo_request(src, dst, 64, 0, 1, 1));
//! assert!(out.reply().is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod bgp;
pub mod control;
pub mod engine;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod igp;
pub mod ldp;
pub mod net;
pub mod packet;
pub mod prefixes;
pub mod router;
pub mod state;
pub mod substrate;
pub mod te;
pub mod text;
pub mod vendor;
pub mod wire;

pub use addr::{Addr, AddrAllocator, Prefix};
pub use bgp::Bgp;
pub use control::{
    ldp_label_action, logical_fib, te_group, te_program, te_row, walk, CachePayloadError,
    ControlPlane, DenseView, ExtOracle, ExtRoute, FibOracle, FibRow, FibTables, LabelAction,
    LfibEntry, LfibExplicit, LfibHop, LfibRef, TeRoute, WalkIface,
};
pub use engine::{DropReason, Engine, EngineStats, ReplyInfo, ReplyKind, SendOutcome};
pub use error::NetError;
pub use fault::{
    trace_seed, EgressHide, FaultPlan, FaultScenario, FlapSchedule, NonParisLb, RateLimit,
    SilentSet, TtlSpoof,
};
pub use hash::{WordHasher, WordMap};
pub use ids::{Asn, Label, LinkId, PortRef, RouterId};
pub use igp::AsIgp;
pub use ldp::{LabelValue, LdpBindings};
pub use net::{
    AsRel, Link, LinkOpts, Network, NetworkBuilder, OwnerIndex, RelKind, OWNER_DIR_SIZE,
};
pub use packet::{IcmpPayload, LabelStack, Lse, Packet};
pub use prefixes::AsPrefixes;
pub use router::{Interface, Router, RouterConfig};
pub use state::{ProbeState, PROBE_PACING_MS};
pub use substrate::SubstrateRef;
pub use te::TeTunnel;
pub use vendor::{LdpPolicy, PoppingMode, Vendor};
