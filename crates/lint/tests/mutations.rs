//! The mutation self-test: the lint suite linting itself.
//!
//! Every registered rule has a seeded corruption class. A class takes a
//! clean fixture, seeds one corruption, and runs the fixture through the
//! entry point production runs the rule's family from:
//!
//! * `check_plane` — the `Session`/`Campaign` gate — for `W1xx` and
//!   `D5xx`;
//! * `check_scenario`, `check_persona` or `check_internet` for `X2xx`;
//! * `lint::audit` over the `audit_input` of a real quick-scale campaign
//!   for `A3xx`, `A4xx` and `V6xx`.
//!
//! The fixture must pass the deny gate, and every finding the corruption
//! adds must carry exactly the class's rule: no misses (the corruption
//! slipped through) and no cascades (one corruption drowning the report
//! in unrelated codes). Each family's test also pins that the codes its
//! classes expect are exactly the codes registered for the family, so a
//! rule no corruption can isolate cannot stay registered.
//!
//! The `W1xx` classes corrupt a configuration and rebuild the plane from
//! it ([`reconfigure`]), so the plane stays consistent and only the
//! configuration rule can object. The `X2xx` classes edit the scenario's
//! vantage point or target, a persona, or an Internet's persona list.
//!
//! The dense classes corrupt the plane's tables through the
//! `wormhole-net` `mutation` hooks. The LDP classes corrupt the tables
//! every label is computed from: a skewed per-AS offset of the `/32`
//! numbers (`D503`) and an own slot moved to its unowned neighbor,
//! sorted order intact (`D504`).
//! The explicit-LFIB classes run over a quick plane where one LSR's
//! first two LDP entries were re-installed as explicit copies of
//! themselves (what-if injections that agree with LDP, so the plane is
//! clean): a shadowed label, a shifted row offset that hands an entry to
//! another router and an entry tagged past its AS table (`D506`), and a
//! rewritten override branch (`D507`), next to a stale injected label
//! and a rewritten RSVP-TE branch (`D507`).
//! Three further dense classes corrupt only *content*, with every
//! shape intact: a retargeted FIB pool hop (`D508`) and a member
//! retargeted to another egress border of its AS (`D513`), next to
//! their shape-changing siblings (a truncated FIB group, a `Direct`
//! route over an intra-AS interface). Two push an index past its
//! range: a FIB cell naming a group past its router's (`D508`) and a
//! class cell naming a class past its AS's (`D513`).
//! One more corrupts the *directories* of the block tables: a skewed
//! owner-directory run (`D512`).
//! Three more give each half of `D512` a corruption only it can see: a
//! held address left unowned (forward), an unheld address bound to a
//! router (reverse, over a fixture whose block run has gaps) and an
//! orphan directory page (shape).
//! Five break the per-AS slot tables or the slots memoized from them:
//! a prefix given a second slot and owner offsets skewed past the pool
//! (`D509`), a loopback memo moved to the next slot, an interface
//! pointed at its router's own loopback slot — the router owns both
//! slots, so only the prefix the slot holds tells them apart — and a
//! link slot rewritten to a prefix none of its owners holds (`D510`).
//!
//! The campaign classes corrupt one accounting fact of the quick
//! campaign's audit snapshot each. The clean snapshot carries two `A302`
//! warnings of its own (two return tunnels really are longer than the
//! forward ones), which is why a class is judged by the findings it
//! *adds*. `A311` and `A312` corrupt a distributed ledger that balances
//! against the same snapshot ([`distributed_audit`]).
//!
//! Six codes were retired because no corruption isolates them. W103,
//! W104 and X205 restated `ControlPlane::build`'s `MissingAsRel`,
//! `DisconnectedAs` and `InvalidTeTunnel`, so no network with a plane
//! reaches them. W108 fired with D510 on every dead slot
//! (`rewrite-slot-prefix`), W109 with D507 on every dangling swap
//! (`rewrite-te-branch-action`), and A309 with A307 on every idle shard
//! (`shard-left-idle`).

use std::collections::BTreeSet;
use std::sync::OnceLock;
use wormhole_core::{audit_input, Campaign, CampaignConfig};
use wormhole_lint as lint;
use wormhole_lint::{CampaignAudit, Diagnostic, Family, MethodClaim, RevelationKind, VeracityTier};
use wormhole_net::{
    Addr, AsRel, Asn, ControlPlane, ExtRoute, Label, LabelAction, LdpPolicy, LfibEntry, LfibHop,
    Link, LinkOpts, Network, NetworkBuilder, PoppingMode, Prefix, Router, RouterConfig, RouterId,
    TeTunnel, Vendor, OWNER_DIR_SIZE,
};
use wormhole_topo::{
    generate, gns3_fig2, gns3_fig2_te, paper_personas, AsPersona, Fig2Config, Internet,
    InternetConfig, Scenario,
};

/// A network with the control plane built from it.
type Plane = (Network, ControlPlane);

/// One seeded corruption class over a fixture of type `T`.
struct Class<T> {
    name: &'static str,
    /// The single rule that must catch it.
    rule: &'static str,
    build: fn() -> T,
    corrupt: fn(&mut T),
}

/// What one class did under its family's entry point.
struct Outcome {
    name: &'static str,
    rule: &'static str,
    /// Whether the fixture already failed the deny gate.
    fixture_fails: bool,
    /// The findings the corruption added to the fixture's.
    added: Vec<Diagnostic>,
}

impl<T> Class<T> {
    fn run(&self, lint: impl Fn(&T) -> Vec<Diagnostic>) -> Outcome {
        let mut input = (self.build)();
        let clean = lint(&input);
        (self.corrupt)(&mut input);
        let mut added = lint(&input);
        added.retain(|d| !clean.contains(d));
        Outcome {
            name: self.name,
            rule: self.rule,
            fixture_fails: lint::has_errors(&clean),
            added,
        }
    }
}

/// Pins that `outcomes` expect exactly the codes registered for
/// `family`, that every fixture passes the gate, and that every
/// corruption adds findings of its own rule and no other.
fn assert_family(family: Family, outcomes: &[Outcome]) {
    let registered: BTreeSet<&str> = lint::RULES
        .iter()
        .filter(|r| r.family == family)
        .map(|r| r.code)
        .collect();
    let expected: BTreeSet<&str> = outcomes.iter().map(|o| o.rule).collect();
    let mut failures: Vec<String> = outcomes
        .iter()
        .filter_map(|o| {
            let fired: BTreeSet<&str> = o.added.iter().map(|d| d.code).collect();
            if o.fixture_fails {
                Some(format!("{}: fixture fails the gate uncorrupted", o.name))
            } else if fired != BTreeSet::from([o.rule]) {
                Some(format!(
                    "{}: expected exactly {} to fire, got {fired:?}\n{}",
                    o.name,
                    o.rule,
                    lint::render(&o.added)
                ))
            } else {
                None
            }
        })
        .collect();
    if expected != registered {
        failures.push(format!(
            "{family}: the classes expect {expected:?}, the registry holds {registered:?}"
        ));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn plane_findings((net, cp): &Plane) -> Vec<Diagnostic> {
    lint::check_plane(net, cp)
}

// ---------------------------------------------------------------- W1xx

/// A built network's builder inputs, edited by [`reconfigure`].
struct Config {
    routers: Vec<Router>,
    links: Vec<Link>,
    rels: Vec<AsRel>,
    tunnels: Vec<TeTunnel>,
}

impl Config {
    fn of(net: &Network) -> Config {
        Config {
            routers: net.routers().to_vec(),
            links: net.links().to_vec(),
            rels: net.as_rels().to_vec(),
            tunnels: net.te_tunnels().to_vec(),
        }
    }

    /// The configuration of the router called `name`.
    fn router(&mut self, name: &str) -> &mut RouterConfig {
        let r = self.routers.iter_mut().find(|r| r.name == name);
        &mut r.expect("a router of the fixture").config
    }
}

/// Edits the plane's network configuration and rebuilds both from it
/// through `NetworkBuilder` and `ControlPlane::build`: a configuration
/// corruption reaches the gate through a plane that agrees with it.
fn reconfigure(plane: &mut Plane, edit: impl FnOnce(&mut Config)) {
    let mut c = Config::of(&plane.0);
    edit(&mut c);
    let mut b = NetworkBuilder::new();
    for r in c.routers {
        b.add_router_with_loopback(&r.name, r.asn, r.config, r.loopback);
    }
    for l in c.links {
        let opts = LinkOpts {
            delay_ms: l.delay_ms,
            metric_ab: l.metric_ab,
            metric_ba: l.metric_ba,
        };
        b.link_with_prefix(l.a.router, l.b.router, l.prefix, opts);
    }
    for r in c.rels {
        b.as_rel(r.a, r.b, r.kind);
    }
    for t in c.tunnels {
        b.te_tunnel(t.path, t.popping);
    }
    let net = b.build().expect("the edited configuration builds");
    let cp = ControlPlane::build(&net).expect("the edited configuration has a plane");
    *plane = (net, cp);
}

fn network_classes() -> Vec<Class<Plane>> {
    vec![
        Class {
            name: "vp-enables-mpls",
            rule: "W101",
            build: ldp_plane,
            corrupt: |p| reconfigure(p, |c| c.router("VP").mpls = true),
        },
        Class {
            name: "add-unlinked-router",
            rule: "W102",
            build: ldp_plane,
            corrupt: |p| {
                reconfigure(p, |c| {
                    c.routers.push(Router {
                        id: RouterId(c.routers.len() as u32),
                        name: "X".to_string(),
                        asn: Asn(64_512),
                        loopback: Addr::new(192, 0, 2, 1),
                        ifaces: Vec::new(),
                        config: RouterConfig::ip_router(Vendor::CiscoIos),
                    })
                })
            },
        },
        Class {
            name: "lsr-advertises-loopbacks-only",
            rule: "W105",
            build: ldp_plane,
            corrupt: |p| reconfigure(p, |c| c.router("P2").ldp_policy = LdpPolicy::LoopbackOnly),
        },
        Class {
            name: "one-ler-flips-ttl-propagate",
            rule: "W106",
            build: ldp_plane,
            corrupt: |p| {
                reconfigure(p, |c| {
                    let pe1 = c.router("PE1");
                    pe1.ttl_propagate = !pe1.ttl_propagate;
                })
            },
        },
        Class {
            name: "te-tunnel-ends-in-the-core",
            rule: "W107",
            build: te_plane,
            corrupt: |p| {
                reconfigure(p, |c| {
                    // Still a valid path of adjacent MPLS routers, so
                    // the plane builds; its tail is now an LSR.
                    c.tunnels[0].path.pop();
                })
            },
        },
        Class {
            name: "lsr-pops-uhp",
            rule: "W110",
            build: ldp_plane,
            corrupt: |p| reconfigure(p, |c| c.router("P2").popping = PoppingMode::Uhp),
        },
    ]
}

/// Every `W1xx` rule is isolated by a configuration corruption under
/// `check_plane`.
#[test]
fn network_rules_each_isolated_through_check_plane() {
    let outcomes: Vec<Outcome> = network_classes()
        .iter()
        .map(|c| c.run(plane_findings))
        .collect();
    assert_family(Family::Network, &outcomes);
}

// ---------------------------------------------------------------- X2xx

fn fig2() -> Scenario {
    gns3_fig2(Fig2Config::Default)
}

fn quick_internet() -> Internet {
    generate(&InternetConfig::small(8))
}

fn scenario_classes() -> Vec<Class<Scenario>> {
    vec![
        Class {
            name: "vp-is-a-router",
            rule: "X201",
            build: fig2,
            corrupt: |s| s.vp = s.router("CE1"),
        },
        Class {
            name: "target-owned-by-nobody",
            rule: "X202",
            build: fig2,
            corrupt: |s| s.target = Addr::new(203, 0, 113, 77),
        },
    ]
}

fn persona_classes() -> Vec<Class<AsPersona>> {
    vec![
        Class {
            name: "empty-edge-vendor-mix",
            rule: "X203",
            build: || paper_personas()[0].clone(),
            corrupt: |p| p.edge_vendors = &[],
        },
        Class {
            name: "persona-without-pops",
            rule: "X204",
            build: || paper_personas()[0].clone(),
            corrupt: |p| p.pops = 0,
        },
    ]
}

fn internet_classes() -> Vec<Class<Internet>> {
    vec![Class {
        name: "persona-grows-a-pop",
        rule: "X206",
        build: quick_internet,
        corrupt: |i| i.personas[0].pops += 1,
    }]
}

/// Every `X2xx` rule is isolated through the entry point that runs it:
/// `check_scenario`, `check_persona` or `check_internet`.
#[test]
fn cross_rules_each_isolated_through_their_entry_points() {
    let mut outcomes: Vec<Outcome> = scenario_classes()
        .iter()
        .map(|c| c.run(lint::check_scenario))
        .collect();
    outcomes.extend(persona_classes().iter().map(|c| c.run(lint::check_persona)));
    outcomes.extend(
        internet_classes()
            .iter()
            .map(|c| c.run(lint::check_internet)),
    );
    assert_family(Family::Cross, &outcomes);
}

// ---------------------------------------------------------------- D5xx

/// LDP-rich fixture: the Fig. 2 testbed with LDP on all prefixes.
fn ldp_plane() -> Plane {
    let s = gns3_fig2(Fig2Config::BackwardRecursive);
    (s.net, s.cp)
}

/// TE fixture: the Fig. 2 testbed steering through RSVP-TE tunnels.
fn te_plane() -> Plane {
    let s = gns3_fig2_te(PoppingMode::Php, false);
    (s.net, s.cp)
}

/// An unheld address inside [`gapped_plane`]'s one loopback run.
const GAP: Addr = Addr::new(10, 0, 0, 3);

/// Two linked routers with loopbacks `10.0.0.1` and `10.0.0.5`: the
/// owner index's run for their block holds unowned entries, [`GAP`]
/// among them.
fn gapped_plane() -> Plane {
    let mut b = NetworkBuilder::new();
    let cfg = RouterConfig::mpls_router(Vendor::CiscoIos);
    let x = b.add_router_with_loopback("X", Asn(1), cfg.clone(), Addr::new(10, 0, 0, 1));
    let y = b.add_router_with_loopback("Y", Asn(1), cfg, Addr::new(10, 0, 0, 5));
    b.link(x, y, LinkOpts::default());
    let net = b.build().expect("distinct addresses");
    let cp = ControlPlane::build(&net).expect("a connected AS");
    (net, cp)
}

/// Quick-scale fixture with explicit LFIB rows: the first LSR with two
/// LDP entries gets both re-installed as explicit copies of themselves,
/// so they override LDP without changing a branch and the plane
/// verifies clean.
fn injected_plane() -> Plane {
    static PLANE: OnceLock<Plane> = OnceLock::new();
    PLANE
        .get_or_init(|| {
            let i = generate(&InternetConfig::small(8));
            let mut cp = i.cp;
            let (rid, copies) = i
                .net
                .routers()
                .iter()
                .find_map(|r| {
                    let copies: Vec<(Label, LfibEntry)> = cp
                        .lfib_entries(r.id)
                        .take(2)
                        .map(|(label, e)| {
                            let nexthops = e.branches().collect();
                            (
                                label,
                                LfibEntry {
                                    slot: e.slot,
                                    nexthops,
                                },
                            )
                        })
                        .collect();
                    (copies.len() == 2).then_some((r.id, copies))
                })
                .expect("an LSR with two LDP entries");
            for (label, entry) in copies {
                cp.inject_lfib_entry(rid, label, entry);
            }
            (i.net, cp)
        })
        .clone()
}

/// The router holding [`injected_plane`]'s two explicit entries, with
/// the range of its row in the explicit entry pool.
fn injected_row(cp: &ControlPlane) -> (RouterId, std::ops::Range<usize>) {
    let base = cp.dense_view().lfib_base;
    base.windows(2)
        .enumerate()
        .find(|(_, w)| w[1] - w[0] >= 2)
        .map(|(r, w)| (RouterId(r as u32), w[0] as usize..w[1] as usize))
        .expect("a router with two explicit entries")
}

/// Rewrites the label operation of the first branch of
/// [`injected_row`]'s first entry, keeping every shape; returns the
/// router and the entry's label.
fn rewrite_first_override(cp: &mut ControlPlane) -> (RouterId, Label) {
    let (rid, row) = injected_row(cp);
    let entry = cp.dense_view().lfib_explicit[row.start];
    let hop = &mut cp.lfib_hops_mut()[entry.hops as usize];
    hop.action = match hop.action {
        LabelAction::Swap(l) => LabelAction::Swap(Label(l.0 + 977)),
        LabelAction::Pop => LabelAction::SwapExplicitNull,
        LabelAction::SwapExplicitNull => LabelAction::Pop,
    };
    (rid, Label(entry.label))
}

/// Drops the first hop of the first populated FIB group: the group
/// offsets no longer close the pool.
fn truncate_first_fib_group(cp: &mut ControlPlane) {
    let groups = cp.dense_view().fib_groups;
    let g = groups
        .windows(2)
        .position(|w| w[1] > w[0])
        .expect("some FIB group is populated");
    let at = groups[g] as usize;
    cp.fib_pool_mut().remove(at);
}

/// Every stored external-route word as `(word index, the member it
/// belongs to, its route)`, AS by AS.
fn ext_words<'a>(
    net: &'a Network,
    cp: &'a ControlPlane,
) -> impl Iterator<Item = (usize, RouterId, ExtRoute)> + 'a {
    let v = cp.dense_view();
    net.as_list().iter().enumerate().flat_map(move |(s, &asn)| {
        let members = net.as_members(asn);
        let (first, end) = (v.ext_blocks[s].0 as usize, v.ext_blocks[s + 1].0 as usize);
        (first..end).map(move |k| {
            let route = ExtRoute::unpack(v.ext_words[k]).expect("a clean word");
            (k, members[(k - first) % members.len()], route)
        })
    })
}

fn dense_classes() -> Vec<Class<Plane>> {
    vec![
        Class {
            name: "swap-te-csr-offsets",
            rule: "D501",
            build: te_plane,
            corrupt: |(_, cp)| {
                let heads = cp.te_heads_mut();
                let i = heads
                    .windows(2)
                    .position(|w| w[0] != w[1])
                    .expect("the TE fixture declares tunnels");
                heads.swap(i, i + 1);
            },
        },
        Class {
            name: "retarget-te-autoroute",
            rule: "D502",
            build: te_plane,
            corrupt: |(_, cp)| {
                let route = &mut cp.te_routes_mut()[0].1;
                route.0 += 1; // steer the head out of a different iface
            },
        },
        Class {
            name: "skew-ldp-csr-offset",
            rule: "D503",
            build: ldp_plane,
            corrupt: |(_, cp)| {
                // Widen the first AS's window of /32 numbers and narrow
                // the second's.
                cp.bindings.host_number_base_mut()[1] += 1;
            },
        },
        Class {
            name: "flip-ldp-advertisement",
            rule: "D504",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // The last own position of an LDP router's row moves up
                // by one, to a FEC it does not own: the row stays sorted
                // below the router's counted slots, but the router now
                // advertises a real label where it owned the prefix,
                // and null where it did not.
                let v = cp.dense_view();
                let j = net
                    .routers()
                    .iter()
                    .find_map(|r| {
                        let slots = net.as_index(r.asn).map(|a| cp.as_prefixes[a].len())?;
                        let (start, end) = (
                            v.ldp_own_base[r.id.index()] as usize,
                            v.ldp_own_base[r.id.index() + 1] as usize,
                        );
                        let all = r.config.ldp_policy == LdpPolicy::AllPrefixes;
                        (all && end > start && (v.ldp_own[end - 1] as usize + 1) < slots)
                            .then(|| end - 1)
                    })
                    .expect("an all-prefixes LDP router below its AS table's last slot");
                cp.bindings.own_mut()[j] += 1;
            },
        },
        Class {
            name: "shorten-igp-distance",
            rule: "D505",
            build: ldp_plane,
            corrupt: |(_, cp)| {
                // Off-diagonal cells of a built AS are finite: lowering
                // one breaks the shortest-path fixed point at that cell.
                let view = &mut cp.igp[0];
                let n = view.members.len();
                let cell = (0..n * n)
                    .find(|&c| c / n != c % n && view.dist[c] > 0)
                    .expect("the AS has two members a positive metric apart");
                view.dist[cell] -= 1;
            },
        },
        Class {
            name: "shadow-lfib-label",
            rule: "D506",
            build: injected_plane,
            corrupt: |(_, cp)| {
                // The second entry of the row takes the first one's
                // label: the row is no longer strictly sorted and one
                // entry shadows the other.
                let (_, row) = injected_row(cp);
                let rows = cp.lfib_explicit_mut();
                rows[row.start + 1].label = rows[row.start].label;
            },
        },
        Class {
            name: "shift-lfib-row-offset",
            rule: "D506",
            build: injected_plane,
            corrupt: |(_, cp)| {
                // Hand the row's last entry to the next router: every
                // entry and label stays as built, only the row boundary
                // moves — and the entry's branches name links that
                // router does not have.
                let (rid, _) = injected_row(cp);
                cp.lfib_base_mut()[rid.index() + 1] -= 1;
            },
        },
        Class {
            name: "tag-lfib-record-past-as-slots",
            rule: "D506",
            build: injected_plane,
            corrupt: |(net, cp)| {
                // An explicit entry names the slot just past its AS
                // table. Labels, offsets and branches stay as built.
                let (rid, row) = injected_row(cp);
                let slots = net
                    .as_index(net.router(rid).asn)
                    .map(|a| cp.as_prefixes[a].len() as u32)
                    .expect("a registered AS");
                cp.lfib_explicit_mut()[row.start].slot = slots;
            },
        },
        Class {
            name: "inject-stale-lfib-entry",
            rule: "D507",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                let r = net
                    .routers()
                    .iter()
                    .find(|r| !r.ifaces.is_empty() && cp.lfib_size(r.id) > 0)
                    .expect("an LSR with interfaces");
                // A label no LDP binding (small) or TE tunnel (500k+id)
                // produces; Pop keeps W-rules quiet — this is purely a
                // dense/logical disagreement.
                cp.inject_lfib_entry(
                    r.id,
                    Label(700_123),
                    LfibEntry {
                        slot: 0,
                        nexthops: vec![LfibHop {
                            iface: 0,
                            next: r.ifaces[0].peer,
                            action: wormhole_net::LabelAction::Pop,
                        }],
                    },
                );
            },
        },
        Class {
            name: "rewrite-lfib-action",
            rule: "D507",
            build: injected_plane,
            corrupt: |(_, cp)| {
                // An explicit override of an LDP label changes one
                // branch's label operation; its shape stays as built.
                rewrite_first_override(cp);
            },
        },
        Class {
            name: "rewrite-te-branch-action",
            rule: "D507",
            build: te_plane,
            corrupt: |(_, cp)| {
                // One explicit RSVP-TE transit branch changes its label
                // operation; the explicit pool keeps its shape.
                let hop = &mut cp.lfib_hops_mut()[0];
                hop.action = match hop.action {
                    LabelAction::Swap(l) => LabelAction::Swap(Label(l.0 + 977)),
                    LabelAction::Pop => LabelAction::SwapExplicitNull,
                    LabelAction::SwapExplicitNull => LabelAction::Pop,
                };
            },
        },
        Class {
            name: "truncate-fib-group",
            rule: "D508",
            build: ldp_plane,
            corrupt: |(_, cp)| truncate_first_fib_group(cp),
        },
        Class {
            name: "retarget-fib-pool-hop",
            rule: "D508",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // Point one populated hop out of a different interface of
                // the same router (at that interface's real peer): every
                // group keeps its offsets, only the content lies.
                let v = cp.dense_view();
                let (k, hop) = net
                    .routers()
                    .iter()
                    .filter(|r| r.ifaces.len() >= 2)
                    .find_map(|r| {
                        let own =
                            v.fib_group_base[r.id.index()]..v.fib_group_base[r.id.index() + 1];
                        own.map(|g| (v.fib_groups[g as usize], v.fib_groups[g as usize + 1]))
                            .find_map(|(start, end)| {
                                (end > start).then(|| {
                                    let iface = v.fib_pool[start as usize].0 as usize;
                                    let other = (iface + 1) % r.ifaces.len();
                                    (start as usize, (other as u32, r.ifaces[other].peer))
                                })
                            })
                    })
                    .expect("a multi-interface router with a populated FIB group");
                cp.fib_pool_mut()[k] = hop;
            },
        },
        Class {
            name: "index-fib-group-past-count",
            rule: "D508",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // One cell names the group just past its router's own:
                // the lookup reads an empty set, the offsets stay intact.
                let v = cp.dense_view();
                let r = net
                    .routers()
                    .iter()
                    .map(|r| r.id.index())
                    .find(|&r| v.fib_base[r + 1] > v.fib_base[r])
                    .expect("a router with FIB cells");
                let (cell, count) = (
                    v.fib_base[r] as usize,
                    v.fib_group_base[r + 1] - v.fib_group_base[r],
                );
                cp.fib_index_mut()[cell] = count as u16;
            },
        },
        Class {
            name: "index-ext-class-past-count",
            rule: "D513",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // AS 0's cell towards the first destination names the class
                // just past its AS's classes; words and blocks stay intact.
                let v = cp.dense_view();
                let (first, width) = v.ext_blocks[0];
                assert!(width > 0, "AS 0 has members");
                let count = (v.ext_blocks[1].0 - first) / width;
                let cell = usize::from(net.as_list().len() > 1);
                cp.ext_class_mut()[cell] = count as u16;
            },
        },
        Class {
            name: "direct-ext-over-intra-iface",
            rule: "D513",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // A border's Direct route leaves over one of its
                // intra-AS interfaces instead: still a valid word.
                let (k, route) = ext_words(net, cp)
                    .find_map(|(k, member, route)| {
                        let ExtRoute::Direct { .. } = route else {
                            return None;
                        };
                        let r = net.router(member);
                        let intra = r.ifaces.iter().position(|i| !net.link(i.link).inter_as)?;
                        Some((
                            k,
                            ExtRoute::Direct {
                                iface: intra as u32,
                            },
                        ))
                    })
                    .expect("a border with an intra-AS interface");
                cp.ext_words_mut()[k] = route.pack();
            },
        },
        Class {
            name: "retarget-ext-egress",
            rule: "D513",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // A member heads for another border of its own AS than
                // the nearest one: every shape check still holds.
                let (k, route) = ext_words(net, cp)
                    .find_map(|(k, member, route)| {
                        let ExtRoute::ViaEgress { egress } = route else {
                            return None;
                        };
                        let other = net
                            .as_members(net.router(member).asn)
                            .iter()
                            .copied()
                            .find(|&m| m != egress)?;
                        Some((k, ExtRoute::ViaEgress { egress: other }))
                    })
                    .expect("a member routing via an egress border");
                cp.ext_words_mut()[k] = route.pack();
            },
        },
        Class {
            name: "duplicate-slot-prefix",
            rule: "D509",
            build: ldp_plane,
            corrupt: |(_, cp)| {
                // Give a second link /31 slot the first one's prefix:
                // the slot count, the owners and the loopback-only LDP
                // policy's view of both slots stay as they were.
                let ap = &mut cp.as_prefixes[0];
                let mut links = (0..ap.len()).filter(|&s| ap.prefixes[s].len < 32);
                let (first, second) = (links.next(), links.next());
                let (first, second) = first.zip(second).expect("the AS has two link /31s");
                ap.prefixes[second] = ap.prefixes[first];
            },
        },
        Class {
            name: "skew-owner-offsets",
            rule: "D509",
            build: ldp_plane,
            corrupt: |(_, cp)| {
                // Start every owner span one entry late: the offsets
                // leave the pool origin and run past its end.
                for o in &mut cp.as_prefixes[0].owner_base {
                    *o += 1;
                }
            },
        },
        Class {
            name: "mis-slot-loopback",
            rule: "D510",
            build: ldp_plane,
            corrupt: |(_, cp)| {
                let table = cp.loopback_slot_mut();
                let i = table
                    .iter()
                    .position(|&s| s != u32::MAX)
                    .expect("some loopback resolves");
                table[i] += 1;
            },
        },
        Class {
            name: "mis-slot-interface",
            rule: "D510",
            build: ldp_plane,
            corrupt: |(net, cp)| {
                // Point an interface at its router's own loopback slot:
                // the router owns both slots, so only the slot's prefix
                // tells them apart.
                let r = net
                    .routers()
                    .iter()
                    .find(|r| !r.ifaces.is_empty())
                    .expect("a router with an interface");
                let lo = cp.loopback_slot(r.id).expect("the loopback has a slot");
                let at = cp.dense_view().iface_slot_base[r.id.index()] as usize;
                cp.iface_slot_mut()[at] = lo;
            },
        },
        Class {
            name: "rewrite-slot-prefix",
            rule: "D510",
            build: ldp_plane,
            corrupt: |(_, cp)| {
                // A link slot of the core AS now holds a prefix none of
                // its owners has an address in: a dead slot, which its
                // holders' memoized slots expose.
                let table = &mut cp.as_prefixes[1];
                let link = (0..table.len())
                    .find(|&s| table.prefixes[s].len == 31)
                    .expect("a link slot");
                table.prefixes[link] = Prefix::new(Addr::new(198, 51, 100, 0), 31);
            },
        },
        Class {
            name: "poison-owner-index",
            rule: "D512",
            build: ldp_plane,
            corrupt: |(net, _)| {
                // Rebind a held loopback to another router in the
                // network's owner index, leaving the routers as they are.
                let victim = net.routers()[0].loopback;
                let wrong = net.routers()[1].id;
                net.poison_owner_index(victim, Some(wrong));
            },
        },
        Class {
            name: "unindex-held-address",
            rule: "D512",
            build: ldp_plane,
            corrupt: |(net, _)| {
                // A held loopback reads as unowned: only the forward
                // half (held address → holder) can see it.
                let victim = net.routers()[0].loopback;
                net.poison_owner_index(victim, None);
            },
        },
        Class {
            name: "index-unheld-address",
            rule: "D512",
            build: gapped_plane,
            corrupt: |(net, _)| {
                // An unheld address inside a block run names a router:
                // only the reverse half (entry → holder) can see it.
                net.poison_owner_index(GAP, Some(RouterId(0)));
            },
        },
        Class {
            name: "skew-owner-directory-run",
            rule: "D512",
            build: ldp_plane,
            corrupt: |(net, _)| {
                // Start a populated block's run one entry late: its
                // addresses read their neighbours' owners and the runs
                // no longer tile the pool.
                let dir = net.owner_dir_mut();
                let k = dir
                    .iter()
                    .position(|&(_, len)| len > 0)
                    .expect("some block holds an address");
                dir[k].0 += 1;
            },
        },
        Class {
            name: "orphan-owner-directory-page",
            rule: "D512",
            build: ldp_plane,
            corrupt: |(net, _)| {
                // A page no /8 reaches, its runs empty: every lookup
                // still resolves, so only the shape half can see it.
                let dir = net.owner_dir_mut();
                let end = dir.last().map_or(0, |&(start, len)| start + len);
                dir.extend(std::iter::repeat_n((end, 0), OWNER_DIR_SIZE));
            },
        },
    ]
}

/// Every `D5xx` rule is isolated by a table corruption under
/// `check_plane`.
#[test]
fn dense_rules_each_isolated_through_check_plane() {
    let outcomes: Vec<Outcome> = dense_classes()
        .iter()
        .map(|c| c.run(plane_findings))
        .collect();
    assert_family(Family::Dense, &outcomes);
}

// ---------------------------------------------------- A3xx, A4xx, V6xx

/// The quick-scale Internet and the audit snapshot of the campaign the
/// CLI runs over it (`campaign quick`: clean, screened).
fn quick_campaign() -> &'static (Internet, CampaignAudit) {
    static RUN: OnceLock<(Internet, CampaignAudit)> = OnceLock::new();
    RUN.get_or_init(|| {
        let i = quick_internet();
        let cfg = CampaignConfig {
            hdn_threshold: 6,
            ..CampaignConfig::default()
        };
        let result = Campaign::new(&i.net, &i.cp, i.vps.clone(), cfg).run();
        let a = audit_input(&result);
        (i, a)
    })
}

fn quick_audit() -> CampaignAudit {
    quick_campaign().1.clone()
}

fn audit_findings(a: &CampaignAudit) -> Vec<Diagnostic> {
    lint::audit(&quick_campaign().0.net, a)
}

/// [`quick_audit`] as two workers ran it: one dispatched phase whose
/// shard files carry every probe, master and workers on one substrate
/// cache.
fn distributed_audit() -> CampaignAudit {
    let mut a = quick_audit();
    a.dist = Some(lint::DistAudit {
        workers: 2,
        phases: vec![lint::DistPhaseAudit {
            phase: "probe".to_string(),
            dispatched: 2,
            received: 2,
            missing: Vec::new(),
            duplicates: Vec::new(),
            shard_probes: a.probes,
        }],
        master_cache: Some(0xC0FFEE),
        worker_cache: vec![(0, 0xC0FFEE), (1, 0xC0FFEE)],
    });
    a
}

/// The first tunnel `pick` accepts, by index.
fn tunnel(a: &CampaignAudit, pick: impl Fn(&lint::TunnelAudit) -> bool) -> usize {
    a.tunnels
        .iter()
        .position(pick)
        .expect("the quick campaign reveals such a tunnel")
}

/// The signature row of `addr`, by index.
fn signature(a: &CampaignAudit, addr: Addr) -> usize {
    a.signatures
        .iter()
        .position(|s| s.0 == addr)
        .expect("a fingerprinted address")
}

/// The tier the screen gave the revelation between `x` and `y`.
fn tier(a: &CampaignAudit, x: Addr, y: Addr) -> Option<VeracityTier> {
    a.veracity
        .iter()
        .find(|v| (v.0, v.1) == (x, y))
        .map(|v| v.2)
}

/// Tunnel `t` carries an RTLA length within the A302 tolerance.
fn rtla_plausible(t: &lint::TunnelAudit) -> bool {
    t.rtl
        .is_some_and(|rtl| (rtl - t.hops.len() as i32 - 1).abs() <= lint::RTLA_GAP_TOLERANCE)
}

fn audit_classes() -> Vec<Class<CampaignAudit>> {
    vec![
        Class {
            name: "signature-off-the-taxonomy",
            rule: "A301",
            build: quick_audit,
            corrupt: |a| {
                // An address no tunnel ends at, so the RTLA and egress
                // checks never read it.
                let k = a
                    .signatures
                    .iter()
                    .position(|s| {
                        s.1.is_some() && s.2.is_some() && a.tunnels.iter().all(|t| t.egress != s.0)
                    })
                    .expect("a fully fingerprinted non-egress address");
                a.signatures[k] = (a.signatures[k].0, Some(64), Some(255));
            },
        },
        Class {
            name: "stretch-rtla-gap",
            rule: "A302",
            build: quick_audit,
            corrupt: |a| {
                let k = tunnel(a, rtla_plausible);
                let t = &mut a.tunnels[k];
                t.rtl = Some(t.hops.len() as i32 + 2 + lint::RTLA_GAP_TOLERANCE);
            },
        },
        Class {
            name: "ingress-revealed-as-a-hop",
            rule: "A303",
            build: quick_audit,
            corrupt: |a| {
                let k = tunnel(a, |t| !t.hops.is_empty());
                a.tunnels[k].hops[0] = a.tunnels[k].ingress;
            },
        },
        Class {
            name: "splice-foreign-hop",
            rule: "A304",
            build: quick_audit,
            corrupt: |a| {
                let net = &quick_campaign().0.net;
                let k = tunnel(a, |t| !t.hops.is_empty());
                let home = net.owner_asn(a.tunnels[k].ingress);
                let foreign = net
                    .routers()
                    .iter()
                    .find(|r| Some(r.asn) != home)
                    .expect("a second AS");
                a.tunnels[k].hops[0] = foreign.loopback;
            },
        },
        Class {
            name: "candidate-past-the-traces",
            rule: "A305",
            build: quick_audit,
            corrupt: |a| a.candidates[0].2 = a.num_traces,
        },
        Class {
            name: "shards-undercount-together",
            rule: "A306",
            build: quick_audit,
            corrupt: |a| {
                // Every shard keeps probing and the shards still sum to
                // the total, but the total falls one short of a probe
                // per trace.
                let shards = a.probes_by_shard.len();
                a.probes_by_shard.fill(1);
                a.probes_by_shard[0] = (a.num_traces - shards) as u64;
                a.probes = a.num_traces as u64 - 1;
            },
        },
        Class {
            name: "shard-loses-a-probe",
            rule: "A307",
            build: quick_audit,
            corrupt: |a| a.probes_by_shard[0] -= 1,
        },
        Class {
            name: "shard-left-idle",
            rule: "A307",
            build: quick_audit,
            corrupt: |a| {
                // The sum holds; one vantage point's work moved to
                // another.
                let idle = std::mem::take(&mut a.probes_by_shard[1]);
                a.probes_by_shard[0] += idle;
            },
        },
        Class {
            name: "misclaim-method",
            rule: "A308",
            build: quick_audit,
            corrupt: |a| {
                // Neither claim is DPR, so the egress evidence check
                // (V603) stays out of it.
                let k = tunnel(a, |t| t.method.is_some());
                let t = &mut a.tunnels[k];
                t.method = Some(if t.method == Some(MethodClaim::Either) {
                    MethodClaim::Brpr
                } else {
                    MethodClaim::Either
                });
            },
        },
        Class {
            name: "shrink-snapshot-links",
            rule: "A310",
            build: quick_audit,
            corrupt: |a| {
                // An add-only builder's cumulative links shrank between
                // its last two phases.
                let n = a.snapshot_deltas.len();
                a.snapshot_deltas[n - 1].3 = a.snapshot_deltas[n - 2].3 - 1;
            },
        },
        Class {
            name: "worker-neither-received-nor-missing",
            rule: "A311",
            build: distributed_audit,
            corrupt: |a| {
                let ledger = a.dist.as_mut().expect("a distributed ledger");
                ledger.phases[0].received -= 1;
            },
        },
        Class {
            name: "worker-resolves-another-substrate",
            rule: "A312",
            build: distributed_audit,
            corrupt: |a| {
                let ledger = a.dist.as_mut().expect("a distributed ledger");
                ledger.worker_cache[1].1 ^= 1;
            },
        },
    ]
}

fn robustness_classes() -> Vec<Class<CampaignAudit>> {
    vec![
        Class {
            name: "trace-overruns-its-budget",
            rule: "A401",
            build: quick_audit,
            corrupt: |a| {
                let budget = a.trace_budget.expect("the campaign runs with a budget");
                a.trace_probes[0].0 = budget + 1;
            },
        },
        Class {
            name: "abandon-with-hops",
            rule: "A402",
            build: quick_audit,
            corrupt: |a| {
                let k = a
                    .revelations
                    .iter()
                    .position(|r| r.3 > 0)
                    .expect("a revelation with hops");
                a.revelations[k].2 = RevelationKind::Abandoned;
            },
        },
        Class {
            name: "degrade-a-missing-vp",
            rule: "A403",
            build: quick_audit,
            corrupt: |a| {
                let vps = a.probes_by_shard.len();
                a.degraded_shards.push((vps, "probe".to_string()));
            },
        },
    ]
}

fn veracity_classes() -> Vec<Class<CampaignAudit>> {
    vec![
        Class {
            name: "rtl-against-cisco-egress",
            rule: "V601",
            build: quick_audit,
            corrupt: |a| {
                // <128, 128> is in the taxonomy (A301 stays quiet) but
                // is not the <255, 64> pair RTLA needs.
                let k = tunnel(a, |t| t.rtl.is_some());
                let s = signature(a, a.tunnels[k].egress);
                a.signatures[s] = (a.signatures[s].0, Some(128), Some(128));
            },
        },
        Class {
            name: "loop-artifact-left-standing",
            rule: "V602",
            build: quick_audit,
            corrupt: |a| {
                let k = a
                    .revelation_artifacts
                    .iter()
                    .position(|r| tier(a, r.0, r.1) != Some(VeracityTier::Contradicted))
                    .expect("a revelation the screen let stand");
                a.revelation_artifacts[k].2 = 1; // a re-trace revisited a hop
            },
        },
        Class {
            name: "corroborate-hidden-egress",
            rule: "V603",
            build: quick_audit,
            corrupt: |a| {
                // The egress of a corroborated DPR tunnel never answered
                // an echo: an incomplete signature, which A301 and V601
                // skip.
                let k = tunnel(a, |t| {
                    t.method == Some(MethodClaim::Dpr)
                        && tier(a, t.ingress, t.egress) == Some(VeracityTier::Corroborated)
                });
                let s = signature(a, a.tunnels[k].egress);
                a.signatures[s].2 = None;
            },
        },
        Class {
            name: "corroborate-through-stars",
            rule: "V604",
            build: quick_audit,
            corrupt: |a| {
                let k = a
                    .revelation_artifacts
                    .iter()
                    .position(|r| tier(a, r.0, r.1) == Some(VeracityTier::Corroborated))
                    .expect("a corroborated revelation");
                a.revelation_artifacts[k].3 = 2; // stars in the re-traces
            },
        },
        Class {
            name: "double-graded-revelation",
            rule: "V605",
            build: quick_audit,
            corrupt: |a| {
                let row = a.veracity[0];
                a.veracity.push(row); // one revelation, two tiers
            },
        },
        Class {
            name: "drop-screening-under-deception",
            rule: "V606",
            build: quick_audit,
            corrupt: |a| {
                // An adversarial run whose screening pass was skipped.
                a.deceptive_plan = true;
                a.veracity.clear();
            },
        },
    ]
}

/// Every `A3xx`, `A4xx` and `V6xx` rule is isolated by a corruption of
/// the quick campaign's audit snapshot under `lint::audit`.
#[test]
fn campaign_rules_each_isolated_through_audit() {
    for (family, classes) in [
        (Family::Audit, audit_classes()),
        (Family::Robustness, robustness_classes()),
        (Family::Veracity, veracity_classes()),
    ] {
        let outcomes: Vec<Outcome> = classes.iter().map(|c| c.run(audit_findings)).collect();
        assert_family(family, &outcomes);
    }
}

// ------------------------------------------------------ D507 rendering

/// The rendered `D507` finding for `router`, exactly as `lint::render`
/// prints it.
fn d507_line(net: &Network, router: RouterId, message: &str, hint: &str) -> String {
    format!(
        "error[D507] router {}: {message}\n  fix: {hint}",
        net.router(router).name
    )
}

/// The three `D507` findings — stale, rewritten and missing entries —
/// keep their exact rendered text, label and location.
#[test]
fn d507_findings_render_stale_rewritten_and_missing_entries() {
    let render = |net: &Network, cp: &ControlPlane| {
        let diags = lint::verify_dense(net, cp);
        assert!(
            diags.iter().all(|d| d.code == "D507"),
            "{}",
            lint::render(&diags)
        );
        lint::render(&diags)
    };

    // Stale: an injected label nothing produces.
    let (net, mut cp) = ldp_plane();
    let r = net
        .routers()
        .iter()
        .find(|r| !r.ifaces.is_empty() && cp.lfib_size(r.id) > 0)
        .expect("an LSR with interfaces");
    cp.inject_lfib_entry(
        r.id,
        Label(700_123),
        LfibEntry {
            slot: 0,
            nexthops: vec![LfibHop {
                iface: 0,
                next: r.ifaces[0].peer,
                action: LabelAction::Pop,
            }],
        },
    );
    assert_eq!(
        render(&net, &cp),
        d507_line(
            &net,
            r.id,
            "stale LFIB entry for label L700123: no LDP binding or TE tunnel produces it",
            "nothing can address this entry correctly; it was injected or left behind",
        ) + "\n1 error(s), 0 warning(s), 0 info\n"
    );

    // Rewritten: an explicit override of an LDP label changes a
    // branch.
    let (net, mut cp) = injected_plane();
    let (rid, label) = rewrite_first_override(&mut cp);
    assert_eq!(
        render(&net, &cp),
        d507_line(
            &net,
            rid,
            &format!("LFIB entry for label {label} disagrees with the logical program"),
            "the entry was rewritten after build; LSPs through it break mid-path",
        ) + "\n1 error(s), 0 warning(s), 0 info\n"
    );

    // Missing: the last RSVP-TE entry of a row moves one label up, so
    // its own label is missing and the new one is stale (the row stays
    // sorted, so D506 stays quiet).
    let (net, mut cp) = te_plane();
    let base = cp.dense_view().lfib_base;
    let (r, end) = base
        .windows(2)
        .enumerate()
        .find(|(_, w)| w[1] > w[0])
        .map(|(r, w)| (r, w[1] as usize))
        .expect("a transit LSR");
    let rid = RouterId(r as u32);
    let last = &mut cp.lfib_explicit_mut()[end - 1];
    let (old, new) = (Label(last.label), Label(last.label + 1));
    last.label += 1;
    let stale = d507_line(
        &net,
        rid,
        &format!("stale LFIB entry for label {new}: no LDP binding or TE tunnel produces it"),
        "nothing can address this entry correctly; it was injected or left behind",
    );
    let missing = d507_line(
        &net,
        rid,
        &format!("missing LFIB entry for label {old}: the logical program installs it"),
        "labeled packets for this FEC would die here with an unlabeled fallback",
    );
    // `render` sorts by message within a location: "missing" < "stale".
    assert_eq!(
        render(&net, &cp),
        format!("{missing}\n{stale}\n2 error(s), 0 warning(s), 0 info\n")
    );
}
