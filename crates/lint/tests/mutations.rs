//! The mutation self-test: the lint suite linting itself.
//!
//! Each corruption class takes a clean built plane, seeds exactly one
//! dense-table corruption through the `wormhole-net` `mutation` hooks,
//! and asserts that the D5xx verifier reports **exactly** the intended
//! rule — no misses (the corruption slipped through) and no cascades
//! (one corruption drowning the report in unrelated codes). A final
//! coverage test proves every registered D5xx rule is fired by at
//! least one class.
//!
//! The LDP classes corrupt the tables every label is computed from: a
//! skewed per-AS offset of the `/32` numbers (`D503`) and an own slot
//! moved to its unowned neighbor, sorted order intact (`D504`).
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
//! Three break the per-AS slot tables or the slots memoized from them:
//! a prefix given a second slot and owner offsets skewed past the pool
//! (`D509`), and an interface pointed at its router's own loopback
//! slot (`D510`) — the router owns both slots, so only the prefix the
//! slot holds tells them apart.
//!
//! One more class corrupts the campaign-audit snapshot instead of the
//! dense plane: the incremental-aggregation accounting that `A310`
//! guards ([`audit_class`]).
//!
//! Six further classes ([`v6_classes`]) corrupt the revelation-veracity
//! slice of the snapshot — tiers, artifact evidence, screening flags —
//! one per `V6xx` rule, under the same exactly-one-rule contract.

use std::collections::BTreeSet;
use std::sync::OnceLock;
use wormhole_lint as lint;
use wormhole_net::{
    Addr, Asn, ControlPlane, ExtRoute, Label, LabelAction, LdpPolicy, LfibEntry, LfibHop, LinkOpts,
    Network, NetworkBuilder, PoppingMode, RouterConfig, RouterId, Vendor, OWNER_DIR_SIZE,
};
use wormhole_topo::{generate, gns3_fig2, gns3_fig2_te, Fig2Config, InternetConfig};

/// One seeded corruption class.
struct Class {
    name: &'static str,
    /// The single D5xx rule that must catch it.
    rule: &'static str,
    build: fn() -> (Network, ControlPlane),
    corrupt: fn(&mut Network, &mut ControlPlane),
}

/// LDP-rich fixture: the Fig. 2 testbed with LDP on all prefixes.
fn ldp_plane() -> (Network, ControlPlane) {
    let s = gns3_fig2(Fig2Config::BackwardRecursive);
    (s.net, s.cp)
}

/// TE fixture: the Fig. 2 testbed steering through RSVP-TE tunnels.
fn te_plane() -> (Network, ControlPlane) {
    let s = gns3_fig2_te(PoppingMode::Php, false);
    (s.net, s.cp)
}

/// An unheld address inside [`gapped_plane`]'s one loopback run.
const GAP: Addr = Addr::new(10, 0, 0, 3);

/// Two linked routers with loopbacks `10.0.0.1` and `10.0.0.5`: the
/// owner index's run for their block holds unowned entries, [`GAP`]
/// among them.
fn gapped_plane() -> (Network, ControlPlane) {
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
fn injected_plane() -> (Network, ControlPlane) {
    static PLANE: OnceLock<(Network, ControlPlane)> = OnceLock::new();
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

/// The D5xx codes fired over `(net, cp)`, as a set.
fn dense_codes(net: &Network, cp: &ControlPlane) -> BTreeSet<&'static str> {
    lint::verify_dense(net, cp).iter().map(|d| d.code).collect()
}

fn classes() -> Vec<Class> {
    vec![
        Class {
            name: "swap-te-csr-offsets",
            rule: "D501",
            build: te_plane,
            corrupt: |_, cp| {
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
            corrupt: |_, cp| {
                let route = &mut cp.te_routes_mut()[0].1;
                route.0 += 1; // steer the head out of a different iface
            },
        },
        Class {
            name: "skew-ldp-csr-offset",
            rule: "D503",
            build: ldp_plane,
            corrupt: |_, cp| {
                // Widen the first AS's window of /32 numbers and narrow
                // the second's.
                cp.bindings.host_number_base_mut()[1] += 1;
            },
        },
        Class {
            name: "flip-ldp-advertisement",
            rule: "D504",
            build: ldp_plane,
            corrupt: |net, cp| {
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
            corrupt: |_, cp| {
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
            corrupt: |_, cp| {
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
            corrupt: |_, cp| {
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
            corrupt: |net, cp| {
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
            corrupt: |net, cp| {
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
            corrupt: |_, cp| {
                // An explicit override of an LDP label changes one
                // branch's label operation; its shape stays as built.
                rewrite_first_override(cp);
            },
        },
        Class {
            name: "rewrite-te-branch-action",
            rule: "D507",
            build: te_plane,
            corrupt: |_, cp| {
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
            corrupt: |_, cp| truncate_first_fib_group(cp),
        },
        Class {
            name: "retarget-fib-pool-hop",
            rule: "D508",
            build: ldp_plane,
            corrupt: |net, cp| {
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
            corrupt: |net, cp| {
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
            corrupt: |net, cp| {
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
            corrupt: |net, cp| {
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
            corrupt: |net, cp| {
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
            corrupt: |_, cp| {
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
            corrupt: |_, cp| {
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
            corrupt: |_, cp| {
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
            corrupt: |net, cp| {
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
            name: "poison-owner-index",
            rule: "D512",
            build: ldp_plane,
            corrupt: |net, _| {
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
            corrupt: |net, _| {
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
            corrupt: |net, _| {
                // An unheld address inside a block run names a router:
                // only the reverse half (entry → holder) can see it.
                net.poison_owner_index(GAP, Some(RouterId(0)));
            },
        },
        Class {
            name: "skew-owner-directory-run",
            rule: "D512",
            build: ldp_plane,
            corrupt: |net, _| {
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
            corrupt: |net, _| {
                // A page no /8 reaches, its runs empty: every lookup
                // still resolves, so only the shape half can see it.
                let dir = net.owner_dir_mut();
                let end = dir.last().map_or(0, |&(start, len)| start + len);
                dir.extend(std::iter::repeat_n((end, 0), OWNER_DIR_SIZE));
            },
        },
    ]
}

/// Every corruption class starts clean, then is caught by exactly the
/// intended rule — the acceptance criterion of the verifier.
#[test]
fn each_corruption_caught_by_exactly_the_intended_rule() {
    for class in classes() {
        let (mut net, mut cp) = (class.build)();
        assert!(
            dense_codes(&net, &cp).is_empty(),
            "{}: fixture not clean before corruption",
            class.name
        );
        (class.corrupt)(&mut net, &mut cp);
        let fired = dense_codes(&net, &cp);
        assert_eq!(
            fired,
            BTreeSet::from([class.rule]),
            "{}: expected exactly {} to fire",
            class.name,
            class.rule
        );
    }
}

/// The coverage table: every registered D5xx rule is exercised by at
/// least one corruption class, and every class names a dense rule.
#[test]
fn every_dense_rule_fired_by_a_corruption_class() {
    let covered: BTreeSet<&str> = classes().iter().map(|c| c.rule).collect();
    let registered: BTreeSet<&str> = lint::RULES
        .iter()
        .filter(|r| r.family == lint::Family::Dense)
        .map(|r| r.code)
        .collect();
    assert_eq!(covered, registered, "coverage table incomplete");
    assert!(classes().len() >= 8, "the issue demands ≥ 8 classes");
    for c in classes() {
        let info = lint::rule(c.rule).expect("class rule registered");
        assert_eq!(info.family, lint::Family::Dense, "{}", c.name);
    }
}

/// The 13th corruption class. It lives on the campaign-audit snapshot
/// rather than a `(net, cp)` pair, so it gets its own fixture: a
/// consistent incremental-aggregation transcript whose cumulative link
/// counter is then shrunk — the one thing an add-only builder can never
/// legitimately do.
struct AuditClass {
    name: &'static str,
    /// The single rule that must catch it.
    rule: &'static str,
    build: fn() -> lint::CampaignAudit,
    corrupt: fn(&mut lint::CampaignAudit),
}

fn audit_class() -> AuditClass {
    AuditClass {
        name: "shrink-snapshot-links",
        rule: "A310",
        build: || lint::CampaignAudit {
            num_traces: 4,
            probes: 40,
            snapshot_deltas: vec![
                ("bootstrap".to_string(), 6, 5, 4, 7),
                ("probe".to_string(), 4, 8, 9, 12),
            ],
            snapshot_checksum: Some(0xFEED_FACE),
            snapshot_oracle: Some((10, 8, 9, 12, 0xFEED_FACE)),
            ..lint::CampaignAudit::default()
        },
        corrupt: |a| {
            a.snapshot_deltas[1].3 = 2; // links shrank mid-campaign
            a.snapshot_oracle = None; // the conservation check alone must catch it
        },
    }
}

/// The audit corruption class starts clean, then is caught by exactly
/// `A310` — same acceptance criterion as the dense classes.
#[test]
fn audit_corruption_caught_by_exactly_the_intended_rule() {
    let class = audit_class();
    let (net, _) = ldp_plane();
    let mut a = (class.build)();
    let clean: BTreeSet<&'static str> = lint::audit(&net, &a).iter().map(|d| d.code).collect();
    assert!(
        clean.is_empty(),
        "{}: fixture not clean before corruption",
        class.name
    );
    (class.corrupt)(&mut a);
    let fired: BTreeSet<&'static str> = lint::audit(&net, &a).iter().map(|d| d.code).collect();
    assert_eq!(
        fired,
        BTreeSet::from([class.rule]),
        "{}: expected exactly {} to fire",
        class.name,
        class.rule
    );
    let info = lint::rule(class.rule).expect("class rule registered");
    assert_eq!(info.family, lint::Family::Audit, "{}", class.name);
    // 26 dense classes + this one: the 27-class contract.
    assert_eq!(classes().len() + 1, 27);
}

/// A clean screened-campaign snapshot the V6xx classes corrupt: one
/// DPR-revealed tunnel, fully corroborated, every cross-check
/// consistent. Addresses live in TEST-NET-3 so no fixture network owns
/// them (A304 stays out of the way).
fn veracity_fixture() -> lint::CampaignAudit {
    let ingress = Addr::new(203, 0, 113, 1);
    let egress = Addr::new(203, 0, 113, 2);
    let hop = Addr::new(203, 0, 113, 3);
    lint::CampaignAudit {
        signatures: vec![
            (ingress, Some(255), Some(255)),
            (egress, Some(255), Some(64)),
            (hop, Some(255), Some(64)),
        ],
        tunnels: vec![lint::TunnelAudit {
            ingress,
            egress,
            hops: vec![hop],
            rtl: Some(2),
            steps: Vec::new(),
            method: Some(lint::MethodClaim::Dpr),
        }],
        num_traces: 1,
        probes: 10,
        revelations: vec![(ingress, egress, lint::RevelationKind::Complete, 1)],
        veracity: vec![(ingress, egress, lint::VeracityTier::Corroborated)],
        revelation_artifacts: vec![(ingress, egress, 0, 0, false)],
        deceptive_plan: true,
        ..lint::CampaignAudit::default()
    }
}

/// One corruption class per V6xx rule, over [`veracity_fixture`].
fn v6_classes() -> Vec<AuditClass> {
    vec![
        AuditClass {
            name: "rtl-against-cisco-egress",
            rule: "V601",
            build: veracity_fixture,
            corrupt: |a| {
                // The egress fingerprint flips to <128, 128> (still in
                // taxonomy, so A301 stays quiet) while the tunnel keeps
                // its RTLA length — a measurement RTLA cannot make.
                a.signatures[1] = (a.signatures[1].0, Some(128), Some(128));
            },
        },
        AuditClass {
            name: "forged-loop-still-corroborated",
            rule: "V602",
            build: veracity_fixture,
            corrupt: |a| {
                a.revelation_artifacts[0].2 = 1; // a re-trace revisited a hop
            },
        },
        AuditClass {
            name: "corroborate-hidden-egress",
            rule: "V603",
            build: veracity_fixture,
            corrupt: |a| {
                // The egress never answered an echo — its er evidence
                // vanishes (incomplete signature, so A301/V601 skip).
                a.signatures[1] = (a.signatures[1].0, Some(255), None);
            },
        },
        AuditClass {
            name: "corroborate-through-stars",
            rule: "V604",
            build: veracity_fixture,
            corrupt: |a| {
                a.revelation_artifacts[0].3 = 2; // stars in the re-traces
            },
        },
        AuditClass {
            name: "double-graded-revelation",
            rule: "V605",
            build: veracity_fixture,
            corrupt: |a| {
                let row = a.veracity[0];
                a.veracity.push(row); // one revelation, two tiers
            },
        },
        AuditClass {
            name: "drop-screening-under-deception",
            rule: "V606",
            build: veracity_fixture,
            corrupt: |a| {
                a.veracity.clear(); // adversarial run, nothing screened
            },
        },
    ]
}

/// Every V6xx corruption class starts clean, then is caught by exactly
/// the intended rule.
#[test]
fn veracity_corruption_caught_by_exactly_the_intended_rule() {
    let (net, _) = ldp_plane();
    for class in v6_classes() {
        let mut a = (class.build)();
        let clean: BTreeSet<&'static str> = lint::audit(&net, &a).iter().map(|d| d.code).collect();
        assert!(
            clean.is_empty(),
            "{}: fixture not clean before corruption",
            class.name
        );
        (class.corrupt)(&mut a);
        let fired: BTreeSet<&'static str> = lint::audit(&net, &a).iter().map(|d| d.code).collect();
        assert_eq!(
            fired,
            BTreeSet::from([class.rule]),
            "{}: expected exactly {} to fire",
            class.name,
            class.rule
        );
    }
}

/// Coverage: every registered V6xx rule is exercised by exactly one
/// corruption class, bringing the suite to 33 classes in total.
#[test]
fn every_veracity_rule_fired_by_a_corruption_class() {
    let covered: BTreeSet<&str> = v6_classes().iter().map(|c| c.rule).collect();
    let registered: BTreeSet<&str> = lint::RULES
        .iter()
        .filter(|r| r.family == lint::Family::Veracity)
        .map(|r| r.code)
        .collect();
    assert_eq!(covered, registered, "coverage table incomplete");
    for c in v6_classes() {
        let info = lint::rule(c.rule).expect("class rule registered");
        assert_eq!(info.family, lint::Family::Veracity, "{}", c.name);
    }
    assert_eq!(classes().len() + 1 + v6_classes().len(), 33);
}

/// Corrupted planes also fail the combined `check_plane` gate — the
/// entry point Session/Campaign actually run.
#[test]
fn check_plane_carries_dense_findings() {
    let (net, mut cp) = ldp_plane();
    truncate_first_fib_group(&mut cp);
    let diags = lint::check_plane(&net, &cp);
    assert!(lint::has_errors(&diags));
    assert!(diags.iter().any(|d| d.code == "D508"));
    // A malformed owner CSR is reported, not read through by W108.
    let (net, mut cp) = ldp_plane();
    for o in &mut cp.as_prefixes[0].owner_base {
        *o += 1;
    }
    let codes: BTreeSet<&str> = lint::check_plane(&net, &cp)
        .iter()
        .map(|d| d.code)
        .collect();
    assert_eq!(codes, BTreeSet::from(["D509"]));
}

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
