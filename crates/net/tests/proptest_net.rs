//! Property-based tests for the packet substrate: LPM routing against a
//! naive reference, `auto_routes` against the per-target BFS it replaced,
//! address-pool soundness, and GTP stack round trips.

use dlte_net::gtp::{decapsulate, encapsulate, GTP_OVERHEAD_BYTES};
use dlte_net::node::NodeInfo;
use dlte_net::pool::{PacketPool, PacketRef, PoolError};
use dlte_net::{Addr, AddrPool, LinkConfig, NetworkBuilder, Packet, Prefix, TunnelHeader};
use dlte_sim::SimTime;
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

fn arb_addr() -> impl Strategy<Value = Addr> {
    any::<u32>().prop_map(Addr)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, len)| Prefix::new(Addr(a), len))
}

/// One mutation against a routing table / address set, for driving the
/// model-based FIB test below. `Replace` and `RemoveExisting` pick an
/// installed route by index (modulo the table size), so replacement and
/// removal hit real entries instead of relying on random collisions.
#[derive(Clone, Debug)]
enum FibOp {
    Set(Prefix, usize),
    Replace(usize, usize),
    Remove(Prefix),
    RemoveExisting(usize),
    /// Keep routes that avoid link `.0` and are at least `.1` long.
    Retain(usize, u8),
    AddAddr(Addr),
    RemoveAddr(Addr),
    /// Install a /32 to the `.0`-th target address (modulo the target
    /// count) via link `.1`.
    SetTarget(usize, usize),
    /// Remove the /32 to the `.0`-th target address.
    RemoveTarget(usize),
    /// Drop the /32s to the target addresses whose index bit is set.
    RetainTargets(u32),
}

/// The reference the FIB is checked against: a plain list of unique
/// prefixes and the owned addresses, with a linear longest-prefix scan.
/// `targets` are the addresses the `*Target` ops pick from.
#[derive(Clone, Default)]
struct FibModel {
    routes: Vec<(Prefix, usize)>,
    addrs: Vec<Addr>,
    targets: Vec<Addr>,
}

impl FibModel {
    fn set(&mut self, p: Prefix, l: usize) {
        match self.routes.iter_mut().find(|(q, _)| *q == p) {
            Some(e) => e.1 = l,
            None => self.routes.push((p, l)),
        }
    }

    fn route_for(&self, dst: Addr) -> Option<usize> {
        self.routes
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len)
            .map(|&(_, l)| l)
    }

    fn target(&self, i: usize) -> Option<Prefix> {
        let n = self.targets.len();
        (n > 0).then(|| Prefix::new(self.targets[i % n], 32))
    }

    /// Apply `op` to the model and to `info` alike.
    fn apply(&mut self, info: &mut NodeInfo, op: &FibOp) {
        match *op {
            FibOp::Set(p, l) => {
                self.set(p, l);
                info.set_route(p, l);
            }
            FibOp::Replace(i, l) => {
                if let Some(&(p, _)) = self.routes.get(i % self.routes.len().max(1)) {
                    self.set(p, l);
                    info.set_route(p, l);
                }
            }
            FibOp::Remove(p) => {
                let had = self.routes.iter().any(|&(q, _)| q == p);
                self.routes.retain(|&(q, _)| q != p);
                assert_eq!(info.remove_route(p), had, "remove_route({p}) result");
            }
            FibOp::RemoveExisting(i) => {
                if !self.routes.is_empty() {
                    let (p, _) = self.routes.remove(i % self.routes.len());
                    assert!(info.remove_route(p), "installed {p} not removed");
                }
            }
            FibOp::Retain(link, min_len) => {
                let keep = |p: Prefix, l: usize| l != link && p.len >= min_len;
                self.routes.retain(|&(p, l)| keep(p, l));
                info.retain_routes(keep);
            }
            FibOp::AddAddr(a) => {
                self.addrs.push(a);
                info.add_addr(a);
            }
            FibOp::RemoveAddr(a) => {
                let had = self.addrs.contains(&a);
                self.addrs.retain(|&b| b != a);
                assert_eq!(info.remove_addr(a), had, "remove_addr({a}) result");
            }
            FibOp::SetTarget(i, l) => {
                if let Some(p) = self.target(i) {
                    self.apply(info, &FibOp::Set(p, l));
                }
            }
            FibOp::RemoveTarget(i) => {
                if let Some(p) = self.target(i) {
                    self.apply(info, &FibOp::Remove(p));
                }
            }
            FibOp::RetainTargets(bits) => {
                let targets = self.targets.clone();
                let keep = |p: Prefix, _| {
                    let hit = targets.iter().position(|&t| t == p.addr);
                    !(p.len == 32 && hit.is_some_and(|k| bits >> (k % 32) & 1 == 1))
                };
                self.routes.retain(|&(p, l)| keep(p, l));
                info.retain_routes(keep);
            }
        }
    }
}

/// A route list in a canonical order, for comparing route sets.
fn sorted_routes(routes: impl IntoIterator<Item = (Prefix, usize)>) -> Vec<(u32, u8, usize)> {
    let mut v: Vec<_> = routes
        .into_iter()
        .map(|(p, l)| (p.addr.0, p.len, l))
        .collect();
    v.sort_unstable();
    v
}

/// Addresses drawn from a handful of high bits so random prefixes actually
/// overlap and contain each other, instead of being scattered across 2^32.
fn clustered_addr() -> impl Strategy<Value = Addr> {
    prop_oneof![
        (0u32..8, any::<u32>()).prop_map(|(hi, lo)| Addr((hi << 29) | (lo & 0x1FFF_FFFF))),
        arb_addr(),
    ]
}

fn clustered_prefix() -> impl Strategy<Value = Prefix> {
    // The vendored prop_oneof! has no weights; repeating an arm biases the
    // draw. Extra weight lands on len 0 (Prefix::DEFAULT-style catch-alls)
    // and len 32 (host routes) — the LPM edge lengths.
    let len = prop_oneof![0u8..=32, 0u8..=32, Just(0u8), Just(32u8)];
    (clustered_addr(), len).prop_map(|(a, l)| Prefix::new(a, l))
}

fn arb_fib_op() -> impl Strategy<Value = FibOp> {
    prop_oneof![
        (clustered_prefix(), 0usize..8).prop_map(|(p, l)| FibOp::Set(p, l)),
        (clustered_prefix(), 0usize..8).prop_map(|(p, l)| FibOp::Set(p, l)),
        (any::<usize>(), 0usize..8).prop_map(|(i, l)| FibOp::Replace(i, l)),
        clustered_prefix().prop_map(FibOp::Remove),
        any::<usize>().prop_map(FibOp::RemoveExisting),
        (0usize..8, 0u8..=32).prop_map(|(l, len)| FibOp::Retain(l, len)),
        clustered_addr().prop_map(FibOp::AddAddr),
        clustered_addr().prop_map(FibOp::RemoveAddr),
    ]
}

fn arb_auto_op() -> impl Strategy<Value = FibOp> {
    prop_oneof![
        arb_fib_op(),
        arb_fib_op(),
        (any::<usize>(), 0usize..8).prop_map(|(i, l)| FibOp::SetTarget(i, l)),
        any::<usize>().prop_map(FibOp::RemoveTarget),
        any::<u32>().prop_map(FibOp::RetainTargets),
    ]
}

/// A small topology for the `auto_routes` property. The last node has no
/// link; node 0 owns two addresses; nodes 1 and 2 share one; every other
/// address comes from a pool of six, so more owners collide. `explicit`
/// routes are installed before `auto_routes`, which runs a second time
/// when `twice` is set (the same routes again).
#[derive(Clone, Debug)]
struct AutoTopo {
    links: Vec<(usize, usize)>,
    addrs: Vec<Vec<Addr>>,
    explicit: Vec<(usize, Prefix, usize)>,
    twice: bool,
}

fn pool_addr(k: u8) -> Addr {
    Addr::new(10, 0, 0, k)
}

fn arb_auto_topo() -> impl Strategy<Value = AutoTopo> {
    (3usize..=12).prop_flat_map(|n| {
        let linked = n - 1;
        let link = (0..linked, 1..linked).prop_map(move |(a, d)| (a, (a + d) % linked));
        let addrs = prop::collection::vec(
            prop::collection::vec((0u8..6).prop_map(pool_addr), 0..=2),
            n,
        );
        // Explicit routes: /32s to pool addresses, the default route, and
        // clustered prefixes.
        let prefix = prop_oneof![
            (0u8..9).prop_map(|k| Prefix::new(pool_addr(k), 32)),
            Just(Prefix::DEFAULT),
            clustered_prefix(),
        ];
        let explicit = prop::collection::vec((0..n, prefix, 0usize..8), 0..10);
        let links = prop::collection::vec(link, 0..20);
        (links, addrs, explicit, any::<bool>()).prop_map(|(links, mut addrs, explicit, twice)| {
            addrs[0].extend([pool_addr(6), pool_addr(7)]);
            addrs[1].push(pool_addr(8));
            addrs[2].push(pool_addr(8));
            AutoTopo {
                links,
                addrs,
                explicit,
                twice,
            }
        })
    })
}

/// The per-node × per-target algorithm `auto_routes` replaced, replayed
/// into one model per node: after the explicit routes, a BFS from each
/// addressed node in node order installs a /32 per owned address at every
/// node it reaches, the lower link id winning ties and a later owner
/// overwriting an earlier one.
fn reference_auto_routes(topo: &AutoTopo) -> Vec<FibModel> {
    let n = topo.addrs.len();
    let mut models = vec![FibModel::default(); n];
    for &(node, p, l) in &topo.explicit {
        models[node].set(p, l);
    }
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (lid, &(a, b)) in topo.links.iter().enumerate() {
        adj[a].push((b, lid));
        adj[b].push((a, lid));
    }
    for target in 0..n {
        if topo.addrs[target].is_empty() {
            continue;
        }
        let mut via: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::from([target]);
        seen[target] = true;
        while let Some(u) = q.pop_front() {
            for &(v, lid) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    via[v] = Some(lid);
                    q.push_back(v);
                }
            }
        }
        for (node, hop) in via.iter().enumerate() {
            if let Some(link) = *hop {
                for &a in &topo.addrs[target] {
                    models[node].set(Prefix::new(a, 32), link);
                }
            }
        }
    }
    models
}

/// Every node's table built by `auto_routes` on `topo`.
fn built_auto_routes(topo: &AutoTopo) -> Vec<NodeInfo> {
    let mut b = NetworkBuilder::new(1);
    for (i, addrs) in topo.addrs.iter().enumerate() {
        let node = b.node(format!("n{i}"));
        for &a in addrs {
            b.addr(node, a);
        }
    }
    for &(a, c) in &topo.links {
        b.link(a, c, LinkConfig::lan());
    }
    for &(node, p, l) in &topo.explicit {
        b.route(node, p, l);
    }
    b.auto_routes();
    if topo.twice {
        b.auto_routes();
    }
    b.build().into_world().core.nodes
}

/// `info` and `model` agree on the route set and on every lookup of the
/// target addresses, `probes`, and the model's route bases.
fn assert_same_fib(
    info: &NodeInfo,
    model: &FibModel,
    probes: &[Addr],
    ctx: &dyn std::fmt::Display,
) {
    assert_eq!(
        sorted_routes(info.routes()),
        sorted_routes(model.routes.iter().copied()),
        "route set diverged: {ctx}"
    );
    let bases = model.routes.iter().map(|&(p, _)| p.addr);
    for dst in model.targets.iter().chain(probes).copied().chain(bases) {
        assert_eq!(
            info.route_for(dst),
            model.route_for(dst),
            "lookup of {dst} diverged: {ctx}"
        );
    }
}

proptest! {
    /// `auto_routes` installs exactly the routes of the per-target BFS
    /// it replaced — with routes installed before it, a disconnected node,
    /// a two-address node and a shared address — and the tables it leaves
    /// keep their longest-prefix semantics through any interleaving of
    /// route and address churn, including churn on the target /32s.
    #[test]
    fn auto_routes_match_the_per_target_bfs_under_churn(
        topo in arb_auto_topo(),
        ops in prop::collection::vec(arb_auto_op(), 1..40),
        probes in prop::collection::vec(clustered_addr(), 1..8),
    ) {
        let mut infos = built_auto_routes(&topo);
        let mut models = reference_auto_routes(&topo);
        let mut targets: Vec<Addr> = topo.addrs.concat();
        targets.sort_unstable();
        targets.dedup();
        for (node, (info, model)) in infos.iter_mut().zip(&mut models).enumerate() {
            model.addrs = topo.addrs[node].clone();
            model.targets = targets.clone();
            assert_same_fib(info, model, &probes, &format_args!("node {node} after auto_routes"));
            for op in &ops {
                model.apply(info, op);
                assert_same_fib(info, model, &probes, &format_args!("node {node} after {op:?}"));
            }
        }
    }

    /// Longest-prefix match agrees with a naive scan over the last-written
    /// route per prefix (`set_route` replaces), on unclustered tables.
    #[test]
    fn lpm_matches_reference(
        routes in prop::collection::vec((arb_prefix(), 0usize..8), 0..20),
        dst in arb_addr(),
    ) {
        let mut info = NodeInfo::new("r");
        let mut model = FibModel::default();
        for &(p, l) in &routes {
            model.apply(&mut info, &FibOp::Set(p, l));
        }
        prop_assert_eq!(info.route_for(dst), model.route_for(dst));
    }

    /// The incrementally edited FIB stays equivalent to a plain list model
    /// across arbitrary interleavings of route installation, replacement,
    /// removal, bulk retain and address churn: after every op, lookups,
    /// `owns` and the route set itself all agree.
    #[test]
    fn fib_tracks_list_model(
        ops in prop::collection::vec(arb_fib_op(), 1..40),
        probes in prop::collection::vec(clustered_addr(), 1..8),
    ) {
        let mut info = NodeInfo::new("fib");
        let mut model = FibModel::default();
        for op in &ops {
            model.apply(&mut info, op);
            prop_assert_eq!(
                sorted_routes(info.routes()),
                sorted_routes(model.routes.iter().copied()),
                "route set diverged after {:?}",
                op
            );
            prop_assert_eq!(info.addrs(), &model.addrs[..]);
            // Route bases are the adversarial probes for LPM tie-breaking.
            let bases = model.routes.iter().map(|&(p, _)| p.addr);
            for dst in probes.iter().chain(&model.addrs).copied().chain(bases) {
                prop_assert_eq!(
                    info.route_for(dst),
                    model.route_for(dst),
                    "FIB diverged on {} after {:?}",
                    dst,
                    op
                );
                prop_assert_eq!(
                    info.owns(dst),
                    model.addrs.contains(&dst),
                    "owns() diverged on {}",
                    dst
                );
            }
        }
    }

    /// A default route is matched by every address, and a host route beats
    /// it.
    #[test]
    fn default_route_is_matched_through_fib(dst in arb_addr(), host in arb_addr()) {
        let mut info = NodeInfo::new("default");
        info.set_route(Prefix::DEFAULT, 1);
        prop_assert_eq!(info.route_for(dst), Some(1));
        info.set_route(Prefix::new(host, 32), 2);
        let expect = if dst == host { Some(2) } else { Some(1) };
        prop_assert_eq!(info.route_for(dst), expect);
        info.remove_route(Prefix::DEFAULT);
        let expect = if dst == host { Some(2) } else { None };
        prop_assert_eq!(info.route_for(dst), expect);
    }

    /// Prefix contains() is consistent with mask arithmetic, and
    /// normalization makes contains(prefix.addr) always true.
    #[test]
    fn prefix_contains_consistent(p in arb_prefix(), a in arb_addr()) {
        prop_assert!(p.contains(p.addr), "prefix must contain its own base");
        let by_mask = (a.0 & p.mask()) == p.addr.0;
        prop_assert_eq!(p.contains(a), by_mask);
    }

    /// Address pools never hand out duplicates among live allocations, and
    /// everything they hand out is inside the prefix.
    #[test]
    fn pool_uniqueness(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut pool = AddrPool::new(Prefix::new(Addr::new(10, 9, 0, 0), 25));
        let mut live: Vec<Addr> = Vec::new();
        let mut seen_live: HashSet<Addr> = HashSet::new();
        for alloc in ops {
            if alloc || live.is_empty() {
                if let Some(a) = pool.alloc() {
                    prop_assert!(pool.prefix().contains(a));
                    prop_assert!(seen_live.insert(a), "duplicate live addr {a}");
                    live.push(a);
                }
            } else {
                let a = live.swap_remove(live.len() / 2);
                seen_live.remove(&a);
                pool.release(a);
            }
        }
    }

    /// Arbitrary GTP tunnel stacks encapsulate and decapsulate back to the
    /// original packet exactly.
    #[test]
    fn gtp_stack_round_trips(
        hops in prop::collection::vec((any::<u32>(), arb_addr(), arb_addr()), 1..5),
        src in arb_addr(),
        dst in arb_addr(),
        size in 20u32..1500,
    ) {
        let original = Packet::new(1, src, dst, size, SimTime::ZERO);
        let mut p = original.clone();
        for &(teid, osrc, odst) in &hops {
            p = encapsulate(p, teid, osrc, odst);
        }
        prop_assert_eq!(
            p.size_bytes,
            size + GTP_OVERHEAD_BYTES * hops.len() as u32
        );
        for &(teid, _, _) in hops.iter().rev() {
            p = decapsulate(p, Some(teid)).expect("teid matches");
        }
        prop_assert_eq!(p.src, original.src);
        prop_assert_eq!(p.dst, original.dst);
        prop_assert_eq!(p.size_bytes, original.size_bytes);
        prop_assert!(!p.is_tunneled());
    }

    /// The inline tunnel stack is byte-equivalent to the naive heap-`Vec`
    /// implementation it replaced: an arbitrary interleaving of encap and
    /// decap ops (driven deep enough to cross the spill threshold both ways)
    /// leaves the packet's observable state — addressing, wire size, tunnel
    /// contents top to bottom — identical to a shadow model running the old
    /// `Vec::push`/`Vec::pop` logic.
    #[test]
    fn tunnel_stack_matches_naive_vec_model(
        ops in prop::collection::vec(
            prop_oneof![
                // Encapsulate with (teid, outer_src, outer_dst).
                (any::<u32>(), arb_addr(), arb_addr()).prop_map(Some),
                // Decapsulate the outermost tunnel (wildcard TEID).
                Just(None),
            ],
            1..24,
        ),
        src in arb_addr(),
        dst in arb_addr(),
        size in 20u32..1500,
    ) {
        // Shadow model: the pre-§13 representation, verbatim.
        #[derive(Clone, Debug, PartialEq)]
        struct NaiveModel {
            src: Addr,
            dst: Addr,
            size_bytes: u32,
            tunnels: Vec<TunnelHeader>,
        }
        let mut model = NaiveModel { src, dst, size_bytes: size, tunnels: Vec::new() };
        let mut p = Packet::new(1, src, dst, size, SimTime::ZERO);
        for op in &ops {
            match *op {
                Some((teid, osrc, odst)) => {
                    p = encapsulate(p, teid, osrc, odst);
                    model.tunnels.push(TunnelHeader {
                        teid,
                        inner_src: model.src,
                        inner_dst: model.dst,
                    });
                    model.src = osrc;
                    model.dst = odst;
                    model.size_bytes += GTP_OVERHEAD_BYTES;
                }
                None => {
                    let popped = model.tunnels.pop();
                    match decapsulate(p, None) {
                        Ok(inner) => {
                            let h = popped.expect("model had a tunnel too");
                            model.src = h.inner_src;
                            model.dst = h.inner_dst;
                            model.size_bytes =
                                model.size_bytes.saturating_sub(GTP_OVERHEAD_BYTES);
                            p = inner;
                        }
                        Err(unchanged) => {
                            prop_assert!(popped.is_none(), "only untunneled may refuse");
                            p = unchanged;
                        }
                    }
                }
            }
            // Byte-equivalence after *every* op, through every accessor.
            prop_assert_eq!(p.src, model.src);
            prop_assert_eq!(p.dst, model.dst);
            prop_assert_eq!(p.size_bytes, model.size_bytes);
            prop_assert_eq!(p.tunnels.len(), model.tunnels.len());
            prop_assert_eq!(p.is_tunneled(), !model.tunnels.is_empty());
            prop_assert_eq!(p.tunnels.last(), model.tunnels.last());
            for (i, h) in model.tunnels.iter().enumerate() {
                prop_assert_eq!(p.tunnels.get(i), Some(h));
            }
            let collected: Vec<TunnelHeader> = p.tunnels.iter().copied().collect();
            prop_assert_eq!(&collected, &model.tunnels);
        }
    }

    /// The generational packet arena agrees with a naive `Box<Packet>`
    /// reference model (a map of live boxes) under random alloc / free /
    /// forward-mutation / encap churn: every live handle reaches exactly its
    /// packet, stale handles are rejected (never another packet), reclaim at
    /// empty points is invisible, and teardown drains with no leaks.
    #[test]
    fn packet_pool_matches_boxed_reference(
        ops in prop::collection::vec(
            prop_oneof![
                // Insert a packet with this id/size.
                (0u64..1_000_000, 40u32..1500).prop_map(|(id, sz)| (0u8, id as usize, sz)),
                // Take the pick-th live handle.
                (0usize..1000).prop_map(|pick| (1u8, pick, 0u32)),
                // Re-take a dead handle (must be Stale).
                (0usize..1000).prop_map(|pick| (2u8, pick, 0u32)),
                // Forward-mutate the pick-th live packet (hops+ttl churn).
                (0usize..1000).prop_map(|pick| (3u8, pick, 0u32)),
                // Encapsulate the pick-th live packet in place.
                (0usize..1000).prop_map(|pick| (4u8, pick, 0u32)),
                // Attempt a reclaim (no-op unless empty; always sound).
                Just((5u8, 0usize, 0u32)),
            ],
            1..120,
        ),
    ) {
        let mut pool = PacketPool::new();
        // Reference: the naive heap model — id-keyed boxes, plus the stale
        // handle graveyard for use-after-free probes.
        let mut live: Vec<(PacketRef, Box<Packet>)> = Vec::new();
        let mut dead: Vec<PacketRef> = Vec::new();
        for &(kind, pick, sz) in &ops {
            match kind {
                0 => {
                    let packet = Packet::new(
                        pick as u64,
                        Addr::new(10, 0, 0, 1),
                        Addr::new(10, 0, 0, 2),
                        sz,
                        SimTime::ZERO,
                    );
                    let r = pool.insert(packet.clone());
                    live.push((r, Box::new(packet)));
                }
                1 if !live.is_empty() => {
                    let (r, expect) = live.swap_remove(pick % live.len());
                    let got = pool.take(r);
                    prop_assert!(got.is_ok());
                    let got = got.unwrap();
                    prop_assert_eq!(got.id, expect.id);
                    prop_assert_eq!(got.size_bytes, expect.size_bytes);
                    prop_assert_eq!(got.hops, expect.hops);
                    prop_assert_eq!(got.ttl, expect.ttl);
                    prop_assert_eq!(got.tunnels.len(), expect.tunnels.len());
                    dead.push(r);
                }
                2 if !dead.is_empty() => {
                    let r = dead[pick % dead.len()];
                    prop_assert!(matches!(pool.take(r), Err(PoolError::Stale)));
                    prop_assert!(pool.get(r).is_none());
                }
                3 if !live.is_empty() => {
                    let i = pick % live.len();
                    let (r, expect) = &mut live[i];
                    let p = pool.get_mut(*r).expect("live handle");
                    p.hops += 1;
                    p.ttl = p.ttl.saturating_sub(1);
                    expect.hops += 1;
                    expect.ttl = expect.ttl.saturating_sub(1);
                }
                4 if !live.is_empty() => {
                    let i = pick % live.len();
                    let (r, expect) = &mut live[i];
                    let p = pool.get_mut(*r).expect("live handle");
                    let h = TunnelHeader {
                        teid: pick as u32,
                        inner_src: p.src,
                        inner_dst: p.dst,
                    };
                    p.tunnels.push(h);
                    p.size_bytes += GTP_OVERHEAD_BYTES;
                    expect.tunnels.push(h);
                    expect.size_bytes += GTP_OVERHEAD_BYTES;
                }
                5 => {
                    pool.reclaim();
                    if live.is_empty() {
                        prop_assert_eq!(pool.capacity(), 0, "empty pool reclaims fully");
                    }
                }
                _ => {}
            }
            // Handle conservation: the pool tracks exactly the live set, and
            // every live handle still reads back its own packet.
            prop_assert_eq!(pool.len(), live.len());
            for (r, expect) in &live {
                let p = pool.get(*r).expect("live handle readable");
                prop_assert_eq!(p.id, expect.id);
            }
        }
        // Teardown: drain everything; no leaks, no cross-wired handles.
        for (r, expect) in live.drain(..) {
            let got = pool.take(r);
            prop_assert!(got.is_ok());
            prop_assert_eq!(got.unwrap().id, expect.id);
        }
        prop_assert!(pool.is_empty());
        for r in dead {
            prop_assert!(matches!(pool.take(r), Err(PoolError::Stale)));
        }
    }

    /// Decapsulating with a wrong TEID never alters the packet.
    #[test]
    fn gtp_wrong_teid_is_identity(teid in any::<u32>(), wrong in any::<u32>()) {
        prop_assume!(teid != wrong);
        let p = encapsulate(
            Packet::new(1, Addr(1), Addr(2), 500, SimTime::ZERO),
            teid,
            Addr(3),
            Addr(4),
        );
        let size = p.size_bytes;
        let err = decapsulate(p, Some(wrong)).expect_err("mismatch");
        prop_assert_eq!(err.size_bytes, size);
        prop_assert!(err.is_tunneled());
    }
}
