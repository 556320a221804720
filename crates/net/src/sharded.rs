//! Sharded network simulations: one topology, N engine shards.
//!
//! [`ShardedSim`] is the driver experiments hold instead of a bare
//! [`Simulation<Network>`]. At `--shards 1` it wraps one simulation; at
//! `--shards N` it owns N replicas of the topology, each with the handlers
//! of only its own nodes installed, advancing in lockstep epochs under the
//! conservative synchronization of [`dlte_sim::run_sharded`] (one worker
//! thread per shard for each `run_until` call).
//!
//! Every method is written once, over the slice of shard simulations and
//! the plan that maps nodes onto them; a one-shard run is a slice of one
//! under [`ShardPlan::single`]. Reads are routed to the node's owner
//! ([`ShardedSim::handler_as`]) or folded over every shard
//! ([`ShardedSim::trace_merged`], [`ShardedSim::audit_merged`]), so the
//! same caller holds at any shard count and no method panics because of
//! it.
//!
//! ## Replication model
//!
//! The builder runs **once**; [`ShardedSim::build`] then splits the built
//! network into one replica per shard ([`Network::split`]). Each node's
//! handler and routes move to the replica that owns it, since a node's
//! routes are read only where its packets are forwarded, in its own shard.
//! Every replica keeps the whole topology otherwise — all node names,
//! addresses and links — which guarantees that no shard ever reaches into
//! another's state:
//!
//! * link state is safe to replicate because an endpoint only mutates its
//!   own transmit direction, and up/override flips arrive as broadcast
//!   faults;
//! * faults are pre-scheduled identically into every shard
//!   ([`ShardedSim::schedule_fault_broadcast`]), so replicated link state
//!   stays in sync without messages (a broadcast route change lands in
//!   its node's shard only);
//! * packets crossing a shard boundary become timestamped messages carrying
//!   a pre-allocated canonical key, exchanged at epoch barriers.
//!
//! The result — enforced by tests from the engine level up through the
//! golden experiments — is that traces, work counters and every statistic
//! are **bit-identical at any shard count**.

use crate::network::{in_flight_packets, NetAudit, NetEvent, NetFault, Network};
use crate::node::{NodeHandler, NodeId};
use crate::trace::TraceStats;
use dlte_sim::{run_sharded, RunOutcome, ShardPlan, SimDuration, SimTime, Simulation};

/// Compute the conservative plan for partitioning `net` into `n` shards by
/// the given node→shard map: the lookahead is the minimum configured
/// propagation delay over links whose endpoints live on different shards.
/// Panics (via [`ShardPlan::new`]) if any inter-shard link has zero delay —
/// conservative sync would deadlock at zero lookahead.
pub fn plan_for(net: &Network, n: usize, shard_of: Vec<usize>) -> ShardPlan {
    assert_eq!(shard_of.len(), net.core.nodes.len());
    let mut lookahead = SimDuration::MAX;
    for l in &net.core.links {
        if shard_of[l.a] != shard_of[l.b] {
            lookahead = lookahead.min(l.config.delay);
        }
    }
    ShardPlan::new(n, shard_of, lookahead)
}

/// A network simulation that may be partitioned into engine shards.
// One of these exists per experiment arm, never in bulk, so the size
// skew between the variants is irrelevant and boxing would only cost
// an indirection on every accessor.
#[allow(clippy::large_enum_variant)]
pub enum ShardedSim {
    /// The classic single-engine run.
    Single(Simulation<Network>),
    /// N replicas advancing under conservative synchronization.
    Multi {
        shards: Vec<Simulation<Network>>,
        plan: ShardPlan,
    },
}

/// The plan of every one-shard run: shard 0 owns every node.
static ONE_SHARD: ShardPlan = ShardPlan::single();

impl ShardedSim {
    /// Wrap an already-built single-engine simulation.
    pub fn single(sim: Simulation<Network>) -> ShardedSim {
        ShardedSim::Single(sim)
    }

    /// Build an `n`-shard simulation. `build` runs once; `shard_of` maps
    /// the built topology to shards, and the network is then split into
    /// one replica per shard ([`Network::split`]), each with its own
    /// `Start` event.
    ///
    /// `n <= 1` (or a map that uses a single shard) degenerates to
    /// [`ShardedSim::Single`] with zero overhead.
    ///
    /// Panics if the built simulation has anything pending but its `Start`
    /// event, since the split would lose it.
    pub fn build<B, P>(n: usize, build: B, shard_of: P) -> ShardedSim
    where
        B: FnOnce() -> Simulation<Network>,
        P: FnOnce(&Network) -> Vec<usize>,
    {
        let sim = build();
        if n <= 1 {
            return ShardedSim::Single(sim);
        }
        let map = shard_of(sim.world());
        let used = map.iter().max().map_or(1, |&m| m + 1);
        if used <= 1 {
            return ShardedSim::Single(sim);
        }
        assert_eq!(
            sim.queue().pending(),
            1,
            "a sharded build splits a simulation whose only pending event is Start"
        );
        let plan = plan_for(sim.world(), used, map);
        let shards = sim
            .into_world()
            .split(&plan)
            .into_iter()
            .map(Network::into_simulation)
            .collect();
        ShardedSim::Multi { shards, plan }
    }

    /// The shard simulations (a slice of one for a single-shard run) and
    /// the plan that maps nodes onto them.
    fn parts(&self) -> (&[Simulation<Network>], &ShardPlan) {
        match self {
            ShardedSim::Single(sim) => (std::slice::from_ref(sim), &ONE_SHARD),
            ShardedSim::Multi { shards, plan } => (shards, plan),
        }
    }

    fn parts_mut(&mut self) -> (&mut [Simulation<Network>], &ShardPlan) {
        match self {
            ShardedSim::Single(sim) => (std::slice::from_mut(sim), &ONE_SHARD),
            ShardedSim::Multi { shards, plan } => (shards, plan),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.parts().0.len()
    }

    /// Advance to `horizon`. `max_events` is a per-shard dispatch budget,
    /// exactly as in [`Simulation::run_until`].
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        let (shards, plan) = self.parts_mut();
        run_sharded(shards, plan, horizon, max_events)
    }

    /// Run until every shard drains (or a budget trips).
    pub fn run_to_completion(&mut self, max_events: u64) -> RunOutcome {
        self.run_until(SimTime::MAX, max_events)
    }

    /// Current time: the barrier front (max over shards — all shards have
    /// processed everything at or before the epochs already completed).
    pub fn now(&self) -> SimTime {
        self.parts()
            .0
            .iter()
            .map(Simulation::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total (non-control) events dispatched across shards — shard-count
    /// invariant because replicated `Start`/`Fault` events are excluded
    /// (see [`dlte_sim::World::is_control`]).
    pub fn events_dispatched(&self) -> u64 {
        self.parts()
            .0
            .iter()
            .map(Simulation::events_dispatched)
            .sum()
    }

    /// The replica that owns `node`.
    fn owner(&self, node: NodeId) -> &Simulation<Network> {
        let (shards, plan) = self.parts();
        &shards[plan.shard_of(node)]
    }

    /// Typed handler access, routed to the shard that owns `node`.
    pub fn handler_as<T: NodeHandler>(&self, node: NodeId) -> Option<&T> {
        self.owner(node).world().handler_as::<T>(node)
    }

    /// Whether `node` is currently crashed (down flags are replicated, so
    /// the owning shard is authoritative and every replica agrees).
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.owner(node).world().node_is_down(node)
    }

    /// Addresses bound to `node` (node info is replicated; the owning
    /// shard's copy is authoritative).
    pub fn node_addrs(&self, node: NodeId) -> Vec<crate::addr::Addr> {
        self.owner(node).world().core.nodes[node].addrs().to_vec()
    }

    /// Schedule a fault into **every** shard at `at`, keeping replicated
    /// link/route/liveness state in sync. This is the only way to inject
    /// faults into a run, sharded or not.
    pub fn schedule_fault_broadcast(&mut self, at: SimTime, fault: NetFault) {
        for sim in self.parts_mut().0 {
            sim.queue_mut()
                .schedule_at(at, NetEvent::Fault(fault.clone()));
        }
    }

    /// The merged end-to-end trace: the shards' traces folded in shard
    /// order (flow entries are disjoint across shards, so the fold is
    /// exact — see [`TraceStats::absorb`]).
    pub fn trace_merged(&self) -> TraceStats {
        let mut merged = TraceStats::new();
        for sim in self.parts().0 {
            merged.absorb(sim.world().trace());
        }
        merged
    }

    /// The merged conservation-ledger audit: per-shard fabric counters and
    /// drop tallies summed, in-flight packets counted across every queue.
    /// The merged ledger closes exactly like a single-shard one (each packet
    /// fate is counted by exactly one shard).
    pub fn audit_merged(&self) -> NetAudit {
        let mut merged = NetAudit::default();
        for sim in self.parts().0 {
            merged.absorb(&sim.world().audit(in_flight_packets(sim.queue())));
        }
        merged
    }

    /// Per-shard immutable access (diagnostics, tests).
    pub fn shards(&self) -> Vec<&Simulation<Network>> {
        self.parts().0.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Prefix};
    use crate::handlers::{CbrSource, EchoServer, Pinger};
    use crate::link::LinkConfig;
    use crate::network::NetworkBuilder;
    use crate::node::NodeCtx;
    use crate::packet::{Packet, Payload};

    /// Two AP-like clusters (source+sink pairs) joined by one backhaul
    /// link with 10 ms delay — the minimum interesting sharded topology.
    /// Cluster A pings across the backhaul into cluster B's echo server;
    /// both clusters also run local CBR traffic that never crosses.
    fn two_cluster_sim() -> Simulation<Network> {
        let mut b = NetworkBuilder::new(42);
        // Cluster A: nodes 0 (router), 1 (pinger), 2 (local cbr), 3 (local sink).
        let ra = b.node("ra");
        let pinger = b.host(
            "pinger",
            Box::new(Pinger::new(
                Addr::new(10, 1, 0, 2),
                7,
                dlte_sim::SimDuration::from_millis(50),
            )),
        );
        b.addr(pinger, Addr::new(10, 0, 0, 1));
        let cbr_a = b.host(
            "cbr-a",
            Box::new(CbrSource::new(Addr::new(10, 0, 0, 3), 1, 2e6, 500)),
        );
        b.addr(cbr_a, Addr::new(10, 0, 0, 2));
        let sink_a = b.node("sink-a");
        b.addr(sink_a, Addr::new(10, 0, 0, 3));
        // Cluster B: nodes 4 (router), 5 (echo), 6 (local cbr), 7 (local sink).
        let rb = b.node("rb");
        let echo = b.host("echo", Box::new(EchoServer::new()));
        b.addr(echo, Addr::new(10, 1, 0, 2));
        let cbr_b = b.host(
            "cbr-b",
            Box::new(CbrSource::new(Addr::new(10, 1, 0, 4), 2, 2e6, 500)),
        );
        b.addr(cbr_b, Addr::new(10, 1, 0, 3));
        let sink_b = b.node("sink-b");
        b.addr(sink_b, Addr::new(10, 1, 0, 4));
        let lan = LinkConfig::lan();
        for &(x, y) in &[(ra, pinger), (ra, cbr_a), (ra, sink_a)] {
            b.link(x, y, lan);
        }
        for &(x, y) in &[(rb, echo), (rb, cbr_b), (rb, sink_b)] {
            b.link(x, y, lan);
        }
        b.link(ra, rb, LinkConfig::rural_backhaul());
        b.auto_routes();
        b.build()
    }

    fn cluster_map(net: &Network) -> Vec<usize> {
        (0..net.core.nodes.len())
            .map(|n| if n < 4 { 0 } else { 1 })
            .collect()
    }

    fn run_and_fingerprint(n: usize) -> (Vec<(u64, u64, String)>, u64, String, String) {
        dlte_obs::set_tracing(true);
        let _ = dlte_obs::drain_raw();
        let mut sim = ShardedSim::build(n, two_cluster_sim, cluster_map);
        assert_eq!(sim.num_shards(), n.clamp(1, 2));
        sim.run_until(SimTime::from_secs(2), 10_000_000);
        let records: Vec<(u64, u64, String)> = dlte_obs::take_records()
            .into_iter()
            .map(|r| (r.t_ns, r.node, format!("{:?}", r.event)))
            .collect();
        dlte_obs::set_tracing(false);
        let trace = sim.trace_merged();
        let audit = sim.audit_merged();
        let flows = trace
            .flow_ids()
            .iter()
            .map(|&f| {
                let t = trace.flow(f).unwrap();
                format!(
                    "{f}:{}:{}:{:.9}:{:.9}",
                    t.delivered_packets,
                    t.delivered_bytes,
                    t.latency_ms.percentile(50.0),
                    t.hops.mean()
                )
            })
            .collect::<Vec<_>>()
            .join("|");
        (
            records,
            sim.events_dispatched(),
            format!("{audit:?}"),
            flows,
        )
    }

    /// The tentpole invariant, at the network level: trace records, work
    /// counters, the conservation audit and per-flow statistics are
    /// bit-identical at 1 and 2 shards.
    #[test]
    fn sharded_network_run_is_bit_identical_to_single() {
        let (r1, e1, a1, f1) = run_and_fingerprint(1);
        let (r2, e2, a2, f2) = run_and_fingerprint(2);
        assert!(e1 > 0 && !f1.is_empty());
        assert_eq!(e1, e2, "work counters");
        assert_eq!(a1, a2, "conservation audit");
        assert_eq!(f1, f2, "per-flow stats");
        assert_eq!(r1.len(), r2.len(), "trace record count");
        assert_eq!(r1, r2, "trace records");
    }

    /// The builder runs once, and every handler lands in exactly one
    /// replica: the one that owns its node.
    #[test]
    fn build_runs_the_builder_once_and_moves_each_handler() {
        let calls = std::cell::Cell::new(0);
        let sim = ShardedSim::build(
            2,
            || {
                calls.set(calls.get() + 1);
                two_cluster_sim()
            },
            cluster_map,
        );
        assert_eq!(calls.get(), 1, "builder calls");
        let single = two_cluster_sim();
        let ShardedSim::Multi { shards, plan } = &sim else {
            panic!("two shards expected");
        };
        let mut moved = 0;
        for node in 0..single.world().core.nodes.len() {
            let holders: Vec<usize> = (0..shards.len())
                .filter(|&s| shards[s].world().has_handler(node))
                .collect();
            if single.world().has_handler(node) {
                assert_eq!(holders, [plan.shard_of(node)], "node {node}");
                moved += 1;
            } else {
                assert!(holders.is_empty(), "node {node} gained a handler");
            }
        }
        assert_eq!(moved, 4, "pinger, echo and both CBR sources");
    }

    /// Splitting is for networks that have not started: a started one
    /// has handler state and pending events the split cannot carry.
    #[test]
    #[should_panic(expected = "split a network before it starts")]
    fn split_refuses_a_started_network() {
        let mut sim = two_cluster_sim();
        sim.run_until(SimTime::from_millis(1), 1_000);
        let plan = plan_for(sim.world(), 2, cluster_map(sim.world()));
        sim.into_world().split(&plan);
    }

    /// Each replica keeps the routes of its own nodes only — the same
    /// route set the unsplit network holds, auto routes included, plus
    /// routes a broadcast `RouteSet` installs after the split — while node
    /// addresses stay replicated everywhere and foreign stubs hold none.
    #[test]
    fn replicas_hold_routes_only_for_their_own_nodes() {
        let sorted = |info: &crate::node::NodeInfo| {
            let mut routes: Vec<(u32, u8, usize)> =
                info.routes().map(|(p, l)| (p.addr.0, p.len, l)).collect();
            routes.sort_unstable();
            routes
        };
        let single = two_cluster_sim();
        let mut sim = ShardedSim::build(2, two_cluster_sim, cluster_map);
        let ShardedSim::Multi { shards, plan } = &sim else {
            panic!("two shards expected");
        };
        for (s, shard) in shards.iter().enumerate() {
            for (node, info) in shard.world().core.nodes.iter().enumerate() {
                let full = &single.world().core.nodes[node];
                assert_eq!(info.addrs(), full.addrs(), "shard {s} node {node}");
                if plan.shard_of(node) == s {
                    assert!(full.routes().count() > 0, "node {node} has routes");
                    assert_eq!(sorted(info), sorted(full), "shard {s} node {node}");
                } else {
                    assert_eq!(info.routes().count(), 0, "shard {s} stub {node}");
                }
            }
        }
        // sink-b (node 7, shard 1) learns a route over its only link.
        let prefix = Prefix::new(Addr::new(10, 9, 0, 0), 16);
        let fault = NetFault::RouteSet {
            node: 7,
            prefix,
            link: 5,
        };
        sim.schedule_fault_broadcast(SimTime::from_millis(1), fault);
        sim.run_until(SimTime::from_millis(2), 10_000_000);
        let ShardedSim::Multi { shards, .. } = &sim else {
            unreachable!()
        };
        let dst = Addr::new(10, 9, 0, 1);
        assert_eq!(shards[0].world().core.nodes[7].routes().count(), 0);
        assert_eq!(shards[1].world().core.nodes[7].route_for(dst), Some(5));
    }

    /// Cross-backhaul RTT measured through a sharded run matches physics:
    /// 2 × 10 ms backhaul + LAN hops ≈ 20.4 ms, proving cross-shard packets
    /// actually flow (not silently dropped at the boundary).
    #[test]
    fn cross_shard_traffic_flows_and_rtt_is_sane() {
        let mut sim = ShardedSim::build(2, two_cluster_sim, cluster_map);
        assert_eq!(sim.num_shards(), 2);
        sim.run_until(SimTime::from_secs(2), 10_000_000);
        let pinger: &Pinger = sim.handler_as(1).expect("pinger on shard 0");
        assert!(pinger.rtt_ms.len() >= 30, "rtts {}", pinger.rtt_ms.len());
        let med = pinger.rtt_ms.median();
        assert!((20.0..21.5).contains(&med), "median RTT {med}");
        let echo: &EchoServer = sim.handler_as(5).expect("echo on shard 1");
        assert!(echo.echoed >= 30);
        // The audit closes across shards.
        let audit = sim.audit_merged();
        let f = &audit.fabric;
        assert_eq!(
            f.originated + f.reforwarded,
            f.accepted
                + audit.drops_ttl
                + audit.drops_no_route
                + audit.drops_queue
                + audit.drops_loss
                + audit.drops_link_down
        );
        assert_eq!(f.accepted, f.arrivals + audit.in_flight);
    }

    /// Faults broadcast into every shard keep replicated state in sync and
    /// produce exactly one trace record for the transition.
    #[test]
    fn broadcast_faults_apply_everywhere_and_emit_once() {
        let backhaul_fault = |sim: &mut ShardedSim| {
            // Link 6 is ra—rb (the 7th link built).
            sim.schedule_fault_broadcast(
                SimTime::from_millis(500),
                NetFault::LinkUp { link: 6, up: false },
            );
            sim.schedule_fault_broadcast(
                SimTime::from_millis(900),
                NetFault::LinkUp { link: 6, up: true },
            );
        };
        let run = |n: usize| {
            dlte_obs::set_tracing(true);
            let _ = dlte_obs::drain_raw();
            let mut sim = ShardedSim::build(n, two_cluster_sim, cluster_map);
            backhaul_fault(&mut sim);
            sim.run_until(SimTime::from_secs(2), 10_000_000);
            let recs = dlte_obs::take_records();
            dlte_obs::set_tracing(false);
            let fault_recs: Vec<String> = recs
                .iter()
                .filter(|r| matches!(r.event, dlte_obs::Event::FaultLink { .. }))
                .map(|r| format!("{}:{:?}", r.t_ns, r.event))
                .collect();
            let audit = sim.audit_merged();
            (fault_recs, audit.drops_link_down, format!("{audit:?}"))
        };
        let (fr1, drops1, audit1) = run(1);
        let (fr2, drops2, audit2) = run(2);
        assert_eq!(fr1.len(), 2, "one down + one up record: {fr1:?}");
        assert_eq!(fr1, fr2, "fault records identical, no duplicates");
        assert!(drops1 > 0, "outage actually dropped packets");
        assert_eq!(drops1, drops2);
        assert_eq!(audit1, audit2);
    }

    /// The shard workers hand their `report` tally and metrics back to
    /// the caller: a `report::scope` around a 2-shard run counts the
    /// events and the drops a 1-shard run does. (`sim_time_ns` is summed
    /// per shard, so it is not compared.)
    #[test]
    fn shard_workers_hand_tally_and_metrics_to_the_caller() {
        let run = |n: usize| {
            let _ = dlte_obs::metrics::take();
            let ((), report) = dlte_sim::report::scope(|| {
                let mut sim = ShardedSim::build(n, two_cluster_sim, cluster_map);
                assert_eq!(sim.num_shards(), n);
                // Cut the backhaul (link 6) for a while so pings drop.
                sim.schedule_fault_broadcast(
                    SimTime::from_millis(500),
                    NetFault::LinkUp { link: 6, up: false },
                );
                sim.schedule_fault_broadcast(
                    SimTime::from_millis(900),
                    NetFault::LinkUp { link: 6, up: true },
                );
                sim.run_until(SimTime::from_secs(2), 10_000_000);
            });
            let drops = dlte_obs::metrics::take().prefixed("drops_");
            (report.events_dispatched, drops)
        };
        let (e1, d1) = run(1);
        let (e2, d2) = run(2);
        assert!(e1 > 0, "events counted");
        assert!(d1.get("link_down").is_some_and(|&d| d > 0), "drops {d1:?}");
        assert_eq!(e1, e2, "events_dispatched");
        assert_eq!(d1, d2, "drops_* counters");
    }

    /// Handlers that crash and restart across the epoch barrier behave
    /// identically at any shard count (restart runs on the owner only;
    /// the crash/restart trace is emitted once).
    #[test]
    fn node_crash_and_restart_is_shard_invariant() {
        struct Counter {
            got: u64,
        }
        impl NodeHandler for Counter {
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, p: Packet) {
                self.got += 1;
                ctx.deliver_local(&p);
            }
            fn on_crash(&mut self) {
                self.got = 0;
            }
        }
        let build = || {
            let mut b = NetworkBuilder::new(7);
            let src = b.host(
                "src",
                Box::new(CbrSource::new(Addr::new(10, 1, 0, 1), 3, 1e6, 1250)),
            );
            b.addr(src, Addr::new(10, 0, 0, 1));
            let dst = b.host("dst", Box::new(Counter { got: 0 }));
            b.addr(dst, Addr::new(10, 1, 0, 1));
            b.link(src, dst, LinkConfig::rural_backhaul());
            b.auto_routes();
            b.build()
        };
        let map = |_: &Network| vec![0, 1];
        let run = |n: usize| {
            let mut sim = ShardedSim::build(n, build, map);
            sim.schedule_fault_broadcast(SimTime::from_millis(400), NetFault::NodeDown { node: 1 });
            sim.schedule_fault_broadcast(SimTime::from_millis(700), NetFault::NodeUp { node: 1 });
            sim.run_until(SimTime::from_secs(2), 1_000_000);
            assert!(!sim.node_is_down(1));
            let got = sim.handler_as::<Counter>(1).unwrap().got;
            let drops = sim.audit_merged().drops_node_down;
            (got, drops, sim.events_dispatched())
        };
        let (g1, d1, e1) = run(1);
        let (g2, d2, e2) = run(2);
        assert!(g1 > 0 && d1 > 0);
        assert_eq!((g1, d1, e1), (g2, d2, e2));
    }

    /// A packet arriving mid-payload-`Control` across shards downcasts on
    /// the far side (Arc payloads survive the thread boundary).
    #[test]
    fn control_payloads_cross_shards() {
        #[derive(Debug)]
        struct Hello {
            n: u32,
        }
        struct Sender;
        impl NodeHandler for Sender {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                let p = ctx
                    .make_packet(Addr::new(10, 1, 0, 1), 100)
                    .with_payload(Payload::control(Hello { n: 99 }));
                ctx.forward(p);
            }
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _p: Packet) {}
        }
        struct Receiver {
            saw: Option<u32>,
        }
        impl NodeHandler for Receiver {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, p: Packet) {
                self.saw = p.payload.as_control::<Hello>().map(|h| h.n);
            }
        }
        let build = || {
            let mut b = NetworkBuilder::new(1);
            let s = b.host("s", Box::new(Sender));
            b.addr(s, Addr::new(10, 0, 0, 1));
            let r = b.host("r", Box::new(Receiver { saw: None }));
            b.addr(r, Addr::new(10, 1, 0, 1));
            let l = b.link(s, r, LinkConfig::rural_backhaul());
            b.route(s, Prefix::new(Addr::new(10, 1, 0, 1), 32), l);
            b.build()
        };
        let mut sim = ShardedSim::build(2, build, |_| vec![0, 1]);
        sim.run_to_completion(10_000);
        assert_eq!(sim.handler_as::<Receiver>(1).unwrap().saw, Some(99));
    }
}
