//! The network world: topology + event dispatch.
//!
//! [`Network`] implements [`World`] over [`NetEvent`]. Forwarding semantics:
//!
//! * a packet arriving at a node **with a handler** is given to the handler,
//!   whatever its destination (handlers implement middleboxes — EPC gateways
//!   must see traversing traffic);
//! * a packet arriving at a plain node is **delivered** if the destination
//!   is a local address, otherwise **forwarded** by longest-prefix match
//!   (dropping on no-route or TTL exhaustion).
//!
//! There is one forwarding path: every packet in flight is parked in the
//! world's [`PacketPool`] and moves hop to hop as a [`PacketRef`], whether a
//! handler originated it or a plain router relays it. Every drop goes
//! through one site, `NetCore::drop_pooled`, which keeps the per-reason tally
//! [`Network::audit`] reports, bumps the `drops_*` metrics counter and emits
//! the [`Event::Drop`] trace record.

use crate::link::{Link, LinkConfig, LinkId, LinkOverride, Offer};
use crate::node::{NodeCtx, NodeHandler, NodeId, NodeInfo};
use crate::packet::Packet;
use crate::pool::{PacketPool, PacketRef};
use crate::trace::TraceStats;
use dlte_obs::{DropReason, Event};
use dlte_sim::rng::hash_unit;
use dlte_sim::{EventQueue, OutMsg, ShardPlan, ShardWorld, SimRng, SimTime, Simulation, World};
use serde::{Deserialize, Serialize};

/// Domain-separation salts for the counter-based (hashed) draws, so the
/// loss and jitter streams never collide.
const LOSS_SALT: u64 = 0x6c6f_7373; // "loss"
const JITTER_SALT: u64 = 0x6a69_7474; // "jitt"

/// The loss and jitter uniforms `l.offer` takes for one transmission.
///
/// They are *keyed* draws — salted hashes of the decision's identity (seed,
/// packet, hop, link, direction) — rather than pulls from a shared stream,
/// so a given transmission sees the same uniforms no matter what else ran
/// first; that is what keeps runs bit-identical when the topology is
/// partitioned into shards. It also means a draw the link will not read
/// can be skipped without moving any other: each is hashed only when needed
/// (a positive loss probability, an active jitter override) and is
/// otherwise the neutral value `offer` ignores — `1.0` never drops, `0.0`
/// adds no jitter.
fn link_draws(l: &Link, seed: u64, id: u64, hops: u32, link: LinkId, dir: usize) -> (f64, f64) {
    let salted = |salt| hash_unit(&[seed, salt, id, hops as u64, link as u64, dir as u64]);
    let loss = if l.loss() > 0.0 {
        salted(LOSS_SALT)
    } else {
        1.0
    };
    let jitter = if l.jitters() {
        salted(JITTER_SALT)
    } else {
        0.0
    };
    (loss, jitter)
}

/// Number of [`DropReason`] variants: the length of a per-reason tally.
const DROP_REASONS: usize = 6;

/// Interned per-reason drop counters, indexed by `reason as usize` (so the
/// list follows `DropReason`'s declaration order): registered once per
/// process, so the per-drop cost is an array index, not a string-map lookup.
fn drop_counter(reason: DropReason) -> dlte_obs::metrics::CounterId {
    use dlte_obs::metrics::register_counter;
    static IDS: std::sync::OnceLock<[dlte_obs::metrics::CounterId; DROP_REASONS]> =
        std::sync::OnceLock::new();
    IDS.get_or_init(|| {
        [
            register_counter("drops_queue"),
            register_counter("drops_loss"),
            register_counter("drops_link_down"),
            register_counter("drops_node_down"),
            register_counter("drops_no_route"),
            register_counter("drops_ttl"),
        ]
    })[reason as usize]
}

/// Where an in-flight packet's bytes live while its arrival event sits in
/// the queue. Local arrivals park the packet in the world's [`PacketPool`]
/// and move the 8-byte handle; cross-shard deliveries (whose bytes must
/// physically travel to another worker's replica) carry an owned heap box,
/// which the receiving replica parks in its own pool on arrival. Either way
/// the event stays 2 words — the queue slab never pays
/// `size_of::<Packet>()`.
#[derive(Debug)]
pub enum PacketSlot {
    /// Handle into the receiving world's packet arena.
    Pooled(PacketRef),
    /// The packet itself, boxed (cross-shard).
    Owned(Box<Packet>),
}

/// Events of the network world.
#[derive(Debug)]
pub enum NetEvent {
    /// A packet reaches `node` (after link serialization + propagation);
    /// its bytes are wherever `slot` says.
    PacketArrive { node: NodeId, slot: PacketSlot },
    /// A packet finished serializing on `link` direction `dir` (frees one
    /// queue slot).
    LinkDeparted { link: LinkId, dir: usize },
    /// A handler timer.
    Timer { node: NodeId, tag: u64 },
    /// Deliver `on_start` to every handler (scheduled once at t=0).
    Start,
    /// Apply a fault (scheduled by fault plans or chaos handlers).
    Fault(NetFault),
}

/// A single fault applied to the world at a point in time. These are the
/// *mechanisms*; `dlte-faults` provides the seeded, serde-able plans that
/// compose them into scenarios.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NetFault {
    /// Set a link's administrative state (down links drop all traffic).
    LinkUp { link: LinkId, up: bool },
    /// Install a transient parameter override on a link (an empty override
    /// clears it — restores configured behaviour).
    LinkOverride { link: LinkId, ov: LinkOverride },
    /// Crash a node: its handler loses state (`on_crash`) and, while down,
    /// every packet and timer addressed to it is dropped.
    NodeDown { node: NodeId },
    /// Restart a crashed node: `on_restart` runs with a live ctx so the
    /// handler can re-seed timers and state.
    NodeUp { node: NodeId },
    /// Pause a node: packets are dropped but handler state and timers are
    /// retained (timers fire, deferred, at resume).
    NodePause { node: NodeId },
    /// Resume a paused node, releasing its deferred timers.
    NodeResume { node: NodeId },
    /// Cut (`up: false`) or heal (`up: true`) every link with exactly one
    /// endpoint in `nodes` — partitions the set from the rest of the world.
    Partition { nodes: Vec<NodeId>, up: bool },
    /// Install (or replace) a route on a node. Exists so scripted
    /// reconvergence (e.g. E13's backhaul reroute) can be expressed as
    /// pre-planned fault events, which sharded runs broadcast into every
    /// replica instead of mutating one shard's tables from another.
    RouteSet {
        node: NodeId,
        prefix: crate::addr::Prefix,
        link: LinkId,
    },
}

/// Packet-fate counters maintained by the fabric itself (not by handlers),
/// closing the conservation ledger the `dlte-check` oracles verify: every
/// packet that enters the fabric leaves it through exactly one exit.
///
/// * entries: `originated` (handler called `forward`/`forward_via`) and
///   `reforwarded` (a plain node relayed an arrival);
/// * exits: `accepted` onto a link, or one of the per-reason drop tallies
///   (kept beside these counters in [`NetCore`], read through
///   [`Network::audit`]);
/// * each `accepted` becomes exactly one `arrival` (or stays in flight in
///   the event queue), and each arrival terminates as `absorbed` (handler
///   node), `delivered_plain` (plain node owning the destination), a
///   node-down drop, or another `reforwarded` entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricCounters {
    /// Packets injected by handlers (`NodeCtx::forward` / `forward_via`).
    pub originated: u64,
    /// Arrivals relayed onward by plain (handler-less) nodes.
    pub reforwarded: u64,
    /// Transmissions a link accepted (an arrival event was scheduled).
    pub accepted: u64,
    /// `PacketArrive` events dispatched (including ones dropped node-down).
    pub arrivals: u64,
    /// Arrivals consumed by a node handler (whatever it re-emits counts as
    /// freshly originated).
    pub absorbed: u64,
    /// Arrivals delivered by a plain node owning the destination address.
    pub delivered_plain: u64,
}

/// End-of-run snapshot of the fabric ledger plus the per-reason drop
/// counters and the packets still in flight — everything the packet
/// conservation oracle needs, as plain serde-able data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetAudit {
    pub fabric: FabricCounters,
    /// `PacketArrive` events pending in the queue at audit time.
    pub in_flight: u64,
    pub drops_queue: u64,
    pub drops_loss: u64,
    pub drops_no_route: u64,
    pub drops_ttl: u64,
    pub drops_link_down: u64,
    pub drops_node_down: u64,
}

impl FabricCounters {
    /// Fold another shard's counters into this one. Each packet fate is
    /// counted by exactly one shard (the node that processed it), so the
    /// merged ledger closes exactly like a single-shard one.
    pub fn absorb(&mut self, other: &FabricCounters) {
        self.originated += other.originated;
        self.reforwarded += other.reforwarded;
        self.accepted += other.accepted;
        self.arrivals += other.arrivals;
        self.absorbed += other.absorbed;
        self.delivered_plain += other.delivered_plain;
    }
}

impl NetAudit {
    /// Fold another shard's audit into this one (see
    /// [`FabricCounters::absorb`]).
    pub fn absorb(&mut self, other: &NetAudit) {
        self.fabric.absorb(&other.fabric);
        self.in_flight += other.in_flight;
        self.drops_queue += other.drops_queue;
        self.drops_loss += other.drops_loss;
        self.drops_no_route += other.drops_no_route;
        self.drops_ttl += other.drops_ttl;
        self.drops_link_down += other.drops_link_down;
        self.drops_node_down += other.drops_node_down;
    }
}

/// Count the `PacketArrive` events still pending (canceled entries are
/// skipped) — the `in_flight` term of the conservation ledger.
pub fn in_flight_packets(queue: &EventQueue<NetEvent>) -> u64 {
    queue
        .iter_pending()
        .filter(|e| matches!(e, NetEvent::PacketArrive { .. }))
        .count() as u64
}

/// Topology + routing + tracing state (everything except the handlers, so
/// handlers can borrow it mutably through [`NodeCtx`]).
pub struct NetCore {
    pub nodes: Vec<NodeInfo>,
    pub links: Vec<Link>,
    pub trace: TraceStats,
    pub fabric: FabricCounters,
    /// Packets this replica dropped, indexed by `DropReason as usize`;
    /// written only by [`NetCore::drop_pooled`].
    drops: [u64; DROP_REASONS],
    pub rng: SimRng,
    /// Per-node packet-id sequences (see [`NetCore::next_packet_id`]).
    pkt_seqs: Vec<u64>,
    /// Which shard this replica is (0 in single-shard runs).
    pub(crate) my_shard: usize,
    /// Owner shard of every node (all zero in single-shard runs).
    pub(crate) shard_of: Vec<usize>,
    /// Cross-shard arrivals produced since the last drain.
    pub(crate) outbound: Vec<OutMsg<NetEvent>>,
    /// Arena for in-flight packets: every packet in this replica's fabric
    /// parks its bytes here and the event queue carries only a
    /// [`PacketRef`].
    pub pool: PacketPool,
}

impl NetCore {
    /// Allocate a packet id from the originating node's own sequence:
    /// `(node+1) << 40 | seq`. Keying the id to the originator (rather
    /// than a global counter) makes it a pure function of that node's
    /// history, so ids — and everything hashed from them, like loss
    /// draws — are identical at every shard count.
    pub(crate) fn next_packet_id(&mut self, node: NodeId) -> u64 {
        let seq = self.pkt_seqs[node];
        self.pkt_seqs[node] += 1;
        ((node as u64 + 1) << 40) | seq
    }

    /// Take the pooled packet behind `r` out of the arena and account its
    /// drop — the fabric's one drop site. It feeds three consumers: this
    /// replica's tally (read by [`Network::audit`] for the conservation
    /// oracle), the always-on `drops_*` metrics counter (run-scoped and
    /// thread-folded; feeds the deterministic `RunReport::drops` breakdown)
    /// and — when tracing is enabled — a structured [`Event::Drop`] record.
    fn drop_pooled(&mut self, now: SimTime, node: NodeId, r: PacketRef, reason: DropReason) {
        let bytes = self.pool.take(r).expect("drop of a live packet").size_bytes;
        self.drops[reason as usize] += 1;
        drop_counter(reason).add(1);
        dlte_obs::emit(now.as_nanos(), node as u64, Event::Drop { reason, bytes });
    }

    /// Route the pooled packet behind `r` out of `node` via LPM and
    /// transmit it; drops on missing route or exhausted TTL. The packet
    /// stays parked in the arena across the hop: TTL and hop count are
    /// edited in place and the same 8-byte handle is re-scheduled, so a
    /// multi-hop traversal never copies the `Packet` until something
    /// consumes it (delivery, a drop, a handler, or a shard boundary).
    pub(crate) fn route_and_transmit(
        &mut self,
        now: SimTime,
        node: NodeId,
        r: PacketRef,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let Some(p) = self.pool.get_mut(r) else {
            debug_assert!(false, "stale packet handle in forward at node {node}");
            return;
        };
        if p.ttl == 0 {
            return self.drop_pooled(now, node, r, DropReason::TtlExpired);
        }
        p.ttl -= 1;
        match self.nodes[node].route_for(p.dst) {
            Some(link) => self.transmit_on(now, node, link, r, queue),
            None => self.drop_pooled(now, node, r, DropReason::NoRoute),
        }
    }

    /// Transmit the pooled packet behind `r` from `node` on `link` (see
    /// [`NetCore::route_and_transmit`]).
    pub(crate) fn transmit_on(
        &mut self,
        now: SimTime,
        node: NodeId,
        link: LinkId,
        r: PacketRef,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let seed = self.rng.seed();
        let l = &mut self.links[link];
        let Some(dir) = l.dir_from(node) else {
            // A route pointing at a link the node is not on is a topology
            // bug; surface it in debug builds, degrade to a routed-drop in
            // release so a fuzzer finds protocol bugs, not harness panics.
            debug_assert!(false, "node {node} not on link {link}");
            return self.drop_pooled(now, node, r, DropReason::NoRoute);
        };
        let Some(p) = self.pool.get_mut(r) else {
            debug_assert!(false, "stale packet handle in transmit at node {node}");
            return;
        };
        let (draw, jitter_draw) = link_draws(l, seed, p.id, p.hops, link, dir);
        let reason = match l.offer(dir, now, p.size_bytes, draw, jitter_draw) {
            Offer::Accepted {
                arrives_at,
                departs_at,
            } => {
                p.hops += 1;
                self.fabric.accepted += 1;
                let dest = l.other(node);
                queue.schedule_at(departs_at, NetEvent::LinkDeparted { link, dir });
                if self.shard_of[dest] == self.my_shard {
                    let slot = PacketSlot::Pooled(r);
                    queue.schedule_at(arrives_at, NetEvent::PacketArrive { node: dest, slot });
                } else {
                    // The far end lives on another shard: allocate the
                    // canonical key *here* (consuming this origin's counter
                    // exactly as a local schedule would, so single- and
                    // multi-shard key streams agree) and ship the bytes —
                    // owned, a pool handle means nothing in another replica —
                    // across the epoch barrier.
                    let packet = self.pool.take(r).expect("just read it");
                    let (origin, oseq) = queue.alloc_key();
                    self.outbound.push(OutMsg {
                        shard: self.shard_of[dest],
                        at: arrives_at,
                        origin,
                        oseq,
                        event: NetEvent::PacketArrive {
                            node: dest,
                            slot: PacketSlot::Owned(Box::new(packet)),
                        },
                    });
                }
                return;
            }
            Offer::DroppedQueueFull => DropReason::Queue,
            Offer::DroppedLoss => DropReason::Loss,
            Offer::DroppedLinkDown => DropReason::LinkDown,
        };
        self.drop_pooled(now, node, r, reason);
    }
}

/// The world.
pub struct Network {
    pub core: NetCore,
    handlers: Vec<Option<Box<dyn NodeHandler>>>,
    /// Crashed nodes (packets/timers dropped until restart).
    down: Vec<bool>,
    /// Paused nodes (packets dropped, timers deferred until resume).
    paused: Vec<bool>,
    /// Timers that fired while their node was paused, in firing order.
    deferred: Vec<Vec<u64>>,
    /// Whether the `Start` event has been dispatched.
    started: bool,
}

impl Network {
    /// Run a handler callback with the handler temporarily detached, so the
    /// handler can mutably borrow the core through the ctx.
    fn with_handler<F>(
        &mut self,
        node: NodeId,
        queue: &mut EventQueue<NetEvent>,
        now: SimTime,
        f: F,
    ) -> bool
    where
        F: FnOnce(&mut dyn NodeHandler, &mut NodeCtx<'_>),
    {
        let Some(mut handler) = self.handlers[node].take() else {
            return false;
        };
        {
            let mut ctx = NodeCtx {
                now,
                node,
                core: &mut self.core,
                queue,
            };
            f(handler.as_mut(), &mut ctx);
        }
        self.handlers[node] = Some(handler);
        true
    }

    /// Typed handler access — the way experiment harnesses read results
    /// (RTT samples, counters) out of a finished run.
    pub fn handler_as<T: NodeHandler>(&self, node: NodeId) -> Option<&T> {
        self.handlers[node]
            .as_deref()
            .and_then(|h| (h as &dyn std::any::Any).downcast_ref::<T>())
    }

    /// Typed mutable handler access.
    pub fn handler_as_mut<T: NodeHandler>(&mut self, node: NodeId) -> Option<&mut T> {
        self.handlers[node]
            .as_deref_mut()
            .and_then(|h| (h as &mut dyn std::any::Any).downcast_mut::<T>())
    }

    /// Install (or replace) a node's handler after build. If done before
    /// the simulation's first event, the handler's `on_start` still runs
    /// (the `Start` event is pending until then).
    pub fn set_handler(&mut self, node: NodeId, handler: Box<dyn NodeHandler>) {
        self.handlers[node] = Some(handler);
    }

    /// Per-flow delivery statistics.
    pub fn trace(&self) -> &TraceStats {
        &self.core.trace
    }

    /// Snapshot the fabric ledger and the per-reason drop tally for the
    /// conservation oracle. `in_flight` comes from [`in_flight_packets`] on
    /// the simulation's queue (the world does not own its queue).
    pub fn audit(&self, in_flight: u64) -> NetAudit {
        let d = |reason: DropReason| self.core.drops[reason as usize];
        NetAudit {
            fabric: self.core.fabric,
            in_flight,
            drops_queue: d(DropReason::Queue),
            drops_loss: d(DropReason::Loss),
            drops_no_route: d(DropReason::NoRoute),
            drops_ttl: d(DropReason::TtlExpired),
            drops_link_down: d(DropReason::LinkDown),
            drops_node_down: d(DropReason::NodeDown),
        }
    }

    /// Whether a node is currently crashed.
    pub fn node_is_down(&self, node: NodeId) -> bool {
        self.down[node]
    }

    /// Whether a node is currently paused.
    pub fn node_is_paused(&self, node: NodeId) -> bool {
        self.paused[node]
    }

    /// Apply a fault to the world. Normally reached through a scheduled
    /// [`NetEvent::Fault`] (see `ShardedSim::schedule_fault_broadcast`) so
    /// faults are ordered deterministically with all other events; calling
    /// it directly between runs is also fine.
    ///
    /// Sharded runs broadcast every fault into every replica (link/route
    /// state is replicated), so the trace records a fault produces are
    /// emitted by shard 0 only — the merged trace carries each transition
    /// exactly once, whatever the shard count.
    pub fn apply_fault(&mut self, now: SimTime, fault: NetFault, queue: &mut EventQueue<NetEvent>) {
        let emitting = self.core.my_shard == 0;
        match fault {
            NetFault::LinkUp { link, up } => {
                self.core.links[link].up = up;
                if emitting {
                    dlte_obs::emit(
                        now.as_nanos(),
                        u64::MAX,
                        Event::FaultLink {
                            link: link as u64,
                            up,
                        },
                    );
                }
            }
            NetFault::LinkOverride { link, ov } => self.core.links[link].set_override(ov),
            NetFault::NodeDown { node } => {
                if !self.down[node] {
                    self.down[node] = true;
                    if emitting {
                        dlte_obs::emit(
                            now.as_nanos(),
                            node as u64,
                            Event::FaultNode {
                                node: node as u64,
                                up: false,
                            },
                        );
                    }
                    if let Some(h) = self.handlers[node].as_mut() {
                        h.on_crash();
                    }
                }
            }
            NetFault::NodeUp { node } => {
                if self.down[node] {
                    self.down[node] = false;
                    if emitting {
                        dlte_obs::emit(
                            now.as_nanos(),
                            node as u64,
                            Event::FaultNode {
                                node: node as u64,
                                up: true,
                            },
                        );
                    }
                    // The restart callback can originate packets, so it must
                    // run under the node's own scheduling origin (see
                    // `World::handle`); only the owning shard still has the
                    // handler installed.
                    queue.set_origin(node as u64 + 1);
                    self.with_handler(node, queue, now, |h, ctx| h.on_restart(ctx));
                    queue.set_origin(0);
                }
            }
            NetFault::NodePause { node } => self.paused[node] = true,
            NetFault::NodeResume { node } => {
                if self.paused[node] {
                    self.paused[node] = false;
                    for tag in std::mem::take(&mut self.deferred[node]) {
                        queue.schedule_at(now, NetEvent::Timer { node, tag });
                    }
                }
            }
            NetFault::Partition { ref nodes, up } => {
                for (lid, l) in self.core.links.iter_mut().enumerate() {
                    if nodes.contains(&l.a) != nodes.contains(&l.b) {
                        l.up = up;
                        if emitting {
                            dlte_obs::emit(
                                now.as_nanos(),
                                u64::MAX,
                                Event::FaultLink {
                                    link: lid as u64,
                                    up,
                                },
                            );
                        }
                    }
                }
            }
            // Broadcast into every replica, but only the owner routes for
            // `node` (see `Network::split`).
            NetFault::RouteSet { node, prefix, link } => {
                if self.core.shard_of[node] == self.core.my_shard {
                    self.core.nodes[node].set_route(prefix, link);
                }
            }
        }
    }

    /// Whether `node` has a handler installed in this replica.
    pub fn has_handler(&self, node: NodeId) -> bool {
        self.handlers[node].is_some()
    }

    /// Split a network that has not started into one replica per shard of
    /// `plan`. Each node's handler and routes *move* to the replica that
    /// owns it; in every other replica the node keeps only its name and
    /// addresses, since a packet is routed only by its node's owner. Links
    /// and the seed are copied into every replica — link endpoints only
    /// ever mutate their own direction's state, and faults are broadcast —
    /// so no replica ever reaches into another's memory.
    ///
    /// Panics if the network has dispatched its `Start` event or `plan`
    /// covers a different number of nodes.
    pub fn split(self, plan: &ShardPlan) -> Vec<Network> {
        let n = self.core.nodes.len();
        assert_eq!(plan.num_nodes(), n, "plan covers a different topology");
        assert!(!self.started, "split a network before it starts");
        let shard_of: Vec<usize> = (0..n).map(|i| plan.shard_of(i)).collect();
        let Network {
            core,
            handlers,
            down,
            paused,
            deferred,
            started: _,
        } = self;
        let mut replicas: Vec<Network> = (0..plan.n())
            .map(|my_shard| Network {
                core: NetCore {
                    nodes: Vec::with_capacity(n),
                    links: core.links.clone(),
                    trace: TraceStats::new(),
                    fabric: FabricCounters::default(),
                    drops: [0; DROP_REASONS],
                    rng: core.rng.clone(),
                    pkt_seqs: core.pkt_seqs.clone(),
                    my_shard,
                    shard_of: shard_of.clone(),
                    outbound: Vec::new(),
                    pool: PacketPool::new(),
                },
                handlers: Vec::with_capacity(n),
                down: down.clone(),
                paused: paused.clone(),
                deferred: deferred.clone(),
                started: false,
            })
            .collect();
        for (node, (info, handler)) in core.nodes.into_iter().zip(handlers).enumerate() {
            let stub = info.without_routes();
            for replica in &mut replicas {
                replica.core.nodes.push(stub.clone());
                replica.handlers.push(None);
            }
            let owner = &mut replicas[shard_of[node]];
            owner.core.nodes[node] = info;
            owner.handlers[node] = handler;
        }
        replicas
    }

    /// Wrap into a ready-to-run simulation with the `Start` event pending.
    pub(crate) fn into_simulation(self) -> Simulation<Network> {
        let mut sim = Simulation::new(self);
        sim.queue_mut().schedule_at(SimTime::ZERO, NetEvent::Start);
        sim
    }

    /// The shard this replica runs as (0 unless it came out of
    /// [`Network::split`]).
    pub fn my_shard(&self) -> usize {
        self.core.my_shard
    }
}

impl World for Network {
    type Event = NetEvent;

    /// `Start` and `Fault` are replicated into every shard of a sharded run
    /// (each shard starts its own handlers; fault state is replicated), so
    /// they are excluded from dispatch counts — otherwise `events_dispatched`
    /// would grow with the shard count instead of staying invariant.
    fn is_control(event: &NetEvent) -> bool {
        matches!(event, NetEvent::Start | NetEvent::Fault(_))
    }

    fn handle(&mut self, now: SimTime, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        // Every path that can *schedule* (handler callbacks, forwarding)
        // runs under the acting node's origin (`node+1`), making each new
        // event's canonical key a pure function of that node's scheduling
        // history. The engine resets the origin to 0 (external/control)
        // around each dispatch.
        match event {
            NetEvent::PacketArrive { node, slot } => {
                queue.set_origin(node as u64 + 1);
                self.core.fabric.arrivals += 1;
                // A shard-crossing packet parks in this replica's arena, so
                // one body serves both slots. Only a consuming outcome (a
                // drop, handler ingest, trace delivery) takes the bytes out;
                // plain forwarding edits the pooled packet in place and
                // re-schedules the same 8-byte handle.
                let r = match slot {
                    PacketSlot::Pooled(r) => r,
                    PacketSlot::Owned(packet) => self.core.pool.insert(*packet),
                };
                let Some(p) = self.core.pool.get(r) else {
                    // A stale handle in a scheduled arrival means the packet
                    // was taken twice — a fabric bug, not a scenario outcome.
                    // Surface it in debug; drop the phantom arrival in release.
                    debug_assert!(false, "stale packet handle at node {node}");
                    return;
                };
                if self.down[node] || self.paused[node] {
                    self.core.drop_pooled(now, node, r, DropReason::NodeDown);
                } else if self.handlers[node].is_some() {
                    // One handler per node, so ownership moves straight in.
                    let packet = self.core.pool.take(r).expect("just read it");
                    self.with_handler(node, queue, now, move |h, ctx| {
                        h.on_packet(ctx, packet);
                    });
                    self.core.fabric.absorbed += 1;
                } else if self.core.nodes[node].owns(p.dst) {
                    let packet = self.core.pool.take(r).expect("just read it");
                    self.core.fabric.delivered_plain += 1;
                    self.core.trace.record_delivery(now, &packet);
                } else {
                    self.core.fabric.reforwarded += 1;
                    self.core.route_and_transmit(now, node, r, queue);
                }
            }
            NetEvent::LinkDeparted { link, dir } => {
                self.core.links[link].departed(dir);
            }
            NetEvent::Timer { node, tag } => {
                if self.down[node] {
                    // Crashed: pending timers belong to the lost state.
                    return;
                }
                if self.paused[node] {
                    self.deferred[node].push(tag);
                    return;
                }
                queue.set_origin(node as u64 + 1);
                self.with_handler(node, queue, now, |h, ctx| h.on_timer(ctx, tag));
            }
            NetEvent::Start => {
                self.started = true;
                for node in 0..self.handlers.len() {
                    queue.set_origin(node as u64 + 1);
                    self.with_handler(node, queue, now, |h, ctx| h.on_start(ctx));
                }
                queue.set_origin(0);
            }
            NetEvent::Fault(fault) => self.apply_fault(now, fault, queue),
        }
    }
}

impl ShardWorld for Network {
    fn drain_outbound(&mut self) -> Vec<OutMsg<NetEvent>> {
        std::mem::take(&mut self.core.outbound)
    }
}

/// Builder for network worlds.
pub struct NetworkBuilder {
    nodes: Vec<NodeInfo>,
    handlers: Vec<Option<Box<dyn NodeHandler>>>,
    links: Vec<Link>,
    rng: SimRng,
}

impl NetworkBuilder {
    pub fn new(seed: u64) -> Self {
        NetworkBuilder {
            nodes: Vec::new(),
            handlers: Vec::new(),
            links: Vec::new(),
            rng: SimRng::new(seed),
        }
    }

    /// Add a plain router/host node.
    pub fn node(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(NodeInfo::new(name));
        self.handlers.push(None);
        self.nodes.len() - 1
    }

    /// Add a node with behaviour.
    pub fn host(&mut self, name: impl Into<String>, handler: Box<dyn NodeHandler>) -> NodeId {
        let id = self.node(name);
        self.handlers[id] = Some(handler);
        id
    }

    /// Attach (or replace) a handler on an existing node.
    pub fn set_handler(&mut self, node: NodeId, handler: Box<dyn NodeHandler>) {
        self.handlers[node] = Some(handler);
    }

    /// Give a node an address.
    pub fn addr(&mut self, node: NodeId, addr: crate::addr::Addr) -> &mut Self {
        self.nodes[node].add_addr(addr);
        self
    }

    /// Connect two nodes; returns the link id.
    pub fn link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> LinkId {
        assert!(a < self.nodes.len() && b < self.nodes.len());
        assert_ne!(a, b, "self-links not supported");
        self.links.push(Link::new(a, b, config));
        self.links.len() - 1
    }

    /// Install a static route.
    pub fn route(&mut self, node: NodeId, prefix: crate::addr::Prefix, link: LinkId) -> &mut Self {
        self.nodes[node].set_route(prefix, link);
        self
    }

    /// Compute hop-count shortest-path routes from every node to every
    /// address-owning node, installing host routes (/32). Ties broken by
    /// lower link id — deterministic. Convenient for experiment topologies;
    /// explicit routes can still override (longer prefixes win, and /32 is
    /// the longest, so use explicit /32 routes *instead of* auto_routes when
    /// both would apply).
    pub fn auto_routes(&mut self) {
        let n = self.nodes.len();
        // adjacency: node -> [(neighbor, link)]
        let mut adj: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); n];
        for (lid, l) in self.links.iter().enumerate() {
            adj[l.a].push((l.b, lid));
            adj[l.b].push((l.a, lid));
        }
        for target in 0..n {
            if self.nodes[target].addrs().is_empty() {
                continue;
            }
            // BFS from target; first-hop of the reverse path gives each
            // node's outgoing link toward target.
            let mut dist = vec![usize::MAX; n];
            let mut via: Vec<Option<LinkId>> = vec![None; n];
            let mut q = std::collections::VecDeque::new();
            dist[target] = 0;
            q.push_back(target);
            while let Some(u) = q.pop_front() {
                for &(v, lid) in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        via[v] = Some(lid);
                        q.push_back(v);
                    }
                }
            }
            let addrs = self.nodes[target].addrs().to_vec();
            for (node, &hop) in via.iter().enumerate() {
                if node == target {
                    continue;
                }
                if let Some(link) = hop {
                    for &a in &addrs {
                        self.nodes[node].set_route(crate::addr::Prefix::new(a, 32), link);
                    }
                }
            }
        }
    }

    /// Finalize into a ready-to-run simulation (the `Start` event is already
    /// scheduled).
    pub fn build(self) -> Simulation<Network> {
        let n = self.nodes.len();
        let world = Network {
            core: NetCore {
                nodes: self.nodes,
                links: self.links,
                trace: TraceStats::new(),
                fabric: FabricCounters::default(),
                drops: [0; DROP_REASONS],
                rng: self.rng,
                pkt_seqs: vec![0; n],
                my_shard: 0,
                shard_of: vec![0; n],
                outbound: Vec::new(),
                pool: PacketPool::new(),
            },
            handlers: self.handlers,
            down: vec![false; n],
            paused: vec![false; n],
            deferred: vec![Vec::new(); n],
            started: false,
        };
        world.into_simulation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Prefix};
    use crate::packet::Payload;
    use dlte_sim::SimDuration;

    fn audit(sim: &Simulation<Network>) -> NetAudit {
        sim.world().audit(in_flight_packets(sim.queue()))
    }

    /// Handler that fires one flow packet at t=1ms toward a fixed address.
    struct OneShot {
        dst: Addr,
        bytes: u32,
    }

    impl NodeHandler for OneShot {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            let p = ctx
                .make_packet(self.dst, self.bytes)
                .with_payload(Payload::Flow { flow: 1, seq: 0 });
            ctx.forward(p);
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
            ctx.deliver_local(&packet);
        }
    }

    fn line_topology() -> (Simulation<Network>, NodeId) {
        // src —— r —— dst, 1 Gbit/s links with 1 ms delay each.
        let mut b = NetworkBuilder::new(1);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host(
            "src",
            Box::new(OneShot {
                dst: dst_addr,
                bytes: 1000,
            }),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let r = b.node("r");
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let cfg = LinkConfig {
            delay: SimDuration::from_millis(1),
            rate_bps: 1e9,
            queue_pkts: 100,
            loss: 0.0,
        };
        b.link(src, r, cfg);
        b.link(r, dst, cfg);
        b.auto_routes();
        (b.build(), dst)
    }

    #[test]
    fn packet_crosses_two_hops() {
        let (mut sim, _) = line_topology();
        sim.run_to_completion(10_000);
        let t = sim.world().trace();
        let f = t.flow(1).expect("flow delivered");
        assert_eq!(f.delivered_packets, 1);
        // Latency: 2×1 ms propagation + 2×8 µs serialization ≈ 2.016 ms.
        let lat = f.latency_ms.values()[0];
        assert!((lat - 2.016).abs() < 0.01, "latency {lat}");
        assert!((f.hops.mean() - 2.0).abs() < 1e-9);
        let a = audit(&sim);
        assert_eq!(
            a,
            NetAudit {
                fabric: a.fabric,
                ..NetAudit::default()
            },
            "nothing dropped, nothing in flight"
        );
    }

    #[test]
    fn no_route_drops_and_counts() {
        let mut b = NetworkBuilder::new(1);
        let src = b.host(
            "src",
            Box::new(OneShot {
                dst: Addr::new(99, 0, 0, 1),
                bytes: 100,
            }),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let mut sim = b.build();
        sim.run_to_completion(100);
        assert_eq!(audit(&sim).drops_no_route, 1);
    }

    #[test]
    fn ttl_guards_routing_loops() {
        // Two routers pointing default routes at each other.
        let mut b = NetworkBuilder::new(1);
        let src = b.host(
            "src",
            Box::new(OneShot {
                dst: Addr::new(99, 0, 0, 1),
                bytes: 100,
            }),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let r1 = b.node("r1");
        let r2 = b.node("r2");
        let cfg = LinkConfig::lan();
        let l0 = b.link(src, r1, cfg);
        let l1 = b.link(r1, r2, cfg);
        b.route(src, Prefix::DEFAULT, l0);
        b.route(r1, Prefix::DEFAULT, l1);
        b.route(r2, Prefix::DEFAULT, l1); // loop r1 <-> r2
        let mut sim = b.build();
        sim.run_to_completion(100_000);
        assert_eq!(audit(&sim).drops_ttl, 1);
        // Hop counting stopped at the TTL.
        assert!(sim.now().as_millis() < 100);
    }

    #[test]
    fn queue_overflow_drops() {
        // Slow link (10 kbit/s), queue of 2, burst of 10 packets.
        struct Burst {
            dst: Addr,
        }
        impl NodeHandler for Burst {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
                for seq in 0..10 {
                    let p = ctx
                        .make_packet(self.dst, 1000)
                        .with_payload(Payload::Flow { flow: 5, seq });
                    ctx.forward(p);
                }
            }
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _p: Packet) {}
        }
        let mut b = NetworkBuilder::new(1);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host("src", Box::new(Burst { dst: dst_addr }));
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let l = b.link(
            src,
            dst,
            LinkConfig {
                delay: SimDuration::from_millis(1),
                rate_bps: 10_000.0,
                queue_pkts: 2,
                loss: 0.0,
            },
        );
        b.route(src, Prefix::new(dst_addr, 32), l);
        let mut sim = b.build();
        sim.run_to_completion(10_000);
        assert_eq!(audit(&sim).drops_queue, 8, "2 fit, 8 drop");
        assert_eq!(sim.world().trace().flow(5).unwrap().delivered_packets, 2);
    }

    #[test]
    fn random_loss_is_applied() {
        struct Many {
            dst: Addr,
        }
        impl NodeHandler for Many {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for k in 0..1000 {
                    ctx.set_timer(SimDuration::from_millis(k), k);
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
                let p = ctx
                    .make_packet(self.dst, 100)
                    .with_payload(Payload::Flow { flow: 9, seq: tag });
                ctx.forward(p);
            }
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _p: Packet) {}
        }
        let mut b = NetworkBuilder::new(33);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host("src", Box::new(Many { dst: dst_addr }));
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let mut cfg = LinkConfig::lan();
        cfg.loss = 0.2;
        let l = b.link(src, dst, cfg);
        b.route(src, Prefix::new(dst_addr, 32), l);
        let mut sim = b.build();
        sim.run_to_completion(100_000);
        let delivered = sim.world().trace().flow(9).unwrap().delivered_packets;
        assert!((750..850).contains(&delivered), "delivered {delivered}");
        assert_eq!(delivered + audit(&sim).drops_loss, 1000);
    }

    #[test]
    fn auto_routes_reach_all_addressed_nodes() {
        // Star: center connected to 4 leaves, each leaf addressed.
        let mut b = NetworkBuilder::new(1);
        let center = b.node("center");
        let mut leaves = Vec::new();
        for i in 0..4u8 {
            let leaf = b.node(format!("leaf{i}"));
            b.addr(leaf, Addr::new(10, 0, i, 1));
            b.link(center, leaf, LinkConfig::lan());
            leaves.push(leaf);
        }
        b.auto_routes();
        let sim = b.build();
        let core = &sim.world().core;
        // Every leaf can reach every other leaf's address via the center.
        for &from in &leaves {
            for (i, &to) in leaves.iter().enumerate() {
                if from == to {
                    continue;
                }
                assert!(
                    core.nodes[from]
                        .route_for(Addr::new(10, 0, i as u8, 1))
                        .is_some(),
                    "leaf {from} cannot reach leaf {to}"
                );
            }
        }
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut sim, _) = line_topology();
            sim.run_to_completion(10_000);
            sim.world().trace().flow(1).unwrap().latency_ms.values()[0]
        };
        assert_eq!(run(), run());
    }

    /// Sends one flow packet every 10 ms, forever.
    struct Periodic {
        dst: Addr,
        sent: u64,
    }

    impl NodeHandler for Periodic {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            self.sent += 1;
            let p = ctx.make_packet(self.dst, 100).with_payload(Payload::Flow {
                flow: 1,
                seq: self.sent,
            });
            ctx.forward(p);
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _p: Packet) {}
    }

    /// Counts deliveries; loses its count on crash.
    struct Sink {
        got: u64,
        crashes: u64,
        restarts: u64,
    }

    impl NodeHandler for Sink {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, p: Packet) {
            self.got += 1;
            ctx.deliver_local(&p);
        }
        fn on_crash(&mut self) {
            self.got = 0;
            self.crashes += 1;
        }
        fn on_restart(&mut self, _ctx: &mut NodeCtx<'_>) {
            self.restarts += 1;
        }
    }

    #[test]
    fn node_crash_drops_packets_and_restart_recovers() {
        let mut b = NetworkBuilder::new(1);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host(
            "src",
            Box::new(Periodic {
                dst: dst_addr,
                sent: 0,
            }),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.host(
            "dst",
            Box::new(Sink {
                got: 0,
                crashes: 0,
                restarts: 0,
            }),
        );
        b.addr(dst, dst_addr);
        b.link(src, dst, LinkConfig::lan());
        b.auto_routes();
        let mut sim = b.build();
        sim.queue_mut().schedule_at(
            SimTime::from_millis(100),
            NetEvent::Fault(NetFault::NodeDown { node: dst }),
        );
        sim.queue_mut().schedule_at(
            SimTime::from_millis(200),
            NetEvent::Fault(NetFault::NodeUp { node: dst }),
        );
        sim.run_until(SimTime::from_millis(305), 100_000);
        let w = sim.world();
        assert!(!w.node_is_down(dst));
        let sink = w.handler_as::<Sink>(dst).unwrap();
        assert_eq!(sink.crashes, 1);
        assert_eq!(sink.restarts, 1);
        // ~10 packets fell into the outage window; state was lost at crash
        // so only the ~10 post-restart packets are counted.
        let dropped = audit(&sim).drops_node_down;
        assert!((8..=12).contains(&dropped), "node-down drops {dropped}");
        assert!(
            (8..=12).contains(&sink.got),
            "post-restart deliveries {}",
            sink.got
        );
    }

    /// Regression guard for the handler fan-out fast path: with at most one
    /// handler per node, delivery moves ownership and never clones, so an
    /// end-to-end run under [`dlte_sim::report::scope`] observes zero copied
    /// bytes.
    #[test]
    fn single_handler_dispatch_copies_no_bytes() {
        let mut b = NetworkBuilder::new(1);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host(
            "src",
            Box::new(Periodic {
                dst: dst_addr,
                sent: 0,
            }),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.host(
            "dst",
            Box::new(Sink {
                got: 0,
                crashes: 0,
                restarts: 0,
            }),
        );
        b.addr(dst, dst_addr);
        b.link(src, dst, LinkConfig::lan());
        b.auto_routes();
        let ((), report) = dlte_sim::report::scope(|| {
            let mut sim = b.build();
            sim.run_until(SimTime::from_millis(305), 100_000);
            let got = sim.world().handler_as::<Sink>(dst).unwrap().got;
            assert!(got >= 20, "flow delivered ({got} packets)");
        });
        assert_eq!(
            report.bytes_copied, 0,
            "single-handler dispatch must move, not clone"
        );
    }

    /// Records the firing time (ms) of each of 5 pre-armed timers.
    struct Ticker {
        fired: Vec<u64>,
    }

    impl NodeHandler for Ticker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for k in 1..=5u64 {
                ctx.set_timer(SimDuration::from_millis(10 * k), k);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
            self.fired.push(ctx.now.as_millis());
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _p: Packet) {}
    }

    #[test]
    fn pause_defers_timers_until_resume() {
        let mut b = NetworkBuilder::new(1);
        let t = b.host("t", Box::new(Ticker { fired: vec![] }));
        let mut sim = b.build();
        sim.queue_mut().schedule_at(
            SimTime::from_millis(15),
            NetEvent::Fault(NetFault::NodePause { node: t }),
        );
        sim.queue_mut().schedule_at(
            SimTime::from_millis(45),
            NetEvent::Fault(NetFault::NodeResume { node: t }),
        );
        sim.run_to_completion(1000);
        let w = sim.world();
        assert!(!w.node_is_paused(t));
        let ticker = w.handler_as::<Ticker>(t).unwrap();
        // Timer 1 fires normally; 2–4 (20/30/40 ms) defer to the resume at
        // 45 ms in original order; 5 fires on schedule.
        assert_eq!(ticker.fired, vec![10, 45, 45, 45, 50]);
    }

    #[test]
    fn partition_cuts_only_boundary_links() {
        let mut b = NetworkBuilder::new(1);
        let a = b.node("a");
        let c = b.node("c");
        let d = b.node("d");
        let l_ac = b.link(a, c, LinkConfig::lan());
        let l_ad = b.link(a, d, LinkConfig::lan());
        let l_cd = b.link(c, d, LinkConfig::lan());
        let mut sim = b.build();
        sim.queue_mut().schedule_at(
            SimTime::ZERO,
            NetEvent::Fault(NetFault::Partition {
                nodes: vec![a],
                up: false,
            }),
        );
        sim.run_to_completion(10);
        {
            let links = &sim.world().core.links;
            assert!(!links[l_ac].up);
            assert!(!links[l_ad].up);
            assert!(links[l_cd].up, "interior link untouched");
        }
        let now = sim.now();
        sim.queue_mut().schedule_at(
            now,
            NetEvent::Fault(NetFault::Partition {
                nodes: vec![a],
                up: true,
            }),
        );
        sim.run_to_completion(10);
        let links = &sim.world().core.links;
        assert!(links[l_ac].up && links[l_ad].up && links[l_cd].up);
    }

    /// Every drop reason, provoked once by a single packet on `src — r —
    /// dst`: the per-network tally in `audit()`, the always-on
    /// `drops_<reason>` counter and the traced `Event::Drop` each see it
    /// exactly once.
    #[test]
    fn drops_emit_events_and_always_on_counters() {
        use DropReason::*;

        let dst_addr = Addr::new(10, 0, 0, 2);
        for reason in [TtlExpired, NoRoute, Queue, Loss, LinkDown, NodeDown] {
            let mut b = NetworkBuilder::new(1);
            let src = b.host(
                "src",
                Box::new(OneShot {
                    dst: dst_addr,
                    bytes: 100,
                }),
            );
            b.addr(src, Addr::new(10, 0, 0, 1));
            let r = b.node("r");
            let dst = b.node("dst");
            let mut cfg = LinkConfig::lan();
            match reason {
                Queue => cfg.queue_pkts = 0,
                Loss => cfg.loss = 1.0,
                _ => {}
            }
            let l0 = b.link(src, r, LinkConfig::lan());
            let l1 = b.link(r, dst, cfg);
            b.route(src, Prefix::DEFAULT, l0);
            match reason {
                NoRoute => {}
                // `dst` owns nothing and points back at `r`: a loop.
                TtlExpired => {
                    b.route(r, Prefix::DEFAULT, l1);
                    b.route(dst, Prefix::DEFAULT, l1);
                }
                _ => {
                    b.route(r, Prefix::new(dst_addr, 32), l1);
                    b.addr(dst, dst_addr);
                }
            }
            let mut sim = b.build();
            let fault = match reason {
                LinkDown => Some(NetFault::LinkUp {
                    link: l1,
                    up: false,
                }),
                NodeDown => Some(NetFault::NodeDown { node: dst }),
                _ => None,
            };
            if let Some(fault) = fault {
                sim.queue_mut()
                    .schedule_at(SimTime::ZERO, NetEvent::Fault(fault));
            }

            let _ = dlte_obs::metrics::take();
            dlte_obs::set_tracing(true);
            let _ = dlte_obs::take_records();
            sim.run_to_completion(10_000);
            let records = dlte_obs::take_records();
            dlte_obs::set_tracing(false);

            let a = audit(&sim);
            assert_conserved(&a);
            for (r, n) in [
                (Queue, a.drops_queue),
                (Loss, a.drops_loss),
                (LinkDown, a.drops_link_down),
                (NodeDown, a.drops_node_down),
                (NoRoute, a.drops_no_route),
                (TtlExpired, a.drops_ttl),
            ] {
                assert_eq!(n, u64::from(r == reason), "{reason:?}: audit {r:?}");
            }
            let drops = dlte_obs::metrics::take().prefixed("drops_");
            assert_eq!(drops[reason.name()], 1, "{reason:?}");
            assert_eq!(drops.values().sum::<u64>(), 1, "{reason:?}: {drops:?}");
            let traced: Vec<&Event> = records
                .iter()
                .map(|r| &r.event)
                .filter(|e| matches!(e, Event::Drop { .. }))
                .collect();
            assert_eq!(traced, [&Event::Drop { reason, bytes: 100 }], "{reason:?}");
        }
    }

    #[test]
    fn faults_emit_link_and_node_transition_events() {
        use dlte_obs::Event;

        dlte_obs::set_tracing(true);
        let _ = dlte_obs::take_records();
        let mut b = NetworkBuilder::new(1);
        let a = b.node("a");
        let c = b.node("c");
        let l = b.link(a, c, LinkConfig::lan());
        let mut sim = b.build();
        sim.queue_mut().schedule_at(
            SimTime::from_millis(1),
            NetEvent::Fault(NetFault::LinkUp { link: l, up: false }),
        );
        sim.queue_mut().schedule_at(
            SimTime::from_millis(2),
            NetEvent::Fault(NetFault::NodeDown { node: c }),
        );
        sim.queue_mut().schedule_at(
            SimTime::from_millis(3),
            NetEvent::Fault(NetFault::NodeUp { node: c }),
        );
        sim.run_to_completion(100);
        let records = dlte_obs::take_records();
        dlte_obs::set_tracing(false);
        let events: Vec<&Event> = records.iter().map(|r| &r.event).collect();
        assert!(events.contains(&&Event::FaultLink {
            link: l as u64,
            up: false
        }));
        assert!(events.contains(&&Event::FaultNode {
            node: c as u64,
            up: false
        }));
        assert!(events.contains(&&Event::FaultNode {
            node: c as u64,
            up: true
        }));
    }

    /// The three ledger identities the conservation oracle checks. Kept here
    /// (next to the counters) so any future forwarding change that breaks the
    /// ledger fails immediately, not only under the fuzzer.
    fn assert_conserved(audit: &NetAudit) {
        let f = &audit.fabric;
        assert_eq!(
            f.originated + f.reforwarded,
            f.accepted
                + audit.drops_ttl
                + audit.drops_no_route
                + audit.drops_queue
                + audit.drops_loss
                + audit.drops_link_down,
            "every fabric entry has exactly one exit: {audit:?}"
        );
        assert_eq!(
            f.accepted,
            f.arrivals + audit.in_flight,
            "every accepted transmission arrives or is in flight: {audit:?}"
        );
        assert_eq!(
            f.arrivals,
            f.absorbed + f.delivered_plain + audit.drops_node_down + f.reforwarded,
            "every arrival terminates exactly once: {audit:?}"
        );
    }

    #[test]
    fn conservation_ledger_closes_on_clean_and_lossy_runs() {
        // Clean two-hop run, fully drained: nothing in flight.
        let (mut sim, _) = line_topology();
        sim.run_to_completion(10_000);
        let audit = sim.world().audit(in_flight_packets(sim.queue()));
        assert_eq!(audit.in_flight, 0);
        assert_eq!(audit.fabric.delivered_plain, 1);
        assert_conserved(&audit);

        // Mid-run audit: packets legitimately in flight.
        let (mut sim, _) = line_topology();
        sim.run_until(SimTime::from_micros(1500), 10_000);
        let audit = sim.world().audit(in_flight_packets(sim.queue()));
        assert_eq!(audit.in_flight, 1, "packet crossing the second hop");
        assert_conserved(&audit);
    }

    #[test]
    fn conservation_ledger_closes_under_faults() {
        // Periodic traffic into a crashing sink across a flapping link: the
        // ledger must close with loss, link-down and node-down drops all in
        // play.
        let mut b = NetworkBuilder::new(9);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host(
            "src",
            Box::new(Periodic {
                dst: dst_addr,
                sent: 0,
            }),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.host(
            "dst",
            Box::new(Sink {
                got: 0,
                crashes: 0,
                restarts: 0,
            }),
        );
        b.addr(dst, dst_addr);
        let mut cfg = LinkConfig::lan();
        cfg.loss = 0.1;
        let l = b.link(src, dst, cfg);
        b.auto_routes();
        let mut sim = b.build();
        for (ms, fault) in [
            (100, NetFault::LinkUp { link: l, up: false }),
            (200, NetFault::LinkUp { link: l, up: true }),
            (300, NetFault::NodeDown { node: dst }),
            (400, NetFault::NodeUp { node: dst }),
        ] {
            sim.queue_mut()
                .schedule_at(SimTime::from_millis(ms), NetEvent::Fault(fault));
        }
        sim.run_until(SimTime::from_millis(505), 1_000_000);
        let audit = sim.world().audit(in_flight_packets(sim.queue()));
        assert!(audit.drops_loss > 0 && audit.drops_link_down > 0);
        assert!(audit.drops_node_down > 0);
        assert_conserved(&audit);
    }

    #[test]
    fn net_fault_serde_round_trips() {
        let faults = vec![
            NetFault::LinkUp { link: 3, up: false },
            NetFault::LinkOverride {
                link: 1,
                ov: LinkOverride {
                    loss: Some(0.25),
                    extra_delay: Some(SimDuration::from_millis(40)),
                    jitter: Some(SimDuration::from_millis(5)),
                    rate_bps: Some(1e6),
                },
            },
            NetFault::NodeDown { node: 2 },
            NetFault::NodeUp { node: 2 },
            NetFault::NodePause { node: 4 },
            NetFault::NodeResume { node: 4 },
            NetFault::Partition {
                nodes: vec![0, 5],
                up: false,
            },
            NetFault::RouteSet {
                node: 7,
                prefix: Prefix::new(Addr::new(10, 2, 0, 0), 16),
                link: 4,
            },
        ];
        for f in faults {
            let json = serde_json::to_string(&f).unwrap();
            let back: NetFault = serde_json::from_str(&json).unwrap();
            assert_eq!(back, f, "{json}");
        }
    }

    /// A `RouteSet` read from JSON gets `Prefix::new`'s checks: a length
    /// past 32 is an error naming the field, and host bits are masked.
    #[test]
    fn route_set_json_rejects_long_prefixes_and_masks_host_bits() {
        let fault = |addr: u32, len: u32| {
            let json = format!(
                r#"{{"RouteSet":{{"node":7,"prefix":{{"addr":{addr},"len":{len}}},"link":4}}}}"#
            );
            serde_json::from_str::<NetFault>(&json)
        };
        for len in [33, 40, 255, 256] {
            let err = fault(0x0A02_0000, len)
                .expect_err("length past 32")
                .to_string();
            assert!(err.contains("field `len`"), "{len}: {err}");
        }
        let host_bits = fault(0x0A02_0304, 16).expect("valid /16");
        let NetFault::RouteSet { prefix, .. } = host_bits else {
            panic!("{host_bits:?}");
        };
        assert_eq!(prefix, Prefix::new(Addr::new(10, 2, 0, 0), 16));
        assert_eq!(prefix.addr, Addr::new(10, 2, 0, 0));
    }
}
