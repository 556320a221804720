//! Nodes, handlers and the context handed to them.
//!
//! A [`NodeHandler`] is the extension point of the substrate: EPC entities,
//! dLTE local cores, traffic sources and OTT servers all implement it. The
//! [`NodeCtx`] passed to every callback exposes exactly the operations a
//! real host has — originate packets, forward packets, arm timers — plus the
//! simulator conveniences (address lookup, deterministic RNG, trace sink).

use crate::addr::{Addr, Prefix};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::link::LinkId;
use crate::network::{NetCore, NetEvent};
use crate::packet::Packet;
use dlte_sim::engine::EventKey;
use dlte_sim::{EventQueue, SimDuration, SimTime};
use std::cell::RefCell;

/// Identifies a node.
pub type NodeId = usize;

/// The compiled forwarding table: routes bucketed by prefix length into
/// exact-match hash maps probed longest-first, plus a hashed owned-address
/// set. Compiled lazily from a [`NodeInfo`]'s route/address lists — the
/// `generation` tag says which revision it was built from.
///
/// Lookup is bit-identical to the linear reference scan
/// ([`NodeInfo::route_for_linear`]): `set_route` keeps prefixes unique, so
/// at most one route of any given length can contain a destination, and
/// probing lengths 32→0 returns exactly the longest match.
#[derive(Clone, Debug, Default)]
struct Fib {
    /// The [`NodeInfo`] generation this FIB was compiled from (0 = never;
    /// node generations start at 1, so a fresh FIB is always stale).
    generation: u64,
    /// One exact-match table per prefix length present, longest first.
    by_len: Vec<(u8, FxHashMap<u32, LinkId>)>,
    owned: FxHashSet<Addr>,
}

impl Fib {
    fn compile(&mut self, generation: u64, addrs: &[Addr], routes: &[(Prefix, LinkId)]) {
        self.generation = generation;
        self.owned.clear();
        self.owned.extend(addrs.iter().copied());
        let mut buckets: FxHashMap<u8, FxHashMap<u32, LinkId>> = FxHashMap::default();
        for &(p, l) in routes {
            buckets.entry(p.len).or_default().insert(p.addr.0, l);
        }
        self.by_len = buckets.into_iter().collect();
        self.by_len
            .sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    }

    fn lookup(&self, dst: Addr) -> Option<LinkId> {
        self.by_len
            .iter()
            .find_map(|(len, table)| table.get(&(dst.0 & Prefix::mask_of(*len))).copied())
    }
}

/// Static node metadata kept by the core.
///
/// The address and route lists are private: every mutation goes through a
/// method that bumps the generation counter, which invalidates the
/// compiled [`Fib`] the hot-path `route_for`/`owns` lookups use. The FIB
/// is rebuilt lazily on the next lookup, so bursts of control-plane churn
/// (attach storms, dLTE address churn, mesh reroutes) pay one compile,
/// not one per mutation.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    pub name: String,
    /// Addresses owned by this node (delivery targets).
    addrs: Vec<Addr>,
    /// Longest-prefix-match routing table: (prefix, outgoing link).
    /// Invariant (enforced by `set_route`): prefixes are unique.
    routes: Vec<(Prefix, LinkId)>,
    /// Bumped by every address/route mutation.
    generation: u64,
    fib: RefCell<Fib>,
}

impl NodeInfo {
    pub fn new(name: impl Into<String>) -> NodeInfo {
        NodeInfo {
            name: name.into(),
            addrs: Vec::new(),
            routes: Vec::new(),
            generation: 1,
            fib: RefCell::new(Fib::default()),
        }
    }

    /// Addresses owned by this node.
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// The routing table, in insertion order.
    pub fn routes(&self) -> &[(Prefix, LinkId)] {
        &self.routes
    }

    /// Add an owned address.
    pub fn add_addr(&mut self, addr: Addr) {
        self.addrs.push(addr);
        self.generation += 1;
    }

    /// Remove an owned address, returning whether it was present.
    pub fn remove_addr(&mut self, addr: Addr) -> bool {
        let before = self.addrs.len();
        self.addrs.retain(|&a| a != addr);
        let removed = self.addrs.len() != before;
        if removed {
            self.generation += 1;
        }
        removed
    }

    /// Run `f` over the compiled FIB, rebuilding it first if any mutation
    /// happened since the last compile.
    fn with_fib<T>(&self, f: impl FnOnce(&Fib) -> T) -> T {
        let mut fib = self.fib.borrow_mut();
        if fib.generation != self.generation {
            fib.compile(self.generation, &self.addrs, &self.routes);
        }
        f(&fib)
    }

    /// True if `a` is one of this node's addresses.
    pub fn owns(&self, a: Addr) -> bool {
        self.with_fib(|fib| fib.owned.contains(&a))
    }

    /// Longest-prefix-match lookup (via the compiled FIB).
    pub fn route_for(&self, dst: Addr) -> Option<LinkId> {
        self.with_fib(|fib| fib.lookup(dst))
    }

    /// The original linear longest-prefix scan, kept as the reference
    /// semantics `route_for` must match bit-for-bit (the proptest
    /// equivalence suite checks this on random tables).
    pub fn route_for_linear(&self, dst: Addr) -> Option<LinkId> {
        self.routes
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len)
            .map(|&(_, l)| l)
    }

    /// Install (or replace) a route.
    pub fn set_route(&mut self, prefix: Prefix, link: LinkId) {
        if let Some(entry) = self.routes.iter_mut().find(|(p, _)| *p == prefix) {
            entry.1 = link;
        } else {
            self.routes.push((prefix, link));
        }
        self.generation += 1;
    }

    /// Remove a route, returning whether it existed.
    pub fn remove_route(&mut self, prefix: Prefix) -> bool {
        let before = self.routes.len();
        self.routes.retain(|(p, _)| *p != prefix);
        let removed = self.routes.len() != before;
        if removed {
            self.generation += 1;
        }
        removed
    }

    /// Keep only the routes `f` approves of (bulk removal — e.g. flushing
    /// every route pointing at a dead link).
    pub fn retain_routes(&mut self, mut f: impl FnMut(Prefix, LinkId) -> bool) {
        self.routes.retain(|&(p, l)| f(p, l));
        self.generation += 1;
    }
}

/// Behaviour attached to a node.
///
/// The `Any` supertrait lets experiment harnesses extract their concrete
/// handler (and its accumulated measurements) back out of a finished
/// [`crate::Network`] via [`crate::Network::handler_as`]. The `Send`
/// supertrait lets a shard (which owns the handler exclusively) run on a
/// worker thread; handlers never share state across nodes, so this costs
/// nothing beyond banning `Rc`/`RefCell` captures inside handlers.
pub trait NodeHandler: std::any::Any + Send {
    /// A packet destined to (or traversing) this node arrived. The handler
    /// decides its fate: consume it, reply, or `ctx.forward(packet)`.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet);

    /// A timer armed via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _tag: u64) {}

    /// Called once when the simulation starts (seed initial timers here).
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}

    /// The node crashed (fault injection): drop volatile state. No ctx —
    /// a crashing node gets no parting actions. Timers pending at crash
    /// time never fire.
    fn on_crash(&mut self) {}

    /// The node restarted after a crash: re-seed timers/state. Defaults to
    /// re-running [`NodeHandler::on_start`].
    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.on_start(ctx);
    }
}

/// The capabilities handed to a handler callback.
pub struct NodeCtx<'a> {
    pub now: SimTime,
    pub node: NodeId,
    pub(crate) core: &'a mut NetCore,
    pub(crate) queue: &'a mut EventQueue<NetEvent>,
}

impl NodeCtx<'_> {
    /// This node's first address (the common single-homed case).
    pub fn my_addr(&self) -> Addr {
        self.core.nodes[self.node]
            .addrs()
            .first()
            .copied()
            .unwrap_or(Addr::UNSPECIFIED)
    }

    /// Name of this node (diagnostics).
    pub fn my_name(&self) -> &str {
        &self.core.nodes[self.node].name
    }

    /// Allocate a fresh packet id. Ids are per-origin-node sequences
    /// (`(node+1) << 40 | seq`), so the id a packet gets is a pure function
    /// of its originator's history — independent of how other nodes'
    /// events interleave, and therefore of the shard count.
    pub fn new_packet_id(&mut self) -> u64 {
        self.core.next_packet_id(self.node)
    }

    /// Build a packet originating here, stamped with the current time.
    pub fn make_packet(&mut self, dst: Addr, size_bytes: u32) -> Packet {
        let id = self.new_packet_id();
        Packet::new(id, self.my_addr(), dst, size_bytes, self.now)
    }

    /// Route `packet` out of this node by its routing table. The packet is
    /// parked in the arena here and travels the fabric as a handle.
    pub fn forward(&mut self, packet: Packet) {
        self.core.fabric.originated += 1;
        let r = self.core.pool.insert(packet);
        self.core
            .route_and_transmit(self.now, self.node, r, self.queue);
    }

    /// Transmit `packet` on a specific link (bypassing the routing table).
    pub fn forward_via(&mut self, link: LinkId, packet: Packet) {
        self.core.fabric.originated += 1;
        let r = self.core.pool.insert(packet);
        self.core
            .transmit_on(self.now, self.node, link, r, self.queue);
    }

    /// Deliver `packet` locally (record it in the trace sink).
    pub fn deliver_local(&mut self, packet: &Packet) {
        self.core.trace.record_delivery(self.now, packet);
    }

    /// Arm a timer; `tag` is returned to `on_timer`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> EventKey {
        self.queue.schedule_in(
            delay,
            NetEvent::Timer {
                node: self.node,
                tag,
            },
        )
    }

    /// Cancel a previously armed timer.
    pub fn cancel_timer(&mut self, key: EventKey) {
        self.queue.cancel(key);
    }

    /// Uniform draw in [0,1), deterministic per node: the k-th draw made by
    /// node `n` is `hash(seed, salt, n, k)`. Counter-based rather than a
    /// shared stream so the value never depends on what *other* nodes drew
    /// first — a shard-count-invariance requirement.
    pub fn rand_unit(&mut self) -> f64 {
        self.core.node_rand_unit(self.node)
    }

    /// Mutate this node's routing/address state (e.g. a P-GW announcing a
    /// UE address, or a dLTE AP assigning a new one).
    pub fn node_info_mut(&mut self) -> &mut NodeInfo {
        &mut self.core.nodes[self.node]
    }

    /// Inspect another node's info (e.g. to find a peer's address).
    pub fn peer_info(&self, node: NodeId) -> &NodeInfo {
        &self.core.nodes[node]
    }

    /// Add an address to an arbitrary node and (optionally) point a host
    /// route at it from a neighbor — used by attach procedures.
    pub fn add_addr(&mut self, node: NodeId, addr: Addr) {
        self.core.nodes[node].add_addr(addr);
    }

    /// Remove an address from a node (detach / address churn), returning
    /// whether it was present.
    pub fn remove_addr(&mut self, node: NodeId, addr: Addr) -> bool {
        self.core.nodes[node].remove_addr(addr)
    }

    /// Install a route on an arbitrary node (control-plane actions reach
    /// across the topology; the "wire" cost is modeled by the control
    /// packets the caller sends).
    pub fn set_route_on(&mut self, node: NodeId, prefix: Prefix, link: LinkId) {
        self.core.nodes[node].set_route(prefix, link);
    }

    /// Bring a link up or down (fault-injection orchestration).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.core.links[link].up = up;
    }

    /// Schedule a fault to be applied after `delay`. Faults are ordinary
    /// events, so they interleave deterministically with packets and timers.
    ///
    /// Sharding caveat: this schedules into the *local* shard's queue only.
    /// Pre-planned fault timelines are instead broadcast into every shard
    /// at build time (see `ShardedSim::schedule_fault_broadcast`), so a
    /// handler calling this at runtime must only target state its own
    /// shard reads — or the run must stay at `--shards 1`.
    pub fn schedule_fault(
        &mut self,
        delay: SimDuration,
        fault: crate::network::NetFault,
    ) -> EventKey {
        self.queue.schedule_in(delay, NetEvent::Fault(fault))
    }

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.core.links[link].up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpm_prefers_longest() {
        let mut n = NodeInfo::new("r1");
        n.set_route(Prefix::DEFAULT, 0);
        n.set_route(Prefix::new(Addr::new(10, 0, 0, 0), 8), 1);
        n.set_route(Prefix::new(Addr::new(10, 1, 0, 0), 16), 2);
        assert_eq!(n.route_for(Addr::new(10, 1, 2, 3)), Some(2));
        assert_eq!(n.route_for(Addr::new(10, 9, 2, 3)), Some(1));
        assert_eq!(n.route_for(Addr::new(8, 8, 8, 8)), Some(0));
    }

    #[test]
    fn set_route_replaces() {
        let mut n = NodeInfo::new("r1");
        let p = Prefix::new(Addr::new(10, 0, 0, 0), 8);
        n.set_route(p, 1);
        n.set_route(p, 5);
        assert_eq!(n.routes().len(), 1);
        assert_eq!(n.route_for(Addr::new(10, 0, 0, 1)), Some(5));
        assert!(n.remove_route(p));
        assert!(!n.remove_route(p));
        assert_eq!(n.route_for(Addr::new(10, 0, 0, 1)), None);
    }

    #[test]
    fn owns_addr() {
        let mut n = NodeInfo::new("h");
        n.add_addr(Addr::new(192, 168, 1, 1));
        assert!(n.owns(Addr::new(192, 168, 1, 1)));
        assert!(!n.owns(Addr::new(192, 168, 1, 2)));
    }

    /// Every mutation path invalidates the compiled FIB: lookups after
    /// churn see the new state, never a stale compile.
    #[test]
    fn fib_invalidates_on_every_mutation() {
        let mut n = NodeInfo::new("r1");
        let p8 = Prefix::new(Addr::new(10, 0, 0, 0), 8);
        let p16 = Prefix::new(Addr::new(10, 1, 0, 0), 16);
        n.set_route(p8, 1);
        assert_eq!(n.route_for(Addr::new(10, 1, 2, 3)), Some(1)); // compiles
        n.set_route(p16, 2);
        assert_eq!(
            n.route_for(Addr::new(10, 1, 2, 3)),
            Some(2),
            "new route seen"
        );
        n.set_route(p16, 7);
        assert_eq!(
            n.route_for(Addr::new(10, 1, 2, 3)),
            Some(7),
            "replacement seen"
        );
        assert!(n.remove_route(p16));
        assert_eq!(n.route_for(Addr::new(10, 1, 2, 3)), Some(1), "removal seen");
        n.retain_routes(|_, _| false);
        assert_eq!(n.route_for(Addr::new(10, 1, 2, 3)), None, "bulk flush seen");

        let a = Addr::new(100, 64, 0, 1);
        assert!(!n.owns(a)); // compiles the owned set
        n.add_addr(a);
        assert!(n.owns(a), "added address seen");
        assert!(n.remove_addr(a));
        assert!(!n.owns(a), "removed address seen");
    }

    /// The compiled lookup must agree with the linear reference on the
    /// shapes that stress it: overlaps, the default route, misses.
    #[test]
    fn fib_matches_linear_reference() {
        let mut n = NodeInfo::new("r1");
        n.set_route(Prefix::DEFAULT, 0);
        n.set_route(Prefix::new(Addr::new(10, 0, 0, 0), 8), 1);
        n.set_route(Prefix::new(Addr::new(10, 1, 0, 0), 16), 2);
        n.set_route(Prefix::new(Addr::new(10, 1, 2, 3), 32), 3);
        for dst in [
            Addr::new(10, 1, 2, 3),
            Addr::new(10, 1, 2, 4),
            Addr::new(10, 9, 9, 9),
            Addr::new(8, 8, 8, 8),
            Addr::UNSPECIFIED,
        ] {
            assert_eq!(n.route_for(dst), n.route_for_linear(dst), "dst {dst}");
        }
    }
}
