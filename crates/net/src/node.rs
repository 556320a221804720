//! Nodes, handlers and the context handed to them.
//!
//! A [`NodeHandler`] is the extension point of the substrate: EPC entities,
//! dLTE local cores, traffic sources and OTT servers all implement it. The
//! [`NodeCtx`] passed to every callback exposes exactly the operations a
//! real host has — originate packets, forward packets, arm timers — plus the
//! simulator conveniences (address lookup, deterministic RNG, trace sink).
//!
//! [`NodeInfo`] is what the core keeps per node: its name, its addresses
//! and its forwarding table. The table is stored once, as one exact-match
//! map per prefix length, edited in place by route changes and probed
//! read-only, longest length first, by every forwarded packet.

use crate::addr::{Addr, Prefix};
use crate::fxhash::FxHashMap;
use crate::link::LinkId;
use crate::network::{NetCore, NetEvent};
use crate::packet::Packet;
use dlte_sim::engine::EventKey;
use dlte_sim::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;

/// Identifies a node.
pub type NodeId = usize;

/// Static node metadata kept by the core: its name, the addresses it owns
/// and its forwarding table.
///
/// Every route mutation edits the right per-length map in place, and a
/// map that empties is dropped. Prefixes are unique per length, so at most
/// one route of any given length contains a destination, and probing
/// lengths longest-first returns exactly the longest match.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    pub name: String,
    /// Addresses owned by this node (delivery targets). One or two per
    /// node, so membership is a scan.
    addrs: Vec<Addr>,
    /// `(prefix length, base → link)`, sorted by length descending; no
    /// map is empty.
    fib: Vec<(u8, FxHashMap<u32, u32>)>,
}

impl NodeInfo {
    pub fn new(name: impl Into<String>) -> NodeInfo {
        NodeInfo {
            name: name.into(),
            addrs: Vec::new(),
            fib: Vec::new(),
        }
    }

    /// This node's name and addresses, with an empty forwarding table.
    pub(crate) fn without_routes(&self) -> NodeInfo {
        NodeInfo {
            name: self.name.clone(),
            addrs: self.addrs.clone(),
            fib: Vec::new(),
        }
    }

    /// Addresses owned by this node.
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// The routing table, in unspecified order.
    pub fn routes(&self) -> impl Iterator<Item = (Prefix, LinkId)> + '_ {
        self.fib.iter().flat_map(|&(len, ref table)| {
            table.iter().map(move |(&base, &link)| {
                let prefix = Prefix {
                    addr: Addr(base),
                    len,
                };
                (prefix, link as LinkId)
            })
        })
    }

    /// Add an owned address.
    pub fn add_addr(&mut self, addr: Addr) {
        self.addrs.push(addr);
    }

    /// Remove an owned address, returning whether it was present.
    pub fn remove_addr(&mut self, addr: Addr) -> bool {
        let before = self.addrs.len();
        self.addrs.retain(|&a| a != addr);
        self.addrs.len() != before
    }

    /// True if `a` is one of this node's addresses.
    pub fn owns(&self, a: Addr) -> bool {
        self.addrs.contains(&a)
    }

    /// Longest-prefix-match lookup.
    pub fn route_for(&self, dst: Addr) -> Option<LinkId> {
        self.fib.iter().find_map(|(len, table)| {
            table
                .get(&(dst.0 & Prefix::mask_of(*len)))
                .map(|&link| link as LinkId)
        })
    }

    /// Where the map for prefix length `len` sits (or would be inserted).
    fn slot(&self, len: u8) -> Result<usize, usize> {
        self.fib
            .binary_search_by_key(&Reverse(len), |&(l, _)| Reverse(l))
    }

    /// Install (or replace) a route.
    pub fn set_route(&mut self, prefix: Prefix, link: LinkId) {
        let link = u32::try_from(link).expect("link id fits in u32");
        let i = self.slot(prefix.len).unwrap_or_else(|i| {
            self.fib.insert(i, (prefix.len, FxHashMap::default()));
            i
        });
        self.fib[i].1.insert(prefix.addr.0, link);
    }

    /// Remove a route, returning whether it existed.
    pub fn remove_route(&mut self, prefix: Prefix) -> bool {
        let Ok(i) = self.slot(prefix.len) else {
            return false;
        };
        let removed = self.fib[i].1.remove(&prefix.addr.0).is_some();
        if self.fib[i].1.is_empty() {
            self.fib.remove(i);
        }
        removed
    }

    /// Keep only the routes `f` approves of (bulk removal — e.g. flushing
    /// every route pointing at a dead link).
    pub fn retain_routes(&mut self, mut f: impl FnMut(Prefix, LinkId) -> bool) {
        for (len, table) in &mut self.fib {
            let len = *len;
            table.retain(|&base, &mut link| {
                let prefix = Prefix {
                    addr: Addr(base),
                    len,
                };
                f(prefix, link as LinkId)
            });
        }
        self.fib.retain(|(_, table)| !table.is_empty());
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
        assert_eq!(n.routes().count(), 1);
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

    /// Every mutation path is seen by the next lookup, and a length whose
    /// last route goes takes its map with it.
    #[test]
    fn lookups_see_every_mutation() {
        let mut n = NodeInfo::new("r1");
        let p8 = Prefix::new(Addr::new(10, 0, 0, 0), 8);
        let p16 = Prefix::new(Addr::new(10, 1, 0, 0), 16);
        n.set_route(p8, 1);
        assert_eq!(n.route_for(Addr::new(10, 1, 2, 3)), Some(1));
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
        assert_eq!(n.fib.len(), 1, "the emptied /16 map is dropped");
        n.retain_routes(|_, _| false);
        assert_eq!(n.route_for(Addr::new(10, 1, 2, 3)), None, "bulk flush seen");
        assert!(n.fib.is_empty(), "a flushed table holds no maps");

        let a = Addr::new(100, 64, 0, 1);
        assert!(!n.owns(a));
        n.add_addr(a);
        assert!(n.owns(a), "added address seen");
        assert!(n.remove_addr(a));
        assert!(!n.owns(a), "removed address seen");
    }

    /// The bucketed lookup must agree with a linear longest-prefix scan on
    /// the shapes that stress it: overlaps, the default route, misses.
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
            let linear = n
                .routes()
                .filter(|(p, _)| p.contains(dst))
                .max_by_key(|(p, _)| p.len)
                .map(|(_, l)| l);
            assert_eq!(n.route_for(dst), linear, "dst {dst}");
        }
    }
}
