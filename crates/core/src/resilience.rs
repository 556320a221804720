//! Backhaul resilience through AP meshing — the paper's §7 extension.
//!
//! §7: *"We are planning to explore multi-hop approaches to sharing and
//! aggregating bandwidth between neighboring LTE APs. Such networks could
//! provide redundancy for users in emergencies when the backhaul link goes
//! down."*
//!
//! Mechanics implemented here:
//!
//! * **Detection** is an active gateway probe: the AP echoes a tiny flow
//!   against a well-known Internet beacon every X2 tick and declares its
//!   backhaul dead after `deadline` of silence ([`BackhaulFailover`]).
//!   Peer silence alone is *not* a valid signal — when a neighbor's
//!   backhaul dies, **both** APs stop hearing each other, and a healthy AP
//!   that failed over on peer silence would point its default route at the
//!   mesh and form a forwarding loop with the genuinely dead AP. (This
//!   reproduction initially did exactly that; the TTL-exhaustion drops in
//!   the E13 experiment caught it — a nice example of why the paper's §7
//!   calls deployment practice a research question.)
//! * **Failover** re-points the AP's egress at a provisioned inter-AP mesh
//!   link (the neighbor forwards as plain IP — local breakout composes).
//! * **Reconvergence** of the infrastructure's routes toward the failed
//!   AP's pool (the downlink direction) is the wide-area routing system's
//!   job; scenarios model it as [`dlte_net::NetFault::RouteSet`] faults
//!   scheduled after a convergence delay, the way IGP reconvergence would
//!   behave.

use dlte_net::{Addr, LinkId, NodeCtx, Packet, Payload, Prefix};
use dlte_sim::{SimDuration, SimTime};

/// Flow-id namespace for backhaul probes (disjoint from UE IMSIs, which
/// start at 1000 and stay far below this).
const PROBE_FLOW_BASE: u64 = 0xBEEF_0000_0000;

/// Failover configuration and state carried by a dLTE AP.
#[derive(Clone, Debug)]
pub struct BackhaulFailover {
    /// The mesh link to the neighbor used when the backhaul dies.
    pub fallback_link: LinkId,
    /// Internet beacon the AP probes to establish backhaul liveness (any
    /// echo-capable well-known service; the scenarios use the OTT echo).
    pub probe_dst: Addr,
    /// Silence longer than this, after at least one successful probe,
    /// means the backhaul is dead.
    pub deadline: SimDuration,
    /// Set once the AP has rerouted.
    pub failed_over: bool,
    pub failed_over_at: Option<SimTime>,
    last_reply: Option<SimTime>,
    seq: u64,
}

impl BackhaulFailover {
    pub fn new(fallback_link: LinkId, probe_dst: Addr) -> Self {
        BackhaulFailover {
            fallback_link,
            probe_dst,
            deadline: SimDuration::from_millis(1_500),
            failed_over: false,
            failed_over_at: None,
            last_reply: None,
            seq: 0,
        }
    }

    fn flow_id(ctx: &NodeCtx<'_>) -> u64 {
        PROBE_FLOW_BASE + ctx.node as u64
    }

    /// Called by the AP on every X2 tick: send a probe, and fail over if
    /// the beacon has been silent past the deadline.
    pub fn tick(&mut self, ctx: &mut NodeCtx<'_>) -> bool {
        let seq = self.seq;
        self.seq += 1;
        let probe = ctx
            .make_packet(self.probe_dst, 64)
            .with_payload(Payload::Flow {
                flow: Self::flow_id(ctx),
                seq,
            });
        ctx.forward(probe);

        let Some(last) = self.last_reply else {
            return false; // never had connectivity: nothing to fail from
        };
        if self.failed_over || ctx.now.saturating_since(last) <= self.deadline {
            return false;
        }
        self.failed_over = true;
        self.failed_over_at = Some(ctx.now);
        let fallback = self.fallback_link;
        let info = ctx.node_info_mut();
        // Keep only the radio-side host routes into client pools; every
        // infrastructure route went through the dead backhaul.
        info.retain_routes(|p, _| p.len == 32 && crate::scenario::any_ap_pool_contains(p.addr));
        info.set_route(Prefix::DEFAULT, fallback);
        true
    }

    /// Give the failover a chance to consume a probe echo. Returns true if
    /// the packet was ours.
    pub fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: &Packet) -> bool {
        if let Payload::Flow { flow, .. } = packet.payload {
            if flow == Self::flow_id(ctx) {
                self.last_reply = Some(ctx.now);
                return true;
            }
        }
        false
    }

    /// Whether the beacon has ever answered (diagnostics).
    pub fn has_connectivity_baseline(&self) -> bool {
        self.last_reply.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_net::handlers::{CbrSource, EchoServer};
    use dlte_net::{
        in_flight_packets, LinkConfig, NetAudit, NetEvent, NetFault, Network, NetworkBuilder,
        NodeHandler,
    };
    use dlte_sim::Simulation;

    fn audit(sim: &Simulation<Network>) -> NetAudit {
        sim.world().audit(in_flight_packets(sim.queue()))
    }

    /// Schedule `faults` as ordinary events, in order (same-instant faults
    /// apply in the order given).
    fn schedule(sim: &mut Simulation<Network>, faults: Vec<(SimTime, NetFault)>) {
        for (at, fault) in faults {
            sim.queue_mut().schedule_at(at, NetEvent::Fault(fault));
        }
    }

    /// A link dies mid-flow and a scheduled "IGP" route update reroutes
    /// around it; delivery resumes.
    #[test]
    fn scheduled_failure_and_reconvergence() {
        let mut b = NetworkBuilder::new(3);
        let dst_addr = Addr::new(10, 0, 0, 9);
        let src = b.host("src", Box::new(CbrSource::new(dst_addr, 1, 1e6, 500)));
        b.addr(src, Addr::new(10, 0, 0, 1));
        let r1 = b.node("r1");
        let r2 = b.node("r2");
        // Plain addressed node: deliveries land in the trace sink.
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let l_src_r1 = b.link(src, r1, LinkConfig::lan());
        let l_r1_dst = b.link(r1, dst, LinkConfig::lan());
        // Alternate path via r2.
        let l_r1_r2 = b.link(r1, r2, LinkConfig::lan());
        let l_r2_dst = b.link(r2, dst, LinkConfig::lan());
        b.route(src, Prefix::new(dst_addr, 32), l_src_r1);
        b.route(r1, Prefix::new(dst_addr, 32), l_r1_dst);
        b.route(r2, Prefix::new(dst_addr, 32), l_r2_dst);
        let mut sim = b.build();
        schedule(
            &mut sim,
            vec![
                (
                    SimTime::from_secs(2),
                    NetFault::LinkUp {
                        link: l_r1_dst,
                        up: false,
                    },
                ),
                (
                    SimTime::from_millis(2_500),
                    NetFault::RouteSet {
                        node: r1,
                        prefix: Prefix::new(dst_addr, 32),
                        link: l_r1_r2,
                    },
                ),
            ],
        );
        sim.run_until(SimTime::from_secs(4), 1_000_000);
        // ~0.5 s of traffic died on the downed link, the rest arrived:
        // 250 pkts/s × (4 − 0.5) ≈ 875.
        let delivered = sim.world().trace().flow(1).unwrap().delivered_packets;
        let drops = audit(&sim).drops_link_down;
        assert!(drops > 50, "link-down drops {drops}");
        assert!(
            (800..950).contains(&delivered),
            "delivered {delivered} (outage bounded by reconvergence)"
        );
        let w = sim.world();
        assert!(!w.core.links[l_r1_dst].up, "both faults applied");
        assert_eq!(w.core.nodes[r1].route_for(dst_addr), Some(l_r1_r2));
    }

    /// The probe-based detector: no baseline → never fails over; silence
    /// after a baseline → fails over exactly once; echoes reset the clock.
    #[test]
    fn probe_detector_state_machine() {
        let beacon_addr = Addr::new(8, 8, 8, 8);
        struct Probe {
            fo: BackhaulFailover,
            fired_at: Vec<u64>, // ms timestamps of failover
        }
        impl NodeHandler for Probe {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for k in 0..10 {
                    ctx.set_timer(SimDuration::from_millis(500 * (k + 1)), k);
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
                if self.fo.tick(ctx) {
                    self.fired_at.push(ctx.now.as_millis());
                }
            }
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
                self.fo.on_packet(ctx, &packet);
            }
        }
        let mut b = NetworkBuilder::new(1);
        let beacon = b.host("beacon", Box::new(EchoServer::new()));
        b.addr(beacon, beacon_addr);
        let other = b.node("other");
        let ap = b.node("ap");
        b.addr(ap, Addr::new(10, 2, 0, 1));
        let mesh = b.link(ap, other, LinkConfig::lan());
        let uplink = b.link(ap, beacon, LinkConfig::lan());
        b.route(ap, Prefix::new(beacon_addr, 32), uplink);
        b.route(beacon, Prefix::new(Addr::new(10, 2, 0, 1), 32), uplink);
        let probe = Probe {
            fo: BackhaulFailover::new(mesh, beacon_addr),
            fired_at: vec![],
        };
        b.set_handler(ap, Box::new(probe));
        let mut sim = b.build();
        // Kill the uplink at 1.2 s (after a couple of successful probes).
        schedule(
            &mut sim,
            vec![(
                SimTime::from_millis(1_200),
                NetFault::LinkUp {
                    link: uplink,
                    up: false,
                },
            )],
        );
        sim.run_until(SimTime::from_secs(6), 100_000);
        let p = sim.world().handler_as::<Probe>(ap).unwrap();
        assert!(p.fo.has_connectivity_baseline(), "probes echoed first");
        assert_eq!(p.fired_at.len(), 1, "fails over exactly once");
        // Deadline 1.5 s after the last echo (~1.0 s) → trips at the 3.0 s
        // tick (2.5 s tick is exactly at the 1.5 s boundary, not past it).
        assert_eq!(p.fired_at[0], 3_000);
        assert!(p.fo.failed_over);
    }

    /// A CBR source feeding a plain sink over one link, with `faults`
    /// scheduled. Returns (sim, sink node) after `secs` of run. Node ids are
    /// build order: src=0, dst=1; the link is id 0.
    fn fault_rig(faults: Vec<(SimTime, NetFault)>, secs: u64) -> (Simulation<Network>, usize) {
        let mut b = NetworkBuilder::new(5);
        let dst_addr = Addr::new(10, 0, 0, 9);
        let src = b.host("src", Box::new(CbrSource::new(dst_addr, 1, 1e6, 500)));
        b.addr(src, Addr::new(10, 0, 0, 1));
        // Plain addressed node: deliveries land in the trace sink.
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let l = b.link(src, dst, LinkConfig::lan());
        b.route(src, Prefix::new(dst_addr, 32), l);
        let mut sim = b.build();
        schedule(&mut sim, faults);
        sim.run_until(SimTime::from_secs(secs), 1_000_000);
        (sim, dst)
    }

    /// Overlapping faults at the same instant apply in schedule order: a
    /// down+up pair scheduled for the same time nets out to "up" and the
    /// flow barely notices.
    #[test]
    fn overlapping_faults_at_same_instant_apply_in_order() {
        let t = SimTime::from_secs(2);
        let (sim, _dst) = fault_rig(
            vec![
                (t, NetFault::LinkUp { link: 0, up: false }),
                (t, NetFault::LinkUp { link: 0, up: true }),
            ],
            4,
        );
        assert!(sim.world().core.links[0].up, "net effect: link up");
        let delivered = sim.world().trace().flow(1).unwrap().delivered_packets;
        // 250 pkt/s × 4 s, minus at most the instant of the flap.
        assert!(delivered > 950, "delivered {delivered}");
    }

    /// A fault scheduled at t = 0 applies before any traffic moves.
    #[test]
    fn fault_at_time_zero_applies_before_first_packet() {
        let (sim, _dst) = fault_rig(
            vec![(SimTime::ZERO, NetFault::LinkUp { link: 0, up: false })],
            2,
        );
        let t = sim.world().trace();
        // The source's own t=0 packet may already be in flight when the
        // fault lands (start order) and in-flight traffic is never
        // retracted; everything after is dropped at the dead link.
        let delivered = t.flow(1).map(|f| f.delivered_packets).unwrap_or(0);
        assert!(delivered <= 1, "delivered {delivered} through a dead link");
        let drops = audit(&sim).drops_link_down;
        assert!(drops > 100, "drops {drops}");
    }

    /// A restart scheduled before the crash ever happens is a no-op: the
    /// node goes down at the (later) crash and stays down.
    #[test]
    fn restart_before_crash_is_a_no_op() {
        let dst = 1;
        let (sim, rig_dst) = fault_rig(
            vec![
                (SimTime::from_secs(1), NetFault::NodeUp { node: dst }),
                (SimTime::from_secs(2), NetFault::NodeDown { node: dst }),
            ],
            4,
        );
        assert_eq!(rig_dst, dst);
        assert!(sim.world().node_is_down(dst), "crash held: still down");
        let drops = audit(&sim).drops_node_down;
        assert!(drops > 100, "drops {drops}");
        let delivered = sim.world().trace().flow(1).unwrap().delivered_packets;
        // Only the pre-crash 2 s of traffic got through.
        assert!(
            (450..=520).contains(&delivered),
            "delivered {delivered} (pre-crash only)"
        );
    }

    /// Crash and restart at the same instant (schedule order): state is
    /// lost but the node is immediately serviceable again.
    #[test]
    fn crash_and_restart_at_same_instant_recovers() {
        let t = SimTime::from_secs(2);
        let dst = 1;
        let (sim, _dst) = fault_rig(
            vec![
                (t, NetFault::NodeDown { node: dst }),
                (t, NetFault::NodeUp { node: dst }),
            ],
            4,
        );
        assert!(!sim.world().node_is_down(dst), "back up");
        let delivered = sim.world().trace().flow(1).unwrap().delivered_packets;
        assert!(delivered > 950, "delivered {delivered}");
    }

    /// An AP that never reached the beacon (cold start behind a dead
    /// backhaul) must not fail over.
    #[test]
    fn no_baseline_no_failover() {
        struct Probe {
            fo: BackhaulFailover,
        }
        impl NodeHandler for Probe {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
                for k in 0..8 {
                    ctx.set_timer(SimDuration::from_millis(500 * (k + 1)), k);
                }
            }
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
                assert!(!self.fo.tick(ctx), "must not fail over w/o baseline");
            }
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _p: Packet) {}
        }
        let mut b = NetworkBuilder::new(1);
        let other = b.node("other");
        let ap = b.node("ap");
        let mesh = b.link(ap, other, LinkConfig::lan());
        b.set_handler(
            ap,
            Box::new(Probe {
                fo: BackhaulFailover::new(mesh, Addr::new(8, 8, 8, 8)),
            }),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(5), 100_000);
        let p = sim.world().handler_as::<Probe>(ap).unwrap();
        assert!(!p.fo.failed_over);
    }
}
