//! The X2 agent: the wire-level peer of every dLTE AP.
//!
//! Runs over the Internet backhaul as a [`NodeHandler`] co-resident with the
//! AP's local core (the `dlte` crate composes them). Behaviour:
//!
//! * on start, sends `SetupRequest` to each configured peer — the
//!   contention domain of the AP's registry grant, which the scenario
//!   builder looks up before the run (`dlte::scenario`), so the list is
//!   bounded by the neighbourhood, not by the deployment;
//! * every `report_interval`, sends `LoadInformation` with the current dLTE
//!   status (mode, demand, client count), plus measurement reports in
//!   cooperative mode;
//! * tracks peer liveness (3 missed reports → peer dropped — organic churn
//!   is normal in an open network);
//! * recomputes its own share with [`crate::fair_share::max_min_shares`]
//!   over the latest known demands;
//! * accounts every byte sent (experiment E11).

use crate::fair_share::max_min_shares_into;
use crate::messages::{wire, CoordinationMode, DlteStatus, X2Msg};
use dlte_net::fxhash::FxHashMap;
use dlte_net::{Addr, NodeCtx, NodeHandler, Packet, Payload};
use dlte_sim::{SimDuration, SimTime};

/// Liveness: a peer is evicted from the table after this many silent
/// intervals. Eviction is deliberately lazy (organic churn is normal in an
/// open network); *freshness* — used for the live-peer count, the share
/// computation, and handover targeting — is judged against a single missed
/// report instead, so a crashed neighbor stops being a handover target (and
/// stops holding spectrum) within one report interval, not three.
const LIVENESS_INTERVALS: u32 = 3;

const TAG_TICK: u64 = 7_000_000;

#[derive(Clone, Debug)]
struct PeerState {
    status: DlteStatus,
    last_seen: SimTime,
}

/// X2 agent statistics.
#[derive(Clone, Debug, Default)]
pub struct X2AgentStats {
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    pub msgs_received: u64,
    pub peers_dropped: u64,
}

/// The agent.
pub struct X2Agent {
    pub mode: CoordinationMode,
    pub report_interval: SimDuration,
    /// My own demand in \[0,1\]; the AP updates this as its load changes.
    pub my_demand: f64,
    pub my_clients: u32,
    peers: Vec<Addr>,
    /// Probed once per received report. Every iteration over it is sorted
    /// afterwards or order-free (counts, `retain`), so no result depends
    /// on the hasher.
    peer_state: FxHashMap<Addr, PeerState>,
    /// Negotiated share of the channel in \[0,1\].
    pub my_share: f64,
    /// Latest per-client SINR snapshot to advertise in cooperative mode.
    pub my_measurements: Vec<(u64, f64)>,
    /// Peers' latest measurement reports (cooperative mode input).
    pub peer_measurements: FxHashMap<Addr, Vec<(u64, f64)>>,
    /// Latest event time this agent processed; freshness is judged against
    /// this, not wall-clock polling, so it is meaningful right after any
    /// message or tick.
    last_now: SimTime,
    pub stats: X2AgentStats,
    /// Scratch buffers for [`Self::recompute_share`]. The share is
    /// recomputed every report tick and once per peer during the setup
    /// storm; reusing these keeps the steady state (and the storm)
    /// allocation-free instead of growing four fresh vectors per call.
    scratch_addrs: Vec<Addr>,
    scratch_demands: Vec<f64>,
    scratch_shares: Vec<f64>,
    scratch_unsat: Vec<usize>,
}

impl X2Agent {
    pub fn new(mode: CoordinationMode, peers: Vec<Addr>, report_interval: SimDuration) -> Self {
        X2Agent {
            mode,
            report_interval,
            my_demand: 1.0,
            my_clients: 0,
            peers,
            peer_state: FxHashMap::default(),
            my_share: 1.0,
            my_measurements: Vec::new(),
            peer_measurements: FxHashMap::default(),
            last_now: SimTime::ZERO,
            stats: X2AgentStats::default(),
            scratch_addrs: Vec::new(),
            scratch_demands: Vec::new(),
            scratch_shares: Vec::new(),
            scratch_unsat: Vec::new(),
        }
    }

    fn my_status(&self) -> DlteStatus {
        DlteStatus {
            mode: self.mode,
            demand: self.my_demand,
            clients: self.my_clients,
        }
    }

    /// A peer is fresh if its last report is within 1¼ report intervals of
    /// the latest event this agent processed (one interval of silence plus
    /// delivery jitter). A crashed peer therefore stops counting within one
    /// interval, long before the 3-interval table eviction.
    fn is_fresh(&self, last_seen: SimTime) -> bool {
        let deadline = self.report_interval + self.report_interval / 4;
        self.last_now.saturating_since(last_seen) <= deadline
    }

    /// Current live (fresh) peers.
    pub fn live_peers(&self) -> usize {
        self.peer_state
            .values()
            .filter(|p| self.is_fresh(p.last_seen))
            .count()
    }

    /// Fresh peers in deterministic (sorted) order — the only peers worth
    /// targeting with a handover or context fetch: anything staler has
    /// missed a report and may be crashed or partitioned away.
    pub fn fresh_peers(&self) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self
            .peer_state
            .iter()
            .filter(|(_, p)| self.is_fresh(p.last_seen))
            .map(|(&a, _)| a)
            .collect();
        addrs.sort();
        addrs
    }

    /// Send an X2 message to a peer on behalf of the composing AP (keeps
    /// the E11 byte accounting honest for AP-level extensions like the
    /// mobility context fetch).
    pub fn send_to_peer(&mut self, ctx: &mut NodeCtx<'_>, to: Addr, msg: X2Msg, size: u32) {
        self.send(ctx, to, msg, size);
    }

    fn send(&mut self, ctx: &mut NodeCtx<'_>, to: Addr, msg: X2Msg, size: u32) {
        self.send_payload(ctx, to, Payload::control(msg), size);
    }

    /// Send a pre-built payload. Broadcast paths (the tick report) build one
    /// `Payload::control` and clone it per peer — an `Arc` refcount bump
    /// instead of a fresh allocation per recipient.
    fn send_payload(&mut self, ctx: &mut NodeCtx<'_>, to: Addr, payload: Payload, size: u32) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += size as u64;
        let p = ctx.make_packet(to, size).with_payload(payload);
        ctx.forward(p);
    }

    fn recompute_share(&mut self) {
        if self.mode == CoordinationMode::Independent {
            self.my_share = 1.0; // uncoordinated: everyone just transmits
            return;
        }
        // My demand first, then fresh peers in deterministic order. Stale
        // peers are excluded: a crashed AP must not keep holding spectrum
        // for up to three intervals until its table entry is evicted.
        // Freshness is inlined (rather than calling `fresh_peers`) so the
        // scratch buffers can be filled without borrowing `self` twice.
        let deadline = self.report_interval + self.report_interval / 4;
        let last_now = self.last_now;
        self.scratch_addrs.clear();
        self.scratch_addrs.extend(
            self.peer_state
                .iter()
                .filter(|(_, p)| last_now.saturating_since(p.last_seen) <= deadline)
                .map(|(&a, _)| a),
        );
        self.scratch_addrs.sort();
        self.scratch_demands.clear();
        self.scratch_demands.push(self.my_demand);
        for i in 0..self.scratch_addrs.len() {
            let a = self.scratch_addrs[i];
            self.scratch_demands.push(self.peer_state[&a].status.demand);
        }
        max_min_shares_into(
            &self.scratch_demands,
            1.0,
            &mut self.scratch_shares,
            &mut self.scratch_unsat,
        );
        self.my_share = self.scratch_shares[0];
    }

    fn tick(&mut self, ctx: &mut NodeCtx<'_>) {
        self.last_now = ctx.now;
        // Drop silent peers.
        let deadline = self.report_interval * LIVENESS_INTERVALS as u64;
        let now = ctx.now;
        let before = self.peer_state.len();
        self.peer_state
            .retain(|_, p| now.saturating_since(p.last_seen) <= deadline);
        let dropped = before - self.peer_state.len();
        self.stats.peers_dropped += dropped as u64;
        // Report to every configured peer. The report is identical for all
        // of them, so the broadcast shares one `Arc`'d payload and bumps its
        // refcount per peer — in an 8-AP contention domain that is 1 control
        // allocation per tick instead of 7.
        let status = self.my_status();
        let my_addr = ctx.my_addr();
        let load = Payload::control(X2Msg::LoadInformation {
            from: my_addr,
            status,
        });
        let meas = if self.mode == CoordinationMode::Cooperative && !self.my_measurements.is_empty()
        {
            let reports = self.my_measurements.clone();
            let size = wire::measurement(reports.len());
            Some((
                Payload::control(X2Msg::MeasurementReport {
                    from: my_addr,
                    reports,
                }),
                size,
            ))
        } else {
            None
        };
        for i in 0..self.peers.len() {
            let peer = self.peers[i];
            self.send_payload(ctx, peer, load.clone(), wire::LOAD_INFORMATION);
            if let Some((pl, size)) = &meas {
                self.send_payload(ctx, peer, pl.clone(), *size);
            }
        }
        self.recompute_share();
        let interval = self.report_interval;
        ctx.set_timer(interval, TAG_TICK);
    }

    fn handle_msg(&mut self, ctx: &mut NodeCtx<'_>, msg: X2Msg) {
        self.last_now = ctx.now;
        self.stats.msgs_received += 1;
        match msg {
            X2Msg::SetupRequest { from, status } => {
                self.peer_state.insert(
                    from,
                    PeerState {
                        status,
                        last_seen: ctx.now,
                    },
                );
                let my = self.my_status();
                let my_addr = ctx.my_addr();
                self.send(
                    ctx,
                    from,
                    X2Msg::SetupResponse {
                        from: my_addr,
                        status: my,
                    },
                    wire::SETUP,
                );
                self.recompute_share();
            }
            X2Msg::SetupResponse { from, status } | X2Msg::LoadInformation { from, status } => {
                let prev = self.peer_state.insert(
                    from,
                    PeerState {
                        status,
                        last_seen: ctx.now,
                    },
                );
                // Steady-state reports dominate X2 traffic (every peer, every
                // interval). A report that neither adds a peer, changes its
                // advertised status, nor revives it from staleness cannot
                // move the fair share — my own demand only changes under the
                // tick, which recomputes unconditionally — so the
                // O(peers log peers) recompute is skipped for them. With n
                // APs this turns each interval's share maintenance from n²
                // recomputes into n.
                if prev.is_none_or(|p| p.status != status || !self.is_fresh(p.last_seen)) {
                    self.recompute_share();
                }
            }
            X2Msg::MeasurementReport { from, reports } => {
                self.peer_measurements.insert(from, reports);
            }
            X2Msg::HandoverRequest { from, client } => {
                let my_addr = ctx.my_addr();
                self.send(
                    ctx,
                    from,
                    X2Msg::HandoverAck {
                        from: my_addr,
                        client,
                    },
                    wire::HANDOVER,
                );
            }
            X2Msg::HandoverAck { .. } => {}
            // Context replies are consumed by the composing AP (which
            // intercepts them before this handler); a bare agent has no
            // subscriber store to install them into.
            X2Msg::HandoverContext { .. } => {}
        }
    }
}

impl NodeHandler for X2Agent {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // The setup storm broadcasts one identical message to the contention
        // domain; share its payload like the tick report does (one control
        // allocation per AP at startup instead of one per peer relation).
        let status = self.my_status();
        let my_addr = ctx.my_addr();
        let setup = Payload::control(X2Msg::SetupRequest {
            from: my_addr,
            status,
        });
        for i in 0..self.peers.len() {
            let peer = self.peers[i];
            self.send_payload(ctx, peer, setup.clone(), wire::SETUP);
        }
        let interval = self.report_interval;
        ctx.set_timer(interval, TAG_TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == TAG_TICK {
            self.tick(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(msg) = packet.payload.as_control::<X2Msg>().cloned() {
            self.handle_msg(ctx, msg);
        } else if ctx.peer_info(ctx.node).owns(packet.dst) {
            ctx.deliver_local(&packet);
        } else {
            ctx.forward(packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_net::{LinkConfig, NetworkBuilder, Prefix};

    /// Two agents across a WAN link; returns the built sim and node ids.
    fn two_agents(
        mode: CoordinationMode,
        demand_a: f64,
        demand_b: f64,
    ) -> (dlte_sim::Simulation<dlte_net::Network>, usize, usize) {
        let mut b = NetworkBuilder::new(9);
        let addr_a = Addr::new(10, 0, 0, 1);
        let addr_b = Addr::new(10, 0, 0, 2);
        let mut agent_a = X2Agent::new(mode, vec![addr_b], SimDuration::from_millis(100));
        agent_a.my_demand = demand_a;
        let mut agent_b = X2Agent::new(mode, vec![addr_a], SimDuration::from_millis(100));
        agent_b.my_demand = demand_b;
        let a = b.host("ap-a", Box::new(agent_a));
        b.addr(a, addr_a);
        let bb = b.host("ap-b", Box::new(agent_b));
        b.addr(bb, addr_b);
        let l = b.link(a, bb, LinkConfig::wan(SimDuration::from_millis(20)));
        b.route(a, Prefix::new(addr_b, 32), l);
        b.route(bb, Prefix::new(addr_a, 32), l);
        (b.build(), a, bb)
    }

    #[test]
    fn agents_converge_to_fair_split() {
        let (mut sim, a, b) = two_agents(CoordinationMode::FairShare, 1.0, 1.0);
        sim.run_until(SimTime::from_secs(2), 1_000_000);
        let w = sim.world();
        let xa = w.handler_as::<X2Agent>(a).unwrap();
        let xb = w.handler_as::<X2Agent>(b).unwrap();
        assert!((xa.my_share - 0.5).abs() < 1e-9, "a share {}", xa.my_share);
        assert!((xb.my_share - 0.5).abs() < 1e-9);
        assert_eq!(xa.live_peers(), 1);
    }

    #[test]
    fn asymmetric_demand_shares_water_fill() {
        let (mut sim, a, b) = two_agents(CoordinationMode::FairShare, 0.2, 1.0);
        sim.run_until(SimTime::from_secs(2), 1_000_000);
        let w = sim.world();
        let xa = w.handler_as::<X2Agent>(a).unwrap();
        let xb = w.handler_as::<X2Agent>(b).unwrap();
        assert!((xa.my_share - 0.2).abs() < 1e-9);
        assert!((xb.my_share - 0.8).abs() < 1e-9, "b gets the slack");
    }

    #[test]
    fn independent_mode_ignores_peers() {
        let (mut sim, a, _) = two_agents(CoordinationMode::Independent, 1.0, 1.0);
        sim.run_until(SimTime::from_secs(1), 1_000_000);
        let xa = sim.world().handler_as::<X2Agent>(a).unwrap();
        assert_eq!(xa.my_share, 1.0);
    }

    #[test]
    fn x2_traffic_is_low_bandwidth() {
        // §4.3: "The X2 interface is relatively low bandwidth."
        let (mut sim, a, _) = two_agents(CoordinationMode::FairShare, 1.0, 1.0);
        sim.run_until(SimTime::from_secs(10), 2_000_000);
        let xa = sim.world().handler_as::<X2Agent>(a).unwrap();
        let bps = xa.stats.bytes_sent as f64 * 8.0 / 10.0;
        assert!(bps < 20_000.0, "X2 at {bps} bit/s should be ≪ user traffic");
        assert!(xa.stats.msgs_sent >= 90, "reports flowed");
    }

    #[test]
    fn dead_peer_is_dropped_and_share_recovers() {
        // Build agent A pointed at a peer address that never answers.
        let mut b = NetworkBuilder::new(11);
        let addr_a = Addr::new(10, 0, 0, 1);
        let addr_ghost = Addr::new(10, 0, 0, 99);
        let mut agent = X2Agent::new(
            CoordinationMode::FairShare,
            vec![addr_ghost],
            SimDuration::from_millis(100),
        );
        // Seed a phantom peer entry as if it had been alive once.
        agent.peer_state.insert(
            addr_ghost,
            PeerState {
                status: DlteStatus {
                    mode: CoordinationMode::FairShare,
                    demand: 1.0,
                    clients: 0,
                },
                last_seen: SimTime::ZERO,
            },
        );
        agent.recompute_share();
        assert!((agent.my_share - 0.5).abs() < 1e-9, "initially shared");
        let a = b.host("ap-a", Box::new(agent));
        b.addr(a, addr_a);
        // No route to the ghost: sends fail silently (drops_no_route).
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2), 1_000_000);
        let xa = sim.world().handler_as::<X2Agent>(a).unwrap();
        assert_eq!(xa.live_peers(), 0, "ghost dropped after 3 intervals");
        assert_eq!(xa.my_share, 1.0, "spectrum reclaimed");
        assert_eq!(xa.stats.peers_dropped, 1);
    }

    #[test]
    fn stale_peer_stops_counting_within_one_interval() {
        // A crashed peer must leave the live set (and the share math, and
        // the handover target list) after one missed report — not linger
        // until the 3-interval table eviction.
        let mut agent = X2Agent::new(
            CoordinationMode::FairShare,
            vec![],
            SimDuration::from_millis(100),
        );
        let peer = Addr::new(10, 0, 0, 2);
        agent.peer_state.insert(
            peer,
            PeerState {
                status: DlteStatus {
                    mode: CoordinationMode::FairShare,
                    demand: 1.0,
                    clients: 0,
                },
                last_seen: SimTime::ZERO,
            },
        );
        // One interval of silence (plus jitter allowance) is tolerated...
        agent.last_now = SimTime::from_millis(100);
        assert_eq!(agent.live_peers(), 1);
        assert_eq!(agent.fresh_peers(), vec![peer]);
        // ...but a missed report is not.
        agent.last_now = SimTime::from_millis(130);
        assert_eq!(agent.live_peers(), 0, "stale within ~one interval");
        assert!(
            agent.fresh_peers().is_empty(),
            "no longer a handover target"
        );
        agent.recompute_share();
        assert_eq!(agent.my_share, 1.0, "stale peer holds no spectrum");
        // Table eviction stays lazy: the entry (and the dropped-peer stat)
        // waits for the 3-interval deadline.
        assert_eq!(agent.peer_state.len(), 1);
        assert_eq!(agent.stats.peers_dropped, 0);
    }

    #[test]
    fn cooperative_mode_exchanges_measurements() {
        let (mut sim, a, b) = two_agents(CoordinationMode::Cooperative, 1.0, 1.0);
        // Give A some client measurements before running.
        sim.world_mut()
            .handler_as_mut::<X2Agent>(a)
            .unwrap()
            .my_measurements = vec![(1, 17.0), (2, 9.5)];
        sim.run_until(SimTime::from_secs(1), 1_000_000);
        let w = sim.world();
        let xb = w.handler_as::<X2Agent>(b).unwrap();
        let got = xb
            .peer_measurements
            .get(&Addr::new(10, 0, 0, 1))
            .expect("B holds A's measurements");
        assert_eq!(got, &vec![(1, 17.0), (2, 9.5)]);
    }
}
