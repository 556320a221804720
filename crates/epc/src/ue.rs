//! The User Equipment: the cells it camps on, its NAS's I/O, and an
//! embedded measurement application.
//!
//! The same UE attaches to a centralized MME or a dLTE local core —
//! deliberately: the paper's backwards-compatibility claim (§4.1) is that
//! *standard clients* work against the stub. Its NAS procedures are one
//! sans-IO machine (`ue_nas.rs`); [`UeNode`] turns that machine's outputs
//! into packets, timers and addresses. The architectures differ only in
//! the procedure a cell change runs, and each builder passes its own:
//!
//! * [`MobilityMode::PathSwitch`] — centralized LTE: keep the IP address,
//!   send a service request at the new eNB and let the MME move the bearer;
//! * [`MobilityMode::ReAttach`] — dLTE: the address dies with the old AP;
//!   run a full attach at the new one and let the endpoints resume (§4.2).

use crate::messages::S1Nas;
use crate::obs;
use crate::ue_nas::{self, Ecm, Input, Output, Ue};
pub use crate::ue_nas::{MobilityMode, UeState};
use dlte_auth::usim::Usim;
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::{Addr, LinkId, NodeCtx, NodeHandler, Packet, Payload, Prefix};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};

/// Hook for higher layers riding on the UE (e.g. a transport connection
/// that must react to attach/re-attach and address changes — the `dlte`
/// core crate's transport integration implements this). `Send` because the
/// UE handler owning it may run inside a shard on a worker thread.
pub trait UeUpperLayer: std::any::Any + Send {
    /// Attach completed. `reattach` is true when this follows a cell change
    /// (dLTE address churn); `ue_addr` is the fresh address.
    fn on_attached(&mut self, ctx: &mut NodeCtx<'_>, ue_addr: Addr, reattach: bool);
    /// A non-NAS packet arrived; return true if consumed.
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: &Packet) -> bool;
    /// Timer with tag ≥ [`UPPER_TAG_BASE`] fired (the upper layer owns that
    /// tag space).
    fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _tag: u64) {}
}

/// Timer tags at or above this value are routed to the upper layer.
pub const UPPER_TAG_BASE: u64 = 2_000_000;

/// The measurement application embedded in the UE.
pub enum UeApp {
    /// No traffic; control-plane-only experiments.
    None,
    /// Periodic echo probes to `dst` (an [`dlte_net::handlers::EchoServer`]).
    Pinger {
        dst: Addr,
        interval: SimDuration,
        probe_bytes: u32,
    },
    /// Constant-rate uplink to `dst`.
    UplinkCbr {
        dst: Addr,
        rate_bps: f64,
        packet_bytes: u32,
    },
    /// A custom upper layer (e.g. a transport connection).
    Upper(Box<dyn UeUpperLayer>),
}

/// UE measurements.
#[derive(Clone, Debug, Default)]
pub struct UeReportStats {
    pub attaches_completed: u64,
    pub rrc_releases: u64,
    pub pages_received: u64,
    pub service_requests: u64,
    pub attach_rejects: u64,
    /// Attach requests retransmitted after a timeout (lost signalling or a
    /// dead core), counted on top of `service_requests`/attach attempts.
    pub attach_retries: u64,
    pub service_request_retries: u64,
    /// Network-initiated detaches (the core lost our session).
    pub network_detaches: u64,
    /// Attach latency experienced by the UE (request sent → accept
    /// received), milliseconds.
    pub attach_latency_ms: Samples,
    /// Application echo RTTs, milliseconds.
    pub rtt_ms: Samples,
    /// Service interruption across cell changes (move → first echo reply on
    /// the new cell), milliseconds.
    pub handover_gap_ms: Samples,
    pub pongs: u64,
    pub probes_sent: u64,
    pub cbr_packets_sent: u64,
    /// Cell changes executed (mobility schedule entries that took effect).
    pub cell_moves: u64,
    /// Downlink NAS dropped because it came from a cell we no longer camp
    /// on (e.g. a stale attach accept racing a rapid move sequence).
    pub stale_nas_dropped: u64,
}

/// A cell the UE can camp on.
#[derive(Clone, Copy, Debug)]
pub struct CellAttachment {
    pub enb_addr: Addr,
    pub radio_link: LinkId,
}

const TAG_BEGIN_ATTACH: u64 = 1;
const TAG_APP: u64 = 3;
const TAG_MOBILITY_BASE: u64 = 1000;
/// NAS timers: the tag is this plus the timer's ordinal.
const TAG_NAS_BASE: u64 = 100_000;

/// The UE node handler.
pub struct UeNode {
    pub imsi: Imsi,
    usim: Usim,
    cells: Vec<CellAttachment>,
    current: usize,
    pub mode: MobilityMode,
    /// Scheduled cell changes: (when, cell index).
    mobility: Vec<(SimTime, usize)>,
    app: UeApp,
    /// EMM: the registration state.
    pub state: UeState,
    /// ECM: the signalling connection state.
    ecm: Ecm,
    /// Current user-plane address (None when detached in ReAttach mode).
    pub addr: Option<Addr>,
    /// NAS timers armed so far.
    armed: u64,
    handover_started: Option<SimTime>,
    outstanding: FxHashMap<u64, SimTime>,
    seq: u64,
    app_running: bool,
    pub stats: UeReportStats,
}

impl UeNode {
    pub fn new(imsi: Imsi, usim: Usim, cells: Vec<CellAttachment>, app: UeApp) -> Self {
        assert!(!cells.is_empty(), "UE needs at least one cell");
        UeNode {
            imsi,
            usim,
            cells,
            current: 0,
            mode: MobilityMode::PathSwitch,
            mobility: Vec::new(),
            app,
            state: UeState::Detached(0),
            ecm: Ecm::Connected,
            addr: None,
            armed: 0,
            handover_started: None,
            outstanding: FxHashMap::default(),
            seq: 0,
            app_running: false,
            stats: UeReportStats::default(),
        }
    }

    /// Configure the mobility procedure and schedule.
    pub fn with_mobility(mut self, mode: MobilityMode, schedule: Vec<(SimTime, usize)>) -> Self {
        self.mode = mode;
        self.mobility = schedule;
        self
    }

    fn current_cell(&self) -> CellAttachment {
        self.cells[self.current]
    }

    /// Index into the cell list the UE currently camps on (0 = home cell).
    pub fn current_cell_index(&self) -> usize {
        self.current
    }

    /// Typed access to the upper layer (result extraction after a run).
    pub fn upper_as<T: UeUpperLayer>(&self) -> Option<&T> {
        match &self.app {
            UeApp::Upper(u) => (u.as_ref() as &dyn std::any::Any).downcast_ref::<T>(),
            _ => None,
        }
    }

    /// Run one NAS input and carry out its outputs, in order.
    fn nas(&mut self, ctx: &mut NodeCtx<'_>, input: Input) {
        let ue = Ue {
            emm: self.state,
            ecm: self.ecm,
            addr: self.addr,
            armed: self.armed,
        };
        let (ue, outputs) = ue_nas::step(&mut self.usim, &mut self.stats, ue, input);
        Ue {
            emm: self.state,
            ecm: self.ecm,
            addr: self.addr,
            armed: self.armed,
        } = ue;
        for output in outputs {
            match output {
                Output::Trace(t) => obs::emit(ctx, t.event(self.imsi)),
                Output::Send(nas, size) => {
                    let cell = self.current_cell();
                    let imsi = self.imsi;
                    let p = ctx
                        .make_packet(cell.enb_addr, size)
                        .with_payload(Payload::control(S1Nas { imsi, nas }));
                    ctx.forward_via(cell.radio_link, p);
                }
                Output::Arm(timer, after) => _ = ctx.set_timer(after, TAG_NAS_BASE + timer),
                Output::SwitchCell(to) => {
                    self.current = to;
                    self.stats.cell_moves += 1;
                    // Re-point the default route at the new radio link.
                    ctx.node_info_mut()
                        .set_route(Prefix::DEFAULT, self.cells[to].radio_link);
                    self.handover_started = Some(ctx.now);
                    // Probes in flight across the move are lost; forget them
                    // so the gap measurement keys off post-move probes.
                    self.outstanding.clear();
                }
                Output::Release(addr) => _ = ctx.remove_addr(ctx.node, addr),
                Output::Attached(addr, started) => {
                    let reattach = self.stats.attaches_completed > 0;
                    self.stats.attaches_completed += 1;
                    self.stats
                        .attach_latency_ms
                        .push_duration_ms(ctx.now.saturating_since(started));
                    ctx.add_addr(ctx.node, addr);
                    if !self.app_running && !matches!(self.app, UeApp::None | UeApp::Upper(_)) {
                        self.app_running = true;
                        ctx.set_timer(SimDuration::ZERO, TAG_APP);
                    }
                    if let UeApp::Upper(upper) = &mut self.app {
                        upper.on_attached(ctx, addr, reattach);
                    }
                }
            }
        }
    }

    fn app_packet(&mut self, ctx: &mut NodeCtx<'_>, dst: Addr, bytes: u32) -> Option<Packet> {
        let src = self.addr?;
        let flow = Payload::Flow {
            flow: self.imsi,
            seq: self.seq,
        };
        self.seq += 1;
        Some(Packet::new(ctx.new_packet_id(), src, dst, bytes, ctx.now).with_payload(flow))
    }

    fn app_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.state != UeState::Attached {
            // Keep ticking; traffic resumes after re-attach.
            ctx.set_timer(SimDuration::from_millis(20), TAG_APP);
            return;
        }
        if self.ecm != Ecm::Connected {
            // Uplink pending while idle: service-request first, retry the
            // app tick shortly (radio bearer restores in a few control
            // RTTs).
            self.nas(ctx, Input::Uplink);
            ctx.set_timer(SimDuration::from_millis(50), TAG_APP);
            return;
        }
        match &self.app {
            UeApp::None | UeApp::Upper(_) => {}
            &UeApp::Pinger {
                dst,
                interval,
                probe_bytes,
            } => {
                let seq_for_probe = self.seq;
                if let Some(p) = self.app_packet(ctx, dst, probe_bytes) {
                    self.outstanding.insert(seq_for_probe, ctx.now);
                    self.stats.probes_sent += 1;
                    ctx.forward(p);
                }
                ctx.set_timer(interval, TAG_APP);
            }
            &UeApp::UplinkCbr {
                dst,
                rate_bps,
                packet_bytes,
            } => {
                if let Some(p) = self.app_packet(ctx, dst, packet_bytes) {
                    self.stats.cbr_packets_sent += 1;
                    ctx.forward(p);
                }
                let gap = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
                ctx.set_timer(gap, TAG_APP);
            }
        }
    }
}

impl NodeHandler for UeNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Default route toward the first cell, then attach immediately.
        let cell = self.current_cell();
        ctx.node_info_mut()
            .set_route(Prefix::DEFAULT, cell.radio_link);
        ctx.set_timer(SimDuration::ZERO, TAG_BEGIN_ATTACH);
        for (i, &(when, _)) in self.mobility.iter().enumerate() {
            ctx.set_timer(when.saturating_since(ctx.now), TAG_MOBILITY_BASE + i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_BEGIN_ATTACH => self.nas(ctx, Input::PowerOn(ctx.now)),
            TAG_APP => self.app_tick(ctx),
            t if t >= UPPER_TAG_BASE => {
                if let UeApp::Upper(upper) = &mut self.app {
                    upper.on_timer(ctx, t);
                }
            }
            t if t >= TAG_NAS_BASE => self.nas(ctx, Input::Expired(t - TAG_NAS_BASE)),
            t if t >= TAG_MOBILITY_BASE => {
                let (_, to) = self.mobility[(t - TAG_MOBILITY_BASE) as usize];
                if to != self.current && to < self.cells.len() {
                    self.nas(ctx, Input::Move(to, ctx.now, self.mode));
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(s1nas) = packet.payload.as_control::<S1Nas>() {
            if s1nas.imsi == self.imsi {
                let serving = packet.src == self.current_cell().enb_addr;
                let input = Input::Downlink(s1nas.nas, serving, ctx.now);
                self.nas(ctx, input);
            }
            return;
        }
        if let UeApp::Upper(upper) = &mut self.app {
            if upper.on_packet(ctx, &packet) {
                return;
            }
        }
        if let Payload::Flow { flow, seq } = packet.payload {
            if flow == self.imsi {
                // Echo reply for one of our probes.
                if let Some(sent) = self.outstanding.remove(&seq) {
                    self.stats.pongs += 1;
                    self.stats
                        .rtt_ms
                        .push_duration_ms(ctx.now.saturating_since(sent));
                    if let Some(ho) = self.handover_started.take() {
                        self.stats
                            .handover_gap_ms
                            .push_duration_ms(ctx.now.saturating_since(ho));
                    }
                }
                return;
            }
            // Other downlink traffic terminates here.
            ctx.deliver_local(&packet);
        }
    }
}
