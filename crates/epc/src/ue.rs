//! The User Equipment: attach state machine, mobility behaviour, and an
//! embedded measurement application.
//!
//! The same UE code attaches to a centralized MME or a dLTE local core —
//! deliberately: the paper's backwards-compatibility claim (§4.1) is that
//! *standard clients* work against the stub. The difference between
//! architectures is expressed in the UE's **mobility mode**:
//!
//! * [`MobilityMode::PathSwitch`] — centralized LTE: keep the IP address,
//!   send a service request at the new eNB and let the MME move the bearer;
//! * [`MobilityMode::ReAttach`] — dLTE: the address dies with the old AP;
//!   run a full attach at the new one and let the endpoints resume (§4.2).

use crate::messages::{wire, Nas, S1Nas};
use crate::obs;
use dlte_auth::usim::{AkaError, Usim};
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::{Addr, LinkId, NodeCtx, NodeHandler, Packet, Payload, Prefix};
use dlte_obs::{AkaStep, NasProc};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};

/// How the UE handles moving between cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MobilityMode {
    /// S1 path switch: IP preserved, core updates tunnels.
    PathSwitch,
    /// Full re-attach with a fresh address (the dLTE way).
    ReAttach,
}

/// Attach state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UeState {
    Detached,
    Attaching,
    Attached,
}

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
/// Attach-timeout tags encode the attempt epoch they guard, so a stale
/// timer from a completed attach can never restart a later one.
const TAG_ATTACH_TIMEOUT_BASE: u64 = 100_000;
/// Service-request retransmission tags, epoch-encoded like attach timeouts.
const TAG_SERVICE_RETRY_BASE: u64 = 200_000;

/// Capped exponential backoff: `base_ms << (attempt-1)`, clamped to
/// `cap_ms`. Attempt 1 waits the base interval.
fn backoff(base_ms: u64, attempt: u32, cap_ms: u64) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(16);
    SimDuration::from_millis((base_ms << exp).min(cap_ms))
}

/// The UE node handler.
pub struct UeNode {
    pub imsi: Imsi,
    /// RRC connection state: true after the eNB released us to ECM-IDLE
    /// (we keep the IP, but must service-request before transmitting).
    pub rrc_idle: bool,
    service_requested_at: Option<SimTime>,
    service_epoch: u64,
    service_attempts: u32,
    usim: Usim,
    cells: Vec<CellAttachment>,
    current: usize,
    pub mode: MobilityMode,
    /// Scheduled cell changes: (when, cell index).
    mobility: Vec<(SimTime, usize)>,
    app: UeApp,
    pub state: UeState,
    /// Current user-plane address (None when detached in ReAttach mode).
    pub addr: Option<Addr>,
    attach_started: Option<SimTime>,
    attach_attempts: u32,
    attach_epoch: u64,
    handover_started: Option<SimTime>,
    outstanding: FxHashMap<u64, SimTime>,
    seq: u64,
    app_running: bool,
    had_first_attach: bool,
    pub stats: UeReportStats,
}

impl UeNode {
    pub fn new(imsi: Imsi, usim: Usim, cells: Vec<CellAttachment>, app: UeApp) -> Self {
        assert!(!cells.is_empty(), "UE needs at least one cell");
        UeNode {
            imsi,
            rrc_idle: false,
            service_requested_at: None,
            service_epoch: 0,
            service_attempts: 0,
            usim,
            cells,
            current: 0,
            mode: MobilityMode::PathSwitch,
            mobility: Vec::new(),
            app,
            state: UeState::Detached,
            addr: None,
            attach_started: None,
            attach_attempts: 0,
            attach_epoch: 0,
            handover_started: None,
            outstanding: FxHashMap::default(),
            seq: 0,
            app_running: false,
            had_first_attach: false,
            stats: UeReportStats::default(),
        }
    }

    /// Configure the mobility schedule and mode.
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

    fn send_nas(&mut self, ctx: &mut NodeCtx<'_>, nas: Nas, size: u32) {
        let cell = self.current_cell();
        let p = ctx
            .make_packet(cell.enb_addr, size)
            .with_payload(Payload::control(S1Nas {
                imsi: self.imsi,
                nas,
            }));
        ctx.forward_via(cell.radio_link, p);
    }

    fn begin_attach(&mut self, ctx: &mut NodeCtx<'_>) {
        self.state = UeState::Attaching;
        if self.attach_started.is_none() {
            self.attach_started = Some(ctx.now);
            obs::nas_start(ctx, NasProc::Attach, self.imsi);
        }
        self.attach_attempts += 1;
        self.attach_epoch += 1;
        if self.attach_attempts > 1 {
            self.stats.attach_retries += 1;
        }
        self.send_nas(
            ctx,
            Nas::AttachRequest {
                imsi: self.imsi,
                via_enb: Addr::UNSPECIFIED,
            },
            wire::ATTACH_REQUEST,
        );
        // Retransmission guard with capped exponential backoff (3 s, 6 s,
        // 12 s, then 24 s forever): the UE never gives up — an outage
        // longer than any fixed attempt budget must still end in recovery.
        // The tag carries the epoch so only the *newest* attempt's timer
        // can retry.
        ctx.set_timer(
            backoff(3_000, self.attach_attempts, 24_000),
            TAG_ATTACH_TIMEOUT_BASE + self.attach_epoch,
        );
    }

    fn start_app(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.app_running {
            return;
        }
        if matches!(self.app, UeApp::None | UeApp::Upper(_)) {
            return;
        }
        self.app_running = true;
        ctx.set_timer(SimDuration::ZERO, TAG_APP);
    }

    fn app_packet(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        dst: Addr,
        bytes: u32,
        flow: u64,
    ) -> Option<Packet> {
        let src = self.addr?;
        let id = ctx.new_packet_id();
        Some(
            Packet::new(id, src, dst, bytes, ctx.now).with_payload(Payload::Flow {
                flow,
                seq: {
                    let s = self.seq;
                    self.seq += 1;
                    s
                },
            }),
        )
    }

    fn app_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.state != UeState::Attached {
            // Keep ticking; traffic resumes after re-attach.
            ctx.set_timer(SimDuration::from_millis(20), TAG_APP);
            return;
        }
        if self.rrc_idle {
            // Uplink pending while idle: service-request first, retry the
            // app tick shortly (radio bearer restores in a few control
            // RTTs).
            self.service_request(ctx);
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
                if let Some(p) = self.app_packet(ctx, dst, probe_bytes, self.imsi) {
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
                if let Some(p) = self.app_packet(ctx, dst, packet_bytes, self.imsi) {
                    self.stats.cbr_packets_sent += 1;
                    ctx.forward(p);
                }
                let gap = SimDuration::from_secs_f64(packet_bytes as f64 * 8.0 / rate_bps);
                ctx.set_timer(gap, TAG_APP);
            }
        }
    }

    fn handle_nas(&mut self, ctx: &mut NodeCtx<'_>, nas: Nas) {
        match nas {
            Nas::AuthenticationRequest { rand, autn, sn_id } => {
                match self.usim.authenticate(rand, autn, sn_id) {
                    Ok(resp) => {
                        obs::aka(ctx, AkaStep::Response, self.imsi);
                        self.send_nas(
                            ctx,
                            Nas::AuthenticationResponse {
                                imsi: self.imsi,
                                res: resp.res,
                            },
                            wire::AUTH_RESPONSE,
                        )
                    }
                    Err(AkaError::SyncFailure { ue_sqn }) => {
                        obs::aka(ctx, AkaStep::Resync, self.imsi);
                        self.send_nas(
                            ctx,
                            Nas::AuthenticationFailure {
                                imsi: self.imsi,
                                ue_sqn: Some(ue_sqn),
                            },
                            wire::AUTH_FAILURE,
                        )
                    }
                    Err(AkaError::MacFailure) => {
                        obs::aka(ctx, AkaStep::Failure, self.imsi);
                        self.send_nas(
                            ctx,
                            Nas::AuthenticationFailure {
                                imsi: self.imsi,
                                ue_sqn: None,
                            },
                            wire::AUTH_FAILURE,
                        )
                    }
                }
            }
            Nas::AttachAccept { ue_addr } => {
                if self.state != UeState::Attaching {
                    return;
                }
                self.state = UeState::Attached;
                self.attach_epoch += 1;
                self.stats.attaches_completed += 1;
                obs::nas_end(ctx, NasProc::Attach, self.imsi, true);
                if let Some(started) = self.attach_started.take() {
                    self.stats
                        .attach_latency_ms
                        .push_duration_ms(ctx.now.saturating_since(started));
                }
                self.attach_attempts = 0;
                let reattach = self.had_first_attach;
                self.had_first_attach = true;
                self.addr = Some(ue_addr);
                ctx.add_addr(ctx.node, ue_addr);
                self.start_app(ctx);
                if let UeApp::Upper(upper) = &mut self.app {
                    upper.on_attached(ctx, ue_addr, reattach);
                }
            }
            Nas::AttachReject { .. } => {
                self.stats.attach_rejects += 1;
                self.state = UeState::Detached;
                if self.attach_started.take().is_some() {
                    obs::nas_end(ctx, NasProc::Attach, self.imsi, false);
                }
            }
            Nas::RrcRelease { .. } if self.state == UeState::Attached => {
                self.rrc_idle = true;
                self.stats.rrc_releases += 1;
            }
            Nas::RrcRelease { .. } => {}
            Nas::PagingNotify { .. } => {
                self.stats.pages_received += 1;
                self.service_request(ctx);
            }
            Nas::ServiceAccept { .. } => {
                self.rrc_idle = false;
                if self.service_requested_at.take().is_some() {
                    obs::nas_end(ctx, NasProc::ServiceRequest, self.imsi, true);
                }
                self.service_attempts = 0;
                self.service_epoch += 1; // invalidate any pending retry
            }
            Nas::NetworkDetach { .. } => {
                // The core lost our session: the address is dead, a full
                // re-attach is the only way back.
                self.stats.network_detaches += 1;
                if let Some(old) = self.addr.take() {
                    ctx.remove_addr(ctx.node, old);
                }
                self.rrc_idle = false;
                self.service_requested_at = None;
                self.service_epoch += 1;
                if self.state == UeState::Attaching {
                    return; // re-attach already under way
                }
                self.state = UeState::Detached;
                self.attach_started = None;
                self.attach_attempts = 0;
                self.begin_attach(ctx);
            }
            _ => {}
        }
    }

    /// Leave ECM-IDLE: ask the network to restore the bearer. The UE keeps
    /// holding uplink until the service accept arrives (an idle UE cannot
    /// just transmit). Retransmission is timer-driven with capped
    /// exponential backoff; this entry point is a no-op while a request is
    /// already in flight.
    fn service_request(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.service_requested_at.is_some() {
            return; // retransmission timer owns the retries
        }
        self.service_attempts = 0;
        self.send_service_request(ctx);
    }

    fn send_service_request(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(ue_addr) = self.addr else { return };
        if !self.rrc_idle {
            return;
        }
        self.service_requested_at = Some(ctx.now);
        self.service_attempts += 1;
        if self.service_attempts > 1 {
            self.stats.service_request_retries += 1;
        } else {
            obs::nas_start(ctx, NasProc::ServiceRequest, self.imsi);
        }
        self.stats.service_requests += 1;
        self.send_nas(
            ctx,
            Nas::ServiceRequest {
                imsi: self.imsi,
                ue_addr,
            },
            wire::S1AP_PATH_SWITCH,
        );
        // Retransmit at 500 ms, 1 s, 2 s, then every 4 s until accepted.
        self.service_epoch += 1;
        ctx.set_timer(
            backoff(500, self.service_attempts, 4_000),
            TAG_SERVICE_RETRY_BASE + self.service_epoch,
        );
    }

    fn move_to_cell(&mut self, ctx: &mut NodeCtx<'_>, idx: usize) {
        if idx == self.current || idx >= self.cells.len() {
            return;
        }
        if self.mode == MobilityMode::ReAttach {
            // Tell the cell we are leaving to release its session *before*
            // re-pointing the radio: the detach rides the old radio link
            // (which is not a fault target), so the old core frees the
            // address instead of stranding it until an idle sweep. This
            // also covers a move arriving while a previous attach (or
            // detach) is still in flight — the old AP's half-open state is
            // torn down by the same message.
            self.send_nas(ctx, Nas::DetachRequest { imsi: self.imsi }, wire::DETACH);
        }
        self.current = idx;
        self.stats.cell_moves += 1;
        let cell = self.current_cell();
        // Re-point the default route at the new radio link.
        ctx.node_info_mut()
            .set_route(Prefix::DEFAULT, cell.radio_link);
        self.handover_started = Some(ctx.now);
        // Probes in flight across the move are lost; forget them so the gap
        // measurement keys off post-move probes.
        self.outstanding.clear();
        match self.mode {
            MobilityMode::PathSwitch => {
                if let Some(ue_addr) = self.addr {
                    self.send_nas(
                        ctx,
                        Nas::ServiceRequest {
                            imsi: self.imsi,
                            ue_addr,
                        },
                        wire::S1AP_PATH_SWITCH,
                    );
                } else {
                    self.begin_attach(ctx);
                }
            }
            MobilityMode::ReAttach => {
                // The old address dies with the old AP.
                if let Some(old) = self.addr.take() {
                    ctx.remove_addr(ctx.node, old);
                }
                self.state = UeState::Detached;
                self.attach_started = None;
                // A fresh cell is a fresh attach, not a retry: resetting
                // the attempt counter keeps a rapid move sequence from
                // double-incrementing the backoff (and `attach_retries`)
                // for timeouts that belong to a cell we already left.
                self.attach_attempts = 0;
                self.begin_attach(ctx);
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
            TAG_BEGIN_ATTACH => self.begin_attach(ctx),
            TAG_APP => self.app_tick(ctx),
            t if t >= UPPER_TAG_BASE => {
                if let UeApp::Upper(upper) = &mut self.app {
                    upper.on_timer(ctx, t);
                }
            }
            t if t >= TAG_SERVICE_RETRY_BASE => {
                let epoch = t - TAG_SERVICE_RETRY_BASE;
                if epoch == self.service_epoch
                    && self.rrc_idle
                    && self.service_requested_at.is_some()
                {
                    self.send_service_request(ctx);
                }
            }
            t if t >= TAG_ATTACH_TIMEOUT_BASE => {
                let epoch = t - TAG_ATTACH_TIMEOUT_BASE;
                if epoch == self.attach_epoch && self.state == UeState::Attaching {
                    self.begin_attach(ctx);
                }
            }
            t if t >= TAG_MOBILITY_BASE => {
                let idx = (t - TAG_MOBILITY_BASE) as usize;
                if let Some(&(_, cell)) = self.mobility.get(idx) {
                    self.move_to_cell(ctx, cell);
                }
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(s1nas) = packet.payload.as_control::<S1Nas>() {
            if s1nas.imsi == self.imsi {
                // Only the serving cell may *advance* our NAS state machine.
                // Without this, an attach accept from a cell we already
                // left (a rapid move sequence A→B→C where B's accept is
                // still in flight) would attach us to the wrong core with
                // an address its pool owns — a split-brain session. Fail-safe
                // orders are exempt: a NetworkDetach from an old cell is how
                // the network tears down a bearer it still anchors there
                // (e.g. a GTP error indication landing at the last eNB that
                // completed our path switch while our newest switch is lost
                // in flight) — dropping it wedges the UE with a dead bearer,
                // while honoring it merely costs one safe re-attach.
                let fail_safe = matches!(s1nas.nas, Nas::NetworkDetach { .. });
                if !fail_safe && packet.src != self.current_cell().enb_addr {
                    self.stats.stale_nas_dropped += 1;
                    return;
                }
                let nas = s1nas.nas.clone();
                self.handle_nas(ctx, nas);
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
