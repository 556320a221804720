//! The Mobility Management Entity.
//!
//! Drives the shared EPS-AKA attach machine (`attach.rs`) for every UE
//! in the network, fetching its vectors from the HSS over S6a and guarding
//! the one resync retry with a timer; then S11 session creation → S1AP
//! context setup, S1 path-switch handover and detach. This is the component
//! the paper calls out as the chokepoint: every control event of every UE in
//! a centralized network serializes here.

use crate::attach::{self, Attach, Input, Output};
use crate::messages::{wire, Gtpc, Nas, S1Nas, S1ap, S6a, SnId, Teid};
use crate::obs;
use crate::proc::Processor;
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::gtp::{GtpEcho, PathEvent, PathMonitor, GTP_ECHO_BYTES};
use dlte_net::{Addr, NodeCtx, NodeHandler, Packet, Payload};
use dlte_obs::{AkaStep, Event, NasProc};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};
use std::any::Any;

/// Timer tag for the S-GW path-management tick (disjoint from the
/// processor's tags, which grow upward from 0).
const TAG_PATH_TICK: u64 = 8_900_000;
/// Timer tag base for EPS-AKA resync guard timers (`base + epoch`).
const TAG_RESYNC_BASE: u64 = 9_200_000;
/// How long a resync retry may wait for the HSS before the attach context
/// is abandoned (the UE's own attach retransmission recovers from there).
const RESYNC_GUARD: SimDuration = SimDuration::from_secs(3);

/// Per-UE control state at the MME.
#[derive(Clone, Copy, Debug)]
enum UeCtx {
    /// The shared EPS-AKA attach machine is running.
    Authenticating { via_enb: Addr, attach: Attach },
    AwaitSession {
        via_enb: Addr,
        started: SimTime,
        teid_dl: Teid,
    },
    Active {
        via_enb: Addr,
        ue_addr: Addr,
        teid_dl: Teid,
        /// Uplink TEID at the S-GW (handed to each serving eNB).
        teid_ul_sgw: Teid,
        /// ECM state: true = S1 released, UE reachable only via paging.
        ecm_idle: bool,
    },
    /// Path switch in progress: waiting for the S-GW to move the bearer.
    Switching {
        new_enb: Addr,
        ue_addr: Addr,
        teid_dl: Teid,
        teid_ul_sgw: Teid,
        started: SimTime,
    },
}

/// MME statistics.
#[derive(Clone, Debug, Default)]
pub struct MmeStats {
    pub attach_requests: u64,
    pub attaches_completed: u64,
    pub attaches_rejected: u64,
    pub auth_resyncs: u64,
    /// EPS-AKA resync retries abandoned because the HSS answer never came.
    pub resync_timeouts: u64,
    pub handovers_completed: u64,
    pub s1_releases: u64,
    pub pages_sent: u64,
    /// S-GW path failures detected (echo timeout or restart counter change).
    pub peer_failures: u64,
    /// UE sessions torn down because the S-GW died under them.
    pub sessions_cleaned: u64,
    /// Post-failure detach orders re-sent because the UE never showed up
    /// again (the first copy was lost on a degraded backhaul).
    pub detach_retries: u64,
    /// Path-switch ModifyBearerRequests re-sent because the S-GW answer
    /// never arrived (the context sat in `Switching` past a path tick).
    pub switch_retries: u64,
    /// Attach completion latency as seen from the MME (request → accept
    /// sent), milliseconds.
    pub attach_latency_ms: Samples,
    /// Path-switch latency (request → ack sent), milliseconds.
    pub switch_latency_ms: Samples,
}

/// The MME node handler.
pub struct MmeNode {
    pub sn_id: SnId,
    pub hss_addr: Addr,
    pub sgw_addr: Addr,
    pub proc: Processor,
    contexts: FxHashMap<Imsi, UeCtx>,
    next_teid: Teid,
    pub stats: MmeStats,
    /// Echo-based liveness tracking of the S-GW. Off by default: path
    /// management adds periodic traffic, so topologies opt in explicitly
    /// (keeps fault-free experiment seeds undisturbed).
    path_mgmt: Option<PathMonitor>,
    /// Guard timers for in-flight resync retries: epoch → imsi.
    resync_watch: FxHashMap<u64, Imsi>,
    next_resync_epoch: u64,
    /// UEs ordered to detach after an S-GW failure that have not re-appeared
    /// yet: imsi → (serving eNB, resends left). The detach order is a single
    /// unacknowledged message over a possibly degraded backhaul; each path
    /// tick re-sends it until the UE's attach shows up (sorted map: resend
    /// order is deterministic).
    pending_detach: std::collections::BTreeMap<Imsi, (Addr, u32)>,
}

/// How many path ticks a lost post-failure detach order is re-sent for.
const DETACH_RESENDS: u32 = 16;

impl MmeNode {
    pub fn new(sn_id: SnId, hss_addr: Addr, sgw_addr: Addr, per_msg: SimDuration) -> Self {
        MmeNode {
            sn_id,
            hss_addr,
            sgw_addr,
            proc: Processor::new(per_msg, 0),
            contexts: FxHashMap::default(),
            next_teid: 1,
            stats: MmeStats::default(),
            path_mgmt: None,
            resync_watch: FxHashMap::default(),
            next_resync_epoch: 0,
            pending_detach: std::collections::BTreeMap::new(),
        }
    }

    /// Turn on GTP echo path management toward the S-GW: an echo request
    /// every `interval`, declaring the peer dead after `max_misses`
    /// unanswered requests (or instantly on a restart-counter change), then
    /// tearing down every session it held.
    pub fn enable_path_mgmt(&mut self, interval: SimDuration, max_misses: u32) {
        self.path_mgmt = Some(PathMonitor::new(self.sgw_addr, interval, max_misses));
    }

    fn alloc_teid(&mut self) -> Teid {
        let t = self.next_teid;
        self.next_teid += 1;
        t
    }

    /// Number of UEs in `Active` state.
    pub fn active_ues(&self) -> usize {
        self.contexts
            .values()
            .filter(|c| matches!(c, UeCtx::Active { .. }))
            .count()
    }

    /// Snapshot the UE context table for post-run invariant checking.
    pub fn audit(&self) -> crate::audit::MmeAudit {
        let mut ues = Vec::new();
        let mut transient = Vec::new();
        for (&imsi, c) in &self.contexts {
            match c {
                UeCtx::Active {
                    ue_addr,
                    teid_dl,
                    teid_ul_sgw,
                    ecm_idle,
                    ..
                } => ues.push(crate::audit::MmeUeAudit {
                    imsi,
                    ue_addr: *ue_addr,
                    teid_dl: *teid_dl,
                    teid_ul_sgw: *teid_ul_sgw,
                    ecm_idle: *ecm_idle,
                }),
                _ => transient.push(imsi),
            }
        }
        ues.sort_by_key(|u| u.imsi);
        transient.sort_unstable();
        crate::audit::MmeAudit { ues, transient }
    }

    /// A control packet of `size` bytes carrying `msg` to `dst`.
    fn control(ctx: &mut NodeCtx<'_>, dst: Addr, size: u32, msg: impl Any + Send + Sync) -> Packet {
        ctx.make_packet(dst, size)
            .with_payload(Payload::control(msg))
    }

    /// Queue one control message to `dst` through the processor.
    fn send(&mut self, ctx: &mut NodeCtx<'_>, dst: Addr, size: u32, msg: impl Any + Send + Sync) {
        let p = Self::control(ctx, dst, size, msg);
        self.proc.process_one(ctx, p);
    }

    /// The post-failure detach order for `imsi` at `enb`: release the eNB
    /// context and tell the UE to re-attach.
    fn detach_order(ctx: &mut NodeCtx<'_>, enb: Addr, imsi: Imsi) -> [Packet; 2] {
        let (release, nas) = (S1ap::UeContextRelease { imsi }, Nas::NetworkDetach { imsi });
        [
            Self::control(ctx, enb, wire::S1AP_RELEASE, release),
            Self::control(ctx, enb, wire::NETWORK_DETACH, S1Nas { imsi, nas }),
        ]
    }

    /// Step `imsi`'s attach and carry out what it asks for.
    fn drive(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        imsi: Imsi,
        via_enb: Addr,
        state: Option<Attach>,
        input: Input,
    ) {
        let (next, outputs) = attach::step(state, input);
        match next {
            Some(attach) => self
                .contexts
                .insert(imsi, UeCtx::Authenticating { via_enb, attach }),
            None => self.contexts.remove(&imsi),
        };
        for out in outputs {
            match out {
                Output::Trace(t) => obs::emit(ctx, t.event(imsi)),
                Output::RequestVector { resync_sqn } => {
                    if resync_sqn.is_some() {
                        // Guard the retry: if the HSS answer is lost the
                        // context is dropped instead of hanging the attach.
                        self.stats.auth_resyncs += 1;
                        let epoch = self.next_resync_epoch;
                        self.next_resync_epoch += 1;
                        self.resync_watch.insert(epoch, imsi);
                        ctx.set_timer(RESYNC_GUARD, TAG_RESYNC_BASE + epoch);
                    } else {
                        obs::aka(ctx, AkaStep::VectorRequest, imsi);
                    }
                    let sn_id = self.sn_id;
                    let req = S6a::AuthInfoRequest {
                        imsi,
                        sn_id,
                        resync_sqn,
                    };
                    self.send(ctx, self.hss_addr, wire::S6A_REQUEST, req);
                }
                Output::Challenge(v) => {
                    let (rand, autn, sn_id) = (v.rand, v.autn, self.sn_id);
                    let nas = Nas::AuthenticationRequest { rand, autn, sn_id };
                    self.send(ctx, via_enb, wire::AUTH_REQUEST, S1Nas { imsi, nas });
                }
                Output::Authenticated { started } => {
                    obs::nas_end(ctx, NasProc::Auth, imsi, true);
                    obs::nas_start(ctx, NasProc::Session, imsi);
                    let teid_dl = self.alloc_teid();
                    self.contexts.insert(
                        imsi,
                        UeCtx::AwaitSession {
                            via_enb,
                            started,
                            teid_dl,
                        },
                    );
                    let req = Gtpc::CreateSessionRequest {
                        imsi,
                        enb_addr: via_enb,
                        teid_dl_enb: teid_dl,
                    };
                    self.send(ctx, self.sgw_addr, wire::GTPC, req);
                }
                Output::Reject(cause) => {
                    self.stats.attaches_rejected += 1;
                    let nas = Nas::AttachReject { imsi, cause };
                    self.send(ctx, via_enb, wire::ATTACH_REJECT, S1Nas { imsi, nas });
                }
                Output::Abandon => self.stats.resync_timeouts += 1,
            }
        }
    }

    /// Feed `input` to `imsi`'s attach, if one is in progress.
    fn feed(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, input: Input) {
        if let Some(UeCtx::Authenticating { via_enb, attach }) = self.contexts.get(&imsi).copied() {
            self.drive(ctx, imsi, via_enb, Some(attach), input);
        }
    }

    fn handle_nas(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, nas: Nas) {
        match nas {
            Nas::AttachRequest { via_enb, .. } => {
                self.stats.attach_requests += 1;
                // A duplicate attach replaces any stale context.
                self.drive(ctx, imsi, via_enb, None, Input::Start { at: ctx.now });
            }
            Nas::AuthenticationResponse { res, .. } => {
                self.feed(ctx, imsi, Input::Response { res, refuse: None });
            }
            Nas::AuthenticationFailure { ue_sqn, .. } => {
                self.feed(ctx, imsi, Input::Failure { ue_sqn });
            }
            Nas::DetachRequest { .. } => {
                if let Some(UeCtx::Active { via_enb, .. }) = self.contexts.remove(&imsi) {
                    obs::nas_start(ctx, NasProc::Detach, imsi);
                    obs::nas_end(ctx, NasProc::Detach, imsi, true);
                    let del = Gtpc::DeleteSessionRequest { imsi };
                    let del = Self::control(ctx, self.sgw_addr, wire::GTPC, del);
                    let rel = S1ap::UeContextRelease { imsi };
                    let rel = Self::control(ctx, via_enb, wire::S1AP_CONTEXT, rel);
                    self.proc.process(ctx, vec![del, rel]);
                }
            }
            // ServiceRequest is converted to PathSwitchRequest by the eNB;
            // the MME never sees it as NAS. Downlink NAS types are not
            // expected here.
            _ => {}
        }
    }

    fn handle_s6a(&mut self, ctx: &mut NodeCtx<'_>, msg: S6a) {
        let S6a::AuthInfoAnswer { imsi, vector } = msg else {
            return;
        };
        let Some(UeCtx::Authenticating { via_enb, attach }) = self.contexts.get(&imsi).copied()
        else {
            return;
        };
        if !attach.awaits_vector() {
            return;
        }
        if attach.awaits_resync() {
            // The guarded resync answer arrived; disarm its watchdog.
            self.resync_watch.retain(|_, i| *i != imsi);
        }
        if vector.is_some() {
            obs::aka(ctx, AkaStep::VectorIssued, imsi);
        }
        self.drive(ctx, imsi, via_enb, Some(attach), Input::Vector(vector));
    }

    fn handle_gtpc(&mut self, ctx: &mut NodeCtx<'_>, msg: Gtpc) {
        match msg {
            Gtpc::CreateSessionResponse {
                imsi,
                ue_addr,
                teid_ul_sgw,
                ..
            } => {
                let Some(UeCtx::AwaitSession {
                    via_enb,
                    started,
                    teid_dl,
                }) = self.contexts.get(&imsi).cloned()
                else {
                    return;
                };
                self.contexts.insert(
                    imsi,
                    UeCtx::Active {
                        via_enb,
                        ue_addr,
                        teid_dl,
                        teid_ul_sgw,
                        ecm_idle: false,
                    },
                );
                self.stats.attaches_completed += 1;
                self.stats
                    .attach_latency_ms
                    .push_duration_ms(ctx.now.saturating_since(started));
                obs::nas_end(ctx, NasProc::Session, imsi, true);
                obs::nas_end(ctx, NasProc::Attach, imsi, true);
                // Install the context at the eNB, then accept the UE.
                let setup =
                    ctx.make_packet(via_enb, wire::S1AP_CONTEXT)
                        .with_payload(Payload::control(S1ap::InitialContextSetup {
                            imsi,
                            ue_addr,
                            sgw_addr: self.sgw_addr,
                            teid_ul: teid_ul_sgw,
                            teid_dl,
                        }));
                let nas = Nas::AttachAccept { ue_addr };
                let accept = Self::control(ctx, via_enb, wire::ATTACH_ACCEPT, S1Nas { imsi, nas });
                self.proc.process(ctx, vec![setup, accept]);
            }
            Gtpc::DownlinkDataNotification { imsi } => {
                let Some(UeCtx::Active {
                    via_enb,
                    ecm_idle: true,
                    ..
                }) = self.contexts.get(&imsi).cloned()
                else {
                    return;
                };
                // Single-tracking-area simplification: page the last
                // serving eNB (a multi-eNB TA would fan this out).
                self.stats.pages_sent += 1;
                self.send(ctx, via_enb, wire::PAGING, S1ap::Paging { imsi });
            }
            Gtpc::ModifyBearerResponse { imsi } => {
                let Some(UeCtx::Switching {
                    new_enb,
                    ue_addr,
                    teid_dl,
                    teid_ul_sgw,
                    started,
                    ..
                }) = self.contexts.get(&imsi).cloned()
                else {
                    return;
                };
                self.contexts.insert(
                    imsi,
                    UeCtx::Active {
                        via_enb: new_enb,
                        ue_addr,
                        teid_dl,
                        teid_ul_sgw,
                        ecm_idle: false,
                    },
                );
                self.stats.handovers_completed += 1;
                self.stats
                    .switch_latency_ms
                    .push_duration_ms(ctx.now.saturating_since(started));
                obs::nas_end(ctx, NasProc::Handover, imsi, true);
                let size = wire::S1AP_PATH_SWITCH;
                let nas = Nas::ServiceAccept { imsi };
                let ack = Self::control(ctx, new_enb, size, S1ap::PathSwitchAck { imsi });
                let accept = Self::control(ctx, new_enb, size, S1Nas { imsi, nas });
                self.proc.process(ctx, vec![ack, accept]);
            }
            _ => {}
        }
    }

    /// Periodic S-GW path-management tick: send an echo request, and tear
    /// sessions down when the miss threshold declares the peer dead.
    fn path_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(monitor) = self.path_mgmt.as_mut() else {
            return;
        };
        let interval = monitor.interval;
        let peer = monitor.peer;
        let (echo, edge) = monitor.tick(0);
        obs::emit(
            ctx,
            Event::GtpEcho {
                peer: peer.to_string(),
                restart_counter: 0,
            },
        );
        let req = ctx
            .make_packet(peer, GTP_ECHO_BYTES)
            .with_payload(Payload::control(echo));
        ctx.forward(req);
        ctx.set_timer(interval, TAG_PATH_TICK);
        self.retry_pending_detach(ctx);
        self.retry_stuck_switches(ctx, interval);
        if edge == Some(PathEvent::PeerDead) {
            dlte_obs::metrics::counter_add("gtp_path_down", 1);
            obs::emit(
                ctx,
                Event::GtpPathDown {
                    peer: peer.to_string(),
                },
            );
            self.on_sgw_failure(ctx);
        }
    }

    fn handle_echo(&mut self, ctx: &mut NodeCtx<'_>, echo: GtpEcho, from: Addr) {
        if echo.is_request {
            // Answer echoes regardless of monitoring config (the MME never
            // restarts in our scenarios, so its counter is constant).
            let resp = ctx
                .make_packet(from, GTP_ECHO_BYTES)
                .with_payload(Payload::control(GtpEcho {
                    seq: echo.seq,
                    restart_counter: 0,
                    is_request: false,
                }));
            ctx.forward(resp);
            return;
        }
        let Some(monitor) = self.path_mgmt.as_mut() else {
            return;
        };
        if from == monitor.peer && monitor.on_response(echo) == PathEvent::PeerRestarted {
            dlte_obs::metrics::counter_add("gtp_peer_restart", 1);
            obs::emit(
                ctx,
                Event::GtpPeerRestart {
                    peer: from.to_string(),
                },
            );
            self.on_sgw_failure(ctx);
        }
    }

    /// The S-GW died (or restarted, losing its bearers): drop every session
    /// it backed, releasing eNB contexts and detaching UEs so they
    /// re-attach cleanly. IMSIs are processed in sorted order to keep event
    /// schedules deterministic.
    fn on_sgw_failure(&mut self, ctx: &mut NodeCtx<'_>) {
        self.stats.peer_failures += 1;
        let mut imsis: Vec<Imsi> = self
            .contexts
            .iter()
            .filter(|(_, c)| {
                matches!(
                    c,
                    UeCtx::Active { .. } | UeCtx::Switching { .. } | UeCtx::AwaitSession { .. }
                )
            })
            .map(|(&imsi, _)| imsi)
            .collect();
        imsis.sort_unstable();
        let mut batch = Vec::new();
        for imsi in imsis {
            let Some(c) = self.contexts.remove(&imsi) else {
                continue;
            };
            self.stats.sessions_cleaned += 1;
            let enb = match c {
                UeCtx::Active { via_enb, .. } | UeCtx::AwaitSession { via_enb, .. } => via_enb,
                UeCtx::Switching { new_enb, .. } => new_enb,
                _ => continue,
            };
            if matches!(c, UeCtx::AwaitSession { .. }) {
                // No eNB context installed yet; the UE's attach timer will
                // retry on its own.
                obs::nas_end(ctx, NasProc::Session, imsi, false);
                obs::nas_end(ctx, NasProc::Attach, imsi, false);
                continue;
            }
            batch.extend(Self::detach_order(ctx, enb, imsi));
            // Neither message is acknowledged and the backhaul may be the
            // very thing that is failing: remember the order and re-send it
            // from the path tick until the UE re-appears.
            self.pending_detach.insert(imsi, (enb, DETACH_RESENDS));
        }
        if !batch.is_empty() {
            self.proc.process(ctx, batch);
        }
    }

    /// Re-send post-failure detach orders whose UE has not come back. A UE
    /// with *any* context again (an attach in flight or completed) is done;
    /// re-sending then would cancel its own recovery. Driven by the path
    /// tick, so this retries at the path-management cadence and stops
    /// naturally once every UE re-attached.
    fn retry_pending_detach(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.pending_detach.is_empty() {
            return;
        }
        let mut batch = Vec::new();
        let mut done: Vec<Imsi> = Vec::new();
        for (&imsi, &mut (enb, ref mut left)) in self.pending_detach.iter_mut() {
            if self.contexts.contains_key(&imsi) || *left == 0 {
                done.push(imsi);
                continue;
            }
            *left -= 1;
            self.stats.detach_retries += 1;
            batch.extend(Self::detach_order(ctx, enb, imsi));
        }
        for imsi in done {
            self.pending_detach.remove(&imsi);
        }
        if !batch.is_empty() {
            self.proc.process(ctx, batch);
        }
    }

    /// Re-send the ModifyBearerRequest for any path switch stuck in
    /// `Switching` longer than one path-tick interval. The original request
    /// (or its answer) was lost — an S-GW pause as short as the switch
    /// itself is enough — and nothing else retransmits it, so without this
    /// the context wedges in `Switching` forever while the UE believes it
    /// is attached. The request is idempotent at the S-GW (it re-points the
    /// bearer's eNB endpoint and replies), and the reply drives the normal
    /// `Switching` → `Active` transition. Sorted IMSI order keeps event
    /// schedules deterministic.
    fn retry_stuck_switches(&mut self, ctx: &mut NodeCtx<'_>, interval: SimDuration) {
        let mut stuck: Vec<(Imsi, Addr, Teid)> = self
            .contexts
            .iter()
            .filter_map(|(&imsi, c)| match c {
                UeCtx::Switching {
                    new_enb,
                    teid_dl,
                    started,
                    ..
                } if ctx.now.saturating_since(*started) >= interval => {
                    Some((imsi, *new_enb, *teid_dl))
                }
                _ => None,
            })
            .collect();
        if stuck.is_empty() {
            return;
        }
        stuck.sort_unstable_by_key(|&(imsi, _, _)| imsi);
        let mut batch = Vec::new();
        for (imsi, new_enb, teid_dl) in stuck {
            self.stats.switch_retries += 1;
            batch.push(
                ctx.make_packet(self.sgw_addr, wire::GTPC)
                    .with_payload(Payload::control(Gtpc::ModifyBearerRequest {
                        imsi,
                        new_enb_addr: new_enb,
                        teid_dl_enb: teid_dl,
                    })),
            );
        }
        self.proc.process(ctx, batch);
    }

    fn handle_s1ap(&mut self, ctx: &mut NodeCtx<'_>, msg: S1ap) {
        match msg {
            S1ap::UeContextReleaseRequest { imsi } => {
                // eNB-reported inactivity: move the UE to ECM-IDLE. The
                // S-GW drops the access bearer; the eNB clears the radio
                // context; the UE keeps its IP.
                let Some(UeCtx::Active {
                    via_enb,
                    ecm_idle: idle @ false,
                    ..
                }) = self.contexts.get_mut(&imsi)
                else {
                    return;
                };
                *idle = true;
                let via_enb = *via_enb;
                self.stats.s1_releases += 1;
                let rel_bearers = Gtpc::ReleaseAccessBearers { imsi };
                let rel_bearers = Self::control(ctx, self.sgw_addr, wire::GTPC, rel_bearers);
                let rel_enb = S1ap::UeContextRelease { imsi };
                let rel_enb = Self::control(ctx, via_enb, wire::S1AP_RELEASE, rel_enb);
                self.proc.process(ctx, vec![rel_bearers, rel_enb]);
            }
            S1ap::PathSwitchRequest {
                imsi,
                ue_addr,
                new_enb,
            } => {
                let Some(UeCtx::Active {
                    via_enb: old_enb,
                    teid_dl,
                    teid_ul_sgw,
                    ..
                }) = self.contexts.get(&imsi).cloned()
                else {
                    return; // unknown UE: ignore (UE will fall back to attach)
                };
                obs::nas_start(ctx, NasProc::Handover, imsi);
                self.contexts.insert(
                    imsi,
                    UeCtx::Switching {
                        new_enb,
                        ue_addr,
                        teid_dl,
                        teid_ul_sgw,
                        started: ctx.now,
                    },
                );
                // The target eNB gets the context immediately (in real S1AP
                // it already holds it — it initiated the path switch), so
                // downlink flushed by the S-GW never races an uninstalled
                // tunnel.
                let setup = S1ap::InitialContextSetup {
                    imsi,
                    ue_addr,
                    sgw_addr: self.sgw_addr,
                    teid_ul: teid_ul_sgw,
                    teid_dl,
                };
                let modify = Gtpc::ModifyBearerRequest {
                    imsi,
                    new_enb_addr: new_enb,
                    teid_dl_enb: teid_dl,
                };
                let mut batch = vec![
                    Self::control(ctx, new_enb, wire::S1AP_CONTEXT, setup),
                    Self::control(ctx, self.sgw_addr, wire::GTPC, modify),
                ];
                if old_enb != new_enb {
                    let release = S1ap::UeContextRelease { imsi };
                    batch.push(Self::control(ctx, old_enb, wire::S1AP_CONTEXT, release));
                }
                self.proc.process(ctx, batch);
            }
            _ => {}
        }
    }
}

impl NodeHandler for MmeNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(s1nas) = packet.payload.as_control::<S1Nas>().cloned() {
            self.handle_nas(ctx, s1nas.imsi, s1nas.nas);
        } else if let Some(msg) = packet.payload.as_control::<S6a>().cloned() {
            self.handle_s6a(ctx, msg);
        } else if let Some(msg) = packet.payload.as_control::<Gtpc>().cloned() {
            self.handle_gtpc(ctx, msg);
        } else if let Some(msg) = packet.payload.as_control::<S1ap>().cloned() {
            self.handle_s1ap(ctx, msg);
        } else if let Some(echo) = packet.payload.as_control::<GtpEcho>().copied() {
            self.handle_echo(ctx, echo, packet.src);
        } else if !ctx.peer_info(ctx.node).owns(packet.dst) {
            ctx.forward(packet);
        }
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(m) = &self.path_mgmt {
            ctx.set_timer(m.interval, TAG_PATH_TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == TAG_PATH_TICK {
            self.path_tick(ctx);
        } else if tag >= TAG_RESYNC_BASE {
            // A resync guard fired: if the attach still waits on that HSS
            // answer, the machine abandons it (the UE's retransmission
            // recovers). A guard answered in time finds no watch entry.
            if let Some(imsi) = self.resync_watch.remove(&(tag - TAG_RESYNC_BASE)) {
                self.feed(ctx, imsi, Input::GuardExpired);
            }
        } else {
            self.proc.on_timer(ctx, tag);
        }
    }
}
