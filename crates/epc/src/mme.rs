//! The Mobility Management Entity.
//!
//! Drives the shared EPS-AKA attach machine (`attach.rs`) for every UE
//! in the network, fetching its vectors from the HSS over S6a and guarding
//! the one resync retry with a timer; then the MME half of the session
//! lifecycle (`session.rs`): S11 session creation → S1AP context setup,
//! ECM-IDLE release and paging, S1 path-switch handover, detach, and the
//! loss of the S-GW, which echo path management (`path.rs`) detects. This
//! node keeps the I/O: it allocates TEIDs, builds the packets each step
//! asks for, and batches them through its processor. It is the component
//! the paper calls out as the chokepoint: every control event of every UE
//! in a centralized network serializes here.

use crate::attach::{self, Attach, Input, Output};
use crate::messages::{wire, Gtpc, Nas, S1Nas, S1ap, S6a, SnId, Teid};
use crate::obs;
use crate::path::PathMgmt;
use crate::proc::Processor;
use crate::session::mme::{self as session, Bearer, Session};
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::gtp::GtpEcho;
use dlte_net::{Addr, NodeCtx, NodeHandler, Packet, Payload};
use dlte_obs::{AkaStep, NasProc};
use dlte_sim::stats::Samples;
use dlte_sim::SimDuration;
use std::any::Any;

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
    /// Authenticated: the session lifecycle (`session.rs`) runs.
    Session(Session),
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
    /// Echo path management toward the S-GW (off unless enabled).
    pub path: PathMgmt,
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
            path: PathMgmt::default(),
            resync_watch: FxHashMap::default(),
            next_resync_epoch: 0,
            pending_detach: std::collections::BTreeMap::new(),
        }
    }

    fn alloc_teid(&mut self) -> Teid {
        let t = self.next_teid;
        self.next_teid += 1;
        t
    }

    /// Number of UEs with a bearer up (ECM-IDLE ones included).
    pub fn active_ues(&self) -> usize {
        self.contexts
            .values()
            .filter(|c| matches!(c, UeCtx::Session(Session::Active(..) | Session::Idle(..))))
            .count()
    }

    /// Snapshot the UE context table for post-run invariant checking.
    pub fn audit(&self) -> crate::audit::MmeAudit {
        let (mut ues, mut transient) = (Vec::new(), Vec::new());
        for (&imsi, c) in &self.contexts {
            match *c {
                UeCtx::Session(s @ (Session::Active(_, b) | Session::Idle(_, b))) => {
                    ues.push(crate::audit::MmeUeAudit {
                        imsi,
                        ue_addr: b.ue_addr,
                        teid_dl: b.teid_dl,
                        teid_ul_sgw: b.teid_ul_sgw,
                        ecm_idle: matches!(s, Session::Idle(..)),
                    })
                }
                _ => transient.push(imsi),
            }
        }
        ues.sort_by_key(|u| u.imsi);
        transient.sort_unstable();
        crate::audit::MmeAudit { ues, transient }
    }

    /// Queue one control message to `dst` through the processor.
    fn send(&mut self, ctx: &mut NodeCtx<'_>, dst: Addr, size: u32, msg: impl Any + Send + Sync) {
        let p = control(ctx, dst, size, msg);
        self.proc.process_one(ctx, p);
    }

    /// The post-failure detach order for `imsi` at `enb`: release the eNB
    /// context and tell the UE to re-attach.
    fn detach_order(ctx: &mut NodeCtx<'_>, enb: Addr, imsi: Imsi) -> [Packet; 2] {
        let (release, nas) = (S1ap::UeContextRelease { imsi }, Nas::NetworkDetach { imsi });
        [
            control(ctx, enb, wire::S1AP_RELEASE, release),
            control(ctx, enb, wire::NETWORK_DETACH, S1Nas { imsi, nas }),
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
                    let teid_dl = self.alloc_teid();
                    let open = session::Input::Open(via_enb, teid_dl, started);
                    self.sessions(ctx, &[imsi], open);
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
                // A detach drops an attach in progress too.
                if let Some(UeCtx::Authenticating { .. }) = self.contexts.get(&imsi) {
                    self.contexts.remove(&imsi);
                }
                self.sessions(ctx, &[imsi], session::Input::Detach);
            }
            // ServiceRequest is converted to PathSwitchRequest by the eNB;
            // the MME never sees it as NAS. Downlink NAS is not expected.
            Nas::ServiceRequest { .. }
            | Nas::AuthenticationRequest { .. }
            | Nas::AttachAccept { .. }
            | Nas::AttachReject { .. }
            | Nas::RrcRelease { .. }
            | Nas::PagingNotify { .. }
            | Nas::ServiceAccept { .. }
            | Nas::NetworkDetach { .. } => {}
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

    /// Step every session, in IMSI order, with `input`.
    fn step_all(&mut self, ctx: &mut NodeCtx<'_>, input: session::Input) {
        let mut imsis: Vec<Imsi> = self
            .contexts
            .iter()
            .filter(|(_, c)| matches!(c, UeCtx::Session(_)))
            .map(|(&imsi, _)| imsi)
            .collect();
        imsis.sort_unstable();
        self.sessions(ctx, &imsis, input);
    }

    /// Step the sessions of `imsis` (an attach in progress has none), in
    /// order, with `input`, and carry out what they ask for; all the
    /// packets are one unit of processor work.
    fn sessions(&mut self, ctx: &mut NodeCtx<'_>, imsis: &[Imsi], input: session::Input) {
        use session::Output as Out;
        let mut outputs = Vec::new();
        for &imsi in imsis {
            let state = match self.contexts.get(&imsi) {
                Some(UeCtx::Session(s)) => Some(*s),
                _ => None,
            };
            let (next, out) = session::step(state, input);
            match next {
                Some(s) => _ = self.contexts.insert(imsi, UeCtx::Session(s)),
                None if state.is_some() => _ = self.contexts.remove(&imsi),
                None => {}
            }
            outputs.extend(out.into_iter().map(|out| (imsi, out)));
        }
        let (sgw, mut batch) = (self.sgw_addr, Vec::new());
        for (imsi, out) in outputs {
            match out {
                Out::Trace(t) => obs::emit(ctx, t.event(imsi)),
                Out::Create(enb_addr, teid_dl_enb) => {
                    let req = Gtpc::CreateSessionRequest {
                        imsi,
                        enb_addr,
                        teid_dl_enb,
                    };
                    batch.push(control(ctx, sgw, wire::GTPC, req));
                }
                Out::Attached(enb, bearer, latency) => {
                    self.stats.attaches_completed += 1;
                    self.stats.attach_latency_ms.push_duration_ms(latency);
                    batch.push(self.setup(ctx, enb, imsi, bearer));
                    let ue_addr = bearer.ue_addr;
                    let nas = Nas::AttachAccept { ue_addr };
                    batch.push(control(ctx, enb, wire::ATTACH_ACCEPT, S1Nas { imsi, nas }));
                }
                Out::Page(enb) => {
                    self.stats.pages_sent += 1;
                    batch.push(control(ctx, enb, wire::PAGING, S1ap::Paging { imsi }));
                }
                Out::Release(enb) => {
                    self.stats.s1_releases += 1;
                    let release = Gtpc::ReleaseAccessBearers { imsi };
                    batch.push(control(ctx, sgw, wire::GTPC, release));
                    let release = S1ap::UeContextRelease { imsi };
                    batch.push(control(ctx, enb, wire::S1AP_RELEASE, release));
                }
                Out::Switch { from, to, bearer } => {
                    batch.push(self.setup(ctx, to, imsi, bearer));
                    batch.push(self.modify(ctx, imsi, to, bearer.teid_dl));
                    if from != to {
                        let release = S1ap::UeContextRelease { imsi };
                        batch.push(control(ctx, from, wire::S1AP_CONTEXT, release));
                    }
                }
                Out::RetrySwitch(enb, teid_dl) => {
                    self.stats.switch_retries += 1;
                    batch.push(self.modify(ctx, imsi, enb, teid_dl));
                }
                Out::Switched(enb, latency) => {
                    self.stats.handovers_completed += 1;
                    self.stats.switch_latency_ms.push_duration_ms(latency);
                    let (size, nas) = (wire::S1AP_PATH_SWITCH, Nas::ServiceAccept { imsi });
                    batch.push(control(ctx, enb, size, S1ap::PathSwitchAck { imsi }));
                    batch.push(control(ctx, enb, size, S1Nas { imsi, nas }));
                }
                Out::Delete(enb) => {
                    let delete = Gtpc::DeleteSessionRequest { imsi };
                    batch.push(control(ctx, sgw, wire::GTPC, delete));
                    let release = S1ap::UeContextRelease { imsi };
                    batch.push(control(ctx, enb, wire::S1AP_CONTEXT, release));
                }
                Out::Lost(detach) => {
                    self.stats.sessions_cleaned += 1;
                    if let Some(enb) = detach {
                        batch.extend(Self::detach_order(ctx, enb, imsi));
                        // Neither message is acknowledged and the backhaul
                        // may be the very thing that is failing: re-send
                        // from the path tick until the UE re-appears.
                        self.pending_detach.insert(imsi, (enb, DETACH_RESENDS));
                    }
                }
            }
        }
        if !batch.is_empty() {
            self.proc.process(ctx, batch);
        }
    }

    /// The context setup that installs `bearer` for `imsi` at `enb`.
    fn setup(&self, ctx: &mut NodeCtx<'_>, enb: Addr, imsi: Imsi, bearer: Bearer) -> Packet {
        let setup = S1ap::InitialContextSetup {
            imsi,
            ue_addr: bearer.ue_addr,
            sgw_addr: self.sgw_addr,
            teid_ul: bearer.teid_ul_sgw,
            teid_dl: bearer.teid_dl,
        };
        control(ctx, enb, wire::S1AP_CONTEXT, setup)
    }

    /// The ModifyBearerRequest that moves `imsi`'s downlink to `enb`.
    fn modify(&self, ctx: &mut NodeCtx<'_>, imsi: Imsi, enb: Addr, teid_dl: Teid) -> Packet {
        let modify = Gtpc::ModifyBearerRequest {
            imsi,
            new_enb_addr: enb,
            teid_dl_enb: teid_dl,
        };
        control(ctx, self.sgw_addr, wire::GTPC, modify)
    }

    fn handle_gtpc(&mut self, ctx: &mut NodeCtx<'_>, msg: Gtpc) {
        let (imsi, input) = match msg {
            Gtpc::CreateSessionResponse {
                imsi,
                ue_addr,
                teid_ul_sgw,
                ..
            } => (imsi, session::Input::Created(ue_addr, teid_ul_sgw, ctx.now)),
            Gtpc::DownlinkDataNotification { imsi } => (imsi, session::Input::DataWaiting),
            Gtpc::ModifyBearerResponse { imsi } => (imsi, session::Input::Modified(ctx.now)),
            // Requests the MME sends and never receives.
            Gtpc::CreateSessionRequest { .. }
            | Gtpc::ModifyBearerRequest { .. }
            | Gtpc::DeleteSessionRequest { .. }
            | Gtpc::ReleaseAccessBearers { .. } => return,
        };
        self.sessions(ctx, &[imsi], input);
    }

    fn handle_s1ap(&mut self, ctx: &mut NodeCtx<'_>, msg: S1ap) {
        let (imsi, input) = match msg {
            // eNB-reported inactivity: the UE goes ECM-IDLE and keeps its IP.
            S1ap::UeContextReleaseRequest { imsi } => (imsi, session::Input::Inactive),
            S1ap::PathSwitchRequest {
                imsi,
                ue_addr,
                new_enb: to,
            } => {
                let at = ctx.now;
                (imsi, session::Input::PathSwitch { ue_addr, to, at })
            }
            // What the MME sends to eNBs and never receives.
            S1ap::InitialContextSetup { .. }
            | S1ap::PathSwitchAck { .. }
            | S1ap::UeContextRelease { .. }
            | S1ap::Paging { .. } => return,
        };
        self.sessions(ctx, &[imsi], input);
    }

    /// The S-GW died (or restarted, losing its bearers): drop every session
    /// it backed, releasing eNB contexts and detaching UEs so they
    /// re-attach cleanly.
    fn on_sgw_failure(&mut self, ctx: &mut NodeCtx<'_>) {
        self.stats.peer_failures += 1;
        self.step_all(ctx, session::Input::SgwLost);
    }

    /// Re-send post-failure detach orders whose UE has not come back. A UE
    /// with *any* context again (an attach in flight or completed) is done;
    /// re-sending then would cancel its own recovery. Driven by the path
    /// tick, so this retries at the path-management cadence and stops
    /// naturally once every UE re-attached.
    fn retry_pending_detach(&mut self, ctx: &mut NodeCtx<'_>) {
        let mut batch = Vec::new();
        self.pending_detach.retain(|&imsi, (enb, left)| {
            let done = self.contexts.contains_key(&imsi) || *left == 0;
            if !done {
                *left -= 1;
                self.stats.detach_retries += 1;
                batch.extend(Self::detach_order(ctx, *enb, imsi));
            }
            !done
        });
        if !batch.is_empty() {
            self.proc.process(ctx, batch);
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
            // The MME never restarts in our scenarios: its counter stays 0.
            if self.path.on_echo(ctx, echo, packet.src, 0) {
                self.on_sgw_failure(ctx);
            }
        } else if !ctx.peer_info(ctx.node).owns(packet.dst) {
            ctx.forward(packet);
        }
    }

    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.path.start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if let Some((interval, lost)) = self.path.on_timer(ctx, tag, 0) {
            self.retry_pending_detach(ctx);
            // A path switch stuck past one interval lost its request.
            self.step_all(ctx, session::Input::Tick(ctx.now, interval));
            if lost {
                self.on_sgw_failure(ctx);
            }
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

/// A control packet of `size` bytes carrying `msg` to `dst`.
fn control(ctx: &mut NodeCtx<'_>, dst: Addr, size: u32, msg: impl Any + Send + Sync) -> Packet {
    ctx.make_packet(dst, size)
        .with_payload(Payload::control(msg))
}
