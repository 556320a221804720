//! The eNodeB (radio-side relay and GTP endpoint).
//!
//! In the centralized architecture the eNB is deliberately dumb: it relays
//! NAS between UE and MME (S1AP transport), encapsulates uplink user
//! traffic toward the S-GW, and decapsulates downlink tunnels onto the
//! right radio link. All intelligence lives in the core — which is exactly
//! the design dLTE inverts (see [`crate::local_core`]).

use crate::messages::{wire, Nas, S1Nas, S1ap, Teid};
use crate::obs::{self, HarqTracer};
use crate::topology::CellHandler;
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::gtp;
use dlte_net::gtp::GtpErrorIndication;
use dlte_net::{Addr, LinkId, NodeCtx, NodeHandler, Packet, Payload, Prefix};
use dlte_obs::{Event, NasProc};
use dlte_sim::{SimDuration, SimRng, SimTime};

/// Tag of the periodic inactivity sweep timer.
const TAG_IDLE_SWEEP: u64 = 9_100_000;

#[derive(Clone, Copy, Debug)]
struct UeRadioCtx {
    ue_addr: Addr,
    sgw_addr: Addr,
    teid_ul: Teid,
    teid_dl: Teid,
    last_activity: SimTime,
    release_requested: bool,
}

/// eNB statistics.
#[derive(Clone, Debug, Default)]
pub struct EnbStats {
    pub nas_relayed_up: u64,
    pub nas_relayed_down: u64,
    pub ul_user_packets: u64,
    pub dl_user_packets: u64,
    pub contexts_installed: u64,
    pub contexts_released: u64,
    pub idle_releases_requested: u64,
    pub pages_relayed: u64,
    pub no_context_drops: u64,
    /// Contexts torn down because the core signalled (via a GTP-U error
    /// indication) that it lost the bearer.
    pub error_indication_releases: u64,
}

/// The eNodeB node handler.
pub struct EnbNode {
    pub mme_addr: Addr,
    /// When set, UEs with no user-plane traffic for this long are moved to
    /// ECM-IDLE via an S1 release request (None = always-connected).
    pub idle_timeout: Option<SimDuration>,
    /// Radio wiring: which link reaches which (potential) UE, and the
    /// control address the UE listens on for relayed NAS.
    radio: FxHashMap<Imsi, (LinkId, Addr)>,
    contexts: FxHashMap<Imsi, UeRadioCtx>,
    by_dl_teid: FxHashMap<Teid, Imsi>,
    by_ue_addr: FxHashMap<Addr, Imsi>,
    /// Trace-only radio HARQ model over the user-plane paths (dedicated
    /// RNG stream; see [`crate::obs::HarqTracer`]).
    harq: HarqTracer,
    pub stats: EnbStats,
}

impl EnbNode {
    pub fn new(mme_addr: Addr) -> Self {
        EnbNode {
            mme_addr,
            idle_timeout: None,
            radio: FxHashMap::default(),
            contexts: FxHashMap::default(),
            by_dl_teid: FxHashMap::default(),
            by_ue_addr: FxHashMap::default(),
            harq: HarqTracer::new(SimRng::new(0x48415251)),
            stats: EnbStats::default(),
        }
    }

    fn relay_nas_downlink(&mut self, ctx: &mut NodeCtx<'_>, s1nas: S1Nas, size: u32) {
        let Some(&(link, ue_ctrl)) = self.radio.get(&s1nas.imsi) else {
            return; // UE not wired here
        };
        self.stats.nas_relayed_down += 1;
        let p = ctx
            .make_packet(ue_ctrl, size)
            .with_payload(Payload::control(s1nas));
        ctx.forward_via(link, p);
    }

    fn handle_s1ap(&mut self, ctx: &mut NodeCtx<'_>, msg: S1ap) {
        match msg {
            S1ap::InitialContextSetup {
                imsi,
                ue_addr,
                sgw_addr,
                teid_ul,
                teid_dl,
            } => {
                let Some(&(link, _)) = self.radio.get(&imsi) else {
                    return;
                };
                self.contexts.insert(
                    imsi,
                    UeRadioCtx {
                        ue_addr,
                        sgw_addr,
                        teid_ul,
                        teid_dl,
                        last_activity: ctx.now,
                        release_requested: false,
                    },
                );
                self.by_dl_teid.insert(teid_dl, imsi);
                self.by_ue_addr.insert(ue_addr, imsi);
                self.stats.contexts_installed += 1;
                // Bearer activation is instantaneous at the eNB (the real
                // InitialContextSetupResponse is not modelled), so its span
                // is zero-width — it still marks *when* the bearer went in.
                obs::nas_start(ctx, NasProc::Bearer, imsi);
                obs::nas_end(ctx, NasProc::Bearer, imsi, true);
                // Radio route so decapsulated (and any routed) downlink
                // traffic for the UE address leaves on the radio link.
                ctx.node_info_mut()
                    .set_route(Prefix::new(ue_addr, 32), link);
            }
            S1ap::UeContextRelease { imsi } => {
                if let Some(c) = self.contexts.remove(&imsi) {
                    self.by_dl_teid.remove(&c.teid_dl);
                    self.by_ue_addr.remove(&c.ue_addr);
                    ctx.node_info_mut().remove_route(Prefix::new(c.ue_addr, 32));
                    self.stats.contexts_released += 1;
                    // Tell the UE its RRC connection is gone (it keeps the
                    // IP and will service-request before transmitting).
                    let rel = S1Nas {
                        imsi,
                        nas: Nas::RrcRelease { imsi },
                    };
                    self.relay_nas_downlink(ctx, rel, wire::S1AP_RELEASE);
                }
            }
            S1ap::PathSwitchAck { .. } => {
                // Context was installed by the accompanying setup message.
            }
            S1ap::Paging { imsi } => {
                self.stats.pages_relayed += 1;
                let notify = S1Nas {
                    imsi,
                    nas: Nas::PagingNotify { imsi },
                };
                self.relay_nas_downlink(ctx, notify, wire::PAGING);
            }
            S1ap::PathSwitchRequest { .. } | S1ap::UeContextReleaseRequest { .. } => {}
        }
    }

    /// The S-GW has no bearer behind one of our tunnels (it crashed, or the
    /// P-GW behind it did). Tear the radio context down and order the UE to
    /// detach and re-attach — the eNB is the only element with a radio path
    /// to say so.
    fn on_error_indication(&mut self, ctx: &mut NodeCtx<'_>, teid: Teid) {
        // The indication may carry our downlink TEID (S-GW-initiated
        // teardown) or our uplink TEID toward the S-GW (bounced uplink).
        let imsi = match self.by_dl_teid.get(&teid) {
            Some(&imsi) => Some(imsi),
            None => self
                .contexts
                .iter()
                .filter(|(_, c)| c.teid_ul == teid)
                .map(|(&imsi, _)| imsi)
                .min(),
        };
        let Some(imsi) = imsi else { return };
        let Some(c) = self.contexts.remove(&imsi) else {
            return;
        };
        self.by_dl_teid.remove(&c.teid_dl);
        self.by_ue_addr.remove(&c.ue_addr);
        ctx.node_info_mut().remove_route(Prefix::new(c.ue_addr, 32));
        self.stats.error_indication_releases += 1;
        obs::emit(ctx, Event::GtpErrorIndication { teid: teid as u64 });
        let detach = S1Nas {
            imsi,
            nas: Nas::NetworkDetach { imsi },
        };
        self.relay_nas_downlink(ctx, detach, wire::NETWORK_DETACH);
    }

    /// NAS from the radio side → MME (S1AP relay).
    fn relay_nas_uplink(&mut self, ctx: &mut NodeCtx<'_>, mut s1nas: S1Nas, size: u32) {
        self.stats.nas_relayed_up += 1;
        let my_addr = ctx.my_addr();
        // Fill in the S1 transport context the MME needs.
        match &mut s1nas.nas {
            Nas::AttachRequest { via_enb, .. } => *via_enb = my_addr,
            Nas::ServiceRequest { imsi, ue_addr } => {
                // Arriving UE with an existing session: convert to an S1
                // path switch instead of relaying NAS.
                let ps = ctx
                    .make_packet(self.mme_addr, wire::S1AP_PATH_SWITCH)
                    .with_payload(Payload::control(S1ap::PathSwitchRequest {
                        imsi: *imsi,
                        ue_addr: *ue_addr,
                        new_enb: my_addr,
                    }));
                ctx.forward(ps);
                return;
            }
            _ => {}
        }
        let p = ctx
            .make_packet(self.mme_addr, size)
            .with_payload(Payload::control(s1nas));
        ctx.forward(p);
    }
}

impl CellHandler for EnbNode {
    fn wire_ue(&mut self, imsi: Imsi, link: LinkId, ue_ctrl: Addr) {
        self.radio.insert(imsi, (link, ue_ctrl));
    }
}

impl NodeHandler for EnbNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(t) = self.idle_timeout {
            ctx.set_timer(t / 2, TAG_IDLE_SWEEP);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag != TAG_IDLE_SWEEP {
            return;
        }
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = ctx.now;
        let mut to_release: Vec<Imsi> = Vec::new();
        for (&imsi, c) in &mut self.contexts {
            if !c.release_requested && now.saturating_since(c.last_activity) >= timeout {
                c.release_requested = true;
                to_release.push(imsi);
            }
        }
        for imsi in to_release {
            self.stats.idle_releases_requested += 1;
            let p = ctx
                .make_packet(self.mme_addr, wire::S1AP_RELEASE)
                .with_payload(Payload::control(S1ap::UeContextReleaseRequest { imsi }));
            ctx.forward(p);
        }
        ctx.set_timer(timeout / 2, TAG_IDLE_SWEEP);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        // Control traffic.
        if let Some(s1nas) = packet.payload.as_control::<S1Nas>().cloned() {
            if packet.src == self.mme_addr {
                self.relay_nas_downlink(ctx, s1nas, packet.size_bytes);
            } else {
                self.relay_nas_uplink(ctx, s1nas, packet.size_bytes);
            }
            return;
        }
        if let Some(msg) = packet.payload.as_control::<S1ap>().cloned() {
            self.handle_s1ap(ctx, msg);
            return;
        }
        if let Some(err) = packet.payload.as_control::<GtpErrorIndication>().copied() {
            self.on_error_indication(ctx, err.teid);
            return;
        }
        // Downlink user plane: tunneled packet addressed to this eNB.
        if ctx.peer_info(ctx.node).owns(packet.dst) {
            if let Some(teid) = packet.tunnels.last().map(|h| h.teid) {
                if let Some(&imsi) = self.by_dl_teid.get(&teid) {
                    if let Some(c) = self.contexts.get_mut(&imsi) {
                        c.last_activity = ctx.now;
                    }
                    if let Ok(inner) = gtp::decapsulate(packet, Some(teid)) {
                        self.stats.dl_user_packets += 1;
                        self.harq.observe_block(ctx, imsi);
                        // The radio route installed at context setup carries
                        // it the rest of the way.
                        ctx.forward(inner);
                    }
                    return;
                }
            }
            return; // addressed to us but not a known tunnel: consume
        }
        // Uplink user plane: native packet from an attached UE.
        if let Some(&imsi) = self.by_ue_addr.get(&packet.src) {
            let Some(c) = self.contexts.get_mut(&imsi) else {
                // Dangling index entry (context released without
                // unindexing): repair the index and treat the sender as
                // context-less instead of panicking on hostile input.
                self.by_ue_addr.remove(&packet.src);
                self.stats.no_context_drops += 1;
                return;
            };
            c.last_activity = ctx.now;
            let c = *c;
            self.stats.ul_user_packets += 1;
            self.harq.observe_block(ctx, imsi);
            let my_addr = ctx.my_addr();
            let out = gtp::encapsulate(packet, c.teid_ul, my_addr, c.sgw_addr);
            ctx.forward(out);
            return;
        }
        // A UE-pool source with no radio context has no bearer: drop (the
        // UE must service-request first — matching LTE, where an idle UE
        // cannot just transmit on PUSCH).
        if crate::topology::CentralizedLteBuilder::ue_pool_prefix().contains(packet.src) {
            self.stats.no_context_drops += 1;
            return;
        }
        // Anything else: plain routing (e.g. backhaul transit).
        ctx.forward(packet);
    }
}
