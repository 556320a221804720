//! The Serving Gateway.
//!
//! User-plane anchor between eNBs and the P-GW: re-tunnels every user
//! packet in both directions and moves the eNB-side tunnel on handover.
//! Control (S11 from MME, S5 from P-GW) goes through the finite-capacity
//! processor; user-plane forwarding is charged a fixed per-packet time via
//! the same mechanism kept deliberately small (hardware fast path).

use crate::messages::{wire, Gtpc, Teid, S5};
use crate::obs;
use crate::proc::Processor;
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::gtp;
use dlte_net::gtp::{
    GtpEcho, GtpErrorIndication, PathEvent, PathMonitor, GTP_ECHO_BYTES, GTP_ERROR_BYTES,
};
use dlte_net::{Addr, NodeCtx, NodeHandler, Packet, Payload};
use dlte_obs::Event;
use dlte_sim::SimDuration;

/// Timer tag for the GTP-U path-management tick (disjoint from the
/// processor's tag space, which grows upward from 0).
const TAG_PATH_TICK: u64 = 8_900_000;

#[derive(Clone, Debug)]
struct Bearer {
    enb_addr: Addr,
    teid_dl_enb: Teid,
    /// False while the UE is ECM-IDLE: the eNB tunnel is torn down,
    /// downlink is buffered, and a notification wakes the MME.
    enb_connected: bool,
    /// One notification per idle period.
    ddn_sent: bool,
    /// Buffered downlink packets awaiting paging (bounded).
    buffer: Vec<Packet>,
    /// Uplink TEID at this S-GW (eNB → us).
    teid_ul_sgw: Teid,
    /// Downlink TEID at this S-GW (P-GW → us).
    teid_dl_sgw: Teid,
    pgw_addr: Addr,
    teid_ul_pgw: Option<Teid>,
    ue_addr: Option<Addr>,
    /// MME to answer once the P-GW responds.
    pending_mme: Option<Addr>,
}

/// S-GW statistics.
#[derive(Clone, Debug, Default)]
pub struct SgwStats {
    pub ul_packets: u64,
    pub dl_packets: u64,
    pub sessions_created: u64,
    pub bearers_modified: u64,
    pub unknown_teid_drops: u64,
    pub bearers_released: u64,
    pub ddn_sent: u64,
    pub buffered: u64,
    pub buffer_flushed: u64,
    pub buffer_drops: u64,
    /// GTP-U error indications sent for unknown-TEID traffic.
    pub error_indications_sent: u64,
    /// P-GW path failures detected (echo timeout or restart counter).
    pub peer_failures: u64,
    /// Bearers torn down because the P-GW lost their state.
    pub sessions_cleaned: u64,
}

/// The S-GW node handler.
pub struct SgwNode {
    pub pgw_addr: Addr,
    /// The MME to notify of pending downlink data.
    pub mme_addr: Addr,
    /// Downlink buffer capacity per idle bearer, packets.
    pub buffer_cap: usize,
    pub proc: Processor,
    bearers: FxHashMap<Imsi, Bearer>,
    by_ul_teid: FxHashMap<Teid, Imsi>,
    by_dl_teid: FxHashMap<Teid, Imsi>,
    next_teid: Teid,
    /// GTP restart counter: bumped on every restart so peers running path
    /// management can tell "rebooted and lost state" from "slow".
    pub restart_counter: u32,
    path_mgmt: Option<PathMonitor>,
    pub stats: SgwStats,
}

impl SgwNode {
    pub fn new(pgw_addr: Addr, per_msg: SimDuration) -> Self {
        SgwNode {
            pgw_addr,
            mme_addr: Addr::UNSPECIFIED,
            buffer_cap: 16,
            proc: Processor::new(per_msg, 0),
            bearers: FxHashMap::default(),
            by_ul_teid: FxHashMap::default(),
            by_dl_teid: FxHashMap::default(),
            next_teid: 0x1000_0000,
            restart_counter: 0,
            path_mgmt: None,
            stats: SgwStats::default(),
        }
    }

    /// Run GTP-U echo path management toward the P-GW: an echo request
    /// every `interval`, declaring the peer dead after `max_misses`
    /// consecutive unanswered requests. Off by default.
    pub fn enable_path_mgmt(&mut self, interval: SimDuration, max_misses: u32) {
        self.path_mgmt = Some(PathMonitor::new(self.pgw_addr, interval, max_misses));
    }

    fn alloc_teid(&mut self) -> Teid {
        let t = self.next_teid;
        self.next_teid += 1;
        t
    }

    /// Snapshot the bearer table for post-run invariant checking.
    pub fn audit(&self) -> crate::audit::SgwAudit {
        let mut bearers: Vec<_> = self
            .bearers
            .iter()
            .map(|(&imsi, b)| crate::audit::SgwBearerAudit {
                imsi,
                teid_ul_sgw: b.teid_ul_sgw,
                teid_dl_sgw: b.teid_dl_sgw,
                teid_ul_pgw: b.teid_ul_pgw,
                ue_addr: b.ue_addr,
                enb_connected: b.enb_connected,
                indexed: self.by_ul_teid.get(&b.teid_ul_sgw) == Some(&imsi)
                    && self.by_dl_teid.get(&b.teid_dl_sgw) == Some(&imsi),
            })
            .collect();
        bearers.sort_by_key(|b| b.imsi);
        crate::audit::SgwAudit {
            bearers,
            ul_index_len: self.by_ul_teid.len(),
            dl_index_len: self.by_dl_teid.len(),
        }
    }

    /// No bearer for `teid`: count the drop and tell the sender via a GTP-U
    /// error indication so it tears its side down.
    fn unknown_teid(&mut self, ctx: &mut NodeCtx<'_>, src: Addr, teid: Teid) {
        self.stats.unknown_teid_drops += 1;
        self.stats.error_indications_sent += 1;
        dlte_obs::metrics::counter_add("gtp_error_indications", 1);
        obs::emit(ctx, Event::GtpErrorIndication { teid: teid as u64 });
        let err = ctx
            .make_packet(src, GTP_ERROR_BYTES)
            .with_payload(Payload::control(GtpErrorIndication { teid }));
        ctx.forward(err);
    }

    fn handle_gtpc(&mut self, ctx: &mut NodeCtx<'_>, msg: Gtpc, from: Addr) {
        match msg {
            Gtpc::CreateSessionRequest {
                imsi,
                enb_addr,
                teid_dl_enb,
            } => {
                // Re-create for a subscriber we already serve (the MME
                // re-attached it after tearing the old session down on its
                // side): unindex the stale bearer's TEIDs first.
                if let Some(old) = self.bearers.remove(&imsi) {
                    self.by_ul_teid.remove(&old.teid_ul_sgw);
                    self.by_dl_teid.remove(&old.teid_dl_sgw);
                }
                let teid_ul_sgw = self.alloc_teid();
                let teid_dl_sgw = self.alloc_teid();
                self.by_ul_teid.insert(teid_ul_sgw, imsi);
                self.by_dl_teid.insert(teid_dl_sgw, imsi);
                self.bearers.insert(
                    imsi,
                    Bearer {
                        enb_addr,
                        teid_dl_enb,
                        enb_connected: true,
                        ddn_sent: false,
                        buffer: Vec::new(),
                        teid_ul_sgw,
                        teid_dl_sgw,
                        pgw_addr: self.pgw_addr,
                        teid_ul_pgw: None,
                        ue_addr: None,
                        pending_mme: Some(from),
                    },
                );
                let my_addr = ctx.my_addr();
                let req =
                    ctx.make_packet(self.pgw_addr, wire::GTPC)
                        .with_payload(Payload::control(S5::CreateRequest {
                            imsi,
                            sgw_addr: my_addr,
                            teid_dl_sgw,
                        }));
                self.proc.process_one(ctx, req);
            }
            Gtpc::ModifyBearerRequest {
                imsi,
                new_enb_addr,
                teid_dl_enb,
            } => {
                if let Some(b) = self.bearers.get_mut(&imsi) {
                    b.enb_addr = new_enb_addr;
                    b.teid_dl_enb = teid_dl_enb;
                    b.enb_connected = true;
                    b.ddn_sent = false;
                    self.stats.bearers_modified += 1;
                    // Flush anything buffered while the UE was idle.
                    let waiting = std::mem::take(&mut b.buffer);
                    let (enb, teid) = (b.enb_addr, b.teid_dl_enb);
                    let my_addr = ctx.my_addr();
                    for p in waiting {
                        self.stats.buffer_flushed += 1;
                        let out = gtp::encapsulate(p, teid, my_addr, enb);
                        ctx.forward(out);
                    }
                    let resp = ctx
                        .make_packet(from, wire::GTPC)
                        .with_payload(Payload::control(Gtpc::ModifyBearerResponse { imsi }));
                    self.proc.process_one(ctx, resp);
                }
            }
            Gtpc::ReleaseAccessBearers { imsi } => {
                if let Some(b) = self.bearers.get_mut(&imsi) {
                    b.enb_connected = false;
                    b.ddn_sent = false;
                    self.stats.bearers_released += 1;
                }
            }
            Gtpc::DeleteSessionRequest { imsi } => {
                if let Some(b) = self.bearers.remove(&imsi) {
                    self.by_ul_teid.remove(&b.teid_ul_sgw);
                    self.by_dl_teid.remove(&b.teid_dl_sgw);
                    let del =
                        ctx.make_packet(self.pgw_addr, wire::GTPC)
                            .with_payload(Payload::control(S5::DeleteRequest {
                                imsi,
                                ue_addr: b.ue_addr.unwrap_or(Addr::UNSPECIFIED),
                            }));
                    self.proc.process_one(ctx, del);
                }
            }
            _ => {}
        }
    }

    fn handle_s5(&mut self, ctx: &mut NodeCtx<'_>, msg: S5) {
        if let S5::CreateResponse {
            imsi,
            ue_addr,
            pgw_addr,
            teid_ul_pgw,
        } = msg
        {
            let Some(b) = self.bearers.get_mut(&imsi) else {
                return;
            };
            b.teid_ul_pgw = Some(teid_ul_pgw);
            b.ue_addr = Some(ue_addr);
            b.pgw_addr = pgw_addr;
            self.stats.sessions_created += 1;
            let (teid_ul_sgw, mme) = (b.teid_ul_sgw, b.pending_mme.take());
            if let Some(mme) = mme {
                let my_addr = ctx.my_addr();
                let resp = ctx
                    .make_packet(mme, wire::GTPC)
                    .with_payload(Payload::control(Gtpc::CreateSessionResponse {
                        imsi,
                        ue_addr,
                        sgw_addr: my_addr,
                        teid_ul_sgw,
                    }));
                self.proc.process_one(ctx, resp);
            }
        }
    }

    /// Re-tunnel a user-plane packet (already addressed to this S-GW).
    fn handle_user_plane(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let Some(header) = packet.tunnels.last() else {
            // Not tunneled: nothing for a pure user-plane anchor to do.
            return;
        };
        let teid = header.teid;
        let src = packet.src;
        if let Some(&imsi) = self.by_ul_teid.get(&teid) {
            // Uplink: eNB → us → P-GW.
            let Some(b) = self.bearers.get(&imsi) else {
                // Dangling index entry (bearer torn down without
                // unindexing): repair the index and answer as for any
                // unknown TEID instead of panicking on hostile input.
                self.by_ul_teid.remove(&teid);
                self.unknown_teid(ctx, src, teid);
                return;
            };
            let (pgw, teid_ul_pgw) = (b.pgw_addr, b.teid_ul_pgw);
            let Some(teid_pgw) = teid_ul_pgw else { return };
            let inner = match gtp::decapsulate(packet, Some(teid)) {
                Ok(p) => p,
                Err(_) => return,
            };
            self.stats.ul_packets += 1;
            let my_addr = ctx.my_addr();
            let out = gtp::encapsulate(inner, teid_pgw, my_addr, pgw);
            ctx.forward(out);
        } else if let Some(&imsi) = self.by_dl_teid.get(&teid) {
            // Downlink: P-GW → us → eNB (or the idle-mode buffer).
            let inner = match gtp::decapsulate(packet, Some(teid)) {
                Ok(p) => p,
                Err(_) => return,
            };
            let Some(b) = self.bearers.get_mut(&imsi) else {
                // Dangling index entry, as above.
                self.by_dl_teid.remove(&teid);
                self.unknown_teid(ctx, src, teid);
                return;
            };
            if !b.enb_connected {
                // ECM-IDLE: buffer and (once) notify the MME so it pages.
                if b.buffer.len() < self.buffer_cap {
                    b.buffer.push(inner);
                    self.stats.buffered += 1;
                } else {
                    self.stats.buffer_drops += 1;
                }
                if !b.ddn_sent && !self.mme_addr.is_unspecified() {
                    b.ddn_sent = true;
                    self.stats.ddn_sent += 1;
                    let ddn = ctx
                        .make_packet(self.mme_addr, wire::GTPC)
                        .with_payload(Payload::control(Gtpc::DownlinkDataNotification { imsi }));
                    self.proc.process_one(ctx, ddn);
                }
                return;
            }
            let (enb, teid_enb) = (b.enb_addr, b.teid_dl_enb);
            self.stats.dl_packets += 1;
            let my_addr = ctx.my_addr();
            let out = gtp::encapsulate(inner, teid_enb, my_addr, enb);
            ctx.forward(out);
        } else {
            // No context for this TEID (e.g. we restarted and lost all
            // bearers): tell the sender so it can tear its side down.
            self.unknown_teid(ctx, src, teid);
        }
    }

    /// Tear one bearer down and propagate a GTP-U error indication to its
    /// eNB (addressed by the eNB's own downlink TEID) so the radio side
    /// releases the UE and it re-attaches.
    fn teardown_bearer(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi) {
        let Some(b) = self.bearers.remove(&imsi) else {
            return;
        };
        self.by_ul_teid.remove(&b.teid_ul_sgw);
        self.by_dl_teid.remove(&b.teid_dl_sgw);
        self.stats.sessions_cleaned += 1;
        if b.enb_connected {
            self.stats.error_indications_sent += 1;
            dlte_obs::metrics::counter_add("gtp_error_indications", 1);
            obs::emit(
                ctx,
                Event::GtpErrorIndication {
                    teid: b.teid_dl_enb as u64,
                },
            );
            let err = ctx
                .make_packet(b.enb_addr, GTP_ERROR_BYTES)
                .with_payload(Payload::control(GtpErrorIndication {
                    teid: b.teid_dl_enb,
                }));
            ctx.forward(err);
        }
    }

    /// The P-GW died or rebooted: every bearer it anchored is gone.
    fn on_pgw_failure(&mut self, ctx: &mut NodeCtx<'_>) {
        self.stats.peer_failures += 1;
        let mut imsis: Vec<Imsi> = self.bearers.keys().copied().collect();
        imsis.sort_unstable();
        for imsi in imsis {
            self.teardown_bearer(ctx, imsi);
        }
    }

    /// The P-GW told us it has no context for a TEID we are still sending
    /// to: that one bearer is stale.
    fn on_error_indication(&mut self, ctx: &mut NodeCtx<'_>, teid: Teid) {
        let mut imsis: Vec<Imsi> = self
            .bearers
            .iter()
            .filter(|(_, b)| b.teid_ul_pgw == Some(teid))
            .map(|(&imsi, _)| imsi)
            .collect();
        imsis.sort_unstable();
        for imsi in imsis {
            self.teardown_bearer(ctx, imsi);
        }
    }

    fn path_tick(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(monitor) = &mut self.path_mgmt else {
            return;
        };
        let (echo, event) = monitor.tick(self.restart_counter);
        let (peer, interval) = (monitor.peer, monitor.interval);
        obs::emit(
            ctx,
            Event::GtpEcho {
                peer: peer.to_string(),
                restart_counter: self.restart_counter,
            },
        );
        let req = ctx
            .make_packet(peer, GTP_ECHO_BYTES)
            .with_payload(Payload::control(echo));
        ctx.forward(req);
        ctx.set_timer(interval, TAG_PATH_TICK);
        if event == Some(PathEvent::PeerDead) {
            dlte_obs::metrics::counter_add("gtp_path_down", 1);
            obs::emit(
                ctx,
                Event::GtpPathDown {
                    peer: peer.to_string(),
                },
            );
            self.on_pgw_failure(ctx);
        }
    }

    fn handle_echo(&mut self, ctx: &mut NodeCtx<'_>, echo: GtpEcho, from: Addr) {
        if echo.is_request {
            let reply = ctx
                .make_packet(from, GTP_ECHO_BYTES)
                .with_payload(Payload::control(GtpEcho {
                    seq: echo.seq,
                    restart_counter: self.restart_counter,
                    is_request: false,
                }));
            ctx.forward(reply);
        } else if let Some(monitor) = &mut self.path_mgmt {
            if from == monitor.peer && monitor.on_response(echo) == PathEvent::PeerRestarted {
                dlte_obs::metrics::counter_add("gtp_peer_restart", 1);
                obs::emit(
                    ctx,
                    Event::GtpPeerRestart {
                        peer: from.to_string(),
                    },
                );
                self.on_pgw_failure(ctx);
            }
        }
    }
}

impl NodeHandler for SgwNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(monitor) = &self.path_mgmt {
            ctx.set_timer(monitor.interval, TAG_PATH_TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(msg) = packet.payload.as_control::<Gtpc>().cloned() {
            self.handle_gtpc(ctx, msg, packet.src);
        } else if let Some(msg) = packet.payload.as_control::<S5>().cloned() {
            self.handle_s5(ctx, msg);
        } else if let Some(echo) = packet.payload.as_control::<GtpEcho>().copied() {
            self.handle_echo(ctx, echo, packet.src);
        } else if let Some(err) = packet.payload.as_control::<GtpErrorIndication>().copied() {
            self.on_error_indication(ctx, err.teid);
        } else if ctx.peer_info(ctx.node).owns(packet.dst) {
            self.handle_user_plane(ctx, packet);
        } else {
            ctx.forward(packet);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == TAG_PATH_TICK {
            self.path_tick(ctx);
        } else {
            self.proc.on_timer(ctx, tag);
        }
    }

    fn on_crash(&mut self) {
        // State loss: every bearer, TEID binding, and queued control
        // message is gone. Stats survive (they model the observer, not the
        // box) and so does the restart counter, which is what lets peers
        // *detect* the loss.
        self.bearers.clear();
        self.by_ul_teid.clear();
        self.by_dl_teid.clear();
        self.proc.reset();
        if let Some(m) = &self.path_mgmt {
            self.path_mgmt = Some(PathMonitor::new(m.peer, m.interval, m.max_misses));
        }
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.restart_counter += 1;
        self.on_start(ctx);
    }
}
