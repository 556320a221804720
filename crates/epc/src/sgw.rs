//! The Serving Gateway.
//!
//! User-plane anchor between eNBs and the P-GW: re-tunnels every user
//! packet in both directions and moves the eNB-side tunnel on handover.
//! Control (S11 from the MME, S5 from the P-GW) is the S-GW half of the
//! session lifecycle (`session.rs`); this node allocates TEIDs, indexes
//! bearers by them, builds the packets each step asks for and sends them
//! through the finite-capacity processor. The per-packet user plane reads
//! the bearer table directly and never calls the step. Echo path
//! management toward the P-GW (`path.rs`) tears bearers down when the
//! P-GW is lost.

use crate::messages::{wire, Gtpc, Teid, S5};
use crate::path::{self, PathMgmt};
use crate::proc::Processor;
use crate::session::sgw::{self as session, Bearer, Input, Output};
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::gtp;
use dlte_net::gtp::{GtpEcho, GtpErrorIndication};
use dlte_net::{Addr, NodeCtx, NodeHandler, Packet, Payload};
use dlte_sim::SimDuration;
use std::any::Any;

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
    /// Each bearer, and the downlink it buffers while the UE is ECM-IDLE
    /// (bounded).
    bearers: FxHashMap<Imsi, (Bearer, Vec<Packet>)>,
    by_ul_teid: FxHashMap<Teid, Imsi>,
    by_dl_teid: FxHashMap<Teid, Imsi>,
    next_teid: Teid,
    /// GTP restart counter: bumped on every restart so peers running path
    /// management can tell "rebooted and lost state" from "slow".
    pub restart_counter: u32,
    /// Echo path management toward the P-GW (off unless enabled).
    pub path: PathMgmt,
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
            path: PathMgmt::default(),
            stats: SgwStats::default(),
        }
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
            .map(|(&imsi, (b, _))| crate::audit::SgwBearerAudit {
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
        path::error_indication(ctx, &mut self.stats.error_indications_sent, src, teid);
    }

    /// Queue one S11/S5 message to `dst` through the processor.
    fn send(&mut self, ctx: &mut NodeCtx<'_>, dst: Addr, msg: impl Any + Send + Sync) {
        let p = ctx.make_packet(dst, wire::GTPC);
        self.proc
            .process_one(ctx, p.with_payload(Payload::control(msg)));
    }

    fn handle_gtpc(&mut self, ctx: &mut NodeCtx<'_>, msg: Gtpc, mme: Addr) {
        let (imsi, input) = match msg {
            Gtpc::CreateSessionRequest {
                imsi,
                enb_addr,
                teid_dl_enb,
            } => {
                let bearer = Bearer {
                    enb_addr,
                    teid_dl_enb,
                    enb_connected: true,
                    ddn_sent: false,
                    teid_ul_sgw: self.alloc_teid(),
                    teid_dl_sgw: self.alloc_teid(),
                    pgw_addr: self.pgw_addr,
                    teid_ul_pgw: None,
                    ue_addr: None,
                    pending_mme: Some(mme),
                };
                (imsi, Input::Create(bearer))
            }
            Gtpc::ModifyBearerRequest {
                imsi,
                new_enb_addr: enb,
                teid_dl_enb: teid,
            } => (imsi, Input::Modify { enb, teid, mme }),
            Gtpc::ReleaseAccessBearers { imsi } => (imsi, Input::ReleaseAccess),
            Gtpc::DeleteSessionRequest { imsi } => (imsi, Input::Delete),
            // What the S-GW sends to the MME and never receives.
            Gtpc::CreateSessionResponse { .. }
            | Gtpc::ModifyBearerResponse { .. }
            | Gtpc::DownlinkDataNotification { .. } => return,
        };
        self.step(ctx, imsi, input);
    }

    fn handle_s5(&mut self, ctx: &mut NodeCtx<'_>, msg: S5) {
        match msg {
            S5::CreateResponse {
                imsi,
                ue_addr,
                pgw_addr: pgw,
                teid_ul_pgw: teid,
            } => self.step(ctx, imsi, Input::Created { ue_addr, pgw, teid }),
            // Requests the S-GW sends and never receives.
            S5::CreateRequest { .. } | S5::DeleteRequest { .. } => {}
        }
    }

    /// Step `imsi`'s bearer and carry out what it asks for.
    fn step(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, input: Input) {
        let (old, buffer) = self.bearers.remove(&imsi).unzip();
        let mut buffer = buffer.unwrap_or_default();
        let (next, outputs) = session::step(old, input);
        let teids = |b: Option<Bearer>| b.map(|b| (b.teid_ul_sgw, b.teid_dl_sgw));
        if teids(old) != teids(next) {
            // A bearer came, went or was replaced: re-index its TEIDs; what
            // a replaced bearer buffered goes with it.
            if let Some((ul, dl)) = teids(old) {
                self.by_ul_teid.remove(&ul);
                self.by_dl_teid.remove(&dl);
            }
            if let Some((ul, dl)) = teids(next) {
                self.by_ul_teid.insert(ul, imsi);
                self.by_dl_teid.insert(dl, imsi);
            }
            buffer = Vec::new();
        }
        for out in outputs {
            match out {
                Output::Create(teid_dl_sgw) => {
                    let sgw_addr = ctx.my_addr();
                    let req = S5::CreateRequest {
                        imsi,
                        sgw_addr,
                        teid_dl_sgw,
                    };
                    self.send(ctx, self.pgw_addr, req);
                }
                Output::Created(mme, ue_addr, teid_ul_sgw) => {
                    self.stats.sessions_created += 1;
                    if let Some(mme) = mme {
                        let sgw_addr = ctx.my_addr();
                        let resp = Gtpc::CreateSessionResponse {
                            imsi,
                            ue_addr,
                            sgw_addr,
                            teid_ul_sgw,
                        };
                        self.send(ctx, mme, resp);
                    }
                }
                Output::Modified { enb, teid, mme } => {
                    self.stats.bearers_modified += 1;
                    // Flush anything buffered while the UE was idle.
                    let my_addr = ctx.my_addr();
                    for p in std::mem::take(&mut buffer) {
                        self.stats.buffer_flushed += 1;
                        ctx.forward(gtp::encapsulate(p, teid, my_addr, enb));
                    }
                    self.send(ctx, mme, Gtpc::ModifyBearerResponse { imsi });
                }
                Output::Released => self.stats.bearers_released += 1,
                Output::Delete(ue_addr) => {
                    self.send(ctx, self.pgw_addr, S5::DeleteRequest { imsi, ue_addr })
                }
                Output::TornDown(error_to) => {
                    self.stats.sessions_cleaned += 1;
                    if let Some((enb, teid)) = error_to {
                        let sent = &mut self.stats.error_indications_sent;
                        path::error_indication(ctx, sent, enb, teid);
                    }
                }
            }
        }
        if let Some(b) = next {
            self.bearers.insert(imsi, (b, buffer));
        }
    }

    /// Tear down the bearers `stale` picks, in IMSI order, telling each
    /// connected eNB (by its own downlink TEID) so the radio side releases
    /// the UE and it re-attaches.
    fn teardown(&mut self, ctx: &mut NodeCtx<'_>, stale: impl Fn(&Bearer) -> bool) {
        let mut imsis: Vec<Imsi> = self
            .bearers
            .iter()
            .filter(|(_, (b, _))| stale(b))
            .map(|(&imsi, _)| imsi)
            .collect();
        imsis.sort_unstable();
        for imsi in imsis {
            self.step(ctx, imsi, Input::Teardown);
        }
    }

    /// The P-GW died or rebooted: every bearer it anchored is gone.
    fn on_pgw_failure(&mut self, ctx: &mut NodeCtx<'_>) {
        self.stats.peer_failures += 1;
        self.teardown(ctx, |_| true);
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
            let Some((b, _)) = self.bearers.get(&imsi) else {
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
            let Some((b, buffer)) = self.bearers.get_mut(&imsi) else {
                // Dangling index entry, as above.
                self.by_dl_teid.remove(&teid);
                self.unknown_teid(ctx, src, teid);
                return;
            };
            if !b.enb_connected {
                // ECM-IDLE: buffer and (once) notify the MME so it pages.
                if buffer.len() < self.buffer_cap {
                    buffer.push(inner);
                    self.stats.buffered += 1;
                } else {
                    self.stats.buffer_drops += 1;
                }
                if !b.ddn_sent && !self.mme_addr.is_unspecified() {
                    b.ddn_sent = true;
                    self.stats.ddn_sent += 1;
                    self.send(ctx, self.mme_addr, Gtpc::DownlinkDataNotification { imsi });
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
}

impl NodeHandler for SgwNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.path.start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(msg) = packet.payload.as_control::<Gtpc>().cloned() {
            self.handle_gtpc(ctx, msg, packet.src);
        } else if let Some(msg) = packet.payload.as_control::<S5>().cloned() {
            self.handle_s5(ctx, msg);
        } else if let Some(echo) = packet.payload.as_control::<GtpEcho>().copied() {
            let rc = self.restart_counter;
            if self.path.on_echo(ctx, echo, packet.src, rc) {
                self.on_pgw_failure(ctx);
            }
        } else if let Some(err) = packet.payload.as_control::<GtpErrorIndication>().copied() {
            // The P-GW has no context for a TEID we still send to: that
            // bearer is stale.
            self.teardown(ctx, |b| b.teid_ul_pgw == Some(err.teid));
        } else if ctx.peer_info(ctx.node).owns(packet.dst) {
            self.handle_user_plane(ctx, packet);
        } else {
            ctx.forward(packet);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match self.path.on_timer(ctx, tag, self.restart_counter) {
            Some((_, true)) => self.on_pgw_failure(ctx),
            Some((_, false)) => {}
            None => _ = self.proc.on_timer(ctx, tag),
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
        self.path.reset();
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.restart_counter += 1;
        self.on_start(ctx);
    }
}
