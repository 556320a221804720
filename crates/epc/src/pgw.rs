//! The Packet Data Network Gateway.
//!
//! Terminates GTP tunnels, owns the UE address pool, and is the single
//! point where centralized-LTE user traffic meets the Internet — the
//! "chokepoint to the Internet" of §3.1. Uplink: decapsulate and forward
//! native IP. Downlink: match the destination against allocated UE
//! addresses and tunnel toward the S-GW.

use crate::messages::{wire, Teid, S5};
use crate::path;
use crate::proc::Processor;
use dlte_auth::Imsi;
use dlte_net::fxhash::FxHashMap;
use dlte_net::gtp;
use dlte_net::gtp::GtpEcho;
use dlte_net::{Addr, AddrPool, NodeCtx, NodeHandler, Packet, Payload};
use dlte_sim::SimDuration;

#[derive(Clone, Debug)]
struct PdnSession {
    imsi: Imsi,
    sgw_addr: Addr,
    teid_dl_sgw: Teid,
    teid_ul_pgw: Teid,
}

/// P-GW statistics.
#[derive(Clone, Debug, Default)]
pub struct PgwStats {
    pub ul_packets: u64,
    pub dl_packets: u64,
    pub sessions: u64,
    pub pool_exhausted: u64,
    pub unknown_dst_drops: u64,
    /// Create requests for an IMSI that already had a session: the S-GW
    /// re-established it (after its own restart) and the UE keeps its
    /// address.
    pub sessions_reestablished: u64,
    /// Tunneled packets for a TEID with no context.
    pub unknown_teid_drops: u64,
    /// GTP-U error indications sent for unknown-TEID traffic.
    pub error_indications_sent: u64,
}

/// The P-GW node handler.
pub struct PgwNode {
    pub pool: AddrPool,
    pub proc: Processor,
    by_ue_addr: FxHashMap<Addr, PdnSession>,
    by_ul_teid: FxHashMap<Teid, Addr>,
    by_imsi: FxHashMap<Imsi, Addr>,
    next_teid: Teid,
    /// GTP restart counter: bumped on every restart so path-managing peers
    /// learn that all sessions here were lost.
    pub restart_counter: u32,
    pub stats: PgwStats,
}

impl PgwNode {
    pub fn new(pool: AddrPool, per_msg: SimDuration) -> Self {
        PgwNode {
            pool,
            proc: Processor::new(per_msg, 0),
            by_ue_addr: FxHashMap::default(),
            by_ul_teid: FxHashMap::default(),
            by_imsi: FxHashMap::default(),
            next_teid: 0x2000_0000,
            restart_counter: 0,
            stats: PgwStats::default(),
        }
    }

    pub fn active_sessions(&self) -> usize {
        self.by_ue_addr.len()
    }

    /// Snapshot the session table for post-run invariant checking.
    pub fn audit(&self) -> crate::audit::PgwAudit {
        let mut sessions: Vec<_> = self
            .by_ue_addr
            .iter()
            .map(|(&addr, s)| crate::audit::PgwSessionAudit {
                imsi: s.imsi,
                ue_addr: addr,
                teid_dl_sgw: s.teid_dl_sgw,
                teid_ul_pgw: s.teid_ul_pgw,
                indexed: self.by_ul_teid.get(&s.teid_ul_pgw) == Some(&addr)
                    && self.by_imsi.get(&s.imsi) == Some(&addr),
            })
            .collect();
        sessions.sort_by_key(|s| s.imsi);
        crate::audit::PgwAudit {
            sessions,
            ul_index_len: self.by_ul_teid.len(),
            imsi_index_len: self.by_imsi.len(),
        }
    }

    /// The IMSI holding `addr`, if any (diagnostics).
    pub fn imsi_of(&self, addr: Addr) -> Option<Imsi> {
        self.by_ue_addr.get(&addr).map(|s| s.imsi)
    }

    fn handle_s5(&mut self, ctx: &mut NodeCtx<'_>, msg: S5, from: Addr) {
        match msg {
            S5::CreateRequest {
                imsi,
                sgw_addr,
                teid_dl_sgw,
            } => {
                // Idempotent on IMSI: a create for a subscriber we already
                // serve is the S-GW re-establishing a bearer it lost (its
                // restart), so keep the UE's address and just re-point the
                // tunnel endpoints.
                let ue_addr = match self.by_imsi.get(&imsi) {
                    Some(&addr) => {
                        if let Some(old) = self.by_ue_addr.get(&addr) {
                            self.by_ul_teid.remove(&old.teid_ul_pgw);
                        }
                        self.stats.sessions_reestablished += 1;
                        addr
                    }
                    None => {
                        let Some(addr) = self.pool.alloc() else {
                            self.stats.pool_exhausted += 1;
                            return;
                        };
                        self.stats.sessions += 1;
                        addr
                    }
                };
                let teid_ul_pgw = self.next_teid;
                self.next_teid += 1;
                self.by_ue_addr.insert(
                    ue_addr,
                    PdnSession {
                        imsi,
                        sgw_addr,
                        teid_dl_sgw,
                        teid_ul_pgw,
                    },
                );
                self.by_ul_teid.insert(teid_ul_pgw, ue_addr);
                self.by_imsi.insert(imsi, ue_addr);
                let my_addr = ctx.my_addr();
                let resp = ctx
                    .make_packet(from, wire::GTPC)
                    .with_payload(Payload::control(S5::CreateResponse {
                        imsi,
                        ue_addr,
                        pgw_addr: my_addr,
                        teid_ul_pgw,
                    }));
                self.proc.process_one(ctx, resp);
            }
            S5::DeleteRequest { imsi, .. } => {
                if let Some(ue_addr) = self.by_imsi.remove(&imsi) {
                    if let Some(s) = self.by_ue_addr.remove(&ue_addr) {
                        self.by_ul_teid.remove(&s.teid_ul_pgw);
                    }
                    self.pool.release(ue_addr);
                }
            }
            // The answer the P-GW sends and never receives.
            S5::CreateResponse { .. } => {}
        }
    }

    fn handle_user_plane(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let Some(header) = packet.tunnels.last() else {
            return;
        };
        let teid = header.teid;
        if self.by_ul_teid.contains_key(&teid) {
            // Uplink: strip the tunnel; UE-to-UE traffic hairpins straight
            // back down its bearer, everything else goes to the Internet.
            if let Ok(inner) = gtp::decapsulate(packet, Some(teid)) {
                self.stats.ul_packets += 1;
                if self.pool.prefix().contains(inner.dst) {
                    self.handle_downlink(ctx, inner);
                } else {
                    ctx.forward(inner);
                }
            }
        } else {
            // No context (e.g. we restarted): tell the S-GW so it tears the
            // stale bearer down instead of blackholing forever.
            self.stats.unknown_teid_drops += 1;
            let sent = &mut self.stats.error_indications_sent;
            path::error_indication(ctx, sent, packet.src, teid);
        }
    }

    fn handle_downlink(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        match self.by_ue_addr.get(&packet.dst) {
            Some(s) => {
                self.stats.dl_packets += 1;
                let (sgw, teid) = (s.sgw_addr, s.teid_dl_sgw);
                let my_addr = ctx.my_addr();
                let out = gtp::encapsulate(packet, teid, my_addr, sgw);
                ctx.forward(out);
            }
            None => {
                self.stats.unknown_dst_drops += 1;
            }
        }
    }
}

impl NodeHandler for PgwNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(msg) = packet.payload.as_control::<S5>().cloned() {
            self.handle_s5(ctx, msg, packet.src);
        } else if let Some(echo) = packet.payload.as_control::<GtpEcho>().copied() {
            path::answer_echo(ctx, echo, packet.src, self.restart_counter);
        } else if ctx.peer_info(ctx.node).owns(packet.dst) {
            self.handle_user_plane(ctx, packet);
        } else if self.pool.prefix().contains(packet.dst) {
            self.handle_downlink(ctx, packet);
        } else {
            ctx.forward(packet);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        self.proc.on_timer(ctx, tag);
    }

    fn on_crash(&mut self) {
        // State loss: sessions and TEID bindings vanish. The address pool's
        // allocation cursor survives (fresh attaches get fresh addresses —
        // leaked ones are simply never reused), and the restart counter is
        // what advertises the loss to path-managing peers.
        self.by_ue_addr.clear();
        self.by_ul_teid.clear();
        self.by_imsi.clear();
        self.proc.reset();
    }

    fn on_restart(&mut self, ctx: &mut NodeCtx<'_>) {
        self.restart_counter += 1;
        self.on_start(ctx);
    }
}
