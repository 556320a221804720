//! Network adapters: run the connection machines over `dlte-net`.
//!
//! [`TransportClientNode`] and [`TransportServerNode`] are standalone
//! host handlers used by the transport-level tests and the E12 ablation
//! bench. The dLTE UE integration (transport riding on an LTE attach state
//! machine) lives in the `dlte` core crate, which drives the same
//! [`ClientConn`] through its UE upper-layer hook.

use crate::connection::{ClientConn, ConnEvent, ServerConn, TransportConfig};
use crate::frames::{Frame, ResumeToken};
use dlte_net::fxhash::FxHashMap;
use dlte_net::{Addr, NodeCtx, NodeHandler, Packet, Payload};
use dlte_sim::{SimDuration, SimTime};

const TAG_TICK: u64 = 42_000;

/// Client host: connects to a server, uploads `transfer_bytes`, records
/// completion.
pub struct TransportClientNode {
    pub conn: ClientConn,
    pub server_addr: Addr,
    pub token_cache: Option<ResumeToken>,
    pub connected_at: Option<SimTime>,
    pub completed_at: Option<SimTime>,
    pub tick: SimDuration,
    transfer_bytes: u64,
}

impl TransportClientNode {
    pub fn new(cfg: TransportConfig, server_addr: Addr, transfer_bytes: u64) -> Self {
        let mut conn = ClientConn::new(1, cfg);
        conn.queue(1, transfer_bytes, true);
        TransportClientNode {
            conn,
            server_addr,
            token_cache: None,
            connected_at: None,
            completed_at: None,
            tick: SimDuration::from_millis(10),
            transfer_bytes,
        }
    }

    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        for frame in self.conn.take_output() {
            let bytes = frame.wire_bytes();
            let p = ctx
                .make_packet(self.server_addr, bytes)
                .with_payload(Payload::control(frame));
            ctx.forward(p);
        }
        for ev in self.conn.take_events() {
            match ev {
                ConnEvent::TokenIssued(t) => self.token_cache = Some(t),
                ConnEvent::Connected { .. } => {
                    self.connected_at.get_or_insert(ctx.now);
                }
                ConnEvent::AllAcked { bytes } if bytes >= self.transfer_bytes => {
                    self.completed_at.get_or_insert(ctx.now);
                }
                _ => {}
            }
        }
    }
}

impl NodeHandler for TransportClientNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let token = self.token_cache;
        self.conn.connect(ctx.now, token);
        self.flush(ctx);
        let tick = self.tick;
        ctx.set_timer(tick, TAG_TICK);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == TAG_TICK {
            self.conn.on_tick(ctx.now);
            self.flush(ctx);
            let tick = self.tick;
            ctx.set_timer(tick, TAG_TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(frame) = packet.payload.as_control::<Frame>() {
            self.conn.on_frame(ctx.now, frame);
            self.flush(ctx);
        }
    }
}

/// Server host: accepts connections, acks, tracks per-path peers.
pub struct TransportServerNode {
    pub server: ServerConn,
    /// Latest validated-ish source address per connection (migration).
    peer_of: FxHashMap<u64, Addr>,
    pub path_changes: u64,
}

impl TransportServerNode {
    pub fn new(server_id: u64, cfg: TransportConfig) -> Self {
        TransportServerNode {
            server: ServerConn::new(server_id, cfg),
            peer_of: FxHashMap::default(),
            path_changes: 0,
        }
    }
}

impl NodeHandler for TransportServerNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let Some(frame) = packet.payload.as_control::<Frame>() else {
            return;
        };
        let cid = frame.cid();
        // Track the peer path; a change means the client migrated. QUIC
        // would validate before fully trusting the path — we adopt it
        // immediately and send a challenge for the books (the validation
        // RTT is borne by the client's first response).
        match self.peer_of.get(&cid) {
            Some(&old) if old != packet.src => {
                self.path_changes += 1;
                self.peer_of.insert(cid, packet.src);
                let challenge = Frame::PathChallenge {
                    cid,
                    nonce: self.path_changes,
                };
                let bytes = challenge.wire_bytes();
                let p = ctx
                    .make_packet(packet.src, bytes)
                    .with_payload(Payload::control(challenge));
                ctx.forward(p);
            }
            None => {
                self.peer_of.insert(cid, packet.src);
            }
            _ => {}
        }
        self.server.on_frame(ctx.now, frame);
        let peer = self.peer_of[&cid];
        for out in self.server.take_output() {
            let bytes = out.wire_bytes();
            let p = ctx
                .make_packet(peer, bytes)
                .with_payload(Payload::control(out));
            ctx.forward(p);
        }
        // Server-side events are inspected after the run via `self.server`.
        let _ = self.server.take_events();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_net::{LinkConfig, NetworkBuilder, Prefix};
    use dlte_sim::SimTime;

    fn transfer_over_seed(
        cfg: TransportConfig,
        loss: f64,
        bytes: u64,
        seed: u64,
    ) -> (Option<SimTime>, u64, u64) {
        let mut b = NetworkBuilder::new(seed);
        let server_addr = Addr::new(10, 0, 0, 2);
        let client_addr = Addr::new(10, 0, 0, 1);
        let client = b.host(
            "client",
            Box::new(TransportClientNode::new(cfg, server_addr, bytes)),
        );
        b.addr(client, client_addr);
        let server = b.host("server", Box::new(TransportServerNode::new(7, cfg)));
        b.addr(server, server_addr);
        let mut link = LinkConfig {
            delay: SimDuration::from_millis(20),
            rate_bps: 50e6,
            queue_pkts: 500,
            loss,
        };
        link.loss = loss;
        let l = b.link(client, server, link);
        b.route(client, Prefix::new(server_addr, 32), l);
        b.route(server, Prefix::new(client_addr, 32), l);
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(60), 5_000_000);
        let w = sim.world();
        let c = w.handler_as::<TransportClientNode>(client).unwrap();
        let s = w.handler_as::<TransportServerNode>(server).unwrap();
        (
            c.completed_at,
            c.conn.retransmissions,
            s.server.fec_recoveries,
        )
    }

    fn transfer_over(cfg: TransportConfig, loss: f64, bytes: u64) -> (Option<SimTime>, u64, u64) {
        transfer_over_seed(cfg, loss, bytes, 21)
    }

    #[test]
    fn clean_link_transfer_completes_quickly() {
        let (done, retx, _) = transfer_over(TransportConfig::default(), 0.0, 120_000);
        let done = done.expect("completed");
        // 100 chunks, window 32, RTT 40 ms ⇒ 1 handshake + ~4 windows ≈ 0.2 s.
        assert!(done < SimTime::from_millis(400), "done at {done}");
        assert_eq!(retx, 0);
    }

    #[test]
    fn lossy_link_still_completes_via_retransmission() {
        let (done, retx, _) = transfer_over(TransportConfig::default(), 0.05, 120_000);
        assert!(done.is_some(), "5% loss must not kill the transfer");
        assert!(retx > 0, "loss must have caused retransmissions");
    }

    #[test]
    fn fec_reduces_retransmissions_on_lossy_link() {
        // Aggregate over seeds: individual runs see only a handful of loss
        // events, so a single seed is too noisy for a strict inequality.
        let mut retx_nofec = 0;
        let mut retx_fec = 0;
        let mut rec_fec = 0;
        for seed in [1u64, 21, 33, 44, 55] {
            let (_, r0, f0) = transfer_over_seed(TransportConfig::default(), 0.03, 240_000, seed);
            let (_, r1, f1) = transfer_over_seed(TransportConfig::modern(), 0.03, 240_000, seed);
            assert_eq!(f0, 0, "no recoveries without FEC");
            retx_nofec += r0;
            retx_fec += r1;
            rec_fec += f1;
        }
        assert!(rec_fec > 0, "FEC recovered losses");
        assert!(
            retx_fec * 2 < retx_nofec,
            "FEC {retx_fec} should roughly halve no-FEC {retx_nofec}"
        );
    }
}
