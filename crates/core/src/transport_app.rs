//! The transport-over-attach integration: a UE upper layer that keeps an
//! application flow alive across dLTE's address churn.
//!
//! This is the working half of §4.2's mobility argument. The UE's attach
//! machine ([`dlte_epc::UeNode`]) reports every (re)attach; this layer
//! drives a [`ClientConn`] through it:
//!
//! * first attach → 1-RTT handshake, token cached;
//! * re-attach after a cell change → connection migration on the same CID
//!   (modern config) or a fresh handshake with 0-RTT resumption (token) or
//!   a cold 1-RTT reconnect (legacy config);
//! * resume latency (address change → first new acknowledged byte) is the
//!   experiment E8/E12 metric.

use dlte_epc::ue::{UeUpperLayer, UPPER_TAG_BASE};
use dlte_net::{Addr, NodeCtx, Packet, Payload};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};
use dlte_transport::connection::{ClientConn, ConnEvent, TransportConfig};
use dlte_transport::frames::{Frame, ResumeToken};

const TAG_TICK: u64 = UPPER_TAG_BASE + 1;

/// A continuous upload riding the UE's attach state.
pub struct TransportUeApp {
    pub conn: ClientConn,
    pub server_addr: Addr,
    token: Option<ResumeToken>,
    addr: Option<Addr>,
    tick: SimDuration,
    /// Keep roughly this many bytes queued (continuous source).
    top_up_bytes: u64,
    queued_total: u64,
    /// Resume measurement state.
    waiting_since: Option<SimTime>,
    acked_at_change: u64,
    /// Time from address change to the first newly acknowledged byte, ms.
    pub resume_ms: Samples,
    pub connects: u64,
    ticking: bool,
}

impl TransportUeApp {
    pub fn new(cfg: TransportConfig, server_addr: Addr) -> Self {
        TransportUeApp {
            conn: ClientConn::new(1, cfg),
            server_addr,
            token: None,
            addr: None,
            tick: SimDuration::from_millis(10),
            top_up_bytes: 64 * 1200,
            queued_total: 0,
            waiting_since: None,
            acked_at_change: 0,
            resume_ms: Samples::new(),
            connects: 0,
            ticking: false,
        }
    }

    fn top_up(&mut self) {
        // Keep the pipe full: queue more once the backlog drops under half
        // the target.
        let outstanding = self.queued_total - self.conn.acked_bytes();
        if outstanding < self.top_up_bytes / 2 {
            let add = self.top_up_bytes - outstanding;
            self.conn.queue(1, add, false);
            self.queued_total += add;
        }
    }

    fn flush(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(src) = self.addr else { return };
        for frame in self.conn.take_output() {
            let bytes = frame.wire_bytes();
            let id = ctx.new_packet_id();
            let p = dlte_net::Packet::new(id, src, self.server_addr, bytes, ctx.now)
                .with_payload(Payload::control(frame));
            ctx.forward(p);
        }
        for ev in self.conn.take_events() {
            if let ConnEvent::TokenIssued(t) = ev {
                self.token = Some(t);
            }
        }
        // Resume detection.
        if let Some(t0) = self.waiting_since {
            if self.conn.acked_bytes() > self.acked_at_change {
                self.resume_ms
                    .push_duration_ms(ctx.now.saturating_since(t0));
                self.waiting_since = None;
            }
        }
    }
}

impl UeUpperLayer for TransportUeApp {
    fn on_attached(&mut self, ctx: &mut NodeCtx<'_>, ue_addr: Addr, reattach: bool) {
        self.addr = Some(ue_addr);
        if !reattach {
            self.top_up();
            self.conn.connect(ctx.now, self.token);
            self.connects += 1;
        } else {
            self.waiting_since = Some(ctx.now);
            self.acked_at_change = self.conn.acked_bytes();
            self.conn.on_address_change(ctx.now);
            if !self.conn.is_established() {
                // Migration unavailable (or connection was still young):
                // reconnect, riding 0-RTT if we hold a token.
                self.top_up();
                self.conn.connect(ctx.now, self.token);
                self.connects += 1;
            }
        }
        self.flush(ctx);
        if !self.ticking {
            self.ticking = true;
            let tick = self.tick;
            ctx.set_timer(tick, TAG_TICK);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag != TAG_TICK {
            return;
        }
        self.conn.on_tick(ctx.now);
        if self.conn.is_established() {
            self.top_up();
        }
        self.flush(ctx);
        let tick = self.tick;
        ctx.set_timer(tick, TAG_TICK);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: &Packet) -> bool {
        let Some(frame) = packet.payload.as_control::<Frame>() else {
            return false;
        };
        self.conn.on_frame(ctx.now, frame);
        self.flush(ctx);
        true
    }
}
