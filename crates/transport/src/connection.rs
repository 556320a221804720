//! Client and server connection state machines.
//!
//! Pure machines: frames in, frames out, no I/O — the [`crate::handlers`]
//! adapters bind them to the packet substrate. Reliability is
//! retransmission with an RFC-6298 RTO over a fixed window; lost chunks are
//! re-sent under fresh packet numbers (QUIC-style, no retransmission
//! ambiguity). See the crate docs for the deliberate omissions.

use crate::fec::{recoverable, FecEncoder};
use crate::frames::{Chunk, Cid, Frame, PacketNum, ResumeToken};
use crate::received::ReceivedSet;
use crate::rtt::RttEstimator;
use crate::streams::Receiver;
use dlte_net::fxhash::FxHashMap;
use dlte_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Transport feature configuration — the E12 ablation axes.
#[derive(Clone, Copy, Debug)]
pub struct TransportConfig {
    /// Resume with 0-RTT using a cached token.
    pub zero_rtt: bool,
    /// Survive address changes on the same connection ID.
    pub migration: bool,
    /// FEC group size (0 = off).
    pub fec_k: u32,
    /// Single global delivery order (TCP semantics) instead of independent
    /// streams.
    pub legacy_ordering: bool,
    /// Max data packets in flight.
    pub window: u32,
    /// Payload bytes per data packet.
    pub chunk_bytes: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            zero_rtt: true,
            migration: true,
            fec_k: 0,
            legacy_ordering: false,
            window: 32,
            chunk_bytes: 1200,
        }
    }
}

impl TransportConfig {
    /// The modern profile (all §4.2 features on, FEC in groups of 8).
    pub fn modern() -> Self {
        TransportConfig {
            fec_k: 8,
            ..Default::default()
        }
    }

    /// The legacy TCP-like baseline: 4-tuple-bound, 1-RTT only, global
    /// ordering, no FEC.
    pub fn legacy() -> Self {
        TransportConfig {
            zero_rtt: false,
            migration: false,
            fec_k: 0,
            legacy_ordering: true,
            ..Default::default()
        }
    }
}

/// Events surfaced to the embedding application.
#[derive(Clone, Debug, PartialEq)]
pub enum ConnEvent {
    /// Handshake completed (client side). `zero_rtt` = data rode the first
    /// flight.
    Connected { zero_rtt: bool },
    /// Server issued a resumption token (cache it for next time).
    TokenIssued(ResumeToken),
    /// Receiver delivered in-order bytes to the application.
    Delivered { stream: u64, newly: u64 },
    /// All queued data has been acknowledged (client side).
    AllAcked { bytes: u64 },
    /// FEC repaired a lost packet without retransmission.
    FecRecovered { pn: PacketNum },
    /// Connection migrated to a new path.
    Migrated,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ClientState {
    Idle,
    Handshaking,
    Established,
}

struct InFlight {
    chunk: Chunk,
    global_offset: u64,
    sent_at: SimTime,
    retransmission: bool,
}

/// Client side.
pub struct ClientConn {
    pub cfg: TransportConfig,
    cid: Cid,
    state: ClientState,
    next_pn: PacketNum,
    to_send: VecDeque<(Chunk, u64)>,
    unacked: BTreeMap<PacketNum, InFlight>,
    stream_offsets: FxHashMap<u64, u64>,
    global_offset: u64,
    queued_bytes: u64,
    acked_bytes: u64,
    all_acked_reported: bool,
    rtt: RttEstimator,
    fec: FecEncoder,
    hello_sent_at: Option<SimTime>,
    out: Vec<Frame>,
    events: Vec<ConnEvent>,
    /// Stats.
    pub retransmissions: u64,
    pub handshakes: u64,
    pub zero_rtt_attempts: u64,
}

impl ClientConn {
    pub fn new(cid: Cid, cfg: TransportConfig) -> Self {
        ClientConn {
            cfg,
            cid,
            state: ClientState::Idle,
            next_pn: 0,
            to_send: VecDeque::new(),
            unacked: BTreeMap::new(),
            stream_offsets: FxHashMap::default(),
            global_offset: 0,
            queued_bytes: 0,
            acked_bytes: 0,
            all_acked_reported: false,
            rtt: RttEstimator::new(),
            fec: FecEncoder::new(cfg.fec_k),
            hello_sent_at: None,
            out: Vec::new(),
            events: Vec::new(),
            retransmissions: 0,
            handshakes: 0,
            zero_rtt_attempts: 0,
        }
    }

    pub fn cid(&self) -> Cid {
        self.cid
    }

    pub fn is_established(&self) -> bool {
        self.state == ClientState::Established
    }

    pub fn acked_bytes(&self) -> u64 {
        self.acked_bytes
    }

    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Queue `bytes` on `stream` (split into chunks; `fin` marks the end of
    /// the stream). Legacy ordering forces everything onto stream 0, like
    /// one TCP bytestream.
    pub fn queue(&mut self, stream: u64, bytes: u64, fin: bool) {
        let stream = if self.cfg.legacy_ordering { 0 } else { stream };
        let mut remaining = bytes;
        while remaining > 0 {
            let len = remaining.min(self.cfg.chunk_bytes as u64) as u32;
            remaining -= len as u64;
            let offset = self.stream_offsets.entry(stream).or_insert(0);
            let chunk = Chunk {
                stream,
                offset: *offset,
                len,
                fin: fin && remaining == 0,
            };
            *offset += len as u64;
            let g = self.global_offset;
            self.global_offset += len as u64;
            self.to_send.push_back((chunk, g));
            self.queued_bytes += len as u64;
        }
        self.all_acked_reported = false;
    }

    /// Start (or restart) the handshake. With a token and 0-RTT enabled,
    /// the first flight carries early data.
    pub fn connect(&mut self, now: SimTime, token: Option<ResumeToken>) {
        self.state = ClientState::Handshaking;
        self.handshakes += 1;
        self.hello_sent_at = Some(now);
        let early = if self.cfg.zero_rtt && token.is_some() {
            self.zero_rtt_attempts += 1;
            self.build_flight(now, true)
        } else {
            Vec::new()
        };
        self.out.push(Frame::ClientHello {
            cid: self.cid,
            token,
            early,
        });
    }

    /// The adapter calls this when the local address changed.
    ///
    /// With migration the connection survives: in-flight data is assumed
    /// lost on the old path and is queued for immediate retransmission.
    /// Without it the connection is dead: a fresh CID and handshake are
    /// required (the adapter follows up with [`ClientConn::connect`]).
    pub fn on_address_change(&mut self, now: SimTime) {
        self.requeue_unacked();
        match (self.cfg.migration, self.state) {
            (true, ClientState::Established) => {
                self.events.push(ConnEvent::Migrated);
                self.fill_window(now);
            }
            _ => {
                // New connection needed.
                self.cid += 1;
                self.state = ClientState::Idle;
            }
        }
    }

    fn requeue_unacked(&mut self) {
        // Preserve send order: unacked (oldest first) go to the front.
        let mut unacked: Vec<(PacketNum, InFlight)> =
            std::mem::take(&mut self.unacked).into_iter().collect();
        unacked.reverse();
        for (_, inf) in unacked {
            self.to_send.push_front((inf.chunk, inf.global_offset));
        }
    }

    fn build_flight(&mut self, now: SimTime, early: bool) -> Vec<(PacketNum, Chunk)> {
        let mut flight = Vec::new();
        while (self.unacked.len() as u32) < self.cfg.window {
            let Some((chunk, g)) = self.to_send.pop_front() else {
                break;
            };
            let pn = self.next_pn;
            self.next_pn += 1;
            self.unacked.insert(
                pn,
                InFlight {
                    chunk,
                    global_offset: g,
                    sent_at: now,
                    retransmission: false,
                },
            );
            if early {
                flight.push((pn, chunk));
            } else {
                self.out.push(Frame::Data {
                    cid: self.cid,
                    pn,
                    chunk,
                });
            }
            if let Some(covers) = self.fec.on_data(pn) {
                let covered: Vec<(PacketNum, Chunk)> = covers
                    .iter()
                    .map(|p| (*p, self.cover_chunk(*p, pn, chunk)))
                    .collect();
                self.out.push(Frame::Parity {
                    cid: self.cid,
                    covers: covered,
                });
            }
        }
        flight
    }

    /// Look up the chunk a cover refers to (it is either still unacked or
    /// the one just sent).
    fn cover_chunk(&self, pn: PacketNum, just_sent_pn: PacketNum, just_sent: Chunk) -> Chunk {
        if pn == just_sent_pn {
            just_sent
        } else {
            self.unacked.get(&pn).map(|i| i.chunk).unwrap_or(just_sent)
        }
    }

    fn fill_window(&mut self, now: SimTime) {
        if self.state == ClientState::Established {
            self.build_flight(now, false);
        }
    }

    /// Feed an incoming frame.
    pub fn on_frame(&mut self, now: SimTime, frame: &Frame) {
        if frame.cid() != self.cid {
            return;
        }
        match frame {
            Frame::ServerHello {
                token,
                early_accepted,
                ..
            } => {
                if self.state != ClientState::Handshaking {
                    return;
                }
                self.state = ClientState::Established;
                if let Some(sent) = self.hello_sent_at.take() {
                    self.rtt.sample(now.saturating_since(sent));
                }
                self.events.push(ConnEvent::TokenIssued(*token));
                let zero_rtt = !self.unacked.is_empty();
                if !early_accepted && zero_rtt {
                    // 0-RTT rejected: resend as 1-RTT data.
                    self.requeue_unacked();
                }
                self.events.push(ConnEvent::Connected {
                    zero_rtt: zero_rtt && *early_accepted,
                });
                self.fill_window(now);
            }
            Frame::Ack { ranges, .. } => {
                let acked: Vec<PacketNum> = self
                    .unacked
                    .keys()
                    .copied()
                    .filter(|pn| ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(pn)))
                    .collect();
                for pn in acked {
                    let inf = self.unacked.remove(&pn).expect("listed key");
                    self.acked_bytes += inf.chunk.len as u64;
                    if !inf.retransmission {
                        self.rtt.sample(now.saturating_since(inf.sent_at));
                    }
                }
                if self.unacked.is_empty()
                    && self.to_send.is_empty()
                    && self.queued_bytes > 0
                    && !self.all_acked_reported
                {
                    self.all_acked_reported = true;
                    self.events.push(ConnEvent::AllAcked {
                        bytes: self.acked_bytes,
                    });
                }
                self.fill_window(now);
            }
            Frame::PathChallenge { nonce, .. } => {
                self.out.push(Frame::PathResponse {
                    cid: self.cid,
                    nonce: *nonce,
                });
            }
            _ => {}
        }
    }

    /// Drive timers: handshake and data retransmission.
    pub fn on_tick(&mut self, now: SimTime) {
        match self.state {
            ClientState::Handshaking => {
                if let Some(sent) = self.hello_sent_at {
                    if now.saturating_since(sent) >= self.rtt.rto() {
                        self.rtt.on_timeout();
                        self.retransmissions += 1;
                        // Re-arm and resend the hello (without early data —
                        // conservative, mirrors QUIC's amplification care).
                        self.hello_sent_at = Some(now);
                        self.out.push(Frame::ClientHello {
                            cid: self.cid,
                            token: None,
                            early: Vec::new(),
                        });
                    }
                }
            }
            ClientState::Established => {
                let rto = self.rtt.rto();
                let expired: Vec<PacketNum> = self
                    .unacked
                    .iter()
                    .filter(|(_, inf)| now.saturating_since(inf.sent_at) >= rto)
                    .map(|(&pn, _)| pn)
                    .collect();
                if !expired.is_empty() {
                    self.rtt.on_timeout();
                    for pn in expired {
                        let mut inf = self.unacked.remove(&pn).expect("listed");
                        inf.retransmission = true;
                        self.retransmissions += 1;
                        self.to_send.push_front((inf.chunk, inf.global_offset));
                    }
                    self.fill_window(now);
                }
            }
            ClientState::Idle => {}
        }
    }

    /// Frames ready to transmit.
    pub fn take_output(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.out)
    }

    /// Events for the application.
    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        std::mem::take(&mut self.events)
    }
}

struct ServerSide {
    receiver: Receiver,
    received: ReceivedSet,
    /// Next expected global offset per stream, for legacy mapping.
    global_in_next: u64,
    global_of_chunk: FxHashMap<(u64, u64), u64>,
}

impl ServerSide {
    fn new(legacy: bool) -> Self {
        ServerSide {
            receiver: if legacy {
                Receiver::legacy()
            } else {
                Receiver::modern()
            },
            received: ReceivedSet::default(),
            global_in_next: 0,
            global_of_chunk: FxHashMap::default(),
        }
    }

    /// Global offset for a chunk: assigned on first sight in (stream,
    /// offset) order of *arrival declaration* — the client assigns global
    /// offsets in queue order, which we reconstruct deterministically by
    /// first-seen order. For the legacy baseline the client sends a single
    /// stream, so stream offset *is* the global offset.
    fn global_of(&mut self, chunk: &Chunk) -> u64 {
        if chunk.stream == 0 {
            return chunk.offset;
        }
        let key = (chunk.stream, chunk.offset);
        if let Some(&g) = self.global_of_chunk.get(&key) {
            return g;
        }
        let g = self.global_in_next;
        self.global_in_next += chunk.len as u64;
        self.global_of_chunk.insert(key, g);
        g
    }

    fn accept_data(&mut self, pn: PacketNum, chunk: Chunk, events: &mut Vec<ConnEvent>) {
        if self.received.insert(pn) {
            // Only the legacy receiver orders by global offset.
            let g = if self.receiver.is_legacy() {
                self.global_of(&chunk)
            } else {
                0
            };
            let newly = self.receiver.accept(chunk, g);
            if newly > 0 {
                events.push(ConnEvent::Delivered {
                    stream: chunk.stream,
                    newly,
                });
            }
        }
    }

    fn ack(&self, cid: Cid) -> Frame {
        Frame::Ack {
            cid,
            ranges: self.received.ack_ranges(),
        }
    }
}

/// Server side (accepts many connections).
pub struct ServerConn {
    pub server_id: u64,
    cfg: TransportConfig,
    conns: FxHashMap<Cid, ServerSide>,
    valid_tokens: BTreeSet<u64>,
    next_token: u64,
    out: Vec<Frame>,
    events: Vec<ConnEvent>,
    /// Stats.
    pub zero_rtt_accepted: u64,
    pub zero_rtt_rejected: u64,
    pub fec_recoveries: u64,
}

impl ServerConn {
    pub fn new(server_id: u64, cfg: TransportConfig) -> Self {
        ServerConn {
            server_id,
            cfg,
            conns: FxHashMap::default(),
            valid_tokens: BTreeSet::new(),
            next_token: 1,
            out: Vec::new(),
            events: Vec::new(),
            zero_rtt_accepted: 0,
            zero_rtt_rejected: 0,
            fec_recoveries: 0,
        }
    }

    /// Total in-order bytes delivered on a connection.
    pub fn delivered(&self, cid: Cid) -> u64 {
        self.conns
            .get(&cid)
            .map_or(0, |c| c.receiver.total_delivered())
    }

    pub fn on_frame(&mut self, _now: SimTime, frame: &Frame) {
        match frame {
            Frame::ClientHello { cid, token, early } => {
                let token_ok = matches!(token, Some(t) if t.server_id == self.server_id
                        && self.valid_tokens.contains(&t.value));
                let conn = self
                    .conns
                    .entry(*cid)
                    .or_insert_with(|| ServerSide::new(self.cfg.legacy_ordering));
                let early_accepted = token_ok && !early.is_empty();
                if early_accepted {
                    self.zero_rtt_accepted += 1;
                    for (pn, chunk) in early {
                        conn.accept_data(*pn, *chunk, &mut self.events);
                    }
                } else if !early.is_empty() {
                    self.zero_rtt_rejected += 1;
                }
                let value = self.next_token;
                self.next_token += 1;
                self.valid_tokens.insert(value);
                self.out.push(Frame::ServerHello {
                    cid: *cid,
                    token: ResumeToken {
                        server_id: self.server_id,
                        value,
                    },
                    early_accepted,
                });
                if early_accepted {
                    let ack = conn.ack(*cid);
                    self.out.push(ack);
                }
            }
            Frame::Data { cid, pn, chunk } => {
                if let Some(conn) = self.conns.get_mut(cid) {
                    conn.accept_data(*pn, *chunk, &mut self.events);
                    let ack = conn.ack(*cid);
                    self.out.push(ack);
                }
            }
            Frame::Parity { cid, covers } => {
                if let Some(conn) = self.conns.get_mut(cid) {
                    let pns: Vec<PacketNum> = covers.iter().map(|(pn, _)| *pn).collect();
                    if let Some(missing) = recoverable(&conn.received, &pns) {
                        let chunk = covers
                            .iter()
                            .find(|(pn, _)| *pn == missing)
                            .map(|(_, c)| *c)
                            .expect("cover includes chunk");
                        conn.accept_data(missing, chunk, &mut self.events);
                        self.fec_recoveries += 1;
                        self.events.push(ConnEvent::FecRecovered { pn: missing });
                        let ack = conn.ack(*cid);
                        self.out.push(ack);
                    }
                }
            }
            Frame::PathResponse { .. } => {}
            _ => {}
        }
    }

    pub fn take_output(&mut self) -> Vec<Frame> {
        std::mem::take(&mut self.out)
    }

    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run client and server against each other over a perfect in-order
    /// zero-latency channel (unit-test harness; lossy/latency behaviour is
    /// exercised through the network adapters in handlers.rs tests).
    fn pump(client: &mut ClientConn, server: &mut ServerConn, now: SimTime) {
        for _ in 0..64 {
            let c_out = client.take_output();
            let s_in: Vec<Frame> = c_out;
            for f in &s_in {
                server.on_frame(now, f);
            }
            let s_out = server.take_output();
            if s_in.is_empty() && s_out.is_empty() {
                break;
            }
            for f in &s_out {
                client.on_frame(now, f);
            }
        }
    }

    #[test]
    fn one_rtt_handshake_and_transfer() {
        let mut c = ClientConn::new(1, TransportConfig::default());
        let mut s = ServerConn::new(77, TransportConfig::default());
        c.queue(1, 10_000, true);
        c.connect(SimTime::ZERO, None);
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert!(c.is_established());
        assert_eq!(c.acked_bytes(), 10_000);
        assert_eq!(s.delivered(1), 10_000);
        let events = c.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, ConnEvent::Connected { zero_rtt: false })));
        assert!(events
            .iter()
            .any(|e| matches!(e, ConnEvent::AllAcked { bytes: 10_000 })));
    }

    #[test]
    fn zero_rtt_resumption_carries_data_in_first_flight() {
        let cfg = TransportConfig::default();
        // First connection obtains a token.
        let mut c1 = ClientConn::new(1, cfg);
        let mut s = ServerConn::new(77, cfg);
        c1.connect(SimTime::ZERO, None);
        pump(&mut c1, &mut s, SimTime::from_millis(1));
        let token = c1
            .take_events()
            .into_iter()
            .find_map(|e| match e {
                ConnEvent::TokenIssued(t) => Some(t),
                _ => None,
            })
            .expect("token issued");
        // Second connection resumes with 0-RTT data.
        let mut c2 = ClientConn::new(2, cfg);
        c2.queue(1, 2_400, true);
        c2.connect(SimTime::from_secs(1), Some(token));
        // The very first flight already contains the data:
        let first_flight = c2.take_output();
        assert_eq!(first_flight.len(), 1);
        match &first_flight[0] {
            Frame::ClientHello { early, token, .. } => {
                assert!(token.is_some());
                assert_eq!(early.len(), 2, "two chunks of early data");
            }
            other => panic!("{other:?}"),
        }
        for f in &first_flight {
            s.on_frame(SimTime::from_secs(1), f);
        }
        assert_eq!(s.delivered(2), 2_400, "0-RTT data delivered pre-handshake");
        assert_eq!(s.zero_rtt_accepted, 1);
        // Finish the handshake.
        for f in s.take_output() {
            c2.on_frame(SimTime::from_secs(1), &f);
        }
        assert!(c2
            .take_events()
            .iter()
            .any(|e| matches!(e, ConnEvent::Connected { zero_rtt: true })));
    }

    #[test]
    fn bogus_token_early_data_rejected_then_resent() {
        let cfg = TransportConfig::default();
        let mut c = ClientConn::new(3, cfg);
        let mut s = ServerConn::new(77, cfg);
        c.queue(1, 1_200, true);
        c.connect(
            SimTime::ZERO,
            Some(ResumeToken {
                server_id: 77,
                value: 999_999, // never issued
            }),
        );
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert_eq!(s.zero_rtt_rejected, 1);
        // Data still arrives via 1-RTT resend.
        assert_eq!(s.delivered(3), 1_200);
        assert!(c
            .take_events()
            .iter()
            .any(|e| matches!(e, ConnEvent::Connected { zero_rtt: false })));
    }

    #[test]
    fn retransmission_on_loss() {
        let cfg = TransportConfig {
            window: 4,
            ..TransportConfig::default()
        };
        let mut c = ClientConn::new(4, cfg);
        let mut s = ServerConn::new(77, cfg);
        c.queue(1, 4 * 1_200, true);
        c.connect(SimTime::ZERO, None);
        // Handshake.
        for f in c.take_output() {
            s.on_frame(SimTime::ZERO, &f);
        }
        for f in s.take_output() {
            c.on_frame(SimTime::from_millis(10), &f);
        }
        // Drop the first data packet; deliver the rest.
        let flight = c.take_output();
        assert_eq!(flight.len(), 4);
        for f in flight.iter().skip(1) {
            s.on_frame(SimTime::from_millis(20), f);
        }
        for f in s.take_output() {
            c.on_frame(SimTime::from_millis(30), &f);
        }
        // Sacks acked 3 of 4; one remains. Fire the RTO.
        assert_eq!(c.acked_bytes(), 3 * 1_200);
        c.on_tick(SimTime::from_secs(2));
        assert!(c.retransmissions >= 1);
        for f in c.take_output() {
            s.on_frame(SimTime::from_secs(2), &f);
        }
        for f in s.take_output() {
            c.on_frame(SimTime::from_secs(2), &f);
        }
        assert_eq!(c.acked_bytes(), 4 * 1_200);
        assert_eq!(s.delivered(4), 4 * 1_200);
    }

    #[test]
    fn fec_recovers_single_loss_without_retransmission() {
        let cfg = TransportConfig {
            fec_k: 4,
            window: 8,
            ..TransportConfig::default()
        };
        let mut c = ClientConn::new(5, cfg);
        let mut s = ServerConn::new(77, cfg);
        c.queue(1, 4 * 1_200, true);
        c.connect(SimTime::ZERO, None);
        for f in c.take_output() {
            s.on_frame(SimTime::ZERO, &f);
        }
        for f in s.take_output() {
            c.on_frame(SimTime::from_millis(10), &f);
        }
        // The flight: 4 data + 1 parity. Drop data packet #2.
        let flight = c.take_output();
        assert_eq!(flight.len(), 5, "4 data + parity");
        for (i, f) in flight.iter().enumerate() {
            if i != 2 {
                s.on_frame(SimTime::from_millis(20), f);
            }
        }
        assert_eq!(s.fec_recoveries, 1, "parity healed the loss");
        assert_eq!(s.delivered(5), 4 * 1_200);
        // Client receives acks covering everything: no retransmission.
        for f in s.take_output() {
            c.on_frame(SimTime::from_millis(30), &f);
        }
        assert_eq!(c.retransmissions, 0);
        assert_eq!(c.acked_bytes(), 4 * 1_200);
    }

    #[test]
    fn migration_keeps_connection_alive() {
        let cfg = TransportConfig::default();
        let mut c = ClientConn::new(6, cfg);
        let mut s = ServerConn::new(77, cfg);
        c.queue(1, 24_000, false);
        c.connect(SimTime::ZERO, None);
        pump(&mut c, &mut s, SimTime::from_millis(1));
        assert_eq!(c.acked_bytes(), 24_000);
        let cid_before = c.cid();
        // Address change mid-connection.
        c.on_address_change(SimTime::from_secs(1));
        assert_eq!(c.cid(), cid_before, "CID survives");
        assert!(c.is_established());
        assert!(c.take_events().contains(&ConnEvent::Migrated));
        // More data flows without a new handshake.
        c.queue(1, 12_000, true);
        c.fill_window(SimTime::from_secs(1));
        pump(&mut c, &mut s, SimTime::from_secs(1));
        assert_eq!(c.acked_bytes(), 36_000);
        assert_eq!(c.handshakes, 1, "no second handshake");
    }

    #[test]
    fn legacy_dies_on_address_change() {
        let cfg = TransportConfig::legacy();
        let mut c = ClientConn::new(7, cfg);
        let mut s = ServerConn::new(77, cfg);
        c.queue(1, 12_000, false);
        c.connect(SimTime::ZERO, None);
        pump(&mut c, &mut s, SimTime::from_millis(1));
        let cid_before = c.cid();
        c.on_address_change(SimTime::from_secs(1));
        assert_ne!(c.cid(), cid_before, "new connection identity");
        assert!(!c.is_established());
        // A full reconnect is required; unacked data resumes after it.
        c.queue(1, 1_200, true);
        c.connect(SimTime::from_secs(1), None);
        pump(&mut c, &mut s, SimTime::from_secs(1));
        assert_eq!(c.handshakes, 2);
        assert!(c.is_established());
        assert_eq!(c.acked_bytes(), 13_200);
    }

    /// A long in-order transfer keeps one received run, so every ack is a
    /// single range whatever the history length.
    #[test]
    fn in_order_history_stays_one_run() {
        let mut s = ServerConn::new(77, TransportConfig::default());
        s.on_frame(
            SimTime::ZERO,
            &Frame::ClientHello {
                cid: 1,
                token: None,
                early: Vec::new(),
            },
        );
        s.take_output();
        let chunk_len = 1_200;
        for pn in 0..100_000u64 {
            let chunk = Chunk {
                stream: 1,
                offset: pn * chunk_len,
                len: chunk_len as u32,
                fin: false,
            };
            s.on_frame(SimTime::ZERO, &Frame::Data { cid: 1, pn, chunk });
            match &s.take_output()[..] {
                [Frame::Ack { ranges, .. }] => assert_eq!(ranges, &[(0, pn)]),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(s.conns[&1].received.ack_ranges(), vec![(0, 99_999)]);
        assert_eq!(s.delivered(1), 100_000 * chunk_len);
    }

    #[test]
    fn legacy_orders_globally_modern_does_not() {
        // Two streams; stream 1's first chunk is "lost" initially.
        let run = |cfg: TransportConfig| -> (u64, u64) {
            let mut c = ClientConn::new(8, cfg);
            let mut s = ServerConn::new(77, cfg);
            c.queue(1, 1_200, false); // global [0, 1200)
            c.queue(2, 1_200, false); // global [1200, 2400)
            c.connect(SimTime::ZERO, None);
            for f in c.take_output() {
                s.on_frame(SimTime::ZERO, &f);
            }
            for f in s.take_output() {
                c.on_frame(SimTime::from_millis(10), &f);
            }
            let flight = c.take_output();
            assert_eq!(flight.len(), 2);
            // Deliver only the SECOND chunk.
            s.on_frame(SimTime::from_millis(20), &flight[1]);
            let delivered_before = s
                .conns
                .values()
                .map(|c| c.receiver.total_delivered())
                .sum::<u64>();
            s.on_frame(SimTime::from_millis(21), &flight[0]);
            let delivered_after = s
                .conns
                .values()
                .map(|c| c.receiver.total_delivered())
                .sum::<u64>();
            (delivered_before, delivered_after)
        };
        let (modern_before, modern_after) = run(TransportConfig::default());
        assert_eq!(modern_before, 1_200, "independent stream delivered at once");
        assert_eq!(modern_after, 2_400);
        let (legacy_before, legacy_after) = run(TransportConfig::legacy());
        assert_eq!(legacy_before, 0, "legacy HoL blocks the later bytes");
        assert_eq!(legacy_after, 2_400);
    }
}
