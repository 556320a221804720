//! Stock node handlers: traffic sources, sinks and echo servers.
//!
//! These are the workload generators of the experiment harness — CBR and
//! Poisson flow sources, a counting sink, and an echo responder for RTT
//! measurement (standing in for the OTT services dLTE leans on).

use crate::addr::Addr;
use crate::node::{NodeCtx, NodeHandler};
use crate::packet::{FlowId, Packet, Payload};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};

/// Constant-bit-rate flow source.
pub struct CbrSource {
    pub dst: Addr,
    pub flow: FlowId,
    pub rate_bps: f64,
    pub packet_bytes: u32,
    pub start: SimTime,
    pub stop: SimTime,
    seq: u64,
}

impl CbrSource {
    pub fn new(dst: Addr, flow: FlowId, rate_bps: f64, packet_bytes: u32) -> Self {
        CbrSource {
            dst,
            flow,
            rate_bps,
            packet_bytes,
            start: SimTime::ZERO,
            stop: SimTime::MAX,
            seq: 0,
        }
    }

    /// Restrict the active window.
    pub fn window(mut self, start: SimTime, stop: SimTime) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.packet_bytes as f64 * 8.0 / self.rate_bps)
    }
}

impl NodeHandler for CbrSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let delay = self.start.saturating_since(ctx.now);
        ctx.set_timer(delay, 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        if ctx.now > self.stop {
            return;
        }
        let p = ctx
            .make_packet(self.dst, self.packet_bytes)
            .with_payload(Payload::Flow {
                flow: self.flow,
                seq: self.seq,
            });
        self.seq += 1;
        ctx.forward(p);
        let interval = self.interval();
        ctx.set_timer(interval, 0);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        // Sources also act as sinks for return traffic.
        ctx.deliver_local(&packet);
    }
}

/// Poisson packet source (exponential inter-arrivals at the same mean rate).
pub struct PoissonSource {
    pub dst: Addr,
    pub flow: FlowId,
    pub rate_bps: f64,
    pub packet_bytes: u32,
    seq: u64,
}

impl PoissonSource {
    pub fn new(dst: Addr, flow: FlowId, rate_bps: f64, packet_bytes: u32) -> Self {
        PoissonSource {
            dst,
            flow,
            rate_bps,
            packet_bytes,
            seq: 0,
        }
    }

    fn mean_interval_s(&self) -> f64 {
        self.packet_bytes as f64 * 8.0 / self.rate_bps
    }
}

impl NodeHandler for PoissonSource {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        let p = ctx
            .make_packet(self.dst, self.packet_bytes)
            .with_payload(Payload::Flow {
                flow: self.flow,
                seq: self.seq,
            });
        self.seq += 1;
        ctx.forward(p);
        // Exponential gap via inverse CDF on the ctx RNG.
        let u = ctx.rand_unit().max(f64::MIN_POSITIVE);
        let gap = -self.mean_interval_s() * u.ln();
        ctx.set_timer(SimDuration::from_secs_f64(gap), 0);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        ctx.deliver_local(&packet);
    }
}

/// Echo server: bounces every flow packet back to its source (think OTT
/// service / measurement reflector). Control packets are ignored.
pub struct EchoServer {
    pub echoed: u64,
}

impl EchoServer {
    pub fn new() -> Self {
        EchoServer { echoed: 0 }
    }
}

impl Default for EchoServer {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeHandler for EchoServer {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Payload::Flow { flow, seq } = packet.payload {
            self.echoed += 1;
            let reply = ctx
                .make_packet(packet.src, packet.size_bytes)
                .with_payload(Payload::Flow { flow, seq });
            ctx.forward(reply);
        }
    }
}

/// RTT prober: sends a probe every `interval` and records the round-trip
/// time when the echo returns. Pair with [`EchoServer`].
pub struct Pinger {
    pub dst: Addr,
    pub flow: FlowId,
    pub interval: SimDuration,
    pub probe_bytes: u32,
    /// RTT samples, milliseconds.
    pub rtt_ms: Samples,
    outstanding: crate::fxhash::FxHashMap<u64, SimTime>,
    seq: u64,
}

impl Pinger {
    pub fn new(dst: Addr, flow: FlowId, interval: SimDuration) -> Self {
        Pinger {
            dst,
            flow,
            interval,
            probe_bytes: 100,
            rtt_ms: Samples::new(),
            outstanding: crate::fxhash::FxHashMap::default(),
            seq: 0,
        }
    }
}

impl NodeHandler for Pinger {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _tag: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.outstanding.insert(seq, ctx.now);
        let p = ctx
            .make_packet(self.dst, self.probe_bytes)
            .with_payload(Payload::Flow {
                flow: self.flow,
                seq,
            });
        ctx.forward(p);
        let interval = self.interval;
        ctx.set_timer(interval, 0);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Payload::Flow { flow, seq } = packet.payload {
            if flow == self.flow {
                if let Some(sent) = self.outstanding.remove(&seq) {
                    self.rtt_ms.push_duration_ms(ctx.now.saturating_since(sent));
                }
                return;
            }
        }
        ctx.deliver_local(&packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix;
    use crate::link::LinkConfig;
    use crate::network::NetworkBuilder;

    #[test]
    fn cbr_source_sends_at_rate() {
        // 1 Mbit/s of 1250-byte packets = 100 packets/s over 2 s → 200 pkts.
        let mut b = NetworkBuilder::new(5);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host(
            "src",
            Box::new(
                CbrSource::new(dst_addr, 1, 1e6, 1250).window(SimTime::ZERO, SimTime::from_secs(2)),
            ),
        );
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let l = b.link(src, dst, LinkConfig::lan());
        b.route(src, Prefix::new(dst_addr, 32), l);
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(3), 1_000_000);
        let f = sim.world().trace().flow(1).expect("flow");
        assert!(
            (199..=201).contains(&f.delivered_packets),
            "{}",
            f.delivered_packets
        );
    }

    #[test]
    fn poisson_source_mean_rate() {
        let mut b = NetworkBuilder::new(6);
        let dst_addr = Addr::new(10, 0, 0, 2);
        let src = b.host("src", Box::new(PoissonSource::new(dst_addr, 2, 1e6, 1250)));
        b.addr(src, Addr::new(10, 0, 0, 1));
        let dst = b.node("dst");
        b.addr(dst, dst_addr);
        let l = b.link(src, dst, LinkConfig::lan());
        b.route(src, Prefix::new(dst_addr, 32), l);
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20), 1_000_000);
        let f = sim.world().trace().flow(2).expect("flow");
        // 100 pkts/s × 20 s = 2000 expected; allow ±10%.
        assert!(
            (1800..2200).contains(&f.delivered_packets),
            "{}",
            f.delivered_packets
        );
    }

    #[test]
    fn pinger_measures_rtt() {
        let mut b = NetworkBuilder::new(7);
        let server_addr = Addr::new(10, 0, 0, 2);
        let client_addr = Addr::new(10, 0, 0, 1);
        let client = b.host(
            "client",
            Box::new(Pinger::new(server_addr, 3, SimDuration::from_millis(100))),
        );
        b.addr(client, client_addr);
        let server = b.host("server", Box::new(EchoServer::new()));
        b.addr(server, server_addr);
        let l = b.link(
            client,
            server,
            LinkConfig {
                delay: SimDuration::from_millis(25),
                rate_bps: 1e9,
                queue_pkts: 100,
                loss: 0.0,
            },
        );
        b.route(client, Prefix::new(server_addr, 32), l);
        b.route(server, Prefix::new(client_addr, 32), l);
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(1), 100_000);
        // Extract the typed handlers back out for their measurements.
        let world = sim.world();
        let echo = world.handler_as::<EchoServer>(server).expect("echo typed");
        assert!((9..=11).contains(&echo.echoed), "echoed {}", echo.echoed);
        let pinger = world.handler_as::<Pinger>(client).expect("pinger typed");
        assert!(pinger.rtt_ms.len() >= 9);
        // RTT ≈ 2 × 25 ms propagation (serialization negligible at 1 Gbit/s).
        let med = pinger.rtt_ms.median();
        assert!((med - 50.0).abs() < 0.5, "median RTT {med}");
        let a = world.audit(crate::network::in_flight_packets(sim.queue()));
        let no_drops = crate::network::NetAudit {
            fabric: a.fabric,
            in_flight: a.in_flight,
            ..Default::default()
        };
        assert_eq!(a, no_drops);
    }
}
