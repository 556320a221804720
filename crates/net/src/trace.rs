//! End-to-end tracing: who delivered what, how late, via how many hops.
//! Drops are not counted here: the fabric tallies them per reason (see
//! [`crate::Network::audit`]).

use crate::fxhash::FxHashMap;
use crate::packet::{FlowId, Packet};
use dlte_sim::stats::{Samples, Welford};
use dlte_sim::SimTime;

/// Per-flow delivery record.
#[derive(Clone, Debug, Default)]
pub struct FlowTrace {
    /// One-way latencies, milliseconds.
    pub latency_ms: Samples,
    pub delivered_packets: u64,
    pub delivered_bytes: u64,
    pub hops: Welford,
}

/// Network-wide delivery statistics.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    flows: FxHashMap<FlowId, FlowTrace>,
    /// Deliveries that were not flow data (control, etc.).
    pub other_delivered: u64,
}

impl TraceStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the delivery of `packet` at time `now`.
    pub fn record_delivery(&mut self, now: SimTime, packet: &Packet) {
        match packet.payload.flow_id() {
            Some(flow) => {
                let t = self.flows.entry(flow).or_default();
                t.latency_ms
                    .push_duration_ms(now.saturating_since(packet.created_at));
                t.delivered_packets += 1;
                t.delivered_bytes += packet.size_bytes as u64;
                t.hops.push(packet.hops as f64);
            }
            None => self.other_delivered += 1,
        }
    }

    /// Trace for one flow, if any packets were delivered. Latency
    /// percentiles are available directly through `&self` — see
    /// [`Samples::percentile`], which no longer needs `&mut` to sort.
    pub fn flow(&self, flow: FlowId) -> Option<&FlowTrace> {
        self.flows.get(&flow)
    }

    /// All flow ids seen.
    pub fn flow_ids(&self) -> Vec<FlowId> {
        let mut ids: Vec<FlowId> = self.flows.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Total packets delivered across flows.
    pub fn total_delivered(&self) -> u64 {
        self.flows.values().map(|f| f.delivered_packets).sum()
    }

    /// Fold another shard's trace into this one. Counters sum; flow tables
    /// union. A flow's deliveries all happen at the node that owns its
    /// destination — one shard — so in sharded runs the per-flow entries are
    /// disjoint and the merge is exact (bit-identical to single-shard). If a
    /// flow *is* delivered at nodes on different shards, its samples
    /// concatenate: order-insensitive statistics (percentiles, counts) stay
    /// exact; running means may differ in final-bit rounding.
    pub fn absorb(&mut self, other: &TraceStats) {
        for (flow, t) in &other.flows {
            let dst = self.flows.entry(*flow).or_default();
            for &v in t.latency_ms.values() {
                dst.latency_ms.push(v);
            }
            dst.delivered_packets += t.delivered_packets;
            dst.delivered_bytes += t.delivered_bytes;
            dst.hops.merge(&t.hops);
        }
        self.other_delivered += other.other_delivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::packet::Payload;

    fn flow_packet(flow: FlowId, created_ms: u64) -> Packet {
        Packet::new(
            0,
            Addr::new(1, 1, 1, 1),
            Addr::new(2, 2, 2, 2),
            500,
            SimTime::from_millis(created_ms),
        )
        .with_payload(Payload::Flow { flow, seq: 0 })
    }

    #[test]
    fn records_latency_per_flow() {
        let mut t = TraceStats::new();
        t.record_delivery(SimTime::from_millis(15), &flow_packet(1, 10));
        t.record_delivery(SimTime::from_millis(30), &flow_packet(1, 10));
        t.record_delivery(SimTime::from_millis(12), &flow_packet(2, 10));
        let f1 = t.flow(1).unwrap();
        assert_eq!(f1.delivered_packets, 2);
        assert_eq!(f1.delivered_bytes, 1000);
        assert!((f1.latency_ms.mean() - 12.5).abs() < 1e-9);
        assert_eq!(t.flow(2).unwrap().delivered_packets, 1);
        assert_eq!(t.total_delivered(), 3);
        assert_eq!(t.flow_ids(), vec![1, 2]);
        assert!(t.flow(99).is_none());
    }

    #[test]
    fn non_flow_deliveries_counted_separately() {
        let mut t = TraceStats::new();
        let p = Packet::new(
            0,
            Addr::new(1, 0, 0, 1),
            Addr::new(1, 0, 0, 2),
            64,
            SimTime::ZERO,
        );
        t.record_delivery(SimTime::from_millis(1), &p);
        assert_eq!(t.other_delivered, 1);
        assert_eq!(t.total_delivered(), 0);
    }
}
