//! Finite-capacity message processing.
//!
//! Every control-plane entity serializes its work through a [`Processor`]
//! with a fixed per-message service time — an M/D/1-style server. The
//! response to a message is prepared immediately but transmitted only when
//! the processor gets to it, so a busy MME's attach latency grows with
//! offered load. This is the mechanism behind the E9 result: one shared EPC
//! saturates; per-AP stubs each bring their own processor.

use dlte_net::fxhash::FxHashMap;
use dlte_net::{NodeCtx, Packet};
use dlte_sim::{SimDuration, SimTime};

/// Deferred outputs of one unit of work. Most messages produce exactly one
/// reply; storing it inline skips a one-element `Vec` per processed message.
enum Outputs {
    One(Packet),
    Many(Vec<Packet>),
}

/// Deferred-output message processor.
pub struct Processor {
    /// Service time per message.
    pub per_msg: SimDuration,
    busy_until: SimTime,
    pending: FxHashMap<u64, Outputs>,
    next_tag: u64,
    /// Messages processed (for load accounting).
    pub processed: u64,
    /// Cumulative queueing delay experienced by messages (excluding their
    /// own service time).
    pub queue_delay_total: SimDuration,
    /// Tag namespace offset so multiple processors can share one node's
    /// timer space (e.g. a local core with control + paging timers).
    tag_base: u64,
}

impl Processor {
    /// A processor with the given service time. `tag_base` partitions the
    /// node's timer-tag space; use distinct bases for distinct processors
    /// (or other timers) on the same node.
    pub fn new(per_msg: SimDuration, tag_base: u64) -> Processor {
        Processor {
            per_msg,
            busy_until: SimTime::ZERO,
            pending: FxHashMap::default(),
            next_tag: 0,
            processed: 0,
            queue_delay_total: SimDuration::ZERO,
            tag_base,
        }
    }

    /// Accept one unit of work whose result is `outputs`; they are
    /// forwarded when the processor finishes this message.
    pub fn process(&mut self, ctx: &mut NodeCtx<'_>, outputs: Vec<Packet>) {
        self.enqueue(ctx, Outputs::Many(outputs));
    }

    /// [`Self::process`] for the common single-reply message, with the
    /// reply stored inline — no `Vec` allocation.
    pub fn process_one(&mut self, ctx: &mut NodeCtx<'_>, output: Packet) {
        self.enqueue(ctx, Outputs::One(output));
    }

    fn enqueue(&mut self, ctx: &mut NodeCtx<'_>, outputs: Outputs) {
        let start = self.busy_until.max(ctx.now);
        self.queue_delay_total += start.saturating_since(ctx.now);
        let done = start + self.per_msg;
        self.busy_until = done;
        self.processed += 1;
        let tag = self.tag_base + self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, outputs);
        ctx.set_timer(done.saturating_since(ctx.now), tag);
    }

    /// Handle a timer tag; returns `true` if it belonged to this processor
    /// (and its outputs were transmitted).
    pub fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) -> bool {
        match self.pending.remove(&tag) {
            Some(Outputs::One(p)) => {
                ctx.forward(p);
                true
            }
            Some(Outputs::Many(outputs)) => {
                for p in outputs {
                    ctx.forward(p);
                }
                true
            }
            None => false,
        }
    }

    /// Drop all in-flight work (crash with state loss). Any timers already
    /// armed for the dropped work fire into nothing and are ignored by
    /// `on_timer`. Cumulative stats are preserved.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.pending.clear();
    }

    /// Mean queueing delay per processed message.
    pub fn mean_queue_delay(&self) -> SimDuration {
        match self
            .queue_delay_total
            .as_nanos()
            .checked_div(self.processed)
        {
            Some(mean) => SimDuration::from_nanos(mean),
            None => SimDuration::ZERO,
        }
    }

    /// Current backlog depth (messages accepted, outputs not yet sent).
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_net::{Addr, LinkConfig, NetworkBuilder, NodeHandler, Payload, Prefix};
    use dlte_sim::SimTime;

    /// A server that echoes each flow packet through a 10 ms processor.
    struct SlowServer {
        proc: Processor,
    }

    impl NodeHandler for SlowServer {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
            if let Payload::Flow { flow, seq } = packet.payload {
                let reply = ctx
                    .make_packet(packet.src, packet.size_bytes)
                    .with_payload(Payload::Flow { flow, seq });
                self.proc.process_one(ctx, reply);
            }
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            self.proc.on_timer(ctx, tag);
        }
    }

    /// Client that fires `n` requests at t=0 and records reply times.
    struct BurstClient {
        dst: Addr,
        n: u64,
        replies: Vec<SimTime>,
    }

    impl NodeHandler for BurstClient {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            for seq in 0..self.n {
                let p = ctx
                    .make_packet(self.dst, 100)
                    .with_payload(Payload::Flow { flow: 1, seq });
                ctx.forward(p);
            }
        }
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _p: Packet) {
            self.replies.push(ctx.now);
        }
    }

    #[test]
    fn processor_serializes_work() {
        let mut b = NetworkBuilder::new(1);
        let server_addr = Addr::new(10, 0, 0, 2);
        let client_addr = Addr::new(10, 0, 0, 1);
        let client = b.host(
            "client",
            Box::new(BurstClient {
                dst: server_addr,
                n: 5,
                replies: vec![],
            }),
        );
        b.addr(client, client_addr);
        let server = b.host(
            "server",
            Box::new(SlowServer {
                proc: Processor::new(SimDuration::from_millis(10), 0),
            }),
        );
        b.addr(server, server_addr);
        let l = b.link(client, server, LinkConfig::lan());
        b.route(client, Prefix::new(server_addr, 32), l);
        b.route(server, Prefix::new(client_addr, 32), l);
        let mut sim = b.build();
        sim.run_to_completion(100_000);
        let world = sim.world();
        let c = world.handler_as::<BurstClient>(client).unwrap();
        assert_eq!(c.replies.len(), 5);
        // Replies spaced ~10 ms apart: the 5th arrives ≈ 50 ms + 2×0.1 ms.
        let last = c.replies.last().unwrap().as_millis();
        assert!((50..52).contains(&last), "last reply at {last} ms");
        let first = c.replies.first().unwrap().as_millis();
        assert!((10..12).contains(&first), "first reply at {first} ms");
        let s = world.handler_as::<SlowServer>(server).unwrap();
        assert_eq!(s.proc.processed, 5);
        // Mean queue delay over 5 back-to-back msgs: (0+10+20+30+40)/5 = 20ms.
        let mq = s.proc.mean_queue_delay().as_millis();
        assert!((19..=21).contains(&mq), "mean queue delay {mq}");
        assert_eq!(s.proc.backlog(), 0);
    }
}
