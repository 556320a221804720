//! Conservative sharded execution of one simulation.
//!
//! [`par_map`](crate::par::par_map) parallelizes *across* independent runs;
//! this module parallelizes *within* a single run. The topology is
//! partitioned into N shards (a [`ShardPlan`] maps every node to a shard),
//! each shard owns its own [`Simulation`] — event queue, clock, node state —
//! and cross-shard traffic travels as explicit timestamped messages
//! ([`OutMsg`]) exchanged at synchronization barriers.
//!
//! ## The barrier protocol
//!
//! Synchronization is **conservative** (no rollback), with lookahead `L` =
//! the minimum latency of any inter-shard link. Time advances in epochs:
//!
//! 1. a zero-width epoch `[s, s]` flushes events scheduled exactly at the
//!    current safe time `s` (externally seeded work, fault injections between
//!    stepped segments) and exchanges the messages they produce;
//! 2. each regular epoch runs every shard independently over `(s, s + L]`,
//!    then exchanges outbound messages at the barrier.
//!
//! This is safe because a message sent while handling an event at time
//! `t > s` arrives at `t + L' ≥ t + L > s + L` — strictly *after* the epoch
//! being computed — so no shard can ever receive a message for simulated
//! time it has already executed. The barrier checks this for every message
//! in every build profile. The receiving queue inserts the message
//! with the exact canonical key `(at, origin, oseq)` the sender allocated
//! (see [`EventQueue::schedule_keyed`](crate::EventQueue::schedule_keyed)),
//! which is what makes dispatch order — and therefore every golden, trace,
//! and work counter — bit-identical at 1, 2, or N shards.
//!
//! ## Workers
//!
//! One call of [`run_sharded`] spawns one worker thread per shard, inside a
//! single `thread::scope`, and keeps it for the whole call. Between epochs
//! a worker is parked on its order channel. Each epoch the coordinator (the
//! calling thread) sends every worker the epoch end, its remaining budget
//! and the messages routed to it at the last barrier; the worker schedules
//! those, runs its shard to the epoch end and replies with its outcome,
//! outbound messages, instrumentation and the time of its next pending
//! event. Workers start and report through the same thread hand-off as
//! [`par_map`](crate::par::par_map) (see [`crate::par`]): a worker traces
//! exactly when the caller does, and each epoch is one hand-off. Messages
//! routed at the final barrier are scheduled into their destination queues
//! before the call returns, so a stepped run (fault injection between
//! segments) sees every in-flight packet in some queue. A worker that
//! panics drops its reply channel; the coordinator then panics too, which
//! closes every order channel, so the call unwinds instead of hanging.
//!
//! ## Merge rules
//!
//! At each barrier the coordinator folds the shards' hand-offs back into
//! the calling thread in shard order: report tallies are summed (a shard's
//! events also count against its budget) and metrics snapshots absorbed,
//! while raw trace records from all shards are concatenated and stably
//! sorted by `(t_ns, node)` before being absorbed. Within one
//! `(t_ns, node)` pair all records come from the single shard owning that
//! node (already in canonical order), and records never straddle an epoch
//! boundary with equal timestamps, so the merged stream is a pure function
//! of the simulated system, not of the shard count. A one-shard call runs
//! on the calling thread with no barrier, under the allocation-free
//! [`ShardPlan::single`], and sorts its trace segment the same way.

use crate::engine::{RunOutcome, Simulation, World};
use crate::par::{spawn, Handoff};
use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Global shard-count knob (the runner's `--shards N` flag). 1 = classic
/// single-queue execution; 0 = auto (one shard per available CPU).
static SHARDS: AtomicUsize = AtomicUsize::new(1);

/// Set the number of shards subsequent scenario builds partition into.
/// `1` restores classic single-queue execution; `0` means one shard per
/// available CPU. Affects subsequent builds process-wide.
pub fn set_shards(n: usize) {
    SHARDS.store(n, Ordering::Relaxed);
}

/// The number of shards the next scenario build will use.
pub fn shards() -> usize {
    match SHARDS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// A partition of the topology: which shard owns each node, and the
/// conservative lookahead the cut permits.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    n: usize,
    shard_of: Vec<usize>,
    lookahead: SimDuration,
}

impl ShardPlan {
    /// The plan of an unsharded run: one shard, which owns every node of
    /// any topology. It holds no node map, so building it allocates
    /// nothing.
    pub const fn single() -> Self {
        ShardPlan {
            n: 1,
            shard_of: Vec::new(),
            lookahead: SimDuration::MAX,
        }
    }

    /// Build a plan from an explicit node → shard map. `lookahead` must be
    /// the minimum latency of any link whose endpoints land in different
    /// shards ([`SimDuration::MAX`] if the cut severs no links at all).
    pub fn new(n: usize, shard_of: Vec<usize>, lookahead: SimDuration) -> Self {
        assert!(n >= 1, "a plan needs at least one shard");
        assert!(shard_of.iter().all(|&s| s < n), "shard id out of range");
        assert!(
            n == 1 || !lookahead.is_zero(),
            "conservative sync needs positive lookahead: \
             every inter-shard link must have positive latency"
        );
        ShardPlan {
            n,
            shard_of,
            lookahead,
        }
    }

    /// Number of shards.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: usize) -> usize {
        if self.n == 1 {
            0
        } else {
            self.shard_of[node]
        }
    }

    /// The conservative lookahead (epoch width).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Number of nodes the plan maps (0 for [`ShardPlan::single`]).
    pub fn num_nodes(&self) -> usize {
        self.shard_of.len()
    }
}

/// A cross-shard message: an event bound for another shard's queue, carrying
/// the canonical key the sending shard allocated for it.
#[derive(Clone, Debug)]
pub struct OutMsg<E> {
    /// Destination shard.
    pub shard: usize,
    /// Absolute delivery time.
    pub at: SimTime,
    /// Canonical key: the allocating origin...
    pub origin: u64,
    /// ...and its sequence number (see [`crate::EventQueue::alloc_key`]).
    pub oseq: u64,
    /// The event to deliver.
    pub event: E,
}

/// A [`World`] that can participate in sharded execution: instead of
/// scheduling events for nodes it does not own, it buffers them as
/// [`OutMsg`]s which the barrier runner collects and routes.
pub trait ShardWorld: World {
    /// Take the cross-shard messages produced since the last drain.
    fn drain_outbound(&mut self) -> Vec<OutMsg<Self::Event>>;
}

/// One epoch's orders for a shard worker.
struct Orders<E> {
    /// Run the shard up to and including this time.
    end: SimTime,
    /// What remains of the shard's dispatch budget.
    budget: u64,
    /// Messages routed to this shard at the last barrier.
    inbound: Vec<OutMsg<E>>,
}

/// A shard worker's report at the barrier.
struct Reply<E> {
    outcome: RunOutcome,
    outbound: Vec<OutMsg<E>>,
    /// The epoch's tally, metrics and trace records.
    handoff: Handoff,
    /// The time of the shard's earliest pending event.
    next: Option<SimTime>,
}

/// Schedule cross-shard messages into their destination's queue under the
/// keys their senders allocated.
fn deliver<W: World>(sim: &mut Simulation<W>, msgs: Vec<OutMsg<W::Event>>) {
    for msg in msgs {
        sim.queue_mut()
            .schedule_keyed(msg.at, msg.origin, msg.oseq, msg.event);
    }
}

/// The body of one shard's worker thread: run each epoch it is ordered to
/// until the coordinator closes the order channel.
fn work<W: ShardWorld>(
    sim: &mut Simulation<W>,
    orders: Receiver<Orders<W::Event>>,
    replies: Sender<Reply<W::Event>>,
) {
    for Orders {
        end,
        budget,
        inbound,
    } in orders
    {
        let (outcome, handoff) = Handoff::capture(|| {
            deliver(sim, inbound);
            sim.run_until(end, budget)
        });
        let reply = Reply {
            outcome,
            outbound: sim.world_mut().drain_outbound(),
            handoff,
            next: sim.queue_mut().peek_time(),
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

/// Run a set of shard simulations to `horizon` under the conservative
/// barrier protocol, with at most `max_events` dispatched **per shard**
/// (runaway backstop, same contract as
/// [`Simulation::run_until`](crate::Simulation::run_until)).
///
/// Returns [`RunOutcome::Drained`] once every shard's queue is empty and no
/// messages are in flight (so a `SimTime::MAX` horizon terminates),
/// [`RunOutcome::BudgetExhausted`] as soon as any shard exhausts its budget,
/// and [`RunOutcome::HorizonReached`] otherwise. Messages still in flight
/// when it returns sit in their destination shards' queues.
///
/// Panics if a shard's handler panics, or if a cross-shard message would
/// arrive inside the epoch that sent it (a plan whose lookahead exceeds
/// some inter-shard latency).
pub fn run_sharded<W>(
    shards: &mut [Simulation<W>],
    plan: &ShardPlan,
    horizon: SimTime,
    max_events: u64,
) -> RunOutcome
where
    W: ShardWorld + Send,
    W::Event: Send,
{
    assert_eq!(shards.len(), plan.n(), "one simulation per planned shard");

    if let [only] = shards {
        // Single shard: no barrier needed, but the trace segment still gets
        // the canonical (t_ns, node) merge order so captures are
        // bit-identical to the N-shard run.
        if !dlte_obs::tracing_enabled() {
            return only.run_until(horizon, max_events);
        }
        let earlier = dlte_obs::drain_raw();
        let outcome = only.run_until(horizon, max_events);
        let mut segment = dlte_obs::drain_raw();
        segment.sort_by_key(|&(t_ns, node, _)| (t_ns, node));
        dlte_obs::absorb_raw(earlier);
        dlte_obs::absorb_raw(segment);
        return outcome;
    }

    // Safe time: everything at or before the current epoch's start has been
    // executed everywhere. Individual shard clocks may lag it (an idle
    // shard's clock only moves when it dispatches), which is fine — epochs
    // are driven by the coordinator. External code (fault injection between
    // stepped segments) must only schedule at or after the *global* now,
    // i.e. at or after the latest shard clock.
    //
    // The initial epoch is zero-width: flush events sitting exactly at that
    // time (externally seeded work, injections between stepped segments) so
    // every later message provably arrives strictly beyond its epoch's end.
    let mut epoch_end = shards
        .iter()
        .map(|sim| sim.now())
        .max()
        .expect("a plan has at least one shard");
    let mut budgets: Vec<u64> = vec![max_events; shards.len()];
    // Messages routed at the last barrier, by destination shard.
    let mut inbound: Vec<Vec<OutMsg<W::Event>>> = shards.iter().map(|_| Vec::new()).collect();

    let outcome = std::thread::scope(|scope| {
        // The channels live inside the scope closure, so a coordinator
        // panic drops the order senders and releases every parked worker
        // before the scope joins them.
        let workers: Vec<_> = shards
            .iter_mut()
            .map(|sim| {
                let (order_tx, order_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                spawn(scope, move || work(sim, order_rx, reply_tx));
                (order_tx, reply_rx)
            })
            .collect();

        loop {
            for (k, (orders, _)) in workers.iter().enumerate() {
                let epoch = Orders {
                    end: epoch_end,
                    budget: budgets[k],
                    inbound: std::mem::take(&mut inbound[k]),
                };
                orders.send(epoch).expect("shard worker panicked");
            }

            // --- barrier: fold replies in shard order, route messages -----
            let mut all_drained = true;
            let mut exhausted = false;
            let mut exchanged = 0usize;
            let mut next: Option<SimTime> = None;
            let mut epoch_records: Vec<dlte_obs::RawRecord> = Vec::new();
            for (shard_idx, (_, replies)) in workers.iter().enumerate() {
                let reply = replies.recv().expect("shard worker panicked");
                match reply.outcome {
                    RunOutcome::Drained => {}
                    RunOutcome::HorizonReached => all_drained = false,
                    RunOutcome::BudgetExhausted => exhausted = true,
                }
                budgets[shard_idx] = budgets[shard_idx].saturating_sub(reply.handoff.tally.events);
                epoch_records.extend(reply.handoff.fold());
                let sent = reply.outbound.iter().map(|msg| msg.at);
                next = next.into_iter().chain(reply.next).chain(sent).min();
                exchanged += reply.outbound.len();
                for msg in reply.outbound {
                    assert!(
                        msg.at > epoch_end,
                        "cross-shard message at {:?} violates lookahead (epoch end {:?})",
                        msg.at,
                        epoch_end
                    );
                    inbound[msg.shard].push(msg);
                }
            }

            // Stable sort: ties within one (t_ns, node) keep their shard's
            // canonical emission order; a (t_ns, node) pair never spans
            // shards (a node lives in exactly one shard) nor epochs (epochs
            // partition time into disjoint half-open intervals).
            epoch_records.sort_by_key(|&(t_ns, node, _)| (t_ns, node));
            dlte_obs::absorb_raw(epoch_records);

            if exhausted {
                return RunOutcome::BudgetExhausted;
            }
            if all_drained && exchanged == 0 {
                // Nothing pending anywhere and nothing in flight: done, even
                // if the horizon (possibly SimTime::MAX) lies far ahead.
                return RunOutcome::Drained;
            }
            if epoch_end >= horizon {
                return RunOutcome::HorizonReached;
            }
            // Next epoch: at least one lookahead wide. Every future event
            // sits in some queue or in `inbound`, so when the whole system
            // is idle past `s + L` it is safe to jump straight to the
            // earliest pending event — any message that event produces
            // still lands at least `L` beyond it.
            let s = epoch_end;
            epoch_end = (s + plan.lookahead()).min(horizon);
            if let Some(next) = next {
                epoch_end = epoch_end.max(next.min(horizon));
            }
        }
    });

    for (sim, msgs) in shards.iter_mut().zip(inbound) {
        deliver(sim, msgs);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventQueue;

    const HOP: SimDuration = SimDuration::from_millis(5);

    /// Tokens circulating a ring of nodes; each hop takes `HOP`. Exercises
    /// cross-shard delivery, canonical-key export, and the drain contract.
    #[derive(Clone, Debug)]
    enum RingEv {
        Token { node: usize, ttl: u32 },
    }

    struct RingShard {
        my_shard: usize,
        plan: ShardPlan,
        /// (t_ms, node) of every token handled here, in dispatch order.
        log: Vec<(u64, usize)>,
        outbound: Vec<OutMsg<RingEv>>,
        /// A node whose handler panics when a token reaches it.
        fuse: Option<usize>,
    }

    impl World for RingShard {
        type Event = RingEv;
        fn handle(&mut self, now: SimTime, ev: RingEv, queue: &mut EventQueue<RingEv>) {
            let RingEv::Token { node, ttl } = ev;
            assert_eq!(
                self.plan.shard_of(node),
                self.my_shard,
                "token delivered to the wrong shard"
            );
            assert_ne!(self.fuse, Some(node), "fuse blown at node {node}");
            self.log.push((now.as_millis(), node));
            if ttl == 0 {
                return;
            }
            queue.set_origin(node as u64 + 1);
            let next = (node + 1) % self.plan.num_nodes();
            let ev = RingEv::Token {
                node: next,
                ttl: ttl - 1,
            };
            let dest = self.plan.shard_of(next);
            if dest == self.my_shard {
                queue.schedule_at(now + HOP, ev);
            } else {
                let (origin, oseq) = queue.alloc_key();
                self.outbound.push(OutMsg {
                    shard: dest,
                    at: now + HOP,
                    origin,
                    oseq,
                    event: ev,
                });
            }
        }
    }

    impl ShardWorld for RingShard {
        fn drain_outbound(&mut self) -> Vec<OutMsg<RingEv>> {
            std::mem::take(&mut self.outbound)
        }
    }

    /// One empty ring simulation per shard of `plan`.
    fn ring_shards(plan: &ShardPlan) -> Vec<Simulation<RingShard>> {
        (0..plan.n())
            .map(|k| {
                Simulation::new(RingShard {
                    my_shard: k,
                    plan: plan.clone(),
                    log: Vec::new(),
                    outbound: Vec::new(),
                    fuse: None,
                })
            })
            .collect()
    }

    /// A `nodes`-node ring cut into `n` contiguous shards, no tokens yet.
    fn ring(n: usize, nodes: usize) -> (ShardPlan, Vec<Simulation<RingShard>>) {
        let shard_of: Vec<usize> = (0..nodes).map(|i| i * n / nodes).collect();
        let plan = ShardPlan::new(n, shard_of, HOP);
        let sims = ring_shards(&plan);
        (plan, sims)
    }

    /// Put a token with `ttl` hops left on `node` at `at`, in the queue of
    /// the shard that owns it.
    fn inject(
        sims: &mut [Simulation<RingShard>],
        plan: &ShardPlan,
        at: SimTime,
        node: usize,
        ttl: u32,
    ) {
        sims[plan.shard_of(node)]
            .queue_mut()
            .schedule_at(at, RingEv::Token { node, ttl });
    }

    /// The shards' (t_ms, node) logs merged and sorted canonically, plus
    /// total dispatched work.
    fn harvest(sims: Vec<Simulation<RingShard>>) -> (Vec<(u64, usize)>, u64) {
        let dispatched = sims.iter().map(|s| s.events_dispatched()).sum();
        let mut log: Vec<(u64, usize)> =
            sims.into_iter().flat_map(|s| s.into_world().log).collect();
        log.sort_unstable();
        (log, dispatched)
    }

    /// Run `tokens` tokens around a 6-node ring partitioned into `n` shards,
    /// returning the merged (t_ms, node) log sorted canonically plus total
    /// dispatched work.
    fn run_ring(n: usize, tokens: usize, ttl: u32, horizon: SimTime) -> (Vec<(u64, usize)>, u64) {
        let nodes = 6;
        let (plan, mut sims) = ring(n, nodes);
        for t in 0..tokens {
            inject(&mut sims, &plan, SimTime::ZERO, t % nodes, ttl);
        }
        let outcome = run_sharded(&mut sims, &plan, horizon, 1_000_000);
        assert_ne!(outcome, RunOutcome::BudgetExhausted);
        harvest(sims)
    }

    #[test]
    fn sharded_run_matches_single_shard_bit_for_bit() {
        let horizon = SimTime::from_secs(1);
        let (log1, work1) = run_ring(1, 4, 37, horizon);
        for n in [2, 3, 6] {
            let (logn, workn) = run_ring(n, 4, 37, horizon);
            assert_eq!(logn, log1, "dispatch log differs at {n} shards");
            assert_eq!(workn, work1, "work counter differs at {n} shards");
        }
        // 4 tokens × (1 + 37 hops) each.
        assert_eq!(work1, 4 * 38);
    }

    /// Stepping a run to horizons that are not multiples of the lookahead,
    /// with an external token injected at each barrier front, dispatches
    /// exactly what one unsegmented single-shard run does: the messages in
    /// flight when a call returns reach their queues before the next one.
    #[test]
    fn segmented_run_matches_one_unsegmented_run() {
        const STEP_MS: u64 = 7;
        const SEGMENTS: u64 = 30;
        let nodes = 6;
        let seed = |plan: &ShardPlan, sims: &mut [Simulation<RingShard>]| {
            for node in [0, 2, 4] {
                inject(sims, plan, SimTime::ZERO, node, 40);
            }
        };
        let front = |k: u64| SimTime::from_millis(k * STEP_MS);

        let (plan, mut sims) = ring(1, nodes);
        seed(&plan, &mut sims);
        for k in 1..SEGMENTS {
            inject(&mut sims, &plan, front(k), k as usize % nodes, 3);
        }
        run_sharded(&mut sims, &plan, front(SEGMENTS), 1_000_000);
        let (log1, work1) = harvest(sims);
        // 3 tokens × 41 dispatches, plus 4 per injected token except the
        // last two, which the window cuts to 3 and 2.
        assert_eq!(work1, 3 * 41 + 27 * 4 + 3 + 2);

        for n in [2, 3] {
            let (plan, mut sims) = ring(n, nodes);
            seed(&plan, &mut sims);
            for k in 1..=SEGMENTS {
                let outcome = run_sharded(&mut sims, &plan, front(k), 1_000_000);
                assert_eq!(
                    outcome,
                    RunOutcome::HorizonReached,
                    "segment {k} at {n} shards"
                );
                if k < SEGMENTS {
                    inject(&mut sims, &plan, front(k), k as usize % nodes, 3);
                }
            }
            let (logn, workn) = harvest(sims);
            assert_eq!(logn, log1, "dispatch log differs at {n} shards");
            assert_eq!(workn, work1, "work counter differs at {n} shards");
        }
    }

    /// A handler panic on one shard reaches the caller instead of leaving
    /// the coordinator waiting at the barrier, and leaves nothing behind
    /// that breaks the next run.
    #[test]
    fn worker_panic_reaches_the_caller() {
        let (plan, mut sims) = ring(2, 6);
        sims[1].world_mut().fuse = Some(4);
        inject(&mut sims, &plan, SimTime::ZERO, 0, 37);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_sharded(&mut sims, &plan, SimTime::from_secs(1), 1_000_000)
        }));
        assert!(run.is_err(), "the shard's panic must surface");
        let horizon = SimTime::from_secs(1);
        assert_eq!(run_ring(2, 4, 37, horizon), run_ring(1, 4, 37, horizon));
    }

    /// A message that would land inside the epoch that sent it is refused
    /// in every build profile, not clamped into the receiver's past.
    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn lookahead_violation_panics() {
        // The plan claims 10 ms of lookahead across a 5 ms hop.
        let plan = ShardPlan::new(2, vec![0, 0, 1, 1], SimDuration::from_millis(10));
        let mut sims = ring_shards(&plan);
        inject(&mut sims, &plan, SimTime::ZERO, 0, 10);
        run_sharded(&mut sims, &plan, SimTime::from_secs(1), 1_000);
    }

    #[test]
    #[should_panic(expected = "shard id out of range")]
    fn plan_rejects_out_of_range_shard_ids() {
        ShardPlan::new(2, vec![0, 2], HOP);
    }

    #[test]
    fn max_horizon_drains_instead_of_spinning() {
        let (log, work) = run_ring(3, 2, 10, SimTime::MAX);
        assert_eq!(work, 2 * 11);
        assert_eq!(log.len(), work as usize);
    }

    #[test]
    fn budget_exhaustion_surfaces() {
        let (plan, mut sims) = ring(2, 4);
        inject(&mut sims, &plan, SimTime::ZERO, 0, u32::MAX);
        let outcome = run_sharded(&mut sims, &plan, SimTime::MAX, 50);
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
    }

    #[test]
    fn trace_capture_is_shard_count_invariant() {
        // A world that emits one trace record per handled event: the merged
        // record stream (and its dense seq numbering) must not depend on the
        // shard count.
        struct Tracer {
            my_shard: usize,
            plan: ShardPlan,
            outbound: Vec<OutMsg<RingEv>>,
        }
        impl World for Tracer {
            type Event = RingEv;
            fn handle(&mut self, now: SimTime, ev: RingEv, queue: &mut EventQueue<RingEv>) {
                let RingEv::Token { node, ttl } = ev;
                dlte_obs::emit(
                    now.as_nanos(),
                    node as u64,
                    dlte_obs::Event::Drop {
                        reason: dlte_obs::DropReason::Queue,
                        bytes: ttl,
                    },
                );
                if ttl == 0 {
                    return;
                }
                queue.set_origin(node as u64 + 1);
                let next = (node + 1) % self.plan.num_nodes();
                let ev = RingEv::Token {
                    node: next,
                    ttl: ttl - 1,
                };
                let dest = self.plan.shard_of(next);
                if dest == self.my_shard {
                    queue.schedule_at(now + HOP, ev);
                } else {
                    let (origin, oseq) = queue.alloc_key();
                    self.outbound.push(OutMsg {
                        shard: dest,
                        at: now + HOP,
                        origin,
                        oseq,
                        event: ev,
                    });
                }
            }
        }
        impl ShardWorld for Tracer {
            fn drain_outbound(&mut self) -> Vec<OutMsg<RingEv>> {
                std::mem::take(&mut self.outbound)
            }
        }

        let run = |n: usize| {
            let nodes = 4;
            let shard_of: Vec<usize> = (0..nodes).map(|i| i * n / nodes).collect();
            let plan = ShardPlan::new(n, shard_of, HOP);
            let mut sims: Vec<Simulation<Tracer>> = (0..n)
                .map(|k| {
                    Simulation::new(Tracer {
                        my_shard: k,
                        plan: plan.clone(),
                        outbound: Vec::new(),
                    })
                })
                .collect();
            dlte_obs::set_tracing(true);
            for t in 0..3usize {
                let node = t % nodes;
                sims[plan.shard_of(node)]
                    .queue_mut()
                    .schedule_at(SimTime::ZERO, RingEv::Token { node, ttl: 9 });
            }
            run_sharded(&mut sims, &plan, SimTime::MAX, 10_000);
            let recs = dlte_obs::take_records();
            dlte_obs::set_tracing(false);
            recs
        };
        let one = run(1);
        assert_eq!(one.len(), 30);
        for n in [2, 4] {
            assert_eq!(run(n), one, "trace stream differs at {n} shards");
        }
        for (i, r) in one.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "seq must be dense after merge");
        }
    }
}
