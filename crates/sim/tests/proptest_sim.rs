//! Property-based tests for the simulation engine's core invariants.

use dlte_sim::engine::{EventKey, ORIGIN_LIMIT, OSEQ_LIMIT};
use dlte_sim::stats::{jain_index, Samples, Welford};
use dlte_sim::{EventQueue, SimDuration, SimTime, Simulation, World};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A world that just records firing times.
struct Sink {
    fired: Vec<SimTime>,
}

impl World for Sink {
    type Event = ();
    fn handle(&mut self, now: SimTime, _: (), _q: &mut EventQueue<()>) {
        self.fired.push(now);
    }
}

/// Origins this queue schedules from itself (`set_origin` + `schedule_at`),
/// including both ends of the legal range.
const LOCAL_ORIGINS: [u64; 4] = [0, 1, 7, ORIGIN_LIMIT - 1];

/// Origins owned by "another shard": their keys only ever arrive through
/// `schedule_keyed`, as at the shard barrier. Disjoint from
/// `LOCAL_ORIGINS`, so every `(origin, oseq)` has exactly one allocator.
const FOREIGN_ORIGINS: [u64; 3] = [2, 3, ORIGIN_LIMIT - 2];

/// Where a scheduled event's canonical key comes from.
#[derive(Clone, Debug)]
enum Src {
    /// `schedule_at` under `set_origin(LOCAL_ORIGINS[i])`.
    Local(usize),
    /// `schedule_keyed` with `(FOREIGN_ORIGINS[origin], oseq)`.
    Foreign { origin: usize, oseq: u64 },
}

/// Two in three events are local (one per local origin), one in three is
/// imported with an oseq that is often at or near the 2^40 − 1 limit.
fn arb_src() -> impl Strategy<Value = Src> {
    let oseq = prop_oneof![
        Just(OSEQ_LIMIT - 1),
        0u64..16,
        OSEQ_LIMIT - 16..OSEQ_LIMIT,
        0..OSEQ_LIMIT,
    ];
    (0..LOCAL_ORIGINS.len() + 2, 0..FOREIGN_ORIGINS.len(), oseq).prop_map(|(pick, origin, oseq)| {
        match pick {
            i if i < LOCAL_ORIGINS.len() => Src::Local(i),
            _ => Src::Foreign { origin, oseq },
        }
    })
}

/// Log-uniform in `[1, 2^bits)`: a uniform bit length, then uniform low
/// bits — so every radix bucket of the queue up to `bits` gets traffic.
fn log_uniform(bits: u32) -> impl Strategy<Value = u64> {
    (0..bits, any::<u64>()).prop_map(|(b, r)| 1 << b | r & ((1 << b) - 1))
}

/// A schedule offset from the phase base: mostly on a 1 µs grid, so
/// same-instant ties — where origin and oseq decide the order — are the
/// common case; otherwise log-uniform from 1 ns to 2^62 ns.
fn arb_offset() -> impl Strategy<Value = u64> {
    let grid = || (0u64..50).prop_map(|k| k * 1_000);
    prop_oneof![grid(), grid(), grid(), log_uniform(62)]
}

/// A horizon advance that often lands exactly on a grid instant, and
/// sometimes reaches far ahead (at most 2^58 ns, so eight phases plus an
/// offset stay below 2^63).
fn arb_advance() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..60_000,
        (1u64..60).prop_map(|k| k * 1_000),
        log_uniform(58)
    ]
}

/// One phase of the slab-queue equivalence test: schedule a batch, cancel
/// some keys (live, already-fired, or already-canceled — all must be safe),
/// then advance the clock.
#[derive(Clone, Debug)]
struct Phase {
    /// Schedule offsets from the phase base (ns) and key sources.
    schedule: Vec<(u64, Src)>,
    /// Indices (mod keys-so-far) of keys to cancel after scheduling.
    cancel: Vec<usize>,
    /// How far past the base this phase's run_until horizon reaches.
    advance: u64,
    /// Attempt a slab reclaim after this phase's run (a no-op unless the
    /// queue happens to be fully drained — both paths must be transparent).
    reclaim: bool,
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    (
        prop::collection::vec((arb_offset(), arb_src()), 0..20),
        prop::collection::vec(0usize..1000, 0..10),
        arb_advance(),
        any::<bool>(),
    )
        .prop_map(|(schedule, cancel, advance, reclaim)| Phase {
            schedule,
            cancel,
            advance,
            reclaim,
        })
}

/// Reference model of one scheduled event.
#[derive(Clone, Debug)]
struct ModelEntry {
    at: SimTime,
    /// The canonical `(origin, oseq)` the queue must order it by.
    key: (u64, u64),
    canceled: bool,
    fired: bool,
}

/// World that records (time, id) of every dispatched event.
struct Recorder {
    fired: Vec<(SimTime, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, id: u32, _q: &mut EventQueue<u32>) {
        self.fired.push((now, id));
    }
}

/// The naive reference: a flat list of entries (id = index) that fires, at
/// each horizon, every live entry at or before it in `(at, origin, oseq)`
/// order.
#[derive(Default)]
struct Model {
    entries: Vec<ModelEntry>,
    keys: Vec<EventKey>,
    /// The per-origin FIFO counters `schedule_at` allocates from.
    oseqs: HashMap<u64, u64>,
    /// Foreign keys already imported: a sender never reissues one.
    imported: HashSet<(u64, u64)>,
    /// Every dispatch so far, in the order the model demands.
    expect: Vec<(SimTime, u32)>,
}

impl Model {
    fn schedule(&mut self, sim: &mut Simulation<Recorder>, at: SimTime, src: &Src) {
        let id = self.entries.len() as u32;
        let q = sim.queue_mut();
        let (key, handle) = match *src {
            Src::Local(i) => {
                let origin = LOCAL_ORIGINS[i];
                let c = self.oseqs.entry(origin).or_default();
                let key = (origin, *c);
                *c += 1;
                q.set_origin(origin);
                (key, q.schedule_at(at, id))
            }
            Src::Foreign { origin, oseq } => {
                let key = (FOREIGN_ORIGINS[origin], oseq);
                if !self.imported.insert(key) {
                    return;
                }
                (key, q.schedule_keyed(at, key.0, key.1, id))
            }
        };
        self.keys.push(handle);
        self.entries.push(ModelEntry {
            at,
            key,
            canceled: false,
            fired: false,
        });
    }

    /// Cancel key `pick % keys`. The model only retires live entries:
    /// canceling a fired or already-canceled key must change nothing.
    fn cancel(&mut self, sim: &mut Simulation<Recorder>, pick: usize) {
        if self.keys.is_empty() {
            return;
        }
        let i = pick % self.keys.len();
        sim.queue_mut().cancel(self.keys[i]);
        let e = &mut self.entries[i];
        if !e.fired {
            e.canceled = true;
        }
    }

    fn live(&self) -> impl Iterator<Item = &ModelEntry> {
        self.entries.iter().filter(|e| !e.fired && !e.canceled)
    }

    /// `peek_time` agrees with the model's next live entry.
    fn check_peek(&self, sim: &mut Simulation<Recorder>) {
        let next = self.live().map(|e| e.at).min();
        prop_assert_eq!(sim.queue_mut().peek_time(), next);
    }

    /// Run to `horizon` and demand the exact dispatch sequence so far and
    /// the live count.
    fn run_until(&mut self, sim: &mut Simulation<Recorder>, horizon: SimTime) {
        sim.run_until(horizon, 100_000);
        let mut due: Vec<usize> = (0..self.entries.len())
            .filter(|&i| {
                let e = &self.entries[i];
                !e.fired && !e.canceled && e.at <= horizon
            })
            .collect();
        due.sort_by_key(|&i| (self.entries[i].at, self.entries[i].key));
        for i in due {
            self.entries[i].fired = true;
            self.expect.push((self.entries[i].at, i as u32));
        }
        prop_assert_eq!(&sim.world().fired, &self.expect);
        let live = self.live().count();
        prop_assert_eq!(sim.queue_mut().pending(), live, "pending after run");
        prop_assert_eq!(sim.queue_mut().is_empty(), live == 0);
    }
}

/// One follow-up a dispatched event schedules: `delay` ns after it, under
/// an origin `1 + drop` below the dispatching event's (floored at 0).
#[derive(Clone, Copy, Debug)]
struct Followup {
    delay: u64,
    drop: u64,
}

fn arb_followup() -> impl Strategy<Value = Followup> {
    let zero = || Just(0u64);
    let delay = prop_oneof![zero(), zero(), zero(), 1u64..3_000, log_uniform(40)];
    (delay, 0u64..3).prop_map(|(delay, drop)| Followup { delay, drop })
}

/// The origin a follow-up of an event from `origin` is scheduled under:
/// strictly lower while it can be, so the new event ranks *below* the one
/// being dispatched when its delay is zero.
fn child_origin(origin: u64, f: Followup) -> u64 {
    origin.saturating_sub(1 + f.drop)
}

/// A world whose handler for event `(id, origin)` schedules `plan[id]`'s
/// follow-ups, numbering new events in scheduling order. Events past the
/// plan spawn nothing, which bounds the run.
struct Spawner {
    plan: Vec<Vec<Followup>>,
    next: u32,
    fired: Vec<(SimTime, u32)>,
}

impl World for Spawner {
    type Event = (u32, u64);
    fn handle(&mut self, now: SimTime, (id, origin): (u32, u64), q: &mut EventQueue<(u32, u64)>) {
        self.fired.push((now, id));
        for &f in self.plan.get(id as usize).into_iter().flatten() {
            let o = child_origin(origin, f);
            q.set_origin(o);
            q.schedule_at(now + SimDuration::from_nanos(f.delay), (self.next, o));
            self.next += 1;
        }
    }
}

/// The naive reference for [`Spawner`]: a flat pending list scanned for
/// its `(at, origin, oseq)` minimum, with the same handler logic.
#[derive(Default)]
struct SpawnModel {
    pending: Vec<(u64, u64, u64, u32)>,
    oseqs: HashMap<u64, u64>,
    next: u32,
    now: u64,
    fired: Vec<(SimTime, u32)>,
}

impl SpawnModel {
    fn schedule(&mut self, at: u64, origin: u64) {
        let c = self.oseqs.entry(origin).or_default();
        self.pending.push((at, origin, *c, self.next));
        *c += 1;
        self.next += 1;
    }

    fn run_until(&mut self, horizon: u64, plan: &[Vec<Followup>]) {
        while let Some(i) = (0..self.pending.len()).min_by_key(|&i| self.pending[i]) {
            let (at, origin, _, id) = self.pending[i];
            if at > horizon {
                break;
            }
            self.pending.swap_remove(i);
            self.now = at;
            self.fired.push((SimTime::from_nanos(at), id));
            for &f in plan.get(id as usize).into_iter().flatten() {
                self.schedule(at + f.delay, child_origin(origin, f));
            }
        }
    }
}

proptest! {
    /// Handlers that answer at zero delay under a *lower* origin than the
    /// event being dispatched — so the next event ranks below the last —
    /// still dispatch in exact `(at, origin, oseq)` order, across horizon
    /// stops short of far-future events followed by schedules at `now`.
    #[test]
    fn lower_origin_followups_match_reference(
        plan in prop::collection::vec(prop::collection::vec(arb_followup(), 0..4), 1..60),
        phases in prop::collection::vec(
            (
                prop::collection::vec(
                    (prop_oneof![Just(0u64), 0u64..5_000, log_uniform(40)], 0u64..64),
                    0..4,
                ),
                prop_oneof![0u64..5_000, log_uniform(40)],
            ),
            1..6,
        ),
    ) {
        let mut sim = Simulation::new(Spawner { plan: plan.clone(), next: 0, fired: vec![] });
        let mut model = SpawnModel::default();
        for (seeds, advance) in &phases {
            let now = sim.now().as_nanos();
            prop_assert_eq!(now, model.now);
            for &(off, origin) in seeds {
                let id = sim.world().next;
                sim.world_mut().next += 1;
                let q = sim.queue_mut();
                q.set_origin(origin);
                q.schedule_at(SimTime::from_nanos(now + off), (id, origin));
                model.schedule(now + off, origin);
            }
            let next = model.pending.iter().map(|p| SimTime::from_nanos(p.0)).min();
            prop_assert_eq!(sim.queue_mut().peek_time(), next);
            sim.run_until(SimTime::from_nanos(now + advance), 100_000);
            model.run_until(now + advance, &plan);
            prop_assert_eq!(&sim.world().fired, &model.fired);
            prop_assert_eq!(sim.queue().pending(), model.pending.len());
        }
        sim.run_until(SimTime::MAX, 100_000);
        model.run_until(u64::MAX, &plan);
        prop_assert_eq!(&sim.world().fired, &model.fired);
    }

    /// The slab-indexed radix queue agrees exactly — dispatch order, times,
    /// and pending counts — with a naive reference model ordered by
    /// `(at, origin, oseq)` across arbitrary interleavings of scheduling
    /// (local origins at both ends of the 24-bit range, imported keys up to
    /// oseq 2^40 − 1, offsets from 1 ns to 2^62 ns), cancellation, slab
    /// reclaims followed by new schedules, and horizon advances. Cancels may target keys that already fired or were already
    /// canceled; both must be no-ops even after the underlying slot has
    /// been reused or the slab reclaimed.
    #[test]
    fn slab_queue_matches_reference_model(phases in prop::collection::vec(arb_phase(), 1..8)) {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        let mut model = Model::default();
        let mut base = 0u64;
        for phase in &phases {
            for (off, src) in &phase.schedule {
                model.schedule(&mut sim, SimTime::from_nanos(base + off), src);
            }
            for &pick in &phase.cancel {
                model.cancel(&mut sim, pick);
            }
            model.check_peek(&mut sim);
            model.run_until(&mut sim, SimTime::from_nanos(base + phase.advance));
            if phase.reclaim {
                // Reclamation at a drain boundary must be invisible to
                // everything this test checks: later schedules, cancels via
                // (possibly stale) keys, and the final dispatch order.
                let before = sim.queue_mut().slot_capacity();
                sim.queue_mut().reclaim();
                if model.live().count() == 0 && before >= dlte_sim::engine::RECLAIM_MIN_SLOTS {
                    prop_assert_eq!(sim.queue_mut().slot_capacity(), 0);
                }
            }
            base += phase.advance;
        }
        model.run_until(&mut sim, SimTime::MAX);
        prop_assert_eq!(sim.queue_mut().pending(), 0);
    }

    /// Cancels that land on already-purged orphan slots are exact no-ops.
    ///
    /// The lazy-purge design leaves a canceled event's queue entry behind
    /// until the queue next inspects it; `peek_time` discards the orphans
    /// it meets, and the slot freed by the cancel is reused by the next
    /// schedule. This drives that
    /// exact sequence — cancel, purge via peek, reuse, then *re-cancel the
    /// stale key* — and checks the reused slot's new occupant (local or
    /// imported) is never harmed: `pending()` and the full dispatch order
    /// still match the reference model.
    #[test]
    fn cancels_on_purged_orphan_slots_are_noops(
        phases in prop::collection::vec(
            (
                prop::collection::vec((arb_offset(), arb_src()), 1..12), // schedule
                prop::collection::vec(0usize..1000, 0..8),  // cancel, purge, re-cancel
                prop::collection::vec((arb_offset(), arb_src()), 0..12), // reuse freed slots
                prop::collection::vec(0usize..1000, 0..8),  // stale cancels after reuse
                arb_advance(),
            ),
            1..8,
        )
    ) {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        let mut model = Model::default();
        let mut base = 0u64;
        for (sched, cancels, resched, stale, advance) in &phases {
            for (off, src) in sched {
                model.schedule(&mut sim, SimTime::from_nanos(base + off), src);
            }
            for &pick in cancels {
                model.cancel(&mut sim, pick);
            }
            // Purge: orphans in `current` and in the lowest bucket are
            // discarded here, so the canceled events' slots are ready for
            // reuse with nothing but the occupant's `ord` protecting them.
            model.check_peek(&mut sim);
            // Reuse the freed slots...
            for (off, src) in resched {
                model.schedule(&mut sim, SimTime::from_nanos(base + off), src);
            }
            // ...then fire cancels at arbitrary (often stale) keys, and
            // repeat every earlier cancel verbatim: both must leave the
            // slots' new occupants untouched.
            for &pick in stale.iter().chain(cancels) {
                model.cancel(&mut sim, pick);
            }
            model.run_until(&mut sim, SimTime::from_nanos(base + advance));
            base += advance;
        }
        model.run_until(&mut sim, SimTime::MAX);
    }

    /// Events always fire in non-decreasing time order, whatever order they
    /// were scheduled in.
    #[test]
    fn events_fire_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(Sink { fired: vec![] });
        for &t in &times {
            sim.queue_mut().schedule_at(SimTime::from_nanos(t), ());
        }
        sim.run_to_completion(10_000);
        let fired = &sim.world().fired;
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// The horizon never lets an event fire strictly after it.
    #[test]
    fn horizon_is_respected(
        times in prop::collection::vec(0u64..1_000_000, 1..100),
        horizon in 0u64..1_000_000,
    ) {
        let mut sim = Simulation::new(Sink { fired: vec![] });
        for &t in &times {
            sim.queue_mut().schedule_at(SimTime::from_nanos(t), ());
        }
        sim.run_until(SimTime::from_nanos(horizon), 10_000);
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        prop_assert_eq!(sim.world().fired.len(), expected);
    }

    /// Canceled events never fire; everything else does.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..100_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut sim = Simulation::new(Sink { fired: vec![] });
        let mut keys = vec![];
        for &t in &times {
            keys.push(sim.queue_mut().schedule_at(SimTime::from_nanos(t), ()));
        }
        let mut live = 0;
        for (i, key) in keys.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                sim.queue_mut().cancel(*key);
            } else {
                live += 1;
            }
        }
        sim.run_to_completion(10_000);
        prop_assert_eq!(sim.world().fired.len(), live);
    }

    /// SimTime round trips through seconds with sub-microsecond error.
    #[test]
    fn time_float_round_trip(s in 0.0f64..1.0e6) {
        let t = SimTime::from_secs_f64(s);
        prop_assert!((t.as_secs_f64() - s).abs() < 1e-6);
    }

    /// Duration arithmetic is consistent: (a + b) - b == a.
    #[test]
    fn duration_add_sub(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db) - db, da);
    }

    /// Welford mean/variance match naive computation on arbitrary data.
    #[test]
    fn welford_matches_naive(xs in prop::collection::vec(-1.0e4f64..1.0e4, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    }

    /// Jain's index is always within [1/n, 1].
    #[test]
    fn jain_bounds(xs in prop::collection::vec(0.0f64..1.0e6, 1..100)) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        prop_assert!(j <= 1.0 + 1e-12);
        prop_assert!(j >= 1.0 / n - 1e-12);
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-1.0e5f64..1.0e5, 2..300)) {
        let mut s = Samples::new();
        for &x in &xs {
            s.push(x);
        }
        let q25 = s.quantile(0.25);
        let q50 = s.quantile(0.50);
        let q75 = s.quantile(0.75);
        prop_assert!(s.min() <= q25 && q25 <= q50 && q50 <= q75 && q75 <= s.max());
    }
}
