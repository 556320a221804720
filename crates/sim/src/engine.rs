//! The event queue and simulation driver.
//!
//! The engine is generic over the *world* — the mutable state of a whole
//! experiment — and its event type. A [`World`] receives each event along
//! with the current time and a mutable handle to the [`EventQueue`] so it can
//! schedule follow-up events. Determinism guarantees:
//!
//! * events fire in non-decreasing time order;
//! * events scheduled for the same instant fire in **canonical key order**
//!   `(at, origin, oseq)`: `origin` identifies who scheduled the event
//!   (0 = external/control scheduling, `node + 1` = a world entity — see
//!   [`EventQueue::set_origin`]) and `oseq` is that origin's private
//!   monotone counter. Events from the same origin therefore stay FIFO,
//!   and ties across origins break by origin id — an order that does not
//!   depend on any queue-global state;
//! * cancellation via [`EventKey`] marks the event's slab slot vacant in
//!   O(1) — no per-pop hash probing; the queue entry left behind is
//!   discarded when the queue next inspects it (its slot is vacant or
//!   holds another event).
//!
//! The canonical key exists for the sharded engine (see [`crate::shard`]):
//! because `(origin, oseq)` pairs are a pure function of each origin's own
//! scheduling history — not of how schedules from different origins
//! interleave — the same logical event gets the same key whether the
//! topology runs in one queue or is partitioned across many, which is what
//! makes dispatch order (and every golden) shard-count-invariant.
//!
//! ## One integer per event
//!
//! `(origin, oseq)` is packed into one `ord = origin << 40 | oseq`, and a
//! queue entry `{ at, ord, slot }` (24 bytes) orders by the single 128-bit
//! integer `at << 64 | ord` — the same total order as the tuple. Two limits
//! make the packing exact, and both are checked in release builds (a silent
//! wrap would misorder events): **origin < 2^24** ([`ORIGIN_LIMIT`], 170×
//! the largest topology here) and **oseq < 2^40** ([`OSEQ_LIMIT`]).
//!
//! `ord` also names the event: a pair is never issued twice in one queue
//! (counters are monotone and survive [`EventQueue::reclaim`]; imported
//! keys come from the one shard that owns their origin), so a slab slot
//! records its occupant's `ord`, and a queue entry or [`EventKey`] whose
//! `ord` differs refers to an event that is gone.
//!
//! ## A monotone radix queue
//!
//! Nothing is ever scheduled before `now` (`schedule_keyed` clamps `at` to
//! it), so the pending set is a *monotone* priority queue and needs no
//! sifting heap. It is a radix heap over `at` (Ahuja, Mehlhorn, Orlin &
//! Tarjan, 1990) whose base is `now` itself:
//!
//! * `current` holds the entries due at exactly `now`, in a small heap
//!   ordered by `ord`;
//! * bucket `i` of 64 holds, unordered, the entries whose `at ^ now` has
//!   its highest set bit at `i`, and one `u64` marks the occupied buckets.
//!   Every entry of a lower bucket fires before every entry of a higher
//!   one.
//!
//! A push is one append. A pop serves `current` while it holds a live
//! entry; otherwise it finds the lowest occupied bucket's minimum live
//! `at`, moves `now` there and redistributes that bucket — each entry lands
//! in a lower bucket or in `current`, so an entry moves at most 64 times
//! over its life (in practice a handful). Two rules keep the order exact:
//!
//! * **The base never passes `now`**, because it *is* `now`, which only a
//!   dispatch moves. `peek_time` and a horizon stop find the next time
//!   without advancing anything: a base past `now` would misbucket a later
//!   schedule at `now`, which lands below it.
//! * **Ties live in `current`**, not in the radix. A handler may schedule
//!   at `now` under an origin *below* the one being dispatched (a
//!   lower-numbered node answering at zero delay), so the next event can
//!   rank below the last one; only `at` is monotone, so only `at` is
//!   radixed, and `current` orders the ties by `ord`.
//!
//! Cancellation stays lazy: an orphaned entry is dropped when a pop or a
//! bucket's minimum scan meets it. The scan checks liveness only for
//! entries that would lower its running minimum, so it costs one slab read
//! per new minimum, not one per entry.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Below this slab capacity, [`EventQueue::reclaim`] is a no-op — shrinking
/// a small queue at every drain boundary would churn the allocator for a few
/// hundred bytes of savings.
pub const RECLAIM_MIN_SLOTS: usize = 64;

/// Every origin id must be below this: the origin fills the top 24 bits of
/// the packed `ord`.
pub const ORIGIN_LIMIT: u64 = 1 << 24;

/// Every per-origin sequence number must be below this: `oseq` fills the
/// low 40 bits of the packed `ord`.
pub const OSEQ_LIMIT: u64 = 1 << 40;

/// Identifies a scheduled event so it can be canceled before it fires.
/// Internally `(slot, ord)`: the slot indexes the queue's slab, and the
/// event's packed canonical key guards against slot reuse — a key whose
/// event already fired (or was canceled) can never touch the slot's next
/// occupant, which has a different `ord`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey {
    slot: u32,
    ord: u64,
}

/// The mutable state of a simulation, driven by events of type `Self::Event`.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event. `now` is the event's firing time; new events may be
    /// scheduled on `queue` (at or after `now`).
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// True for control/bookkeeping events (fault injections, start
    /// broadcasts) that should not count as dispatched simulation work.
    /// The sharded engine replicates control events into every shard, so
    /// excluding them keeps work counters shard-count-invariant.
    fn is_control(_event: &Self::Event) -> bool {
        false
    }
}

/// A queue entry: the canonical key — fire time `at` (nanoseconds) and the
/// packed `ord = origin << 40 | oseq` — plus the slab slot holding the
/// payload. Ordered by the one integer `at << 64 | ord`: earliest time
/// first, then lowest origin, then that origin's FIFO counter. `ord` is
/// unique per queue, so the slot never participates in ordering.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: u64,
    ord: u64,
    slot: u32,
}

impl Entry {
    fn rank(self) -> u128 {
        (self.at as u128) << 64 | self.ord as u128
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// One slab entry. `event: None` means vacant (fired or canceled); `ord`
/// names the slot's latest occupant — a queue entry or [`EventKey`] only
/// acts on the slot while its `ord` matches and the event is still there.
struct Slot<E> {
    ord: u64,
    event: Option<E>,
}

/// Whether queue entry `e` still refers to the event it was pushed for.
fn is_live<E>(slots: &[Slot<E>], e: Entry) -> bool {
    let s = &slots[e.slot as usize];
    s.ord == e.ord && s.event.is_some()
}

/// The radix bucket of an entry due at `at`, relative to base `base`
/// (`at > base`): the highest bit in which the two differ.
fn bucket_of(at: u64, base: u64) -> usize {
    63 - (at ^ base).leading_zeros() as usize
}

/// A priority queue of future events: a slab of scheduled payloads indexed
/// by a monotone radix queue of canonical `(time, origin, oseq)` keys (see
/// the module docs). Cancellation vacates the slab slot by index — O(1),
/// no hashing — and the orphaned entry is discarded when next inspected.
pub struct EventQueue<E> {
    /// Entries due at exactly `now`, ordered by `ord`.
    current: BinaryHeap<Reverse<Entry>>,
    /// Entries due after `now`: bucket `i` holds those whose `at ^ now` has
    /// its highest set bit at `i`. Drained buckets keep their capacity.
    buckets: [Vec<Entry>; 64],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: u64,
    slots: Vec<Slot<E>>,
    /// Vacant slab indices, reused LIFO.
    free: Vec<u32>,
    /// Number of scheduled, not-yet-canceled events.
    live: usize,
    /// The origin tag stamped on subsequent `schedule_*` calls.
    cur_origin: u64,
    /// Per-origin FIFO counters, indexed by origin id.
    oseqs: Vec<u64>,
    /// The firing time of the last dispatched event, and the radix base.
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            cur_origin: 0,
            oseqs: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// The firing time of the event currently being dispatched (or the last
    /// dispatched event). Before the first event this is [`SimTime::ZERO`].
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Set the origin tag for subsequent `schedule_*` calls. Origin `0` is
    /// reserved for external/control scheduling (pre-run setup, fault
    /// plans); worlds that partition across shards tag handler dispatches
    /// with `entity_id + 1` so same-time ties resolve identically at every
    /// shard count. Worlds that never shard can ignore this entirely —
    /// everything defaults to origin 0, which preserves plain global FIFO.
    pub fn set_origin(&mut self, origin: u64) {
        self.cur_origin = origin;
    }

    /// The origin tag currently stamped on `schedule_*` calls.
    pub fn origin(&self) -> u64 {
        self.cur_origin
    }

    /// Allocate the next `(origin, oseq)` pair under the current origin
    /// *without* inserting an event — used when the event is exported to
    /// another shard's queue. Consuming the counter here keeps this origin's
    /// subsequent local schedules bit-identical to the single-shard run,
    /// where the exported event would have claimed the same position.
    pub fn alloc_key(&mut self) -> (u64, u64) {
        let origin = self.cur_origin;
        (origin, self.bump_oseq(origin))
    }

    fn bump_oseq(&mut self, origin: u64) -> u64 {
        let idx = origin as usize;
        if idx >= self.oseqs.len() {
            self.oseqs.resize(idx + 1, 0);
        }
        let c = &mut self.oseqs[idx];
        let v = *c;
        *c += 1;
        v
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error; the event is clamped to `now` so simulation time never
    /// runs backwards, and a debug assertion fires to surface the bug.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        let (origin, oseq) = self.alloc_key();
        self.schedule_keyed(at, origin, oseq, event)
    }

    /// Schedule `event` with an explicit canonical key. Used by the shard
    /// driver to deliver cross-shard messages: the key was allocated (via
    /// [`EventQueue::alloc_key`]) on the sending shard, so the event sorts
    /// exactly where it would have in a single-queue run. Each origin must
    /// be keyed from exactly one allocator — reusing an `(origin, oseq)`
    /// pair breaks the total order and the pair's use as event identity.
    ///
    /// Panics if `origin >= ORIGIN_LIMIT` or `oseq >= OSEQ_LIMIT`.
    pub fn schedule_keyed(&mut self, at: SimTime, origin: u64, oseq: u64, event: E) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at:?} < {:?}",
            self.now
        );
        assert!(origin < ORIGIN_LIMIT, "origin {origin} exceeds 2^24 - 1");
        assert!(oseq < OSEQ_LIMIT, "oseq {oseq} exceeds 2^40 - 1");
        let at = at.max(self.now).as_nanos();
        let ord = origin << 40 | oseq;
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Slot {
                    ord,
                    event: Some(event),
                };
                i
            }
            None => {
                debug_assert!(self.slots.len() < u32::MAX as usize);
                self.slots.push(Slot {
                    ord,
                    event: Some(event),
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.push(Entry { at, ord, slot });
        self.live += 1;
        EventKey { slot, ord }
    }

    /// File `e` under the current base: into `current` if it is due now,
    /// else into its radix bucket.
    fn push(&mut self, e: Entry) {
        let base = self.now.as_nanos();
        // Holds because `schedule_keyed` clamps `at` to `now` and the base
        // is `now`, which only a dispatch moves — never a peek or a horizon
        // stop. An entry below the base would sit in no valid bucket.
        debug_assert!(e.at >= base, "entry at {} below base {base}", e.at);
        if e.at == base {
            self.current.push(Reverse(e));
        } else {
            let i = bucket_of(e.at, base);
            self.buckets[i].push(e);
            self.occupied |= 1 << i;
        }
    }

    /// Schedule `event` after a relative delay from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedule `event` to fire immediately (after all events already
    /// scheduled for the current instant by this origin).
    pub fn schedule_now(&mut self, event: E) -> EventKey {
        self.schedule_at(self.now, event)
    }

    /// Cancel a previously scheduled event: vacate its slab slot by index.
    /// Idempotent; canceling an event that already fired is a no-op (the
    /// slot is vacant, holds an event with another `ord`, or — after a
    /// [`EventQueue::reclaim`] — the slot index is out of bounds).
    pub fn cancel(&mut self, key: EventKey) {
        let Some(s) = self.slots.get_mut(key.slot as usize) else {
            return; // stale key from before a slab reclaim
        };
        if s.ord == key.ord && s.event.is_some() {
            s.event = None;
            self.free.push(key.slot);
            self.live -= 1;
        }
    }

    /// Number of live (scheduled and not canceled) events in the queue.
    /// Canceled events never count — `dlte-check`'s in-flight audits can
    /// read this without knowing how cancellation is implemented.
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Iterate over the pending *live* events (canceled entries are skipped),
    /// in no particular order. Post-run audits use this to count events still
    /// in flight — e.g. packets serialized onto a link but not yet arrived —
    /// without disturbing the queue.
    pub fn iter_pending(&self) -> impl Iterator<Item = &E> {
        self.slots.iter().filter_map(|s| s.event.as_ref())
    }

    /// True if no live events remain. Orphaned entries of canceled events
    /// are invisible here: the live count already excludes them, so a queue
    /// whose only entries were canceled reports empty, never a phantom
    /// event.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Firing time of the next live event, if any. Never reports a canceled
    /// event's time (orphans met on the way are discarded, exactly as `pop`
    /// would), and never moves the radix base: a later schedule at `now`
    /// must still be filable.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.next_at().map(SimTime::from_nanos)
    }

    /// The `at` of the next live entry: `current`'s top if it is live, else
    /// the minimum of the lowest occupied bucket. Orphans at `current`'s top
    /// and buckets holding only orphans are discarded; the base stays put.
    fn next_at(&mut self) -> Option<u64> {
        while let Some(&Reverse(e)) = self.current.peek() {
            if is_live(&self.slots, e) {
                return Some(e.at);
            }
            self.current.pop();
        }
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            if let Some(at) = self.bucket_min(i) {
                return Some(at);
            }
            self.occupied &= !(1 << i);
        }
        None
    }

    /// The smallest live `at` in bucket `i`, or `None` once the bucket is
    /// empty. Only an entry that would lower the running minimum is checked
    /// for liveness; an orphan found that way is removed, so a bucket of
    /// nothing but orphans ends up empty.
    fn bucket_min(&mut self, i: usize) -> Option<u64> {
        let bucket = &mut self.buckets[i];
        let mut min: Option<u64> = None;
        let mut j = 0;
        while j < bucket.len() {
            let e = bucket[j];
            if min.is_none_or(|m| e.at < m) {
                if !is_live(&self.slots, e) {
                    bucket.swap_remove(j);
                    continue;
                }
                min = Some(e.at);
            }
            j += 1;
        }
        min
    }

    /// Move the base to `at`, the minimum of the lowest occupied bucket, and
    /// redistribute that bucket. Its entries agree with `at` above their
    /// bucket's bit, so each lands in a lower bucket or in `current`; the
    /// drained `Vec` goes back in place with its capacity.
    fn advance(&mut self, at: u64) {
        let i = self.occupied.trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[i]);
        self.occupied &= !(1 << i);
        self.now = SimTime::from_nanos(at);
        for e in bucket.drain(..) {
            self.push(e);
        }
        debug_assert!(self.buckets[i].is_empty(), "bucket {i} refilled itself");
        self.buckets[i] = bucket;
    }

    /// Slab capacity in slots — how much memory the queue holds onto for
    /// event storage, live or not. Exposed so reclamation tests (and curious
    /// profilers) can watch [`EventQueue::reclaim`] work.
    pub fn slot_capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Release the slab, free list, and bucket storage if the queue is fully
    /// drained. The slab and buckets are grow-only during a run (slots are
    /// reused and drained buckets keep their capacity), so a burst — a
    /// handover storm, a chaos fault volley — leaves its high-water mark
    /// allocated forever. The drivers call this at drain boundaries (end of
    /// `run_until`, which the sharded engine hits for idle shards at every
    /// idle-jump epoch) to give the memory back.
    ///
    /// No-op unless the queue is empty (live events must keep their slots)
    /// or still small ([`RECLAIM_MIN_SLOTS`]): reclaiming a handful of slots
    /// just to re-grow them next epoch would thrash the allocator.
    ///
    /// Safety of outstanding [`EventKey`]s: the per-origin counters are not
    /// reset, so no `(origin, oseq)` pair — and hence no `ord` — is ever
    /// issued again. A stale key can never match a post-reclaim occupant of
    /// the same slot index, and `cancel` bounds-checks the index against the
    /// shrunken slab.
    pub fn reclaim(&mut self) {
        if self.live != 0 || self.slots.capacity() < RECLAIM_MIN_SLOTS {
            return;
        }
        // All slots are vacant and every queued entry is an orphan: drop the
        // lot. The base (`now`) stays, so later schedules file as before.
        self.slots = Vec::new();
        self.free = Vec::new();
        self.current = BinaryHeap::new();
        self.buckets = std::array::from_fn(|_| Vec::new());
        self.occupied = 0;
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Pop the next live event if it fires at or before `horizon`. Orphaned
    /// entries of canceled events are discarded along the way regardless of
    /// their time, so the queue never reports a horizon stop just because a
    /// canceled entry preceded the next live event. A horizon stop leaves
    /// the base where it was.
    fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let at = self.next_at()?;
        if at > horizon.as_nanos() {
            return None;
        }
        if at != self.now.as_nanos() {
            // `current` is empty: the next event is the lowest bucket's
            // minimum, and redistributing that bucket fills `current`.
            self.advance(at);
        }
        // `current`'s top is live unless the redistribution brought orphans
        // due at the same instant with a lower `ord`.
        while let Some(Reverse(e)) = self.current.pop() {
            if !is_live(&self.slots, e) {
                continue;
            }
            let event = self.slots[e.slot as usize].event.take();
            self.free.push(e.slot);
            self.live -= 1;
            return Some((self.now, event.expect("live entry's slot vanished")));
        }
        unreachable!("next_at reported a live entry at {at}")
    }
}

/// Outcome of running a simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// The event queue drained completely.
    Drained,
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event budget was exhausted (runaway-loop backstop).
    BudgetExhausted,
}

/// Driver that owns a [`World`] and its [`EventQueue`].
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    events_dispatched: u64,
}

impl<W: World> Simulation<W> {
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            events_dispatched: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total non-control events dispatched so far (see [`World::is_control`]).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup/teardown between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Access the queue for seeding initial events.
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Immutable access to the queue (post-run audits of pending events).
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Dispatch a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((t, ev)) => {
                if !W::is_control(&ev) {
                    self.events_dispatched += 1;
                }
                self.queue.set_origin(0);
                self.world.handle(t, ev, &mut self.queue);
                self.queue.set_origin(0);
                true
            }
            None => false,
        }
    }

    /// Run until the queue drains, the simulated clock passes `horizon`, or
    /// `max_events` have been dispatched. Events scheduled exactly at the
    /// horizon still fire; the first event strictly after it does not.
    ///
    /// The run's event count and simulated-time coverage are credited to the
    /// calling thread's instrumentation tally (see [`crate::report`]).
    /// Control events (per [`World::is_control`]) consume budget but are not
    /// counted as dispatched work.
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        let started_at = self.queue.now();
        let mut budget = max_events;
        let mut dispatched: u64 = 0;
        let outcome = loop {
            if budget == 0 {
                break RunOutcome::BudgetExhausted;
            }
            match self.queue.pop_at_or_before(horizon) {
                Some((t, ev)) => {
                    if !W::is_control(&ev) {
                        self.events_dispatched += 1;
                        dispatched += 1;
                    }
                    // The world tags handler dispatches with their own
                    // origin; everything else (including the world's own
                    // bookkeeping) schedules as origin 0.
                    self.queue.set_origin(0);
                    self.world.handle(t, ev, &mut self.queue);
                    self.queue.set_origin(0);
                    budget -= 1;
                }
                None => {
                    // `pending` counts live events exactly, so this needs
                    // no second scan for the next one's time.
                    break if !self.queue.is_empty() {
                        RunOutcome::HorizonReached
                    } else {
                        // Fully drained: hand the slab's high-water mark back
                        // to the allocator. In the sharded engine idle shards
                        // drain every idle-jump epoch, so bursty queues shrink
                        // as soon as the burst passes.
                        self.queue.reclaim();
                        RunOutcome::Drained
                    };
                }
            }
        };
        let covered = self.queue.now().saturating_since(started_at);
        crate::report::note(dispatched, covered.as_nanos());
        static ENGINE_EVENTS: std::sync::OnceLock<dlte_obs::metrics::CounterId> =
            std::sync::OnceLock::new();
        ENGINE_EVENTS
            .get_or_init(|| dlte_obs::metrics::register_counter("engine_events"))
            .add(dispatched);
        dlte_obs::metrics::observe("engine_queue_depth", self.queue.pending() as f64);
        outcome
    }

    /// Run until the queue drains or `max_events` have fired.
    pub fn run_to_completion(&mut self, max_events: u64) -> RunOutcome {
        self.run_until(SimTime::MAX, max_events)
    }

    /// Consume the driver and return the world (for result extraction).
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the order events arrive in.
    struct Recorder {
        seen: Vec<(u64, u32)>, // (millis, tag)
    }

    #[derive(Clone, Copy)]
    enum Ev {
        Tag(u32),
        /// Schedules two children `Tag(a)`/`Tag(b)` at +1ms and +2ms.
        Fanout(u32, u32),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Tag(tag) => self.seen.push((now.as_millis(), tag)),
                Ev::Fanout(a, b) => {
                    queue.schedule_in(SimDuration::from_millis(1), Ev::Tag(a));
                    queue.schedule_in(SimDuration::from_millis(2), Ev::Tag(b));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(30), Ev::Tag(3));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        assert_eq!(sim.run_to_completion(100), RunOutcome::Drained);
        assert_eq!(sim.world().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for tag in 0..50 {
            sim.queue_mut()
                .schedule_at(SimTime::from_millis(5), Ev::Tag(tag));
        }
        sim.run_to_completion(1000);
        let tags: Vec<u32> = sim.world().seen.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn same_time_ties_break_by_origin_then_fifo() {
        // Origin 0 (external) sorts before entity origins; within an origin
        // scheduling order is preserved.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let t = SimTime::from_millis(5);
        queue.set_origin(9);
        queue.schedule_at(t, Ev::Tag(90));
        queue.schedule_at(t, Ev::Tag(91));
        queue.set_origin(2);
        queue.schedule_at(t, Ev::Tag(20));
        queue.set_origin(0);
        queue.schedule_at(t, Ev::Tag(0));
        let mut order = Vec::new();
        while let Some((_, Ev::Tag(tag))) = queue.pop() {
            order.push(tag);
        }
        assert_eq!(order, vec![0, 20, 90, 91]);
    }

    #[test]
    fn keyed_schedule_sorts_like_local_allocation() {
        // An event inserted with an explicit pre-allocated key lands exactly
        // where the local allocation would have put it — the cross-shard
        // delivery invariant.
        let make = |remote: bool| {
            let mut queue: EventQueue<Ev> = EventQueue::new();
            let t = SimTime::from_millis(1);
            queue.set_origin(3);
            queue.schedule_at(t, Ev::Tag(1));
            if remote {
                let (origin, oseq) = queue.alloc_key();
                queue.set_origin(7);
                queue.schedule_at(t, Ev::Tag(3));
                queue.schedule_keyed(t, origin, oseq, Ev::Tag(2));
            } else {
                queue.schedule_at(t, Ev::Tag(2));
                queue.set_origin(7);
                queue.schedule_at(t, Ev::Tag(3));
            }
            let mut order = Vec::new();
            while let Some((_, Ev::Tag(tag))) = queue.pop() {
                order.push(tag);
            }
            order
        };
        assert_eq!(make(false), vec![1, 2, 3]);
        assert_eq!(make(true), make(false));
    }

    #[test]
    #[should_panic(expected = "exceeds 2^24 - 1")]
    fn origin_past_the_24_bit_limit_panics() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.set_origin(ORIGIN_LIMIT);
        queue.schedule_at(SimTime::ZERO, Ev::Tag(0));
    }

    #[test]
    #[should_panic(expected = "exceeds 2^40 - 1")]
    fn imported_oseq_past_the_40_bit_limit_panics() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.schedule_keyed(SimTime::ZERO, 1, OSEQ_LIMIT, Ev::Tag(0));
    }

    #[test]
    fn largest_legal_key_sorts_after_every_smaller_one() {
        // `ord` saturates all 64 bits at the limits; the packing must still
        // order by origin first and never wrap into a neighbour's range.
        let (top_o, top_s) = (ORIGIN_LIMIT - 1, OSEQ_LIMIT - 1);
        let t = SimTime::from_millis(1);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.schedule_keyed(t, top_o, top_s, Ev::Tag(5));
        queue.schedule_keyed(t, top_o, top_s - 1, Ev::Tag(4));
        queue.schedule_keyed(t, top_o - 1, top_s, Ev::Tag(3));
        queue.schedule_keyed(t, 1, top_s, Ev::Tag(2));
        queue.schedule_keyed(t, 0, top_s, Ev::Tag(1));
        queue.schedule_keyed(t, 0, 0, Ev::Tag(0));
        // One nanosecond later loses to every key, even the smallest.
        queue.schedule_keyed(t + SimDuration::from_nanos(1), 0, 1, Ev::Tag(6));
        let mut order = Vec::new();
        while let Some((_, Ev::Tag(tag))) = queue.pop() {
            order.push(tag);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn hot_entries_stay_small() {
        // Every push appends an `Entry` and every redistribution copies the
        // bucket's entries: a field added here costs every event, so it
        // should fail this test rather than slow the engine.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
        assert!(std::mem::size_of::<EventKey>() <= 16);
    }

    #[test]
    fn schedule_at_now_after_a_horizon_stop_short_of_a_far_event() {
        // The next live event is far past the horizon. Neither the stop nor
        // the peek after it may move the radix base off `now`: a schedule
        // at `now` would then land below the base and be misfiled.
        let far = SimTime::from_millis(1 << 40);
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        sim.queue_mut().schedule_at(far, Ev::Tag(4));
        let outcome = sim.run_until(SimTime::from_millis(20), 100);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.queue_mut().peek_time(), Some(far));
        let now = sim.now();
        assert_eq!(now, SimTime::from_millis(10));
        sim.queue_mut().schedule_at(now, Ev::Tag(2));
        sim.queue_mut()
            .schedule_at(now + SimDuration::from_millis(1), Ev::Tag(3));
        assert_eq!(sim.queue_mut().peek_time(), Some(now));
        assert_eq!(sim.run_to_completion(100), RunOutcome::Drained);
        assert_eq!(
            sim.world().seen,
            vec![(10, 1), (10, 2), (11, 3), (far.as_millis(), 4)]
        );
    }

    #[test]
    fn canceling_a_buckets_minimum_exposes_the_next_live_entry() {
        // 5, 6 and 7 ms share one radix bucket (highest bit 22 from base 0),
        // so only the liveness check on the running minimum hides the
        // canceled ones.
        let ms = SimTime::from_millis;
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let first = queue.schedule_at(ms(5), Ev::Tag(5));
        queue.schedule_at(ms(7), Ev::Tag(7));
        let second = queue.schedule_at(ms(6), Ev::Tag(6));
        queue.cancel(first);
        assert_eq!(queue.peek_time(), Some(ms(6)));
        queue.cancel(second);
        assert_eq!(queue.peek_time(), Some(ms(7)));
        let (at, ev) = queue.pop().expect("one live event");
        assert_eq!(at, ms(7));
        assert!(matches!(ev, Ev::Tag(7)));
        assert!(queue.pop().is_none());
    }

    #[test]
    fn times_at_and_past_2_pow_63_use_the_top_bucket() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.schedule_at(SimTime::MAX, Ev::Tag(4));
        queue.schedule_at(SimTime::from_nanos(1 << 63), Ev::Tag(3));
        queue.schedule_at(SimTime::from_nanos((1 << 63) - 1), Ev::Tag(2));
        queue.schedule_at(SimTime::from_nanos(1), Ev::Tag(1));
        let mut order = Vec::new();
        while let Some((at, Ev::Tag(tag))) = queue.pop() {
            order.push((at.as_nanos(), tag));
        }
        let expected = [(1, 1), ((1 << 63) - 1, 2), (1 << 63, 3), (u64::MAX, 4)];
        assert_eq!(order, expected);
    }

    #[test]
    fn schedules_after_a_reclaim_file_against_the_kept_base() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..100u32 {
            sim.queue_mut()
                .schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        assert_eq!(sim.run_to_completion(1_000), RunOutcome::Drained);
        assert_eq!(sim.queue().slot_capacity(), 0, "the drain reclaimed");
        let now = sim.now();
        let ms = SimDuration::from_millis;
        for (delay, tag) in [(1 << 30, 103), (0, 100), (5, 102), (1, 101)] {
            sim.queue_mut().schedule_at(now + ms(delay), Ev::Tag(tag));
        }
        sim.run_to_completion(1_000);
        let tail: Vec<(u64, u32)> = sim.world().seen[100..].to_vec();
        assert_eq!(
            tail,
            vec![(99, 100), (100, 101), (104, 102), (99 + (1 << 30), 103)]
        );
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Fanout(7, 8));
        sim.run_to_completion(100);
        assert_eq!(sim.world().seen, vec![(11, 7), (12, 8)]);
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let keep = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let kill = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        sim.queue_mut().cancel(kill);
        // Canceling twice (and canceling an already-fired key later) is fine.
        sim.queue_mut().cancel(kill);
        sim.run_to_completion(100);
        sim.queue_mut().cancel(keep);
        assert_eq!(sim.world().seen, vec![(1, 1)]);
    }

    #[test]
    fn canceling_the_only_event_empties_the_queue() {
        // Regression: tombstones at the queue front used to make `is_empty` /
        // `peek_time` report a phantom pending event.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let only = queue.schedule_at(SimTime::from_millis(5), Ev::Tag(1));
        queue.cancel(only);
        assert!(queue.is_empty());
        assert_eq!(queue.peek_time(), None);
    }

    #[test]
    fn peek_skips_canceled_and_reports_next_live_event() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let first = queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let second = queue.schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        queue.schedule_at(SimTime::from_millis(3), Ev::Tag(3));
        queue.cancel(first);
        queue.cancel(second);
        assert_eq!(queue.peek_time(), Some(SimTime::from_millis(3)));
        assert!(!queue.is_empty());
    }

    #[test]
    fn run_after_canceling_everything_reports_drained() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        let a = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        let b = sim
            .queue_mut()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        sim.queue_mut().cancel(a);
        sim.queue_mut().cancel(b);
        // A queue holding only tombstones must drain, not report a horizon
        // stop, even when the horizon sits before the canceled times.
        assert_eq!(
            sim.run_until(SimTime::from_millis(5), 100),
            RunOutcome::Drained
        );
        assert!(sim.world().seen.is_empty());
    }

    #[test]
    fn iter_pending_skips_canceled_entries() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let dead = queue.schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        queue.schedule_at(SimTime::from_millis(3), Ev::Tag(3));
        queue.cancel(dead);
        let mut tags: Vec<u32> = queue
            .iter_pending()
            .map(|e| match e {
                Ev::Tag(t) => *t,
                Ev::Fanout(..) => unreachable!(),
            })
            .collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 3]);
        // `pending` agrees with the audit view: canceled events are gone.
        assert_eq!(queue.pending(), 2, "only live events count as pending");
    }

    #[test]
    fn pending_counts_live_events_only() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let a = queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        let b = queue.schedule_at(SimTime::from_millis(2), Ev::Tag(2));
        assert_eq!(queue.pending(), 2);
        queue.cancel(a);
        assert_eq!(queue.pending(), 1, "cancellation drops the live count");
        queue.cancel(a); // idempotent
        assert_eq!(queue.pending(), 1);
        queue.cancel(b);
        assert_eq!(queue.pending(), 0);
        assert!(queue.is_empty());
    }

    #[test]
    fn slot_reuse_does_not_resurrect_stale_keys() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let dead = queue.schedule_at(SimTime::from_millis(1), Ev::Tag(1));
        queue.cancel(dead);
        // The new event reuses the vacated slot; the stale key must not be
        // able to cancel it, and the orphaned entry must not dispatch it
        // early.
        queue.schedule_at(SimTime::from_millis(5), Ev::Tag(2));
        queue.cancel(dead);
        assert_eq!(queue.pending(), 1, "stale cancel is a no-op");
        assert_eq!(queue.peek_time(), Some(SimTime::from_millis(5)));
        let (at, ev) = queue.pop().expect("live event");
        assert_eq!(at, SimTime::from_millis(5));
        assert!(matches!(ev, Ev::Tag(2)));
        assert!(queue.is_empty());
    }

    #[test]
    fn reclaim_shrinks_slab_after_burst_then_drain() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for i in 0..1_000u32 {
            queue.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        let high_water = queue.slot_capacity();
        assert!(high_water >= 1_000, "burst grew the slab");
        while queue.pop().is_some() {}
        assert!(queue.is_empty());
        // Drained by hand (not via run_until): capacity is still held.
        assert!(queue.slot_capacity() >= 1_000, "slab is grow-only mid-run");
        queue.reclaim();
        assert_eq!(queue.slot_capacity(), 0, "reclaim released the slab");
        // The queue keeps working after a reclaim, and stale keys from
        // before the reclaim stay inert.
        let key = queue.schedule_at(SimTime::from_millis(5_000), Ev::Tag(7));
        assert_eq!(queue.pending(), 1);
        queue.cancel(key);
        assert!(queue.is_empty());
    }

    #[test]
    fn reclaim_is_a_no_op_while_events_live_or_queue_small() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for i in 0..1_000u32 {
            queue.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        queue.reclaim();
        assert!(
            queue.slot_capacity() >= 1_000,
            "live events pin the slab in place"
        );
        while queue.pop().is_some() {}
        queue.reclaim();
        // Small queues never shrink: re-growing a few slots each epoch would
        // cost more than the memory saves.
        let mut small: EventQueue<Ev> = EventQueue::new();
        for i in 0..4u32 {
            small.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        while small.pop().is_some() {}
        let before = small.slot_capacity();
        assert!(before < RECLAIM_MIN_SLOTS);
        small.reclaim();
        assert_eq!(small.slot_capacity(), before, "small slab left alone");
    }

    #[test]
    fn run_until_reclaims_on_drain() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        for i in 0..1_000u32 {
            sim.queue_mut()
                .schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i));
        }
        assert!(sim.queue().slot_capacity() >= 1_000);
        assert_eq!(sim.run_to_completion(10_000), RunOutcome::Drained);
        assert_eq!(
            sim.queue().slot_capacity(),
            0,
            "drained run hands the slab back"
        );
        assert_eq!(sim.world().seen.len(), 1_000);
    }

    #[test]
    fn stale_cancel_after_reclaim_does_not_touch_new_events() {
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..200u32 {
            keys.push(queue.schedule_at(SimTime::from_millis(i as u64), Ev::Tag(i)));
        }
        while queue.pop().is_some() {}
        queue.reclaim();
        // One new event lands in slot 0; every stale key (including the one
        // that used slot 0) must leave it alone — no `ord` is reissued
        // across the reclaim and out-of-range slots are bounds-checked.
        queue.schedule_at(SimTime::from_millis(9_000), Ev::Tag(42));
        for key in keys {
            queue.cancel(key);
        }
        assert_eq!(queue.pending(), 1, "stale cancels are no-ops");
        let (_, ev) = queue.pop().expect("survivor");
        assert!(matches!(ev, Ev::Tag(42)));
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(10), Ev::Tag(1));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(20), Ev::Tag(2));
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(30), Ev::Tag(3));
        let outcome = sim.run_until(SimTime::from_millis(20), 100);
        assert_eq!(outcome, RunOutcome::HorizonReached);
        // The event *at* the horizon fires; the one after does not.
        assert_eq!(sim.world().seen, vec![(10, 1), (20, 2)]);
    }

    #[test]
    fn budget_backstop_halts_runaway() {
        struct Loopy;
        impl World for Loopy {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), queue: &mut EventQueue<()>) {
                queue.schedule_in(SimDuration::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Loopy);
        sim.queue_mut().schedule_now(());
        assert_eq!(sim.run_to_completion(1_000), RunOutcome::BudgetExhausted);
    }

    #[test]
    fn clock_is_monotone_and_tracks_events() {
        let mut sim = Simulation::new(Recorder { seen: vec![] });
        sim.queue_mut()
            .schedule_at(SimTime::from_millis(42), Ev::Tag(0));
        sim.run_to_completion(10);
        assert_eq!(sim.now(), SimTime::from_millis(42));
        assert_eq!(sim.events_dispatched(), 1);
    }

    #[test]
    fn control_events_dispatch_but_do_not_count() {
        struct Ctl {
            work: u32,
            control: u32,
        }
        impl World for Ctl {
            type Event = bool; // true = control
            fn handle(&mut self, _: SimTime, ev: bool, _: &mut EventQueue<bool>) {
                if ev {
                    self.control += 1;
                } else {
                    self.work += 1;
                }
            }
            fn is_control(ev: &bool) -> bool {
                *ev
            }
        }
        let mut sim = Simulation::new(Ctl {
            work: 0,
            control: 0,
        });
        sim.queue_mut().schedule_at(SimTime::from_millis(1), true);
        sim.queue_mut().schedule_at(SimTime::from_millis(2), false);
        sim.queue_mut().schedule_at(SimTime::from_millis(3), true);
        let ((), rep) = crate::report::scope(|| {
            sim.run_to_completion(100);
        });
        assert_eq!(sim.world().control, 2, "control events still dispatch");
        assert_eq!(sim.world().work, 1);
        assert_eq!(sim.events_dispatched(), 1, "only work counts");
        assert_eq!(rep.events_dispatched, 1, "tally excludes control events");
    }
}
