//! Run instrumentation.
//!
//! Every call to [`Simulation::run_until`](crate::Simulation::run_until)
//! credits the calling thread's tally with the number of events it dispatched
//! and the span of simulated time it covered. [`scope`] brackets a closure,
//! measures wall-clock time around it, and turns the tally delta into a
//! [`RunReport`] — the instrumentation record the experiment runner attaches
//! to each result table.
//!
//! The tally is thread-local so concurrently running experiments don't mix
//! their counts; the worker threads of [`crate::par::par_map`] and of
//! [`crate::run_sharded`] hand their deltas back to the calling thread
//! (see [`crate::par`]), so a `scope` around a parallel sweep or a sharded
//! run still sees every event dispatched under it.

use dlte_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Instrumentation summary for one experiment run (or any `scope`d region).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RunReport {
    /// Wall-clock time spent inside the scope, milliseconds.
    pub wall_ms: f64,
    /// Simulation events dispatched inside the scope (summed across all
    /// `run_until` calls, including those on `par_map` and shard worker
    /// threads).
    pub events_dispatched: u64,
    /// Simulated time covered, nanoseconds (summed across runs; a sweep over
    /// ten 60 s simulations reports 600 s).
    pub sim_time_ns: u64,
    /// Dispatch rate: `events_dispatched` per wall-clock second.
    pub events_per_sec: f64,
    /// Per-reason packet-drop breakdown (deterministic: sourced from the
    /// always-on `drops_*` metrics counters, independent of `--jobs`).
    pub drops: BTreeMap<String, u64>,
    /// Full metrics snapshot, attached by `Experiment::run_instrumented`;
    /// `dlte-run` keeps it only under `--metrics` (may contain wall-clock
    /// values).
    pub metrics: Option<MetricsSnapshot>,
    /// Heap allocations performed inside the scope. Only populated when the
    /// binary installs a counting allocator that calls [`note_alloc`]
    /// (`benchmark/src/alloc.rs`); zero otherwise.
    pub allocs: u64,
    /// Bytes requested by those heap allocations.
    pub alloc_bytes: u64,
    /// Wire bytes duplicated by `Packet::clone` inside the scope (explicit
    /// instrumentation — counted even without the counting allocator).
    pub bytes_copied: u64,
}

impl RunReport {
    /// Simulated seconds covered, as a float.
    pub fn sim_secs(&self) -> f64 {
        self.sim_time_ns as f64 / 1e9
    }
}

/// A thread's accumulated work + memory counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Tally {
    pub(crate) events: u64,
    pub(crate) sim_ns: u64,
    pub(crate) allocs: u64,
    pub(crate) alloc_bytes: u64,
    pub(crate) bytes_copied: u64,
}

impl Tally {
    pub(crate) fn since(self, earlier: Tally) -> Tally {
        Tally {
            events: self.events.wrapping_sub(earlier.events),
            sim_ns: self.sim_ns.wrapping_sub(earlier.sim_ns),
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.wrapping_sub(earlier.alloc_bytes),
            bytes_copied: self.bytes_copied.wrapping_sub(earlier.bytes_copied),
        }
    }

    fn add(self, other: Tally) -> Tally {
        Tally {
            events: self.events.wrapping_add(other.events),
            sim_ns: self.sim_ns.wrapping_add(other.sim_ns),
            allocs: self.allocs.wrapping_add(other.allocs),
            alloc_bytes: self.alloc_bytes.wrapping_add(other.alloc_bytes),
            bytes_copied: self.bytes_copied.wrapping_add(other.bytes_copied),
        }
    }
}

thread_local! {
    // `Cell<Tally>` has no destructor, so const-initialized TLS access is a
    // plain memory read/write even from inside a `GlobalAlloc` impl — no lazy
    // init, no registered dtor, no reentrancy into the allocator.
    static TALLY: Cell<Tally> = const { Cell::new(Tally {
        events: 0, sim_ns: 0, allocs: 0, alloc_bytes: 0, bytes_copied: 0,
    }) };
}

/// Credit `events` units of work covering `sim_time` to the current thread's
/// tally. The event-queue driver calls this automatically from `run_until`;
/// fixed-step simulators (the TTI and slot loops in `dlte-mac`) call it from
/// their own `run` methods so radio experiments report real work too.
pub fn credit(events: u64, sim_time: crate::time::SimDuration) {
    note(events, sim_time.as_nanos());
}

/// Credit the current thread's tally. Called by the simulation driver.
pub(crate) fn note(events: u64, sim_ns: u64) {
    TALLY.with(|t| {
        let mut cur = t.get();
        cur.events = cur.events.wrapping_add(events);
        cur.sim_ns = cur.sim_ns.wrapping_add(sim_ns);
        t.set(cur);
    });
}

/// Record a heap allocation of `bytes` on the current thread's tally. Called
/// by the counting `#[global_allocator]` in `benchmark/src/alloc.rs`; must
/// stay allocation-free, so it only touches the const-initialized
/// thread-local `Cell`.
pub fn note_alloc(bytes: usize) {
    TALLY.with(|t| {
        let mut cur = t.get();
        cur.allocs = cur.allocs.wrapping_add(1);
        cur.alloc_bytes = cur.alloc_bytes.wrapping_add(bytes as u64);
        t.set(cur);
    });
}

/// Record `bytes` wire bytes duplicated by a packet copy on the current
/// thread's tally. Called by `Packet::clone` in `dlte-net`.
pub fn note_copy(bytes: u64) {
    TALLY.with(|t| {
        let mut cur = t.get();
        cur.bytes_copied = cur.bytes_copied.wrapping_add(bytes);
        t.set(cur);
    });
}

/// Fold a worker thread's tally delta into the current thread.
pub(crate) fn merge(delta: Tally) {
    TALLY.with(|t| t.set(t.get().add(delta)));
}

/// Read the current thread's tally.
pub(crate) fn snapshot() -> Tally {
    TALLY.with(|t| t.get())
}

/// Run `f`, measuring wall-clock time and the simulation work it performed on
/// this thread (plus any `par_map` or shard workers it spawned). Returns the closure's
/// output alongside the [`RunReport`].
pub fn scope<T>(f: impl FnOnce() -> T) -> (T, RunReport) {
    let before = snapshot();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let delta = snapshot().since(before);
    let wall_ms = wall.as_secs_f64() * 1e3;
    let events_per_sec = if wall.as_secs_f64() > 0.0 {
        delta.events as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    (
        out,
        RunReport {
            wall_ms,
            events_dispatched: delta.events,
            sim_time_ns: delta.sim_ns,
            events_per_sec,
            drops: BTreeMap::new(),
            metrics: None,
            allocs: delta.allocs,
            alloc_bytes: delta.alloc_bytes,
            bytes_copied: delta.bytes_copied,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EventQueue, Simulation, World};
    use crate::time::{SimDuration, SimTime};

    struct Ticker {
        remaining: u32,
    }

    impl World for Ticker {
        type Event = ();
        fn handle(&mut self, _now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.schedule_in(SimDuration::from_millis(1), ());
            }
        }
    }

    fn run_ticker(ticks: u32) {
        let mut sim = Simulation::new(Ticker { remaining: ticks });
        sim.queue_mut().schedule_now(());
        sim.run_to_completion(10_000);
    }

    #[test]
    fn scope_counts_events_and_sim_time() {
        let ((), report) = scope(|| run_ticker(9));
        assert_eq!(report.events_dispatched, 10);
        assert_eq!(report.sim_time_ns, 9 * 1_000_000);
        assert!(report.wall_ms >= 0.0);
    }

    #[test]
    fn nested_scopes_do_not_double_count() {
        let ((), outer) = scope(|| {
            let ((), inner) = scope(|| run_ticker(4));
            assert_eq!(inner.events_dispatched, 5);
            run_ticker(2);
        });
        // Outer sees inner's work plus its own.
        assert_eq!(outer.events_dispatched, 5 + 3);
    }

    #[test]
    fn report_serializes_round_trip() {
        let ((), report) = scope(|| run_ticker(1));
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
