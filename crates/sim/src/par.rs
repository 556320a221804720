//! Deterministic fan-out across threads.
//!
//! [`par_map`] runs one closure per input on a small pool of scoped threads
//! and returns the results **in input order**, so a parallel sweep is
//! bit-identical to its sequential counterpart as long as each closure is a
//! pure function of its input (seeded experiments are — each sweep point
//! forks its own RNG from the point's seed). Worker threads' instrumentation
//! tallies are folded back into the calling thread, so a
//! [`report::scope`] around a parallel sweep still
//! counts every event.
//!
//! The worker count comes from [`set_jobs`] (the runner's `--jobs N` flag);
//! `0`/unset means one worker per available CPU.

use crate::report;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker-count override. 0 = auto (one per available CPU).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the number of worker threads `par_map` uses. `0` restores the default
/// (one per available CPU). Affects subsequent calls process-wide.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The number of workers the next `par_map` call will use.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Apply `f` to every input, possibly in parallel, returning results in input
/// order. With one worker (or one input) this degenerates to a plain
/// sequential map on the calling thread — same results, same tallies.
///
/// Panics in a worker are propagated to the caller after all workers stop.
pub fn par_map<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = inputs.len();
    let workers = jobs().min(n);
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    // Worker threads start with tracing off (it is thread-local); mirror the
    // caller's state so instrumented closures keep emitting. Each item's raw
    // records are captured on the worker and re-absorbed below in input
    // order, making the caller's event stream independent of `workers`.
    let tracing = dlte_obs::tracing_enabled();

    let work: Mutex<VecDeque<(usize, I)>> = Mutex::new(inputs.into_iter().enumerate().collect());
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut records: Vec<Vec<dlte_obs::RawRecord>> = (0..n).map(|_| Vec::new()).collect();
    let mut tally_deltas = Vec::with_capacity(workers);
    let mut metrics_deltas = Vec::with_capacity(workers);
    let mut panic_payload = None;

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let before = report::snapshot();
                    let start = std::time::Instant::now();
                    if tracing {
                        dlte_obs::set_tracing(true);
                    }
                    let mut produced = Vec::new();
                    loop {
                        // Lock only to claim the next item; run `f` unlocked.
                        let claimed = work.lock().unwrap().pop_front();
                        match claimed {
                            Some((idx, input)) => {
                                let value = f(input);
                                let recs = if tracing {
                                    dlte_obs::drain_raw()
                                } else {
                                    Vec::new()
                                };
                                produced.push((idx, value, recs));
                            }
                            None => break,
                        }
                    }
                    dlte_obs::metrics::observe(
                        "par_worker_ms",
                        start.elapsed().as_secs_f64() * 1e3,
                    );
                    (
                        produced,
                        report::snapshot().since(before),
                        dlte_obs::metrics::take(),
                    )
                })
            })
            .collect();

        for handle in handles {
            match handle.join() {
                Ok((produced, delta, metrics)) => {
                    for (idx, value, recs) in produced {
                        slots[idx] = Some(value);
                        records[idx] = recs;
                    }
                    tally_deltas.push(delta);
                    metrics_deltas.push(metrics);
                }
                Err(payload) => {
                    // Keep joining the rest so the scope exits cleanly, then
                    // re-raise the first panic.
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
    });

    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    for delta in tally_deltas {
        report::merge(delta);
    }
    for metrics in &metrics_deltas {
        dlte_obs::metrics::absorb(metrics);
    }
    if tracing {
        for recs in records {
            dlte_obs::absorb_raw(recs);
        }
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("every input index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..64).collect();
        let expected: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        set_jobs(4);
        let out = par_map(inputs, |x| x * x);
        set_jobs(0);
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_matches_sequential_for_seeded_work() {
        let draw = |seed: u64| {
            let mut rng = SimRng::new(seed);
            (0..100).map(|_| rng.unit()).sum::<f64>()
        };
        let seeds: Vec<u64> = (0..16).collect();
        set_jobs(1);
        let sequential = par_map(seeds.clone(), draw);
        set_jobs(4);
        let parallel = par_map(seeds, draw);
        set_jobs(0);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_tallies_fold_into_caller() {
        use crate::engine::{EventQueue, Simulation, World};
        use crate::time::{SimDuration, SimTime};

        struct Ticker(u32);
        impl World for Ticker {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), q: &mut EventQueue<()>) {
                if self.0 > 0 {
                    self.0 -= 1;
                    q.schedule_in(SimDuration::from_millis(1), ());
                }
            }
        }

        set_jobs(4);
        let ((), rep) = crate::report::scope(|| {
            par_map(vec![4u32; 8], |ticks| {
                let mut sim = Simulation::new(Ticker(ticks));
                sim.queue_mut().schedule_now(());
                sim.run_to_completion(1_000);
            });
        });
        set_jobs(0);
        // 8 sims × 5 events each (initial + 4 follow-ups).
        assert_eq!(rep.events_dispatched, 40);
        assert_eq!(rep.sim_time_ns, 8 * 4 * 1_000_000);
    }

    #[test]
    fn trace_capture_is_jobs_invariant() {
        use dlte_obs::{DropReason, Event};

        let run = |jobs: usize| {
            set_jobs(jobs);
            dlte_obs::set_tracing(true);
            par_map((0..12u64).collect(), |i| {
                // Two events per item, emitted on the worker thread.
                dlte_obs::emit(
                    i * 10,
                    i,
                    Event::Drop {
                        reason: DropReason::Queue,
                        bytes: i as u32,
                    },
                );
                dlte_obs::emit(i * 10 + 1, i, Event::FaultLink { link: i, up: true });
                i
            });
            let recs = dlte_obs::take_records();
            dlte_obs::set_tracing(false);
            set_jobs(0);
            recs
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential.len(), 24);
        assert_eq!(sequential, parallel, "record stream depends on jobs");
        // Input order, densely sequenced.
        for (i, r) in sequential.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn worker_metrics_fold_into_caller() {
        let _ = dlte_obs::metrics::take();
        set_jobs(4);
        par_map((0..8u64).collect(), |i| {
            dlte_obs::metrics::counter_add("drops_queue", i);
        });
        set_jobs(0);
        let snap = dlte_obs::metrics::take();
        assert_eq!(snap.counters["drops_queue"], 28);
        assert!(snap.histograms.contains_key("par_worker_ms"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        set_jobs(2);
        let result = std::panic::catch_unwind(|| {
            par_map(vec![0u32, 1, 2, 3], |x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        });
        set_jobs(0);
        match result {
            Ok(_) => {}
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}
