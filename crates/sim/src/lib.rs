//! # dlte-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate every other `dlte-*` crate runs on. It provides:
//!
//! * a simulated clock with nanosecond resolution ([`SimTime`], [`SimDuration`]),
//! * a deterministic event queue and driver loop ([`EventQueue`], [`Simulation`],
//!   [`World`]),
//! * a seeded, forkable random number source ([`SimRng`]) so that every
//!   experiment in the dLTE reproduction is exactly repeatable from its seed,
//! * statistics collectors used by the experiment harness ([`stats`]),
//! * run instrumentation ([`report`]) and a deterministic thread fan-out
//!   ([`par_map`]) used by the experiment runner.
//!
//! ## Design notes
//!
//! Each shard of a simulation runs single-threaded and synchronous; the
//! deterministic engine makes every experiment reproducible bit-for-bit
//! and keeps the tests honest. Events scheduled for the same instant are
//! delivered in canonical `(time, origin, oseq)` order — a tie-break that
//! depends only on each scheduler's own history, never on global queue
//! state — which removes the classic source of heisen-results in
//! event-driven simulators *and* makes dispatch order independent of how
//! the topology is partitioned.
//!
//! Parallelism enters in two places, both deterministic:
//!
//! * *across* runs, [`par_map`] fans independent, seeded simulations out
//!   over threads and returns their results in input order, so a parallel
//!   sweep is bit-identical to a sequential one;
//! * *within* a run, [`shard::run_sharded`] partitions one topology into
//!   shards advancing under conservative (lookahead-barrier) time
//!   synchronization, with results bit-identical at any shard count.

#![forbid(unsafe_code)]

pub mod engine;
pub mod par;
pub mod report;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use engine::{EventQueue, RunOutcome, Simulation, World};
pub use par::{par_map, set_jobs};
pub use report::RunReport;
pub use rng::SimRng;
pub use shard::{run_sharded, set_shards, shards, OutMsg, ShardPlan, ShardWorld};
pub use time::{SimDuration, SimTime};
