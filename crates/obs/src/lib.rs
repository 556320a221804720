//! # dlte-obs — cross-layer observability
//!
//! The shared observability substrate every `dlte-*` crate instruments
//! into. Two pieces:
//!
//! * **Structured event tracing** ([`event`], [`recorder`]): typed,
//!   serde-able [`Record`]s (NAS procedure start/end, EPS-AKA steps, HARQ
//!   tx/retx/fail, scheduler grants, GTP-U path management, fault
//!   transitions, packet drops) collected in a thread-local buffer of
//!   [`RawRecord`]s. Tracing is **off by default** and the hot-path
//!   [`emit`] is a single thread-local boolean load when disabled, so
//!   instrumented code costs nothing in ordinary runs.
//! * **Metrics registry** ([`metrics`]): named counters, gauges and
//!   log2-bucketed histograms every layer registers into. Counters are
//!   always on (they feed the deterministic `drops_*` breakdown in
//!   `RunReport`); snapshots merge commutatively so parallel sweeps
//!   aggregate independent of worker count.
//!
//! ## Determinism
//!
//! This crate sits *below* `dlte-sim`, so it cannot know about `SimTime`;
//! records carry raw nanoseconds (`t_ns`) and a `u64` node id. Event `seq`
//! numbers are assigned only when a buffer is drained via
//! [`take_records`] — `dlte-sim`'s `par_map` captures each work item's
//! raw records on the worker thread and re-absorbs them on the caller in
//! input order, so the numbered stream is byte-identical for any
//! `--jobs` count.

#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod recorder;

pub use event::{AkaStep, DropReason, Event, NasProc, Record};
pub use metrics::{HistogramSnapshot, MetricsSnapshot};
pub use recorder::{
    absorb_raw, drain_raw, emit, harq_block, set_tracing, take_records, tracing_enabled, RawRecord,
};
