//! The event bus: a thread-local recorder behind a zero-cost gate.
//!
//! Instrumented code calls [`emit`] unconditionally; when tracing is off
//! (the default) that is one thread-local boolean load and an early
//! return — no allocation, no branch-heavy work, nothing retained. The
//! runner flips the gate with [`set_tracing`] when `--trace` is given.
//!
//! `seq` numbers are deliberately **not** assigned at emit time: a
//! parallel sweep captures each work item's raw records on its worker
//! thread ([`drain_raw`]) and re-absorbs them on the calling thread in
//! input order ([`absorb_raw`]); [`take_records`] then numbers the
//! stitched stream 0..n, making the trace independent of the worker
//! count.

use crate::event::{Event, Record};
use std::cell::{Cell, RefCell};

/// An unsequenced event capture: `(t_ns, node, event)`.
pub type RawRecord = (u64, u64, Event);

thread_local! {
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static BUFFER: RefCell<Vec<RawRecord>> = const { RefCell::new(Vec::new()) };
}

/// Is tracing on for this thread? Instrumentation sites can check this
/// before building events whose construction itself costs something
/// (string formatting, extra RNG draws).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.with(|t| t.get())
}

/// Turn tracing on/off for this thread. Turning it off discards anything
/// still buffered.
pub fn set_tracing(on: bool) {
    TRACING.with(|t| t.set(on));
    if !on {
        BUFFER.with(|b| b.borrow_mut().clear());
    }
}

/// Record one event (no-op unless tracing is enabled).
#[inline]
pub fn emit(t_ns: u64, node: u64, event: Event) {
    if !tracing_enabled() {
        return;
    }
    BUFFER.with(|b| b.borrow_mut().push((t_ns, node, event)));
}

/// Record one HARQ-simulated transport block for `ue` at `node`: a
/// `HarqTx`, a `HarqRetx` per further attempt and a `HarqFail` if the block
/// was lost, each bumping its `harq_*` counter. The counters are interned
/// once per process, so a traced run pays an array index per block, not a
/// string-map lookup. Callers gate this on [`tracing_enabled`]: the
/// counters describe the traced HARQ model only.
pub fn harq_block(t_ns: u64, node: u64, ue: u64, transmissions: u8, delivered: bool) {
    use crate::metrics::{register_counter, CounterId};
    static IDS: std::sync::OnceLock<[CounterId; 3]> = std::sync::OnceLock::new();
    let [tx, retx, fail] = *IDS.get_or_init(|| {
        [
            register_counter("harq_tx"),
            register_counter("harq_retx"),
            register_counter("harq_fail"),
        ]
    });
    tx.add(1);
    let ok = delivered && transmissions == 1;
    emit(t_ns, node, Event::HarqTx { ue, ok });
    for attempt in 2..=transmissions {
        retx.add(1);
        let ok = delivered && attempt == transmissions;
        emit(t_ns, node, Event::HarqRetx { ue, attempt, ok });
    }
    if !delivered {
        fail.add(1);
        emit(
            t_ns,
            node,
            Event::HarqFail {
                ue,
                attempts: transmissions,
            },
        );
    }
}

/// Drain this thread's raw (unsequenced) records — the worker-thread half
/// of parallel capture.
pub fn drain_raw() -> Vec<RawRecord> {
    BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()))
}

/// Append previously drained records to this thread's buffer — the
/// caller-thread half of parallel capture. Call in input order.
pub fn absorb_raw(records: Vec<RawRecord>) {
    if records.is_empty() {
        return;
    }
    BUFFER.with(|b| b.borrow_mut().extend(records));
}

/// Drain this thread's buffer and assign final sequence numbers.
pub fn take_records() -> Vec<Record> {
    drain_raw()
        .into_iter()
        .enumerate()
        .map(|(i, (t_ns, node, event))| Record {
            seq: i as u64,
            t_ns,
            node,
            event,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropReason, Event};

    fn drop_ev(bytes: u32) -> Event {
        Event::Drop {
            reason: DropReason::Queue,
            bytes,
        }
    }

    #[test]
    fn emit_is_noop_when_disabled() {
        set_tracing(false);
        emit(1, 2, drop_ev(10));
        assert!(take_records().is_empty());
    }

    #[test]
    fn take_assigns_dense_seq() {
        set_tracing(true);
        emit(5, 1, drop_ev(1));
        emit(7, 2, drop_ev(2));
        let recs = take_records();
        set_tracing(false);
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[0].t_ns, recs[0].node), (0, 5, 1));
        assert_eq!((recs[1].seq, recs[1].t_ns, recs[1].node), (1, 7, 2));
    }

    #[test]
    fn absorb_preserves_order_and_renumbers() {
        set_tracing(true);
        emit(1, 1, drop_ev(1));
        let first = drain_raw();
        emit(2, 2, drop_ev(2));
        let second = drain_raw();
        absorb_raw(first);
        absorb_raw(second);
        let recs = take_records();
        set_tracing(false);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].t_ns, 1);
        assert_eq!(recs[1].t_ns, 2);
        assert_eq!(recs[1].seq, 1);
    }

    #[test]
    fn disabling_discards_buffer() {
        set_tracing(true);
        emit(1, 1, drop_ev(1));
        set_tracing(false);
        set_tracing(true);
        assert!(take_records().is_empty());
        set_tracing(false);
    }

    #[test]
    fn harq_block_emits_the_attempt_trail_and_counts_it() {
        let _ = crate::metrics::take();
        set_tracing(true);
        harq_block(3, 9, 4, 1, true);
        harq_block(5, 9, 4, 3, true);
        harq_block(7, 9, 4, 4, false);
        let events: Vec<Event> = take_records().into_iter().map(|r| r.event).collect();
        set_tracing(false);
        let tx = |ok| Event::HarqTx { ue: 4, ok };
        let retx = |attempt, ok| Event::HarqRetx { ue: 4, attempt, ok };
        let expected = vec![
            tx(true),
            tx(false),
            retx(2, false),
            retx(3, true),
            tx(false),
            retx(2, false),
            retx(3, false),
            retx(4, false),
            Event::HarqFail { ue: 4, attempts: 4 },
        ];
        assert_eq!(events, expected);
        let counters = crate::metrics::take().counters;
        assert_eq!(counters["harq_tx"], 3);
        assert_eq!(counters["harq_retx"], 5);
        assert_eq!(counters["harq_fail"], 1);
    }
}
