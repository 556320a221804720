//! Span reconstruction: turn start/end event pairs back into latency
//! spans.
//!
//! [`pair_spans`] walks a record stream and matches every
//! [`Event::NasStart`] with its [`Event::NasEnd`] on the same
//! `(node, proc, imsi)` key. Nested re-entries of the same key pair
//! LIFO (innermost end closes the most recent start). A
//! [`Event::FaultNode`]`{up: false}` closes every span still open on the
//! crashed node as [`SpanOutcome::Interrupted`]; spans never closed at
//! all come back as [`SpanOutcome::Unclosed`] with zero duration.

use crate::event::{Event, NasProc, Record};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a reconstructed span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanOutcome {
    /// Matching end event with `ok: true`.
    Ok,
    /// Matching end event with `ok: false` (reject / failure).
    Failed,
    /// The node crashed while the span was open.
    Interrupted,
    /// The stream ended with the span still open.
    Unclosed,
}

/// One reconstructed procedure span.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub node: u64,
    pub proc: NasProc,
    /// The pairing key (IMSI for NAS procedures).
    pub key: u64,
    pub start_ns: u64,
    /// End timestamp; equals `start_ns` for unclosed spans.
    pub end_ns: u64,
    pub outcome: SpanOutcome,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Reconstruct spans from a record stream. Spans are returned in start
/// order.
pub fn pair_spans(records: &[Record]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    // (node, proc, key) → stack of indices into `out` still open.
    let mut open: BTreeMap<(u64, NasProc, u64), Vec<usize>> = BTreeMap::new();
    for r in records {
        match &r.event {
            Event::NasStart { proc, imsi } => {
                out.push(Span {
                    node: r.node,
                    proc: *proc,
                    key: *imsi,
                    start_ns: r.t_ns,
                    end_ns: r.t_ns,
                    outcome: SpanOutcome::Unclosed,
                });
                open.entry((r.node, *proc, *imsi))
                    .or_default()
                    .push(out.len() - 1);
            }
            Event::NasEnd { proc, imsi, ok } => {
                if let Some(stack) = open.get_mut(&(r.node, *proc, *imsi)) {
                    if let Some(i) = stack.pop() {
                        out[i].end_ns = r.t_ns;
                        out[i].outcome = if *ok {
                            SpanOutcome::Ok
                        } else {
                            SpanOutcome::Failed
                        };
                    }
                }
            }
            Event::FaultNode { node, up: false } => {
                for ((n, _, _), stack) in open.iter_mut() {
                    if n == node {
                        for i in stack.drain(..) {
                            out[i].end_ns = r.t_ns;
                            out[i].outcome = SpanOutcome::Interrupted;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Aggregate spans into `(count, total_ns)` per procedure name — the
/// latency-breakdown view (attach = auth + session + bearer).
pub fn breakdown(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut m = BTreeMap::new();
    for s in spans {
        let e = m.entry(s.proc.name()).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, NasProc};

    fn rec(t_ns: u64, node: u64, event: Event) -> Record {
        Record {
            seq: 0,
            t_ns,
            node,
            event,
        }
    }

    fn start(t: u64, node: u64, proc: NasProc, imsi: u64) -> Record {
        rec(t, node, Event::NasStart { proc, imsi })
    }

    fn end(t: u64, node: u64, proc: NasProc, imsi: u64, ok: bool) -> Record {
        rec(t, node, Event::NasEnd { proc, imsi, ok })
    }

    #[test]
    fn simple_pair_and_breakdown() {
        let recs = vec![
            start(100, 1, NasProc::Attach, 7),
            start(110, 1, NasProc::Auth, 7),
            end(150, 1, NasProc::Auth, 7, true),
            end(200, 1, NasProc::Attach, 7, true),
        ];
        let spans = pair_spans(&recs);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].proc, NasProc::Attach);
        assert_eq!(spans[0].duration_ns(), 100);
        assert_eq!(spans[0].outcome, SpanOutcome::Ok);
        assert_eq!(spans[1].proc, NasProc::Auth);
        assert_eq!(spans[1].duration_ns(), 40);
        let b = breakdown(&spans);
        assert_eq!(b["attach"], (1, 100));
        assert_eq!(b["auth"], (1, 40));
    }

    #[test]
    fn unclosed_span_survives_with_zero_duration() {
        let recs = vec![start(100, 1, NasProc::Attach, 7)];
        let spans = pair_spans(&recs);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Unclosed);
        assert_eq!(spans[0].duration_ns(), 0);
    }

    #[test]
    fn nested_same_key_spans_pair_lifo() {
        // A re-attach begins before the first attach's (stale) end arrives:
        // the end closes the innermost start.
        let recs = vec![
            start(100, 1, NasProc::Attach, 7),
            start(200, 1, NasProc::Attach, 7),
            end(250, 1, NasProc::Attach, 7, true),
            end(300, 1, NasProc::Attach, 7, false),
        ];
        let spans = pair_spans(&recs);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_ns, 100);
        assert_eq!(spans[0].end_ns, 300, "outer closed by the later end");
        assert_eq!(spans[0].outcome, SpanOutcome::Failed);
        assert_eq!(spans[1].start_ns, 200);
        assert_eq!(spans[1].end_ns, 250, "inner closed first");
        assert_eq!(spans[1].outcome, SpanOutcome::Ok);
    }

    #[test]
    fn node_crash_interrupts_open_spans_on_that_node_only() {
        let recs = vec![
            start(100, 1, NasProc::Attach, 7),
            start(100, 2, NasProc::Attach, 8),
            rec(150, 1, Event::FaultNode { node: 1, up: false }),
            end(200, 2, NasProc::Attach, 8, true),
        ];
        let spans = pair_spans(&recs);
        assert_eq!(spans[0].outcome, SpanOutcome::Interrupted);
        assert_eq!(spans[0].end_ns, 150);
        assert_eq!(spans[1].outcome, SpanOutcome::Ok, "other node unaffected");
    }

    #[test]
    fn end_after_crash_does_not_resurrect() {
        let recs = vec![
            start(100, 1, NasProc::Attach, 7),
            rec(150, 1, Event::FaultNode { node: 1, up: false }),
            end(200, 1, NasProc::Attach, 7, true),
        ];
        let spans = pair_spans(&recs);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].outcome, SpanOutcome::Interrupted);
        assert_eq!(spans[0].end_ns, 150);
    }

    #[test]
    fn unmatched_end_is_ignored() {
        let recs = vec![end(200, 1, NasProc::Attach, 7, true)];
        assert!(pair_spans(&recs).is_empty());
    }
}
