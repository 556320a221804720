//! Receive-side stream reassembly, with and without cross-stream blocking.
//!
//! Modern mode: each stream delivers its own contiguous prefix
//! independently — a hole in stream A never delays stream B ("non head of
//! line blocking", §4.2). Legacy mode (the TCP baseline): all chunks share
//! one global sequence space and delivery is strictly in global order, so
//! one hole stalls everything.

use crate::frames::Chunk;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One stream's reassembly state: contiguous delivery offset + out-of-order
/// segments.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StreamAssembler {
    delivered: u64,
    /// Pending segments keyed by offset → (len, fin).
    pending: BTreeMap<u64, (u32, bool)>,
    fin_at: Option<u64>,
}

impl StreamAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// True once FIN's offset has been delivered.
    pub fn finished(&self) -> bool {
        matches!(self.fin_at, Some(end) if self.delivered >= end)
    }

    /// Accept a segment; returns bytes newly deliverable in order.
    pub fn insert(&mut self, offset: u64, len: u32, fin: bool) -> u64 {
        if fin {
            self.fin_at = Some(offset + len as u64);
        }
        let end = offset + len as u64;
        if end > self.delivered {
            // Store (possibly overlapping) segment; merge lazily on drain.
            let e = self.pending.entry(offset).or_insert((len, fin));
            if (e.0 as u64) < len as u64 {
                *e = (len, fin || e.1);
            }
        }
        self.drain()
    }

    fn drain(&mut self) -> u64 {
        let before = self.delivered;
        // Consume segments in offset order while they start at or before
        // the delivered horizon; each may extend it.
        while let Some(seg) = self.pending.first_entry() {
            let offset = *seg.key();
            if offset > self.delivered {
                break;
            }
            let (len, _fin) = seg.remove();
            self.delivered = self.delivered.max(offset + len as u64);
        }
        self.delivered - before
    }

    /// Number of buffered out-of-order segments (diagnostics).
    pub fn pending_segments(&self) -> usize {
        self.pending.len()
    }
}

/// Multi-stream receiver.
#[derive(Clone, Debug, Default)]
pub struct Receiver {
    /// Legacy mode: single global order across streams.
    legacy: bool,
    streams: BTreeMap<u64, StreamAssembler>,
    /// Legacy global assembler (keyed by a virtual global offset the sender
    /// guarantees: chunks must arrive tagged with disjoint global ranges —
    /// we reuse (stream, offset) ordering by mapping into one space).
    global: StreamAssembler,
}

impl Receiver {
    pub fn modern() -> Self {
        Receiver {
            legacy: false,
            ..Default::default()
        }
    }

    pub fn legacy() -> Self {
        Receiver {
            legacy: true,
            ..Default::default()
        }
    }

    /// True for the single-global-order (TCP-like) receiver.
    pub(crate) fn is_legacy(&self) -> bool {
        self.legacy
    }

    /// Accept a chunk. For legacy mode the caller provides the chunk's
    /// global offset (its position in the single byte stream); for modern
    /// mode `global_offset` is ignored.
    ///
    /// Returns total bytes newly delivered to the application.
    pub fn accept(&mut self, chunk: Chunk, global_offset: u64) -> u64 {
        if self.legacy {
            self.global.insert(global_offset, chunk.len, chunk.fin)
        } else {
            self.streams
                .entry(chunk.stream)
                .or_default()
                .insert(chunk.offset, chunk.len, chunk.fin)
        }
    }

    /// Total in-order bytes delivered.
    pub fn total_delivered(&self) -> u64 {
        if self.legacy {
            self.global.delivered()
        } else {
            self.streams.values().map(|s| s.delivered()).sum()
        }
    }

    /// Per-stream delivered bytes (modern mode; legacy reports the global
    /// count under stream 0).
    pub fn delivered_on(&self, stream: u64) -> u64 {
        if self.legacy {
            if stream == 0 {
                self.global.delivered()
            } else {
                0
            }
        } else {
            self.streams.get(&stream).map_or(0, |s| s.delivered())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(stream: u64, offset: u64, len: u32) -> Chunk {
        Chunk {
            stream,
            offset,
            len,
            fin: false,
        }
    }

    #[test]
    fn in_order_delivery() {
        let mut a = StreamAssembler::new();
        assert_eq!(a.insert(0, 100, false), 100);
        assert_eq!(a.insert(100, 100, false), 100);
        assert_eq!(a.delivered(), 200);
        assert_eq!(a.pending_segments(), 0);
    }

    #[test]
    fn hole_blocks_then_releases() {
        let mut a = StreamAssembler::new();
        assert_eq!(a.insert(100, 100, false), 0, "hole at 0..100");
        assert_eq!(a.insert(200, 100, false), 0);
        assert_eq!(a.pending_segments(), 2);
        // Filling the hole releases everything.
        assert_eq!(a.insert(0, 100, false), 300);
        assert_eq!(a.delivered(), 300);
    }

    #[test]
    fn duplicates_and_overlaps_are_harmless() {
        let mut a = StreamAssembler::new();
        a.insert(0, 100, false);
        assert_eq!(a.insert(0, 100, false), 0, "exact duplicate");
        assert_eq!(a.insert(50, 100, false), 50, "overlap extends");
        assert_eq!(a.delivered(), 150);
    }

    #[test]
    fn fin_tracking() {
        let mut a = StreamAssembler::new();
        a.insert(100, 50, true);
        assert!(!a.finished(), "fin known but hole remains");
        a.insert(0, 100, false);
        assert!(a.finished());
    }

    #[test]
    fn modern_streams_are_independent_no_hol() {
        let mut r = Receiver::modern();
        // Stream 1 has a hole; stream 2 flows freely.
        r.accept(chunk(1, 100, 100), 0);
        let d2 = r.accept(chunk(2, 0, 100), 0);
        assert_eq!(d2, 100, "stream 2 delivers despite stream 1's hole");
        assert_eq!(r.delivered_on(1), 0);
        assert_eq!(r.delivered_on(2), 100);
    }

    #[test]
    fn legacy_global_order_blocks_everything() {
        let mut r = Receiver::legacy();
        // Same arrival pattern mapped to one global sequence:
        // stream-1 chunk occupies global [0,100), stream-2 global [100,200).
        // The stream-1 chunk is lost/late, so stream-2's data stalls.
        let d = r.accept(chunk(2, 0, 100), 100);
        assert_eq!(d, 0, "legacy HoL: later global bytes stall");
        let d = r.accept(chunk(1, 0, 100), 0);
        assert_eq!(d, 200, "hole filled, everything drains");
        assert_eq!(r.total_delivered(), 200);
    }
}
