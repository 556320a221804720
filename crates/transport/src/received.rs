//! The receiver's record of which packet numbers have arrived.
//!
//! Stored as disjoint, non-adjacent inclusive runs (QUIC's ACK-range view,
//! RFC 9000 §19.3), so in-order delivery keeps one run however long the
//! connection lives, and an ack costs O(ranges reported) instead of a walk
//! over every packet number ever received.

use crate::frames::PacketNum;
use std::collections::BTreeMap;

/// Most ranges one ack reports. Older history is stable: anything the
/// client still cares about is recent.
const MAX_ACK_RANGES: usize = 32;

/// Received packet numbers as a run-length set.
#[derive(Clone, Debug, Default)]
pub struct ReceivedSet {
    /// Run start → run end (inclusive). Runs never overlap or touch.
    runs: BTreeMap<PacketNum, PacketNum>,
}

impl ReceivedSet {
    /// The run containing `pn`, or the nearest one below it.
    fn run_at_or_below(&self, pn: PacketNum) -> Option<(PacketNum, PacketNum)> {
        self.runs
            .range(..=pn)
            .next_back()
            .map(|(&lo, &hi)| (lo, hi))
    }

    /// Record `pn`, merging it with the neighbouring runs. Returns whether
    /// it was new.
    pub fn insert(&mut self, pn: PacketNum) -> bool {
        let below = self.run_at_or_below(pn);
        if below.is_some_and(|(_, hi)| pn <= hi) {
            return false;
        }
        // `below` ends before `pn`, so `hi + 1` cannot overflow.
        let lo = match below {
            Some((lo, hi)) if hi + 1 == pn => lo,
            _ => pn,
        };
        let hi = pn
            .checked_add(1)
            .and_then(|next| self.runs.remove(&next))
            .unwrap_or(pn);
        self.runs.insert(lo, hi);
        true
    }

    /// Whether `pn` has arrived.
    pub fn contains(&self, pn: PacketNum) -> bool {
        self.run_at_or_below(pn).is_some_and(|(_, hi)| pn <= hi)
    }

    /// The highest 32 runs, most recent first, as inclusive `(lo, hi)`
    /// ranges.
    pub fn ack_ranges(&self) -> Vec<(PacketNum, PacketNum)> {
        self.runs
            .iter()
            .rev()
            .take(MAX_ACK_RANGES)
            .map(|(&lo, &hi)| (lo, hi))
            .collect()
    }
}

impl FromIterator<PacketNum> for ReceivedSet {
    fn from_iter<I: IntoIterator<Item = PacketNum>>(iter: I) -> Self {
        let mut set = ReceivedSet::default();
        for pn in iter {
            set.insert(pn);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The merge arithmetic at both ends of the packet-number space (the
    /// reference-model proptest covers small numbers).
    #[test]
    fn extreme_packet_numbers() {
        let mut s = ReceivedSet::default();
        assert!(s.insert(PacketNum::MAX));
        assert!(s.insert(PacketNum::MAX - 1));
        assert!(s.insert(0));
        assert!(!s.insert(PacketNum::MAX));
        assert!(s.contains(PacketNum::MAX) && !s.contains(1));
        assert_eq!(
            s.ack_ranges(),
            vec![(PacketNum::MAX - 1, PacketNum::MAX), (0, 0)]
        );
    }
}
