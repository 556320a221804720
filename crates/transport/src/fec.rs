//! XOR-parity forward error correction.
//!
//! Sender: after every `k` data packets, emit one parity packet covering
//! them. Receiver: a group with exactly one missing data packet can be
//! repaired from the parity — no retransmission RTT paid. This is the
//! "forward error correction to mask discontinuity" of §4.2: during the
//! seconds around an AP change, isolated losses are healed locally.
//!
//! Payloads are abstract in this simulation, so the decoder tracks packet
//! *numbers*; recovering a packet means learning that its chunk can be
//! delivered (the parity frame names each covered chunk).

use crate::frames::PacketNum;
use crate::received::ReceivedSet;
use serde::{Deserialize, Serialize};

/// Sender-side group accumulator.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FecEncoder {
    group: Vec<PacketNum>,
    k: u32,
}

impl FecEncoder {
    /// `k` data packets per parity packet. `k = 0` disables FEC.
    pub fn new(k: u32) -> Self {
        FecEncoder {
            group: Vec::new(),
            k,
        }
    }

    /// Record a sent data packet; returns the cover list for a parity
    /// packet when the group is full.
    pub fn on_data(&mut self, pn: PacketNum) -> Option<Vec<PacketNum>> {
        if self.k == 0 {
            return None;
        }
        self.group.push(pn);
        if self.group.len() as u32 >= self.k {
            Some(std::mem::take(&mut self.group))
        } else {
            None
        }
    }

    /// Flush a partial group (end of transfer).
    pub fn flush(&mut self) -> Option<Vec<PacketNum>> {
        if self.k == 0 || self.group.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.group))
        }
    }
}

/// Receiver-side: which packets can a parity frame recover?
///
/// Given the set of received packet numbers and a parity cover list, if
/// exactly one covered packet is missing it is recoverable.
pub fn recoverable(received: &ReceivedSet, covers: &[PacketNum]) -> Option<PacketNum> {
    let mut missing = covers.iter().filter(|&&pn| !received.contains(pn));
    let first = missing.next()?;
    if missing.next().is_some() {
        None // ≥2 missing: XOR parity cannot help
    } else {
        Some(*first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_groups_every_k() {
        let mut e = FecEncoder::new(3);
        assert_eq!(e.on_data(0), None);
        assert_eq!(e.on_data(1), None);
        assert_eq!(e.on_data(2), Some(vec![0, 1, 2]));
        assert_eq!(e.on_data(3), None, "new group starts");
        assert_eq!(e.flush(), Some(vec![3]));
        assert_eq!(e.flush(), None, "flush is idempotent");
    }

    #[test]
    fn disabled_encoder_never_emits() {
        let mut e = FecEncoder::new(0);
        for pn in 0..10 {
            assert_eq!(e.on_data(pn), None);
        }
        assert_eq!(e.flush(), None);
    }

    #[test]
    fn single_loss_recoverable() {
        let received: ReceivedSet = [0u64, 2, 3].into_iter().collect();
        assert_eq!(recoverable(&received, &[0, 1, 2, 3]), Some(1));
    }

    #[test]
    fn no_loss_nothing_to_recover() {
        let received: ReceivedSet = [0u64, 1, 2].into_iter().collect();
        assert_eq!(recoverable(&received, &[0, 1, 2]), None);
    }

    #[test]
    fn double_loss_unrecoverable() {
        let received: ReceivedSet = [0u64, 3].into_iter().collect();
        assert_eq!(recoverable(&received, &[0, 1, 2, 3]), None);
    }
}
