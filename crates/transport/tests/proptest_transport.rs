//! Property-based tests for transport invariants: reassembly under
//! arbitrary reordering/duplication, the received-set against a naive
//! reference, FEC semantics, RTO bounds, and loss-free end-to-end agreement
//! of the connection machines.

use dlte_sim::{SimDuration, SimRng, SimTime};
use dlte_transport::connection::{ClientConn, ServerConn, TransportConfig};
use dlte_transport::fec::{recoverable, FecEncoder};
use dlte_transport::received::ReceivedSet;
use dlte_transport::rtt::RttEstimator;
use dlte_transport::streams::StreamAssembler;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reference ack ranges: walk every received number from the top, merging
/// neighbours, and stop at the 33rd range.
fn naive_ack_ranges(received: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for &pn in received.iter().rev() {
        match ranges.last_mut() {
            Some((lo, _)) if *lo == pn + 1 => *lo = pn,
            _ => {
                if ranges.len() >= 32 {
                    break;
                }
                ranges.push((pn, pn));
            }
        }
    }
    ranges
}

proptest! {
    /// `ReceivedSet` answers exactly as a plain set plus the top-down walk.
    /// Scattered arrivals (duplicates, gaps, well over 32 runs), then an
    /// in-order streak of up to several thousand that swallows some of
    /// them, then scattered arrivals above and inside it. After every
    /// insert: the same `insert` result, membership on a probe grid and ack
    /// ranges. The streak length is log-uniform because the reference walk
    /// makes a streak quadratic to check.
    #[test]
    fn received_set_matches_reference(
        before in prop::collection::vec(0u64..400, 0..80),
        streak_start in 0u64..400,
        streak_log2 in 0u32..13,
        streak_jitter in 0u64..64,
        after in prop::collection::vec(0u64..4_800, 0..120),
    ) {
        let mut set = ReceivedSet::default();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let streak = streak_start..streak_start + (1 << streak_log2) + streak_jitter;
        for pn in before.iter().copied().chain(streak).chain(after.iter().copied()) {
            prop_assert_eq!(set.insert(pn), model.insert(pn), "insert {}", pn);
            let near = [pn.saturating_sub(1), pn, pn + 1];
            for probe in near.into_iter().chain((0..4_900).step_by(491)) {
                prop_assert_eq!(set.contains(probe), model.contains(&probe), "probe {}", probe);
            }
            prop_assert_eq!(set.ack_ranges(), naive_ack_ranges(&model), "after {}", pn);
        }
    }

    /// Whatever order (and however duplicated) segments arrive in, the
    /// assembler delivers each byte exactly once and ends fully drained.
    #[test]
    fn assembler_delivers_exactly_once(
        n_segs in 1usize..40,
        seed in 0u64..500,
        dup_prob in 0.0f64..0.5,
    ) {
        let seg_len = 100u32;
        let mut order: Vec<u64> = (0..n_segs as u64).collect();
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut order);
        let mut a = StreamAssembler::new();
        let mut delivered_total = 0u64;
        for &i in &order {
            delivered_total += a.insert(i * seg_len as u64, seg_len, false);
            if rng.chance(dup_prob) {
                // Duplicate delivers nothing new.
                prop_assert_eq!(a.insert(i * seg_len as u64, seg_len, false), 0);
            }
        }
        prop_assert_eq!(delivered_total, n_segs as u64 * seg_len as u64);
        prop_assert_eq!(a.delivered(), delivered_total);
        prop_assert_eq!(a.pending_segments(), 0, "fully drained");
    }

    /// Delivered count never decreases and never exceeds the contiguous
    /// byte horizon.
    #[test]
    fn assembler_monotone(
        inserts in prop::collection::vec((0u64..5_000, 1u32..300), 1..60),
    ) {
        let mut a = StreamAssembler::new();
        let mut prev = 0;
        for &(off, len) in &inserts {
            a.insert(off, len, false);
            prop_assert!(a.delivered() >= prev);
            prev = a.delivered();
        }
    }

    /// FEC encoder covers every data packet exactly once across groups.
    #[test]
    fn fec_groups_partition(k in 1u32..10, n in 1u64..100) {
        let mut enc = FecEncoder::new(k);
        let mut covered: Vec<u64> = Vec::new();
        for pn in 0..n {
            if let Some(group) = enc.on_data(pn) {
                covered.extend(group);
            }
        }
        if let Some(group) = enc.flush() {
            covered.extend(group);
        }
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..n).collect::<Vec<_>>());
    }

    /// `recoverable` returns Some iff exactly one cover is missing.
    #[test]
    fn fec_recoverable_semantics(
        covers in prop::collection::btree_set(0u64..50, 1..10),
        received in prop::collection::btree_set(0u64..50, 0..50),
    ) {
        let covers: Vec<u64> = covers.into_iter().collect();
        let missing: Vec<u64> = covers
            .iter()
            .filter(|pn| !received.contains(pn))
            .copied()
            .collect();
        let got = recoverable(&received.into_iter().collect(), &covers);
        match missing.len() {
            1 => prop_assert_eq!(got, Some(missing[0])),
            _ => prop_assert_eq!(got, None),
        }
    }

    /// RTO stays within [min, max] under arbitrary sample/timeout
    /// interleavings.
    #[test]
    fn rto_bounded(ops in prop::collection::vec((any::<bool>(), 1u64..2_000), 1..100)) {
        let mut r = RttEstimator::new();
        for &(is_sample, ms) in &ops {
            if is_sample {
                r.sample(SimDuration::from_millis(ms));
            } else {
                r.on_timeout();
            }
            prop_assert!(r.rto() >= r.min_rto);
            prop_assert!(r.rto() <= r.max_rto);
        }
    }

    /// Over a perfect channel, client and server agree on the byte count
    /// for arbitrary multi-stream workloads, with zero retransmissions.
    #[test]
    fn lossless_transfer_agreement(
        chunks in prop::collection::vec((1u64..4, 1u64..20_000), 1..6),
        fec in prop_oneof![Just(0u32), Just(4u32), Just(8u32)],
    ) {
        let cfg = TransportConfig {
            fec_k: fec,
            ..TransportConfig::default()
        };
        let mut c = ClientConn::new(9, cfg);
        let mut s = ServerConn::new(77, cfg);
        let mut total = 0;
        for &(stream, bytes) in &chunks {
            c.queue(stream, bytes, false);
            total += bytes;
        }
        c.connect(SimTime::ZERO, None);
        // Pump until quiescent.
        for _ in 0..500 {
            let out = c.take_output();
            if out.is_empty() {
                break;
            }
            for f in &out {
                s.on_frame(SimTime::from_millis(1), f);
            }
            for f in s.take_output() {
                c.on_frame(SimTime::from_millis(2), &f);
            }
        }
        prop_assert_eq!(c.acked_bytes(), total);
        prop_assert_eq!(c.retransmissions, 0);
        // Server delivered every byte in order per stream.
        prop_assert_eq!(s.delivered(9), total);
    }

    /// Migration conservation under chaos: however much seeded loss and
    /// reordering the channel inflicts — including dropping the very frames
    /// in flight across one or more address switches — a migrating
    /// connection accounts for every queued byte once the storm ends:
    /// everything is eventually acknowledged and the server delivers each
    /// byte exactly once. In-flight data is never silently truncated.
    #[test]
    fn migration_conserves_bytes_under_loss_and_reorder(
        chunks in prop::collection::vec((1u64..4, 1u64..20_000), 1..6),
        seed in 0u64..500,
        loss in 0.0f64..0.45,
        n_migrations in 1usize..4,
        fec in prop_oneof![Just(0u32), Just(4u32)],
    ) {
        let cfg = TransportConfig {
            fec_k: fec,
            ..TransportConfig::default()
        };
        prop_assert!(cfg.migration, "modern default must migrate");
        let mut c = ClientConn::new(9, cfg);
        let mut s = ServerConn::new(77, cfg);
        let mut rng = SimRng::new(seed).fork("migration-chaos");
        let mut total = 0;
        for &(stream, bytes) in &chunks {
            c.queue(stream, bytes, false);
            total += bytes;
        }
        // Handshake over a clean channel so the address switches land on an
        // established connection (the migration path under test).
        c.connect(SimTime::ZERO, None);
        for f in c.take_output() {
            s.on_frame(SimTime::from_millis(1), &f);
        }
        for f in s.take_output() {
            c.on_frame(SimTime::from_millis(2), &f);
        }
        prop_assert!(c.is_established());

        // The storm: per-frame loss both ways, per-round reordering, and
        // address switches at seeded rounds while data is in flight.
        let mut migrate_at: Vec<usize> = (0..n_migrations)
            .map(|_| 1 + rng.index(40))
            .collect();
        migrate_at.sort_unstable();
        let mut migrations_seen = 0u64;
        for round in 0..2_000usize {
            let now = SimTime::from_millis(10 + 50 * round as u64);
            let stormy = round < 40;
            if stormy && migrate_at.contains(&round) {
                c.on_address_change(now);
                migrations_seen += 1;
            }
            c.on_tick(now);
            let mut up = c.take_output();
            if stormy {
                rng.shuffle(&mut up);
                up.retain(|_| !rng.chance(loss));
            }
            for f in &up {
                s.on_frame(now, f);
            }
            let mut down = s.take_output();
            if stormy {
                rng.shuffle(&mut down);
                down.retain(|_| !rng.chance(loss));
            }
            for f in &down {
                c.on_frame(now, f);
            }
            if c.acked_bytes() == total {
                break;
            }
        }
        // Conservation: every queued byte is accounted for.
        prop_assert_eq!(c.acked_bytes(), total, "queued bytes silently truncated");
        prop_assert_eq!(c.queued_bytes(), total);
        // The connection survived each switch rather than resetting: same
        // CID throughout, and one Migrated event per switch.
        prop_assert_eq!(c.cid(), 9);
        let migrated = c
            .take_events()
            .iter()
            .filter(|e| matches!(e, dlte_transport::connection::ConnEvent::Migrated))
            .count() as u64;
        prop_assert_eq!(migrated, migrations_seen);
        // Exactly-once delivery at the server: duplicates from spurious
        // retransmissions deliver nothing new.
        prop_assert_eq!(s.delivered(9), total);
    }
}
