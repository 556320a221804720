//! Mobility oracles: serving exclusivity, session residency, bounded
//! service gaps, and migration conservation.
//!
//! The dLTE §4.2 mobility story replaces core-managed handover with
//! detach → re-attach plus endpoint transports. That trade is only safe if
//! the churn it generates preserves four invariants, checked here from
//! post-run evidence:
//!
//! * **Serving exclusivity** — no IMSI is served by two cores in the same
//!   instant. Each local core logs its served intervals
//!   ([`SpanView`]); overlapping spans for one IMSI mean two APs both
//!   believed they owned the UE (split-brain addresses, double-routed
//!   downlink).
//! * **Session residency** — once a handover completes, the UE's single
//!   open session lives at the core it moved *to*; an open span anywhere
//!   else is a stranded session the detach failed to clean up.
//! * **Bounded service gap** — every handover gap the UE measured is under
//!   the dwell-plus-recovery budget; an unbounded gap means a move
//!   blackholed instead of re-attaching.
//! * **Migration conservation** ([`check_migration`]) — a transport
//!   connection that rode an address change accounts for every queued
//!   byte: acknowledged, still in flight, or cleanly errored — never
//!   silently truncated.

use crate::{Bounds, Violation};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One served interval of an IMSI at one core, exported from the local
/// core's session log. `end_ns == None` means still open at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanView {
    pub core: usize,
    pub imsi: u64,
    pub start_ns: u64,
    #[serde(default)]
    pub end_ns: Option<u64>,
}

/// Per-UE mobility observations at snapshot time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MobilityUeView {
    pub imsi: u64,
    pub attached: bool,
    /// Index of the core/AP the UE currently camps on (`None` when the
    /// architecture has no per-AP cores, e.g. centralized LTE).
    #[serde(default)]
    pub serving_core: Option<usize>,
    /// Cell changes executed.
    pub moves: u64,
    /// Handover gaps the UE measured (move → first echo on the new cell),
    /// milliseconds.
    #[serde(default)]
    pub gaps_ms: Vec<f64>,
}

/// Everything the mobility oracles consume.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct MobilityEvidence {
    /// Longest scheduled dwell in the movement plan, seconds (the gap
    /// budget scales with it: a UE may legitimately sit out one dwell at a
    /// faulted AP before moving somewhere serviceable).
    pub max_dwell_s: f64,
    /// Served intervals from every core that logs them (empty when the
    /// architecture does not instrument spans).
    pub spans: Vec<SpanView>,
    pub ues: Vec<MobilityUeView>,
}

/// A transport connection's byte accounting across address migrations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationView {
    pub imsi: u64,
    /// Bytes the application handed to the connection.
    pub queued_bytes: u64,
    /// Bytes the peer acknowledged.
    pub acked_bytes: u64,
    /// Bytes sent but not yet acknowledged (still retransmittable).
    pub in_flight_bytes: u64,
    /// The connection surfaced a terminal error to the application.
    pub errored: bool,
}

fn span_end(s: &SpanView, snapshot_ns: u64) -> u64 {
    s.end_ns.unwrap_or(snapshot_ns)
}

/// Serving exclusivity + session residency + gap bound over one snapshot.
pub fn check_mobility(ev: &MobilityEvidence, elapsed_s: f64, bounds: &Bounds) -> Vec<Violation> {
    const O: &str = "mobility";
    let mut v = Vec::new();
    let snapshot_ns = (elapsed_s * 1e9) as u64;

    // Serving exclusivity: per IMSI, no two spans strictly overlap. A span
    // ending exactly when the next starts is fine (the detach and the new
    // accept can land in the same nanosecond of simulated time).
    let mut by_imsi: BTreeMap<u64, Vec<&SpanView>> = BTreeMap::new();
    for s in &ev.spans {
        if s.end_ns.is_some_and(|e| e < s.start_ns) {
            v.push(Violation::new(
                O,
                format!(
                    "core {}: span for imsi {} ends before it starts ({:?} < {})",
                    s.core, s.imsi, s.end_ns, s.start_ns
                ),
            ));
        }
        by_imsi.entry(s.imsi).or_default().push(s);
    }
    for (imsi, mut spans) in by_imsi {
        spans.sort_by_key(|s| (s.start_ns, s.core));
        for w in spans.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b.start_ns < span_end(a, snapshot_ns) {
                v.push(Violation::new(
                    O,
                    format!(
                        "imsi {imsi} served by two cores at once: core {} [{}, {:?}] \
                         overlaps core {} starting {}",
                        a.core, a.start_ns, a.end_ns, b.core, b.start_ns
                    ),
                ));
            }
        }
    }

    // Session residency (only meaningful when cores log spans): an
    // attached UE's single open span lives at its serving core; a
    // detached UE has none.
    if !ev.spans.is_empty() {
        let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for s in &ev.spans {
            if s.end_ns.is_none() {
                open.entry(s.imsi).or_default().push(s.core);
            }
        }
        for ue in &ev.ues {
            let cores = open.remove(&ue.imsi).unwrap_or_default();
            match (ue.attached, ue.serving_core, cores.as_slice()) {
                (true, Some(serving), [core]) if *core != serving => v.push(Violation::new(
                    O,
                    format!(
                        "imsi {}: attached at core {serving} but the open session \
                         lives at core {core} (handover left it behind)",
                        ue.imsi
                    ),
                )),
                (true, Some(serving), []) => v.push(Violation::new(
                    O,
                    format!(
                        "imsi {}: attached at core {serving} but no core holds an \
                         open session",
                        ue.imsi
                    ),
                )),
                (_, _, many) if many.len() > 1 => v.push(Violation::new(
                    O,
                    format!(
                        "imsi {}: {} open sessions across cores {many:?}",
                        ue.imsi,
                        many.len()
                    ),
                )),
                (false, _, [core]) => v.push(Violation::new(
                    O,
                    format!(
                        "imsi {}: detached but core {core} still holds an open \
                         session (stranded by a move)",
                        ue.imsi
                    ),
                )),
                _ => {}
            }
        }
        for (imsi, cores) in open {
            v.push(Violation::new(
                O,
                format!("open session for unknown imsi {imsi} at cores {cores:?}"),
            ));
        }
    }

    // Bounded service gap: dwell (the UE may sit one full dwell at a
    // faulted AP before its schedule moves it on) plus the recovery budget
    // (backoff cap + detection + re-attach).
    let budget_ms = (ev.max_dwell_s + bounds.recovery_bound_s) * 1_000.0;
    for ue in &ev.ues {
        for &gap in &ue.gaps_ms {
            if gap > budget_ms {
                v.push(Violation::new(
                    O,
                    format!(
                        "imsi {}: service gap {gap:.0}ms exceeds dwell+recovery \
                         budget {budget_ms:.0}ms",
                        ue.imsi
                    ),
                ));
            }
        }
    }
    v
}

/// Migration conservation: every byte queued on a migrating connection is
/// acknowledged or still in flight, unless the connection cleanly errored.
/// Catches the silent-truncation failure mode where an address change
/// drops queued data without telling the application.
pub fn check_migration(conns: &[MigrationView]) -> Vec<Violation> {
    let mut v = Vec::new();
    for c in conns {
        if c.errored {
            continue; // a surfaced error is a legitimate outcome
        }
        if c.acked_bytes + c.in_flight_bytes != c.queued_bytes {
            v.push(Violation::new(
                "migration",
                format!(
                    "imsi {}: {} bytes queued but only {} acked + {} in flight \
                     (silent truncation)",
                    c.imsi, c.queued_bytes, c.acked_bytes, c.in_flight_bytes
                ),
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(core: usize, imsi: u64, start_ns: u64, end_ns: Option<u64>) -> SpanView {
        SpanView {
            core,
            imsi,
            start_ns,
            end_ns,
        }
    }

    fn ue(imsi: u64, attached: bool, serving: Option<usize>) -> MobilityUeView {
        MobilityUeView {
            imsi,
            attached,
            serving_core: serving,
            moves: 1,
            gaps_ms: vec![],
        }
    }

    #[test]
    fn clean_handover_history_passes() {
        let ev = MobilityEvidence {
            max_dwell_s: 2.0,
            spans: vec![
                span(0, 1000, 0, Some(5_000_000_000)),
                span(1, 1000, 5_100_000_000, None),
            ],
            ues: vec![ue(1000, true, Some(1))],
        };
        assert_eq!(check_mobility(&ev, 10.0, &Bounds::default()), Vec::new());
    }

    #[test]
    fn overlapping_spans_are_split_brain() {
        // Core 0 never saw the detach; core 1 accepted while 0 still serves.
        let ev = MobilityEvidence {
            max_dwell_s: 2.0,
            spans: vec![
                span(0, 1000, 0, Some(6_000_000_000)),
                span(1, 1000, 5_000_000_000, None),
            ],
            ues: vec![ue(1000, true, Some(1))],
        };
        let v = check_mobility(&ev, 10.0, &Bounds::default());
        assert!(v.iter().any(|x| x.detail.contains("two cores at once")));
    }

    #[test]
    fn open_span_without_detach_is_an_overlap_too() {
        // The stranded span is open; the exclusivity check must treat it
        // as running to the snapshot, not ignore it.
        let ev = MobilityEvidence {
            max_dwell_s: 2.0,
            spans: vec![span(0, 1000, 0, None), span(1, 1000, 5_000_000_000, None)],
            ues: vec![ue(1000, true, Some(1))],
        };
        let v = check_mobility(&ev, 10.0, &Bounds::default());
        assert!(v.iter().any(|x| x.detail.contains("two cores at once")));
        assert!(v.iter().any(|x| x.detail.contains("open sessions across")));
    }

    #[test]
    fn stranded_and_misplaced_sessions_are_flagged() {
        // Detached UE with an open span; attached UE whose session lives
        // at the core it left.
        let ev = MobilityEvidence {
            max_dwell_s: 2.0,
            spans: vec![span(0, 1000, 0, None), span(1, 2000, 0, None)],
            ues: vec![ue(1000, false, None), ue(2000, true, Some(0))],
        };
        let v = check_mobility(&ev, 10.0, &Bounds::default());
        assert!(v.iter().any(|x| x.detail.contains("stranded by a move")));
        assert!(v.iter().any(|x| x.detail.contains("left it behind")));
    }

    #[test]
    fn gap_budget_scales_with_dwell() {
        let mut view = ue(1000, true, Some(0));
        view.gaps_ms = vec![29_500.0];
        let ev = MobilityEvidence {
            max_dwell_s: 2.0,
            spans: vec![span(0, 1000, 0, None)],
            ues: vec![view],
        };
        // Budget = (2 + 28) s = 30 s: a 29.5 s gap passes...
        assert_eq!(check_mobility(&ev, 40.0, &Bounds::default()), Vec::new());
        // ...but shrinking the dwell to 1 s (29 s budget) condemns it.
        let tight = MobilityEvidence {
            max_dwell_s: 1.0,
            ..ev
        };
        let v = check_mobility(&tight, 40.0, &Bounds::default());
        assert!(v
            .iter()
            .any(|x| x.detail.contains("exceeds dwell+recovery")));
    }

    #[test]
    fn migration_truncation_is_flagged() {
        let ok = MigrationView {
            imsi: 1,
            queued_bytes: 1_000,
            acked_bytes: 900,
            in_flight_bytes: 100,
            errored: false,
        };
        let truncated = MigrationView {
            imsi: 2,
            queued_bytes: 1_000,
            acked_bytes: 900,
            in_flight_bytes: 0,
            errored: false,
        };
        let errored = MigrationView {
            errored: true,
            ..truncated
        };
        assert!(check_migration(&[ok]).is_empty());
        assert_eq!(check_migration(&[truncated]).len(), 1);
        assert!(
            check_migration(&[errored]).is_empty(),
            "clean error is not truncation"
        );
    }

    #[test]
    fn mobility_evidence_round_trips_and_defaults() {
        let ev = MobilityEvidence {
            max_dwell_s: 1.5,
            spans: vec![span(0, 1000, 7, Some(9))],
            ues: vec![ue(1000, true, Some(0))],
        };
        let json = serde_json::to_string(&ev).unwrap();
        let back: MobilityEvidence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
        // Old evidence without the mobility block parses to the default.
        let empty: MobilityEvidence = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, MobilityEvidence::default());
    }
}
