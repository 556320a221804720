//! E18 — handover storms under chaos: a moving UE *population* (not E8's
//! single scripted hop) rides a seeded waypoint plan while a fixed backhaul
//! chaos schedule plays out, and three architectures absorb the storm:
//!
//! * **centralized LTE** — S1 path switch (IP preserved, wide-area
//!   signaling per move);
//! * **dLTE** — detach → re-attach at the new AP, subscriber keys fetched
//!   from the wide-area directory on first arrival;
//! * **dLTE + X2 fetch** — re-attach, but the arriving AP first asks its
//!   fresh X2 peers for the subscriber context, skipping the directory
//!   round trip on the hot path.
//!
//! Per dwell setting the table reports the population's p99 service gap and
//! the availability (1 − lost time / offered dwell time), plus how many of
//! the X2 arm's arrivals were served by a neighbor. Every arm is seeded and
//! shard-invariant: the table is byte-identical across `--jobs`/`--shards`,
//! which `crates/bench/tests/goldens.rs` enforces against `goldens/e18.json`.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment, KeyDistribution};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::UeApp;
use dlte_faults::{FaultPlan, MovePlan, NetBreak, Window};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// Mean dwell per AP before a move, seconds (sweep axis). The waypoint
    /// model draws each dwell uniformly from ±30% of this.
    pub dwell_s: Vec<f64>,
    pub n_aps: usize,
    pub ues_per_ap: usize,
    /// Simulated horizon per arm, seconds. Moves stop 3 s before it so the
    /// last storm has room to drain.
    pub total_s: f64,
    pub seed: u64,
    /// Play the fixed backhaul chaos schedule under the storm (a flap and a
    /// loss burst on two AP backhauls). Off gives the storm-only baseline.
    pub chaos: bool,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            dwell_s: vec![4.0, 2.0, 1.0],
            n_aps: 6,
            ues_per_ap: 2,
            total_s: 16.0,
            seed: 1,
            chaos: true,
        }
    }
}

/// The population's movement plan for one dwell setting: seeded waypoint
/// churn across every AP, confined to `[2, total_s - 3)`.
fn storm_plan(p: &Params, dwell_s: f64) -> MovePlan {
    MovePlan::commuter_mix(
        p.seed,
        p.n_aps * p.ues_per_ap,
        p.n_aps,
        0.7 * dwell_s,
        1.3 * dwell_s,
        2.0,
        p.total_s - 3.0,
    )
}

/// The fixed chaos schedule, realized onto one arm's backhaul links: the
/// same shape hits every architecture at the same simulated times.
fn chaos_plan(seed: u64, backhauls: &[dlte_net::LinkId]) -> FaultPlan {
    FaultPlan::new(seed)
        .with(Window {
            at_s: 6.0,
            for_s: Some(1.2),
            what: NetBreak::LinkFlap { link: backhauls[0] },
        })
        .with(Window {
            at_s: 8.0,
            for_s: Some(1.5),
            what: NetBreak::LossBurst {
                link: backhauls[1 % backhauls.len()],
                loss: 0.3,
            },
        })
}

struct Arm {
    p99_gap_ms: f64,
    availability: f64,
    moves: u64,
    /// X2-fetch arrivals answered by a neighbor (0 for the other arms).
    x2_hits: u64,
}

/// Fold the population's per-UE gap samples and move counts into the arm
/// summary. A move whose gap never closed (no traffic resumed before the
/// snapshot) counts as a full dwell lost.
fn arm_from(gaps: Samples, moves: u64, dwell_s: f64, x2_hits: u64) -> Arm {
    let dwell_ms = dwell_s * 1_000.0;
    let closed = gaps.len() as u64;
    let unclosed = moves.saturating_sub(closed);
    let lost_ms = gaps.values().iter().sum::<f64>() + unclosed as f64 * dwell_ms;
    Arm {
        p99_gap_ms: if gaps.is_empty() {
            f64::NAN
        } else {
            gaps.p99()
        },
        availability: 1.0 - (lost_ms / (moves.max(1) as f64 * dwell_ms)).min(1.0),
        moves,
        x2_hits,
    }
}

/// One arm: the population pings the OTT service every 25 ms while it
/// rides the storm. `x2_fetch` picks the dLTE variant and is ignored by the
/// centralized arm.
fn run_arm(arch: Arch, p: &Params, dwell_s: f64, x2_fetch: bool) -> Arm {
    let mut d = Deployment::new(arch, p.n_aps, p.ues_per_ap).with_ue_plan(|_| UePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval: SimDuration::from_millis(25),
            probe_bytes: 100,
        },
        schedule: Vec::new(),
    });
    d.wire_all_cells = true;
    d.seed = p.seed;
    d.moves = storm_plan(p, dwell_s);
    d.keys = KeyDistribution::RemoteDirectory;
    d.x2_context_fetch = x2_fetch;
    let mut net = d.build();
    if p.chaos {
        chaos_plan(p.seed, &net.cell_backhaul).inject(&mut net.sim);
    }
    net.sim
        .run_until(SimTime::from_secs_f64(p.total_s), 50_000_000);
    let mut gaps = Samples::new();
    let mut moves = 0;
    for ue in net.ue_nodes() {
        gaps.extend(&ue.stats.handover_gap_ms);
        moves += ue.stats.cell_moves;
    }
    let x2_hits = net.aps().map(|ap| ap.fetch_stats.hits).sum();
    arm_from(gaps, moves, dwell_s, x2_hits)
}

pub fn run_with(p: Params) -> Table {
    let mut t = Table::new(
        "E18",
        "Handover storm under chaos: population availability and p99 gap vs dwell",
        &[
            "dwell (s)",
            "LTE p99 gap (ms)",
            "dLTE p99 gap (ms)",
            "dLTE+X2 p99 gap (ms)",
            "LTE avail",
            "dLTE avail",
            "dLTE+X2 avail",
            "moves",
            "x2 hits",
        ],
    );
    for &dwell in &p.dwell_s {
        let c = run_arm(Arch::Centralized, &p, dwell, false);
        let d = run_arm(Arch::Dlte, &p, dwell, false);
        let x = run_arm(Arch::Dlte, &p, dwell, true);
        t.row(vec![
            f2c(dwell),
            f2c(c.p99_gap_ms),
            f2c(d.p99_gap_ms),
            f2c(x.p99_gap_ms),
            f2c(c.availability),
            f2c(d.availability),
            f2c(x.availability),
            d.moves.to_string(),
            x.x2_hits.to_string(),
        ]);
    }
    t.expect("availability degrades as dwell shrinks for every arm; the X2 context fetch keeps dLTE's storm arrivals off the wide-area directory (hits > 0) so its p99 gap does not exceed plain dLTE's; the fixed chaos schedule widens tails without breaking any arm's recovery");
    t
}

pub fn run() -> Table {
    run_with(Params::default())
}

#[cfg(test)]
mod tests {
    #[test]
    fn storm_shapes_hold() {
        let t = super::run_with(super::Params {
            dwell_s: vec![3.0, 1.0],
            n_aps: 4,
            ues_per_ap: 1,
            total_s: 14.0,
            seed: 2,
            chaos: true,
        });
        let moves: Vec<f64> = t.column_f64(7);
        assert!(
            moves.iter().all(|&m| m >= 4.0),
            "population must actually move: {moves:?}"
        );
        let x2_hits = t.column_f64(8);
        assert!(
            x2_hits.iter().sum::<f64>() > 0.0,
            "X2 fetch should serve some storm arrivals"
        );
        // Availability degrades (or at best holds) as dwell shrinks 3 s → 1 s.
        let lte = t.column_f64(4);
        let dlte = t.column_f64(5);
        let x2 = t.column_f64(6);
        for (arm, a) in [("lte", &lte), ("dlte", &dlte), ("x2", &x2)] {
            assert!(
                a[1] <= a[0] + 0.02,
                "{arm} availability should not improve at shorter dwell: {a:?}"
            );
            assert!(
                a.iter().all(|&v| v > 0.2),
                "{arm} must stay serviceable under the storm: {a:?}"
            );
        }
    }
}
