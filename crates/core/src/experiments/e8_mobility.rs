//! E8 — §4.2: endpoint mobility. Clients get a new address at each AP and
//! transports resume; the approach "may break down... as the client's time
//! on a single AP approaches the same order of magnitude as a round trip
//! to an in use OTT service."
//!
//! Sweep the dwell time per AP and the Internet distance, measure the
//! service gap per cell change:
//!
//! * centralized LTE: S1 path switch (IP preserved) — the gap is the
//!   control-plane switch time;
//! * dLTE: detach → attach (new IP) → application traffic resumes — the
//!   gap includes the attach and the first round trip to the OTT service;
//! * availability = 1 − gap/dwell: the §4.2 breakdown shows up as
//!   availability collapsing when dwell ≈ gap.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::UeApp;
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// Dwell time on each AP before moving, seconds.
    pub dwell_s: Vec<f64>,
    /// One-way Internet delay to the OTT service, ms.
    pub inet_delay_ms: u64,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            dwell_s: vec![10.0, 5.0, 2.0, 1.0, 0.5],
            inet_delay_ms: 10,
            seed: 1,
        }
    }
}

/// Schedule of alternating cell changes covering `total_s` seconds.
fn schedule(dwell_s: f64, total_s: f64) -> Vec<(SimTime, usize)> {
    let mut out = Vec::new();
    let mut t = 2.0 + dwell_s; // settle, then start moving
    let mut cell = 1;
    while t < total_s - 1.0 {
        out.push((SimTime::from_secs_f64(t), cell));
        cell = 1 - cell;
        t += dwell_s;
    }
    out
}

struct Arm {
    mean_gap_ms: f64,
    moves: usize,
    availability: f64,
}

/// UE 0 pings the OTT service every 25 ms while it hops between the two
/// cells; UE 1 stays home.
fn run_arm(arch: Arch, dwell_s: f64, p: &Params, total_s: f64) -> Arm {
    let sched = schedule(dwell_s, total_s);
    let n_moves = sched.len();
    let plan = move |i| UePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval: SimDuration::from_millis(25),
            probe_bytes: 100,
        },
        schedule: if i == 0 { sched.clone() } else { vec![] },
    };
    let mut d = Deployment::new(arch, 2, 1).with_ue_plan(plan);
    d.wire_all_cells = true;
    d.inet_delay = SimDuration::from_millis(p.inet_delay_ms);
    d.seed = p.seed;
    let mut net = d.build();
    net.sim
        .run_until(SimTime::from_secs_f64(total_s), 50_000_000);
    arm_from(net.ue(0).stats.handover_gap_ms.clone(), n_moves, dwell_s)
}

fn arm_from(gaps: dlte_sim::stats::Samples, n_moves: usize, dwell_s: f64) -> Arm {
    let mean = if gaps.is_empty() {
        f64::NAN
    } else {
        gaps.mean()
    };
    // Moves whose gap was never closed (no traffic resumed before the next
    // move) show up as missing samples.
    let closed = gaps.len();
    let unclosed = n_moves.saturating_sub(closed);
    let dwell_ms = dwell_s * 1_000.0;
    let lost_ms = gaps.values().iter().sum::<f64>() + unclosed as f64 * dwell_ms;
    let availability = 1.0 - (lost_ms / (n_moves.max(1) as f64 * dwell_ms)).min(1.0);
    Arm {
        mean_gap_ms: mean,
        moves: n_moves,
        availability,
    }
}

pub fn run_with(p: Params) -> Table {
    let mut t = Table::new(
        "E8",
        "Service gap per cell change vs dwell time (paper §4.2)",
        &[
            "dwell (s)",
            "LTE switch gap (ms)",
            "dLTE re-attach gap (ms)",
            "LTE availability",
            "dLTE availability",
            "moves",
        ],
    );
    for &dwell in &p.dwell_s {
        let total = (dwell * 8.0 + 6.0).min(60.0);
        let c = run_arm(Arch::Centralized, dwell, &p, total);
        let d = run_arm(Arch::Dlte, dwell, &p, total);
        t.row(vec![
            f2c(dwell),
            f2c(c.mean_gap_ms),
            f2c(d.mean_gap_ms),
            f2c(c.availability),
            f2c(d.availability),
            d.moves.to_string(),
        ]);
    }
    t.expect("dLTE's re-attach gap is the same order as LTE's path switch at rural EPC distances (the switch pays wide-area signaling; the re-attach is AP-local plus one OTT RTT); availability degrades as dwell approaches the gap — the §4.2 breakdown");
    t
}

pub fn run() -> Table {
    run_with(Params::default())
}

#[cfg(test)]
mod tests {
    #[test]
    fn shapes_hold() {
        let t = super::run_with(super::Params {
            dwell_s: vec![5.0, 0.5],
            inet_delay_ms: 10,
            seed: 2,
        });
        let lte_gap = t.column_f64(1);
        let dlte_gap = t.column_f64(2);
        let dlte_avail = t.column_f64(4);
        // At rural EPC distances the two are the same order: LTE's path
        // switch pays wide-area signaling RTTs, dLTE's re-attach is
        // AP-local plus one OTT round trip.
        assert!(
            dlte_gap[0] > 0.4 * lte_gap[0] && dlte_gap[0] < 2.5 * lte_gap[0],
            "gaps same order: dLTE {} vs LTE {}",
            dlte_gap[0],
            lte_gap[0]
        );
        // At a 5 s dwell dLTE availability is fine…
        assert!(
            dlte_avail[0] > 0.95,
            "5s dwell availability {}",
            dlte_avail[0]
        );
        // …at 0.5 s it degrades markedly (the §4.2 breakdown).
        assert!(
            dlte_avail[1] < dlte_avail[0] - 0.05,
            "availability should degrade: {} vs {}",
            dlte_avail[1],
            dlte_avail[0]
        );
    }
}
