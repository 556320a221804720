//! E10 — §2.1/§4.2: tunneling everything through the EPC inflates the user
//! path; local breakout removes the detour (and its buffer bloat).
//!
//! Sweep the distance (one-way delay) between the aggregation point and
//! the EPC site. The centralized user RTT grows with it; the dLTE RTT
//! doesn't contain it at all.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::UeApp;
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    pub epc_delay_ms: Vec<u64>,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            epc_delay_ms: vec![5, 15, 30, 60],
            seed: 1,
        }
    }
}

/// Median RTT of one UE pinging the OTT service every 100 ms; the EPC
/// site sits `epc_delay_ms` from the aggregation point, which only the
/// centralized network has.
fn rtt(arch: Arch, epc_delay_ms: u64, seed: u64) -> f64 {
    let plan = |_| UePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval: SimDuration::from_millis(100),
            probe_bytes: 100,
        },
        ..Default::default()
    };
    let mut d = Deployment::new(arch, 1, 1).with_ue_plan(plan);
    d.epc.epc_delay = SimDuration::from_millis(epc_delay_ms);
    d.seed = seed;
    let mut net = d.build();
    net.sim.run_until(SimTime::from_secs(6), 10_000_000);
    net.ue(0).stats.rtt_ms.median()
}

pub fn run_with(p: Params) -> Table {
    let dlte = rtt(Arch::Dlte, 0, p.seed);
    let mut t = Table::new(
        "E10",
        "User RTT vs EPC distance: tunneled vs local breakout (paper §2.1/§4.2)",
        &[
            "EPC distance (ms one-way)",
            "centralized RTT (ms)",
            "dLTE RTT (ms)",
            "inflation (ms)",
        ],
    );
    for &d in &p.epc_delay_ms {
        let c = rtt(Arch::Centralized, d, p.seed);
        t.row(vec![d.to_string(), f2c(c), f2c(dlte), f2c(c - dlte)]);
    }
    t.expect("centralized RTT grows ~2× the EPC one-way distance; dLTE RTT is constant — the whole detour is architectural");
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
            epc_delay_ms: vec![5, 30],
            seed: 2,
        });
        let cent = t.column_f64(1);
        let dlte = t.column_f64(2);
        // dLTE constant across rows.
        assert!((dlte[0] - dlte[1]).abs() < 0.5);
        // Centralized grows by ≈ 2×25 ms between the rows.
        let growth = cent[1] - cent[0];
        assert!((45.0..55.0).contains(&growth), "growth {growth}");
        // And centralized is never cheaper.
        assert!(cent[0] > dlte[0]);
    }
}
