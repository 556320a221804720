//! E17 — registry chaos: one identical fault schedule thrown at all three
//! §4.3 registry governance flavours.
//!
//! The same seeded AP population and the same compiled chaos schedule
//! (zone crashes with and without state loss, partitions, replica
//! desyncs) drive a centralized SAS, a federated zone grid, and one zone
//! that keeps a replicated log. The claim under test: **safety is not
//! negotiable and none of the flavours gives it up** — zero double
//! grants and zero oracle violations everywhere — so the flavours
//! differentiate purely on *availability* (what fraction of APs hold a
//! live license through the churn) and recovery traffic.

use super::Table;
use crate::registry_chaos::{run_chaos, ChaosOutcome, Flavour, RegistryWorkload};
use dlte_faults::registry::RegistryFaultPlan;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    pub seed: u64,
    /// Zones in the federated arm (the others have one zone and map the
    /// same schedule onto it).
    pub n_zones: usize,
    /// Read replicas in the replicated arm.
    pub n_replicas: usize,
    pub n_aps: usize,
    /// Side of the square service area, km.
    pub area_km: f64,
    pub contour_km: f64,
    pub lease_s: f64,
    pub max_lease_s: f64,
    pub total_s: f64,
    /// Faults in the shared chaos schedule.
    pub n_faults: usize,
    /// Fault window start/end, seconds.
    pub fault_start_s: f64,
    pub fault_end_s: f64,
    pub max_down_s: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            seed: 1,
            n_zones: 3,
            n_replicas: 2,
            n_aps: 10,
            area_km: 180.0,
            contour_km: 10.0,
            lease_s: 8.0,
            max_lease_s: 12.0,
            total_s: 60.0,
            n_faults: 4,
            fault_start_s: 8.0,
            fault_end_s: 40.0,
            max_down_s: 8.0,
        }
    }
}

fn workload(p: &Params, flavour: Flavour, plan: &RegistryFaultPlan) -> RegistryWorkload {
    RegistryWorkload {
        seed: p.seed,
        flavour,
        n_zones: p.n_zones,
        n_replicas: p.n_replicas,
        n_aps: p.n_aps,
        area_km: p.area_km,
        contour_km: p.contour_km,
        lease_s: p.lease_s,
        max_lease_s: p.max_lease_s,
        total_s: p.total_s,
        plan: plan.clone(),
    }
}

fn double_grants(out: &ChaosOutcome) -> usize {
    out.violations
        .iter()
        .filter(|v| v.oracle == "double_grant")
        .count()
}

pub fn run_with(p: Params) -> Table {
    // ONE schedule, compiled once, handed to every arm: the comparison is
    // over governance, not over luck of the fault draw.
    let plan = RegistryFaultPlan::chaos_mix(
        p.seed,
        p.n_zones,
        p.n_replicas,
        p.n_faults,
        p.fault_start_s,
        p.fault_end_s,
        p.max_down_s,
    );
    let mut arms = dlte_sim::par_map(
        vec![
            Flavour::Centralized,
            Flavour::Federated,
            Flavour::Replicated,
        ],
        |flavour| run_chaos(&workload(&p, flavour, &plan)),
    );
    let rep = arms.pop().expect("three arms");
    let fed = arms.pop().expect("three arms");
    let cent = arms.pop().expect("three arms");

    let mut t = Table::new(
        "E17",
        "Registry chaos: identical fault schedule vs centralized / federated / replicated governance",
        &["metric", "centralized", "federated", "replicated"],
    );
    let int = |f: fn(&ChaosOutcome) -> u64| {
        [
            f(&cent).to_string(),
            f(&fed).to_string(),
            f(&rep).to_string(),
        ]
    };
    let mut row = |name: &str, cells: [String; 3]| {
        let mut v = vec![name.to_string()];
        v.extend(cells);
        t.row(v);
    };
    row("grant requests", int(|o| o.requests));
    row("granted", int(|o| o.granted));
    row("denied (incl. zone-unavailable)", int(|o| o.denied));
    row("renewals ok", int(|o| o.renews_ok));
    row("renewals failed", int(|o| o.renews_failed));
    row(
        "grant availability (% of AP-ticks licensed)",
        [
            format!("{:.1}", cent.availability_pct),
            format!("{:.1}", fed.availability_pct),
            format!("{:.1}", rep.availability_pct),
        ],
    );
    row(
        "double grants (oracle)",
        [
            double_grants(&cent).to_string(),
            double_grants(&fed).to_string(),
            double_grants(&rep).to_string(),
        ],
    );
    row(
        "oracle violations (all)",
        [
            cent.violations.len().to_string(),
            fed.violations.len().to_string(),
            rep.violations.len().to_string(),
        ],
    );
    row("zone crashes", int(|o| o.zone_crashes));
    row(
        "resyncs (restarts + anti-entropy + replica adoptions)",
        int(|o| o.resyncs),
    );
    row("log compactions", int(|o| o.compactions));
    t.expect(
        "every flavour survives the identical chaos schedule with zero double grants and zero \
         oracle violations — the governance flavours trade only availability and recovery \
         traffic, never exclusivity; replica adoptions and compactions appear only in the \
         replicated arm",
    );
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
            total_s: 40.0,
            fault_end_s: 25.0,
            seed: 2,
            ..Default::default()
        });
        for (i, col) in [(1, "centralized"), (2, "federated"), (3, "replicated")] {
            let c = t.column_f64(i);
            assert!(c[0] > 0.0, "{col}: no requests");
            assert!(c[1] > 0.0, "{col}: nothing granted");
            assert!(c[3] > 0.0, "{col}: no renewals");
            assert!(c[5] > 30.0, "{col}: availability {:.1}%", c[5]);
            assert_eq!(c[6], 0.0, "{col}: double grants");
            assert_eq!(c[7], 0.0, "{col}: oracle violations");
        }
        // The schedule is identical, so the crash count is too.
        let crashes: Vec<f64> = (1..=3).map(|i| t.column_f64(i)[8]).collect();
        assert_eq!(crashes[0], crashes[1]);
        assert_eq!(crashes[1], crashes[2]);
        // Only the replicated arm compacts its log or adopts chains.
        assert_eq!(t.column_f64(1)[10], 0.0);
        assert_eq!(t.column_f64(2)[10], 0.0);
    }
}
