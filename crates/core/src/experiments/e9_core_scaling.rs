//! E9 — §4.1: "each stub can be independent of others, so the one stub per
//! site model naturally scales as the total number of APs increases" —
//! versus the centralized EPC, where every attach serializes through one
//! MME/HSS.
//!
//! N UEs power on together (the morning-bus scenario); measure the mean
//! and p95 attach latency. Centralized: one EPC, N/10 eNBs. dLTE: N/10
//! APs, each with its own stub.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment};
use dlte_sim::stats::Samples;
use dlte_sim::SimTime;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    pub ue_counts: Vec<usize>,
    pub ues_per_site: usize,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            ue_counts: vec![10, 50, 100, 200],
            ues_per_site: 10,
            seed: 1,
        }
    }
}

/// Every attach latency of `n` UEs powering on together, `ues_per_site` to
/// a cell.
fn attach_latencies(arch: Arch, n: usize, p: &Params) -> Samples {
    let sites = (n / p.ues_per_site).max(1);
    let mut d = Deployment::new(arch, sites, p.ues_per_site);
    d.seed = p.seed;
    let mut net = d.build();
    net.sim.run_until(SimTime::from_secs(30), 100_000_000);
    let mut s = Samples::new();
    for ue in net.ue_nodes() {
        s.extend(&ue.stats.attach_latency_ms);
    }
    s
}

pub fn run_with(p: Params) -> Table {
    let mut t = Table::new(
        "E9",
        "Simultaneous attach storm: shared EPC vs per-AP stubs (paper §4.1)",
        &[
            "UEs",
            "EPC mean (ms)",
            "EPC p95 (ms)",
            "dLTE mean (ms)",
            "dLTE p95 (ms)",
            "attached (EPC/dLTE)",
        ],
    );
    // Each UE count is an independent pair of whole-network simulations (the
    // heaviest sweep in the suite) — fan it out across threads; par_map keeps
    // row order deterministic.
    let rows = dlte_sim::par_map(p.ue_counts.clone(), |n| {
        let c = attach_latencies(Arch::Centralized, n, &p);
        let d = attach_latencies(Arch::Dlte, n, &p);
        vec![
            n.to_string(),
            f2c(c.mean()),
            f2c(c.p95()),
            f2c(d.mean()),
            f2c(d.p95()),
            format!("{}/{}", c.len(), d.len()),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.expect("dLTE attach latency is flat in N (stubs scale with sites); the shared EPC's mean and tail grow with N as its control plane queues");
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
            ue_counts: vec![10, 100],
            ues_per_site: 10,
            seed: 2,
        });
        let epc_p95 = t.column_f64(2);
        let dlte_mean = t.column_f64(3);
        // Everyone attached.
        assert_eq!(t.rows[0][5], "10/10");
        assert_eq!(t.rows[1][5], "100/100");
        // EPC tail grows with N.
        assert!(
            epc_p95[1] > epc_p95[0] * 1.2,
            "EPC p95 {} → {}",
            epc_p95[0],
            epc_p95[1]
        );
        // dLTE mean stays flat within 20%.
        assert!(
            (dlte_mean[1] / dlte_mean[0] - 1.0).abs() < 0.2,
            "dLTE mean {} → {}",
            dlte_mean[0],
            dlte_mean[1]
        );
        // And dLTE is faster outright at scale.
        let epc_mean = t.column_f64(1);
        assert!(dlte_mean[1] < epc_mean[1]);
    }
}
