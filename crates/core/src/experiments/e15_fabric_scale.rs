//! E15 — fabric scale: the packet fabric under a topology size sweep.
//!
//! The ROADMAP north star is a core that "serves heavy traffic from
//! millions of users" — which the simulator can only claim if its own
//! fabric (event scheduling, per-hop route lookup, drop accounting) holds
//! up as topologies grow. This experiment builds matched centralized-EPC
//! and dLTE networks at several sizes, drives proportional UE ping flows
//! through them, and reports the *deterministic* work counters (events
//! dispatched, packets the links accepted, echo round trips completed).
//!
//! Wall-clock throughput (events/sec) is deliberately **not** a table
//! cell: tables are golden-checked byte-for-byte across `--jobs` values
//! and machines. Timing lives in the per-run `meta` the runner attaches
//! (`dlte-run e15 --params '{"sizes":[1000]}' --json`); the repeated,
//! recorded measurement of this geometry is the `fabric_central` /
//! `fabric_dlte` workloads of `benchmark/`.

use super::Table;
use crate::scenario::{Arch, Deployment};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::UeApp;
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// Approximate total node counts to sweep (each size builds one
    /// centralized and one dLTE arm; ~10% of nodes are cells, the rest
    /// UEs).
    pub sizes: Vec<usize>,
    pub seed: u64,
    /// Simulated seconds each arm runs.
    pub total_s: f64,
    /// Per-UE echo-probe period toward the OTT server.
    pub ping_interval_ms: u64,
    pub probe_bytes: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            sizes: vec![50],
            seed: 1,
            total_s: 10.0,
            ping_interval_ms: 200,
            probe_bytes: 200,
        }
    }
}

/// One arm of the sweep: deterministic work counters, identical for a
/// given (arch, size, seed, total_s) on any machine.
#[derive(Clone, Debug)]
pub struct BenchRun {
    pub arch: String,
    pub size: usize,
    /// Actual node count of the built topology (UEs + cells + core).
    pub nodes: usize,
    pub ues: usize,
    pub events_dispatched: u64,
    /// Transmissions the links accepted — per-hop forwarding work.
    pub packets_forwarded: u64,
    /// Echo round trips completed across all UEs.
    pub pongs: u64,
}

/// size → (cells, ues_per_cell): ~10% of nodes are cells, the rest UEs,
/// capped at 255 cells: the centralized builder numbers its eNBs with one
/// address octet (`10.1.e.1`), so it cannot build more than 256.
fn shape(size: usize) -> (usize, usize) {
    let cells = (size / 10).clamp(1, 255);
    let ues = (size.saturating_sub(cells) / cells).max(1);
    (cells, ues)
}

/// One arm: every UE pings the OTT service for `total_s`.
fn run_arm(arch: Arch, size: usize, p: &Params) -> BenchRun {
    let (cells, ues_per_cell) = shape(size);
    let interval = SimDuration::from_millis(p.ping_interval_ms);
    let probe_bytes = p.probe_bytes;
    let plan = move |_| UePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval,
            probe_bytes,
        },
        ..Default::default()
    };
    let mut d = Deployment::new(arch, cells, ues_per_cell).with_ue_plan(plan);
    d.seed = p.seed;
    let mut net = d.build();
    let ((), report) = dlte_sim::report::scope(|| {
        net.sim
            .run_until(SimTime::from_secs_f64(p.total_s), u64::MAX);
    });
    BenchRun {
        arch: arch.to_string(),
        size,
        nodes: net.sim.shards()[0].world().core.nodes.len(),
        ues: net.ues.len(),
        events_dispatched: report.events_dispatched,
        packets_forwarded: net.sim.audit_merged().fabric.accepted,
        pongs: net.ue_nodes().map(|u| u.stats.pongs).sum(),
    }
}

/// Run the full sweep and return every arm, in (size, arch) order — the
/// row source of [`run_with`].
pub fn bench_runs(p: &Params) -> Vec<BenchRun> {
    let mut runs = Vec::new();
    for &size in &p.sizes {
        runs.push(run_arm(Arch::Centralized, size, p));
        runs.push(run_arm(Arch::Dlte, size, p));
    }
    runs
}

pub fn run_with(p: Params) -> Table {
    let runs = bench_runs(&p);
    let mut t = Table::new(
        "E15",
        "Fabric scale sweep: dispatch and forwarding work vs topology size, centralized EPC vs dLTE",
        &["size", "arch", "nodes", "UEs", "events", "pkts forwarded", "pongs"],
    );
    for r in &runs {
        t.row(vec![
            r.size.to_string(),
            r.arch.clone(),
            r.nodes.to_string(),
            r.ues.to_string(),
            r.events_dispatched.to_string(),
            r.packets_forwarded.to_string(),
            r.pongs.to_string(),
        ]);
    }
    t.expect(
        "work counters grow with topology size in both arms and every arm completes echo \
         round trips; the cells are deterministic (timing lives in meta and in benchmark/results/)",
    );
    t
}

pub fn run() -> Table {
    run_with(Params::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scales_and_is_deterministic() {
        let p = Params {
            sizes: vec![20, 40],
            total_s: 3.0,
            ..Default::default()
        };
        let runs = bench_runs(&p);
        assert_eq!(runs.len(), 4, "two arms per size");
        for r in &runs {
            assert!(r.events_dispatched > 0, "{} did no work", r.arch);
            assert!(r.pongs > 0, "{} size {} completed no pings", r.arch, r.size);
            assert!(r.nodes > r.ues, "cells and core nodes exist beyond UEs");
        }
        // Bigger topologies do more fabric work.
        assert!(runs[2].events_dispatched > runs[0].events_dispatched);
        assert!(runs[3].events_dispatched > runs[1].events_dispatched);
        // The deterministic counters replay exactly.
        let again = bench_runs(&p);
        for (a, b) in runs.iter().zip(&again) {
            assert_eq!(a.events_dispatched, b.events_dispatched);
            assert_eq!(a.packets_forwarded, b.packets_forwarded);
            assert_eq!(a.pongs, b.pongs);
        }
    }

    #[test]
    fn shape_allocates_ten_percent_cells() {
        assert_eq!(shape(50), (5, 9));
        assert_eq!(shape(200), (20, 9));
        assert_eq!(shape(1000), (100, 9));
        assert_eq!(shape(5), (1, 4));
        assert_eq!(shape(1), (1, 1));
    }
}
