//! E16 — shard scale: one simulation, N engine shards.
//!
//! The ROADMAP north star is a core that "serves heavy traffic from
//! millions of users"; PR 5 made the fabric fast on one core, and this
//! experiment proves the sharded engine buys the next axis: a *single*
//! run split across cores. It builds a wide dLTE deployment (many APs,
//! every UE's traffic breaking out locally at its home AP), partitions it
//! by AP cluster ([`Deployment::build_sharded`]), and sweeps the
//! shard count over the same topology sizes.
//!
//! Two claims, both enforced here rather than eyeballed:
//!
//! * **Invariance** — events dispatched, packets forwarded and packets
//!   delivered are bit-identical at every shard count. The sweep panics
//!   if any counter diverges, so a golden run at `--shards 4` *is* the
//!   single-engine result.
//! * **Throughput** — with AP-local traffic the shards exchange no
//!   packets, so wall-clock throughput (events/sec) can scale with cores.
//!   Timing never enters the golden-checked table. The recorded
//!   measurement is the `shard_cross` workload of `benchmark/` (which,
//!   unlike this sweep, sends traffic across the cut) and its
//!   `sim.shard.speedup_2v1`.

use super::Table;
use crate::scenario::{Arch, Deployment, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_net::Addr;
use dlte_sim::SimTime;
use dlte_x2::CoordinationMode;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// Total UE counts to sweep (each size runs once per shard count).
    pub sizes: Vec<usize>,
    /// UEs homed on each AP; the AP count is `size / ues_per_ap`.
    pub ues_per_ap: usize,
    /// Shard counts to run each size at.
    pub shard_counts: Vec<usize>,
    pub seed: u64,
    /// Simulated seconds each run covers.
    pub total_s: f64,
    /// Per-UE constant uplink rate toward its paired neighbor.
    pub rate_bps: f64,
    pub packet_bytes: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            sizes: vec![600],
            ues_per_ap: 10,
            shard_counts: vec![1, 2, 4],
            seed: 1,
            total_s: 2.0,
            rate_bps: 100e3,
            packet_bytes: 400,
        }
    }
}

/// One run. The counter fields are identical for a given
/// (size, seed, total_s) at *any* shard count — enforced by
/// [`bench_runs`].
#[derive(Clone, Debug)]
pub struct ShardBenchRun {
    pub size: usize,
    pub shards: usize,
    pub nodes: usize,
    pub ues: usize,
    pub events_dispatched: u64,
    pub packets_forwarded: u64,
    /// UE↔UE packets delivered across all flows.
    pub delivered: u64,
}

fn run_one(size: usize, n_shards: usize, p: &Params) -> ShardBenchRun {
    let ues_per_ap = p.ues_per_ap.clamp(1, 250);
    let n_aps = (size / ues_per_ap).max(1);
    let (rate_bps, packet_bytes) = (p.rate_bps, p.packet_bytes);
    let mut d = Deployment::new(Arch::Dlte, n_aps, ues_per_ap).with_ue_plan(move |i| {
        let home_ap = i / ues_per_ap;
        let within = i % ues_per_ap;
        // Pair neighbors (0↔1, 2↔3, …); an odd tail UE talks to its
        // own future address — still a valid AP-local flow. Pool
        // addresses are handed out in attach order, so the peer slot
        // maps to *some* UE homed on the same AP either way: all user
        // traffic breaks out locally and never crosses shards.
        let peer = if within ^ 1 < ues_per_ap {
            within ^ 1
        } else {
            within
        };
        let pool = Deployment::ap_pool(home_ap).addr;
        DltePlan {
            app: UeApp::UplinkCbr {
                dst: Addr(pool.0 | (peer as u32 + 1)),
                rate_bps,
                packet_bytes,
            },
            ..Default::default()
        }
    });
    d.seed = p.seed;
    // Independent APs: no X2 reporting, so the only inter-shard links are
    // the (idle) backhauls — the workload the sharding is built for.
    d.x2_mode = CoordinationMode::Independent;
    let mut net = d.build_sharded(n_shards);
    let ((), report) = dlte_sim::report::scope(|| {
        net.sim
            .run_until(SimTime::from_secs_f64(p.total_s), u64::MAX);
    });
    let trace = net.sim.trace_merged();
    let delivered = trace
        .flow_ids()
        .iter()
        .map(|&f| trace.flow(f).map(|t| t.delivered_packets).unwrap_or(0))
        .sum();
    let nodes = net.sim.shards()[0].world().core.nodes.len();
    ShardBenchRun {
        size,
        shards: net.sim.num_shards(),
        nodes,
        ues: net.ues.len(),
        events_dispatched: report.events_dispatched,
        packets_forwarded: net.sim.audit_merged().fabric.accepted,
        delivered,
    }
}

/// Run the full (size × shard count) sweep and enforce the invariance
/// claim: every counter must be bit-identical across shard counts. The
/// row source of [`run_with`].
pub fn bench_runs(p: &Params) -> Vec<ShardBenchRun> {
    let mut runs = Vec::new();
    for &size in &p.sizes {
        let mut first: Option<&ShardBenchRun> = None;
        let start = runs.len();
        for &n in &p.shard_counts {
            runs.push(run_one(size, n, p));
        }
        for r in &runs[start..] {
            match first {
                None => first = Some(r),
                Some(base) => {
                    assert_eq!(
                        (r.events_dispatched, r.packets_forwarded, r.delivered),
                        (
                            base.events_dispatched,
                            base.packets_forwarded,
                            base.delivered
                        ),
                        "shard-count invariance violated at size {} ({} vs {} shards)",
                        size,
                        base.shards,
                        r.shards,
                    );
                }
            }
        }
    }
    runs
}

pub fn run_with(p: Params) -> Table {
    let runs = bench_runs(&p);
    let mut t = Table::new(
        "E16",
        "Shard scale sweep: one dLTE deployment on N engine shards, counters shard-invariant",
        &[
            "size",
            "shards",
            "nodes",
            "UEs",
            "events",
            "pkts forwarded",
            "delivered",
        ],
    );
    for r in &runs {
        t.row(vec![
            r.size.to_string(),
            r.shards.to_string(),
            r.nodes.to_string(),
            r.ues.to_string(),
            r.events_dispatched.to_string(),
            r.packets_forwarded.to_string(),
            r.delivered.to_string(),
        ]);
    }
    t.expect(
        "for each size, every counter column is identical across the shard rows (the sweep \
         asserts it) and traffic flowed; wall-clock scaling lives in benchmark/results/, \
         never in golden cells",
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
    fn counters_are_bit_identical_across_shard_counts() {
        let p = Params {
            sizes: vec![120],
            ues_per_ap: 4,
            shard_counts: vec![1, 2, 4],
            total_s: 2.0,
            ..Default::default()
        };
        // bench_runs itself asserts invariance; here we also check the
        // runs actually did meaningful, distinct-shard work.
        let runs = bench_runs(&p);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].shards, 1);
        assert_eq!(runs[1].shards, 2);
        assert_eq!(runs[2].shards, 4);
        for r in &runs {
            assert_eq!(r.ues, 120);
            assert!(r.events_dispatched > 0);
            assert!(r.delivered > 0, "no UE↔UE traffic delivered");
        }
    }

    #[test]
    fn table_is_deterministic_and_shard_invariant_per_size() {
        let p = Params {
            sizes: vec![40],
            ues_per_ap: 4,
            shard_counts: vec![1, 2],
            total_s: 1.0,
            ..Default::default()
        };
        let t = run_with(p.clone());
        assert_eq!(t.rows.len(), 2);
        // Counter cells (events, pkts, delivered) agree across shard rows.
        for col in 4..7 {
            assert_eq!(t.rows[0][col], t.rows[1][col], "column {col} diverged");
        }
        let again = run_with(p);
        assert_eq!(t.rows, again.rows);
    }
}
