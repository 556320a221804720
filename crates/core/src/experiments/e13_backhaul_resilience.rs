//! E13 — §7 (future work): "multi-hop approaches to sharing and aggregating
//! bandwidth between neighboring LTE APs... could provide redundancy for
//! users in emergencies when the backhaul link goes down."
//!
//! Two APs; AP0's backhaul is cut mid-run. Without a mesh, AP0's users are
//! offline for the remainder. With an inter-AP mesh link: AP0 detects the
//! failure through X2 peer silence and fails its egress over to AP1; the
//! wide-area routing reconverges the downlink (modeled as scripted route
//! updates after an IGP-style convergence delay). Users ride it out with a
//! bounded outage and a modest RTT penalty from the extra hop.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_net::{NetFault, Prefix};
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// When the backhaul dies.
    pub fail_at_s: f64,
    /// Scripted IGP reconvergence delay after the failure.
    pub reconverge_after_s: f64,
    pub total_s: f64,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            fail_at_s: 5.0,
            reconverge_after_s: 2.0,
            total_s: 20.0,
            seed: 1,
        }
    }
}

struct Outcome {
    pongs: u64,
    outage_s: f64,
    rtt_before_ms: f64,
    rtt_after_ms: f64,
    failed_over: bool,
    /// Seconds from the failure until the first post-failure pong (None =
    /// service never came back within the experiment).
    recovery_s: Option<f64>,
    /// Probes sent that never drew a pong.
    probes_lost: u64,
}

fn run_arm(mesh: bool, p: &Params) -> Outcome {
    let mut d = Deployment::new(Arch::Dlte, 2, 1).with_ue_plan(|_| DltePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval: SimDuration::from_millis(50),
            probe_bytes: 100,
        },
        ..Default::default()
    });
    d.mesh = mesh;
    d.seed = p.seed;
    let mut net = d.build();

    // Fault timeline: kill AP0's backhaul; later, the routing system points
    // AP0's pool (and AP0's own address, healing X2) through AP1. Faults are
    // broadcast into every shard, so this arm runs unchanged — and
    // bit-identically — at any `--shards` setting.
    let fail_at = SimTime::from_secs_f64(p.fail_at_s);
    let reconverge_at = SimTime::from_secs_f64(p.fail_at_s + p.reconverge_after_s);
    net.sim.schedule_fault_broadcast(
        fail_at,
        NetFault::LinkUp {
            link: net.cell_backhaul[0],
            up: false,
        },
    );
    if mesh {
        let ap0_addr = net.sim.node_addrs(net.cells[0])[0];
        let mesh_link = net.mesh[0];
        let reroutes = [
            (net.r_agg, Deployment::ap_pool(0), net.cell_backhaul[1]),
            (net.cells[1], Deployment::ap_pool(0), mesh_link),
            (net.r_agg, Prefix::new(ap0_addr, 32), net.cell_backhaul[1]),
            (net.cells[1], Prefix::new(ap0_addr, 32), mesh_link),
        ];
        for (node, prefix, link) in reroutes {
            net.sim
                .schedule_fault_broadcast(reconverge_at, NetFault::RouteSet { node, prefix, link });
        }
    }

    // Segmented run so recovery can be timestamped: run to the failure,
    // drain in-flight replies, then step in 100 ms increments watching for
    // the first post-failure pong. Splitting `run_until` does not perturb
    // event order, so the arm stays byte-identical to a single run.
    let total = SimTime::from_secs_f64(p.total_s);
    let drain = fail_at + SimDuration::from_millis(250);
    net.sim.run_until(drain.min(total), 100_000_000);
    let pongs_at_fail = net.ue(0).stats.pongs;
    let mut recovery_s = None;
    let mut mark = drain;
    while mark < total {
        mark = (mark + SimDuration::from_millis(100)).min(total);
        net.sim.run_until(mark, 100_000_000);
        if net.ue(0).stats.pongs > pongs_at_fail {
            recovery_s = Some(mark.saturating_since(fail_at).as_secs_f64());
            break;
        }
    }
    net.sim.run_until(total, 100_000_000);
    let ue = net.ue(0);
    let ap0 = net.aps().next().unwrap();

    // Outage: expected pongs at 20/s minus observed, spread over the
    // post-failure window.
    let expected = (p.total_s / 0.05).round() as u64;
    let missing = expected.saturating_sub(ue.stats.pongs);
    // Split RTTs around the failure instant (RTT samples are ordered).
    let values = ue.stats.rtt_ms.values();
    let before_count = (p.fail_at_s / 0.05) as usize;
    let before: Vec<f64> = values
        .iter()
        .take(before_count.min(values.len()))
        .copied()
        .collect();
    let after: Vec<f64> = values
        .iter()
        .skip(before_count.min(values.len()))
        .copied()
        .collect();
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    Outcome {
        pongs: ue.stats.pongs,
        outage_s: missing as f64 * 0.05,
        rtt_before_ms: mean(&before),
        rtt_after_ms: mean(&after),
        failed_over: ap0.failover.as_ref().is_some_and(|f| f.failed_over),
        recovery_s,
        probes_lost: ue.stats.probes_sent.saturating_sub(ue.stats.pongs),
    }
}

fn fmt_recovery(r: Option<f64>) -> String {
    match r {
        Some(s) => f2c(s),
        None => "never".into(),
    }
}

pub fn run_with(p: Params) -> Table {
    // The two arms are independent seeded simulations — run them on
    // separate threads; par_map keeps the (no-mesh, mesh) order.
    let mut arms = dlte_sim::par_map(vec![false, true], |mesh| run_arm(mesh, &p));
    let with = arms.pop().expect("two arms");
    let without = arms.pop().expect("two arms");
    let mut t = Table::new(
        "E13",
        "Backhaul failure: standalone APs vs §7 mesh redundancy",
        &["metric", "no mesh", "mesh"],
    );
    t.row(vec![
        "pongs delivered".into(),
        without.pongs.to_string(),
        with.pongs.to_string(),
    ]);
    t.row(vec![
        "service outage (s)".into(),
        f2c(without.outage_s),
        f2c(with.outage_s),
    ]);
    t.row(vec![
        "RTT before failure (ms)".into(),
        f2c(without.rtt_before_ms),
        f2c(with.rtt_before_ms),
    ]);
    t.row(vec![
        "RTT after failure (ms)".into(),
        f2c(without.rtt_after_ms),
        f2c(with.rtt_after_ms),
    ]);
    t.row(vec![
        "AP0 failed over".into(),
        without.failed_over.to_string(),
        with.failed_over.to_string(),
    ]);
    t.row(vec![
        "recovery time (s)".into(),
        fmt_recovery(without.recovery_s),
        fmt_recovery(with.recovery_s),
    ]);
    t.row(vec![
        "probes lost to outage".into(),
        without.probes_lost.to_string(),
        with.probes_lost.to_string(),
    ]);
    t.expect("without a mesh the outage runs to the end of the experiment; with the mesh it is bounded by detection (3 X2 intervals) + reconvergence, and service continues at a slightly higher RTT via the neighbor");
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
            fail_at_s: 4.0,
            reconverge_after_s: 2.0,
            total_s: 16.0,
            seed: 2,
        });
        let no_mesh = t.column_f64(1);
        let mesh = t.column_f64(2);
        // Outage without mesh ≈ the whole post-failure window (12 s here);
        // with mesh it is bounded well under half of it.
        assert!(no_mesh[1] > 10.0, "no-mesh outage {}", no_mesh[1]);
        assert!(mesh[1] < 4.0, "mesh outage {}", mesh[1]);
        assert!(
            mesh[0] > no_mesh[0] + 100.0,
            "mesh delivered far more pongs"
        );
        // Service continues at a higher RTT via the neighbor.
        assert!(
            mesh[3] > mesh[2],
            "post-failure RTT {} should exceed pre-failure {}",
            mesh[3],
            mesh[2]
        );
        assert!(mesh[3].is_finite());
        // The AP actually performed the X2-silence failover.
        assert_eq!(t.rows[4][2], "true");
        assert_eq!(t.rows[4][1], "false", "no failover without a mesh");
        // Recovery time: the mesh arm comes back within detection +
        // reconvergence (+ stepping granularity); the standalone arm never
        // does.
        assert_eq!(t.rows[5][1], "never", "no recovery without a mesh");
        assert!(no_mesh[5].is_nan());
        assert!(
            mesh[5] > 0.0 && mesh[5] < 4.0,
            "mesh recovery {} s",
            mesh[5]
        );
        // Loss during the outage tracks the outage length (20 probes/s).
        assert!(
            no_mesh[6] > mesh[6] + 100.0,
            "no-mesh lost {} vs mesh {}",
            no_mesh[6],
            mesh[6]
        );
        assert!(
            (mesh[6] - mesh[1] * 20.0).abs() <= 20.0,
            "mesh probes lost {} vs outage {} s",
            mesh[6],
            mesh[1]
        );
    }
}
