//! E14 — chaos sweep: the same backhaul outage thrown at both
//! architectures (§2.2/§4.2).
//!
//! Two UEs on one cell exchange constant-rate traffic with each other
//! while a [`dlte_faults::FaultPlan`] cuts the site's backhaul for a
//! window — and, in the centralized arm, crashes the S-GW with full state
//! loss for the same window (the outage takes the EPC site with it).
//!
//! The architectural claim under test: dLTE's local core keeps switching
//! UE↔UE traffic at the AP through the outage (local breakout — the
//! backhaul is not on the path), while the centralized EPC hairpins every
//! user-plane packet through the S/P-GW, so its users lose *all* traffic
//! and their sessions. Both must recover after the outage: dLTE trivially,
//! the EPC through GTP-U error indications bouncing the stale tunnels into
//! NAS re-attach.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::{UeApp, UeNode};
use dlte_faults::{FaultPlan, NetBreak, Window};
use dlte_net::{Addr, NodeId, ShardedSim};
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// When the backhaul dies (and, centralized, the S-GW crashes).
    pub outage_at_s: f64,
    /// How long the outage lasts.
    pub outage_s: f64,
    pub total_s: f64,
    pub seed: u64,
    /// Per-UE constant rate of the UE↔UE traffic.
    pub rate_bps: f64,
    pub packet_bytes: u32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            outage_at_s: 5.0,
            outage_s: 4.0,
            total_s: 20.0,
            seed: 1,
            rate_bps: 200e3,
            packet_bytes: 500,
        }
    }
}

struct Outcome {
    delivered_during: u64,
    lost_during: u64,
    sessions_lost: u64,
    /// Seconds from the end of the outage to the first delivery (None =
    /// traffic never resumed).
    recovery_s: Option<f64>,
    delivered_after: u64,
}

/// Sum of delivered UE↔UE packets across both flows (flow id = sender
/// IMSI; both topologies number UEs from 1000).
fn delivered(sim: &ShardedSim, ues: &[NodeId]) -> u64 {
    let t = sim.trace_merged();
    (0..ues.len())
        .map(|i| {
            t.flow(Deployment::imsi_of(i))
                .map(|f| f.delivered_packets)
                .unwrap_or(0)
        })
        .sum()
}

fn sent(sim: &ShardedSim, ues: &[NodeId]) -> u64 {
    ues.iter()
        .map(|&u| sim.handler_as::<UeNode>(u).unwrap().stats.cbr_packets_sent)
        .sum()
}

/// Drive one arm through the outage with segmented `run_until` calls
/// (which do not perturb event order) and measure delivery around it.
fn measure(sim: &mut ShardedSim, ues: &[NodeId], p: &Params) -> Outcome {
    let outage_start = SimTime::from_secs_f64(p.outage_at_s);
    let outage_end = outage_start + SimDuration::from_secs_f64(p.outage_s);
    let total = SimTime::from_secs_f64(p.total_s);
    // Let traffic that was in flight when the fault hit drain before the
    // "during the outage" window opens, so it measures the steady state.
    let drain = outage_start + SimDuration::from_millis(500);
    sim.run_until(drain.min(outage_end), 100_000_000);
    let (d0, s0) = (delivered(sim, ues), sent(sim, ues));
    sim.run_until(outage_end, 100_000_000);
    let (d1, s1) = (delivered(sim, ues), sent(sim, ues));
    // Step in 100 ms increments watching for the first post-outage
    // delivery.
    let mut recovery_s = None;
    let mut mark = outage_end;
    while mark < total {
        mark = (mark + SimDuration::from_millis(100)).min(total);
        sim.run_until(mark, 100_000_000);
        if delivered(sim, ues) > d1 {
            recovery_s = Some(mark.saturating_since(outage_end).as_secs_f64());
            break;
        }
    }
    sim.run_until(total, 100_000_000);
    let sessions_lost: u64 = ues
        .iter()
        .map(|&u| {
            sim.handler_as::<UeNode>(u)
                .unwrap()
                .stats
                .attaches_completed
                .saturating_sub(1)
        })
        .sum();
    Outcome {
        delivered_during: d1 - d0,
        lost_during: (s1 - s0).saturating_sub(d1 - d0),
        sessions_lost,
        recovery_s,
        delivered_after: delivered(sim, ues) - d1,
    }
}

/// Two UEs on one cell, each sending to the other's address: the first two
/// of the cell's pool, assigned in attach order. Centralized, that traffic
/// hairpins at the P-GW; dLTE's breaks out at the AP and never touches the
/// backhaul.
fn run_arm(arch: Arch, p: &Params) -> Outcome {
    let (rate_bps, packet_bytes) = (p.rate_bps, p.packet_bytes);
    let d = Deployment::new(arch, 1, 2);
    let pool = d.ue_pool(0);
    let mut d = d.with_ue_plan(move |i| UePlan {
        app: UeApp::UplinkCbr {
            dst: Addr(pool.addr.0 + if i == 0 { 2 } else { 1 }),
            rate_bps,
            packet_bytes,
        },
        ..Default::default()
    });
    d.epc.path_mgmt = true;
    d.seed = p.seed;
    let mut net = d.build();
    // The site loses its backhaul: the centralized one its trunk toward
    // the EPC site, whose S-GW crashes with full state loss for as long.
    let backhaul = net.epc.map_or(net.cell_backhaul[0], |epc| epc.l_agg_epc);
    let outage = |what| Window {
        at_s: p.outage_at_s,
        for_s: Some(p.outage_s),
        what,
    };
    let mut plan = FaultPlan::new(p.seed).with(outage(NetBreak::LinkFlap { link: backhaul }));
    if let Some(epc) = net.epc {
        plan = plan.with(outage(NetBreak::NodeCrash { node: epc.sgw }));
    }
    plan.inject(&mut net.sim);
    measure(&mut net.sim, &net.ues, p)
}

fn fmt_recovery(r: Option<f64>) -> String {
    match r {
        Some(s) => f2c(s),
        None => "never".into(),
    }
}

pub fn run_with(p: Params) -> Table {
    // Independent seeded simulations; par_map keeps the arm order.
    let mut arms = dlte_sim::par_map(vec![Arch::Centralized, Arch::Dlte], |arch| {
        run_arm(arch, &p)
    });
    let dlte = arms.pop().expect("two arms");
    let cent = arms.pop().expect("two arms");
    let mut t = Table::new(
        "E14",
        "Chaos sweep: backhaul outage + core crash, centralized EPC vs dLTE local core",
        &["metric", "centralized", "dLTE"],
    );
    t.row(vec![
        "UE↔UE packets delivered during outage".into(),
        cent.delivered_during.to_string(),
        dlte.delivered_during.to_string(),
    ]);
    t.row(vec![
        "UE↔UE packets lost during outage".into(),
        cent.lost_during.to_string(),
        dlte.lost_during.to_string(),
    ]);
    t.row(vec![
        "sessions lost (re-attaches)".into(),
        cent.sessions_lost.to_string(),
        dlte.sessions_lost.to_string(),
    ]);
    t.row(vec![
        "recovery time after outage (s)".into(),
        fmt_recovery(cent.recovery_s),
        fmt_recovery(dlte.recovery_s),
    ]);
    t.row(vec![
        "delivered after recovery".into(),
        cent.delivered_after.to_string(),
        dlte.delivered_after.to_string(),
    ]);
    t.expect("the centralized arm delivers nothing during the outage and loses every session (S-GW state loss); the dLTE arm keeps local traffic flowing through the outage with zero sessions lost; both resume full delivery afterwards — the EPC via GTP-U error indications driving re-attach");
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
            outage_at_s: 4.0,
            outage_s: 3.0,
            total_s: 14.0,
            seed: 2,
            ..Default::default()
        });
        let cent = t.column_f64(1);
        let dlte = t.column_f64(2);
        // Local breakout keeps dLTE's UE↔UE traffic alive through the
        // outage; the centralized hairpin delivers nothing.
        assert_eq!(cent[0], 0.0, "centralized delivered {}", cent[0]);
        assert!(dlte[0] > 100.0, "dLTE delivered {}", dlte[0]);
        assert!(cent[1] > 100.0, "centralized lost {}", cent[1]);
        assert!(dlte[1] < 10.0, "dLTE lost {}", dlte[1]);
        // The S-GW crash costs both centralized sessions; dLTE none.
        assert_eq!(cent[2], 2.0, "centralized sessions lost {}", cent[2]);
        assert_eq!(dlte[2], 0.0, "dLTE sessions lost {}", dlte[2]);
        // Both recover: dLTE immediately, the EPC after the error
        // indication → re-attach chain.
        assert!(
            cent[3].is_finite() && cent[3] > 0.0,
            "centralized recovery {}",
            cent[3]
        );
        assert!(
            dlte[3].is_finite() && dlte[3] <= 0.5,
            "dLTE recovery {}",
            dlte[3]
        );
        assert!(cent[4] > 50.0, "centralized post-recovery {}", cent[4]);
        assert!(dlte[4] > 100.0, "dLTE post-recovery {}", dlte[4]);
    }
}
