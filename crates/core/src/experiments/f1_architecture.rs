//! F1 — Figure 1: centralized LTE vs dLTE, side by side.
//!
//! Same physical geometry (radio, backhaul, Internet distances), same
//! workload (a UE pinging an OTT service), two architectures. The figure's
//! qualitative arrows become measured rows: where user traffic flows
//! (tunnels vs native), where control lives, what that costs in latency.

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::UeApp;
use dlte_epc::{PgwNode, SgwNode};
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    pub seconds: u64,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            seconds: 10,
            seed: 1,
        }
    }
}

struct SideResult {
    attach_ms: f64,
    rtt_ms: f64,
    tunneled_packets: u64,
    breakout_packets: u64,
}

/// One UE pinging the OTT service every 100 ms for `p.seconds`.
fn side(arch: Arch, p: &Params) -> SideResult {
    let plan = |_| UePlan {
        app: UeApp::Pinger {
            dst: Deployment::ott_addr(),
            interval: SimDuration::from_millis(100),
            probe_bytes: 100,
        },
        ..Default::default()
    };
    let mut d = Deployment::new(arch, 1, 1).with_ue_plan(plan);
    d.seed = p.seed;
    let mut net = d.build();
    net.sim.run_until(SimTime::from_secs(p.seconds), 10_000_000);
    let ue = net.ue(0);
    // User packets cross the gateways only in the centralized network, and
    // break out at a cell only in dLTE.
    let tunneled_packets = net.epc.map_or(0, |epc| {
        let sgw = net.sim.handler_as::<SgwNode>(epc.sgw).unwrap();
        let pgw = net.sim.handler_as::<PgwNode>(epc.pgw).unwrap();
        sgw.stats.ul_packets + sgw.stats.dl_packets + pgw.stats.ul_packets + pgw.stats.dl_packets
    });
    let breakout_packets = net
        .aps()
        .map(|ap| ap.core.stats.ul_user_packets + ap.core.stats.dl_user_packets)
        .sum();
    SideResult {
        attach_ms: ue
            .stats
            .attach_latency_ms
            .values()
            .first()
            .copied()
            .unwrap_or(f64::NAN),
        rtt_ms: ue.stats.rtt_ms.median(),
        tunneled_packets,
        breakout_packets,
    }
}

pub fn run_with(p: Params) -> Table {
    let c = side(Arch::Centralized, &p);
    let d = side(Arch::Dlte, &p);
    let mut t = Table::new(
        "F1",
        "Architecture comparison on identical geometry (paper Figure 1)",
        &["metric", "centralized LTE", "dLTE"],
    );
    t.row(vec![
        "attach latency (ms)".into(),
        f2c(c.attach_ms),
        f2c(d.attach_ms),
    ]);
    t.row(vec![
        "user RTT to OTT, median (ms)".into(),
        f2c(c.rtt_ms),
        f2c(d.rtt_ms),
    ]);
    t.row(vec![
        "user packets through EPC tunnels".into(),
        c.tunneled_packets.to_string(),
        d.tunneled_packets.to_string(),
    ]);
    t.row(vec![
        "user packets broken out at AP".into(),
        c.breakout_packets.to_string(),
        d.breakout_packets.to_string(),
    ]);
    t.row(vec![
        "control-plane location".into(),
        "EPC site (shared)".into(),
        "at each AP (stub)".into(),
    ]);
    t.row(vec![
        "coordination path".into(),
        "carrier-mediated (S1/S11)".into(),
        "peer-to-peer (X2 over Internet)".into(),
    ]);
    t.expect("dLTE: lower attach latency and RTT; zero tunneled packets; all traffic breaks out at the AP");
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
            seconds: 5,
            seed: 3,
        });
        let cent = t.column_f64(1);
        let dlte = t.column_f64(2);
        assert!(dlte[0] < cent[0], "attach: dLTE faster");
        assert!(dlte[1] < cent[1], "RTT: dLTE lower");
        assert!(cent[2] > 0.0 && dlte[2] == 0.0, "tunnels only centralized");
        assert!(dlte[3] > 0.0 && cent[3] == 0.0, "breakout only dLTE");
    }
}
