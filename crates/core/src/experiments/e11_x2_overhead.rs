//! E11 — §4.3: "The X2 interface is relatively low bandwidth, but when
//! backhaul constrained the level of coordination can be minimized."
//!
//! Two parts: (a) measured X2 egress per AP from live scenario runs as the
//! peer count grows, against user-plane traffic for scale; (b) the
//! budget-degradation plan (mode / reporting interval chosen per backhaul
//! budget).

use super::{f2c, Table};
use crate::scenario::{Arch, Deployment, DltePlan};
use dlte_epc::ue::UeApp;
use dlte_sim::{SimDuration, SimTime};
use dlte_x2::bandwidth::{plan_for_budget, x2_bps};
use dlte_x2::CoordinationMode;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    pub ap_counts: Vec<usize>,
    pub seconds: u64,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            ap_counts: vec![2, 4, 8],
            seconds: 10,
            seed: 1,
        }
    }
}

fn measured_x2_bps(n_aps: usize, p: &Params) -> (f64, f64) {
    let mut d = Deployment::new(Arch::Dlte, n_aps, 1).with_ue_plan(|_| DltePlan {
        app: UeApp::UplinkCbr {
            dst: Deployment::ott_addr(),
            rate_bps: 1e6,
            packet_bytes: 1200,
        },
        ..Default::default()
    });
    d.seed = p.seed;
    let mut net = d.build();
    net.sim
        .run_until(SimTime::from_secs(p.seconds), 100_000_000);
    let ap = net.aps().next().unwrap();
    let x2_bps_measured = ap.x2.stats.bytes_sent as f64 * 8.0 / p.seconds as f64;
    // User traffic through the same AP for scale.
    let user_bps = ap.core.stats.ul_user_packets as f64 * 1200.0 * 8.0 / p.seconds as f64;
    (x2_bps_measured, user_bps)
}

pub fn run_with(p: Params) -> Table {
    let mut t = Table::new(
        "E11",
        "X2 coordination overhead and backhaul-budget degradation (paper §4.3)",
        &["row", "value 1", "value 2", "value 3"],
    );
    // Part (a): measured overhead.
    t.row(vec![
        "-- measured per-AP egress --".into(),
        "X2 (kbit/s)".into(),
        "user plane (kbit/s)".into(),
        "ratio".into(),
    ]);
    for &n in &p.ap_counts {
        let (x2, user) = measured_x2_bps(n, &p);
        t.row(vec![
            format!("{n} APs"),
            f2c(x2 / 1e3),
            f2c(user / 1e3),
            format!("{:.5}", x2 / user.max(1.0)),
        ]);
    }
    // Part (b): budget plans (closed form).
    t.row(vec![
        "-- budget plan (8 peers, 40 clients) --".into(),
        "mode".into(),
        "interval (ms)".into(),
        "X2 (kbit/s)".into(),
    ]);
    for budget in [1e6, 50e3, 5e3, 100.0] {
        let plan = plan_for_budget(
            CoordinationMode::Cooperative,
            8,
            40,
            SimDuration::from_millis(100),
            SimDuration::from_secs(30),
            budget,
        );
        t.row(vec![
            format!("budget {budget:.0} bit/s"),
            format!("{:?}", plan.mode),
            plan.report_interval.as_millis().to_string(),
            f2c(plan.bps / 1e3),
        ]);
    }
    // Closed-form check row.
    let closed = x2_bps(
        CoordinationMode::FairShare,
        7,
        SimDuration::from_millis(500),
        0,
    );
    t.row(vec![
        "closed-form 8-AP fair-share".into(),
        f2c(closed / 1e3),
        "kbit/s".into(),
        "".into(),
    ]);
    t.expect("X2 egress is a few kbit/s — orders of magnitude under user traffic; shrinking budgets stretch the interval first, then drop cooperative → fair-share → independent");
    t
}

pub fn run() -> Table {
    run_with(Params::default())
}

#[cfg(test)]
mod tests {
    /// X2 peers are the AP's town, so AP 0's egress stops growing once the
    /// town is full — and the committed table rows are unchanged.
    #[test]
    fn per_ap_x2_egress_is_flat_in_deployment_size() {
        let p = super::Params::default();
        let x2_bps = |n_aps| super::measured_x2_bps(n_aps, &p).0;
        for (n_aps, row) in [(2, "1.73"), (4, "5.18"), (8, "12.10")] {
            assert_eq!(super::f2c(x2_bps(n_aps) / 1e3), row, "{n_aps} APs");
        }
        let full_town = x2_bps(8);
        assert_eq!(x2_bps(16), full_town);
        assert_eq!(x2_bps(64), full_town);
    }

    #[test]
    fn shapes_hold() {
        let t = super::run_with(super::Params {
            ap_counts: vec![2, 4],
            seconds: 5,
            seed: 2,
        });
        // Measured rows are 1..=2; ratio column must be tiny.
        for i in 1..=2 {
            let ratio: f64 = t.rows[i][3].parse().unwrap();
            assert!(ratio < 0.02, "X2/user ratio {ratio}");
        }
        // Budget rows: the tightest budget forces Independent.
        let last_budget_row = &t.rows[t.rows.len() - 2];
        assert_eq!(last_budget_row[1], "Independent");
        // Most generous budget keeps Cooperative at the base interval.
        let first_budget_row = &t.rows[4];
        assert_eq!(first_budget_row[1], "Cooperative");
        assert_eq!(first_budget_row[2], "100");
    }
}
