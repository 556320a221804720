//! E12 — §4.2's transport feature list, ablated: "zero RTT secure flow
//! resumption, forward error correction to mask discontinuity, non head of
//! line blocking, and multiple IP address support for client managed
//! handoff."
//!
//! A UE uploads continuously through a dLTE network while hopping APs every
//! few seconds. Four transport stacks ride the identical churn:
//!
//! * legacy (TCP-like: 4-tuple bound, 1-RTT, global order);
//! * +0-RTT (reconnects resume with cached tokens);
//! * +migration (connection IDs survive the address change);
//! * modern (migration + 0-RTT + FEC).

use super::{f2c, mbps, Table};
use crate::scenario::{Arch, Deployment, DltePlan};
use crate::transport_app::TransportUeApp;
use dlte_epc::ue::UeApp;
use dlte_sim::SimTime;
use dlte_transport::connection::TransportConfig;
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(default)]
pub struct Params {
    /// Dwell per AP, seconds.
    pub dwell_s: f64,
    pub total_s: f64,
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            dwell_s: 3.0,
            total_s: 20.0,
            seed: 1,
        }
    }
}

fn schedule(dwell_s: f64, total_s: f64) -> Vec<(SimTime, usize)> {
    let mut out = Vec::new();
    let mut t = 2.0 + dwell_s;
    let mut cell = 1;
    while t < total_s - 1.0 {
        out.push((SimTime::from_secs_f64(t), cell));
        cell = 1 - cell;
        t += dwell_s;
    }
    out
}

struct Arm {
    label: &'static str,
    cfg: TransportConfig,
}

fn arms() -> Vec<Arm> {
    vec![
        Arm {
            label: "legacy (TCP-like)",
            cfg: TransportConfig::legacy(),
        },
        Arm {
            label: "+0-RTT resume",
            cfg: TransportConfig {
                zero_rtt: true,
                migration: false,
                fec_k: 0,
                legacy_ordering: false,
                ..TransportConfig::default()
            },
        },
        Arm {
            label: "+migration",
            cfg: TransportConfig {
                zero_rtt: false,
                migration: true,
                fec_k: 0,
                legacy_ordering: false,
                ..TransportConfig::default()
            },
        },
        Arm {
            label: "modern (mig+0rtt+FEC)",
            cfg: TransportConfig::modern(),
        },
    ]
}

struct Outcome {
    mean_resume_ms: f64,
    handshakes: u64,
    goodput_bps: f64,
}

fn run_arm(cfg: TransportConfig, p: &Params) -> Outcome {
    let dwell = p.dwell_s;
    let total = p.total_s;
    let mut d = Deployment::new(Arch::Dlte, 2, 1).with_ue_plan(move |i| DltePlan {
        app: if i == 0 {
            UeApp::Upper(Box::new(TransportUeApp::new(
                cfg,
                Deployment::ott_transport_addr(),
            )))
        } else {
            UeApp::None
        },
        schedule: if i == 0 {
            schedule(dwell, total)
        } else {
            vec![]
        },
    });
    d.wire_all_cells = true;
    d.seed = p.seed;
    d.transport_cfg = cfg;
    let mut net = d.build();
    net.sim
        .run_until(SimTime::from_secs_f64(p.total_s), 100_000_000);
    let app = net
        .ue(0)
        .upper_as::<TransportUeApp>()
        .expect("transport app");
    Outcome {
        mean_resume_ms: if app.resume_ms.is_empty() {
            f64::NAN
        } else {
            app.resume_ms.mean()
        },
        handshakes: app.conn.handshakes,
        goodput_bps: app.conn.acked_bytes() as f64 * 8.0 / p.total_s,
    }
}

pub fn run_with(p: Params) -> Table {
    let mut t = Table::new(
        "E12",
        "Transport feature ablation under AP churn (paper §4.2)",
        &[
            "transport",
            "mean resume (ms)",
            "handshakes",
            "goodput (Mbit/s)",
        ],
    );
    let rows = dlte_sim::par_map(arms(), |arm| {
        let o = run_arm(arm.cfg, &p);
        vec![
            arm.label.into(),
            f2c(o.mean_resume_ms),
            o.handshakes.to_string(),
            mbps(o.goodput_bps),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.expect("legacy re-handshakes at every hop and resumes slowest; 0-RTT cuts the resume RTT; migration eliminates handshakes entirely; the modern stack is fastest overall");
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
            dwell_s: 3.0,
            total_s: 15.0,
            seed: 2,
        });
        let resume = t.column_f64(1);
        let handshakes = t.column_f64(2);
        let (legacy, _zrtt, migration, modern) = (0, 1, 2, 3);
        // Migration arms never re-handshake; legacy does at every hop.
        assert_eq!(handshakes[migration], 1.0);
        assert_eq!(handshakes[modern], 1.0);
        assert!(handshakes[legacy] > 1.0);
        // Modern resumes at least as fast as legacy.
        assert!(
            resume[modern] <= resume[legacy],
            "modern {} vs legacy {}",
            resume[modern],
            resume[legacy]
        );
    }
}
