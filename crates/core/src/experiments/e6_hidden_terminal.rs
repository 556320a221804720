//! E6 — §4.3: "a license database ensures that all transmitters in the
//! band are known, thereby mitigating the hidden terminal problem."
//!
//! The classic two-transmitter hidden topology (neither can hear the other;
//! both reach the same receiver area):
//!
//! * **WiFi / carrier sensing**: CSMA fails — the transmitters can't sense
//!   each other, transmissions overlap, goodput craters;
//! * **dLTE / registry**: both transmitters appear in each other's
//!   contention domain regardless of RF visibility, X2 splits the channel,
//!   collisions are structurally impossible.

use super::{f2c, mbps, Table};
use dlte_mac::wifi::dcf::{DcfConfig, DcfSim, StationConfig};
use dlte_mac::{CellConfig, CellSim, UeConfig};
use dlte_phy::band::Band;
use dlte_registry::{ChannelPlan, GrantRequest, Point, SpectrumRegistry};
use dlte_sim::{SimDuration, SimRng, SimTime};
use dlte_x2::max_min_shares;
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
            seconds: 2,
            seed: 1,
        }
    }
}

pub struct Row {
    pub label: &'static str,
    pub aggregate_bps: f64,
    pub collision_rate: f64,
    pub peers_discovered: usize,
}

fn wifi(hidden: bool, p: &Params) -> Row {
    let stations = vec![
        StationConfig::saturated(25.0),
        StationConfig::saturated(25.0),
    ];
    let mut sense = vec![vec![true; 2]; 2];
    if hidden {
        sense[0][1] = false;
        sense[1][0] = false;
    }
    let mut sim = DcfSim::with_sensing(DcfConfig::default(), stations, sense, SimRng::new(p.seed));
    let r = sim.run(SimDuration::from_secs(p.seconds));
    Row {
        label: if hidden {
            "WiFi CSMA, hidden pair"
        } else {
            "WiFi CSMA, mutually visible"
        },
        aggregate_bps: r.aggregate_goodput_bps,
        collision_rate: r.collision_rate,
        peers_discovered: 0,
    }
}

fn dlte_registry_coordination(p: &Params) -> Row {
    // Two APs 15 km apart on terrain that hides them from each other's
    // carrier sense — but both registered. Contention domains come from
    // geometry in the database, not RF sensing.
    let mut reg = SpectrumRegistry::new(ChannelPlan::for_band(Band::band5(), 10.0), 55.0);
    let req = |x: f64| GrantRequest {
        operator: 1,
        location: Point::new(x, 0.0),
        channel: Some(0), // single channel available in this deployment
        max_eirp_dbm: 50.0,
        contour_km: 10.0,
        lease: SimDuration::from_secs(3600),
    };
    let a = reg.request(req(0.0), SimTime::ZERO).expect("open registry");
    reg.request(req(15.0), SimTime::ZERO)
        .expect("open registry");
    let dom_a = reg.contention_domain(&a, SimTime::ZERO);
    assert_eq!(dom_a.len(), 1, "registry reveals the hidden peer");
    // X2 fair share over the discovered domain → 50/50 TDM, zero overlap.
    let shares = max_min_shares(&[1.0, 1.0], 1.0);
    let mut total = 0.0;
    for (k, &share) in shares.iter().enumerate() {
        let mut cfg = CellConfig::rural_default();
        cfg.tdm_share = share;
        let rng = SimRng::new(p.seed + 10 + k as u64);
        let mut sim = CellSim::new(cfg, vec![UeConfig::at_km(1.0)], &rng);
        total += sim.run(SimDuration::from_secs(p.seconds)).ues[0].goodput_bps;
    }
    Row {
        label: "dLTE registry + X2 TDM",
        aggregate_bps: total,
        collision_rate: 0.0,
        peers_discovered: dom_a.len(),
    }
}

pub fn run_with(p: Params) -> Table {
    let mut t = Table::new(
        "E6",
        "Hidden-terminal topology: carrier sensing vs registry discovery (paper §4.3)",
        &[
            "system",
            "aggregate (Mbit/s)",
            "collision rate",
            "peers found out-of-band",
        ],
    );
    for row in [
        wifi(false, &p),
        wifi(true, &p),
        dlte_registry_coordination(&p),
    ] {
        t.row(vec![
            row.label.into(),
            mbps(row.aggregate_bps),
            f2c(row.collision_rate),
            row.peers_discovered.to_string(),
        ]);
    }
    t.expect("hiding the pair wrecks CSMA (collisions up, goodput down); the registry finds the peer without RF and TDM eliminates collisions entirely");
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
            seconds: 1,
            seed: 2,
        });
        let agg = t.column_f64(1);
        let coll = t.column_f64(2);
        // Hidden CSMA worse than visible CSMA.
        assert!(agg[1] < agg[0], "hidden {} !< visible {}", agg[1], agg[0]);
        assert!(coll[1] > 3.0 * coll[0].max(0.01));
        // Registry arm: zero collisions, healthy aggregate.
        assert_eq!(coll[2], 0.0);
        assert!(
            agg[2] > agg[1],
            "registry {} beats hidden CSMA {}",
            agg[2],
            agg[1]
        );
        assert_eq!(t.rows[2][3], "1", "peer discovered from the database");
    }
}
