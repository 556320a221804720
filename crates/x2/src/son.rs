//! Self-organizing-network helpers.
//!
//! §4.3: *"We do not attempt to make a contribution to the theory of self
//! organizing networks in LTE, but rather seek to provide an operational
//! model to apply it across administrative domains."* Accordingly this
//! module operationalizes two standard SON functions on top of the open
//! registry:
//!
//! * **Automatic neighbor relations** — derive the X2 peer list from the
//!   registry's contention domain instead of UE-reported ANR. The scenario
//!   builder (`dlte::scenario`) configures every [`crate::X2Agent`] with
//!   exactly that domain, in grant order; [`neighbor_relations`] ranks the
//!   same set by distance for an AP that must truncate it;
//! * **Mobility robustness** — tune the handover hysteresis margin from
//!   observed ping-pong and too-late-handover counts (the classic MRO
//!   feedback rule \[24\]).

use dlte_registry::{LicenseGrant, SpectrumRegistry};
use dlte_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Derive the X2 neighbor list for `me` from the registry: co-channel
/// overlapping grants, sorted by distance (closest first — the most
/// important peers when the list must be truncated for backhaul budget).
pub fn neighbor_relations(
    registry: &SpectrumRegistry,
    me: &LicenseGrant,
    now: SimTime,
) -> Vec<LicenseGrant> {
    let mut peers = registry.contention_domain(me, now);
    peers.sort_by(|a, b| {
        let da = a.location.distance_km(me.location);
        let db = b.location.distance_km(me.location);
        da.partial_cmp(&db)
            .expect("distance NaN")
            .then(a.id.cmp(&b.id))
    });
    peers
}

/// Mobility-robustness state: adapts the handover hysteresis margin.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MobilityRobustness {
    /// Current hysteresis margin, dB. A UE hands over when the target cell
    /// is better than the serving cell by at least this margin.
    pub hysteresis_db: f64,
    pub min_db: f64,
    pub max_db: f64,
    /// Adaptation step.
    pub step_db: f64,
    pub ping_pongs: u64,
    pub too_late: u64,
}

impl Default for MobilityRobustness {
    fn default() -> Self {
        MobilityRobustness {
            hysteresis_db: 3.0,
            min_db: 0.5,
            max_db: 10.0,
            step_db: 0.5,
            ping_pongs: 0,
            too_late: 0,
        }
    }
}

impl MobilityRobustness {
    /// Report a ping-pong (handover bounced straight back): margin too low.
    pub fn report_ping_pong(&mut self) {
        self.ping_pongs += 1;
        self.hysteresis_db = (self.hysteresis_db + self.step_db).min(self.max_db);
    }

    /// Report a too-late handover (radio link failure before HO): margin
    /// too high.
    pub fn report_too_late(&mut self) {
        self.too_late += 1;
        self.hysteresis_db = (self.hysteresis_db - self.step_db).max(self.min_db);
    }

    /// Should a UE hand over, given serving and target SINR (dB)?
    pub fn should_hand_over(&self, serving_db: f64, target_db: f64) -> bool {
        target_db >= serving_db + self.hysteresis_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_phy::band::Band;
    use dlte_registry::{ChannelPlan, GrantRequest, Point};
    use dlte_sim::SimDuration;

    fn reg_with_grants(xs: &[f64]) -> (SpectrumRegistry, Vec<LicenseGrant>) {
        let mut r = SpectrumRegistry::new(ChannelPlan::for_band(Band::band5(), 10.0), 55.0);
        let grants = xs
            .iter()
            .map(|&x| {
                r.request(
                    GrantRequest {
                        operator: 1,
                        location: Point::new(x, 0.0),
                        channel: Some(0),
                        max_eirp_dbm: 50.0,
                        contour_km: 10.0,
                        lease: SimDuration::from_secs(3600),
                    },
                    SimTime::ZERO,
                )
                .unwrap()
            })
            .collect();
        (r, grants)
    }

    #[test]
    fn anr_sorted_by_distance() {
        let (r, g) = reg_with_grants(&[0.0, 12.0, 5.0, 100.0]);
        let peers = neighbor_relations(&r, &g[0], SimTime::ZERO);
        // 100 km away is out of contention (contours 10+10=20 km).
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].id, g[2].id, "5 km peer first");
        assert_eq!(peers[1].id, g[1].id);
    }

    #[test]
    fn mro_raises_margin_on_ping_pong() {
        let mut mro = MobilityRobustness::default();
        let before = mro.hysteresis_db;
        mro.report_ping_pong();
        assert!(mro.hysteresis_db > before);
        for _ in 0..100 {
            mro.report_ping_pong();
        }
        assert_eq!(mro.hysteresis_db, mro.max_db, "clamped");
    }

    #[test]
    fn mro_lowers_margin_on_too_late() {
        let mut mro = MobilityRobustness::default();
        for _ in 0..100 {
            mro.report_too_late();
        }
        assert_eq!(mro.hysteresis_db, mro.min_db, "clamped");
    }

    #[test]
    fn handover_decision_uses_margin() {
        let mro = MobilityRobustness::default(); // 3 dB
        assert!(!mro.should_hand_over(10.0, 12.0));
        assert!(mro.should_hand_over(10.0, 13.0));
    }
}
