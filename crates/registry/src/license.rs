//! License grants and channel plans.

use crate::geo::Point;
use dlte_phy::band::Band;
use dlte_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Identifies an operator (an AP owner in dLTE — a person, school, co-op).
pub type OperatorId = u64;

/// Identifies a grant.
pub type GrantId = u64;

/// How a band is divided into assignable channels.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    pub band: u16,
    /// Channel width, MHz.
    pub channel_mhz: f64,
    /// Number of channels that fit the band's downlink allocation.
    pub n_channels: u32,
}

impl ChannelPlan {
    /// Divide a band's downlink allocation into channels of `channel_mhz`.
    pub fn for_band(band: &Band, channel_mhz: f64) -> ChannelPlan {
        let n = (band.downlink_width_mhz() / channel_mhz).floor() as u32;
        assert!(n > 0, "band {} narrower than one channel", band.number);
        ChannelPlan {
            band: band.number,
            channel_mhz,
            n_channels: n,
        }
    }

    /// Center frequency of channel `idx`, MHz.
    ///
    /// Plans are only constructible from a real [`Band`] (`for_band`), so
    /// an unknown band number here is a constructed-by-hand plan — a
    /// contract violation, reported as such rather than unwrapped.
    pub fn center_mhz(&self, idx: u32) -> f64 {
        assert!(idx < self.n_channels);
        let band = match Band::by_number(self.band) {
            Some(b) => b,
            None => panic!("channel plan references unknown band {}", self.band),
        };
        band.downlink_mhz.0 + self.channel_mhz * (idx as f64 + 0.5)
    }
}

/// A request for spectrum.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GrantRequest {
    pub operator: OperatorId,
    pub location: Point,
    /// Requested channel, or `None` to let the registry pick.
    pub channel: Option<u32>,
    pub max_eirp_dbm: f64,
    /// Radius within which this transmitter meaningfully interferes
    /// (protection contour).
    pub contour_km: f64,
    /// Requested lease duration.
    pub lease: dlte_sim::SimDuration,
}

/// A granted license.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LicenseGrant {
    pub id: GrantId,
    pub operator: OperatorId,
    pub location: Point,
    pub channel: u32,
    pub max_eirp_dbm: f64,
    pub contour_km: f64,
    pub granted_at: SimTime,
    pub expires_at: SimTime,
}

impl LicenseGrant {
    /// True if this grant and `other` share a channel and overlapping
    /// contours — i.e. they are in the same RF contention domain and must
    /// coordinate (or be separated by the registry).
    pub fn conflicts_with(&self, other: &LicenseGrant) -> bool {
        self.channel == other.channel
            && self.location.distance_km(other.location) < self.contour_km + other.contour_km
    }

    /// True if still valid at `now`.
    pub fn is_active(&self, now: SimTime) -> bool {
        now < self.expires_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_plan_divides_band5() {
        // Band 5 downlink is 25 MHz wide → two 10 MHz channels.
        let plan = ChannelPlan::for_band(Band::band5(), 10.0);
        assert_eq!(plan.n_channels, 2);
        assert!((plan.center_mhz(0) - 874.0).abs() < 1e-9);
        assert!((plan.center_mhz(1) - 884.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "narrower")]
    fn oversized_channel_panics() {
        ChannelPlan::for_band(Band::band31(), 10.0); // band 31 is 5 MHz wide
    }

    fn grant(channel: u32, x: f64, contour: f64) -> LicenseGrant {
        LicenseGrant {
            id: 0,
            operator: 1,
            location: Point::new(x, 0.0),
            channel,
            max_eirp_dbm: 50.0,
            contour_km: contour,
            granted_at: SimTime::ZERO,
            expires_at: SimTime::from_secs(3600),
        }
    }

    #[test]
    fn conflict_requires_cochannel_and_overlap() {
        let a = grant(0, 0.0, 10.0);
        let near_same = grant(0, 15.0, 10.0);
        let far_same = grant(0, 25.0, 10.0);
        let near_other = grant(1, 15.0, 10.0);
        assert!(a.conflicts_with(&near_same), "contours overlap");
        assert!(!a.conflicts_with(&far_same), "contours separated");
        assert!(!a.conflicts_with(&near_other), "different channel");
        // Symmetry.
        assert_eq!(a.conflicts_with(&near_same), near_same.conflicts_with(&a));
    }

    #[test]
    fn expiry() {
        let g = grant(0, 0.0, 10.0);
        assert!(g.is_active(SimTime::from_secs(1)));
        assert!(!g.is_active(SimTime::from_secs(3600)));
    }
}
