//! The SAS-style automated registry.
//!
//! Grants are checked against every active co-channel grant's protection
//! contour; when the requested channel is taken the registry scans the
//! channel plan for a free one (automated frequency coordination, as a CBRS
//! SAS does). Expired grants lapse automatically. The registry is *open*:
//! any operator who conforms to the protocol gets a grant if physics allows
//! one — the property Table 1's "open core + licensed radio" quadrant
//! requires.

use crate::geo::Point;
use crate::license::{ChannelPlan, GrantId, GrantRequest, LicenseGrant};
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default cap on any single lease. Bounding leases is what makes crash
/// recovery *provable*: a registry that lost state only has to stay
/// conservative for one maximum lease before every grant it forgot has
/// lapsed on the licensee's side too.
pub const DEFAULT_MAX_LEASE_S: u64 = 3600;

/// Spectrum sharing policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum GrantPolicy {
    /// Deny grants whose contour overlaps an active co-channel grant
    /// (classic exclusive licensing).
    Exclusive,
    /// Grant anyway when no clean channel exists — overlapping co-channel
    /// operators are expected to coordinate over X2 (the dLTE §4.3 model;
    /// "new APs are free to join at any time, and coordinate with existing
    /// nodes").
    SharedWithCoordination,
}

/// Why a grant was refused.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum GrantDenied {
    /// Every channel in the plan conflicts with an active grant.
    NoChannelAvailable,
    /// The specifically requested channel conflicts (when auto-assignment
    /// was declined).
    RequestedChannelTaken,
    /// EIRP above the band's regulatory limit.
    EirpTooHigh { limit_dbm: f64 },
    /// The responsible zone (or a border neighbor whose answer is needed
    /// for a safe decision) is crashed or partitioned away.
    ZoneUnavailable,
    /// The zone restarted after losing state and is inside its quarantine
    /// window: it denies *new* grants until every grant it may have
    /// forgotten has provably expired (one maximum lease after the crash).
    Recovering,
    /// A renew or release referenced a grant the registry does not hold
    /// (lapsed, revoked, or lost in a crash).
    UnknownGrant,
}

/// Serde-able registry state for checkpoint/restore across zone crashes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    pub grants: Vec<LicenseGrant>,
    pub next_id: GrantId,
}

/// The registry.
#[derive(Clone, Debug)]
pub struct SpectrumRegistry {
    plan: ChannelPlan,
    policy: GrantPolicy,
    /// Regulatory EIRP cap for the band.
    max_eirp_dbm: f64,
    /// Keyed by id, so every walk over it runs in id order.
    grants: BTreeMap<GrantId, LicenseGrant>,
    next_id: GrantId,
    /// Hard cap applied to every lease (requested leases are clamped).
    max_lease: SimDuration,
    /// After a state-losing restart: deny new grants until this instant.
    quarantine_until: Option<SimTime>,
    /// Statistics for the experiment harness.
    pub requests: u64,
    pub denials: u64,
}

impl SpectrumRegistry {
    /// An open registry with the dLTE sharing policy.
    pub fn new(plan: ChannelPlan, max_eirp_dbm: f64) -> Self {
        Self::with_policy(plan, max_eirp_dbm, GrantPolicy::SharedWithCoordination)
    }

    /// A registry with classic exclusive licensing.
    pub fn exclusive(plan: ChannelPlan, max_eirp_dbm: f64) -> Self {
        Self::with_policy(plan, max_eirp_dbm, GrantPolicy::Exclusive)
    }

    pub fn with_policy(plan: ChannelPlan, max_eirp_dbm: f64, policy: GrantPolicy) -> Self {
        SpectrumRegistry {
            plan,
            policy,
            max_eirp_dbm,
            grants: BTreeMap::new(),
            next_id: 1,
            max_lease: SimDuration::from_secs(DEFAULT_MAX_LEASE_S),
            quarantine_until: None,
            requests: 0,
            denials: 0,
        }
    }

    /// Builder: cap every lease at `max_lease` (the crash-recovery bound).
    pub fn with_lease_cap(mut self, max_lease: SimDuration) -> Self {
        self.max_lease = max_lease;
        self
    }

    pub fn max_lease(&self) -> SimDuration {
        self.max_lease
    }

    /// Move this registry's grant-id allocator into a disjoint namespace.
    /// Federation zones (and zone incarnations after state loss) each get
    /// their own namespace so ids stay globally unique — the property the
    /// crash-accountability oracle checks. Never lowers the allocator.
    pub fn set_id_base(&mut self, base: GrantId) {
        self.next_id = self.next_id.max(base.max(1));
    }

    /// Serde-able copy of the mutable state — the zone checkpoint.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            grants: self.grants.values().copied().collect(),
            next_id: self.next_id,
        }
    }

    /// Replace the mutable state with a checkpoint (snapshot recovery).
    pub fn install(&mut self, snap: &RegistrySnapshot) {
        self.grants = snap.grants.iter().map(|g| (g.id, *g)).collect();
        self.next_id = self.next_id.max(snap.next_id);
    }

    /// Drop every grant (a crash with state loss). `id_base` must be a
    /// fresh namespace — ids from the lost incarnation must never be
    /// reissued.
    pub fn clear_state(&mut self, id_base: GrantId) {
        self.grants.clear();
        self.next_id = id_base.max(1);
    }

    /// Enter (or extend) the post-crash quarantine window: new grants are
    /// denied with [`GrantDenied::Recovering`] until `until`, by which time
    /// every grant a lost incarnation issued has expired on the licensee's
    /// side (leases are capped at [`Self::max_lease`]).
    pub fn begin_quarantine(&mut self, until: SimTime) {
        self.quarantine_until = Some(self.quarantine_until.map_or(until, |q| q.max(until)));
    }

    pub fn is_quarantined(&self, now: SimTime) -> bool {
        self.quarantine_until.is_some_and(|q| now < q)
    }

    pub fn policy(&self) -> GrantPolicy {
        self.policy
    }

    pub fn plan(&self) -> ChannelPlan {
        self.plan
    }

    /// Purge expired grants. Returns how many lapsed — the reclamation
    /// path that returns a crashed zone's spectrum to the pool.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.grants.len();
        self.grants.retain(|_, g| g.is_active(now));
        let lapsed = before - self.grants.len();
        if lapsed > 0 {
            dlte_obs::metrics::counter_add("grants_expired", lapsed as u64);
        }
        lapsed
    }

    /// Number of active grants on `channel` whose contours overlap a grant
    /// at `location`/`contour`.
    fn channel_conflict_count(
        &self,
        channel: u32,
        location: Point,
        contour_km: f64,
        now: SimTime,
    ) -> usize {
        self.grants
            .values()
            .filter(|g| {
                g.is_active(now)
                    && g.channel == channel
                    && g.location.distance_km(location) < g.contour_km + contour_km
            })
            .count()
    }

    fn channel_conflicts(
        &self,
        channel: u32,
        location: Point,
        contour_km: f64,
        now: SimTime,
    ) -> bool {
        self.channel_conflict_count(channel, location, contour_km, now) > 0
    }

    /// Request a grant at time `now`.
    pub fn request(
        &mut self,
        req: GrantRequest,
        now: SimTime,
    ) -> Result<LicenseGrant, GrantDenied> {
        self.request_avoiding(req, &[], now)
    }

    /// Request a grant on none of the `avoid` channels (the ones a
    /// federation's neighbour zones forbid at the requester's location).
    /// One call counts one request, whatever channel it lands on.
    pub fn request_avoiding(
        &mut self,
        req: GrantRequest,
        avoid: &[u32],
        now: SimTime,
    ) -> Result<LicenseGrant, GrantDenied> {
        self.requests += 1;
        if self.is_quarantined(now) {
            return Err(self.deny(GrantDenied::Recovering));
        }
        if req.max_eirp_dbm > self.max_eirp_dbm {
            return Err(self.deny(GrantDenied::EirpTooHigh {
                limit_dbm: self.max_eirp_dbm,
            }));
        }
        let channel = match req.channel {
            Some(c) => {
                if avoid.contains(&c)
                    || self.policy == GrantPolicy::Exclusive
                        && self.channel_conflicts(c, req.location, req.contour_km, now)
                {
                    return Err(self.deny(GrantDenied::RequestedChannelTaken));
                }
                c
            }
            None => {
                // Automated assignment: channel with the fewest co-channel
                // conflicts (ties to the lowest index).
                let best = (0..self.plan.n_channels)
                    .filter(|c| !avoid.contains(c))
                    .map(|c| {
                        (
                            self.channel_conflict_count(c, req.location, req.contour_km, now),
                            c,
                        )
                    })
                    .min()
                    .ok_or(GrantDenied::NoChannelAvailable)
                    .map_err(|e| self.deny(e))?;
                if best.0 > 0 && self.policy == GrantPolicy::Exclusive {
                    return Err(self.deny(GrantDenied::NoChannelAvailable));
                }
                best.1
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        let grant = LicenseGrant {
            id,
            operator: req.operator,
            location: req.location,
            channel,
            max_eirp_dbm: req.max_eirp_dbm,
            contour_km: req.contour_km,
            granted_at: now,
            expires_at: now + req.lease.min(self.max_lease),
        };
        self.grants.insert(id, grant);
        dlte_obs::metrics::counter_add("grants_issued", 1);
        Ok(grant)
    }

    /// Count a denial in the stats and the metrics registry.
    fn deny(&mut self, why: GrantDenied) -> GrantDenied {
        self.denials += 1;
        dlte_obs::metrics::counter_add("grants_denied", 1);
        why
    }

    /// Renew a grant's lease. Returns the updated grant.
    pub fn renew(
        &mut self,
        id: GrantId,
        lease: dlte_sim::SimDuration,
        now: SimTime,
    ) -> Option<LicenseGrant> {
        let max_lease = self.max_lease;
        let g = self.grants.get_mut(&id)?;
        if !g.is_active(now) {
            return None;
        }
        g.expires_at = now + lease.min(max_lease);
        Some(*g)
    }

    /// Relinquish a grant.
    pub fn revoke(&mut self, id: GrantId) -> bool {
        self.grants.remove(&id).is_some()
    }

    /// All active grants within `radius_km` of `center` — peer discovery.
    pub fn query_region(&self, center: Point, radius_km: f64, now: SimTime) -> Vec<LicenseGrant> {
        self.grants
            .values()
            .filter(|g| g.is_active(now) && g.location.distance_km(center) <= radius_km)
            .copied()
            .collect()
    }

    /// Active co-channel grants whose contours overlap `grant`'s — the set
    /// of peers this AP must coordinate with over X2.
    pub fn contention_domain(&self, grant: &LicenseGrant, now: SimTime) -> Vec<LicenseGrant> {
        self.grants
            .values()
            .filter(|g| g.id != grant.id && g.is_active(now) && g.conflicts_with(grant))
            .copied()
            .collect()
    }

    pub fn active_count(&self, now: SimTime) -> usize {
        self.grants.values().filter(|g| g.is_active(now)).count()
    }

    pub fn grant(&self, id: GrantId) -> Option<&LicenseGrant> {
        self.grants.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_phy::band::Band;
    use dlte_sim::SimDuration;

    fn registry() -> SpectrumRegistry {
        // Band 5, two 10 MHz channels, 55 dBm cap, exclusive policy (the
        // policy most tests exercise; shared policy tested separately).
        SpectrumRegistry::exclusive(ChannelPlan::for_band(Band::band5(), 10.0), 55.0)
    }

    fn shared_registry() -> SpectrumRegistry {
        SpectrumRegistry::new(ChannelPlan::for_band(Band::band5(), 10.0), 55.0)
    }

    fn req(x_km: f64, channel: Option<u32>) -> GrantRequest {
        GrantRequest {
            operator: 1,
            location: Point::new(x_km, 0.0),
            channel,
            max_eirp_dbm: 50.0,
            contour_km: 10.0,
            lease: SimDuration::from_secs(3600),
        }
    }

    #[test]
    fn first_grant_succeeds_on_first_channel() {
        let mut r = registry();
        let g = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        assert_eq!(g.channel, 0);
        assert_eq!(r.active_count(SimTime::ZERO), 1);
    }

    #[test]
    fn overlapping_neighbor_gets_other_channel() {
        let mut r = registry();
        let g1 = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        let g2 = r.request(req(5.0, None), SimTime::ZERO).unwrap();
        assert_ne!(g1.channel, g2.channel, "auto-assignment separates them");
        // Third overlapping AP: both channels taken → denied.
        let e = r.request(req(2.0, None), SimTime::ZERO).unwrap_err();
        assert_eq!(e, GrantDenied::NoChannelAvailable);
        assert_eq!(r.denials, 1);
    }

    #[test]
    fn distant_aps_reuse_channels() {
        let mut r = registry();
        let g1 = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        let g2 = r.request(req(50.0, None), SimTime::ZERO).unwrap();
        assert_eq!(g1.channel, g2.channel, "spatial reuse");
        assert!(r.contention_domain(&g1, SimTime::ZERO).is_empty());
    }

    #[test]
    fn explicit_channel_respected_or_denied() {
        let mut r = registry();
        r.request(req(0.0, Some(1)), SimTime::ZERO).unwrap();
        let e = r.request(req(5.0, Some(1)), SimTime::ZERO).unwrap_err();
        assert_eq!(e, GrantDenied::RequestedChannelTaken);
        // Channel 0 remains free.
        assert!(r.request(req(5.0, Some(0)), SimTime::ZERO).is_ok());
    }

    #[test]
    fn eirp_cap_enforced() {
        let mut r = registry();
        let mut q = req(0.0, None);
        q.max_eirp_dbm = 60.0;
        assert_eq!(
            r.request(q, SimTime::ZERO),
            Err(GrantDenied::EirpTooHigh { limit_dbm: 55.0 })
        );
    }

    #[test]
    fn grants_expire_and_spectrum_returns() {
        let mut r = registry();
        let mut q = req(0.0, None);
        q.lease = SimDuration::from_secs(10);
        r.request(q, SimTime::ZERO).unwrap();
        // Same spot, channel 0: denied while active…
        assert!(r.request(req(0.0, Some(0)), SimTime::from_secs(5)).is_err());
        // …free after expiry.
        assert!(r.request(req(0.0, Some(0)), SimTime::from_secs(11)).is_ok());
        r.expire(SimTime::from_secs(11));
        assert_eq!(r.active_count(SimTime::from_secs(11)), 1);
    }

    #[test]
    fn renew_extends_only_active_grants() {
        let mut r = registry();
        let mut q = req(0.0, None);
        q.lease = SimDuration::from_secs(10);
        let g = r.request(q, SimTime::ZERO).unwrap();
        let renewed = r
            .renew(g.id, SimDuration::from_secs(100), SimTime::from_secs(5))
            .unwrap();
        assert_eq!(renewed.expires_at, SimTime::from_secs(105));
        // A lapsed grant cannot be renewed.
        assert!(r
            .renew(g.id, SimDuration::from_secs(10), SimTime::from_secs(200))
            .is_none());
        assert!(r
            .renew(999, SimDuration::from_secs(1), SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn region_query_finds_peers_the_dlte_discovery_primitive() {
        let mut r = registry();
        let _a = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        let _b = r.request(req(8.0, None), SimTime::ZERO).unwrap();
        let _c = r.request(req(100.0, None), SimTime::ZERO).unwrap();
        let nearby = r.query_region(Point::new(0.0, 0.0), 20.0, SimTime::ZERO);
        assert_eq!(nearby.len(), 2, "a and b, not the far one");
    }

    #[test]
    fn shared_policy_admits_overlap_for_coordination() {
        // The dLTE property: a third AP in a saturated area is not turned
        // away — it is granted the least-loaded channel and told (via its
        // contention domain) whom to coordinate with.
        let mut r = shared_registry();
        let _a = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        let _b = r.request(req(5.0, None), SimTime::ZERO).unwrap();
        let c = r.request(req(2.0, None), SimTime::ZERO).unwrap();
        let dom = r.contention_domain(&c, SimTime::ZERO);
        assert_eq!(dom.len(), 1, "must coordinate with one co-channel peer");
        assert_eq!(r.denials, 0);
    }

    #[test]
    fn contention_domain_is_cochannel_overlap_only() {
        let mut r = shared_registry();
        let a = r.request(req(0.0, Some(0)), SimTime::ZERO).unwrap();
        let _b = r.request(req(5.0, Some(1)), SimTime::ZERO).unwrap();
        // A third AP far enough from A to co-exist on 0 but inside
        // discovery range.
        let c = r.request(req(15.0, Some(0)), SimTime::ZERO).unwrap();
        // a (contour 10) and c (contour 10) at distance 15 < 20: conflict.
        let dom = r.contention_domain(&a, SimTime::ZERO);
        assert_eq!(dom.len(), 1);
        assert_eq!(dom[0].id, c.id);
    }

    #[test]
    fn leases_are_clamped_to_the_cap() {
        let mut r = registry().with_lease_cap(SimDuration::from_secs(30));
        let mut q = req(0.0, None);
        q.lease = SimDuration::from_secs(10_000);
        let g = r.request(q, SimTime::ZERO).unwrap();
        assert_eq!(g.expires_at, SimTime::from_secs(30));
        let renewed = r
            .renew(g.id, SimDuration::from_secs(10_000), SimTime::from_secs(10))
            .unwrap();
        assert_eq!(
            renewed.expires_at,
            SimTime::from_secs(40),
            "renew clamped too"
        );
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut r = registry();
        let g = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        let snap = r.snapshot();
        // Lose everything, then restore.
        r.clear_state(1);
        assert_eq!(r.active_count(SimTime::ZERO), 0);
        r.install(&snap);
        assert_eq!(r.active_count(SimTime::ZERO), 1);
        assert_eq!(r.grant(g.id).copied(), Some(g));
        // The allocator never goes backwards, so restored ids stay unique.
        let g2 = r.request(req(50.0, None), SimTime::ZERO).unwrap();
        assert!(g2.id > g.id);
    }

    #[test]
    fn quarantine_denies_new_grants_but_not_renewals() {
        let mut r = registry();
        let g = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        r.begin_quarantine(SimTime::from_secs(100));
        assert_eq!(
            r.request(req(50.0, None), SimTime::from_secs(10)),
            Err(GrantDenied::Recovering)
        );
        // A grant the registry still knows about can be renewed: renewal
        // cannot conflict with anything the registry forgot, because the
        // forgetting registry is the one that issued it.
        assert!(r
            .renew(g.id, SimDuration::from_secs(10), SimTime::from_secs(10))
            .is_some());
        // Quarantine lifts.
        assert!(r.request(req(50.0, None), SimTime::from_secs(100)).is_ok());
    }

    #[test]
    fn id_namespaces_do_not_collide() {
        let mut r = registry();
        r.set_id_base(1 << 48);
        let g = r.request(req(0.0, None), SimTime::ZERO).unwrap();
        assert_eq!(g.id, 1 << 48);
        // Lowering the base is a no-op.
        r.set_id_base(1);
        let g2 = r.request(req(50.0, None), SimTime::ZERO).unwrap();
        assert_eq!(g2.id, (1 << 48) + 1);
    }

    #[test]
    fn expire_reports_reclaimed_grants() {
        let mut r = registry();
        let mut q = req(0.0, None);
        q.lease = SimDuration::from_secs(10);
        r.request(q, SimTime::ZERO).unwrap();
        assert_eq!(r.expire(SimTime::from_secs(5)), 0);
        assert_eq!(r.expire(SimTime::from_secs(11)), 1);
        assert_eq!(r.active_count(SimTime::from_secs(11)), 0);
    }

    #[test]
    fn revoke_frees_spectrum() {
        let mut r = registry();
        let g = r.request(req(0.0, Some(0)), SimTime::ZERO).unwrap();
        assert!(r.revoke(g.id));
        assert!(!r.revoke(g.id));
        assert!(r.request(req(0.0, Some(0)), SimTime::ZERO).is_ok());
    }
}
