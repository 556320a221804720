//! Geographically federated registries.
//!
//! §4.3: *"Different registry designs are also possible, such as a federated
//! system similar to the DNS."* Zones own rectangular areas; each runs its
//! own [`SpectrumRegistry`]. A grant goes to the zone containing the
//! transmitter; a regional query fans out to every zone whose area the
//! query circle touches, then merges. Cross-zone interference at borders is
//! handled by having each zone's conflict check consult neighbor zones'
//! border grants (exchanged on request, like zone transfers).
//!
//! All three §4.3 governance flavours are federations: a central SAS is a
//! federation of one zone, and the replicated log is one zone that keeps a
//! write-ahead [`ReplicatedLog`] ([`Zone::with_log`]). The federation
//! appends every grant, renewal and revocation it serves to the owning
//! zone's log; read replicas follow it ([`FederatedRegistry::
//! sync_replicas`]) and the log folds into a hash-anchored snapshot
//! ([`FederatedRegistry::compact_logs`]).
//!
//! # Fault model
//!
//! Zones crash, restart, and partition independently:
//!
//! * a **crashed** zone serves nothing until [`FederatedRegistry::
//!   restart_zone`] brings it back — either without state loss
//!   ([`ZoneRecovery::Snapshot`]: a plain zone restores its last
//!   checkpoint, a logging zone rebuilds from its log) or with nothing
//!   ([`ZoneRecovery::StateLoss`], fresh grant-id namespace; a logging zone
//!   re-adopts the longest valid replica chain as its history but serves
//!   none of it);
//! * a **partitioned** zone is unreachable from the federation's query
//!   plane (and from its own clients) until [`FederatedRegistry::
//!   heal_zone`];
//! * a restart that cannot prove what the zone issued before the crash
//!   (every plain-zone restart, and a logging zone's state-loss restart)
//!   opens a **quarantine window** of one maximum lease: the zone denies
//!   *new* grants until every grant the lost incarnation may have issued
//!   has provably lapsed. A logging zone's lossless restart needs none.
//!
//! The safety rule throughout is *conservative denial*: when a zone whose
//! answer matters (the owner, or a border neighbor whose area the contour
//! touches) is down, unreachable, or quarantined, the request is denied
//! with [`GrantDenied::ZoneUnavailable`] — never guessed. That is what
//! keeps the no-double-grant invariant through arbitrary churn, at the
//! price the availability experiments (E17) measure.

use crate::geo::{Point, Rect};
use crate::license::{GrantId, GrantRequest, LicenseGrant, OperatorId};
use crate::registry::{GrantDenied, RegistrySnapshot, SpectrumRegistry};
use crate::replicated::{Entry, ReplicatedLog};
use dlte_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a crashed zone comes back.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ZoneRecovery {
    /// Everything since boot is gone; the zone restarts empty in a fresh
    /// grant-id namespace.
    StateLoss,
    /// Restore the last checkpoint taken with [`FederatedRegistry::
    /// checkpoint_zone`] (falls back to `StateLoss` if none was taken); a
    /// logging zone rebuilds from its log instead.
    Snapshot,
}

/// A zone's write-ahead log and the read replicas that follow it.
struct ZoneLog {
    log: ReplicatedLog,
    replicas: Vec<ReplicatedLog>,
    /// Replicas inside a desync window: they neither pull nor gossip.
    desynced: Vec<bool>,
}

impl ZoneLog {
    /// One sync round: every in-sync replica pulls from the log (only while
    /// the zone serves), then gossips with its in-sync peers — so healed
    /// replicas converge even while the zone is down or cut off. Returns
    /// the number of chains adopted.
    fn sync_round(&mut self, serving: bool) -> u64 {
        let mut adopted = 0;
        for i in 0..self.replicas.len() {
            if self.desynced[i] {
                continue;
            }
            if serving && self.replicas[i].sync_from(&self.log) {
                adopted += 1;
            }
            for j in 0..self.replicas.len() {
                if i == j || self.desynced[j] {
                    continue;
                }
                let (head, tail) = self.replicas.split_at_mut(i.max(j));
                let (me, peer) = if i < j {
                    (&mut head[i], &tail[0])
                } else {
                    (&mut tail[0], &head[j])
                };
                if me.sync_from(peer) {
                    adopted += 1;
                }
            }
        }
        adopted
    }
}

/// One zone: an area plus its registry, plus liveness state.
pub struct Zone {
    pub name: String,
    pub area: Rect,
    pub registry: SpectrumRegistry,
    up: bool,
    reachable: bool,
    checkpoint: Option<RegistrySnapshot>,
    crashed_at: Option<SimTime>,
    incarnation: u64,
    log: Option<ZoneLog>,
}

impl Zone {
    pub fn new(name: impl Into<String>, area: Rect, registry: SpectrumRegistry) -> Self {
        Zone {
            name: name.into(),
            area,
            registry,
            up: true,
            reachable: true,
            checkpoint: None,
            crashed_at: None,
            incarnation: 0,
            log: None,
        }
    }

    /// Keep a write-ahead log of everything this zone serves, followed by
    /// `n_replicas` read replicas (the replicated flavour of §4.3).
    pub fn with_log(mut self, n_replicas: usize) -> Self {
        self.log = Some(ZoneLog {
            log: ReplicatedLog::new(),
            replicas: vec![ReplicatedLog::new(); n_replicas],
            desynced: vec![false; n_replicas],
        });
        self
    }

    pub fn is_up(&self) -> bool {
        self.up
    }

    pub fn is_reachable(&self) -> bool {
        self.up && self.reachable
    }

    /// Every copy of this zone's log with whether it is in sync: the zone's
    /// own first (in sync while the zone is up), then each replica (in sync
    /// outside its desync window). Empty for a zone without a log.
    pub fn logs(&self) -> Vec<(&ReplicatedLog, bool)> {
        let Some(wal) = &self.log else {
            return Vec::new();
        };
        let replicas = wal.replicas.iter().zip(&wal.desynced);
        std::iter::once((&wal.log, self.up))
            .chain(replicas.map(|(r, &desynced)| (r, !desynced)))
            .collect()
    }

    /// A zone the federation can safely *rely on* for conflict answers:
    /// reachable and not hiding a lost window behind a quarantine.
    fn dependable(&self, now: SimTime) -> bool {
        self.is_reachable() && !self.registry.is_quarantined(now)
    }

    fn append(&mut self, entry: Entry) {
        if let Some(wal) = &mut self.log {
            wal.log.append(entry);
        }
    }

    /// Revoke a grant on behalf of operator `by`, logging the revocation.
    fn revoke(&mut self, id: GrantId, by: OperatorId) -> bool {
        let had = self.registry.revoke(id);
        if had {
            self.append(Entry::Revoke { id, by });
        }
        had
    }
}

/// The federation.
pub struct FederatedRegistry {
    zones: Vec<Zone>,
    /// Cross-zone queries served (fan-out accounting for E11-style
    /// overhead analysis).
    pub fanout_queries: u64,
    /// Fan-out queries that could not be served because the target zone
    /// was down or partitioned (the "timeout" path).
    pub fanout_unreachable: u64,
}

/// Grant-id namespace for a zone incarnation: 16 bits of zone, 16 bits of
/// incarnation, 32 bits of sequence. Every restart bumps the incarnation so
/// a reborn zone can never reissue an id its predecessor handed out.
fn id_base(zone: usize, incarnation: u64) -> GrantId {
    ((zone as u64 + 1) << 48) | ((incarnation & 0xFFFF) << 32)
}

impl FederatedRegistry {
    pub fn new(zones: Vec<Zone>) -> Self {
        let mut f = FederatedRegistry {
            zones,
            fanout_queries: 0,
            fanout_unreachable: 0,
        };
        for (i, z) in f.zones.iter_mut().enumerate() {
            z.registry.set_id_base(id_base(i, 0));
        }
        f
    }

    fn zone_of(&self, p: Point) -> Option<usize> {
        self.zones.iter().position(|z| z.area.contains(p))
    }

    /// The zone that issued grant `id`, read back out of its `id_base`
    /// namespace, if the federation has such a zone.
    pub fn zone_of_grant(&self, id: GrantId) -> Option<usize> {
        ((id >> 48) as usize)
            .checked_sub(1)
            .filter(|&z| z < self.zones.len())
    }

    /// Request a grant; routed to the owning zone, with a border check
    /// against every other zone whose area the contour touches.
    ///
    /// Conservative denial: if the owner is unreachable, or any zone whose
    /// border grants could conflict cannot be dependably consulted (down,
    /// partitioned, or quarantined after state loss), the request fails
    /// with [`GrantDenied::ZoneUnavailable`] rather than risking a grant
    /// that overlaps state we cannot see.
    pub fn request(
        &mut self,
        req: GrantRequest,
        now: SimTime,
    ) -> Result<LicenseGrant, GrantDenied> {
        let Some(owner) = self.zone_of(req.location) else {
            return Err(GrantDenied::NoChannelAvailable);
        };
        if !self.zones[owner].is_reachable() {
            return Err(GrantDenied::ZoneUnavailable);
        }
        // Border safety: collect conflicting channels in neighbor zones.
        // The fan-out filter must use the federation's protection bound
        // (requester contour + the 50 km max-neighbor-contour the border
        // query assumes), NOT the requester's contour alone: a neighbor
        // grant whose own contour reaches across the border can conflict
        // even when our contour never touches that zone. (Caught by the
        // federation-vs-monolith equivalence property.)
        let mut forbidden: Vec<u32> = Vec::new();
        for (i, z) in self.zones.iter().enumerate() {
            if i == owner
                || !z
                    .area
                    .intersects_circle(req.location, req.contour_km + 50.0)
            {
                continue;
            }
            if !z.dependable(now) {
                // The neighbor might hold (or have forgotten) a grant we
                // cannot see; refusing is the only safe answer.
                self.fanout_unreachable += 1;
                return Err(GrantDenied::ZoneUnavailable);
            }
            self.fanout_queries += 1;
            for g in z
                .registry
                .query_region(req.location, req.contour_km + 50.0, now)
            {
                if g.location.distance_km(req.location) < g.contour_km + req.contour_km {
                    forbidden.push(g.channel);
                }
            }
        }
        let zone = &mut self.zones[owner];
        let g = zone.registry.request_avoiding(req, &forbidden, now)?;
        zone.append(Entry::Grant(g));
        Ok(g)
    }

    /// Renew a grant, routed to the issuing zone via its id namespace.
    pub fn renew(
        &mut self,
        id: GrantId,
        lease: SimDuration,
        now: SimTime,
    ) -> Result<LicenseGrant, GrantDenied> {
        let zone = self.reachable_issuer(id)?;
        let g = zone
            .registry
            .renew(id, lease, now)
            .ok_or(GrantDenied::UnknownGrant)?;
        // A renewal is a later Grant entry with the same id; the derived
        // table supersedes by id.
        zone.append(Entry::Grant(g));
        Ok(g)
    }

    /// Release operator `by`'s grant. Returns `Err(ZoneUnavailable)` when
    /// the issuing zone cannot be reached — the grant then occupies
    /// spectrum until its lease lapses (the reclamation path).
    pub fn release(&mut self, id: GrantId, by: OperatorId) -> Result<bool, GrantDenied> {
        Ok(self.reachable_issuer(id)?.revoke(id, by))
    }

    fn reachable_issuer(&mut self, id: GrantId) -> Result<&mut Zone, GrantDenied> {
        let zone = self.zone_of_grant(id).ok_or(GrantDenied::UnknownGrant)?;
        let z = &mut self.zones[zone];
        if !z.is_reachable() {
            return Err(GrantDenied::ZoneUnavailable);
        }
        Ok(z)
    }

    /// Lapse expired grants in every live zone.
    pub fn expire(&mut self, now: SimTime) {
        for z in &mut self.zones {
            if z.up {
                z.registry.expire(now);
            }
        }
    }

    /// Checkpoint a plain zone's registry (what `ZoneRecovery::Snapshot`
    /// restores). A logging zone's log is its durable record, so it takes
    /// none.
    pub fn checkpoint_zone(&mut self, zone: usize) {
        if let Some(z) = self.zones.get_mut(zone) {
            if z.up && z.log.is_none() {
                z.checkpoint = Some(z.registry.snapshot());
            }
        }
    }

    /// Crash a zone: it stops serving everything until restarted.
    pub fn crash_zone(&mut self, zone: usize, now: SimTime) {
        if let Some(z) = self.zones.get_mut(zone) {
            if z.up {
                z.up = false;
                z.crashed_at = Some(now);
                dlte_obs::metrics::counter_add("zone_down", 1);
            }
        }
    }

    /// Restart a crashed zone in a fresh incarnation.
    ///
    /// A logging zone restarting without state loss rebuilds its serving
    /// state from its log: that is lossless, so it serves at once. Every
    /// other restart opens a quarantine window of one maximum lease from
    /// the crash instant: the zone cannot prove which grants it issued
    /// between its recovery horizon and the crash, so it denies new grants
    /// until every such grant has lapsed on the licensee's side. Snapshot
    /// recovery still serves renewals for checkpointed grants (the
    /// availability edge E17 measures); state loss starts empty, and a
    /// logging zone re-adopts the longest valid replica chain — the
    /// history survives tamper-evidently, but none of it is served again.
    pub fn restart_zone(&mut self, zone: usize, now: SimTime, recovery: ZoneRecovery) {
        let Some(z) = self.zones.get_mut(zone) else {
            return;
        };
        if z.up {
            return;
        }
        z.up = true;
        z.incarnation += 1;
        let base = id_base(zone, z.incarnation);
        let crashed_at = z.crashed_at.take().unwrap_or(now);
        z.registry.clear_state(base);
        let lossless = match (&mut z.log, recovery) {
            (Some(wal), ZoneRecovery::Snapshot) => {
                let grants = wal.log.grant_table(now);
                z.registry.install(&RegistrySnapshot {
                    grants,
                    next_id: base,
                });
                true
            }
            (Some(wal), ZoneRecovery::StateLoss) => {
                wal.log = ReplicatedLog::new();
                for r in &wal.replicas {
                    wal.log.sync_from(r);
                }
                false
            }
            (None, ZoneRecovery::Snapshot) => {
                if let Some(snap) = &z.checkpoint {
                    z.registry.install(snap);
                }
                false
            }
            (None, ZoneRecovery::StateLoss) => false,
        };
        if !lossless {
            let max_lease = z.registry.max_lease();
            z.registry.begin_quarantine(crashed_at + max_lease);
        }
        dlte_obs::metrics::counter_add("zone_resync", 1);
    }

    /// Partition a zone away from the federation (and its clients).
    pub fn partition_zone(&mut self, zone: usize) {
        if let Some(z) = self.zones.get_mut(zone) {
            if z.reachable {
                z.reachable = false;
                dlte_obs::metrics::counter_add("zone_down", 1);
            }
        }
    }

    /// Heal a partition. Callers should follow with [`Self::anti_entropy`]
    /// to detect and repair any cross-zone divergence.
    pub fn heal_zone(&mut self, zone: usize) {
        if let Some(z) = self.zones.get_mut(zone) {
            if !z.reachable {
                z.reachable = true;
                dlte_obs::metrics::counter_add("zone_resync", 1);
            }
        }
    }

    /// Open or close replica `replica`'s desync window in every logging
    /// zone (indices wrap at the zone's replica count): a desynced replica
    /// neither pulls nor gossips.
    pub fn desync_replica(&mut self, replica: usize, desynced: bool) {
        for wal in self.zones.iter_mut().filter_map(|z| z.log.as_mut()) {
            let n = wal.desynced.len();
            if n > 0 {
                wal.desynced[replica % n] = desynced;
            }
        }
    }

    /// One replica sync round in every logging zone (see the pull-then-
    /// gossip order on each zone's log). Returns the chains adopted.
    pub fn sync_replicas(&mut self) -> u64 {
        let mut adopted = 0;
        for z in &mut self.zones {
            let serving = z.is_reachable();
            if let Some(wal) = &mut z.log {
                adopted += wal.sync_round(serving);
            }
        }
        adopted
    }

    /// Fold the log of every logging zone that is up into a hash-anchored
    /// snapshot of its live table at `now`. Returns how many logs folded
    /// anything.
    pub fn compact_logs(&mut self, now: SimTime) -> u64 {
        let mut compacted = 0;
        for z in &mut self.zones {
            if let (true, Some(wal)) = (z.up, &mut z.log) {
                if wal.log.compact(now) > 0 {
                    compacted += 1;
                }
            }
        }
        compacted
    }

    /// Anti-entropy pass after partitions heal: every pair of reachable
    /// zones exchanges border grants and checks for cross-zone conflicts.
    /// Conservative denial means divergence should never arise, but if it
    /// does (or a future zone implementation is less careful), the repair
    /// rule is deterministic: the younger grant (later `granted_at`, ties
    /// to the higher id) is revoked. Returns the revoked grants so the
    /// driver can notify their operators.
    pub fn anti_entropy(&mut self, now: SimTime) -> Vec<LicenseGrant> {
        let mut all: Vec<(usize, LicenseGrant)> = Vec::new();
        for (i, z) in self.zones.iter().enumerate() {
            if !z.is_reachable() {
                continue;
            }
            let mut zone_grants = z.registry.snapshot().grants;
            zone_grants.retain(|g| g.is_active(now));
            all.extend(zone_grants.into_iter().map(|g| (i, g)));
        }
        // Older grants win; iterate in seniority order and revoke any
        // later cross-zone grant conflicting with a kept one.
        all.sort_by(|(_, a), (_, b)| {
            a.granted_at
                .cmp(&b.granted_at)
                .then_with(|| a.id.cmp(&b.id))
        });
        let mut kept: Vec<(usize, LicenseGrant)> = Vec::new();
        let mut revoked: Vec<LicenseGrant> = Vec::new();
        for (zi, g) in all {
            let loser = kept
                .iter()
                .any(|(kzi, k)| *kzi != zi && k.conflicts_with(&g));
            if loser {
                self.zones[zi].revoke(g.id, g.operator);
                dlte_obs::metrics::counter_add("zone_resync", 1);
                revoked.push(g);
            } else {
                kept.push((zi, g));
            }
        }
        revoked
    }

    /// Regional query across all intersecting zones. Unreachable zones are
    /// skipped (and counted) — the answer is best-effort, which is why the
    /// *grant* path above never settles for it.
    pub fn query_region(
        &mut self,
        center: Point,
        radius_km: f64,
        now: SimTime,
    ) -> Vec<LicenseGrant> {
        let mut out = Vec::new();
        for z in &self.zones {
            if z.area.intersects_circle(center, radius_km) {
                if !z.is_reachable() {
                    self.fanout_unreachable += 1;
                    continue;
                }
                self.fanout_queries += 1;
                out.extend(z.registry.query_region(center, radius_km, now));
            }
        }
        out.sort_by_key(|g| g.id);
        out
    }

    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::license::ChannelPlan;
    use dlte_phy::band::Band;
    use dlte_sim::SimDuration;

    fn two_zone_federation() -> FederatedRegistry {
        let plan = ChannelPlan::for_band(Band::band5(), 10.0);
        FederatedRegistry::new(vec![
            Zone::new(
                "west",
                Rect::new(Point::new(-100.0, -100.0), Point::new(0.0, 100.0)),
                SpectrumRegistry::new(plan, 55.0),
            ),
            Zone::new(
                "east",
                Rect::new(Point::new(0.0001, -100.0), Point::new(100.0, 100.0)),
                SpectrumRegistry::new(plan, 55.0),
            ),
        ])
    }

    fn solo(logging: bool, channel_mhz: f64) -> FederatedRegistry {
        let plan = ChannelPlan::for_band(Band::band5(), channel_mhz);
        let zone = Zone::new(
            "solo",
            Rect::new(Point::new(-100.0, -100.0), Point::new(100.0, 100.0)),
            SpectrumRegistry::exclusive(plan, 55.0).with_lease_cap(SimDuration::from_secs(100)),
        );
        FederatedRegistry::new(vec![if logging { zone.with_log(2) } else { zone }])
    }

    fn req(x: f64, channel: Option<u32>) -> GrantRequest {
        GrantRequest {
            operator: 1,
            location: Point::new(x, 0.0),
            channel,
            max_eirp_dbm: 50.0,
            contour_km: 10.0,
            lease: SimDuration::from_secs(3600),
        }
    }

    #[test]
    fn grants_route_to_owning_zone() {
        let mut f = two_zone_federation();
        f.request(req(-50.0, None), SimTime::ZERO).unwrap();
        f.request(req(50.0, None), SimTime::ZERO).unwrap();
        assert_eq!(f.zones()[0].registry.active_count(SimTime::ZERO), 1);
        assert_eq!(f.zones()[1].registry.active_count(SimTime::ZERO), 1);
    }

    #[test]
    fn zone_ids_are_namespaced() {
        let mut f = two_zone_federation();
        let w = f.request(req(-50.0, None), SimTime::ZERO).unwrap();
        let e = f.request(req(50.0, None), SimTime::ZERO).unwrap();
        assert_ne!(w.id, e.id, "cross-zone grant ids must never collide");
        assert_eq!(f.zone_of_grant(w.id), Some(0));
        assert_eq!(f.zone_of_grant(e.id), Some(1));
    }

    #[test]
    fn outside_all_zones_is_denied() {
        let mut f = two_zone_federation();
        assert!(f.request(req(500.0, None), SimTime::ZERO).is_err());
    }

    #[test]
    fn border_conflicts_respected_across_zones() {
        let mut f = two_zone_federation();
        // Grant on the west side of the border, channel 0.
        let g1 = f.request(req(-3.0, Some(0)), SimTime::ZERO).unwrap();
        assert_eq!(g1.channel, 0);
        // A grant just east of the border overlaps it; auto-assignment must
        // avoid channel 0 even though the zones are different.
        let g2 = f.request(req(3.0, None), SimTime::ZERO).unwrap();
        assert_ne!(g2.channel, 0, "border coordination failed");
        // Explicitly requesting the conflicting channel is refused.
        let e = f.request(req(4.0, Some(0)), SimTime::ZERO).unwrap_err();
        assert_eq!(e, GrantDenied::RequestedChannelTaken);
    }

    #[test]
    fn regional_query_merges_zones() {
        let mut f = two_zone_federation();
        f.request(req(-3.0, Some(0)), SimTime::ZERO).unwrap();
        f.request(req(3.0, Some(1)), SimTime::ZERO).unwrap();
        let all = f.query_region(Point::new(0.0, 0.0), 10.0, SimTime::ZERO);
        assert_eq!(all.len(), 2, "both sides of the border visible");
        assert!(f.fanout_queries >= 2, "query fanned out to both zones");
        // A query far inside one zone touches only it.
        let before = f.fanout_queries;
        f.query_region(Point::new(-90.0, 0.0), 5.0, SimTime::ZERO);
        assert_eq!(f.fanout_queries, before + 1);
    }

    #[test]
    fn crashed_zone_denies_and_neighbors_stay_up() {
        let mut f = two_zone_federation();
        f.crash_zone(0, SimTime::ZERO);
        assert_eq!(
            f.request(req(-50.0, None), SimTime::from_secs(1)),
            Err(GrantDenied::ZoneUnavailable)
        );
        // Deep inside the east zone — beyond contour + the 50 km
        // protection bound from the crashed zone: unaffected.
        assert!(f.request(req(70.0, None), SimTime::from_secs(1)).is_ok());
    }

    #[test]
    fn border_blindness_regression() {
        // Regression for the bug the equivalence property caught: a west
        // grant whose 19 km contour reaches far past the border must
        // forbid channel 0 for an east request whose own 5 km contour
        // never touches the west zone. The old fan-out filter used the
        // requester's contour to pick which zones to consult and missed it.
        let mut f = two_zone_federation();
        let mut w = req(-2.0, Some(0));
        w.contour_km = 19.0;
        f.request(w, SimTime::ZERO).unwrap();
        let mut e = req(15.0, None);
        e.contour_km = 5.0;
        // distance 17 < 19 + 5: a real RF conflict on channel 0.
        let g = f.request(e, SimTime::ZERO).unwrap();
        assert_ne!(g.channel, 0, "cross-border conflict missed");
        let mut e0 = req(15.0, Some(0));
        e0.contour_km = 5.0;
        assert_eq!(
            f.request(e0, SimTime::ZERO),
            Err(GrantDenied::RequestedChannelTaken)
        );
    }

    #[test]
    fn border_request_denied_while_neighbor_is_unreachable() {
        let mut f = two_zone_federation();
        f.partition_zone(0);
        // The east request's contour reaches into the west zone, whose
        // grants we cannot see → conservative denial, not a guess.
        assert_eq!(
            f.request(req(3.0, None), SimTime::from_secs(1)),
            Err(GrantDenied::ZoneUnavailable)
        );
        f.heal_zone(0);
        assert!(f.request(req(3.0, None), SimTime::from_secs(1)).is_ok());
    }

    #[test]
    fn state_loss_restart_quarantines_and_renew_fails() {
        let mut f = two_zone_federation();
        let mut q = req(-50.0, None);
        q.lease = SimDuration::from_secs(100);
        let g = f.request(q, SimTime::ZERO).unwrap();
        f.crash_zone(0, SimTime::from_secs(10));
        f.restart_zone(0, SimTime::from_secs(20), ZoneRecovery::StateLoss);
        // The zone forgot the grant: renewing it fails…
        assert_eq!(
            f.renew(g.id, SimDuration::from_secs(100), SimTime::from_secs(21)),
            Err(GrantDenied::UnknownGrant)
        );
        // …and new grants are denied through the quarantine window
        // (crash at 10 + max lease 3600).
        assert_eq!(
            f.request(req(-50.0, None), SimTime::from_secs(30)),
            Err(GrantDenied::Recovering)
        );
        assert!(f
            .request(req(-50.0, None), SimTime::from_secs(3611))
            .is_ok());
    }

    #[test]
    fn snapshot_restart_serves_checkpointed_renewals() {
        let mut f = two_zone_federation();
        let mut q = req(-50.0, None);
        q.lease = SimDuration::from_secs(100);
        let g = f.request(q, SimTime::ZERO).unwrap();
        f.checkpoint_zone(0);
        f.crash_zone(0, SimTime::from_secs(10));
        f.restart_zone(0, SimTime::from_secs(20), ZoneRecovery::Snapshot);
        // The checkpointed grant survives: renewals keep working even
        // inside the quarantine window.
        let renewed = f
            .renew(g.id, SimDuration::from_secs(100), SimTime::from_secs(21))
            .unwrap();
        assert_eq!(renewed.id, g.id);
        // New grants still wait out the quarantine.
        assert_eq!(
            f.request(req(-90.0, None), SimTime::from_secs(30)),
            Err(GrantDenied::Recovering)
        );
    }

    #[test]
    fn quarantined_neighbor_blocks_border_requests_only() {
        let mut f = two_zone_federation();
        f.crash_zone(0, SimTime::from_secs(10));
        f.restart_zone(0, SimTime::from_secs(20), ZoneRecovery::StateLoss);
        // West is up but quarantined: it may have forgotten a border grant,
        // so an east request whose contour reaches it must be denied…
        assert_eq!(
            f.request(req(3.0, None), SimTime::from_secs(30)),
            Err(GrantDenied::ZoneUnavailable)
        );
        // …while an east request beyond the protection bound is served.
        assert!(f.request(req(70.0, None), SimTime::from_secs(30)).is_ok());
    }

    #[test]
    fn state_loss_never_reissues_old_ids() {
        let mut f = two_zone_federation();
        let g = f.request(req(-50.0, None), SimTime::ZERO).unwrap();
        f.crash_zone(0, SimTime::from_secs(1));
        f.restart_zone(0, SimTime::from_secs(2), ZoneRecovery::StateLoss);
        // Wait out the quarantine, then grant again from the reborn zone.
        let t = SimTime::from_secs(4000);
        let g2 = f.request(req(-50.0, None), t).unwrap();
        assert_ne!(g.id, g2.id, "fresh incarnation, fresh id namespace");
        assert_eq!(f.zone_of_grant(g2.id), Some(0));
    }

    #[test]
    fn release_routes_and_fails_when_zone_down() {
        let mut f = two_zone_federation();
        let g = f.request(req(-50.0, None), SimTime::ZERO).unwrap();
        f.crash_zone(0, SimTime::from_secs(1));
        assert_eq!(f.release(g.id, 1), Err(GrantDenied::ZoneUnavailable));
        f.restart_zone(0, SimTime::from_secs(2), ZoneRecovery::StateLoss);
        // The reborn zone no longer holds it.
        assert_eq!(f.release(g.id, 1), Ok(false));
        assert_eq!(f.release(u64::MAX, 1), Err(GrantDenied::UnknownGrant));
    }

    #[test]
    fn anti_entropy_repairs_cross_zone_divergence() {
        let mut f = two_zone_federation();
        let g1 = f.request(req(-3.0, Some(0)), SimTime::ZERO).unwrap();
        // Force divergence by writing directly into the east zone behind
        // the federation's back (simulating a buggy or byzantine zone that
        // skipped the border check).
        let conflicting = f.zones[1]
            .registry
            .request(req(3.0, Some(0)), SimTime::from_secs(1))
            .unwrap();
        assert!(g1.conflicts_with(&conflicting));
        let revoked = f.anti_entropy(SimTime::from_secs(2));
        assert_eq!(revoked.len(), 1);
        assert_eq!(revoked[0].id, conflicting.id, "younger grant loses");
        // The older grant survives; the conflict is gone.
        assert_eq!(f.zones()[1].registry.active_count(SimTime::from_secs(2)), 0);
        assert_eq!(f.zones()[0].registry.active_count(SimTime::from_secs(2)), 1);
        // Idempotent once repaired.
        assert!(f.anti_entropy(SimTime::from_secs(3)).is_empty());
    }

    #[test]
    fn auto_assigned_request_counts_once() {
        // Five 5 MHz channels; channels 0 and 1 taken at the same spot.
        let mut f = solo(false, 5.0);
        f.request(req(0.0, Some(0)), SimTime::ZERO).unwrap();
        f.request(req(1.0, Some(1)), SimTime::ZERO).unwrap();
        let g = f.request(req(2.0, None), SimTime::ZERO).unwrap();
        assert_eq!(g.channel, 2);
        let r = &f.zones()[0].registry;
        assert_eq!((r.requests, r.denials), (3, 0), "one call per request");
    }

    /// Plain and logging zones through a crash and a restart with and
    /// without state loss: does a pre-crash grant still renew, do new
    /// requests wait out crash + max lease, and do new ids come from a
    /// fresh incarnation.
    #[test]
    fn zone_lifecycle_table() {
        use ZoneRecovery::{Snapshot, StateLoss};
        // (logging, recovery, pre-crash grant renews, quarantined)
        let rows = [
            (false, StateLoss, false, true),
            (false, Snapshot, false, true),
            (true, StateLoss, false, true),
            (true, Snapshot, true, false),
        ];
        let lease = SimDuration::from_secs(100);
        let crash = SimTime::from_secs(10);
        for (logging, recovery, renews, quarantined) in rows {
            let row = format!("logging {logging}, {recovery:?}");
            let mut f = solo(logging, 10.0);
            // The checkpoint predates the grant: only a log records it.
            f.checkpoint_zone(0);
            let g = f.request(req(-50.0, None), SimTime::from_secs(1)).unwrap();
            f.sync_replicas();
            f.crash_zone(0, crash);
            f.restart_zone(0, SimTime::from_secs(20), recovery);
            let renewed = f.renew(g.id, lease, SimTime::from_secs(21));
            assert_eq!(renewed.is_ok(), renews, "{row}: {renewed:?}");
            let fresh = f.request(req(50.0, None), SimTime::from_secs(22));
            if quarantined {
                assert_eq!(fresh, Err(GrantDenied::Recovering), "{row}");
            }
            let fresh = fresh
                .or_else(|_| f.request(req(50.0, None), crash + lease))
                .unwrap();
            assert_eq!(f.zone_of_grant(fresh.id), Some(0), "{row}");
            assert_eq!((fresh.id >> 32) & 0xFFFF, 1, "{row}: fresh incarnation");
            if logging {
                // Both restarts keep the history: the log, or the replica
                // chain a state-losing zone re-adopts.
                let (log, in_sync) = f.zones()[0].logs()[0];
                assert!(in_sync && log.height() >= 1, "{row}: history lost");
            }
        }
    }

    #[test]
    fn logging_zone_logs_serves_and_replicates() {
        let mut f = solo(true, 10.0);
        let t = SimTime::from_secs(1);
        let a = f.request(req(-50.0, None), t).unwrap();
        let b = f.request(req(50.0, None), t).unwrap();
        f.renew(a.id, SimDuration::from_secs(50), t).unwrap();
        assert_eq!(f.release(b.id, b.operator), Ok(true));
        let table = |f: &FederatedRegistry| -> Vec<(u64, usize)> {
            f.zones()[0]
                .logs()
                .iter()
                .map(|(log, _)| (log.height(), log.grant_table(t).len()))
                .collect()
        };
        // Grant, grant, renewal, revocation; the replicas have nothing yet.
        assert_eq!(table(&f), [(4, 1), (0, 0), (0, 0)]);
        // A desynced replica neither pulls nor gossips; the other pulls.
        f.desync_replica(1, true);
        assert_eq!(f.sync_replicas(), 1);
        assert_eq!(table(&f), [(4, 1), (4, 1), (0, 0)]);
        assert!(!f.zones()[0].logs()[2].1, "replica 1 is out of sync");
        // Healed, it catches up by gossip even while the zone is down.
        f.crash_zone(0, t);
        f.desync_replica(1, false);
        assert_eq!(f.sync_replicas(), 1);
        assert_eq!(table(&f), [(4, 1), (4, 1), (4, 1)]);
        // A down zone does not compact; an up one folds its log.
        assert_eq!(f.compact_logs(t), 0);
        f.restart_zone(0, t, ZoneRecovery::Snapshot);
        assert_eq!(f.compact_logs(t), 1);
        assert_eq!(f.zones()[0].logs()[0].0.blocks().len(), 0);
    }
}
