//! # Registry chaos driver
//!
//! Drives a population of APs (spectrum *clients*) against one of the three
//! §4.3 registry flavours while a [`RegistryFaultPlan`] crashes zones,
//! partitions them, and desyncs log replicas — then condemns the run with
//! the `dlte-check` registry oracles. The E17 experiment and the
//! `dlte-run fuzz --registry` sweep both sit on [`run_chaos`].
//!
//! The driver is a plain tick loop (no event engine): registry traffic is
//! request/renew/release RPCs at human timescales, so a 0.5 s tick is finer
//! than any mechanism it exercises, and a pure loop keeps every run
//! bit-identical however it is scheduled (`par_map` across flavours, any
//! `--jobs`/`--shards` setting).
//!
//! Per tick, in order: fault plan events → lease expiry → AP state machines
//! (request / renew at half-lease / move with break-before-make handoff) →
//! replica sync + compaction / zone checkpoints → availability sample.
//!
//! ## The three flavours
//!
//! Every flavour is a [`FederatedRegistry`]; they differ only in their
//! zones, so one fault body and one maintenance step serve all three.
//!
//! * **Centralized** — one zone owning the whole area (the CBRS SAS). Every
//!   fault hits the single point; availability pays for simplicity.
//! * **Federated** — a column grid of zones. Conservative denial at borders
//!   (deny when any zone whose answer matters is down, partitioned, or
//!   quarantined) keeps no-double-grant through churn; only the blast
//!   radius shrinks.
//! * **Replicated** — one zone that keeps a write-ahead [`ReplicatedLog`],
//!   with read replicas that sync each tick (log first, then gossip). A
//!   restart without state loss rebuilds from the log and serves at once.
//!   A state-losing restart adopts the longest valid replica chain — the
//!   *history* survives tamper-evidently — but serves nothing new until
//!   one maximum lease has drained past the crash, and never re-renews a
//!   grant it cannot prove it issued: recovery is verifiable, not trusted.
//!
//! [`ReplicatedLog`]: dlte_registry::ReplicatedLog

use dlte_check::registry::{
    check_registry, CrashRecord, GrantRecord, RegistryEvidence, ReplicaTable,
};
use dlte_check::Violation;
use dlte_faults::registry::{RegistryFault, RegistryFaultPlan};
use dlte_net::fxhash::FxHashMap;
use dlte_phy::band::Band;
use dlte_registry::registry::GrantPolicy;
use dlte_registry::{
    ChannelPlan, FederatedRegistry, GrantDenied, GrantRequest, LicenseGrant, Point, Rect,
    SpectrumRegistry, Zone, ZoneRecovery,
};
use dlte_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Tick length. Registry RPCs happen at human timescales; 0.5 s is finer
/// than every lease, fault window, and sync interval the driver models.
const DT_S: f64 = 0.5;
/// Zones checkpoint (the `ZoneRecovery::Snapshot` source) every 5 s.
const CHECKPOINT_EVERY_S: f64 = 5.0;
/// Logging zones fold their logs every 15 s.
const COMPACT_EVERY_S: f64 = 15.0;
/// Per-tick probability an AP relocates (break-before-make handoff).
const MOVE_CHANCE: f64 = 0.01;

/// Which registry governance flavour a workload runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Flavour {
    Centralized,
    Federated,
    Replicated,
}

impl std::fmt::Display for Flavour {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Flavour::Centralized => write!(f, "centralized"),
            Flavour::Federated => write!(f, "federated"),
            Flavour::Replicated => write!(f, "replicated"),
        }
    }
}

/// One self-contained registry chaos workload: everything needed to rerun
/// the exact tick trajectory. Plain serde data, like `FuzzCase`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistryWorkload {
    pub seed: u64,
    pub flavour: Flavour,
    /// Zone count for the federated flavour (the others have one zone and
    /// map the plan's zone indices onto it).
    pub n_zones: usize,
    /// Read replicas of the replicated flavour's log.
    pub n_replicas: usize,
    pub n_aps: usize,
    /// Side of the square service area, km.
    pub area_km: f64,
    /// Interference contour every AP requests, km.
    pub contour_km: f64,
    /// Lease APs ask for, seconds.
    pub lease_s: f64,
    /// Registry-side lease cap (bounds crash quarantines), seconds.
    pub max_lease_s: f64,
    /// Run horizon, seconds.
    pub total_s: f64,
    pub plan: RegistryFaultPlan,
}

/// What one chaos run produced: counters for the E17 table and the oracle
/// verdict (with the evidence that justifies it, for repro files).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosOutcome {
    pub requests: u64,
    pub granted: u64,
    pub denied: u64,
    pub renews_ok: u64,
    pub renews_failed: u64,
    /// Mean percentage of APs holding a live grant, sampled every tick.
    pub availability_pct: f64,
    pub zone_crashes: u64,
    pub resyncs: u64,
    pub compactions: u64,
    pub violations: Vec<Violation>,
    pub evidence: RegistryEvidence,
}

/// The registry under test: every flavour is a federation of columns that
/// split the service area (one column unless federated), and the
/// replicated flavour's one zone keeps a log.
fn build_registry(w: &RegistryWorkload) -> FederatedRegistry {
    let plan = ChannelPlan::for_band(Band::band5(), 10.0);
    let max_lease = SimDuration::from_secs_f64(w.max_lease_s);
    let half = w.area_km / 2.0 + 1.0;
    let n = match w.flavour {
        Flavour::Federated => w.n_zones.max(1),
        Flavour::Centralized | Flavour::Replicated => 1,
    };
    let width = (2.0 * half) / n as f64;
    let zones = (0..n)
        .map(|i| {
            let x0 = -half + i as f64 * width;
            // The last column absorbs rounding so the union covers the
            // whole area.
            let x1 = if i + 1 == n { half } else { x0 + width };
            let zone = Zone::new(
                format!("zone-{i}"),
                Rect::new(Point::new(x0, -half), Point::new(x1, half)),
                SpectrumRegistry::with_policy(plan, 55.0, GrantPolicy::Exclusive)
                    .with_lease_cap(max_lease),
            );
            match w.flavour {
                Flavour::Replicated => zone.with_log(w.n_replicas),
                Flavour::Centralized | Flavour::Federated => zone,
            }
        })
        .collect();
    FederatedRegistry::new(zones)
}

/// One AP as a spectrum client.
struct Ap {
    operator: u64,
    rng: SimRng,
    location: Point,
    state: ApState,
    retry_at: SimTime,
}

enum ApState {
    Idle,
    Licensed {
        grant: LicenseGrant,
        /// Set when a renewal came back `UnknownGrant`/`Recovering`: the
        /// registry no longer honors this grant, so the AP rides out the
        /// lease it already holds and stops at expiry.
        doomed: bool,
    },
}

/// Execute one workload end to end and judge it with the registry oracles.
pub fn run_chaos(w: &RegistryWorkload) -> ChaosOutcome {
    let mut reg = build_registry(w);
    let faults = w.plan.compile();
    let mut next_fault = 0usize;

    let rng = SimRng::new(w.seed).fork("registry-chaos-run");
    let half = w.area_km / 2.0;
    let mut aps: Vec<Ap> = (0..w.n_aps)
        .map(|i| {
            let mut r = rng.fork_idx("ap", i as u64);
            let location = Point::new(r.uniform(-half, half), r.uniform(-half, half));
            Ap {
                operator: i as u64 + 1,
                rng: r,
                location,
                state: ApState::Idle,
                retry_at: SimTime::ZERO,
            }
        })
        .collect();

    let lease = SimDuration::from_secs_f64(w.lease_s);
    let mut out = ChaosOutcome {
        evidence: RegistryEvidence {
            exclusive: true,
            max_lease_s: w.max_lease_s,
            ..RegistryEvidence::default()
        },
        ..ChaosOutcome::default()
    };
    let mut grant_log: FxHashMap<u64, GrantRecord> = FxHashMap::default();
    let mut licensed_samples = 0u64;
    let mut next_checkpoint = SimTime::ZERO;
    let mut next_compaction = SimTime::ZERO + SimDuration::from_secs_f64(COMPACT_EVERY_S);

    let steps = (w.total_s / DT_S).ceil() as u64;
    for step in 0..steps {
        let now = SimTime::ZERO + SimDuration::from_secs_f64(step as f64 * DT_S);

        // 1. Fault plan events due by this tick.
        while next_fault < faults.len() && faults[next_fault].0 <= now {
            let fault = faults[next_fault].1;
            next_fault += 1;
            apply_fault(&mut reg, fault, now, &mut out, &mut grant_log, &mut aps);
        }

        // 2. Lease expiry (the reclamation path).
        reg.expire(now);

        // 3. AP state machines.
        for ap in &mut aps {
            tick_ap(
                ap,
                &mut reg,
                now,
                lease,
                w.contour_km,
                &mut out,
                &mut grant_log,
            );
        }

        // 4. Maintenance: zone checkpoints, replica sync, log compaction.
        if now >= next_checkpoint {
            for z in 0..reg.zones().len() {
                reg.checkpoint_zone(z);
            }
            next_checkpoint = now + SimDuration::from_secs_f64(CHECKPOINT_EVERY_S);
        }
        out.resyncs += reg.sync_replicas();
        if now >= next_compaction {
            out.compactions += reg.compact_logs(now);
            next_compaction = now + SimDuration::from_secs_f64(COMPACT_EVERY_S);
        }

        // 5. Availability sample.
        licensed_samples += aps
            .iter()
            .filter(
                |ap| matches!(&ap.state, ApState::Licensed { grant, .. } if now < grant.expires_at),
            )
            .count() as u64;
    }

    out.availability_pct = 100.0 * licensed_samples as f64 / (steps * w.n_aps as u64).max(1) as f64;

    // Final evidence: grants sorted by id; replica tables after the last
    // sync round (a replica still inside a desync window is unhealed and
    // exempt from the convergence oracle).
    out.evidence.grants = {
        let mut v: Vec<GrantRecord> = grant_log.into_values().collect();
        v.sort_by_key(|g| g.id);
        v
    };
    let end = SimTime::ZERO + SimDuration::from_secs_f64(w.total_s);
    let logs = reg.zones().iter().flat_map(Zone::logs);
    for (replica, (log, healed)) in logs.enumerate() {
        let mut grant_ids: Vec<u64> = log.grant_table(end).iter().map(|g| g.id).collect();
        grant_ids.sort_unstable();
        out.evidence.replicas.push(ReplicaTable {
            replica,
            healed,
            grant_ids,
        });
    }
    out.violations = check_registry(&out.evidence);
    out
}

fn apply_fault(
    reg: &mut FederatedRegistry,
    fault: RegistryFault,
    now: SimTime,
    out: &mut ChaosOutcome,
    grant_log: &mut FxHashMap<u64, GrantRecord>,
    aps: &mut [Ap],
) {
    let n_zones = reg.zones().len();
    match fault {
        RegistryFault::ZoneDown { zone } => {
            let zone = zone % n_zones;
            // Only a crash that actually takes the zone down records a
            // CrashRecord: overlapping crash specs can land a second
            // ZoneDown on an already-dead zone, and recording it would
            // leave an orphan `state_loss: true` record no restart ever
            // patches — a phantom crash the accountability oracle then
            // wrongly condemns snapshot-recovered grants against.
            // (Found by `fuzz --registry` seed 69; pinned in
            // tests/data/fuzz_repro_registry_overlapping_crash.json.)
            if !reg.zones()[zone].is_up() {
                return;
            }
            out.zone_crashes += 1;
            // Worst case until the restart event says otherwise; a
            // permanent crash keeps `state_loss: true`, which is sound —
            // a zone that never resumes granting cannot outlive the bound.
            out.evidence.crashes.push(CrashRecord {
                zone,
                at_s: now.as_secs_f64(),
                state_loss: true,
            });
            reg.crash_zone(zone, now);
        }
        RegistryFault::ZoneRestart { zone, state_loss } => {
            let zone = zone % n_zones;
            // A restart of an already-up zone (its crash was the
            // suppressed overlap above, or an earlier restart beat it) is
            // a mechanism no-op and must not patch anyone else's record.
            if reg.zones()[zone].is_up() {
                return;
            }
            if !state_loss {
                // Patch the provisional record: this crash recovered its
                // state, so its grants stay honored.
                if let Some(c) = out
                    .evidence
                    .crashes
                    .iter_mut()
                    .rev()
                    .find(|c| c.zone == zone)
                {
                    c.state_loss = false;
                }
            }
            out.resyncs += 1;
            let recovery = if state_loss {
                ZoneRecovery::StateLoss
            } else {
                ZoneRecovery::Snapshot
            };
            reg.restart_zone(zone, now, recovery);
        }
        RegistryFault::ZoneCut { zone } => reg.partition_zone(zone % n_zones),
        RegistryFault::ZoneHeal { zone } => {
            reg.heal_zone(zone % n_zones);
            // Anti-entropy after the heal: any cross-zone divergence the
            // partition produced is repaired deterministically, and
            // revoked licensees are ordered off the air.
            let revoked = reg.anti_entropy(now);
            if !revoked.is_empty() {
                out.resyncs += 1;
            }
            for g in revoked {
                if let Some(rec) = grant_log.get_mut(&g.id) {
                    rec.live_until_s = now.as_secs_f64();
                }
                if let Some(ap) = aps.iter_mut().find(
                    |a| matches!(&a.state, ApState::Licensed { grant, .. } if grant.id == g.id),
                ) {
                    ap.state = ApState::Idle;
                    ap.retry_at = now;
                }
            }
        }
        RegistryFault::DesyncStart { replica } => reg.desync_replica(replica, true),
        RegistryFault::DesyncEnd { replica } => reg.desync_replica(replica, false),
    }
}

fn tick_ap(
    ap: &mut Ap,
    reg: &mut FederatedRegistry,
    now: SimTime,
    lease: SimDuration,
    contour_km: f64,
    out: &mut ChaosOutcome,
    grant_log: &mut FxHashMap<u64, GrantRecord>,
) {
    match &mut ap.state {
        ApState::Idle => {
            if now < ap.retry_at {
                return;
            }
            out.requests += 1;
            let req = GrantRequest {
                operator: ap.operator,
                location: ap.location,
                channel: None,
                max_eirp_dbm: 50.0,
                contour_km,
                lease,
            };
            match reg.request(req, now) {
                Ok(g) => {
                    out.granted += 1;
                    grant_log.insert(
                        g.id,
                        GrantRecord {
                            id: g.id,
                            operator: ap.operator,
                            zone: reg.zone_of_grant(g.id).expect("a zone minted it"),
                            channel: g.channel,
                            x_km: g.location.x_km,
                            y_km: g.location.y_km,
                            contour_km: g.contour_km,
                            granted_at_s: now.as_secs_f64(),
                            live_until_s: g.expires_at.as_secs_f64(),
                        },
                    );
                    ap.state = ApState::Licensed {
                        grant: g,
                        doomed: false,
                    };
                }
                Err(_) => {
                    out.denied += 1;
                    ap.retry_at = now + SimDuration::from_secs_f64(ap.rng.uniform(0.5, 2.0));
                }
            }
        }
        ApState::Licensed { grant, doomed } => {
            if now >= grant.expires_at {
                // Lease lapsed (renewal denied or never attempted in
                // time): the AP went off the air at expiry, which is what
                // the grant record already says.
                ap.state = ApState::Idle;
                ap.retry_at = now;
                return;
            }
            if ap.rng.chance(MOVE_CHANCE) {
                // Break-before-make handoff: stop transmitting and release
                // at the old spot now; request at the new spot from Idle
                // next tick. A zone crash in between leaves the release
                // unacknowledged — the lease bound reclaims it.
                let id = grant.id;
                if let Some(rec) = grant_log.get_mut(&id) {
                    rec.live_until_s = now.as_secs_f64();
                }
                let _ = reg.release(id, ap.operator);
                let half_x = rec_area_half(ap);
                ap.location = Point::new(
                    ap.rng.uniform(-half_x, half_x),
                    ap.rng.uniform(-half_x, half_x),
                );
                ap.state = ApState::Idle;
                ap.retry_at = now + SimDuration::from_secs_f64(DT_S);
                return;
            }
            let renew_due = grant.expires_at.saturating_since(now) < lease.mul_f64(0.5);
            if renew_due && !*doomed {
                match reg.renew(grant.id, lease, now) {
                    Ok(g) => {
                        out.renews_ok += 1;
                        if let Some(rec) = grant_log.get_mut(&g.id) {
                            rec.live_until_s = g.expires_at.as_secs_f64();
                        }
                        *grant = g;
                    }
                    Err(GrantDenied::ZoneUnavailable) => {
                        // Transient: keep trying every tick until expiry.
                        out.renews_failed += 1;
                    }
                    Err(_) => {
                        // The registry no longer knows this grant (state
                        // loss) or refuses to extend it: ride out the
                        // lease, then rejoin the queue.
                        out.renews_failed += 1;
                        *doomed = true;
                    }
                }
            }
        }
    }
}

/// The AP keeps moving inside the area it was placed in; recover that
/// bound from its current position (positions are always in [-half, half]).
fn rec_area_half(ap: &Ap) -> f64 {
    ap.location.x_km.abs().max(ap.location.y_km.abs()).max(30.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_faults::{RegistryBreak, Window};

    fn workload(flavour: Flavour, seed: u64) -> RegistryWorkload {
        RegistryWorkload {
            seed,
            flavour,
            n_zones: 3,
            n_replicas: 2,
            n_aps: 8,
            area_km: 90.0,
            contour_km: 10.0,
            lease_s: 8.0,
            max_lease_s: 12.0,
            total_s: 40.0,
            plan: RegistryFaultPlan::chaos_mix(seed, 3, 2, 3, 5.0, 25.0, 6.0),
        }
    }

    #[test]
    fn run_is_deterministic() {
        for flavour in [
            Flavour::Centralized,
            Flavour::Federated,
            Flavour::Replicated,
        ] {
            let w = workload(flavour, 7);
            assert_eq!(run_chaos(&w), run_chaos(&w), "{flavour}");
        }
    }

    #[test]
    fn healthy_run_has_no_violations_and_high_availability() {
        for flavour in [
            Flavour::Centralized,
            Flavour::Federated,
            Flavour::Replicated,
        ] {
            let mut w = workload(flavour, 3);
            w.plan = RegistryFaultPlan::new(3); // no faults
            let out = run_chaos(&w);
            assert_eq!(out.violations, Vec::new(), "{flavour}");
            assert!(out.granted > 0, "{flavour}: nothing granted");
            assert!(
                out.availability_pct > 60.0,
                "{flavour}: availability {:.1}%",
                out.availability_pct
            );
            assert!(out.renews_ok > 0, "{flavour}: no renewals succeeded");
        }
    }

    #[test]
    fn chaos_runs_stay_safe_across_flavours() {
        for seed in 0..5 {
            for flavour in [
                Flavour::Centralized,
                Flavour::Federated,
                Flavour::Replicated,
            ] {
                let w = workload(flavour, seed);
                let out = run_chaos(&w);
                assert_eq!(
                    out.violations,
                    Vec::new(),
                    "{flavour} seed {seed}: {:#?}",
                    out.violations
                );
            }
        }
    }

    #[test]
    fn state_loss_crash_dents_availability_but_not_safety() {
        let mut w = workload(Flavour::Federated, 11);
        w.plan = RegistryFaultPlan::new(11).with(Window {
            at_s: 10.0,
            for_s: Some(2.0),
            what: RegistryBreak::ZoneCrash {
                zone: 1,
                state_loss: true,
            },
        });
        let out = run_chaos(&w);
        assert_eq!(out.violations, Vec::new());
        assert_eq!(out.zone_crashes, 1);
        let mut clean = w.clone();
        clean.plan = RegistryFaultPlan::new(11);
        let base = run_chaos(&clean);
        assert!(
            out.availability_pct < base.availability_pct,
            "a state-losing crash must cost availability: {:.1}% vs {:.1}%",
            out.availability_pct,
            base.availability_pct
        );
    }

    #[test]
    fn replicated_writer_recovers_through_replicas() {
        let mut w = workload(Flavour::Replicated, 21);
        w.plan = RegistryFaultPlan::new(21)
            .with(Window {
                at_s: 12.0,
                for_s: Some(3.0),
                what: RegistryBreak::ZoneCrash {
                    zone: 0,
                    state_loss: true,
                },
            })
            .with(Window {
                at_s: 8.0,
                for_s: Some(5.0),
                what: RegistryBreak::ReplicaDesync { replica: 1 },
            });
        let out = run_chaos(&w);
        assert_eq!(out.violations, Vec::new(), "{:#?}", out.violations);
        // The adopted chain means history survived: the zone's log still
        // verifies and every replica converged to it.
        assert!(out.evidence.replicas.iter().all(|r| r.healed));
        let reference = &out.evidence.replicas[0].grant_ids;
        assert!(out
            .evidence
            .replicas
            .iter()
            .all(|r| &r.grant_ids == reference));
        assert!(out.resyncs > 0);
    }

    #[test]
    fn centralized_pays_more_availability_than_federated_for_one_zone_crash() {
        // The same single-zone state-losing crash schedule: the monolith
        // forgets every grant in the service area and quarantines all of
        // it; the federation forgets (and quarantines) one column. The
        // area must be wide enough that a column exceeds the conservative
        // border fan-out (contour + 50 km), or every zone's answer depends
        // on the crashed one and federation buys nothing.
        let plan = |seed| {
            RegistryFaultPlan::new(seed).with(Window {
                at_s: 10.0,
                for_s: Some(4.0),
                what: RegistryBreak::ZoneCrash {
                    zone: 2,
                    state_loss: true,
                },
            })
        };
        let mut cent = workload(Flavour::Centralized, 5);
        cent.area_km = 240.0;
        cent.plan = plan(5);
        let mut fed = workload(Flavour::Federated, 5);
        fed.area_km = 240.0;
        fed.plan = plan(5);
        let c = run_chaos(&cent);
        let f = run_chaos(&fed);
        assert_eq!(c.violations, Vec::new());
        assert_eq!(f.violations, Vec::new());
        assert!(
            f.availability_pct > c.availability_pct,
            "federated {:.1}% should beat centralized {:.1}% under a zone crash",
            f.availability_pct,
            c.availability_pct
        );
    }
}
