//! Registry chaos oracles: the §4.3 safety claims as machine-checkable
//! invariants over post-run evidence.
//!
//! * **No double grant** ([`check_double_grant`]): under the exclusive
//!   policy, no two grants that were ever *live at the same time* overlap
//!   in channel and interference contour — across zones, replicas, crashes
//!   and partitions. This is the invariant the registry exists to provide;
//!   everything else (availability, latency) is negotiable, this is not.
//! * **Crash accountability** ([`check_crash_accountability`]): a grant
//!   issued before a state-losing crash is either honored (snapshot
//!   recovery) or provably lapses by `crash + max_lease` (quarantined
//!   restart) — and no grant id is ever reissued to someone else.
//! * **Replica convergence** ([`check_replica_convergence`]): once every
//!   partition heals and sync runs, all replicas derive the same grant
//!   table.
//!
//! Evidence here is raw numbers (no `dlte-registry` types): the driver
//! flattens grants to what the oracles need, and repro files stay readable.

use crate::Violation;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One grant's lifetime as the *client* experienced it: `live_until_s` is
/// when the client stopped transmitting (release, lapsed lease, or end of
/// run) — the registry's own table may forget sooner (crash) or later
/// (partition), which is exactly what the oracles probe.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GrantRecord {
    pub id: u64,
    pub operator: u64,
    /// Zone that issued the grant.
    pub zone: usize,
    pub channel: u32,
    pub x_km: f64,
    pub y_km: f64,
    pub contour_km: f64,
    pub granted_at_s: f64,
    pub live_until_s: f64,
}

/// One zone crash the fault plan injected.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrashRecord {
    pub zone: usize,
    pub at_s: f64,
    pub state_loss: bool,
}

/// One replica's derived grant table at the end of the run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReplicaTable {
    pub replica: usize,
    /// False while a desync window still covers the end of the run — an
    /// unhealed replica is allowed to lag and is exempt from convergence.
    pub healed: bool,
    /// Grant ids in the derived table, sorted.
    pub grant_ids: Vec<u64>,
}

/// Everything the registry oracles consume; serde-able so a failing fuzz
/// case can carry it in its repro file.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistryEvidence {
    /// Exclusive grant policy (contour overlap forbidden). The shared
    /// policy admits co-channel neighbors by design, so the overlap oracle
    /// only fires under exclusive.
    pub exclusive: bool,
    /// The registry's lease cap, seconds.
    pub max_lease_s: f64,
    pub grants: Vec<GrantRecord>,
    pub crashes: Vec<CrashRecord>,
    #[serde(default)]
    pub replicas: Vec<ReplicaTable>,
}

fn overlap(a: &GrantRecord, b: &GrantRecord) -> bool {
    if a.channel != b.channel {
        return false;
    }
    // Live intervals must intersect: [start, end) vs [start, end).
    if a.live_until_s <= b.granted_at_s || b.live_until_s <= a.granted_at_s {
        return false;
    }
    let d = ((a.x_km - b.x_km).powi(2) + (a.y_km - b.y_km).powi(2)).sqrt();
    d < a.contour_km + b.contour_km
}

/// No two grants live at the same time overlap in channel + contour
/// (exclusive policy), and no grant id was ever issued twice — whatever
/// mix of zones, crashes and partitions produced them.
pub fn check_double_grant(ev: &RegistryEvidence) -> Vec<Violation> {
    const O: &str = "double_grant";
    let mut v = Vec::new();
    let mut seen: BTreeMap<u64, &GrantRecord> = BTreeMap::new();
    for g in &ev.grants {
        if let Some(first) = seen.insert(g.id, g) {
            v.push(Violation::new(
                O,
                format!(
                    "grant id {} issued twice (zone {} op {} at {:.2}s, then zone {} op {} at {:.2}s)",
                    g.id,
                    first.zone,
                    first.operator,
                    first.granted_at_s,
                    g.zone,
                    g.operator,
                    g.granted_at_s
                ),
            ));
        }
    }
    if !ev.exclusive {
        return v;
    }
    for i in 0..ev.grants.len() {
        for j in (i + 1)..ev.grants.len() {
            let (a, b) = (&ev.grants[i], &ev.grants[j]);
            if a.id != b.id && overlap(a, b) {
                v.push(Violation::new(
                    O,
                    format!(
                        "grants {} (zone {}) and {} (zone {}) overlap: channel {}, \
                         contours {:.1}+{:.1} km, live [{:.2},{:.2}) vs [{:.2},{:.2})",
                        a.id,
                        a.zone,
                        b.id,
                        b.zone,
                        a.channel,
                        a.contour_km,
                        b.contour_km,
                        a.granted_at_s,
                        a.live_until_s,
                        b.granted_at_s,
                        b.live_until_s
                    ),
                ));
            }
        }
    }
    v
}

/// Every grant issued by a zone before a state-losing crash provably
/// lapses by `crash + max_lease`: the restarting zone forgot it, so the
/// only safe outcome is that the client's lease (capped at `max_lease`)
/// ran out before the zone resumed granting. A grant outliving that bound
/// means the quarantine was too short — the forgotten grant could collide
/// with a fresh one.
pub fn check_crash_accountability(ev: &RegistryEvidence) -> Vec<Violation> {
    const O: &str = "crash_accountability";
    const EPS: f64 = 1e-6;
    let mut v = Vec::new();
    for c in ev.crashes.iter().filter(|c| c.state_loss) {
        for g in &ev.grants {
            if g.zone == c.zone
                && g.granted_at_s < c.at_s
                && g.live_until_s > c.at_s + ev.max_lease_s + EPS
            {
                v.push(Violation::new(
                    O,
                    format!(
                        "grant {} (zone {}, granted {:.2}s) lived to {:.2}s, past the \
                         state-loss crash at {:.2}s + max_lease {:.0}s",
                        g.id, g.zone, g.granted_at_s, g.live_until_s, c.at_s, ev.max_lease_s
                    ),
                ));
            }
        }
    }
    v
}

/// After every partition heals and sync runs, all healed replicas derive
/// the same grant table.
pub fn check_replica_convergence(ev: &RegistryEvidence) -> Vec<Violation> {
    const O: &str = "replica_convergence";
    let mut v = Vec::new();
    let mut healed = ev.replicas.iter().filter(|r| r.healed);
    let Some(reference) = healed.next() else {
        return v;
    };
    for r in healed {
        if r.grant_ids != reference.grant_ids {
            v.push(Violation::new(
                O,
                format!(
                    "replica {} table {:?} diverges from replica {} table {:?} after heal",
                    r.replica, r.grant_ids, reference.replica, reference.grant_ids
                ),
            ));
        }
    }
    v
}

/// Every registry oracle over one evidence bundle.
pub fn check_registry(ev: &RegistryEvidence) -> Vec<Violation> {
    let mut v = check_double_grant(ev);
    v.extend(check_crash_accountability(ev));
    v.extend(check_replica_convergence(ev));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(id: u64, zone: usize, channel: u32, x: f64, from: f64, until: f64) -> GrantRecord {
        GrantRecord {
            id,
            operator: id * 10,
            zone,
            channel,
            x_km: x,
            y_km: 0.0,
            contour_km: 10.0,
            granted_at_s: from,
            live_until_s: until,
        }
    }

    fn clean() -> RegistryEvidence {
        RegistryEvidence {
            exclusive: true,
            max_lease_s: 30.0,
            grants: vec![
                grant(1, 0, 0, 0.0, 0.0, 50.0),
                grant(2, 0, 1, 0.0, 0.0, 50.0),  // other channel
                grant(3, 1, 0, 25.0, 0.0, 50.0), // out of contour reach
                grant(4, 0, 0, 5.0, 60.0, 90.0), // after 1 lapsed
            ],
            crashes: vec![],
            replicas: vec![],
        }
    }

    #[test]
    fn clean_evidence_passes() {
        assert_eq!(check_registry(&clean()), Vec::new());
    }

    #[test]
    fn cochannel_overlap_in_time_and_space_is_flagged() {
        let mut ev = clean();
        // Same spot and channel as grant 1, inside its life (far from 3).
        ev.grants.push(grant(5, 1, 0, 0.0, 10.0, 20.0));
        let v = check_double_grant(&ev);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("overlap"));
        // The shared policy admits the same layout.
        ev.exclusive = false;
        assert!(check_double_grant(&ev).is_empty());
    }

    #[test]
    fn disjoint_lifetimes_do_not_conflict() {
        let mut ev = clean();
        // Same spot, same channel as grant 1, but strictly after it lapsed.
        ev.grants.push(grant(6, 1, 0, 0.0, 50.0, 55.0));
        assert!(check_double_grant(&ev).is_empty());
    }

    #[test]
    fn duplicate_id_is_flagged_even_without_overlap() {
        let mut ev = clean();
        ev.grants.push(grant(1, 1, 5, 40.0, 70.0, 80.0));
        let v = check_double_grant(&ev);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("issued twice"));
    }

    #[test]
    fn grant_outliving_state_loss_crash_is_flagged() {
        let mut ev = clean();
        ev.crashes.push(CrashRecord {
            zone: 0,
            at_s: 10.0,
            state_loss: true,
        });
        // Zone 0's pre-crash grants (1 and 2) live to 50 > 10 + 30; grant 4
        // postdates the crash and is exempt.
        let v = check_crash_accountability(&ev);
        assert_eq!(v.len(), 2);
        assert!(v[0].detail.contains("grant 1"));
        assert!(v[1].detail.contains("grant 2"));
        // A snapshot-recovered crash honors its grants: no violation.
        ev.crashes[0].state_loss = false;
        assert!(check_crash_accountability(&ev).is_empty());
    }

    #[test]
    fn crash_accountability_ignores_other_zones_and_later_grants() {
        let mut ev = clean();
        ev.crashes.push(CrashRecord {
            zone: 1,
            at_s: 55.0,
            state_loss: true,
        });
        // Zone 1's only pre-crash grant (3) lapses at 50 < 55 + 30; zone 0
        // grants are not zone 1's problem; grant 6 postdates the crash.
        ev.grants.push(grant(6, 1, 2, 40.0, 60.0, 95.0));
        assert!(check_crash_accountability(&ev).is_empty());
    }

    #[test]
    fn healed_replicas_must_agree() {
        let mut ev = clean();
        ev.replicas = vec![
            ReplicaTable {
                replica: 0,
                healed: true,
                grant_ids: vec![1, 2],
            },
            ReplicaTable {
                replica: 1,
                healed: true,
                grant_ids: vec![1, 2],
            },
            ReplicaTable {
                replica: 2,
                healed: false,
                grant_ids: vec![1], // still desynced: exempt
            },
        ];
        assert!(check_replica_convergence(&ev).is_empty());
        ev.replicas[1].grant_ids = vec![1];
        let v = check_replica_convergence(&ev);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("diverges"));
    }

    #[test]
    fn evidence_round_trips_through_json() {
        let mut ev = clean();
        ev.crashes.push(CrashRecord {
            zone: 0,
            at_s: 1.0,
            state_loss: true,
        });
        ev.replicas.push(ReplicaTable {
            replica: 0,
            healed: true,
            grant_ids: vec![1],
        });
        let json = serde_json::to_string(&ev).unwrap();
        let back: RegistryEvidence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }
}
