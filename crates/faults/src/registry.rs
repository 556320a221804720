//! Fault plans for the spectrum registry (§4.3): zone churn, inter-zone
//! partitions, replica desync.
//!
//! Same layering as the network plans in the crate root: `dlte-registry`
//! owns the *mechanisms* (crash/restart with state loss or snapshot
//! recovery, reachability flags, `sync_from` scheduling); this module owns
//! the *policy* — when and what to break. A [`RegistryFaultPlan`] is plain
//! serde data; all randomness happens at generation time
//! ([`RegistryFaultPlan::chaos_mix`]), so a plan replays identically
//! however it is run.

use dlte_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// A composable registry fault scenario. `seed` is provenance, as in
/// [`crate::FaultPlan`]; replay uses only the `faults` list.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistryFaultPlan {
    #[serde(default)]
    pub seed: u64,
    #[serde(default)]
    pub faults: Vec<RegistryFaultSpec>,
}

/// One scheduled registry fault. Times are seconds of simulated time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RegistryFaultSpec {
    /// Crash a zone process at `at_s`. `restart_after_s: None` leaves it
    /// down for good. `state_loss: true` restarts from nothing (the zone
    /// re-enters service quarantined until every grant it could have issued
    /// has lapsed); `false` restarts from its last checkpoint snapshot.
    ZoneCrash {
        zone: usize,
        at_s: f64,
        restart_after_s: Option<f64>,
        state_loss: bool,
    },
    /// Cut a zone off from federated queries (the zone itself stays up and
    /// keeps serving what it can locally), optionally healing later.
    ZonePartition {
        zone: usize,
        at_s: f64,
        heal_after_s: Option<f64>,
    },
    /// Suppress a log replica's periodic `sync_from` during the window, so
    /// it serves a stale grant table until the window ends.
    ReplicaDesync {
        replica: usize,
        at_s: f64,
        for_s: f64,
    },
}

/// A raw timed registry fault, the unit a chaos driver consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegistryFault {
    ZoneDown { zone: usize },
    ZoneRestart { zone: usize, state_loss: bool },
    ZoneCut { zone: usize },
    ZoneHeal { zone: usize },
    DesyncStart { replica: usize },
    DesyncEnd { replica: usize },
}

/// Total order on same-instant faults: breaks (down, cut, desync-start)
/// before repairs (restart, heal, desync-end), then by entity — so
/// [`RegistryFaultPlan::compile`] is a pure function of the *set* of specs
/// and zero-duration windows still take effect.
fn same_instant_key(f: &RegistryFault) -> (u8, usize) {
    match *f {
        RegistryFault::ZoneDown { zone } => (0, zone),
        RegistryFault::ZoneCut { zone } => (1, zone),
        RegistryFault::DesyncStart { replica } => (2, replica),
        RegistryFault::ZoneRestart { zone, state_loss } => (3, zone * 2 + state_loss as usize),
        RegistryFault::ZoneHeal { zone } => (4, zone),
        RegistryFault::DesyncEnd { replica } => (5, replica),
    }
}

fn at(out: &mut Vec<(SimTime, RegistryFault)>, t_s: f64, fault: RegistryFault) {
    out.push((
        SimTime::ZERO + SimDuration::from_secs_f64(t_s.max(0.0)),
        fault,
    ));
}

impl RegistryFaultSpec {
    /// Expand this spec into raw timed faults.
    pub fn compile_into(&self, out: &mut Vec<(SimTime, RegistryFault)>) {
        match *self {
            RegistryFaultSpec::ZoneCrash {
                zone,
                at_s,
                restart_after_s,
                state_loss,
            } => {
                at(out, at_s, RegistryFault::ZoneDown { zone });
                if let Some(after) = restart_after_s {
                    at(
                        out,
                        at_s + after,
                        RegistryFault::ZoneRestart { zone, state_loss },
                    );
                }
            }
            RegistryFaultSpec::ZonePartition {
                zone,
                at_s,
                heal_after_s,
            } => {
                at(out, at_s, RegistryFault::ZoneCut { zone });
                if let Some(after) = heal_after_s {
                    at(out, at_s + after, RegistryFault::ZoneHeal { zone });
                }
            }
            RegistryFaultSpec::ReplicaDesync {
                replica,
                at_s,
                for_s,
            } => {
                at(out, at_s, RegistryFault::DesyncStart { replica });
                at(out, at_s + for_s, RegistryFault::DesyncEnd { replica });
            }
        }
    }

    /// Strictly simpler variants, deterministic order, floors guarantee
    /// termination — same contract as [`crate::FaultSpec::shrink`]. A
    /// state-losing crash also shrinks to the gentler snapshot recovery.
    pub fn shrink(&self) -> Vec<RegistryFaultSpec> {
        const FLOOR_S: f64 = 0.05;
        let mut out = Vec::new();
        match *self {
            RegistryFaultSpec::ZoneCrash {
                zone,
                at_s,
                restart_after_s,
                state_loss,
            } => {
                if state_loss {
                    out.push(RegistryFaultSpec::ZoneCrash {
                        zone,
                        at_s,
                        restart_after_s,
                        state_loss: false,
                    });
                }
                if let Some(after) = restart_after_s {
                    if after > FLOOR_S {
                        out.push(RegistryFaultSpec::ZoneCrash {
                            zone,
                            at_s,
                            restart_after_s: Some(after / 2.0),
                            state_loss,
                        });
                    }
                }
            }
            RegistryFaultSpec::ZonePartition {
                zone,
                at_s,
                heal_after_s,
            } => {
                if let Some(after) = heal_after_s {
                    if after > FLOOR_S {
                        out.push(RegistryFaultSpec::ZonePartition {
                            zone,
                            at_s,
                            heal_after_s: Some(after / 2.0),
                        });
                    }
                }
            }
            RegistryFaultSpec::ReplicaDesync {
                replica,
                at_s,
                for_s,
            } => {
                if for_s > FLOOR_S {
                    out.push(RegistryFaultSpec::ReplicaDesync {
                        replica,
                        at_s,
                        for_s: for_s / 2.0,
                    });
                }
            }
        }
        out
    }
}

impl RegistryFaultPlan {
    pub fn new(seed: u64) -> RegistryFaultPlan {
        RegistryFaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Append a spec (builder style).
    pub fn with(mut self, spec: RegistryFaultSpec) -> RegistryFaultPlan {
        self.faults.push(spec);
        self
    }

    /// Expand to the raw fault timeline, sorted by time then
    /// break-before-repair (`same_instant_key`) — insertion order never
    /// matters.
    pub fn compile(&self) -> Vec<(SimTime, RegistryFault)> {
        let mut out = Vec::new();
        for spec in &self.faults {
            spec.compile_into(&mut out);
        }
        out.sort_by_key(|&(t, ref f)| (t, same_instant_key(f)));
        out
    }

    /// Latest time at which this plan changes anything.
    pub fn last_fault_time(&self) -> SimTime {
        self.compile()
            .last()
            .map(|&(t, _)| t)
            .unwrap_or(SimTime::ZERO)
    }

    /// Candidate plans strictly simpler than this one: each with one spec
    /// removed, then each with one spec replaced by a shrink variant. Same
    /// greedy-terminates argument as [`crate::FaultPlan::shrink_candidates`].
    pub fn shrink_candidates(&self) -> Vec<RegistryFaultPlan> {
        let mut out = Vec::new();
        for i in 0..self.faults.len() {
            let mut p = self.clone();
            p.faults.remove(i);
            out.push(p);
        }
        for i in 0..self.faults.len() {
            for s in self.faults[i].shrink() {
                let mut p = self.clone();
                p.faults[i] = s;
                out.push(p);
            }
        }
        out
    }

    /// Generate a seeded random registry fault mix over `n_zones` zones and
    /// `n_replicas` log replicas: `n` faults starting in `[start_s, end_s)`,
    /// each repaired within `max_down_s` (a small fraction never restart —
    /// the permanent-loss case the lease-expiry oracle exists for). All
    /// randomness happens here; the returned plan is plain data.
    pub fn chaos_mix(
        seed: u64,
        n_zones: usize,
        n_replicas: usize,
        n: usize,
        start_s: f64,
        end_s: f64,
        max_down_s: f64,
    ) -> RegistryFaultPlan {
        let mut rng = SimRng::new(seed).fork("registry-chaos");
        let mut plan = RegistryFaultPlan::new(seed);
        for _ in 0..n {
            let at_s = rng.uniform(start_s, end_s);
            let for_s = rng.uniform(0.1 * max_down_s, max_down_s);
            let desync = n_replicas > 0 && rng.chance(0.25);
            let spec = if desync {
                RegistryFaultSpec::ReplicaDesync {
                    replica: rng.index(n_replicas),
                    at_s,
                    for_s,
                }
            } else if rng.chance(0.5) {
                RegistryFaultSpec::ZoneCrash {
                    zone: rng.index(n_zones.max(1)),
                    at_s,
                    // 1-in-10 crashes are permanent.
                    restart_after_s: (!rng.chance(0.1)).then_some(for_s),
                    state_loss: rng.chance(0.5),
                }
            } else {
                RegistryFaultSpec::ZonePartition {
                    zone: rng.index(n_zones.max(1)),
                    at_s,
                    heal_after_s: (!rng.chance(0.1)).then_some(for_s),
                }
            };
            plan.faults.push(spec);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_compiles_to_down_then_restart() {
        let plan = RegistryFaultPlan::new(1).with(RegistryFaultSpec::ZoneCrash {
            zone: 2,
            at_s: 1.0,
            restart_after_s: Some(3.0),
            state_loss: true,
        });
        assert_eq!(
            plan.compile(),
            vec![
                (SimTime::from_secs(1), RegistryFault::ZoneDown { zone: 2 }),
                (
                    SimTime::from_secs(4),
                    RegistryFault::ZoneRestart {
                        zone: 2,
                        state_loss: true
                    }
                ),
            ]
        );
        assert_eq!(plan.last_fault_time(), SimTime::from_secs(4));
    }

    #[test]
    fn permanent_crash_never_restarts() {
        let plan = RegistryFaultPlan::new(1).with(RegistryFaultSpec::ZoneCrash {
            zone: 0,
            at_s: 2.0,
            restart_after_s: None,
            state_loss: true,
        });
        assert_eq!(plan.compile().len(), 1);
    }

    #[test]
    fn same_instant_breaks_sort_before_repairs() {
        // A zero-length partition and a crash/restart landing at the same
        // instant: both cuts precede both repairs, whatever the insertion
        // order.
        let specs = vec![
            RegistryFaultSpec::ZonePartition {
                zone: 1,
                at_s: 5.0,
                heal_after_s: Some(0.0),
            },
            RegistryFaultSpec::ZoneCrash {
                zone: 0,
                at_s: 5.0,
                restart_after_s: Some(0.0),
                state_loss: false,
            },
            RegistryFaultSpec::ReplicaDesync {
                replica: 0,
                at_s: 5.0,
                for_s: 0.0,
            },
        ];
        let reference = RegistryFaultPlan {
            seed: 1,
            faults: specs.clone(),
        }
        .compile();
        assert_eq!(reference.len(), 6);
        assert!(reference[..3].iter().all(|(_, f)| matches!(
            f,
            RegistryFault::ZoneDown { .. }
                | RegistryFault::ZoneCut { .. }
                | RegistryFault::DesyncStart { .. }
        )));
        let mut reversed = specs;
        reversed.reverse();
        assert_eq!(
            RegistryFaultPlan {
                seed: 1,
                faults: reversed
            }
            .compile(),
            reference
        );
    }

    #[test]
    fn negative_times_clamp_to_zero() {
        let plan = RegistryFaultPlan::new(1).with(RegistryFaultSpec::ZonePartition {
            zone: 0,
            at_s: -2.0,
            heal_after_s: Some(1.0),
        });
        assert_eq!(plan.compile()[0].0, SimTime::ZERO);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = RegistryFaultPlan::new(9)
            .with(RegistryFaultSpec::ZoneCrash {
                zone: 1,
                at_s: 1.0,
                restart_after_s: Some(2.0),
                state_loss: true,
            })
            .with(RegistryFaultSpec::ZonePartition {
                zone: 0,
                at_s: 3.0,
                heal_after_s: None,
            })
            .with(RegistryFaultSpec::ReplicaDesync {
                replica: 2,
                at_s: 4.0,
                for_s: 1.5,
            });
        let json = serde_json::to_string(&plan).unwrap();
        let back: RegistryFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.compile(), plan.compile());
    }

    #[test]
    fn shrinking_is_strictly_simpler_and_terminates() {
        let plan = RegistryFaultPlan::new(5)
            .with(RegistryFaultSpec::ZoneCrash {
                zone: 0,
                at_s: 1.0,
                restart_after_s: Some(4.0),
                state_loss: true,
            })
            .with(RegistryFaultSpec::ReplicaDesync {
                replica: 1,
                at_s: 2.0,
                for_s: 3.0,
            });
        let candidates = plan.shrink_candidates();
        assert!(candidates.iter().take(2).all(|p| p.faults.len() == 1));
        assert!(candidates.iter().skip(2).all(|p| p.faults.len() == 2));
        // A state-losing crash offers the gentler snapshot recovery first.
        assert!(matches!(
            candidates[2].faults[0],
            RegistryFaultSpec::ZoneCrash {
                state_loss: false,
                ..
            }
        ));
        let mut current = plan;
        let mut rounds = 0;
        while let Some(next) = current.shrink_candidates().into_iter().next() {
            current = next;
            rounds += 1;
            assert!(rounds < 1000, "shrinking did not terminate");
        }
        assert!(current.faults.is_empty());
    }

    #[test]
    fn minimal_specs_have_no_shrinks() {
        assert!(RegistryFaultSpec::ZoneCrash {
            zone: 0,
            at_s: 1.0,
            restart_after_s: None,
            state_loss: false,
        }
        .shrink()
        .is_empty());
        assert!(RegistryFaultSpec::ZonePartition {
            zone: 0,
            at_s: 1.0,
            heal_after_s: None,
        }
        .shrink()
        .is_empty());
        assert!(RegistryFaultSpec::ReplicaDesync {
            replica: 0,
            at_s: 1.0,
            for_s: 0.01,
        }
        .shrink()
        .is_empty());
    }

    #[test]
    fn chaos_mix_is_deterministic_in_seed() {
        let a = RegistryFaultPlan::chaos_mix(42, 4, 3, 20, 1.0, 10.0, 3.0);
        let b = RegistryFaultPlan::chaos_mix(42, 4, 3, 20, 1.0, 10.0, 3.0);
        let c = RegistryFaultPlan::chaos_mix(43, 4, 3, 20, 1.0, 10.0, 3.0);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.faults.len(), 20);
        for (t, _) in a.compile() {
            assert!(t >= SimTime::from_secs(1));
            assert!(t <= SimTime::from_secs(13));
        }
        // Zone indices stay in range.
        for f in &a.faults {
            match *f {
                RegistryFaultSpec::ZoneCrash { zone, .. }
                | RegistryFaultSpec::ZonePartition { zone, .. } => assert!(zone < 4),
                RegistryFaultSpec::ReplicaDesync { replica, .. } => assert!(replica < 3),
            }
        }
    }

    #[test]
    fn chaos_mix_without_replicas_never_desyncs() {
        let plan = RegistryFaultPlan::chaos_mix(7, 3, 0, 30, 0.0, 10.0, 2.0);
        assert!(plan
            .faults
            .iter()
            .all(|f| !matches!(f, RegistryFaultSpec::ReplicaDesync { .. })));
    }
}
