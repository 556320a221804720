//! Fault plans for the spectrum registry (§4.3): zone churn, inter-zone
//! partitions, replica desync.
//!
//! Same layering and the same [`Window`] form as the network plans in the
//! crate root: `dlte-registry` owns the *mechanisms* (crash/restart with
//! state loss or snapshot recovery, reachability flags, `sync_from`
//! scheduling); this module owns the *policy* — when and what to break. A
//! [`RegistryFaultPlan`] is plain serde data; all randomness happens at
//! generation time ([`RegistryFaultPlan::chaos_mix`]), so a plan replays
//! identically however it is run.

use crate::{Break, Plan, Window};
use dlte_sim::SimRng;
use serde::{Deserialize, Serialize};

/// A composable registry fault scenario, same shell and JSON form
/// (`seed`, `faults`) as [`crate::FaultPlan`].
pub type RegistryFaultPlan = Plan<RegistryBreak>;

/// What a registry fault breaks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RegistryBreak {
    /// A zone process is down; the repair restarts it. `state_loss: true`
    /// restarts from nothing (the zone re-enters service quarantined until
    /// every grant it could have issued has lapsed); `false` restarts from
    /// its last checkpoint snapshot, or from its log if it keeps one.
    ZoneCrash { zone: usize, state_loss: bool },
    /// A zone is cut off from federated queries (the zone itself stays up
    /// and keeps serving what it can locally); the repair heals the cut.
    ZonePartition { zone: usize },
    /// A log replica's periodic `sync_from` is suppressed, so it serves a
    /// stale grant table until the repair.
    ReplicaDesync { replica: usize },
}

/// A raw timed registry fault, the unit a chaos driver consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegistryFault {
    ZoneDown { zone: usize },
    ZoneRestart { zone: usize, state_loss: bool },
    ZoneCut { zone: usize },
    ZoneHeal { zone: usize },
    DesyncStart { replica: usize },
    DesyncEnd { replica: usize },
}

impl Break for RegistryBreak {
    type Fault = RegistryFault;
    type Key = (u8, usize);

    fn start(&self) -> RegistryFault {
        match *self {
            RegistryBreak::ZoneCrash { zone, .. } => RegistryFault::ZoneDown { zone },
            RegistryBreak::ZonePartition { zone } => RegistryFault::ZoneCut { zone },
            RegistryBreak::ReplicaDesync { replica } => RegistryFault::DesyncStart { replica },
        }
    }

    fn end(&self) -> RegistryFault {
        match *self {
            RegistryBreak::ZoneCrash { zone, state_loss } => {
                RegistryFault::ZoneRestart { zone, state_loss }
            }
            RegistryBreak::ZonePartition { zone } => RegistryFault::ZoneHeal { zone },
            RegistryBreak::ReplicaDesync { replica } => RegistryFault::DesyncEnd { replica },
        }
    }

    /// A state-losing crash becomes the gentler snapshot recovery.
    fn gentler(&self) -> Vec<RegistryBreak> {
        match *self {
            RegistryBreak::ZoneCrash {
                zone,
                state_loss: true,
            } => vec![RegistryBreak::ZoneCrash {
                zone,
                state_loss: false,
            }],
            _ => Vec::new(),
        }
    }

    /// Breaks (down, cut, desync-start) before repairs (restart, heal,
    /// desync-end), then by entity — so [`Plan::compile`] is a pure
    /// function of the *set* of windows and zero-length windows still take
    /// effect.
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
}

impl RegistryFaultPlan {
    /// Generate a seeded random registry fault mix over `n_zones` zones and
    /// `n_replicas` log replicas: `n` windows starting in `[start_s, end_s)`,
    /// each repaired within `max_down_s` (a small fraction of zone faults
    /// are never repaired — the permanent-loss case the lease-expiry oracle
    /// exists for). All randomness happens here; the returned plan is plain
    /// data.
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
            let window = if n_replicas > 0 && rng.chance(0.25) {
                let replica = rng.index(n_replicas);
                Window {
                    at_s,
                    for_s: Some(for_s),
                    what: RegistryBreak::ReplicaDesync { replica },
                }
            } else {
                let crash = rng.chance(0.5);
                let zone = rng.index(n_zones.max(1));
                // 1-in-10 zone faults are never repaired.
                let for_s = (!rng.chance(0.1)).then_some(for_s);
                let what = if crash {
                    RegistryBreak::ZoneCrash {
                        zone,
                        state_loss: rng.chance(0.5),
                    }
                } else {
                    RegistryBreak::ZonePartition { zone }
                };
                Window { at_s, for_s, what }
            };
            plan.faults.push(window);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_sim::SimTime;

    fn window(at_s: f64, for_s: Option<f64>, what: RegistryBreak) -> Window<RegistryBreak> {
        Window { at_s, for_s, what }
    }

    fn crash(zone: usize, state_loss: bool) -> RegistryBreak {
        RegistryBreak::ZoneCrash { zone, state_loss }
    }

    #[test]
    fn crash_compiles_to_down_then_restart() {
        let plan = RegistryFaultPlan::new(1).with(window(1.0, Some(3.0), crash(2, true)));
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
        let plan = RegistryFaultPlan::new(1).with(window(2.0, None, crash(0, true)));
        assert_eq!(plan.compile().len(), 1);
    }

    #[test]
    fn same_instant_breaks_sort_before_repairs() {
        // A zero-length partition and a crash/restart landing at the same
        // instant: both cuts precede both repairs, whatever the insertion
        // order.
        let windows = vec![
            window(5.0, Some(0.0), RegistryBreak::ZonePartition { zone: 1 }),
            window(5.0, Some(0.0), crash(0, false)),
            window(5.0, Some(0.0), RegistryBreak::ReplicaDesync { replica: 0 }),
        ];
        let reference = RegistryFaultPlan {
            seed: 1,
            faults: windows.clone(),
        }
        .compile();
        assert_eq!(reference.len(), 6);
        assert!(reference[..3].iter().all(|(_, f)| matches!(
            f,
            RegistryFault::ZoneDown { .. }
                | RegistryFault::ZoneCut { .. }
                | RegistryFault::DesyncStart { .. }
        )));
        let mut reversed = windows;
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
        let plan = RegistryFaultPlan::new(1).with(window(
            -2.0,
            Some(1.0),
            RegistryBreak::ZonePartition { zone: 0 },
        ));
        assert_eq!(plan.compile()[0].0, SimTime::ZERO);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = RegistryFaultPlan::new(9)
            .with(window(1.0, Some(2.0), crash(1, true)))
            .with(window(3.0, None, RegistryBreak::ZonePartition { zone: 0 }))
            .with(window(
                4.0,
                Some(1.5),
                RegistryBreak::ReplicaDesync { replica: 2 },
            ));
        let json = serde_json::to_string(&plan).unwrap();
        let back: RegistryFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.compile(), plan.compile());
    }

    #[test]
    fn shrinking_is_strictly_simpler_and_terminates() {
        let plan = RegistryFaultPlan::new(5)
            .with(window(1.0, Some(4.0), crash(0, true)))
            .with(window(
                2.0,
                Some(3.0),
                RegistryBreak::ReplicaDesync { replica: 1 },
            ));
        let candidates = plan.shrink_candidates();
        assert!(candidates.iter().take(2).all(|p| p.faults.len() == 1));
        assert!(candidates.iter().skip(2).all(|p| p.faults.len() == 2));
        // A state-losing crash is first halved, then offers the gentler
        // snapshot recovery over the same span.
        assert_eq!(
            candidates[2].faults[0],
            window(1.0, Some(2.0), crash(0, true))
        );
        assert_eq!(
            candidates[3].faults[0],
            window(1.0, Some(4.0), crash(0, false))
        );
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
        assert!(window(1.0, None, crash(0, false)).shrink().is_empty());
        assert!(window(1.0, None, RegistryBreak::ZonePartition { zone: 0 })
            .shrink()
            .is_empty());
        assert!(
            window(1.0, Some(0.01), RegistryBreak::ReplicaDesync { replica: 0 })
                .shrink()
                .is_empty()
        );
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
        for w in &a.faults {
            match w.what {
                RegistryBreak::ZoneCrash { zone, .. } | RegistryBreak::ZonePartition { zone } => {
                    assert!(zone < 4)
                }
                RegistryBreak::ReplicaDesync { replica } => assert!(replica < 3),
            }
        }
    }

    #[test]
    fn chaos_mix_without_replicas_never_desyncs() {
        let plan = RegistryFaultPlan::chaos_mix(7, 3, 0, 30, 0.0, 10.0, 2.0);
        assert!(plan
            .faults
            .iter()
            .all(|w| !matches!(w.what, RegistryBreak::ReplicaDesync { .. })));
    }
}
