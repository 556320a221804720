//! # Registry chaos fuzzing
//!
//! [`Reg`], the spectrum-registry [`ChaosDomain`] behind `dlte-run fuzz
//! --registry`: a seed derives a whole [`RegistryWorkload`]
//! ([`generate_workload`]) and [`run_chaos`] judges it with the registry
//! oracles. Everything is a pure function of the seed.

use crate::chaos::ChaosDomain;
use crate::registry_chaos::{run_chaos, ChaosOutcome, Flavour, RegistryWorkload};
use dlte_check::Violation;
use dlte_faults::{RegistryBreak, RegistryFaultPlan, Window};
use dlte_sim::SimRng;

/// Derive a whole chaos workload from a seed. Deterministic: same seed,
/// same flavour, same fault schedule, same tick trajectory.
pub fn generate_workload(seed: u64) -> RegistryWorkload {
    let mut rng = SimRng::new(seed).fork("registry-fuzz-case");
    let flavour = match rng.index(3) {
        0 => Flavour::Centralized,
        1 => Flavour::Federated,
        _ => Flavour::Replicated,
    };
    let n_zones = 2 + rng.index(3); // 2..=4
    let n_replicas = 2 + rng.index(2); // 2..=3
    let n_aps = 6 + rng.index(7); // 6..=12
    let area_km = rng.uniform(60.0, 120.0);
    let contour_km = rng.uniform(8.0, 15.0);
    let lease_s = rng.uniform(6.0, 12.0);
    // Short cap so crash quarantines (crash + max_lease) end inside the
    // run and post-recovery behavior is actually exercised.
    let max_lease_s = lease_s + rng.uniform(3.0, 6.0);
    let total_s = rng.uniform(40.0, 60.0);
    let n_faults = 2 + rng.index(4); // 2..=5
    let plan = RegistryFaultPlan::chaos_mix(seed, n_zones, n_replicas, n_faults, 5.0, 30.0, 8.0);
    RegistryWorkload {
        seed,
        flavour,
        n_zones,
        n_replicas,
        n_aps,
        area_km,
        contour_km,
        lease_s,
        max_lease_s,
        total_s,
        plan,
    }
}

/// Registry chaos (`dlte-run fuzz --registry`).
pub struct Reg;

impl ChaosDomain for Reg {
    const NAME: &'static str = "reg";
    const FILE_PREFIX: &'static str = "fuzz_repro_registry_";
    type Case = RegistryWorkload;
    type Outcome = ChaosOutcome;

    fn generate(seed: u64) -> RegistryWorkload {
        generate_workload(seed)
    }
    fn run(workload: &RegistryWorkload) -> ChaosOutcome {
        run_chaos(workload)
    }
    fn violations(outcome: &ChaosOutcome) -> &[Violation] {
        &outcome.violations
    }
    fn shrink_candidates(workload: &RegistryWorkload) -> Vec<RegistryWorkload> {
        workload
            .plan
            .shrink_candidates()
            .into_iter()
            .map(|plan| RegistryWorkload {
                plan,
                ..workload.clone()
            })
            .collect()
    }
    /// Every zone index must be below `n_zones` and every replica index
    /// below `n_replicas`: [`run_chaos`] wraps indices, so an out-of-range
    /// one would silently fault some other zone and could read as a fix.
    fn check_ids(w: &RegistryWorkload) -> Result<(), String> {
        for (i, Window { what, .. }) in w.plan.faults.iter().enumerate() {
            let ok = match *what {
                RegistryBreak::ZoneCrash { zone, .. } | RegistryBreak::ZonePartition { zone } => {
                    zone < w.n_zones
                }
                RegistryBreak::ReplicaDesync { replica } => replica < w.n_replicas,
            };
            if !ok {
                return Err(format!(
                    "fault spec {i} ({what:?}) is out of range: the workload has {} zones \
                     and {} replicas",
                    w.n_zones, w.n_replicas
                ));
            }
        }
        Ok(())
    }
    fn fault_specs(workload: &RegistryWorkload) -> usize {
        workload.plan.faults.len()
    }
    fn describe(w: &RegistryWorkload) -> String {
        format!(
            "{}, {} zones, {} replicas, {} aps",
            w.flavour, w.n_zones, w.n_replicas, w.n_aps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{fuzz_seed, replay_repro, shrink};
    use std::collections::HashSet;
    use std::path::Path;

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = generate_workload(7);
        let b = generate_workload(7);
        assert_eq!(a, b);
        // Across a seed range, all three flavours appear and plans differ.
        let flavours: HashSet<String> = (0..20)
            .map(|s| generate_workload(s).flavour.to_string())
            .collect();
        assert_eq!(flavours.len(), 3, "{flavours:?}");
        assert_ne!(generate_workload(1).plan, generate_workload(2).plan);
    }

    #[test]
    fn generated_workloads_exercise_faults() {
        // Every generated plan actually schedules faults inside the run.
        for seed in 0..10 {
            let w = generate_workload(seed);
            assert!(!w.plan.compile().is_empty(), "seed {seed}: empty plan");
            assert!(
                w.plan.last_fault_time().as_secs_f64() < w.total_s,
                "seed {seed}: faults after the horizon"
            );
        }
    }

    /// Regression pin for the phantom-crash accounting bug `fuzz
    /// --registry` seed 69 found: two overlapping crash specs for the same
    /// zone made the driver record a second `state_loss: true` crash for a
    /// zone that was already down, and no restart ever patched it — so the
    /// accountability oracle condemned grants the snapshot recovery had
    /// legitimately honored. The committed repro (minimized to the two
    /// overlapping specs) must now replay green, while still actually
    /// crashing the zone once.
    #[test]
    fn committed_overlapping_crash_repro_replays_green() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/fuzz_repro_registry_overlapping_crash.json");
        let (repro, outcome) = replay_repro::<Reg>(&path).unwrap();
        // The file documents the violations the bug used to produce.
        assert!(repro
            .violations
            .iter()
            .all(|v| v.oracle == "crash_accountability"));
        assert_eq!(outcome.violations, Vec::new(), "{:#?}", outcome.violations);
        // Exactly one *real* crash survives in evidence, and the restart
        // patched it to its snapshot recovery.
        assert_eq!(outcome.zone_crashes, 1);
        assert_eq!(outcome.evidence.crashes.len(), 1);
        assert!(!outcome.evidence.crashes[0].state_loss);
    }

    #[test]
    fn repro_round_trips_through_json_and_replays() {
        crate::chaos::assert_round_trip::<Reg>(3);
    }

    #[test]
    fn short_sweep_holds_all_oracles() {
        for seed in 0..15 {
            if let Some(repro) = fuzz_seed::<Reg>(seed) {
                panic!(
                    "seed {seed} violated registry oracles: {:#?}",
                    repro.violations
                );
            }
        }
    }

    /// Seed 839 is an open finding: zone-0 grants outlive a state-losing
    /// crash by more than `max_lease`. It is the one registry seed below
    /// 2000 that fails, so it is what exercises the registry shrink. Once
    /// the finding is fixed, a committed repro that replays green takes
    /// this test's place.
    #[test]
    fn failing_seed_shrinks_and_keeps_its_oracle() {
        let workload = generate_workload(839);
        let outcome = run_chaos(&workload);
        let trips = |o: &ChaosOutcome| {
            o.violations
                .iter()
                .any(|v| v.oracle == "crash_accountability")
        };
        assert!(trips(&outcome), "{:#?}", outcome.violations);
        let (min, min_outcome, runs) = shrink::<Reg>(workload.clone(), outcome);
        assert!(runs > 0);
        assert!(min.plan.faults.len() <= workload.plan.faults.len());
        assert!(trips(&min_outcome), "{:#?}", min_outcome.violations);
        assert_eq!(run_chaos(&min), min_outcome);
    }

    /// A zone or replica index past the workload's counts is an `Err`
    /// naming the spec and the index: `run_chaos` would wrap it onto some
    /// other zone and could replay green.
    #[test]
    fn replay_rejects_out_of_range_indices() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/fuzz_repro_registry_overlapping_crash.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let dir = std::env::temp_dir().join("dlte-registry-fuzz-test-bad-ids");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bad.json");
        std::fs::write(&file, text.replacen(r#""zone": 1"#, r#""zone": 42"#, 1)).unwrap();
        let err = replay_repro::<Reg>(&file).unwrap_err();
        assert!(err.contains("fault spec 0 (ZoneCrash { zone: 42,"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        let mut w = generate_workload(3);
        w.plan = RegistryFaultPlan::new(3).with(Window {
            at_s: 5.0,
            for_s: Some(1.0),
            what: RegistryBreak::ReplicaDesync {
                replica: w.n_replicas,
            },
        });
        let err = Reg::check_ids(&w).unwrap_err();
        assert!(err.starts_with("fault spec 0 (ReplicaDesync {"), "{err}");
    }
}
