//! Property-based tests for fault plans, written once over `Plan<B>` and
//! run for both break types, network (`NetBreak`) and registry
//! (`RegistryBreak`): compilation is sorted, deterministic and invariant
//! under permutation of the windows; each window yields one break and at
//! most one later repair; serde round-trips any plan; every shrink
//! candidate is strictly simpler and greedy shrinking terminates; chaos
//! generation is a pure function of its seed.

use dlte_faults::registry::{RegistryBreak, RegistryFaultPlan};
use dlte_faults::{Break, ChaosTargets, FaultPlan, NetBreak, Plan, Window};
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt::Debug;

/// The windows a plan is built from: start times that can be negative (they
/// clamp to zero), durations that can be zero (break and repair at the same
/// instant) or absent (never repaired).
fn arb_plan<B: 'static>(
    what: impl Strategy<Value = B> + 'static,
) -> impl Strategy<Value = Plan<B>> {
    let for_s = prop_oneof![Just(None), Just(Some(0.0)), (0.0f64..5.0).prop_map(Some)];
    let window =
        (-2.0f64..20.0, for_s, what).prop_map(|(at_s, for_s, what)| Window { at_s, for_s, what });
    (any::<u64>(), prop::collection::vec(window, 0..12))
        .prop_map(|(seed, faults)| Plan { seed, faults })
}

fn arb_net_break() -> impl Strategy<Value = NetBreak> {
    prop_oneof![
        (0usize..8).prop_map(|link| NetBreak::LinkFlap { link }),
        (0usize..8, 0.0f64..1.0).prop_map(|(link, loss)| NetBreak::LossBurst { link, loss }),
        (0usize..8, 0.0f64..500.0, 0.0f64..100.0).prop_map(|(link, extra_ms, jitter_ms)| {
            NetBreak::LatencyStorm {
                link,
                extra_ms,
                jitter_ms,
            }
        }),
        (0usize..8, 1e4f64..1e9)
            .prop_map(|(link, rate_bps)| NetBreak::RateThrottle { link, rate_bps }),
        (0usize..8).prop_map(|node| NetBreak::NodeCrash { node }),
        (0usize..8).prop_map(|node| NetBreak::NodePause { node }),
    ]
}

fn arb_registry_break() -> impl Strategy<Value = RegistryBreak> {
    prop_oneof![
        (0usize..4, any::<bool>())
            .prop_map(|(zone, state_loss)| RegistryBreak::ZoneCrash { zone, state_loss }),
        (0usize..4).prop_map(|zone| RegistryBreak::ZonePartition { zone }),
        (0usize..3).prop_map(|replica| RegistryBreak::ReplicaDesync { replica }),
    ]
}

/// How far a break is from harmless: every gentler break must score lower.
trait Severity: Break + PartialEq + Debug {
    fn severity(&self) -> f64;
}

impl Severity for NetBreak {
    fn severity(&self) -> f64 {
        match *self {
            NetBreak::LossBurst { loss, .. } => loss,
            NetBreak::LatencyStorm {
                extra_ms,
                jitter_ms,
                ..
            } => extra_ms + jitter_ms,
            // A higher rate is the gentler throttle.
            NetBreak::RateThrottle { rate_bps, .. } => -rate_bps,
            NetBreak::LinkFlap { .. } | NetBreak::NodeCrash { .. } | NetBreak::NodePause { .. } => {
                0.0
            }
        }
    }
}

impl Severity for RegistryBreak {
    fn severity(&self) -> f64 {
        match *self {
            RegistryBreak::ZoneCrash { state_loss, .. } => state_loss as u8 as f64,
            RegistryBreak::ZonePartition { .. } | RegistryBreak::ReplicaDesync { .. } => 0.0,
        }
    }
}

/// The time a window's break compiles to: negative times clamp to zero.
fn clamped(at_s: f64) -> dlte_sim::SimTime {
    dlte_sim::SimTime::ZERO + dlte_sim::SimDuration::from_secs_f64(at_s.max(0.0))
}

fn sorted_and_deterministic<B: Break>(plan: &Plan<B>)
where
    B::Fault: PartialEq + Debug,
{
    let a = plan.compile();
    prop_assert_eq!(&a, &plan.compile());
    for w in a.windows(2) {
        prop_assert!(w[0].0 <= w[1].0, "unsorted: {:?}", w);
    }
    if let Some(&(last, _)) = a.last() {
        prop_assert_eq!(plan.last_fault_time(), last);
    }
}

/// Reorder the windows by `keys` and compile again: same timeline.
fn permutation_invariant<B: Break>(plan: &Plan<B>, keys: &[u64])
where
    B::Fault: PartialEq + Debug,
{
    let mut order: Vec<usize> = (0..plan.faults.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    let permuted = Plan {
        seed: plan.seed,
        faults: order.iter().map(|&i| plan.faults[i].clone()).collect(),
    };
    prop_assert_eq!(permuted.compile(), plan.compile(), "order {:?}", order);
}

/// Alone, a window compiles to its break at `at_s`, then its repair (if it
/// has one) no earlier; together, a plan compiles to exactly those faults.
fn one_break_at_most_one_repair<B: Break>(plan: &Plan<B>)
where
    B::Fault: PartialEq + Debug,
{
    let mut total = 0;
    for w in &plan.faults {
        let alone = Plan {
            seed: 0,
            faults: vec![w.clone()],
        }
        .compile();
        prop_assert_eq!(alone.len(), 1 + w.for_s.is_some() as usize);
        prop_assert_eq!(&alone[0], &(clamped(w.at_s), w.what.start()));
        if w.for_s.is_some() {
            prop_assert_eq!(&alone[1].1, &w.what.end());
            prop_assert!(alone[1].0 >= alone[0].0, "repair before break: {:?}", alone);
        }
        total += alone.len();
    }
    prop_assert_eq!(plan.compile().len(), total);
}

/// Each candidate drops one window, or changes one window: half as long
/// (only above the 0.05 s floor) or a strictly gentler break over the same
/// span.
fn candidates_strictly_simpler<B: Severity>(plan: &Plan<B>) {
    for c in plan.shrink_candidates() {
        if c.faults.len() < plan.faults.len() {
            prop_assert_eq!(c.faults.len(), plan.faults.len() - 1);
            continue;
        }
        prop_assert_eq!(c.faults.len(), plan.faults.len());
        let changed: Vec<usize> = (0..plan.faults.len())
            .filter(|&i| c.faults[i] != plan.faults[i])
            .collect();
        prop_assert_eq!(changed.len(), 1, "{:?}", c);
        let (old, new) = (&plan.faults[changed[0]], &c.faults[changed[0]]);
        prop_assert_eq!(old.at_s, new.at_s);
        if old.what == new.what {
            let (was, now) = (old.for_s.unwrap(), new.for_s.unwrap());
            prop_assert!(was > 0.05 && now == was / 2.0, "{:?} -> {:?}", old, new);
        } else {
            prop_assert_eq!(old.for_s, new.for_s);
            prop_assert!(
                new.what.severity() < old.what.severity(),
                "{:?} -> {:?}",
                old,
                new
            );
        }
    }
}

/// Greedy shrinking that prefers shortening and softening over removal
/// (removal alone always terminates) stops within a bound no plan here
/// can reach: at most 7 halvings of a 5 s window and 10 gentler steps.
fn greedy_shrinking_terminates<B: Break>(plan: &Plan<B>) {
    let n = plan.faults.len();
    let mut current = plan.clone();
    let mut rounds = 0;
    loop {
        let candidates = current.shrink_candidates();
        let keep_all = candidates
            .iter()
            .position(|c| c.faults.len() == current.faults.len());
        let Some(next) = keep_all.or((!candidates.is_empty()).then_some(0)) else {
            break;
        };
        current = candidates.into_iter().nth(next).unwrap();
        rounds += 1;
        prop_assert!(rounds <= 20 * n, "no fixpoint after {} rounds", rounds);
    }
    prop_assert!(current.faults.is_empty());
}

fn serde_round_trip<B: Break + Serialize + DeserializeOwned + PartialEq + Debug>(plan: &Plan<B>)
where
    B::Fault: PartialEq + Debug,
{
    let json = serde_json::to_string(plan).unwrap();
    let back: Plan<B> = serde_json::from_str(&json).unwrap();
    prop_assert_eq!(&back, plan);
    prop_assert_eq!(back.compile(), plan.compile());
}

proptest! {
    /// compile() always yields a time-sorted, deterministic timeline.
    #[test]
    fn compile_is_sorted_and_deterministic(
        net in arb_plan(arb_net_break()),
        reg in arb_plan(arb_registry_break()),
    ) {
        sorted_and_deterministic(&net);
        sorted_and_deterministic(&reg);
    }

    /// compile() is a pure function of the *set* of windows.
    #[test]
    fn compile_is_invariant_under_permutation(
        net in arb_plan(arb_net_break()),
        reg in arb_plan(arb_registry_break()),
        keys in prop::collection::vec(any::<u64>(), 12),
    ) {
        permutation_invariant(&net, &keys);
        permutation_invariant(&reg, &keys);
    }

    #[test]
    fn each_window_yields_one_break_and_at_most_one_repair(
        net in arb_plan(arb_net_break()),
        reg in arb_plan(arb_registry_break()),
    ) {
        one_break_at_most_one_repair(&net);
        one_break_at_most_one_repair(&reg);
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler(
        net in arb_plan(arb_net_break()),
        reg in arb_plan(arb_registry_break()),
    ) {
        candidates_strictly_simpler(&net);
        candidates_strictly_simpler(&reg);
    }

    #[test]
    fn greedy_shrinking_reaches_the_empty_plan(
        net in arb_plan(arb_net_break()),
        reg in arb_plan(arb_registry_break()),
    ) {
        greedy_shrinking_terminates(&net);
        greedy_shrinking_terminates(&reg);
    }

    /// Serde round-trips any plan to an identical plan (and timeline).
    #[test]
    fn serde_round_trips(
        net in arb_plan(arb_net_break()),
        reg in arb_plan(arb_registry_break()),
    ) {
        serde_round_trip(&net);
        serde_round_trip(&reg);
    }

    /// Chaos generation is a pure function of (seed, params), and what it
    /// generates holds the properties above.
    #[test]
    fn chaos_mix_pure_in_seed(seed in any::<u64>(), n in 1usize..30) {
        let targets = ChaosTargets {
            links: vec![0, 1, 2, 3],
            crashable: vec![9],
        };
        let a = FaultPlan::chaos_mix(seed, &targets, n, 0.0, 10.0, 2.0);
        prop_assert_eq!(&a, &FaultPlan::chaos_mix(seed, &targets, n, 0.0, 10.0, 2.0));
        prop_assert_eq!(a.faults.len(), n);
        let r = RegistryFaultPlan::chaos_mix(seed, 4, 3, n, 0.0, 10.0, 2.0);
        prop_assert_eq!(&r, &RegistryFaultPlan::chaos_mix(seed, 4, 3, n, 0.0, 10.0, 2.0));
        prop_assert_eq!(r.faults.len(), n);
        one_break_at_most_one_repair(&a);
        one_break_at_most_one_repair(&r);
        candidates_strictly_simpler(&a);
        candidates_strictly_simpler(&r);
    }
}

// ---------------------------------------------------------------------------
// Oracle-backed properties: arbitrary fault plans, run on real topologies.
//
// Shapes mirror the `chaos_mix` envelope (every fault is repaired; loss,
// latency, and rate stay inside the ranges the fuzzer sweeps) but the
// *combinations* are arbitrary — proptest explores plans `chaos_mix` would
// never draw. Link/node indices are abstract here and mapped onto the
// topology's real fault-injection handles per architecture, so the same
// shape vector exercises both an E14-style centralized LTE net (S-GW/P-GW
// crashes allowed) and an E13-style dLTE mesh (link faults only).
// ---------------------------------------------------------------------------

use dlte::fuzz::{run_case, Arch, FuzzCase};
use dlte::scenario::Deployment;

#[derive(Clone, Debug)]
enum ChaosShape {
    Flap {
        i: usize,
        at: f64,
        down: f64,
    },
    Loss {
        i: usize,
        at: f64,
        for_s: f64,
        loss: f64,
    },
    Storm {
        i: usize,
        at: f64,
        for_s: f64,
        extra_ms: f64,
        jitter_ms: f64,
    },
    Throttle {
        i: usize,
        at: f64,
        for_s: f64,
        rate_bps: f64,
    },
    Crash {
        i: usize,
        at: f64,
        restart_s: f64,
    },
    Pause {
        i: usize,
        at: f64,
        for_s: f64,
    },
}

fn arb_chaos_shape() -> impl Strategy<Value = ChaosShape> {
    let at = 2.0f64..8.0;
    let dur = 0.1f64..2.0;
    prop_oneof![
        (0usize..8, at.clone(), dur.clone()).prop_map(|(i, at, down)| ChaosShape::Flap {
            i,
            at,
            down
        }),
        (0usize..8, at.clone(), dur.clone(), 0.05f64..0.5)
            .prop_map(|(i, at, for_s, loss)| ChaosShape::Loss { i, at, for_s, loss }),
        (
            0usize..8,
            at.clone(),
            dur.clone(),
            10.0f64..200.0,
            0.0f64..50.0
        )
            .prop_map(|(i, at, for_s, extra_ms, jitter_ms)| ChaosShape::Storm {
                i,
                at,
                for_s,
                extra_ms,
                jitter_ms
            }),
        (0usize..8, at.clone(), dur.clone(), 1e5f64..5e6).prop_map(|(i, at, for_s, rate_bps)| {
            ChaosShape::Throttle {
                i,
                at,
                for_s,
                rate_bps,
            }
        }),
        (0usize..8, at.clone(), dur.clone()).prop_map(|(i, at, restart_s)| ChaosShape::Crash {
            i,
            at,
            restart_s
        }),
        (0usize..8, at, dur).prop_map(|(i, at, for_s)| ChaosShape::Pause { i, at, for_s }),
    ]
}

/// Map abstract shapes onto a topology's real targets. Node faults fall
/// back to link faults when the architecture has no crashable node (dLTE:
/// the local core shares fate with its AP).
fn realize(arch: Arch, seed: u64, n_cells: usize, ues: usize, shapes: &[ChaosShape]) -> FuzzCase {
    let targets = Deployment::new(arch, n_cells, ues).fault_targets();
    let link = |i: usize| targets.links[i % targets.links.len()];
    let mut plan = FaultPlan::new(seed);
    for s in shapes {
        let crashable = |i: usize| {
            (!targets.crashable.is_empty()).then(|| targets.crashable[i % targets.crashable.len()])
        };
        let (at_s, for_s, what) = match *s {
            ChaosShape::Flap { i, at, down } => (at, down, NetBreak::LinkFlap { link: link(i) }),
            ChaosShape::Loss { i, at, for_s, loss } => (
                at,
                for_s,
                NetBreak::LossBurst {
                    link: link(i),
                    loss,
                },
            ),
            ChaosShape::Storm {
                i,
                at,
                for_s,
                extra_ms,
                jitter_ms,
            } => (
                at,
                for_s,
                NetBreak::LatencyStorm {
                    link: link(i),
                    extra_ms,
                    jitter_ms,
                },
            ),
            ChaosShape::Throttle {
                i,
                at,
                for_s,
                rate_bps,
            } => (
                at,
                for_s,
                NetBreak::RateThrottle {
                    link: link(i),
                    rate_bps,
                },
            ),
            ChaosShape::Crash { i, at, restart_s } => match crashable(i) {
                Some(node) => (at, restart_s, NetBreak::NodeCrash { node }),
                None => (at, restart_s, NetBreak::LinkFlap { link: link(i) }),
            },
            ChaosShape::Pause { i, at, for_s } => match crashable(i) {
                Some(node) => (at, for_s, NetBreak::NodePause { node }),
                None => (at, for_s, NetBreak::LinkFlap { link: link(i) }),
            },
        };
        plan.faults.push(Window {
            at_s,
            for_s: Some(for_s),
            what,
        });
    }
    FuzzCase {
        seed,
        arch,
        n_cells,
        ues_per_cell: ues,
        plan,
        moves: dlte_faults::MovePlan::default(),
        remote_keys: false,
        x2_fetch: false,
    }
}

proptest! {
    /// E14-style centralized LTE: any repaired chaos mix — including S-GW
    /// and P-GW crash/restart — leaves every cross-layer invariant intact.
    #[test]
    fn oracles_hold_under_arbitrary_centralized_chaos(
        seed in 0u64..1_000_000,
        shapes in prop::collection::vec(arb_chaos_shape(), 1..4),
    ) {
        let case = realize(Arch::Centralized, seed, 1, 2, &shapes);
        let report = run_case(&case);
        prop_assert!(
            report.violations.is_empty(),
            "case {:?} tripped: {:#?}",
            case,
            report.violations
        );
    }

    /// E13-style dLTE mesh: any repaired backhaul chaos leaves every
    /// invariant intact (sessions live in the APs, so only links can fail).
    #[test]
    fn oracles_hold_under_arbitrary_dlte_chaos(
        seed in 0u64..1_000_000,
        shapes in prop::collection::vec(arb_chaos_shape(), 1..4),
    ) {
        let case = realize(Arch::Dlte, seed, 2, 2, &shapes);
        let report = run_case(&case);
        prop_assert!(
            report.violations.is_empty(),
            "case {:?} tripped: {:#?}",
            case,
            report.violations
        );
    }
}
