//! Property-based tests for fault plans: compilation is sorted and
//! deterministic, serde round-trips arbitrary plans, and chaos generation
//! is a pure function of its seed.

use dlte_faults::{ChaosTargets, FaultPlan, FaultSpec};
use dlte_net::NetFault;
use proptest::prelude::*;

fn arb_opt_s() -> impl Strategy<Value = Option<f64>> {
    (any::<bool>(), 0.0f64..5.0).prop_map(|(some, v)| some.then_some(v))
}

fn arb_spec() -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        (0usize..8, 0.0f64..20.0, 0.0f64..5.0, 1u32..4, 0.0f64..10.0).prop_map(
            |(link, at_s, down_s, times, gap_s)| FaultSpec::LinkFlap {
                link,
                at_s,
                down_s,
                times,
                gap_s,
            }
        ),
        (0usize..8, 0.0f64..20.0, 0.0f64..5.0, 0.0f64..1.0).prop_map(
            |(link, at_s, for_s, loss)| FaultSpec::LossBurst {
                link,
                at_s,
                for_s,
                loss,
            }
        ),
        (
            0usize..8,
            0.0f64..20.0,
            0.0f64..5.0,
            0.0f64..500.0,
            0.0f64..100.0
        )
            .prop_map(
                |(link, at_s, for_s, extra_ms, jitter_ms)| FaultSpec::LatencyStorm {
                    link,
                    at_s,
                    for_s,
                    extra_ms,
                    jitter_ms,
                }
            ),
        (0usize..8, 0.0f64..20.0, 0.0f64..5.0, 1e4f64..1e9).prop_map(
            |(link, at_s, for_s, rate_bps)| FaultSpec::RateThrottle {
                link,
                at_s,
                for_s,
                rate_bps,
            }
        ),
        (0usize..8, 0.0f64..20.0, arb_opt_s()).prop_map(|(node, at_s, restart_after_s)| {
            FaultSpec::NodeCrash {
                node,
                at_s,
                restart_after_s,
            }
        }),
        (0usize..8, 0.0f64..20.0, 0.0f64..5.0)
            .prop_map(|(node, at_s, for_s)| { FaultSpec::NodePause { node, at_s, for_s } }),
        (
            prop::collection::vec(0usize..8, 1..4),
            0.0f64..20.0,
            arb_opt_s()
        )
            .prop_map(|(nodes, at_s, heal_after_s)| FaultSpec::Partition {
                nodes,
                at_s,
                heal_after_s,
            }),
        (0usize..8, 0.0f64..20.0).prop_map(|(node, at_s)| FaultSpec::At {
            at_s,
            fault: NetFault::NodeResume { node },
        }),
    ]
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), prop::collection::vec(arb_spec(), 0..12))
        .prop_map(|(seed, faults)| FaultPlan { seed, faults })
}

proptest! {
    /// compile() always yields a time-sorted, deterministic timeline.
    #[test]
    fn compile_is_sorted_and_deterministic(plan in arb_plan()) {
        let a = plan.compile();
        let b = plan.compile();
        prop_assert_eq!(&a, &b);
        for w in a.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "unsorted: {:?}", w);
        }
        if let Some(&(last, _)) = a.last() {
            prop_assert_eq!(plan.last_fault_time(), last);
        }
    }

    /// Serde round-trips any plan to an identical plan (and timeline).
    #[test]
    fn serde_round_trips(plan in arb_plan()) {
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.compile(), plan.compile());
    }

    /// Chaos generation is a pure function of (seed, params).
    #[test]
    fn chaos_mix_pure_in_seed(seed in any::<u64>(), n in 1usize..30) {
        let targets = ChaosTargets {
            links: vec![0, 1, 2, 3],
            crashable: vec![9],
        };
        let a = FaultPlan::chaos_mix(seed, &targets, n, 0.0, 10.0, 2.0);
        let b = FaultPlan::chaos_mix(seed, &targets, n, 0.0, 10.0, 2.0);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.faults.len(), n);
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
        let spec = match *s {
            ChaosShape::Flap { i, at, down } => FaultSpec::LinkFlap {
                link: link(i),
                at_s: at,
                down_s: down,
                times: 1,
                gap_s: 0.0,
            },
            ChaosShape::Loss { i, at, for_s, loss } => FaultSpec::LossBurst {
                link: link(i),
                at_s: at,
                for_s,
                loss,
            },
            ChaosShape::Storm {
                i,
                at,
                for_s,
                extra_ms,
                jitter_ms,
            } => FaultSpec::LatencyStorm {
                link: link(i),
                at_s: at,
                for_s,
                extra_ms,
                jitter_ms,
            },
            ChaosShape::Throttle {
                i,
                at,
                for_s,
                rate_bps,
            } => FaultSpec::RateThrottle {
                link: link(i),
                at_s: at,
                for_s,
                rate_bps,
            },
            ChaosShape::Crash { i, at, restart_s } if !targets.crashable.is_empty() => {
                FaultSpec::NodeCrash {
                    node: targets.crashable[i % targets.crashable.len()],
                    at_s: at,
                    restart_after_s: Some(restart_s),
                }
            }
            ChaosShape::Pause { i, at, for_s } if !targets.crashable.is_empty() => {
                FaultSpec::NodePause {
                    node: targets.crashable[i % targets.crashable.len()],
                    at_s: at,
                    for_s,
                }
            }
            ChaosShape::Crash { i, at, restart_s } => FaultSpec::LinkFlap {
                link: link(i),
                at_s: at,
                down_s: restart_s,
                times: 1,
                gap_s: 0.0,
            },
            ChaosShape::Pause { i, at, for_s } => FaultSpec::LinkFlap {
                link: link(i),
                at_s: at,
                down_s: for_s,
                times: 1,
                gap_s: 0.0,
            },
        };
        plan.faults.push(spec);
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
