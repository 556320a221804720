//! # dlte-faults — deterministic fault-injection plans
//!
//! The dLTE argument (§4) is about what happens when things *break*: the
//! backhaul flaps, the central EPC crashes, a registry zone churns. This
//! crate turns those scenarios into data. Every fault is a [`Window`]: one
//! break held from `at_s` for `for_s` seconds, or for good when `for_s` is
//! `None`. What breaks is a [`Break`]: a [`NetBreak`] on a link or node, or
//! a [`RegistryBreak`] on a registry zone or replica. A [`FaultPlan`] is a
//! serde-able, seeded list of windows that compiles to a sorted timeline
//! of raw [`NetFault`]s and injects them into a [`ShardedSim`], the one
//! driver of a network of either architecture, as ordinary events
//! ([`FaultPlan::inject`]). Determinism is total — all randomness happens
//! at *plan generation* time (see [`FaultPlan::chaos_mix`]), so the same
//! plan JSON replays identically regardless of `--jobs` or host.
//!
//! Layering: `dlte-net` owns the fault *mechanisms* (`Network::apply_fault`,
//! link overrides, crash/pause handler hooks); this crate owns the fault
//! *policy* — when and what to break.

#![forbid(unsafe_code)]

use dlte_net::{LinkId, LinkOverride, NetFault, NodeId, ShardedSim};
use dlte_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

pub mod mobility;
pub mod registry;
pub use mobility::{MovePlan, MoveSpec};
pub use registry::{RegistryBreak, RegistryFault, RegistryFaultPlan};

/// What a [`Window`] breaks: the raw fault that breaks it, the raw fault
/// that repairs it, and the milder breaks the shrinker may try instead.
pub trait Break: Clone {
    /// The raw timed fault a run consumes.
    type Fault;
    /// Total order on same-instant faults (see [`Plan::compile`]).
    type Key: Ord;
    /// The fault applied at the start of the window.
    fn start(&self) -> Self::Fault;
    /// The fault that undoes [`Break::start`] at the end of the window.
    fn end(&self) -> Self::Fault;
    /// Strictly milder variants of this break, in a deterministic order.
    /// Floors keep every step strictly shrinking, so repeated shrinking
    /// terminates. Empty when nothing milder is left.
    fn gentler(&self) -> Vec<Self>;
    /// The same-instant order: breaks sort before repairs, then by
    /// affected entity and parameters.
    fn same_instant_key(fault: &Self::Fault) -> Self::Key;
}

/// One fault: `what` breaks at `at_s` seconds of simulated time and is
/// repaired `for_s` seconds later, or never when `for_s` is `None`.
/// Negative times clamp to zero. A `for_s` of zero is legal: the break and
/// the repair land at the same instant, in that order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Window<B> {
    pub at_s: f64,
    pub for_s: Option<f64>,
    pub what: B,
}

/// Windows at or below this length are not halved any further.
const FLOOR_S: f64 = 0.05;

impl<B: Break> Window<B> {
    /// Strictly simpler windows: half as long (above [`FLOOR_S`]), then
    /// each gentler break over the same span.
    fn shrink(&self) -> Vec<Self> {
        let halved = self.for_s.filter(|&s| s > FLOOR_S).map(|s| Window {
            for_s: Some(s / 2.0),
            what: self.what.clone(),
            ..*self
        });
        let gentler = self
            .what
            .gentler()
            .into_iter()
            .map(|what| Window { what, ..*self });
        halved.into_iter().chain(gentler).collect()
    }
}

/// A composable fault scenario: a list of windows, plain serde data.
///
/// The `seed` is carried for provenance (plans produced by a `chaos_mix`
/// generator record the seed that generated them); replaying a plan uses
/// only its `faults` list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan<B> {
    #[serde(default)]
    pub seed: u64,
    #[serde(default)]
    pub faults: Vec<Window<B>>,
}

/// Network faults, scheduled into a run by [`FaultPlan::inject`].
pub type FaultPlan = Plan<NetBreak>;

impl<B> Plan<B> {
    pub fn new(seed: u64) -> Self {
        Plan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Append a window (chainable).
    pub fn with(mut self, window: Window<B>) -> Self {
        self.faults.push(window);
        self
    }
}

impl<B: Break> Plan<B> {
    /// Expand to the raw fault timeline, sorted by time: each window's
    /// break at `at_s` and, if it has one, its repair at `at_s + for_s`.
    /// Same-instant faults are ordered by a total key
    /// ([`Break::same_instant_key`]: breaks before repairs, then entity
    /// and parameters), never by insertion order — so any permutation of
    /// the same windows compiles to the identical timeline.
    pub fn compile(&self) -> Vec<(SimTime, B::Fault)> {
        let time = |s: f64| SimTime::ZERO + SimDuration::from_secs_f64(s.max(0.0));
        let mut out = Vec::new();
        for w in &self.faults {
            out.push((time(w.at_s), w.what.start()));
            if let Some(for_s) = w.for_s {
                out.push((time(w.at_s + for_s), w.what.end()));
            }
        }
        out.sort_by_cached_key(|(t, f)| (*t, B::same_instant_key(f)));
        out
    }

    /// Latest time at which this plan changes anything (used to size
    /// experiment horizons).
    pub fn last_fault_time(&self) -> SimTime {
        self.compile()
            .last()
            .map(|&(t, _)| t)
            .unwrap_or(SimTime::ZERO)
    }

    /// Candidate plans strictly simpler than this one, in a deterministic
    /// order: first each plan with one window removed, then each plan with
    /// one window halved or its break made gentler. The fuzzer keeps the
    /// first candidate that still trips an oracle and recurses; because
    /// every candidate is strictly smaller (fewer windows, or a strictly
    /// reduced parameter with a floor), greedy shrinking terminates.
    pub fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for i in 0..self.faults.len() {
            let mut p = self.clone();
            p.faults.remove(i);
            out.push(p);
        }
        for i in 0..self.faults.len() {
            for w in self.faults[i].shrink() {
                let mut p = self.clone();
                p.faults[i] = w;
                out.push(p);
            }
        }
        out
    }
}

/// What a network fault breaks. A link break installs its condition at the
/// start of the window and clears it at the end; a node break takes the
/// node out and brings it back.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum NetBreak {
    /// The link is down.
    LinkFlap { link: LinkId },
    /// The link loses packets with probability `loss`.
    LossBurst { link: LinkId, loss: f64 },
    /// The link gains `extra_ms` of latency plus up to `jitter_ms` of
    /// uniform jitter.
    LatencyStorm {
        link: LinkId,
        extra_ms: f64,
        jitter_ms: f64,
    },
    /// The link is throttled to `rate_bps`.
    RateThrottle { link: LinkId, rate_bps: f64 },
    /// The node crashes (handler state loss); the repair restarts it.
    NodeCrash { node: NodeId },
    /// The node pauses (packets dropped, timers deferred); the repair
    /// resumes it.
    NodePause { node: NodeId },
}

impl Break for NetBreak {
    type Fault = NetFault;
    type Key = (u8, u64, Vec<u64>);

    fn start(&self) -> NetFault {
        let set = |link, ov| NetFault::LinkOverride { link, ov };
        match *self {
            NetBreak::LinkFlap { link } => NetFault::LinkUp { link, up: false },
            NetBreak::LossBurst { link, loss } => set(
                link,
                LinkOverride {
                    loss: Some(loss),
                    ..Default::default()
                },
            ),
            NetBreak::LatencyStorm {
                link,
                extra_ms,
                jitter_ms,
            } => set(
                link,
                LinkOverride {
                    extra_delay: Some(SimDuration::from_secs_f64(extra_ms / 1e3)),
                    jitter: Some(SimDuration::from_secs_f64(jitter_ms / 1e3)),
                    ..Default::default()
                },
            ),
            NetBreak::RateThrottle { link, rate_bps } => set(
                link,
                LinkOverride {
                    rate_bps: Some(rate_bps),
                    ..Default::default()
                },
            ),
            NetBreak::NodeCrash { node } => NetFault::NodeDown { node },
            NetBreak::NodePause { node } => NetFault::NodePause { node },
        }
    }

    fn end(&self) -> NetFault {
        match *self {
            NetBreak::LinkFlap { link } => NetFault::LinkUp { link, up: true },
            NetBreak::LossBurst { link, .. }
            | NetBreak::LatencyStorm { link, .. }
            | NetBreak::RateThrottle { link, .. } => NetFault::LinkOverride {
                link,
                ov: LinkOverride::default(),
            },
            NetBreak::NodeCrash { node } => NetFault::NodeUp { node },
            NetBreak::NodePause { node } => NetFault::NodeResume { node },
        }
    }

    /// Halve the loss and the added latency, drop the jitter, double the
    /// throttled rate; each down to a floor.
    fn gentler(&self) -> Vec<NetBreak> {
        let mut out = Vec::new();
        match *self {
            NetBreak::LossBurst { link, loss } if loss > 0.05 => {
                out.push(NetBreak::LossBurst {
                    link,
                    loss: loss / 2.0,
                });
            }
            NetBreak::LatencyStorm {
                link,
                extra_ms,
                jitter_ms,
            } => {
                if extra_ms > 1.0 {
                    out.push(NetBreak::LatencyStorm {
                        link,
                        extra_ms: extra_ms / 2.0,
                        jitter_ms,
                    });
                }
                if jitter_ms > 0.0 {
                    out.push(NetBreak::LatencyStorm {
                        link,
                        extra_ms,
                        jitter_ms: 0.0,
                    });
                }
            }
            NetBreak::RateThrottle { link, rate_bps } if rate_bps < 5e6 => {
                out.push(NetBreak::RateThrottle {
                    link,
                    rate_bps: (rate_bps * 2.0).min(5e6),
                });
            }
            _ => {}
        }
        out
    }

    /// Breaks (link/node down, pause, override install) before repairs
    /// (up, restart, resume, override clear), then entity and parameters.
    /// Break-before-repair keeps zero-length windows meaningful (a link
    /// down for 0 s still goes down before it comes back up) and the full
    /// key makes [`Plan::compile`] a pure function of the *set* of windows.
    fn same_instant_key(f: &NetFault) -> (u8, u64, Vec<u64>) {
        fn bits_f(v: Option<f64>) -> [u64; 2] {
            [v.is_some() as u64, v.unwrap_or(0.0).to_bits()]
        }
        fn bits_d(v: Option<SimDuration>) -> [u64; 2] {
            [v.is_some() as u64, v.map_or(0, SimDuration::as_nanos)]
        }
        fn ov_bits(ov: &LinkOverride) -> Vec<u64> {
            let mut out = Vec::with_capacity(8);
            out.extend(bits_f(ov.loss));
            out.extend(bits_d(ov.extra_delay));
            out.extend(bits_d(ov.jitter));
            out.extend(bits_f(ov.rate_bps));
            out
        }
        match f {
            NetFault::LinkUp { link, up: false } => (0, *link as u64, Vec::new()),
            NetFault::NodeDown { node } => (1, *node as u64, Vec::new()),
            NetFault::NodePause { node } => (2, *node as u64, Vec::new()),
            NetFault::LinkOverride { link, ov } if !ov.is_empty() => (3, *link as u64, ov_bits(ov)),
            NetFault::LinkOverride { link, .. } => (4, *link as u64, Vec::new()),
            NetFault::LinkUp { link, up: true } => (5, *link as u64, Vec::new()),
            NetFault::NodeUp { node } => (6, *node as u64, Vec::new()),
            NetFault::NodeResume { node } => (7, *node as u64, Vec::new()),
            // Route installs are reconvergence actions: they sort with (after)
            // the repairs, keyed by the full route so the order is total.
            NetFault::RouteSet { node, prefix, link } => (
                8,
                *node as u64,
                vec![prefix.addr.0 as u64, prefix.len as u64, *link as u64],
            ),
        }
    }
}

impl FaultPlan {
    /// Schedule every fault of this plan into `sim` as `NetEvent::Fault`
    /// events. Call once, before (or during) the run. Each fault is
    /// broadcast to every shard, so replicated link, route and liveness
    /// state stays in sync; at one shard that is one event per fault.
    pub fn inject(&self, sim: &mut ShardedSim) {
        for (t, fault) in self.compile() {
            sim.schedule_fault_broadcast(t, fault);
        }
    }

    /// Generate a seeded random fault mix: `n` windows over the links in
    /// `targets.links` and nodes in `targets.crashable`, starting in
    /// `[start_s, end_s)`, each repaired within `max_down_s`. All randomness
    /// happens *here* — the returned plan is plain data and replays
    /// identically however it is run.
    pub fn chaos_mix(
        seed: u64,
        targets: &ChaosTargets,
        n: usize,
        start_s: f64,
        end_s: f64,
        max_down_s: f64,
    ) -> FaultPlan {
        let mut rng = SimRng::new(seed).fork("chaos-mix");
        let mut plan = FaultPlan::new(seed);
        for _ in 0..n {
            let at_s = rng.uniform(start_s, end_s);
            let for_s = rng.uniform(0.1 * max_down_s, max_down_s);
            // Node faults only when crashable nodes exist; weight link
            // faults 3:1 (they are the common case in deployment reports).
            let node_fault = !targets.crashable.is_empty() && rng.chance(0.25);
            let what = if node_fault {
                let node = targets.crashable[rng.index(targets.crashable.len())];
                if rng.chance(0.5) {
                    NetBreak::NodeCrash { node }
                } else {
                    NetBreak::NodePause { node }
                }
            } else {
                let link = targets.links[rng.index(targets.links.len())];
                match rng.index(4) {
                    0 => NetBreak::LinkFlap { link },
                    1 => NetBreak::LossBurst {
                        link,
                        loss: rng.uniform(0.05, 0.5),
                    },
                    2 => NetBreak::LatencyStorm {
                        link,
                        extra_ms: rng.uniform(10.0, 200.0),
                        jitter_ms: rng.uniform(0.0, 50.0),
                    },
                    _ => NetBreak::RateThrottle {
                        link,
                        rate_bps: rng.uniform(1e5, 5e6),
                    },
                }
            };
            plan.faults.push(Window {
                at_s,
                for_s: Some(for_s),
                what,
            });
        }
        plan
    }
}

/// What a chaos generator is allowed to break.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosTargets {
    pub links: Vec<LinkId>,
    pub crashable: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(at_s: f64, for_s: Option<f64>, what: NetBreak) -> Window<NetBreak> {
        Window { at_s, for_s, what }
    }

    #[test]
    fn flap_compiles_to_paired_transitions() {
        let plan = FaultPlan::new(1)
            .with(window(1.0, Some(0.5), NetBreak::LinkFlap { link: 2 }))
            .with(window(3.0, Some(0.5), NetBreak::LinkFlap { link: 2 }));
        let down = NetFault::LinkUp { link: 2, up: false };
        let up = NetFault::LinkUp { link: 2, up: true };
        assert_eq!(
            plan.compile(),
            vec![
                (SimTime::from_millis(1000), down.clone()),
                (SimTime::from_millis(1500), up.clone()),
                (SimTime::from_millis(3000), down),
                (SimTime::from_millis(3500), up),
            ]
        );
        assert_eq!(plan.last_fault_time(), SimTime::from_millis(3500));
    }

    #[test]
    fn zero_duration_flap_keeps_plan_order() {
        // Down and up at the same instant: breaks sort before repairs.
        let plan = FaultPlan::new(1).with(window(0.0, Some(0.0), NetBreak::LinkFlap { link: 0 }));
        let events = plan.compile();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].1, NetFault::LinkUp { link: 0, up: false });
        assert_eq!(events[1].1, NetFault::LinkUp { link: 0, up: true });
        assert_eq!(events[0].0, SimTime::ZERO);
        assert_eq!(events[1].0, SimTime::ZERO);
    }

    #[test]
    fn bursts_install_and_clear_overrides() {
        let plan = FaultPlan::new(1)
            .with(window(
                2.0,
                Some(1.0),
                NetBreak::LossBurst { link: 1, loss: 0.3 },
            ))
            .with(window(
                5.0,
                Some(1.0),
                NetBreak::RateThrottle {
                    link: 1,
                    rate_bps: 1e6,
                },
            ));
        let events = plan.compile();
        assert_eq!(events.len(), 4);
        match &events[1].1 {
            NetFault::LinkOverride { link: 1, ov } => assert!(ov.is_empty(), "clear at burst end"),
            other => panic!("{other:?}"),
        }
        match &events[2].1 {
            NetFault::LinkOverride { link: 1, ov } => assert_eq!(ov.rate_bps, Some(1e6)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crash_without_restart_stays_down() {
        let plan = FaultPlan::new(1).with(window(1.0, None, NetBreak::NodeCrash { node: 3 }));
        assert_eq!(
            plan.compile(),
            vec![(SimTime::from_millis(1000), NetFault::NodeDown { node: 3 })]
        );
    }

    #[test]
    fn negative_times_clamp_to_zero() {
        let plan = FaultPlan::new(1).with(window(-5.0, None, NetBreak::NodeCrash { node: 0 }));
        assert_eq!(plan.compile()[0].0, SimTime::ZERO);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::new(99)
            .with(window(1.0, Some(2.0), NetBreak::LinkFlap { link: 0 }))
            .with(window(
                2.0,
                Some(0.5),
                NetBreak::LatencyStorm {
                    link: 1,
                    extra_ms: 50.0,
                    jitter_ms: 10.0,
                },
            ))
            .with(window(3.0, Some(2.0), NetBreak::NodeCrash { node: 7 }))
            .with(window(6.0, None, NetBreak::NodePause { node: 4 }));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.compile(), plan.compile());
    }

    /// `compile` must be a pure function of the *set* of windows. Every
    /// permutation of a window list dense with same-instant collisions
    /// (several faults at t=5.0, all zero-length) compiles to the identical
    /// event list.
    #[test]
    fn compile_is_insertion_order_independent() {
        let windows = vec![
            window(5.0, Some(0.0), NetBreak::LinkFlap { link: 0 }),
            window(5.0, Some(0.0), NetBreak::NodeCrash { node: 3 }),
            window(5.0, Some(0.0), NetBreak::LossBurst { link: 1, loss: 0.3 }),
            window(5.0, Some(0.0), NetBreak::NodePause { node: 2 }),
        ];
        let reference = FaultPlan {
            seed: 1,
            faults: windows.clone(),
        }
        .compile();
        // Heap's algorithm: all 24 orderings of the four windows.
        fn permute<T>(k: usize, items: &mut Vec<T>, check: &mut impl FnMut(&[T])) {
            if k <= 1 {
                check(items);
                return;
            }
            for i in 0..k {
                permute(k - 1, items, check);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        let mut windows = windows;
        let n = windows.len();
        let mut permutations = 0;
        permute(n, &mut windows, &mut |order| {
            permutations += 1;
            let plan = FaultPlan {
                seed: 1,
                faults: order.to_vec(),
            };
            assert_eq!(plan.compile(), reference, "order {order:?}");
        });
        assert_eq!(permutations, 24);
        // And the documented semantic: every break precedes every repair at
        // the shared instant.
        let starts: Vec<NetFault> = reference[..4].iter().map(|(_, f)| f.clone()).collect();
        for w in &windows {
            assert!(starts.contains(&w.what.start()), "{w:?}");
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler_and_terminate() {
        let plan = FaultPlan::new(5)
            .with(window(1.0, Some(2.0), NetBreak::LinkFlap { link: 0 }))
            .with(window(
                2.0,
                Some(1.0),
                NetBreak::LossBurst { link: 1, loss: 0.4 },
            ))
            .with(window(3.0, Some(2.0), NetBreak::NodeCrash { node: 3 }));
        let candidates = plan.shrink_candidates();
        // 3 single-window removals come first.
        assert!(candidates.iter().take(3).all(|p| p.faults.len() == 2));
        // Then the flap halved, the burst halved, the burst gentler, the
        // crash halved.
        assert_eq!(candidates.len(), 7);
        assert!(candidates.iter().skip(3).all(|p| p.faults.len() == 3));
        assert_eq!(candidates[3].faults[0].for_s, Some(1.0));
        assert_eq!(
            candidates[5].faults[1],
            window(2.0, Some(1.0), NetBreak::LossBurst { link: 1, loss: 0.2 })
        );
        // Greedy always-take-first shrinking reaches a fixpoint: the empty
        // plan (removals shed one window per round, and floors stop the
        // halvings).
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
        assert!(window(1.0, None, NetBreak::NodeCrash { node: 1 })
            .shrink()
            .is_empty());
        assert!(window(1.0, Some(0.01), NetBreak::LinkFlap { link: 0 })
            .shrink()
            .is_empty());
        assert!(window(
            1.0,
            Some(0.05),
            NetBreak::RateThrottle {
                link: 0,
                rate_bps: 5e6
            }
        )
        .shrink()
        .is_empty());
    }

    #[test]
    fn chaos_mix_is_deterministic_in_seed() {
        let targets = ChaosTargets {
            links: vec![0, 1, 2],
            crashable: vec![5, 6],
        };
        let a = FaultPlan::chaos_mix(42, &targets, 20, 1.0, 10.0, 3.0);
        let b = FaultPlan::chaos_mix(42, &targets, 20, 1.0, 10.0, 3.0);
        let c = FaultPlan::chaos_mix(43, &targets, 20, 1.0, 10.0, 3.0);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert_eq!(a.faults.len(), 20);
        // Every fault lands inside the requested window.
        for (t, _) in a.compile() {
            assert!(t >= SimTime::from_secs(1));
            // Repair events extend at most max_down_s past the window.
            assert!(t <= SimTime::from_secs(13));
        }
    }
}
