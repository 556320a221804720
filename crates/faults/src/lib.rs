//! # dlte-faults — deterministic fault-injection plans
//!
//! The dLTE argument (§4) is about what happens when things *break*: the
//! backhaul flaps, the central EPC crashes, a site is partitioned. This
//! crate turns those scenarios into data: a [`FaultPlan`] is a serde-able,
//! seeded, composable list of [`FaultSpec`]s that compiles to a sorted
//! timeline of raw [`NetFault`]s and injects them into a [`ShardedSim`], the
//! one driver of a network of either architecture, as ordinary events
//! ([`FaultPlan::inject`]). Determinism is total — all randomness happens at *plan
//! generation* time (see [`FaultPlan::chaos_mix`]), so the same plan JSON
//! replays identically regardless of `--jobs` or host.
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
pub use registry::{RegistryFault, RegistryFaultPlan, RegistryFaultSpec};

/// One spec of a [`Plan`]: a fault (or fault pattern) that expands into
/// raw timed faults and offers the shrinker strictly simpler variants.
pub trait PlanSpec: Clone {
    /// The raw timed fault a run consumes.
    type Fault;
    /// Total order on same-instant faults (see [`Plan::compile`]).
    type Key: Ord;
    /// Expand this spec into raw timed faults.
    fn compile_into(&self, out: &mut Vec<(SimTime, Self::Fault)>);
    /// Strictly simpler variants of this spec, in a deterministic order.
    /// Floors keep every move strictly shrinking, so repeated shrinking
    /// terminates. May be empty when the spec is already minimal.
    fn shrink(&self) -> Vec<Self>;
    /// The same-instant order: "break" faults sort before "repair" faults,
    /// then by affected entity and parameters.
    fn same_instant_key(fault: &Self::Fault) -> Self::Key;
}

/// A composable fault scenario: a list of specs, plain serde data.
///
/// The `seed` is carried for provenance (plans produced by a `chaos_mix`
/// generator record the seed that generated them); replaying a plan uses
/// only its `faults` list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan<S> {
    #[serde(default)]
    pub seed: u64,
    #[serde(default)]
    pub faults: Vec<S>,
}

/// Network faults, scheduled into a run by [`FaultPlan::inject`].
pub type FaultPlan = Plan<FaultSpec>;

impl<S> Plan<S> {
    pub fn new(seed: u64) -> Self {
        Plan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Append a spec (chainable).
    pub fn with(mut self, spec: S) -> Self {
        self.faults.push(spec);
        self
    }
}

impl<S: PlanSpec> Plan<S> {
    /// Expand to the raw fault timeline, sorted by time. Same-instant faults
    /// are ordered by a total key ([`PlanSpec::same_instant_key`]: breaks
    /// before repairs, then entity and parameters), never by insertion
    /// order — so any permutation of the same specs compiles to the
    /// identical timeline.
    pub fn compile(&self) -> Vec<(SimTime, S::Fault)> {
        let mut out = Vec::new();
        for spec in &self.faults {
            spec.compile_into(&mut out);
        }
        out.sort_by_cached_key(|(t, f)| (*t, S::same_instant_key(f)));
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
    /// order: first each plan with one spec removed, then each plan with one
    /// spec replaced by a [`PlanSpec::shrink`] variant. The fuzzer keeps
    /// the first candidate that still trips an oracle and recurses; because
    /// every candidate is strictly smaller (fewer specs, or a strictly
    /// reduced parameter with a floor), greedy shrinking terminates.
    pub fn shrink_candidates(&self) -> Vec<Self> {
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
}

/// Push `fault` at `t_s` seconds (negative times clamp to zero).
fn at<F>(out: &mut Vec<(SimTime, F)>, t_s: f64, fault: F) {
    out.push((
        SimTime::ZERO + SimDuration::from_secs_f64(t_s.max(0.0)),
        fault,
    ));
}

/// One scheduled fault (or fault pattern). Times are seconds of simulated
/// time; durations of zero are legal (a `LinkFlap` with `down_s: 0.0`
/// downs and re-ups the link at the same instant, in that order).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// `times` down/up flaps of a link: down at `at_s + k*gap_s` for
    /// `down_s` each.
    LinkFlap {
        link: LinkId,
        at_s: f64,
        down_s: f64,
        times: u32,
        gap_s: f64,
    },
    /// Raise a link's loss probability to `loss` during the window.
    LossBurst {
        link: LinkId,
        at_s: f64,
        for_s: f64,
        loss: f64,
    },
    /// Add latency and uniform jitter to a link during the window.
    LatencyStorm {
        link: LinkId,
        at_s: f64,
        for_s: f64,
        extra_ms: f64,
        jitter_ms: f64,
    },
    /// Throttle a link's rate during the window.
    RateThrottle {
        link: LinkId,
        at_s: f64,
        for_s: f64,
        rate_bps: f64,
    },
    /// Crash a node (handler state loss), optionally restarting it later.
    NodeCrash {
        node: NodeId,
        at_s: f64,
        restart_after_s: Option<f64>,
    },
    /// Pause a node (packets dropped, timers deferred), resuming later.
    NodePause { node: NodeId, at_s: f64, for_s: f64 },
    /// Cut `nodes` from the rest of the world, optionally healing later.
    Partition {
        nodes: Vec<NodeId>,
        at_s: f64,
        heal_after_s: Option<f64>,
    },
    /// Escape hatch: a raw fault at a point in time.
    At { at_s: f64, fault: NetFault },
}

impl PlanSpec for FaultSpec {
    type Fault = NetFault;
    type Key = (u8, u64, Vec<u64>);

    fn compile_into(&self, out: &mut Vec<(SimTime, NetFault)>) {
        match *self {
            FaultSpec::LinkFlap {
                link,
                at_s,
                down_s,
                times,
                gap_s,
            } => {
                for k in 0..times.max(1) {
                    let start = at_s + k as f64 * gap_s;
                    at(out, start, NetFault::LinkUp { link, up: false });
                    at(out, start + down_s, NetFault::LinkUp { link, up: true });
                }
            }
            FaultSpec::LossBurst {
                link,
                at_s,
                for_s,
                loss,
            } => {
                let ov = LinkOverride {
                    loss: Some(loss),
                    ..Default::default()
                };
                at(out, at_s, NetFault::LinkOverride { link, ov });
                at(
                    out,
                    at_s + for_s,
                    NetFault::LinkOverride {
                        link,
                        ov: LinkOverride::default(),
                    },
                );
            }
            FaultSpec::LatencyStorm {
                link,
                at_s,
                for_s,
                extra_ms,
                jitter_ms,
            } => {
                let ov = LinkOverride {
                    extra_delay: Some(SimDuration::from_secs_f64(extra_ms / 1e3)),
                    jitter: Some(SimDuration::from_secs_f64(jitter_ms / 1e3)),
                    ..Default::default()
                };
                at(out, at_s, NetFault::LinkOverride { link, ov });
                at(
                    out,
                    at_s + for_s,
                    NetFault::LinkOverride {
                        link,
                        ov: LinkOverride::default(),
                    },
                );
            }
            FaultSpec::RateThrottle {
                link,
                at_s,
                for_s,
                rate_bps,
            } => {
                let ov = LinkOverride {
                    rate_bps: Some(rate_bps),
                    ..Default::default()
                };
                at(out, at_s, NetFault::LinkOverride { link, ov });
                at(
                    out,
                    at_s + for_s,
                    NetFault::LinkOverride {
                        link,
                        ov: LinkOverride::default(),
                    },
                );
            }
            FaultSpec::NodeCrash {
                node,
                at_s,
                restart_after_s,
            } => {
                at(out, at_s, NetFault::NodeDown { node });
                if let Some(after) = restart_after_s {
                    at(out, at_s + after, NetFault::NodeUp { node });
                }
            }
            FaultSpec::NodePause { node, at_s, for_s } => {
                at(out, at_s, NetFault::NodePause { node });
                at(out, at_s + for_s, NetFault::NodeResume { node });
            }
            FaultSpec::Partition {
                ref nodes,
                at_s,
                heal_after_s,
            } => {
                at(
                    out,
                    at_s,
                    NetFault::Partition {
                        nodes: nodes.clone(),
                        up: false,
                    },
                );
                if let Some(after) = heal_after_s {
                    at(
                        out,
                        at_s + after,
                        NetFault::Partition {
                            nodes: nodes.clone(),
                            up: true,
                        },
                    );
                }
            }
            FaultSpec::At { at_s, ref fault } => at(out, at_s, fault.clone()),
        }
    }

    /// Halve durations, magnitudes and repetition counts; shed partition
    /// members.
    fn shrink(&self) -> Vec<FaultSpec> {
        const FLOOR_S: f64 = 0.05;
        let mut out = Vec::new();
        match *self {
            FaultSpec::LinkFlap {
                link,
                at_s,
                down_s,
                times,
                gap_s,
            } => {
                if times > 1 {
                    out.push(FaultSpec::LinkFlap {
                        link,
                        at_s,
                        down_s,
                        times: times / 2,
                        gap_s,
                    });
                }
                if down_s > FLOOR_S {
                    out.push(FaultSpec::LinkFlap {
                        link,
                        at_s,
                        down_s: down_s / 2.0,
                        times,
                        gap_s,
                    });
                }
            }
            FaultSpec::LossBurst {
                link,
                at_s,
                for_s,
                loss,
            } => {
                if for_s > FLOOR_S {
                    out.push(FaultSpec::LossBurst {
                        link,
                        at_s,
                        for_s: for_s / 2.0,
                        loss,
                    });
                }
                if loss > 0.05 {
                    out.push(FaultSpec::LossBurst {
                        link,
                        at_s,
                        for_s,
                        loss: loss / 2.0,
                    });
                }
            }
            FaultSpec::LatencyStorm {
                link,
                at_s,
                for_s,
                extra_ms,
                jitter_ms,
            } => {
                if for_s > FLOOR_S {
                    out.push(FaultSpec::LatencyStorm {
                        link,
                        at_s,
                        for_s: for_s / 2.0,
                        extra_ms,
                        jitter_ms,
                    });
                }
                if extra_ms > 1.0 {
                    out.push(FaultSpec::LatencyStorm {
                        link,
                        at_s,
                        for_s,
                        extra_ms: extra_ms / 2.0,
                        jitter_ms,
                    });
                }
                if jitter_ms > 0.0 {
                    out.push(FaultSpec::LatencyStorm {
                        link,
                        at_s,
                        for_s,
                        extra_ms,
                        jitter_ms: 0.0,
                    });
                }
            }
            FaultSpec::RateThrottle {
                link,
                at_s,
                for_s,
                rate_bps,
            } => {
                if for_s > FLOOR_S {
                    out.push(FaultSpec::RateThrottle {
                        link,
                        at_s,
                        for_s: for_s / 2.0,
                        rate_bps,
                    });
                }
                if rate_bps < 5e6 {
                    // A gentler throttle (higher rate) is the smaller fault.
                    out.push(FaultSpec::RateThrottle {
                        link,
                        at_s,
                        for_s,
                        rate_bps: (rate_bps * 2.0).min(5e6),
                    });
                }
            }
            FaultSpec::NodeCrash {
                node,
                at_s,
                restart_after_s,
            } => {
                if let Some(after) = restart_after_s {
                    if after > FLOOR_S {
                        out.push(FaultSpec::NodeCrash {
                            node,
                            at_s,
                            restart_after_s: Some(after / 2.0),
                        });
                    }
                }
            }
            FaultSpec::NodePause { node, at_s, for_s } => {
                if for_s > FLOOR_S {
                    out.push(FaultSpec::NodePause {
                        node,
                        at_s,
                        for_s: for_s / 2.0,
                    });
                }
            }
            FaultSpec::Partition {
                ref nodes,
                at_s,
                heal_after_s,
            } => {
                if nodes.len() > 1 {
                    out.push(FaultSpec::Partition {
                        nodes: nodes[..nodes.len() - 1].to_vec(),
                        at_s,
                        heal_after_s,
                    });
                }
                if let Some(after) = heal_after_s {
                    if after > FLOOR_S {
                        out.push(FaultSpec::Partition {
                            nodes: nodes.clone(),
                            at_s,
                            heal_after_s: Some(after / 2.0),
                        });
                    }
                }
            }
            FaultSpec::At { .. } => {}
        }
        out
    }

    /// Breaks (link/node down, pause, partition cut, override install)
    /// before repairs (up, restart, resume, heal, override clear), then
    /// entity and parameters. Break-before-repair keeps zero-duration faults
    /// meaningful (a `down_s: 0.0` flap still downs the link before
    /// re-upping it) and the full key makes [`Plan::compile`] a pure
    /// function of the *set* of specs — see the permutation-invariance test.
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
            NetFault::Partition { nodes, up: false } => {
                (3, 0, nodes.iter().map(|&n| n as u64).collect())
            }
            NetFault::LinkOverride { link, ov } if !ov.is_empty() => (4, *link as u64, ov_bits(ov)),
            NetFault::LinkOverride { link, .. } => (5, *link as u64, Vec::new()),
            NetFault::LinkUp { link, up: true } => (6, *link as u64, Vec::new()),
            NetFault::NodeUp { node } => (7, *node as u64, Vec::new()),
            NetFault::NodeResume { node } => (8, *node as u64, Vec::new()),
            NetFault::Partition { nodes, up: true } => {
                (9, 0, nodes.iter().map(|&n| n as u64).collect())
            }
            // Route installs are reconvergence actions: they sort with (after)
            // the repairs, keyed by the full route so the order is total.
            NetFault::RouteSet { node, prefix, link } => (
                10,
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

    /// Generate a seeded random fault mix: `n` faults drawn over the links
    /// in `targets.links` and nodes in `targets.crashable`, starting in
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
            let spec = if node_fault {
                let node = targets.crashable[rng.index(targets.crashable.len())];
                if rng.chance(0.5) {
                    FaultSpec::NodeCrash {
                        node,
                        at_s,
                        restart_after_s: Some(for_s),
                    }
                } else {
                    FaultSpec::NodePause { node, at_s, for_s }
                }
            } else {
                let link = targets.links[rng.index(targets.links.len())];
                match rng.index(4) {
                    0 => FaultSpec::LinkFlap {
                        link,
                        at_s,
                        down_s: for_s,
                        times: 1,
                        gap_s: 0.0,
                    },
                    1 => FaultSpec::LossBurst {
                        link,
                        at_s,
                        for_s,
                        loss: rng.uniform(0.05, 0.5),
                    },
                    2 => FaultSpec::LatencyStorm {
                        link,
                        at_s,
                        for_s,
                        extra_ms: rng.uniform(10.0, 200.0),
                        jitter_ms: rng.uniform(0.0, 50.0),
                    },
                    _ => FaultSpec::RateThrottle {
                        link,
                        at_s,
                        for_s,
                        rate_bps: rng.uniform(1e5, 5e6),
                    },
                }
            };
            plan.faults.push(spec);
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

    #[test]
    fn flap_compiles_to_paired_transitions() {
        let plan = FaultPlan::new(1).with(FaultSpec::LinkFlap {
            link: 2,
            at_s: 1.0,
            down_s: 0.5,
            times: 2,
            gap_s: 2.0,
        });
        let events = plan.compile();
        assert_eq!(
            events,
            vec![
                (
                    SimTime::from_millis(1000),
                    NetFault::LinkUp { link: 2, up: false }
                ),
                (
                    SimTime::from_millis(1500),
                    NetFault::LinkUp { link: 2, up: true }
                ),
                (
                    SimTime::from_millis(3000),
                    NetFault::LinkUp { link: 2, up: false }
                ),
                (
                    SimTime::from_millis(3500),
                    NetFault::LinkUp { link: 2, up: true }
                ),
            ]
        );
        assert_eq!(plan.last_fault_time(), SimTime::from_millis(3500));
    }

    #[test]
    fn zero_duration_flap_keeps_plan_order() {
        // Down and up at the same instant: breaks sort before repairs.
        let plan = FaultPlan::new(1).with(FaultSpec::LinkFlap {
            link: 0,
            at_s: 0.0,
            down_s: 0.0,
            times: 1,
            gap_s: 0.0,
        });
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
            .with(FaultSpec::LossBurst {
                link: 1,
                at_s: 2.0,
                for_s: 1.0,
                loss: 0.3,
            })
            .with(FaultSpec::RateThrottle {
                link: 1,
                at_s: 5.0,
                for_s: 1.0,
                rate_bps: 1e6,
            });
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
        let plan = FaultPlan::new(1).with(FaultSpec::NodeCrash {
            node: 3,
            at_s: 1.0,
            restart_after_s: None,
        });
        assert_eq!(
            plan.compile(),
            vec![(SimTime::from_millis(1000), NetFault::NodeDown { node: 3 })]
        );
    }

    #[test]
    fn partition_heals_when_asked() {
        let plan = FaultPlan::new(1).with(FaultSpec::Partition {
            nodes: vec![1, 2],
            at_s: 0.5,
            heal_after_s: Some(1.0),
        });
        let events = plan.compile();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1],
            (
                SimTime::from_millis(1500),
                NetFault::Partition {
                    nodes: vec![1, 2],
                    up: true
                }
            )
        );
    }

    #[test]
    fn negative_times_clamp_to_zero() {
        let plan = FaultPlan::new(1).with(FaultSpec::At {
            at_s: -5.0,
            fault: NetFault::NodeDown { node: 0 },
        });
        assert_eq!(plan.compile()[0].0, SimTime::ZERO);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::new(99)
            .with(FaultSpec::LinkFlap {
                link: 0,
                at_s: 1.0,
                down_s: 2.0,
                times: 3,
                gap_s: 4.0,
            })
            .with(FaultSpec::LatencyStorm {
                link: 1,
                at_s: 2.0,
                for_s: 0.5,
                extra_ms: 50.0,
                jitter_ms: 10.0,
            })
            .with(FaultSpec::NodeCrash {
                node: 7,
                at_s: 3.0,
                restart_after_s: Some(2.0),
            })
            .with(FaultSpec::Partition {
                nodes: vec![4, 5],
                at_s: 6.0,
                heal_after_s: None,
            })
            .with(FaultSpec::At {
                at_s: 8.0,
                fault: NetFault::NodeResume { node: 7 },
            });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.compile(), plan.compile());
    }

    /// The exact JSON schema documented in EXPERIMENTS.md ("Fault
    /// injection") must keep parsing — it is the crate's wire format.
    #[test]
    fn documented_json_schema_parses() {
        let json = r#"{
          "seed": 7,
          "faults": [
            { "LinkFlap":     { "link": 0, "at_s": 5.0, "down_s": 4.0, "times": 1, "gap_s": 0.0 } },
            { "LossBurst":    { "link": 0, "at_s": 5.0, "for_s": 2.0, "loss": 0.3 } },
            { "LatencyStorm": { "link": 0, "at_s": 5.0, "for_s": 2.0, "extra_ms": 50.0, "jitter_ms": 10.0 } },
            { "RateThrottle": { "link": 0, "at_s": 5.0, "for_s": 2.0, "rate_bps": 1e6 } },
            { "NodeCrash":    { "node": 3, "at_s": 5.0, "restart_after_s": 4.0 } },
            { "NodePause":    { "node": 3, "at_s": 5.0, "for_s": 1.0 } },
            { "Partition":    { "nodes": [1, 2], "at_s": 5.0, "heal_after_s": 2.0 } },
            { "At":           { "at_s": 5.0, "fault": { "NodeDown": { "node": 3 } } } }
          ]
        }"#;
        let plan: FaultPlan = serde_json::from_str(json).expect("documented schema parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.faults.len(), 8);
        assert_eq!(plan.compile().len(), 15);
    }

    /// Satellite of ISSUE 4: `compile` must be a pure function of the *set*
    /// of specs. Every permutation of a spec list dense with same-instant
    /// collisions (several faults at t=5.0, including zero-duration ones)
    /// compiles to the identical event list.
    #[test]
    fn compile_is_insertion_order_independent() {
        let specs = vec![
            FaultSpec::LinkFlap {
                link: 0,
                at_s: 5.0,
                down_s: 0.0,
                times: 1,
                gap_s: 0.0,
            },
            FaultSpec::NodeCrash {
                node: 3,
                at_s: 5.0,
                restart_after_s: Some(0.0),
            },
            FaultSpec::LossBurst {
                link: 1,
                at_s: 5.0,
                for_s: 0.0,
                loss: 0.3,
            },
            FaultSpec::Partition {
                nodes: vec![1, 2],
                at_s: 5.0,
                heal_after_s: Some(0.0),
            },
        ];
        let reference = FaultPlan {
            seed: 1,
            faults: specs.clone(),
        }
        .compile();
        // Heap's algorithm: all 24 orderings of the four specs.
        fn permute(k: usize, specs: &mut Vec<FaultSpec>, check: &mut impl FnMut(&[FaultSpec])) {
            if k <= 1 {
                check(specs);
                return;
            }
            for i in 0..k {
                permute(k - 1, specs, check);
                if k.is_multiple_of(2) {
                    specs.swap(i, k - 1);
                } else {
                    specs.swap(0, k - 1);
                }
            }
        }
        let mut specs = specs;
        let n = specs.len();
        let mut permutations = 0;
        permute(n, &mut specs, &mut |order| {
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
        let first_repair = reference
            .iter()
            .position(|(_, f)| {
                matches!(
                    f,
                    NetFault::LinkUp { up: true, .. }
                        | NetFault::NodeUp { .. }
                        | NetFault::Partition { up: true, .. }
                ) || matches!(f, NetFault::LinkOverride { ov, .. } if ov.is_empty())
            })
            .unwrap();
        assert!(reference[..first_repair].iter().all(|(_, f)| !matches!(
            f,
            NetFault::LinkUp { up: true, .. }
                | NetFault::NodeUp { .. }
                | NetFault::Partition { up: true, .. }
        )));
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler_and_terminate() {
        let plan = FaultPlan::new(5)
            .with(FaultSpec::LinkFlap {
                link: 0,
                at_s: 1.0,
                down_s: 2.0,
                times: 4,
                gap_s: 3.0,
            })
            .with(FaultSpec::LossBurst {
                link: 1,
                at_s: 2.0,
                for_s: 1.0,
                loss: 0.4,
            })
            .with(FaultSpec::NodeCrash {
                node: 3,
                at_s: 3.0,
                restart_after_s: Some(2.0),
            });
        let candidates = plan.shrink_candidates();
        // 3 single-spec removals come first.
        assert_eq!(candidates[0].faults.len(), 2);
        assert!(candidates.iter().take(3).all(|p| p.faults.len() == 2));
        // Parameter shrinks keep the spec count.
        assert!(candidates.iter().skip(3).all(|p| p.faults.len() == 3));
        assert!(!candidates.is_empty());
        // Greedy always-take-first shrinking reaches a fixpoint: the empty
        // plan (removals shed one spec per round, and parameter floors stop
        // the halvings).
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
        assert!(FaultSpec::At {
            at_s: 1.0,
            fault: NetFault::NodeDown { node: 0 }
        }
        .shrink()
        .is_empty());
        assert!(FaultSpec::NodeCrash {
            node: 1,
            at_s: 1.0,
            restart_after_s: None
        }
        .shrink()
        .is_empty());
        assert!(FaultSpec::LinkFlap {
            link: 0,
            at_s: 1.0,
            down_s: 0.01,
            times: 1,
            gap_s: 0.0
        }
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
