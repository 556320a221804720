//! One workload, start to finish: the timed phase, the output checks and
//! the traced pass, reduced to a [`WorkloadResult`].

use crate::measure::{measure, median, samples, Measured, Stat};
use crate::spec::{self, SPAN_CLASSES};
use crate::traced::{timer_cost_ns, TracedSim};
use crate::workloads::{
    build_fabric, build_shard_cross, chaos_generate, golden_pass, run_chaos_window, run_net_window,
    run_suite_pass, run_suite_window, Arch, Counts, Net, Size, CHAOS_DOMAINS, FABRIC_START,
    SHARD_END, SHARD_START,
};
use crate::{alloc, probes};
use dlte_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub struct Options {
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Tiny inputs and a single rep.
    pub quick: bool,
    /// Run the traced pass after the timed phase.
    pub traced: bool,
}

/// Everything one workload run reports.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fail_ratio: f64,
    /// Why operations failed (first 20).
    pub failures: Vec<String>,
    /// Chaos cases whose oracles reported a violation, as `domain:seed`:
    /// findings about the simulated system, recorded as found.
    pub violating_cases: Vec<String>,
    /// Timed reps behind each end-to-end median.
    pub reps: u64,
    /// Exact outputs of the untraced reference rep, which every timed rep
    /// and the traced run must reproduce.
    pub reference: Counts,
    pub end_to_end: BTreeMap<String, Stat>,
    /// Empty unless the traced pass ran. A name outside the sections this
    /// workload's traced pass measures reads 0.
    pub per_layer: BTreeMap<String, f64>,
}

pub type Layers = BTreeMap<String, f64>;

pub fn put(layers: &mut Layers, name: &str, value: f64) {
    layers.insert(name.to_string(), value);
}

#[derive(Clone, Copy)]
enum Workload {
    Fabric(Arch),
    ShardCross,
    ChaosSweep,
    PaperSuite,
}

impl Workload {
    fn named(name: &str) -> Option<Workload> {
        Some(match name {
            "fabric_central" => Workload::Fabric(Arch::Central),
            "fabric_dlte" => Workload::Fabric(Arch::Dlte),
            "shard_cross" => Workload::ShardCross,
            "chaos_sweep" => Workload::ChaosSweep,
            "paper_suite" => Workload::PaperSuite,
            _ => return None,
        })
    }
}

fn fabric_end(size: Size) -> SimTime {
    SimTime::from_secs(size.fabric_end_s)
}

/// A fabric network built and run through the attach storm and X2 set-up
/// to the start of the timed window.
fn warm_fabric(arch: Arch, cells: usize, seed: u64) -> Net {
    let mut net = build_fabric(arch, cells, seed);
    net.sim.run_until(FABRIC_START, u64::MAX);
    net
}

fn warm_shard_cross(aps: usize, shards: usize, seed: u64) -> Net {
    let mut net = build_shard_cross(aps, shards, seed);
    net.sim.run_until(SHARD_START, u64::MAX);
    net
}

fn time_fabric(arch: Arch, cells: usize, seconds: f64, o: &Options, size: Size) -> Measured {
    measure(
        seconds,
        o.quick,
        || warm_fabric(arch, cells, o.seed),
        |mut net| run_net_window(&mut net, fabric_end(size)),
    )
}

/// The timed phase of one workload.
fn time(w: Workload, o: &Options, size: Size) -> Measured {
    match w {
        Workload::Fabric(arch) => time_fabric(arch, size.fabric_cells, o.seconds, o, size),
        Workload::ShardCross => {
            let window = |mut net: Net| run_net_window(&mut net, SHARD_END);
            let mut m = measure(
                o.seconds,
                o.quick,
                || warm_shard_cross(size.shard_aps, 2, o.seed),
                window,
            );
            // Shard-count invariance: the same topology on one engine must
            // reproduce every counter of the two-shard reference.
            let one = window(warm_shard_cross(size.shard_aps, 1, o.seed));
            m.attempted += 1;
            m.failures.extend(one.failures);
            if one.counts != m.reference.counts {
                m.failures.push(format!(
                    "1-shard {:?} differs from 2-shard {:?}",
                    one.counts, m.reference.counts
                ));
            }
            m
        }
        Workload::ChaosSweep => measure(
            o.seconds,
            o.quick,
            || chaos_generate(o.seed, size.chaos_cases),
            |cases| run_chaos_window(&cases, None),
        ),
        Workload::PaperSuite => measure(o.seconds, o.quick, golden_pass, |golden_problems| {
            let mut w = run_suite_window(size.suite_passes);
            w.failures.extend(golden_problems);
            w
        }),
    }
}

/// Re-run a network window under the tracing wrapper and derive the span
/// and run-level metrics. `untraced_wall_s` is the same window's untraced
/// host time, the base of engine self time and the overhead ratio.
fn trace_net(
    net: Net,
    (start, end): (SimTime, SimTime),
    reference: &Counts,
    untraced_wall_s: f64,
    layers: &mut Layers,
    failures: &mut Vec<String>,
) {
    let mut set = |name: &str, value: f64| put(layers, name, value);
    let (timer_pair_ns, empty_span_ns) = timer_cost_ns();
    set("trace.timer_ns", timer_pair_ns);
    let mut traced = TracedSim::new(net);
    alloc::set_counting(true);
    let (w, report) = traced.run_window(start, end);
    alloc::set_counting(false);
    failures.extend(w.failures);
    if w.counts != *reference {
        failures.push(format!(
            "traced run {:?} differs from the untraced run's {reference:?}",
            w.counts
        ));
    }
    let world = traced.sim.world();
    let events = w.counts.events as f64;
    // Handler time, net of what a span around nothing reads.
    let mut handle_ns = 0.0;
    for (class, span) in SPAN_CLASSES.iter().zip(&world.spans) {
        set(&format!("{class}.count"), span.count as f64);
        let net = (span.ns as f64 - span.count as f64 * empty_span_ns).max(0.0);
        let mean = if span.count == 0 {
            0.0
        } else {
            net / span.count as f64
        };
        set(&format!("{class}.ns"), mean);
        handle_ns += net;
    }
    set(
        "sim.engine_self_ns",
        (untraced_wall_s * 1e9 - handle_ns) / events,
    );
    set("sim.queue_depth_mean", world.depth_sum as f64 / events);
    set("sim.queue_depth_max", world.depth_max as f64);
    set("trace.overhead_ratio", w.wall_s / untraced_wall_s);
    set("alloc.per_kevent", report.allocs as f64 * 1e3 / events);
    set("alloc.bytes_per_event", report.alloc_bytes as f64 / events);
    set("net.bytes_copied", report.bytes_copied as f64);
    set("sim.events", events);
    set("net.pkts_accepted", w.counts.pkts_accepted as f64);
    set("net.drops", w.counts.drops as f64);
    set("ue.pongs", w.counts.pongs as f64);
    set("sim.fingerprint", w.counts.fingerprint as f64);
}

/// The traced pass of one workload: its own sections of the per-layer
/// metrics. (The probes, which every workload runs, are added by the
/// caller.)
fn trace(w: Workload, o: &Options, size: Size, m: &mut Measured, layers: &mut Layers) {
    match w {
        Workload::Fabric(arch) => {
            trace_net(
                build_fabric(arch, size.fabric_cells, o.seed),
                (FABRIC_START, fabric_end(size)),
                &m.reference.counts,
                median(&m.wall_s),
                layers,
                &mut m.failures,
            );
            m.attempted += 1;
            // The cliff: the same window on a 55-node topology, against
            // the timed phase's events/s.
            let small = time_fabric(arch, size.cliff_small_cells, 0.5, o, size);
            m.attempted += small.attempted;
            m.failures.extend(small.failures);
            let name = match arch {
                Arch::Central => "sim.cliff_central",
                Arch::Dlte => "sim.cliff_dlte",
            };
            put(
                layers,
                name,
                median(&small.events_per_s) / median(&m.events_per_s),
            );
        }
        Workload::ShardCross => {
            let one_shard_wall_s = {
                let rep = || {
                    run_net_window(&mut warm_shard_cross(size.shard_aps, 1, o.seed), SHARD_END)
                        .wall_s
                };
                (rep() + rep()) / 2.0
            };
            put(
                layers,
                "sim.shard.speedup_2v1",
                one_shard_wall_s / median(&m.wall_s),
            );
            trace_net(
                build_shard_cross(size.shard_aps, 1, o.seed),
                (SHARD_START, SHARD_END),
                &m.reference.counts,
                one_shard_wall_s,
                layers,
                &mut m.failures,
            );
            m.attempted += 1;
        }
        Workload::ChaosSweep => {
            let mut case_us = [Vec::new(), Vec::new(), Vec::new()];
            let cases = chaos_generate(o.seed, size.chaos_cases);
            let w = run_chaos_window(&cases, Some(&mut case_us));
            m.attempted += 1 + w.ops;
            m.failures.extend(w.failures);
            if w.counts != m.reference.counts {
                m.failures
                    .push("per-case timed rep's verdicts differ from the reference rep's".into());
            }
            for (domain, us) in CHAOS_DOMAINS.iter().zip(&case_us) {
                put(layers, &format!("chaos.{domain}.case_us_p50"), median(us));
                put(
                    layers,
                    &format!("chaos.{domain}.case_us_p99"),
                    samples(us).p99(),
                );
                let prefix = format!("{domain}:");
                let violations = w.violating.iter().filter(|v| v.starts_with(&prefix));
                put(
                    layers,
                    &format!("chaos.{domain}.violations"),
                    violations.count() as f64,
                );
            }
        }
        Workload::PaperSuite => {
            let mut exp_ms = Vec::new();
            let w = run_suite_pass(Some(&mut exp_ms));
            m.attempted += 1;
            m.failures.extend(w.failures);
            if w.counts != m.reference.counts {
                m.failures
                    .push("per-experiment timed pass's tables differ from the reference".into());
            }
            for (id, ms) in exp_ms {
                let name = format!("suite.{id}_ms");
                if layers.contains_key(&name) {
                    put(layers, &name, ms);
                }
            }
        }
    }
}

/// Run one workload by name. The process-global knobs of the simulator
/// are pinned here, never inherited.
pub fn run_workload(name: &str, o: &Options) -> Result<WorkloadResult, String> {
    let w = Workload::named(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    dlte_sim::set_jobs(1);
    dlte_sim::set_shards(1);
    dlte_obs::set_tracing(false);
    let size = if o.quick { Size::QUICK } else { Size::FULL };

    let mut m = time(w, o, size);
    let mut end_to_end = BTreeMap::new();
    for (name, samples) in [
        ("wall_s", &m.wall_s),
        ("events_per_s", &m.events_per_s),
        ("cases_per_s", &m.cases_per_s),
        ("setup_s", &m.setup_s),
    ] {
        end_to_end.insert(name.to_string(), Stat::of(samples));
    }
    end_to_end.insert("peak_rss_mb".to_string(), Stat::of(&[m.peak_rss_mb]));

    let mut per_layer = Layers::new();
    if o.traced {
        per_layer.extend(spec::per_layer().into_iter().map(|l| (l.name, 0.0)));
        trace(w, o, size, &mut m, &mut per_layer);
        probes::run_all(o.seed, &mut per_layer);
    }

    let failed = m.failures.len() as u64;
    m.failures.truncate(20);
    Ok(WorkloadResult {
        workload: name.to_string(),
        seed: o.seed,
        correct: failed == 0,
        attempted: m.attempted,
        failed,
        fail_ratio: failed as f64 / m.attempted as f64,
        failures: m.failures,
        violating_cases: m.reference.violating,
        reps: m.wall_s.len() as u64,
        reference: m.reference.counts,
        end_to_end,
        per_layer,
    })
}
