//! The benchmark's fixed vocabulary: workloads, metric names, units and
//! regression bounds. `BENCHMARK.json` at the repository root mirrors
//! these tables (the `contract` test compares them).

/// How long one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;

/// Workload names with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "fabric_central",
        "1008-node centralized EPC, 900 pingers: steady-state GTP-U data plane through the shared core; X2 and the local core idle",
    ),
    (
        "fabric_dlte",
        "the same geometry as dLTE: local breakout plus the X2 fair-share report mesh; GTP core handlers idle",
    ),
    (
        "shard_cross",
        "2645-node dLTE on 2 engine shards with OTT pings that cross the cut: the only workload on the epoch barrier and exchange path",
    ),
    (
        "chaos_sweep",
        "6000 tiny faulted topologies built, run with tracing on and judged by the oracles: construction, restart and oracle cost",
    ),
    (
        "paper_suite",
        "all 21 experiment tables at default params: the only workload dominated by MAC, PHY, transport and registry code",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. The time bounds sit at the
    /// contract's ceiling because the 2-vCPU box the baseline was recorded
    /// on drifts: ten-seed spreads (quartile distance over median) were
    /// 1.4-5.6 % in calm stretches and up to 10.8 % (`shard_cross`) in a
    /// noisy one; see README.md.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "cases_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.20,
    },
];

/// Every `Network::handle` call of a traced run lands in exactly one of
/// these classes, so their `.count`s sum to `sim.events`.
pub const SPAN_CLASSES: [&str; 18] = [
    "net.router",
    "net.link_departed",
    "net.other",
    "ott.arrive",
    "dir.arrive",
    "epc.ue.arrive",
    "epc.ue.timer",
    "epc.enb.arrive",
    "epc.enb.timer",
    "epc.mme.arrive",
    "epc.mme.timer",
    "epc.hss.arrive",
    "epc.sgw.arrive",
    "epc.sgw.timer",
    "epc.pgw.arrive",
    "epc.pgw.timer",
    "ap.arrive",
    "ap.timer",
];

/// Per-layer metrics other than the span classes: (name, unit, higher is
/// better).
const LAYER_METRICS: [(&str, &str, bool); 73] = [
    // Run level, from the traced run of the workload's own network.
    ("sim.engine_self_ns", "ns", false),
    ("sim.queue_depth_mean", "count", false),
    ("sim.queue_depth_max", "count", false),
    ("trace.overhead_ratio", "ratio", false),
    ("trace.timer_ns", "ns", false),
    ("alloc.per_kevent", "count", false),
    ("alloc.bytes_per_event", "B", false),
    ("net.bytes_copied", "B", false),
    ("sim.events", "count", false),
    ("net.pkts_accepted", "count", false),
    ("net.drops", "count", false),
    ("ue.pongs", "count", true),
    ("sim.fingerprint", "hash", false),
    // Probes: timed loops over each crate's public functions.
    ("sim.queue.ns_d1k", "ns", false),
    ("sim.queue.ns_d64k", "ns", false),
    ("sim.queue.cancel_ns", "ns", false),
    ("sim.shard.epoch_us", "us", false),
    ("sim.shard.speedup_2v1", "ratio", true),
    ("sim.cliff_central", "ratio", false),
    ("sim.cliff_dlte", "ratio", false),
    ("net.fib.ns_r16", "ns", false),
    ("net.fib.ns_r1k", "ns", false),
    ("net.hop.ns_b64", "ns", false),
    ("net.hop.ns_b1500", "ns", false),
    ("net.pool.ns", "ns", false),
    ("net.tunnel.ns", "ns", false),
    ("epc.attach_us", "us", false),
    ("ap.attach_us", "us", false),
    ("auth.vector_ns", "ns", false),
    ("auth.usim_ns", "ns", false),
    ("x2.shares.ns_n8", "ns", false),
    ("x2.shares.ns_n64", "ns", false),
    ("mac.tti.ns_u10", "ns", false),
    ("mac.tti.ns_u100", "ns", false),
    ("mac.dcf.ns_s8", "ns", false),
    ("phy.snr_ns", "ns", false),
    ("phy.harq_block_ns", "ns", false),
    ("transport.mb_per_s", "MB/s", true),
    ("transport.mb_per_s_loss5", "MB/s", true),
    ("transport.fec_ns", "ns", false),
    ("registry.request_us_g1k", "us", false),
    ("registry.domain_us_g1k", "us", false),
    ("registry.log_append_us", "us", false),
    ("registry.log_sync_us", "us", false),
    ("faults.chaos_mix_us", "us", false),
    ("faults.compile_us", "us", false),
    ("check.all_us", "us", false),
    ("obs.emit_off_ns", "ns", false),
    ("obs.emit_on_ns", "ns", false),
    ("obs.counter_ns", "ns", false),
    ("scenario.build_ms_central", "ms", false),
    ("scenario.build_ms_dlte", "ms", false),
    // Per-case host time and oracle findings of one chaos rep.
    ("chaos.net.case_us_p50", "us", false),
    ("chaos.net.case_us_p99", "us", false),
    ("chaos.net.violations", "count", false),
    ("chaos.mob.case_us_p50", "us", false),
    ("chaos.mob.case_us_p99", "us", false),
    ("chaos.mob.violations", "count", false),
    ("chaos.reg.case_us_p50", "us", false),
    ("chaos.reg.case_us_p99", "us", false),
    ("chaos.reg.violations", "count", false),
    // Per-experiment host time of one suite pass.
    ("suite.e1_ms", "ms", false),
    ("suite.e2_ms", "ms", false),
    ("suite.e4_ms", "ms", false),
    ("suite.e5_ms", "ms", false),
    ("suite.e6_ms", "ms", false),
    ("suite.e7_ms", "ms", false),
    ("suite.e8_ms", "ms", false),
    ("suite.e9_ms", "ms", false),
    ("suite.e11_ms", "ms", false),
    ("suite.e12_ms", "ms", false),
    ("suite.e16_ms", "ms", false),
    ("suite.e18_ms", "ms", false),
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

/// Every per-layer metric, in report order: each span class's exact
/// `.count` and mean `.ns` per event, then [`LAYER_METRICS`].
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    for class in SPAN_CLASSES {
        out.push(Layer {
            name: format!("{class}.count"),
            unit: "count",
            higher_is_better: false,
        });
        out.push(Layer {
            name: format!("{class}.ns"),
            unit: "ns",
            higher_is_better: false,
        });
    }
    for (name, unit, higher_is_better) in LAYER_METRICS {
        out.push(Layer {
            name: name.to_string(),
            unit,
            higher_is_better,
        });
    }
    out
}

/// Per-layer metrics that are exact counts of simulated work: two runs of
/// the same code on the same seed must agree on them to the last digit.
pub fn is_exact(name: &str) -> bool {
    name.ends_with(".count")
        || name.ends_with(".violations")
        || matches!(
            name,
            "sim.events"
                | "net.pkts_accepted"
                | "net.drops"
                | "ue.pongs"
                | "sim.fingerprint"
                | "sim.queue_depth_mean"
                | "sim.queue_depth_max"
                | "alloc.per_kevent"
                | "alloc.bytes_per_event"
                | "net.bytes_copied"
        )
}
