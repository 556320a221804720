//! The traced run: a `World` wrapper that times every `Network::handle`
//! call and attributes it to a layer by event variant and node role.
//!
//! Spans are recorded from the benchmark's side of the `World` boundary,
//! so the simulator itself is untouched; engine time (queue pop, dispatch
//! loop, scheduling done outside `handle`) is what remains when the summed
//! span time is subtracted from the untraced wall clock.

use crate::spec::SPAN_CLASSES;
use crate::workloads::{net_window, total_pongs, Net, Role, Window};
use dlte_epc::ue::UeNode;
use dlte_net::{in_flight_packets, NetEvent, Network, NodeId, ShardedSim};
use dlte_sim::{EventQueue, RunReport, SimTime, Simulation, World};
use std::time::Instant;

fn class_index(name: &str) -> u8 {
    SPAN_CLASSES
        .iter()
        .position(|c| *c == name)
        .expect("span class is listed in spec::SPAN_CLASSES") as u8
}

/// (arrival class, timer class) of a node role. Timers of roles without a
/// timer class of their own (HSS, OTT, directory) fall into `net.other`.
fn classes_of(role: Role) -> (u8, u8) {
    let (arrive, timer) = match role {
        Role::Router => ("net.router", "net.other"),
        Role::Ue => ("epc.ue.arrive", "epc.ue.timer"),
        Role::Enb => ("epc.enb.arrive", "epc.enb.timer"),
        Role::Mme => ("epc.mme.arrive", "epc.mme.timer"),
        Role::Hss => ("epc.hss.arrive", "net.other"),
        Role::Sgw => ("epc.sgw.arrive", "epc.sgw.timer"),
        Role::Pgw => ("epc.pgw.arrive", "epc.pgw.timer"),
        Role::Ott => ("ott.arrive", "net.other"),
        Role::Dir => ("dir.arrive", "net.other"),
        Role::Ap => ("ap.arrive", "ap.timer"),
    };
    (class_index(arrive), class_index(timer))
}

#[derive(Clone, Copy, Default)]
pub struct SpanStat {
    pub count: u64,
    pub ns: u64,
}

/// A [`Network`] whose every dispatched event is timed and classified
/// while `recording` is on.
pub struct TracedNet {
    pub net: Network,
    classes: Vec<(u8, u8)>,
    link_departed: u8,
    pub recording: bool,
    pub spans: [SpanStat; SPAN_CLASSES.len()],
    /// Queue depth seen at each recorded dispatch.
    pub depth_sum: u64,
    pub depth_max: u64,
}

impl World for TracedNet {
    type Event = NetEvent;

    fn is_control(event: &NetEvent) -> bool {
        Network::is_control(event)
    }

    fn handle(&mut self, now: SimTime, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        if !self.recording || Network::is_control(&event) {
            return self.net.handle(now, event, queue);
        }
        let class = match &event {
            NetEvent::PacketArrive { node, .. } => self.classes[*node].0,
            NetEvent::Timer { node, .. } => self.classes[*node].1,
            _ => self.link_departed,
        };
        let depth = queue.pending() as u64;
        let t0 = Instant::now();
        self.net.handle(now, event, queue);
        let ns = t0.elapsed().as_nanos() as u64;
        let span = &mut self.spans[class as usize];
        span.count += 1;
        span.ns += ns;
        self.depth_sum += depth;
        self.depth_max = self.depth_max.max(depth);
    }
}

/// A single-engine network re-hosted under the tracing wrapper.
pub struct TracedSim {
    pub sim: Simulation<TracedNet>,
    ues: Vec<NodeId>,
}

impl TracedSim {
    /// Take a freshly built, not yet started single-shard network, move
    /// its world under the wrapper and re-seed the `Start` event the
    /// discarded queue held.
    pub fn new(net: Net) -> TracedSim {
        let ShardedSim::Single(sim) = net.sim else {
            panic!("the traced run hosts a single-shard network");
        };
        assert_eq!(sim.now(), SimTime::ZERO, "network already started");
        let traced = TracedNet {
            net: sim.into_world(),
            classes: net.roles.iter().map(|&r| classes_of(r)).collect(),
            link_departed: class_index("net.link_departed"),
            recording: false,
            spans: [SpanStat::default(); SPAN_CLASSES.len()],
            depth_sum: 0,
            depth_max: 0,
        };
        let mut sim = Simulation::new(traced);
        sim.queue_mut().schedule_at(SimTime::ZERO, NetEvent::Start);
        TracedSim { sim, ues: net.ues }
    }

    /// Warm up unrecorded to `start`, then record spans to `end`. Returns
    /// the window summary, judged exactly like an untraced window (plus the
    /// span-count identity), and the raw report with the allocation tally.
    pub fn run_window(&mut self, start: SimTime, end: SimTime) -> (Window, RunReport) {
        self.sim.run_until(start, u64::MAX);
        self.sim.world_mut().recording = true;
        let ((), report) = dlte_sim::report::scope(|| {
            self.sim.run_until(end, u64::MAX);
        });
        self.sim.world_mut().recording = false;
        let net = &self.sim.world().net;
        let pongs = total_pongs(&self.ues, |u| {
            net.handler_as::<UeNode>(u).map(|h| h.stats.pongs)
        });
        let audit = net.audit(in_flight_packets(self.sim.queue()));
        let mut w = net_window(&report, &audit, pongs);
        w.failures
            .extend(self.check_spans(report.events_dispatched));
        (w, report)
    }

    fn check_spans(&self, events: u64) -> Option<String> {
        let spanned: u64 = self.sim.world().spans.iter().map(|s| s.count).sum();
        (spanned != events)
            .then(|| format!("span counts sum to {spanned}, engine dispatched {events}"))
    }
}

/// Cost of the wrapper's clock reads: (host nanoseconds one
/// `Instant::now()` / `elapsed()` pair takes, nanoseconds a span around
/// nothing reports). The first is the overhead each traced event pays; the
/// second is the share of it that lands inside the span, which the span
/// means are reported net of.
pub fn timer_cost_ns() -> (f64, f64) {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut reported = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        reported += std::hint::black_box(t.elapsed().as_nanos());
    }
    let pair = t0.elapsed().as_nanos() as f64 / f64::from(N);
    (pair, reported as f64 / f64::from(N))
}
