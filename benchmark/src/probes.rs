//! Layer probes: plain timed loops over each crate's public functions,
//! each reported as the median of [`BATCHES`] batches. They are workload
//! independent and run in every traced pass, so a change to one layer shows
//! here even when no end-to-end metric resolves it.

use crate::measure::median;
use crate::run::{self, Layers};
use crate::workloads::{build_cells, build_fabric, fabric_pinger, Arch};
use dlte::DlteApNode;
use dlte_auth::vectors::{generate_vector, SubscriberRecord};
use dlte_auth::Usim;
use dlte_check::{check_all, Bounds, CoreView, Evidence, UeView};
use dlte_epc::{UeApp, UeNode, UeState};
use dlte_faults::{ChaosTargets, FaultPlan};
use dlte_mac::{CellConfig, CellSim, DcfConfig, DcfSim, StationConfig, UeConfig};
use dlte_net::handlers::CbrSource;
use dlte_net::node::NodeInfo;
use dlte_net::{gtp, Addr, LinkConfig, NetworkBuilder, Packet, PacketPool, Prefix};
use dlte_phy::{HarqConfig, HarqProcessModel, LinkBudget, PathLossModel, RadioConfig, CQI_TABLE};
use dlte_registry::{
    ChannelPlan, Entry, GrantPolicy, GrantRequest, LicenseGrant, Point, ReplicatedLog,
    SpectrumRegistry,
};
use dlte_sim::{
    run_sharded, EventQueue, OutMsg, ShardPlan, ShardWorld, SimDuration, SimRng, SimTime,
    Simulation, World,
};
use dlte_transport::fec::FecEncoder;
use dlte_transport::{TransportClientNode, TransportConfig, TransportServerNode};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe, after one untimed warm-up batch.
const BATCHES: usize = 9;

/// Median over the batches of whatever per-operation figure `batch`
/// returns.
fn probe(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&samples)
}

/// Host nanoseconds per call of `op`, over `ops` calls.
fn ns_per(ops: u32, mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ops {
        op();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(ops)
}

/// Run every probe. `seed` feeds every random input.
pub fn run_all(seed: u64, layers: &mut Layers) {
    let rng = SimRng::new(seed).fork("probes");
    let mut set = |name: &str, value: f64| run::put(layers, name, value);
    set("sim.queue.ns_d1k", probe(|| queue_hold_ns(1_000, seed)));
    set("sim.queue.ns_d64k", probe(|| queue_hold_ns(64_000, seed)));
    set("sim.queue.cancel_ns", probe(queue_cancel_ns));
    set("sim.shard.epoch_us", probe(shard_epoch_us));
    set("net.fib.ns_r16", probe(|| fib_ns(16, &rng)));
    set("net.fib.ns_r1k", probe(|| fib_ns(1_000, &rng)));
    set("net.hop.ns_b64", probe(|| hop_ns(64)));
    set("net.hop.ns_b1500", probe(|| hop_ns(1_500)));
    set("net.pool.ns", probe(pool_ns));
    set("net.tunnel.ns", probe(tunnel_ns));
    set("epc.attach_us", probe(|| attach_us(Arch::Central, seed)));
    set("ap.attach_us", probe(|| attach_us(Arch::Dlte, seed)));
    set("auth.vector_ns", probe(|| auth_vector_ns(&rng)));
    set("auth.usim_ns", probe(|| auth_usim_ns(&rng)));
    set("x2.shares.ns_n8", probe(|| x2_shares_ns(8, &rng)));
    set("x2.shares.ns_n64", probe(|| x2_shares_ns(64, &rng)));
    set("mac.tti.ns_u10", probe(|| mac_tti_ns(10, &rng)));
    set("mac.tti.ns_u100", probe(|| mac_tti_ns(100, &rng)));
    set("mac.dcf.ns_s8", probe(|| mac_dcf_ns(&rng)));
    set("phy.snr_ns", probe(phy_snr_ns));
    set("phy.harq_block_ns", probe(|| phy_harq_block_ns(&rng)));
    set(
        "transport.mb_per_s",
        probe(|| transport_mb_per_s(0.0, seed)),
    );
    set(
        "transport.mb_per_s_loss5",
        probe(|| transport_mb_per_s(0.05, seed)),
    );
    set("transport.fec_ns", probe(transport_fec_ns));
    let (request_us, domain_us) = registry_us(&rng);
    set("registry.request_us_g1k", request_us);
    set("registry.domain_us_g1k", domain_us);
    let (append_us, sync_us) = log_us(&rng);
    set("registry.log_append_us", append_us);
    set("registry.log_sync_us", sync_us);
    let (mix_us, compile_us) = faults_us(seed);
    set("faults.chaos_mix_us", mix_us);
    set("faults.compile_us", compile_us);
    set("check.all_us", check_all_us(seed));
    set("obs.emit_off_ns", probe(|| obs_emit_ns(false)));
    set("obs.emit_on_ns", probe(|| obs_emit_ns(true)));
    set("obs.counter_ns", probe(obs_counter_ns));
    set(
        "scenario.build_ms_central",
        probe(|| build_ms(Arch::Central, seed)),
    );
    set(
        "scenario.build_ms_dlte",
        probe(|| build_ms(Arch::Dlte, seed)),
    );
}

// --- dlte-sim ---------------------------------------------------------------

/// The classic hold model: every dispatched event schedules one successor
/// at a pseudo-random future time, so the queue stays `depth` deep.
struct Hold {
    state: u64,
}

impl Hold {
    fn next_delay(&mut self) -> SimDuration {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        SimDuration::from_nanos(1 + self.state % 1_000_000)
    }
}

impl World for Hold {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
        let delay = self.next_delay();
        queue.schedule_in(delay, ());
    }
}

/// Engine nanoseconds per event (pop, dispatch, one schedule) at a steady
/// queue depth.
fn queue_hold_ns(depth: usize, seed: u64) -> f64 {
    const EVENTS: u64 = 200_000;
    let mut world = Hold { state: seed | 1 };
    let seeds: Vec<SimDuration> = (0..depth).map(|_| world.next_delay()).collect();
    let mut sim = Simulation::new(world);
    for d in seeds {
        sim.queue_mut().schedule_in(d, ());
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::MAX, EVENTS);
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(sim.events_dispatched(), EVENTS);
    ns / EVENTS as f64
}

/// Nanoseconds per schedule + cancel pair against a 1000-deep queue.
fn queue_cancel_ns() -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..1_000u64 {
        q.schedule_at(SimTime::from_micros(i * 7), 0);
    }
    let mut i = 0u64;
    let ns = ns_per(100_000, || {
        i += 1;
        let key = q.schedule_at(SimTime::from_micros(i % 7_000), 1);
        q.cancel(key);
    });
    assert_eq!(q.pending(), 1_000);
    ns
}

/// A shard that bounces one token to the other shard every lookahead, so
/// each epoch carries exactly one cross-shard message.
struct Bounce {
    other: usize,
    outbound: Vec<OutMsg<()>>,
}

const BOUNCE_HOP: SimDuration = SimDuration::from_millis(1);

impl World for Bounce {
    type Event = ();
    fn handle(&mut self, now: SimTime, _ev: (), queue: &mut EventQueue<()>) {
        let (origin, oseq) = queue.alloc_key();
        self.outbound.push(OutMsg {
            shard: self.other,
            at: now + BOUNCE_HOP,
            origin,
            oseq,
            event: (),
        });
    }
}

impl ShardWorld for Bounce {
    fn drain_outbound(&mut self) -> Vec<OutMsg<()>> {
        std::mem::take(&mut self.outbound)
    }
}

/// Host microseconds per epoch of `run_sharded` on two trivial shards:
/// thread spawn and join, barrier and a one-message exchange.
fn shard_epoch_us() -> f64 {
    const EPOCHS: u64 = 300;
    let plan = ShardPlan::new(2, vec![0, 1], BOUNCE_HOP);
    let mut sims: Vec<Simulation<Bounce>> = (0..2)
        .map(|k| {
            Simulation::new(Bounce {
                other: 1 - k,
                outbound: Vec::new(),
            })
        })
        .collect();
    sims[0].queue_mut().schedule_at(SimTime::ZERO, ());
    let t0 = Instant::now();
    run_sharded(&mut sims, &plan, SimTime::from_millis(EPOCHS), u64::MAX);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let bounced: u64 = sims.iter().map(|s| s.events_dispatched()).sum();
    assert!(bounced >= EPOCHS, "token stopped after {bounced} hops");
    us / EPOCHS as f64
}

// --- dlte-net ---------------------------------------------------------------

/// Nanoseconds per `NodeInfo::route_for` over a table of `routes` /32
/// host routes plus a default, looked up in random order.
fn fib_ns(routes: u32, rng: &SimRng) -> f64 {
    let mut rng = rng.fork_idx("fib", u64::from(routes));
    let mut node = NodeInfo::new("probe");
    for i in 0..routes {
        node.set_route(Prefix::new(Addr(0x0A00_0000 + i), 32), (i % 7) as usize);
    }
    node.set_route(Prefix::DEFAULT, 0);
    let dsts: Vec<Addr> = (0..4_096)
        .map(|_| Addr(0x0A00_0000 + rng.index(routes as usize * 2) as u32))
        .collect();
    let mut i = 0;
    ns_per(200_000, || {
        i = (i + 1) % dsts.len();
        black_box(node.route_for(dsts[i]));
    })
}

/// Host nanoseconds per hop of bare forwarding: a CBR source pushes
/// packets of `bytes` down a line of 8 handler-less routers to a plain
/// sink. Smallest and largest size must cost the same per hop, since
/// forwarding moves a handle and never the bytes.
fn hop_ns(bytes: u32) -> f64 {
    const ROUTERS: usize = 8;
    let dst_addr = Addr::new(10, 0, 0, 99);
    let mut nb = NetworkBuilder::new(1);
    // 4000 packets per simulated second at either size.
    let rate_bps = 4_000.0 * f64::from(bytes) * 8.0;
    let src = nb.host(
        "src",
        Box::new(CbrSource::new(dst_addr, 1, rate_bps, bytes)),
    );
    nb.addr(src, Addr::new(10, 0, 0, 1));
    let mut prev = src;
    for r in 0..ROUTERS {
        let router = nb.node(format!("r{r}"));
        nb.link(prev, router, LinkConfig::lan());
        prev = router;
    }
    let dst = nb.node("dst");
    nb.addr(dst, dst_addr);
    nb.link(prev, dst, LinkConfig::lan());
    nb.auto_routes();
    let mut sim = nb.build();
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(1), u64::MAX);
    let ns = t0.elapsed().as_nanos() as f64;
    let hops = sim.world().core.fabric.accepted;
    assert!(hops > 30_000, "only {hops} hops forwarded");
    ns / hops as f64
}

/// Nanoseconds per arena insert + take pair at a steady 256 live packets.
fn pool_ns() -> f64 {
    let mut pool = PacketPool::new();
    let packet = |id| Packet::new(id, Addr(1), Addr(2), 200, SimTime::ZERO);
    let mut live: Vec<_> = (0..256).map(|i| pool.insert(packet(i))).collect();
    let mut i = 0usize;
    ns_per(200_000, || {
        i = (i + 97) % live.len();
        let p = pool.take(live[i]).expect("handle is live");
        live[i] = pool.insert(black_box(p));
    })
}

/// Nanoseconds per GTP-U encapsulate + decapsulate round trip.
fn tunnel_ns() -> f64 {
    let mut packet = Some(Packet::new(1, Addr(1), Addr(2), 200, SimTime::ZERO));
    ns_per(200_000, || {
        let p = packet.take().expect("packet is put back every call");
        let p = gtp::encapsulate(p, 7, Addr(3), Addr(4));
        packet = Some(gtp::decapsulate(black_box(p), Some(7)).expect("TEID matches"));
    })
}

// --- dlte-epc / dlte core ------------------------------------------------------

/// Host microseconds per completed attach: 4 cells of 9 idle UEs attach
/// through the shared EPC or their AP's local core.
fn attach_us(arch: Arch, seed: u64) -> f64 {
    let mut net = build_cells(arch, 4, seed, || UeApp::None);
    let t0 = Instant::now();
    net.sim.run_until(SimTime::from_secs(2), u64::MAX);
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let attached = net
        .ues
        .iter()
        .filter(|&&u| {
            net.sim
                .handler_as::<UeNode>(u)
                .is_some_and(|h| h.state == UeState::Attached)
        })
        .count();
    assert_eq!(attached, net.ues.len(), "attach storm did not finish");
    us / attached as f64
}

/// Host milliseconds to build a 208-node (20 cells of 9 UEs) topology,
/// routes included.
fn build_ms(arch: Arch, seed: u64) -> f64 {
    let t0 = Instant::now();
    black_box(build_fabric(arch, 20, seed));
    t0.elapsed().as_secs_f64() * 1e3
}

// --- dlte-auth ---------------------------------------------------------------

fn auth_vector_ns(rng: &SimRng) -> f64 {
    let mut rng = rng.fork("auth-vector");
    let mut record = SubscriberRecord {
        imsi: 1_000,
        k: 0x5EED,
        sqn: 0,
    };
    ns_per(20_000, || {
        black_box(generate_vector(&mut record, 51_089, &mut rng));
    })
}

fn auth_usim_ns(rng: &SimRng) -> f64 {
    let mut rng = rng.fork("auth-usim");
    let mut record = SubscriberRecord {
        imsi: 1_000,
        k: 0x5EED,
        sqn: 0,
    };
    let mut usim = Usim::new(1_000, 0x5EED);
    let vectors: Vec<_> = (0..20_000)
        .map(|_| generate_vector(&mut record, 51_089, &mut rng))
        .collect();
    let mut i = 0;
    ns_per(20_000, || {
        let v = &vectors[i];
        i += 1;
        black_box(usim.authenticate(v.rand, v.autn, 51_089)).expect("fresh vector verifies");
    })
}

// --- dlte-x2 -----------------------------------------------------------------

/// Nanoseconds per max-min fair-share computation over `n` peers.
fn x2_shares_ns(n: usize, rng: &SimRng) -> f64 {
    let mut rng = rng.fork_idx("x2", n as u64);
    let demands: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 2.0 / n as f64)).collect();
    let (mut shares, mut scratch) = (Vec::new(), Vec::new());
    ns_per(50_000, || {
        dlte_x2::fair_share::max_min_shares_into(&demands, 1.0, &mut shares, &mut scratch);
        black_box(&shares);
    })
}

// --- dlte-mac / dlte-phy -----------------------------------------------------

/// Host nanoseconds per TTI of the LTE cell simulator with `ues` UEs.
fn mac_tti_ns(ues: usize, rng: &SimRng) -> f64 {
    const TTIS: u64 = 200;
    let ue_cfgs: Vec<UeConfig> = (0..ues)
        .map(|i| UeConfig::at_km(0.5 + 14.0 * i as f64 / ues as f64))
        .collect();
    let mut sim = CellSim::new(CellConfig::rural_default(), ue_cfgs, &rng.fork("mac-tti"));
    let t0 = Instant::now();
    black_box(sim.run(SimDuration::from_millis(TTIS)));
    t0.elapsed().as_nanos() as f64 / TTIS as f64
}

/// Host nanoseconds per 9 µs slot of the DCF simulator, 8 saturated
/// stations.
fn mac_dcf_ns(rng: &SimRng) -> f64 {
    let cfg = DcfConfig::default();
    let duration = SimDuration::from_millis(100);
    let slots = (duration.as_secs_f64() / (cfg.slot_us * 1e-6)).round();
    let mut sim = DcfSim::fully_connected(
        cfg,
        vec![StationConfig::saturated(25.0); 8],
        rng.fork("mac-dcf"),
    );
    let t0 = Instant::now();
    black_box(sim.run(duration));
    t0.elapsed().as_nanos() as f64 / slots
}

fn phy_snr_ns() -> f64 {
    let budget = LinkBudget {
        tx: RadioConfig::rural_enodeb(),
        rx: RadioConfig::lte_handset(),
        model: PathLossModel::rural_macro(),
        freq_mhz: 881.5,
        bandwidth_hz: 9e6,
    };
    let mut i = 0u32;
    ns_per(100_000, || {
        i = (i + 1) % 2_000;
        black_box(budget.snr_db(0.1 + f64::from(i) * 0.01, 0.0));
    })
}

fn phy_harq_block_ns(rng: &SimRng) -> f64 {
    let mut rng = rng.fork("harq");
    let model = HarqProcessModel::new(HarqConfig::default());
    let cqi = &CQI_TABLE[8];
    let mut i = 0u32;
    ns_per(100_000, || {
        i = (i + 1) % 40;
        let sinr = cqi.sinr_threshold_db - 2.0 + f64::from(i) * 0.1;
        black_box(model.simulate_block(sinr, cqi, &mut rng));
    })
}

// --- dlte-transport ----------------------------------------------------------

/// Host megabytes per second of a 1 MB modern-transport upload over one
/// 50 Mb/s, 20 ms link with the given loss.
fn transport_mb_per_s(loss: f64, seed: u64) -> f64 {
    const BYTES: u64 = 1_000_000;
    let cfg = TransportConfig::modern();
    let (client_addr, server_addr) = (Addr::new(10, 0, 0, 1), Addr::new(10, 0, 0, 2));
    let mut nb = NetworkBuilder::new(seed);
    let client = nb.host(
        "client",
        Box::new(TransportClientNode::new(cfg, server_addr, BYTES)),
    );
    nb.addr(client, client_addr);
    let server = nb.host("server", Box::new(TransportServerNode::new(7, cfg)));
    nb.addr(server, server_addr);
    let link = nb.link(
        client,
        server,
        LinkConfig {
            delay: SimDuration::from_millis(20),
            rate_bps: 50e6,
            queue_pkts: 500,
            loss,
        },
    );
    nb.route(client, Prefix::new(server_addr, 32), link);
    nb.route(server, Prefix::new(client_addr, 32), link);
    let mut sim = nb.build();
    let t0 = Instant::now();
    sim.run_until(SimTime::from_secs(120), u64::MAX);
    let s = t0.elapsed().as_secs_f64();
    let done = sim
        .world()
        .handler_as::<TransportClientNode>(client)
        .and_then(|c| c.completed_at);
    assert!(done.is_some(), "upload did not complete at loss {loss}");
    BYTES as f64 / 1e6 / s
}

/// Nanoseconds per data packet through the FEC group accumulator (k = 8).
fn transport_fec_ns() -> f64 {
    let mut enc = FecEncoder::new(8);
    let mut pn = 0u64;
    ns_per(200_000, || {
        pn += 1;
        black_box(enc.on_data(pn));
    })
}

// --- dlte-registry -----------------------------------------------------------

fn grant_request(rng: &mut SimRng) -> GrantRequest {
    GrantRequest {
        operator: rng.uniform_u64(1, 50),
        location: Point::new(rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)),
        channel: None,
        max_eirp_dbm: 40.0,
        contour_km: 3.0,
        lease: SimDuration::from_secs(3_600),
    }
}

/// A shared-policy registry holding 1000 active grants scattered over a
/// 200 km square, and those grants.
fn registry_g1k(rng: &mut SimRng) -> (SpectrumRegistry, Vec<LicenseGrant>) {
    let plan = ChannelPlan::for_band(dlte_phy::Band::band5(), 5.0);
    let mut reg = SpectrumRegistry::with_policy(plan, 55.0, GrantPolicy::SharedWithCoordination);
    let grants = (0..1_000)
        .map(|_| {
            reg.request(grant_request(rng), REGISTRY_NOW)
                .expect("shared policy grants")
        })
        .collect();
    (reg, grants)
}

const REGISTRY_NOW: SimTime = SimTime::from_secs(1);

/// Host microseconds per grant request (automatic channel choice) and per
/// contention-domain query against a registry holding 1000 active grants.
fn registry_us(rng: &SimRng) -> (f64, f64) {
    let mut rng = rng.fork("registry");
    let (mut reg, grants) = registry_g1k(&mut rng);
    let requests: Vec<GrantRequest> = (0..256).map(|_| grant_request(&mut rng)).collect();
    let mut i = 0;
    let request_us = probe(|| {
        ns_per(500, || {
            i = (i + 1) % requests.len();
            let g = reg
                .request(requests[i], REGISTRY_NOW)
                .expect("shared policy grants");
            reg.revoke(g.id);
        }) / 1e3
    });
    let domain_us = probe(|| {
        ns_per(500, || {
            i = (i + 1) % grants.len();
            black_box(reg.contention_domain(&grants[i], REGISTRY_NOW));
        }) / 1e3
    });
    (request_us, domain_us)
}

/// Host microseconds per replicated-log append, and per full sync of an
/// empty replica from a 1000-block peer (verify + copy).
fn log_us(rng: &SimRng) -> (f64, f64) {
    let (_, grants) = registry_g1k(&mut rng.fork("log"));
    let mut log = ReplicatedLog::new();
    let append_us = probe(|| {
        log = ReplicatedLog::new();
        let mut next = grants.iter();
        ns_per(1_000, || {
            log.append(Entry::Grant(*next.next().expect("1000 grants")));
        }) / 1e3
    });
    let sync_us = probe(|| {
        ns_per(20, || {
            let mut replica = ReplicatedLog::new();
            assert!(replica.sync_from(&log), "replica refused a valid peer");
            black_box(replica.height());
        }) / 1e3
    });
    (append_us, sync_us)
}

// --- dlte-faults / dlte-check / dlte-obs -------------------------------------

/// Host microseconds to draw a 3-fault chaos mix, and to compile it to
/// timed fault events.
fn faults_us(seed: u64) -> (f64, f64) {
    let targets = ChaosTargets {
        links: (0..12).collect(),
        crashable: vec![3, 4],
    };
    let mix = |s: u64| FaultPlan::chaos_mix(s, &targets, 3, 2.0, 8.0, 2.0);
    let mut s = seed;
    let mix_us = probe(|| {
        ns_per(500, || {
            s += 1;
            black_box(mix(s));
        }) / 1e3
    });
    let plans: Vec<FaultPlan> = (0..500).map(|i| mix(seed + i)).collect();
    let mut next = plans.iter().cycle();
    let compile_us = probe(|| {
        ns_per(500, || {
            black_box(next.next().expect("cycle never ends").compile());
        }) / 1e3
    });
    (mix_us, compile_us)
}

/// Host microseconds for every `dlte-check` oracle to judge a 30 s traced
/// run of a 3-AP, 6-UE dLTE network with pinging UEs: the size and length
/// of a chaos case.
fn check_all_us(seed: u64) -> f64 {
    let mut b = dlte::DlteNetworkBuilder::new(3, 2);
    b.seed = seed;
    let mut net = b
        .with_ue_plan(|_| dlte::DltePlan {
            app: fabric_pinger(),
            ..Default::default()
        })
        .build_sharded(1);
    dlte_obs::set_tracing(true);
    net.sim.run_until(SimTime::from_secs(30), u64::MAX);
    let records = dlte_obs::take_records();
    dlte_obs::set_tracing(false);
    let ues = net
        .ues
        .iter()
        .map(|&u| {
            let h = net.sim.handler_as::<UeNode>(u).expect("ue handler");
            UeView {
                imsi: h.imsi,
                attached: h.state == UeState::Attached,
                addr: h.addr,
                attach_retries: h.stats.attach_retries,
                service_request_retries: h.stats.service_request_retries,
            }
        })
        .collect();
    let cores = net
        .aps
        .iter()
        .map(|&ap| {
            net.sim
                .handler_as::<DlteApNode>(ap)
                .expect("ap handler")
                .core
                .audit()
        })
        .collect();
    let evidence = Evidence {
        elapsed_s: net.sim.now().as_secs_f64(),
        net: net.sim.audit_merged(),
        ues,
        core: CoreView::Dlte { cores },
        mobility: None,
    };
    let bounds = Bounds::default();
    assert!(!records.is_empty(), "traced run recorded nothing");
    probe(|| {
        ns_per(200, || {
            let violations = check_all(&evidence, &records, &bounds);
            assert!(
                violations.is_empty(),
                "fault-free run violates {violations:?}"
            );
        }) / 1e3
    })
}

/// Nanoseconds per `dlte_obs::emit` with tracing off (the guard every
/// untraced workload pays) or on (what the chaos cases pay).
fn obs_emit_ns(on: bool) -> f64 {
    const N: u32 = 100_000;
    dlte_obs::set_tracing(on);
    // Called through an opaque pointer, as from another crate's handler;
    // inlined here, the disabled check would be hoisted out of the loop.
    let emit = black_box(dlte_obs::emit as fn(u64, u64, dlte_obs::Event));
    let mut t = 0u64;
    let ns = ns_per(N, || {
        t += 1;
        emit(
            t,
            3,
            dlte_obs::Event::Drop {
                reason: dlte_obs::DropReason::Queue,
                bytes: 200,
            },
        );
    });
    let recorded = dlte_obs::drain_raw().len();
    dlte_obs::set_tracing(false);
    assert_eq!(recorded, if on { N as usize } else { 0 });
    ns
}

/// Nanoseconds per increment of a registered always-on metrics counter.
fn obs_counter_ns() -> f64 {
    let id = dlte_obs::metrics::register_counter("benchmark_probe");
    let ns = ns_per(200_000, || id.add(1));
    let _ = dlte_obs::metrics::take();
    ns
}
