//! The five workloads: how each is set up, what one timed window runs, and
//! how its output is checked.
//!
//! Every workload is a fixed batch of deterministic work derived from the
//! seed. A rep is `setup` (timed as `setup_s`) followed by `window` (timed
//! as `wall_s`); reps are identical replays, so each one's fingerprint must
//! equal the reference rep's.

use dlte::experiments::registry::{find, registry};
use dlte::fuzz::{self, FuzzCase};
use dlte::fuzz_registry::generate_workload;
use dlte::registry_chaos::{run_chaos, RegistryWorkload};
use dlte::scenario::{DlteNetworkBuilder, DltePlan};
use dlte_epc::topology::{CentralizedLteBuilder, UePlan};
use dlte_epc::ue::{UeApp, UeNode};
use dlte_net::{Addr, NetAudit, NodeId, ShardedSim};
use dlte_sim::rng::hash_u64;
use dlte_sim::{RunReport, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Input sizes: the full benchmark, or the tiny `--quick` variant the
/// package's own test drives.
#[derive(Clone, Copy)]
pub struct Size {
    /// Cells of the two fabric workloads (9 UEs each).
    pub fabric_cells: usize,
    /// End of the fabric timed window, simulated seconds (it starts at 5).
    pub fabric_end_s: u64,
    /// APs of the cross-shard workload (10 UEs each).
    pub shard_aps: usize,
    /// Chaos cases per fault domain per rep.
    pub chaos_cases: u64,
    /// Passes over the experiment registry per rep.
    pub suite_passes: u32,
    /// Cells of the small arm of the cliff probe.
    pub cliff_small_cells: usize,
}

impl Size {
    pub const FULL: Size = Size {
        fabric_cells: 100,
        fabric_end_s: 65,
        shard_aps: 240,
        chaos_cases: 2000,
        suite_passes: 2,
        cliff_small_cells: 5,
    };
    pub const QUICK: Size = Size {
        fabric_cells: 4,
        fabric_end_s: 15,
        shard_aps: 8,
        chaos_cases: 50,
        suite_passes: 1,
        cliff_small_cells: 2,
    };
}

/// The fabric timed window starts here, after the attach storm and X2
/// set-up, which `setup_s` pays for.
pub const FABRIC_START: SimTime = SimTime::from_secs(5);
pub const SHARD_START: SimTime = SimTime::from_secs(2);
pub const SHARD_END: SimTime = SimTime::from_secs(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arch {
    Central,
    Dlte,
}

/// What a node is, for attributing its events to a layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Router,
    Ue,
    Enb,
    Mme,
    Hss,
    Sgw,
    Pgw,
    Ott,
    Dir,
    Ap,
}

/// A built network of either architecture behind one driver.
pub struct Net {
    pub sim: ShardedSim,
    pub ues: Vec<NodeId>,
    /// Role of every node, by node id.
    pub roles: Vec<Role>,
}

fn roles_of(n_nodes: usize, groups: &[(Role, &[NodeId])]) -> Vec<Role> {
    let mut roles = vec![Role::Router; n_nodes];
    for (role, nodes) in groups {
        for &n in *nodes {
            roles[n] = *role;
        }
    }
    roles
}

/// The fabric pinger plan: every UE probes the OTT echo server every
/// 200 ms with 200-byte packets, on either architecture.
pub fn fabric_pinger() -> UeApp {
    UeApp::Pinger {
        dst: CentralizedLteBuilder::ott_addr(),
        interval: SimDuration::from_millis(200),
        probe_bytes: 200,
    }
}

fn central_net(b: CentralizedLteBuilder) -> Net {
    let net = b.build();
    let n_nodes = net.sim.world().core.nodes.len();
    let roles = roles_of(
        n_nodes,
        &[
            (Role::Ue, &net.ues),
            (Role::Enb, &net.enbs),
            (Role::Mme, &[net.mme]),
            (Role::Hss, &[net.hss]),
            (Role::Sgw, &[net.sgw]),
            (Role::Pgw, &[net.pgw]),
            (Role::Ott, &[net.ott]),
        ],
    );
    Net {
        sim: ShardedSim::single(net.sim),
        ues: net.ues,
        roles,
    }
}

/// Shard count is always explicit: `build()` would read the process-wide
/// `--shards` knob.
fn dlte_net(b: DlteNetworkBuilder, shards: usize) -> Net {
    let net = b.build_sharded(shards);
    let n_nodes = net.sim.shards()[0].world().core.nodes.len();
    let dir: Vec<NodeId> = net.dir.into_iter().collect();
    let roles = roles_of(
        n_nodes,
        &[
            (Role::Ue, &net.ues),
            (Role::Ap, &net.aps),
            (Role::Ott, &[net.ott_echo, net.ott_transport]),
            (Role::Dir, &dir),
        ],
    );
    Net {
        sim: net.sim,
        ues: net.ues,
        roles,
    }
}

/// `cells` cells of 9 UEs of either architecture, every UE running `app`.
pub fn build_cells(arch: Arch, cells: usize, seed: u64, app: fn() -> UeApp) -> Net {
    match arch {
        Arch::Central => {
            let mut b = CentralizedLteBuilder::new(cells, 9);
            b.seed = seed;
            central_net(b.with_ue_plan(move |_| UePlan {
                app: app(),
                ..Default::default()
            }))
        }
        Arch::Dlte => {
            let mut b = DlteNetworkBuilder::new(cells, 9);
            b.seed = seed;
            let b = b.with_ue_plan(move |_| DltePlan {
                app: app(),
                ..Default::default()
            });
            dlte_net(b, 1)
        }
    }
}

/// `fabric_central` / `fabric_dlte`: `cells` cells of 9 pinging UEs.
pub fn build_fabric(arch: Arch, cells: usize, seed: u64) -> Net {
    build_cells(arch, cells, seed, fabric_pinger)
}

/// `shard_cross`: `aps` APs of 10 UEs under X2 fair share. Even UEs ping
/// the OTT server every 50 ms, which lives on shard 0 and so crosses the
/// cut for half the APs; odd UEs send 100 kb/s CBR to their AP-local
/// neighbour (E16's traffic, which never crosses).
pub fn build_shard_cross(aps: usize, shards: usize, seed: u64) -> Net {
    const UES_PER_AP: usize = 10;
    let mut b = DlteNetworkBuilder::new(aps, UES_PER_AP);
    b.seed = seed;
    let b = b.with_ue_plan(|i| {
        let app = if i % 2 == 0 {
            UeApp::Pinger {
                dst: DlteNetworkBuilder::ott_addr(),
                interval: SimDuration::from_millis(50),
                probe_bytes: 200,
            }
        } else {
            let pool = DlteNetworkBuilder::ap_pool(i / UES_PER_AP).addr;
            let peer = (i % UES_PER_AP) ^ 1;
            UeApp::UplinkCbr {
                dst: Addr(pool.0 | (peer as u32 + 1)),
                rate_bps: 100e3,
                packet_bytes: 400,
            }
        };
        DltePlan {
            app,
            ..Default::default()
        }
    });
    dlte_net(b, shards)
}

/// Exact, deterministic outputs of one window. The packet counters are
/// zero for the two workloads that are not a single network run.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Counts {
    /// Simulation events dispatched in the window.
    pub events: u64,
    pub pkts_accepted: u64,
    pub drops: u64,
    pub pongs: u64,
    /// Hash of every deterministic output of the window, cut to 48 bits so
    /// it survives a trip through a JSON double.
    pub fingerprint: u64,
}

fn fingerprint(words: &[u64]) -> u64 {
    hash_u64(words) & 0xFFFF_FFFF_FFFF
}

/// What one timed window produced.
#[derive(Default)]
pub struct Window {
    /// Host seconds of the window (per pass for `paper_suite`).
    pub wall_s: f64,
    /// Independent simulation runs completed: 1 for a network window, the
    /// case count for chaos, the table count for a suite pass.
    pub runs: f64,
    /// Operations attempted beyond the rep itself (chaos cases).
    pub ops: u64,
    /// Why this rep (or cases inside it) failed; empty when all is well.
    pub failures: Vec<String>,
    pub counts: Counts,
    /// Chaos only: cases whose oracles reported a violation, as
    /// `domain:seed`. These are findings about the simulated system, not
    /// failed benchmark operations.
    pub violating: Vec<String>,
}

pub fn total_pongs(ues: &[NodeId], ue: impl Fn(NodeId) -> Option<u64>) -> u64 {
    ues.iter().map(|&u| ue(u).unwrap_or(0)).sum()
}

/// Summarize a network window from the run report and the end-of-window
/// ledger; shared by the untraced and the traced run so both are judged
/// and fingerprinted identically.
pub fn net_window(report: &RunReport, audit: &NetAudit, pongs: u64) -> Window {
    let f = &audit.fabric;
    let drops = audit.drops_queue
        + audit.drops_loss
        + audit.drops_no_route
        + audit.drops_ttl
        + audit.drops_link_down
        + audit.drops_node_down;
    let fingerprint = fingerprint(&[
        report.events_dispatched,
        f.originated,
        f.reforwarded,
        f.accepted,
        f.arrivals,
        f.absorbed,
        f.delivered_plain,
        audit.in_flight,
        audit.drops_queue,
        audit.drops_loss,
        audit.drops_no_route,
        audit.drops_ttl,
        audit.drops_link_down,
        audit.drops_node_down,
        pongs,
    ]);
    let mut failures: Vec<String> = dlte_check::check_conservation(audit)
        .into_iter()
        .map(|v| v.to_string())
        .collect();
    if pongs == 0 {
        failures.push("no echo round trip completed".to_string());
    }
    Window {
        wall_s: report.wall_ms / 1e3,
        runs: 1.0,
        ops: 0,
        failures,
        counts: Counts {
            events: report.events_dispatched,
            pkts_accepted: f.accepted,
            drops,
            pongs,
            fingerprint,
        },
        violating: Vec::new(),
    }
}

/// Run a built network from where it stands to `until` and summarize.
pub fn run_net_window(net: &mut Net, until: SimTime) -> Window {
    let ((), report) = dlte_sim::report::scope(|| {
        net.sim.run_until(until, u64::MAX);
    });
    let pongs = total_pongs(&net.ues, |u| {
        net.sim.handler_as::<UeNode>(u).map(|h| h.stats.pongs)
    });
    net_window(&report, &net.sim.audit_merged(), pongs)
}

// ---------------------------------------------------------------------------
// chaos_sweep
// ---------------------------------------------------------------------------

pub const CHAOS_DOMAINS: [&str; 3] = ["net", "mob", "reg"];

/// The generated cases of one rep, by fault domain.
pub struct ChaosCases {
    pub net: Vec<FuzzCase>,
    pub mob: Vec<FuzzCase>,
    pub reg: Vec<RegistryWorkload>,
}

/// Case `i` of benchmark seed `s` uses case seed `s * 10000 + i` in all
/// three domains.
pub fn chaos_generate(seed: u64, n: u64) -> ChaosCases {
    let seeds = (0..n).map(|i| seed * 10_000 + i);
    ChaosCases {
        net: seeds.clone().map(FuzzCase::generate).collect(),
        mob: seeds.clone().map(FuzzCase::generate_mobility).collect(),
        reg: seeds.map(generate_workload).collect(),
    }
}

/// (verdict hash, oracle violations) of one network or mobility case.
fn judge_fuzz(case: &FuzzCase) -> (u64, usize) {
    let r = fuzz::run_case(case);
    let mut words = vec![
        r.violations.len() as u64,
        r.recovered_at_s.map_or(u64::MAX, f64::to_bits),
        r.elapsed_s.to_bits(),
    ];
    words.extend(r.violations.iter().map(|v| hash_str(&v.oracle)));
    (hash_u64(&words), r.violations.len())
}

fn judge_registry(w: &RegistryWorkload) -> (u64, usize) {
    let o = run_chaos(w);
    let mut words = vec![
        o.violations.len() as u64,
        o.requests,
        o.granted,
        o.denied,
        o.renews_ok,
        o.renews_failed,
        o.zone_crashes,
        o.resyncs,
        o.compactions,
    ];
    words.extend(o.violations.iter().map(|v| hash_str(&v.oracle)));
    (hash_u64(&words), o.violations.len())
}

fn hash_str(s: &str) -> u64 {
    hash_u64(&s.bytes().map(u64::from).collect::<Vec<_>>())
}

/// Run every case sequentially, without shrinking. `case_us`, when given,
/// receives each case's host microseconds by domain (the traced pass).
pub fn run_chaos_window(cases: &ChaosCases, mut case_us: Option<&mut [Vec<f64>; 3]>) -> Window {
    let mut verdicts = Vec::new();
    let mut failures = Vec::new();
    let mut violating = Vec::new();
    let mut one = |domain: usize, seed: u64, judge: &dyn Fn() -> (u64, usize)| {
        let t0 = Instant::now();
        match catch_unwind(AssertUnwindSafe(judge)) {
            Ok((verdict, violations)) => {
                verdicts.push(verdict);
                if violations > 0 {
                    violating.push(format!("{}:{seed}", CHAOS_DOMAINS[domain]));
                }
            }
            Err(_) => {
                // `run_case` forces tracing on and restores it on return.
                dlte_obs::set_tracing(false);
                verdicts.push(0);
                failures.push(format!("{}:{seed} panicked", CHAOS_DOMAINS[domain]));
            }
        }
        if let Some(us) = case_us.as_deref_mut() {
            us[domain].push(t0.elapsed().as_secs_f64() * 1e6);
        }
    };
    let ((), report) = dlte_sim::report::scope(|| {
        for c in &cases.net {
            one(0, c.seed, &|| judge_fuzz(c));
        }
        for c in &cases.mob {
            one(1, c.seed, &|| judge_fuzz(c));
        }
        for w in &cases.reg {
            one(2, w.seed, &|| judge_registry(w));
        }
    });
    let n = verdicts.len() as u64;
    Window {
        wall_s: report.wall_ms / 1e3,
        runs: n as f64,
        ops: n,
        failures,
        counts: Counts {
            events: report.events_dispatched,
            fingerprint: fingerprint(&verdicts),
            ..Counts::default()
        },
        violating,
    }
}

// ---------------------------------------------------------------------------
// paper_suite
// ---------------------------------------------------------------------------

/// One pass over the whole registry at default params. `exp_ms`, when
/// given, receives each experiment's host milliseconds (the traced pass).
pub fn run_suite_pass(mut exp_ms: Option<&mut Vec<(String, f64)>>) -> Window {
    let mut words = Vec::new();
    let mut failures = Vec::new();
    let ((), report) = dlte_sim::report::scope(|| {
        for exp in registry() {
            let t0 = Instant::now();
            match exp.run_instrumented(&exp.default_params()) {
                Ok(table) => {
                    for cell in table.rows.iter().flatten() {
                        words.push(hash_str(cell));
                    }
                    words.push(table.meta.map_or(0, |m| m.events_dispatched));
                }
                Err(e) => failures.push(e.to_string()),
            }
            if let Some(ms) = exp_ms.as_deref_mut() {
                ms.push((exp.id().to_string(), t0.elapsed().as_secs_f64() * 1e3));
            }
        }
    });
    Window {
        wall_s: report.wall_ms / 1e3,
        runs: registry().len() as f64,
        ops: 0,
        failures,
        counts: Counts {
            events: report.events_dispatched,
            fingerprint: fingerprint(&words),
            ..Counts::default()
        },
        violating: Vec::new(),
    }
}

/// A rep of `passes` suite passes, reported per pass.
pub fn run_suite_window(passes: u32) -> Window {
    let mut total = run_suite_pass(None);
    for _ in 1..passes {
        let w = run_suite_pass(None);
        total.wall_s += w.wall_s;
        total.failures.extend(w.failures);
        if w.counts != total.counts {
            total.failures.push("suite passes disagree".to_string());
        }
    }
    total.wall_s /= f64::from(passes);
    total
}

/// The repository's committed goldens with the experiment ids and the
/// `total_s` override each was recorded with (always seed 7).
const GOLDENS: [(&str, &[&str], Option<f64>); 3] = [
    (
        include_str!("../../goldens/e13_e14.json"),
        &["e13", "e14"],
        Some(10.0),
    ),
    (include_str!("../../goldens/e17.json"), &["e17"], None),
    (include_str!("../../goldens/e18.json"), &["e18"], None),
];

/// Re-run the golden experiments and compare them with `goldens/*.json`
/// the way CI's jq filter does: the table itself plus `meta.drops`.
/// Returns what differs.
pub fn golden_pass() -> Vec<String> {
    let mut problems = Vec::new();
    for (text, ids, total_s) in GOLDENS {
        let golden: Value = serde_json::from_str(text).expect("committed golden parses");
        let expected: Vec<Value> = match golden {
            Value::Array(tables) => tables,
            one => vec![one],
        };
        for (id, want) in ids.iter().zip(&expected) {
            let exp = find(id).expect("golden experiment is registered");
            let mut params = exp.default_params();
            let map = params.as_object_mut().expect("params are an object");
            map.insert("seed".to_string(), serde_json::json!(7u64));
            if let Some(t) = total_s {
                map.insert("total_s".to_string(), serde_json::json!(t));
            }
            let got = match exp.run_instrumented(&params) {
                Ok(table) => serde_json::to_value(&table).expect("table serializes"),
                Err(e) => {
                    problems.push(format!("golden {id}: {e}"));
                    continue;
                }
            };
            for key in ["id", "title", "header", "rows", "expectation"] {
                if got.get(key) != want.get(key) {
                    problems.push(format!("golden {id}: `{key}` differs"));
                }
            }
            let drops = |v: &Value| v.get("meta").and_then(|m| m.get("drops")).cloned();
            if drops(&got) != drops(want) {
                problems.push(format!("golden {id}: `meta.drops` differs"));
            }
        }
    }
    problems
}
