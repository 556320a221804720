//! # Deterministic chaos fuzzing
//!
//! FoundationDB-style simulation testing: sweep seeds, and for each seed
//! deterministically derive a scenario (architecture, topology size) plus a
//! random [`FaultPlan`] ([`FaultPlan::chaos_mix`]), run it to quiescence,
//! and evaluate every `dlte-check` oracle against the evidence. [`Net`] and
//! [`Mob`] plug this into the shared loop in [`crate::chaos`], which
//! shrinks a violating case to a repro that replays bit-for-bit.
//!
//! Everything downstream of the seed is deterministic: the case's network
//! ([`FuzzCase::deployment`]) is seeded with the case seed and the fault
//! plan is plain data, so
//! `run_case(case)` returns the same [`CaseReport`] on every invocation,
//! which is what makes greedy shrinking and `--repro` replay sound. Event
//! tracing is on for the whole run, in sweep and replay alike, because the
//! stream oracles (`check_event_stream`, `check_harq`) judge its records;
//! it does not steer the run (the HARQ tracer draws from its own RNG
//! stream), so a case dispatches the same events with tracing off.
//!
//! A case's fault targets are a fixed function of its shape, which its
//! [`Deployment`] names ([`Deployment::fault_targets`]): generating a case
//! or checking a repro's ids builds nothing, and [`run_case`] is the one
//! build.
//!
//! Scenario envelope (kept deliberately narrow so every oracle is a hard
//! invariant, not a flaky heuristic):
//!
//! * UEs run a periodic [`UeApp::Pinger`] so user-plane traffic
//!   continuously exercises tunnels — stale-TEID teardown via GTP error
//!   indication needs packets in flight. The classic envelope keeps them
//!   static; [`FuzzCase::generate_mobility`] (`fuzz --mobility`) layers a
//!   seeded [`MovePlan`] under the faults, turning every case into a
//!   handover storm judged by the mobility oracles (serving exclusivity,
//!   session residency, bounded service gaps) on top of the usual set.
//! * Radio links are never fault targets: a UE that moves mid-case can
//!   always deliver its single-shot detach to the old AP, which is what
//!   makes serving exclusivity a hard invariant rather than a heuristic.
//! * Centralized faults may crash/pause the S-GW and P-GW (both implement
//!   crash/restart) and flap/degrade any backhaul link; path management
//!   (500 ms echo, 2 misses) gives the core a detection channel. The MME is
//!   never crashed: it has no restart path, which would make every such run
//!   trivially (and uninterestingly) unrecoverable.
//! * dLTE faults are link-only: each AP's local core shares fate with the
//!   AP itself, which is the paper's §3 point — there is no remote core
//!   node whose crash strands sessions.

use crate::chaos::ChaosDomain;
use crate::mobility::ap_index_for;
pub use crate::scenario::Arch;
use crate::scenario::{Deployed, Deployment, KeyDistribution};
use dlte_check::{
    check_all, check_recovery, check_sessions, Bounds, CoreView, Evidence, MobilityEvidence,
    MobilityUeView, SpanView, UeView, Violation,
};
use dlte_epc::topology::UePlan;
use dlte_epc::ue::{UeApp, UeNode, UeState};
use dlte_epc::{MmeNode, PgwNode, SgwNode};
use dlte_faults::{ChaosTargets, FaultPlan, MovePlan, NetBreak, Window};
use dlte_obs::{set_tracing, take_records, tracing_enabled};
use dlte_sim::{SimDuration, SimRng};
use serde::{Deserialize, Serialize};

/// Event budget per `run_until` segment (same order as the experiments).
const MAX_EVENTS: u64 = 100_000_000;
/// Fuzz fault window: faults start in `[2, 8)` s (after initial attach)…
const FAULT_START_S: f64 = 2.0;
const FAULT_END_S: f64 = 8.0;
/// …and each is repaired within 2 s.
const MAX_DOWN_S: f64 = 2.0;

/// One self-contained fuzz case: everything needed to rebuild the exact
/// simulation. Plain serde data — a repro file carries this verbatim.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FuzzCase {
    pub seed: u64,
    pub arch: Arch,
    /// eNBs (centralized) or APs (dLTE).
    pub n_cells: usize,
    pub ues_per_cell: usize,
    pub plan: FaultPlan,
    /// Mobility dimension (`fuzz --mobility`): a seeded population movement
    /// plan layered under the fault plan. Empty = static UEs (the classic
    /// envelope — and what pre-mobility repro files deserialize to).
    #[serde(default)]
    pub moves: MovePlan,
    /// dLTE: APs query the wide-area key directory on first sight of an
    /// IMSI instead of pre-syncing (mobility cases exercise that path).
    #[serde(default)]
    pub remote_keys: bool,
    /// dLTE: fetch roaming subscriber contexts from X2 peers before
    /// falling back to the directory.
    #[serde(default)]
    pub x2_fetch: bool,
}

/// What one execution of a case produced.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CaseReport {
    pub violations: Vec<Violation>,
    /// First settle step at which every oracle held and every UE was
    /// attached (`None`: never within the recovery bound).
    pub recovered_at_s: Option<f64>,
    /// Simulated seconds at the final snapshot.
    pub elapsed_s: f64,
}

impl FuzzCase {
    /// Derive the whole case from a seed. Deterministic: the same seed
    /// always yields the same scenario and fault plan.
    pub fn generate(seed: u64) -> FuzzCase {
        let mut rng = SimRng::new(seed).fork("fuzz-case");
        let arch = if rng.chance(0.5) {
            Arch::Centralized
        } else {
            Arch::Dlte
        };
        // dLTE needs ≥ 2 APs for the architecture comparison to be
        // non-degenerate; one eNB is a perfectly good LTE cell.
        let n_cells = match arch {
            Arch::Centralized => 1 + rng.index(2),
            Arch::Dlte => 2 + rng.index(2),
        };
        let ues_per_cell = 1 + rng.index(2);
        let n_faults = 1 + rng.index(3);
        let targets = Deployment::new(arch, n_cells, ues_per_cell).fault_targets();
        let plan = FaultPlan::chaos_mix(
            seed,
            &targets,
            n_faults,
            FAULT_START_S,
            FAULT_END_S,
            MAX_DOWN_S,
        );
        FuzzCase {
            seed,
            arch,
            n_cells,
            ues_per_cell,
            plan,
            moves: MovePlan::default(),
            remote_keys: false,
            x2_fetch: false,
        }
    }

    /// Derive a *mobility* case from a seed: same chaos envelope, plus a
    /// seeded commuter-mix movement plan in the fault window and (for dLTE)
    /// coin flips over remote key lookup and the X2 context fetch, so the
    /// sweep covers all three handover paths (local re-attach, directory
    /// re-attach, X2 fetch) against the same fault vocabulary.
    pub fn generate_mobility(seed: u64) -> FuzzCase {
        let mut rng = SimRng::new(seed).fork("fuzz-mobility-case");
        let arch = if rng.chance(0.5) {
            Arch::Centralized
        } else {
            Arch::Dlte
        };
        // Movers need somewhere to go: ≥ 2 cells in both arms.
        let n_cells = 2 + rng.index(2);
        let ues_per_cell = 1 + rng.index(2);
        let remote_keys = arch == Arch::Dlte && rng.chance(0.5);
        let x2_fetch = remote_keys && rng.chance(0.5);
        let n_faults = 1 + rng.index(3);
        let dwell_min_s = rng.uniform(0.8, 1.5);
        let dwell_max_s = dwell_min_s + rng.uniform(0.2, 1.0);
        let moves = MovePlan::commuter_mix(
            seed,
            n_cells * ues_per_cell,
            n_cells,
            dwell_min_s,
            dwell_max_s,
            FAULT_START_S,
            FAULT_END_S,
        );
        let mut case = FuzzCase {
            seed,
            arch,
            n_cells,
            ues_per_cell,
            plan: FaultPlan::new(seed),
            moves,
            remote_keys,
            x2_fetch,
        };
        // Targets must come from the *case's* shape: the remote directory
        // adds a link ahead of the APs' backhauls, shifting their ids.
        let targets = case.deployment().fault_targets();
        case.plan = FaultPlan::chaos_mix(
            seed,
            &targets,
            n_faults,
            FAULT_START_S,
            FAULT_END_S,
            MAX_DOWN_S,
        );
        case
    }

    /// The network this case runs on: every UE pings the OTT service and
    /// follows the case's move plan, and the centralized core runs path
    /// management (500 ms echo, 2 misses) as its detection channel.
    pub fn deployment(&self) -> Deployment {
        let mut d =
            Deployment::new(self.arch, self.n_cells, self.ues_per_cell).with_ue_plan(|_| UePlan {
                app: UeApp::Pinger {
                    dst: Deployment::ott_addr(),
                    interval: SimDuration::from_millis(200),
                    probe_bytes: 64,
                },
                ..UePlan::default()
            });
        d.seed = self.seed;
        d.moves = self.moves.clone();
        d.epc.path_mgmt = true;
        if self.remote_keys {
            d.keys = KeyDistribution::RemoteDirectory;
        }
        d.x2_context_fetch = self.x2_fetch;
        d
    }
}

/// The oracles' view of a network mid-run.
fn evidence(net: &Deployed) -> Evidence {
    let sim = &net.sim;
    Evidence {
        elapsed_s: sim.now().as_secs_f64(),
        net: sim.audit_merged(),
        ues: net.ue_nodes().map(ue_view).collect(),
        core: match net.epc {
            Some(epc) => CoreView::Centralized {
                mme: sim
                    .handler_as::<MmeNode>(epc.mme)
                    .expect("mme typed")
                    .audit(),
                sgw: sim
                    .handler_as::<SgwNode>(epc.sgw)
                    .expect("sgw typed")
                    .audit(),
                pgw: sim
                    .handler_as::<PgwNode>(epc.pgw)
                    .expect("pgw typed")
                    .audit(),
            },
            None => CoreView::Dlte {
                cores: net.aps().map(|ap| ap.core.audit()).collect(),
            },
        },
        mobility: None,
    }
}

/// Mobility evidence for a moving-UE case: per-core session spans and
/// serving cores (dLTE only: the centralized EPC holds sessions centrally,
/// so span-based oracles don't apply) plus per-UE measured service gaps.
fn mobility_evidence(net: &Deployed, case: &FuzzCase) -> MobilityEvidence {
    let mut ev = MobilityEvidence {
        // Gap budget: the whole fault window is the worst admissible dwell.
        max_dwell_s: FAULT_END_S - FAULT_START_S,
        ..MobilityEvidence::default()
    };
    for (k, ap) in net.aps().enumerate() {
        for s in ap.core.session_spans() {
            ev.spans.push(SpanView {
                core: k,
                imsi: s.imsi,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            });
        }
    }
    for (i, u) in net.ue_nodes().enumerate() {
        let home = i / case.ues_per_cell;
        let serving_core = net
            .epc
            .is_none()
            .then(|| ap_index_for(home, u.current_cell_index(), case.n_cells));
        ev.ues.push(MobilityUeView {
            imsi: u.imsi,
            attached: u.state == UeState::Attached,
            serving_core,
            moves: u.stats.cell_moves,
            gaps_ms: u.stats.handover_gap_ms.values().to_vec(),
        });
    }
    ev
}

fn ue_view(u: &UeNode) -> UeView {
    UeView {
        imsi: u.imsi,
        attached: u.state == UeState::Attached,
        addr: u.addr,
        attach_retries: u.stats.attach_retries,
        service_request_retries: u.stats.service_request_retries,
    }
}

/// Execute one case end to end and evaluate every oracle.
///
/// Drives the sim to the last fault transition, then settles in 1 s steps
/// for up to [`Bounds::recovery_bound_s`], re-checking the state oracles at
/// each step — in-flight control messages (a NAS attach mid-handshake, a
/// GTP response on the wire) are legitimate at a random instant, so state
/// consistency is demanded at quiescence, not mid-step. The first all-green
/// step with every UE attached is the recovery time; the stream/counter
/// oracles and the recovery bound are then judged on the final snapshot.
pub fn run_case(case: &FuzzCase) -> CaseReport {
    let mut net = case.deployment().build();
    let bounds = Bounds::default();

    // The stream oracles judge the trace, so it must cover the whole run,
    // in sweep and replay alike.
    let was_tracing = tracing_enabled();
    set_tracing(true);
    let _ = take_records(); // discard anything a previous case buffered

    case.plan.inject(&mut net.sim);
    let t_last = case.plan.last_fault_time().max(case.moves.last_move_time());
    net.sim.run_until(t_last, MAX_EVENTS);

    let mut recovered_at_s = None;
    let mut ev = evidence(&net);
    for k in 1..=(bounds.recovery_bound_s.ceil() as u64) {
        let t = t_last + SimDuration::from_secs_f64(k as f64);
        net.sim.run_until(t, MAX_EVENTS);
        ev = evidence(&net);
        if check_sessions(&ev).is_empty() && ev.ues.iter().all(|u| u.attached) {
            recovered_at_s = Some(t.as_secs_f64());
            break;
        }
    }

    let records = take_records();
    set_tracing(was_tracing);

    if !case.moves.is_empty() {
        ev.mobility = Some(mobility_evidence(&net, case));
    }
    let mut violations = check_all(&ev, &records, &bounds);
    violations.extend(check_recovery(
        recovered_at_s,
        t_last.as_secs_f64(),
        &bounds,
    ));
    CaseReport {
        violations,
        recovered_at_s,
        elapsed_s: ev.elapsed_s,
    }
}

/// The network [`ChaosDomain`]s. They share the run, the oracles and the
/// shrink, and differ only in how a seed becomes a case.
pub struct NetChaos<const MOBILE: bool>;
/// Static UEs (`dlte-run fuzz`, [`FuzzCase::generate`]).
pub type Net = NetChaos<false>;
/// Handover storms under the faults (`--mobility`,
/// [`FuzzCase::generate_mobility`]).
pub type Mob = NetChaos<true>;

impl<const MOBILE: bool> ChaosDomain for NetChaos<MOBILE> {
    const NAME: &'static str = if MOBILE { "mob" } else { "net" };
    const FILE_PREFIX: &'static str = "fuzz_repro_";
    type Case = FuzzCase;
    type Outcome = CaseReport;

    fn generate(seed: u64) -> FuzzCase {
        if MOBILE {
            FuzzCase::generate_mobility(seed)
        } else {
            FuzzCase::generate(seed)
        }
    }
    fn run(case: &FuzzCase) -> CaseReport {
        run_case(case)
    }
    fn violations(report: &CaseReport) -> &[Violation] {
        &report.violations
    }
    /// Every fault-plan shrink first (they tend to carry the causal
    /// weight), then every move-plan shrink. Each candidate changes exactly
    /// one dimension.
    fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
        let plans = case.plan.shrink_candidates().into_iter();
        let moves = case.moves.shrink_candidates().into_iter();
        plans
            .map(|plan| FuzzCase {
                plan,
                ..case.clone()
            })
            .chain(moves.map(|moves| FuzzCase {
                moves,
                ..case.clone()
            }))
            .collect()
    }
    /// A network must hold the case's shape (a replayed file may carry any
    /// counts, and an empty network would sweep green), and every spec
    /// must aim at the case's own fault targets
    /// ([`Deployment::fault_targets`]): anything else would index past the
    /// topology or fault a node the envelope keeps alive.
    fn check_ids(case: &FuzzCase) -> Result<(), String> {
        let deployment = case.deployment();
        let max_cells = deployment.max_cells();
        if case.n_cells == 0 || case.n_cells > max_cells {
            return Err(format!(
                "n_cells is {}; a {} case holds 1..={max_cells} cells",
                case.n_cells, case.arch
            ));
        }
        if case.ues_per_cell == 0 {
            return Err("ues_per_cell is 0; a case needs at least one UE per cell".to_string());
        }
        let ChaosTargets { links, crashable } = deployment.fault_targets();
        for (i, Window { what, .. }) in case.plan.faults.iter().enumerate() {
            let ok = match what {
                NetBreak::LinkFlap { link }
                | NetBreak::LossBurst { link, .. }
                | NetBreak::LatencyStorm { link, .. }
                | NetBreak::RateThrottle { link, .. } => links.contains(link),
                NetBreak::NodeCrash { node } | NetBreak::NodePause { node } => {
                    crashable.contains(node)
                }
            };
            if !ok {
                return Err(format!(
                    "fault spec {i} ({what:?}) is outside this case's fault targets \
                     (links {links:?}, nodes {crashable:?})"
                ));
            }
        }
        Ok(())
    }
    fn recovered_at_s(report: &CaseReport) -> Option<f64> {
        report.recovered_at_s
    }
    fn fault_specs(case: &FuzzCase) -> usize {
        case.plan.faults.len()
    }
    fn describe(case: &FuzzCase) -> String {
        let (arch, cells, ues) = (case.arch, case.n_cells, case.ues_per_cell);
        format!("{arch}, {cells} cells x {ues} ues")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{replay_repro, shrink};
    use std::path::Path;

    #[test]
    fn generation_is_deterministic_and_nonempty() {
        let a = FuzzCase::generate(7);
        let b = FuzzCase::generate(7);
        assert_eq!(a, b);
        assert!(!a.plan.faults.is_empty());
        assert_ne!(a, FuzzCase::generate(8));
    }

    /// The fault targets as a built network names them.
    fn built_targets(case: &FuzzCase) -> ChaosTargets {
        let net = case.deployment().build();
        let mut links = net.cell_backhaul;
        let crashable = match net.epc {
            Some(epc) => {
                links.push(epc.l_agg_epc);
                vec![epc.sgw, epc.pgw]
            }
            None => Vec::new(),
        };
        ChaosTargets { links, crashable }
    }

    /// Every fuzz shape, including the one-cell and flag combinations only
    /// a repro file carries: the targets read without a build are the ids
    /// the build assigns.
    #[test]
    fn case_targets_are_the_built_ids_on_every_shape() {
        use dlte_faults::MoveSpec;
        let mut shapes = 0;
        for arch in [Arch::Centralized, Arch::Dlte] {
            for (n_cells, ues_per_cell) in (1..=3).flat_map(|n| [(n, 1), (n, 2)]) {
                for (remote_keys, x2_fetch, moving) in
                    (0..8).map(|b| (b & 1 > 0, b & 2 > 0, b & 4 > 0))
                {
                    let moves = MovePlan {
                        seed: 9,
                        moves: vec![MoveSpec {
                            ue: 0,
                            at_s: 3.0,
                            ap: n_cells - 1,
                        }],
                    };
                    let case = FuzzCase {
                        seed: 9,
                        arch,
                        n_cells,
                        ues_per_cell,
                        plan: FaultPlan::new(9),
                        moves: if moving { moves } else { MovePlan::default() },
                        remote_keys,
                        x2_fetch,
                    };
                    assert_eq!(
                        case.deployment().fault_targets(),
                        built_targets(&case),
                        "{case:?}"
                    );
                    shapes += 1;
                }
            }
        }
        assert_eq!(shapes, 96);
    }

    /// `run_case` is the one build: generating a case, reading its targets
    /// and checking a repro's ids build nothing.
    #[test]
    fn only_run_case_builds_a_case() {
        let src = include_str!("fuzz.rs");
        let code = &src[..src.find("#[cfg(test)]").unwrap()];
        let calls: Vec<usize> = code.match_indices(".build()").map(|(i, _)| i).collect();
        let start = code.find("pub fn run_case(").unwrap();
        let end = start + code[start..].find("\n}\n").unwrap();
        assert_eq!(calls.len(), 1, "a case is built at byte offsets {calls:?}");
        assert!(
            (start..end).contains(&calls[0]),
            "the one call is not in run_case"
        );
    }

    /// Tracing is on in `run_case` for the oracles' sake, not the run's: a
    /// static and a moving case dispatch the same events, account the same
    /// packets and answer the same pings with it off.
    #[test]
    fn tracing_does_not_steer_a_case() {
        for case in [FuzzCase::generate(3), FuzzCase::generate_mobility(3)] {
            let run = |trace: bool| {
                let was_tracing = tracing_enabled();
                set_tracing(trace);
                let mut net = case.deployment().build();
                case.plan.inject(&mut net.sim);
                let t_last = case.plan.last_fault_time().max(case.moves.last_move_time());
                net.sim
                    .run_until(t_last + SimDuration::from_secs(5), MAX_EVENTS);
                let records = take_records().len();
                set_tracing(was_tracing);
                let pongs: Vec<u64> = net.ue_nodes().map(|u| u.stats.pongs).collect();
                let outcome = (net.sim.events_dispatched(), net.sim.audit_merged(), pongs);
                (records, outcome)
            };
            let (off_records, off) = run(false);
            let (on_records, on) = run(true);
            assert_eq!(off_records, 0);
            assert!(on_records > 0, "the traced run recorded nothing");
            assert!(off.2.iter().sum::<u64>() > 0, "no pings answered");
            assert_eq!(off, on, "{case:?}");
        }
    }

    #[test]
    fn run_case_is_deterministic() {
        let case = FuzzCase::generate(3);
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a, b);
    }

    #[test]
    fn healthy_seeds_sweep_green_and_actually_converge() {
        for seed in 0..6 {
            let case = FuzzCase::generate(seed);
            let report = run_case(&case);
            assert!(
                report.violations.is_empty(),
                "seed {seed} tripped oracles: {:#?}",
                report.violations
            );
            // A green case must be green for the right reason: the network
            // genuinely re-converged, with traffic having flowed.
            assert!(
                report.recovered_at_s.is_some(),
                "seed {seed} never recovered"
            );
            let mut net = case.deployment().build();
            case.plan.inject(&mut net.sim);
            let horizon = case.plan.last_fault_time()
                + SimDuration::from_secs_f64(report.recovered_at_s.unwrap());
            net.sim.run_until(horizon, MAX_EVENTS);
            let ev = evidence(&net);
            let pongs: u64 = net.ue_nodes().map(|u| u.stats.pongs).sum();
            assert!(pongs > 0, "seed {seed}: no user traffic ever flowed");
            assert!(
                ev.net.fabric.accepted > 0,
                "seed {seed}: fabric carried no packets"
            );
            eprintln!(
                "seed {seed}: {} {}x{} faults={} recovered_at={:?} elapsed={:.1}s",
                case.arch,
                case.n_cells,
                case.ues_per_cell,
                case.plan.faults.len(),
                report.recovered_at_s,
                report.elapsed_s
            );
        }
    }

    #[test]
    fn mobility_generation_is_deterministic_and_moves_ues() {
        let a = FuzzCase::generate_mobility(11);
        let b = FuzzCase::generate_mobility(11);
        assert_eq!(a, b);
        assert!(!a.plan.faults.is_empty());
        assert!(!a.moves.is_empty(), "mobility cases must actually move UEs");
        for m in &a.moves.moves {
            assert!(m.ap < a.n_cells && m.ue < a.n_cells * a.ues_per_cell);
            assert!((FAULT_START_S..FAULT_END_S).contains(&m.at_s));
        }
        assert_ne!(a, FuzzCase::generate_mobility(12));
        // A pre-mobility case file (no moves/remote_keys/x2_fetch fields)
        // still parses, as the static envelope.
        let legacy = serde_json::to_string(&FuzzCase::generate(11)).unwrap();
        let parsed: FuzzCase = serde_json::from_str(&legacy).unwrap();
        assert!(parsed.moves.is_empty());
        assert!(!parsed.x2_fetch);
    }

    #[test]
    fn healthy_mobility_seeds_sweep_green() {
        for seed in 0..4 {
            let case = FuzzCase::generate_mobility(seed);
            let report = run_case(&case);
            assert!(
                report.violations.is_empty(),
                "mobility seed {seed} ({} {}x{} moves={} rk={} x2={}) tripped: {:#?}",
                case.arch,
                case.n_cells,
                case.ues_per_cell,
                case.moves.moves.len(),
                case.remote_keys,
                case.x2_fetch,
                report.violations
            );
            assert!(
                report.recovered_at_s.is_some(),
                "mobility seed {seed} never recovered"
            );
            eprintln!(
                "mobility seed {seed}: {} {}x{} faults={} moves={} recovered_at={:?}",
                case.arch,
                case.n_cells,
                case.ues_per_cell,
                case.plan.faults.len(),
                case.moves.moves.len(),
                report.recovered_at_s
            );
        }
    }

    #[test]
    fn shrink_candidates_cover_both_plan_dimensions() {
        let mut case = FuzzCase::generate_mobility(3);
        let n_plan = case.plan.shrink_candidates().len();
        let n_moves = case.moves.shrink_candidates().len();
        assert!(n_moves > 0);
        let cands = Net::shrink_candidates(&case);
        assert_eq!(cands.len(), n_plan + n_moves);
        // The move-plan candidates keep the fault plan intact, and vice
        // versa — each candidate is simpler in exactly one dimension.
        assert!(cands[..n_plan].iter().all(|c| c.moves == case.moves));
        assert!(cands[n_plan..].iter().all(|c| c.plan == case.plan));
        // A static case only shrinks the fault plan.
        case.moves = MovePlan::default();
        assert_eq!(
            Net::shrink_candidates(&case).len(),
            case.plan.shrink_candidates().len()
        );
    }

    #[test]
    fn permanent_sgw_crash_is_caught_and_shrinks_to_one_spec() {
        // Build a deliberately unrecoverable case: the S-GW dies and never
        // restarts, on top of a benign link flap that shrinking must strip.
        let base = FuzzCase::generate(0);
        let cent_seed = match base.arch {
            Arch::Centralized => 0,
            Arch::Dlte => (0..)
                .find(|&s| FuzzCase::generate(s).arch == Arch::Centralized)
                .unwrap(),
        };
        let mut case = FuzzCase::generate(cent_seed);
        let targets = case.deployment().fault_targets();
        case.plan = FaultPlan::new(case.seed)
            .with(Window {
                at_s: 2.5,
                for_s: Some(0.3),
                what: NetBreak::LinkFlap {
                    link: targets.links[0],
                },
            })
            .with(Window {
                at_s: 3.0,
                for_s: None,
                what: NetBreak::NodeCrash {
                    node: targets.crashable[0],
                },
            });
        let report = run_case(&case);
        assert!(
            report.violations.iter().any(|v| v.oracle == "recovery"),
            "expected a recovery violation, got {:#?}",
            report.violations
        );
        let (min_case, min_report, runs) = shrink::<Net>(case, report);
        assert!(runs > 0);
        assert_eq!(
            min_case.plan.faults.len(),
            1,
            "the benign flap should shrink away: {:#?}",
            min_case.plan.faults
        );
        assert!(matches!(
            min_case.plan.faults[0],
            Window {
                for_s: None,
                what: NetBreak::NodeCrash { .. },
                ..
            }
        ));
        assert!(min_report.violations.iter().any(|v| v.oracle == "recovery"));
        // Replay of the minimized case is bit-for-bit: same report again.
        assert_eq!(run_case(&min_case), min_report);
    }

    /// Found by the oracle proptest sweep: an S-GW crash/restart while a
    /// loss burst degrades the eNB backhaul. The MME's post-failure
    /// `NetworkDetach` order was lost in the burst, leaving the UE
    /// believing it was attached (and a P-GW session stranded) forever.
    /// Fixed by re-sending the detach order from the MME path tick until
    /// the UE re-appears; this pins the fix.
    #[test]
    fn lost_detach_order_under_loss_burst_recovers() {
        let targets = Deployment::new(Arch::Centralized, 1, 2).fault_targets();
        let case = FuzzCase {
            seed: 397_424,
            arch: Arch::Centralized,
            n_cells: 1,
            ues_per_cell: 2,
            plan: FaultPlan::new(397_424)
                .with(Window {
                    at_s: 6.287_749_210_955_282,
                    for_s: Some(1.468_965_880_614_459_9),
                    what: NetBreak::NodeCrash {
                        node: targets.crashable[0], // the S-GW
                    },
                })
                .with(Window {
                    at_s: 5.305_519_394_647_299,
                    for_s: Some(1.051_780_482_954_840_7),
                    what: NetBreak::LinkFlap {
                        link: targets.links[1], // aggregation ↔ EPC trunk
                    },
                })
                .with(Window {
                    at_s: 6.260_627_196_901_638_5,
                    for_s: Some(1.986_020_044_616_848_3),
                    what: NetBreak::LossBurst {
                        link: targets.links[0], // the eNB's backhaul
                        loss: 0.380_595_506_377_267_5,
                    },
                }),
            moves: MovePlan::default(),
            remote_keys: false,
            x2_fetch: false,
        };
        let report = run_case(&case);
        assert!(
            report.violations.is_empty(),
            "lost-detach case regressed: {:#?}",
            report.violations
        );
        assert!(report.recovered_at_s.is_some());
    }

    /// Found by `fuzz --mobility` (seed 164, shrunk to one fault): a 33 ms
    /// S-GW pause landing exactly on a UE's second path switch swallowed
    /// the ModifyBearerRequest, and the MME context wedged in `Switching`
    /// forever — nothing retransmitted the path-switch leg, so the UE
    /// believed it was attached while the S-GW still pointed downlink at
    /// the old eNB. Fixed by re-sending the ModifyBearerRequest from the
    /// MME path tick for contexts stuck in `Switching`; this pins the fix.
    #[test]
    fn switch_stuck_by_sgw_pause_is_retried() {
        use dlte_faults::MoveSpec;
        let case = FuzzCase {
            seed: 164,
            arch: Arch::Centralized,
            n_cells: 2,
            ues_per_cell: 1,
            plan: FaultPlan::new(164),
            moves: MovePlan {
                seed: 164,
                moves: vec![
                    MoveSpec {
                        ue: 1,
                        at_s: 2.016_833_639_812_251_7,
                        ap: 0,
                    },
                    MoveSpec {
                        ue: 1,
                        at_s: 3.236_401_313_841_845,
                        ap: 1,
                    },
                ],
            },
            remote_keys: false,
            x2_fetch: false,
        };
        let targets = case.deployment().fault_targets();
        let case = FuzzCase {
            plan: FaultPlan::new(164).with(Window {
                at_s: 3.238_850_015_472_53,
                for_s: Some(0.032_656_997_650_172_194),
                what: NetBreak::NodePause {
                    node: targets.crashable[0], // the S-GW
                },
            }),
            ..case
        };
        let report = run_case(&case);
        assert!(
            report.violations.is_empty(),
            "stuck-switch case regressed: {:#?}",
            report.violations
        );
        assert!(report.recovered_at_s.is_some());
    }

    /// The committed repro (an S-GW that halts and never restarts, leaving
    /// stranded P-GW sessions and stuck MME contexts) must replay
    /// bit-for-bit: same violations, same recovery outcome, on every
    /// machine and forever. Guards both the repro format and run
    /// determinism against regressions.
    #[test]
    fn committed_repro_replays_bit_for_bit() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/fuzz_repro_sgw_halt.json");
        let (repro, report) = replay_repro::<Net>(&path).unwrap();
        assert_eq!(report.violations, repro.violations);
        assert_eq!(report.recovered_at_s, repro.recovered_at_s);
        assert!(report.violations.iter().any(|v| v.oracle == "recovery"));
        assert!(report.violations.iter().any(|v| v.oracle == "sessions"));
    }

    /// Found by `fuzz --mobility` (seed 3): a P-GW crash/restart makes the
    /// S-GW tear its bearers down and signal the eNB each bearer was
    /// anchored at — the *last eNB that completed a path switch*, which for
    /// a UE whose newest move's ServiceRequest was lost in a link flap is
    /// no longer the serving cell. The UE's stale-NAS source filter dropped
    /// the resulting `NetworkDetach` order, wedging the UE "attached" to a
    /// dead bearer forever while the MME (whose own S-GW echo path never
    /// broke) kept the Active context. Fixed by exempting fail-safe detach
    /// orders from the serving-cell filter; the committed repro replays the
    /// storm green, bit-for-bit.
    #[test]
    fn committed_mobility_repro_replays_green() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/data/fuzz_repro_mobility_stale_detach.json");
        let (repro, report) = replay_repro::<Mob>(&path).unwrap();
        assert!(!repro.case.moves.is_empty(), "repro must move UEs");
        assert!(
            report.violations.is_empty(),
            "stale-detach mobility case regressed: {:#?}",
            report.violations
        );
        assert_eq!(report.recovered_at_s, repro.recovered_at_s);
    }

    #[test]
    fn repro_round_trips_through_json_and_replays() {
        crate::chaos::assert_round_trip::<Net>(5);
        crate::chaos::assert_round_trip::<Mob>(5);
    }

    /// A repro naming a node or link outside its case's topology is an
    /// `Err` naming the spec and the id, not an index-out-of-bounds panic.
    #[test]
    fn replay_rejects_ids_outside_the_case() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/fuzz_repro_sgw_halt.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let dir = std::env::temp_dir().join("dlte-fuzz-test-bad-ids");
        std::fs::create_dir_all(&dir).unwrap();
        for (bad, want) in [
            (r#""node": 99"#, "fault spec 0 (NodeCrash { node: 99 })"),
            // The MME exists but is outside the envelope: it has no restart.
            (r#""node": 4"#, "fault spec 0 (NodeCrash { node: 4 })"),
        ] {
            let file = dir.join("bad.json");
            std::fs::write(&file, text.replace(r#""node": 5"#, bad)).unwrap();
            let err = replay_repro::<Net>(&file).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
        let mut case = FuzzCase::generate(0);
        case.plan = FaultPlan::new(0).with(Window {
            at_s: 3.0,
            for_s: Some(1.0),
            what: NetBreak::LossBurst {
                link: 77,
                loss: 0.5,
            },
        });
        let err = Net::check_ids(&case).unwrap_err();
        assert!(
            err.starts_with("fault spec 0 (LossBurst { link: 77,"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A repro written before faults were windows (each spec its own
    /// variant with its own time fields) is an `Err` naming the missing
    /// field, not a panic.
    #[test]
    fn replay_rejects_the_spelling_before_windows() {
        let old = r#"{
          "domain": "net",
          "seed": 0,
          "case": {
            "seed": 0,
            "arch": "Centralized",
            "n_cells": 1,
            "ues_per_cell": 2,
            "plan": {
              "seed": 0,
              "faults": [
                { "NodeCrash": { "node": 5, "at_s": 3.0, "restart_after_s": null } }
              ]
            }
          },
          "violations": [],
          "shrink_runs": 0
        }"#;
        let dir = std::env::temp_dir().join("dlte-fuzz-test-old-spelling");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("old.json");
        std::fs::write(&file, old).unwrap();
        let err = replay_repro::<Net>(&file).unwrap_err();
        assert!(err.contains("Window: missing field `at_s`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A repro whose shape no builder serves is an `Err` naming the field,
    /// not a false green (no cells or no UEs) or a builder panic (past an
    /// address space).
    #[test]
    fn replay_rejects_shapes_the_builders_cannot_serve() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/fuzz_repro_sgw_halt.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let dir = std::env::temp_dir().join("dlte-fuzz-test-bad-shape");
        std::fs::create_dir_all(&dir).unwrap();
        for (field, bad, want) in [
            (
                "n_cells",
                "0",
                "n_cells is 0; a centralized case holds 1..=256 cells",
            ),
            (
                "n_cells",
                "257",
                "n_cells is 257; a centralized case holds 1..=256 cells",
            ),
            ("ues_per_cell", "0", "ues_per_cell is 0"),
        ] {
            let was = if field == "n_cells" { "1" } else { "2" };
            let file = dir.join("bad.json");
            let edited = text.replace(
                &format!(r#""{field}": {was}"#),
                &format!(r#""{field}": {bad}"#),
            );
            std::fs::write(&file, edited).unwrap();
            let err = replay_repro::<Net>(&file).unwrap_err();
            assert!(err.contains(want), "{field} = {bad}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);

        let mut central = FuzzCase::generate(0);
        central.arch = Arch::Centralized;
        central.plan = FaultPlan::new(0);
        central.n_cells = central.deployment().max_cells();
        assert_eq!(Net::check_ids(&central), Ok(()));
        let mut dlte = FuzzCase {
            arch: Arch::Dlte,
            n_cells: Deployment::new(Arch::Dlte, 1, 1).max_cells(),
            ..central
        };
        assert_eq!(Net::check_ids(&dlte), Ok(()));
        dlte.n_cells += 1;
        let err = Net::check_ids(&dlte).unwrap_err();
        assert_eq!(err, "n_cells is 15873; a dlte case holds 1..=15872 cells");
    }
}
