//! # dlte-check — cross-layer invariant oracles
//!
//! FoundationDB-style simulation-testing oracles: pure functions from
//! post-run evidence (network conservation counters, EPC state snapshots,
//! UE views, the structured event stream) to a list of [`Violation`]s.
//! The `dlte-run fuzz` sweep evaluates every oracle after each randomized
//! chaos run; `cargo test` evaluates them on golden scenarios.
//!
//! The oracles encode the paper's safety claims as machine-checkable
//! invariants:
//!
//! * **Packet conservation** ([`check_conservation`]): every packet the
//!   fabric accepts is delivered, dropped for an attributed reason, or
//!   still in flight — no silent loss, no duplication (§2.1's tunneled
//!   forwarding and §4.1's local breakout must both account for every
//!   byte).
//! * **Session referential consistency** ([`check_sessions`]): the
//!   MME/S-GW/P-GW tables (or the dLTE local cores) agree on who is
//!   attached, with which address, over which TEIDs — and internal lookup
//!   indexes have no dangling entries. A violation is a stranded EPS
//!   session, the failure mode §3.1 attributes to centralized state.
//! * **Event-stream sanity** ([`check_event_stream`]): sequence numbers
//!   dense, timestamps monotone — the determinism contract of `dlte-obs`.
//! * **HARQ bound** ([`check_harq`]): no transport block is transmitted
//!   more than `max_transmissions` times (§3.2's retransmission budget).
//! * **Bounded attach backoff** ([`check_backoff`]): a UE's retry count
//!   cannot exceed run-time divided by the minimum backoff — catches
//!   retry storms that would invalidate the §4 control-load comparison.
//! * **Bounded recovery** ([`check_recovery`]): after the last injected
//!   fault clears, the network re-converges (everyone re-attached,
//!   sessions consistent) within a bound.
//!
//! Everything here is deterministic and serde-able, so a failing fuzz
//! case can embed the evidence in its repro file.

#![forbid(unsafe_code)]

use dlte_epc::audit::{LocalCoreAudit, MmeAudit, PgwAudit, SgwAudit};
use dlte_net::{Addr, NetAudit};
use dlte_obs::{Event, Record};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

pub mod mobility;
pub mod registry;
pub use mobility::{
    check_migration, check_mobility, MigrationView, MobilityEvidence, MobilityUeView, SpanView,
};
pub use registry::{check_registry, CrashRecord, GrantRecord, RegistryEvidence, ReplicaTable};

/// One invariant breach: which oracle fired and what it saw.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    pub oracle: String,
    pub detail: String,
}

impl Violation {
    fn new(oracle: &str, detail: impl Into<String>) -> Self {
        Violation {
            oracle: oracle.to_string(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

/// Tunable limits the oracles check against.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Bounds {
    /// HARQ transmissions per block (LTE default 4).
    pub harq_max_tx: u8,
    /// Minimum UE attach-retry backoff, seconds.
    pub attach_base_s: f64,
    /// Minimum UE service-request-retry backoff, seconds.
    pub service_base_s: f64,
    /// Re-convergence budget after the last fault clears, seconds. Must
    /// exceed the UE attach backoff cap (24 s) plus one detection +
    /// re-attach round trip.
    pub recovery_bound_s: f64,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            harq_max_tx: 4,
            attach_base_s: 3.0,
            service_base_s: 0.5,
            recovery_bound_s: 28.0,
        }
    }
}

/// What one UE believes about itself at snapshot time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct UeView {
    pub imsi: u64,
    pub attached: bool,
    pub addr: Option<Addr>,
    pub attach_retries: u64,
    pub service_request_retries: u64,
}

/// The core-side state snapshot, by architecture.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CoreView {
    Centralized {
        mme: MmeAudit,
        sgw: SgwAudit,
        pgw: PgwAudit,
    },
    Dlte {
        cores: Vec<LocalCoreAudit>,
    },
}

/// Everything the state oracles consume. Serde-able so a repro can carry
/// the evidence that condemned it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Evidence {
    /// Simulated seconds elapsed at snapshot time.
    pub elapsed_s: f64,
    pub net: NetAudit,
    pub ues: Vec<UeView>,
    pub core: CoreView,
    /// Mobility observations (session spans, per-UE moves and gaps).
    /// `None` for runs without a movement plan; defaulted so evidence
    /// committed before the mobility oracles existed still parses.
    #[serde(default)]
    pub mobility: Option<MobilityEvidence>,
}

/// Packet conservation: three identities over the fabric counters.
///
/// 1. Every packet entering the fabric (originated or re-forwarded) was
///    accepted onto a link or dropped for an attributed pre-link reason.
/// 2. Every accepted packet has arrived or is still on a link.
/// 3. Every arrival terminated: absorbed by a handler, delivered plain,
///    dropped at a down node, or re-forwarded (re-entering identity 1).
pub fn check_conservation(net: &NetAudit) -> Vec<Violation> {
    let mut v = Vec::new();
    let f = &net.fabric;
    let entries = f.originated + f.reforwarded;
    let exits = f.accepted
        + net.drops_ttl
        + net.drops_no_route
        + net.drops_queue
        + net.drops_loss
        + net.drops_link_down;
    if entries != exits {
        v.push(Violation::new(
            "conservation",
            format!("fabric entries {entries} != exits {exits} ({f:?}, {net:?})"),
        ));
    }
    if f.accepted != f.arrivals + net.in_flight {
        v.push(Violation::new(
            "conservation",
            format!(
                "accepted {} != arrivals {} + in_flight {}",
                f.accepted, f.arrivals, net.in_flight
            ),
        ));
    }
    let terminated = f.absorbed + f.delivered_plain + net.drops_node_down + f.reforwarded;
    if f.arrivals != terminated {
        v.push(Violation::new(
            "conservation",
            format!("arrivals {} != terminations {terminated}", f.arrivals),
        ));
    }
    v
}

/// Event-stream sanity: `seq` dense from zero, `t_ns` monotone
/// non-decreasing (events are emitted in dispatch order and simulated
/// time never runs backwards).
pub fn check_event_stream(records: &[Record]) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut last_t = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.seq != i as u64 {
            v.push(Violation::new(
                "event_stream",
                format!("seq {} at position {i} (expected dense numbering)", r.seq),
            ));
            break;
        }
        if r.t_ns < last_t {
            v.push(Violation::new(
                "event_stream",
                format!("t_ns ran backwards at seq {}: {} < {last_t}", r.seq, r.t_ns),
            ));
            break;
        }
        last_t = r.t_ns;
    }
    v
}

/// HARQ retransmission budget: no attempt beyond `max_tx`, failures only
/// after exactly exhausting the budget.
pub fn check_harq(records: &[Record], max_tx: u8) -> Vec<Violation> {
    let mut v = Vec::new();
    for r in records {
        match r.event {
            Event::HarqRetx { ue, attempt, .. } if attempt < 2 || attempt > max_tx => {
                v.push(Violation::new(
                    "harq",
                    format!(
                        "ue {ue} retx attempt {attempt} outside 2..={max_tx} (seq {})",
                        r.seq
                    ),
                ));
            }
            Event::HarqFail { ue, attempts } if attempts != max_tx => {
                v.push(Violation::new(
                    "harq",
                    format!(
                        "ue {ue} gave up after {attempts} attempts, budget is {max_tx} (seq {})",
                        r.seq
                    ),
                ));
            }
            _ => {}
        }
    }
    v
}

/// Bounded backoff: every retry is preceded by a wait of at least the base
/// backoff and a UE's waits cannot overlap, so its retry count can never
/// exceed `elapsed / base` (+1 for a retry in flight at the cut).
pub fn check_backoff(ues: &[UeView], elapsed_s: f64, bounds: &Bounds) -> Vec<Violation> {
    let mut v = Vec::new();
    let attach_cap = (elapsed_s / bounds.attach_base_s).floor() as u64 + 1;
    let service_cap = (elapsed_s / bounds.service_base_s).floor() as u64 + 1;
    for ue in ues {
        if ue.attach_retries > attach_cap {
            v.push(Violation::new(
                "backoff",
                format!(
                    "imsi {}: {} attach retries in {elapsed_s:.1}s exceeds {attach_cap} \
                     (minimum backoff {}s violated)",
                    ue.imsi, ue.attach_retries, bounds.attach_base_s
                ),
            ));
        }
        if ue.service_request_retries > service_cap {
            v.push(Violation::new(
                "backoff",
                format!(
                    "imsi {}: {} service retries in {elapsed_s:.1}s exceeds {service_cap}",
                    ue.imsi, ue.service_request_retries
                ),
            ));
        }
    }
    v
}

/// Session referential consistency and stranded-session detection.
///
/// At a quiescent point (the fuzz runner retries through a settle window
/// before condemning a run) the attach state must agree across every
/// layer that holds it.
pub fn check_sessions(ev: &Evidence) -> Vec<Violation> {
    match &ev.core {
        CoreView::Centralized { mme, sgw, pgw } => check_centralized(&ev.ues, mme, sgw, pgw),
        CoreView::Dlte { cores } => check_dlte(&ev.ues, cores),
    }
}

fn check_centralized(
    ues: &[UeView],
    mme: &MmeAudit,
    sgw: &SgwAudit,
    pgw: &PgwAudit,
) -> Vec<Violation> {
    const O: &str = "sessions";
    let mut v = Vec::new();
    // Index health.
    for b in &sgw.bearers {
        if !b.indexed {
            v.push(Violation::new(
                O,
                format!("sgw bearer imsi {} not indexed", b.imsi),
            ));
        }
        if b.teid_ul_pgw.is_none() {
            v.push(Violation::new(
                O,
                format!("sgw bearer imsi {} half-open (no P-GW uplink TEID)", b.imsi),
            ));
        }
    }
    if sgw.ul_index_len != sgw.bearers.len() || sgw.dl_index_len != sgw.bearers.len() {
        v.push(Violation::new(
            O,
            format!(
                "sgw index sizes ul={} dl={} vs {} bearers (dangling entries)",
                sgw.ul_index_len,
                sgw.dl_index_len,
                sgw.bearers.len()
            ),
        ));
    }
    for s in &pgw.sessions {
        if !s.indexed {
            v.push(Violation::new(
                O,
                format!("pgw session imsi {} not indexed", s.imsi),
            ));
        }
    }
    if pgw.ul_index_len != pgw.sessions.len() || pgw.imsi_index_len != pgw.sessions.len() {
        v.push(Violation::new(
            O,
            format!(
                "pgw index sizes ul={} imsi={} vs {} sessions",
                pgw.ul_index_len,
                pgw.imsi_index_len,
                pgw.sessions.len()
            ),
        ));
    }
    // No attach may still be in flight at quiescence.
    if !mme.transient.is_empty() {
        v.push(Violation::new(
            O,
            format!(
                "mme has non-Active contexts at quiescence: {:?}",
                mme.transient
            ),
        ));
    }
    let by_imsi_sgw: BTreeMap<u64, _> = sgw.bearers.iter().map(|b| (b.imsi, b)).collect();
    let by_imsi_pgw: BTreeMap<u64, _> = pgw.sessions.iter().map(|s| (s.imsi, s)).collect();
    // MME ↔ S-GW ↔ P-GW, per active UE context.
    for u in &mme.ues {
        let Some(b) = by_imsi_sgw.get(&u.imsi) else {
            v.push(Violation::new(
                O,
                format!("imsi {} active at mme but has no sgw bearer", u.imsi),
            ));
            continue;
        };
        if b.teid_ul_sgw != u.teid_ul_sgw || b.ue_addr != Some(u.ue_addr) {
            v.push(Violation::new(
                O,
                format!(
                    "imsi {}: mme (teid_ul {}, addr {}) vs sgw (teid_ul {}, addr {:?})",
                    u.imsi, u.teid_ul_sgw, u.ue_addr, b.teid_ul_sgw, b.ue_addr
                ),
            ));
        }
        let Some(s) = by_imsi_pgw.get(&u.imsi) else {
            v.push(Violation::new(
                O,
                format!("imsi {} active at mme but has no pgw session", u.imsi),
            ));
            continue;
        };
        if s.ue_addr != u.ue_addr {
            v.push(Violation::new(
                O,
                format!(
                    "imsi {}: mme addr {} vs pgw addr {}",
                    u.imsi, u.ue_addr, s.ue_addr
                ),
            ));
        }
        if b.teid_ul_pgw.is_some_and(|t| t != s.teid_ul_pgw) || s.teid_dl_sgw != b.teid_dl_sgw {
            v.push(Violation::new(
                O,
                format!(
                    "imsi {}: sgw↔pgw TEIDs disagree (sgw ul_pgw {:?}/dl {} vs pgw ul {}/dl {})",
                    u.imsi, b.teid_ul_pgw, b.teid_dl_sgw, s.teid_ul_pgw, s.teid_dl_sgw
                ),
            ));
        }
    }
    // No gateway state without an owning active context (stranded sessions).
    let active: BTreeMap<u64, Addr> = mme.ues.iter().map(|u| (u.imsi, u.ue_addr)).collect();
    for b in &sgw.bearers {
        if !active.contains_key(&b.imsi) {
            v.push(Violation::new(
                O,
                format!("stranded sgw bearer for imsi {} (no mme context)", b.imsi),
            ));
        }
    }
    for s in &pgw.sessions {
        if !active.contains_key(&s.imsi) {
            v.push(Violation::new(
                O,
                format!("stranded pgw session for imsi {} (no mme context)", s.imsi),
            ));
        }
    }
    // UE ↔ core agreement.
    for ue in ues {
        match (ue.attached, active.get(&ue.imsi)) {
            (true, None) => v.push(Violation::new(
                O,
                format!("imsi {} believes it is attached; mme disagrees", ue.imsi),
            )),
            (true, Some(&addr)) if ue.addr != Some(addr) => v.push(Violation::new(
                O,
                format!("imsi {}: ue addr {:?} vs mme addr {addr}", ue.imsi, ue.addr),
            )),
            (false, Some(_)) => v.push(Violation::new(
                O,
                format!(
                    "imsi {} detached but mme still holds an active context",
                    ue.imsi
                ),
            )),
            _ => {}
        }
    }
    v
}

fn check_dlte(ues: &[UeView], cores: &[LocalCoreAudit]) -> Vec<Violation> {
    const O: &str = "sessions";
    let mut v = Vec::new();
    let mut by_imsi: BTreeMap<u64, Vec<Addr>> = BTreeMap::new();
    for (i, core) in cores.iter().enumerate() {
        for s in &core.sessions {
            if !s.indexed {
                v.push(Violation::new(
                    O,
                    format!("core {i}: session imsi {} not indexed", s.imsi),
                ));
            }
            by_imsi.entry(s.imsi).or_default().push(s.ue_addr);
        }
        if core.addr_index_len != core.sessions.len() {
            v.push(Violation::new(
                O,
                format!(
                    "core {i}: addr index {} vs {} sessions (dangling entries)",
                    core.addr_index_len,
                    core.sessions.len()
                ),
            ));
        }
        if !core.attaching.is_empty() {
            v.push(Violation::new(
                O,
                format!(
                    "core {i}: attaches in flight at quiescence: {:?}",
                    core.attaching
                ),
            ));
        }
    }
    for ue in ues {
        let sessions = by_imsi.remove(&ue.imsi).unwrap_or_default();
        match (ue.attached, sessions.as_slice()) {
            (true, [addr]) if ue.addr != Some(*addr) => v.push(Violation::new(
                O,
                format!(
                    "imsi {}: ue addr {:?} vs core addr {addr}",
                    ue.imsi, ue.addr
                ),
            )),
            (true, []) => v.push(Violation::new(
                O,
                format!("imsi {} attached but no core holds a session", ue.imsi),
            )),
            (_, many) if many.len() > 1 => v.push(Violation::new(
                O,
                format!("imsi {} has {} sessions across cores", ue.imsi, many.len()),
            )),
            (false, [_]) => v.push(Violation::new(
                O,
                format!("stranded session for detached imsi {}", ue.imsi),
            )),
            _ => {}
        }
    }
    for imsi in by_imsi.keys() {
        v.push(Violation::new(
            O,
            format!("session for unknown imsi {imsi} (no such ue)"),
        ));
    }
    v
}

/// Bounded recovery: the network must have re-converged (first all-green
/// [`check_sessions`] pass) within `recovery_bound_s` of the last fault
/// clearing.
pub fn check_recovery(
    recovered_at_s: Option<f64>,
    last_fault_s: f64,
    bounds: &Bounds,
) -> Vec<Violation> {
    match recovered_at_s {
        Some(t) if t <= last_fault_s + bounds.recovery_bound_s + 1e-9 => Vec::new(),
        Some(t) => vec![Violation::new(
            "recovery",
            format!(
                "re-converged at {t:.1}s, {:.1}s after the last fault (bound {:.1}s)",
                t - last_fault_s,
                bounds.recovery_bound_s
            ),
        )],
        None => vec![Violation::new(
            "recovery",
            format!(
                "never re-converged within {:.1}s of the last fault at {last_fault_s:.1}s",
                bounds.recovery_bound_s
            ),
        )],
    }
}

/// Every oracle that applies to a single final snapshot (the recovery
/// oracle needs the settle-loop history and is checked separately).
pub fn check_all(ev: &Evidence, records: &[Record], bounds: &Bounds) -> Vec<Violation> {
    let mut v = check_conservation(&ev.net);
    v.extend(check_sessions(ev));
    v.extend(check_event_stream(records));
    v.extend(check_harq(records, bounds.harq_max_tx));
    v.extend(check_backoff(&ev.ues, ev.elapsed_s, bounds));
    if let Some(m) = &ev.mobility {
        v.extend(check_mobility(m, ev.elapsed_s, bounds));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_epc::audit::{MmeUeAudit, PgwSessionAudit, SgwBearerAudit};
    use dlte_net::FabricCounters;

    fn addr(last: u8) -> Addr {
        Addr::new(100, 64, 0, last)
    }

    fn clean_evidence() -> Evidence {
        let mme = MmeAudit {
            ues: vec![MmeUeAudit {
                imsi: 1000,
                ue_addr: addr(1),
                teid_dl: 1,
                teid_ul_sgw: 7,
                ecm_idle: false,
            }],
            transient: vec![],
        };
        let sgw = SgwAudit {
            bearers: vec![SgwBearerAudit {
                imsi: 1000,
                teid_ul_sgw: 7,
                teid_dl_sgw: 8,
                teid_ul_pgw: Some(9),
                ue_addr: Some(addr(1)),
                enb_connected: true,
                indexed: true,
            }],
            ul_index_len: 1,
            dl_index_len: 1,
        };
        let pgw = PgwAudit {
            sessions: vec![PgwSessionAudit {
                imsi: 1000,
                ue_addr: addr(1),
                teid_dl_sgw: 8,
                teid_ul_pgw: 9,
                indexed: true,
            }],
            ul_index_len: 1,
            imsi_index_len: 1,
        };
        Evidence {
            elapsed_s: 30.0,
            net: NetAudit {
                fabric: FabricCounters {
                    originated: 10,
                    reforwarded: 4,
                    accepted: 12,
                    arrivals: 11,
                    absorbed: 5,
                    delivered_plain: 2,
                },
                in_flight: 1,
                drops_queue: 1,
                drops_loss: 1,
                drops_no_route: 0,
                drops_ttl: 0,
                drops_link_down: 0,
                drops_node_down: 0,
            },
            ues: vec![UeView {
                imsi: 1000,
                attached: true,
                addr: Some(addr(1)),
                attach_retries: 2,
                service_request_retries: 0,
            }],
            core: CoreView::Centralized { mme, sgw, pgw },
            mobility: None,
        }
    }

    #[test]
    fn clean_evidence_passes_every_oracle() {
        let ev = clean_evidence();
        assert_eq!(check_all(&ev, &[], &Bounds::default()), Vec::new());
    }

    #[test]
    fn conservation_catches_silent_loss() {
        let mut ev = clean_evidence();
        ev.net.fabric.arrivals -= 1; // one packet vanished
        let v = check_conservation(&ev.net);
        assert_eq!(v.len(), 2); // identity 2 and 3 both break
        assert!(v.iter().all(|x| x.oracle == "conservation"));
    }

    #[test]
    fn stranded_bearer_is_flagged() {
        let mut ev = clean_evidence();
        if let CoreView::Centralized { mme, .. } = &mut ev.core {
            mme.ues.clear(); // gateway state with no owning context
        }
        let v = check_sessions(&ev);
        assert!(v.iter().any(|x| x.detail.contains("stranded sgw bearer")));
        assert!(v.iter().any(|x| x.detail.contains("stranded pgw session")));
        assert!(v.iter().any(|x| x.detail.contains("mme disagrees")));
    }

    #[test]
    fn teid_mismatch_is_flagged() {
        let mut ev = clean_evidence();
        if let CoreView::Centralized { sgw, .. } = &mut ev.core {
            sgw.bearers[0].teid_ul_pgw = Some(99);
        }
        assert!(check_sessions(&ev)
            .iter()
            .any(|x| x.detail.contains("TEIDs disagree")));
    }

    #[test]
    fn dangling_index_is_flagged() {
        let mut ev = clean_evidence();
        if let CoreView::Centralized { sgw, .. } = &mut ev.core {
            sgw.ul_index_len = 2;
        }
        assert!(check_sessions(&ev)
            .iter()
            .any(|x| x.detail.contains("dangling")));
    }

    #[test]
    fn event_stream_must_be_dense_and_monotone() {
        let rec = |seq, t_ns| Record {
            seq,
            t_ns,
            node: 0,
            event: Event::Drop {
                reason: dlte_obs::DropReason::Queue,
                bytes: 1,
            },
        };
        assert!(check_event_stream(&[rec(0, 5), rec(1, 5), rec(2, 9)]).is_empty());
        assert_eq!(check_event_stream(&[rec(0, 5), rec(2, 6)]).len(), 1);
        assert_eq!(check_event_stream(&[rec(0, 5), rec(1, 4)]).len(), 1);
    }

    #[test]
    fn harq_budget_is_enforced() {
        let rec = |event| Record {
            seq: 0,
            t_ns: 0,
            node: 0,
            event,
        };
        let ok = [
            rec(Event::HarqTx { ue: 1, ok: false }),
            rec(Event::HarqRetx {
                ue: 1,
                attempt: 4,
                ok: false,
            }),
            rec(Event::HarqFail { ue: 1, attempts: 4 }),
        ];
        assert!(check_harq(&ok, 4).is_empty());
        let over = [rec(Event::HarqRetx {
            ue: 1,
            attempt: 5,
            ok: true,
        })];
        assert_eq!(check_harq(&over, 4).len(), 1);
        let early_fail = [rec(Event::HarqFail { ue: 1, attempts: 2 })];
        assert_eq!(check_harq(&early_fail, 4).len(), 1);
    }

    #[test]
    fn backoff_retry_storm_is_flagged() {
        let mut ev = clean_evidence();
        ev.ues[0].attach_retries = 100; // 100 retries in 30 s: impossible at 3 s base
        assert_eq!(
            check_backoff(&ev.ues, ev.elapsed_s, &Bounds::default()).len(),
            1
        );
    }

    #[test]
    fn recovery_bound() {
        let b = Bounds::default();
        assert!(check_recovery(Some(10.0), 5.0, &b).is_empty());
        assert_eq!(check_recovery(Some(40.0), 5.0, &b).len(), 1);
        assert_eq!(check_recovery(None, 5.0, &b).len(), 1);
    }

    #[test]
    fn dlte_duplicate_session_is_flagged() {
        use dlte_epc::audit::LocalSessionAudit;
        let core = |imsi, a| LocalCoreAudit {
            sessions: vec![LocalSessionAudit {
                imsi,
                ue_addr: a,
                indexed: true,
            }],
            addr_index_len: 1,
            attaching: vec![],
        };
        let ev = Evidence {
            elapsed_s: 10.0,
            net: NetAudit::default(),
            ues: vec![UeView {
                imsi: 1000,
                attached: true,
                addr: Some(addr(1)),
                attach_retries: 0,
                service_request_retries: 0,
            }],
            core: CoreView::Dlte {
                cores: vec![core(1000, addr(1)), core(1000, addr(2))],
            },
            mobility: None,
        };
        assert!(check_sessions(&ev)
            .iter()
            .any(|x| x.detail.contains("2 sessions across cores")));
    }

    #[test]
    fn evidence_round_trips_through_json() {
        let ev = clean_evidence();
        let json = serde_json::to_string(&ev).unwrap();
        let back: Evidence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ev);
    }
}
