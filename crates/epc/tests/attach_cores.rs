//! The reject and resync paths of the EPS-AKA attach, driven end to end
//! through both cores: the carrier MME (vectors from an HSS over S6a) and
//! the dLTE local core (vectors from published keys). A scripted UE
//! attaches once, answers each challenge as told, and records every NAS
//! message it receives; each test checks that list and the core's counters.

use dlte_auth::usim::{AkaError, Usim};
use dlte_auth::vectors::{generate_vector, SubscriberRecord};
use dlte_auth::{Imsi, Key, PublishedKeyDirectory};
use dlte_epc::local_core::{KeySource, LocalCoreStats};
use dlte_epc::mme::MmeStats;
use dlte_epc::{
    wire, Gtpc, HssNode, LocalCoreAudit, LocalCoreNode, MmeAudit, MmeNode, Nas, S1Nas, S6a, SnId,
};
use dlte_net::{
    Addr, AddrPool, LinkConfig, NetworkBuilder, NodeCtx, NodeHandler, Packet, Payload, Prefix,
};
use dlte_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

const IMSI: Imsi = 1000;
const K: Key = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
const SN: SnId = 7;
const UE: Addr = Addr::new(10, 0, 0, 1);
const CORE: Addr = Addr::new(10, 0, 0, 2);
const HSS: Addr = Addr::new(10, 0, 0, 3);
const SGW: Addr = Addr::new(10, 0, 0, 4);
const UE_IP: Addr = Addr::new(10, 45, 0, 1);

/// How the scripted UE answers one challenge.
#[derive(Clone, Copy)]
enum Answer {
    /// Whatever its SIM computes.
    Sim,
    /// A RES that cannot match.
    WrongRes,
    /// A synchronization failure claiming this SQN.
    SyncFailure(u64),
}

/// A UE (and, toward the MME, its eNB relay) that attaches once.
struct ScriptedUe {
    usim: Usim,
    answers: VecDeque<Answer>,
    received: Vec<Nas>,
}

impl ScriptedUe {
    fn new(answers: &[Answer]) -> Self {
        ScriptedUe {
            usim: Usim::new(IMSI, K),
            answers: answers.iter().copied().collect(),
            received: Vec::new(),
        }
    }

    /// A SIM that last accepted SQN 41 at some other core, so the first
    /// challenge from a core still at SQN 0 fails its freshness check.
    fn ahead(mut self) -> Self {
        let mut elsewhere = SubscriberRecord {
            imsi: IMSI,
            k: K,
            sqn: 40,
        };
        let v = generate_vector(&mut elsewhere, SN, &mut SimRng::new(99));
        self.usim.authenticate(v.rand, v.autn, SN).expect("fresh");
        self
    }

    fn send(ctx: &mut NodeCtx<'_>, nas: Nas, size: u32) {
        let p = ctx
            .make_packet(CORE, size)
            .with_payload(Payload::control(S1Nas { imsi: IMSI, nas }));
        ctx.forward(p);
    }
}

impl NodeHandler for ScriptedUe {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let attach = Nas::AttachRequest {
            imsi: IMSI,
            via_enb: UE,
        };
        Self::send(ctx, attach, wire::ATTACH_REQUEST);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let Some(S1Nas { nas, .. }) = packet.payload.as_control::<S1Nas>().cloned() else {
            return; // S1AP context setup toward the "eNB"
        };
        self.received.push(nas);
        let Nas::AuthenticationRequest { rand, autn, sn_id } = nas else {
            return;
        };
        let failure = |ue_sqn| Nas::AuthenticationFailure { imsi: IMSI, ue_sqn };
        let reply = match self.answers.pop_front().expect("a scripted answer") {
            Answer::Sim => match self.usim.authenticate(rand, autn, sn_id) {
                Ok(r) => Nas::AuthenticationResponse {
                    imsi: IMSI,
                    res: r.res,
                },
                Err(AkaError::SyncFailure { ue_sqn }) => failure(Some(ue_sqn)),
                Err(AkaError::MacFailure) => failure(None),
            },
            Answer::WrongRes => Nas::AuthenticationResponse {
                imsi: IMSI,
                res: 0xbad,
            },
            Answer::SyncFailure(sqn) => failure(Some(sqn)),
        };
        Self::send(ctx, reply, wire::AUTH_RESPONSE);
    }
}

/// The NAS a UE received, by message kind (and reject cause).
fn kinds(received: &[Nas]) -> Vec<String> {
    received
        .iter()
        .map(|nas| match nas {
            Nas::AuthenticationRequest { .. } => "challenge".to_string(),
            Nas::AttachAccept { .. } => "accept".to_string(),
            Nas::AttachReject { cause, .. } => format!("reject {cause:?}"),
            other => format!("{other:?}"),
        })
        .collect()
}

/// An HSS that loses every resync request (and so its answer).
struct LossyHss(HssNode);

impl NodeHandler for LossyHss {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let resync = matches!(
            packet.payload.as_control::<S6a>(),
            Some(S6a::AuthInfoRequest {
                resync_sqn: Some(_),
                ..
            })
        );
        if !resync {
            self.0.on_packet(ctx, packet);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        self.0.on_timer(ctx, tag);
    }
}

/// An S-GW that grants every session.
struct GrantingSgw;

impl NodeHandler for GrantingSgw {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(Gtpc::CreateSessionRequest { imsi, .. }) = packet.payload.as_control::<Gtpc>() {
            let reply = Gtpc::CreateSessionResponse {
                imsi: *imsi,
                ue_addr: UE_IP,
                sgw_addr: SGW,
                teid_ul_sgw: 1,
            };
            let p = ctx
                .make_packet(packet.src, wire::GTPC)
                .with_payload(Payload::control(reply));
            ctx.forward(p);
        }
    }
}

/// Attach `ue` through an MME whose HSS knows the subscriber when
/// `provisioned`, and that loses resync requests when `lossy`.
fn via_mme(ue: ScriptedUe, provisioned: bool, lossy: bool) -> (Vec<String>, MmeStats, MmeAudit) {
    let per_msg = SimDuration::from_micros(200);
    let mut hss = HssNode::new(per_msg, SimRng::new(1));
    if provisioned {
        hss.provision(IMSI, K);
    }
    let hss: Box<dyn NodeHandler> = if lossy {
        Box::new(LossyHss(hss))
    } else {
        Box::new(hss)
    };
    let mut b = NetworkBuilder::new(1);
    let ue = b.host("ue", Box::new(ue));
    let mme = b.host("mme", Box::new(MmeNode::new(SN, HSS, SGW, per_msg)));
    let hss = b.host("hss", hss);
    let sgw = b.host("sgw", Box::new(GrantingSgw));
    for (node, addr) in [(ue, UE), (mme, CORE), (hss, HSS), (sgw, SGW)] {
        b.addr(node, addr);
        if node != mme {
            let l = b.link(node, mme, LinkConfig::lan());
            b.route(node, Prefix::new(CORE, 32), l);
            b.route(mme, Prefix::new(addr, 32), l);
        }
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(10), 100_000);
    let w = sim.world();
    let mme = w.handler_as::<MmeNode>(mme).unwrap();
    let received = kinds(&w.handler_as::<ScriptedUe>(ue).unwrap().received);
    (received, mme.stats.clone(), mme.audit())
}

/// Attach `ue` at a local core whose directory publishes the subscriber's
/// key when `published`, and whose address pool is empty when `exhausted`.
fn via_local_core(
    ue: ScriptedUe,
    published: bool,
    exhausted: bool,
) -> (Vec<String>, LocalCoreStats, LocalCoreAudit) {
    let mut dir = PublishedKeyDirectory::new();
    if published {
        dir.publish(IMSI, K);
    }
    // A /32 holds no assignable address (offset 0 is the network address).
    let len = if exhausted { 32 } else { 24 };
    let pool = AddrPool::new(Prefix::new(UE_IP, len));
    let mut core = LocalCoreNode::new(
        SN,
        pool,
        KeySource::Local(dir),
        SimDuration::from_micros(200),
        SimRng::new(1),
    );
    let mut b = NetworkBuilder::new(1);
    let ue = b.host("ue", Box::new(ue));
    let ap = b.node("ap");
    b.addr(ue, UE).addr(ap, CORE);
    let radio = b.link(ue, ap, LinkConfig::lan());
    b.route(ue, Prefix::new(CORE, 32), radio);
    core.wire_ue(IMSI, radio, UE);
    b.set_handler(ap, Box::new(core));
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(10), 100_000);
    let w = sim.world();
    let core = w.handler_as::<LocalCoreNode>(ap).unwrap();
    let received = kinds(&w.handler_as::<ScriptedUe>(ue).unwrap().received);
    (received, core.stats.clone(), core.audit())
}

#[test]
fn mme_rejects_an_unknown_subscriber() {
    let (received, stats, audit) = via_mme(ScriptedUe::new(&[]), false, false);
    assert_eq!(received, ["reject UnknownSubscriber"]);
    assert_eq!((stats.attach_requests, stats.attaches_rejected), (1, 1));
    assert_eq!(stats.attaches_completed, 0);
    assert!(audit.ues.is_empty() && audit.transient.is_empty());
}

#[test]
fn mme_rejects_a_wrong_res() {
    let (received, stats, audit) = via_mme(ScriptedUe::new(&[Answer::WrongRes]), true, false);
    assert_eq!(received, ["challenge", "reject AuthenticationFailed"]);
    assert_eq!((stats.attaches_rejected, stats.auth_resyncs), (1, 0));
    assert!(audit.ues.is_empty() && audit.transient.is_empty());
}

#[test]
fn mme_resyncs_once_then_accepts() {
    let ue = ScriptedUe::new(&[Answer::Sim, Answer::Sim]).ahead();
    let (received, stats, audit) = via_mme(ue, true, false);
    assert_eq!(received, ["challenge", "challenge", "accept"]);
    assert_eq!(stats.auth_resyncs, 1);
    assert_eq!((stats.attaches_completed, stats.attaches_rejected), (1, 0));
    assert_eq!(stats.resync_timeouts, 0);
    assert_eq!(audit.ues.len(), 1);
    assert!(audit.transient.is_empty());
}

#[test]
fn mme_rejects_a_second_sync_failure() {
    let answers = [Answer::SyncFailure(50), Answer::SyncFailure(60)];
    let (received, stats, audit) = via_mme(ScriptedUe::new(&answers), true, false);
    assert_eq!(
        received,
        ["challenge", "challenge", "reject AuthenticationFailed"]
    );
    assert_eq!((stats.auth_resyncs, stats.attaches_rejected), (1, 1));
    assert!(audit.ues.is_empty() && audit.transient.is_empty());
}

#[test]
fn mme_abandons_a_resync_whose_answer_is_lost() {
    let ue = ScriptedUe::new(&[Answer::Sim]).ahead();
    let (received, stats, audit) = via_mme(ue, true, true);
    assert_eq!(received, ["challenge"], "abandoning sends the UE nothing");
    assert_eq!((stats.auth_resyncs, stats.resync_timeouts), (1, 1));
    assert_eq!((stats.attaches_completed, stats.attaches_rejected), (0, 0));
    assert!(
        audit.ues.is_empty() && audit.transient.is_empty(),
        "no context left behind"
    );
}

#[test]
fn local_core_rejects_an_unknown_subscriber() {
    let (received, stats, audit) = via_local_core(ScriptedUe::new(&[]), false, false);
    assert_eq!(received, ["reject UnknownSubscriber"]);
    assert_eq!((stats.attach_requests, stats.attaches_rejected), (1, 1));
    assert_eq!(stats.directory_queries, 1);
    assert!(audit.sessions.is_empty() && audit.attaching.is_empty());
}

#[test]
fn local_core_rejects_a_wrong_res() {
    let (received, stats, audit) =
        via_local_core(ScriptedUe::new(&[Answer::WrongRes]), true, false);
    assert_eq!(received, ["challenge", "reject AuthenticationFailed"]);
    assert_eq!((stats.attaches_rejected, stats.auth_resyncs), (1, 0));
    assert!(audit.sessions.is_empty() && audit.attaching.is_empty());
}

#[test]
fn local_core_resyncs_once_then_accepts() {
    let ue = ScriptedUe::new(&[Answer::Sim, Answer::Sim]).ahead();
    let (received, stats, audit) = via_local_core(ue, true, false);
    assert_eq!(received, ["challenge", "challenge", "accept"]);
    assert_eq!(stats.auth_resyncs, 1);
    assert_eq!((stats.attaches_completed, stats.attaches_rejected), (1, 0));
    assert_eq!(audit.sessions.len(), 1);
    assert!(audit.attaching.is_empty());
}

#[test]
fn local_core_rejects_a_second_sync_failure() {
    let answers = [Answer::SyncFailure(50), Answer::SyncFailure(60)];
    let (received, stats, audit) = via_local_core(ScriptedUe::new(&answers), true, false);
    assert_eq!(
        received,
        ["challenge", "challenge", "reject AuthenticationFailed"]
    );
    assert_eq!((stats.auth_resyncs, stats.attaches_rejected), (1, 1));
    assert!(audit.sessions.is_empty() && audit.attaching.is_empty());
}

#[test]
fn local_core_rejects_when_its_pool_is_exhausted() {
    let (received, stats, audit) = via_local_core(ScriptedUe::new(&[Answer::Sim]), true, true);
    assert_eq!(received, ["challenge", "reject NoResources"]);
    assert_eq!((stats.attaches_completed, stats.attaches_rejected), (0, 1));
    assert!(audit.sessions.is_empty() && audit.attaching.is_empty());
}
