//! The recovery paths of the GTP session lifecycle, driven end to end
//! through real gateway handlers with scripted peers: the S-GW tearing its
//! bearers down when path management declares the P-GW dead, the MME
//! re-sending a lost post-failure detach order until the UE attaches again,
//! and the P-GW keeping a UE's address across an idempotent re-create. Each
//! test builds a star around the node under test, runs it, and checks what
//! the peers received and the node's counters.

use dlte_auth::usim::Usim;
use dlte_auth::{Imsi, Key};
use dlte_epc::mme::MmeStats;
use dlte_epc::pgw::PgwStats;
use dlte_epc::sgw::SgwStats;
use dlte_epc::{
    wire, Gtpc, HssNode, MmeNode, Nas, PgwAudit, PgwNode, S1Nas, SgwAudit, SgwNode, SnId, S5,
};
use dlte_net::gtp::{GtpEcho, GtpErrorIndication};
use dlte_net::{
    Addr, AddrPool, LinkConfig, Network, NetworkBuilder, NodeCtx, NodeHandler, Packet, Payload,
    Prefix,
};
use dlte_sim::{SimDuration, SimRng, SimTime, Simulation};
use std::any::Any;

const IMSI: Imsi = 1000;
const K: Key = 0x0123_4567_89ab_cdef_0011_2233_4455_6677;
const SN: SnId = 7;
const MME: Addr = Addr::new(10, 0, 0, 1);
const SGW: Addr = Addr::new(10, 0, 0, 2);
const PGW: Addr = Addr::new(10, 0, 0, 3);
const HSS: Addr = Addr::new(10, 0, 0, 4);
const ENB: Addr = Addr::new(10, 0, 0, 5);
const UE_NET: Addr = Addr::new(10, 45, 0, 0);
const PER_MSG: SimDuration = SimDuration::from_micros(200);
const TICK: SimDuration = SimDuration::from_secs(1);

/// Run `hub` with each spoke on its own LAN link to it for `secs`. Node 0
/// is the hub; spoke `i` is node `i + 1`.
fn star(
    hub: (Addr, Box<dyn NodeHandler>),
    spokes: Vec<(Addr, Box<dyn NodeHandler>)>,
    secs: u64,
) -> Simulation<Network> {
    let mut b = NetworkBuilder::new(1);
    let h = b.host("hub", hub.1);
    b.addr(h, hub.0);
    for (i, (addr, handler)) in spokes.into_iter().enumerate() {
        let n = b.host(format!("spoke{i}"), handler);
        b.addr(n, addr);
        let l = b.link(n, h, LinkConfig::lan());
        b.route(n, Prefix::new(hub.0, 32), l);
        b.route(h, Prefix::new(addr, 32), l);
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(secs), 1_000_000);
    sim
}

/// A control packet of `size` bytes carrying `msg` to `dst`.
fn send(ctx: &mut NodeCtx<'_>, dst: Addr, size: u32, msg: impl Any + Send + Sync) {
    let p = ctx.make_packet(dst, size);
    ctx.forward(p.with_payload(Payload::control(msg)));
}

/// An MME that asks the S-GW for one session per IMSI at start.
struct CreatingMme(Vec<Imsi>);

impl NodeHandler for CreatingMme {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        for &imsi in &self.0 {
            let teid_dl_enb = imsi as u32;
            let enb_addr = ENB;
            let req = Gtpc::CreateSessionRequest {
                imsi,
                enb_addr,
                teid_dl_enb,
            };
            send(ctx, SGW, wire::GTPC, req);
        }
    }

    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _packet: Packet) {}
}

/// A P-GW that grants every session and never answers an echo: to path
/// management it is dead.
struct SilentPgw;

impl NodeHandler for SilentPgw {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(&S5::CreateRequest { imsi, .. }) = packet.payload.as_control::<S5>() {
            let ue_addr = Addr(UE_NET.0 | (imsi as u32 - 999));
            let (pgw_addr, teid_ul_pgw) = (PGW, 0x2000 + imsi as u32);
            let resp = S5::CreateResponse {
                imsi,
                ue_addr,
                pgw_addr,
                teid_ul_pgw,
            };
            send(ctx, packet.src, wire::GTPC, resp);
        }
    }
}

/// An eNB that records the TEID of every error indication it receives.
#[derive(Default)]
struct RecordingEnb(Vec<u32>);

impl NodeHandler for RecordingEnb {
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(err) = packet.payload.as_control::<GtpErrorIndication>() {
            self.0.push(err.teid);
        }
    }
}

/// Two bearers at an S-GW that echoes a silent P-GW: the error indications
/// its eNB received, the S-GW's counters and its bearer table.
fn sgw_losing_its_pgw() -> (Vec<u32>, SgwStats, SgwAudit) {
    let mut sgw = SgwNode::new(PGW, PER_MSG);
    sgw.mme_addr = MME;
    sgw.path.enable(PGW, TICK, 3);
    let spokes: Vec<(Addr, Box<dyn NodeHandler>)> = vec![
        (MME, Box::new(CreatingMme(vec![IMSI, IMSI + 1]))),
        (PGW, Box::new(SilentPgw)),
        (ENB, Box::new(RecordingEnb::default())),
    ];
    let sim = star((SGW, Box::new(sgw)), spokes, 10);
    let w = sim.world();
    let sgw = w.handler_as::<SgwNode>(0).unwrap();
    let enb = w.handler_as::<RecordingEnb>(3).unwrap();
    (enb.0.clone(), sgw.stats.clone(), sgw.audit())
}

#[test]
fn sgw_tears_every_bearer_down_when_its_path_tick_declares_the_pgw_dead() {
    let (errors, stats, audit) = sgw_losing_its_pgw();
    assert_eq!(stats.sessions_created, 2, "both bearers came up first");
    assert_eq!(stats.peer_failures, 1);
    assert_eq!(stats.sessions_cleaned, 2, "one per bearer");
    assert_eq!(stats.error_indications_sent, 2);
    assert_eq!(
        errors,
        [IMSI as u32, IMSI as u32 + 1],
        "by eNB TEID, IMSI order"
    );
    assert!(audit.bearers.is_empty());
    assert_eq!((audit.ul_index_len, audit.dl_index_len), (0, 0));
}

/// A UE (and its eNB relay) that attaches, loses the first `lost` detach
/// orders the MME sends it, and attaches again on the next one.
struct ForgetfulUe {
    usim: Usim,
    lost: usize,
    detaches: usize,
    accepts: usize,
}

impl ForgetfulUe {
    fn attach(ctx: &mut NodeCtx<'_>) {
        let nas = Nas::AttachRequest {
            imsi: IMSI,
            via_enb: ENB,
        };
        send(ctx, MME, wire::ATTACH_REQUEST, S1Nas { imsi: IMSI, nas });
    }
}

impl NodeHandler for ForgetfulUe {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        Self::attach(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        let Some(S1Nas { nas, .. }) = packet.payload.as_control::<S1Nas>().cloned() else {
            return; // S1AP toward the "eNB"
        };
        match nas {
            Nas::AuthenticationRequest { rand, autn, sn_id } => {
                let res = self
                    .usim
                    .authenticate(rand, autn, sn_id)
                    .expect("fresh")
                    .res;
                let nas = Nas::AuthenticationResponse { imsi: IMSI, res };
                send(ctx, MME, wire::AUTH_RESPONSE, S1Nas { imsi: IMSI, nas });
            }
            Nas::AttachAccept { .. } => self.accepts += 1,
            Nas::NetworkDetach { .. } => {
                self.detaches += 1;
                if self.detaches > self.lost {
                    Self::attach(ctx);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// An S-GW that grants every session and answers echoes, restarting
/// (losing every bearer) once at `restart_at`.
struct RestartingSgw {
    restart_at: SimTime,
}

impl NodeHandler for RestartingSgw {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(&Gtpc::CreateSessionRequest { imsi, .. }) = packet.payload.as_control::<Gtpc>()
        {
            let resp = Gtpc::CreateSessionResponse {
                imsi,
                ue_addr: Addr(UE_NET.0 | 1),
                sgw_addr: SGW,
                teid_ul_sgw: 1,
            };
            send(ctx, packet.src, wire::GTPC, resp);
        } else if let Some(&echo) = packet.payload.as_control::<GtpEcho>() {
            let restart_counter = u32::from(ctx.now >= self.restart_at);
            let reply = GtpEcho {
                restart_counter,
                is_request: false,
                ..echo
            };
            send(ctx, packet.src, 40, reply);
        }
    }
}

/// A UE at an MME whose S-GW restarts at 1.5 s, losing the first `lost`
/// detach orders: the NetworkDetach count and attach accepts at the UE,
/// and the MME's counters.
fn mme_reordering_a_detach(lost: usize) -> (usize, usize, MmeStats) {
    let mut hss = HssNode::new(PER_MSG, SimRng::new(1));
    hss.provision(IMSI, K);
    let mut mme = MmeNode::new(SN, HSS, SGW, PER_MSG);
    mme.path.enable(SGW, TICK, 3);
    let ue = ForgetfulUe {
        usim: Usim::new(IMSI, K),
        lost,
        detaches: 0,
        accepts: 0,
    };
    let restart_at = SimTime::from_millis(1500);
    let spokes: Vec<(Addr, Box<dyn NodeHandler>)> = vec![
        (ENB, Box::new(ue)),
        (HSS, Box::new(hss)),
        (SGW, Box::new(RestartingSgw { restart_at })),
    ];
    let sim = star((MME, Box::new(mme)), spokes, 30);
    let w = sim.world();
    let ue = w.handler_as::<ForgetfulUe>(1).unwrap();
    let mme = w.handler_as::<MmeNode>(0).unwrap();
    (ue.detaches, ue.accepts, mme.stats.clone())
}

#[test]
fn mme_resends_a_lost_detach_order_until_the_ue_attaches_again() {
    let (detaches, accepts, stats) = mme_reordering_a_detach(2);
    assert_eq!(stats.peer_failures, 1, "the restart was seen once");
    assert_eq!(stats.sessions_cleaned, 1);
    assert_eq!(stats.detach_retries, 2, "two copies were lost");
    assert_eq!(detaches, 3, "no re-send after the UE re-attached");
    assert_eq!((accepts, stats.attaches_completed), (2, 2));
}

#[test]
fn mme_sends_one_detach_order_when_the_first_arrives() {
    let (detaches, accepts, stats) = mme_reordering_a_detach(0);
    assert_eq!((detaches, stats.detach_retries), (1, 0));
    assert_eq!(accepts, 2);
}

/// An S-GW that creates the same IMSI's session twice (the second time as
/// after its own restart), recording each answer's UE address and uplink
/// TEID.
#[derive(Default)]
struct RecreatingSgw(Vec<(Addr, u32)>);

impl RecreatingSgw {
    fn create(ctx: &mut NodeCtx<'_>, teid_dl_sgw: u32) {
        let sgw_addr = SGW;
        let req = S5::CreateRequest {
            imsi: IMSI,
            sgw_addr,
            teid_dl_sgw,
        };
        send(ctx, PGW, wire::GTPC, req);
    }
}

impl NodeHandler for RecreatingSgw {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        Self::create(ctx, 0x10);
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(&S5::CreateResponse {
            ue_addr,
            teid_ul_pgw,
            ..
        }) = packet.payload.as_control::<S5>()
        {
            self.0.push((ue_addr, teid_ul_pgw));
            if self.0.len() == 1 {
                Self::create(ctx, 0x20);
            }
        }
    }
}

fn pgw_recreating_a_session() -> (Vec<(Addr, u32)>, PgwStats, PgwAudit) {
    let pgw = PgwNode::new(AddrPool::new(Prefix::new(UE_NET, 24)), PER_MSG);
    let spokes: Vec<(Addr, Box<dyn NodeHandler>)> = vec![(SGW, Box::new(RecreatingSgw::default()))];
    let sim = star((PGW, Box::new(pgw)), spokes, 1);
    let w = sim.world();
    let pgw = w.handler_as::<PgwNode>(0).unwrap();
    let sgw = w.handler_as::<RecreatingSgw>(1).unwrap();
    (sgw.0.clone(), pgw.stats.clone(), pgw.audit())
}

#[test]
fn pgw_recreate_keeps_the_ue_address() {
    let (answers, stats, audit) = pgw_recreating_a_session();
    let [(first_addr, first_teid), (second_addr, second_teid)] = answers[..] else {
        panic!("two answers, got {answers:?}");
    };
    assert_eq!(second_addr, first_addr, "the UE keeps its address");
    assert_ne!(second_teid, first_teid, "the tunnel is re-pointed");
    assert_eq!((stats.sessions, stats.sessions_reestablished), (1, 1));
    assert_eq!(audit.sessions.len(), 1);
    let s = &audit.sessions[0];
    assert_eq!((s.teid_dl_sgw, s.teid_ul_pgw), (0x20, second_teid));
    assert!(s.indexed);
    assert_eq!((audit.ul_index_len, audit.imsi_index_len), (1, 1));
}
