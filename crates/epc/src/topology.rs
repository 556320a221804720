//! Ready-made centralized-LTE topologies.
//!
//! Builds the reference network of Figure 1's left half:
//!
//! ```text
//!  UE ~~radio~~ eNB --backhaul-- Ragg --wan(epc)-- Repc --- MME/SGW/PGW/HSS
//!                                                    \--wan(inet)-- Rinet -- OTT
//! ```
//!
//! Every user packet tunnels eNB → S-GW → P-GW before reaching the Internet;
//! every control event serializes through the shared MME/HSS.
//! [`CentralizedLteBuilder`] is the centralized lowering of
//! `dlte::scenario::Deployment`, the one description of a network of either
//! architecture: the deployment fills in its fields, so a comparison never
//! names this builder. Both lowerings add their UEs through [`add_ues`], so
//! a UE's cells, plan and radio links are set up the same way whichever
//! core it attaches to.

use crate::enb::EnbNode;
use crate::hss::HssNode;
use crate::messages::SnId;
use crate::mme::MmeNode;
use crate::pgw::PgwNode;
use crate::sgw::SgwNode;
use crate::ue::{CellAttachment, MobilityMode, UeApp, UeNode};
use dlte_auth::usim::Usim;
use dlte_auth::{Imsi, Key};
use dlte_net::handlers::EchoServer;
use dlte_net::{
    Addr, AddrPool, LinkConfig, LinkId, Network, NetworkBuilder, NodeHandler, NodeId, Prefix,
};
use dlte_sim::{SimDuration, SimRng, SimTime, Simulation};

/// Per-UE experiment plan, for either architecture's builder; the builder
/// picks the mobility procedure.
pub struct UePlan {
    pub app: UeApp,
    /// (when, cell index) cell changes.
    pub schedule: Vec<(SimTime, usize)>,
}

impl Default for UePlan {
    fn default() -> Self {
        UePlan {
            app: UeApp::None,
            schedule: Vec::new(),
        }
    }
}

/// The knobs of the centralized core. A dLTE network has no EPC and reads
/// none of them.
#[derive(Clone, Copy, Debug)]
pub struct EpcConfig {
    /// Aggregation ↔ EPC-site distance (one-way delay).
    pub epc_delay: SimDuration,
    /// eNB inactivity timeout before S1 release to ECM-IDLE (None =
    /// always-connected).
    pub enb_idle_timeout: Option<SimDuration>,
    /// Run GTP-U echo path management (MME→S-GW, S-GW→P-GW). Off by
    /// default: fault-free experiments keep an identical event stream.
    pub path_mgmt: bool,
}

impl Default for EpcConfig {
    fn default() -> Self {
        EpcConfig {
            epc_delay: SimDuration::from_millis(15),
            enb_idle_timeout: None,
            path_mgmt: false,
        }
    }
}

/// Builder for the centralized reference network.
pub struct CentralizedLteBuilder {
    n_enb: usize,
    ues_per_enb: usize,
    pub seed: u64,
    /// EPC-site ↔ Internet-core distance.
    pub inet_delay: SimDuration,
    /// Wire every UE to every eNB (needed for mobility experiments).
    pub wire_all_cells: bool,
    pub epc: EpcConfig,
    ue_plan: Box<dyn Fn(usize) -> UePlan>,
}

/// The built network and its interesting node ids (and the links fault
/// injection most wants to break).
pub struct CentralizedLteNet {
    pub sim: Simulation<Network>,
    pub ues: Vec<NodeId>,
    /// The aggregation router every backhaul ends at.
    pub r_agg: NodeId,
    pub enbs: Vec<NodeId>,
    pub mme: NodeId,
    pub sgw: NodeId,
    pub pgw: NodeId,
    pub hss: NodeId,
    pub ott: NodeId,
    /// Per-eNB backhaul link (eNB ↔ aggregation router), by eNB index.
    pub enb_backhaul: Vec<dlte_net::LinkId>,
    /// Aggregation ↔ EPC-site WAN link (the backhaul trunk every eNB
    /// shares toward the core).
    pub l_agg_epc: dlte_net::LinkId,
}

impl CentralizedLteBuilder {
    /// Most eNBs one network holds: one address octet numbers them.
    pub const MAX_ENBS: usize = 256;
    /// Ids [`Self::build`] assigns whatever the eNB count, UE count or
    /// seed: the routers, the OTT server and the EPC come first in a fixed
    /// order, then each eNB with its backhaul link ([`Self::enb_backhaul`]).
    /// Fault injection reads them without a build; `build` asserts them.
    pub const SGW: NodeId = 5;
    pub const PGW: NodeId = 6;
    /// The aggregation ↔ EPC-site trunk ([`CentralizedLteNet::l_agg_epc`]).
    pub const L_AGG_EPC: LinkId = 0;
    /// Per-message processing time of the MME, the HSS and each gateway.
    const MME_PER_MSG: SimDuration = SimDuration::from_micros(500);
    const HSS_PER_MSG: SimDuration = SimDuration::from_micros(300);
    const GW_PER_MSG: SimDuration = SimDuration::from_micros(100);
    /// Echo interval of path management, and the missed echoes after which
    /// a peer is declared dead.
    const PATH_INTERVAL: SimDuration = SimDuration::from_millis(500);
    const PATH_MISSES: u32 = 2;
    /// Serving-network id the MME binds authentication vectors to.
    const SN_ID: SnId = 51089;

    /// Backhaul link id of eNB `e`, after the seven core links.
    pub fn enb_backhaul(e: usize) -> LinkId {
        7 + e
    }

    pub fn new(n_enb: usize, ues_per_enb: usize) -> Self {
        CentralizedLteBuilder {
            n_enb,
            ues_per_enb,
            seed: 1,
            inet_delay: SimDuration::from_millis(10),
            wire_all_cells: false,
            epc: EpcConfig::default(),
            ue_plan: Box::new(|_| UePlan::default()),
        }
    }

    /// Set the per-UE plan factory.
    pub fn with_ue_plan(mut self, f: impl Fn(usize) -> UePlan + 'static) -> Self {
        self.ue_plan = Box::new(f);
        self
    }

    /// Well-known addresses.
    pub fn ott_addr() -> Addr {
        Addr::new(8, 8, 8, 8)
    }

    pub fn ue_pool_prefix() -> Prefix {
        Prefix::new(Addr::new(100, 64, 0, 0), 16)
    }

    /// IMSI of UE index `i` and its (deterministic) key.
    pub fn imsi_of(i: usize) -> Imsi {
        1_000 + i as Imsi
    }

    pub fn key_of(i: usize) -> Key {
        0x5EED_0000_0000_0000_0000_0000_0000_0000 | i as u128
    }

    pub fn build(self) -> CentralizedLteNet {
        let mut b = NetworkBuilder::new(self.seed);
        let rng = SimRng::new(self.seed ^ 0xE9C);

        // Core routers.
        let r_agg = b.node("r-agg");
        let r_epc = b.node("r-epc");
        let r_inet = b.node("r-inet");
        let l_agg_epc = b.link(r_agg, r_epc, LinkConfig::wan(self.epc.epc_delay));
        let l_epc_inet = b.link(r_epc, r_inet, LinkConfig::wan(self.inet_delay));

        // OTT echo service.
        let ott = b.host("ott", Box::new(EchoServer::new()));
        b.addr(ott, Self::ott_addr());
        let l_inet_ott = b.link(r_inet, ott, LinkConfig::lan());

        // EPC entities.
        let mme_addr = Addr::new(10, 255, 0, 1);
        let sgw_addr = Addr::new(10, 255, 0, 2);
        let pgw_addr = Addr::new(10, 255, 0, 3);
        let hss_addr = Addr::new(10, 255, 0, 4);
        let mut hss_node = HssNode::new(Self::HSS_PER_MSG, rng.fork("hss"));
        let total_ues = self.n_enb * self.ues_per_enb;
        for i in 0..total_ues {
            hss_node.provision(Self::imsi_of(i), Self::key_of(i));
        }
        let mut mme_node = MmeNode::new(Self::SN_ID, hss_addr, sgw_addr, Self::MME_PER_MSG);
        if self.epc.path_mgmt {
            mme_node
                .path
                .enable(sgw_addr, Self::PATH_INTERVAL, Self::PATH_MISSES);
        }
        let mme = b.host("mme", Box::new(mme_node));
        b.addr(mme, mme_addr);
        let mut sgw_node = SgwNode::new(pgw_addr, Self::GW_PER_MSG);
        sgw_node.mme_addr = mme_addr;
        if self.epc.path_mgmt {
            sgw_node
                .path
                .enable(pgw_addr, Self::PATH_INTERVAL, Self::PATH_MISSES);
        }
        let sgw = b.host("sgw", Box::new(sgw_node));
        b.addr(sgw, sgw_addr);
        let pgw = b.host(
            "pgw",
            Box::new(PgwNode::new(
                AddrPool::new(Self::ue_pool_prefix()),
                Self::GW_PER_MSG,
            )),
        );
        b.addr(pgw, pgw_addr);
        let hss = b.host("hss", Box::new(hss_node));
        b.addr(hss, hss_addr);
        b.link(r_epc, mme, LinkConfig::lan());
        b.link(r_epc, sgw, LinkConfig::lan());
        let l_epc_pgw = b.link(r_epc, pgw, LinkConfig::lan());
        b.link(r_epc, hss, LinkConfig::lan());
        assert_eq!(
            (l_agg_epc, sgw, pgw),
            (Self::L_AGG_EPC, Self::SGW, Self::PGW),
            "EPC ids"
        );

        // eNBs, each with its control address.
        let mut cells = Vec::new();
        let mut enb_backhaul = Vec::new();
        for e in 0..self.n_enb {
            // One octet numbers the eNBs: past it, addresses would repeat.
            assert!(e < Self::MAX_ENBS, "eNB address space exhausted (e={e})");
            let addr = Addr::new(10, 1, e as u8, 1);
            let mut enb_node = EnbNode::new(mme_addr);
            enb_node.idle_timeout = self.epc.enb_idle_timeout;
            let enb = b.host(format!("enb{e}"), Box::new(enb_node));
            b.addr(enb, addr);
            let backhaul = b.link(enb, r_agg, LinkConfig::rural_backhaul());
            assert_eq!(backhaul, Self::enb_backhaul(e), "eNB {e} backhaul id");
            enb_backhaul.push(backhaul);
            cells.push((enb, addr));
        }

        let pop = add_ues(
            &mut b,
            &cells,
            self.ues_per_enb,
            self.wire_all_cells,
            MobilityMode::PathSwitch,
            |i| {
                let usim = Usim::new(Self::imsi_of(i), Self::key_of(i));
                (usim, (self.ue_plan)(i))
            },
        );

        // Infrastructure routing (host routes to every addressed node).
        b.auto_routes();
        // UE pool routing: downlink lands at the P-GW.
        b.route(r_inet, Self::ue_pool_prefix(), l_epc_inet);
        b.route(r_epc, Self::ue_pool_prefix(), l_epc_pgw);
        b.route(r_agg, Self::ue_pool_prefix(), l_agg_epc);
        // OTT default route (replies to dynamically allocated UE addresses).
        b.route(ott, Prefix::DEFAULT, l_inet_ott);

        let mut sim = b.build();
        pop.wire::<EnbNode>(sim.world_mut());
        CentralizedLteNet {
            sim,
            ues: pop.ues,
            r_agg,
            enbs: cells.iter().map(|&(enb, _)| enb).collect(),
            mme,
            sgw,
            pgw,
            hss,
            ott,
            enb_backhaul,
            l_agg_epc,
        }
    }
}

/// Every UE's radio link, in either architecture: a fixed 20 Mb/s pipe
/// with LTE's classic 5 ms one-way user-plane latency.
const RADIO_LINK: LinkConfig = LinkConfig {
    delay: SimDuration::from_millis(5),
    rate_bps: 20e6,
    queue_pkts: 300,
    loss: 0.0,
};

/// Pre-attach control address of UE `i`, where its cell relays NAS
/// (172.16.0.0/12-ish space; the first 62 500 UEs keep their historical
/// `172.16.(i/250).(i%250+1)`).
fn ue_ctrl_addr(i: usize) -> Addr {
    assert!(i < 14_937_500, "UE control address space exhausted (i={i})");
    Addr::new(
        172,
        (16 + i / 62_500) as u8,
        ((i / 250) % 250) as u8,
        (i % 250) as u8 + 1,
    )
}

/// A node that serves UEs over radio links: an eNB or a dLTE AP.
pub trait CellHandler: NodeHandler {
    /// Wire a UE's radio link (done at build for every UE that can ever
    /// camp on this cell). `ue_ctrl` is the UE's NAS-relay address.
    fn wire_ue(&mut self, imsi: Imsi, link: LinkId, ue_ctrl: Addr);
}

/// The UEs [`add_ues`] put into a network under construction.
pub struct UePopulation {
    pub ues: Vec<NodeId>,
    /// Every radio link: its cell, the UE's IMSI, the link, the UE's
    /// control address.
    radios: Vec<(NodeId, Imsi, LinkId, Addr)>,
}

impl UePopulation {
    /// Wire every radio link into its cell, whose handler is a `C`, once
    /// the network is built.
    pub fn wire<C: CellHandler>(&self, net: &mut Network) {
        for &(cell, imsi, link, ue_ctrl) in &self.radios {
            net.handler_as_mut::<C>(cell)
                .expect("cell handler")
                .wire_ue(imsi, link, ue_ctrl);
        }
    }
}

/// Add the UE population of either architecture: `ues_per_cell` UEs per
/// cell of `cells` (node and control address, by cell index), UE `i` at
/// home in cell `i / ues_per_cell`. A UE camps on its home cell at start,
/// so that cell comes first in its list, then, with `wire_all_cells`, every
/// other cell in index order, each over its own radio link (a fixed
/// 20 Mb/s pipe); a schedule's cell indices are positions in this list.
/// `ue(i)` is UE `i`'s USIM and plan, and `mode` the architecture's
/// mobility procedure.
pub fn add_ues(
    b: &mut NetworkBuilder,
    cells: &[(NodeId, Addr)],
    ues_per_cell: usize,
    wire_all_cells: bool,
    mode: MobilityMode,
    ue: impl Fn(usize) -> (Usim, UePlan),
) -> UePopulation {
    let mut pop = UePopulation {
        ues: Vec::new(),
        radios: Vec::new(),
    };
    for i in 0..cells.len() * ues_per_cell {
        let (usim, plan) = ue(i);
        let home = i / ues_per_cell;
        let ue_ctrl = ue_ctrl_addr(i);
        let node = b.node(format!("ue{i}"));
        let reach = if wire_all_cells { cells.len() } else { 0 };
        let others = (0..reach).filter(|&c| c != home);
        let attachments = std::iter::once(home)
            .chain(others)
            .map(|c| {
                let (cell, enb_addr) = cells[c];
                let radio_link = b.link(node, cell, RADIO_LINK);
                pop.radios.push((cell, usim.imsi, radio_link, ue_ctrl));
                CellAttachment {
                    enb_addr,
                    radio_link,
                }
            })
            .collect();
        let ue_node =
            UeNode::new(usim.imsi, usim, attachments, plan.app).with_mobility(mode, plan.schedule);
        b.set_handler(node, Box::new(ue_node));
        pop.ues.push(node);
    }
    pop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mme::MmeNode;
    use crate::sgw::SgwNode;
    use crate::ue::{UeNode, UeState};
    use dlte_net::Addr;

    #[test]
    fn single_ue_attaches_end_to_end() {
        let mut net = CentralizedLteBuilder::new(1, 1).build();
        net.sim.run_until(SimTime::from_secs(5), 1_000_000);
        let w = net.sim.world();
        let ue = w.handler_as::<UeNode>(net.ues[0]).expect("ue");
        assert_eq!(ue.state, UeState::Attached);
        assert!(ue.addr.is_some());
        assert!(
            CentralizedLteBuilder::ue_pool_prefix().contains(ue.addr.unwrap()),
            "address from the P-GW pool"
        );
        assert_eq!(ue.stats.attaches_completed, 1);
        let mme = w.handler_as::<MmeNode>(net.mme).unwrap();
        assert_eq!(mme.stats.attaches_completed, 1);
        assert_eq!(mme.active_ues(), 1);
        // Attach latency is bounded by a handful of control RTTs over the
        // radio + backhaul + EPC distance (~6 legs × ~30 ms).
        let lat = ue.stats.attach_latency_ms.values()[0];
        assert!((50.0..500.0).contains(&lat), "attach latency {lat} ms");
    }

    #[test]
    fn attached_ue_pings_ott_through_tunnels() {
        let mut net = CentralizedLteBuilder::new(1, 1)
            .with_ue_plan(|_| UePlan {
                app: UeApp::Pinger {
                    dst: CentralizedLteBuilder::ott_addr(),
                    interval: SimDuration::from_millis(200),
                    probe_bytes: 100,
                },
                schedule: vec![],
            })
            .build();
        net.sim.run_until(SimTime::from_secs(5), 2_000_000);
        let w = net.sim.world();
        let ue = w.handler_as::<UeNode>(net.ues[0]).unwrap();
        assert!(ue.stats.pongs > 15, "pongs {}", ue.stats.pongs);
        // RTT must include the EPC detour: radio 5 + backhaul 10 + epc 15 +
        // inet 10 + lan ≈ 40 ms one-way ⇒ ≥ 80 ms RTT.
        let rtts = &ue.stats.rtt_ms;
        let med = rtts.median();
        assert!((80.0..120.0).contains(&med), "median RTT {med} ms");
        // User plane actually traversed the gateways.
        let sgw = w.handler_as::<crate::sgw::SgwNode>(net.sgw).unwrap();
        assert!(sgw.stats.ul_packets > 15);
        assert!(sgw.stats.dl_packets > 15);
        let pgw = w.handler_as::<crate::pgw::PgwNode>(net.pgw).unwrap();
        assert!(pgw.stats.ul_packets > 15);
        assert!(pgw.stats.dl_packets > 15);
    }

    /// eNB 256 would wrap its address's octet onto eNB 0's.
    #[test]
    #[should_panic(expected = "eNB address space exhausted (e=256)")]
    fn enb_past_the_address_octet_panics() {
        CentralizedLteBuilder::new(257, 1).build();
    }

    #[test]
    fn many_ues_all_attach() {
        let mut net = CentralizedLteBuilder::new(2, 5).build();
        net.sim.run_until(SimTime::from_secs(10), 5_000_000);
        let w = net.sim.world();
        for &ue_id in &net.ues {
            let ue = w.handler_as::<UeNode>(ue_id).unwrap();
            assert_eq!(ue.state, UeState::Attached, "ue {ue_id}");
        }
        let mme = w.handler_as::<MmeNode>(net.mme).unwrap();
        assert_eq!(mme.stats.attaches_completed, 10);
    }

    #[test]
    fn idle_mode_releases_and_uplink_reactivates() {
        // A slow pinger (2 s period) against a 500 ms inactivity timeout:
        // the eNB releases the UE between probes; each probe then triggers
        // a service request and the ping still completes.
        let mut builder = CentralizedLteBuilder::new(1, 1);
        builder.epc.enb_idle_timeout = Some(SimDuration::from_millis(500));
        let mut net = builder
            .with_ue_plan(|_| UePlan {
                app: UeApp::Pinger {
                    dst: CentralizedLteBuilder::ott_addr(),
                    interval: SimDuration::from_secs(2),
                    probe_bytes: 100,
                },
                schedule: vec![],
            })
            .build();
        net.sim.run_until(SimTime::from_secs(10), 10_000_000);
        let w = net.sim.world();
        let ue = w.handler_as::<UeNode>(net.ues[0]).unwrap();
        assert_eq!(ue.state, UeState::Attached);
        assert!(
            ue.stats.rrc_releases >= 2,
            "releases {}",
            ue.stats.rrc_releases
        );
        assert!(
            ue.stats.service_requests >= 2,
            "service requests {}",
            ue.stats.service_requests
        );
        assert!(
            ue.stats.pongs >= 3,
            "pings still complete: {}",
            ue.stats.pongs
        );
        let mme = w.handler_as::<MmeNode>(net.mme).unwrap();
        assert!(mme.stats.s1_releases >= 2);
        let enb = w.handler_as::<crate::enb::EnbNode>(net.enbs[0]).unwrap();
        assert!(enb.stats.idle_releases_requested >= 2);
        // No paging needed: reactivations were uplink-triggered.
        assert_eq!(mme.stats.pages_sent, 0);
    }

    #[test]
    fn downlink_to_idle_ue_buffers_and_pages() {
        // UE0 has no app; UE1 sends one packet per second *to UE0's
        // address* against a 200 ms inactivity timeout, so UE0 re-idles
        // between packets. Every packet must be buffered at the S-GW,
        // trigger a notification + page, and flow after reactivation.
        let mut builder = CentralizedLteBuilder::new(1, 2);
        builder.epc.enb_idle_timeout = Some(SimDuration::from_millis(200));
        let mut net = builder
            .with_ue_plan(|i| UePlan {
                app: if i == 1 {
                    UeApp::UplinkCbr {
                        // Deterministic: UE0 attaches first and draws the
                        // pool's first address.
                        dst: Addr::new(100, 64, 0, 1),
                        rate_bps: 4_000.0, // 500 B → one packet per second
                        packet_bytes: 500,
                    }
                } else {
                    UeApp::None
                },
                schedule: vec![],
            })
            .build();
        net.sim.run_until(SimTime::from_secs(8), 20_000_000);
        let w = net.sim.world();
        let ue0 = w.handler_as::<UeNode>(net.ues[0]).unwrap();
        assert_eq!(ue0.addr, Some(Addr::new(100, 64, 0, 1)), "pool determinism");
        let sgw = w.handler_as::<SgwNode>(net.sgw).unwrap();
        assert!(sgw.stats.bearers_released >= 2, "UE0 went idle repeatedly");
        assert!(sgw.stats.ddn_sent >= 3, "downlink raised notifications");
        assert!(sgw.stats.buffered >= 3, "packets buffered while idle");
        assert!(
            sgw.stats.buffer_flushed >= 3,
            "buffers flushed after paging"
        );
        let mme = w.handler_as::<MmeNode>(net.mme).unwrap();
        assert!(mme.stats.pages_sent >= 3, "MME paged");
        assert!(ue0.stats.pages_received >= 3, "UE heard the pages");
        // The stream actually reached UE0 (delivered to its local sink).
        let delivered = w
            .trace()
            .flow(CentralizedLteBuilder::imsi_of(1))
            .map(|f| f.delivered_packets)
            .unwrap_or(0);
        assert!(delivered >= 4, "CBR delivered {delivered}");
    }

    #[test]
    fn sgw_crash_detected_by_path_mgmt_and_sessions_recover() {
        // Two pinging UEs; the S-GW crashes at 3 s and restarts at 6 s.
        // Path management (500 ms echoes, 2 misses) must detect the death,
        // the MME must clean both sessions and detach the UEs, and both
        // must re-attach once the S-GW is back — keeping their addresses,
        // because the P-GW never lost the IMSI→address binding.
        let mut builder = CentralizedLteBuilder::new(1, 2);
        builder.epc.path_mgmt = true;
        let mut net = builder
            .with_ue_plan(|_| UePlan {
                app: UeApp::Pinger {
                    dst: CentralizedLteBuilder::ott_addr(),
                    interval: SimDuration::from_millis(200),
                    probe_bytes: 100,
                },
                schedule: vec![],
            })
            .build();
        net.sim.run_until(SimTime::from_secs(3), 5_000_000);
        let addrs_before: Vec<_> = net
            .ues
            .iter()
            .map(|&u| net.sim.world().handler_as::<UeNode>(u).unwrap().addr)
            .collect();
        assert!(addrs_before.iter().all(|a| a.is_some()));
        let now = net.sim.now();
        net.sim.queue_mut().schedule_at(
            now,
            dlte_net::NetEvent::Fault(dlte_net::NetFault::NodeDown { node: net.sgw }),
        );
        net.sim.queue_mut().schedule_at(
            SimTime::from_secs(6),
            dlte_net::NetEvent::Fault(dlte_net::NetFault::NodeUp { node: net.sgw }),
        );
        net.sim.run_until(SimTime::from_secs(14), 20_000_000);
        let w = net.sim.world();
        let mme = w.handler_as::<MmeNode>(net.mme).unwrap();
        assert!(mme.stats.peer_failures >= 1, "death detected");
        assert!(mme.stats.sessions_cleaned >= 2, "both sessions cleaned");
        for (i, &ue_id) in net.ues.iter().enumerate() {
            let ue = w.handler_as::<UeNode>(ue_id).unwrap();
            assert!(ue.stats.network_detaches >= 1, "ue{i} was detached");
            assert_eq!(ue.state, UeState::Attached, "ue{i} recovered");
            assert!(
                ue.stats.attaches_completed >= 2,
                "ue{i} re-attached: {}",
                ue.stats.attaches_completed
            );
            assert_eq!(ue.addr, addrs_before[i], "ue{i} kept its address");
            assert!(ue.stats.pongs > 20, "ue{i} traffic resumed");
        }
        let pgw = w.handler_as::<crate::pgw::PgwNode>(net.pgw).unwrap();
        assert!(
            pgw.stats.sessions_reestablished >= 2,
            "P-GW re-created in place: {}",
            pgw.stats.sessions_reestablished
        );
    }

    #[test]
    fn sgw_restart_bounces_stale_tunnels_via_error_indication() {
        // No path management at all: a fast S-GW blip (crash at 3 s, back
        // at 3.2 s) leaves every eNB tunneling into a box with no bearer
        // state. Recovery must come from GTP-U error indications: S-GW
        // bounces the unknown TEID, the eNB tears the context down and
        // detaches the UE, and the re-attach rebuilds the chain.
        let mut net = CentralizedLteBuilder::new(1, 1)
            .with_ue_plan(|_| UePlan {
                app: UeApp::Pinger {
                    dst: CentralizedLteBuilder::ott_addr(),
                    interval: SimDuration::from_millis(200),
                    probe_bytes: 100,
                },
                schedule: vec![],
            })
            .build();
        net.sim.queue_mut().schedule_at(
            SimTime::from_secs(3),
            dlte_net::NetEvent::Fault(dlte_net::NetFault::NodeDown { node: net.sgw }),
        );
        net.sim.queue_mut().schedule_at(
            SimTime::from_millis(3_200),
            dlte_net::NetEvent::Fault(dlte_net::NetFault::NodeUp { node: net.sgw }),
        );
        net.sim.run_until(SimTime::from_secs(8), 20_000_000);
        let w = net.sim.world();
        let sgw = w.handler_as::<SgwNode>(net.sgw).unwrap();
        assert_eq!(sgw.restart_counter, 1);
        assert!(sgw.stats.error_indications_sent >= 1, "stale TEID bounced");
        let enb = w.handler_as::<crate::enb::EnbNode>(net.enbs[0]).unwrap();
        assert!(enb.stats.error_indication_releases >= 1);
        let ue = w.handler_as::<UeNode>(net.ues[0]).unwrap();
        assert!(ue.stats.network_detaches >= 1);
        assert_eq!(ue.state, UeState::Attached, "recovered");
        assert_eq!(ue.stats.attaches_completed, 2);
        assert_eq!(ue.addr, Some(Addr::new(100, 64, 0, 1)), "address kept");
        assert!(ue.stats.pongs > 15, "traffic resumed: {}", ue.stats.pongs);
    }

    #[test]
    fn path_switch_handover_preserves_address_and_resumes_traffic() {
        let mut builder = CentralizedLteBuilder::new(2, 1);
        builder.wire_all_cells = true;
        let mut net = builder
            .with_ue_plan(|_| UePlan {
                app: UeApp::Pinger {
                    dst: CentralizedLteBuilder::ott_addr(),
                    interval: SimDuration::from_millis(50),
                    probe_bytes: 100,
                },
                schedule: vec![(SimTime::from_secs(3), 1)],
            })
            .build();
        // The plan moves both UEs to cell index 1 of their own lists (home
        // first): UE 0 to enb1, UE 1 to enb0. The checks read UE 0.
        net.sim.run_until(SimTime::from_secs(8), 5_000_000);
        let w = net.sim.world();
        let ue = w.handler_as::<UeNode>(net.ues[0]).unwrap();
        assert_eq!(ue.state, UeState::Attached);
        assert_eq!(
            ue.stats.attaches_completed, 1,
            "path switch must not re-attach"
        );
        assert!(!ue.stats.handover_gap_ms.is_empty(), "gap recorded");
        let mme = w.handler_as::<MmeNode>(net.mme).unwrap();
        assert!(mme.stats.handovers_completed >= 1);
        // Traffic resumed: pongs before and after the move.
        assert!(ue.stats.pongs > 50, "pongs {}", ue.stats.pongs);
    }
}
