//! Networks of either architecture, described once.
//!
//! Figure 1 draws both architectures on one access network; only where
//! the core sits differs:
//!
//! ```text
//!  centralized: UE ~~radio~~ eNB --backhaul-- Ragg --wan-- Repc -- MME/SGW/PGW/HSS
//!                                                           Repc --wan-- Rinet -- OTT
//!  dLTE:        UE ~~radio~~ AP(local core + X2) --backhaul-- Ragg --wan-- Rinet -- OTT
//!                                                                          Rinet -- DIR
//! ```
//!
//! A [`Deployment`] is the one description of such a network: its
//! architecture, its shape, the UE and move plans, and each core's knobs.
//! [`Deployment::build`] lowers it, through
//! [`dlte_epc::topology::CentralizedLteBuilder`] or through the dLTE
//! lowering here, into a [`Deployed`]: the one handle through which a
//! comparison runs, faults and reads either arm. The deployment also names
//! the ids its lowering assigns ([`Deployment::fault_targets`]), so a fault
//! plan is written without a build.
//!
//! The dLTE network has no EPC site and no tunnels: the AP forwards native
//! IP at the aggregation point (local breakout), and the only wide-area
//! control dependencies are the published key directory (first attach per
//! AP, then cached) and the X2 reports between peer APs — the neighbours
//! the open registry names for each AP's grant
//! ([`Deployment::x2_neighbors`]), not every AP in the deployment.

use crate::ap::DlteApNode;
use crate::mobility::cell_schedule;
use dlte_auth::open::PublishedKeyDirectory;
use dlte_auth::usim::Usim;
use dlte_auth::{Imsi, Key};
use dlte_epc::local_core::{KeyDirectoryNode, KeySource, LocalCoreNode};
use dlte_epc::topology::{add_ues, CentralizedLteBuilder, CentralizedLteNet, EpcConfig, UePlan};
use dlte_epc::ue::{MobilityMode, UeNode};
use dlte_faults::{ChaosTargets, MovePlan};
use dlte_net::handlers::EchoServer;
use dlte_net::{Addr, AddrPool, LinkConfig, LinkId, NetworkBuilder, NodeId, Prefix, ShardedSim};
use dlte_phy::band::Band;
use dlte_registry::{ChannelPlan, GrantRequest, LicenseGrant, Point, SpectrumRegistry};
use dlte_sim::{SimDuration, SimRng, SimTime};
use dlte_transport::connection::TransportConfig;
use dlte_transport::handlers::TransportServerNode;
use dlte_x2::{CoordinationMode, X2Agent};
use serde::{Deserialize, Serialize};

/// Per-UE plan for dLTE scenarios: the centralized builder's plan, since
/// the lowering, not the plan, picks the mobility procedure.
pub type DltePlan = UePlan;

/// Where APs get subscriber keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeyDistribution {
    /// Registry copy synced to every AP ahead of time (zero attach RTTs).
    PreSynced,
    /// Remote directory queried on first sight of an IMSI, then cached.
    RemoteDirectory,
}

/// Co-channel APs per town in the dLTE site plan
/// ([`Deployment::x2_neighbors`]): the paper's rural-town deployment, and
/// the largest row of E11's X2 overhead table.
pub const APS_PER_TOWN: usize = 8;

/// Which architecture a network is built as.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arch {
    Centralized,
    Dlte,
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arch::Centralized => write!(f, "centralized"),
            Arch::Dlte => write!(f, "dlte"),
        }
    }
}

/// The one description of a network of either architecture. Each knob
/// names the architecture that reads it; the other lowering ignores it.
pub struct Deployment {
    arch: Arch,
    /// eNBs (centralized) or APs (dLTE).
    n_cells: usize,
    /// UEs homed at each cell: UE `i` starts in cell `i / ues_per_cell`.
    ues_per_cell: usize,
    pub seed: u64,
    /// Both: one-way delay to the Internet core, from the EPC site
    /// (centralized) or from the aggregation point (dLTE: the paper's
    /// backhaul to the nearest exchange).
    pub inet_delay: SimDuration,
    /// Both: wire every UE to every cell (mobility). A non-empty `moves`
    /// implies it.
    pub wire_all_cells: bool,
    /// Both: the population's movement plan (cell indices). Each UE whose
    /// [`UePlan`] scripts no schedule of its own follows its share
    /// ([`cell_schedule`]). Empty = static UEs.
    pub moves: MovePlan,
    /// Centralized: the EPC's knobs.
    pub epc: EpcConfig,
    /// dLTE: where the APs get subscriber keys.
    pub keys: KeyDistribution,
    /// dLTE: how the APs share the channel over X2.
    pub x2_mode: CoordinationMode,
    /// dLTE: the OTT transport server's configuration.
    pub transport_cfg: TransportConfig,
    /// dLTE: provision inter-AP mesh links and backhaul failover (§7
    /// extension).
    pub mesh: bool,
    /// dLTE: fetch roaming subscriber contexts from peer APs over X2
    /// before falling back to the wide-area directory (the dLTE X2
    /// handover arm).
    pub x2_context_fetch: bool,
    ue_plan: Box<dyn Fn(usize) -> UePlan>,
}

impl Deployment {
    /// Per-message processing time of an AP's local core and of the key
    /// directory.
    const STUB_PER_MSG: SimDuration = SimDuration::from_micros(500);
    const DIR_PER_MSG: SimDuration = SimDuration::from_micros(300);
    /// How often an AP reports its load to its X2 peers.
    const X2_INTERVAL: SimDuration = SimDuration::from_millis(500);
    /// Most APs one network holds: past it, [`Self::ap_pool`] would leave
    /// the CGNAT space.
    const MAX_APS: usize = 15_872;

    pub fn new(arch: Arch, n_cells: usize, ues_per_cell: usize) -> Self {
        Deployment {
            arch,
            n_cells,
            ues_per_cell,
            seed: 1,
            inet_delay: SimDuration::from_millis(10),
            wire_all_cells: false,
            moves: MovePlan::default(),
            epc: EpcConfig::default(),
            keys: KeyDistribution::PreSynced,
            x2_mode: CoordinationMode::FairShare,
            transport_cfg: TransportConfig::modern(),
            mesh: false,
            x2_context_fetch: false,
            ue_plan: Box::new(|_| UePlan::default()),
        }
    }

    pub fn with_ue_plan(mut self, f: impl Fn(usize) -> UePlan + 'static) -> Self {
        self.ue_plan = Box::new(f);
        self
    }

    /// Build with the process-wide shard setting ([`dlte_sim::shards`],
    /// i.e. the runner's `--shards` knob). The default is one shard —
    /// classic single-engine execution.
    pub fn build(self) -> Deployed {
        let n = dlte_sim::shards();
        self.build_sharded(n)
    }

    /// Build on `n` engine shards, bit-identically at any `n`. A
    /// centralized network always runs on one engine; a dLTE network is
    /// partitioned by AP cluster, each UE on its home AP's shard. This is
    /// the one place that picks a lowering, and the one place the move
    /// plan is merged into the UE plans.
    pub fn build_sharded(mut self, n: usize) -> Deployed {
        self.wire_all_cells |= !self.moves.is_empty();
        let ue_plan = std::mem::replace(&mut self.ue_plan, Box::new(|_| UePlan::default()));
        let moves = std::mem::take(&mut self.moves);
        let (n_cells, ues_per_cell) = (self.n_cells, self.ues_per_cell);
        let plan = move |i| {
            let mut plan = ue_plan(i);
            if plan.schedule.is_empty() {
                plan.schedule = cell_schedule(&moves, i, i / ues_per_cell, n_cells);
            }
            plan
        };
        match self.arch {
            Arch::Centralized => {
                let mut b = CentralizedLteBuilder::new(n_cells, ues_per_cell);
                b.seed = self.seed;
                b.inet_delay = self.inet_delay;
                b.wire_all_cells = self.wire_all_cells;
                b.epc = self.epc;
                b.with_ue_plan(plan).build().into()
            }
            Arch::Dlte => self.lower_dlte(n, plan),
        }
    }

    /// The fault-injection handles of the ids the lowering assigns: every
    /// cell's backhaul link and, centralized, the trunk toward the EPC site
    /// (`links`), the S-GW and the P-GW (`crashable`). Ids follow build
    /// order, so they depend only on the architecture, the cell count and
    /// (dLTE) whether a key directory is built; the lowerings assert them,
    /// so reading them builds nothing.
    pub fn fault_targets(&self) -> ChaosTargets {
        match self.arch {
            Arch::Centralized => ChaosTargets {
                links: (0..self.n_cells)
                    .map(CentralizedLteBuilder::enb_backhaul)
                    .chain([CentralizedLteBuilder::L_AGG_EPC])
                    .collect(),
                crashable: vec![CentralizedLteBuilder::SGW, CentralizedLteBuilder::PGW],
            },
            Arch::Dlte => ChaosTargets {
                links: (0..self.n_cells).map(|k| self.ap_backhaul(k)).collect(),
                crashable: Vec::new(),
            },
        }
    }

    /// Most cells one network of this architecture holds.
    pub fn max_cells(&self) -> usize {
        match self.arch {
            Arch::Centralized => CentralizedLteBuilder::MAX_ENBS,
            Arch::Dlte => Self::MAX_APS,
        }
    }

    /// The pool cell `k`'s UEs draw their addresses from: the P-GW's one
    /// pool (centralized) or AP `k`'s own (dLTE).
    pub fn ue_pool(&self, k: usize) -> Prefix {
        match self.arch {
            Arch::Centralized => CentralizedLteBuilder::ue_pool_prefix(),
            Arch::Dlte => Self::ap_pool(k),
        }
    }

    /// Backhaul link id of AP `k`: three core links, the key directory's
    /// link when `keys` builds one, then one per AP in AP order.
    fn ap_backhaul(&self, k: usize) -> LinkId {
        let dir_link = usize::from(self.keys == KeyDistribution::RemoteDirectory);
        3 + dir_link + k
    }

    /// Well-known addresses, the same in both architectures so experiments
    /// can address "the same" OTT service.
    pub fn ott_addr() -> Addr {
        Addr::new(8, 8, 8, 8)
    }

    /// dLTE's OTT transport server.
    pub fn ott_transport_addr() -> Addr {
        Addr::new(8, 8, 4, 4)
    }

    fn dir_addr() -> Addr {
        Addr::new(9, 9, 9, 9)
    }

    /// The /24 pool of AP `k`. Pools are carved from 100.64.0.0/10
    /// (CGNAT space) starting at 100.66.0.0, so deployments up to
    /// `MAX_APS` APs get disjoint /24s; the first 256 APs keep their
    /// historical `100.66.k.0/24` pools.
    pub fn ap_pool(k: usize) -> Prefix {
        assert!(k < Self::MAX_APS, "AP pool space exhausted (k={k})");
        Prefix::new(Addr::new(100, (66 + k / 256) as u8, (k % 256) as u8, 0), 24)
    }

    /// The aggregate client space across all APs.
    fn all_pools() -> Prefix {
        Prefix::new(Addr::new(100, 64, 0, 0), 10)
    }

    /// Control-plane address of AP `k` (10.2.0.0/15-ish space; the first
    /// 250 APs keep their historical `10.2.k.1`).
    fn ap_addr(k: usize) -> Addr {
        assert!(k < 500_000, "AP address space exhausted (k={k})");
        Addr::new(
            10,
            (2 + k / 62_500) as u8,
            (k % 250) as u8,
            ((k / 250) % 250) as u8 + 1,
        )
    }

    /// Site of AP `k`: towns of [`APS_PER_TOWN`] APs, town centres 100 km
    /// apart, APs 1 km apart inside a town. With the 10 km protection
    /// contour every AP registers, a town is one contention domain and no
    /// contour reaches the next town.
    fn ap_site(k: usize) -> Point {
        Point::new(
            (k / APS_PER_TOWN) as f64 * 100.0 + (k % APS_PER_TOWN) as f64,
            0.0,
        )
    }

    /// X2 neighbours of every AP in an `n_aps` deployment, as AP indices
    /// in ascending order — §4.3's discovery step. Each AP requests a
    /// co-channel grant for its site from an open registry at t = 0 and
    /// peers with that grant's contention domain, so the list length is
    /// bounded by the town size however large the deployment.
    pub fn x2_neighbors(n_aps: usize) -> Vec<Vec<usize>> {
        let mut registry = SpectrumRegistry::new(ChannelPlan::for_band(Band::band5(), 10.0), 55.0);
        let grants: Vec<LicenseGrant> = (0..n_aps)
            .map(|k| {
                let req = GrantRequest {
                    operator: k as u64,
                    location: Self::ap_site(k),
                    channel: Some(0),
                    max_eirp_dbm: 50.0,
                    contour_km: 10.0,
                    lease: SimDuration::from_secs(3600),
                };
                registry
                    .request(req, SimTime::ZERO)
                    .expect("the shared policy admits every conforming AP")
            })
            .collect();
        // `operator` carries the AP index back out of the registry. Grant
        // ids ascend with AP index and a contention domain is sorted by
        // id, so each list comes out in ascending AP index.
        grants
            .iter()
            .map(|g| {
                registry
                    .contention_domain(g, SimTime::ZERO)
                    .iter()
                    .map(|peer| peer.operator as usize)
                    .collect()
            })
            .collect()
    }

    /// IMSI of UE `i`, in either architecture.
    pub fn imsi_of(i: usize) -> Imsi {
        1_000 + i as Imsi
    }

    fn key_of(i: usize) -> Key {
        0x0D17E_u128 << 100 | i as u128
    }

    /// The dLTE lowering. It builds the whole topology as one simulation
    /// and then splits it into `n` shards by AP cluster: the core (routers,
    /// OTT services, directory) lands on shard 0 and the APs are split into
    /// contiguous cluster ranges, each UE following its home AP. Radio
    /// traffic thus stays intra-shard; only backhaul/mesh links cross the
    /// cut, so the conservative lookahead is the backhaul delay. Each
    /// node's handler and routes move to its shard ([`ShardedSim::build`]),
    /// and every shard keeps all node names, addresses and links.
    fn lower_dlte(self, n: usize, ue_plan: impl Fn(usize) -> UePlan) -> Deployed {
        let (n_aps, ues_per_ap) = (self.n_cells, self.ues_per_cell);
        // AP `k`'s X2 peers, by AP index. Independent agents never report
        // to peers, so they skip discovery.
        let x2_neighbors = if self.x2_mode == CoordinationMode::Independent {
            vec![Vec::new(); n_aps]
        } else {
            Self::x2_neighbors(n_aps)
        };
        let mut b = NetworkBuilder::new(self.seed);
        let rng = SimRng::new(self.seed ^ 0xD17E);
        let total_ues = n_aps * ues_per_ap;

        // Published-key directory contents (every subscriber pre-publishes,
        // per §4.2). With pre-synced keys and UEs pinned to their home
        // cell, each AP holds only its own subscribers' records — the
        // full-registry copy is materialized only where some node may
        // actually be asked about a foreign IMSI.
        let directory_of = |range: std::ops::Range<usize>| {
            let mut d = PublishedKeyDirectory::new();
            for i in range {
                d.publish(Self::imsi_of(i), Self::key_of(i));
            }
            d
        };

        // Core routers and services. The spare "chaos" node has no handler
        // and no links; it only holds its place in the id order every
        // golden and trace was recorded with.
        let r_agg = b.node("r-agg");
        let r_inet = b.node("r-inet");
        b.node("chaos");
        let l_agg_inet = b.link(r_agg, r_inet, LinkConfig::wan(self.inet_delay));
        let ott_echo = b.host("ott-echo", Box::new(EchoServer::new()));
        b.addr(ott_echo, Self::ott_addr());
        let l_ott = b.link(r_inet, ott_echo, LinkConfig::lan());
        let ott_transport = b.host(
            "ott-transport",
            Box::new(TransportServerNode::new(0x7CB, self.transport_cfg)),
        );
        b.addr(ott_transport, Self::ott_transport_addr());
        let l_ott_tp = b.link(r_inet, ott_transport, LinkConfig::lan());
        assert_eq!(
            (ott_echo, ott_transport),
            (
                DlteNetworkBuilder::OTT_ECHO,
                DlteNetworkBuilder::OTT_TRANSPORT
            ),
            "OTT ids"
        );
        if self.keys == KeyDistribution::RemoteDirectory {
            let dir = b.host(
                "key-dir",
                Box::new(KeyDirectoryNode::new(
                    directory_of(0..total_ues),
                    Self::DIR_PER_MSG,
                )),
            );
            b.addr(dir, Self::dir_addr());
            let l = b.link(r_inet, dir, LinkConfig::lan());
            b.route(dir, Prefix::DEFAULT, l);
        }

        // APs.
        let mut aps = Vec::new();
        let mut ap_links = Vec::new();
        let ap_addrs: Vec<Addr> = (0..n_aps).map(Self::ap_addr).collect();
        for k in 0..n_aps {
            let key_source = match self.keys {
                // Pinned UEs only ever attach at home: sync just the home
                // subscribers (keeps per-AP state O(ues_per_ap) at scale).
                KeyDistribution::PreSynced if !self.wire_all_cells => {
                    KeySource::Local(directory_of(k * ues_per_ap..(k + 1) * ues_per_ap))
                }
                KeyDistribution::PreSynced => KeySource::Local(directory_of(0..total_ues)),
                KeyDistribution::RemoteDirectory => KeySource::Remote {
                    addr: Self::dir_addr(),
                },
            };
            let core = LocalCoreNode::new(
                42_000 + k as u64,
                AddrPool::new(Self::ap_pool(k)),
                key_source,
                Self::STUB_PER_MSG,
                rng.fork_idx("stub", k as u64),
            );
            let peers: Vec<Addr> = x2_neighbors[k].iter().map(|&j| ap_addrs[j]).collect();
            let x2 = X2Agent::new(self.x2_mode, peers, Self::X2_INTERVAL);
            let ap = b.host(
                format!("ap{k}"),
                Box::new(DlteApNode::new(core, x2).with_context_fetch(self.x2_context_fetch)),
            );
            b.addr(ap, ap_addrs[k]);
            let l = b.link(ap, r_agg, LinkConfig::rural_backhaul());
            assert_eq!(l, self.ap_backhaul(k), "AP {k} backhaul id");
            aps.push(ap);
            ap_links.push(l);
        }

        let cells: Vec<(NodeId, Addr)> = aps.iter().copied().zip(ap_addrs).collect();
        let pop = add_ues(
            &mut b,
            &cells,
            ues_per_ap,
            self.wire_all_cells,
            MobilityMode::ReAttach,
            |i| (Usim::new(Self::imsi_of(i), Self::key_of(i)), ue_plan(i)),
        );

        // Routing.
        b.auto_routes();
        for (k, &link) in ap_links.iter().enumerate() {
            b.route(r_agg, Self::ap_pool(k), link);
        }
        // Whole dLTE client space from the Internet side.
        b.route(r_inet, Self::all_pools(), l_agg_inet);
        b.route(ott_echo, Prefix::DEFAULT, l_ott);
        b.route(ott_transport, Prefix::DEFAULT, l_ott_tp);

        // §7 mesh: a ring of inter-AP links plus failover config.
        let mut mesh = Vec::new();
        if self.mesh && n_aps >= 2 {
            for k in 0..n_aps {
                if n_aps == 2 && k == 1 {
                    break; // avoid a duplicate second link between the pair
                }
                mesh.push(b.link(aps[k], aps[(k + 1) % n_aps], LinkConfig::rural_backhaul()));
            }
        }

        let mut sim = b.build();
        pop.wire::<DlteApNode>(sim.world_mut());
        if !mesh.is_empty() {
            for (k, &ap) in aps.iter().enumerate() {
                // Fall back over the mesh link this AP participates in.
                let fallback = mesh[k.min(mesh.len() - 1)];
                sim.world_mut()
                    .handler_as_mut::<DlteApNode>(ap)
                    .expect("ap handler")
                    .failover = Some(crate::resilience::BackhaulFailover::new(
                    fallback,
                    Self::ott_addr(),
                ));
            }
        }
        let m = n.min(n_aps).max(1);
        let sim = ShardedSim::build(
            n,
            || sim,
            |net| {
                let mut map = vec![0usize; net.core.nodes.len()];
                for (k, &ap) in aps.iter().enumerate() {
                    map[ap] = k * m / n_aps;
                }
                for (i, &ue) in pop.ues.iter().enumerate() {
                    map[ue] = (i / ues_per_ap) * m / n_aps;
                }
                map
            },
        );
        Deployed {
            sim,
            ues: pop.ues,
            cells: aps,
            cell_backhaul: ap_links,
            epc: None,
            r_agg,
            mesh,
        }
    }
}

/// The dLTE entry point the `benchmark/` package builds through: a dLTE
/// [`Deployment`] with every knob at its default but the seed and the UE
/// plan.
pub struct DlteNetworkBuilder {
    pub seed: u64,
    deployment: Deployment,
}

/// A network built by [`DlteNetworkBuilder`].
pub struct DlteNet {
    pub sim: ShardedSim,
    pub ues: Vec<NodeId>,
    pub aps: Vec<NodeId>,
    pub ott_echo: NodeId,
    pub ott_transport: NodeId,
    /// The key directory: always `None`, since the APs pre-sync keys.
    pub dir: Option<NodeId>,
}

impl DlteNetworkBuilder {
    /// Ids of the OTT servers, which the dLTE lowering builds right after
    /// the routers and asserts.
    const OTT_ECHO: NodeId = 3;
    const OTT_TRANSPORT: NodeId = 4;

    pub fn new(n_aps: usize, ues_per_ap: usize) -> Self {
        DlteNetworkBuilder {
            seed: 1,
            deployment: Deployment::new(Arch::Dlte, n_aps, ues_per_ap),
        }
    }

    pub fn with_ue_plan(mut self, f: impl Fn(usize) -> DltePlan + 'static) -> Self {
        self.deployment = self.deployment.with_ue_plan(f);
        self
    }

    pub fn ott_addr() -> Addr {
        Deployment::ott_addr()
    }

    pub fn ap_pool(k: usize) -> Prefix {
        Deployment::ap_pool(k)
    }

    /// Build on `n` shards ([`Deployment::build_sharded`]).
    pub fn build_sharded(mut self, n: usize) -> DlteNet {
        self.deployment.seed = self.seed;
        let net = self.deployment.build_sharded(n);
        DlteNet {
            sim: net.sim,
            ues: net.ues,
            aps: net.cells,
            ott_echo: Self::OTT_ECHO,
            ott_transport: Self::OTT_TRANSPORT,
            dir: None,
        }
    }
}

/// A built network of either architecture, driven and read through one
/// handle: what [`Deployment::build`] returns.
pub struct Deployed {
    /// The driver. A centralized network always runs on one engine.
    pub sim: ShardedSim,
    pub ues: Vec<NodeId>,
    /// The eNBs or the APs, by cell index.
    pub cells: Vec<NodeId>,
    /// Each cell's backhaul link, by cell index.
    pub cell_backhaul: Vec<LinkId>,
    /// The centralized core; `None` for dLTE, whose cores live in its APs.
    pub epc: Option<Epc>,
    /// The aggregation router every backhaul ends at.
    pub r_agg: NodeId,
    /// dLTE's mesh ring: `mesh[k]` connects AP k to AP (k+1) % n (empty
    /// unless [`Deployment::mesh`] is set).
    pub mesh: Vec<LinkId>,
}

/// The node ids of the centralized core, and its trunk.
#[derive(Clone, Copy, Debug)]
pub struct Epc {
    pub mme: NodeId,
    pub sgw: NodeId,
    pub pgw: NodeId,
    /// Aggregation ↔ EPC-site link, which every eNB shares toward the core.
    pub l_agg_epc: LinkId,
}

impl Deployed {
    /// The handler of UE `i`.
    pub fn ue(&self, i: usize) -> &UeNode {
        self.sim
            .handler_as::<UeNode>(self.ues[i])
            .expect("ue handler")
    }

    /// Every UE's handler, in UE order.
    pub fn ue_nodes(&self) -> impl Iterator<Item = &UeNode> + '_ {
        (0..self.ues.len()).map(|i| self.ue(i))
    }

    /// The dLTE APs' handlers, in cell order; none on a centralized
    /// network, so a sum over them reads 0 there.
    pub fn aps(&self) -> impl Iterator<Item = &DlteApNode> + '_ {
        self.cells
            .iter()
            .filter_map(|&cell| self.sim.handler_as::<DlteApNode>(cell))
    }
}

impl From<CentralizedLteNet> for Deployed {
    fn from(net: CentralizedLteNet) -> Deployed {
        Deployed {
            sim: ShardedSim::single(net.sim),
            ues: net.ues,
            cells: net.enbs,
            cell_backhaul: net.enb_backhaul,
            epc: Some(Epc {
                mme: net.mme,
                sgw: net.sgw,
                pgw: net.pgw,
                l_agg_epc: net.l_agg_epc,
            }),
            r_agg: net.r_agg,
            mesh: Vec::new(),
        }
    }
}

/// True if `addr` belongs to any dLTE AP pool (used by the failover logic
/// to recognize radio-side host routes it must preserve).
pub fn any_ap_pool_contains(addr: Addr) -> bool {
    Deployment::all_pools().contains(addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport_app::TransportUeApp;
    use dlte_epc::ue::{UeApp, UeState};

    fn dlte(n_aps: usize, ues_per_ap: usize) -> Deployment {
        Deployment::new(Arch::Dlte, n_aps, ues_per_ap)
    }

    fn pinger(interval_ms: u64) -> impl Fn(usize) -> DltePlan {
        move |_| DltePlan {
            app: UeApp::Pinger {
                dst: Deployment::ott_addr(),
                interval: SimDuration::from_millis(interval_ms),
                probe_bytes: 100,
            },
            ..Default::default()
        }
    }

    #[test]
    fn ue_attaches_to_dlte_ap_with_published_keys() {
        let mut net = dlte(1, 1).build();
        net.sim.run_until(SimTime::from_secs(3), 1_000_000);
        let ue = net.ue(0);
        assert_eq!(ue.state, UeState::Attached);
        let addr = ue.addr.expect("assigned");
        assert!(
            Deployment::ap_pool(0).contains(addr),
            "address from the AP's own pool: {addr}"
        );
        let ap = net.aps().next().unwrap();
        assert_eq!(ap.core.active_sessions(), 1);
        assert_eq!(ap.core.stats.attaches_completed, 1);
    }

    #[test]
    fn dlte_attach_is_faster_than_centralized() {
        // dLTE: all control stays at the AP (one radio RTT per NAS step).
        // Centralized: every step crosses backhaul + EPC distance.
        let latency = |arch| {
            let mut net = Deployment::new(arch, 1, 1).build();
            net.sim.run_until(SimTime::from_secs(3), 1_000_000);
            net.ue(0).stats.attach_latency_ms.values()[0]
        };
        let (dlte_lat, cent_lat) = (latency(Arch::Dlte), latency(Arch::Centralized));
        assert!(
            dlte_lat * 2.0 < cent_lat,
            "dLTE {dlte_lat} ms vs centralized {cent_lat} ms"
        );
    }

    #[test]
    fn ping_rtt_shows_local_breakout() {
        let mut net = dlte(1, 1).with_ue_plan(pinger(100)).build();
        net.sim.run_until(SimTime::from_secs(5), 2_000_000);
        let ue = net.ue(0);
        assert!(ue.stats.pongs > 30);
        let rtts = &ue.stats.rtt_ms;
        // Path: radio 5 + backhaul 10 + inet 10 + lan ≈ 25 ms one way → ~50
        // ms RTT — no EPC detour (the centralized twin measures ~100 ms).
        let med = rtts.median();
        assert!((45.0..70.0).contains(&med), "median RTT {med} ms");
    }

    #[test]
    fn reattach_mobility_changes_address_and_recovers() {
        let mut d = dlte(2, 1).with_ue_plan(|i| DltePlan {
            schedule: vec![(SimTime::from_secs(3), 1)],
            ..pinger(50)(i)
        });
        d.wire_all_cells = true;
        let mut net = d.build();
        net.sim.run_until(SimTime::from_secs(8), 5_000_000);
        let ue = net.ue(0);
        assert_eq!(ue.state, UeState::Attached);
        assert_eq!(ue.stats.attaches_completed, 2, "full re-attach at AP1");
        let addr = ue.addr.unwrap();
        assert!(
            Deployment::ap_pool(1).contains(addr),
            "new address from AP1's pool: {addr}"
        );
        assert!(
            !ue.stats.handover_gap_ms.is_empty(),
            "interruption measured"
        );
        assert!(ue.stats.pongs > 50);
    }

    #[test]
    fn remote_directory_adds_one_lookup_then_caches() {
        let mut d = dlte(1, 2);
        d.keys = KeyDistribution::RemoteDirectory;
        let mut net = d.build();
        net.sim.run_until(SimTime::from_secs(5), 2_000_000);
        for ue in net.ue_nodes() {
            assert_eq!(ue.state, UeState::Attached);
        }
        let ap = net.aps().next().unwrap();
        assert_eq!(ap.core.stats.directory_queries, 2, "one per new IMSI");
    }

    /// The tentpole invariant at the full-stack level: a dLTE scenario —
    /// attach, auth, address assignment, pinger traffic, X2 reports —
    /// produces bit-identical work counters, per-UE stats, flow traces and
    /// conservation audits at 1, 2 and 4 shards.
    #[test]
    fn sharded_build_is_bit_identical_to_single() {
        let run = |n: usize| {
            let mut net = dlte(4, 2).with_ue_plan(pinger(100)).build_sharded(n);
            assert_eq!(net.sim.num_shards(), n);
            net.sim.run_until(SimTime::from_secs(5), 10_000_000);
            let pongs: Vec<u64> = net.ue_nodes().map(|u| u.stats.pongs).collect();
            let trace = net.sim.trace_merged();
            (
                net.sim.events_dispatched(),
                pongs,
                format!("{:?}", net.sim.audit_merged()),
                trace.flow_ids().len(),
            )
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert!(one.0 > 0, "work happened");
        assert!(one.1.iter().all(|&p| p > 10), "every UE's pinger ran");
        assert_eq!(one, two);
        assert_eq!(one, four);
    }

    /// Wrapping a centralized network in [`Deployed`] runs it through the
    /// engine's one-shard path, which gives each run segment's trace the
    /// canonical `(t_ns, node)` order that sharded dLTE traces have. It
    /// reorders records of the same instant across nodes and changes
    /// nothing else: at the S-GW crash, a direct run emits node 5's fault
    /// before node 4's echo.
    #[test]
    fn deployed_centralized_trace_is_canonically_ordered() {
        use dlte_faults::{FaultPlan, NetBreak, Window};
        use dlte_obs::{set_tracing, take_records, Record};
        let build = || {
            let mut b = CentralizedLteBuilder::new(3, 3);
            b.epc.path_mgmt = true;
            let net = b.build();
            let plan = FaultPlan::new(1).with(Window {
                at_s: 3.0,
                for_s: Some(1.0),
                what: NetBreak::NodeCrash { node: net.sgw },
            });
            (net, plan)
        };
        let key = |r: &Record| (r.t_ns, r.node, format!("{:?}", r.event));
        set_tracing(true);
        let _ = take_records();

        let (net, plan) = build();
        let mut deployed = Deployed::from(net);
        plan.inject(&mut deployed.sim);
        for k in 1..=24 {
            deployed
                .sim
                .run_until(SimTime::from_millis(250 * k), 10_000_000);
        }
        let wrapped = take_records();

        let (mut net, plan) = build();
        for (t, fault) in plan.compile() {
            net.sim
                .queue_mut()
                .schedule_at(t, dlte_net::NetEvent::Fault(fault));
        }
        net.sim.run_until(SimTime::from_secs(6), 10_000_000);
        let direct = take_records();
        set_tracing(false);

        assert!(
            wrapped
                .windows(2)
                .all(|w| (w[0].t_ns, w[0].node) <= (w[1].t_ns, w[1].node)),
            "records out of (t_ns, node) order"
        );
        assert_ne!(
            wrapped.iter().map(key).collect::<Vec<_>>(),
            direct.iter().map(key).collect::<Vec<_>>(),
            "the direct run interleaves nodes at some instant"
        );
        let sorted = |records: &[Record]| {
            let mut keys: Vec<_> = records.iter().map(key).collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted(&wrapped), sorted(&direct));
        assert_eq!(
            deployed.sim.events_dispatched(),
            net.sim.events_dispatched()
        );
    }

    #[test]
    fn x2_agents_converge_across_aps() {
        let mut net = dlte(2, 1).build();
        net.sim.run_until(SimTime::from_secs(5), 2_000_000);
        for ap in net.aps() {
            assert_eq!(ap.x2.live_peers(), 1);
            // Both APs have one client each → equal demand → 50/50.
            assert!(
                (ap.tdm_share() - 0.5).abs() < 1e-9,
                "share {}",
                ap.tdm_share()
            );
        }
    }

    /// Coordination is per town: 20 APs are towns of 8, 8 and 4, each AP
    /// hears only its town, and the max-min share splits the channel
    /// inside each town independently.
    #[test]
    fn x2_coordination_is_per_town() {
        let mut net = dlte(20, 1).build();
        net.sim.run_until(SimTime::from_secs(3), 5_000_000);
        let mut town_share = [0.0f64; 3];
        for (k, ap) in net.aps().enumerate() {
            let town = k / APS_PER_TOWN;
            let town_size = (20 - town * APS_PER_TOWN).min(APS_PER_TOWN);
            assert_eq!(ap.x2.live_peers(), town_size - 1, "ap{k}");
            // One attached client each → equal demand → an even split.
            assert!(
                (ap.tdm_share() - 1.0 / town_size as f64).abs() < 1e-9,
                "ap{k} share {}",
                ap.tdm_share()
            );
            town_share[town] += ap.tdm_share();
        }
        for (town, &sum) in town_share.iter().enumerate() {
            assert!(sum <= 1.0 + 1e-9, "town {town} over-allocated: {sum}");
        }
    }

    /// A second move landing while the first move's attach is still in
    /// flight must abandon the half-open attach cleanly: no session or
    /// `attaching` entry leaks at the bypassed AP, the stale challenge is
    /// discarded rather than processed, and the backoff counter is not
    /// double-incremented.
    #[test]
    fn rapid_double_move_does_not_leak_or_double_backoff() {
        let mut d = dlte(3, 1).with_ue_plan(|i| DltePlan {
            // UE0: → AP1 at 3 s, → AP2 8 ms later: before AP1's challenge
            // (radio 5 ms each way + processing) can reach the UE. UE1/UE2
            // stay home.
            schedule: if i == 0 {
                vec![(SimTime::from_secs(3), 1), (SimTime::from_millis(3_008), 2)]
            } else {
                Vec::new()
            },
            ..Default::default()
        });
        d.wire_all_cells = true;
        let mut net = d.build();
        net.sim.run_until(SimTime::from_secs(8), 5_000_000);
        let ue = net.ue(0);
        assert_eq!(ue.state, UeState::Attached);
        assert_eq!(ue.stats.cell_moves, 2);
        assert_eq!(
            ue.stats.attaches_completed, 2,
            "AP0, then AP2 — the AP1 attach was abandoned mid-flight"
        );
        assert_eq!(
            ue.stats.attach_retries, 0,
            "the abandoned attach must not inflate the backoff counter"
        );
        assert!(
            ue.stats.stale_nas_dropped >= 1,
            "AP1's late challenge discarded, not processed"
        );
        let addr = ue.addr.unwrap();
        assert!(
            Deployment::ap_pool(2).contains(addr),
            "address from AP2's pool: {addr}"
        );
        // AP0 freed UE0's session; AP1 holds only its own home UE — UE0's
        // abandoned half-open attach was torn down by the move-2 detach.
        for ((k, ap), sessions) in net.aps().enumerate().zip([0, 1, 2]) {
            assert_eq!(ap.core.active_sessions(), sessions, "ap{k} session count");
            assert!(
                ap.core.audit().attaching.is_empty(),
                "ap{k} leaked a half-open attach"
            );
        }
    }

    /// `n_aps` APs with remote keys and the X2 context fetch; UE0 moves to
    /// AP1 at 3 s, the others stay home.
    fn roaming_with_fetch(n_aps: usize) -> Deployment {
        let mut d = dlte(n_aps, 1).with_ue_plan(|i| DltePlan {
            schedule: if i == 0 {
                vec![(SimTime::from_secs(3), 1)]
            } else {
                Vec::new()
            },
            ..Default::default()
        });
        d.wire_all_cells = true;
        d.keys = KeyDistribution::RemoteDirectory;
        d.x2_context_fetch = true;
        d
    }

    /// The X2 handover arm: when a roaming UE shows up at a new AP, the AP
    /// fetches the subscriber context from the previous AP over X2 instead
    /// of paying the wide-area directory round trip.
    #[test]
    fn x2_context_fetch_skips_directory_on_handover() {
        let mut net = roaming_with_fetch(2).build();
        net.sim.run_until(SimTime::from_secs(6), 5_000_000);
        let ue = net.ue(0);
        assert_eq!(ue.state, UeState::Attached);
        assert_eq!(ue.stats.attaches_completed, 2);
        let addr = ue.addr.unwrap();
        assert!(
            Deployment::ap_pool(1).contains(addr),
            "address from AP1's pool: {addr}"
        );
        let aps: Vec<&DlteApNode> = net.aps().collect();
        let (ap0, ap1) = (aps[0], aps[1]);
        // Each AP paid one directory query for the first sight of its own
        // home UE (t≈0, no peer reports yet → no fetch). UE0's handover
        // attach at AP1 was answered by AP0's cached context instead.
        assert_eq!(ap0.core.stats.directory_queries, 1);
        assert_eq!(ap0.fetch_stats.served, 1, "AP0 handed the context over");
        assert_eq!(ap1.fetch_stats.started, 1);
        assert_eq!(ap1.fetch_stats.hits, 1);
        assert_eq!(ap1.fetch_stats.fallbacks, 0);
        assert_eq!(
            ap1.core.stats.directory_queries, 1,
            "the handover attach itself skipped the wide-area directory"
        );
        assert_eq!(ap0.core.active_sessions(), 0, "old session released");
        assert_eq!(ap1.core.active_sessions(), 2, "home UE1 plus roaming UE0");
    }

    /// Handover toward a just-silenced AP must fall back to the directory
    /// instead of blackholing the attach: the target still looks fresh to
    /// its peers (silence shorter than the liveness horizon), so the fetch
    /// is sent, never answered, and the timeout takes the wide-area path.
    #[test]
    fn fetch_falls_back_when_context_peer_is_down() {
        use dlte_faults::{FaultPlan, NetBreak, Window};
        let mut net = roaming_with_fetch(3).build();
        // AP0 goes dark 100 ms before UE0 arrives at AP1: the detach and
        // the context fetch toward it are both lost; AP2 nacks (no record).
        FaultPlan::new(1)
            .with(Window {
                at_s: 2.9,
                for_s: Some(2.0),
                what: NetBreak::NodePause { node: net.cells[0] },
            })
            .inject(&mut net.sim);
        net.sim.run_until(SimTime::from_secs(8), 5_000_000);
        let ue = net.ue(0);
        assert_eq!(ue.state, UeState::Attached, "attach not blackholed");
        assert_eq!(
            ue.stats.attach_retries, 0,
            "fallback resolved within the attach timeout"
        );
        let addr = ue.addr.unwrap();
        assert!(
            Deployment::ap_pool(1).contains(addr),
            "address from AP1's pool: {addr}"
        );
        let aps: Vec<&DlteApNode> = net.aps().collect();
        let (ap1, ap2) = (aps[1], aps[2]);
        assert!(ap1.fetch_stats.started >= 1);
        assert_eq!(ap1.fetch_stats.hits, 0, "nobody held the context");
        assert!(
            ap1.fetch_stats.fallbacks >= 1,
            "timed out toward the dark AP and took the directory path"
        );
        // UE1 at t≈0 plus UE0's fallback — the fetch cost one timeout, not
        // the attach.
        assert_eq!(ap1.core.stats.directory_queries, 2);
        assert_eq!(ap2.fetch_stats.served, 0);
    }

    /// End-to-end mobility oracle check: a waypoint population churning
    /// across 3 APs leaves evidence that satisfies every mobility invariant
    /// — serving exclusivity, session residency, bounded service gaps.
    #[test]
    fn moving_population_keeps_sessions_exclusive_and_bounded() {
        use crate::mobility::ap_index_for;
        use dlte_check::{Bounds, MobilityEvidence, MobilityUeView, SpanView};
        let mut d = dlte(3, 2).with_ue_plan(pinger(100));
        d.moves = MovePlan::commuter_mix(7, 6, 3, 1.0, 2.5, 2.0, 8.0);
        let mut net = d.build();
        net.sim.run_until(SimTime::from_secs(12), 20_000_000);
        let mut ev = MobilityEvidence {
            max_dwell_s: 2.5,
            ..Default::default()
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
        for (i, ue) in net.ue_nodes().enumerate() {
            let home = i / 2;
            ev.ues.push(MobilityUeView {
                imsi: Deployment::imsi_of(i),
                attached: ue.state == UeState::Attached,
                serving_core: Some(ap_index_for(home, ue.current_cell_index(), 3)),
                moves: ue.stats.cell_moves,
                gaps_ms: ue.stats.handover_gap_ms.values().to_vec(),
            });
        }
        let total_moves: u64 = ev.ues.iter().map(|u| u.moves).sum();
        assert!(
            total_moves >= 6,
            "population actually churned: {total_moves}"
        );
        let violations = dlte_check::check_mobility(&ev, 12.0, &Bounds::default());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn transport_rides_reattach_with_migration() {
        let mut d = dlte(2, 1).with_ue_plan(|_| DltePlan {
            app: UeApp::Upper(Box::new(TransportUeApp::new(
                TransportConfig::modern(),
                Deployment::ott_transport_addr(),
            ))),
            schedule: vec![(SimTime::from_secs(3), 1)],
        });
        d.wire_all_cells = true;
        let mut net = d.build();
        net.sim.run_until(SimTime::from_secs(8), 10_000_000);
        let app = net
            .ue(0)
            .upper_as::<TransportUeApp>()
            .expect("typed upper layer");
        assert_eq!(app.connects, 1, "migration avoided a new handshake");
        assert_eq!(app.resume_ms.len(), 1, "one resume measured");
        assert!(app.conn.acked_bytes() > 100_000, "flow kept moving");
        let resume = app.resume_ms.values()[0];
        // Resume cost ≈ attach (a few radio RTTs) + one path RTT.
        assert!((10.0..1000.0).contains(&resume), "resume {resume} ms");
    }

    /// The move plan is merged once, in [`Deployment::build_sharded`], for
    /// both architectures: with no faults, every UE makes exactly the cell
    /// changes its share of the plan names, whichever core serves it. Each
    /// of the six UEs leaves its home cell at 3 s and moves on at 6 s.
    #[test]
    fn move_plan_drives_both_architectures() {
        use dlte_faults::MoveSpec;
        let moves = MovePlan {
            seed: 3,
            moves: (0..6)
                .flat_map(|ue| {
                    let home = ue / 2;
                    [(3.0, (home + 1) % 3), (6.0, (home + 2) % 3)].map(|(at_s, ap)| MoveSpec {
                        ue,
                        at_s: at_s + 0.1 * ue as f64,
                        ap,
                    })
                })
                .collect(),
        };
        for arch in [Arch::Centralized, Arch::Dlte] {
            let mut d = Deployment::new(arch, 3, 2).with_ue_plan(pinger(100));
            d.moves = moves.clone();
            let mut net = d.build();
            net.sim.run_until(SimTime::from_secs(12), 20_000_000);
            let mut total = 0;
            for (i, ue) in net.ue_nodes().enumerate() {
                let planned = cell_schedule(&moves, i, i / 2, 3).len() as u64;
                assert_eq!(ue.stats.cell_moves, planned, "{arch} ue{i}");
                total += planned;
            }
            assert_eq!(total, 12, "{arch}");
        }
    }
}
