//! The dLTE access point: local core + X2 agent on one node.
//!
//! §4.1's "one stub per site" composed with §4.3's peer coordination. The
//! AP is a single network host; this handler demultiplexes its inbound
//! traffic: NAS and directory answers to the local core, X2 to the peer
//! agent, everything else to the user plane (local breakout).
//!
//! The AP also closes the coordination loop: after each X2 share update it
//! re-derives the MAC-level resource partition its cell scheduler would
//! enforce (exposed via [`DlteApNode::tdm_share`] for the radio layer and
//! the E5/E7 experiments).

use crate::resilience::BackhaulFailover;
use dlte_auth::Imsi;
use dlte_epc::local_core::{DirMsg, LocalCoreNode};
use dlte_epc::messages::{Nas, S1Nas};
use dlte_epc::topology::CellHandler;
use dlte_net::fxhash::FxHashMap;
use dlte_net::{Addr, LinkId, NodeCtx, NodeHandler, Packet};
use dlte_sim::SimDuration;
use dlte_x2::messages::wire as x2wire;
use dlte_x2::{X2Agent, X2Msg};

/// Fetch-timeout timer tags are `TAG_FETCH_BASE + epoch`; the X2 agent owns
/// `7_000_000..8_000_000` and the core's processor allocates upward from 0.
const TAG_FETCH_BASE: u64 = 8_000_000;

/// How long the AP holds an attach while a context fetch is outstanding
/// before falling back to the wide-area directory. Covers several X2
/// backhaul round trips; a crashed peer simply never answers.
const FETCH_TIMEOUT: SimDuration = SimDuration::from_millis(150);

/// An attach held while the AP asks its neighbors for the subscriber
/// context.
struct PendingFetch {
    packet: Packet,
    /// Peers queried and not yet heard from.
    outstanding: usize,
    /// Guards the timeout timer against a later fetch for the same IMSI.
    epoch: u64,
}

/// X2 context-fetch counters (mobility extension).
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchStats {
    /// Attaches held while neighbors were queried.
    pub started: u64,
    /// Resolved by a neighbor's context (directory round trip skipped).
    pub hits: u64,
    /// Fell back to the directory (all neighbors nacked, or timeout).
    pub fallbacks: u64,
    /// Contexts this AP served to fetching neighbors.
    pub served: u64,
}

/// A dLTE access point node handler.
pub struct DlteApNode {
    pub core: LocalCoreNode,
    pub x2: X2Agent,
    /// §7 extension: emergency egress via a mesh neighbor when the backhaul
    /// dies (detected through X2 peer silence).
    pub failover: Option<BackhaulFailover>,
    /// Mobility extension: on an attach from an unknown IMSI, ask fresh X2
    /// peers for the subscriber context before paying the wide-area
    /// directory round trip.
    x2_fetch: bool,
    pending_fetch: FxHashMap<u64, PendingFetch>,
    fetch_epoch: u64,
    pub fetch_stats: FetchStats,
}

impl DlteApNode {
    pub fn new(core: LocalCoreNode, x2: X2Agent) -> Self {
        DlteApNode {
            core,
            x2,
            failover: None,
            x2_fetch: false,
            pending_fetch: FxHashMap::default(),
            fetch_epoch: 0,
            fetch_stats: FetchStats::default(),
        }
    }

    /// Enable the X2 handover context fetch: on an attach from an unknown
    /// IMSI, ask fresh peers for the subscriber context before paying the
    /// wide-area directory round trip.
    pub fn with_context_fetch(mut self, enabled: bool) -> Self {
        self.x2_fetch = enabled;
        self
    }

    /// The time-domain share of the channel this AP is entitled to under
    /// the current X2 agreement (1.0 when independent or peerless).
    pub fn tdm_share(&self) -> f64 {
        self.x2.my_share
    }

    /// Keep the X2 demand signal fresh from the core's load: an AP with no
    /// attached clients advertises (almost) no demand, donating its share.
    fn refresh_demand(&mut self) {
        let sessions = self.core.active_sessions();
        self.x2.my_clients = sessions as u32;
        self.x2.my_demand = if sessions == 0 { 0.05 } else { 1.0 };
    }

    /// If `packet` is an attach/service request from an IMSI this core has
    /// no subscriber record for, hold it and fan a context fetch out to
    /// every fresh X2 peer. Returns the packet back if it should follow the
    /// normal path instead.
    fn try_start_fetch(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) -> Option<Packet> {
        let imsi = match packet.payload.as_control::<S1Nas>() {
            Some(s1)
                if matches!(
                    s1.nas,
                    Nas::AttachRequest { .. } | Nas::ServiceRequest { .. }
                ) =>
            {
                s1.imsi
            }
            _ => return Some(packet),
        };
        if self.core.has_record(imsi) || self.pending_fetch.contains_key(&imsi) {
            return Some(packet);
        }
        let peers = self.x2.fresh_peers();
        if peers.is_empty() {
            return Some(packet); // nobody to ask — straight to the directory
        }
        let my_addr = ctx.my_addr();
        for &p in &peers {
            self.x2.send_to_peer(
                ctx,
                p,
                X2Msg::HandoverRequest {
                    from: my_addr,
                    client: imsi,
                },
                x2wire::HANDOVER,
            );
        }
        self.fetch_epoch += 1;
        self.fetch_stats.started += 1;
        self.pending_fetch.insert(
            imsi,
            PendingFetch {
                packet,
                outstanding: peers.len(),
                epoch: self.fetch_epoch,
            },
        );
        ctx.set_timer(FETCH_TIMEOUT, TAG_FETCH_BASE + self.fetch_epoch);
        None
    }

    /// A queried peer answered (or acked without context). `key` is the
    /// subscriber material, `None` for a nack.
    fn on_fetch_reply(&mut self, ctx: &mut NodeCtx<'_>, client: u64, key: Option<u128>, sqn: u64) {
        if let Some(k) = key {
            // Install even with no fetch pending (a late reply after the
            // timeout fallback): it warms the cache for the next arrival
            // and max-merges the SQN, so it can never regress state.
            self.core.install_record(client, k, sqn);
        }
        let Some(pending) = self.pending_fetch.get_mut(&client) else {
            return;
        };
        if key.is_some() {
            let pf = self.pending_fetch.remove(&client).unwrap();
            self.fetch_stats.hits += 1;
            self.core.on_packet(ctx, pf.packet);
        } else {
            pending.outstanding = pending.outstanding.saturating_sub(1);
            if pending.outstanding == 0 {
                let pf = self.pending_fetch.remove(&client).unwrap();
                self.fetch_stats.fallbacks += 1;
                self.core.on_packet(ctx, pf.packet);
            }
        }
    }

    /// Handle the X2 mobility-extension messages at the AP level (the bare
    /// agent only knows the cooperative-handoff semantics). Returns the
    /// packet back if the agent should process it instead.
    fn try_handle_x2_mobility(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) -> Option<Packet> {
        let Some(msg) = packet.payload.as_control::<X2Msg>() else {
            return Some(packet);
        };
        match *msg {
            X2Msg::HandoverRequest { from, client } => {
                // A neighbor is asking whether we hold this client's
                // context: the client just arrived there, so any session we
                // still hold is a leftover — release it (idempotent with
                // the client's own detach) and hand the context over.
                self.x2.stats.msgs_received += 1;
                let my_addr = ctx.my_addr();
                let reply = match self.core.subscriber_record(client) {
                    Some((k, sqn)) => {
                        self.fetch_stats.served += 1;
                        X2Msg::HandoverContext {
                            from: my_addr,
                            client,
                            key: Some(k),
                            sqn,
                        }
                    }
                    None => X2Msg::HandoverContext {
                        from: my_addr,
                        client,
                        key: None,
                        sqn: 0,
                    },
                };
                self.core.release_session(ctx, client);
                self.x2
                    .send_to_peer(ctx, from, reply, x2wire::HANDOVER_CONTEXT);
                None
            }
            X2Msg::HandoverContext {
                client, key, sqn, ..
            } => {
                self.x2.stats.msgs_received += 1;
                self.on_fetch_reply(ctx, client, key, sqn);
                None
            }
            // A plain ack from a peer without the mobility extension: a
            // nack as far as the fetch is concerned.
            X2Msg::HandoverAck { client, .. } if self.pending_fetch.contains_key(&client) => {
                self.x2.stats.msgs_received += 1;
                self.on_fetch_reply(ctx, client, None, 0);
                None
            }
            _ => Some(packet),
        }
    }
}

impl CellHandler for DlteApNode {
    fn wire_ue(&mut self, imsi: Imsi, link: LinkId, ue_ctrl: Addr) {
        self.core.wire_ue(imsi, link, ue_ctrl);
    }
}

impl NodeHandler for DlteApNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.x2.on_start(ctx);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        // Tag spaces: fetch timeouts ≥ 8_000_000, the X2 tick ≥ 7_000_000,
        // the core's processor allocates upward from 0.
        if tag >= TAG_FETCH_BASE {
            let epoch = tag - TAG_FETCH_BASE;
            let timed_out = self
                .pending_fetch
                .iter()
                .find(|(_, p)| p.epoch == epoch)
                .map(|(&imsi, _)| imsi);
            if let Some(imsi) = timed_out {
                // A queried peer never answered (crashed, partitioned):
                // stop waiting and take the wide-area directory path.
                let pf = self.pending_fetch.remove(&imsi).unwrap();
                self.fetch_stats.fallbacks += 1;
                self.core.on_packet(ctx, pf.packet);
            }
        } else if tag >= 7_000_000 {
            self.refresh_demand();
            self.x2.on_timer(ctx, tag);
            if let Some(fo) = &mut self.failover {
                fo.tick(ctx);
            }
        } else {
            self.core.on_timer(ctx, tag);
        }
    }

    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(fo) = &mut self.failover {
            if fo.on_packet(ctx, &packet) {
                return;
            }
        }
        if packet.payload.as_control::<X2Msg>().is_some() {
            let packet = if self.x2_fetch {
                match self.try_handle_x2_mobility(ctx, packet) {
                    Some(p) => p,
                    None => return,
                }
            } else {
                packet
            };
            self.x2.on_packet(ctx, packet);
        } else if packet.payload.as_control::<S1Nas>().is_some()
            || packet.payload.as_control::<DirMsg>().is_some()
        {
            let packet = if self.x2_fetch {
                match self.try_start_fetch(ctx, packet) {
                    Some(p) => p,
                    None => return, // held pending the context fetch
                }
            } else {
                packet
            };
            self.core.on_packet(ctx, packet);
        } else {
            // User plane (and anything else): the local core forwards it —
            // local breakout.
            self.core.on_packet(ctx, packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_auth::open::PublishedKeyDirectory;
    use dlte_epc::local_core::KeySource;
    use dlte_net::{Addr, AddrPool, Prefix};
    use dlte_sim::{SimDuration, SimRng};
    use dlte_x2::CoordinationMode;

    #[test]
    fn ap_composes_core_and_x2() {
        let pool = AddrPool::new(Prefix::new(Addr::new(100, 66, 0, 0), 24));
        let core = LocalCoreNode::new(
            42,
            pool,
            KeySource::Local(PublishedKeyDirectory::new()),
            SimDuration::from_micros(200),
            SimRng::new(1),
        );
        let x2 = X2Agent::new(
            CoordinationMode::FairShare,
            vec![],
            SimDuration::from_millis(100),
        );
        let ap = DlteApNode::new(core, x2);
        assert_eq!(ap.tdm_share(), 1.0, "no peers yet → full channel");
        assert_eq!(ap.core.active_sessions(), 0);
    }
}
