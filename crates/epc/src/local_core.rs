//! The dLTE local core — §4.1's "EPC stub at each AP".
//!
//! One handler plays every role the UE expects from a network (MME-ish NAS
//! endpoint, HSS-ish vector minting from published keys, P-GW-ish address
//! assignment) while doing *none* of the EPC's wide-area work: no tunnels,
//! no inter-gateway signaling, no mobility management, no billing. User
//! traffic leaves the AP as native IP — local breakout — so the AP owner
//! keeps routing control, exactly as the paper prescribes.
//!
//! Attach and authentication are the very procedure the carrier MME runs
//! (`attach.rs`); only its placement differs. The local core feeds it
//! vectors minted from its own [`SubscriberDb`], the HSS's database type.
//! Keys enter that database from a pre-synchronized local directory copy,
//! from a remote [`KeyDirectoryNode`] over the Internet (one extra RTT on
//! first attach, then cached) — letting experiment E8 quantify the cost of
//! keeping identity out of the access network — or from a neighbour over X2
//! ([`LocalCoreNode::install_record`]).

use crate::attach::{self, Attach, Input, Output};
use crate::messages::{wire, Nas, RejectCause, S1Nas, SnId};
use crate::obs::{self, HarqTracer};
use crate::proc::Processor;
use dlte_auth::open::PublishedKeyDirectory;
use dlte_auth::vectors::SubscriberDb;
use dlte_auth::{Imsi, Key};
use dlte_net::fxhash::FxHashMap;
use dlte_net::{Addr, AddrPool, LinkId, NodeCtx, NodeHandler, Packet, Payload, Prefix};
use dlte_obs::{AkaStep, NasProc};
use dlte_sim::stats::Samples;
use dlte_sim::{SimDuration, SimRng, SimTime};

/// Where the stub gets subscriber keys.
pub enum KeySource {
    /// A locally synchronized copy of the published-key directory.
    Local(PublishedKeyDirectory),
    /// A remote directory service queried over the backhaul on first sight
    /// of an IMSI (answers are cached).
    Remote { addr: Addr },
}

/// Directory protocol messages.
#[derive(Clone, Debug)]
pub enum DirMsg {
    Query { imsi: Imsi, reply_to: Addr },
    Answer { imsi: Imsi, key: Option<Key> },
}

/// On-wire size of directory messages.
pub const DIR_MSG_BYTES: u32 = 96;

/// Local-core statistics.
#[derive(Clone, Debug, Default)]
pub struct LocalCoreStats {
    pub attach_requests: u64,
    pub attaches_completed: u64,
    pub attaches_rejected: u64,
    pub directory_queries: u64,
    pub auth_resyncs: u64,
    /// Attach latency as seen from the stub (request → accept sent), ms.
    pub attach_latency_ms: Samples,
    pub ul_user_packets: u64,
    pub dl_user_packets: u64,
}

/// One served interval of an IMSI at this core: opened when the attach
/// accept is sent, closed on detach/release/replacement. The mobility
/// oracles consume these to prove serving exclusivity (no IMSI held by two
/// cores in the same instant) across handover storms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionSpan {
    pub imsi: Imsi,
    pub start_ns: u64,
    /// `None` while the session is still open at run end.
    pub end_ns: Option<u64>,
}

/// The dLTE AP's local core.
pub struct LocalCoreNode {
    pub sn_id: SnId,
    pub pool: AddrPool,
    keys: KeySource,
    /// Radio wiring, as in [`crate::EnbNode`].
    radio: FxHashMap<Imsi, (LinkId, Addr)>,
    /// Cached subscriber records (from either key source, or transferred
    /// over X2).
    db: SubscriberDb,
    attaching: FxHashMap<Imsi, Attach>,
    sessions: FxHashMap<Imsi, Addr>,
    by_ue_addr: FxHashMap<Addr, Imsi>,
    /// Chronological log of served intervals (see [`SessionSpan`]).
    session_log: Vec<SessionSpan>,
    /// Index into `session_log` of each IMSI's currently open span.
    open_span: FxHashMap<Imsi, usize>,
    pub proc: Processor,
    rng: SimRng,
    /// Trace-only radio HARQ model over the breakout user plane (dedicated
    /// RNG stream forked at construction; never touches `self.rng`).
    harq: HarqTracer,
    pub stats: LocalCoreStats,
}

impl LocalCoreNode {
    pub fn new(
        sn_id: SnId,
        pool: AddrPool,
        keys: KeySource,
        per_msg: SimDuration,
        rng: SimRng,
    ) -> Self {
        LocalCoreNode {
            sn_id,
            pool,
            keys,
            radio: FxHashMap::default(),
            db: SubscriberDb::new(),
            attaching: FxHashMap::default(),
            sessions: FxHashMap::default(),
            by_ue_addr: FxHashMap::default(),
            session_log: Vec::new(),
            open_span: FxHashMap::default(),
            proc: Processor::new(per_msg, 0),
            harq: HarqTracer::new(rng.fork("harq-trace")),
            rng,
            stats: LocalCoreStats::default(),
        }
    }

    /// Wire a UE's radio link.
    pub fn wire_ue(&mut self, imsi: Imsi, link: LinkId, ue_ctrl: Addr) {
        self.radio.insert(imsi, (link, ue_ctrl));
    }

    pub fn active_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The served-interval log, in open order (see [`SessionSpan`]).
    pub fn session_spans(&self) -> &[SessionSpan] {
        &self.session_log
    }

    /// Is the subscriber's key already cached at this core?
    pub fn has_record(&self, imsi: Imsi) -> bool {
        self.db.contains(imsi)
    }

    /// Export the cached subscriber key and SQN (for X2 context transfer to
    /// a neighboring AP).
    pub fn subscriber_record(&self, imsi: Imsi) -> Option<(Key, u64)> {
        self.db.record(imsi).map(|r| (r.k, r.sqn))
    }

    /// Install a subscriber record obtained out-of-band (X2 context fetch
    /// from a neighbor). SQNs max-merge so a transferred context never
    /// regresses the counter and forces a resync cycle.
    pub fn install_record(&mut self, imsi: Imsi, k: Key, sqn: u64) {
        if !self.db.contains(imsi) {
            self.db.provision(imsi, k);
        }
        self.db.resync(imsi, sqn);
    }

    fn open_session_span(&mut self, imsi: Imsi, now: SimTime) {
        self.close_session_span(imsi, now);
        self.open_span.insert(imsi, self.session_log.len());
        self.session_log.push(SessionSpan {
            imsi,
            start_ns: now.as_nanos(),
            end_ns: None,
        });
    }

    fn close_session_span(&mut self, imsi: Imsi, now: SimTime) {
        if let Some(i) = self.open_span.remove(&imsi) {
            self.session_log[i].end_ns = Some(now.as_nanos());
        }
    }

    /// Tear down any state held for `imsi`: the active session (address,
    /// route, pool slot) *and* a half-open attach. Serves both the NAS
    /// detach path and the X2 handover-out path, and is deliberately
    /// idempotent — a detach racing a move must leave nothing behind no
    /// matter which arrives first.
    pub fn release_session(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi) {
        self.attaching.remove(&imsi);
        if let Some(ue_addr) = self.sessions.remove(&imsi) {
            self.by_ue_addr.remove(&ue_addr);
            ctx.node_info_mut().remove_route(Prefix::new(ue_addr, 32));
            self.pool.release(ue_addr);
        }
        self.close_session_span(imsi, ctx.now);
    }

    /// Snapshot the session table for post-run invariant checking.
    pub fn audit(&self) -> crate::audit::LocalCoreAudit {
        let mut sessions: Vec<_> = self
            .sessions
            .iter()
            .map(|(&imsi, &ue_addr)| crate::audit::LocalSessionAudit {
                imsi,
                ue_addr,
                indexed: self.by_ue_addr.get(&ue_addr) == Some(&imsi),
            })
            .collect();
        sessions.sort_by_key(|s| s.imsi);
        let mut attaching: Vec<u64> = self.attaching.keys().copied().collect();
        attaching.sort_unstable();
        crate::audit::LocalCoreAudit {
            sessions,
            addr_index_len: self.by_ue_addr.len(),
            attaching,
        }
    }

    fn nas_down(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, nas: Nas, size: u32) {
        let Some(&(link, ue_ctrl)) = self.radio.get(&imsi) else {
            return;
        };
        let p = ctx
            .make_packet(ue_ctrl, size)
            .with_payload(Payload::control(S1Nas { imsi, nas }));
        // NAS goes straight down the radio link (no processor charge: the
        // charge was taken when the decision was made).
        ctx.forward_via(link, p);
    }

    /// Step `imsi`'s attach and carry out what it asks for.
    fn drive(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, input: Input) {
        let (next, outputs) = attach::step(self.attaching.remove(&imsi), input);
        if let Some(attach) = next {
            self.attaching.insert(imsi, attach);
        }
        for out in outputs {
            match out {
                Output::Trace(t) => obs::emit(ctx, t.event(imsi)),
                Output::RequestVector { resync_sqn } => self.request_vector(ctx, imsi, resync_sqn),
                Output::Challenge(v) => {
                    let (rand, autn, sn_id) = (v.rand, v.autn, self.sn_id);
                    let nas = Nas::AuthenticationRequest { rand, autn, sn_id };
                    self.nas_down(ctx, imsi, nas, wire::AUTH_REQUEST);
                }
                Output::Authenticated { started } => self.open_session(ctx, imsi, started),
                Output::Reject(cause) => {
                    self.stats.attaches_rejected += 1;
                    let nas = Nas::AttachReject { imsi, cause };
                    self.nas_down(ctx, imsi, nas, wire::ATTACH_REJECT);
                }
                // Vectors are minted here, so no request is ever guarded.
                Output::Abandon => {}
            }
        }
    }

    /// Mint the next vector from the cached record, fetching the key first
    /// on first sight of the subscriber (a remote directory answers later).
    fn request_vector(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, resync_sqn: Option<u64>) {
        if let Some(sqn) = resync_sqn {
            self.stats.auth_resyncs += 1;
            self.db.resync(imsi, sqn);
        } else if !self.db.contains(imsi) {
            self.stats.directory_queries += 1;
            match &mut self.keys {
                KeySource::Local(dir) => {
                    let key = dir.lookup(imsi);
                    self.on_key(ctx, imsi, key);
                }
                KeySource::Remote { addr } => {
                    let query = DirMsg::Query {
                        imsi,
                        reply_to: ctx.my_addr(),
                    };
                    let q = ctx.make_packet(*addr, DIR_MSG_BYTES);
                    self.proc
                        .process_one(ctx, q.with_payload(Payload::control(query)));
                }
            }
            return;
        }
        let vector = self.db.vector_for(imsi, self.sn_id, &mut self.rng);
        self.drive(ctx, imsi, Input::Vector(vector));
    }

    /// A directory answered for `imsi`: cache the key and challenge, or
    /// reject an unknown subscriber.
    fn on_key(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, key: Option<Key>) {
        let vector = key.and_then(|k| {
            self.db.provision(imsi, k);
            self.db.vector_for(imsi, self.sn_id, &mut self.rng)
        });
        self.drive(ctx, imsi, Input::Vector(vector));
    }

    /// RES matched: assign an address, route it down the radio link and
    /// accept the UE. The pool was checked before the RES was fed in.
    fn open_session(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, started: SimTime) {
        let ue_addr = self
            .pool
            .alloc()
            .expect("attach admitted with a free address");
        // Release any prior session of this IMSI (re-attach).
        if let Some(old) = self.sessions.insert(imsi, ue_addr) {
            self.by_ue_addr.remove(&old);
            ctx.node_info_mut().remove_route(Prefix::new(old, 32));
            self.pool.release(old);
        }
        self.by_ue_addr.insert(ue_addr, imsi);
        if let Some(&(link, _)) = self.radio.get(&imsi) {
            ctx.node_info_mut()
                .set_route(Prefix::new(ue_addr, 32), link);
        }
        self.open_session_span(imsi, ctx.now);
        self.stats.attaches_completed += 1;
        self.stats
            .attach_latency_ms
            .push_duration_ms(ctx.now.saturating_since(started));
        obs::aka(ctx, AkaStep::Response, imsi);
        obs::nas_end(ctx, NasProc::Auth, imsi, true);
        obs::nas_end(ctx, NasProc::Attach, imsi, true);
        self.nas_down(
            ctx,
            imsi,
            Nas::AttachAccept { ue_addr },
            wire::ATTACH_ACCEPT,
        );
    }

    fn handle_nas(&mut self, ctx: &mut NodeCtx<'_>, imsi: Imsi, nas: Nas) {
        let input = match nas {
            // dLTE has no path switch: a service request from a roaming UE
            // is just an attach.
            Nas::AttachRequest { .. } | Nas::ServiceRequest { .. } => {
                self.stats.attach_requests += 1;
                Input::Start { at: ctx.now }
            }
            Nas::AuthenticationResponse { res, .. } => Input::Response {
                res,
                refuse: (self.pool.remaining() == 0).then_some(RejectCause::NoResources),
            },
            Nas::AuthenticationFailure { ue_sqn, .. } => Input::Failure { ue_sqn },
            Nas::DetachRequest { .. } => return self.release_session(ctx, imsi),
            _ => return,
        };
        self.drive(ctx, imsi, input);
    }

    fn handle_dir(&mut self, ctx: &mut NodeCtx<'_>, msg: DirMsg) {
        let DirMsg::Answer { imsi, key } = msg else {
            return;
        };
        if self.attaching.get(&imsi).is_some_and(Attach::awaits_vector) {
            self.on_key(ctx, imsi, key);
        }
    }
}

impl NodeHandler for LocalCoreNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(s1nas) = packet.payload.as_control::<S1Nas>().cloned() {
            self.handle_nas(ctx, s1nas.imsi, s1nas.nas);
            return;
        }
        if let Some(msg) = packet.payload.as_control::<DirMsg>().cloned() {
            self.handle_dir(ctx, msg);
            return;
        }
        // User plane: native IP both ways — local breakout.
        if let Some(&imsi) = self.by_ue_addr.get(&packet.src) {
            self.stats.ul_user_packets += 1;
            self.harq.observe_block(ctx, imsi);
        } else if let Some(&imsi) = self.by_ue_addr.get(&packet.dst) {
            self.stats.dl_user_packets += 1;
            self.harq.observe_block(ctx, imsi);
        }
        if ctx.peer_info(ctx.node).owns(packet.dst) {
            ctx.deliver_local(&packet);
        } else {
            ctx.forward(packet);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        self.proc.on_timer(ctx, tag);
    }
}

/// A standalone published-key directory service (for [`KeySource::Remote`]).
pub struct KeyDirectoryNode {
    pub dir: PublishedKeyDirectory,
    pub proc: Processor,
}

impl KeyDirectoryNode {
    pub fn new(dir: PublishedKeyDirectory, per_msg: SimDuration) -> Self {
        KeyDirectoryNode {
            dir,
            proc: Processor::new(per_msg, 0),
        }
    }
}

impl NodeHandler for KeyDirectoryNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, packet: Packet) {
        if let Some(DirMsg::Query { imsi, reply_to }) =
            packet.payload.as_control::<DirMsg>().cloned()
        {
            let key = self.dir.lookup(imsi);
            let a = ctx
                .make_packet(reply_to, DIR_MSG_BYTES)
                .with_payload(Payload::control(DirMsg::Answer { imsi, key }));
            self.proc.process_one(ctx, a);
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        self.proc.on_timer(ctx, tag);
    }
}
