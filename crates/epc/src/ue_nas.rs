//! The UE's NAS, written once for both architectures.
//!
//! §4.1 says the same unmodified UE works against a carrier EPC and a dLTE
//! AP's local core. `attach.rs` writes the network side of the attach as a
//! pure step; this is the UE side in the same shape: [`step`] is a
//! `(state, input) → (state, outputs)` function with no node context,
//! clock or network. It owns:
//!
//! * the attach, retransmitted on a capped backoff (3, 6, 12, then 24 s)
//!   until the network answers, and run afresh on a `NetworkDetach`;
//! * EPS-AKA through the USIM;
//! * the service request that leaves ECM-IDLE, retransmitted at 0.5, 1, 2,
//!   then 4 s;
//! * the procedure a cell change runs, which the architecture picks
//!   ([`MobilityMode`]);
//! * the serving-cell filter on downlink NAS.
//!
//! State follows TS 24.301's split: EMM is registration ([`UeState`]), ECM
//! is the signalling connection ([`Ecm`]). A timer is named by its ordinal
//! among the timers the UE armed; only the one its state still holds is
//! live, so a stale expiry changes nothing. [`crate::UeNode`] keeps the
//! I/O: it turns each output, in order, into a packet, a timer, an address
//! or a counter.

use crate::attach::Trace;
use crate::messages::{wire, Nas};
use crate::ue::UeReportStats;
use dlte_auth::usim::{AkaError, Usim};
use dlte_net::Addr;
use dlte_obs::{AkaStep, NasProc};
use dlte_sim::{SimDuration, SimTime};

/// How the UE handles moving between cells; the architecture sets it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MobilityMode {
    /// Centralized LTE: keep the address, send a service request at the
    /// new eNB and let the MME switch the bearer's path.
    PathSwitch,
    /// dLTE: the address dies with the old AP, so detach there and attach
    /// afresh at the new one (§4.2).
    ReAttach,
}

/// EMM, the registration state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UeState {
    /// Not registered, with the attempts a rejected attach had spent: a
    /// path-switch move without an address goes on counting from there.
    Detached(u32),
    /// Attaching since the time, with the attempts sent so far; the timer
    /// with the ordinal guards the last.
    Attaching(SimTime, u32, u64),
    Attached,
}

/// ECM, the signalling connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ecm {
    Connected,
    /// Released by the eNB: the address stays, but uplink waits for a
    /// service request.
    Idle,
    /// Idle, with the service requests sent so far; the timer with the
    /// ordinal guards the last.
    Requesting(u32, u64),
}

/// The UE's NAS state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ue {
    pub emm: UeState,
    pub ecm: Ecm,
    /// The address the last attach accept assigned.
    pub addr: Option<Addr>,
    /// Timers armed so far; the next one's ordinal is `armed + 1`.
    pub armed: u64,
}

/// What can happen to the UE's NAS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Input {
    /// Power on at the time: attach.
    PowerOn(SimTime),
    /// The timer with this ordinal expired.
    Expired(u64),
    /// The application has uplink waiting while ECM-IDLE.
    Uplink,
    /// Downlink NAS arriving at the time; the flag says whether it came
    /// from the cell the UE camps on.
    Downlink(Nas, bool, SimTime),
    /// The UE moves to the cell with this index at the time, by the
    /// architecture's procedure.
    Move(usize, SimTime, MobilityMode),
}

/// What the driver must do, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Output {
    Trace(Trace),
    /// Send this message, of this wire size, through the serving cell.
    Send(Nas, u32),
    /// Arm the timer with this ordinal to expire after the duration.
    Arm(u64, SimDuration),
    /// Camp on the cell with this index.
    SwitchCell(usize),
    /// Give up this address.
    Release(Addr),
    /// The attach begun at the time completed with this address.
    Attached(Addr, SimTime),
}

/// Capped exponential backoff: `base_ms << (attempt-1)`, clamped to
/// `cap_ms`. Attempt 1 waits the base interval.
fn backoff(base_ms: u64, attempt: u32, cap_ms: u64) -> SimDuration {
    let exp = attempt.saturating_sub(1).min(16);
    SimDuration::from_millis((base_ms << exp).min(cap_ms))
}

/// Advance the NAS of the UE holding `usim` by one input, counting in
/// `stats`.
pub fn step(usim: &mut Usim, stats: &mut UeReportStats, ue: Ue, input: Input) -> (Ue, Vec<Output>) {
    use Output::Trace as T;
    let mut s = Step {
        usim,
        stats,
        ue,
        out: Vec::new(),
    };
    let imsi = s.usim.imsi;
    match input {
        Input::PowerOn(at) => s.attach(at),
        Input::Expired(t) => match (s.ue.emm, s.ue.ecm) {
            (UeState::Attaching(started, _, timer), _) if timer == t => s.attach(started),
            (_, Ecm::Requesting(sent, timer)) if timer == t => s.service_request(sent),
            _ => {}
        },
        // A request already out owns the retries through its timer.
        Input::Uplink => {
            if s.ue.ecm == Ecm::Idle {
                s.service_request(0);
            }
        }
        // Only the serving cell may advance the NAS: an accept from a cell
        // already left (A→B→C with B's accept in flight) would attach the
        // UE to the wrong core. A NetworkDetach is exempt: from an old cell
        // it is how the network tears down a bearer it still anchors there,
        // and dropping it wedges the UE with a dead bearer.
        Input::Downlink(nas, false, _) if !matches!(nas, Nas::NetworkDetach { .. }) => {
            s.stats.stale_nas_dropped += 1;
        }
        Input::Downlink(nas, _, at) => match nas {
            Nas::AuthenticationRequest { rand, autn, sn_id } => {
                let failure = |ue_sqn| Nas::AuthenticationFailure { imsi, ue_sqn };
                let (aka, reply, size) = match s.usim.authenticate(rand, autn, sn_id) {
                    Ok(r) => {
                        let reply = Nas::AuthenticationResponse { imsi, res: r.res };
                        (AkaStep::Response, reply, wire::AUTH_RESPONSE)
                    }
                    Err(AkaError::SyncFailure { ue_sqn }) => {
                        (AkaStep::Resync, failure(Some(ue_sqn)), wire::AUTH_FAILURE)
                    }
                    Err(AkaError::MacFailure) => {
                        (AkaStep::Failure, failure(None), wire::AUTH_FAILURE)
                    }
                };
                s.out
                    .extend([T(Trace::Aka(aka)), Output::Send(reply, size)]);
            }
            Nas::AttachAccept { ue_addr } => {
                if let UeState::Attaching(started, ..) = s.ue.emm {
                    s.ue.emm = UeState::Attached;
                    s.ue.addr = Some(ue_addr);
                    s.out.extend([
                        T(Trace::End(NasProc::Attach, true)),
                        Output::Attached(ue_addr, started),
                    ]);
                }
            }
            // The attempts spent stay with the detached UE.
            Nas::AttachReject { .. } => {
                s.stats.attach_rejects += 1;
                if let UeState::Attaching(_, sent, _) = s.ue.emm {
                    s.out.push(T(Trace::End(NasProc::Attach, false)));
                    s.ue.emm = UeState::Detached(sent);
                } else if s.ue.emm == UeState::Attached {
                    s.ue.emm = UeState::Detached(0);
                }
            }
            Nas::RrcRelease { .. } => {
                if s.ue.emm == UeState::Attached {
                    s.stats.rrc_releases += 1;
                    if s.ue.ecm == Ecm::Connected {
                        s.ue.ecm = Ecm::Idle;
                    }
                }
            }
            Nas::PagingNotify { .. } => {
                s.stats.pages_received += 1;
                if s.ue.ecm == Ecm::Idle {
                    s.service_request(0);
                }
            }
            Nas::ServiceAccept { .. } => {
                if let Ecm::Requesting(..) = s.ue.ecm {
                    s.out.push(T(Trace::End(NasProc::ServiceRequest, true)));
                }
                s.ue.ecm = Ecm::Connected;
            }
            // The core lost our session: the address is dead, and a full
            // attach is the only way back.
            Nas::NetworkDetach { .. } => {
                s.stats.network_detaches += 1;
                s.ue.ecm = Ecm::Connected;
                s.release();
                if !matches!(s.ue.emm, UeState::Attaching(..)) {
                    s.ue.emm = UeState::Detached(0);
                    s.attach(at);
                }
            }
            // Uplink-only messages.
            Nas::AttachRequest { .. }
            | Nas::AuthenticationResponse { .. }
            | Nas::AuthenticationFailure { .. }
            | Nas::DetachRequest { .. }
            | Nas::ServiceRequest { .. } => {}
        },
        Input::Move(to, at, mode) => {
            if mode == MobilityMode::ReAttach {
                // Release the old cell's session before re-pointing the
                // radio: the detach rides the old radio link, so the old
                // core frees the address instead of stranding it until an
                // idle sweep, even when an attach there is still in flight.
                s.out
                    .push(Output::Send(Nas::DetachRequest { imsi }, wire::DETACH));
            }
            s.out.push(Output::SwitchCell(to));
            match (mode, s.ue.addr) {
                (MobilityMode::PathSwitch, Some(ue_addr)) => {
                    let request = Nas::ServiceRequest { imsi, ue_addr };
                    s.out.push(Output::Send(request, wire::S1AP_PATH_SWITCH));
                }
                (MobilityMode::PathSwitch, None) => s.attach(at),
                // A fresh cell is a fresh attach, not a retry, so a rapid
                // move sequence does not inflate the backoff. The attach
                // brings up a new connection: a service request left over
                // from the old cell has no address to send from.
                (MobilityMode::ReAttach, _) => {
                    s.ue.ecm = Ecm::Connected;
                    s.release();
                    s.ue.emm = UeState::Detached(0);
                    s.attach(at);
                }
            }
        }
    }
    (s.ue, s.out)
}

struct Step<'a> {
    usim: &'a mut Usim,
    stats: &'a mut UeReportStats,
    ue: Ue,
    out: Vec<Output>,
}

impl Step<'_> {
    fn release(&mut self) {
        if let Some(old) = self.ue.addr.take() {
            self.out.push(Output::Release(old));
        }
    }

    /// Send an attach request: the next one of an attach under way, or the
    /// first of one that begins at `at`. The UE never gives up, so an
    /// outage longer than any attempt budget still ends in recovery.
    fn attach(&mut self, at: SimTime) {
        let (started, sent) = match self.ue.emm {
            UeState::Attaching(started, sent, _) => (started, sent),
            UeState::Detached(sent) => (at, sent),
            UeState::Attached => (at, 0),
        };
        if !matches!(self.ue.emm, UeState::Attaching(..)) {
            self.out.push(Output::Trace(Trace::Start(NasProc::Attach)));
        }
        if sent > 0 {
            self.stats.attach_retries += 1;
        }
        let imsi = self.usim.imsi;
        let request = Nas::AttachRequest {
            imsi,
            via_enb: Addr::UNSPECIFIED,
        };
        self.out.push(Output::Send(request, wire::ATTACH_REQUEST));
        self.ue.armed += 1;
        let after = backoff(3_000, sent + 1, 24_000);
        self.out.push(Output::Arm(self.ue.armed, after));
        self.ue.emm = UeState::Attaching(started, sent + 1, self.ue.armed);
    }

    /// Send an idle UE's service request after `sent` unanswered ones; only
    /// a UE with an address has one to send.
    fn service_request(&mut self, sent: u32) {
        let Some(ue_addr) = self.ue.addr else { return };
        if sent == 0 {
            self.out
                .push(Output::Trace(Trace::Start(NasProc::ServiceRequest)));
        } else {
            self.stats.service_request_retries += 1;
        }
        self.stats.service_requests += 1;
        let request = Nas::ServiceRequest {
            imsi: self.usim.imsi,
            ue_addr,
        };
        self.out.push(Output::Send(request, wire::S1AP_PATH_SWITCH));
        self.ue.armed += 1;
        let after = backoff(500, sent + 1, 4_000);
        self.out.push(Output::Arm(self.ue.armed, after));
        self.ue.ecm = Ecm::Requesting(sent + 1, self.ue.armed);
    }
}

#[cfg(test)]
// IMSIs and serving-network ids group digits as MCC_MNC_MSIN.
#[allow(clippy::inconsistent_digit_grouping)]
mod tests {
    use super::*;
    use crate::messages::RejectCause;
    use dlte_auth::vectors::{generate_vector, AuthVector, SubscriberRecord};
    use dlte_auth::Key;
    use dlte_sim::SimRng;

    const IMSI: u64 = 510_89_0000000042;
    const K: Key = 0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100;
    const SN_ID: u64 = 510_89;
    /// When the attach under way began, and when every input arrives.
    const T0: SimTime = SimTime::from_millis(5);
    const T1: SimTime = SimTime::from_secs(9);
    const A: Addr = Addr::new(10, 0, 0, 7);
    const B: Addr = Addr::new(10, 0, 1, 9);

    /// A state written `emm ecm addr armed`: emm is `D<n>` (detached after
    /// n attempts), `A<n>@<t>#<k>` (attaching since T<t>, n requests sent,
    /// timer k guarding the last) or `Att`; ecm is `C`, `I` or `R<n>#<k>`;
    /// addr is `-`, `a` or `b`.
    fn state(text: &str) -> Ue {
        let [emm, ecm, addr, armed] = text.split(' ').collect::<Vec<_>>()[..] else {
            panic!("bad state {text:?}");
        };
        let num = |s: &str| s.parse::<u64>().expect("number");
        let emm = match emm.split(['@', '#']).collect::<Vec<_>>()[..] {
            ["Att"] => UeState::Attached,
            [d] => UeState::Detached(num(&d[1..]) as u32),
            [n, t, k] => {
                let since = if t == "0" { T0 } else { T1 };
                UeState::Attaching(since, num(&n[1..]) as u32, num(k))
            }
            _ => panic!("bad emm {emm:?}"),
        };
        let ecm = match ecm.split('#').collect::<Vec<_>>()[..] {
            ["C"] => Ecm::Connected,
            ["I"] => Ecm::Idle,
            [n, k] => Ecm::Requesting(num(&n[1..]) as u32, num(k)),
            _ => panic!("bad ecm {ecm:?}"),
        };
        let addr = match addr {
            "a" => Some(A),
            "b" => Some(B),
            _ => None,
        };
        Ue {
            emm,
            ecm,
            addr,
            armed: num(armed),
        }
    }

    /// Two vectors in SQN order; the USIM of every row has accepted the
    /// first.
    fn vectors() -> (AuthVector, AuthVector) {
        let mut record = SubscriberRecord {
            imsi: IMSI,
            k: K,
            sqn: 0,
        };
        let mut rng = SimRng::new(3);
        let first = generate_vector(&mut record, SN_ID, &mut rng);
        (first, generate_vector(&mut record, SN_ID, &mut rng))
    }

    fn usim() -> Usim {
        let mut usim = Usim::new(IMSI, K);
        let (first, _) = vectors();
        usim.authenticate(first.rand, first.autn, SN_ID)
            .expect("first vector");
        usim
    }

    fn challenge(v: AuthVector) -> Nas {
        Nas::AuthenticationRequest {
            rand: v.rand,
            autn: v.autn,
            sn_id: SN_ID,
        }
    }

    fn input(name: &str) -> Input {
        let (replayed, fresh) = vectors();
        let mut forged = fresh;
        forged.autn.mac ^= 1;
        let imsi = IMSI;
        let down = |nas| Input::Downlink(nas, true, T1);
        let stale = |nas| Input::Downlink(nas, false, T1);
        match name {
            "power-on" => Input::PowerOn(T1),
            "timer" => Input::Expired(7),
            "stale-timer" => Input::Expired(6),
            "uplink" => Input::Uplink,
            "challenge" => down(challenge(fresh)),
            "replayed" => down(challenge(replayed)),
            "forged" => down(challenge(forged)),
            "accept" => down(Nas::AttachAccept { ue_addr: B }),
            "reject" => down(Nas::AttachReject {
                imsi,
                cause: RejectCause::AuthenticationFailed,
            }),
            "release" => down(Nas::RrcRelease { imsi }),
            "page" => down(Nas::PagingNotify { imsi }),
            "service-accept" => down(Nas::ServiceAccept { imsi }),
            "detach" => down(Nas::NetworkDetach { imsi }),
            "stale-accept" => stale(Nas::AttachAccept { ue_addr: B }),
            "stale-detach" => stale(Nas::NetworkDetach { imsi }),
            "attach-request" => down(Nas::AttachRequest { imsi, via_enb: A }),
            "auth-response" => down(Nas::AuthenticationResponse { imsi, res: 1 }),
            "auth-failure" => down(Nas::AuthenticationFailure { imsi, ue_sqn: None }),
            "detach-request" => down(Nas::DetachRequest { imsi }),
            "service-request" => down(Nas::ServiceRequest { imsi, ue_addr: A }),
            "move/switch" => Input::Move(2, T1, MobilityMode::PathSwitch),
            "move/reattach" => Input::Move(2, T1, MobilityMode::ReAttach),
            other => panic!("no input {other}"),
        }
    }

    const STATES: [&str; 8] = [
        "D0 C - 7",
        "D2 C - 7",
        "A1@0#7 C - 7",
        "A3@0#7 C - 7",
        "Att C a 7",
        "Att I a 7",
        "Att R1#7 a 7",
        "Att R3#7 a 7",
    ];
    const INPUTS: [&str; 22] = [
        "power-on",
        "timer",
        "stale-timer",
        "uplink",
        "challenge",
        "replayed",
        "forged",
        "accept",
        "reject",
        "release",
        "page",
        "service-accept",
        "detach",
        "stale-accept",
        "stale-detach",
        "attach-request",
        "auth-response",
        "auth-failure",
        "detach-request",
        "service-request",
        "move/switch",
        "move/reattach",
    ];

    /// Attach request number `n`, guarded by timer 8; `first` opens the
    /// procedure.
    fn attach(first: bool, n: u32) -> Vec<Output> {
        let via_enb = Addr::UNSPECIFIED;
        let start = first.then_some(Output::Trace(Trace::Start(NasProc::Attach)));
        start
            .into_iter()
            .chain([
                Output::Send(
                    Nas::AttachRequest {
                        imsi: IMSI,
                        via_enb,
                    },
                    wire::ATTACH_REQUEST,
                ),
                Output::Arm(8, backoff(3_000, n, 24_000)),
            ])
            .collect()
    }

    /// Service request number `n`, guarded by timer 8.
    fn service(n: u32) -> Vec<Output> {
        let start = Output::Trace(Trace::Start(NasProc::ServiceRequest));
        (n == 1)
            .then_some(start)
            .into_iter()
            .chain([path_switch()[0], Output::Arm(8, backoff(500, n, 4_000))])
            .collect()
    }

    /// The service request that asks the new eNB to switch the path.
    fn path_switch() -> Vec<Output> {
        let request = Nas::ServiceRequest {
            imsi: IMSI,
            ue_addr: A,
        };
        vec![Output::Send(request, wire::S1AP_PATH_SWITCH)]
    }

    fn aka(step: AkaStep) -> Vec<Output> {
        let reply = match step {
            AkaStep::Response => Nas::AuthenticationResponse {
                imsi: IMSI,
                res: vectors().1.xres,
            },
            AkaStep::Resync => Nas::AuthenticationFailure {
                imsi: IMSI,
                ue_sqn: Some(usim().sqn()),
            },
            _ => Nas::AuthenticationFailure {
                imsi: IMSI,
                ue_sqn: None,
            },
        };
        let size = match step {
            AkaStep::Response => wire::AUTH_RESPONSE,
            _ => wire::AUTH_FAILURE,
        };
        vec![Output::Trace(Trace::Aka(step)), Output::Send(reply, size)]
    }

    fn joined() -> Vec<Output> {
        vec![
            Output::Trace(Trace::End(NasProc::Attach, true)),
            Output::Attached(B, T0),
        ]
    }

    fn rejected() -> Vec<Output> {
        vec![Output::Trace(Trace::End(NasProc::Attach, false))]
    }

    fn served() -> Vec<Output> {
        vec![Output::Trace(Trace::End(NasProc::ServiceRequest, true))]
    }

    fn release() -> Vec<Output> {
        vec![Output::Release(A)]
    }

    /// Leave for cell 2, detaching from the old one first when re-attaching.
    fn leave(reattach: bool) -> Vec<Output> {
        let detach = Output::Send(Nas::DetachRequest { imsi: IMSI }, wire::DETACH);
        reattach
            .then_some(detach)
            .into_iter()
            .chain([Output::SwitchCell(2)])
            .collect()
    }

    /// The counters a step bumped, each at most once, in field order.
    fn counted(s: &UeReportStats) -> Vec<&'static str> {
        [
            ("stale", s.stale_nas_dropped),
            ("retry", s.attach_retries),
            ("reject", s.attach_rejects),
            ("release", s.rrc_releases),
            ("page", s.pages_received),
            ("sr", s.service_requests),
            ("sr-retry", s.service_request_retries),
            ("detach", s.network_detaches),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| {
            assert_eq!(n, 1, "{name}");
            name
        })
        .collect()
    }

    /// State, input, next state (`=` for unchanged), outputs, counters.
    type Row = (
        &'static str,
        &'static str,
        &'static str,
        Vec<Output>,
        &'static [&'static str],
    );

    /// The whole transition table: every input in every state, with the
    /// state it leads to, the outputs it yields and the counters it bumps.
    /// An ignored row yields nothing.
    #[test]
    fn transition_table() {
        let none = Vec::new;
        let cat = |parts: &[Vec<Output>]| parts.concat();
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            // Power on: attach, carrying on from a rejected or live attach.
            ("D0 C - 7", "power-on", "A1@1#8 C - 8", attach(true, 1), &[]),
            ("D2 C - 7", "power-on", "A3@1#8 C - 8", attach(true, 3), &["retry"]),
            ("A1@0#7 C - 7", "power-on", "A2@0#8 C - 8", attach(false, 2), &["retry"]),
            ("A3@0#7 C - 7", "power-on", "A4@0#8 C - 8", attach(false, 4), &["retry"]),
            ("Att C a 7", "power-on", "A1@1#8 C a 8", attach(true, 1), &[]),
            ("Att I a 7", "power-on", "A1@1#8 I a 8", attach(true, 1), &[]),
            ("Att R1#7 a 7", "power-on", "A1@1#8 R1#7 a 8", attach(true, 1), &[]),
            ("Att R3#7 a 7", "power-on", "A1@1#8 R3#7 a 8", attach(true, 1), &[]),
            // The live timer retransmits: 6 s, then the 24 s and 4 s caps.
            ("D0 C - 7", "timer", "=", none(), &[]),
            ("D2 C - 7", "timer", "=", none(), &[]),
            ("A1@0#7 C - 7", "timer", "A2@0#8 C - 8", attach(false, 2), &["retry"]),
            ("A3@0#7 C - 7", "timer", "A4@0#8 C - 8", attach(false, 4), &["retry"]),
            ("Att C a 7", "timer", "=", none(), &[]),
            ("Att I a 7", "timer", "=", none(), &[]),
            ("Att R1#7 a 7", "timer", "Att R2#8 a 8", service(2), &["sr", "sr-retry"]),
            ("Att R3#7 a 7", "timer", "Att R4#8 a 8", service(4), &["sr", "sr-retry"]),
            ("D0 C - 7", "stale-timer", "=", none(), &[]),
            ("D2 C - 7", "stale-timer", "=", none(), &[]),
            ("A1@0#7 C - 7", "stale-timer", "=", none(), &[]),
            ("A3@0#7 C - 7", "stale-timer", "=", none(), &[]),
            ("Att C a 7", "stale-timer", "=", none(), &[]),
            ("Att I a 7", "stale-timer", "=", none(), &[]),
            ("Att R1#7 a 7", "stale-timer", "=", none(), &[]),
            ("Att R3#7 a 7", "stale-timer", "=", none(), &[]),
            // Uplink waiting: only an idle UE asks for service.
            ("D0 C - 7", "uplink", "=", none(), &[]),
            ("D2 C - 7", "uplink", "=", none(), &[]),
            ("A1@0#7 C - 7", "uplink", "=", none(), &[]),
            ("A3@0#7 C - 7", "uplink", "=", none(), &[]),
            ("Att C a 7", "uplink", "=", none(), &[]),
            ("Att I a 7", "uplink", "Att R1#8 a 8", service(1), &["sr"]),
            ("Att R1#7 a 7", "uplink", "=", none(), &[]),
            ("Att R3#7 a 7", "uplink", "=", none(), &[]),
            // AKA answers whatever the state.
            ("D0 C - 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("D2 C - 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("A1@0#7 C - 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("A3@0#7 C - 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("Att C a 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("Att I a 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("Att R1#7 a 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("Att R3#7 a 7", "challenge", "=", aka(AkaStep::Response), &[]),
            ("D0 C - 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("D2 C - 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("A1@0#7 C - 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("A3@0#7 C - 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("Att C a 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("Att I a 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("Att R1#7 a 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("Att R3#7 a 7", "replayed", "=", aka(AkaStep::Resync), &[]),
            ("D0 C - 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("D2 C - 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("A1@0#7 C - 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("A3@0#7 C - 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("Att C a 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("Att I a 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("Att R1#7 a 7", "forged", "=", aka(AkaStep::Failure), &[]),
            ("Att R3#7 a 7", "forged", "=", aka(AkaStep::Failure), &[]),
            // An accept completes only an attach under way.
            ("D0 C - 7", "accept", "=", none(), &[]),
            ("D2 C - 7", "accept", "=", none(), &[]),
            ("A1@0#7 C - 7", "accept", "Att C b 7", joined(), &[]),
            ("A3@0#7 C - 7", "accept", "Att C b 7", joined(), &[]),
            ("Att C a 7", "accept", "=", none(), &[]),
            ("Att I a 7", "accept", "=", none(), &[]),
            ("Att R1#7 a 7", "accept", "=", none(), &[]),
            ("Att R3#7 a 7", "accept", "=", none(), &[]),
            // A reject detaches for good, keeping the attempts spent.
            ("D0 C - 7", "reject", "=", none(), &["reject"]),
            ("D2 C - 7", "reject", "=", none(), &["reject"]),
            ("A1@0#7 C - 7", "reject", "D1 C - 7", rejected(), &["reject"]),
            ("A3@0#7 C - 7", "reject", "D3 C - 7", rejected(), &["reject"]),
            ("Att C a 7", "reject", "D0 C a 7", none(), &["reject"]),
            ("Att I a 7", "reject", "D0 I a 7", none(), &["reject"]),
            ("Att R1#7 a 7", "reject", "D0 R1#7 a 7", none(), &["reject"]),
            ("Att R3#7 a 7", "reject", "D0 R3#7 a 7", none(), &["reject"]),
            // The eNB releases only an attached UE to ECM-IDLE.
            ("D0 C - 7", "release", "=", none(), &[]),
            ("D2 C - 7", "release", "=", none(), &[]),
            ("A1@0#7 C - 7", "release", "=", none(), &[]),
            ("A3@0#7 C - 7", "release", "=", none(), &[]),
            ("Att C a 7", "release", "Att I a 7", none(), &["release"]),
            ("Att I a 7", "release", "=", none(), &["release"]),
            ("Att R1#7 a 7", "release", "=", none(), &["release"]),
            ("Att R3#7 a 7", "release", "=", none(), &["release"]),
            // Paging asks an idle UE for service.
            ("D0 C - 7", "page", "=", none(), &["page"]),
            ("D2 C - 7", "page", "=", none(), &["page"]),
            ("A1@0#7 C - 7", "page", "=", none(), &["page"]),
            ("A3@0#7 C - 7", "page", "=", none(), &["page"]),
            ("Att C a 7", "page", "=", none(), &["page"]),
            ("Att I a 7", "page", "Att R1#8 a 8", service(1), &["page", "sr"]),
            ("Att R1#7 a 7", "page", "=", none(), &["page"]),
            ("Att R3#7 a 7", "page", "=", none(), &["page"]),
            ("D0 C - 7", "service-accept", "=", none(), &[]),
            ("D2 C - 7", "service-accept", "=", none(), &[]),
            ("A1@0#7 C - 7", "service-accept", "=", none(), &[]),
            ("A3@0#7 C - 7", "service-accept", "=", none(), &[]),
            ("Att C a 7", "service-accept", "=", none(), &[]),
            ("Att I a 7", "service-accept", "Att C a 7", none(), &[]),
            ("Att R1#7 a 7", "service-accept", "Att C a 7", served(), &[]),
            ("Att R3#7 a 7", "service-accept", "Att C a 7", served(), &[]),
            // A network detach drops the address and attaches afresh,
            // unless an attach is under way.
            ("D0 C - 7", "detach", "A1@1#8 C - 8", attach(true, 1), &["detach"]),
            ("D2 C - 7", "detach", "A1@1#8 C - 8", attach(true, 1), &["detach"]),
            ("A1@0#7 C - 7", "detach", "=", none(), &["detach"]),
            ("A3@0#7 C - 7", "detach", "=", none(), &["detach"]),
            ("Att C a 7", "detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            ("Att I a 7", "detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            ("Att R1#7 a 7", "detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            ("Att R3#7 a 7", "detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            // A cell the UE left cannot advance its NAS...
            ("D0 C - 7", "stale-accept", "=", none(), &["stale"]),
            ("D2 C - 7", "stale-accept", "=", none(), &["stale"]),
            ("A1@0#7 C - 7", "stale-accept", "=", none(), &["stale"]),
            ("A3@0#7 C - 7", "stale-accept", "=", none(), &["stale"]),
            ("Att C a 7", "stale-accept", "=", none(), &["stale"]),
            ("Att I a 7", "stale-accept", "=", none(), &["stale"]),
            ("Att R1#7 a 7", "stale-accept", "=", none(), &["stale"]),
            ("Att R3#7 a 7", "stale-accept", "=", none(), &["stale"]),
            // ...but its network detach still counts.
            ("D0 C - 7", "stale-detach", "A1@1#8 C - 8", attach(true, 1), &["detach"]),
            ("D2 C - 7", "stale-detach", "A1@1#8 C - 8", attach(true, 1), &["detach"]),
            ("A1@0#7 C - 7", "stale-detach", "=", none(), &["detach"]),
            ("A3@0#7 C - 7", "stale-detach", "=", none(), &["detach"]),
            ("Att C a 7", "stale-detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            ("Att I a 7", "stale-detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            ("Att R1#7 a 7", "stale-detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            ("Att R3#7 a 7", "stale-detach", "A1@1#8 C - 8", cat(&[release(), attach(true, 1)]), &["detach"]),
            // Uplink-only messages are ignored.
            ("D0 C - 7", "attach-request", "=", none(), &[]),
            ("D2 C - 7", "attach-request", "=", none(), &[]),
            ("A1@0#7 C - 7", "attach-request", "=", none(), &[]),
            ("A3@0#7 C - 7", "attach-request", "=", none(), &[]),
            ("Att C a 7", "attach-request", "=", none(), &[]),
            ("Att I a 7", "attach-request", "=", none(), &[]),
            ("Att R1#7 a 7", "attach-request", "=", none(), &[]),
            ("Att R3#7 a 7", "attach-request", "=", none(), &[]),
            ("D0 C - 7", "auth-response", "=", none(), &[]),
            ("D2 C - 7", "auth-response", "=", none(), &[]),
            ("A1@0#7 C - 7", "auth-response", "=", none(), &[]),
            ("A3@0#7 C - 7", "auth-response", "=", none(), &[]),
            ("Att C a 7", "auth-response", "=", none(), &[]),
            ("Att I a 7", "auth-response", "=", none(), &[]),
            ("Att R1#7 a 7", "auth-response", "=", none(), &[]),
            ("Att R3#7 a 7", "auth-response", "=", none(), &[]),
            ("D0 C - 7", "auth-failure", "=", none(), &[]),
            ("D2 C - 7", "auth-failure", "=", none(), &[]),
            ("A1@0#7 C - 7", "auth-failure", "=", none(), &[]),
            ("A3@0#7 C - 7", "auth-failure", "=", none(), &[]),
            ("Att C a 7", "auth-failure", "=", none(), &[]),
            ("Att I a 7", "auth-failure", "=", none(), &[]),
            ("Att R1#7 a 7", "auth-failure", "=", none(), &[]),
            ("Att R3#7 a 7", "auth-failure", "=", none(), &[]),
            ("D0 C - 7", "detach-request", "=", none(), &[]),
            ("D2 C - 7", "detach-request", "=", none(), &[]),
            ("A1@0#7 C - 7", "detach-request", "=", none(), &[]),
            ("A3@0#7 C - 7", "detach-request", "=", none(), &[]),
            ("Att C a 7", "detach-request", "=", none(), &[]),
            ("Att I a 7", "detach-request", "=", none(), &[]),
            ("Att R1#7 a 7", "detach-request", "=", none(), &[]),
            ("Att R3#7 a 7", "detach-request", "=", none(), &[]),
            ("D0 C - 7", "service-request", "=", none(), &[]),
            ("D2 C - 7", "service-request", "=", none(), &[]),
            ("A1@0#7 C - 7", "service-request", "=", none(), &[]),
            ("A3@0#7 C - 7", "service-request", "=", none(), &[]),
            ("Att C a 7", "service-request", "=", none(), &[]),
            ("Att I a 7", "service-request", "=", none(), &[]),
            ("Att R1#7 a 7", "service-request", "=", none(), &[]),
            ("Att R3#7 a 7", "service-request", "=", none(), &[]),
            // A path switch keeps the address and asks the new eNB for
            // the bearer; without one it attaches, carrying on counting.
            ("D0 C - 7", "move/switch", "A1@1#8 C - 8", cat(&[leave(false), attach(true, 1)]), &[]),
            ("D2 C - 7", "move/switch", "A3@1#8 C - 8", cat(&[leave(false), attach(true, 3)]), &["retry"]),
            ("A1@0#7 C - 7", "move/switch", "A2@0#8 C - 8", cat(&[leave(false), attach(false, 2)]), &["retry"]),
            ("A3@0#7 C - 7", "move/switch", "A4@0#8 C - 8", cat(&[leave(false), attach(false, 4)]), &["retry"]),
            ("Att C a 7", "move/switch", "=", cat(&[leave(false), path_switch()]), &[]),
            ("Att I a 7", "move/switch", "=", cat(&[leave(false), path_switch()]), &[]),
            ("Att R1#7 a 7", "move/switch", "=", cat(&[leave(false), path_switch()]), &[]),
            ("Att R3#7 a 7", "move/switch", "=", cat(&[leave(false), path_switch()]), &[]),
            // A re-attach detaches at the old cell, drops the address and
            // starts a fresh attach, on a fresh connection, at the new one.
            ("D0 C - 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), attach(true, 1)]), &[]),
            ("D2 C - 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), attach(true, 1)]), &[]),
            ("A1@0#7 C - 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), attach(true, 1)]), &[]),
            ("A3@0#7 C - 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), attach(true, 1)]), &[]),
            ("Att C a 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), release(), attach(true, 1)]), &[]),
            ("Att I a 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), release(), attach(true, 1)]), &[]),
            ("Att R1#7 a 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), release(), attach(true, 1)]), &[]),
            ("Att R3#7 a 7", "move/reattach", "A1@1#8 C - 8", cat(&[leave(true), release(), attach(true, 1)]), &[]),
        ];
        assert_eq!(table.len(), STATES.len() * INPUTS.len());
        for s in STATES {
            for i in INPUTS {
                let rows = table.iter().filter(|r| r.0 == s && r.1 == i).count();
                assert_eq!(rows, 1, "({s}, {i}) has {rows} rows");
            }
        }
        for (s, i, next, outputs, counters) in &table {
            let mut stats = UeReportStats::default();
            let got = step(&mut usim(), &mut stats, state(s), input(i));
            let next = state(if *next == "=" { s } else { next });
            assert_eq!(got, (next, outputs.clone()), "({s}, {i})");
            assert_eq!(counted(&stats), *counters, "({s}, {i}) counters");
        }
    }

    /// A re-attach move made while a service request is out used to keep
    /// ECM `Requesting` with no address: the retry then sent nothing and
    /// re-armed nothing, and an idle UE never asked for service again.
    #[test]
    fn reattach_while_requesting_service_can_request_again() {
        let mut usim = usim();
        let mut stats = UeReportStats::default();
        let mut ue = state("Att R1#7 a 7");
        let mut outputs = Vec::new();
        for name in ["move/reattach", "accept", "release", "uplink"] {
            (ue, outputs) = step(&mut usim, &mut stats, ue, input(name));
        }
        let request = Nas::ServiceRequest {
            imsi: IMSI,
            ue_addr: B,
        };
        assert_eq!(ue.ecm, Ecm::Requesting(1, 9));
        assert!(outputs.contains(&Output::Send(request, wire::S1AP_PATH_SWITCH)));
    }

    #[test]
    fn retransmissions_back_off_to_their_caps() {
        let waits = |base, cap| {
            (1..=6)
                .map(|n| backoff(base, n, cap).as_millis())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            waits(3_000, 24_000),
            [3_000, 6_000, 12_000, 24_000, 24_000, 24_000]
        );
        assert_eq!(waits(500, 4_000), [500, 1_000, 2_000, 4_000, 4_000, 4_000]);
    }
}
