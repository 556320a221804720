//! The GTP session lifecycle, written once for the MME and the S-GW.
//!
//! This is the per-UE state the paper's centralized core keeps in step
//! across the wide area (§3.1), and that strands a session when one of the
//! gateways fails. Each half is a pure `(state, input) → (state, outputs)`
//! function in the shape of `attach.rs`, with no node context, clock or
//! network; time arrives in the input.
//!
//! * [`mme::step`] takes a UE from the attach's `Authenticated` through
//!   session creation (S11), ECM-IDLE release and paging, the S1 path
//!   switch and its stuck-switch retry, detach, and the loss of the S-GW.
//! * [`sgw::step`] keeps one bearer through create, the P-GW's answer
//!   (S5), modify, release-access, delete and teardown.
//!
//! `MmeNode` and `SgwNode` keep the I/O: TEID allocation, packet building,
//! the processor, stats, and the S-GW's per-packet user plane, which reads
//! the bearer table directly and never calls a step. Each output is one
//! driver action, in order. An input a state does not expect (a stray or
//! late message, a context that is gone) leaves the state unchanged and
//! yields no outputs.

use crate::attach::Trace;
use crate::messages::Teid;
use dlte_net::Addr;
use dlte_obs::NasProc;
use dlte_sim::{SimDuration, SimTime};

/// The MME half: one UE's session after authentication.
pub mod mme {
    use super::*;

    /// The bearer the MME hands each serving eNB.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Bearer {
        pub ue_addr: Addr,
        /// Downlink TEID at the eNB.
        pub teid_dl: Teid,
        /// Uplink TEID at the S-GW.
        pub teid_ul_sgw: Teid,
    }

    /// A UE's session at the MME; no state means none. The `Addr` is the
    /// serving eNB (the target eNB of a path switch).
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Session {
        /// Since the `SimTime`, waiting for the S-GW to create the bearer
        /// toward the eNB's downlink TEID.
        Creating(Addr, Teid, SimTime),
        /// The bearer is up.
        Active(Addr, Bearer),
        /// ECM-IDLE: S1 released, the UE reachable only by paging.
        Idle(Addr, Bearer),
        /// Since the `SimTime`, waiting for the S-GW to move the bearer to
        /// the eNB.
        Switching(Addr, Bearer, SimTime),
    }

    /// What can happen to a session.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Input {
        /// The attach authenticated the UE through the eNB at the time; the
        /// driver allocated the downlink TEID.
        Open(Addr, Teid, SimTime),
        /// CreateSessionResponse: the UE's address and the S-GW's uplink
        /// TEID, arriving at the time.
        Created(Addr, Teid, SimTime),
        /// DownlinkDataNotification.
        DataWaiting,
        /// ModifyBearerResponse, arriving at the time.
        Modified(SimTime),
        /// UeContextReleaseRequest: the eNB saw the UE go inactive.
        Inactive,
        /// PathSwitchRequest from the target eNB `to`.
        PathSwitch {
            ue_addr: Addr,
            to: Addr,
            at: SimTime,
        },
        /// DetachRequest.
        Detach,
        /// The S-GW died or restarted, losing every bearer.
        SgwLost,
        /// A path-management tick at the time, one interval after the last.
        Tick(SimTime, SimDuration),
    }

    /// What the driver must do, in order.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Output {
        Trace(Trace),
        /// Ask the S-GW for a bearer toward the eNB's downlink TEID
        /// (CreateSessionRequest).
        Create(Addr, Teid),
        /// Install the bearer at the eNB and accept the attach, which took
        /// the duration.
        Attached(Addr, Bearer, SimDuration),
        /// Page the UE at the eNB.
        Page(Addr),
        /// Release the access bearer at the S-GW and the UE at the eNB.
        Release(Addr),
        /// Install the bearer at `to`, move it there at the S-GW, and
        /// release the UE at `from` if that is another eNB.
        Switch {
            from: Addr,
            to: Addr,
            bearer: Bearer,
        },
        /// Re-send a lost ModifyBearerRequest toward the eNB's downlink
        /// TEID.
        RetrySwitch(Addr, Teid),
        /// Complete the switch at the eNB, which took the duration.
        Switched(Addr, SimDuration),
        /// Delete the session at the S-GW and release the UE at the eNB.
        Delete(Addr),
        /// The S-GW lost the session: order the UE off the eNB, if it had
        /// an eNB context.
        Lost(Option<Addr>),
    }

    /// Advance one UE's session by one input.
    pub fn step(state: Option<Session>, input: Input) -> (Option<Session>, Vec<Output>) {
        use Output::Trace as T;
        use Session::*;
        match (state, input) {
            (_, Input::Open(enb, teid_dl, at)) => (
                Some(Creating(enb, teid_dl, at)),
                vec![
                    T(Trace::Start(NasProc::Session)),
                    Output::Create(enb, teid_dl),
                ],
            ),
            (Some(Creating(enb, teid_dl, since)), Input::Created(ue_addr, teid_ul_sgw, at)) => {
                let bearer = Bearer {
                    ue_addr,
                    teid_dl,
                    teid_ul_sgw,
                };
                (
                    Some(Active(enb, bearer)),
                    vec![
                        T(Trace::End(NasProc::Session, true)),
                        T(Trace::End(NasProc::Attach, true)),
                        Output::Attached(enb, bearer, at.saturating_since(since)),
                    ],
                )
            }
            (Some(Active(enb, bearer)), Input::Inactive) => {
                (Some(Idle(enb, bearer)), vec![Output::Release(enb)])
            }
            (Some(Idle(enb, _)), Input::DataWaiting) => (state, vec![Output::Page(enb)]),
            // The target eNB gets the context at once (in real S1AP it
            // already holds it: it initiated the switch), so downlink the
            // S-GW flushes never races an uninstalled tunnel.
            (
                Some(Active(from, bearer) | Idle(from, bearer)),
                Input::PathSwitch { ue_addr, to, at },
            ) => {
                let bearer = Bearer { ue_addr, ..bearer };
                (
                    Some(Switching(to, bearer, at)),
                    vec![
                        T(Trace::Start(NasProc::Handover)),
                        Output::Switch { from, to, bearer },
                    ],
                )
            }
            (Some(Switching(enb, bearer, since)), Input::Modified(at)) => (
                Some(Active(enb, bearer)),
                vec![
                    T(Trace::End(NasProc::Handover, true)),
                    Output::Switched(enb, at.saturating_since(since)),
                ],
            ),
            // The ModifyBearerRequest (or its answer) was lost and nothing
            // else retransmits it. It is idempotent at the S-GW, and its
            // answer completes the switch.
            (Some(Switching(enb, bearer, since)), Input::Tick(at, interval))
                if at.saturating_since(since) >= interval =>
            {
                (state, vec![Output::RetrySwitch(enb, bearer.teid_dl)])
            }
            (Some(Active(enb, _) | Idle(enb, _)), Input::Detach) => (
                None,
                vec![
                    T(Trace::Start(NasProc::Detach)),
                    T(Trace::End(NasProc::Detach, true)),
                    Output::Delete(enb),
                ],
            ),
            // A detach in mid-procedure drops the context without a word.
            (Some(Creating(..) | Switching(..)), Input::Detach) => (None, Vec::new()),
            // No eNB context yet: the UE's own attach timer retries.
            (Some(Creating(..)), Input::SgwLost) => (
                None,
                vec![
                    T(Trace::End(NasProc::Session, false)),
                    T(Trace::End(NasProc::Attach, false)),
                    Output::Lost(None),
                ],
            ),
            (Some(Active(enb, _) | Idle(enb, _) | Switching(enb, ..)), Input::SgwLost) => {
                (None, vec![Output::Lost(Some(enb))])
            }
            (
                state,
                Input::Created(..)
                | Input::DataWaiting
                | Input::Modified(_)
                | Input::Inactive
                | Input::PathSwitch { .. }
                | Input::Detach
                | Input::SgwLost
                | Input::Tick(..),
            ) => (state, Vec::new()),
        }
    }
}

/// The S-GW half: one bearer.
pub mod sgw {
    use super::*;

    /// A bearer at the S-GW.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct Bearer {
        pub enb_addr: Addr,
        pub teid_dl_enb: Teid,
        /// False while the UE is ECM-IDLE: the eNB tunnel is torn down,
        /// downlink is buffered, and a notification wakes the MME.
        pub enb_connected: bool,
        /// One notification per idle period.
        pub ddn_sent: bool,
        /// Uplink TEID at this S-GW (eNB → us).
        pub teid_ul_sgw: Teid,
        /// Downlink TEID at this S-GW (P-GW → us).
        pub teid_dl_sgw: Teid,
        pub pgw_addr: Addr,
        pub teid_ul_pgw: Option<Teid>,
        pub ue_addr: Option<Addr>,
        /// MME to answer once the P-GW responds.
        pub pending_mme: Option<Addr>,
    }

    /// What can happen to a bearer.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Input {
        /// CreateSessionRequest: the fresh bearer it describes (connected,
        /// waiting for the P-GW, the MME to answer), replacing any stale
        /// one.
        Create(Bearer),
        /// The P-GW's CreateResponse: the UE's address, the P-GW, and its
        /// uplink TEID.
        Created {
            ue_addr: Addr,
            pgw: Addr,
            teid: Teid,
        },
        /// ModifyBearerRequest from `mme`: move the downlink to `enb`.
        Modify { enb: Addr, teid: Teid, mme: Addr },
        /// ReleaseAccessBearers: the UE went ECM-IDLE.
        ReleaseAccess,
        /// DeleteSessionRequest.
        Delete,
        /// The P-GW lost the bearer (path down, restart, error indication).
        Teardown,
    }

    /// What the driver must do, in order.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub enum Output {
        /// Ask the P-GW for the session toward the S-GW's downlink TEID (S5
        /// CreateRequest).
        Create(Teid),
        /// Count the session, and answer the MME that asked, if any, with
        /// the UE's address and the S-GW's uplink TEID.
        Created(Option<Addr>, Addr, Teid),
        /// Flush the idle-mode buffer to the new eNB endpoint and answer
        /// `mme`.
        Modified { enb: Addr, teid: Teid, mme: Addr },
        /// Count the released access bearer.
        Released,
        /// Delete the UE's session at the P-GW.
        Delete(Addr),
        /// Count the cleaned bearer, and send its eNB an error indication
        /// for the eNB's downlink TEID if it was connected.
        TornDown(Option<(Addr, Teid)>),
    }

    /// Advance one bearer by one input.
    pub fn step(state: Option<Bearer>, input: Input) -> (Option<Bearer>, Vec<Output>) {
        match (state, input) {
            (_, Input::Create(b)) => (Some(b), vec![Output::Create(b.teid_dl_sgw)]),
            (Some(mut b), Input::Created { ue_addr, pgw, teid }) => {
                let created = Output::Created(b.pending_mme.take(), ue_addr, b.teid_ul_sgw);
                (b.pgw_addr, b.teid_ul_pgw, b.ue_addr) = (pgw, Some(teid), Some(ue_addr));
                (Some(b), vec![created])
            }
            (Some(mut b), Input::Modify { enb, teid, mme }) => {
                (b.enb_addr, b.teid_dl_enb) = (enb, teid);
                (b.enb_connected, b.ddn_sent) = (true, false);
                (Some(b), vec![Output::Modified { enb, teid, mme }])
            }
            (Some(mut b), Input::ReleaseAccess) => {
                (b.enb_connected, b.ddn_sent) = (false, false);
                (Some(b), vec![Output::Released])
            }
            (Some(b), Input::Delete) => {
                let ue_addr = b.ue_addr.unwrap_or(Addr::UNSPECIFIED);
                (None, vec![Output::Delete(ue_addr)])
            }
            (Some(b), Input::Teardown) => {
                let error_to = b.enb_connected.then_some((b.enb_addr, b.teid_dl_enb));
                (None, vec![Output::TornDown(error_to)])
            }
            (
                None,
                Input::Created { .. }
                | Input::Modify { .. }
                | Input::ReleaseAccess
                | Input::Delete
                | Input::Teardown,
            ) => (None, Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENB: Addr = Addr::new(10, 1, 0, 1);
    const ENB2: Addr = Addr::new(10, 1, 0, 2);
    const UE: Addr = Addr::new(10, 45, 0, 1);
    const T0: SimTime = SimTime::from_millis(5);
    const T1: SimTime = SimTime::from_millis(9);
    const TOOK: SimDuration = SimDuration::from_millis(4);

    /// Check `table` covers every (state, input) pair exactly once, then
    /// check each row against `step`.
    fn check<S: PartialEq + std::fmt::Debug, O: PartialEq + std::fmt::Debug>(
        states: &[&str],
        inputs: &[&str],
        table: &[(&str, &str, S, Vec<O>)],
        step: impl Fn(&str, &str) -> (S, Vec<O>),
    ) {
        assert_eq!(table.len(), states.len() * inputs.len());
        for s in states {
            for i in inputs {
                let rows = table.iter().filter(|r| r.0 == *s && r.1 == *i).count();
                assert_eq!(rows, 1, "({s}, {i}) has {rows} rows");
            }
        }
        for (s, i, next, outputs) in table {
            let (got, got_outputs) = step(s, i);
            assert_eq!((&got, &got_outputs), (next, outputs), "({s}, {i})");
        }
    }

    mod mme_half {
        use super::*;
        use crate::session::mme::*;

        const BEARER: Bearer = Bearer {
            ue_addr: UE,
            teid_dl: 5,
            teid_ul_sgw: 7,
        };
        /// The bearer after a path switch: the UE address comes from the
        /// PathSwitchRequest.
        const MOVED: Bearer = Bearer {
            ue_addr: Addr::new(10, 45, 0, 9),
            ..BEARER
        };

        /// Every state by name, plus the states a row leads to.
        fn state(name: &str) -> Option<Session> {
            match name {
                "none" => None,
                "creating" => Some(Session::Creating(ENB, 5, T0)),
                "opened" => Some(Session::Creating(ENB, 5, T1)),
                "active" => Some(Session::Active(ENB, BEARER)),
                "idle" => Some(Session::Idle(ENB, BEARER)),
                "switching" => Some(Session::Switching(ENB2, MOVED, T0)),
                "switched" => Some(Session::Switching(ENB2, MOVED, T1)),
                "moved" => Some(Session::Active(ENB2, MOVED)),
                other => panic!("no state {other}"),
            }
        }

        fn input(name: &str) -> Input {
            match name {
                "authenticated" => Input::Open(ENB, 5, T1),
                "CreateSessionResponse" => Input::Created(UE, 7, T1),
                "DownlinkDataNotification" => Input::DataWaiting,
                "ModifyBearerResponse" => Input::Modified(T1),
                "UeContextReleaseRequest" => Input::Inactive,
                "PathSwitchRequest" => Input::PathSwitch {
                    ue_addr: MOVED.ue_addr,
                    to: ENB2,
                    at: T1,
                },
                "DetachRequest" => Input::Detach,
                "sgw-lost" => Input::SgwLost,
                // One interval after the switch began, and not yet.
                "tick" => Input::Tick(T1, TOOK),
                "early-tick" => Input::Tick(T1, TOOK + TOOK),
                other => panic!("no input {other}"),
            }
        }

        const STATES: [&str; 5] = ["none", "creating", "active", "idle", "switching"];
        const INPUTS: [&str; 10] = [
            "authenticated",
            "CreateSessionResponse",
            "DownlinkDataNotification",
            "ModifyBearerResponse",
            "UeContextReleaseRequest",
            "PathSwitchRequest",
            "DetachRequest",
            "sgw-lost",
            "tick",
            "early-tick",
        ];

        fn start(p: NasProc) -> Output {
            Output::Trace(Trace::Start(p))
        }

        fn end(p: NasProc, ok: bool) -> Output {
            Output::Trace(Trace::End(p, ok))
        }

        /// The whole transition table. A row whose state is unchanged and
        /// whose output list is empty is an input the state does not
        /// expect.
        #[test]
        fn transition_table() {
            use NasProc::{Attach, Detach, Handover};
            let open = || vec![start(NasProc::Session), Output::Create(ENB, 5)];
            let attached = || {
                vec![
                    end(NasProc::Session, true),
                    end(Attach, true),
                    Output::Attached(ENB, BEARER, TOOK),
                ]
            };
            let switch = || {
                let to = ENB2;
                let bearer = MOVED;
                vec![
                    start(Handover),
                    Output::Switch {
                        from: ENB,
                        to,
                        bearer,
                    },
                ]
            };
            let switched = || vec![end(Handover, true), Output::Switched(ENB2, TOOK)];
            let detach = || vec![start(Detach), end(Detach, true), Output::Delete(ENB)];
            let lost_attach = || {
                vec![
                    end(NasProc::Session, false),
                    end(Attach, false),
                    Output::Lost(None),
                ]
            };
            let lost = |enb| vec![Output::Lost(Some(enb))];
            let stray = Vec::new;
            let table: Vec<(&str, &str, &str, Vec<Output>)> = vec![
                ("none", "authenticated", "opened", open()),
                ("none", "CreateSessionResponse", "none", stray()),
                ("none", "DownlinkDataNotification", "none", stray()),
                ("none", "ModifyBearerResponse", "none", stray()),
                ("none", "UeContextReleaseRequest", "none", stray()),
                ("none", "PathSwitchRequest", "none", stray()),
                ("none", "DetachRequest", "none", stray()),
                ("none", "sgw-lost", "none", stray()),
                ("none", "tick", "none", stray()),
                ("none", "early-tick", "none", stray()),
                ("creating", "authenticated", "opened", open()),
                ("creating", "CreateSessionResponse", "active", attached()),
                ("creating", "DownlinkDataNotification", "creating", stray()),
                ("creating", "ModifyBearerResponse", "creating", stray()),
                ("creating", "UeContextReleaseRequest", "creating", stray()),
                ("creating", "PathSwitchRequest", "creating", stray()),
                ("creating", "DetachRequest", "none", Vec::new()),
                ("creating", "sgw-lost", "none", lost_attach()),
                ("creating", "tick", "creating", stray()),
                ("creating", "early-tick", "creating", stray()),
                ("active", "authenticated", "opened", open()),
                ("active", "CreateSessionResponse", "active", stray()),
                ("active", "DownlinkDataNotification", "active", stray()),
                ("active", "ModifyBearerResponse", "active", stray()),
                (
                    "active",
                    "UeContextReleaseRequest",
                    "idle",
                    vec![Output::Release(ENB)],
                ),
                ("active", "PathSwitchRequest", "switched", switch()),
                ("active", "DetachRequest", "none", detach()),
                ("active", "sgw-lost", "none", lost(ENB)),
                ("active", "tick", "active", stray()),
                ("active", "early-tick", "active", stray()),
                ("idle", "authenticated", "opened", open()),
                ("idle", "CreateSessionResponse", "idle", stray()),
                (
                    "idle",
                    "DownlinkDataNotification",
                    "idle",
                    vec![Output::Page(ENB)],
                ),
                ("idle", "ModifyBearerResponse", "idle", stray()),
                ("idle", "UeContextReleaseRequest", "idle", stray()),
                ("idle", "PathSwitchRequest", "switched", switch()),
                ("idle", "DetachRequest", "none", detach()),
                ("idle", "sgw-lost", "none", lost(ENB)),
                ("idle", "tick", "idle", stray()),
                ("idle", "early-tick", "idle", stray()),
                ("switching", "authenticated", "opened", open()),
                ("switching", "CreateSessionResponse", "switching", stray()),
                (
                    "switching",
                    "DownlinkDataNotification",
                    "switching",
                    stray(),
                ),
                ("switching", "ModifyBearerResponse", "moved", switched()),
                ("switching", "UeContextReleaseRequest", "switching", stray()),
                ("switching", "PathSwitchRequest", "switching", stray()),
                ("switching", "DetachRequest", "none", Vec::new()),
                ("switching", "sgw-lost", "none", lost(ENB2)),
                (
                    "switching",
                    "tick",
                    "switching",
                    vec![Output::RetrySwitch(ENB2, 5)],
                ),
                ("switching", "early-tick", "switching", stray()),
            ];
            let table: Vec<_> = table
                .into_iter()
                .map(|(s, i, next, out)| (s, i, state(next), out))
                .collect();
            check(&STATES, &INPUTS, &table, |s, i| step(state(s), input(i)));
        }
    }

    mod sgw_half {
        use super::*;
        use crate::session::sgw::*;

        const MME: Addr = Addr::new(10, 255, 0, 1);
        const PGW: Addr = Addr::new(10, 255, 0, 3);
        const PGW2: Addr = Addr::new(10, 255, 0, 9);
        /// A bearer as CreateSessionRequest makes it.
        const FRESH: Bearer = Bearer {
            enb_addr: ENB,
            teid_dl_enb: 5,
            enb_connected: true,
            ddn_sent: false,
            teid_ul_sgw: 0x10,
            teid_dl_sgw: 0x11,
            pgw_addr: PGW,
            teid_ul_pgw: None,
            ue_addr: None,
            pending_mme: Some(MME),
        };
        /// The P-GW answered.
        const UP: Bearer = Bearer {
            pgw_addr: PGW2,
            teid_ul_pgw: Some(0x20),
            ue_addr: Some(UE),
            pending_mme: None,
            ..FRESH
        };
        /// ECM-IDLE, with a notification already sent.
        const IDLE: Bearer = Bearer {
            enb_connected: false,
            ddn_sent: true,
            ..UP
        };

        fn state(name: &str) -> Option<Bearer> {
            match name {
                "none" => None,
                "fresh" => Some(FRESH),
                "up" => Some(UP),
                "idle" => Some(IDLE),
                other => panic!("no state {other}"),
            }
        }

        fn input(name: &str) -> Input {
            match name {
                "CreateSessionRequest" => Input::Create(FRESH),
                "CreateResponse" => Input::Created {
                    ue_addr: UE,
                    pgw: PGW2,
                    teid: 0x20,
                },
                "ModifyBearerRequest" => Input::Modify {
                    enb: ENB2,
                    teid: 9,
                    mme: MME,
                },
                "ReleaseAccessBearers" => Input::ReleaseAccess,
                "DeleteSessionRequest" => Input::Delete,
                "teardown" => Input::Teardown,
                other => panic!("no input {other}"),
            }
        }

        const STATES: [&str; 4] = ["none", "fresh", "up", "idle"];
        const INPUTS: [&str; 6] = [
            "CreateSessionRequest",
            "CreateResponse",
            "ModifyBearerRequest",
            "ReleaseAccessBearers",
            "DeleteSessionRequest",
            "teardown",
        ];

        /// `b` moved to ENB2 and connected, its notification re-armed.
        fn moved(b: Bearer) -> Option<Bearer> {
            let (enb_addr, teid_dl_enb) = (ENB2, 9);
            Some(Bearer {
                enb_addr,
                teid_dl_enb,
                enb_connected: true,
                ddn_sent: false,
                ..b
            })
        }

        /// `b` with its access bearer released.
        fn released(b: Bearer) -> Option<Bearer> {
            Some(Bearer {
                enb_connected: false,
                ddn_sent: false,
                ..b
            })
        }

        /// The whole transition table, with the next state by value. A row
        /// whose state is unchanged and whose output list is empty is an
        /// input the state does not expect: every request but a create for
        /// an absent bearer.
        #[test]
        fn transition_table() {
            let create = || vec![Output::Create(0x11)];
            let created = |mme| vec![Output::Created(mme, UE, 0x10)];
            let modified = || {
                let (enb, teid, mme) = (ENB2, 9, MME);
                vec![Output::Modified { enb, teid, mme }]
            };
            let release = || vec![Output::Released];
            let torn = |to| vec![Output::TornDown(to)];
            let stray = Vec::new;
            let table: Vec<(&str, &str, Option<Bearer>, Vec<Output>)> = vec![
                ("none", "CreateSessionRequest", Some(FRESH), create()),
                ("none", "CreateResponse", None, stray()),
                ("none", "ModifyBearerRequest", None, stray()),
                ("none", "ReleaseAccessBearers", None, stray()),
                ("none", "DeleteSessionRequest", None, stray()),
                ("none", "teardown", None, stray()),
                ("fresh", "CreateSessionRequest", Some(FRESH), create()),
                ("fresh", "CreateResponse", Some(UP), created(Some(MME))),
                ("fresh", "ModifyBearerRequest", moved(FRESH), modified()),
                ("fresh", "ReleaseAccessBearers", released(FRESH), release()),
                (
                    "fresh",
                    "DeleteSessionRequest",
                    None,
                    vec![Output::Delete(Addr::UNSPECIFIED)],
                ),
                ("fresh", "teardown", None, torn(Some((ENB, 5)))),
                ("up", "CreateSessionRequest", Some(FRESH), create()),
                ("up", "CreateResponse", Some(UP), created(None)),
                ("up", "ModifyBearerRequest", moved(UP), modified()),
                ("up", "ReleaseAccessBearers", released(UP), release()),
                ("up", "DeleteSessionRequest", None, vec![Output::Delete(UE)]),
                ("up", "teardown", None, torn(Some((ENB, 5)))),
                ("idle", "CreateSessionRequest", Some(FRESH), create()),
                ("idle", "CreateResponse", Some(IDLE), created(None)),
                ("idle", "ModifyBearerRequest", moved(IDLE), modified()),
                ("idle", "ReleaseAccessBearers", released(IDLE), release()),
                (
                    "idle",
                    "DeleteSessionRequest",
                    None,
                    vec![Output::Delete(UE)],
                ),
                ("idle", "teardown", None, torn(None)),
            ];
            check(&STATES, &INPUTS, &table, |s, i| step(state(s), input(i)));
        }
    }
}
