//! The EPS-AKA attach procedure, written once for both cores.
//!
//! TS 24.301 defines one attach: fetch an authentication vector, challenge
//! the UE, check its RES, resynchronize the SQN once if the SIM reports it
//! is ahead, then accept or reject. §4.1's claim is that a dLTE AP runs that
//! same procedure and only places it differently, so here it is a pure
//! `(state, input) → (state, outputs)` function, [`step`], with no node
//! context, clock or network. Two drivers feed it:
//!
//! * [`crate::MmeNode`] fetches vectors from the HSS over S6a and guards
//!   the resync retry with a timer ([`Input::GuardExpired`]);
//! * [`crate::LocalCoreNode`] mints vectors itself from published keys
//!   (local directory, remote directory, or an X2-transferred record).
//!
//! Each driver keeps only what truly differs: where vectors come from, how
//! NAS reaches the UE, and how a session is opened once
//! [`Output::Authenticated`] arrives. The trace steps the procedure defines
//! are [`Output::Trace`]s, in the order both cores emit them; a driver adds
//! only steps of its own (the MME's `VectorRequest`/`VectorIssued`, the
//! local core's `Response`), and ends [`NasProc::Auth`] itself on success,
//! after whatever it records first.

use crate::messages::RejectCause;
use dlte_auth::vectors::AuthVector;
use dlte_auth::Imsi;
use dlte_obs::{AkaStep, Event, NasProc};
use dlte_sim::SimTime;

/// An attach in progress; no state means no attach. Both phases carry when
/// the attach began and whether its one SQN resynchronization is spent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Attach {
    /// A vector request is outstanding.
    AwaitVector { started: SimTime, resynced: bool },
    /// The UE has been challenged with `vector`.
    AwaitResponse {
        started: SimTime,
        vector: AuthVector,
        resynced: bool,
    },
}

impl Attach {
    /// Whether a vector request is outstanding.
    pub fn awaits_vector(&self) -> bool {
        matches!(self, Attach::AwaitVector { .. })
    }

    /// Whether the outstanding vector request is the resync retry, the only
    /// one [`Input::GuardExpired`] abandons.
    pub fn awaits_resync(&self) -> bool {
        matches!(self, Attach::AwaitVector { resynced: true, .. })
    }
}

/// What can happen to an attach.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Input {
    /// The UE asked to attach; a repeated request restarts the procedure.
    Start { at: SimTime },
    /// The key source answered: a vector, or `None` for an unknown
    /// subscriber.
    Vector(Option<AuthVector>),
    /// The UE's RES. `refuse` is why the core could not host the session
    /// even if RES matches (the local core's exhausted address pool); it is
    /// checked only after RES.
    Response {
        res: u64,
        refuse: Option<RejectCause>,
    },
    /// The UE could not accept the challenge: `ue_sqn` carries the SIM's SQN
    /// after a synchronization failure and is `None` after a MAC failure.
    Failure { ue_sqn: Option<u64> },
    /// The driver's guard on the resync retry expired.
    GuardExpired,
}

/// A trace step the procedure itself defines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    Start(NasProc),
    End(NasProc, bool),
    Aka(AkaStep),
}

impl Trace {
    /// The trace event for this step of `imsi`'s attach.
    pub fn event(self, imsi: Imsi) -> Event {
        match self {
            Trace::Start(proc) => Event::NasStart { proc, imsi },
            Trace::End(proc, ok) => Event::NasEnd { proc, imsi, ok },
            Trace::Aka(step) => Event::Aka { step, imsi },
        }
    }
}

/// What the driver must do, in order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Output {
    Trace(Trace),
    /// Ask the key source for a vector, first resynchronizing the
    /// subscriber's SQN to `resync_sqn` when it is set.
    RequestVector {
        resync_sqn: Option<u64>,
    },
    /// Send the UE an AuthenticationRequest for this vector.
    Challenge(AuthVector),
    /// RES matched: open the session. The attach began at `started`.
    Authenticated {
        started: SimTime,
    },
    /// Send the UE an AttachReject with this cause.
    Reject(RejectCause),
    /// Drop the attach silently; the UE's own retransmission recovers.
    Abandon,
}

/// Advance an attach by one input. A `None` state afterwards means the
/// procedure is over (or never began); an input the state does not expect
/// (a stray or late message) changes nothing and yields no outputs.
pub fn step(state: Option<Attach>, input: Input) -> (Option<Attach>, Vec<Output>) {
    use Output::Trace as T;
    match (state, input) {
        (_, Input::Start { at }) => (
            Some(Attach::AwaitVector {
                started: at,
                resynced: false,
            }),
            vec![
                T(Trace::Start(NasProc::Attach)),
                T(Trace::Start(NasProc::Auth)),
                Output::RequestVector { resync_sqn: None },
            ],
        ),
        (Some(Attach::AwaitVector { started, resynced }), Input::Vector(Some(vector))) => (
            Some(Attach::AwaitResponse {
                started,
                vector,
                resynced,
            }),
            vec![T(Trace::Aka(AkaStep::Challenge)), Output::Challenge(vector)],
        ),
        (Some(Attach::AwaitVector { .. }), Input::Vector(None)) => {
            reject(RejectCause::UnknownSubscriber)
        }
        (
            Some(Attach::AwaitResponse {
                started, vector, ..
            }),
            Input::Response { res, refuse },
        ) => match refuse {
            _ if res != vector.xres => reject(RejectCause::AuthenticationFailed),
            Some(cause) => reject(cause),
            None => (None, vec![Output::Authenticated { started }]),
        },
        (
            Some(Attach::AwaitResponse {
                started,
                resynced: false,
                ..
            }),
            Input::Failure { ue_sqn: Some(sqn) },
        ) => (
            Some(Attach::AwaitVector {
                started,
                resynced: true,
            }),
            vec![
                T(Trace::Aka(AkaStep::Resync)),
                Output::RequestVector {
                    resync_sqn: Some(sqn),
                },
            ],
        ),
        (Some(Attach::AwaitResponse { .. }), Input::Failure { .. }) => {
            reject(RejectCause::AuthenticationFailed)
        }
        (Some(Attach::AwaitVector { resynced: true, .. }), Input::GuardExpired) => (
            None,
            vec![
                T(Trace::End(NasProc::Auth, false)),
                T(Trace::End(NasProc::Attach, false)),
                Output::Abandon,
            ],
        ),
        (state, _) => (state, Vec::new()),
    }
}

fn reject(cause: RejectCause) -> (Option<Attach>, Vec<Output>) {
    (
        None,
        vec![
            Output::Trace(Trace::Aka(AkaStep::Failure)),
            Output::Trace(Trace::End(NasProc::Auth, false)),
            Output::Trace(Trace::End(NasProc::Attach, false)),
            Output::Reject(cause),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlte_auth::vectors::{Autn, AMF_EPS};

    const T0: SimTime = SimTime::from_millis(5);
    const T1: SimTime = SimTime::from_millis(9);
    const RES: u64 = 7;
    const V: AuthVector = AuthVector {
        rand: 1,
        xres: RES,
        autn: Autn {
            sqn_xor_ak: 2,
            amf: AMF_EPS,
            mac: 3,
        },
        kasme: 4,
    };

    /// Every state by name; a `'` marks the resync as spent.
    fn state(name: &str) -> Option<Attach> {
        let (started, resynced) = (T0, name.ends_with('\''));
        match name.trim_end_matches('\'') {
            "idle" => None,
            "restarted" => Some(Attach::AwaitVector {
                started: T1,
                resynced: false,
            }),
            "vector" => Some(Attach::AwaitVector { started, resynced }),
            "response" => Some(Attach::AwaitResponse {
                started,
                vector: V,
                resynced,
            }),
            other => panic!("no state {other}"),
        }
    }

    fn input(name: &str) -> Input {
        match name {
            "start" => Input::Start { at: T1 },
            "vector" => Input::Vector(Some(V)),
            "unknown" => Input::Vector(None),
            "res" => Input::Response {
                res: RES,
                refuse: None,
            },
            "bad-res" => Input::Response {
                res: RES + 1,
                refuse: None,
            },
            "res-full" => Input::Response {
                res: RES,
                refuse: Some(RejectCause::NoResources),
            },
            "bad-res-full" => Input::Response {
                res: RES + 1,
                refuse: Some(RejectCause::NoResources),
            },
            "sync" => Input::Failure { ue_sqn: Some(40) },
            "mac" => Input::Failure { ue_sqn: None },
            "guard" => Input::GuardExpired,
            other => panic!("no input {other}"),
        }
    }

    const STATES: [&str; 5] = ["idle", "vector", "vector'", "response", "response'"];
    const INPUTS: [&str; 10] = [
        "start",
        "vector",
        "unknown",
        "res",
        "bad-res",
        "res-full",
        "bad-res-full",
        "sync",
        "mac",
        "guard",
    ];

    fn begin() -> Vec<Output> {
        vec![
            Output::Trace(Trace::Start(NasProc::Attach)),
            Output::Trace(Trace::Start(NasProc::Auth)),
            Output::RequestVector { resync_sqn: None },
        ]
    }

    fn challenge() -> Vec<Output> {
        vec![
            Output::Trace(Trace::Aka(AkaStep::Challenge)),
            Output::Challenge(V),
        ]
    }

    fn resync() -> Vec<Output> {
        vec![
            Output::Trace(Trace::Aka(AkaStep::Resync)),
            Output::RequestVector {
                resync_sqn: Some(40),
            },
        ]
    }

    fn rejected(cause: RejectCause) -> Vec<Output> {
        reject(cause).1
    }

    fn accepted() -> Vec<Output> {
        vec![Output::Authenticated { started: T0 }]
    }

    fn abandoned() -> Vec<Output> {
        vec![
            Output::Trace(Trace::End(NasProc::Auth, false)),
            Output::Trace(Trace::End(NasProc::Attach, false)),
            Output::Abandon,
        ]
    }

    /// The whole transition table: every input in every state, with the
    /// state it leads to and the outputs it yields. An empty output list
    /// with an unchanged state is a stray input.
    #[test]
    fn transition_table() {
        use RejectCause::*;
        let stray = Vec::new;
        let table: Vec<(&str, &str, &str, Vec<Output>)> = vec![
            ("idle", "start", "restarted", begin()),
            ("idle", "vector", "idle", stray()),
            ("idle", "unknown", "idle", stray()),
            ("idle", "res", "idle", stray()),
            ("idle", "bad-res", "idle", stray()),
            ("idle", "res-full", "idle", stray()),
            ("idle", "bad-res-full", "idle", stray()),
            ("idle", "sync", "idle", stray()),
            ("idle", "mac", "idle", stray()),
            ("idle", "guard", "idle", stray()),
            ("vector", "start", "restarted", begin()),
            ("vector", "vector", "response", challenge()),
            ("vector", "unknown", "idle", rejected(UnknownSubscriber)),
            ("vector", "res", "vector", stray()),
            ("vector", "bad-res", "vector", stray()),
            ("vector", "res-full", "vector", stray()),
            ("vector", "bad-res-full", "vector", stray()),
            ("vector", "sync", "vector", stray()),
            ("vector", "mac", "vector", stray()),
            ("vector", "guard", "vector", stray()),
            ("vector'", "start", "restarted", begin()),
            ("vector'", "vector", "response'", challenge()),
            ("vector'", "unknown", "idle", rejected(UnknownSubscriber)),
            ("vector'", "res", "vector'", stray()),
            ("vector'", "bad-res", "vector'", stray()),
            ("vector'", "res-full", "vector'", stray()),
            ("vector'", "bad-res-full", "vector'", stray()),
            ("vector'", "sync", "vector'", stray()),
            ("vector'", "mac", "vector'", stray()),
            ("vector'", "guard", "idle", abandoned()),
            ("response", "start", "restarted", begin()),
            ("response", "vector", "response", stray()),
            ("response", "unknown", "response", stray()),
            ("response", "res", "idle", accepted()),
            (
                "response",
                "bad-res",
                "idle",
                rejected(AuthenticationFailed),
            ),
            ("response", "res-full", "idle", rejected(NoResources)),
            (
                "response",
                "bad-res-full",
                "idle",
                rejected(AuthenticationFailed),
            ),
            ("response", "sync", "vector'", resync()),
            ("response", "mac", "idle", rejected(AuthenticationFailed)),
            ("response", "guard", "response", stray()),
            ("response'", "start", "restarted", begin()),
            ("response'", "vector", "response'", stray()),
            ("response'", "unknown", "response'", stray()),
            ("response'", "res", "idle", accepted()),
            (
                "response'",
                "bad-res",
                "idle",
                rejected(AuthenticationFailed),
            ),
            ("response'", "res-full", "idle", rejected(NoResources)),
            (
                "response'",
                "bad-res-full",
                "idle",
                rejected(AuthenticationFailed),
            ),
            ("response'", "sync", "idle", rejected(AuthenticationFailed)),
            ("response'", "mac", "idle", rejected(AuthenticationFailed)),
            ("response'", "guard", "response'", stray()),
        ];
        assert_eq!(table.len(), STATES.len() * INPUTS.len());
        for s in STATES {
            for i in INPUTS {
                let rows = table.iter().filter(|r| r.0 == s && r.1 == i).count();
                assert_eq!(rows, 1, "({s}, {i}) has {rows} rows");
            }
        }
        for (s, i, next, outputs) in &table {
            let got = step(state(s), input(i));
            assert_eq!(got, (state(next), outputs.clone()), "({s}, {i})");
        }
    }

    #[test]
    fn only_the_resync_retry_is_guarded() {
        for s in STATES {
            let st = state(s);
            assert_eq!(
                st.is_some_and(|a| a.awaits_vector()),
                s.starts_with("vector")
            );
            assert_eq!(st.is_some_and(|a| a.awaits_resync()), s == "vector'");
        }
    }

    #[test]
    fn traces_become_events_of_the_imsi() {
        assert_eq!(
            Trace::End(NasProc::Auth, false).event(1001),
            Event::NasEnd {
                proc: NasProc::Auth,
                imsi: 1001,
                ok: false
            }
        );
        assert_eq!(
            Trace::Aka(AkaStep::Resync).event(9),
            Event::Aka {
                step: AkaStep::Resync,
                imsi: 9
            }
        );
        assert_eq!(
            Trace::Start(NasProc::Attach).event(3),
            Event::NasStart {
                proc: NasProc::Attach,
                imsi: 3
            }
        );
    }
}
