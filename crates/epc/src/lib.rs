//! # dlte-epc — the Evolved Packet Core, centralized and stubbed
//!
//! Implements both sides of the paper's architectural comparison as
//! [`dlte_net::NodeHandler`]s over the packet substrate:
//!
//! * **Centralized LTE** (§2.1): [`HssNode`], [`MmeNode`], [`SgwNode`],
//!   [`PgwNode`] — the full attach call flow (NAS attach → EPS-AKA → session
//!   creation → bearer setup), GTP-U user-plane tunneling eNB → S-GW → P-GW,
//!   and S1-style path-switch handover that preserves the UE's IP address.
//! * **dLTE local core** (§4.1): [`LocalCoreNode`] — the pared-down stub
//!   that authenticates against published keys, terminates tunnels at the
//!   AP, assigns locally routable addresses and performs local breakout.
//!   No mobility management, no inter-gateway signaling, no billing.
//! * The common actors: [`EnbNode`] (radio-side relay + GTP endpoint) and
//!   [`UeNode`] (attach state machine + embedded application).
//!
//! [`MmeNode`] and [`LocalCoreNode`] run one and the same network-side
//! EPS-AKA attach procedure (`attach.rs`, a sans-IO state machine); they
//! differ only in where vectors come from and how a session is opened.
//! [`MmeNode`] and [`SgwNode`] likewise drive the two halves of one sans-IO
//! GTP session lifecycle (`session.rs`) and share one echo path-management
//! driver ([`path`]).
//!
//! Control-plane entities process messages through a [`proc::Processor`]
//! with finite service rate, which is what makes the centralized core a
//! measurable chokepoint (experiment E9) while per-AP stubs scale linearly.

#![forbid(unsafe_code)]

mod attach;
pub mod audit;
pub mod enb;
pub mod hss;
pub mod local_core;
pub mod messages;
pub mod mme;
pub mod obs;
pub mod path;
pub mod pgw;
pub mod proc;
mod session;
pub mod sgw;
pub mod topology;
pub mod ue;

pub use audit::{LocalCoreAudit, MmeAudit, PgwAudit, SgwAudit};
pub use enb::EnbNode;
pub use hss::HssNode;
pub use local_core::LocalCoreNode;
pub use messages::*;
pub use mme::MmeNode;
pub use pgw::PgwNode;
pub use sgw::SgwNode;
pub use topology::{CentralizedLteBuilder, CentralizedLteNet};
pub use ue::{UeApp, UeNode, UeState};
