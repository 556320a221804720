//! # dlte-x2 — peer-to-peer coordination between access points
//!
//! §4.3: *"dLTE access points establish connections with their neighboring
//! APs via a standardized protocol over the Internet backhaul"* — an X2-AP
//! dialect *"extended with information about the dLTE operating mode and
//! dLTE peer status."* This crate implements that protocol and the two
//! coordination behaviours the paper defines:
//!
//! * **Fair-sharing mode** ([`fair_share`]): APs programmatically agree on
//!   the *"bare minimum of fair time-frequency sharing"* — a max-min
//!   (water-filling) partition of the shared channel driven by exchanged
//!   demand reports;
//! * **Cooperative mode** ([`cooperative`]): APs *"optimize for maximum
//!   joint RF performance"* — best-AP and load-balanced client assignment.
//!
//! [`peer::X2Agent`] is the wire-level agent (a [`dlte_net::NodeHandler`])
//! that exchanges periodic load/status messages with its contention-domain
//! peers, tracks peer liveness, and exposes the negotiated share. The peer
//! list is the contention domain of the AP's own [`dlte_registry`] grant:
//! `dlte::scenario::Deployment::x2_neighbors` asks the registry
//! once per built network, so X2 load per AP is bounded by its town, not
//! by the deployment.
//! [`bandwidth`] accounts the X2 overhead (experiment E11; cf. La Roche &
//! Widjaja's X2 sizing \[28\]).

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod cooperative;
pub mod fair_share;
pub mod messages;
pub mod peer;

pub use fair_share::{max_min_shares, weighted_shares};
pub use messages::{CoordinationMode, X2Msg};
pub use peer::{X2Agent, X2AgentStats};
