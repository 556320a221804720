//! # dlte-auth — LTE authentication, open and closed
//!
//! LTE builds mutual authentication on symmetric keys held in the SIM and
//! the operator's HSS (EPS-AKA). The paper's move (§4.2) is to *"intentionally
//! undermine"* this: users pre-publish their keys so that **any** dLTE AP can
//! run the same AKA handshake, pushing identity out of the access layer
//! entirely. This crate implements both sides:
//!
//! * [`milenage`] — the f1–f5 key-derivation functions (structure-faithful,
//!   **deliberately non-cryptographic** — see the module docs);
//! * [`usim`] — the SIM side of AKA: MAC verification, sequence-number
//!   freshness, resynchronization;
//! * [`vectors`] — the network side: subscriber records and authentication
//!   vector generation (what an HSS, or a dLTE stub core, computes);
//! * [`open`] — the published-key directory that makes dLTE APs universal
//!   authenticators.

#![forbid(unsafe_code)]

pub mod milenage;
pub mod open;
pub mod usim;
pub mod vectors;

pub use open::PublishedKeyDirectory;
pub use usim::{AkaError, AkaResponse, Usim};
pub use vectors::{AuthVector, SubscriberDb, SubscriberRecord};

/// International mobile subscriber identity.
pub type Imsi = u64;

/// A 128-bit subscriber key.
pub type Key = u128;
