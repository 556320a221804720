//! # dlte-registry — the open spectrum license registry
//!
//! §4.3: *"dLTE proposes a novel division of responsibilities for spectrum
//! management, using a lightweight open public license database for peer
//! discovery, and peer-to-peer organization for decentralized
//! coordination."* This crate is that database, in three governance
//! flavours the paper sketches:
//!
//! * [`registry::SpectrumRegistry`] — a single SAS-style automated registry
//!   (the CBRS model \[38\]): geolocated grants with co-channel
//!   interference-contour checks and automatic channel assignment;
//! * [`federated::FederatedRegistry`] — DNS-like geographic delegation:
//!   zones own areas, queries fan out only to intersecting zones;
//! * [`replicated::ReplicatedLog`] — the fully decentralized option \[27\]:
//!   a hash-chained append-only log with replica synchronization, from
//!   which any party can derive the same grant table.
//!
//! The registry's *product* is the answer to one question: **who else
//! transmits on my channel near me?** ([`registry::SpectrumRegistry::
//! contention_domain`]) — the input to X2 peer coordination and the
//! mechanism that replaces carrier-sensing (experiment E6).

#![forbid(unsafe_code)]

pub mod federated;
pub mod geo;
pub mod license;
pub mod registry;
pub mod replicated;

pub use federated::{FederatedRegistry, Zone, ZoneRecovery};
pub use geo::{Point, Rect};
pub use license::{ChannelPlan, GrantId, GrantRequest, LicenseGrant, OperatorId};
pub use registry::{GrantDenied, GrantPolicy, RegistrySnapshot, SpectrumRegistry};
pub use replicated::{Entry, LogSnapshot, ReplicatedLog};
