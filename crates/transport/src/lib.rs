//! # dlte-transport — service continuity without network mobility
//!
//! §4.2: *"dLTE does not support IP address mobility, leaving service
//! continuity to endpoint transport and application layers... current-
//! generation transport protocols make this approach more feasible than it
//! was in the past, incorporating zero RTT secure flow resumption, forward
//! error correction to mask discontinuity, non head of line blocking, and
//! multiple IP address support for client managed handoff."*
//!
//! This crate implements exactly that feature list as a QUIC-shaped
//! transport over the packet substrate:
//!
//! * connections identified by **connection ID**, not 4-tuple ([`connection`]);
//! * **1-RTT** handshake and **0-RTT resumption** from cached tokens;
//! * **connection migration**: the client keeps the CID across an address
//!   change and revalidates the new path;
//! * **XOR-parity FEC** groups that mask isolated losses ([`fec`]);
//! * **independent streams** with per-stream ordering, so one stream's loss
//!   never blocks another ([`streams`]) — plus a deliberate *legacy mode*
//!   that reproduces TCP's global ordering and 4-tuple binding, used as the
//!   baseline in experiments E8/E12.
//!
//! Omissions, documented: congestion control is a fixed window (the
//! experiments stress control-plane churn, not bandwidth probing), and
//! cryptography is absent (key exchange is modeled by the handshake RTT,
//! which is the cost the architecture argument cares about).

#![forbid(unsafe_code)]

pub mod connection;
pub mod fec;
pub mod frames;
pub mod handlers;
pub mod received;
pub mod rtt;
pub mod streams;

pub use connection::{ClientConn, ConnEvent, ServerConn, TransportConfig};
pub use frames::{Frame, ResumeToken};
pub use handlers::{TransportClientNode, TransportServerNode};
