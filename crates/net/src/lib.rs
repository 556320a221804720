//! # dlte-net — packet-level network substrate
//!
//! The IP backhaul every dLTE component rides on: nodes connected by links
//! with finite rate, propagation delay and drop-tail queues; static routing
//! with longest-prefix match; GTP-U tunnel encapsulation (how a centralized
//! EPC hauls user traffic, §2.1); and per-flow latency tracing.
//!
//! Architecture: [`Network`] implements [`dlte_sim::World`]. Behaviour lives
//! in per-node [`NodeHandler`]s (an EPC's MME is a handler, so is a UE's
//! application). Nodes without handlers act as plain routers: packets for a
//! local address are delivered to the trace sink; everything else is
//! forwarded by the node's routing table. This keeps the substrate ignorant
//! of LTE — the cellular logic composes on top in `dlte-epc` and `dlte`.

#![forbid(unsafe_code)]

pub mod addr;
pub mod fxhash;
pub mod gtp;
pub mod handlers;
pub mod link;
pub mod network;
pub mod node;
pub mod packet;
pub mod pool;
pub mod sharded;
pub mod trace;

pub use addr::{Addr, AddrPool, Prefix};
pub use link::{LinkConfig, LinkId, LinkOverride};
pub use network::{
    in_flight_packets, FabricCounters, NetAudit, NetEvent, NetFault, Network, NetworkBuilder,
};
pub use node::{NodeCtx, NodeHandler, NodeId};
pub use packet::{Packet, Payload, TunnelHeader, TunnelStack};
pub use pool::{PacketPool, PacketRef, PoolError};
pub use sharded::{plan_for, ShardedSim};
pub use trace::TraceStats;
