//! # dlte — Distributed LTE
//!
//! A full-system reproduction of **"dLTE: Building a more WiFi-like
//! Cellular Network (Instead of the Other Way Around)"** (Johnson, Sevilla,
//! Jang & Heimerl, HotNets-XVII 2018), as a deterministic simulation
//! spanning the radio PHY to the application transport.
//!
//! The paper proposes a federated network of standalone LTE access points:
//! each AP runs a pared-down **local core** ([`dlte_epc::LocalCoreNode`]),
//! discovers co-channel neighbors through an **open license registry**
//! ([`dlte_registry`]), coordinates spectrum **peer-to-peer over X2**
//! ([`dlte_x2`]), and leaves mobility and identity to **endpoint
//! transports** ([`dlte_transport`]). This crate assembles those pieces
//! into runnable networks and provides the baselines they are measured
//! against (centralized LTE with a shared EPC; legacy WiFi DCF):
//!
//! * [`ap::DlteApNode`] — one network node that *is* a dLTE AP: local core
//!   + X2 agent behind a single handler;
//! * [`scenario`] — topology builders for dLTE networks (the centralized
//!   twin lives in [`dlte_epc::topology`]), and [`scenario::Deployed`], the
//!   one handle through which a built network of either [`scenario::Arch`]
//!   is driven and read;
//! * [`transport_app`] — the UE upper layer that rides a modern transport
//!   across dLTE's address churn (§4.2);
//! * [`design_space`] — Table 1 as an executable classification;
//! * [`econ`] — the §5 deployment cost/coverage model (Figure 2's bill of
//!   materials);
//! * [`resilience`] — the §7 future-work extension: multi-hop backhaul
//!   sharing between neighboring APs for emergency redundancy;
//! * [`experiments`] — one function per table/figure/claim, producing the
//!   rows the paper reproduction reports (see EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use dlte::scenario::{DlteNetworkBuilder};
//! use dlte_epc::{UeApp, UeNode};
//! use dlte_sim::{SimDuration, SimTime};
//!
//! // One AP, two UEs, everything defaulted: build, run 5 simulated
//! // seconds, inspect.
//! let mut net = DlteNetworkBuilder::new(1, 2)
//!     .with_ue_plan(|_| dlte::scenario::DltePlan {
//!         app: UeApp::Pinger {
//!             dst: DlteNetworkBuilder::ott_addr(),
//!             interval: SimDuration::from_millis(100),
//!             probe_bytes: 100,
//!         },
//!         ..Default::default()
//!     })
//!     .build();
//! net.sim.run_until(SimTime::from_secs(5), 1_000_000);
//! let ue = net.sim.handler_as::<UeNode>(net.ues[0]).unwrap();
//! assert!(ue.stats.pongs > 0, "attached and exchanging traffic");
//! ```

#![forbid(unsafe_code)]

pub mod ap;
pub mod chaos;
pub mod design_space;
pub mod econ;
pub mod experiments;
pub mod fuzz;
pub mod fuzz_registry;
pub mod mobility;
pub mod registry_chaos;
pub mod resilience;
pub mod scenario;
pub mod transport_app;

pub use ap::DlteApNode;
pub use scenario::{DlteNet, DlteNetworkBuilder, DltePlan};
pub use transport_app::TransportUeApp;
