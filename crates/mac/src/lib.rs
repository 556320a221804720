//! # dlte-mac — medium-access models
//!
//! Two MACs, one per side of the paper's comparison:
//!
//! * [`lte`] — the scheduled LTE MAC: a PRB resource grid filled each TTI by
//!   a pluggable scheduler (round-robin / proportional-fair / max-C/I),
//!   timing advance for long rural links, HARQ at the MAC boundary, and a
//!   subframe-granularity cell simulator used by the range/fairness
//!   experiments.
//! * [`wifi`] — the contention-based 802.11 DCF MAC: slotted CSMA/CA with
//!   binary exponential backoff, carrier-sensing graphs (hence hidden
//!   terminals), and per-station goodput accounting.
//!
//! The contrast between these two modules *is* the paper's §3.2/§4.3
//! argument: coordination via a schedule (granted by licensing and X2
//! peering) versus coordination via carrier sensing.

#![forbid(unsafe_code)]

pub mod lte;
pub mod wifi;

pub use lte::cell::{CellConfig, CellSim, UeConfig, UeReport};
pub use lte::scheduler::{SchedulerKind, TtiScheduler};
pub use lte::timing_advance::{TimingAdvance, MAX_TA_KM};
pub use wifi::dcf::{DcfConfig, DcfSim, StationConfig};
