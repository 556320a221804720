//! # dlte-phy — radio physical-layer models
//!
//! Everything the dLTE reproduction needs to know about radio, with no radio
//! hardware: the 3GPP E-UTRA band table (including the rural bands the paper
//! names — 5, 30, 31), path-loss and shadowing models, link budgets,
//! CQI → MCS → spectral-efficiency mapping, the SC-FDMA vs OFDM waveform
//! power model behind the paper's uplink-range claim, a hybrid-ARQ model with
//! chase combining, and the 802.11 OFDM PHY used by the WiFi baselines.
//!
//! ## Fidelity
//!
//! These are *link-abstraction* models of the kind used in system-level LTE
//! simulators (SINR in, block-error probability and spectral efficiency out),
//! not symbol-level DSP. That is the right altitude for the paper's claims,
//! which are about architecture and link budgets, not coding theory:
//!
//! * path loss: free-space, log-distance, and Okumura-Hata (the standard
//!   empirical model for the sub-2 GHz macro cells dLTE targets);
//! * rate mapping: the 3GPP CQI table (36.213) selected by SINR threshold,
//!   with an attenuated-Shannon sanity envelope;
//! * HARQ: per-transmission BLER from an SINR-offset sigmoid, chase
//!   combining adds received energy across attempts;
//! * SC-FDMA vs OFDM: modeled as a difference in power-amplifier backoff,
//!   which is exactly the mechanism the paper invokes ("higher power
//!   transmission and greater range from mobile devices").

#![forbid(unsafe_code)]

pub mod band;
pub mod fading;
pub mod harq;
pub mod link;
pub mod mcs;
pub mod propagation;
pub mod units;
pub mod waveform;
pub mod wifi;

pub use band::{Band, BandClass, Duplex};
pub use harq::{HarqConfig, HarqOutcome, HarqProcessModel};
pub use link::{LinkBudget, RadioConfig};
pub use mcs::{CqiEntry, CQI_TABLE};
pub use propagation::{Environment, PathLossModel};
pub use units::{db_to_linear, dbm_to_mw, linear_to_db, mw_to_dbm};
pub use waveform::{Waveform, LTE_BANDWIDTHS};
