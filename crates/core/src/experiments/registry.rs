//! The experiment registry: every table/figure/claim behind one trait.
//!
//! Each experiment module keeps its own `Params` struct and `run_with`
//! function; this module wraps them in the object-safe [`Experiment`] trait
//! so a runner can enumerate all twenty-one, resolve one by id, override its
//! parameters as JSON, and attach instrumentation without knowing any
//! concrete type. [`registry`] returns them in canonical report order
//! (`t1`, `f1`, `f2`, `e1`..`e18`) — the order `dlte-run all` executes and
//! prints.

use super::Table;
use serde_json::Value;
use std::fmt;

/// Why an experiment invocation failed before (or instead of) producing a
/// table.
#[derive(Clone, Debug, PartialEq)]
pub enum ExperimentError {
    /// The requested id is not in the registry.
    UnknownExperiment { id: String },
    /// The params JSON did not deserialize into the experiment's `Params`.
    BadParams { id: &'static str, message: String },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownExperiment { id } => {
                write!(f, "unknown experiment id {id:?} (try `dlte-run --list`)")
            }
            ExperimentError::BadParams { id, message } => {
                write!(f, "bad params for {id}: {message}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// One registered experiment: stable id, human title, serde-able params.
pub trait Experiment: Sync {
    /// Stable lowercase id used on the command line (`e1`, `t1`, ...).
    fn id(&self) -> &'static str;

    /// One-line human title (matches the produced table's title).
    fn title(&self) -> &'static str;

    /// The experiment's default parameters, as JSON. Always an object;
    /// experiments without knobs return `{}`.
    fn default_params(&self) -> Value;

    /// Run with the given parameters. Fields absent from `params` fall back
    /// to their defaults; unknown fields are ignored.
    fn run(&self, params: &Value) -> Result<Table, ExperimentError>;

    /// Run like [`Experiment::run`], additionally measuring the invocation
    /// with [`dlte_sim::report::scope`] and attaching the resulting
    /// [`dlte_sim::RunReport`] as the table's `meta`. The metrics registry
    /// is drained around the run so the report's `drops` breakdown and full
    /// `metrics` snapshot cover exactly this invocation.
    fn run_instrumented(&self, params: &Value) -> Result<Table, ExperimentError> {
        let _ = dlte_obs::metrics::take(); // isolate this run's counters
        let (result, mut report) = dlte_sim::report::scope(|| self.run(params));
        let snap = dlte_obs::metrics::take();
        result.map(|mut table| {
            report.drops = snap.prefixed("drops_");
            report.metrics = Some(snap);
            table.meta = Some(report);
            table
        })
    }
}

macro_rules! experiments {
    ($($ty:ident => $module:ident, $id:literal, $title:literal;)*) => {
        $(
            #[doc = concat!("Registry entry for [`super::", stringify!($module), "`].")]
            pub struct $ty;

            impl Experiment for $ty {
                fn id(&self) -> &'static str {
                    $id
                }

                fn title(&self) -> &'static str {
                    $title
                }

                fn default_params(&self) -> Value {
                    serde_json::to_value(super::$module::Params::default())
                        .expect("default params serialize")
                }

                fn run(&self, params: &Value) -> Result<Table, ExperimentError> {
                    let params: super::$module::Params =
                        serde_json::from_value(params.clone()).map_err(|e| {
                            ExperimentError::BadParams { id: $id, message: e.to_string() }
                        })?;
                    Ok(super::$module::run_with(params))
                }
            }
        )*

        /// All experiments, in canonical report order.
        pub fn registry() -> &'static [&'static dyn Experiment] {
            &[$(&$ty,)*]
        }
    };
}

experiments! {
    T1Exp => t1_design_space, "t1", "Design space: core openness × radio regime (paper Table 1)";
    F1Exp => f1_architecture, "f1", "Architecture comparison on identical geometry (paper Figure 1)";
    F2Exp => f2_deployment, "f2", "Deployment economics (paper Figure 2 components, §5 cost report)";
    E1Exp => e1_range, "e1", "Downlink throughput vs distance, rural terrain (paper §3.2)";
    E2Exp => e2_uplink, "e2", "Uplink goodput vs distance: SC-FDMA vs OFDM handset (paper §3.2)";
    E3Exp => e3_harq, "e3", "Goodput vs SNR, HARQ on/off, 10 MHz (paper §3.2)";
    E4Exp => e4_timing_advance, "e4", "Uplink vs cell radius, timing advance on/off (paper §3.2)";
    E5Exp => e5_fairness, "e5", "N co-channel APs: dLTE fair-share vs WiFi DCF (paper §4.3)";
    E6Exp => e6_hidden_terminal, "e6", "Hidden-terminal topology: carrier sensing vs registry discovery (paper §4.3)";
    E7Exp => e7_cooperative, "e7", "Two-AP overlap: independent vs fair-share vs cooperative (paper §4.3)";
    E8Exp => e8_mobility, "e8", "Service gap per cell change vs dwell time (paper §4.2)";
    E9Exp => e9_core_scaling, "e9", "Simultaneous attach storm: shared EPC vs per-AP stubs (paper §4.1)";
    E10Exp => e10_breakout, "e10", "User RTT vs EPC distance: tunneled vs local breakout (paper §2.1/§4.2)";
    E11Exp => e11_x2_overhead, "e11", "X2 coordination overhead and backhaul-budget degradation (paper §4.3)";
    E12Exp => e12_transport_ablation, "e12", "Transport feature ablation under AP churn (paper §4.2)";
    E13Exp => e13_backhaul_resilience, "e13", "Backhaul failure: standalone APs vs §7 mesh redundancy";
    E14Exp => e14_chaos_sweep, "e14", "Chaos sweep: backhaul outage + core crash, centralized EPC vs dLTE local core";
    E15Exp => e15_fabric_scale, "e15", "Fabric scale sweep: dispatch and forwarding work vs topology size, centralized EPC vs dLTE";
    E16Exp => e16_shard_scale, "e16", "Shard scale sweep: one dLTE deployment on N engine shards, counters shard-invariant";
    E17Exp => e17_registry_chaos, "e17", "Registry chaos: identical fault schedule vs centralized / federated / replicated governance";
    E18Exp => e18_handover_storm, "e18", "Handover storm under chaos: population availability and p99 gap vs dwell, three architectures";
}

/// Look an experiment up by id, case-insensitively (`e1` and `E1` both
/// resolve).
pub fn find(id: &str) -> Result<&'static dyn Experiment, ExperimentError> {
    registry()
        .iter()
        .copied()
        .find(|e| e.id().eq_ignore_ascii_case(id))
        .ok_or_else(|| ExperimentError::UnknownExperiment { id: id.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_twenty_one_in_report_order() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(
            ids,
            vec![
                "t1", "f1", "f2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
                "e11", "e12", "e13", "e14", "e15", "e16", "e17", "e18",
            ]
        );
    }

    #[test]
    fn find_is_case_insensitive_and_rejects_unknown_ids() {
        assert_eq!(find("E5").unwrap().id(), "e5");
        assert_eq!(find("e5").unwrap().id(), "e5");
        match find("e99") {
            Err(err) => {
                assert_eq!(err, ExperimentError::UnknownExperiment { id: "e99".into() })
            }
            Ok(exp) => panic!("e99 unexpectedly resolved to {}", exp.id()),
        }
    }

    #[test]
    fn default_params_are_objects() {
        for exp in registry() {
            let params = exp.default_params();
            assert!(
                matches!(params, Value::Object(_)),
                "{} default params must be a JSON object, got {params:?}",
                exp.id()
            );
        }
    }

    #[test]
    fn bad_params_report_the_experiment_id() {
        let exp = find("e1").unwrap();
        let bad = serde_json::from_str::<Value>(r#"{"distances_km": "not-an-array"}"#).unwrap();
        let err = exp.run(&bad).unwrap_err();
        match err {
            ExperimentError::BadParams { id, .. } => assert_eq!(id, "e1"),
            other => panic!("expected BadParams, got {other:?}"),
        }
    }

    #[test]
    fn run_instrumented_attaches_meta() {
        // t1 is pure classification (no simulation) — cheap enough for a unit
        // test, and still must carry a report.
        let exp = find("t1").unwrap();
        let table = exp.run_instrumented(&exp.default_params()).unwrap();
        let meta = table.meta.expect("meta attached");
        assert!(meta.wall_ms >= 0.0);
        assert!(meta.metrics.is_some(), "snapshot always attached");
        assert_eq!(table.id, "T1");
    }
}
