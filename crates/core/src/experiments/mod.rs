//! The experiment harness: one module per table/figure/claim of the paper.
//!
//! Each module exposes a serde-able `Params` struct, `run_with(Params)` and a
//! default-params `run()`, returning a [`Table`] — the rows EXPERIMENTS.md
//! records. The [`registry`] module unifies all nineteen behind the
//! [`registry::Experiment`] trait so the `dlte-run` binary (in `dlte-bench`)
//! can resolve any experiment by id, override its parameters as JSON, and
//! attach run instrumentation ([`dlte_sim::RunReport`]) to the result.
//!
//! | id | paper anchor | claim |
//! |----|--------------|-------|
//! | T1 | Table 1      | dLTE uniquely occupies open-core × licensed |
//! | F1 | Figure 1     | local breakout vs EPC tunneling, peer vs mediated control |
//! | F2 | Figure 2, §5 | <$8000 site covers a town |
//! | E1 | §3.2         | LTE waveform out-ranges WiFi |
//! | E2 | §3.2         | SC-FDMA uplink buys range |
//! | E3 | §3.2         | HARQ lifts weak-signal throughput |
//! | E4 | §3.2         | timing advance enables long cells |
//! | E5 | §4.3         | fair-share ≈ WiFi fairness, better efficiency |
//! | E6 | §4.3         | registry kills hidden terminals |
//! | E7 | §4.3         | cooperative > fair-share > independent |
//! | E8 | §4.2         | endpoint mobility viable; breaks down at high churn |
//! | E9 | §4.1         | per-AP stubs scale; shared EPC saturates |
//! | E10| §2.1/§4.2    | breakout removes path inflation |
//! | E11| §4.3         | X2 is low-bandwidth, degrades gracefully |
//! | E12| §4.2         | 0-RTT/migration/FEC make churn survivable |
//! | E13| §7           | AP mesh bounds outages when a backhaul dies |
//! | E14| §2.2/§4.2    | chaos sweep: local core rides out a backhaul outage; EPC loses all |
//! | E15| ROADMAP §perf| fabric work scales with topology size; timing in `benchmark/results/` (`fabric_*`) |
//! | E16| ROADMAP §perf| sharded engine: shard-invariant counters; timing in `benchmark/results/` (`shard_cross`) |

pub mod e10_breakout;
pub mod e11_x2_overhead;
pub mod e12_transport_ablation;
pub mod e13_backhaul_resilience;
pub mod e14_chaos_sweep;
pub mod e15_fabric_scale;
pub mod e16_shard_scale;
pub mod e17_registry_chaos;
pub mod e18_handover_storm;
pub mod e1_range;
pub mod e2_uplink;
pub mod e3_harq;
pub mod e4_timing_advance;
pub mod e5_fairness;
pub mod e6_hidden_terminal;
pub mod e7_cooperative;
pub mod e8_mobility;
pub mod e9_core_scaling;
pub mod f1_architecture;
pub mod f2_deployment;
pub mod t1_design_space;

pub mod registry;

use dlte_sim::RunReport;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A structural error in a [`Table`] operation.
#[derive(Clone, Debug, PartialEq)]
pub enum TableError {
    /// A row's cell count does not match the header width.
    WidthMismatch {
        id: String,
        expected: usize,
        got: usize,
    },
    /// A column index past the header width was requested.
    NoSuchColumn {
        id: String,
        idx: usize,
        width: usize,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::WidthMismatch { id, expected, got } => {
                write!(f, "table {id}: row has {got} cells, header has {expected}")
            }
            TableError::NoSuchColumn { id, idx, width } => {
                write!(f, "table {id}: column {idx} out of range (width {width})")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// A rendered experiment result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table {
    pub id: String,
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// One-line statement of the shape the paper predicts (checked by the
    /// integration tests).
    pub expectation: String,
    /// Run instrumentation attached by the runner (`None` when the table was
    /// produced outside a `dlte-run` invocation, or parsed from older JSON).
    #[serde(default)]
    pub meta: Option<RunReport>,
}

impl Table {
    pub fn new(id: &'static str, title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            expectation: String::new(),
            meta: None,
        }
    }

    /// Append a row, checking its width against the header. The check runs in
    /// release builds too — a misshapen row is a harness bug worth failing
    /// loudly on, not silently recording.
    pub fn try_row(&mut self, cells: Vec<String>) -> Result<(), TableError> {
        if cells.len() != self.header.len() {
            return Err(TableError::WidthMismatch {
                id: self.id.clone(),
                expected: self.header.len(),
                got: cells.len(),
            });
        }
        self.rows.push(cells);
        Ok(())
    }

    /// Append a row; panics (in every build profile) on width mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        if let Err(e) = self.try_row(cells) {
            panic!("{e}");
        }
    }

    pub fn expect(&mut self, s: impl Into<String>) {
        self.expectation = s.into();
    }

    /// Column values parsed as f64 (NaN for non-numeric or missing cells).
    /// Errors when the column index is outside the header.
    pub fn try_column_f64(&self, idx: usize) -> Result<Vec<f64>, TableError> {
        if idx >= self.header.len() {
            return Err(TableError::NoSuchColumn {
                id: self.id.clone(),
                idx,
                width: self.header.len(),
            });
        }
        Ok(self
            .rows
            .iter()
            .map(|r| {
                r.get(idx)
                    .and_then(|c| c.trim().parse::<f64>().ok())
                    .unwrap_or(f64::NAN)
            })
            .collect())
    }

    /// Column values parsed as f64 (NaN for non-numeric cells); panics with a
    /// clear message if the column does not exist.
    pub fn column_f64(&self, idx: usize) -> Vec<f64> {
        match self.try_column_f64(idx) {
            Ok(col) => col,
            Err(e) => panic!("{e}"),
        }
    }

    /// JSON for mechanical consumption.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("table serializes")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.id, self.title)?;
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, String::len))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:>w$}  ", c, w = widths[i])?;
            }
            writeln!(f)
        };
        line(&self.header, f)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for r in &self.rows {
            line(r, f)?;
        }
        if !self.expectation.is_empty() {
            writeln!(f, "expected shape: {}", self.expectation)?;
        }
        Ok(())
    }
}

/// Format helpers.
pub(crate) fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

pub(crate) fn f2c(x: f64) -> String {
    format!("{x:.2}")
}

pub(crate) fn f1c(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_parses() {
        let mut t = Table::new("T0", "demo", &["x", "y"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.row(vec!["2".into(), "5.0".into()]);
        t.expect("y doubles");
        let s = t.to_string();
        assert!(s.contains("demo") && s.contains("2.5") && s.contains("y doubles"));
        assert_eq!(t.column_f64(1), vec![2.5, 5.0]);
        assert!(t.to_json().contains("\"id\": \"T0\""));
    }

    #[test]
    fn misshapen_row_is_rejected_in_all_builds() {
        let mut t = Table::new("T0", "demo", &["x", "y"]);
        let err = t.try_row(vec!["only-one".into()]).unwrap_err();
        assert_eq!(
            err,
            TableError::WidthMismatch {
                id: "T0".into(),
                expected: 2,
                got: 1
            }
        );
        assert!(t.rows.is_empty(), "bad row must not be recorded");
    }

    #[test]
    #[should_panic(expected = "row has 3 cells, header has 2")]
    fn row_panics_on_width_mismatch() {
        let mut t = Table::new("T0", "demo", &["x", "y"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
    }

    #[test]
    fn column_out_of_range_is_a_clear_error() {
        let mut t = Table::new("T0", "demo", &["x"]);
        t.row(vec!["1".into()]);
        let err = t.try_column_f64(5).unwrap_err();
        assert_eq!(
            err,
            TableError::NoSuchColumn {
                id: "T0".into(),
                idx: 5,
                width: 1
            }
        );
        assert_eq!(err.to_string(), "table T0: column 5 out of range (width 1)");
    }

    #[test]
    fn meta_defaults_to_none_when_absent_from_json() {
        // JSON produced before the meta field existed must still parse.
        let json = r#"{"id":"T0","title":"demo","header":["x"],"rows":[["1"]],"expectation":""}"#;
        let back: Table = serde_json::from_str(json).expect("parses without meta");
        assert!(back.meta.is_none());
        assert_eq!(back.rows, vec![vec!["1".to_string()]]);
    }
}
