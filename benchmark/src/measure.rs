//! The timed phase: repeat `setup` + `window`, check every rep against the
//! reference rep, and reduce the samples to medians.

use crate::workloads::Window;
use dlte_sim::stats::Samples;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Median, range and sample count of one metric over the timed reps. With
/// fewer than ten reps no percentile above the median is supported, so none
/// is reported.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: u64,
}

/// The repository's own sample collector over a slice.
pub fn samples(values: &[f64]) -> Samples {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s
}

pub fn median(values: &[f64]) -> f64 {
    samples(values).median()
}

impl Stat {
    pub fn of(values: &[f64]) -> Stat {
        let s = samples(values);
        Stat {
            median: s.median(),
            min: s.min(),
            max: s.max(),
            n: s.len() as u64,
        }
    }
}

/// Samples and verdicts of the timed phase.
pub struct Measured {
    pub wall_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub events_per_s: Vec<f64>,
    pub cases_per_s: Vec<f64>,
    /// Operations checked: every rep, plus every case inside a chaos rep.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The reference rep every later rep must replay exactly.
    pub reference: Window,
    /// `VmHWM` right after the reference rep: what one set-up and one
    /// window cost a fresh process. Read there because later reps only add
    /// allocator-arena drift (shard worker threads come and go every epoch),
    /// and their number depends on the clock.
    pub peak_rss_mb: f64,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one discarded reference rep, then timed reps until `seconds` of
/// measurement have passed (at least two). `quick` runs a single rep that
/// is its own reference.
pub fn measure<R>(
    seconds: f64,
    quick: bool,
    setup: impl Fn() -> R,
    window: impl Fn(R) -> Window,
) -> Measured {
    let mut m = Measured {
        wall_s: Vec::new(),
        setup_s: Vec::new(),
        events_per_s: Vec::new(),
        cases_per_s: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        reference: Window::default(),
        peak_rss_mb: 0.0,
    };
    let rep = |m: &mut Measured, timed: bool| -> Window {
        let t0 = Instant::now();
        let ready = setup();
        let setup_s = t0.elapsed().as_secs_f64();
        let mut w = window(ready);
        m.attempted += 1 + w.ops;
        m.failures.append(&mut w.failures);
        if timed {
            m.setup_s.push(setup_s);
            m.wall_s.push(w.wall_s);
            m.events_per_s.push(w.counts.events as f64 / w.wall_s);
            m.cases_per_s.push(w.runs / w.wall_s);
        }
        w
    };
    m.reference = rep(&mut m, quick);
    m.peak_rss_mb = peak_rss_mb();
    if quick {
        return m;
    }
    let started = Instant::now();
    while m.wall_s.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let w = rep(&mut m, true);
        if w.counts != m.reference.counts {
            m.failures.push(format!(
                "rep {}: {:?} differs from the reference rep's {:?}",
                m.wall_s.len(),
                w.counts,
                m.reference.counts
            ));
        }
    }
    m
}
