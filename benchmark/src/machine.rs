//! The `machine` block: what a reader needs to decide whether two result
//! documents are comparable.

use serde_json::{json, Map, Value};
use std::process::Command;

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, or "unknown" outside a git work tree.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn block(seed: u64, seconds: f64, quick: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Object(Map::from_iter([
        ("nproc".to_string(), json!(nproc)),
        ("cpu_model".to_string(), json!(cpu_model())),
        ("rustc".to_string(), json!(env!("BENCH_RUSTC"))),
        ("profile".to_string(), json!(env!("BENCH_PROFILE"))),
        ("opt_level".to_string(), json!(env!("BENCH_OPT_LEVEL"))),
        ("git_commit".to_string(), json!(git_commit())),
        ("seed".to_string(), json!(seed)),
        // Timed reps per workload follow from this; each result has `reps`.
        ("seconds".to_string(), json!(seconds)),
        ("quick".to_string(), json!(quick)),
    ]))
}
