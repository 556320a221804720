//! Drives the built binary end to end on the tiny `--quick` inputs.

use dlte_benchmark::run::WorkloadResult;
use dlte_benchmark::spec;
use serde_json::Value;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_dlte-benchmark");

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(EXE).args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// One `run --quick` over every workload, parsed.
fn quick_set() -> Vec<WorkloadResult> {
    let doc: Value =
        serde_json::from_str(&stdout_of(&["run", "--quick", "--seed", "7"])).expect("document");
    assert_eq!(doc.get("claim"), Some(&Value::Null), "no gain is claimed");
    let machine = doc.get("machine").expect("machine block");
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "profile",
        "opt_level",
        "git_commit",
        "seed",
    ] {
        assert!(machine.get(key).is_some(), "machine block lacks {key}");
    }
    serde_json::from_value(doc.get("workloads").expect("workloads").clone()).expect("results")
}

/// Every per-layer metric of a result that counts simulated work.
fn exact_layers(r: &WorkloadResult) -> Vec<(&String, &f64)> {
    r.per_layer
        .iter()
        .filter(|(name, _)| spec::is_exact(name))
        .collect()
}

#[test]
fn quick_run_reports_every_metric_and_repeats_exactly() {
    let first = quick_set();
    let names: Vec<&str> = first.iter().map(|r| r.workload.as_str()).collect();
    let expected: Vec<&str> = spec::WORKLOADS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected);

    for r in &first {
        assert!(r.correct, "{}: {:?}", r.workload, r.failures);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 1);
        for e in &spec::END_TO_END {
            let s = r
                .end_to_end
                .get(e.name)
                .unwrap_or_else(|| panic!("{} lacks {}", r.workload, e.name));
            assert!(
                s.median.is_finite() && s.median > 0.0,
                "{} {} = {}",
                r.workload,
                e.name,
                s.median
            );
        }
        for l in spec::per_layer() {
            let v = r
                .per_layer
                .get(&l.name)
                .unwrap_or_else(|| panic!("{} lacks {}", r.workload, l.name));
            assert!(v.is_finite(), "{} {} = {v}", r.workload, l.name);
        }
    }

    // The traced pass dispatches exactly what the untraced run did, and
    // every event lands in exactly one span class.
    for r in first.iter().filter(|r| r.reference.pongs > 0) {
        let layer = |name: &str| r.per_layer[name];
        assert_eq!(
            layer("sim.events"),
            r.reference.events as f64,
            "{}",
            r.workload
        );
        assert_eq!(layer("net.pkts_accepted"), r.reference.pkts_accepted as f64);
        assert_eq!(layer("net.drops"), r.reference.drops as f64);
        assert_eq!(layer("ue.pongs"), r.reference.pongs as f64);
        assert_eq!(layer("sim.fingerprint"), r.reference.fingerprint as f64);
        let spanned: f64 = spec::SPAN_CLASSES
            .iter()
            .map(|c| layer(&format!("{c}.count")))
            .sum();
        assert_eq!(spanned, layer("sim.events"), "{}", r.workload);
        assert_eq!(layer("net.bytes_copied"), 0.0, "{}", r.workload);
    }

    // Span classes the interaction table predicts idle.
    let idle = |workload: &str, prefixes: &[&str]| {
        let r = first
            .iter()
            .find(|r| r.workload == workload)
            .expect(workload);
        for (name, v) in &r.per_layer {
            if name.ends_with(".count") && prefixes.iter().any(|p| name.starts_with(p)) {
                assert_eq!(*v, 0.0, "{workload}: {name} should be idle");
            }
        }
    };
    idle("fabric_central", &["ap.", "dir."]);
    let gtp_core = ["epc.enb.", "epc.mme.", "epc.hss.", "epc.sgw.", "epc.pgw."];
    idle("fabric_dlte", &gtp_core);
    idle("shard_cross", &gtp_core);

    // A second run agrees on every exact count.
    let second = quick_set();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.reference, b.reference, "{}", a.workload);
        assert_eq!(exact_layers(a), exact_layers(b), "{}", a.workload);
    }
}

#[test]
fn contract_lines_carry_every_metric_with_its_unit() {
    for (trace, names) in [
        (
            "0",
            spec::END_TO_END
                .iter()
                .map(|e| (e.name.to_string(), e.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            spec::per_layer()
                .into_iter()
                .map(|l| (l.name, l.unit))
                .collect(),
        ),
    ] {
        let out = stdout_of(&[
            "run",
            "--workload",
            "fabric_dlte",
            "--quick",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let line: Value = serde_json::from_str(out.trim_end().lines().last().expect("a last line"))
            .expect("the last line is JSON");
        let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), names.len());
        for (name, unit) in names {
            let m = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("--trace {trace} lacks {name}"));
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit));
        }
    }
}

#[test]
fn benchmark_json_mirrors_the_spec() {
    let doc: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&String> = doc.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(spec::RUN_SECONDS)
    );
    let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).clone();
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).expect(key).to_string();
    let better = |higher: bool| if higher { "higher" } else { "lower" };

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|(n, w)| (n.to_string(), w.to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<_> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect();
    let expected: Vec<_> = spec::END_TO_END
        .iter()
        .map(|e| {
            (
                e.name.to_string(),
                e.unit.to_string(),
                better(e.higher_is_better).to_string(),
                e.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<_> = list("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<_> = spec::per_layer()
        .into_iter()
        .map(|l| {
            (
                l.name,
                l.unit.to_string(),
                better(l.higher_is_better).to_string(),
            )
        })
        .collect();
    assert_eq!(per_layer, expected);
    assert!(per_layer.len() <= 128);
}
