//! Integration tests for the cross-layer observability surface: `--trace`
//! JSONL is deterministic and jobs-invariant, every line parses into the
//! typed event enum, and `--metrics` (and only `--metrics`) attaches a
//! snapshot.

use dlte_bench::runner::{run, take_trace_jsonl, Invocation};
use dlte_obs::{Event, Record};

fn quick_params() -> serde_json::Value {
    serde_json::from_str(r#"{ "total_s": 10.0 }"#).expect("literal parses")
}

fn traced(target: &str, jobs: usize) -> String {
    let inv = Invocation {
        targets: vec![target.to_string()],
        jobs: Some(jobs),
        seed: Some(7),
        params: Some(quick_params()),
        trace: Some("in-memory".to_string()),
        ..Invocation::default()
    };
    run(&inv).unwrap_or_else(|e| panic!("{target} runs: {e}"));
    take_trace_jsonl()
}

#[test]
fn e13_trace_is_byte_identical_across_jobs() {
    let sequential = traced("e13", 1);
    let parallel = traced("e13", 4);
    assert!(!sequential.is_empty(), "e13 emits trace records");
    assert_eq!(sequential, parallel, "trace depends on --jobs");
}

#[test]
fn e14_trace_lines_parse_and_cover_event_kinds() {
    let jsonl = traced("e14", 2);
    let records: Vec<Record> = jsonl
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e}")))
        .collect();
    assert!(!records.is_empty());
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "seq must be dense from 0");
    }
    let has = |name: &str, pred: &dyn Fn(&Event) -> bool| {
        assert!(
            records.iter().any(|r| pred(&r.event)),
            "e14 trace has no {name} event"
        );
    };
    has("NAS", &|e| matches!(e, Event::NasStart { .. }));
    has("HARQ", &|e| matches!(e, Event::HarqTx { .. }));
    has("GTP-U path", &|e| {
        matches!(
            e,
            Event::GtpEcho { .. }
                | Event::GtpPathDown { .. }
                | Event::GtpPeerRestart { .. }
                | Event::GtpErrorIndication { .. }
        )
    });
    has("fault transition", &|e| {
        matches!(e, Event::FaultLink { .. } | Event::FaultNode { .. })
    });
    has("drop", &|e| matches!(e, Event::Drop { .. }));
}

/// The `harq_*` counters of a traced `--metrics` run, pinned for both
/// HARQ sources — the EPC's per-block tracer (E14) and the MAC cell's
/// sampled grants (E2) — and equal to the HARQ events in the same trace.
#[test]
fn harq_counters_are_pinned_and_match_the_trace() {
    let cases = [
        ("e14", r#"{ "total_s": 10.0 }"#, [2536, 1461, 0]),
        ("e2", r#"{ "distances_km": [16.0] }"#, [50000, 874, 0]),
    ];
    for (target, params, pinned) in cases {
        let inv = Invocation {
            targets: vec![target.to_string()],
            jobs: Some(2),
            seed: Some(7),
            params: Some(serde_json::from_str(params).expect("literal parses")),
            trace: Some("in-memory".to_string()),
            metrics: true,
            ..Invocation::default()
        };
        let tables = run(&inv).unwrap_or_else(|e| panic!("{target} runs: {e}"));
        let snap = tables[0].meta.as_ref().and_then(|m| m.metrics.as_ref());
        let counters = &snap.expect("--metrics attaches snapshot").counters;
        let read = |name: &str| counters.get(name).copied().unwrap_or(0);
        let got = [read("harq_tx"), read("harq_retx"), read("harq_fail")];
        assert_eq!(got, pinned, "{target}: harq_tx / harq_retx / harq_fail");

        let mut events = [0u64; 3];
        for line in take_trace_jsonl().lines() {
            let r: Record = serde_json::from_str(line).expect("trace line parses");
            match r.event {
                Event::HarqTx { .. } => events[0] += 1,
                Event::HarqRetx { .. } => events[1] += 1,
                Event::HarqFail { .. } => events[2] += 1,
                _ => {}
            }
        }
        assert_eq!(events, pinned, "{target}: HARQ events in the trace");
    }
}

#[test]
fn metrics_flag_attaches_snapshot_with_matching_drops() {
    let inv = Invocation {
        targets: vec!["e13".to_string()],
        jobs: Some(2),
        seed: Some(7),
        params: Some(quick_params()),
        metrics: true,
        ..Invocation::default()
    };
    let tables = run(&inv).expect("e13 runs");
    let meta = tables[0].meta.as_ref().expect("meta attached");
    let snap = meta.metrics.as_ref().expect("--metrics attaches snapshot");
    assert_eq!(meta.drops, snap.prefixed("drops_"));
    assert!(meta.events_dispatched > 0, "no work recorded");
    assert!(meta.sim_time_ns > 0, "no simulated time");
    assert!(
        !meta.drops.is_empty(),
        "e13 injects faults, so some packets must drop"
    );

    let plain = run(&Invocation {
        metrics: false,
        ..inv
    })
    .expect("e13 runs");
    let meta = plain[0].meta.as_ref().expect("meta attached");
    assert!(meta.metrics.is_none(), "snapshot only under --metrics");
}
