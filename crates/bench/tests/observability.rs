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
