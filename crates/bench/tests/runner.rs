//! Golden tests for the `dlte-run` runner: the registry is complete, JSON
//! output survives a serde round trip, and results are independent of the
//! worker-thread count.
//!
//! These drive `dlte_bench::runner` directly (the binary is a thin shell
//! around it), with shortened experiment horizons where the defaults would
//! make a debug-build test run take minutes.

use dlte::experiments::registry::registry;
use dlte::experiments::Table;
use dlte_bench::runner::{parse_args, render, render_list, run, Invocation};

#[test]
fn registry_lists_all_twenty_one_experiments() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(
        ids,
        [
            "t1", "f1", "f2", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11",
            "e12", "e13", "e14", "e15", "e16", "e17", "e18"
        ]
    );
    // `--list` prints exactly those ids, one per line, nothing else.
    let list = render_list();
    let listed: Vec<&str> = list
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(listed, ids);
}

/// A params override every experiment tolerates (unknown keys are ignored)
/// that shortens the slowest horizons — e12, e13 and e14 default to 20
/// simulated seconds each — so two full sweeps fit in a debug-build test.
fn quick_params() -> serde_json::Value {
    serde_json::from_str(r#"{ "total_s": 10.0 }"#).expect("literal parses")
}

fn run_all(jobs: usize) -> Vec<Table> {
    let inv = Invocation {
        jobs: Some(jobs),
        seed: Some(7),
        params: Some(quick_params()),
        ..Invocation::default()
    };
    run(&inv).expect("all experiments run")
}

#[test]
fn all_json_round_trips_and_jobs_count_does_not_change_results() {
    let sequential = run_all(1);
    assert_eq!(sequential.len(), 21);

    // Every table carries instrumentation from run_instrumented.
    for t in &sequential {
        let m = t
            .meta
            .as_ref()
            .unwrap_or_else(|| panic!("{} has meta", t.id));
        assert!(m.wall_ms >= 0.0, "{}: wall_ms {}", t.id, m.wall_ms);
    }

    // The rendered JSON array parses back into the same tables.
    let rendered = render(&sequential, true);
    let back: Vec<Table> = serde_json::from_str(&rendered).expect("rendered JSON parses");
    assert_eq!(back, sequential);

    // Re-running with four workers yields byte-identical tables once the
    // timing-dependent meta is stripped, and the same amount of work done.
    let parallel = run_all(4);
    for (s, p) in sequential.iter().zip(&parallel) {
        let (ms, mp) = (s.meta.as_ref().unwrap(), p.meta.as_ref().unwrap());
        assert_eq!(
            ms.events_dispatched, mp.events_dispatched,
            "{}: event count depends on jobs",
            s.id
        );
        assert_eq!(
            ms.sim_time_ns, mp.sim_time_ns,
            "{}: sim time depends on jobs",
            s.id
        );
        let (mut s, mut p) = (s.clone(), p.clone());
        s.meta = None;
        p.meta = None;
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&p).unwrap(),
            "{}: results depend on jobs",
            s.id
        );
    }
}

/// The fault-injection experiments (E13's failure script, E14's
/// [`dlte_faults::FaultPlan`]) must be deterministic under the worker-pool:
/// the same seed run under `--jobs 1` and `--jobs 4` produces byte-identical
/// tables. This is the multi-target command line the CI goldens job uses.
#[test]
fn fault_experiments_are_jobs_invariant() {
    let run_pair = |jobs: &str| {
        let inv = parse_args(
            [
                "e13",
                "e14",
                "--json",
                "--jobs",
                jobs,
                "--seed",
                "7",
                "--params",
                r#"{"total_s": 10.0}"#,
            ]
            .map(String::from),
        )
        .expect("parses");
        run(&inv).expect("e13+e14 run")
    };
    let sequential = run_pair("1");
    let parallel = run_pair("4");
    assert_eq!(sequential.len(), 2);
    assert_eq!(sequential[0].id, "E13");
    assert_eq!(sequential[1].id, "E14");
    for (s, p) in sequential.iter().zip(&parallel) {
        let (mut s, mut p) = (s.clone(), p.clone());
        s.meta = None;
        p.meta = None;
        assert_eq!(
            serde_json::to_string(&s).unwrap(),
            serde_json::to_string(&p).unwrap(),
            "{}: fault schedule depends on jobs",
            s.id
        );
    }
}

#[test]
fn single_experiment_json_is_one_object() {
    let inv = parse_args(vec!["e3".into(), "--json".into()]).expect("parses");
    let tables = run(&inv).expect("e3 runs");
    assert_eq!(tables.len(), 1);
    let out = render(&tables, true);
    let table: Table = serde_json::from_str(&out).expect("single table is a JSON object");
    assert_eq!(table.id, "E3");
    assert!(table.meta.is_some());
}
