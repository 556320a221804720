//! The determinism contract, checked by `cargo test`: the committed goldens
//! under `goldens/` come out of the runner unchanged at every `--jobs` ×
//! `--shards` combination each one lists. `all.json` holds every table at
//! default params; the others pin parameter variants and the tables
//! `benchmark/` reads. `meta` is cut to its deterministic per-reason
//! `drops` (and, in `all.json`, `events_dispatched`), as in the files.
//! `e14_trace.jsonl` pins the E14 event trace byte for byte.
//!
//! One `#[test]` in its own binary: `--jobs` and `--shards` are process
//! globals, so parallel tests in one process would race on them.

use dlte::experiments::Table;
use dlte_bench::runner::{run, take_trace_jsonl, Invocation};
use dlte_sim::RunReport;
use std::path::Path;

/// One golden file and the command line that produces it.
struct Golden {
    file: &'static str,
    targets: &'static [&'static str],
    params: Option<&'static str>,
    /// jq filter that cuts `meta` (a single table prints as one object,
    /// several as an array).
    jq: &'static str,
    /// Whether the cut keeps `events_dispatched` beside `drops`.
    events: bool,
    /// The `(--jobs, --shards)` runs that must reproduce the file.
    runs: &'static [(usize, usize)],
}

/// Every combination of `--jobs 1,2` × `--shards 1,2,4`.
const ALL_RUNS: &[(usize, usize)] = &[(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)];

const GOLDENS: [Golden; 5] = [
    Golden {
        file: "all.json",
        targets: &["all"],
        params: None,
        jq: "map(.meta |= {drops, events_dispatched})",
        events: true,
        // The full suite is the slow one: every shard count at two workers,
        // plus the serial single-engine run.
        runs: &[(2, 1), (2, 2), (2, 4), (1, 1)],
    },
    Golden {
        file: "e12.json",
        targets: &["e12"],
        params: None,
        jq: ".meta |= {drops: .drops}",
        events: false,
        runs: ALL_RUNS,
    },
    Golden {
        file: "e13_e14.json",
        targets: &["e13", "e14"],
        params: Some(r#"{"total_s": 10.0}"#),
        jq: "map(.meta |= {drops: .drops})",
        events: false,
        runs: ALL_RUNS,
    },
    Golden {
        file: "e17.json",
        targets: &["e17"],
        params: None,
        jq: ".meta |= {drops: .drops}",
        events: false,
        runs: ALL_RUNS,
    },
    Golden {
        file: "e18.json",
        targets: &["e18"],
        params: None,
        jq: ".meta |= {drops: .drops}",
        events: false,
        runs: ALL_RUNS,
    },
];

impl Golden {
    fn regenerate(&self) -> String {
        let params = self
            .params
            .map(|p| format!(" --params '{p}'"))
            .unwrap_or_default();
        format!(
            "./target/release/dlte-run {} --json --seed 7{params} | jq '{}' > goldens/{}",
            self.targets.join(" "),
            self.jq,
            self.file
        )
    }

    fn expected(&self) -> Vec<Table> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../goldens")
            .join(self.file);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let tables = if self.jq.starts_with("map") {
            serde_json::from_str(&text)
        } else {
            serde_json::from_str(&text).map(|t| vec![t])
        };
        tables
            .unwrap_or_else(|e| panic!("{path:?}: {e}"))
            .into_iter()
            .map(|t| self.cut(t))
            .collect()
    }

    fn actual(&self, jobs: usize, shards: usize) -> Vec<Table> {
        let inv = Invocation {
            targets: self.targets.iter().map(|t| t.to_string()).collect(),
            json: true,
            jobs: Some(jobs),
            shards: Some(shards),
            seed: Some(7),
            params: self
                .params
                .map(|p| serde_json::from_str(p).expect("params literal parses")),
            ..Invocation::default()
        };
        run(&inv)
            .unwrap_or_else(|e| panic!("{}: {e}", self.file))
            .into_iter()
            .map(|t| self.cut(t))
            .collect()
    }

    /// Cut `meta` to the fields the file keeps.
    fn cut(&self, mut t: Table) -> Table {
        t.meta = t.meta.map(|m| RunReport {
            drops: m.drops,
            events_dispatched: if self.events { m.events_dispatched } else { 0 },
            ..RunReport::default()
        });
        t
    }
}

/// The first place two table lists differ, named by table, row and column.
fn first_difference(want: &[Table], got: &[Table]) -> Option<String> {
    if want.len() != got.len() {
        return Some(format!("{} tables, golden has {}", got.len(), want.len()));
    }
    for (w, g) in want.iter().zip(got) {
        let id = &w.id;
        let field = |name: &str, a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| {
            let (a, b) = (format!("{a:?}"), format!("{b:?}"));
            (a != b).then(|| format!("{id} {name}: golden {a}, got {b}"))
        };
        let header = field("id", &w.id, &g.id)
            .or_else(|| field("title", &w.title, &g.title))
            .or_else(|| field("header", &w.header, &g.header));
        if header.is_some() {
            return header;
        }
        for (r, (wr, gr)) in w.rows.iter().zip(&g.rows).enumerate() {
            if wr.len() != gr.len() {
                return Some(format!(
                    "{id} row {r}: {} cells, golden has {}",
                    gr.len(),
                    wr.len()
                ));
            }
            for (c, (wc, gc)) in wr.iter().zip(gr).enumerate() {
                if wc != gc {
                    let column = w.header.get(c).map_or("?", String::as_str);
                    return Some(format!(
                        "{id} row {r} ({:?}), column {c} ({column:?}): golden {wc:?}, got {gc:?}",
                        wr[0]
                    ));
                }
            }
        }
        let tail = field("row count", &w.rows.len(), &g.rows.len())
            .or_else(|| field("expectation", &w.expectation, &g.expectation))
            .or_else(|| field("meta", &w.meta, &g.meta));
        if tail.is_some() {
            return tail;
        }
    }
    None
}

/// The E14 trace golden: every control-plane event of the fault-injection
/// run, including NAS, GTP path management and error indications.
const TRACE_FILE: &str = "e14_trace.jsonl";
const TRACE_PARAMS: &str = r#"{"total_s": 10.0}"#;
/// The `(--jobs, --shards)` runs that must reproduce the trace.
const TRACE_RUNS: &[(usize, usize)] = &[(2, 1), (1, 2)];

fn trace_actual(jobs: usize, shards: usize) -> String {
    let inv = Invocation {
        targets: vec!["e14".to_string()],
        json: true,
        jobs: Some(jobs),
        shards: Some(shards),
        seed: Some(7),
        params: Some(serde_json::from_str(TRACE_PARAMS).expect("params literal parses")),
        trace: Some("in-memory".to_string()),
        ..Invocation::default()
    };
    run(&inv).unwrap_or_else(|e| panic!("{TRACE_FILE}: {e}"));
    take_trace_jsonl()
}

/// The first record (1-based line) where two JSONL traces differ.
fn first_trace_difference(want: &str, got: &str) -> Option<String> {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let n = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i))?;
    let end = "<end of trace>";
    let (a, b) = (w.get(n).copied(), g.get(n).copied());
    Some(format!(
        "record {}:\n  golden {}\n  got    {}",
        n + 1,
        a.unwrap_or(end),
        b.unwrap_or(end)
    ))
}

fn trace_golden_holds() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../goldens")
        .join(TRACE_FILE);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    for &(jobs, shards) in TRACE_RUNS {
        let got = trace_actual(jobs, shards);
        if let Some(diff) = first_trace_difference(&want, &got) {
            panic!(
                "goldens/{TRACE_FILE} differs at --jobs {jobs} --shards {shards}: {diff}\n\
                 If the change is intended, regenerate with:\n  \
                 ./target/release/dlte-run e14 --trace goldens/{TRACE_FILE} --json --seed 7 \
                 --jobs 2 --params '{TRACE_PARAMS}' > /dev/null"
            );
        }
    }
}

#[test]
fn goldens_hold_at_every_jobs_and_shards_count() {
    trace_golden_holds();
    for golden in &GOLDENS {
        let expected = golden.expected();
        for &(jobs, shards) in golden.runs {
            let actual = golden.actual(jobs, shards);
            if let Some(diff) = first_difference(&expected, &actual) {
                panic!(
                    "goldens/{} differs at --jobs {jobs} --shards {shards}: {diff}\n\
                     If the change is intended, regenerate with:\n  {}",
                    golden.file,
                    golden.regenerate()
                );
            }
        }
    }
}
