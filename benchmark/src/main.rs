//! `dlte-benchmark`: one repeatable benchmark over both architectures.
//!
//! ```text
//! dlte-benchmark run   [--seed N] [--seconds S] [--quick] [--out FILE]
//! dlte-benchmark run   --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! dlte-benchmark agree [--seed N] [--seconds S] [--quick] [--out FILE]
//! ```
//!
//! `run` without `--workload` runs every workload in a fresh child process
//! (so `peak_rss_mb` is per workload) with the timed phase and the traced
//! pass, and prints one JSON document. With `--workload` it runs that one
//! in this process; `--trace 0|1` then selects the benchmark contract's
//! one-line result (end-to-end or per-layer metrics). `agree` runs the
//! whole set twice and fails if the two disagree.

use dlte_benchmark::run::{run_workload, Options, WorkloadResult};
use dlte_benchmark::{alloc, machine, spec};
use serde_json::{json, Map, Value};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: dlte-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
       dlte-benchmark agree [--seed N] [--seconds S] [--quick] [--out FILE]";

struct Cli {
    agree: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let agree = match args.next().as_deref() {
        Some("run") => false,
        Some("agree") => true,
        other => return Err(format!("expected `run` or `agree`, got {other:?}")),
    };
    let mut cli = Cli {
        agree,
        workload: None,
        seed: 7,
        seconds: spec::RUN_SECONDS,
        trace: None,
        quick: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.agree && (cli.workload.is_some() || cli.trace.is_some()) {
        return Err("agree takes neither --workload nor --trace".to_string());
    }
    if cli.trace.is_some() && cli.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("dlte-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&cli.workload, cli.agree) {
        (Some(name), _) => one_workload(name, &cli),
        (None, false) => all_workloads(&cli).and_then(|results| {
            emit(&cli, &document(&cli, &results))?;
            Ok(results.iter().all(|r| r.correct))
        }),
        (None, true) => agree(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dlte-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `{"value": v, "unit": u}`, the contract's metric shape.
fn metric(value: f64, unit: &str) -> Value {
    Value::Object(Map::from_iter([
        ("value".to_string(), json!(value)),
        ("unit".to_string(), json!(unit)),
    ]))
}

/// Run one workload in this process and print its result: the contract's
/// one-line object when `--trace` was given, the full result otherwise.
fn one_workload(name: &str, cli: &Cli) -> Result<bool, String> {
    let r = run_workload(
        name,
        &Options {
            seed: cli.seed,
            seconds: cli.seconds,
            quick: cli.quick,
            traced: cli.trace.unwrap_or(true),
        },
    )?;
    print_result(&r);
    let line = match cli.trace {
        None => serde_json::to_value(&r),
        Some(traced) => {
            let metrics: Map = if traced {
                spec::per_layer()
                    .into_iter()
                    .map(|l| {
                        let value = r.per_layer[&l.name];
                        (l.name, metric(value, l.unit))
                    })
                    .collect()
            } else {
                spec::END_TO_END
                    .iter()
                    .map(|e| {
                        (
                            e.name.to_string(),
                            metric(r.end_to_end[e.name].median, e.unit),
                        )
                    })
                    .collect()
            };
            Ok(Value::Object(Map::from_iter([
                ("correct".to_string(), json!(r.correct)),
                ("attempted".to_string(), json!(r.attempted)),
                ("failed".to_string(), json!(r.failed)),
                ("metrics".to_string(), Value::Object(metrics)),
            ])))
        }
    }
    .and_then(|v| serde_json::to_string(&v))
    .map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(r.correct)
}

/// Every metric by name with its unit, for a reader.
fn print_result(r: &WorkloadResult) {
    println!(
        "== {} (seed {}, {} timed reps): {} of {} operations failed",
        r.workload, r.seed, r.reps, r.failed, r.attempted
    );
    for e in &spec::END_TO_END {
        let s = r.end_to_end[e.name];
        println!(
            "  {:<28} {:>16.6} {:<6} (min {:.6}, max {:.6}, n {})",
            e.name, s.median, e.unit, s.min, s.max, s.n
        );
    }
    for l in spec::per_layer() {
        if let Some(v) = r.per_layer.get(&l.name) {
            println!("  {:<28} {:>16.4} {}", l.name, v, l.unit);
        }
    }
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    if !r.violating_cases.is_empty() {
        println!(
            "  oracle violations in {} cases: {}",
            r.violating_cases.len(),
            r.violating_cases.join(" ")
        );
    }
}

/// Run one workload in a fresh child process and parse the full result
/// from the last line of its output.
fn child(name: &str, cli: &Cli) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .stderr(Stdio::inherit());
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{name}: child printed no result (status {})", out.status))?;
    eprintln!("{report}");
    serde_json::from_str(last).map_err(|e| format!("{name}: unreadable result: {e}"))
}

/// One set: every workload, sequentially, each in its own process.
fn all_workloads(cli: &Cli) -> Result<Vec<WorkloadResult>, String> {
    spec::WORKLOADS
        .iter()
        .map(|(name, _)| child(name, cli))
        .collect()
}

/// The result document of one set.
fn document(cli: &Cli, results: &[WorkloadResult]) -> Value {
    Value::Object(Map::from_iter([
        ("benchmark".to_string(), json!("dlte-benchmark")),
        // This benchmark is an instrument; it claims no gain.
        ("claim".to_string(), Value::Null),
        (
            "machine".to_string(),
            machine::block(cli.seed, cli.seconds, cli.quick),
        ),
        ("workloads".to_string(), json!(results)),
    ]))
}

fn emit(cli: &Cli, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    println!("{text}");
    if let Some(path) = &cli.out {
        std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Run the whole set twice and compare: every end-to-end median within its
/// bound of the other set's, every exact count identical.
fn agree(cli: &Cli) -> Result<bool, String> {
    let first = all_workloads(cli)?;
    let second = all_workloads(cli)?;
    let mut rows = Vec::new();
    let mut agreed = first.iter().chain(&second).all(|r| r.correct);
    // One comparison; `bound` 0 demands equality (an exact count).
    let mut compare = |workload: &str, metric: &str, x: f64, y: f64, bound: f64| {
        let rel_diff = if x == y {
            0.0
        } else {
            (x - y).abs() / x.abs().min(y.abs())
        };
        let ok = rel_diff <= bound;
        if bound > 0.0 || !ok {
            eprintln!(
                "agree {workload:<15} {metric:<22} {x:>18.6} {y:>18.6}  diff {:>6.2}% (bound {:.0}%) {}",
                rel_diff * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
            rows.push(Value::Object(Map::from_iter([
                ("workload".to_string(), json!(workload)),
                ("metric".to_string(), json!(metric)),
                ("first".to_string(), json!(x)),
                ("second".to_string(), json!(y)),
                ("rel_diff".to_string(), json!(rel_diff)),
                ("bound".to_string(), json!(bound)),
                ("ok".to_string(), json!(ok)),
            ])));
        }
        ok
    };
    // The reference rep's exact outputs, field by field.
    let reference = |r: &WorkloadResult| -> Vec<(String, f64)> {
        let fields = serde_json::to_value(r.reference).expect("counts serialize");
        let fields = fields.as_object().expect("counts are a struct");
        fields
            .iter()
            .map(|(k, v)| (format!("reference.{k}"), v.as_f64().expect("a count")))
            .collect()
    };
    for (a, b) in first.iter().zip(&second) {
        for e in &spec::END_TO_END {
            let (x, y) = (a.end_to_end[e.name].median, b.end_to_end[e.name].median);
            agreed &= compare(&a.workload, e.name, x, y, e.bound);
        }
        for ((name, x), (_, y)) in reference(a).iter().zip(reference(b)) {
            agreed &= compare(&a.workload, name, *x, y, 0.0);
        }
        for (name, x) in a.per_layer.iter().filter(|(n, _)| spec::is_exact(n)) {
            agreed &= compare(&a.workload, name, *x, b.per_layer[name], 0.0);
        }
    }
    let doc = Map::from_iter([
        ("benchmark".to_string(), json!("dlte-benchmark")),
        ("claim".to_string(), Value::Null),
        ("agreed".to_string(), json!(agreed)),
        // End-to-end medians of the two sets, and any exact count that
        // differed (none, when `agreed`).
        ("agreement".to_string(), json!(rows)),
        (
            "sets".to_string(),
            json!([document(cli, &first), document(cli, &second)]),
        ),
    ]);
    emit(cli, &Value::Object(doc))?;
    Ok(agreed)
}
