//! The unified experiment runner.
//!
//! ```text
//! dlte-run <id...|all> [--json] [--jobs N] [--shards N] [--seed S] [--params JSON] [--trace FILE] [--metrics]
//! dlte-run fuzz [--seeds A..B] [--shards N] [--out DIR] [--repro FILE] [--registry] [--mobility]
//! dlte-run --list
//! ```
//!
//! Resolves experiments through `dlte::experiments::registry`, runs each one
//! instrumented (wall clock, events dispatched, simulated time — attached to
//! the table as `meta`), and prints tables as text or JSON. `--jobs` sets the
//! thread count parallel sweeps fan out to; `--shards` splits every
//! simulation the run builds across N engine shards (0 = one per CPU core);
//! results are bit-identical for any value of either. `--trace FILE` writes
//! the structured event trace as JSONL (also jobs- and shards-invariant);
//! `--metrics` attaches the full metrics snapshot to each table's `meta`.

#![forbid(unsafe_code)]

use dlte_bench::runner;

fn main() {
    // `fuzz` is its own dispatch: a seed sweep (or repro replay) over the
    // chaos fuzzer, not an experiment-registry run.
    if std::env::args().nth(1).as_deref() == Some("fuzz") {
        let inv = match runner::parse_fuzz_args(std::env::args().skip(2)) {
            Ok(inv) => inv,
            Err(msg) => {
                eprintln!("dlte-run: {msg}");
                std::process::exit(2);
            }
        };
        let (report, ok) = runner::run_fuzz(&inv);
        print!("{report}");
        std::process::exit(if ok { 0 } else { 1 });
    }
    let inv = match runner::parse_args(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(msg) => {
            eprintln!("dlte-run: {msg}");
            std::process::exit(2);
        }
    };
    if inv.list {
        println!("{}", runner::render_list());
        return;
    }
    match runner::run(&inv) {
        Ok(tables) => {
            if let Some(path) = &inv.trace {
                let jsonl = runner::take_trace_jsonl();
                if let Err(e) = std::fs::write(path, &jsonl) {
                    eprintln!("dlte-run: writing trace {path}: {e}");
                    std::process::exit(1);
                }
                eprintln!(
                    "dlte-run: wrote {} trace records to {path}",
                    jsonl.lines().count()
                );
            }
            println!("{}", runner::render(&tables, inv.json));
        }
        Err(e) => {
            eprintln!("dlte-run: {e}");
            std::process::exit(1);
        }
    }
}
