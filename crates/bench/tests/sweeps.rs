//! The chaos fuzzers' verdicts as a golden: `goldens/sweeps.txt` holds one
//! line per seed of each domain's range — domain, seed, events dispatched
//! (`-` for the registry, which runs no engine) and the verdict, `ok` or the
//! sorted oracle names the case tripped. A failing seed also records what
//! the shrink made of it. A behaviour change that keeps every oracle green
//! still shows here as a changed event count.
//!
//! Its own test binary: `--shards` is a process global. The full sweep
//! runs on one engine; the test then sets two shards and re-runs the first
//! 200 network and 300 mobility seeds, which must reproduce the golden's
//! lines exactly, event counts included.
//!
//! Each one-engine run also writes what it saw to `sweeps.txt` in the
//! test's target temp directory; on a mismatch the failure names the file
//! to copy over the golden.

use dlte::chaos::{self, ChaosDomain};
use dlte::fuzz::{Mob, Net};
use dlte::fuzz_registry::Reg;
use dlte_sim::report::scope;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;

const FILE: &str = "sweeps.txt";

/// `ok`, or the distinct oracle names of `D`'s outcome, sorted and
/// comma-joined.
fn verdict<D: ChaosDomain>(outcome: &D::Outcome) -> String {
    let mut names: Vec<&str> = D::violations(outcome)
        .iter()
        .map(|v| v.oracle.as_str())
        .collect();
    if names.is_empty() {
        return "ok".to_string();
    }
    names.sort_unstable();
    names.dedup();
    names.join(",")
}

fn sweep<D: ChaosDomain>(seeds: Range<u64>, engine: bool, out: &mut String) {
    for seed in seeds {
        let case = D::generate(seed);
        let (outcome, report) = scope(|| D::run(&case));
        let events = if engine {
            report.events_dispatched.to_string()
        } else {
            "-".to_string()
        };
        let found = verdict::<D>(&outcome);
        let _ = write!(out, "{} {seed} {events} {found}", D::NAME);
        if found != "ok" {
            let (case, outcome, runs) = chaos::shrink::<D>(case, outcome);
            let _ = write!(
                out,
                " shrunk to {} fault specs in {runs} runs: {}",
                D::fault_specs(&case),
                verdict::<D>(&outcome)
            );
        }
        out.push('\n');
    }
}

/// Panic at the first line where the run `got` differs from `want`, the
/// golden's lines for the same seeds, naming what to do about it.
fn assert_same_lines(run: &str, want: &[&str], got: &[&str], remedy: &str) {
    if let Some(n) = (0..want.len().max(got.len())).find(|&i| want.get(i) != got.get(i)) {
        let end = "<end of file>";
        panic!(
            "{run} differs from goldens/{FILE} at its line {}:\n  golden {}\n  got    {}\n{remedy}",
            n + 1,
            want.get(n).copied().unwrap_or(end),
            got.get(n).copied().unwrap_or(end),
        );
    }
}

#[test]
fn sweep_verdicts_match_the_golden() {
    let mut got = String::new();
    sweep::<Net>(0..2000, true, &mut got);
    sweep::<Mob>(0..2000, true, &mut got);
    sweep::<Reg>(0..800, false, &mut got);

    // The sweep as it ran, so a mismatch can be inspected or adopted.
    let ran = Path::new(env!("CARGO_TARGET_TMPDIR")).join(FILE);
    std::fs::write(&ran, &got).unwrap_or_else(|e| panic!("{ran:?}: {e}"));
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../goldens")
        .join(FILE);
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let want: Vec<&str> = want.lines().collect();
    let adopt = format!(
        "If the change is intended, regenerate with:\n  cp {} goldens/{FILE}",
        ran.display()
    );
    let got: Vec<&str> = got.lines().collect();
    assert_same_lines("the sweep", &want, &got, &adopt);

    // The golden's lines are the one-engine truth; a two-shard run of the
    // same seeds must dispatch the same events and reach the same verdicts.
    dlte_sim::set_shards(2);
    let mut two = String::new();
    sweep::<Net>(0..200, true, &mut two);
    sweep::<Mob>(0..300, true, &mut two);
    let want: Vec<&str> = want[..200]
        .iter()
        .chain(&want[2000..2300])
        .copied()
        .collect();
    assert_same_lines(
        "the 2-shard sweep of net 0..200 and mob 0..300",
        &want,
        &two.lines().collect::<Vec<_>>(),
        "The sharded engine diverges from one engine on these seeds.",
    );
}
