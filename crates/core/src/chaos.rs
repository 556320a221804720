//! One chaos loop for every fault domain. The network, mobility and
//! registry fuzzers ([`crate::fuzz::Net`], [`crate::fuzz::Mob`],
//! [`crate::fuzz_registry::Reg`]) differ only in the pieces
//! [`ChaosDomain`] names; [`fuzz_seed`], [`shrink`], [`write_repro`] and
//! [`replay_repro`] are written once over it. Every domain writes the same
//! [`Repro`] envelope, tagged with its [`ChaosDomain::NAME`].

use dlte_check::Violation;
use serde::{de::DeserializeOwned, Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Cap on case executions during one shrink (a greedy pass over a few
/// specs stays far below it).
const MAX_SHRINK_RUNS: usize = 200;

/// One fault domain the chaos loop can sweep, shrink and replay.
pub trait ChaosDomain {
    /// Short tag (`net`, `mob`, `reg`): the repro envelope's `domain` field.
    const NAME: &'static str;
    /// Repro file names are `<FILE_PREFIX><seed>.json`.
    const FILE_PREFIX: &'static str;
    /// Everything needed to rebuild one run; plain serde data.
    type Case: Clone + Serialize + DeserializeOwned;
    /// What one run of a case produced.
    type Outcome;

    /// Derive a whole case from a seed. Same seed, same case.
    fn generate(seed: u64) -> Self::Case;
    /// Execute a case end to end and judge it with the domain's oracles.
    fn run(case: &Self::Case) -> Self::Outcome;
    /// The oracle violations an outcome carries.
    fn violations(outcome: &Self::Outcome) -> &[Violation];
    /// Strictly-simpler variants of a case, in a deterministic order.
    fn shrink_candidates(case: &Self::Case) -> Vec<Self::Case>;
    /// Check the case's shape and every id it names against what the case
    /// would build. Only replay calls it: generated cases are valid by
    /// construction.
    fn check_ids(case: &Self::Case) -> Result<(), String>;
    /// When the run re-converged, for domains with a settle loop.
    fn recovered_at_s(_outcome: &Self::Outcome) -> Option<f64> {
        None
    }
    /// How many fault specs the case's plan holds.
    fn fault_specs(case: &Self::Case) -> usize;
    /// The case's shape in a few words (the runner's replay header).
    fn describe(case: &Self::Case) -> String;
}

/// A minimized failing case, the one repro envelope of every domain:
/// `<FILE_PREFIX><seed>.json`, replayed with `dlte-run fuzz --repro FILE`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Repro<C> {
    /// [`ChaosDomain::NAME`] of the domain that replays it.
    pub domain: String,
    /// Seed of the original sweep case.
    pub seed: u64,
    /// The minimized case.
    pub case: C,
    /// Oracle violations the minimized case tripped when it was written.
    pub violations: Vec<Violation>,
    /// Absent when the case never re-converged or the domain has no settle
    /// loop.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub recovered_at_s: Option<f64>,
    /// Case executions the shrink spent.
    pub shrink_runs: usize,
}

/// Greedily minimize a failing case: adopt the first strictly-simpler
/// candidate that still trips one of the original oracles, and restart from
/// it, until no candidate does or `MAX_SHRINK_RUNS` executions are spent.
/// Returns the minimized case, its outcome and the executions spent.
pub fn shrink<D: ChaosDomain>(
    mut case: D::Case,
    mut outcome: D::Outcome,
) -> (D::Case, D::Outcome, usize) {
    let original: Vec<String> = D::violations(&outcome)
        .iter()
        .map(|v| v.oracle.clone())
        .collect();
    let mut runs = 0;
    'outer: loop {
        for cand in D::shrink_candidates(&case) {
            if runs >= MAX_SHRINK_RUNS {
                break 'outer;
            }
            let o = D::run(&cand);
            runs += 1;
            if D::violations(&o)
                .iter()
                .any(|v| original.contains(&v.oracle))
            {
                (case, outcome) = (cand, o);
                continue 'outer;
            }
        }
        break;
    }
    (case, outcome, runs)
}

/// Fuzz one seed: generate, run, and on a violation shrink to a repro.
/// `None` means every oracle held.
pub fn fuzz_seed<D: ChaosDomain>(seed: u64) -> Option<Repro<D::Case>> {
    let case = D::generate(seed);
    let outcome = D::run(&case);
    if D::violations(&outcome).is_empty() {
        return None;
    }
    let (case, outcome, shrink_runs) = shrink::<D>(case, outcome);
    Some(Repro {
        domain: D::NAME.to_string(),
        seed,
        case,
        violations: D::violations(&outcome).to_vec(),
        recovered_at_s: D::recovered_at_s(&outcome),
        shrink_runs,
    })
}

/// Write a repro next to the other run artifacts; returns the path.
pub fn write_repro<D: ChaosDomain>(repro: &Repro<D::Case>, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}{}.json", D::FILE_PREFIX, repro.seed));
    let json = serde_json::to_string_pretty(repro).expect("repro serializes");
    std::fs::write(&path, json)?;
    Ok(path)
}

fn load<T: DeserializeOwned>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))
}

#[derive(Deserialize)]
struct Tag {
    domain: String,
}

/// The `domain` tag of a repro file: which domain replays it.
pub fn repro_domain(path: &Path) -> Result<String, String> {
    Ok(load::<Tag>(path)?.domain)
}

/// Load a repro file of domain `D` ([`repro_domain`] says which) and re-run
/// its minimized case bit-for-bit. A case naming an id its own topology or
/// workload does not have is an `Err` rather than a panic or a false green.
pub fn replay_repro<D: ChaosDomain>(path: &Path) -> Result<(Repro<D::Case>, D::Outcome), String> {
    let repro: Repro<D::Case> = load(path)?;
    D::check_ids(&repro.case).map_err(|e| format!("{path:?}: {e}"))?;
    let outcome = D::run(&repro.case);
    Ok((repro, outcome))
}

#[cfg(test)]
fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dlte-chaos-test-{name}"))
}

/// Write → read → replay: the file parses back to the same envelope and
/// replays to the same outcome as a direct run. Each domain's tests call
/// this for their own domain.
#[cfg(test)]
pub(crate) fn assert_round_trip<D: ChaosDomain>(seed: u64)
where
    D::Case: PartialEq + std::fmt::Debug,
    D::Outcome: PartialEq + std::fmt::Debug,
{
    let case = D::generate(seed);
    let outcome = D::run(&case);
    let repro = Repro {
        domain: D::NAME.to_string(),
        seed,
        case,
        violations: D::violations(&outcome).to_vec(),
        recovered_at_s: D::recovered_at_s(&outcome),
        shrink_runs: 0,
    };
    let path = write_repro::<D>(&repro, &scratch_dir(D::NAME)).unwrap();
    assert!(path.ends_with(format!("{}{seed}.json", D::FILE_PREFIX)));
    assert_eq!(repro_domain(&path).unwrap(), D::NAME);
    let (loaded, replayed) = replay_repro::<D>(&path).unwrap();
    assert_eq!(loaded, repro, "{}", D::NAME);
    assert_eq!(replayed, outcome, "{}", D::NAME);
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::Net;

    #[test]
    fn replay_rejects_a_truncated_file() {
        let dir = scratch_dir("truncated");
        let repro = Repro {
            domain: Net::NAME.to_string(),
            seed: 5,
            case: Net::generate(5),
            violations: Vec::new(),
            recovered_at_s: None,
            shrink_runs: 0,
        };
        let path = write_repro::<Net>(&repro, &dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let err = replay_repro::<Net>(&path).unwrap_err();
        assert!(err.starts_with("parse"), "{err}");
        assert!(repro_domain(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
