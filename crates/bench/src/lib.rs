//! Shared plumbing for the `dlte-run` experiment runner.
//!
//! The [`runner`] module holds everything the `dlte-run` binary does —
//! argument parsing, registry resolution, parameter overrides, execution,
//! rendering — so the integration tests can drive the exact same code path
//! without spawning a process.

#![forbid(unsafe_code)]

pub mod runner {
    use dlte::chaos::{self, ChaosDomain};
    use dlte::experiments::registry::{find, registry, Experiment, ExperimentError};
    use dlte::experiments::Table;
    use dlte::fuzz::{Mob, Net};
    use dlte::fuzz_registry::Reg;
    use serde_json::{Map, Value};
    use std::fmt::Write as _;
    use std::path::Path;

    /// A parsed `dlte-run` command line.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Invocation {
        /// Experiment ids, run in the order given; `"all"` expands to the
        /// whole registry in report order.
        pub targets: Vec<String>,
        /// Emit JSON instead of human-readable tables.
        pub json: bool,
        /// Worker-thread override for parallel sweeps (`--jobs N`).
        pub jobs: Option<usize>,
        /// Seed override, injected into each experiment's params as `seed`
        /// (ignored by experiments without a seed knob).
        pub seed: Option<u64>,
        /// JSON object of parameter overrides; fields it omits keep their
        /// defaults, fields unknown to an experiment are ignored.
        pub params: Option<Value>,
        /// List registry ids and titles instead of running anything.
        pub list: bool,
        /// Write the structured event trace as JSONL to this file
        /// (`--trace FILE`). Deterministic for a given seed and independent
        /// of `--jobs`.
        pub trace: Option<String>,
        /// Attach the full metrics snapshot (counters, gauges, histograms)
        /// to each table's `meta` (`--metrics`).
        pub metrics: bool,
        /// Engine shard count for every simulation built by this run
        /// (`--shards N`; 0 = one shard per CPU core). Results are
        /// bit-identical for any value.
        pub shards: Option<usize>,
    }

    impl Default for Invocation {
        fn default() -> Self {
            Invocation {
                targets: vec!["all".to_string()],
                json: false,
                jobs: None,
                seed: None,
                params: None,
                list: false,
                trace: None,
                metrics: false,
                shards: None,
            }
        }
    }

    pub const USAGE: &str = "usage: dlte-run <id...|all> [--json] [--jobs N] [--shards N] [--seed S] [--params JSON] [--trace FILE] [--metrics]\n       dlte-run fuzz [--seeds A..B] [--shards N] [--out DIR] [--repro FILE] [--registry] [--mobility]\n       dlte-run --list";

    /// Parse command-line arguments (without the program name).
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, String> {
        let mut inv = Invocation::default();
        let mut targets: Vec<String> = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => inv.json = true,
                "--list" => inv.list = true,
                "--metrics" => inv.metrics = true,
                "--trace" => {
                    let v = args.next().ok_or("--trace needs a file path")?;
                    inv.trace = Some(v);
                }
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a thread count")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    inv.jobs = Some(n);
                }
                "--shards" => {
                    let v = args
                        .next()
                        .ok_or("--shards needs a shard count (0 = per-CPU)")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --shards value {v:?}"))?;
                    inv.shards = Some(n);
                }
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    inv.seed = Some(v.parse().map_err(|_| format!("bad --seed value {v:?}"))?);
                }
                "--params" => {
                    let v = args.next().ok_or("--params needs a JSON object")?;
                    let parsed: Value =
                        serde_json::from_str(&v).map_err(|e| format!("bad --params JSON: {e}"))?;
                    if !matches!(parsed, Value::Object(_)) {
                        return Err("--params must be a JSON object".into());
                    }
                    inv.params = Some(parsed);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag {flag:?}\n{USAGE}"));
                }
                id => targets.push(id.to_string()),
            }
        }
        if targets.is_empty() && !inv.list {
            return Err(USAGE.to_string());
        }
        if !targets.is_empty() {
            inv.targets = targets;
        }
        Ok(inv)
    }

    /// The params an invocation hands to one experiment: the caller's
    /// `--params` object (or `{}`), with `--seed` injected on top.
    /// Defaults for omitted fields come from the experiment's own
    /// `#[serde(default)]` fallback.
    pub fn effective_params(inv: &Invocation) -> Value {
        let mut params = inv
            .params
            .clone()
            .unwrap_or_else(|| Value::Object(Map::new()));
        if let (Some(seed), Value::Object(map)) = (inv.seed, &mut params) {
            map.insert(
                "seed".to_string(),
                serde_json::to_value(seed).expect("u64 serializes"),
            );
        }
        params
    }

    /// The experiments an invocation selects, in execution order. Each
    /// target resolves independently; `all` expands in place to the whole
    /// registry.
    pub fn selection(inv: &Invocation) -> Result<Vec<&'static dyn Experiment>, ExperimentError> {
        let mut out = Vec::new();
        for target in &inv.targets {
            if target.eq_ignore_ascii_case("all") {
                out.extend(registry().iter().copied());
            } else {
                out.push(find(target)?);
            }
        }
        Ok(out)
    }

    /// Execute an invocation: apply `--jobs`, resolve the selection, run each
    /// experiment instrumented, and return the tables in execution order.
    ///
    /// With `trace` set, event tracing is enabled for the whole invocation;
    /// the caller collects the buffered records afterwards with
    /// [`take_trace_jsonl`] (which also turns tracing back off). With
    /// `metrics` set, each table's `meta` carries the full metrics snapshot.
    pub fn run(inv: &Invocation) -> Result<Vec<Table>, ExperimentError> {
        if let Some(n) = inv.jobs {
            dlte_sim::set_jobs(n);
        }
        if let Some(n) = inv.shards {
            dlte_sim::set_shards(n);
        }
        if inv.trace.is_some() {
            dlte_obs::set_tracing(true);
        }
        let params = effective_params(inv);
        selection(inv)?
            .iter()
            .map(|exp| {
                let mut table = exp.run_instrumented(&params)?;
                if !inv.metrics {
                    if let Some(meta) = &mut table.meta {
                        meta.metrics = None;
                    }
                }
                Ok(table)
            })
            .collect()
    }

    /// Drain the event trace buffered by a `run` with tracing enabled and
    /// render it as JSONL — one [`dlte_obs::Record`] per line, `seq` dense
    /// from 0 across the whole invocation. Disables tracing afterwards.
    pub fn take_trace_jsonl() -> String {
        let records = dlte_obs::take_records();
        dlte_obs::set_tracing(false);
        let mut out = String::with_capacity(records.len() * 64);
        for r in &records {
            out.push_str(&serde_json::to_string(r).expect("record serializes"));
            out.push('\n');
        }
        out
    }

    /// One line per registry entry: `id  title`.
    pub fn render_list() -> String {
        registry()
            .iter()
            .map(|e| format!("{:<4} {}", e.id(), e.title()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Render run output. JSON: a single table prints as one object, several
    /// print as an array (both carry `meta`). Text: each table followed by a
    /// one-line run summary from its meta.
    pub fn render(tables: &[Table], json: bool) -> String {
        if json {
            if tables.len() == 1 {
                tables[0].to_json()
            } else {
                serde_json::to_string_pretty(&tables.iter().collect::<Vec<_>>())
                    .expect("tables serialize")
            }
        } else {
            tables
                .iter()
                .map(|t| {
                    let mut s = t.to_string();
                    if let Some(m) = &t.meta {
                        s.push_str(&format!(
                            "run: {:.1} ms wall, {} events, {:.1} s simulated, {:.0} events/s\n",
                            m.wall_ms,
                            m.events_dispatched,
                            m.sim_secs(),
                            m.events_per_sec
                        ));
                    }
                    s
                })
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    /// A parsed `dlte-run fuzz` command line. Fuzz mode is a separate
    /// dispatch from the experiment registry: `dlte-run fuzz [--seeds A..B]
    /// [--out DIR]` sweeps seeds through `dlte::chaos`, and `--repro FILE`
    /// replays one minimized case bit-for-bit instead.
    #[derive(Clone, Debug, PartialEq)]
    pub struct FuzzInvocation {
        pub seed_start: u64,
        pub seed_end: u64,
        /// Directory minimized repro files are written to
        /// (`fuzz_repro_<seed>.json`, `fuzz_repro_registry_<seed>.json`).
        pub out_dir: String,
        /// Replay this repro file instead of sweeping.
        pub repro: Option<String>,
        /// Engine shard count for every fuzz case (`--shards N`; 0 =
        /// per-CPU). Oracles and evidence are bit-identical for any value.
        pub shards: Option<usize>,
        /// Sweep the spectrum registry (`dlte::fuzz_registry::Reg`) instead
        /// of the network chaos cases.
        pub registry: bool,
        /// Layer seeded moving-UE populations (handover storms) under the
        /// chaos plans (`--mobility`; `dlte::fuzz::Mob`).
        pub mobility: bool,
    }

    impl Default for FuzzInvocation {
        fn default() -> Self {
            FuzzInvocation {
                seed_start: 0,
                seed_end: 100,
                out_dir: ".".to_string(),
                repro: None,
                shards: None,
                registry: false,
                mobility: false,
            }
        }
    }

    /// Parse the arguments after the leading `fuzz` word.
    pub fn parse_fuzz_args<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<FuzzInvocation, String> {
        let mut inv = FuzzInvocation::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seeds" => {
                    let v = args.next().ok_or("--seeds needs a range like 0..200")?;
                    let (a, b) = v
                        .split_once("..")
                        .ok_or_else(|| format!("bad --seeds range {v:?} (want A..B)"))?;
                    inv.seed_start = a.parse().map_err(|_| format!("bad --seeds start {a:?}"))?;
                    inv.seed_end = b.parse().map_err(|_| format!("bad --seeds end {b:?}"))?;
                    if inv.seed_end <= inv.seed_start {
                        return Err(format!("empty --seeds range {v:?}"));
                    }
                }
                "--out" => {
                    inv.out_dir = args.next().ok_or("--out needs a directory")?;
                }
                "--repro" => {
                    inv.repro = Some(args.next().ok_or("--repro needs a file path")?);
                }
                "--registry" => {
                    inv.registry = true;
                }
                "--mobility" => {
                    inv.mobility = true;
                }
                "--shards" => {
                    let v = args
                        .next()
                        .ok_or("--shards needs a shard count (0 = per-CPU)")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --shards value {v:?}"))?;
                    inv.shards = Some(n);
                }
                other => return Err(format!("unknown fuzz argument {other:?}\n{USAGE}")),
            }
        }
        if inv.registry && inv.mobility {
            return Err(
                "--mobility layers moving UEs under network chaos; it does not apply to --registry"
                    .to_string(),
            );
        }
        Ok(inv)
    }

    /// Execute a fuzz invocation. Returns the rendered report and whether
    /// every oracle held (`false` means the caller should exit nonzero).
    /// A sweep runs the domain the flags pick; `--repro FILE` replays in
    /// the domain the file's envelope names.
    pub fn run_fuzz(inv: &FuzzInvocation) -> (String, bool) {
        if let Some(n) = inv.shards {
            dlte_sim::set_shards(n);
        }
        let Some(path) = &inv.repro else {
            return match (inv.registry, inv.mobility) {
                (true, _) => sweep::<Reg>(inv),
                (_, true) => sweep::<Mob>(inv),
                _ => sweep::<Net>(inv),
            };
        };
        let path = Path::new(path);
        let replayed = chaos::repro_domain(path).and_then(|domain| match domain.as_str() {
            Net::NAME => replay::<Net>(path),
            Mob::NAME => replay::<Mob>(path),
            Reg::NAME => replay::<Reg>(path),
            other => Err(format!("{path:?}: unknown chaos domain {other:?}")),
        });
        let title = if inv.registry { "registry " } else { "" };
        replayed.unwrap_or_else(|e| (format!("{title}fuzz replay: {e}\n"), false))
    }

    /// How the report names a domain: the words before a seed number, and
    /// the sweep summary's title.
    fn wording<D: ChaosDomain>() -> (&'static str, &'static str) {
        match D::NAME {
            Reg::NAME => ("registry seed", "registry fuzz"),
            Mob::NAME => ("seed", "fuzz --mobility"),
            _ => ("seed", "fuzz"),
        }
    }

    fn sweep<D: ChaosDomain>(inv: &FuzzInvocation) -> (String, bool) {
        let (seed_word, title) = wording::<D>();
        let mut out = String::new();
        let mut failures = 0u64;
        for seed in inv.seed_start..inv.seed_end {
            let Some(repro) = chaos::fuzz_seed::<D>(seed) else {
                continue;
            };
            failures += 1;
            let _ = writeln!(
                out,
                "{seed_word} {seed} FAILED ({} violations, minimized to {} fault specs in {} runs):",
                repro.violations.len(),
                D::fault_specs(&repro.case),
                repro.shrink_runs
            );
            for v in &repro.violations {
                let _ = writeln!(out, "  {v}");
            }
            let _ = match chaos::write_repro::<D>(&repro, Path::new(&inv.out_dir)) {
                Ok(path) => writeln!(out, "  repro: {}", path.display()),
                Err(e) => writeln!(out, "  repro write failed: {e}"),
            };
        }
        let cases = inv.seed_end - inv.seed_start;
        let _ = writeln!(
            out,
            "{title}: {cases} cases ({}..{}), {failures} failed",
            inv.seed_start, inv.seed_end
        );
        (out, failures == 0)
    }

    fn replay<D: ChaosDomain>(path: &Path) -> Result<(String, bool), String> {
        let (repro, outcome) = chaos::replay_repro::<D>(path)?;
        let (seed_word, _) = wording::<D>();
        let mut out = format!(
            "replay {seed_word} {} ({}, {} fault specs):\n",
            repro.seed,
            D::describe(&repro.case),
            D::fault_specs(&repro.case)
        );
        let violations = D::violations(&outcome);
        for v in violations {
            let _ = writeln!(out, "  {v}");
        }
        if violations.is_empty() {
            let _ = writeln!(out, "  all oracles green (bug no longer reproduces)");
        }
        Ok((out, violations.is_empty()))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn args(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }

        #[test]
        fn parses_the_documented_forms() {
            let inv = parse_args(args("e5 --json --jobs 4 --seed 7")).unwrap();
            assert_eq!(inv.targets, vec!["e5"]);
            assert!(inv.json);
            assert_eq!(inv.jobs, Some(4));
            assert_eq!(inv.seed, Some(7));
            assert_eq!(inv.shards, None);

            let inv = parse_args(args("e13 --shards 4")).unwrap();
            assert_eq!(inv.shards, Some(4));
            // 0 = one shard per CPU core.
            let inv = parse_args(args("e13 --shards 0")).unwrap();
            assert_eq!(inv.shards, Some(0));

            let inv = parse_args(args("all")).unwrap();
            assert_eq!(inv.targets, vec!["all"]);
            assert!(!inv.json);

            // Several ids run back to back, in the order given.
            let inv = parse_args(args("e13 e14 --json")).unwrap();
            assert_eq!(inv.targets, vec!["e13", "e14"]);
            assert!(inv.json);

            let inv = parse_args(args("--list")).unwrap();
            assert!(inv.list);

            let inv = parse_args(args("e14 --trace /tmp/t.jsonl --metrics")).unwrap();
            assert_eq!(inv.trace.as_deref(), Some("/tmp/t.jsonl"));
            assert!(inv.metrics);
        }

        #[test]
        fn rejects_malformed_command_lines() {
            assert!(parse_args(args("")).is_err());
            assert!(parse_args(args("e1 --trace")).is_err());
            assert!(parse_args(args("e1 --jobs zero")).is_err());
            assert!(parse_args(args("e1 --jobs 0")).is_err());
            assert!(parse_args(args("e1 --shards two")).is_err());
            assert!(parse_args(args("e1 --frobnicate")).is_err());
            assert!(parse_args(vec!["e1".into(), "--params".into(), "[1,2]".into()]).is_err());
        }

        #[test]
        fn parses_fuzz_command_lines() {
            let inv = parse_fuzz_args(args("--seeds 0..200 --out target/fuzz")).unwrap();
            assert_eq!(inv.seed_start, 0);
            assert_eq!(inv.seed_end, 200);
            assert_eq!(inv.out_dir, "target/fuzz");
            assert_eq!(inv.repro, None);

            let inv = parse_fuzz_args(args("--repro fuzz_repro_7.json")).unwrap();
            assert_eq!(inv.repro.as_deref(), Some("fuzz_repro_7.json"));

            let inv = parse_fuzz_args(args("--seeds 0..10 --shards 2")).unwrap();
            assert_eq!(inv.shards, Some(2));
            assert!(parse_fuzz_args(args("--shards two")).is_err());

            let inv = parse_fuzz_args(args("--registry --seeds 0..50")).unwrap();
            assert!(inv.registry);
            assert_eq!((inv.seed_start, inv.seed_end), (0, 50));
            assert!(!parse_fuzz_args(args("--seeds 0..50")).unwrap().registry);

            let inv = parse_fuzz_args(args("--mobility --seeds 0..120")).unwrap();
            assert!(inv.mobility && !inv.registry);
            assert!(!parse_fuzz_args(args("--seeds 0..50")).unwrap().mobility);
            assert!(
                parse_fuzz_args(args("--registry --mobility")).is_err(),
                "mobility does not compose with registry fuzzing"
            );

            assert_eq!(
                parse_fuzz_args(args("")).unwrap(),
                FuzzInvocation::default()
            );
            assert!(parse_fuzz_args(args("--seeds 5")).is_err());
            assert!(parse_fuzz_args(args("--seeds 7..7")).is_err());
            assert!(parse_fuzz_args(args("--seeds x..9")).is_err());
            assert!(parse_fuzz_args(args("--frobnicate")).is_err());
        }

        #[test]
        fn fuzz_sweep_runs_green_on_a_small_range() {
            let inv = FuzzInvocation {
                seed_start: 0,
                seed_end: 3,
                ..FuzzInvocation::default()
            };
            let (report, ok) = run_fuzz(&inv);
            assert!(ok, "seeds 0..3 should be green:\n{report}");
            assert!(report.contains("3 cases (0..3), 0 failed"));
        }

        #[test]
        fn mobility_fuzz_sweep_runs_green_on_a_small_range() {
            let inv = FuzzInvocation {
                seed_start: 0,
                seed_end: 2,
                mobility: true,
                ..FuzzInvocation::default()
            };
            let (report, ok) = run_fuzz(&inv);
            assert!(ok, "mobility seeds 0..2 should be green:\n{report}");
            assert!(report.contains("fuzz --mobility: 2 cases (0..2), 0 failed"));
        }

        #[test]
        fn registry_fuzz_sweep_runs_green_on_a_small_range() {
            let inv = FuzzInvocation {
                seed_start: 0,
                seed_end: 5,
                registry: true,
                ..FuzzInvocation::default()
            };
            let (report, ok) = run_fuzz(&inv);
            assert!(ok, "registry seeds 0..5 should be green:\n{report}");
            assert!(report.contains("registry fuzz: 5 cases (0..5), 0 failed"));
        }

        #[test]
        fn repro_replays_in_the_domain_its_envelope_names() {
            let dir = std::env::temp_dir().join("dlte-run-test-repro-domain");
            std::fs::create_dir_all(&dir).unwrap();
            let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/");
            let registry = format!("{data}fuzz_repro_registry_overlapping_crash.json");
            // No --registry flag: the file's `domain` tag picks the domain.
            let (report, ok) = run_fuzz(&FuzzInvocation {
                repro: Some(registry.clone()),
                ..FuzzInvocation::default()
            });
            assert!(ok, "{report}");
            assert!(report.starts_with("replay registry seed 69 "), "{report}");
            // An unknown tag is an error, not a guess.
            let text = std::fs::read_to_string(&registry).unwrap();
            let foreign = dir.join("foreign.json");
            std::fs::write(
                &foreign,
                text.replace(r#""domain": "reg""#, r#""domain": "dns""#),
            )
            .unwrap();
            let (report, ok) = run_fuzz(&FuzzInvocation {
                repro: Some(foreign.display().to_string()),
                registry: true,
                ..FuzzInvocation::default()
            });
            assert!(!ok);
            assert!(report.starts_with("registry fuzz replay: "), "{report}");
            assert!(report.contains(r#"unknown chaos domain "dns""#), "{report}");
            let _ = std::fs::remove_dir_all(&dir);
        }

        #[test]
        fn seed_overrides_params_object() {
            let mut inv = parse_args(vec![
                "e1".into(),
                "--params".into(),
                r#"{"distances_km": [1.0], "seed": 3}"#.into(),
                "--seed".into(),
                "9".into(),
            ])
            .unwrap();
            let params = effective_params(&inv);
            assert_eq!(params.get("seed").and_then(Value::as_u64), Some(9));
            inv.seed = None;
            let params = effective_params(&inv);
            assert_eq!(params.get("seed").and_then(Value::as_u64), Some(3));
        }

        #[test]
        fn selection_resolves_all_single_and_multiple_ids() {
            let all = selection(&Invocation::default()).unwrap();
            assert_eq!(all.len(), 21);
            let one = selection(&Invocation {
                targets: vec!["E13".into()],
                ..Invocation::default()
            })
            .unwrap();
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].id(), "e13");
            let pair = selection(&Invocation {
                targets: vec!["e14".into(), "e13".into()],
                ..Invocation::default()
            })
            .unwrap();
            let ids: Vec<&str> = pair.iter().map(|e| e.id()).collect();
            assert_eq!(ids, vec!["e14", "e13"], "order as given");
            assert!(selection(&Invocation {
                targets: vec!["nope".into()],
                ..Invocation::default()
            })
            .is_err());
        }
    }
}
