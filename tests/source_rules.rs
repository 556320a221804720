//! Determinism by construction: two source rules for non-test code under
//! `crates/*/src` (a file's text before its first `#[cfg(test)]`).
//!
//! * No `RandomState` map. std `HashMap`/`HashSet` are seeded per process,
//!   so their iteration order changes from run to run; use
//!   `dlte_net::fxhash` or `BTreeMap`. Only `net/src/fxhash.rs`, which
//!   defines the deterministic aliases, names them.
//! * No host-clock read (`Instant::now`) outside `sim/src/report.rs` and
//!   `sim/src/par.rs`, which time runs without feeding the time back into
//!   the simulation.

use std::fs;
use std::path::{Path, PathBuf};

const RANDOM_STATE_OK: [&str; 1] = ["net/src/fxhash.rs"];
const CLOCK_OK: [&str; 2] = ["sim/src/report.rs", "sim/src/par.rs"];
const RANDOM_STATE_NAMES: [&str; 3] = ["HashMap", "HashSet", "RandomState"];

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `word` occurs in `code` as a whole identifier (`FxHashMap` does
/// not contain the word `HashMap`).
fn has_word(code: &str, word: &str) -> bool {
    code.match_indices(word).any(|(i, _)| {
        let before = code[..i].chars().next_back();
        let after = code[i + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// Every rule `text` breaks, as `crates/<rel>:<line>: <what>` messages.
/// `rel` is the file's path below `crates/`, with `/` separators.
fn breaches(rel: &str, text: &str) -> Vec<String> {
    let non_test = text.find("#[cfg(test)]").map_or(text, |cut| &text[..cut]);
    let mut out = Vec::new();
    for (i, line) in non_test.lines().enumerate() {
        let code = line.split("//").next().unwrap_or(line);
        let at = format!("crates/{rel}:{}", i + 1);
        if !RANDOM_STATE_OK.contains(&rel) && RANDOM_STATE_NAMES.iter().any(|w| has_word(code, w)) {
            out.push(format!(
                "{at}: RandomState map; use dlte_net::fxhash or BTreeMap: {}",
                line.trim()
            ));
        }
        if !CLOCK_OK.contains(&rel) && code.contains("Instant::now") {
            out.push(format!("{at}: host clock read: {}", line.trim()));
        }
    }
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn non_test_code_keeps_the_source_rules() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut sources = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ is readable") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut sources);
        }
    }
    sources.sort();
    assert!(sources.len() > 50, "scanned only {} files", sources.len());
    let mut found = Vec::new();
    for path in &sources {
        let rel = path.strip_prefix(&crates).expect("under crates/");
        let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
        let text = fs::read_to_string(path).expect("source is readable");
        found.extend(breaches(&rel.join("/"), &text));
    }
    assert!(
        found.is_empty(),
        "source rules broken:\n{}",
        found.join("\n")
    );
}

#[test]
fn rules_flag_what_they_should() {
    let map = "use std::collections::HashMap;\n";
    assert_eq!(
        breaches("epc/src/mme.rs", map),
        [
            "crates/epc/src/mme.rs:1: RandomState map; use dlte_net::fxhash or BTreeMap: \
          use std::collections::HashMap;"
        ]
    );
    assert!(breaches("net/src/fxhash.rs", map).is_empty());
    let set = "fn f() {}\nlet s: HashSet<u64> = HashSet::new();\n";
    assert_eq!(breaches("x/src/a.rs", set).len(), 1);
    assert!(breaches("x/src/a.rs", "let m: FxHashMap<u64, u64>;\n").is_empty());
    assert!(breaches("x/src/a.rs", "let m = 1; // a HashMap would do\n").is_empty());
    let clock = "let t = std::time::Instant::now();\n";
    assert_eq!(
        breaches("net/src/link.rs", clock),
        ["crates/net/src/link.rs:1: host clock read: let t = std::time::Instant::now();"]
    );
    assert!(breaches("sim/src/par.rs", clock).is_empty());
    let test_only = "fn f() {}\n#[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
    assert!(breaches("x/src/a.rs", test_only).is_empty());
}
