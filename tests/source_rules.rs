//! Source rules for non-test code under `crates/*/src` (a file's text
//! before its first `#[cfg(test)]`). Two keep determinism by construction:
//!
//! * No `RandomState` map. std `HashMap`/`HashSet` are seeded per process,
//!   so their iteration order changes from run to run; use
//!   `dlte_net::fxhash` or `BTreeMap`. Only `net/src/fxhash.rs`, which
//!   defines the deterministic aliases, names them.
//! * No host-clock read (`Instant::now`) outside `sim/src/report.rs` and
//!   `sim/src/par.rs`, which time runs without feeding the time back into
//!   the simulation.
//!
//! A third keeps out code that no run reaches: every module file under
//! `crates/*/src` is reached by the non-test code of some other file under
//! `crates/*/src`, `examples/` or `benchmark/src` (see [`unreached`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const RANDOM_STATE_OK: [&str; 1] = ["net/src/fxhash.rs"];
const CLOCK_OK: [&str; 2] = ["sim/src/report.rs", "sim/src/par.rs"];
const RANDOM_STATE_NAMES: [&str; 3] = ["HashMap", "HashSet", "RandomState"];
/// Module files that may stay unreached: `obs::span` pairs trace records
/// into procedure spans for the planned `dlte-run explain` report.
const UNREACHED_OK: [&str; 1] = ["obs/src/span.rs"];

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

/// The crate directory and module a file under `crates/*/src` defines:
/// the file's stem, or its directory's name for a `mod.rs`. `None` for
/// crate roots, binaries and files outside `crates/`.
fn module_of(rel: &str) -> Option<(&str, &str)> {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() < 4 || parts[0] != "crates" || parts[2] != "src" || parts[3] == "bin" {
        return None;
    }
    match parts[parts.len() - 1].strip_suffix(".rs")? {
        "lib" | "main" => None,
        "mod" => Some((parts[1], parts[parts.len() - 2])),
        stem => Some((parts[1], stem)),
    }
}

/// Length of the `//` comment or the string, raw string or char literal
/// that `rest` starts with, if any. `after_ident` tells `r"…"` from an
/// identifier ending in `r` followed by a string.
fn literal_len(rest: &str, after_ident: bool) -> Option<usize> {
    let tail = rest.get(1..)?;
    if rest.starts_with("//") {
        return Some(rest.find('\n').unwrap_or(rest.len()));
    }
    if rest.starts_with('r') && !after_ident {
        let hashes = tail.len() - tail.trim_start_matches('#').len();
        if tail[hashes..].starts_with('"') {
            let close = format!("\"{}", "#".repeat(hashes));
            let body = 2 + hashes;
            return Some(
                rest[body..]
                    .find(&close)
                    .map_or(rest.len(), |e| body + e + close.len()),
            );
        }
    }
    if rest.starts_with('"') {
        let mut escaped = false;
        let end = tail.find(|c| {
            let close = c == '"' && !escaped;
            escaped = c == '\\' && !escaped;
            close
        });
        return Some(end.map_or(rest.len(), |e| e + 2));
    }
    if rest.starts_with('\'') {
        if let Some(escape) = tail.strip_prefix('\\') {
            return Some(escape.get(1..)?.find('\'')? + 4);
        }
        let c = tail.chars().next()?;
        if tail[c.len_utf8()..].starts_with('\'') {
            return Some(c.len_utf8() + 2);
        }
    }
    None
}

/// A file's non-test code without its `//` comments and with its string
/// and char literals emptied, so neither can name a module.
fn code_of(text: &str) -> String {
    let non_test = text.find("#[cfg(test)]").map_or(text, |cut| &text[..cut]);
    let mut out = String::with_capacity(non_test.len());
    let mut rest = non_test;
    while let Some(c) = rest.chars().next() {
        let after_ident = out.chars().next_back().is_some_and(is_ident_char);
        match literal_len(rest, after_ident) {
            Some(len) => {
                if !rest.starts_with("//") {
                    out.push_str("\"\"");
                }
                rest = &rest[len..];
            }
            None => {
                out.push(c);
                rest = &rest[c.len_utf8()..];
            }
        }
    }
    out
}

/// Every identifier of `code` as (its path's first segment, itself,
/// whether `::` follows it): `dlte_x::m::f` gives `(dlte_x, dlte_x,
/// true)`, `(dlte_x, m, true)`, `(dlte_x, f, false)`; an identifier outside
/// a path is its own first segment.
fn idents(code: &str) -> Vec<(&str, &str, bool)> {
    let mut out = Vec::new();
    let mut root: Option<&str> = None;
    let mut after_sep = false;
    let mut rest = code;
    while let Some(c) = rest.chars().next() {
        if let Some(tail) = rest.strip_prefix("::") {
            after_sep = true;
            rest = tail;
            continue;
        }
        let len = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
        if len == 0 {
            if !c.is_whitespace() {
                root = None;
            }
            after_sep = false;
            rest = &rest[c.len_utf8()..];
            continue;
        }
        let ident = &rest[..len];
        rest = &rest[len..];
        if !(after_sep && root.is_some()) {
            root = Some(ident);
        }
        out.push((root.unwrap_or(ident), ident, rest.starts_with("::")));
        after_sep = false;
    }
    out
}

/// The `use` statements of `code`, each from its `use` to its `;` (so a
/// multi-line `pub use m::{ … };` is one statement), flagged when `pub`.
fn use_statements(code: &str) -> Vec<(bool, &str)> {
    let mut out = Vec::new();
    let mut at = 0;
    for line in code.split_inclusive('\n') {
        let trimmed = line.trim_start();
        let start = at + line.len() - trimmed.len();
        at += line.len();
        let public = trimmed.starts_with("pub use ");
        if public || trimmed.starts_with("use ") {
            let end = code[start..]
                .find(';')
                .map_or(code.len(), |e| start + e + 1);
            out.push((public, &code[start..end]));
        }
    }
    out
}

/// The bodies of brace-delimited macro invocations (`table! { … }`): a
/// macro may build `m::` paths from the identifiers it is handed.
fn brace_macro_bodies(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for (i, _) in code.match_indices("! {") {
        let name = code[..i].rsplit(|c: char| !is_ident_char(c)).next();
        if name.is_none_or(|n| n.is_empty() || n == "macro_rules") {
            continue;
        }
        let open = i + 2;
        let mut depth = 0;
        for (j, c) in code[open..].char_indices() {
            depth += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            if depth == 0 {
                out.push(&code[open..open + j]);
                break;
            }
        }
    }
    out
}

/// Module files that no non-test code outside them reaches, as
/// `<path>: …` messages. `files` holds every scanned file as (path from
/// the repository root, text); `libs` maps each crate's library name to
/// its directory under `crates/`.
///
/// Module `m` of crate `c` is reached from another file by a path through
/// `m` (`m::f`, `dlte_c::m::T`, `use super::m;`, `use dlte_c::{m, …}`),
/// by `m` in a brace macro's body in crate `c` (the experiment table), or
/// by a name that a `pub use m::…` exports. A path counts for crate `c`
/// when it starts at `dlte_c`, or, inside `c`, at anything that is not
/// another crate's name. The `pub use` itself does not count:
/// re-exporting names nobody reads reaches nothing.
fn unreached(files: &[(String, String)], libs: &BTreeMap<String, String>) -> Vec<String> {
    type Refs = BTreeSet<(String, String)>;
    let mut exports: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    // Per file: the (crate, identifier) pairs its paths, `use`s and macro
    // bodies name, and every identifier it has outside its `pub use`s.
    let mut seen: Vec<(Refs, BTreeSet<String>)> = Vec::new();
    for (rel, text) in files {
        let home = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next());
        let owner = |root: &str| match libs.get(root) {
            Some(dir) => Some(dir.clone()),
            None => home.map(str::to_owned),
        };
        let code = code_of(text);
        let mut rest = code.clone();
        let mut refs = Refs::new();
        for (public, stmt) in use_statements(&code) {
            let path = stmt.split_once("use ").map_or("", |(_, p)| p);
            let names = idents(path);
            let Some(dir) = names.first().and_then(|&(root, _, _)| owner(root)) else {
                continue;
            };
            if !public {
                refs.extend(names.iter().map(|&(_, w, _)| (dir.clone(), w.to_owned())));
                continue;
            }
            rest = rest.replacen(stmt, "", 1);
            let path = path
                .trim_start_matches("crate::")
                .trim_start_matches("self::");
            if let Some((module, items)) = path.split_once("::") {
                let leaves = idents(items)
                    .into_iter()
                    .filter(|&(_, w, head)| !head && w != "as");
                let entry = exports.entry((dir, module.to_owned())).or_default();
                entry.extend(leaves.map(|(_, w, _)| w.to_owned()));
            }
        }
        let all = idents(&rest);
        for &(root, w, head) in &all {
            if head || root != w {
                refs.extend(owner(root).map(|dir| (dir, w.to_owned())));
            }
        }
        for body in brace_macro_bodies(&rest) {
            let named = idents(body)
                .into_iter()
                .filter_map(|(_, w, _)| Some((home?.to_owned(), w.to_owned())));
            refs.extend(named);
        }
        seen.push((
            refs,
            all.into_iter().map(|(_, w, _)| w.to_owned()).collect(),
        ));
    }
    let mut out = Vec::new();
    for (k, (rel, _)) in files.iter().enumerate() {
        let Some((dir, module)) = module_of(rel) else {
            continue;
        };
        if UNREACHED_OK.contains(&rel.trim_start_matches("crates/")) {
            continue;
        }
        let key = (dir.to_owned(), module.to_owned());
        let exported = exports.get(&key);
        let reached = seen.iter().enumerate().any(|(j, (refs, names))| {
            j != k
                && (refs.contains(&key)
                    || exported.is_some_and(|e| e.iter().any(|n| names.contains(n))))
        });
        if !reached {
            out.push(format!(
                "{rel}: module `{module}` is reached by no non-test code outside it"
            ));
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
fn every_module_is_reached_from_outside_itself() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = Vec::new();
    let mut libs = BTreeMap::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .expect("package name");
        let dir_name = dir.file_name().expect("crate directory").to_string_lossy();
        libs.insert(name.replace('-', "_"), dir_name.into_owned());
        rust_files(&dir.join("src"), &mut paths);
    }
    rust_files(&root.join("examples"), &mut paths);
    rust_files(&root.join("benchmark/src"), &mut paths);
    paths.sort();
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(&root).expect("under the repository root");
            let rel: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            let text = fs::read_to_string(path).expect("source is readable");
            (rel.join("/"), text)
        })
        .collect();
    assert!(files.len() > 100, "scanned only {} files", files.len());
    let found = unreached(&files, &libs);
    assert!(found.is_empty(), "unreached modules:\n{}", found.join("\n"));
}

#[test]
fn reach_rule_flags_an_unreached_module() {
    let libs = BTreeMap::from([("dlte_x".to_string(), "x".to_string())]);
    let file = |rel: &str, text: &str| (rel.to_string(), text.to_string());
    let files = vec![
        file(
            "crates/x/src/lib.rs",
            "pub mod used;\npub mod dead;\npub mod kept;\n\
             pub use kept::{\n    Kept,\n};\npub use dead::Gone;\n",
        ),
        file("crates/x/src/used.rs", "pub fn f() {}\n"),
        file("crates/x/src/dead.rs", "pub struct Gone;\n"),
        file("crates/x/src/kept.rs", "pub struct Kept;\n"),
        // Another crate's `dead` module, strings, comments and test code
        // reach nothing here.
        file("crates/y/src/lib.rs", "pub mod dead;\nuse dead::Y;\n"),
        file("crates/y/src/dead.rs", "pub struct Y;\n"),
        file(
            "examples/demo.rs",
            "use dlte_x::Kept;\nfn main() { dlte_x::used::f(); }\n\
             const NOTE: &str = \"dlte_x::dead::Gone\"; // dlte_x::dead\n\
             #[cfg(test)]\nmod t { use dlte_x::dead::Gone; }\n",
        ),
    ];
    assert_eq!(
        unreached(&files, &libs),
        ["crates/x/src/dead.rs: module `dead` is reached by no non-test code outside it"]
    );
    // Each other form reaches it: a `use` naming the module, an exported
    // name, a path from inside the crate, a macro table in the crate.
    for reach in [
        ("examples/demo.rs", "use dlte_x::{dead, used::f, Kept};\n"),
        ("examples/demo.rs", "use dlte_x::{used, Gone, Kept};\n"),
        (
            "crates/x/src/kept.rs",
            "pub struct Kept;\nfn g() { super::dead::h() }\n",
        ),
        (
            "crates/x/src/kept.rs",
            "pub struct Kept;\ntable! {\n    A => dead;\n}\n",
        ),
    ] {
        let mut with = files.clone();
        with.retain(|(rel, _)| rel != reach.0);
        with.push(file(reach.0, reach.1));
        with.push(file(
            "examples/more.rs",
            "fn main() { dlte_x::used::f(); let _ = dlte_x::Kept; }\n",
        ));
        assert!(unreached(&with, &libs).is_empty(), "{reach:?}");
    }
    // The allowlisted module may stay unreached.
    let span = [file("crates/obs/src/span.rs", "pub fn pair() {}\n")];
    assert!(unreached(&span, &libs).is_empty());
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
