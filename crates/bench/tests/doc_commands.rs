//! Every `dlte-run` command line in a fenced block of README.md,
//! EXPERIMENTS.md or DESIGN.md goes through the runner's real argument
//! parser, and every experiment id it names resolves. A renamed flag or a
//! deleted experiment then fails here instead of in a reader's shell.

use dlte_bench::runner::{parse_args, parse_fuzz_args, selection};
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "EXPERIMENTS.md", "DESIGN.md"];

/// The `dlte-run` invocations in a document's fenced blocks, as
/// `(line number, arguments after the program name)`. Backslash
/// continuations are joined; `# comments` and `| pipelines` are cut.
fn commands(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut pending: Option<(usize, String)> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            continue;
        }
        let (n, joined) = match pending.take() {
            Some((n, head)) => (n, head + " " + line.trim()),
            None => (i + 1, line.trim().to_string()),
        };
        if let Some(head) = joined.strip_suffix('\\') {
            pending = Some((n, head.trim_end().to_string()));
            continue;
        }
        let args = if let Some(rest) = joined.strip_prefix("dlte-run ") {
            rest
        } else if let Some((_, rest)) = joined.split_once("--bin dlte-run -- ") {
            rest
        } else {
            continue;
        };
        let args = args.split(" # ").next().unwrap_or_default();
        let args = args.split(" | ").next().unwrap_or_default();
        out.push((n, args.trim().to_string()));
    }
    out
}

/// Split a command line into words the way a POSIX shell would for the
/// quoting the docs use: single and double quotes group, nothing expands.
fn words(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word: Option<String> = None;
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => word.get_or_insert_with(String::new).push(c),
            (None, '\'' | '"') => {
                quote = Some(c);
                word.get_or_insert_with(String::new);
            }
            (None, c) if c.is_whitespace() => out.extend(word.take()),
            (None, c) => word.get_or_insert_with(String::new).push(c),
        }
    }
    assert!(quote.is_none(), "unbalanced quote in {line:?}");
    out.extend(word);
    out
}

/// Why one command line would fail, if it would.
fn check(args: &str) -> Result<(), String> {
    let mut argv = words(args);
    if argv.first().map(String::as_str) == Some("fuzz") {
        argv.remove(0);
        return parse_fuzz_args(argv).map(drop);
    }
    let inv = parse_args(argv)?;
    if inv.list {
        return Ok(());
    }
    selection(&inv).map(drop).map_err(|e| e.to_string())
}

#[test]
fn documented_command_lines_parse() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    let mut failures = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (line, args) in commands(&text) {
            checked += 1;
            if let Err(e) = check(&args) {
                failures.push(format!("{doc}:{line}: dlte-run {args}\n  {e}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The docs' quick-start blocks alone hold more than this; fewer means
    // the extraction broke, not that the docs are clean.
    assert!(
        checked >= 10,
        "only {checked} documented command lines found"
    );
}

#[test]
fn extraction_and_checks_catch_what_they_should() {
    let doc = "```sh\n\
               cargo run --release -p dlte-bench --bin dlte-run -- e1   # one\n\
               dlte-run e13 e14 --json \\\n  --params '{\"total_s\": 10.0}' | jq .\n\
               ```\n\
               dlte-run outside-a-fence\n\
               ```\n  bench/  the dlte-run runner\n```\n";
    assert_eq!(
        commands(doc),
        vec![
            (2, "e1".to_string()),
            (
                3,
                r#"e13 e14 --json --params '{"total_s": 10.0}'"#.to_string()
            ),
        ]
    );
    assert_eq!(
        words(r#"e13 --params '{"total_s": 10.0}'"#),
        ["e13", "--params", r#"{"total_s": 10.0}"#]
    );
    assert!(check("e1 --json").is_ok());
    assert!(check("fuzz --mobility --seeds 0..300").is_ok());
    assert!(check("--list").is_ok());
    assert!(check("e1 --frobnicate").is_err());
    assert!(check("bench").is_err(), "unknown ids must not pass");
    assert!(check("fuzz --seeds 5..5").is_err());
}
