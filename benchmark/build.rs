//! Records the settings this binary was built with, for the `machine`
//! block of every result document.

use std::process::Command;

fn main() {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".to_string());
    let rustc = Command::new(var("RUSTC"))
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={rustc}");
    println!("cargo:rustc-env=BENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=BENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rerun-if-changed=build.rs");
}
