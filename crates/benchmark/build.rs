//! Records the compiler and profile the benchmark was built with, so
//! every result file can say which build produced its numbers.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=RHYCHEE_BENCHMARK_RUSTC={version}");
    for (var, key) in
        [("PROFILE", "RHYCHEE_BENCHMARK_PROFILE"), ("OPT_LEVEL", "RHYCHEE_BENCHMARK_OPT")]
    {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
