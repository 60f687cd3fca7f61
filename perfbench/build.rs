//! Records the compiler's version line and commit hash for the machine
//! fingerprint every result carries.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let verbose = Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    let version = verbose.lines().next().unwrap_or("unknown").to_string();
    let commit = verbose
        .lines()
        .find_map(|l| l.strip_prefix("commit-hash: "))
        .unwrap_or("unknown")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
