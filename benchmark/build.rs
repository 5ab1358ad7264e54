//! Records the compiler version for the result stamp, so the benchmark does not
//! start a process at run time to learn it.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    // Rerun only when this script changes, not on every edit in the package.
    println!("cargo:rerun-if-changed=build.rs");
}
