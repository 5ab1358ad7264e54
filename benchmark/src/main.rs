//! The Mitra benchmark.  See `README.md` for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds S] [--trace 0|1] \
//!     [--out FILE] [--trace-dir DIR]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```

mod calibrate;
mod compare;
mod json;
mod meter;
mod run;
mod social;
mod stats;
mod sys;
mod util;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: mitra-benchmark --workload <name|all> --seed <u64> [--seconds S] \
                     [--trace 0|1] [--out FILE] [--trace-dir DIR]\n       \
                     mitra-benchmark compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|run_args| {
            if run_args.workload == "all" {
                run_all(&args)
            } else {
                run::run(&run_args).map(|()| true)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse_args(args: &[String]) -> Result<run::Args, String> {
    let mut out = run::Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        trace_dir: run::package_dir().join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out.out = Some(value()?.into()),
            "--trace-dir" => out.trace_dir = value()?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload != "all" && workloads::info(&out.workload).is_none() {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all, not `{}`",
            names.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

/// Runs every workload in its own process, one after another, with the same
/// arguments otherwise.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut ok = true;
    for w in workloads::ALL {
        let mut child_args: Vec<String> = Vec::with_capacity(args.len());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            child_args.push(a.clone());
            if a == "--workload" {
                it.next();
                child_args.push(w.name.to_string());
            }
        }
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}
