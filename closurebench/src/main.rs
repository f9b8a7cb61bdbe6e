//! The AS-CDG closure benchmark.
//!
//! ```text
//! cargo run --release --manifest-path closurebench/Cargo.toml -- \
//!     --workload <oneshot-closure|campaign-snapshot|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last stdout line is the result
//! (`correct`, `attempted`, `failed`, `metrics`: end-to-end metrics
//! untraced, per-layer metrics traced); the line before it is the full
//! report with the machine fingerprint; stderr gets a readable table.
//! The exit code is non-zero when any outcome mismatched or any check
//! failed. See `closurebench/README.md` for the metrics and workloads.

mod bench;
mod campaign;
mod machine;
mod oneshot;
mod report;
mod requests;
mod serve;
mod stats;
mod timed_env;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Args;

/// Workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["oneshot-closure", "campaign-snapshot", "serve-mixed"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let number = |name: &str| -> Result<u64, String> {
        flag(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = machine::Machine::detect();
    // Scratch files (checkpoints, daemon state) stay inside the working
    // directory and are removed afterwards.
    let tmp = PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let seconds = args.seconds as f64;
    let n = machine.nproc;
    let run = match args.workload.as_str() {
        "oneshot-closure" => oneshot::run(args.seed, seconds, args.trace, n),
        "campaign-snapshot" => campaign::run(args.seed, seconds, args.trace, n, &tmp),
        _ => serve::run(args.seed, seconds, args.trace, &tmp),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = report::summarize(&run, args.trace);
    eprint!("{}", report::table(&args, &machine, &run, &report));
    println!("{}", report::full(&args, &machine, &run, &report));
    println!("{}", report::result_line(&report, args.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
