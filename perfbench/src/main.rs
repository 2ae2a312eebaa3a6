//! One benchmark for the HARP stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rm-flash-crowd|wire-churn|paper-eval> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each run sets up its workload several
//! times (reporting the median set-up), then measures whole rounds for
//! about `--seconds`, checks every output, and prints each metric by name
//! and unit followed by one JSON result line. Timings are CPU time. `--trace 1` records
//! benchmark-side spans around every layer call and prints the per-layer
//! metrics and self-time budget instead of the end-to-end metrics. The
//! exit code is 1 when an output check fails and 2 on a usage error.

mod paper;
mod report;
mod rm_flash;
mod spans;
mod stats;
mod wire;

use std::path::{Path, PathBuf};

/// Workload names and the seed each uses when `--seed` is not given.
const WORKLOADS: &[(&str, u64)] = &[("rm-flash-crowd", 1), ("wire-churn", 1), ("paper-eval", 1)];

/// Directory (under the benchmark's own) for sockets, journals and span
/// dumps.
fn workdir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // Unix socket paths are short; prefer the path relative to the
    // working directory when there is one.
    match std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
    {
        Some(rel) if !rel.as_os_str().is_empty() => rel,
        _ => dir,
    }
}

/// Prints the self-time budget and writes the spans out.
pub fn finish_trace(workload: &str, seed: u64, spans: &[spans::Span]) {
    print!("{}", spans::render_budget(workload, spans));
    let path = workdir().join(format!("spans-{workload}-seed{seed}.jsonl"));
    match spans::write_jsonl(&path, spans) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    // The run length BENCHMARK.json sets.
    let mut seconds = 30;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let default_seed = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|(_, s)| *s)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(default_seed),
        seconds: seconds.max(1),
        traced,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(workdir()) {
        eprintln!("perfbench: cannot create {}: {e}", workdir().display());
        std::process::exit(2);
    }
    // Load never uses more threads than the host has CPUs, and at most the
    // two of the reference host.
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2);
    if args.traced {
        spans::enable();
    }
    let mut out = match args.workload.as_str() {
        "rm-flash-crowd" => rm_flash::run(args.seed, args.seconds, args.traced, threads),
        "wire-churn" => wire::run(args.seed, args.seconds, args.traced, &workdir()),
        "paper-eval" => paper::run(args.seed, args.seconds, args.traced, threads),
        _ => unreachable!("workload validated by parse_args"),
    };

    if out.rounds == 0 {
        out.violation("no round was measured");
    }
    println!(
        "workload {} seed {} rounds {} threads {} traced {}",
        args.workload, args.seed, out.rounds, threads, args.traced
    );
    for (name, unit, value) in out.rows(args.traced) {
        println!("metric {name:<28} {value:>16.4} {unit}");
    }
    println!("attempted {} failed {}", out.attempted, out.failed);
    for v in &out.violations {
        println!("CHECK FAILED: {v}");
    }
    println!("{}", out.json(args.traced));
    if !out.correct() {
        std::process::exit(1);
    }
}
