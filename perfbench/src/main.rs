//! The blockgnn serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sampled_zipf|fullgraph_updates|fullgraph_cold|wire_cached> \
//!     --seed <n> --seconds <s> --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --seed <n> --seconds <s> --trace 1
//! cargo test --manifest-path perfbench/Cargo.toml    # the benchmark's own tests
//! ```
//!
//! Each run builds its inputs from `--seed`, starts the real serving
//! stack in this process, measures for about `--seconds`, checks the
//! answers against solo inference, and prints a report followed by one
//! JSON line: `correct`, `attempted`, `failed` and the metrics.
//!
//! `--trace 0` reports the end-to-end metrics of the chosen workload
//! with tracing off (see `workloads.rs`). Latency percentiles are exact
//! over raw samples and printed with their sample counts; `p50_ms` is
//! gated, while p90 and p99 are printed only, because on the shared
//! 2-vCPU reference VM the tail mostly measures how often the
//! hypervisor stalls a vCPU.
//!
//! `--trace 1` is the traced run: one invocation reports every
//! per-layer metric (see `layers.rs`). It runs `sampled_zipf`,
//! `fullgraph_updates` and `wire_cached` with tracing off and on, because
//! each per-layer metric belongs to the workload whose serving path runs
//! that layer. `--workload` is optional there; when given it must name a
//! workload, and the traced run is the same whichever it names.
//!
//! `BENCHMARK.json` gates `fullgraph_updates` and `fullgraph_cold`, whose
//! metrics are set by graph compute. `sampled_zipf` and `wire_cached` run
//! and check like them but are not listed there: their sub-millisecond
//! requests are dominated by thread wake-ups, which on the shared 2-vCPU
//! reference VM slow by 25-45% whenever the hypervisor is contended,
//! more than the largest regression bound the benchmark may set. Every
//! traced run still measures their layers.
//!
//! The exit code is non-zero when a check fails.

mod drive;
mod layers;
mod report;
mod stats;
mod workloads;

use report::json_str;
use std::process::ExitCode;
use workloads::Workload;

struct Args {
    /// Required with `--trace 0`; a traced run covers [`Workload::TRACED`].
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let trace = trace.unwrap_or(false);
    if workload.is_none() && !trace {
        return Err("--workload is required with --trace 0".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds: seconds.unwrap_or(10.0), trace })
}

/// `rustc -V` of the toolchain on the path, or `unknown`.
fn rustc_version() -> String {
    match std::process::Command::new("rustc").arg("-V").output() {
        Ok(out) if out.status.success() => {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        }
        _ => "unknown".into(),
    }
}

/// The commit checked out in the working directory, read from `.git`
/// there (a source export without `.git` reports `unknown`).
fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|sha| sha.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host, toolchain, source and workload configuration of this run.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let config = workloads::server_config();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .filter(|&w| {
            if args.trace {
                Workload::TRACED.contains(w)
            } else {
                Some(*w) == args.workload
            }
        })
        .map(|&w| {
            format!(
                "{{\"name\": {}, \"dataset\": {}, \"model\": {}, \"backend\": {}, \
                 \"hidden\": {}, \"block\": {}, \"load\": {}, \"limit_ms\": {}}}",
                json_str(w.name()),
                json_str(w.dataset_name()),
                json_str(w.model().name()),
                json_str(w.backend().name()),
                workloads::HIDDEN,
                workloads::BLOCK,
                json_str(&w.load()),
                w.limit().as_millis()
            )
        })
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"git_sha\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"server\": {{\"workers\": {}, \"max_queue_depth\": {}, \
         \"batch_window_us\": {}, \"max_batch_requests\": {}, \"max_batch_nodes\": {}, \
         \"adaptive_window\": {}, \"tracing\": {}}}, \"workloads\": [{}]}}",
        json_str(&rustc_version()),
        json_str(&git_sha()),
        args.seed,
        args.seconds,
        args.trace,
        config.workers,
        config.max_queue_depth,
        config.batch_window.as_micros(),
        config.max_batch_requests,
        config.max_batch_nodes,
        config.adaptive_window,
        // A traced run serves each workload with tracing off, then on.
        json_str(match (config.tracing, args.trace) {
            (false, true) => "off, then on",
            (true, _) => "on",
            (false, false) => "off",
        }),
        workloads.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("provenance {}", provenance(&args));
    let report = match (args.trace, args.workload) {
        (true, _) => layers::run(args.seed, args.seconds),
        (false, Some(workload)) => workloads::run(workload, args.seed, args.seconds),
        (false, None) => unreachable!("parse_args requires a workload with --trace 0"),
    };
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
