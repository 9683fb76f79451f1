//! The DoublePlay reproduction's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ckpt-heavy|log-heavy|racy|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds`, checks every output, prints a
//! report and, as its last line, one JSON result: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics with a Chrome trace-event span
//! file under `perfbench/out/` (`--trace 1`). README.md defines every
//! metric.

mod host;
mod layers;
mod recording;
mod report;
mod service;
mod sink;
mod stats;
mod trace;
mod workloads;

use report::{render, Metrics, Outcome, END_TO_END, PER_LAYER};
use stats::{median, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// State shared by one run's phases.
pub struct Ctx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Scratch directory for journals and the socket (relative, short).
    pub dir: PathBuf,
    /// Spans (recording only with `--trace 1`).
    pub tr: Tracer,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values.
    pub metrics: Metrics,
    /// Set-up walls, seconds.
    pub setup_s: Vec<f64>,
    /// Report lines.
    pub lines: Vec<String>,
    /// Determinism self-check failures.
    pub problems: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Journals, the socket and the trace live under the package's own
    // directory: `perfbench/` of the working directory when run from the
    // repository root, else the directory the package was built from.
    let home = if std::path::Path::new("perfbench/Cargo.toml").is_file() {
        PathBuf::from("perfbench")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    if let Err(e) = std::env::set_current_dir(&home) {
        eprintln!("perfbench: cannot enter the benchmark directory: {e}");
        return ExitCode::from(2);
    }
    let host = host::Fingerprint::probe();
    let dir = PathBuf::from(format!("out/{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        dir,
        tr: Tracer::new(args.trace),
        tally: Tally::default(),
        metrics: Metrics::default(),
        setup_s: Vec::new(),
        lines: Vec::new(),
        problems: Vec::new(),
    };
    let started = Instant::now();
    dp_core::faults::silence_injected_panics();
    let ran = if workloads::RECORDING.contains(&args.workload.as_str()) {
        workloads::run(&args.workload, &mut ctx)
    } else if args.workload == "service" {
        service::run(&mut ctx)
    } else {
        Err(format!("unknown workload {}", args.workload))
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    if !ctx.setup_s.is_empty() {
        ctx.metrics.set("setup_s", median(&ctx.setup_s));
    }
    if let Some(rss) = host::peak_rss_mib() {
        ctx.metrics.set("peak_rss_mb", rss);
    }
    ctx.metrics.set("host.nproc", host.nproc as f64);
    ctx.metrics
        .set("host.parallel_capacity", host.parallel_capacity);

    let correct = ctx.tally.failed() == 0 && ctx.problems.is_empty();
    println!(
        "perfbench {} seed {} ({} s asked, {:.1} s taken, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        started.elapsed().as_secs_f64(),
        u8::from(args.trace)
    );
    println!("{}", host.line());
    for line in &ctx.lines {
        println!("{line}");
    }
    println!(
        "error_rate {:.6} ratio ({} failed of {} attempted)",
        ctx.tally.error_rate(),
        ctx.tally.failed(),
        ctx.tally.attempted()
    );
    for f in &ctx.tally.failures {
        println!("FAILED: {f}");
    }
    for p in &ctx.problems {
        println!("DETERMINISM: {p}");
    }
    if args.trace {
        let reps = ctx
            .tr
            .spans()
            .iter()
            .map(|s| s.run >> 16)
            .max()
            .map_or(1, |r| r + 1);
        println!("self time per repetition, by span (ms):");
        let mut selfs: Vec<_> = ctx.tr.self_ns().into_iter().collect();
        selfs.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        for (name, ns) in selfs {
            println!("  {name:<36} {:>12.3}", ns as f64 / 1e6 / reps as f64);
        }
        let path = format!("out/trace-{}-seed{}.json", args.workload, args.seed);
        let meta = [
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("host", host.line()),
        ];
        match std::fs::write(&path, ctx.tr.chrome_json(&meta)) {
            Ok(()) => println!(
                "spans: {} written to perfbench/{path}",
                ctx.tr.spans().len()
            ),
            Err(e) => {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (set, zero_ok) = if args.trace {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let outcome = Outcome {
        correct,
        attempted: ctx.tally.attempted(),
        failed: ctx.tally.failed(),
        metrics: ctx.metrics,
    };
    match render(&outcome, set, zero_ok) {
        Ok((lines, json)) => {
            for l in lines {
                println!("{l}");
            }
            println!("{json}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
