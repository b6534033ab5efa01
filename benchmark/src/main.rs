//! The crusader benchmark: end-to-end and per-layer metrics of the
//! simulator and the wall-clock runtime on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sim-byzantine|sim-rejoin|rt-fleet --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --describe
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A human-readable
//! report and the host fingerprint go to standard error. `--describe`
//! prints the `BENCHMARK.json` the benchmark implements. See README.md.

mod host;
mod report;
mod stats;
mod tap;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use host::RefKernel;
use report::{Run, Sample};
use workloads::{Inputs, Workload};

const USAGE: &str = "usage: crusader_benchmark --workload <sim-byzantine|sim-rejoin|rt-fleet> \
--seed <u64> --seconds <1..=600> --trace <0|1>\n       crusader_benchmark --describe";

/// Fewest repetitions of each kind a run keeps going for, whatever
/// `--seconds` says: a median needs a few samples.
const MIN_REPS: usize = 3;

/// Reference-kernel runs right before and right after each repetition.
const REF_TIMINGS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--describe"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} (want 0 or 1)")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// Repeats the workload for `--seconds`, each repetition between
/// timings of the reference kernel; its reference time is their median. With `--trace 1`, untraced and traced
/// repetitions alternate so both see the same host conditions.
fn measure(args: &Args) -> Run {
    let inputs = Inputs::generate(args.workload, args.seed);
    let mut kernel = RefKernel::new();
    kernel.time(); // faults the kernel's buffer in
    let empty_ns = tap::empty_span_ns();
    let budget = Duration::from_secs(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
    if args.workload.is_sim() {
        // The first repetition in a process pays for page faults and
        // allocator growth that later ones reuse; users running long
        // simulations pay it once, so it is not measured.
        for &traced in kinds {
            drop(inputs.rep(traced, Duration::ZERO));
        }
    }
    let start = Instant::now();
    // A wall-clock run lasts as long as it is told to: one repetition of
    // each kind fills the budget.
    let (run_for, min_reps) = if args.workload.is_sim() {
        (Duration::ZERO, MIN_REPS)
    } else {
        (budget / kinds.len() as u32, 1)
    };
    loop {
        for &traced in kinds {
            let mut timings = kernel.sample(REF_TIMINGS);
            let rep = inputs.rep(traced, run_for);
            timings.extend(kernel.sample(REF_TIMINGS));
            let ref_s = stats::median(&timings).expect("reference timings");
            eprintln!(
                "  rep {:>2} {:<8} wall {:.4} s  cpu {:.4} s  ref {:.4} s  rounds {}{}",
                samples.len(),
                if traced { "traced" } else { "untraced" },
                rep.wall_s,
                rep.cpu_s,
                ref_s,
                rep.rounds,
                rep.hash
                    .map_or(String::new(), |h| format!("  hash {h:016x}")),
            );
            samples.push(Sample { rep, ref_s, traced });
        }
        let reps = samples.len() / kinds.len();
        if reps >= min_reps && start.elapsed() >= budget || !args.workload.is_sim() {
            break;
        }
    }
    Run {
        workload: args.workload,
        trace: args.trace,
        samples,
        empty_ns,
        peak_rss_mb: host::peak_rss_mb(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", report::describe());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "# {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // The fingerprint goes to both streams: standard output keeps it
    // next to the result line.
    let fingerprint = format!("# host: {}", host::fingerprint());
    eprintln!("{fingerprint}");
    println!("{fingerprint}");
    let run = measure(&args);
    for (name, n, q) in run.rep_quartiles() {
        if let Some([q1, q2, q3]) = q {
            eprintln!("  {name:<28} n={n:<4} q1 {q1:.6}  median {q2:.6}  q3 {q3:.6}");
        }
    }
    let outcome = run.outcome();
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("  FAILED: {f}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
