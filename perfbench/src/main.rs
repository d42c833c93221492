//! `perfbench` — the AMPoM workspace's benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Runs one named workload, generated from `--seed`, for `--seconds`,
//! verifies its outputs, and prints one JSON result object as the last
//! line of standard output. An untraced run (`--trace 0`) reports every
//! end-to-end metric; a traced run (`--trace 1`) records a span around
//! every call the benchmark makes into a layer, writes the spans to
//! `.perfbench/spans-<workload>-<seed>.jsonl`, and reports every
//! per-layer metric, including `bench.tracing_overhead`: the timed loop's
//! cost on passes that record spans over its cost on passes that do not,
//! minus 1. Lines before the result name each workload-specific
//! end-to-end metric with its unit and direction. `--size tiny` shrinks
//! every input for the self-tests.
//!
//! Workloads: `sim-paper`, `sim-scatter`, `live-loopback`, `cluster-life`
//! (see `perfbench/README.md`).

mod clock;
mod cluster_life;
mod live;
mod metrics;
mod sim;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{END_TO_END, PER_LAYER};
use spans::Spans;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["sim-paper", "sim-scatter", "live-loopback", "cluster-life"];

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// One invocation's parameters.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Shrink every input (self-tests).
    pub tiny: bool,
    /// This is the traced run.
    pub traced: bool,
    /// Span recorder (disabled in untraced runs).
    pub spans: Spans,
}

/// Set-up timing. A workload sets up once before its timed loop and
/// repeats the set-up at even intervals through the loop, dropping what
/// the repeats build, until it has [`SETUP_REPS`] times. `setup_s` is
/// their median on a CPU clock: spread over the run, the repeats sample
/// the shared host's speed as the timed loop does, not just its first
/// seconds.
#[derive(Debug)]
pub struct Setups {
    clock: fn() -> Duration,
    times: Vec<f64>,
    repeats_wall: Duration,
}

impl Setups {
    /// A set-up timer on `clock`: the calling thread's CPU clock for a
    /// single-threaded set-up, the process's when set-up also runs in
    /// other threads.
    pub fn new(clock: fn() -> Duration) -> Self {
        Setups {
            clock,
            times: Vec::with_capacity(SETUP_REPS),
            repeats_wall: Duration::ZERO,
        }
    }

    /// Times one set-up. The caller drops a repeat's result after this
    /// returns, so tear-down is never charged to set-up.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, wall) = ((self.clock)(), Instant::now());
        let built = f();
        self.times.push(((self.clock)() - t).as_secs_f64());
        if self.times.len() > 1 {
            self.repeats_wall += wall.elapsed();
        }
        built
    }

    /// Wall time since `start` that the timed loop measured: the time the
    /// set-up repeats took is not part of it.
    pub fn measured_since(&self, start: Instant) -> Duration {
        start.elapsed().saturating_sub(self.repeats_wall)
    }

    /// Whether a set-up repeat is still owed.
    pub fn pending(&self) -> bool {
        self.times.len() < SETUP_REPS
    }

    /// Whether a repeat is due in a timed loop that began at `start`
    /// and measures for `budget`.
    pub fn due(&self, start: Instant, budget: Duration) -> bool {
        let at = budget.mul_f64(self.times.len() as f64 / SETUP_REPS as f64);
        self.pending() && self.measured_since(start) >= at
    }

    /// The median set-up time, in seconds.
    pub fn median(&self) -> f64 {
        clock::median(&self.times)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> \
                 --trace <0|1> [--size full|tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tiny: args.tiny,
        traced: args.trace,
        spans: Spans::new(args.trace),
    };
    let run = match args.workload.as_str() {
        "sim-paper" => sim::run(&mut ctx, sim::Mix::Paper).map_err(|e| e.to_string()),
        "sim-scatter" => sim::run(&mut ctx, sim::Mix::Scatter).map_err(|e| e.to_string()),
        "live-loopback" => live::run(&mut ctx),
        "cluster-life" => cluster_life::run(&mut ctx),
        _ => unreachable!("validated by parse_args"),
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        let spans = ctx.spans.spans().len();
        out.set("bench.spans", spans as f64);
        let path = PathBuf::from(".perfbench")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = ctx.spans.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("spans: {spans} written to {}", path.display());
    }
    for n in &out.named {
        println!(
            "{}: {} {} ({} is better; {})",
            n.name, n.value, n.unit, n.better, n.basis
        );
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.result_line(catalogue, args.trace));
    ExitCode::SUCCESS
}
