//! # ampom-bench — benchmark support
//!
//! The actual benchmarks live in `benches/`:
//!
//! * `algorithm` — microbenchmarks of the AMPoM analysis path (window
//!   record, stride census, Eq. 1 score, Eq. 3 zone sizing, full
//!   `on_fault`), grounding the Figure 11 overhead model,
//! * `figures` — one group per paper figure, running reduced problem
//!   sizes so `cargo bench` completes in minutes,
//! * `ablations` — the design-choice sweeps DESIGN.md calls out (baseline
//!   read-ahead on/off, lookback window length, `dmax`, prefetch cap).
//!
//! The workspace builds offline, so instead of an external benchmark
//! crate the benches run on the [`Harness`] here: a small self-timing
//! loop (warm-up, then `samples` timed iterations) that prints a
//! min/mean/max table per group. The binaries accept the conventional
//! `cargo bench` arguments — a positional substring filter plus the
//! `--bench` flag Cargo appends — and `--samples N` to trade precision
//! for wall-clock.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

use ampom_core::experiment::Experiment;
use ampom_core::migration::Scheme;
use ampom_core::RunReport;
use ampom_workloads::sizes::ProblemSize;
use ampom_workloads::Kernel;

/// Seed shared by every bench workload (the harness' matrix seed).
pub const BENCH_SEED: u64 = 42;

/// Runs one reduced-size cell for benchmarking (4 MB by default keeps a
/// single run under ~10 ms).
pub fn bench_cell(kernel: Kernel, memory_mb: u64, scheme: Scheme) -> RunReport {
    let size = ProblemSize {
        problem: 0,
        memory_mb,
    };
    Experiment::new(scheme)
        .kernel(kernel, size)
        .workload_seed(BENCH_SEED)
        .run()
        .expect("bench cell is a valid experiment")
}

/// One timed benchmark's summary statistics.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// `group/id` label.
    pub name: String,
    /// Timed iterations.
    pub samples: usize,
    /// Units of work per iteration; the times below are per unit.
    pub per: u32,
    /// Fastest iteration.
    pub min: Duration,
    /// Mean over all iterations.
    pub mean: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

fn human(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The self-timing bench runner: owns the CLI filter, the default sample
/// count and the collected [`Measurement`]s.
pub struct Harness {
    filter: Option<String>,
    samples: usize,
    results: Vec<Measurement>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            filter: None,
            samples: 20,
            results: Vec::new(),
        }
    }
}

impl Harness {
    /// A harness configured from `std::env::args()`: a positional
    /// substring filter, `--samples N`, and the ignored `--bench` flag
    /// Cargo passes to bench binaries.
    pub fn from_args() -> Self {
        let mut h = Harness::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--bench" | "--quiet" => {}
                "--samples" => {
                    h.samples = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--samples requires a number");
                }
                other if !other.starts_with('-') => {
                    h.filter = Some(other.to_string());
                }
                other => {
                    eprintln!("ignoring unknown bench option {other}");
                }
            }
        }
        h
    }

    /// Opens a named group of related benches.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            samples: None,
        }
    }

    /// Times `f` (after one warm-up call) and records/prints the result,
    /// per unit of the `per` units each call does.
    fn run_one<R>(&mut self, name: String, samples: usize, per: u32, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        black_box(f());
        let mut min = Duration::MAX;
        let mut max = Duration::ZERO;
        let mut total = Duration::ZERO;
        for _ in 0..samples {
            let t0 = Instant::now();
            black_box(f());
            let dt = t0.elapsed();
            min = min.min(dt);
            max = max.max(dt);
            total += dt;
        }
        let m = Measurement {
            name,
            samples,
            per,
            min: min / per,
            mean: total / (samples as u32 * per),
            max: max / per,
        };
        let unit = if per > 1 {
            format!(", per 1/{per} of a call")
        } else {
            String::new()
        };
        println!(
            "{:<44} {:>12} {:>12} {:>12}  ({} samples{unit})",
            m.name,
            human(m.min),
            human(m.mean),
            human(m.max),
            m.samples
        );
        self.results.push(m);
    }

    /// Prints the closing summary; call once at the end of `main`.
    pub fn finish(self) {
        println!("\n{} benchmarks timed.", self.results.len());
    }
}

/// A named group of benches sharing a sample-count override.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    samples: Option<usize>,
}

impl Group<'_> {
    /// Overrides the harness' default sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n);
        self
    }

    /// Times one bench, labelled `group/id`.
    pub fn bench<R>(&mut self, id: &str, f: impl FnMut() -> R) {
        self.bench_per(id, 1, f);
    }

    /// Times one bench whose every call does `per` units of work (pages,
    /// say), and reports the times per unit.
    pub fn bench_per<R>(&mut self, id: &str, per: u32, f: impl FnMut() -> R) {
        assert!(per > 0, "a bench call does at least one unit of work");
        let samples = self.samples.unwrap_or(self.harness.samples);
        let name = format!("{}/{}", self.name, id);
        self.harness.run_one(name, samples, per, f);
    }

    /// Ends the group (for call-site symmetry; dropping works too).
    pub fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_cell_is_usable() {
        let r = bench_cell(Kernel::Stream, 4, Scheme::Ampom);
        assert!(r.total_time.as_nanos() > 0);
    }

    #[test]
    fn harness_times_and_filters() {
        let mut h = Harness {
            filter: Some("keep".into()),
            samples: 3,
            results: Vec::new(),
        };
        let mut g = h.group("g");
        g.bench("keep-me", || 1 + 1);
        g.bench("skip-me", || 2 + 2);
        g.finish();
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].name, "g/keep-me");
        assert_eq!(h.results[0].samples, 3);
        assert!(h.results[0].min <= h.results[0].mean);
        assert!(h.results[0].mean <= h.results[0].max);

        let mut g = h.group("g");
        g.bench_per("keep-per-unit", 4, || {
            std::thread::sleep(Duration::from_millis(4))
        });
        assert_eq!(h.results[1].per, 4);
        assert!(
            h.results[1].min >= Duration::from_millis(1),
            "a quarter of each call"
        );
        assert!(h.results[1].min < Duration::from_millis(4));
    }
}
