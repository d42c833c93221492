//! `hpcc-repro` — regenerate the AMPoM paper's tables and figures.
//!
//! ```text
//! hpcc-repro [COMMAND] [--quick] [--csv DIR]
//!
//! Commands:
//!   all       every table and figure (default)
//!   table1    HPCC problem/memory sizes
//!   fig2      migration timelines (openMosix / FFA / AMPoM)
//!   fig4      kernel locality quadrant
//!   fig5      migration freeze times
//!   fig6      total execution times
//!   fig7      page-fault requests
//!   fig8      prefetch aggressiveness
//!   fig9      adaptation to network performance
//!   fig10     small working sets
//!   fig11     AMPoM analysis overhead
//!   ext-vm    extension: VM migration (shared vs per-process windows)
//!   ext-cluster   extension: gossip-based cluster load balancing
//!   ext-ptrans    extension: the transpose pattern beyond dmax
//!   ext-interactive extension: the §5.6 interactive application
//!   ext-roundtrip extension: migrate out and back (suboptimal decisions)
//!   ext-syscall   extension: forwarded-syscall home dependency
//!   ext-pressure  extension: destination memory pressure (eviction)
//!   ext-hpl       extension: HPL / LU factorisation pattern
//!   ext-locality  extension: measured locality of all workloads
//!   ext-timing    extension: migrate mid-run instead of post-allocation
//!   ext-gossip    extension: gossip staleness vs balancing quality
//!   ext-accuracy  extension: prefetch accuracy per kernel
//!   parsweep  parallel sweep engine demo (grid, speedup, determinism)
//!   faultsweep remote paging under message loss + deputy failure policies
//!   timeline  sampled run dynamics (in-flight, resident, budget, link)
//!   check     reproduction certificate: paper claims, PASS/FAIL
//!   sweep     sensitivity of l, dmax and the baseline read-ahead
//!   live      migrate the kernels over real sockets, report vs simulation
//!   calibrate measure a real link, emit its LinkConfig
//!   profile   one kernel/scheme pair under full observability
//!   multisweep concurrent migrants sharing one deputy: slowdown,
//!             fairness, saturation (simulated grid + 8 live migrants)
//!   bakeoff   prefetch-policy bake-off: AMPoM vs Leap vs INDIGO over
//!             kernels + locality-breaking workloads, vs NoPrefetch
//!   chaos     named chaos scenarios at 1/4/8 migrants: per-migrant SLO
//!             verdicts, load shedding, JSONL facts, BENCH_chaos.json
//!   lifecycle bidirectional page lifecycle (out -> dirty -> writeback ->
//!             return): size x link-condition panel, live loopback leg,
//!             JSONL facts, BENCH_lifecycle.json
//!   deputybench C10K session sweep against one loopback deputy, reactor
//!             vs sleep-poll wait modes: pages/s, p99 completion latency,
//!             idle CPU, exactly-once audit, BENCH_deputy.json
//!   clusterlife cluster-life engine at 300/1000 nodes (64 quick):
//!             Poisson arrivals, windowed gossip, remigration and
//!             home-return chains, per-cell thread-count determinism
//!             gate, JSONL facts, BENCH_cluster.json
//!
//! Options:
//!   --csv DIR also write each series as CSV under DIR (every command)
//!   --quick   tiny problem sizes (seconds instead of minutes): every
//!             command but table1, fig2, calibrate, chaos and lifecycle
//!   --loopback       live, calibrate, multisweep: in-process deputy on
//!                    127.0.0.1 (default)
//!   --endpoint ADDR  live, calibrate, multisweep: connect to a deputy at
//!                    ADDR instead
//!   --kernel NAME    profile: dgemm|stream|randomaccess|fft (default stream)
//!   --scheme NAME    profile: ampom|noprefetch|openmosix (default ampom)
//!   --json PATH      profile: write the JSONL event/phase stream to PATH
//!                    chaos, lifecycle, deputybench, clusterlife: append
//!                    the JSONL run facts to PATH
//!   --prom PATH      profile, bakeoff, chaos, lifecycle, deputybench,
//!                    clusterlife: write the Prometheus-style dump to PATH
//!                    (printed otherwise)
//!   --top K          profile: hottest pages to list (default 10)
//!   --scenario NAME  chaos: run only NAME (repeatable; default all)
//!   --bench PATH     chaos: write BENCH_chaos.json to PATH
//!                    (default ./BENCH_chaos.json)
//!                    lifecycle: write BENCH_lifecycle.json to PATH
//!                    (default ./BENCH_lifecycle.json)
//!                    deputybench: write BENCH_deputy.json to PATH
//!                    (default ./BENCH_deputy.json)
//!                    clusterlife: write BENCH_cluster.json to PATH
//!                    (default ./BENCH_cluster.json)
//!   --sessions LIST  deputybench: comma-separated session panel
//!                    (default 64,256,1000 quick; +4000,10000 full)
//!   --baseline PATH  deputybench: compare against a committed
//!                    BENCH_deputy.json; >20% pages/s regression fails
//!                    clusterlife: compare against a committed
//!                    BENCH_cluster.json; >20% throughput regression fails
//!
//! A flag the command does not take (see [`COMMANDS`]) exits 2 before
//! anything runs, naming the flag and the command. A CSV or gnuplot file
//! that cannot be written exits 1.
//!
//! `chaos`, `lifecycle`, `deputybench` and `clusterlife` seed their runs
//! from the `AMPOM_FAULT_SEED` environment variable (default 42),
//! matching the CI fault matrix. They share one facts format and one
//! publish step (`ampom_hpcc::facts`): self-verify, append `--json`,
//! write `--prom`, gate `--baseline`, then write `--bench`.
//! ```

use std::path::PathBuf;
use std::time::Instant;

use ampom_core::migration::Scheme;
use ampom_hpcc::matrix::{full_matrix, Cell};
use ampom_hpcc::profile::{self, ProfileOptions};
use ampom_hpcc::report::AsciiTable;
use ampom_hpcc::{
    chaos_cmd, checks, clusterlife, deputybench, experiments, extensions, facts, lifecycle_cmd,
    live,
};
use ampom_workloads::Kernel;

/// The quick-size flag alone.
const QUICK: &[&str] = &["--quick"];

/// Every command and the flags it takes besides `--csv`, which every
/// command takes (each emits its tables through `emit`). This is what
/// the usage text above says, flag by flag; `check_flags` holds every
/// invocation to it right after parsing.
const COMMANDS: &[(&str, &[&str])] = &[
    ("all", QUICK),
    ("table1", &[]),
    ("fig2", &[]),
    ("fig4", QUICK),
    ("fig5", QUICK),
    ("fig6", QUICK),
    ("fig7", QUICK),
    ("fig8", QUICK),
    ("fig9", QUICK),
    ("fig10", QUICK),
    ("fig11", QUICK),
    ("ext-vm", QUICK),
    ("ext-cluster", QUICK),
    ("ext-ptrans", QUICK),
    ("ext-interactive", QUICK),
    ("ext-roundtrip", QUICK),
    ("ext-syscall", QUICK),
    ("ext-pressure", QUICK),
    ("ext-hpl", QUICK),
    ("ext-locality", QUICK),
    ("ext-timing", QUICK),
    ("ext-gossip", QUICK),
    ("ext-accuracy", QUICK),
    ("parsweep", QUICK),
    ("faultsweep", QUICK),
    ("timeline", QUICK),
    ("check", QUICK),
    ("sweep", QUICK),
    ("live", &["--quick", "--loopback", "--endpoint"]),
    ("calibrate", &["--loopback", "--endpoint"]),
    (
        "profile",
        &[
            "--quick", "--kernel", "--scheme", "--json", "--prom", "--top",
        ],
    ),
    ("multisweep", &["--quick", "--loopback", "--endpoint"]),
    ("bakeoff", &["--quick", "--prom"]),
    ("chaos", &["--json", "--prom", "--scenario", "--bench"]),
    ("lifecycle", &["--json", "--prom", "--bench"]),
    (
        "deputybench",
        &[
            "--quick",
            "--json",
            "--prom",
            "--bench",
            "--sessions",
            "--baseline",
        ],
    ),
    (
        "clusterlife",
        &["--quick", "--json", "--prom", "--bench", "--baseline"],
    ),
];

/// Exits 2 unless `command` is in [`COMMANDS`] and takes every flag in
/// `given`.
fn check_flags(command: &str, given: &[String]) {
    let Some((_, takes)) = COMMANDS.iter().find(|(name, _)| *name == command) else {
        eprintln!("unknown command '{command}'; see --help");
        std::process::exit(2);
    };
    for flag in given {
        if flag != "--csv" && !takes.contains(&flag.as_str()) {
            eprintln!("{flag}: {command} does not take this flag; see --help");
            std::process::exit(2);
        }
    }
}

struct Options {
    command: String,
    quick: bool,
    csv_dir: Option<PathBuf>,
    endpoint: Option<String>,
    profile: ProfileOptions,
    out: facts::Outputs,
    scenarios: Vec<String>,
    sessions: Option<Vec<usize>>,
}

fn parse_kernel(name: &str) -> Kernel {
    match name.to_ascii_lowercase().as_str() {
        "dgemm" => Kernel::Dgemm,
        "stream" => Kernel::Stream,
        "randomaccess" | "gups" => Kernel::RandomAccess,
        "fft" => Kernel::Fft,
        other => {
            eprintln!("unknown kernel {other:?}; use dgemm|stream|randomaccess|fft");
            std::process::exit(2);
        }
    }
}

fn parse_scheme(name: &str) -> Scheme {
    match name.to_ascii_lowercase().as_str() {
        "ampom" => Scheme::Ampom,
        "noprefetch" => Scheme::NoPrefetch,
        "openmosix" => Scheme::OpenMosix,
        "ffa" => Scheme::Ffa,
        other => {
            eprintln!("unknown scheme {other:?}; use ampom|noprefetch|openmosix|ffa");
            std::process::exit(2);
        }
    }
}

fn parse_args() -> Options {
    let mut command = "all".to_string();
    let mut quick = false;
    let mut csv_dir = None;
    let mut endpoint = None;
    let mut prof = ProfileOptions::default();
    let mut out = facts::Outputs::default();
    let mut scenarios = Vec::new();
    let mut sessions = None;
    let mut given = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            given.push(a.clone());
        }
        match a.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                csv_dir = Some(PathBuf::from(
                    args.next().expect("--csv requires a directory"),
                ));
            }
            // The in-process deputy is already the default; the flag
            // exists so scripts can say what they mean.
            "--loopback" => endpoint = None,
            "--endpoint" => {
                endpoint = Some(args.next().expect("--endpoint requires HOST:PORT"));
            }
            "--kernel" => {
                prof.kernel = parse_kernel(&args.next().expect("--kernel requires a name"));
            }
            "--scheme" => {
                prof.scheme = parse_scheme(&args.next().expect("--scheme requires a name"));
            }
            "--json" => {
                out.json = Some(PathBuf::from(args.next().expect("--json requires a path")));
            }
            "--prom" => {
                out.prom = Some(PathBuf::from(args.next().expect("--prom requires a path")));
            }
            "--scenario" => {
                scenarios.push(args.next().expect("--scenario requires a name"));
            }
            "--bench" => {
                out.bench = Some(PathBuf::from(args.next().expect("--bench requires a path")));
            }
            "--sessions" => {
                let list = args.next().expect("--sessions requires a comma list");
                sessions = Some(
                    list.split(',')
                        .map(|s| {
                            s.trim()
                                .parse()
                                .expect("--sessions requires integers, e.g. 64,256,1000")
                        })
                        .collect(),
                );
            }
            "--baseline" => {
                out.baseline = Some(PathBuf::from(
                    args.next().expect("--baseline requires a path"),
                ));
            }
            "--top" => {
                prof.top = args
                    .next()
                    .expect("--top requires a count")
                    .parse()
                    .expect("--top requires an integer");
            }
            "--help" | "-h" => {
                println!(
                    "hpcc-repro [COMMAND] [FLAGS]; every command takes --csv DIR, \
                     and these its other flags (see the crate docs):"
                );
                for (name, takes) in COMMANDS {
                    println!("  {name:<16} {}", takes.join(" "));
                }
                std::process::exit(0);
            }
            cmd if !cmd.starts_with('-') => command = cmd.to_string(),
            other => {
                eprintln!("unknown option {other}; see --help");
                std::process::exit(2);
            }
        }
    }
    check_flags(&command, &given);
    prof.quick = quick;
    Options {
        command,
        quick,
        csv_dir,
        endpoint,
        profile: prof,
        out,
        scenarios,
        sessions,
    }
}

/// Prints `table` and writes its `--csv` files; exits 1 if one of them
/// cannot be written.
fn emit(table: &AsciiTable, opts: &Options, name: &str) {
    println!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = table.write_csv(dir, name) {
            exit_failed(format_args!("could not write {name}.csv: {e}"));
        }
        // Figures with a size-like x axis also get a gnuplot script, with
        // the paper's log-scale presentation for freeze times and fault
        // counts.
        let plot = match name.split('_').next().unwrap_or("") {
            "fig5" => Some(("freeze time (s)", true)),
            "fig6" => Some(("total execution time (s)", false)),
            "fig7" => Some(("page fault requests", true)),
            "fig10" => Some(("total execution time (s)", false)),
            "fig11" => Some(("overhead (%)", false)),
            _ => None,
        };
        if let Some((ylabel, log_y)) = plot {
            if let Err(e) = table.write_gnuplot(dir, name, ylabel, log_y) {
                exit_failed(format_args!("could not write {name}.gp: {e}"));
            }
        }
    }
}

fn emit_all(tables: &[AsciiTable], opts: &Options, prefix: &str) {
    for (i, t) in tables.iter().enumerate() {
        emit(t, opts, &format!("{prefix}_{i}"));
    }
}

/// Prints what failed and exits 1.
fn exit_failed(what: impl std::fmt::Display) -> ! {
    eprintln!("{what}");
    std::process::exit(1);
}

fn run_profile_command(opts: &Options) {
    let p = profile::run_profile(&opts.profile).unwrap_or_else(|e| exit_failed(e));
    emit(
        &profile::phase_table(&opts.profile, &p.report),
        opts,
        "profile",
    );
    emit(
        &profile::hottest_pages(&p.report, opts.profile.top),
        opts,
        "profile_pages",
    );
    // Self-verification before anything is written: the JSONL must
    // parse, and the phase partition must account for the whole run.
    if let Err(e) = profile::verify_jsonl(&p.jsonl) {
        exit_failed(format_args!("profile self-verification FAILED: {e}"));
    }
    println!(
        "self-verification OK: {} phases sum to the {} total within {:.0}%",
        ampom_obs::PhaseBreakdown::PHASES.len(),
        p.report.total_time,
        profile::PHASE_SUM_TOLERANCE * 100.0
    );
    if let Some(path) = &opts.out.json {
        facts::write_artifact(path, &p.jsonl).unwrap_or_else(|e| exit_failed(e));
        println!(
            "wrote {} JSONL lines to {}",
            p.jsonl.lines().count(),
            path.display()
        );
    }
    facts::write_prom(opts.out.prom.as_deref(), &p.prometheus).unwrap_or_else(|e| exit_failed(e));
}

/// The tail every facts command shares; exits as `facts::publish` says
/// when a step fails.
fn publish(spec: &facts::Spec, facts: &facts::Facts, opts: &Options) {
    if let Err(f) = facts::publish(spec, facts, &opts.out) {
        eprintln!("{}", f.message);
        std::process::exit(f.code);
    }
}

fn run_chaos_command(opts: &Options) {
    let chaos_opts = chaos_cmd::ChaosOptions {
        scenarios: opts.scenarios.clone(),
        ..chaos_cmd::ChaosOptions::default()
    };
    eprintln!(
        "running {} chaos scenario(s) at {:?} migrants, seed {}...",
        if chaos_opts.scenarios.is_empty() {
            "all".to_string()
        } else {
            chaos_opts.scenarios.len().to_string()
        },
        chaos_opts.migrants,
        chaos_opts.seed
    );
    let run = chaos_cmd::run_chaos(&chaos_opts)
        .unwrap_or_else(|e| exit_failed(format_args!("chaos failed: {e}")));
    emit(&chaos_cmd::chaos_table(&run), opts, "chaos");
    publish(&chaos_cmd::FACTS, &run.facts, opts);
}

fn run_lifecycle_command(opts: &Options) {
    let lc_opts = lifecycle_cmd::LifecycleOptions::default();
    eprintln!(
        "running the page-lifecycle panel ({:?} MB x {} link conditions) \
         plus the live loopback leg, seed {}...",
        lc_opts.sizes_mb,
        lifecycle_cmd::STORM_PANEL.len(),
        lc_opts.seed
    );
    let run = lifecycle_cmd::run_lifecycle_cmd(&lc_opts)
        .unwrap_or_else(|e| exit_failed(format_args!("lifecycle failed: {e}")));
    emit(&lifecycle_cmd::lifecycle_table(&run), opts, "lifecycle");
    publish(&lifecycle_cmd::FACTS, &run.facts, opts);
}

fn run_deputybench_command(opts: &Options) {
    let bench_opts = deputybench::DeputyBenchOptions {
        sessions: opts.sessions.clone(),
        quick: opts.quick,
        ..deputybench::DeputyBenchOptions::default()
    };
    eprintln!(
        "running the deputy saturation sweep ({} mode), seed {}...",
        if opts.quick { "quick" } else { "full" },
        bench_opts.seed
    );
    let run = deputybench::run_deputybench(&bench_opts)
        .unwrap_or_else(|e| exit_failed(format_args!("deputybench failed: {e}")));
    emit(&deputybench::deputybench_table(&run), opts, "deputybench");
    publish(&deputybench::FACTS, &run.facts, opts);
}

fn run_clusterlife_command(opts: &Options) {
    let cl_opts = clusterlife::ClusterLifeOptions {
        quick: opts.quick,
        ..clusterlife::ClusterLifeOptions::default()
    };
    eprintln!(
        "running the cluster-life panel ({} mode), seed {}...",
        if opts.quick { "quick" } else { "full" },
        cl_opts.seed
    );
    let run = clusterlife::run_clusterlife(&cl_opts)
        .unwrap_or_else(|e| exit_failed(format_args!("clusterlife failed: {e}")));
    emit(&clusterlife::clusterlife_table(&run), opts, "clusterlife");
    publish(&clusterlife::FACTS, &run.facts, opts);
}

/// Gives SIGPIPE back its default action, so that a reader going away
/// (`hpcc-repro all | head -2`) ends the run quietly, as it ends any Unix
/// filter. The Rust runtime ignores SIGPIPE before `main`, which turns
/// the next write into an `EPIPE` error and `println!` into a panic.
#[cfg(unix)]
fn restore_default_sigpipe() {
    use std::os::raw::c_int;
    extern "C" {
        /// `signal(2)`; the handler argument is a `sighandler_t`.
        fn signal(signum: c_int, handler: usize) -> usize;
    }
    /// SIGPIPE's number on Linux, the BSDs and macOS.
    const SIGPIPE: c_int = 13;
    /// `SIG_DFL`.
    const SIG_DFL: usize = 0;
    // SAFETY: `signal` only installs a disposition; SIG_DFL for SIGPIPE
    // runs no Rust code in the handler, and no other thread exists yet.
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn restore_default_sigpipe() {}

fn main() {
    restore_default_sigpipe();
    let opts = parse_args();
    let wants = |name: &str| opts.command == "all" || opts.command == name;
    let needs_matrix = ["fig5", "fig6", "fig7", "fig8", "fig11"]
        .iter()
        .any(|f| wants(f));
    let cells: Option<Vec<Cell>> = if needs_matrix {
        let started = Instant::now();
        eprintln!(
            "running the {} experiment matrix (4 kernels x sizes x 3 schemes)...",
            if opts.quick { "quick" } else { "full" }
        );
        let m = full_matrix(opts.quick);
        eprintln!("matrix done in {:.1}s", started.elapsed().as_secs_f64());
        Some(m)
    } else {
        None
    };

    if wants("table1") {
        emit(&experiments::table1(), &opts, "table1");
    }
    if wants("fig2") {
        let (summary, timelines) = experiments::fig2();
        emit(&summary, &opts, "fig2");
        for (scheme, timeline) in timelines {
            println!("--- {scheme} timeline (first events) ---");
            println!("{timeline}");
        }
    }
    if wants("fig4") {
        emit(&experiments::fig4(opts.quick), &opts, "fig4");
    }
    if let Some(cells) = &cells {
        if wants("fig5") {
            emit_all(&experiments::fig5(cells), &opts, "fig5");
        }
        if wants("fig6") {
            emit_all(&experiments::fig6(cells), &opts, "fig6");
        }
        if wants("fig7") {
            emit_all(&experiments::fig7(cells), &opts, "fig7");
        }
        if wants("fig8") {
            emit(&experiments::fig8(cells), &opts, "fig8");
        }
        if wants("fig11") {
            emit(&experiments::fig11(cells), &opts, "fig11");
        }
    }
    if wants("fig9") {
        emit(&experiments::fig9(opts.quick), &opts, "fig9");
    }
    if wants("fig10") {
        emit(&experiments::fig10(opts.quick), &opts, "fig10");
    }
    if wants("ext-vm") {
        emit(&extensions::ext_vm(opts.quick), &opts, "ext_vm");
    }
    if wants("ext-cluster") {
        emit(&extensions::ext_cluster(opts.quick), &opts, "ext_cluster");
    }
    if wants("ext-ptrans") {
        emit(&extensions::ext_ptrans(opts.quick), &opts, "ext_ptrans");
    }
    if wants("ext-interactive") {
        emit(
            &extensions::ext_interactive(opts.quick),
            &opts,
            "ext_interactive",
        );
    }
    if wants("ext-roundtrip") {
        emit(
            &extensions::ext_roundtrip(opts.quick),
            &opts,
            "ext_roundtrip",
        );
    }
    if wants("ext-syscall") {
        emit(&extensions::ext_syscall(opts.quick), &opts, "ext_syscall");
    }
    if wants("ext-pressure") {
        emit(&extensions::ext_pressure(opts.quick), &opts, "ext_pressure");
    }
    if wants("ext-accuracy") {
        emit(&extensions::ext_accuracy(opts.quick), &opts, "ext_accuracy");
    }
    if wants("ext-gossip") {
        emit(&extensions::ext_gossip(opts.quick), &opts, "ext_gossip");
    }
    if wants("ext-timing") {
        emit(&extensions::ext_timing(opts.quick), &opts, "ext_timing");
    }
    if wants("ext-locality") {
        emit(&extensions::ext_locality(opts.quick), &opts, "ext_locality");
    }
    if wants("ext-hpl") {
        emit(&extensions::ext_hpl(opts.quick), &opts, "ext_hpl");
    }
    if wants("parsweep") {
        let (grid, engine) = experiments::parsweep(opts.quick);
        emit(&grid, &opts, "parsweep_grid");
        emit(&engine, &opts, "parsweep_engine");
    }
    if wants("faultsweep") {
        let (grid, demo) = experiments::faultsweep(opts.quick);
        emit(&grid, &opts, "faultsweep_grid");
        emit(&demo, &opts, "faultsweep_policies");
    }
    if wants("timeline") {
        emit(&extensions::timeline(opts.quick), &opts, "timeline");
    }
    if wants("check") {
        let claims = checks::run_checklist(opts.quick);
        emit(&checks::checklist_table(&claims), &opts, "check");
        let failed = claims.iter().filter(|c| !c.pass).count();
        if failed > 0 {
            eprintln!("{failed} claim(s) FAILED");
            std::process::exit(1);
        }
    }
    if wants("sweep") {
        emit_all(&extensions::sweep(opts.quick), &opts, "sweep");
    }
    // The socket-backed commands are explicit-only: `all` regenerates the
    // paper's simulated artifacts and must not depend on live sockets.
    let target = match &opts.endpoint {
        Some(addr) => live::LiveTarget::Remote(addr.clone()),
        None => live::LiveTarget::Loopback,
    };
    if opts.command == "live" {
        emit(&live::live(opts.quick, &target), &opts, "live");
    }
    if opts.command == "calibrate" {
        emit(&live::calibrate(&target), &opts, "calibrate");
    }
    if opts.command == "profile" {
        run_profile_command(&opts);
    }
    if opts.command == "multisweep" {
        emit_all(
            &ampom_hpcc::multisweep::multisweep(opts.quick, &target),
            &opts,
            "multisweep",
        );
    }
    if opts.command == "bakeoff" {
        let b = ampom_hpcc::bakeoff::run_bakeoff(opts.quick)
            .unwrap_or_else(|e| exit_failed(format_args!("bakeoff failed: {e}")));
        emit(&ampom_hpcc::bakeoff::bakeoff_table(&b), &opts, "bakeoff");
        facts::write_prom(opts.out.prom.as_deref(), &b.prometheus)
            .unwrap_or_else(|e| exit_failed(e));
    }
    if opts.command == "chaos" {
        run_chaos_command(&opts);
    }
    if opts.command == "lifecycle" {
        run_lifecycle_command(&opts);
    }
    if opts.command == "deputybench" {
        run_deputybench_command(&opts);
    }
    if opts.command == "clusterlife" {
        run_clusterlife_command(&opts);
    }
}
