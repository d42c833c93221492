//! `hpcc-repro lifecycle` — the full bidirectional page lifecycle as an
//! experiment: migrate out, dirty pages, write them back in the
//! background, and return home (DESIGN.md §15).
//!
//! The simulated panel crosses two working-set sizes (1 MB and 4 MB)
//! with three link conditions — a clean link plus the `flaky-link-storm`
//! and `deputy-restart-midstorm` chaos profiles — and reports a
//! per-phase breakdown (outbound freeze, away execution incl. the
//! writeback drain, return freeze, home execution) along with the
//! dirty-page conservation verdict. A live leg then drives the same
//! writeback + home-return protocol over real loopback sockets against
//! an in-process deputy.
//!
//! Artifacts follow the [`crate::facts`] format:
//!
//! * JSONL run facts — `cell` and `live` lines under a `lifecycle-run`
//!   header, self-verified before anything is written,
//! * Prometheus gauges — `ampom_lifecycle_<cell>_*` per cell,
//! * `BENCH_lifecycle.json` — writeback throughput and return-freeze
//!   time at both sizes on the clean link, the repo's perf-trajectory
//!   fact for the lifecycle path.
//!
//! The chaos seed comes from `AMPOM_FAULT_SEED` (default 42), matching
//! the CI fault matrix.

use std::time::{Duration, Instant};

use ampom_core::chaos::scenario;
use ampom_core::lifecycle::{run_lifecycle, LifecycleConfig, LifecycleReport};
use ampom_core::runner::RunConfig;
use ampom_core::{AmpomError, Scheme};
use ampom_mem::page::PageId;
use ampom_obs::{JsonWriter, MetricsRegistry};
use ampom_rpc::{DeputyServer, Endpoint, Frame, MigrantClient, ServerConfig};
use ampom_sim::time::SimDuration;
use ampom_workloads::synthetic::SequentialWrite;

use crate::facts::{self, env_seed, Facts};
use crate::report::{secs, AsciiTable};

/// The shape of the `lifecycle` facts: a `lifecycle-run` header whose
/// `live` flag says whether the one `live` line follows the `cell`
/// lines. No baseline gate.
pub const FACTS: facts::Spec = facts::Spec {
    command: "lifecycle",
    header: "lifecycle-run",
    cell: "cell",
    others: &["live"],
    bench: "lifecycle",
    verify: verify_facts,
    gate: None,
};

/// Pages per megabyte at the 4 KiB page size.
const PAGES_PER_MB: u64 = 256;

/// The working-set panel, in megabytes.
pub const SIZE_PANEL: [u64; 2] = [1, 4];

/// Link conditions every size runs under: `None` is the clean link, the
/// names resolve through [`ampom_core::chaos::scenario`].
pub const STORM_PANEL: [Option<&str>; 3] = [
    None,
    Some("flaky-link-storm"),
    Some("deputy-restart-midstorm"),
];

/// Fraction of the reference stream executed away before the return.
const AWAY_FRACTION: f64 = 0.6;

/// What to run.
#[derive(Debug, Clone)]
pub struct LifecycleOptions {
    /// Working-set sizes in MB.
    pub sizes_mb: Vec<u64>,
    /// Base seed for the writeback chaos channel.
    pub seed: u64,
    /// Drive the live loopback leg (off in unit tests that must not
    /// bind sockets).
    pub live: bool,
}

impl Default for LifecycleOptions {
    fn default() -> Self {
        LifecycleOptions {
            sizes_mb: SIZE_PANEL.to_vec(),
            seed: env_seed(),
            live: true,
        }
    }
}

/// One simulated cell of the panel.
#[derive(Debug)]
pub struct LifecycleCell {
    /// Link-condition name (`clean` for the null condition).
    pub storm: &'static str,
    /// Working-set size in MB.
    pub mb: u64,
    /// The lifecycle measurements.
    pub report: LifecycleReport,
}

/// What the live loopback leg measured.
#[derive(Debug)]
pub struct LiveLeg {
    /// Pages written back over the socket.
    pub pages_written_back: u64,
    /// Duplicate entries the deputy refused (idempotence proof).
    pub duplicates: u64,
    /// Wall time of the writeback phase.
    pub writeback_wall: Duration,
    /// Wall time from `ReturnRequest` to `ReturnAck`.
    pub return_wall: Duration,
    /// Deputy-stub pages left behind.
    pub stub_pages: u64,
    /// Pages free at home after the return.
    pub freed_pages: u64,
}

/// Everything the `lifecycle` command produced.
#[derive(Debug)]
pub struct LifecycleRun {
    /// Simulated cells, size-major in panel order.
    pub cells: Vec<LifecycleCell>,
    /// The live loopback leg, when requested.
    pub live: Option<LiveLeg>,
    /// The JSONL facts, the `ampom_lifecycle_*` dump, and
    /// `BENCH_lifecycle.json` when the clean-link cells at every panel
    /// size all ran.
    pub facts: Facts,
}

/// Writeback throughput of a cell: pages landed per second away.
pub fn writeback_pages_per_sec(cell: &LifecycleCell) -> f64 {
    let s = cell.report.away_time.as_secs_f64();
    if s > 0.0 {
        cell.report.writeback.pages_written_back as f64 / s
    } else {
        0.0
    }
}

fn cell_config(storm: Option<&str>, seed: u64) -> Result<RunConfig, AmpomError> {
    let cfg = RunConfig::new(Scheme::Ampom).with_seed(seed);
    match storm {
        None => Ok(cfg),
        Some(name) => {
            let sc = scenario(name).ok_or_else(|| {
                AmpomError::InvalidConfig(format!("unknown chaos scenario {name:?}"))
            })?;
            let profile = sc.profile().ok_or_else(|| {
                AmpomError::InvalidConfig(format!("scenario {name:?} carries no fault profile"))
            })?;
            Ok(cfg.with_faults(profile.clone()))
        }
    }
}

/// Runs the simulated panel and (optionally) the live loopback leg.
pub fn run_lifecycle_cmd(opts: &LifecycleOptions) -> Result<LifecycleRun, AmpomError> {
    let mut cells = Vec::new();
    for &mb in &opts.sizes_mb {
        for storm in STORM_PANEL {
            let cfg = cell_config(storm, opts.seed)?;
            let mut w = SequentialWrite::new(mb * PAGES_PER_MB, SimDuration::from_micros(15));
            let report = run_lifecycle(&mut w, &cfg, &LifecycleConfig::new(AWAY_FRACTION));
            report.check_conservation();
            cells.push(LifecycleCell {
                storm: storm.unwrap_or("clean"),
                mb,
                report,
            });
        }
    }

    let live = if opts.live {
        Some(run_live_leg().map_err(AmpomError::Transport)?)
    } else {
        None
    };

    let facts = Facts {
        jsonl: render_facts(&cells, live.as_ref(), opts.seed),
        prometheus: render_metrics(&cells),
        bench: render_bench(&cells, opts.seed),
    };
    Ok(LifecycleRun { cells, live, facts })
}

/// The live leg: a migrant on loopback sockets fetches half its pages,
/// writes a quarter of them back (twice — the deputy must refuse the
/// duplicates), then returns home and collects the stub accounting.
fn run_live_leg() -> Result<LiveLeg, String> {
    const TOTAL: u64 = 256;
    const FETCHED: u64 = 128;
    const DIRTIED: u64 = 64;
    const TIMEOUT: Duration = Duration::from_secs(10);

    let server = DeputyServer::bind_tcp("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = MigrantClient::connect(Endpoint::tcp(server.local_addr()), TOTAL, 2)
        .map_err(|e| format!("connect: {e}"))?;

    // Fetch the away working set.
    let mut fetched = 0u64;
    let mut next = 0u64;
    while fetched < FETCHED {
        let batch: Vec<PageId> = (next..(next + 32).min(FETCHED)).map(PageId).collect();
        next = (next + 32).min(FETCHED);
        client
            .send_request(None, &batch)
            .map_err(|e| format!("fetch: {e}"))?;
        let mut got = 0;
        while got < batch.len() {
            match client.recv(TIMEOUT).map_err(|e| format!("recv: {e}"))? {
                Some(Frame::PageReply { .. }) => got += 1,
                Some(Frame::PageBatchReply { pages, .. }) => got += pages.len(),
                Some(other) => return Err(format!("unexpected frame: {other:?}")),
                None => return Err("page fetch timed out".into()),
            }
        }
        fetched += batch.len() as u64;
    }

    // Write back the dirty quarter, then replay it: the second pass must
    // be refused entry-by-entry (exactly-once accounting).
    let entries: Vec<(PageId, u64)> = (0..DIRTIED).map(|p| (PageId(p), 1)).collect();
    let wb_start = Instant::now();
    let mut duplicates = 0u64;
    for (pass, seq) in [(0u32, 1u64), (1, 2)] {
        for (i, chunk) in entries.chunks(32).enumerate() {
            let seq = seq * 100 + i as u64;
            client
                .send_writeback(seq, chunk)
                .map_err(|e| format!("writeback: {e}"))?;
            match client.recv(TIMEOUT).map_err(|e| format!("recv: {e}"))? {
                Some(Frame::WritebackAck {
                    seq: s,
                    applied,
                    duplicates: d,
                }) if s == seq => {
                    if pass == 0 && u64::from(applied) != chunk.len() as u64 {
                        return Err(format!(
                            "first pass applied {applied}, expected {}",
                            chunk.len()
                        ));
                    }
                    duplicates += u64::from(d);
                }
                Some(other) => return Err(format!("unexpected frame: {other:?}")),
                None => return Err("writeback ack timed out".into()),
            }
        }
    }
    let writeback_wall = wb_start.elapsed();

    let ret_start = Instant::now();
    let ((stub_pages, freed_pages), stray) = client
        .send_return(TIMEOUT)
        .map_err(|e| format!("return: {e}"))?;
    let return_wall = ret_start.elapsed();
    if !stray.is_empty() {
        return Err(format!("{} stray frames during return", stray.len()));
    }

    let stats = server.stats();
    let pages_written_back = stats.writeback_pages_applied;
    drop(client);
    server.shutdown();
    Ok(LiveLeg {
        pages_written_back,
        duplicates,
        writeback_wall,
        return_wall,
        stub_pages,
        freed_pages,
    })
}

/// A stable per-cell key for metric names: `flaky_link_storm_4mb`.
fn cell_key(cell: &LifecycleCell) -> String {
    format!("{}_{}mb", cell.storm.replace('-', "_"), cell.mb)
}

fn render_facts(cells: &[LifecycleCell], live: Option<&LiveLeg>, seed: u64) -> String {
    let mut header = facts::header(&FACTS, seed, cells.len());
    header.field_bool("live", live.is_some());
    let mut lines = vec![header.close()];

    for cell in cells {
        let r = &cell.report;
        let mut w = facts::fact(FACTS.cell);
        w.field_str("storm", cell.storm);
        w.field_u64("mb", cell.mb);
        w.field_f64("outbound_freeze_s", r.outbound_freeze.as_secs_f64());
        w.field_f64("away_s", r.away_time.as_secs_f64());
        w.field_f64("return_freeze_s", r.return_freeze.as_secs_f64());
        w.field_f64("home_s", r.home_time.as_secs_f64());
        w.field_f64("total_s", r.total_time.as_secs_f64());
        w.field_u64("pages_dirtied", r.pages_dirtied);
        w.field_u64("pages_written_back", r.writeback.pages_written_back);
        w.field_u64("retransmits", r.writeback.retransmits);
        w.field_u64("sink_restarts", r.sink_restarts);
        w.field_u64("stub_pages", r.stub_pages);
        w.field_u64("pages_freed_at_home", r.pages_freed_at_home);
        w.field_bool("conservation_ok", r.conservation_ok);
        lines.push(w.close());
    }

    if let Some(leg) = live {
        let mut w = facts::fact("live");
        w.field_u64("pages_written_back", leg.pages_written_back);
        w.field_u64("duplicates_refused", leg.duplicates);
        w.field_f64("writeback_wall_s", leg.writeback_wall.as_secs_f64());
        w.field_f64("return_wall_s", leg.return_wall.as_secs_f64());
        w.field_u64("stub_pages", leg.stub_pages);
        w.field_u64("freed_pages", leg.freed_pages);
        lines.push(w.close());
    }
    lines.join("\n") + "\n"
}

fn render_metrics(cells: &[LifecycleCell]) -> String {
    let mut reg = MetricsRegistry::new();
    for cell in cells {
        let key = cell_key(cell);
        let r = &cell.report;
        reg.export_gauge(
            &format!("ampom_lifecycle_{key}_return_freeze_seconds"),
            "freeze time of the home-return migration",
            r.return_freeze.as_secs_f64(),
        );
        reg.export_gauge(
            &format!("ampom_lifecycle_{key}_writeback_pages_per_sec"),
            "dirty pages landed at the home sink per second away",
            writeback_pages_per_sec(cell),
        );
        reg.export_counter(
            &format!("ampom_lifecycle_{key}_pages_freed_at_home_total"),
            "pages resident for free after the return",
            r.pages_freed_at_home,
        );
        reg.export_counter(
            &format!("ampom_lifecycle_{key}_stub_pages_total"),
            "pages the remote deputy stub still holds",
            r.stub_pages,
        );
        reg.export_gauge(
            &format!("ampom_lifecycle_{key}_conservation_ok"),
            "1 iff every dirtied page's final version landed exactly once",
            if r.conservation_ok { 1.0 } else { 0.0 },
        );
    }
    reg.render_prometheus()
}

/// The `BENCH_lifecycle.json` fact: clean-link writeback throughput and
/// return-freeze time at every panel size.
fn render_bench(cells: &[LifecycleCell], seed: u64) -> Option<String> {
    let clean: Vec<&LifecycleCell> = cells.iter().filter(|c| c.storm == "clean").collect();
    if clean.is_empty() || clean.len() < SIZE_PANEL.len() {
        return None;
    }
    let mut w = facts::bench(&FACTS, seed);
    let cell_json = |c: &LifecycleCell| {
        let mut w = JsonWriter::object();
        w.field_u64("mb", c.mb);
        w.field_f64("writeback_pages_per_sec", writeback_pages_per_sec(c));
        w.field_f64("return_freeze_s", c.report.return_freeze.as_secs_f64());
        w.field_u64("pages_freed_at_home", c.report.pages_freed_at_home);
        w.close()
    };
    for c in &clean {
        w.field_raw(&format!("clean_{}mb", c.mb), &cell_json(c));
    }
    Some(w.close() + "\n")
}

/// Self-verification of the JSONL facts: the shared envelope, every
/// `cell` line complete and conserving its dirty pages, and exactly one
/// `live` line when the header's `live` flag says so.
pub fn verify_facts(jsonl: &str) -> Result<(), String> {
    let (mut declared_live, mut live_lines) = (false, 0u64);
    facts::verify(&FACTS, jsonl, |f| {
        match f.kind {
            "lifecycle-run" => declared_live = f.is_true("live"),
            "cell" => {
                f.require(&[
                    "storm",
                    "return_freeze_s",
                    "pages_dirtied",
                    "pages_written_back",
                    "conservation_ok",
                ])?;
                if !f.is_true("conservation_ok") {
                    return Err(f.error("conservation violated"));
                }
            }
            _ => live_lines += 1, // the only other type: `live`
        }
        Ok(())
    })?;
    if declared_live != (live_lines == 1) {
        return Err(format!(
            "header live flag {declared_live} but {live_lines} live line(s)"
        ));
    }
    Ok(())
}

/// The lifecycle table: one row per simulated cell plus the live leg.
pub fn lifecycle_table(run: &LifecycleRun) -> AsciiTable {
    let mut t = AsciiTable::new(
        "page lifecycle: out -> dirty -> writeback -> return, per-phase breakdown",
        &[
            "cell",
            "out freeze",
            "away (s)",
            "return freeze",
            "home (s)",
            "dirtied",
            "written back",
            "wb pages/s",
            "stub",
            "freed",
            "conservation",
        ],
    );
    for cell in &run.cells {
        let r = &cell.report;
        t.row(vec![
            format!("{} {}MB", cell.storm, cell.mb),
            secs(r.outbound_freeze.as_secs_f64()),
            secs(r.away_time.as_secs_f64()),
            secs(r.return_freeze.as_secs_f64()),
            secs(r.home_time.as_secs_f64()),
            r.pages_dirtied.to_string(),
            r.writeback.pages_written_back.to_string(),
            format!("{:.0}", writeback_pages_per_sec(cell)),
            r.stub_pages.to_string(),
            r.pages_freed_at_home.to_string(),
            if r.conservation_ok { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    if let Some(leg) = &run.live {
        t.row(vec![
            "live loopback".into(),
            "-".into(),
            secs(leg.writeback_wall.as_secs_f64()),
            secs(leg.return_wall.as_secs_f64()),
            "-".into(),
            leg.pages_written_back.to_string(),
            leg.pages_written_back.to_string(),
            "-".into(),
            leg.stub_pages.to_string(),
            leg.freed_pages.to_string(),
            if leg.duplicates > 0 { "ok" } else { "VIOLATED" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampom_obs::parse;

    fn small(live: bool) -> LifecycleRun {
        run_lifecycle_cmd(&LifecycleOptions {
            sizes_mb: vec![1, 4],
            seed: 42,
            live,
        })
        .expect("lifecycle run")
    }

    #[test]
    fn facts_round_trip_and_conservation_holds_everywhere() {
        let run = small(false);
        verify_facts(&run.facts.jsonl).expect("self-verification");
        assert_eq!(run.cells.len(), 6);
        // 1 header + 6 cell lines, no live line.
        assert_eq!(run.facts.jsonl.lines().count(), 7);
        for cell in &run.cells {
            assert!(cell.report.conservation_ok, "{}", cell_key(cell));
        }
    }

    #[test]
    fn doctored_facts_are_rejected() {
        let jsonl = small(false).facts.jsonl;
        let live_line = "{\"type\":\"live\",\"schema\":1}\n";
        let cases = [
            (
                "a cell that violates conservation",
                jsonl.replacen("\"conservation_ok\":true", "\"conservation_ok\":false", 1),
                "line 2: conservation violated",
            ),
            (
                "a header that declares live with no live line",
                jsonl.replacen("\"live\":false", "\"live\":true", 1),
                "header live flag true but 0 live line(s)",
            ),
            (
                "a live line the header does not declare",
                format!("{jsonl}{live_line}"),
                "header live flag false but 1 live line(s)",
            ),
            (
                "two live lines",
                format!("{jsonl}{live_line}{live_line}").replacen(
                    "\"live\":false",
                    "\"live\":true",
                    1,
                ),
                "header live flag true but 2 live line(s)",
            ),
            (
                "a cell without its conservation verdict",
                jsonl.replacen(",\"conservation_ok\":true", "", 1),
                "line 2: cell fact lacks conservation_ok",
            ),
        ];
        for (name, doctored, want) in cases {
            assert_ne!(doctored, jsonl, "{name}: the doctoring must hit");
            let err = verify_facts(&doctored).expect_err(name);
            assert!(err.contains(want), "{name}: {err:?} lacks {want:?}");
        }
    }

    #[test]
    fn storms_force_the_recovery_machinery() {
        let run = small(false);
        let retransmits: u64 = run
            .cells
            .iter()
            .filter(|c| c.storm != "clean")
            .map(|c| c.report.writeback.retransmits)
            .sum();
        assert!(retransmits > 0, "storms must force retransmits");
        let restarts: u64 = run
            .cells
            .iter()
            .filter(|c| c.storm == "deputy-restart-midstorm")
            .map(|c| c.report.sink_restarts)
            .sum();
        assert!(restarts > 0, "the restart storm must restart the sink");
    }

    #[test]
    fn bench_fact_covers_every_clean_cell() {
        let run = small(false);
        let bench = run.facts.bench.expect("clean cells present");
        let v = parse(bench.trim()).expect("bench json parses");
        assert_eq!(v.get("bench").and_then(|b| b.as_str()), Some("lifecycle"));
        for mb in SIZE_PANEL {
            let cell = v
                .get(&format!("clean_{mb}mb"))
                .unwrap_or_else(|| panic!("clean_{mb}mb missing"));
            assert!(
                cell.get("writeback_pages_per_sec")
                    .and_then(|p| p.as_f64())
                    .unwrap()
                    > 0.0
            );
        }
    }

    #[test]
    fn metrics_follow_the_naming_convention() {
        let run = small(false);
        assert!(run
            .facts
            .prometheus
            .contains("ampom_lifecycle_clean_1mb_return_freeze_seconds"));
        assert!(run
            .facts
            .prometheus
            .contains("ampom_lifecycle_flaky_link_storm_4mb_writeback_pages_per_sec"));
        for line in run.facts.prometheus.lines() {
            if !line.starts_with('#') && !line.is_empty() {
                assert!(line.starts_with("ampom_"), "bad metric line: {line}");
            }
        }
    }

    #[test]
    fn live_leg_round_trips_over_loopback() {
        let run = small(true);
        let leg = run.live.expect("live leg ran");
        assert_eq!(leg.pages_written_back, 64);
        assert_eq!(leg.duplicates, 64, "the replay pass must be refused");
        // Pages 64..128 were fetched but never written back.
        assert_eq!(leg.stub_pages, 64);
        assert_eq!(leg.freed_pages, 256 - 64);
        assert!(run.facts.jsonl.contains("\"type\":\"live\""));
        verify_facts(&run.facts.jsonl).expect("self-verification");
    }

    #[test]
    fn table_has_one_row_per_cell_plus_the_live_leg() {
        let run = small(false);
        let t = lifecycle_table(&run);
        let rendered = t.render();
        assert!(rendered.contains("clean 1MB"));
        assert!(rendered.contains("deputy-restart-midstorm 4MB"));
        assert!(!rendered.contains("VIOLATED"));
    }
}
