//! # ampom-hpcc — the experiment harness
//!
//! Regenerates every table and figure of the AMPoM paper's evaluation
//! (§5) from the simulated system:
//!
//! | id | content | function |
//! |----|---------|----------|
//! | Table 1 | HPCC problem/memory sizes | [`experiments::table1`] |
//! | Fig. 2 | migration timelines | [`experiments::fig2`] |
//! | Fig. 4 | kernel locality quadrant | [`experiments::fig4`] |
//! | Fig. 5 | migration freeze times | [`experiments::fig5`] |
//! | Fig. 6 | total execution times | [`experiments::fig6`] |
//! | Fig. 7 | page-fault requests | [`experiments::fig7`] |
//! | Fig. 8 | prefetch aggressiveness | [`experiments::fig8`] |
//! | Fig. 9 | network adaptation | [`experiments::fig9`] |
//! | Fig. 10 | small working sets | [`experiments::fig10`] |
//! | Fig. 11 | analysis overhead | [`experiments::fig11`] |
//!
//! The [`live`] module drives the same experiments over real sockets
//! (`hpcc-repro live --loopback` / `hpcc-repro calibrate`), reporting
//! simulated-vs-live divergence on the measured link.
//!
//! Beyond the paper, [`extensions`] quantifies the §7 future-work items
//! (VM migration, cluster-scale balancing), the algorithm's stride-window
//! limits (PTRANS), the §5.6 interactive scenario, prefetch accuracy, and
//! parameter-sensitivity sweeps.
//!
//! The [`profile`] module backs `hpcc-repro profile`: one kernel/scheme
//! pair under full observability — phase attribution, hottest pages,
//! self-verified JSONL and a Prometheus-style metrics dump.
//!
//! The [`multisweep`] module backs `hpcc-repro multisweep`: N
//! concurrent migrants sharing one deputy — per-migrant slowdown,
//! service-share fairness and deputy saturation, in simulation and over
//! live loopback sockets.
//!
//! The [`chaos_cmd`] module backs `hpcc-repro chaos`: the named chaos
//! scenarios of `ampom_core::chaos` over a migrant panel — per-migrant
//! SLO verdicts, admission-control shed counters, schema-versioned JSONL
//! run facts and a `BENCH_chaos.json` perf fact.
//!
//! The [`lifecycle_cmd`] module backs `hpcc-repro lifecycle`: the full
//! bidirectional page lifecycle (out → dirty → writeback → return) over
//! a size × link-condition panel plus a live loopback leg — per-phase
//! breakdowns, conservation verdicts, JSONL facts and a
//! `BENCH_lifecycle.json` perf fact.
//!
//! The [`deputybench`] module backs `hpcc-repro deputybench`: a C10K
//! session sweep against one loopback deputy in both wait modes
//! (readiness-driven reactor vs the sleep-poll scan it replaced) —
//! pages/s, completion-latency tails, idle-CPU cost, an exactly-once
//! page audit, JSONL facts and the committed `BENCH_deputy.json` fact
//! with a `--baseline` regression gate.
//!
//! The [`clusterlife`] module backs `hpcc-repro clusterlife`: the
//! cluster-life engine (Poisson arrivals over the Table 1 kernel mix,
//! windowed gossip at 300–1000 nodes, remigration and home-return
//! chains) run at several thread counts per cell with a fingerprint
//! determinism gate — JSONL facts and the committed `BENCH_cluster.json`
//! fact with a `--baseline` regression gate.
//!
//! The [`facts`] module holds what those four commands share, once: the
//! facts format (a JSONL stream under a run header, and a BENCH
//! document), the envelope verifier each command's `verify_facts`
//! builds on, the one `--baseline` gate, and the publish step that
//! verifies, writes and gates each run's artifacts (DESIGN.md §11.4).
//!
//! The `hpcc-repro` binary drives these; see `hpcc-repro --help`.

pub mod bakeoff;
pub mod chaos_cmd;
pub mod checks;
pub mod clusterlife;
pub mod deputybench;
pub mod experiments;
pub mod extensions;
pub mod facts;
pub mod lifecycle_cmd;
pub mod live;
pub mod matrix;
pub mod multisweep;
pub mod profile;
pub mod report;
