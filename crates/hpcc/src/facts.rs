//! The facts format every measuring command shares, and the one path
//! that verifies, gates and publishes it.
//!
//! `chaos`, `lifecycle`, `deputybench` and `clusterlife` each render
//! three artifacts, carried as one [`Facts`] value:
//!
//! * a JSONL stream: a run header line carrying `type`, `schema`, `seed`
//!   and `cells`, then one line per result, each stamped with `type` and
//!   `schema` (DESIGN.md §11.4). Streams are appended to `--json`, so a
//!   file collects one header-led block per run;
//! * a Prometheus-style dump, written to `--prom` or printed;
//! * a BENCH document that starts with `bench`, `schema` and `seed`,
//!   written to `--bench` or `BENCH_<bench>.json`.
//!
//! A command describes its stream once, in a [`Spec`]. `verify` checks
//! the envelope every stream shares and hands each line to the command's
//! own checks; `check_baseline` is the one regression gate; [`publish`]
//! runs verification, writing and the gate in a fixed order, and writes
//! nothing for a stream that fails verification.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use ampom_obs::{parse, JsonValue, JsonWriter};

/// Version stamped on every fact line and BENCH document; bump on
/// breaking shape changes so downstream collectors can dispatch.
pub(crate) const SCHEMA: u64 = 1;

/// A gated cell must hold this fraction of its committed metric.
pub(crate) const FLOOR: f64 = 0.8;

/// The seed of a facts command: `AMPOM_FAULT_SEED` if set and
/// parseable, else 42 — the seed the chaos scenarios' downtime windows
/// were calibrated against and the CI fault matrix pins.
pub(crate) fn env_seed() -> u64 {
    std::env::var("AMPOM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// What one command's facts look like and how they are checked.
#[derive(Debug)]
pub struct Spec {
    /// The command, as typed after `hpcc-repro`.
    pub command: &'static str,
    /// The `type` of the stream's run header.
    pub header: &'static str,
    /// The `type` of a cell line; the header's `cells` counts these.
    pub cell: &'static str,
    /// Every other fact type the stream may carry.
    pub others: &'static [&'static str],
    /// The BENCH document's `bench` name; its default file is
    /// `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// The command's full verifier: the shared envelope plus its own
    /// checks.
    pub verify: fn(&str) -> Result<(), String>,
    /// The baseline gate, for commands whose BENCH cells have one.
    pub gate: Option<Gate>,
}

/// A regression gate over the `cells` array of a BENCH document.
#[derive(Debug)]
pub struct Gate {
    /// The fields that name a cell; a baseline cell is compared with the
    /// fresh cell whose key fields are all equal.
    pub keys: &'static [&'static str],
    /// The higher-is-better metric each cell must hold to 0.8 of its
    /// baseline.
    pub metric: &'static str,
}

/// The three artifacts of one run.
#[derive(Debug)]
pub struct Facts {
    /// The schema-stamped JSONL stream.
    pub jsonl: String,
    /// The Prometheus-style dump.
    pub prometheus: String,
    /// The BENCH document, when the run covered the cells it needs.
    pub bench: Option<String>,
}

/// Starts the run header: `type`, `schema`, `seed`, then `cells`.
pub(crate) fn header(spec: &Spec, seed: u64, cells: usize) -> JsonWriter {
    let mut w = fact(spec.header);
    w.field_u64("seed", seed);
    w.field_u64("cells", cells as u64);
    w
}

/// Starts a fact line of type `kind`, stamped with the schema.
pub(crate) fn fact(kind: &str) -> JsonWriter {
    let mut w = JsonWriter::object();
    w.field_str("type", kind);
    w.field_u64("schema", SCHEMA);
    w
}

/// Starts a BENCH document: `bench`, `schema`, `seed`.
pub(crate) fn bench(spec: &Spec, seed: u64) -> JsonWriter {
    let mut w = JsonWriter::object();
    w.field_str("bench", spec.bench);
    w.field_u64("schema", SCHEMA);
    w.field_u64("seed", seed);
    w
}

/// One parsed fact line, as a command's own checks see it.
#[derive(Debug)]
pub(crate) struct Fact<'a> {
    /// The line's 1-based number in the stream.
    line: usize,
    /// The line's `type`.
    pub(crate) kind: &'a str,
    value: &'a JsonValue,
}

impl Fact<'_> {
    /// An error that names this line: `line N: {msg}`.
    pub(crate) fn error(&self, msg: impl Display) -> String {
        format!("line {}: {msg}", self.line)
    }

    /// The field `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&JsonValue> {
        self.value.get(key)
    }

    /// The unsigned integer field `key`.
    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| self.lacks(key))
    }

    /// Whether the field `key` is `true`.
    pub(crate) fn is_true(&self, key: &str) -> bool {
        matches!(self.get(key), Some(JsonValue::Bool(true)))
    }

    /// Errs unless every field in `keys` is present.
    pub(crate) fn require(&self, keys: &[&str]) -> Result<(), String> {
        match keys.iter().find(|k| self.get(k).is_none()) {
            Some(key) => Err(self.lacks(key)),
            None => Ok(()),
        }
    }

    fn lacks(&self, key: &str) -> String {
        self.error(format_args!("{} fact lacks {key}", self.kind))
    }
}

/// Checks the envelope every stream shares, then runs `check` on every
/// line, the header included: every line parses and carries the schema
/// stamp and a known `type`, the run header is present, and its `cells`
/// equals the number of cell lines.
pub(crate) fn verify(
    spec: &Spec,
    jsonl: &str,
    mut check: impl FnMut(&Fact<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut declared = None;
    let mut cells = 0u64;
    for (i, text) in jsonl.lines().enumerate() {
        let line = i + 1;
        let value = parse(text).map_err(|e| format!("line {line}: {e}"))?;
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("line {line}: missing \"schema\""))?;
        if schema != SCHEMA {
            return Err(format!("line {line}: schema {schema} != {SCHEMA}"));
        }
        let kind = value
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {line}: missing \"type\""))?;
        let fact = Fact {
            line,
            kind,
            value: &value,
        };
        if kind == spec.header {
            declared = Some(
                fact.get("cells")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| fact.error("header lacks cells"))?,
            );
        } else if kind == spec.cell {
            cells += 1;
        } else if !spec.others.contains(&kind) {
            return Err(fact.error(format_args!("unknown fact type {kind:?}")));
        }
        check(&fact)?;
    }
    match declared {
        None => Err(format!("no {} header line", spec.header)),
        Some(c) if c != cells => Err(format!(
            "header declares {c} cells but the stream has {cells}"
        )),
        Some(_) => Ok(()),
    }
}

impl Gate {
    /// Each cell's key values, rendered as text, and its gated metric.
    fn cells(&self, doc: &str) -> Result<Vec<(Vec<String>, f64)>, String> {
        let doc = parse(doc.trim())?;
        let Some(JsonValue::Arr(cells)) = doc.get("cells") else {
            return Err("bench fact lacks a cells array".into());
        };
        cells
            .iter()
            .map(|c| {
                let key = self
                    .keys
                    .iter()
                    .map(|k| match c.get(k) {
                        Some(JsonValue::Str(s)) => Ok(s.clone()),
                        Some(JsonValue::Num(n)) => Ok(n.to_string()),
                        _ => Err(format!("cell lacks {k}")),
                    })
                    .collect::<Result<_, _>>()?;
                let metric = c
                    .get(self.metric)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("cell lacks {}", self.metric))?;
                Ok((key, metric))
            })
            .collect()
    }
}

/// The regression gate: every baseline cell that the fresh run also
/// measured must hold at least [`FLOOR`] of its committed metric, and at
/// least one cell must overlap. Returns a summary on success.
pub(crate) fn check_baseline(gate: &Gate, current: &str, baseline: &str) -> Result<String, String> {
    let cur = gate
        .cells(current)
        .map_err(|e| format!("current fact: {e}"))?;
    let base = gate
        .cells(baseline)
        .map_err(|e| format!("baseline fact: {e}"))?;
    let mut compared = 0usize;
    for (key, was) in &base {
        let Some((_, now)) = cur.iter().find(|(k, _)| k == key) else {
            continue;
        };
        compared += 1;
        let floor = was * FLOOR;
        if *now < floor {
            return Err(format!(
                "{} {} regressed: {} {now:.1} vs baseline {was:.1} (floor {floor:.1})",
                gate.keys.join("/"),
                key.join("/"),
                gate.metric,
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "no ({}) cell overlaps the baseline",
            gate.keys.join(", ")
        ));
    }
    Ok(format!(
        "{compared} cell(s) within {:.0} % of baseline",
        (1.0 - FLOOR) * 100.0
    ))
}

/// Where [`publish`] puts the artifacts: the `--json`, `--prom`,
/// `--bench` and `--baseline` paths.
#[derive(Debug, Default)]
pub struct Outputs {
    /// JSONL stream, appended to.
    pub json: Option<PathBuf>,
    /// Prometheus dump; printed when absent.
    pub prom: Option<PathBuf>,
    /// BENCH document; `BENCH_<bench>.json` when absent.
    pub bench: Option<PathBuf>,
    /// Committed BENCH document to gate against.
    pub baseline: Option<PathBuf>,
}

/// Why [`publish`] stopped: what to print on stderr, and the exit code
/// (2 for a usage error, 1 for a failed check or write).
#[derive(Debug)]
pub struct Failure {
    /// The process exit code.
    pub code: i32,
    /// The message for stderr.
    pub message: String,
}

fn failed(message: String) -> Failure {
    Failure { code: 1, message }
}

/// Writes `contents` to `path`, truncating it.
pub fn write_artifact(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Appends `contents` to `path`: a JSONL stream is append-only across
/// runs, each run contributing its own header-led block.
fn append_artifact(path: &Path, contents: &str) -> Result<(), String> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("could not open {}: {e}", path.display()))?;
    f.write_all(contents.as_bytes())
        .map_err(|e| format!("could not append to {}: {e}", path.display()))
}

/// Writes a Prometheus dump to `path`, or prints it when there is none.
pub fn write_prom(path: Option<&Path>, dump: &str) -> Result<(), String> {
    match path {
        Some(path) => {
            write_artifact(path, dump)?;
            println!("wrote metrics dump to {}", path.display());
        }
        None => println!("{dump}"),
    }
    Ok(())
}

/// Publishes one run's facts, in this order: verify the stream, append
/// it to `--json`, write `--prom` (or print the dump), run the baseline
/// gate, write the BENCH document. Nothing is written for a stream that
/// fails verification, and `--baseline` is refused for a command without
/// a gate.
pub fn publish(spec: &Spec, facts: &Facts, out: &Outputs) -> Result<(), Failure> {
    if spec.gate.is_none() && out.baseline.is_some() {
        return Err(Failure {
            code: 2,
            message: format!("--baseline: {} has no baseline gate", spec.command),
        });
    }
    (spec.verify)(&facts.jsonl).map_err(|e| {
        failed(format!(
            "{} facts self-verification FAILED: {e}",
            spec.command
        ))
    })?;
    let lines = facts.jsonl.lines().count();
    println!("facts self-verification OK: {lines} JSONL lines, schema v{SCHEMA}");

    if let Some(path) = &out.json {
        append_artifact(path, &facts.jsonl).map_err(failed)?;
        println!("appended {lines} JSONL fact lines to {}", path.display());
    }
    write_prom(out.prom.as_deref(), &facts.prometheus).map_err(failed)?;
    if let (Some(gate), Some(path)) = (&spec.gate, &out.baseline) {
        let committed = std::fs::read_to_string(path)
            .map_err(|e| failed(format!("could not read baseline {}: {e}", path.display())))?;
        let current = facts.bench.as_deref().unwrap_or_default();
        let summary = check_baseline(gate, current, &committed)
            .map_err(|e| failed(format!("baseline check FAILED: {e}")))?;
        println!("baseline check OK: {summary}");
    }
    if let Some(bench) = &facts.bench {
        let path = out
            .bench
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", spec.bench)));
        write_artifact(&path, bench).map_err(failed)?;
        println!("wrote {} bench fact to {}", spec.bench, path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream shape of its own, gated by deputybench's real gate.
    const GATED: Spec = Spec {
        command: "test",
        header: "test-run",
        cell: "test-cell",
        others: &["note"],
        bench: "test",
        verify: envelope_only,
        gate: crate::deputybench::FACTS.gate,
    };

    fn envelope_only(jsonl: &str) -> Result<(), String> {
        verify(&GATED, jsonl, |_| Ok(()))
    }

    /// A stream of two cells and a note, written by the module's own
    /// envelope writers.
    fn stream() -> String {
        let mut lines = vec![header(&GATED, 7, 2).close()];
        for sessions in [8, 64] {
            let mut w = fact(GATED.cell);
            w.field_u64("sessions", sessions);
            lines.push(w.close());
        }
        lines.push(fact("note").close());
        lines.join("\n") + "\n"
    }

    fn bench_doc(cells: &[(&str, u64, f64)]) -> String {
        let cells: Vec<String> = cells
            .iter()
            .map(|&(mode, sessions, pps)| {
                let mut w = JsonWriter::object();
                w.field_str("mode", mode);
                w.field_u64("sessions", sessions);
                w.field_f64("pages_per_sec", pps);
                w.close()
            })
            .collect();
        let mut w = bench(&GATED, 7);
        w.field_raw("cells", &format!("[{}]", cells.join(",")));
        w.close() + "\n"
    }

    #[test]
    fn envelope_writers_and_verifier_agree() {
        let s = stream();
        assert!(s.starts_with(r#"{"type":"test-run","schema":1,"seed":7,"cells":2}"#));
        assert!(bench_doc(&[]).starts_with(r#"{"bench":"test","schema":1,"seed":7,"#));
        envelope_only(&s).expect("a written stream verifies");

        let header = s.lines().next().unwrap();
        let cases: [(&str, String, &str); 7] = [
            (
                "wrong schema stamp",
                s.replacen("cell\",\"schema\":1", "cell\",\"schema\":2", 1),
                "line 2: schema 2 != 1",
            ),
            (
                "missing schema stamp",
                s.replace("\"schema\":1,\"sessions\":64", "\"sessions\":64"),
                "line 3: missing \"schema\"",
            ),
            (
                "unknown type",
                s.replace("\"note\"", "\"noise\""),
                "line 4: unknown fact type \"noise\"",
            ),
            (
                "missing header",
                s.replacen(&format!("{header}\n"), "", 1),
                "no test-run header line",
            ),
            (
                "wrong cell count",
                s.replace("\"cells\":2", "\"cells\":3"),
                "header declares 3 cells but the stream has 2",
            ),
            (
                "header without a cell count",
                s.replace(",\"cells\":2", ""),
                "line 1: header lacks cells",
            ),
            ("truncated stream", s[..s.len() - 10].to_string(), "line 4:"),
        ];
        for (name, doctored, want) in cases {
            let err = envelope_only(&doctored).expect_err(name);
            assert!(err.contains(want), "{name}: {err:?} lacks {want:?}");
        }
        // A stream cut at a line boundary loses cells, not syntax.
        let cut: String = s.lines().take(2).map(|l| format!("{l}\n")).collect();
        let err = envelope_only(&cut).unwrap_err();
        assert!(
            err.contains("declares 2 cells but the stream has 1"),
            "{err}"
        );
    }

    #[test]
    fn the_gate_holds_each_shared_cell_to_the_floor() {
        let gate = GATED.gate.as_ref().unwrap();
        let run = bench_doc(&[("reactor", 8, 1000.0), ("sleep-poll", 8, 500.0)]);
        let cases: [(&str, String, Result<&str, &str>); 6] = [
            (
                "a run against itself",
                run.clone(),
                Ok("2 cell(s) within 20 % of baseline"),
            ),
            (
                "a 10x baseline",
                bench_doc(&[("reactor", 8, 10_000.0)]),
                Err("mode/sessions reactor/8 regressed: pages_per_sec 1000.0 vs baseline 10000.0"),
            ),
            (
                "a baseline inside the floor",
                bench_doc(&[("reactor", 8, 1200.0), ("sleep-poll", 8, 600.0)]),
                Ok("2 cell(s)"),
            ),
            (
                "panels with no cell in common",
                bench_doc(&[("reactor", 9, 1000.0)]),
                Err("no (mode, sessions) cell overlaps the baseline"),
            ),
            (
                "a baseline cell without its key",
                run.replacen("\"sessions\":8,", "", 1),
                Err("baseline fact: cell lacks sessions"),
            ),
            (
                "a baseline cell without its metric",
                run.replacen("\"pages_per_sec\":1000", "\"pps\":1000", 1),
                Err("baseline fact: cell lacks pages_per_sec"),
            ),
        ];
        for (name, baseline, want) in cases {
            match (check_baseline(gate, &run, &baseline), want) {
                (Ok(got), Ok(want)) => assert!(got.contains(want), "{name}: {got:?}"),
                (Err(got), Err(want)) => assert!(got.contains(want), "{name}: {got:?}"),
                (got, _) => panic!("{name}: unexpected {got:?}"),
            }
        }
        let err = check_baseline(gate, "{}", &run).unwrap_err();
        assert!(err.contains("current fact: bench fact lacks a cells array"));
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ampom-facts-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn outputs(dir: &Path, baseline: Option<PathBuf>) -> Outputs {
        Outputs {
            json: Some(dir.join("facts.jsonl")),
            prom: Some(dir.join("facts.prom")),
            bench: Some(dir.join("bench.json")),
            baseline,
        }
    }

    fn facts_of(jsonl: String) -> Facts {
        Facts {
            jsonl,
            prometheus: "ampom_test 1\n".into(),
            bench: Some(bench_doc(&[("reactor", 8, 1000.0)])),
        }
    }

    #[test]
    fn publish_writes_nothing_it_has_not_verified() {
        let dir = fresh_dir("refused");
        let doctored = stream().replace("\"cells\":2", "\"cells\":5");
        let err = publish(&GATED, &facts_of(doctored), &outputs(&dir, None)).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err
            .message
            .starts_with("test facts self-verification FAILED"));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a file was written"
        );

        // A command without a gate refuses --baseline before anything.
        let ungated = Spec {
            gate: None,
            ..GATED
        };
        let baseline = Some(dir.join("missing.json"));
        let err = publish(&ungated, &facts_of(stream()), &outputs(&dir, baseline)).unwrap_err();
        assert_eq!(
            (err.code, err.message.as_str()),
            (2, "--baseline: test has no baseline gate")
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a file was written"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_appends_writes_and_gates() {
        let dir = fresh_dir("published");
        let facts = facts_of(stream());
        let committed = dir.join("committed.json");
        write_artifact(&committed, facts.bench.as_deref().unwrap()).unwrap();
        let out = outputs(&dir, Some(committed.clone()));
        publish(&GATED, &facts, &out).expect("first run");
        publish(&GATED, &facts, &out).expect("second run");
        let read = |p: &Option<PathBuf>| std::fs::read_to_string(p.as_ref().unwrap()).unwrap();
        assert_eq!(
            read(&out.json),
            facts.jsonl.repeat(2),
            "the stream is appended"
        );
        assert_eq!(read(&out.prom), facts.prometheus);
        assert_eq!(Some(read(&out.bench)), facts.bench);

        // A regressed run fails the gate and leaves the BENCH file alone.
        write_artifact(&committed, &bench_doc(&[("reactor", 8, 9000.0)])).unwrap();
        std::fs::remove_file(out.bench.as_ref().unwrap()).unwrap();
        let err = publish(&GATED, &facts, &out).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(
            err.message.contains("baseline check FAILED"),
            "{}",
            err.message
        );
        assert!(!out.bench.as_ref().unwrap().exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
