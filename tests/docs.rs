//! The docs describe the repository that exists: every `BENCH_*.json`
//! fact that README.md, DESIGN.md or EXPERIMENTS.md names is committed
//! at the repository root and parses as JSON.

use std::collections::BTreeSet;
use std::path::Path;

use ampom::obs::json;

/// Every `BENCH_<name>.json` token in `text`.
fn bench_files(text: &str) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find("BENCH_") {
        let tail = &rest[at..];
        let name_len = tail["BENCH_".len()..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(tail.len(), |n| n + "BENCH_".len());
        if let Some(after) = tail[name_len..].strip_prefix(".json") {
            if !after.starts_with(|c: char| c.is_ascii_alphanumeric()) {
                found.insert(format!("{}.json", &tail[..name_len]));
            }
        }
        rest = &tail["BENCH_".len()..];
    }
    found
}

#[test]
fn every_bench_fact_the_docs_name_exists_and_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut named = BTreeSet::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
        named.extend(bench_files(&text));
    }
    assert!(
        named.len() >= 4,
        "expected the docs to name the committed facts, found {named:?}"
    );
    for file in &named {
        let text = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("{file} is named in the docs but missing: {e}"));
        if let Err(e) = json::parse(text.trim()) {
            panic!("{file} does not parse: {e}");
        }
    }
}

#[test]
fn bench_file_scan_finds_names_and_skips_prefixes() {
    let found =
        bench_files("see `BENCH_chaos.json`, BENCH_x.jsonl and BENCH_ alone; BENCH_a_b.json.");
    let expected: BTreeSet<String> = ["BENCH_chaos.json", "BENCH_a_b.json"]
        .map(String::from)
        .into();
    assert_eq!(found, expected);
}
