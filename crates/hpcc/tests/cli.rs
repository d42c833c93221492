//! `hpcc-repro` holds every invocation to its command/flag table before
//! anything runs, and fails when it cannot write what `--csv` asked for.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ampom-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary in `dir` with `args`.
fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpcc-repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("hpcc-repro starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_flag_the_command_does_not_take_exits_2_before_anything_runs() {
    let cases: [(&str, &[&str], &str); 4] = [
        (
            "table1",
            &[
                "table1",
                "--baseline",
                "/nonexistent",
                "--json",
                "x.jsonl",
                "--bench",
                "b.json",
            ],
            "--baseline: table1",
        ),
        (
            "ext-gossip",
            &["ext-gossip", "--quick", "--baseline", "/nonexistent"],
            "--baseline: ext-gossip",
        ),
        (
            "chaos",
            &["chaos", "--baseline", "/nonexistent"],
            "--baseline: chaos",
        ),
        (
            "lifecycle",
            &["lifecycle", "--baseline", "/nonexistent"],
            "--baseline: lifecycle",
        ),
    ];
    for (name, args, names) in cases {
        let dir = fresh_dir(name);
        let out = run(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{name}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(names),
            "{name}: the message must name the flag and the command: {}",
            stderr(&out)
        );
        // Nothing ran: no table on stdout, no file written.
        assert!(out.stdout.is_empty(), "{name} printed a table");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{name} wrote {written:?}");
    }
}

#[test]
fn an_unknown_command_exits_2() {
    let dir = fresh_dir("unknown");
    let out = run(&dir, &["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command 'fig99'"));
}

#[test]
fn table1_writes_its_csv() {
    let dir = fresh_dir("table1-csv");
    let csv = dir.join("out");
    let out = run(&dir, &["table1", "--csv", csv.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = std::fs::read_to_string(csv.join("table1.csv")).expect("table1.csv written");
    assert!(text.lines().count() > 1, "{text}");
}

#[test]
fn a_csv_that_cannot_be_written_exits_1() {
    let dir = fresh_dir("table1-unwritable");
    let file = dir.join("plain-file");
    std::fs::write(&file, "not a directory").unwrap();
    let below_a_file = file.join("sub");
    let out = run(&dir, &["table1", "--csv", below_a_file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("could not write table1.csv"),
        "{}",
        stderr(&out)
    );
}

/// A reader that goes away ends the run quietly: no panic, no backtrace,
/// as `hpcc-repro all --quick | head -2` should.
#[cfg(unix)]
#[test]
fn a_closed_stdout_ends_the_run_without_a_panic() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::process::ExitStatusExt;
    use std::process::Stdio;

    let dir = fresh_dir("sigpipe");
    let spawn = || {
        Command::new(env!("CARGO_BIN_EXE_hpcc-repro"))
            .args(["all", "--quick"])
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("hpcc-repro starts")
    };

    // Closed after the first line, the way `head` closes it.
    let mut child = spawn();
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("a first line");
    assert!(!first.is_empty(), "no output at all");
    let out = child.wait_with_output().expect("hpcc-repro ends");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert_ne!(out.status.code(), Some(101), "{}", stderr(&out));

    // Closed before the first line: every write finds no reader, so the
    // run must end by SIGPIPE, whatever the timing.
    let mut child = spawn();
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("hpcc-repro ends");
    assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    assert_eq!(out.status.signal(), Some(13), "{:?}", out.status);
}
