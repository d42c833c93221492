//! Descriptor exhaustion at the deputy's listener: an `accept` that fails
//! (EMFILE) must be counted, must not spin the shard, and the deputy must
//! pick the waiting connections up once descriptors free.
//!
//! This binary holds only this scenario because it lowers the process's
//! own descriptor limit. The connecting side is a child process (this
//! binary re-run on its ignored `hold_connections` test), so the held
//! connections cost the deputy's process nothing.

#![cfg(target_os = "linux")]

use std::fs::File;
use std::io::{BufRead, BufReader, IsTerminal, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ampom_rpc::{DeputyServer, ServerConfig};

/// Connections the child holds while the deputy is out of descriptors.
const HELD: u64 = 8;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    _rest: [i64; 14],
}

const RLIMIT_NOFILE: i32 = 7;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn nofile_limit() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live, writable `struct rlimit` (two `rlim_t`,
    // 64-bit on Linux) for the duration of the call.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_nofile_limit(cur: u64, max: u64) {
    let lim = RLimit { cur, max };
    // SAFETY: `lim` is a live `struct rlimit` the call only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0, "setrlimit");
}

/// User + system CPU this process has consumed.
fn process_cpu() -> Duration {
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        _rest: [0; 14],
    };
    // SAFETY: `ru` matches the 64-bit Linux `struct rusage` (two
    // `timeval`s then fourteen `long`s) and is writable for the call.
    assert_eq!(unsafe { getrusage(RUSAGE_SELF, &mut ru) }, 0);
    let us = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    Duration::from_micros(us(ru.utime) + us(ru.stime))
}

/// The highest descriptor number open right now.
fn highest_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .expect("at least stdio is open")
}

/// Child half: connects `HELD` times to the address on stdin, reports
/// "held", and keeps the connections until stdin closes. Run by hand
/// (a terminal or empty stdin) it does nothing.
#[test]
#[ignore = "child process of accept_errors_are_counted_not_spun_on"]
fn hold_connections() {
    if std::io::stdin().is_terminal() {
        return;
    }
    let mut stdin = BufReader::new(std::io::stdin());
    let mut addr = String::new();
    if stdin.read_line(&mut addr).unwrap_or(0) == 0 {
        return;
    }
    let held: Vec<TcpStream> = (0..HELD)
        .map(|_| TcpStream::connect(addr.trim()).expect("connect"))
        .collect();
    println!("held");
    std::io::stdout().flush().expect("flush");
    let _ = stdin.read_to_end(&mut Vec::new());
    drop(held);
}

#[test]
fn accept_errors_are_counted_not_spun_on() {
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut child = Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "hold_connections", "--ignored", "--nocapture"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the connecting child");
    let mut to_child = child.stdin.take().expect("child stdin");
    let mut from_child = BufReader::new(child.stdout.take().expect("child stdout"));

    // Exhaust the descriptor table: cap it just above the highest open
    // descriptor, then fill every hole below the cap.
    let saved = nofile_limit();
    set_nofile_limit(highest_open_fd() + 1, saved.max);
    let mut filler = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        filler.push(f);
    }

    writeln!(to_child, "{}", server.local_addr()).expect("send address");
    let mut line = String::new();
    while line.trim() != "held" {
        line.clear();
        assert!(
            from_child.read_line(&mut line).expect("child output") > 0,
            "child exited before holding its connections"
        );
    }

    // Once the shard has hit the full table, measure what waiting costs.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().accept_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let (wall_from, cpu_from) = (Instant::now(), process_cpu());
    std::thread::sleep(Duration::from_millis(1500));
    let (wall, cpu) = (wall_from.elapsed(), process_cpu() - cpu_from);
    let stats = server.stats();

    // Free descriptors: the deputy must now take the waiting connections.
    drop(filler);
    set_nofile_limit(saved.cur, saved.max);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().connections < HELD && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let recovered = server.stats().connections;
    drop(to_child);
    child.wait().expect("child exits once stdin closes");
    server.shutdown();

    assert!(stats.accept_errors > 0, "failed accepts went uncounted");
    assert_eq!(stats.connections, 0, "nothing can be accepted while full");
    assert!(
        cpu < wall / 4,
        "the deputy spun while accept failed: {cpu:?} CPU in {wall:?}"
    );
    assert_eq!(recovered, HELD, "waiting connections were never accepted");
}
