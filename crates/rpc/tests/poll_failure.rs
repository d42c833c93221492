//! A failed readiness wait at the deputy: `poll(2)` refuses more
//! descriptors than `RLIMIT_NOFILE` allows (EINVAL), and the shard must
//! count the failure and keep serving its sessions by the sleep-poll
//! scan instead of spinning or stalling.
//!
//! This binary holds only this scenario because it lowers the process's
//! own descriptor limit below the descriptors it already has open.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use ampom_rpc::{DeputyServer, Endpoint, MigrantClient, ServerConfig};

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
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

/// Sessions the shard polls: with the listener, more descriptors than
/// the lowered limit.
const SESSIONS: usize = 4;

#[test]
fn failed_readiness_waits_are_counted_and_sessions_still_served() {
    let server = DeputyServer::bind_tcp(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let endpoint = Endpoint::tcp(server.local_addr());
    let mut clients: Vec<MigrantClient> = (0..SESSIONS)
        .map(|_| MigrantClient::connect(endpoint.clone(), 64, 2).expect("connect"))
        .collect();
    assert_eq!(server.stats().poll_errors, 0);

    // One listener plus SESSIONS sockets in every wait, against a limit
    // of 2: each poll(2) now fails with EINVAL. Nothing below opens a
    // descriptor until the limit is restored.
    let saved = nofile_limit();
    set_nofile_limit(2, saved.max);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().poll_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let failed = server.stats().poll_errors;
    let served: Vec<bool> = clients
        .iter_mut()
        .map(|c| c.ping(Duration::from_secs(5)).is_ok())
        .collect();
    set_nofile_limit(saved.cur, saved.max);

    let recovered = clients
        .iter_mut()
        .all(|c| c.ping(Duration::from_secs(5)).is_ok());
    drop(clients);
    server.shutdown();

    assert!(failed > 0, "failed readiness waits went uncounted");
    assert!(
        served.iter().all(|&ok| ok),
        "sessions went unserved while poll failed: {served:?}"
    );
    assert!(
        recovered,
        "sessions went unserved after the limit came back"
    );
}
