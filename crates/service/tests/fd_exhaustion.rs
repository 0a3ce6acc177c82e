//! Out of file descriptors, `accept` fails while the listening socket stays
//! readable. The server must then stop polling the listener instead of
//! spinning on it, and accept again once descriptors free up. A client it
//! does accept at the limit costs it one descriptor and is served.
//!
//! The tests lower their own process's `RLIMIT_NOFILE`, so they live in a
//! test binary of their own and take turns, with no other test running
//! beside them.

// The `struct rlimit` and `struct rusage` layouts below are 64-bit Linux's.
#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use wfspeak_service::protocol::{decode_line, encode_line};
use wfspeak_service::{ScoreRequest, ScoreResponse, ScoringServer, ServiceConfig};

const RLIMIT_NOFILE: i32 = 7;
const RUSAGE_SELF: i32 = 0;

#[repr(C)]
struct RLimit {
    current: u64,
    max: u64,
}

#[repr(C)]
struct TimeVal {
    seconds: i64,
    micros: i64,
}

#[repr(C)]
struct RUsage {
    user: TimeVal,
    system: TimeVal,
    rest: [i64; 14],
}

extern "C" {
    fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Each test holds this while it runs: the descriptor limit is per process.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fd_limit() -> RLimit {
    let mut limit = RLimit { current: 0, max: 0 };
    // SAFETY: `limit` is a live, writable `struct rlimit` (two `rlim_t`s,
    // 64-bit on Linux) for the call's duration.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    limit
}

fn set_fd_limit(current: u64, max: u64) {
    let limit = RLimit { current, max };
    // SAFETY: `limit` is a live `struct rlimit` the call only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
}

/// CPU time this process has used, user and system.
fn cpu_time() -> Duration {
    let mut usage = RUsage {
        user: TimeVal {
            seconds: 0,
            micros: 0,
        },
        system: TimeVal {
            seconds: 0,
            micros: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` has the layout of Linux's 64-bit `struct rusage` (two
    // `timeval`s and 14 `long`s) and is writable for the call's duration.
    assert_eq!(unsafe { getrusage(RUSAGE_SELF, &mut usage) }, 0);
    let micros = |t: &TimeVal| t.seconds as u64 * 1_000_000 + t.micros as u64;
    Duration::from_micros(micros(&usage.user) + micros(&usage.system))
}

/// The lowest descriptor number not open in this process: the next one the
/// kernel hands out.
fn lowest_free_fd() -> u64 {
    let probe = std::fs::File::open("/dev/null").unwrap();
    probe.as_raw_fd() as u64
}

fn send_stats(mut stream: &TcpStream, id: u64) {
    let request = encode_line(&ScoreRequest::stats(id));
    stream.write_all(request.as_bytes()).unwrap();
}

fn read_reply(stream: &TcpStream) -> ScoreResponse {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    decode_line(&line).unwrap()
}

#[test]
fn a_server_out_of_descriptors_idles_and_accepts_again_once_they_free_up() {
    let _serial = serial();
    let server = ScoringServer::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let idle: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_connections() < idle.len() {
        assert!(Instant::now() < deadline, "idle clients never registered");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Leave room for exactly one more descriptor: the client below takes
    // it, so the server's `accept` of that client fails with EMFILE.
    let saved = fd_limit();
    set_fd_limit(lowest_free_fd() + 1, saved.max);
    let waiting = TcpStream::connect(addr).unwrap();
    waiting
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_stats(&waiting, 1);

    // While `accept` keeps failing, the process stays near idle.
    std::thread::sleep(Duration::from_millis(100));
    let (cpu_before, wall_before) = (cpu_time(), Instant::now());
    std::thread::sleep(Duration::from_secs(1));
    let (cpu, wall) = (cpu_time() - cpu_before, wall_before.elapsed());
    assert!(
        cpu < wall / 4,
        "the server spun while out of descriptors: {cpu:?} of CPU in {wall:?}"
    );
    assert_eq!(server.live_connections(), idle.len());

    // Once the idle clients close, the waiting client is accepted and
    // answered, and so is a new one.
    drop(idle);
    let reply = read_reply(&waiting);
    assert!(reply.ok && reply.stats.is_some(), "{reply:?}");
    let fresh = TcpStream::connect(addr).unwrap();
    fresh
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_stats(&fresh, 2);
    let reply = read_reply(&fresh);
    assert!(reply.ok && reply.stats.is_some(), "{reply:?}");

    set_fd_limit(saved.current, saved.max);
    drop((waiting, fresh));
    server.shutdown();
}

#[test]
fn the_client_accepted_at_the_descriptor_limit_is_served() {
    let _serial = serial();
    let server = ScoringServer::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Leave room for exactly two more descriptors: the client's socket and
    // the one the server's `accept` returns for it.
    let saved = fd_limit();
    set_fd_limit(lowest_free_fd() + 2, saved.max);
    let client = TcpStream::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    send_stats(&client, 1);
    let mut line = String::new();
    let read = BufReader::new(&client).read_line(&mut line);
    set_fd_limit(saved.current, saved.max);

    read.unwrap();
    let reply: ScoreResponse = decode_line(&line).unwrap();
    assert!(reply.ok && reply.stats.is_some(), "{reply:?}");
    drop(client);
    server.shutdown();
}
