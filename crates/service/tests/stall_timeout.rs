//! Clients that pipeline requests without reading their replies. The I/O
//! loop reads such a client only while it holds fewer than
//! [`REPLY_BUDGET`] replies admitted but not yet written, so the shared
//! workers never wait on it and other clients keep their normal latency.
//! Once its queued reply bytes have not moved for [`WRITE_IDLE_TIMEOUT`]
//! (the stall timeout), it is disconnected; a client that keeps reading,
//! however slowly, never is.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wfspeak_service::protocol::{decode_line, encode_line};
use wfspeak_service::{
    ScoreRequest, ScoreResponse, ScoringClient, ScoringServer, ServiceConfig, TaskKind,
    REPLY_BUDGET, WRITE_IDLE_TIMEOUT,
};

const REFERENCE: &str = "tasks:\n  - func: producer\n";

/// The two tests run one at a time: each measures how long replies take,
/// and the other's burst of scoring would share the CPUs with it.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One `score` request line of `hypotheses` hypotheses; its reply carries
/// about 36 bytes per hypothesis.
fn score_request(hypotheses: usize) -> String {
    encode_line(&ScoreRequest::by_text(
        1,
        REFERENCE,
        vec!["x".to_owned(); hypotheses],
    ))
}

/// Connect, then pipeline 16-hypothesis `score` requests from a thread of
/// its own until the server disconnects, never reading. Once the server
/// stops reading, the writes block in full socket buffers; once it
/// disconnects, they fail.
fn pipeline_without_reading(addr: SocketAddr) -> (TcpStream, JoinHandle<()>) {
    let stream = TcpStream::connect(addr).unwrap();
    let writer = stream.try_clone().unwrap();
    let line = score_request(16);
    let handle = std::thread::spawn(move || while (&writer).write_all(line.as_bytes()).is_ok() {});
    (stream, handle)
}

#[test]
fn slow_reader_is_disconnected_and_the_pool_keeps_serving_others() {
    let _serial = serial();
    let config = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    let admission_timeout = config.admission_timeout;
    let server = ScoringServer::spawn("127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    let started = Instant::now();
    let mut polite = ScoringClient::connect(addr).unwrap();
    // As many non-readers as workers.
    let non_readers: Vec<_> = (0..2).map(|_| pipeline_without_reading(addr)).collect();
    while server.live_connections() < 3 {
        assert!(
            started.elapsed() < WRITE_IDLE_TIMEOUT,
            "clients never registered"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // One polite request every 100 ms until the non-readers are gone: none
    // is shed, and each is answered inside the admission timeout. At worst
    // it waits behind the non-readers' budgets of queued jobs, which small
    // batches keep short even in a debug build.
    let mut slowest = Duration::ZERO;
    loop {
        let asked = Instant::now();
        let response = polite
            .score(TaskKind::Configuration, "Wilkins", vec!["tasks:".into()])
            .unwrap();
        slowest = slowest.max(asked.elapsed());
        assert!(
            response.ok,
            "polite request failed at {:?}: {:?}",
            started.elapsed(),
            response.error
        );
        if server.live_connections() == 1 {
            break;
        }
        // Generous: the non-readers' socket buffers take a few seconds
        // to fill before their write-idle deadlines are armed.
        assert!(
            started.elapsed() < 3 * WRITE_IDLE_TIMEOUT,
            "the non-readers were never disconnected"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    let gone = started.elapsed();
    assert!(
        slowest < admission_timeout,
        "a polite request waited {slowest:?}"
    );
    assert!(
        gone >= WRITE_IDLE_TIMEOUT,
        "the non-readers were disconnected after only {gone:?}"
    );

    // The server closed the non-readers' sockets: whatever it wrote before
    // drains, then each stream ends.
    for (stream, writer) in non_readers {
        writer.join().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        if let Err(error) = (&stream).read_to_end(&mut Vec::new()) {
            assert!(
                !matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "the server left a non-reader's socket open"
            );
        }
    }

    // The polite client is still served.
    let response = polite
        .score(TaskKind::Configuration, "Wilkins", vec!["tasks:".into()])
        .unwrap();
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(server.live_connections(), 1);
    polite.close();
    server.shutdown();
}

#[test]
fn clients_that_read_are_never_disconnected_by_the_stall_timeout() {
    let _serial = serial();
    let server = ScoringServer::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();

    // One thread pipelines far past the budget while this one reads,
    // pausing after each reply so that the whole exchange outlasts
    // WRITE_IDLE_TIMEOUT. The replies (about 9 MB) outgrow the socket
    // buffers, so the server's queued bytes stall often, but they keep
    // moving and the connection stays up.
    let requests = 4 * REPLY_BUDGET;
    let batch = 1024;
    let pause = WRITE_IDLE_TIMEOUT * 6 / 5 / requests as u32;
    let writer = stream.try_clone().unwrap();
    let line = score_request(batch);
    let sender = std::thread::spawn(move || {
        for _ in 0..requests {
            (&writer).write_all(line.as_bytes()).unwrap();
        }
    });
    let started = Instant::now();
    let mut reader = BufReader::new(&stream);
    for _ in 0..requests {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let response: ScoreResponse = decode_line(&reply).unwrap();
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.scores.len(), batch);
        std::thread::sleep(pause);
    }
    assert!(started.elapsed() > WRITE_IDLE_TIMEOUT);
    sender.join().unwrap();
    assert_eq!(server.live_connections(), 1);
    drop(reader);
    drop(stream);
    server.shutdown();
}
