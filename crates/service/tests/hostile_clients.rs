//! Clients that send what a well-behaved client never would: one request
//! whose only string is very long, a line that never ends, and a request
//! with more hypotheses than the server takes. Each is answered in bounded
//! time and memory, and every connection, the offender's included, keeps
//! being served. Many clients at once are multiplexed by the one I/O loop.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wfspeak_service::protocol::{decode_line, encode_line};
use wfspeak_service::{
    ResilientClient, RetryPolicy, ScoreRequest, ScoreResponse, ScoringClient, ScoringServer,
    ServiceConfig, TaskKind, MAX_FRAME_BYTES, MAX_SCORE_HYPOTHESES,
};

fn read_response(reader: &mut BufReader<TcpStream>) -> ScoreResponse {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    decode_line(&line).unwrap()
}

#[test]
fn a_long_string_does_not_stall_other_connections() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut victim = ScoringClient::connect(server.addr()).unwrap();
    victim.stats().unwrap();

    // One 512 KB hypothesis for a system the server does not know: the
    // request fails at once, so decoding its line is all the work it costs.
    let hypothesis: String = "tasks:\n  - func: \"producer\"\n"
        .chars()
        .cycle()
        .take(512 << 10)
        .collect();
    let request = ScoreRequest::by_id(1, TaskKind::Configuration, "NoSuchSystem", vec![hypothesis]);
    let attacker = TcpStream::connect(server.addr()).unwrap();
    let mut attacker_reader = BufReader::new(attacker.try_clone().unwrap());
    (&attacker)
        .write_all(encode_line(&request).as_bytes())
        .unwrap();
    // Let the I/O thread reach the attacker's newline before the victim
    // asks; the decode runs on that thread.
    std::thread::sleep(Duration::from_millis(50));

    let asked = Instant::now();
    let stats = victim.stats().unwrap();
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "a stats request waited {waited:?} behind a 512 KB string"
    );
    assert_eq!(stats.requests, 0);

    let failed = read_response(&mut attacker_reader);
    assert_eq!(failed.id, 1);
    assert!(!failed.ok);
    assert!(failed.error.unwrap().contains("NoSuchSystem"));

    victim.close();
    attacker.shutdown(Shutdown::Both).unwrap();
    server.shutdown();
}

#[test]
fn a_line_past_the_frame_limit_is_answered_and_skipped() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // 5 MiB with no newline, then the newline that ends it and a valid
    // request on the same connection.
    let line = vec![b'x'; 5 << 20];
    assert!(line.len() > MAX_FRAME_BYTES);
    (&stream).write_all(&line).unwrap();
    (&stream).write_all(b"\n").unwrap();
    let request = ScoreRequest::by_id(7, TaskKind::Annotation, "Parsl", vec!["x".to_owned()]);
    (&stream)
        .write_all(encode_line(&request).as_bytes())
        .unwrap();

    let refused = read_response(&mut reader);
    assert_eq!(refused.id, 0);
    assert!(!refused.ok);
    assert_eq!(refused.error_kind.as_deref(), Some("frame-too-large"));
    let scored = read_response(&mut reader);
    assert_eq!(scored.id, 7);
    assert!(scored.ok, "{:?}", scored.error);
    assert_eq!(scored.scores.len(), 1);
    assert_eq!(
        server.stats().requests,
        1,
        "the skipped line is not a request"
    );

    stream.shutdown(Shutdown::Both).unwrap();
    server.shutdown();
}

#[test]
fn a_request_past_the_hypothesis_cap_is_refused_and_the_connection_keeps_serving() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client = ScoringClient::connect(server.addr()).unwrap();
    let batch = |id, count| {
        ScoreRequest::by_id(
            id,
            TaskKind::Configuration,
            "Wilkins",
            vec![String::new(); count],
        )
    };

    client.send(&batch(41, MAX_SCORE_HYPOTHESES + 1)).unwrap();
    let refused = client.recv().unwrap();
    assert_eq!(refused.id, 41);
    assert!(!refused.ok && refused.scores.is_empty());
    assert_eq!(refused.error_kind.as_deref(), Some("request-too-large"));

    client.send(&batch(42, MAX_SCORE_HYPOTHESES)).unwrap();
    let scored = client.recv().unwrap();
    assert_eq!(scored.id, 42);
    assert!(scored.ok, "{:?}", scored.error);
    assert_eq!(scored.scores.len(), MAX_SCORE_HYPOTHESES);
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 1, "the refused request is not counted");
    assert_eq!(stats.hypotheses, MAX_SCORE_HYPOTHESES as u64);

    // A resilient client takes the refusal as its answer: retrying it
    // would end in `RetriesExhausted` instead.
    let mut resilient = ResilientClient::new(
        server.addr().to_string(),
        RetryPolicy {
            retries: 3,
            ..RetryPolicy::default()
        },
    );
    let answer = resilient
        .score_text("tasks: []", vec![String::new(); MAX_SCORE_HYPOTHESES + 1])
        .unwrap();
    assert_eq!(answer.error_kind.as_deref(), Some("request-too-large"));

    client.close();
    server.shutdown();
}

#[test]
fn sixty_four_closed_loop_clients_are_all_served_by_one_server() {
    const CLIENTS: usize = 64;
    const REQUESTS_PER_CLIENT: usize = 8;
    const BATCH: usize = 4;

    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.addr();
    let reference = "tasks:\n  - func: producer\n    nprocs: 3\n";
    // Every client connects before any of them sends.
    let barrier = Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = ScoringClient::connect(addr).unwrap();
                barrier.wait();
                for request_index in 0..REQUESTS_PER_CLIENT {
                    let hypotheses = (0..BATCH)
                        .map(|i| format!("step {i} of request {request_index} from {client_index}"))
                        .collect();
                    let id = client.fresh_id();
                    client
                        .send(&ScoreRequest::by_text(id, reference, hypotheses))
                        .unwrap();
                    let response = client.recv().unwrap();
                    assert_eq!(response.id, id);
                    assert!(response.ok, "{:?}", response.error);
                    assert_eq!(response.scores.len(), BATCH);
                }
                client.close();
            });
        }
    });

    let requests = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    let stats = server.stats();
    assert_eq!(stats.requests, requests);
    assert_eq!(stats.latency_samples, requests);
    assert_eq!(stats.hypotheses, requests * BATCH as u64);
    assert!(1 <= stats.latency_p50_us && stats.latency_p50_us <= stats.latency_p95_us);
    assert!(stats.latency_p95_us <= stats.latency_p99_us);
    // The loop reaps a closed socket on its next readiness pass.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.live_connections() != 0 {
        assert!(
            Instant::now() < deadline,
            "{} connection(s) left open",
            server.live_connections()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
}
