//! End-to-end tests: a real server on an ephemeral port, real TCP clients,
//! and the promise that served scores are bit-identical to calling
//! `Scorer::score_prepared` directly.

use wfspeak_corpus::references::{
    annotation_reference, configuration_reference, translation_reference,
};
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_service::{ScoreRequest, ScoringClient, ScoringServer, ServiceConfig, TaskKind};

/// Hypotheses with varied quality against a reference: the reference itself,
/// truncations, and mutations.
fn hypotheses_for(reference: &str) -> Vec<String> {
    let half = reference.len() / 2;
    let truncated: String = reference.chars().take(half).collect();
    vec![
        reference.to_owned(),
        truncated,
        reference.replace("producer", "generator"),
        "completely unrelated output".to_owned(),
        String::new(),
    ]
}

/// What `Scorer::score_prepared` produces in-process for one (reference,
/// hypotheses) batch — the ground truth every served response must match.
fn direct_scores(reference: &str, hypotheses: &[String]) -> Vec<(f64, f64)> {
    let bleu = BleuScorer::default();
    let chrf = ChrfScorer::default();
    let prepared_bleu = bleu.prepare(reference);
    let prepared_chrf = chrf.prepare(reference);
    hypotheses
        .iter()
        .map(|h| {
            (
                bleu.score_prepared(h, &prepared_bleu),
                chrf.score_prepared(h, &prepared_chrf),
            )
        })
        .collect()
}

fn assert_bit_identical(
    served: &wfspeak_service::ScoreResponse,
    expected: &[(f64, f64)],
    context: &str,
) {
    assert!(served.ok, "{context}: {:?}", served.error);
    assert_eq!(served.scores.len(), expected.len(), "{context}");
    for (i, (score, (bleu, chrf))) in served.scores.iter().zip(expected).enumerate() {
        assert_eq!(
            score.bleu.to_bits(),
            bleu.to_bits(),
            "{context}: hypothesis {i} BLEU {} vs {bleu}",
            score.bleu
        );
        assert_eq!(
            score.chrf.to_bits(),
            chrf.to_bits(),
            "{context}: hypothesis {i} ChrF {} vs {chrf}",
            score.chrf
        );
    }
}

#[test]
fn two_concurrent_clients_get_bit_identical_scores() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.addr();

    // Two clients score different experiment batches at the same time.
    let workloads: [(TaskKind, WorkflowSystemId, &str); 2] = [
        (
            TaskKind::Configuration,
            WorkflowSystemId::Henson,
            configuration_reference(WorkflowSystemId::Henson).unwrap(),
        ),
        (
            TaskKind::Annotation,
            WorkflowSystemId::Parsl,
            annotation_reference(WorkflowSystemId::Parsl).unwrap(),
        ),
    ];

    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|&(task, system, reference)| {
                scope.spawn(move || {
                    let mut client = ScoringClient::connect(addr).unwrap();
                    let hypotheses = hypotheses_for(reference);
                    let expected = direct_scores(reference, &hypotheses);
                    // Each client repeats its batch to exercise the shared
                    // cache from both connections.
                    for round in 0..3 {
                        let response = client
                            .score(task, system.name(), hypotheses.clone())
                            .unwrap();
                        assert_bit_identical(
                            &response,
                            &expected,
                            &format!("{}/{} round {round}", task.name(), system.name()),
                        );
                    }
                    client.close();
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    });

    let stats = server.stats();
    assert_eq!(stats.requests, 6, "3 rounds from each of 2 clients");
    assert_eq!(stats.hypotheses, 30);
    // Each distinct reference is prepared once; all later lookups hit.
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.cache_hits, 4);
    server.shutdown();
}

#[test]
fn pipelined_requests_are_matched_by_id() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client = ScoringClient::connect(server.addr()).unwrap();

    // Fire all requests before reading any response; ids are deliberately
    // non-contiguous to prove matching is by id, not arrival order.
    let references: Vec<(u64, String)> = (0..8)
        .map(|i| {
            (
                100 + 7 * i,
                format!("reference text number {i} with shared words"),
            )
        })
        .collect();
    for (id, reference) in &references {
        let request = ScoreRequest::by_text(*id, reference, hypotheses_for(reference));
        client.send(&request).unwrap();
    }
    let ids: Vec<u64> = references.iter().map(|(id, _)| *id).collect();
    let responses = client.collect_by_id(&ids).unwrap();
    assert_eq!(responses.len(), references.len());
    for (id, reference) in &references {
        let hypotheses = hypotheses_for(reference);
        let expected = direct_scores(reference, &hypotheses);
        assert_bit_identical(&responses[id], &expected, &format!("request {id}"));
    }

    client.close();
    server.shutdown();
}

#[test]
fn malformed_and_unresolvable_requests_get_error_responses() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();

    // Speak the raw protocol to send garbage a typed client cannot produce.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let write = |line: &str| {
        let mut stream = &stream;
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
    };
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<serde::Value>(&line).unwrap()
    };

    write(r#"{"id": 11, "task": "configuration", "system": "NoSuchSystem", "hypotheses": ["x"]}"#);
    let response = read_response();
    assert_eq!(response["id"].as_i64(), Some(11));
    assert_eq!(response["ok"].as_bool(), Some(false));
    assert!(response["error"].as_str().unwrap().contains("NoSuchSystem"));

    write(r#"{"id": 12, "hypotheses": "not-an-array"}"#);
    let response = read_response();
    assert_eq!(
        response["id"].as_i64(),
        Some(12),
        "id salvaged from bad request"
    );
    assert_eq!(response["ok"].as_bool(), Some(false));

    write("this is not json");
    let response = read_response();
    assert_eq!(response["id"].as_i64(), Some(0));
    assert_eq!(response["ok"].as_bool(), Some(false));

    // The connection survives all three errors and still scores.
    write(r#"{"id": 13, "task": "annotation", "system": "Parsl", "hypotheses": ["x"]}"#);
    let response = read_response();
    assert_eq!(response["id"].as_i64(), Some(13));
    assert_eq!(response["ok"].as_bool(), Some(true));

    // `reader` holds a clone of the socket, so dropping `stream` alone would
    // not deliver EOF to the server; shut the socket down explicitly.
    stream.shutdown(std::net::Shutdown::Both).unwrap();
    server.shutdown();
}

#[test]
fn deeply_nested_frame_gets_an_invalid_request_reply_and_the_server_keeps_serving() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();

    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str::<serde::Value>(&line).unwrap()
    };

    // One megabyte of `[` on a single line: the decoder must refuse it
    // instead of recursing a million levels on the reactor thread.
    let mut frame = "[".repeat(1 << 20);
    frame.push('\n');
    (&stream).write_all(frame.as_bytes()).unwrap();
    let response = read_response();
    assert_eq!(response["id"].as_i64(), Some(0));
    assert_eq!(response["ok"].as_bool(), Some(false));
    let error = response["error"].as_str().unwrap();
    assert!(error.starts_with("invalid request"), "{error}");
    assert!(error.contains("nesting deeper than"), "{error}");

    // The same connection, and a fresh client, still get scores.
    (&stream)
        .write_all(b"{\"id\": 7, \"task\": \"annotation\", \"system\": \"Parsl\", \"hypotheses\": [\"x\"]}\n")
        .unwrap();
    let response = read_response();
    assert_eq!(response["id"].as_i64(), Some(7));
    assert_eq!(response["ok"].as_bool(), Some(true));
    let mut client = ScoringClient::connect(server.addr()).unwrap();
    let scored = client
        .score(TaskKind::Annotation, "Parsl", vec!["x".to_owned()])
        .unwrap();
    assert!(scored.ok, "{:?}", scored.error);

    stream.shutdown(std::net::Shutdown::Both).unwrap();
    server.shutdown();
}

#[test]
fn served_scores_match_direct_scoring_for_every_builtin_reference() {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client = ScoringClient::connect(server.addr()).unwrap();

    let mut covered = 0;
    for system in [
        WorkflowSystemId::Adios2,
        WorkflowSystemId::Henson,
        WorkflowSystemId::Parsl,
        WorkflowSystemId::PyCompss,
        WorkflowSystemId::Wilkins,
    ] {
        for (task, reference) in [
            (TaskKind::Configuration, configuration_reference(system)),
            (TaskKind::Annotation, annotation_reference(system)),
            (TaskKind::Translation, translation_reference(system)),
        ] {
            let Some(reference) = reference else { continue };
            let hypotheses = hypotheses_for(reference);
            let expected = direct_scores(reference, &hypotheses);
            let response = client.score(task, system.name(), hypotheses).unwrap();
            assert_bit_identical(
                &response,
                &expected,
                &format!("{}/{}", task.name(), system.name()),
            );
            covered += 1;
        }
    }
    assert_eq!(
        covered, 11,
        "3 configuration + 4 annotation + 4 translation references"
    );
    // The cache is keyed by reference text and translation targets share
    // the annotation references: 7 texts are prepared, and each of the 4
    // translation requests hits the entry its annotation request made.
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, 11);
    assert_eq!((stats.cache_misses, stats.cache_hits), (7, 4));

    client.close();
    server.shutdown();
}
