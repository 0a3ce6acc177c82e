//! Hostile YAML over the wire: an `execute` request whose configuration
//! nests thousands of levels deep, or holds a mapping of 160,000 keys, gets
//! a typed `unsupported-yaml` diagnostic, and the server answers the next
//! request.
//!
//! This is a test binary of its own because the failure it guards against
//! is a stack overflow, which aborts the whole process rather than failing
//! one test.

use std::time::Instant;

use wfspeak_corpus::references::configuration_reference;
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_service::{ScoringClient, ScoringServer, ServiceConfig};

/// Send one hostile Wilkins artifact, check its typed refusal at
/// `line:column`, then check the server still runs the reference config.
fn refused_then_served(artifact: String, line: usize, column: usize) {
    let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
    let mut client = ScoringClient::connect(server.addr()).unwrap();

    let started = Instant::now();
    let response = client.execute("Wilkins", vec![artifact]).unwrap();
    let elapsed = started.elapsed();
    assert!(response.ok, "{:?}", response.error);
    let execution = &response.executions[0];
    assert!(!execution.parsed);
    assert_eq!(execution.failure_kind.as_deref(), Some("unsupported-yaml"));
    let diagnostic = &execution.diagnostics[0];
    assert_eq!(diagnostic.kind, "unsupported-yaml");
    assert_eq!(
        (diagnostic.line, diagnostic.column),
        (Some(line), Some(column))
    );
    // Refused where the limit is crossed, without reading the rest.
    assert!(elapsed.as_secs() < 10, "refusal took {elapsed:?}");

    let reference = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
    let response = client
        .execute("Wilkins", vec![reference.to_owned()])
        .unwrap();
    assert!(response.ok, "{:?}", response.error);
    assert_eq!(response.executions[0].runnability, 100.0);

    client.close();
    server.shutdown();
}

#[test]
fn ten_thousand_open_brackets_are_refused_and_the_server_keeps_serving() {
    // 10,007 bytes: `tasks: ` and 10,000 `[`.  The 128th `[` opens level
    // 129 (the `tasks` mapping is level 1).
    let artifact = format!("tasks: {}", "[".repeat(10_000));
    assert_eq!(artifact.len(), 10_007);
    refused_then_served(artifact, 1, 7 + 128);
}

#[test]
fn a_mapping_of_160000_keys_is_refused_and_the_server_keeps_serving() {
    let artifact: String = (0..160_000).map(|i| format!("k{i}: 1\n")).collect();
    assert!(artifact.len() > 1_500_000);
    refused_then_served(artifact, 257, 1);
}
