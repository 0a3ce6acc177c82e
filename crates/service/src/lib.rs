//! `wfspeak-service` — a long-running batch scoring server for the
//! reproduction's BLEU/ChrF metrics.
//!
//! The benchmark binary scores hypotheses in one-shot runs; this crate turns
//! the same scoring core into a network service so many clients can share
//! one warm process. Design points:
//!
//! * **Protocol** ([`protocol`]) — newline-delimited JSON over TCP. Clients
//!   write one [`ScoreRequest`] per line (`{id, task, system, reference_id |
//!   reference_text, hypotheses[]}`) and read back [`ScoreResponse`] lines
//!   tagged with the request id, so requests can be pipelined and answered
//!   out of order.
//! * **Shared reference cache** — the server keeps one
//!   [`ReferenceCache`](wfspeak_core::ReferenceCache) of prepared references
//!   (tokenised, interned, n-gram-counted once) across *all* connections;
//!   an inline `reference_text` is kept from its second sighting, so
//!   one-off references do not fill it. [`ServiceStats`] reports its hit
//!   rate.
//! * **Event-driven I/O** ([`server`], [`framing`]) — one nonblocking
//!   event-loop thread multiplexes every connection via the vendored
//!   `polling` shim (epoll/poll); each connection is a state machine
//!   assembling frames of at most [`MAX_FRAME_BYTES`] with [`FrameDecoder`],
//!   so thousands of connections cost table entries and one file
//!   descriptor each, not thread pairs.
//! * **Bounded worker pool** ([`server`]) — scoring runs on a fixed pool fed
//!   by a bounded queue; when the pool is saturated, the loop parks the
//!   connection's request and mutes its read interest, pushing backpressure
//!   into the clients' TCP windows instead of buffering unboundedly.
//!   Workers hand every reply to the event loop, which alone writes it, so
//!   a worker never waits on a client. The loop stops reading a connection
//!   that holds [`REPLY_BUDGET`] replies admitted but not yet written, and
//!   disconnects one whose queued reply bytes have not moved for
//!   [`WRITE_IDLE_TIMEOUT`]; there is no other stall timeout. A request
//!   with more hypotheses than [`MAX_SCORE_HYPOTHESES`] (or
//!   [`MAX_EXECUTE_HYPOTHESES`] for `execute`) gets a typed
//!   `"request-too-large"` error.
//! * **Latency percentiles** ([`latency`]) — workers record each request's
//!   admission→reply time in a lock-free power-of-two-bucket
//!   [`LatencyHistogram`]; `stats` responses surface p50/p95/p99.
//! * **Bit-identical scores** — the worker calls the exact
//!   [`Scorer::score_prepared`](wfspeak_metrics::Scorer::score_prepared)
//!   path the benchmark runner uses, so a score served over the wire equals
//!   the score computed in-process, bit for bit (the integration tests pin
//!   this).
//! * **Full-pipeline `evaluate` requests** — a request with
//!   `mode: "evaluate"` treats each hypothesis as a raw model response and
//!   runs extraction → API-call comparison → BLEU/ChrF
//!   ([`wfspeak_core::eval::evaluate_prepared`]) on the same worker pool
//!   with the same shared cache and backpressure rules, answering with
//!   [`EvaluationScore`]s that are bit-identical to composing the stages
//!   in-process.
//! * **Fault tolerance** ([`faults`], [`resilient`]) — workers run each
//!   job under `catch_unwind`, so a panicking request answers with a typed
//!   `error_kind: "internal"` response and the pool replaces the worker
//!   instead of dying; requests may carry a `deadline_ms` after which
//!   still-queued jobs are answered with `error_kind: "deadline"` instead
//!   of being scored late; shutdown drains in-flight work before
//!   force-disconnecting stragglers. For chaos testing, a seeded
//!   [`FaultPlan`] (off by default) makes the server deterministically
//!   inject torn/partial frames, delayed and dropped writes, mid-request
//!   disconnects and worker panics; [`ResilientClient`] is the matching
//!   client with reconnect, capped deterministic backoff and retry of
//!   idempotent requests (`repro chaos` sweeps seeds end to end).
//! * **Dynamic-execution `execute` requests** — a request with
//!   `mode: "execute"` treats each hypothesis as a raw model response whose
//!   configuration payload is parsed into a workflow spec and *run* on the
//!   `wfspeak-runtime` engine under a bounded sandbox
//!   ([`wfspeak_core::exec::execute_artifact`]); the answer's
//!   [`ExecutionScore`]s (runnability + trace fidelity against the
//!   reference artifact's own run) are derived from deterministic counts,
//!   so they too are bit-identical to in-process execution.  Reference runs
//!   are cached and shared across all connections.
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_service::{ScoringClient, ScoringServer, ServiceConfig, TaskKind};
//!
//! // Port 0 picks an ephemeral port; `repro serve` binds a fixed one.
//! let server = ScoringServer::spawn("127.0.0.1:0", ServiceConfig::default()).unwrap();
//!
//! let mut client = ScoringClient::connect(server.addr()).unwrap();
//! let response = client
//!     .score(TaskKind::Configuration, "Henson", vec![
//!         "henson_exec producer.so 3".to_string(),
//!     ])
//!     .unwrap();
//! assert!(response.ok);
//! assert_eq!(response.scores.len(), 1);
//! assert!(response.scores[0].bleu >= 0.0 && response.scores[0].bleu <= 100.0);
//!
//! let stats = client.stats().unwrap();
//! assert_eq!(stats.requests, 1);
//! assert_eq!(stats.hypotheses, 1);
//!
//! client.close(); // disconnect before shutdown so the server can drain
//! server.shutdown();
//! ```

mod affinity;
pub mod client;
pub mod faults;
pub mod framing;
pub mod latency;
pub mod protocol;
pub mod resilient;
pub mod server;

pub use client::ScoringClient;
pub use faults::{FaultAction, FaultInjector, FaultPlan, WriteFault};
pub use framing::{Frame, FrameDecoder, MAX_FRAME_BYTES};
pub use latency::LatencyHistogram;
pub use protocol::{
    EvaluationScore, ExecutionScore, HypothesisScore, RequestMode, ScoreRequest, ScoreResponse,
    ServiceStats, TaskKind, DEFAULT_ADDR,
};
pub use resilient::{ResilientClient, RetriesExhausted, RetryPolicy};
pub use server::{
    ScoringServer, ServiceConfig, MAX_EXECUTE_HYPOTHESES, MAX_SCORE_HYPOTHESES, REPLY_BUDGET,
    WRITE_IDLE_TIMEOUT,
};
