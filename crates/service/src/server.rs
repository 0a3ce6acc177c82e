//! The scoring server: one nonblocking I/O loop multiplexing every
//! connection, feeding the shared worker pool.
//!
//! ```text
//!                 ┌──────────────────────────────────────────────────┐
//!                 │                  ScoringServer                   │
//!  client A ─TCP─▶│  I/O loop: epoll/poll readiness on one thread,   │─▶ client A
//!  client B ─TCP─▶│  every connection a state machine                │─▶ client B
//!  client C ─TCP─▶│   [decode frames]──▶ bounded job queue ──┐       │─▶ client C
//!                 │   [flush replies]◀── completed replies ◀─┤       │
//!                 │                                     worker pool  │
//!                 │                                     (N threads,  │
//!                 │                                      ServiceState│
//!                 │                                      + cache)    │
//!                 └──────────────────────────────────────────────────┘
//! ```
//!
//! * **The I/O loop** owns the listener and every connection socket,
//!   registered with the vendored [`polling`] readiness shim. Each
//!   connection is a state machine: bytes read nonblockingly are assembled
//!   into frames by a [`FrameDecoder`], parsed requests are admitted to the
//!   bounded job queue, and replies are flushed back through a
//!   per-connection write queue. No thread ever blocks on one client's
//!   socket. When `accept` runs out of file descriptors, the listener
//!   leaves the poller until a connection closes or a 100 ms backoff
//!   passes, so the loop sleeps instead of spinning on a listener that
//!   stays readable.
//! * **Reply backpressure**: a connection may hold at most
//!   [`REPLY_BUDGET`] replies admitted but not yet written (jobs queued or
//!   running, plus replies waiting for its socket). At the budget the loop
//!   stops reading it, so a client that pipelines without reading fills
//!   its own TCP window, not the shared job queue. A connection whose
//!   queued reply bytes have not moved for [`WRITE_IDLE_TIMEOUT`] has
//!   stopped reading and is disconnected.
//! * **Admission control**: when the job queue is full, the connection
//!   *parks* the decoded request — its read interest is muted, so
//!   backpressure propagates into the client's TCP window — and retries on
//!   every queue-space wakeup until [`ServiceConfig::admission_timeout`]
//!   elapses, at which point the request is **shed** with a typed
//!   `"overloaded"` protocol error ([`ScoreResponse::overloaded`]).
//! * **The worker pool**: a fixed set of threads dequeue jobs, enforce
//!   deadlines, run the handler under `catch_unwind`, and hand each encoded
//!   reply to the I/O loop's completion list, then wake the loop and move
//!   on: a worker never waits on a client. When the pool has a worker for
//!   every CPU, each worker is pinned to a CPU of its own, so two busy
//!   workers never share one CPU while another idles.
//! * All workers share one [`ReferenceCache`]: the first request against a
//!   reference prepares it (tokenise + intern + count), every later request
//!   from *any* connection reuses the prepared form. The cache is sharded
//!   internally, so concurrent workers do not serialise on one lock. An
//!   inline `reference_text` is kept only from its second sighting.
//! * A frame longer than [`MAX_FRAME_BYTES`] is never buffered whole: the
//!   connection answers it with a typed `"frame-too-large"` error, skips
//!   its bytes up to the next newline and keeps serving. A request with
//!   more hypotheses than [`MAX_SCORE_HYPOTHESES`] (`score`, `evaluate`) or
//!   [`MAX_EXECUTE_HYPOTHESES`] (`execute`) is answered with a typed
//!   `"request-too-large"` error and not counted.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use polling::{Event, Interest, Poller};
use wfspeak_core::eval::{evaluate_prepared, SystemProfile};
use wfspeak_core::exec::ExecutionPipeline;
use wfspeak_core::{ReferenceCache, WorkflowSystemId};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};

use crate::affinity;
use crate::faults::{FaultAction, FaultInjector, FaultPlan, WriteFault};
use crate::framing::{Frame, FrameDecoder, MAX_FRAME_BYTES};
use crate::latency::LatencyHistogram;
use crate::protocol::{
    decode_line, encode_line, salvage_request_id, EvaluationScore, ExecutionScore, HypothesisScore,
    RequestMode, ScoreRequest, ScoreResponse, ServiceStats,
};

/// Poller key reserved for the listening socket.
const LISTENER_KEY: usize = usize::MAX - 1;

/// How long the listener stays out of the poller after `accept` ran out of
/// file descriptors, unless a connection closes first.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Most replies one connection may hold admitted but not yet written: jobs
/// queued, parked or running, plus reply segments waiting for its socket
/// (a torn reply is two). At the budget the I/O loop stops reading the
/// connection. It sits well under the default job-queue depth of 256, so
/// clients that pipeline without reading cannot fill the queue.
pub const REPLY_BUDGET: usize = 64;

/// How long a connection's queued reply bytes may sit without moving to
/// its socket before the I/O loop disconnects it: the client has stopped
/// reading. The loop writes when it serves the connection, which a full
/// socket asks for again only once the client has read part of what the
/// socket holds.
pub const WRITE_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Most hypotheses one `score` or `evaluate` request may carry. A larger
/// request is answered with a typed `"request-too-large"` error
/// ([`ScoreResponse::request_too_large`]) without being scored.
pub const MAX_SCORE_HYPOTHESES: usize = 4096;

/// Most hypotheses one `execute` request may carry. Each execution parses,
/// validates and runs a whole workflow on the worker, so the cap is lower
/// than [`MAX_SCORE_HYPOTHESES`]; larger batches get the same typed
/// `"request-too-large"` error and should be split across pipelined
/// requests.
pub const MAX_EXECUTE_HYPOTHESES: usize = 64;

/// Tunables for [`ScoringServer::spawn`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Scoring worker threads. `0` means one per available core. A pool
    /// with a worker for every CPU the server may run on pins each worker
    /// to a CPU of its own, in turn; a smaller pool is left to the
    /// scheduler.
    pub workers: usize,
    /// Bounded job-queue depth; connections park (backpressure) when full.
    pub queue_depth: usize,
    /// Cap on distinct references kept prepared in the shared cache. The
    /// built-in corpus references always fit; the cap bounds memory when
    /// clients stream arbitrary `reference_text` values — beyond it, unseen
    /// references are prepared per request without being retained.
    ///
    /// References the server resolves itself (`reference_id`, or `task`
    /// plus `system`) are kept from their first sighting. An inline
    /// `reference_text` is kept only from its second: a fixed
    /// direct-mapped doorkeeper of text hashes remembers the first, so a
    /// reference sent once is prepared for its request and dropped. Kept
    /// inline references are also charged their heap bytes against a
    /// fixed budget ([`INLINE_BUDGET_BYTES`](wfspeak_core::runner::INLINE_BUDGET_BYTES),
    /// 4 MiB) that this cap does not change; once it is spent, further
    /// inline references are prepared per request and not kept.
    pub max_cached_references: usize,
    /// How long a parked request waits for space in the bounded job queue
    /// before being shed with a typed `"overloaded"` error. Zero sheds
    /// immediately whenever the queue is full.
    pub admission_timeout: std::time::Duration,
    /// How long [`shutdown`](ScoringServer::shutdown) waits for admitted
    /// work to finish (queue drained, in-flight jobs replied) before
    /// force-disconnecting the remaining connections.
    pub drain_timeout: std::time::Duration,
    /// Deterministic fault-injection plan for chaos testing; `None` (the
    /// default) disables injection entirely and the fault plumbing is
    /// invisible (the golden snapshot tests pin this).
    pub faults: Option<FaultPlan>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_depth: 256,
            max_cached_references: 4096,
            admission_timeout: std::time::Duration::from_millis(250),
            drain_timeout: std::time::Duration::from_secs(5),
            faults: None,
        }
    }
}

impl ServiceConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Scorers, the shared prepared-reference cache and lifetime counters —
/// everything the worker pool needs, shared across all connections.
#[derive(Debug)]
struct ServiceState {
    bleu: BleuScorer,
    chrf: ChrfScorer,
    cache: ReferenceCache,
    executor: ExecutionPipeline,
    max_cached_references: usize,
    requests: AtomicU64,
    hypotheses: AtomicU64,
    /// Jobs admitted to the bounded queue (or parked waiting for it) and
    /// not yet picked up by a worker. Incremented at admission, decremented
    /// at dequeue, so a `stats` snapshot can report live queue pressure.
    queue_depth: AtomicU64,
    /// Jobs a worker has dequeued and not yet replied to. Together with
    /// `queue_depth` this is the shutdown drain condition: both at zero
    /// means every admitted job has been answered.
    inflight: AtomicU64,
    /// Panicking jobs caught and answered as `"internal"`; each one stands
    /// for a worker the pool had to replace.
    worker_restarts: AtomicU64,
    /// Per-request latency (admission → reply handed to the I/O loop) in
    /// power-of-two buckets; the `stats` response reports p50/p95/p99.
    latency: LatencyHistogram,
    /// The deterministic fault schedule, when chaos testing is enabled.
    injector: Option<FaultInjector>,
}

impl ServiceState {
    fn new(config: &ServiceConfig) -> Result<Self, String> {
        let injector = match &config.faults {
            Some(plan) => Some(FaultInjector::new(plan.clone())?),
            None => None,
        };
        Ok(ServiceState {
            bleu: BleuScorer::default(),
            chrf: ChrfScorer::default(),
            cache: ReferenceCache::default(),
            // The same cap bounds both caches: arbitrary client-supplied
            // reference text must not grow server memory without limit.
            executor: ExecutionPipeline::default().with_cache_cap(config.max_cached_references),
            max_cached_references: config.max_cached_references,
            requests: AtomicU64::new(0),
            hypotheses: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            injector,
        })
    }

    fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed),
            hypotheses: self.hypotheses.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            queue_depth: self.queue_depth.load(Ordering::SeqCst),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            faults_injected: self.injector.as_ref().map_or(0, FaultInjector::injected),
            latency_samples: self.latency.samples(),
            latency_p50_us: self.latency.percentile(50.0),
            latency_p95_us: self.latency.percentile(95.0),
            latency_p99_us: self.latency.percentile(99.0),
        }
    }

    /// Execute one request. Both modes funnel through exactly the code the
    /// in-process paths use — `Scorer::score_prepared` for scoring,
    /// `wfspeak_core::eval::evaluate_prepared` for the full pipeline — so
    /// served results are bit-identical to direct composition.
    fn handle(&self, request: &ScoreRequest) -> ScoreResponse {
        let mode = match request.resolve_mode() {
            Ok(mode) => mode,
            Err(message) => return ScoreResponse::failure(request.id, message),
        };
        let reference = match request.resolve_reference() {
            Ok(Some(reference)) => reference,
            Ok(None) => return ScoreResponse::stats(request.id, self.stats()),
            Err(message) => return ScoreResponse::failure(request.id, message),
        };
        // Evaluate needs a workflow system for API-call comparison; execute
        // needs one to pick the configuration dialect — even when the
        // reference text arrives inline.
        let system_id = match mode {
            RequestMode::Score => None,
            RequestMode::Evaluate | RequestMode::Execute => {
                let Some(name) = request.resolve_system_name() else {
                    return ScoreResponse::failure(
                        request.id,
                        "evaluate/execute requests must name a workflow system \
                         (`system` or `reference_id`)",
                    );
                };
                match WorkflowSystemId::from_name(name) {
                    Some(id) => Some(id),
                    None => {
                        return ScoreResponse::failure(
                            request.id,
                            format!("unknown workflow system `{name}`"),
                        )
                    }
                }
            }
        };
        // Every hypothesis is work on this worker and a part of the reply;
        // bound what one request can pin the worker with.
        let cap = match mode {
            RequestMode::Score | RequestMode::Evaluate => MAX_SCORE_HYPOTHESES,
            RequestMode::Execute => MAX_EXECUTE_HYPOTHESES,
        };
        if request.hypotheses.len() > cap {
            return ScoreResponse::request_too_large(request.id, request.hypotheses.len(), cap);
        }
        if mode == RequestMode::Execute {
            // `system_id` is always `Some` here (resolved just above for
            // execute mode), but the invariant is guarded by a typed
            // protocol error rather than an `expect`: no request shape may
            // ever panic a worker, even without the `catch_unwind` backstop.
            let Some(system) = system_id else {
                return ScoreResponse::failure(
                    request.id,
                    "execute requests must name a workflow system \
                     (`system` or `reference_id`)",
                );
            };
            // Resolve the reference run first so a bad reference is a
            // failure (uncounted), matching every other addressing error.
            let summary = match self.executor.reference_summary(system, reference) {
                Ok(summary) => summary,
                Err(message) => return ScoreResponse::failure(request.id, message),
            };
            self.requests.fetch_add(1, Ordering::Relaxed);
            self.hypotheses
                .fetch_add(request.hypotheses.len() as u64, Ordering::Relaxed);
            let executions: Vec<ExecutionScore> = request
                .hypotheses
                .iter()
                .map(|response| {
                    ExecutionScore::from_execution(&wfspeak_core::exec::execute_artifact(
                        self.executor.sandbox(),
                        system,
                        response,
                        &summary,
                    ))
                })
                .collect();
            return ScoreResponse::executed(request.id, executions);
        }
        let profile = system_id.map(SystemProfile::for_system);
        // Counted at admission, before the cache lookup, so a concurrent
        // `stats` snapshot never shows more cache traffic than the request
        // count can explain.
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.hypotheses
            .fetch_add(request.hypotheses.len() as u64, Ordering::Relaxed);
        // The server resolves `reference_id` and `task` + `system` to its
        // own references and keeps them at once; inline text is kept only
        // once it repeats.
        let lookup = if request.reference_text.is_some() {
            ReferenceCache::get_or_prepare_inline
        } else {
            ReferenceCache::get_or_prepare_bounded
        };
        let prepared = lookup(
            &self.cache,
            &self.bleu,
            &self.chrf,
            reference,
            self.max_cached_references,
        );
        match profile {
            None => {
                let scores: Vec<HypothesisScore> = request
                    .hypotheses
                    .iter()
                    .map(|hypothesis| HypothesisScore {
                        bleu: self.bleu.score_prepared(hypothesis, &prepared.bleu),
                        chrf: self.chrf.score_prepared(hypothesis, &prepared.chrf),
                    })
                    .collect();
                ScoreResponse::success(request.id, scores)
            }
            Some(profile) => {
                let evaluations: Vec<EvaluationScore> = request
                    .hypotheses
                    .iter()
                    .map(|response| {
                        EvaluationScore::from_evaluation(&evaluate_prepared(
                            &self.bleu, &self.chrf, &prepared, &profile, response,
                        ))
                    })
                    .collect();
                ScoreResponse::evaluated(request.id, evaluations)
            }
        }
    }
}

/// What the I/O loop shares with the workers and the server handle: its
/// poller (for wakeups), the replies workers hand back, and lifecycle flags
/// and counters.
struct IoShared {
    poller: Poller,
    /// Finished jobs, in the order workers finished them: the token of the
    /// connection the reply goes to, and the reply (`None` when an injected
    /// fault drops it).
    completions: Mutex<Vec<(usize, Option<Reply>)>>,
    /// Stop accepting new connections (set first during shutdown).
    stop: AtomicBool,
    /// Tear down all connections and exit the I/O loop (set after drain).
    closing: AtomicBool,
    /// Connections currently registered with the I/O loop.
    live_connections: AtomicUsize,
    /// Requests parked on a full job queue; workers only send queue-space
    /// wakeups while this is nonzero.
    parked: AtomicUsize,
}

/// One unit of work for the pool: a parsed (or unparsable) request line
/// and the token of the connection its reply goes back to.
struct Job {
    request: Result<ScoreRequest, ScoreResponse>,
    token: usize,
    /// When the I/O loop admitted this job; the worker checks the
    /// request's `deadline_ms` against it before scoring.
    admitted: Instant,
}

/// One response line on its way to a connection's write queue, plus the
/// write-path fault (if any) the I/O loop must apply to it.
struct Reply {
    line: String,
    fault: Option<WriteFault>,
}

/// One contiguous chunk of bytes queued for a connection's socket. A
/// faultless reply is one segment; a torn reply is two (flushed with
/// separate writes); a disconnect fault is a truncated segment that shuts
/// the socket down once flushed.
struct OutSegment {
    bytes: Bytes,
    shutdown_after: bool,
}

impl OutSegment {
    fn line(line: String) -> Self {
        OutSegment {
            bytes: Bytes::from(line.into_bytes()),
            shutdown_after: false,
        }
    }
}

/// A request decoded from a connection that found the job queue full: it
/// waits (with read interest muted, so backpressure reaches the client's
/// TCP window) for queue space until its deadline, then is shed.
struct PendingJob {
    job: Job,
    request_id: u64,
    deadline: Instant,
}

/// Per-connection state machine, owned by the I/O loop.
struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: VecDeque<OutSegment>,
    /// Bytes of `out.front()` already written.
    out_pos: usize,
    /// When to disconnect the client if no queued byte moves before then;
    /// armed while `out` is nonempty, cleared by every write that makes
    /// progress.
    write_deadline: Option<Instant>,
    pending: Option<PendingJob>,
    /// Jobs admitted from this connection (queued, parked or running) whose
    /// replies have not reached `out`.
    outstanding: usize,
    /// The client half-closed (EOF) or sent bytes we refuse to parse; no
    /// more requests will be read, but queued work still drains.
    read_closed: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// Marked for removal (error, deliberate disconnect, or fully drained).
    dead: bool,
}

impl Connection {
    fn new(stream: TcpStream) -> Self {
        Connection {
            stream,
            decoder: FrameDecoder::new(),
            out: VecDeque::new(),
            out_pos: 0,
            write_deadline: None,
            pending: None,
            outstanding: 0,
            read_closed: false,
            registered: Interest::readable(),
            dead: false,
        }
    }

    /// Replies admitted but not yet written, counted against
    /// [`REPLY_BUDGET`].
    fn backlog(&self) -> usize {
        self.outstanding + self.out.len()
    }
}

/// A running scoring server.
///
/// Bind with [`ScoringServer::spawn`]; the returned handle reports the bound
/// address ([`addr`](ScoringServer::addr)), exposes live statistics
/// ([`stats`](ScoringServer::stats)) and shuts the listener down on
/// [`shutdown`](ScoringServer::shutdown) (or on drop).
pub struct ScoringServer {
    addr: std::net::SocketAddr,
    state: Arc<ServiceState>,
    shared: Arc<IoShared>,
    io_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl ScoringServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the I/O
    /// loop plus the worker pool.
    pub fn spawn(addr: impl ToSocketAddrs, config: ServiceConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = ServiceState::new(&config)
            .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidInput, message))?;
        let state = Arc::new(state);
        let shared = Arc::new(IoShared {
            poller: Poller::new()?,
            completions: Mutex::default(),
            stop: AtomicBool::new(false),
            closing: AtomicBool::new(false),
            live_connections: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
        });

        let (job_tx, job_rx) = sync_channel::<Job>(config.queue_depth.max(1));
        // The channel's receiver is single-consumer; workers take turns
        // holding the lock while blocked in `recv`, which serialises
        // dequeueing only — scoring itself runs in parallel.
        let job_rx = Arc::new(Mutex::new(job_rx));

        let workers = config.effective_workers();
        let worker_handles = (0..workers)
            .map(|index| {
                let state = Arc::clone(&state);
                let job_rx = Arc::clone(&job_rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    affinity::pin_worker(index, workers);
                    worker_loop(&state, &job_rx, &shared)
                })
            })
            .collect();

        let ctx = LoopCtx {
            shared: Arc::clone(&shared),
            state: Arc::clone(&state),
            job_tx,
            listener: Some(listener),
            accept_resume: None,
            conns: HashMap::new(),
            next_token: 0,
            admission_timeout: config.admission_timeout,
            scratch: vec![0u8; 16 * 1024],
        };
        let io_handle = Some(std::thread::spawn(move || ctx.run()));

        Ok(ScoringServer {
            addr,
            state,
            shared,
            io_handle,
            worker_handles,
            drain_timeout: config.drain_timeout,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// A live snapshot of the server's lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.state.stats()
    }

    /// Connections currently registered with the I/O loop. Returns to zero
    /// once every client has disconnected and been cleaned up — the
    /// overload regression tests pin that no shed or lost connection leaks
    /// an entry.
    pub fn live_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::SeqCst)
    }

    /// Block the calling thread for the server's lifetime (the I/O loop
    /// only exits on shutdown). `repro serve` parks on this.
    pub fn wait(mut self) {
        if let Some(handle) = self.io_handle.take() {
            let _ = handle.join();
        }
    }

    /// Shut down as a drain: stop accepting connections, let admitted work
    /// finish and its replies flush, then force-disconnect stragglers past
    /// [`ServiceConfig::drain_timeout`] and join every server thread.
    ///
    /// Queued work is still scored (responses to disconnected clients are
    /// dropped at the write path), so counters in
    /// [`stats`](ScoringServer::stats) reflect all accepted work.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.poller.notify();
        // Drain phase: wait (bounded by the drain deadline) until every
        // admitted job has left the queue and been replied to, so clients
        // that are reading receive everything they were promised. Clients
        // may still submit new work on live connections during the drain;
        // the deadline bounds how long they can prolong it.
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            let quiesced = self.state.queue_depth.load(Ordering::SeqCst) == 0
                && self.state.inflight.load(Ordering::SeqCst) == 0;
            if quiesced || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Brief grace so the I/O loop can flush replies that are queued
        // but not yet on the wire; best-effort only — the force-disconnect
        // below is the correctness backstop.
        std::thread::sleep(Duration::from_millis(20).min(self.drain_timeout));
        // Force-disconnect clients that have not hung up: the loop tears
        // down its connection table and exits, dropping the job sender so
        // workers drain the queue and observe disconnect.
        self.shared.closing.store(true, Ordering::SeqCst);
        let _ = self.shared.poller.notify();
        if let Some(handle) = self.io_handle.take() {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ScoringServer {
    fn drop(&mut self) {
        if self.io_handle.is_some() {
            self.stop_and_join();
        }
    }
}

fn worker_loop(state: &ServiceState, jobs: &Mutex<Receiver<Job>>, shared: &IoShared) {
    loop {
        // Holding the lock across `recv` parks exactly one idle worker on the
        // channel; it wakes, releases the lock, and scores while the next
        // idle worker moves into the waiting slot.
        let job = match jobs.lock().recv() {
            Ok(job) => job,
            Err(_) => return, // queue disconnected: server shutting down
        };
        // Mark in-flight *before* leaving the queue so the shutdown drain
        // never observes queue_depth and inflight both zero while a job is
        // mid-handoff.
        state.inflight.fetch_add(1, Ordering::SeqCst);
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        // This dequeue freed a queue slot; wake the I/O loop if a
        // connection is parked waiting for one.
        if shared.parked.load(Ordering::SeqCst) > 0 {
            let _ = shared.poller.notify();
        }
        // One schedule draw per dequeued job: the Nth job a server handles
        // always gets the Nth fault decision, so chaos runs replay.
        let action = state
            .injector
            .as_ref()
            .map_or(FaultAction::None, FaultInjector::next_action);
        let response = respond_to_job(state, &job, action);
        let line = encode_line(&response);
        let reply = match action.write_fault() {
            // The response evaporates; clients need deadlines + retries.
            Some(WriteFault::Drop) => None,
            Some(WriteFault::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                Some(Reply { line, fault: None })
            }
            // Torn/disconnect faults reshape the bytes on the wire; the
            // I/O loop applies them when it queues the reply.
            fault => Some(Reply { line, fault }),
        };
        // Hand the reply to the I/O loop, which owns the connection's write
        // path, and move on: however slowly the client reads, the worker
        // never waits for it.
        state.latency.record(job.admitted.elapsed());
        shared.completions.lock().push((job.token, reply));
        let _ = shared.poller.notify();
        state.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Produce the response for one dequeued job: enforce the request deadline,
/// then run the handler under `catch_unwind` so a panicking job — injected
/// by the fault plan or a genuine bug — yields a typed
/// `error_kind: "internal"` response instead of a hung connection.
///
/// The unwind poisons nothing: all per-job state lives on the unwound
/// stack, the shared caches use panic-safe locks, and the worker re-enters
/// its loop with a clean frame — the pool's "respawn", counted in
/// [`ServiceStats::worker_restarts`].
fn respond_to_job(state: &ServiceState, job: &Job, action: FaultAction) -> ScoreResponse {
    let request = match &job.request {
        Ok(request) => request,
        Err(failure) => return failure.clone(),
    };
    if let Some(deadline_ms) = request.deadline_ms {
        let waited_ms = job.admitted.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        if waited_ms >= deadline_ms {
            // Expired while queued: drop it before scoring so a backlogged
            // server stops burning workers on answers nobody waits for.
            return ScoreResponse::deadline_exceeded(request.id, deadline_ms, waited_ms);
        }
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if action == FaultAction::WorkerPanic {
            panic!("injected fault: worker panic");
        }
        state.handle(request)
    }));
    match outcome {
        Ok(response) => response,
        Err(payload) => {
            state.worker_restarts.fetch_add(1, Ordering::Relaxed);
            ScoreResponse::internal_error(request.id, panic_detail(payload.as_ref()))
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(message) = payload.downcast_ref::<&str>() {
        message
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message
    } else {
        "opaque panic payload"
    }
}

/// Scale a 0–99 fault percentage to a byte offset within a response line.
fn fault_offset(len: usize, percent: u8) -> usize {
    len * usize::from(percent % 100) / 100
}

/// Everything the I/O loop thread owns: the listener, the registered
/// connections and the shared handles.
struct LoopCtx {
    shared: Arc<IoShared>,
    state: Arc<ServiceState>,
    job_tx: SyncSender<Job>,
    listener: Option<TcpListener>,
    /// Set while the listener is out of the poller because `accept` ran
    /// out of file descriptors: when to put it back at the latest.
    accept_resume: Option<Instant>,
    conns: HashMap<usize, Connection>,
    /// Never reused, so a reply for a closed connection finds no entry.
    next_token: usize,
    admission_timeout: Duration,
    scratch: Vec<u8>,
}

impl LoopCtx {
    fn run(mut self) {
        if let Some(listener) = &self.listener {
            if listener.set_nonblocking(true).is_err() {
                return;
            }
            if self
                .shared
                .poller
                .add(listener.as_raw_fd(), LISTENER_KEY, Interest::readable())
                .is_err()
            {
                return;
            }
        }
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            let _ = self.shared.poller.wait(&mut events, timeout);
            if self.shared.closing.load(Ordering::SeqCst) {
                break;
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                self.close_listener();
            }
            if self.accept_resume.is_some_and(|at| Instant::now() >= at) {
                self.resume_accept();
            }
            let completions = std::mem::take(&mut *self.shared.completions.lock());
            for event in events.drain(..) {
                if event.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.service(event.key);
                }
            }
            for (token, reply) in completions {
                self.complete(token, reply);
            }
            // Parked requests retry on every wake: queue-space wakeups,
            // completions and deadline timeouts all land here, and so do
            // write-idle deadlines that have passed.
            let now = Instant::now();
            let due: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, conn)| {
                    conn.pending.is_some() || conn.write_deadline.is_some_and(|at| now >= at)
                })
                .map(|(token, _)| *token)
                .collect();
            for token in due {
                self.service(token);
            }
        }
        self.teardown_all();
    }

    /// The next `wait` parks until I/O, a wakeup, the earliest parked
    /// request's admission deadline or write-idle deadline, or the end of
    /// an accept backoff.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .values()
            .flat_map(|conn| {
                let parked = conn.pending.as_ref().map(|pending| pending.deadline);
                parked.into_iter().chain(conn.write_deadline)
            })
            .chain(self.accept_resume)
            .min()
            .map(|deadline| deadline.saturating_duration_since(now))
    }

    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.shared.poller.delete(listener.as_raw_fd());
        }
    }

    /// Take the listener out of the poller for [`ACCEPT_BACKOFF`]. Out of
    /// file descriptors, `accept` fails while the listener stays readable,
    /// so a level-triggered poll would otherwise wake at once, forever.
    fn pause_accept(&mut self) {
        if let Some(listener) = &self.listener {
            let _ = self.shared.poller.delete(listener.as_raw_fd());
            self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
        }
    }

    /// Put a paused listener back; a connection still waiting in the
    /// backlog makes it readable at once.
    fn resume_accept(&mut self) {
        let (Some(listener), Some(_)) = (&self.listener, self.accept_resume.take()) else {
            return;
        };
        let fd = listener.as_raw_fd();
        if self
            .shared
            .poller
            .add(fd, LISTENER_KEY, Interest::readable())
            .is_err()
        {
            self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = {
                let Some(listener) = &self.listener else {
                    return;
                };
                listener.accept()
            };
            match accepted {
                Ok((stream, _)) => self.register(stream),
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                // EMFILE or ENFILE (the same numbers on Linux, the BSDs and
                // macOS): out of file descriptors.
                Err(error) if matches!(error.raw_os_error(), Some(23 | 24)) => {
                    self.pause_accept();
                    break;
                }
                // Transient per-connection accept failures (e.g. the peer
                // reset before we got to it): re-poll rather than spin.
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = self.next_token;
        if self
            .shared
            .poller
            .add(stream.as_raw_fd(), token, Interest::readable())
            .is_err()
        {
            return;
        }
        self.next_token += 1;
        self.conns.insert(token, Connection::new(stream));
        self.shared.live_connections.fetch_add(1, Ordering::SeqCst);
    }

    /// Queue a finished job's reply on its connection and drive the
    /// connection. A reply for a connection already closed is dropped.
    fn complete(&mut self, token: usize, reply: Option<Reply>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.outstanding -= 1;
        if let Some(reply) = reply {
            enqueue_reply(conn, reply);
        }
        self.service(token);
    }

    /// Drive one connection's state machine as far as it will go without
    /// blocking, then re-register interest or clean it up.
    fn service(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // stale event for an already-removed conn
        };
        self.drive(token, &mut conn);
        if !conn.dead {
            if conn.out.is_empty() {
                conn.write_deadline = None;
            } else if conn.write_deadline.is_none() {
                conn.write_deadline = Some(Instant::now() + WRITE_IDLE_TIMEOUT);
            }
            self.update_interest(token, &mut conn);
        }
        if conn.dead {
            self.finalize(conn);
        } else {
            self.conns.insert(token, conn);
        }
    }

    fn drive(&mut self, token: usize, conn: &mut Connection) {
        // No queued reply byte moved for WRITE_IDLE_TIMEOUT: the client
        // has stopped reading. Checked before writing, because a full
        // socket may still take a few bytes its peer's kernel found room
        // for, which would re-arm the deadline of a client that reads
        // nothing.
        if conn.write_deadline.is_some_and(|at| Instant::now() >= at) {
            let _ = conn.stream.shutdown(Shutdown::Both);
            conn.dead = true;
            return;
        }
        flush(conn);
        if conn.dead {
            return;
        }
        self.retry_pending(token, conn);
        if conn.dead {
            return;
        }
        self.read_ready(token, conn);
        if conn.dead {
            return;
        }
        // Flush anything the read path produced (shed responses).
        flush(conn);
        if conn.dead {
            return;
        }
        try_close(conn);
    }

    /// Re-try a parked request: shed it past its deadline, admit it if the
    /// queue has space, then resume decoding any frames buffered behind it.
    fn retry_pending(&mut self, token: usize, conn: &mut Connection) {
        let Some(pending) = conn.pending.take() else {
            return;
        };
        if Instant::now() >= pending.deadline {
            self.shared.parked.fetch_sub(1, Ordering::SeqCst);
            self.shed(conn, pending.request_id);
            self.process_frames(token, conn);
            return;
        }
        match self.job_tx.try_send(pending.job) {
            Ok(()) => {
                self.shared.parked.fetch_sub(1, Ordering::SeqCst);
                self.process_frames(token, conn);
            }
            Err(TrySendError::Full(job)) => {
                conn.pending = Some(PendingJob { job, ..pending });
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.parked.fetch_sub(1, Ordering::SeqCst);
                self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                conn.outstanding -= 1;
                close_input(conn); // server shutting down
            }
        }
    }

    /// Answer a request the queue had no room for with a typed
    /// `"overloaded"` error, queued straight onto the connection's write
    /// queue (the shed never touched a worker).
    fn shed(&self, conn: &mut Connection, request_id: u64) {
        let depth = self.state.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
        conn.outstanding -= 1;
        let shed = ScoreResponse::overloaded(request_id, depth as usize);
        conn.out.push_back(OutSegment::line(encode_line(&shed)));
    }

    /// Read until the socket would block, a request parks, or the
    /// connection reaches its reply budget; decode and admit frames as they
    /// complete.
    fn read_ready(&mut self, token: usize, conn: &mut Connection) {
        while !conn.read_closed && conn.pending.is_none() && conn.backlog() < REPLY_BUDGET {
            match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => conn.read_closed = true,
                Ok(count) => {
                    conn.decoder.push(&self.scratch[..count]);
                    self.process_frames(token, conn);
                    if conn.dead {
                        return;
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        // Frames already buffered still drain (EOF tails included) once
        // the budget or the queue lets them.
        self.process_frames(token, conn);
    }

    /// Decode buffered frames into jobs until the input runs dry, a request
    /// parks on the full queue, the connection reaches its reply budget, or
    /// the connection closes.
    fn process_frames(&mut self, token: usize, conn: &mut Connection) {
        loop {
            if conn.dead || conn.pending.is_some() || conn.backlog() >= REPLY_BUDGET {
                return;
            }
            let frame = match conn.decoder.pop() {
                Some(Frame::Line(frame)) => frame,
                Some(Frame::TooLarge) => {
                    // The decoder dropped the line unread, so it has no
                    // id: answer with id 0 here, without a worker, and
                    // keep reading.
                    let reply = ScoreResponse::frame_too_large(MAX_FRAME_BYTES);
                    conn.out.push_back(OutSegment::line(encode_line(&reply)));
                    continue;
                }
                None => {
                    if !conn.read_closed {
                        return;
                    }
                    // EOF: a trailing unterminated line still counts as a
                    // request, exactly as `BufRead::lines` treated it.
                    match conn.decoder.finish() {
                        Some(frame) => frame,
                        None => return,
                    }
                }
            };
            let Ok(line) = std::str::from_utf8(&frame) else {
                // Undecodable bytes end request intake for this connection
                // (the blocking reader's `lines()` did the same); admitted
                // work still drains.
                close_input(conn);
                return;
            };
            if line.trim().is_empty() {
                continue;
            }
            let request = decode_line::<ScoreRequest>(line).map_err(|message| {
                ScoreResponse::failure(
                    salvage_request_id(line),
                    format!("invalid request: {message}"),
                )
            });
            let request_id = match &request {
                Ok(request) => request.id,
                Err(failure) => failure.id,
            };
            let job = Job {
                request,
                token,
                admitted: Instant::now(),
            };
            // Count the job before handing it over so the depth can never
            // read negative: increment → enqueue → (worker dequeues →
            // decrement). Parked jobs stay counted while they wait.
            self.state.queue_depth.fetch_add(1, Ordering::SeqCst);
            conn.outstanding += 1;
            match self.job_tx.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    if self.admission_timeout.is_zero() {
                        self.shed(conn, request_id);
                    } else {
                        conn.pending = Some(PendingJob {
                            job,
                            request_id,
                            deadline: Instant::now() + self.admission_timeout,
                        });
                        self.shared.parked.fetch_add(1, Ordering::SeqCst);
                        return;
                    }
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                    conn.outstanding -= 1;
                    close_input(conn); // server shutting down
                    return;
                }
            }
        }
    }

    fn update_interest(&self, token: usize, conn: &mut Connection) {
        let want = Interest {
            readable: !conn.read_closed && conn.pending.is_none() && conn.backlog() < REPLY_BUDGET,
            writable: !conn.out.is_empty(),
        };
        if want != conn.registered {
            match self
                .shared
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
            {
                Ok(()) => conn.registered = want,
                Err(_) => conn.dead = true,
            }
        }
    }

    /// Remove a connection: deregister, roll back any parked request's
    /// counters, and drop the state, closing the socket; replies still in
    /// flight for it are dropped when they arrive. A listener paused on fd
    /// exhaustion goes back into the poller.
    fn finalize(&mut self, mut conn: Connection) {
        let _ = self.shared.poller.delete(conn.stream.as_raw_fd());
        if conn.pending.take().is_some() {
            self.shared.parked.fetch_sub(1, Ordering::SeqCst);
            self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        }
        self.shared.live_connections.fetch_sub(1, Ordering::SeqCst);
        self.resume_accept();
    }

    /// Forced shutdown: disconnect every remaining connection and exit.
    fn teardown_all(&mut self) {
        self.close_listener();
        let conns = std::mem::take(&mut self.conns);
        for (_, conn) in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.finalize(conn);
        }
    }
}

/// Push queued reply bytes to the socket until it would block. Every write
/// that moves bytes clears the write-idle deadline.
fn flush(conn: &mut Connection) {
    while let Some(front) = conn.out.front() {
        let remaining = &front.bytes[conn.out_pos..];
        if remaining.is_empty() {
            let segment = conn.out.pop_front().expect("front checked above");
            conn.out_pos = 0;
            if segment.shutdown_after {
                // Deliberate mid-reply disconnect (chaos fault): both
                // directions down, connection removed, later replies
                // dropped with it.
                let _ = conn.stream.shutdown(Shutdown::Both);
                conn.dead = true;
                return;
            }
            continue;
        }
        match (&conn.stream).write(remaining) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(written) => {
                conn.out_pos += written;
                conn.write_deadline = None;
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Close a fully drained connection: the client hung up, every admitted
/// job has been answered, and every reply byte is on the wire.
fn try_close(conn: &mut Connection) {
    let drained = conn.read_closed
        && conn.pending.is_none()
        && conn.decoder.buffered_len() == 0
        && conn.outstanding == 0
        && conn.out.is_empty();
    if drained {
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.dead = true;
    }
}

/// Expand one reply into write-queue segments, applying its wire fault.
fn enqueue_reply(conn: &mut Connection, reply: Reply) {
    let bytes = reply.line.into_bytes();
    match reply.fault {
        // Two segments flushed with separate writes exercise the client's
        // frame reassembly; the bytes on the wire are identical.
        Some(WriteFault::Torn { split_percent }) => {
            let split = fault_offset(bytes.len(), split_percent);
            conn.out.push_back(OutSegment {
                bytes: Bytes::copy_from_slice(&bytes[..split]),
                shutdown_after: false,
            });
            conn.out.push_back(OutSegment {
                bytes: Bytes::copy_from_slice(&bytes[split..]),
                shutdown_after: false,
            });
        }
        // A torn frame with no continuation: partial bytes, then a
        // mid-request disconnect.
        Some(WriteFault::Disconnect { truncate_percent }) => {
            let cut =
                fault_offset(bytes.len(), truncate_percent).min(bytes.len().saturating_sub(1));
            conn.out.push_back(OutSegment {
                bytes: Bytes::copy_from_slice(&bytes[..cut]),
                shutdown_after: true,
            });
        }
        // Delay and Drop are applied worker-side (a sleep / no reply); a
        // reply carrying them here is flushed clean.
        None | Some(WriteFault::Delay { .. }) | Some(WriteFault::Drop) => {
            conn.out.push_back(OutSegment {
                bytes: Bytes::from(bytes),
                shutdown_after: false,
            });
        }
    }
}

/// Stop reading requests from a connection (server shutdown or undecodable
/// input) while letting its admitted work drain; any bytes still buffered
/// are discarded so they are never parsed as requests.
fn close_input(conn: &mut Connection) {
    conn.read_closed = true;
    conn.decoder = FrameDecoder::new();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::TaskKind;

    #[test]
    fn state_scores_match_direct_prepared_scoring() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let request = ScoreRequest::by_text(
            5,
            "tasks:\n  - func: producer",
            vec!["tasks:\n  - func: producer".into(), "tasks: []".into()],
        );
        let response = state.handle(&request);
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.id, 5);
        assert_eq!(response.scores.len(), 2);
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        for (hypothesis, score) in request.hypotheses.iter().zip(&response.scores) {
            assert_eq!(
                score.bleu.to_bits(),
                bleu.score(hypothesis, "tasks:\n  - func: producer")
                    .to_bits()
            );
            assert_eq!(
                score.chrf.to_bits(),
                chrf.score(hypothesis, "tasks:\n  - func: producer")
                    .to_bits()
            );
        }
    }

    #[test]
    fn state_counts_requests_hypotheses_and_cache_traffic() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let request = ScoreRequest::by_id(
            1,
            TaskKind::Configuration,
            "Henson",
            vec!["a".into(), "b".into(), "c".into()],
        );
        assert!(state.handle(&request).ok);
        assert!(state.handle(&request).ok);
        let stats = state.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.hypotheses, 6);
        assert_eq!(stats.cache_misses, 1, "reference prepared exactly once");
        assert_eq!(stats.cache_hits, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reference_cache_respects_the_configured_cap() {
        let state = ServiceState::new(&ServiceConfig {
            max_cached_references: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let score = |id, reference: &str| {
            assert!(
                state
                    .handle(&ScoreRequest::by_text(id, reference, vec!["x".into()]))
                    .ok
            );
        };
        // Inline text is kept from its second sighting.
        score(1, "ref a");
        assert_eq!(state.cache.len(), 0);
        score(2, "ref a");
        assert_eq!(state.cache.len(), 1);
        // Distinct text beyond the cap: still scored, never retained, even
        // when it repeats.
        score(3, "ref b");
        score(4, "ref b");
        score(5, "ref b");
        assert_eq!(state.cache.len(), 1);
        // The capped entry keeps hitting.
        score(6, "ref a");
        let stats = state.stats();
        assert_eq!(stats.cache_misses, 5, "a twice, uncacheable b three times");
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn state_reports_failures_without_counting_them() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let response = state.handle(&ScoreRequest::by_id(
            3,
            TaskKind::Configuration,
            "NoSuchSystem",
            vec!["x".into()],
        ));
        assert!(!response.ok);
        assert!(response.error.unwrap().contains("NoSuchSystem"));
        assert_eq!(state.stats().requests, 0);
    }

    #[test]
    fn evaluate_mode_runs_full_pipeline_bit_identically() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let reference = "henson_save_int(\"t\", t);\nhenson_yield();";
        let responses = vec![
            "Here is the code:\n```c\nhenson_put(\"t\", t);\nhenson_yield();\n```".to_owned(),
            reference.to_owned(),
        ];
        let request = ScoreRequest::evaluate_text(7, reference, "Henson", responses.clone());
        let response = state.handle(&request);
        assert!(response.ok, "{:?}", response.error);
        assert!(response.scores.is_empty());
        assert_eq!(response.evaluations.len(), 2);
        assert_eq!(
            response.evaluations[0].hallucinated,
            vec!["henson_put".to_owned()]
        );
        assert_eq!(response.evaluations[1].call_recall, 1.0);

        // Bit-identical to running the pipeline in-process.
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        let cache = ReferenceCache::default();
        let prepared = cache.get_or_prepare(&bleu, &chrf, reference);
        let profile = SystemProfile::by_name("Henson").unwrap();
        for (sent, served) in responses.iter().zip(&response.evaluations) {
            let direct = evaluate_prepared(&bleu, &chrf, &prepared, &profile, sent);
            assert_eq!(served.bleu.to_bits(), direct.bleu.to_bits());
            assert_eq!(served.chrf.to_bits(), direct.chrf.to_bits());
            assert_eq!(served.matched, direct.calls.matched);
            assert_eq!(served.missing, direct.calls.missing);
            assert_eq!(served.extra, direct.calls.extra);
            assert_eq!(served.hallucinated, direct.calls.hallucinated);
        }
    }

    #[test]
    fn evaluate_mode_requires_a_known_system() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let missing = state.handle(&ScoreRequest {
            id: 1,
            reference_text: Some("ref".into()),
            mode: "evaluate".into(),
            hypotheses: vec!["x".into()],
            ..ScoreRequest::default()
        });
        assert!(!missing.ok);
        assert!(missing.error.unwrap().contains("workflow system"));

        let unknown = state.handle(&ScoreRequest::evaluate_text(
            2,
            "ref",
            "Slurm",
            vec!["x".into()],
        ));
        assert!(!unknown.ok);
        assert!(unknown.error.unwrap().contains("Slurm"));
        assert_eq!(state.stats().requests, 0, "failures are not counted");
    }

    #[test]
    fn evaluate_via_reference_id_uses_that_system_for_the_catalogue() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let request = ScoreRequest {
            id: 3,
            reference_id: Some("annotation/Henson".into()),
            mode: "EVALUATE".into(),
            hypotheses: vec!["henson_put();".into()],
            ..ScoreRequest::default()
        };
        let response = state.handle(&request);
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(
            response.evaluations[0].hallucinated,
            vec!["henson_put".to_owned()]
        );
    }

    #[test]
    fn unknown_mode_is_rejected() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let response = state.handle(&ScoreRequest {
            id: 4,
            mode: "translate".into(),
            ..ScoreRequest::default()
        });
        assert!(!response.ok);
        assert!(response.error.unwrap().contains("translate"));
    }

    #[test]
    fn evaluate_requests_share_the_cache_with_score_requests() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let reference = "henson_yield();";
        let score = ScoreRequest::by_text(1, reference, vec!["x".into()]);
        let evaluate = ScoreRequest::evaluate_text(2, reference, "Henson", vec!["x".into()]);
        // The score request sees the inline text first, the evaluate
        // request second and keeps it; both later requests hit it.
        for request in [&score, &evaluate, &score, &evaluate] {
            assert!(state.handle(request).ok);
        }
        let stats = state.stats();
        assert_eq!(stats.cache_misses, 2, "kept from the second sighting");
        assert_eq!(stats.cache_hits, 2, "one shared preparation");
        assert_eq!(stats.requests, 4);
        assert_eq!(state.cache.len(), 1);
    }

    #[test]
    fn execute_mode_runs_artifacts_bit_identically() {
        use wfspeak_core::exec::{execute_artifact, ExecutionPipeline};
        use wfspeak_corpus::references::configuration_reference;

        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let reference = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
        let responses = vec![
            reference.to_owned(),
            "Here is the configuration:\n\ntasks:\n  - func: producer\n    nprocs: 2\n    command: ./p\n".to_owned(),
            "I cannot help with that.".to_owned(),
        ];
        let request = ScoreRequest::execute(7, "Wilkins", responses.clone());
        let response = state.handle(&request);
        assert!(response.ok, "{:?}", response.error);
        assert!(response.scores.is_empty() && response.evaluations.is_empty());
        assert_eq!(response.executions.len(), 3);
        assert_eq!(response.executions[0].runnability, 100.0);
        assert_eq!(response.executions[0].trace_fidelity, 100.0);
        assert!(response.executions[1].parsed && !response.executions[1].valid);
        assert!(!response.executions[2].parsed);

        // Bit-identical to running the pipeline in-process.
        let pipeline = ExecutionPipeline::default();
        let summary = pipeline
            .reference_summary(WorkflowSystemId::Wilkins, reference)
            .unwrap();
        for (sent, served) in responses.iter().zip(&response.executions) {
            let direct = execute_artifact(
                pipeline.sandbox(),
                WorkflowSystemId::Wilkins,
                sent,
                &summary,
            );
            assert_eq!(served.runnability.to_bits(), direct.runnability.to_bits());
            assert_eq!(
                served.trace_fidelity.to_bits(),
                direct.trace_fidelity.to_bits()
            );
            assert_eq!(
                (served.parsed, served.valid, served.ran, served.completed),
                (direct.parsed, direct.valid, direct.ran, direct.completed)
            );
            assert_eq!(served.published, direct.published);
            assert_eq!(served.received, direct.received);
            assert_eq!(served.error, direct.error);
        }
        assert_eq!(state.stats().requests, 1);
        assert_eq!(state.stats().hypotheses, 3);
    }

    #[test]
    fn execute_mode_rejects_non_executable_references_without_counting() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        // Annotation references are task codes, not configurations.
        let request = ScoreRequest {
            id: 5,
            reference_id: Some("annotation/Henson".into()),
            mode: "execute".into(),
            hypotheses: vec!["x".into()],
            ..ScoreRequest::default()
        };
        let response = state.handle(&request);
        assert!(!response.ok);
        assert!(response.error.unwrap().contains("reference"));
        assert_eq!(state.stats().requests, 0);

        let missing_system = state.handle(&ScoreRequest {
            id: 6,
            reference_text: Some("tasks: []".into()),
            mode: "execute".into(),
            ..ScoreRequest::default()
        });
        assert!(!missing_system.ok);
        assert!(missing_system.error.unwrap().contains("workflow system"));
    }

    #[test]
    fn execute_batches_beyond_the_cap_are_rejected_without_running() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let oversized =
            ScoreRequest::execute(9, "Wilkins", vec!["x".into(); MAX_EXECUTE_HYPOTHESES + 1]);
        let response = state.handle(&oversized);
        assert!(!response.ok);
        assert_eq!(response.id, 9);
        assert_eq!(response.error_kind.as_deref(), Some("request-too-large"));
        assert!(response.error.unwrap().contains("cap"));
        assert_eq!(state.stats().requests, 0, "rejected batches are uncounted");

        let at_cap = ScoreRequest::execute(10, "Wilkins", vec!["x".into(); MAX_EXECUTE_HYPOTHESES]);
        assert!(state.handle(&at_cap).ok);
    }

    #[test]
    fn evaluate_batches_beyond_the_cap_are_rejected_without_counting() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let oversized = ScoreRequest::evaluate_text(
            11,
            "henson_yield();",
            "Henson",
            vec![String::new(); MAX_SCORE_HYPOTHESES + 1],
        );
        let response = state.handle(&oversized);
        assert_eq!(response.id, 11);
        assert_eq!(response.error_kind.as_deref(), Some("request-too-large"));
        assert!(response.evaluations.is_empty());
        let stats = state.stats();
        assert_eq!((stats.requests, stats.hypotheses), (0, 0));
        assert_eq!(stats.cache_misses, 0, "refused before the cache lookup");
    }

    #[test]
    fn execute_reference_runs_are_cached_across_requests() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let request = ScoreRequest::execute(1, "Henson", vec!["x".into()]);
        assert!(state.handle(&request).ok);
        assert!(state.handle(&request).ok);
        assert_eq!(state.executor.cached_references(), 1);
    }

    fn test_job(request: ScoreRequest) -> Job {
        Job {
            request: Ok(request),
            token: 0,
            admitted: Instant::now(),
        }
    }

    #[test]
    fn expired_deadlines_are_dropped_before_scoring() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        // deadline_ms = 0 is expired the instant a worker dequeues it.
        let job = test_job(ScoreRequest::by_text(9, "ref", vec!["x".into()]).with_deadline(0));
        let response = respond_to_job(&state, &job, FaultAction::None);
        assert!(!response.ok);
        assert_eq!(response.error_kind.as_deref(), Some("deadline"));
        assert_eq!(response.id, 9);
        assert_eq!(state.stats().requests, 0, "expired jobs are never scored");
    }

    #[test]
    fn generous_deadlines_do_not_interfere_with_scoring() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let job =
            test_job(ScoreRequest::by_text(3, "ref", vec!["ref".into()]).with_deadline(60_000));
        let response = respond_to_job(&state, &job, FaultAction::None);
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.scores.len(), 1);
    }

    #[test]
    fn panicking_jobs_yield_typed_internal_errors_and_count_a_restart() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let job = test_job(ScoreRequest::by_text(4, "ref", vec!["x".into()]));
        let response = respond_to_job(&state, &job, FaultAction::WorkerPanic);
        assert!(!response.ok);
        assert_eq!(response.id, 4);
        assert_eq!(response.error_kind.as_deref(), Some("internal"));
        assert!(response.error.unwrap().contains("panicked"));
        assert_eq!(state.stats().worker_restarts, 1);

        // The pool state survives the unwind: the next job scores cleanly.
        let next = test_job(ScoreRequest::by_text(5, "ref", vec!["ref".into()]));
        let response = respond_to_job(&state, &next, FaultAction::None);
        assert!(response.ok, "{:?}", response.error);
    }

    #[test]
    fn fault_offsets_stay_within_the_line() {
        assert_eq!(fault_offset(0, 50), 0);
        assert_eq!(fault_offset(100, 0), 0);
        assert_eq!(fault_offset(100, 99), 99);
        assert_eq!(fault_offset(7, 50), 3);
    }

    #[test]
    fn invalid_fault_plans_fail_spawn_with_invalid_input() {
        let result = ScoringServer::spawn(
            "127.0.0.1:0",
            ServiceConfig {
                faults: Some(FaultPlan {
                    worker_panic_per_1024: 1024,
                    torn_frame_per_1024: 1024,
                    ..FaultPlan::chaos(0)
                }),
                ..ServiceConfig::default()
            },
        );
        let error = match result {
            Err(error) => error,
            Ok(_) => panic!("an oversubscribed fault plan must fail spawn"),
        };
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn stats_requests_do_not_inflate_request_counters() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let response = state.handle(&ScoreRequest::stats(8));
        assert!(response.ok);
        assert_eq!(response.stats.unwrap().requests, 0);
        assert_eq!(state.stats().requests, 0);
    }

    #[test]
    fn torn_replies_split_into_two_segments_with_identical_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Connection::new(stream);
        enqueue_reply(
            &mut conn,
            Reply {
                line: "0123456789\n".to_owned(),
                fault: Some(WriteFault::Torn { split_percent: 40 }),
            },
        );
        assert_eq!(conn.out.len(), 2);
        let joined: Vec<u8> = conn
            .out
            .iter()
            .flat_map(|segment| segment.bytes.iter().copied())
            .collect();
        assert_eq!(joined, b"0123456789\n");
        assert!(conn.out.iter().all(|segment| !segment.shutdown_after));

        conn.out.clear();
        enqueue_reply(
            &mut conn,
            Reply {
                line: "0123456789\n".to_owned(),
                fault: Some(WriteFault::Disconnect {
                    truncate_percent: 99,
                }),
            },
        );
        assert_eq!(conn.out.len(), 1);
        let segment = conn.out.front().unwrap();
        assert!(segment.shutdown_after);
        assert!(
            segment.bytes.len() < b"0123456789\n".len(),
            "a disconnect fault never writes the full frame"
        );
    }
}
