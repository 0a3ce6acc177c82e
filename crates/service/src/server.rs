//! The scoring server: a small set of nonblocking I/O loops multiplexing
//! every connection, feeding the shared worker pool.
//!
//! ```text
//!                 ┌──────────────────────────────────────────────────┐
//!                 │                  ScoringServer                   │
//!  client A ─TCP─▶│  I/O loop(s): epoll/poll readiness, one thread   │─▶ client A
//!  client B ─TCP─▶│  per loop, every connection a state machine      │─▶ client B
//!  client C ─TCP─▶│   [decode frames]──▶ bounded job queue ──┐       │─▶ client C
//!                 │   [flush replies]◀── completion wakeups ◀┤       │
//!                 │                                     worker pool  │
//!                 │                                     (N threads,  │
//!                 │                                      ServiceState│
//!                 │                                      + cache)    │
//!                 └──────────────────────────────────────────────────┘
//! ```
//!
//! * **I/O loops** ([`ServiceConfig::io_threads`], default 1) own the
//!   listener (loop 0) and all connection sockets, registered with the
//!   vendored [`polling`] readiness shim. Each connection is a state
//!   machine: bytes read nonblockingly are assembled into frames by a
//!   [`FrameDecoder`], parsed requests are
//!   admitted to the bounded job queue, and encoded replies are flushed
//!   back through a per-connection write queue. No thread ever blocks on
//!   one client's socket.
//! * **Admission control**: when the job queue is full, the connection
//!   *parks* the decoded request — its read interest is muted, so
//!   backpressure propagates into the client's TCP window — and retries on
//!   every queue-space wakeup until [`ServiceConfig::admission_timeout`]
//!   elapses, at which point the request is **shed** with a typed
//!   `"overloaded"` protocol error ([`ScoreResponse::overloaded`]).
//! * **The worker pool** is unchanged: a fixed set of threads dequeue jobs,
//!   enforce deadlines, run the handler under `catch_unwind`, and hand each
//!   reply to the owning connection's bounded reply channel. A client that
//!   pipelines without reading stalls its channel for
//!   [`ServiceConfig::reply_stall_timeout`] and is then disconnected. After
//!   every reply the worker pushes a completion token and wakes the
//!   connection's I/O loop to flush.
//! * All workers share one [`ReferenceCache`]: the first request against a
//!   reference prepares it (tokenise + intern + count), every later request
//!   from *any* connection reuses the prepared form. The cache is sharded
//!   internally, so concurrent workers do not serialise on one lock.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, SendTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use polling::{Event, Interest, Poller};
use wfspeak_core::eval::{evaluate_prepared, SystemProfile};
use wfspeak_core::exec::ExecutionPipeline;
use wfspeak_core::{ReferenceCache, WorkflowSystemId};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};

use crate::faults::{FaultAction, FaultInjector, FaultPlan, WriteFault};
use crate::framing::FrameDecoder;
use crate::latency::LatencyHistogram;
use crate::protocol::{
    decode_line, encode_line, salvage_request_id, EvaluationScore, ExecutionScore, HypothesisScore,
    RequestMode, ScoreRequest, ScoreResponse, ServiceStats,
};

/// Poller key reserved for the listening socket (loop 0 only).
const LISTENER_KEY: usize = usize::MAX - 1;

/// Tunables for [`ScoringServer::spawn`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Scoring worker threads. `0` means one per available core.
    pub workers: usize,
    /// Nonblocking I/O loop threads multiplexing the connections. Loop 0
    /// also owns the listener; new connections are dealt round-robin.
    /// `0` is treated as 1 — one loop comfortably drives hundreds of
    /// connections because it never blocks on any of them.
    pub io_threads: usize,
    /// Bounded job-queue depth; connections park (backpressure) when full.
    pub queue_depth: usize,
    /// Cap on distinct references kept prepared in the shared cache. The
    /// built-in corpus references always fit; the cap bounds memory when
    /// clients stream arbitrary `reference_text` values — beyond it, unseen
    /// references are prepared per request without being retained.
    pub max_cached_references: usize,
    /// How long a worker waits to hand a response to a connection whose
    /// reply buffer is full before disconnecting that client (a client that
    /// pipelines heavily but never reads would otherwise wedge the shared
    /// pool).
    pub reply_stall_timeout: std::time::Duration,
    /// Per-connection reply-buffer depth: responses queued between the
    /// worker pool and the connection's write queue.  When a client stops
    /// reading, this buffer (plus the kernel's socket buffers) is all the
    /// slack it gets before workers start hitting
    /// [`reply_stall_timeout`](ServiceConfig::reply_stall_timeout).
    pub reply_queue_depth: usize,
    /// How long a parked request waits for space in the bounded job queue
    /// before being shed with a typed `"overloaded"` error. Zero sheds
    /// immediately whenever the queue is full.
    pub admission_timeout: std::time::Duration,
    /// Maximum hypotheses per `mode: "execute"` request.  Each execution
    /// parses, validates and runs a whole workflow on the worker, so one
    /// oversized batch must not pin a shared worker; larger batches are
    /// rejected with an error and should be split across pipelined
    /// requests.
    pub max_execute_batch: usize,
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
            io_threads: 1,
            queue_depth: 256,
            max_cached_references: 4096,
            reply_stall_timeout: std::time::Duration::from_secs(10),
            reply_queue_depth: 256,
            admission_timeout: std::time::Duration::from_millis(250),
            max_execute_batch: 64,
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

    fn effective_io_threads(&self) -> usize {
        self.io_threads.max(1)
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
    max_execute_batch: usize,
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
    /// Per-request latency (admission → reply handed to the write path) in
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
            max_execute_batch: config.max_execute_batch,
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
            // Each execution is a full parse and engine run on this worker;
            // bound what one request can pin the worker with.
            if request.hypotheses.len() > self.max_execute_batch {
                return ScoreResponse::failure(
                    request.id,
                    format!(
                        "execute batch of {} exceeds the per-request cap of {}; \
                         split it across pipelined requests",
                        request.hypotheses.len(),
                        self.max_execute_batch
                    ),
                );
            }
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
        let prepared = self.cache.get_or_prepare_bounded(
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

/// One I/O loop's cross-thread mailbox: its poller (for wakeups), the
/// completion tokens workers push after answering a job, and the inbox of
/// freshly accepted sockets loop 0 deals out.
#[derive(Debug)]
struct IoLoopHandle {
    poller: Poller,
    completions: Mutex<Vec<usize>>,
    inbox: Mutex<Vec<TcpStream>>,
}

impl IoLoopHandle {
    fn new() -> std::io::Result<Self> {
        Ok(IoLoopHandle {
            poller: Poller::new()?,
            completions: Mutex::default(),
            inbox: Mutex::default(),
        })
    }
}

/// Lifecycle flags and counters shared by every I/O loop and worker.
#[derive(Debug, Default)]
struct IoShared {
    /// Stop accepting new connections (set first during shutdown).
    stop: AtomicBool,
    /// Tear down all connections and exit the I/O loops (set after drain).
    closing: AtomicBool,
    /// Connections currently registered with an I/O loop.
    live_connections: AtomicUsize,
    /// Requests parked on a full job queue across all loops; workers only
    /// broadcast queue-space wakeups while this is nonzero.
    parked: AtomicUsize,
    /// Round-robin cursor for dealing accepted sockets to loops.
    next_loop: AtomicUsize,
}

/// How a finished job finds its way back to the connection that sent it:
/// decrement the connection's outstanding-job count, push the connection's
/// token onto its I/O loop's completion list, and wake that loop to flush.
struct CompletionHandle {
    io_loop: Arc<IoLoopHandle>,
    token: usize,
    outstanding: Arc<AtomicU64>,
}

impl CompletionHandle {
    fn complete(&self) {
        // Decrement *after* the reply was pushed (or deliberately dropped):
        // an I/O loop that reads zero here can trust the reply channel to
        // already hold every reply this connection will ever get.
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        self.io_loop.completions.lock().push(self.token);
        let _ = self.io_loop.poller.notify();
    }
}

/// One unit of work for the pool: a parsed (or unparsable) request line,
/// the sender that routes the response line back to the right connection,
/// the connection's socket so a stalled connection can be disconnected, and
/// the completion handle that wakes the connection's I/O loop afterwards.
struct Job {
    request: Result<ScoreRequest, ScoreResponse>,
    reply: Sender<Reply>,
    peer: Arc<TcpStream>,
    /// When the I/O loop admitted this job; the worker checks the
    /// request's `deadline_ms` against it before scoring.
    admitted: Instant,
    completion: CompletionHandle,
}

/// One response line on its way to a connection's write queue, plus the
/// write-path fault (if any) the flusher must apply to it.
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

/// Per-connection state machine.
struct Connection {
    stream: TcpStream,
    /// Blocking clone handed to workers so a reply-stall can disconnect.
    peer: Arc<TcpStream>,
    decoder: FrameDecoder,
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
    out: VecDeque<OutSegment>,
    /// Bytes of `out.front()` already written.
    out_pos: usize,
    pending: Option<PendingJob>,
    /// Jobs admitted from this connection whose replies have not yet been
    /// pushed (or deliberately dropped) by a worker.
    outstanding: Arc<AtomicU64>,
    /// The client half-closed (EOF) or sent bytes we refuse to parse; no
    /// more requests will be read, but queued work still drains.
    read_closed: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// Marked for removal (error, deliberate disconnect, or fully drained).
    dead: bool,
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
    loops: Vec<Arc<IoLoopHandle>>,
    io_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    drain_timeout: Duration,
}

impl ScoringServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the I/O
    /// loops plus the worker pool.
    pub fn spawn(addr: impl ToSocketAddrs, config: ServiceConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = ServiceState::new(&config)
            .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidInput, message))?;
        let state = Arc::new(state);
        let shared = Arc::new(IoShared::default());

        let loops = (0..config.effective_io_threads())
            .map(|_| IoLoopHandle::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;

        let (job_tx, job_rx) = bounded::<Job>(config.queue_depth.max(1));
        // The vendored channel's receiver is single-consumer; workers take
        // turns holding the lock while blocked in `recv`, which serialises
        // dequeueing only — scoring itself runs in parallel.
        let job_rx = Arc::new(Mutex::new(job_rx));

        let worker_handles = (0..config.effective_workers())
            .map(|_| {
                let state = Arc::clone(&state);
                let job_rx = Arc::clone(&job_rx);
                let shared = Arc::clone(&shared);
                let loops = loops.clone();
                let stall_timeout = config.reply_stall_timeout;
                std::thread::spawn(move || {
                    worker_loop(&state, &job_rx, stall_timeout, &shared, &loops)
                })
            })
            .collect();

        let mut listener = Some(listener);
        let io_handles = (0..loops.len())
            .map(|index| {
                let ctx = LoopCtx {
                    index,
                    handle: Arc::clone(&loops[index]),
                    loops: loops.clone(),
                    shared: Arc::clone(&shared),
                    state: Arc::clone(&state),
                    job_tx: job_tx.clone(),
                    listener: if index == 0 { listener.take() } else { None },
                    conns: HashMap::new(),
                    next_token: 0,
                    reply_depth: config.reply_queue_depth.max(1),
                    admission_timeout: config.admission_timeout,
                    scratch: vec![0u8; 16 * 1024],
                };
                std::thread::spawn(move || ctx.run())
            })
            .collect();

        Ok(ScoringServer {
            addr,
            state,
            shared,
            loops,
            io_handles,
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

    /// Connections currently registered with the I/O loops. Returns to zero
    /// once every client has disconnected and been cleaned up — the
    /// overload regression tests pin that no shed or lost connection leaks
    /// an entry.
    pub fn live_connections(&self) -> usize {
        self.shared.live_connections.load(Ordering::SeqCst)
    }

    /// Block the calling thread for the server's lifetime (the I/O loops
    /// only exit on shutdown). `repro serve` parks on this.
    pub fn wait(mut self) {
        for handle in self.io_handles.drain(..) {
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
        for handle in &self.loops {
            let _ = handle.poller.notify();
        }
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
        // Brief grace so the I/O loops can flush replies that are queued
        // but not yet on the wire; best-effort only — the force-disconnect
        // below is the correctness backstop.
        std::thread::sleep(Duration::from_millis(20).min(self.drain_timeout));
        // Force-disconnect clients that have not hung up: the loops tear
        // down their connection tables and exit, dropping the last job
        // senders so workers drain the queue and observe disconnect.
        self.shared.closing.store(true, Ordering::SeqCst);
        for handle in &self.loops {
            let _ = handle.poller.notify();
        }
        for handle in self.io_handles.drain(..) {
            let _ = handle.join();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ScoringServer {
    fn drop(&mut self) {
        if !self.io_handles.is_empty() {
            self.stop_and_join();
        }
    }
}

fn worker_loop(
    state: &ServiceState,
    jobs: &Mutex<Receiver<Job>>,
    stall_timeout: std::time::Duration,
    shared: &IoShared,
    loops: &[Arc<IoLoopHandle>],
) {
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
        // This dequeue freed a queue slot; wake the I/O loops if any
        // connection is parked waiting for one.
        if shared.parked.load(Ordering::SeqCst) > 0 {
            for handle in loops {
                let _ = handle.poller.notify();
            }
        }
        // One schedule draw per dequeued job: the Nth job a server handles
        // always gets the Nth fault decision, so chaos runs replay.
        let action = state
            .injector
            .as_ref()
            .map_or(FaultAction::None, FaultInjector::next_action);
        let response = respond_to_job(state, &job, action);
        let line = encode_line(&response);
        // A disconnected error means the connection is gone (client hung up
        // mid-flight); the response is dropped, matching TCP semantics. A
        // timeout means the client's reply buffer stayed full for the whole
        // stall window — it is pipelining without reading — so disconnect
        // it rather than let one slow reader wedge the shared pool.
        let outcome = match action.write_fault() {
            // The response evaporates; clients need deadlines + retries.
            Some(WriteFault::Drop) => Ok(()),
            Some(WriteFault::Delay { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                job.reply
                    .send_timeout(Reply { line, fault: None }, stall_timeout)
            }
            // Torn/disconnect faults reshape the bytes on the wire; the
            // connection's write path applies them at flush time.
            fault => job.reply.send_timeout(Reply { line, fault }, stall_timeout),
        };
        if let Err(SendTimeoutError::Timeout) = outcome {
            let _ = job.peer.shutdown(Shutdown::Both);
        }
        state.latency.record(job.admitted.elapsed());
        job.completion.complete();
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

/// Everything one I/O loop thread owns: its registered connections, the
/// shared handles, and the listener (loop 0 only).
struct LoopCtx {
    index: usize,
    handle: Arc<IoLoopHandle>,
    loops: Vec<Arc<IoLoopHandle>>,
    shared: Arc<IoShared>,
    state: Arc<ServiceState>,
    job_tx: Sender<Job>,
    listener: Option<TcpListener>,
    conns: HashMap<usize, Connection>,
    next_token: usize,
    reply_depth: usize,
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
                .handle
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
            let _ = self.handle.poller.wait(&mut events, timeout);
            if self.shared.closing.load(Ordering::SeqCst) {
                break;
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                self.close_listener();
            }
            self.drain_inbox();
            let completions: Vec<usize> = std::mem::take(&mut *self.handle.completions.lock());
            for event in events.drain(..) {
                if event.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.service(event.key);
                }
            }
            for token in completions {
                self.service(token);
            }
            // Parked requests retry on every wake: queue-space broadcasts,
            // completions and deadline timeouts all land here.
            let parked: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, conn)| conn.pending.is_some())
                .map(|(token, _)| *token)
                .collect();
            for token in parked {
                self.service(token);
            }
        }
        self.teardown_all();
    }

    /// The next `wait` parks until I/O, a wakeup, or the earliest parked
    /// request's admission deadline.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .values()
            .filter_map(|conn| conn.pending.as_ref())
            .map(|pending| pending.deadline.saturating_duration_since(now))
            .min()
    }

    fn close_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.handle.poller.delete(listener.as_raw_fd());
        }
    }

    fn drain_inbox(&mut self) {
        let incoming: Vec<TcpStream> = std::mem::take(&mut *self.handle.inbox.lock());
        for stream in incoming {
            self.register(stream);
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
                Ok((stream, _)) => {
                    let target =
                        self.shared.next_loop.fetch_add(1, Ordering::Relaxed) % self.loops.len();
                    if target == self.index {
                        self.register(stream);
                    } else {
                        self.loops[target].inbox.lock().push(stream);
                        let _ = self.loops[target].poller.notify();
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (e.g. the peer
                // reset before we got to it): re-poll rather than spin.
                Err(_) => break,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        if self.shared.closing.load(Ordering::SeqCst) {
            return; // dropped: accepted moments before teardown
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let Ok(peer) = stream.try_clone() else { return };
        let token = self.next_token;
        if self
            .handle
            .poller
            .add(stream.as_raw_fd(), token, Interest::readable())
            .is_err()
        {
            return;
        }
        self.next_token += 1;
        let (reply_tx, reply_rx) = bounded::<Reply>(self.reply_depth);
        self.conns.insert(
            token,
            Connection {
                stream,
                peer: Arc::new(peer),
                decoder: FrameDecoder::new(),
                reply_tx,
                reply_rx,
                out: VecDeque::new(),
                out_pos: 0,
                pending: None,
                outstanding: Arc::new(AtomicU64::new(0)),
                read_closed: false,
                registered: Interest::readable(),
                dead: false,
            },
        );
        self.shared.live_connections.fetch_add(1, Ordering::SeqCst);
    }

    /// Drive one connection's state machine as far as it will go without
    /// blocking, then re-register interest or clean it up.
    fn service(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // stale completion/event for an already-removed conn
        };
        self.drive(token, &mut conn);
        if !conn.dead {
            self.update_interest(token, &mut conn);
        }
        if conn.dead {
            self.finalize(conn);
        } else {
            self.conns.insert(token, conn);
        }
    }

    fn drive(&mut self, token: usize, conn: &mut Connection) {
        self.pump_and_flush(conn);
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
        self.pump_and_flush(conn);
        if conn.dead {
            return;
        }
        self.try_close(conn);
    }

    /// Move replies from the worker-facing channel into the write queue and
    /// push queued bytes to the socket until it would block. Replies are
    /// pumped one at a time — only when the queue is empty — so the bounded
    /// reply channel stays the backpressure point the stall timeout watches.
    fn pump_and_flush(&mut self, conn: &mut Connection) {
        loop {
            if conn.out.is_empty() {
                match conn.reply_rx.try_recv() {
                    Ok(reply) => enqueue_reply(conn, reply),
                    Err(_) => break, // empty: nothing more to write now
                }
            }
            let Some(front) = conn.out.front() else { break };
            let remaining = &front.bytes[conn.out_pos..];
            if remaining.is_empty() {
                let segment = conn.out.pop_front().expect("front checked above");
                conn.out_pos = 0;
                if segment.shutdown_after {
                    // Deliberate mid-reply disconnect (chaos fault): both
                    // directions down, connection removed, later replies
                    // dropped at the disconnected channel.
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
                Ok(written) => conn.out_pos += written,
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Re-try a parked request: shed it past its deadline, admit it if the
    /// queue has space, then resume decoding any frames buffered behind it.
    fn retry_pending(&mut self, token: usize, conn: &mut Connection) {
        let Some(pending) = &conn.pending else { return };
        let request_id = pending.request_id;
        let deadline = pending.deadline;
        if Instant::now() >= deadline {
            let pending = conn.pending.take().expect("pending checked above");
            self.shared.parked.fetch_sub(1, Ordering::SeqCst);
            drop(pending.job);
            self.shed(conn, request_id);
            self.process_frames(token, conn);
            return;
        }
        let pending = conn.pending.take().expect("pending checked above");
        match self.job_tx.try_send(pending.job) {
            Ok(()) => {
                self.shared.parked.fetch_sub(1, Ordering::SeqCst);
                self.process_frames(token, conn);
            }
            Err(TrySendError::Full(job)) => {
                conn.pending = Some(PendingJob {
                    job,
                    request_id,
                    deadline,
                });
            }
            Err(TrySendError::Disconnected(job)) => {
                self.shared.parked.fetch_sub(1, Ordering::SeqCst);
                self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
                conn.outstanding.fetch_sub(1, Ordering::SeqCst);
                drop(job);
                close_input(conn); // server shutting down
            }
        }
    }

    /// Answer a request the queue had no room for with a typed
    /// `"overloaded"` error, queued straight onto the connection's write
    /// queue (the shed never touched a worker).
    fn shed(&self, conn: &mut Connection, request_id: u64) {
        let depth = self.state.queue_depth.fetch_sub(1, Ordering::SeqCst) - 1;
        conn.outstanding.fetch_sub(1, Ordering::SeqCst);
        let shed = ScoreResponse::overloaded(request_id, depth as usize);
        conn.out.push_back(OutSegment::line(encode_line(&shed)));
    }

    /// Read until the socket would block, a request parks, or the write
    /// backlog says to stop; decode and admit frames as they complete.
    fn read_ready(&mut self, token: usize, conn: &mut Connection) {
        if conn.read_closed || conn.pending.is_some() {
            // Still drain frames already buffered (EOF tails included).
            self.process_frames(token, conn);
            return;
        }
        loop {
            match (&conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(count) => {
                    let chunk = &self.scratch[..count];
                    conn.decoder.push(chunk);
                    self.process_frames(token, conn);
                    if conn.dead || conn.pending.is_some() || conn.read_closed {
                        break;
                    }
                    // Backpressure: a client flooding faster than it reads
                    // (e.g. shed storms) must not grow the write queue
                    // without bound.
                    if conn.out.len() >= self.reply_depth {
                        break;
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
        self.process_frames(token, conn);
    }

    /// Decode buffered frames into jobs until the input runs dry, a request
    /// parks on the full queue, or the connection closes.
    fn process_frames(&mut self, token: usize, conn: &mut Connection) {
        loop {
            if conn.dead || conn.pending.is_some() {
                return;
            }
            let frame = match conn.decoder.next_frame() {
                Some(frame) => frame,
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
                reply: conn.reply_tx.clone(),
                peer: Arc::clone(&conn.peer),
                admitted: Instant::now(),
                completion: CompletionHandle {
                    io_loop: Arc::clone(&self.handle),
                    token,
                    outstanding: Arc::clone(&conn.outstanding),
                },
            };
            // Count the job before handing it over so the depth can never
            // read negative: increment → enqueue → (worker dequeues →
            // decrement). Parked jobs stay counted while they wait, exactly
            // as the blocking reader counted them across `send_timeout`.
            self.state.queue_depth.fetch_add(1, Ordering::SeqCst);
            conn.outstanding.fetch_add(1, Ordering::SeqCst);
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
                    conn.outstanding.fetch_sub(1, Ordering::SeqCst);
                    close_input(conn); // server shutting down
                    return;
                }
            }
        }
    }

    /// Close a fully drained connection: the client hung up, every admitted
    /// job has been answered, and every reply byte is on the wire.
    fn try_close(&mut self, conn: &mut Connection) {
        let input_done =
            conn.read_closed && conn.pending.is_none() && conn.decoder.buffered_len() == 0;
        if !input_done {
            return;
        }
        // Reading `outstanding == 0` *before* pumping means every reply this
        // connection will ever get is already in the channel (workers push
        // the reply before decrementing), so the pump below drains all of it.
        if conn.outstanding.load(Ordering::SeqCst) != 0 {
            return;
        }
        self.pump_and_flush(conn);
        if conn.dead {
            return;
        }
        if conn.out.is_empty() {
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.dead = true;
        }
    }

    fn update_interest(&self, token: usize, conn: &mut Connection) {
        let want = Interest {
            readable: !conn.read_closed
                && conn.pending.is_none()
                && conn.out.len() < self.reply_depth,
            writable: !conn.out.is_empty(),
        };
        if want != conn.registered {
            match self
                .handle
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
            {
                Ok(()) => conn.registered = want,
                Err(_) => conn.dead = true,
            }
        }
    }

    /// Remove a connection: deregister, roll back any parked request's
    /// counters, and drop the state (closing the socket and disconnecting
    /// the reply channel, so in-flight workers drop their replies).
    fn finalize(&mut self, mut conn: Connection) {
        let _ = self.handle.poller.delete(conn.stream.as_raw_fd());
        if let Some(pending) = conn.pending.take() {
            self.shared.parked.fetch_sub(1, Ordering::SeqCst);
            self.state.queue_depth.fetch_sub(1, Ordering::SeqCst);
            conn.outstanding.fetch_sub(1, Ordering::SeqCst);
            drop(pending.job);
        }
        self.shared.live_connections.fetch_sub(1, Ordering::SeqCst);
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
        assert!(
            state
                .handle(&ScoreRequest::by_text(1, "ref a", vec!["x".into()]))
                .ok
        );
        // Distinct text beyond the cap: still scored, never retained.
        assert!(
            state
                .handle(&ScoreRequest::by_text(2, "ref b", vec!["x".into()]))
                .ok
        );
        assert!(
            state
                .handle(&ScoreRequest::by_text(3, "ref b", vec!["x".into()]))
                .ok
        );
        // The capped entry keeps hitting.
        assert!(
            state
                .handle(&ScoreRequest::by_text(4, "ref a", vec!["x".into()]))
                .ok
        );
        let stats = state.stats();
        assert_eq!(stats.cache_misses, 3, "a once, uncacheable b twice");
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
        assert!(
            state
                .handle(&ScoreRequest::by_text(1, reference, vec!["x".into()]))
                .ok
        );
        assert!(
            state
                .handle(&ScoreRequest::evaluate_text(
                    2,
                    reference,
                    "Henson",
                    vec!["x".into()]
                ))
                .ok
        );
        let stats = state.stats();
        assert_eq!(stats.cache_misses, 1, "one shared preparation");
        assert_eq!(stats.cache_hits, 1, "the evaluate request hit it");
        assert_eq!(stats.requests, 2);
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
        let state = ServiceState::new(&ServiceConfig {
            max_execute_batch: 2,
            ..ServiceConfig::default()
        })
        .unwrap();
        let oversized = ScoreRequest::execute(9, "Wilkins", vec!["x".into(); 3]);
        let response = state.handle(&oversized);
        assert!(!response.ok);
        assert!(response.error.unwrap().contains("cap"));
        assert_eq!(state.stats().requests, 0, "rejected batches are uncounted");

        let at_cap = ScoreRequest::execute(10, "Wilkins", vec!["x".into(); 2]);
        assert!(state.handle(&at_cap).ok);
    }

    #[test]
    fn execute_reference_runs_are_cached_across_requests() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let request = ScoreRequest::execute(1, "Henson", vec!["x".into()]);
        assert!(state.handle(&request).ok);
        assert!(state.handle(&request).ok);
        assert_eq!(state.executor.cached_references(), 1);
    }

    /// A connected-but-idle loopback socket for building test [`Job`]s.
    fn loopback_peer() -> Arc<TcpStream> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _accepted = listener.accept().unwrap();
        Arc::new(stream)
    }

    fn test_completion() -> CompletionHandle {
        CompletionHandle {
            io_loop: Arc::new(IoLoopHandle::new().unwrap()),
            token: 0,
            outstanding: Arc::new(AtomicU64::new(1)),
        }
    }

    fn test_job(request: ScoreRequest, reply: Sender<Reply>) -> Job {
        Job {
            request: Ok(request),
            reply,
            peer: loopback_peer(),
            admitted: Instant::now(),
            completion: test_completion(),
        }
    }

    #[test]
    fn expired_deadlines_are_dropped_before_scoring() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let (reply_tx, _reply_rx) = bounded::<Reply>(1);
        // deadline_ms = 0 is expired the instant a worker dequeues it.
        let job = test_job(
            ScoreRequest::by_text(9, "ref", vec!["x".into()]).with_deadline(0),
            reply_tx,
        );
        let response = respond_to_job(&state, &job, FaultAction::None);
        assert!(!response.ok);
        assert_eq!(response.error_kind.as_deref(), Some("deadline"));
        assert_eq!(response.id, 9);
        assert_eq!(state.stats().requests, 0, "expired jobs are never scored");
    }

    #[test]
    fn generous_deadlines_do_not_interfere_with_scoring() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let (reply_tx, _reply_rx) = bounded::<Reply>(1);
        let job = test_job(
            ScoreRequest::by_text(3, "ref", vec!["ref".into()]).with_deadline(60_000),
            reply_tx,
        );
        let response = respond_to_job(&state, &job, FaultAction::None);
        assert!(response.ok, "{:?}", response.error);
        assert_eq!(response.scores.len(), 1);
    }

    #[test]
    fn panicking_jobs_yield_typed_internal_errors_and_count_a_restart() {
        let state = ServiceState::new(&ServiceConfig::default()).unwrap();
        let (reply_tx, _reply_rx) = bounded::<Reply>(2);
        let job = test_job(
            ScoreRequest::by_text(4, "ref", vec!["x".into()]),
            reply_tx.clone(),
        );
        let response = respond_to_job(&state, &job, FaultAction::WorkerPanic);
        assert!(!response.ok);
        assert_eq!(response.id, 4);
        assert_eq!(response.error_kind.as_deref(), Some("internal"));
        assert!(response.error.unwrap().contains("panicked"));
        assert_eq!(state.stats().worker_restarts, 1);

        // The pool state survives the unwind: the next job scores cleanly.
        let next = test_job(
            ScoreRequest::by_text(5, "ref", vec!["ref".into()]),
            reply_tx,
        );
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
    fn io_thread_zero_is_clamped_to_one_loop() {
        let config = ServiceConfig {
            io_threads: 0,
            ..ServiceConfig::default()
        };
        assert_eq!(config.effective_io_threads(), 1);
        assert_eq!(
            ServiceConfig {
                io_threads: 4,
                ..ServiceConfig::default()
            }
            .effective_io_threads(),
            4
        );
    }

    #[test]
    fn torn_replies_split_into_two_segments_with_identical_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let peer = Arc::new(stream.try_clone().unwrap());
        let (reply_tx, reply_rx) = bounded::<Reply>(1);
        let mut conn = Connection {
            stream,
            peer,
            decoder: FrameDecoder::new(),
            reply_tx,
            reply_rx,
            out: VecDeque::new(),
            out_pos: 0,
            pending: None,
            outstanding: Arc::new(AtomicU64::new(0)),
            read_closed: false,
            registered: Interest::readable(),
            dead: false,
        };
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
