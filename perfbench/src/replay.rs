//! In-process replays of a service workload's request lines.
//!
//! A replay takes the exact bytes the load generator sends through the
//! service's public pieces in the order the server uses them: frame
//! assembly (`FrameDecoder`), `decode_line::<ScoreRequest>`, the request
//! handler, and `encode_line` for the reply. The handler is either the
//! composed pipeline of [`crate::trace`] (traced or not) or the real
//! `execute_artifact` / `evaluate_prepared` calls, each timed. Every reply
//! line must hash to the expected line the server itself had to send.

use std::sync::Arc;
use std::time::Instant;

use wfspeak_core::{
    evaluate_prepared, execute_artifact, ExecutionPipeline, PreparedPair, ReferenceCache,
    SystemProfile, WorkflowSystemId,
};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_service::protocol::{decode_line, encode_line};
use wfspeak_service::{
    EvaluationScore, ExecutionScore, FrameDecoder, HypothesisScore, RequestMode, ScoreRequest,
    ScoreResponse, ServiceConfig,
};

use crate::inputs::{reply_parts, request_line, Pool};
use crate::trace::{compose_evaluate, compose_execute, Counts, Mode, Recorder};
use crate::util::fnv;

/// Bytes handed to the frame decoder per push (the server's read size).
const CHUNK: usize = 16 * 1024;

/// A reference-cache lookup as a span: `metrics.prepare` when it missed
/// (the lookup then prepared and inserted the reference), else
/// `core.reference_cache.lookup`.
pub fn lookup(
    rec: &mut Recorder,
    cache: &ReferenceCache,
    bleu: &BleuScorer,
    chrf: &ChrfScorer,
    reference: &str,
    cap: usize,
) -> Arc<PreparedPair> {
    let misses = cache.stats().misses;
    let start = rec.start();
    let prepared = cache.get_or_prepare_bounded(bleu, chrf, reference, cap);
    let missed = cache.stats().misses > misses;
    rec.leaf(
        if missed {
            "metrics.prepare"
        } else {
            "core.reference_cache.lookup"
        },
        start,
    );
    prepared
}

/// The state a server's workers share, rebuilt for each replay so every
/// replay starts from the same cold caches.
pub struct Replayer {
    bleu: BleuScorer,
    chrf: ChrfScorer,
    cache: ReferenceCache,
    executor: ExecutionPipeline,
    cap: usize,
    pub rec: Recorder,
    pub counts: Counts,
    /// Real handler: summed duration of the real per-response calls.
    pub real_execute_ns: u64,
    pub real_evaluate_ns: u64,
    /// Real handler: decode + handle + encode time of each request, in
    /// microseconds, in request order.
    pub work_us: Vec<f64>,
    /// Replies whose hash differed from the expected line.
    pub mismatches: u64,
}

impl Replayer {
    pub fn new(mode: Mode, epoch: Instant) -> Replayer {
        let config = ServiceConfig::default();
        Replayer {
            bleu: BleuScorer::default(),
            chrf: ChrfScorer::default(),
            cache: ReferenceCache::default(),
            executor: ExecutionPipeline::default().with_cache_cap(config.max_cached_references),
            cap: config.max_cached_references,
            rec: Recorder::new(mode.traced(), epoch),
            counts: Counts::default(),
            real_execute_ns: 0,
            real_evaluate_ns: 0,
            work_us: Vec::new(),
            mismatches: 0,
        }
    }

    /// Send the warm-up requests through the real handler, as the server's
    /// warm-up pass does, then forget everything but the warm caches.
    pub fn warm(&mut self, requests: &Pool) {
        self.replay(requests, requests.len(), Mode::Real);
        self.rec.spans.clear();
        self.real_execute_ns = 0;
        self.real_evaluate_ns = 0;
        self.work_us.clear();
    }

    /// Replay the first `count` requests a phase sends from `pool` as one
    /// byte stream; returns the wall time.
    pub fn replay(&mut self, pool: &Pool, count: usize, mode: Mode) -> f64 {
        let mut stream = Vec::new();
        let mut line = Vec::new();
        for k in 0..count {
            request_line(&mut line, k as u64 + 1, &pool.get(k).body);
            stream.extend_from_slice(&line);
        }
        let started = Instant::now();
        let mut decoder = FrameDecoder::new();
        let mut next = 0;
        for chunk in stream.chunks(CHUNK) {
            let start = self.rec.start();
            decoder.push(chunk);
            self.rec.leaf("service.frame", start);
            loop {
                let start = self.rec.start();
                let frame = decoder.next_frame();
                self.rec.leaf("service.frame", start);
                let Some(frame) = frame else { break };
                let expected = pool.get(next).expected;
                next += 1;
                self.rec.set_request(next as u64);
                let line = std::str::from_utf8(&frame).expect("request lines are UTF-8");
                let reply = match mode {
                    Mode::Composed { .. } => self.composed(line),
                    Mode::Real => self.real(line),
                };
                let body = reply_parts(reply.as_bytes()).map(|(_, body)| fnv(body));
                if body != Some(expected) {
                    self.mismatches += 1;
                }
            }
        }
        started.elapsed().as_secs_f64()
    }

    fn composed(&mut self, line: &str) -> String {
        self.rec.enter("service.request");
        let request = self.rec.time("service.decode_request", || {
            decode_line::<ScoreRequest>(line)
        });
        let response = match request {
            Ok(request) => self.compose_handle(&request),
            Err(message) => ScoreResponse::failure(0, message),
        };
        let reply = self
            .rec
            .time("service.encode_response", || encode_line(&response));
        self.rec.exit();
        reply
    }

    fn real(&mut self, line: &str) -> String {
        let started = Instant::now();
        let response = match decode_line::<ScoreRequest>(line) {
            Ok(request) => self.real_handle(&request),
            Err(message) => ScoreResponse::failure(0, message),
        };
        let reply = encode_line(&response);
        self.work_us.push(started.elapsed().as_secs_f64() * 1e6);
        reply
    }

    /// Resolve what the server resolves before any work: mode, reference
    /// text and (for evaluate/execute) the workflow system.
    fn resolve(
        request: &ScoreRequest,
    ) -> Result<(RequestMode, &str, Option<WorkflowSystemId>), String> {
        let mode = request.resolve_mode()?;
        let reference = request
            .resolve_reference()?
            .ok_or_else(|| "the benchmark sends no stats requests".to_owned())?;
        let system = match mode {
            RequestMode::Score => None,
            _ => Some(
                request
                    .resolve_system_name()
                    .and_then(WorkflowSystemId::from_name)
                    .ok_or_else(|| "request names no known system".to_owned())?,
            ),
        };
        Ok((mode, reference, system))
    }

    fn compose_handle(&mut self, request: &ScoreRequest) -> ScoreResponse {
        let (mode, reference, system) = match Self::resolve(request) {
            Ok(resolved) => resolved,
            Err(message) => return ScoreResponse::failure(request.id, message),
        };
        if let (RequestMode::Execute, Some(system)) = (mode, system) {
            let summary = match self.executor.reference_summary(system, reference) {
                Ok(summary) => summary,
                Err(message) => return ScoreResponse::failure(request.id, message),
            };
            let executions = request
                .hypotheses
                .iter()
                .map(|response| {
                    ExecutionScore::from_execution(&compose_execute(
                        &mut self.rec,
                        &mut self.counts,
                        self.executor.sandbox(),
                        system,
                        response,
                        &summary,
                    ))
                })
                .collect();
            return ScoreResponse::executed(request.id, executions);
        }
        let prepared = lookup(
            &mut self.rec,
            &self.cache,
            &self.bleu,
            &self.chrf,
            reference,
            self.cap,
        );
        match system.map(SystemProfile::for_system) {
            None => {
                let scores = request
                    .hypotheses
                    .iter()
                    .map(|hypothesis| HypothesisScore {
                        bleu: self.rec.time("metrics.bleu", || {
                            self.bleu.score_prepared(hypothesis, &prepared.bleu)
                        }),
                        chrf: self.rec.time("metrics.chrf", || {
                            self.chrf.score_prepared(hypothesis, &prepared.chrf)
                        }),
                    })
                    .collect();
                ScoreResponse::success(request.id, scores)
            }
            Some(profile) => {
                let evaluations = request
                    .hypotheses
                    .iter()
                    .map(|response| {
                        EvaluationScore::from_evaluation(&compose_evaluate(
                            &mut self.rec,
                            &mut self.counts,
                            &self.bleu,
                            &self.chrf,
                            &prepared,
                            &profile,
                            response,
                        ))
                    })
                    .collect();
                ScoreResponse::evaluated(request.id, evaluations)
            }
        }
    }

    fn real_handle(&mut self, request: &ScoreRequest) -> ScoreResponse {
        let (mode, reference, system) = match Self::resolve(request) {
            Ok(resolved) => resolved,
            Err(message) => return ScoreResponse::failure(request.id, message),
        };
        if let (RequestMode::Execute, Some(system)) = (mode, system) {
            let summary = match self.executor.reference_summary(system, reference) {
                Ok(summary) => summary,
                Err(message) => return ScoreResponse::failure(request.id, message),
            };
            let mut executions = Vec::new();
            for response in &request.hypotheses {
                let started = Instant::now();
                let score = execute_artifact(self.executor.sandbox(), system, response, &summary);
                self.real_execute_ns += started.elapsed().as_nanos() as u64;
                executions.push(ExecutionScore::from_execution(&score));
            }
            return ScoreResponse::executed(request.id, executions);
        }
        let prepared = self
            .cache
            .get_or_prepare_bounded(&self.bleu, &self.chrf, reference, self.cap);
        match system.map(SystemProfile::for_system) {
            None => {
                let scores = request
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
                let mut evaluations = Vec::new();
                for response in &request.hypotheses {
                    let started = Instant::now();
                    let evaluation =
                        evaluate_prepared(&self.bleu, &self.chrf, &prepared, &profile, response);
                    self.real_evaluate_ns += started.elapsed().as_nanos() as u64;
                    evaluations.push(EvaluationScore::from_evaluation(&evaluation));
                }
                ScoreResponse::evaluated(request.id, evaluations)
            }
        }
    }
}
