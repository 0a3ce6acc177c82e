//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Every line the client writes is one [`ScoreRequest`]; every line the
//! server writes back is one [`ScoreResponse`]. Requests carry a client
//! chosen `id` that is echoed verbatim in the response, so a client may
//! pipeline many requests on one connection and match responses out of
//! order (the worker pool does not guarantee completion order).
//!
//! A request names its reference either
//!
//! * **by id** — `task` + `system` (or the combined `reference_id` form
//!   `"task/system"`) select one of the paper's ground-truth artifacts,
//!   which the server caches in prepared form across *all* connections; or
//! * **by text** — `reference_text` carries an arbitrary reference, which is
//!   prepared through the same shared cache (repeat texts hit).
//!
//! A request's `mode` selects how hypotheses are processed: plain BLEU/ChrF
//! scoring (the default); `"evaluate"` — the full pipeline that strips
//! each raw model response down to its code payload, compares its API calls
//! against the reference (missing / extra / hallucinated) and then scores
//! it, answering with [`EvaluationScore`]s; or `"execute"` — dynamic
//! execution that parses each response's configuration into a workflow
//! spec, *runs* it on the runtime engine under a bounded sandbox and scores
//! runnability plus trace fidelity against the reference artifact's run,
//! answering with [`ExecutionScore`]s.
//!
//! The special task `"stats"` returns a [`ServiceStats`] snapshot instead of
//! scores.

use serde::{Deserialize, Serialize};
use wfspeak_corpus::references::{
    annotation_reference, configuration_reference, execution_reference, translation_reference,
};
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_metrics::CacheStats;

/// Default listen address for `repro serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// The experiment namespace a reference id lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Workflow configuration references (Table 1 systems).
    Configuration,
    /// Annotated producer task codes (Table 2 systems).
    Annotation,
    /// Translation targets (Table 3; identical to annotation references).
    Translation,
    /// Dynamic-execution references: the configuration file where one
    /// exists, the annotated producer code for Parsl/PyCOMPSs.  Every
    /// system resolves.
    Execution,
    /// Server statistics snapshot; carries no reference or hypotheses.
    Stats,
}

impl TaskKind {
    /// Parse a task name case-insensitively.
    pub fn parse(task: &str) -> Option<TaskKind> {
        match task.to_ascii_lowercase().as_str() {
            "configuration" | "config" => Some(TaskKind::Configuration),
            "annotation" | "annotate" => Some(TaskKind::Annotation),
            "translation" | "translate" => Some(TaskKind::Translation),
            "execution" | "execute" => Some(TaskKind::Execution),
            "stats" => Some(TaskKind::Stats),
            _ => None,
        }
    }

    /// The canonical wire name.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Configuration => "configuration",
            TaskKind::Annotation => "annotation",
            TaskKind::Translation => "translation",
            TaskKind::Execution => "execution",
            TaskKind::Stats => "stats",
        }
    }
}

/// How the server processes a request's hypotheses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestMode {
    /// BLEU/ChrF only — hypotheses arrive pre-extracted (the default).
    Score,
    /// The full pipeline: each hypothesis is a *raw model response* taken
    /// through code extraction → API-call comparison → BLEU/ChrF.
    Evaluate,
    /// Dynamic execution: each hypothesis is a raw model response whose
    /// extracted configuration is parsed into a workflow spec and *run* on
    /// the runtime engine, scored against the reference artifact's run.
    Execute,
}

/// One scoring request: a batch of hypotheses scored against one reference.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ScoreRequest {
    /// Client-chosen request id, echoed in the response. Ids let a client
    /// pipeline requests and match responses arriving out of order.
    pub id: u64,
    /// Experiment namespace: `configuration`, `annotation`, `translation`,
    /// `execution` or `stats`. Ignored when `reference_id` is given.
    pub task: String,
    /// Workflow system whose ground-truth artifact is the reference (for
    /// `translation`, the *target* system). Ignored when `reference_id` or
    /// `reference_text` is given — except by `evaluate` requests, which
    /// always need a system for API-call comparison.
    pub system: String,
    /// Combined `"task/system"` reference address; overrides `task`/`system`.
    pub reference_id: Option<String>,
    /// Literal reference text; overrides every other addressing field.
    pub reference_text: Option<String>,
    /// Processing mode: empty or `"score"` for plain scoring, `"evaluate"`
    /// for the full extraction → comparison → scoring pipeline.
    pub mode: String,
    /// The hypotheses to score, in order. For `evaluate` requests these are
    /// raw model responses (fences and prose are stripped server-side).
    pub hypotheses: Vec<String>,
    /// Per-request deadline in milliseconds, measured server-side from
    /// admission to the job queue. A job still queued when its deadline
    /// expires is dropped before scoring and answered with a typed
    /// `error_kind: "deadline"` protocol error, so a backlogged server
    /// never burns workers on results the client has stopped waiting for.
    /// `None` (the default) means no deadline.
    pub deadline_ms: Option<u64>,
}

impl ScoreRequest {
    /// A batch request addressing a built-in reference by task + system.
    pub fn by_id(id: u64, task: TaskKind, system: &str, hypotheses: Vec<String>) -> Self {
        ScoreRequest {
            id,
            task: task.name().to_owned(),
            system: system.to_owned(),
            reference_id: None,
            reference_text: None,
            mode: String::new(),
            hypotheses,
            deadline_ms: None,
        }
    }

    /// The same request with a per-request deadline attached.
    pub fn with_deadline(self, deadline_ms: u64) -> Self {
        ScoreRequest {
            deadline_ms: Some(deadline_ms),
            ..self
        }
    }

    /// A batch request carrying its reference inline.
    pub fn by_text(id: u64, reference_text: &str, hypotheses: Vec<String>) -> Self {
        ScoreRequest {
            id,
            reference_text: Some(reference_text.to_owned()),
            hypotheses,
            ..ScoreRequest::default()
        }
    }

    /// A server-statistics request.
    pub fn stats(id: u64) -> Self {
        ScoreRequest {
            id,
            task: TaskKind::Stats.name().to_owned(),
            ..ScoreRequest::default()
        }
    }

    /// A full-pipeline request addressing a built-in reference: each entry
    /// of `responses` is a raw model response.
    pub fn evaluate(id: u64, task: TaskKind, system: &str, responses: Vec<String>) -> Self {
        ScoreRequest {
            mode: "evaluate".to_owned(),
            ..ScoreRequest::by_id(id, task, system, responses)
        }
    }

    /// A full-pipeline request carrying its reference inline; `system`
    /// still selects the API catalogue used for call comparison.
    pub fn evaluate_text(
        id: u64,
        reference_text: &str,
        system: &str,
        responses: Vec<String>,
    ) -> Self {
        ScoreRequest {
            system: system.to_owned(),
            mode: "evaluate".to_owned(),
            ..ScoreRequest::by_text(id, reference_text, responses)
        }
    }

    /// A dynamic-execution request addressing a built-in execution
    /// reference: each entry of `responses` is a raw model response whose
    /// extracted artifact will be run on the runtime engine.
    pub fn execute(id: u64, system: &str, responses: Vec<String>) -> Self {
        ScoreRequest {
            mode: "execute".to_owned(),
            ..ScoreRequest::by_id(id, TaskKind::Execution, system, responses)
        }
    }

    /// A dynamic-execution request carrying its reference configuration
    /// inline; `system` selects the configuration dialect both the
    /// reference and the responses are parsed as.
    pub fn execute_text(
        id: u64,
        reference_text: &str,
        system: &str,
        responses: Vec<String>,
    ) -> Self {
        ScoreRequest {
            system: system.to_owned(),
            mode: "execute".to_owned(),
            ..ScoreRequest::by_text(id, reference_text, responses)
        }
    }

    /// Parse the request's processing mode; `Err` carries the unknown name.
    pub fn resolve_mode(&self) -> Result<RequestMode, String> {
        match self.mode.to_ascii_lowercase().as_str() {
            "" | "score" => Ok(RequestMode::Score),
            "evaluate" => Ok(RequestMode::Evaluate),
            "execute" => Ok(RequestMode::Execute),
            other => Err(format!(
                "unknown mode `{other}` (expected score, evaluate or execute)"
            )),
        }
    }

    /// The workflow-system name this request addresses (from `reference_id`
    /// when present, else the `system` field); `None` when neither names one.
    pub fn resolve_system_name(&self) -> Option<&str> {
        match &self.reference_id {
            Some(reference_id) => reference_id.split_once('/').map(|(_, system)| system),
            None if self.system.is_empty() => None,
            None => Some(self.system.as_str()),
        }
    }

    /// Resolve the reference this request scores against.
    ///
    /// Returns `Ok(None)` for a `stats` request, `Ok(Some(text))` otherwise,
    /// or a human-readable error for an unknown task/system address.
    pub fn resolve_reference(&self) -> Result<Option<&str>, String> {
        if let Some(text) = &self.reference_text {
            return Ok(Some(text));
        }
        let (task_name, system_name) = match &self.reference_id {
            Some(reference_id) => reference_id
                .split_once('/')
                .ok_or_else(|| format!("reference_id `{reference_id}` is not `task/system`"))?,
            None => (self.task.as_str(), self.system.as_str()),
        };
        let task = TaskKind::parse(task_name).ok_or_else(|| {
            format!("unknown task `{task_name}` (expected configuration, annotation, translation, execution or stats)")
        })?;
        if task == TaskKind::Stats {
            return Ok(None);
        }
        let system = WorkflowSystemId::from_name(system_name)
            .ok_or_else(|| format!("unknown workflow system `{system_name}`"))?;
        let reference = match task {
            TaskKind::Configuration => configuration_reference(system),
            TaskKind::Annotation => annotation_reference(system),
            TaskKind::Translation => translation_reference(system),
            TaskKind::Execution => Some(execution_reference(system)),
            // Already handled by the early return above; answering again
            // (rather than `unreachable!`) keeps request addressing
            // panic-free even if that early return is refactored away.
            TaskKind::Stats => return Ok(None),
        };
        reference
            .map(Some)
            .ok_or_else(|| format!("system `{system_name}` has no {} reference", task.name()))
    }
}

// Hand-written so that absent / `null` fields fall back to their defaults:
// hand-rolled clients may send just `{"id": 1, "task": ..., "system": ...,
// "hypotheses": [...]}` without spelling out every optional field.
impl Deserialize for ScoreRequest {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        fn field_or_default<T: Deserialize + Default>(
            value: &serde::Value,
            context: &str,
        ) -> Result<T, serde::Error> {
            if value.is_null() {
                Ok(T::default())
            } else {
                T::deserialize(value).map_err(|e| e.in_context(context))
            }
        }
        let obj = value
            .as_object_view()
            .ok_or_else(|| serde::Error::expected("object", "ScoreRequest"))?;
        Ok(ScoreRequest {
            id: field_or_default(obj.field("id"), "ScoreRequest.id")?,
            task: field_or_default(obj.field("task"), "ScoreRequest.task")?,
            system: field_or_default(obj.field("system"), "ScoreRequest.system")?,
            reference_id: field_or_default(obj.field("reference_id"), "ScoreRequest.reference_id")?,
            reference_text: field_or_default(
                obj.field("reference_text"),
                "ScoreRequest.reference_text",
            )?,
            mode: field_or_default(obj.field("mode"), "ScoreRequest.mode")?,
            hypotheses: field_or_default(obj.field("hypotheses"), "ScoreRequest.hypotheses")?,
            deadline_ms: field_or_default(obj.field("deadline_ms"), "ScoreRequest.deadline_ms")?,
        })
    }
}

/// BLEU and ChrF for one hypothesis, on the paper's 0–100 scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HypothesisScore {
    /// sacrebleu-style BLEU.
    pub bleu: f64,
    /// Character n-gram F-score.
    pub chrf: f64,
}

/// The full-pipeline result for one raw model response: similarity scores
/// plus the API-call comparison of the extracted payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluationScore {
    /// sacrebleu-style BLEU of the extracted payload.
    pub bleu: f64,
    /// Character n-gram F-score of the extracted payload.
    pub chrf: f64,
    /// Calls present in both payload and reference.
    pub matched: Vec<String>,
    /// Reference calls absent from the payload.
    pub missing: Vec<String>,
    /// Payload calls absent from the reference.
    pub extra: Vec<String>,
    /// Payload calls in the system's API family that do not exist — the
    /// paper's hallucination failure mode.
    pub hallucinated: Vec<String>,
    /// `matched / (matched + missing)`; 1.0 when the reference has no calls.
    pub call_recall: f64,
    /// `matched / (matched + extra)`; 1.0 when the payload has no calls.
    pub call_precision: f64,
}

impl EvaluationScore {
    /// Flatten a pipeline [`Evaluation`](wfspeak_core::eval::Evaluation)
    /// into its wire form (the extracted payload itself stays server-side).
    pub fn from_evaluation(evaluation: &wfspeak_core::eval::Evaluation) -> Self {
        EvaluationScore {
            bleu: evaluation.bleu,
            chrf: evaluation.chrf,
            matched: evaluation.calls.matched.clone(),
            missing: evaluation.calls.missing.clone(),
            extra: evaluation.calls.extra.clone(),
            hallucinated: evaluation.calls.hallucinated.clone(),
            call_recall: evaluation.calls.call_recall(),
            call_precision: evaluation.calls.call_precision(),
        }
    }
}

/// The dynamic-execution result for one raw model response: how far the
/// artifact made it through extract → parse → run, plus trace-fidelity
/// scoring against the reference artifact's run.
///
/// All fields come from deterministic counts (never wall-clock timings), so
/// served scores are bit-identical to in-process execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionScore {
    /// The artifact's structure parsed into a workflow spec.
    pub parsed: bool,
    /// The system's validating parser reported no schema errors.
    pub valid: bool,
    /// The spec passed structural validation and was normalized.
    pub validated: bool,
    /// The engine ran the spec within the sandbox caps.
    pub ran: bool,
    /// The run completed (every task finished, every message delivered).
    pub completed: bool,
    /// Runnability on a 0–100 scale (20 points per stage: parsed, valid,
    /// validated, ran, completed).
    pub runnability: f64,
    /// Trace fidelity vs the reference run, 0–100.
    pub trace_fidelity: f64,
    /// Tasks in the recovered spec.
    pub tasks: usize,
    /// Dataset messages published during the run.
    pub published: usize,
    /// Dataset messages received during the run.
    pub received: usize,
    /// Tasks that failed during the run.
    pub failed_tasks: usize,
    /// Every typed finding the pipeline produced, in stage order.
    pub diagnostics: Vec<WireDiagnostic>,
    /// The machine-readable kind that stopped this artifact (the wire code
    /// of the decisive diagnostic); `None` when the run completed.
    pub failure_kind: Option<String>,
    /// Why the pipeline stopped early, when it did (human-readable).
    pub error: Option<String>,
}

impl ExecutionScore {
    /// Flatten a pipeline [`ExecutionScore`](wfspeak_core::exec::ExecutionScore)
    /// into its wire form.
    pub fn from_execution(score: &wfspeak_core::exec::ExecutionScore) -> Self {
        ExecutionScore {
            parsed: score.parsed,
            valid: score.valid,
            validated: score.validated,
            ran: score.ran,
            completed: score.completed,
            runnability: score.runnability,
            trace_fidelity: score.trace_fidelity,
            tasks: score.tasks,
            published: score.published,
            received: score.received,
            failed_tasks: score.failed_tasks,
            diagnostics: score
                .diagnostics
                .iter()
                .map(WireDiagnostic::from_diagnostic)
                .collect(),
            failure_kind: score.failure_kind().map(str::to_owned),
            error: score.error.clone(),
        }
    }
}

/// The wire form of one typed diagnostic: flat strings and optional source
/// coordinates, mirroring [`wfspeak_systems::Diagnostic::wire_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireDiagnostic {
    /// Stable kebab-case kind code (e.g. `dangling-consume`).
    pub kind: String,
    /// `error`, `warning` or `info`.
    pub severity: String,
    /// Path into the artifact (task or field name), when known.
    pub path: Option<String>,
    /// 1-based source line, when known.
    pub line: Option<usize>,
    /// 1-based source column, when known.
    pub column: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl WireDiagnostic {
    /// Flatten a typed [`Diagnostic`](wfspeak_systems::Diagnostic) into its
    /// wire form.
    pub fn from_diagnostic(diagnostic: &wfspeak_systems::Diagnostic) -> Self {
        WireDiagnostic {
            kind: diagnostic.kind.code().to_owned(),
            severity: diagnostic.severity.label().to_owned(),
            path: diagnostic.path.clone(),
            line: diagnostic.line,
            column: diagnostic.column,
            message: diagnostic.message.clone(),
        }
    }
}

/// A snapshot of the server's lifetime counters.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Score requests processed (excluding `stats` requests).
    pub requests: u64,
    /// Hypotheses scored across all requests.
    pub hypotheses: u64,
    /// Prepared-reference cache hits across all connections.
    pub cache_hits: u64,
    /// Prepared-reference cache misses (first-time preparations).
    pub cache_misses: u64,
    /// Jobs sitting in the bounded queue right now (admitted but not yet
    /// picked up by a worker).
    pub queue_depth: u64,
    /// Worker-pool replacements: each panicking job is caught, answered
    /// with `error_kind: "internal"`, and the pool restores its worker —
    /// this counts those recoveries over the server's lifetime.
    pub worker_restarts: u64,
    /// Faults scheduled by the server's [`FaultPlan`](crate::FaultPlan)
    /// so far; always 0 when fault injection is disabled (the default).
    pub faults_injected: u64,
    /// Request latencies recorded so far (one per answered request,
    /// admission → reply handed to the connection's write path).
    pub latency_samples: u64,
    /// Median request latency in microseconds, reported as the upper bound
    /// of the power-of-two histogram bucket the median falls in (0 until
    /// the first request is answered).
    pub latency_p50_us: u64,
    /// 95th-percentile request latency in microseconds (bucket upper bound).
    pub latency_p95_us: u64,
    /// 99th-percentile request latency in microseconds (bucket upper bound).
    pub latency_p99_us: u64,
}

impl ServiceStats {
    /// Fraction of reference lookups served from the shared cache.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
        }
        .hit_rate()
    }
}

/// One response line; `id` matches the triggering [`ScoreRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreResponse {
    /// The request id this response answers.
    pub id: u64,
    /// True when scoring succeeded; false when `error` explains the failure.
    pub ok: bool,
    /// Failure description; `None` on success.
    pub error: Option<String>,
    /// Machine-readable protocol-error class; `None` on success and for
    /// request-specific failures. `"overloaded"` means the server's bounded
    /// job queue was full and the request was shed — retry later.
    /// `"frame-too-large"` means a request line passed the server's frame
    /// limit and was skipped unread. `"request-too-large"` means the
    /// request carried more hypotheses than the server's per-request cap.
    pub error_kind: Option<String>,
    /// Per-hypothesis scores, in request order. Empty on failure, for
    /// `stats` requests and for `evaluate` requests (which fill
    /// [`evaluations`](ScoreResponse::evaluations) instead).
    pub scores: Vec<HypothesisScore>,
    /// Per-response pipeline evaluations, in request order; filled only for
    /// `evaluate` requests.
    pub evaluations: Vec<EvaluationScore>,
    /// Per-response dynamic-execution scores, in request order; filled only
    /// for `execute` requests.
    pub executions: Vec<ExecutionScore>,
    /// Server counters; present only for `stats` requests.
    pub stats: Option<ServiceStats>,
}

impl ScoreResponse {
    /// A successful scoring response.
    pub fn success(id: u64, scores: Vec<HypothesisScore>) -> Self {
        ScoreResponse {
            id,
            ok: true,
            error: None,
            error_kind: None,
            scores,
            evaluations: Vec::new(),
            executions: Vec::new(),
            stats: None,
        }
    }

    /// A successful full-pipeline response.
    pub fn evaluated(id: u64, evaluations: Vec<EvaluationScore>) -> Self {
        ScoreResponse {
            id,
            ok: true,
            error: None,
            error_kind: None,
            scores: Vec::new(),
            evaluations,
            executions: Vec::new(),
            stats: None,
        }
    }

    /// A successful dynamic-execution response.
    pub fn executed(id: u64, executions: Vec<ExecutionScore>) -> Self {
        ScoreResponse {
            id,
            ok: true,
            error: None,
            error_kind: None,
            scores: Vec::new(),
            evaluations: Vec::new(),
            executions,
            stats: None,
        }
    }

    /// A failure response with a human-readable reason.
    pub fn failure(id: u64, error: impl Into<String>) -> Self {
        ScoreResponse {
            id,
            ok: false,
            error: Some(error.into()),
            error_kind: None,
            scores: Vec::new(),
            evaluations: Vec::new(),
            executions: Vec::new(),
            stats: None,
        }
    }

    /// A typed shed-load response: the bounded job queue was full and the
    /// request was rejected before any work started. Clients should back
    /// off and retry.
    pub fn overloaded(id: u64, queue_depth: usize) -> Self {
        ScoreResponse {
            error_kind: Some("overloaded".to_owned()),
            ..ScoreResponse::failure(
                id,
                format!("server overloaded: job queue full ({queue_depth} queued); retry later"),
            )
        }
    }

    /// A typed internal-error response: the job panicked while being
    /// handled. The worker pool caught the panic and recovered, so the
    /// connection survives; the request itself is answered with this
    /// terminal error instead of hanging.
    pub fn internal_error(id: u64, detail: &str) -> Self {
        ScoreResponse {
            error_kind: Some("internal".to_owned()),
            ..ScoreResponse::failure(
                id,
                format!("internal error: request handler panicked: {detail}"),
            )
        }
    }

    /// A typed deadline response: the job's
    /// [`deadline_ms`](ScoreRequest::deadline_ms) expired while it sat in
    /// the queue, so it was dropped before scoring.
    pub fn deadline_exceeded(id: u64, deadline_ms: u64, waited_ms: u64) -> Self {
        ScoreResponse {
            error_kind: Some("deadline".to_owned()),
            ..ScoreResponse::failure(
                id,
                format!(
                    "deadline of {deadline_ms}ms exceeded: request waited {waited_ms}ms \
                     before a worker picked it up"
                ),
            )
        }
    }

    /// A typed oversized-frame response: a request line passed
    /// `max_bytes`, so the server dropped it unread and skipped to its
    /// newline. The id is 0, as for any line the server cannot parse.
    pub fn frame_too_large(max_bytes: usize) -> Self {
        ScoreResponse {
            error_kind: Some("frame-too-large".to_owned()),
            ..ScoreResponse::failure(
                0,
                format!("request line longer than {max_bytes} bytes; skipped to its newline"),
            )
        }
    }

    /// A typed oversized-request response: the request carried
    /// `hypotheses` hypotheses, more than the server's per-request `cap`
    /// for its mode, so it was refused before any work started and not
    /// counted. Resending it unchanged gets the same answer; split it
    /// across pipelined requests instead.
    pub fn request_too_large(id: u64, hypotheses: usize, cap: usize) -> Self {
        ScoreResponse {
            error_kind: Some("request-too-large".to_owned()),
            ..ScoreResponse::failure(
                id,
                format!(
                    "request of {hypotheses} hypotheses exceeds the per-request cap of {cap}; \
                     split it across pipelined requests"
                ),
            )
        }
    }

    /// A statistics-snapshot response.
    pub fn stats(id: u64, stats: ServiceStats) -> Self {
        ScoreResponse {
            id,
            ok: true,
            error: None,
            error_kind: None,
            scores: Vec::new(),
            evaluations: Vec::new(),
            executions: Vec::new(),
            stats: Some(stats),
        }
    }
}

/// Serialise a protocol message as one newline-terminated JSON line.
pub fn encode_line<T: Serialize>(message: &T) -> String {
    let mut line = serde_json::to_string(message).expect("protocol types serialise infallibly");
    line.push('\n');
    line
}

/// Parse one line into a protocol message.
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| e.to_string())
}

/// Best-effort extraction of the request id from a line that failed full
/// deserialisation, so the error response still routes to the right request.
pub fn salvage_request_id(line: &str) -> u64 {
    serde_json::from_str::<serde::Value>(line.trim())
        .ok()
        .and_then(|v| v["id"].as_i64())
        .and_then(|id| u64::try_from(id).ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_kind_parses_case_insensitively() {
        assert_eq!(
            TaskKind::parse("Configuration"),
            Some(TaskKind::Configuration)
        );
        assert_eq!(TaskKind::parse("ANNOTATION"), Some(TaskKind::Annotation));
        assert_eq!(TaskKind::parse("translate"), Some(TaskKind::Translation));
        assert_eq!(TaskKind::parse("Execute"), Some(TaskKind::Execution));
        assert_eq!(TaskKind::parse("stats"), Some(TaskKind::Stats));
        assert_eq!(TaskKind::parse("nope"), None);
    }

    #[test]
    fn requests_round_trip_through_the_line_codec() {
        let request = ScoreRequest::by_id(
            7,
            TaskKind::Configuration,
            "Henson",
            vec!["hyp one".into(), "hyp\ntwo".into()],
        );
        let line = encode_line(&request);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1, "newlines must be escaped");
        let decoded: ScoreRequest = decode_line(&line).unwrap();
        assert_eq!(decoded.id, 7);
        assert_eq!(decoded.task, "configuration");
        assert_eq!(decoded.system, "Henson");
        assert_eq!(decoded.hypotheses, request.hypotheses);
    }

    #[test]
    fn resolve_reference_covers_all_addressing_modes() {
        let by_id = ScoreRequest::by_id(1, TaskKind::Annotation, "Parsl", vec![]);
        assert!(by_id
            .resolve_reference()
            .unwrap()
            .unwrap()
            .contains("parsl"));

        let by_combined = ScoreRequest {
            id: 2,
            reference_id: Some("configuration/Wilkins".into()),
            ..ScoreRequest::default()
        };
        assert!(by_combined.resolve_reference().unwrap().is_some());

        let by_text = ScoreRequest::by_text(3, "custom ref", vec![]);
        assert_eq!(by_text.resolve_reference().unwrap(), Some("custom ref"));

        assert_eq!(ScoreRequest::stats(4).resolve_reference().unwrap(), None);
    }

    #[test]
    fn resolve_reference_reports_bad_addresses() {
        let bad_task = ScoreRequest {
            task: "tables".into(),
            ..ScoreRequest::default()
        };
        assert!(bad_task.resolve_reference().unwrap_err().contains("tables"));

        let bad_system = ScoreRequest::by_id(0, TaskKind::Configuration, "Slurm", vec![]);
        assert!(bad_system
            .resolve_reference()
            .unwrap_err()
            .contains("Slurm"));

        // Parsl has annotation/translation references but no configuration.
        let no_reference = ScoreRequest::by_id(0, TaskKind::Configuration, "Parsl", vec![]);
        assert!(no_reference.resolve_reference().is_err());

        let bad_combined = ScoreRequest {
            reference_id: Some("no-slash".into()),
            ..ScoreRequest::default()
        };
        assert!(bad_combined.resolve_reference().is_err());
    }

    #[test]
    fn responses_round_trip_with_float_precision() {
        let scores = vec![
            HypothesisScore {
                bleu: 100.0,
                chrf: 100.0,
            },
            HypothesisScore {
                bleu: 31.622776601683793,
                chrf: 0.0625,
            },
        ];
        let line = encode_line(&ScoreResponse::success(9, scores.clone()));
        let decoded: ScoreResponse = decode_line(&line).unwrap();
        assert!(decoded.ok);
        assert_eq!(decoded.id, 9);
        assert!(decoded.stats.is_none());
        for (sent, received) in scores.iter().zip(&decoded.scores) {
            assert_eq!(sent.bleu.to_bits(), received.bleu.to_bits());
            assert_eq!(sent.chrf.to_bits(), received.chrf.to_bits());
        }
    }

    #[test]
    fn evaluate_requests_round_trip_and_default_to_score_mode() {
        let request = ScoreRequest::evaluate(
            11,
            TaskKind::Annotation,
            "Henson",
            vec!["```c\nhenson_yield();\n```".into()],
        );
        assert_eq!(request.resolve_mode(), Ok(RequestMode::Evaluate));
        let decoded: ScoreRequest = decode_line(&encode_line(&request)).unwrap();
        assert_eq!(decoded.mode, "evaluate");
        assert_eq!(decoded.resolve_mode(), Ok(RequestMode::Evaluate));
        assert_eq!(decoded.resolve_system_name(), Some("Henson"));

        // Requests that never mention `mode` (hand-rolled clients, every
        // pre-existing caller) stay plain scoring requests.
        let sparse: ScoreRequest =
            decode_line(r#"{"task": "annotation", "system": "Parsl", "hypotheses": ["x"]}"#)
                .unwrap();
        assert_eq!(sparse.resolve_mode(), Ok(RequestMode::Score));
        assert!(ScoreRequest::default().resolve_mode() == Ok(RequestMode::Score));
        assert!(ScoreRequest {
            mode: "guess".into(),
            ..ScoreRequest::default()
        }
        .resolve_mode()
        .is_err());
    }

    #[test]
    fn resolve_system_name_prefers_reference_id() {
        let combined = ScoreRequest {
            system: "Henson".into(),
            reference_id: Some("configuration/Wilkins".into()),
            ..ScoreRequest::default()
        };
        assert_eq!(combined.resolve_system_name(), Some("Wilkins"));
        assert_eq!(ScoreRequest::default().resolve_system_name(), None);
    }

    #[test]
    fn evaluation_responses_round_trip_with_float_precision() {
        let evaluations = vec![EvaluationScore {
            bleu: 31.622776601683793,
            chrf: 0.0625,
            matched: vec!["henson_yield".into()],
            missing: vec!["henson_save_int".into()],
            extra: vec!["printf".into()],
            hallucinated: vec!["henson_put".into()],
            call_recall: 0.5,
            call_precision: 1.0 / 3.0,
        }];
        let line = encode_line(&ScoreResponse::evaluated(9, evaluations.clone()));
        let decoded: ScoreResponse = decode_line(&line).unwrap();
        assert!(decoded.ok);
        assert!(decoded.scores.is_empty());
        assert_eq!(decoded.evaluations.len(), 1);
        let (sent, received) = (&evaluations[0], &decoded.evaluations[0]);
        assert_eq!(sent.bleu.to_bits(), received.bleu.to_bits());
        assert_eq!(sent.chrf.to_bits(), received.chrf.to_bits());
        assert_eq!(
            sent.call_precision.to_bits(),
            received.call_precision.to_bits()
        );
        assert_eq!(sent.matched, received.matched);
        assert_eq!(sent.hallucinated, received.hallucinated);
    }

    #[test]
    fn execution_responses_round_trip_with_float_precision() {
        let executions = vec![ExecutionScore {
            parsed: true,
            valid: true,
            validated: true,
            ran: true,
            completed: false,
            runnability: 80.0,
            trace_fidelity: 31.622776601683793,
            tasks: 3,
            published: 6,
            received: 4,
            failed_tasks: 1,
            diagnostics: vec![WireDiagnostic {
                kind: "incomplete-run".into(),
                severity: "warning".into(),
                path: Some("consumer2".into()),
                line: Some(4),
                column: Some(3),
                message: "run did not complete: 1 task(s) failed".into(),
            }],
            failure_kind: Some("incomplete-run".into()),
            error: Some("consumer2: receive of `particles` timed out".into()),
        }];
        let line = encode_line(&ScoreResponse::executed(12, executions.clone()));
        let decoded: ScoreResponse = decode_line(&line).unwrap();
        assert!(decoded.ok);
        assert!(decoded.scores.is_empty() && decoded.evaluations.is_empty());
        assert_eq!(decoded.executions.len(), 1);
        let (sent, received) = (&executions[0], &decoded.executions[0]);
        assert_eq!(
            sent.trace_fidelity.to_bits(),
            received.trace_fidelity.to_bits()
        );
        assert_eq!(sent.runnability.to_bits(), received.runnability.to_bits());
        assert_eq!(sent, received);
    }

    #[test]
    fn execute_requests_resolve_their_mode_and_system() {
        let request = ScoreRequest::execute(3, "Wilkins", vec!["tasks: []".into()]);
        assert_eq!(request.resolve_mode(), Ok(RequestMode::Execute));
        assert_eq!(request.task, "execution");
        let decoded: ScoreRequest = decode_line(&encode_line(&request)).unwrap();
        assert_eq!(decoded.resolve_mode(), Ok(RequestMode::Execute));
        assert_eq!(decoded.resolve_system_name(), Some("Wilkins"));

        let inline = ScoreRequest::execute_text(4, "tasks: []", "Wilkins", vec![]);
        assert_eq!(inline.resolve_mode(), Ok(RequestMode::Execute));
        assert_eq!(inline.resolve_reference().unwrap(), Some("tasks: []"));
    }

    #[test]
    fn execution_references_resolve_for_every_system() {
        // Unlike `configuration` (no Parsl/PyCOMPSs entry), the execution
        // namespace covers the whole five-system grid.
        for system in WorkflowSystemId::execution_systems() {
            let request = ScoreRequest::execute(1, system.name(), vec![]);
            let reference = request.resolve_reference().unwrap();
            assert!(
                reference.is_some_and(|r| !r.is_empty()),
                "{} has no execution reference",
                system.name()
            );
        }
    }

    #[test]
    fn stats_responses_carry_the_snapshot() {
        let stats = ServiceStats {
            requests: 10,
            hypotheses: 40,
            cache_hits: 9,
            cache_misses: 1,
            queue_depth: 3,
            worker_restarts: 2,
            faults_injected: 5,
            latency_samples: 10,
            latency_p50_us: 255,
            latency_p95_us: 1023,
            latency_p99_us: 4095,
        };
        let line = encode_line(&ScoreResponse::stats(1, stats));
        let decoded: ScoreResponse = decode_line(&line).unwrap();
        let snapshot = decoded.stats.expect("stats present");
        assert_eq!(snapshot.requests, 10);
        assert_eq!(snapshot.queue_depth, 3);
        assert_eq!(snapshot.worker_restarts, 2);
        assert_eq!(snapshot.faults_injected, 5);
        assert_eq!(snapshot.latency_samples, 10);
        assert_eq!(snapshot.latency_p50_us, 255);
        assert_eq!(snapshot.latency_p95_us, 1023);
        assert_eq!(snapshot.latency_p99_us, 4095);
        assert!((snapshot.cache_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn internal_and_deadline_responses_carry_typed_error_kinds() {
        let internal: ScoreResponse =
            decode_line(&encode_line(&ScoreResponse::internal_error(3, "boom"))).unwrap();
        assert!(!internal.ok);
        assert_eq!(internal.error_kind.as_deref(), Some("internal"));
        assert!(internal.error.unwrap().contains("boom"));

        let expired: ScoreResponse =
            decode_line(&encode_line(&ScoreResponse::deadline_exceeded(4, 250, 300))).unwrap();
        assert!(!expired.ok);
        assert_eq!(expired.id, 4);
        assert_eq!(expired.error_kind.as_deref(), Some("deadline"));
        let message = expired.error.unwrap();
        assert!(
            message.contains("250ms") && message.contains("300ms"),
            "{message}"
        );
    }

    #[test]
    fn deadlines_ride_the_wire_and_default_to_none() {
        let request = ScoreRequest::by_text(5, "ref", vec!["x".into()]).with_deadline(750);
        let decoded: ScoreRequest = decode_line(&encode_line(&request)).unwrap();
        assert_eq!(decoded.deadline_ms, Some(750));

        // Hand-rolled clients that never mention the field get no deadline.
        let sparse: ScoreRequest =
            decode_line(r#"{"id": 1, "reference_text": "ref", "hypotheses": ["x"]}"#).unwrap();
        assert_eq!(sparse.deadline_ms, None);
    }

    #[test]
    fn overloaded_responses_carry_a_typed_error_kind() {
        let line = encode_line(&ScoreResponse::overloaded(17, 4));
        let decoded: ScoreResponse = decode_line(&line).unwrap();
        assert!(!decoded.ok);
        assert_eq!(decoded.id, 17);
        assert_eq!(decoded.error_kind.as_deref(), Some("overloaded"));
        assert!(decoded.error.unwrap().contains("retry"));
        // Ordinary failures stay untyped: `error_kind` is reserved for
        // protocol-level conditions clients dispatch on.
        assert!(ScoreResponse::failure(1, "bad request")
            .error_kind
            .is_none());
    }

    #[test]
    fn sparse_hand_written_requests_decode_with_defaults() {
        let decoded: ScoreRequest =
            decode_line(r#"{"task": "annotation", "system": "Parsl", "hypotheses": ["x"]}"#)
                .unwrap();
        assert_eq!(decoded.id, 0);
        assert_eq!(decoded.task, "annotation");
        assert!(decoded.reference_id.is_none());
        assert!(decoded.reference_text.is_none());
        assert_eq!(decoded.hypotheses, vec!["x".to_string()]);

        let err = decode_line::<ScoreRequest>(r#"{"hypotheses": "not an array"}"#).unwrap_err();
        assert!(err.contains("hypotheses"), "{err}");
    }

    #[test]
    fn salvage_request_id_recovers_ids_from_malformed_requests() {
        assert_eq!(salvage_request_id(r#"{"id": 42, "task": 3}"#), 42);
        assert_eq!(salvage_request_id("not json"), 0);
        assert_eq!(salvage_request_id(r#"{"id": -1}"#), 0);
    }
}
