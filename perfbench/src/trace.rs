//! Spans recorded from outside the crates, around calls into their public
//! functions, plus the composed pipelines those spans wrap.
//!
//! No instrumentation lives in the crates. Instead the traced run replays
//! the benchmark's inputs through [`compose_execute`] and
//! [`compose_evaluate`], which call the same public functions in the same
//! order as `wfspeak_core::execute_artifact` and
//! `wfspeak_core::evaluate_prepared`, with a span around each call. The
//! replay checks that the composed results are bit-identical to the real
//! calls, so the breakdown describes the code that really runs.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use wfspeak_codemodel::{compare_calls, extract_code};
use wfspeak_core::{
    Evaluation, ExecutionScore, PreparedPair, SandboxConfig, SystemProfile, WorkflowSystemId,
};
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_runtime::{Engine, TraceSummary};
use wfspeak_systems::{workflow_spec_from_config, Diagnostic, DiagnosticKind};

const NO_PARENT: u32 = u32::MAX;

/// How a replay takes each response through the pipeline.
#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// The real `evaluate_prepared` / `execute_artifact` calls, each timed.
    Real,
    /// The composed pipeline, with spans when `traced`.
    Composed { traced: bool },
}

impl Mode {
    pub fn traced(self) -> bool {
        self == Mode::Composed { traced: true }
    }
}

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub request: u64,
    /// Time covered by this span's children.
    pub child: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    pub fn self_time(&self) -> u64 {
        self.duration().saturating_sub(self.child)
    }
}

/// An in-memory span recorder. When off, every call is a no-op and no
/// clock is read, so the untraced replay pays nothing for it.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
    /// Summed duration of every leaf span so far.
    leaf_total: u64,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant) -> Recorder {
        Recorder {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            leaf_total: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A start mark for [`Recorder::leaf`]; 0 when off.
    pub fn start(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    /// Close a childless span opened at `start`, naming it now (so a
    /// caller can pick the name from the outcome). Returns its duration.
    pub fn leaf(&mut self, name: &'static str, start: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.now();
        self.leaf_total += end - start;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        if let Some(p) = self.spans.get_mut(parent as usize) {
            p.child += end - start;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request: self.request,
            child: 0,
        });
        end - start
    }

    /// Time `f` as a childless span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.start();
        let result = f();
        self.leaf(name, start);
        result
    }

    /// Open a span that later spans nest under, until [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
            child: 0,
        });
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let Some(index) = self.stack.pop() else {
            return;
        };
        let span = &mut self.spans[index as usize];
        span.end = end;
        let (duration, parent) = (span.duration(), span.parent);
        if let Some(p) = self.spans.get_mut(parent as usize) {
            p.child += duration;
        }
    }

    /// Move another recorder's spans (e.g. from a worker thread) into this
    /// one, re-basing their parent indices.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Per-name totals over a set of spans.
#[derive(Default)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    /// Per-call durations in nanoseconds.
    pub durations: Vec<f64>,
}

impl Layer {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    pub fn p99_us(&self) -> f64 {
        crate::util::percentile(&mut self.durations.clone(), 99.0) / 1e3
    }
}

pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for span in spans {
        let layer = out.entry(span.name).or_default();
        layer.calls += 1;
        layer.self_ns += span.self_time();
        layer.durations.push(span.duration() as f64);
    }
    out
}

/// Write every span as a tab-separated line: request, name, start, end,
/// parent index (`-` for a root), self time.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
    for span in spans {
        let parent = if span.parent == NO_PARENT {
            "-".to_owned()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            span.request,
            span.name,
            span.start,
            span.end,
            parent,
            span.self_time()
        )?;
    }
    out.flush()
}

/// Counts the composed pipelines report besides their spans.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    /// Time inside the composed calls of each pipeline (the children the
    /// real call's glue is measured against).
    pub execute_children_ns: u64,
    pub evaluate_children_ns: u64,
    pub yaml_failures: u64,
    pub spec_failures: u64,
    pub engine_ran: u64,
    pub engine_completed: u64,
    pub engine_procs: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.execute_children_ns += other.execute_children_ns;
        self.evaluate_children_ns += other.evaluate_children_ns;
        self.yaml_failures += other.yaml_failures;
        self.spec_failures += other.spec_failures;
        self.engine_ran += other.engine_ran;
        self.engine_completed += other.engine_completed;
        self.engine_procs += other.engine_procs;
    }
}

fn stage_score(stages: usize) -> f64 {
    20.0 * stages as f64
}

fn stopped(
    stages: (bool, bool, bool),
    tasks: usize,
    diagnostics: Vec<Diagnostic>,
    error: String,
) -> ExecutionScore {
    let (parsed, valid, validated) = stages;
    ExecutionScore {
        parsed,
        valid,
        validated,
        ran: false,
        completed: false,
        runnability: stage_score(usize::from(parsed) + usize::from(valid) + usize::from(validated)),
        trace_fidelity: 0.0,
        tasks,
        published: 0,
        received: 0,
        failed_tasks: 0,
        diagnostics,
        error: Some(error),
    }
}

/// `execute_artifact`, composed from its public parts with a span around
/// each: extract → spec_from_config → validate → normalize → engine run →
/// fidelity. Must return exactly what `execute_artifact` returns.
pub fn compose_execute(
    rec: &mut Recorder,
    counts: &mut Counts,
    sandbox: &SandboxConfig,
    system: WorkflowSystemId,
    response: &str,
    reference: &TraceSummary,
) -> ExecutionScore {
    let before = rec.leaf_total;
    let mut probe = 0;
    let score = execute_stages(
        rec, counts, &mut probe, sandbox, system, response, reference,
    );
    counts.execute_children_ns += rec.leaf_total - before - probe;
    score
}

fn execute_stages(
    rec: &mut Recorder,
    counts: &mut Counts,
    probe: &mut u64,
    sandbox: &SandboxConfig,
    system: WorkflowSystemId,
    response: &str,
    reference: &TraceSummary,
) -> ExecutionScore {
    let code = rec.time("codemodel.extract_code", || extract_code(response));
    if rec.is_on() && matches!(system, WorkflowSystemId::Wilkins | WorkflowSystemId::Adios2) {
        // A probe of the YAML layer alone. It sits outside the composed
        // path (the systems parser runs its own parse below), so it is a
        // root span and does not count towards the composition.
        let stack = std::mem::take(&mut rec.stack);
        let start = rec.start();
        let ok = wfspeak_wyaml::parse_document(&code).is_ok();
        *probe = rec.leaf("wyaml.parse_document", start);
        rec.stack = stack;
        counts.yaml_failures += u64::from(!ok);
    }
    let (spec, report) = rec.time("systems.spec_from_config", || {
        workflow_spec_from_config(system, &code)
    });
    let mut diagnostics = report.diagnostics.clone();
    let Some(spec) = spec else {
        counts.spec_failures += 1;
        let reason = diagnostics
            .first()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "artifact did not parse".to_owned());
        return stopped((false, false, false), 0, diagnostics, reason);
    };
    let tasks = spec.tasks.len();
    let valid = report.is_valid();
    let structural = rec.time("systems.validate", || spec.validate());
    let structurally_valid = !structural.iter().any(|d| d.is_error());
    diagnostics.extend(structural);
    if !(valid && structurally_valid) {
        let reason = diagnostics
            .iter()
            .find(|d| d.is_error())
            .map(|d| d.to_string())
            .unwrap_or_else(|| "validation failed".to_owned());
        return stopped((true, valid, false), tasks, diagnostics, reason);
    }
    let spec = rec.time("systems.normalize", || spec.normalized());
    if tasks > sandbox.max_tasks || spec.total_procs() > sandbox.max_total_procs {
        let message = format!(
            "spec exceeds sandbox caps ({} tasks / {} procs; caps {} / {})",
            tasks,
            spec.total_procs(),
            sandbox.max_tasks,
            sandbox.max_total_procs
        );
        diagnostics.push(Diagnostic::error(DiagnosticKind::SandboxCap, &message));
        return stopped((true, true, true), tasks, diagnostics, message);
    }
    let run = rec.time("runtime.engine_run", || {
        Engine::new(sandbox.engine_config())
            .run(&spec)
            .map(|outcome| (outcome.completed, outcome.summary()))
    });
    match run {
        Ok((completed, summary)) => {
            counts.engine_ran += 1;
            counts.engine_completed += u64::from(completed);
            counts.engine_procs += spec.total_procs() as u64;
            if !completed {
                diagnostics.push(Diagnostic::warning(
                    DiagnosticKind::IncompleteRun,
                    format!(
                        "run did not complete: {} task(s) failed",
                        summary.total_failed()
                    ),
                ));
            }
            let fidelity = rec.time("runtime.fidelity", || summary.fidelity(reference));
            ExecutionScore {
                parsed: true,
                valid: true,
                validated: true,
                ran: true,
                completed,
                runnability: stage_score(4 + usize::from(completed)),
                trace_fidelity: 100.0 * fidelity,
                tasks,
                published: summary.total_published(),
                received: summary.total_received(),
                failed_tasks: summary.total_failed(),
                diagnostics,
                error: None,
            }
        }
        Err(e) => {
            let message = e.to_string();
            diagnostics.push(Diagnostic::error(DiagnosticKind::EngineError, &message));
            stopped((true, true, true), tasks, diagnostics, message)
        }
    }
}

/// `evaluate_prepared`, composed: extract → compare_calls → BLEU → ChrF.
pub fn compose_evaluate(
    rec: &mut Recorder,
    counts: &mut Counts,
    bleu: &BleuScorer,
    chrf: &ChrfScorer,
    prepared: &PreparedPair,
    profile: &SystemProfile,
    response: &str,
) -> Evaluation {
    let before = rec.leaf_total;
    let code = rec.time("codemodel.extract_code", || extract_code(response));
    let calls = rec.time("codemodel.compare_calls", || {
        compare_calls(
            &code,
            prepared.bleu.source(),
            profile.language,
            profile.prefixes(),
            profile.functions(),
        )
    });
    let bleu = rec.time("metrics.bleu", || {
        bleu.score_prepared(&code, &prepared.bleu)
    });
    let chrf = rec.time("metrics.chrf", || {
        chrf.score_prepared(&code, &prepared.chrf)
    });
    counts.evaluate_children_ns += rec.leaf_total - before;
    Evaluation {
        bleu,
        chrf,
        code,
        calls,
    }
}
