//! Dynamic execution: run generated artifacts (configuration files, or
//! annotated task code for Parsl/PyCOMPSs) on the runtime engine and score
//! them by what the run actually did.
//!
//! Static evaluation ([`crate::eval`]) asks whether a generated artifact
//! *reads* like the reference; this module asks whether it *runs* like it.
//! Each raw model response goes through five stages behind one shared
//! implementation, [`execute_artifact`]:
//!
//! 1. **extract** — [`wfspeak_codemodel::extract_code`] strips fences/prose;
//! 2. **parse** — [`wfspeak_systems::workflow_spec_from_config`] recovers a
//!    [`WorkflowSpec`](wfspeak_systems::WorkflowSpec) through the system's
//!    validating parser (schema diagnostics);
//! 3. **validate + normalize** — `WorkflowSpec::validate` checks the spec's
//!    structure (dangling edges, cycles, absurd bounds) and
//!    `WorkflowSpec::normalize` canonicalises it so downstream scoring is
//!    insensitive to task/edge declaration order;
//! 4. **run** — the [`wfspeak_runtime::Engine`] executes the spec under a
//!    bounded [`SandboxConfig`] (fixed timesteps and elements, capped task
//!    and process counts);
//! 5. **score** — the run's deterministic [`TraceSummary`] is compared
//!    against the *reference* artifact's run, yielding a runnability score
//!    and a trace-fidelity score.
//!
//! Every stage contributes typed [`Diagnostic`]s to the resulting
//! [`ExecutionScore`], so callers can see *why* an artifact stalled on a
//! given rung without parsing prose.
//!
//! Every surface funnels through [`execute_artifact`]: the standalone
//! [`ExecutionPipeline`] (callers bring their own responses; reference runs
//! are cached and shared), [`Benchmark::run_execution`] (the execution grid,
//! run by the benchmark's grid loop) and the scoring service's
//! `mode: "execute"` request — so served scores are bit-identical to
//! composing the stages by hand.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wfspeak_codemodel::extract_code;
use wfspeak_corpus::prompts::PromptVariant;
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_runtime::{Engine, EngineConfig, TraceSummary};
use wfspeak_systems::{workflow_spec_from_config, Diagnostic, DiagnosticKind};

use crate::experiments::execution_rows;
use crate::runner::{grid_cell, grid_mean, grid_trials, Benchmark, GridCell};

/// Resource bounds for executing *untrusted generated* workflow specs.
///
/// Generated configurations routinely hallucinate structure; the sandbox
/// keeps every run small and bounded no matter what the artifact claims:
/// timesteps/elements are fixed by the sandbox (not the artifact), and task
/// and process counts are capped before the engine starts.  The engine runs
/// on the caller's thread and a stalled graph fails at once (an input that
/// ends without end-of-stream means its producer failed), so every run's
/// work is bounded by these fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SandboxConfig {
    /// Timesteps each producer runs for.
    pub timesteps: usize,
    /// Elements in generated arrays (kept small: the score uses message
    /// counts, not payload size).
    pub elements: usize,
    /// RNG seed for data generation (fixed for deterministic scoring).
    pub seed: u64,
    /// Refuse to run specs requesting more total processes than this: a
    /// plausibility bound on what the artifact asks a deployment for.
    pub max_total_procs: usize,
    /// Refuse to run specs declaring more tasks than this.
    pub max_tasks: usize,
}

impl Default for SandboxConfig {
    fn default() -> Self {
        SandboxConfig {
            timesteps: 3,
            elements: 16,
            seed: 42,
            max_total_procs: 64,
            max_tasks: 16,
        }
    }
}

impl SandboxConfig {
    /// The engine configuration this sandbox runs specs under.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            timesteps: self.timesteps,
            elements: self.elements,
            seed: self.seed,
            fail_task: None,
        }
    }
}

/// How far one generated artifact made it through the execution pipeline,
/// and how closely its run matched the reference run.
///
/// All fields are derived from deterministic counts (never wall-clock), so
/// scores are bit-identical across runs, surfaces and machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionScore {
    /// The artifact's structure parsed into a workflow spec at all.
    pub parsed: bool,
    /// The system's validating parser reported no schema errors.
    pub valid: bool,
    /// The spec passed structural validation (every consumed dataset has a
    /// producer, no cycles, sane bounds) and was normalized.  Only reachable
    /// when `valid` also holds: the rungs form a ladder.
    pub validated: bool,
    /// The engine accepted and ran the spec within the sandbox caps.
    pub ran: bool,
    /// The run completed: every task finished and every consumer saw every
    /// timestep of every dataset it subscribes to.
    pub completed: bool,
    /// Runnability on the paper's 0–100 scale: 20 points per stage
    /// (parsed, valid, validated, ran, completed).
    pub runnability: f64,
    /// Trace fidelity vs the reference run on a 0–100 scale
    /// ([`TraceSummary::fidelity`] × 100); 0 when the artifact never ran.
    pub trace_fidelity: f64,
    /// Tasks in the recovered spec (0 when parsing failed).
    pub tasks: usize,
    /// Dataset messages published during the run.
    pub published: usize,
    /// Dataset messages received during the run.
    pub received: usize,
    /// Tasks that failed during the run.
    pub failed_tasks: usize,
    /// Every typed finding the pipeline produced, in stage order: schema
    /// diagnostics from the parser, then structural diagnostics from
    /// `validate`, then a synthesized execute-stage diagnostic when the
    /// sandbox, engine or run itself stopped the pipeline.
    pub diagnostics: Vec<Diagnostic>,
    /// Why the pipeline stopped early, when it did (human-readable; the
    /// machine-readable form is in `diagnostics`).
    pub error: Option<String>,
}

impl ExecutionScore {
    fn stage_score(parsed: bool, valid: bool, validated: bool, ran: bool, completed: bool) -> f64 {
        20.0 * (usize::from(parsed)
            + usize::from(valid)
            + usize::from(validated)
            + usize::from(ran)
            + usize::from(completed)) as f64
    }

    fn not_parsed(error: String) -> ExecutionScore {
        ExecutionScore {
            parsed: false,
            valid: false,
            validated: false,
            ran: false,
            completed: false,
            runnability: 0.0,
            trace_fidelity: 0.0,
            tasks: 0,
            published: 0,
            received: 0,
            failed_tasks: 0,
            diagnostics: Vec::new(),
            error: Some(error),
        }
    }

    /// The wire code of the diagnostic that stopped this artifact, or
    /// `None` when the run completed.  The first error-severity finding
    /// wins; an incomplete run with no error findings reports
    /// `incomplete-run`, and an unparsed artifact with no findings at all
    /// falls back to `parse-error`.
    pub fn failure_kind(&self) -> Option<&'static str> {
        if self.completed {
            return None;
        }
        if let Some(d) = self.diagnostics.iter().find(|d| d.is_error()) {
            return Some(d.code());
        }
        Some(if self.ran {
            DiagnosticKind::IncompleteRun.code()
        } else {
            DiagnosticKind::ParseError.code()
        })
    }

    /// The `line` (and `column`, when the parser reported one) of the
    /// diagnostic behind [`ExecutionScore::failure_kind`], or `None` when
    /// the run completed or the stopping diagnostic carries no source
    /// position (e.g. a sandbox cap).
    pub fn failure_position(&self) -> Option<(usize, Option<usize>)> {
        if self.completed {
            return None;
        }
        let d = self.diagnostics.iter().find(|d| d.is_error())?;
        d.line.map(|line| (line, d.column))
    }
}

/// Run one raw model response through the full execution pipeline against a
/// prepared reference-run summary.
///
/// This is the *only* pipeline implementation: the standalone
/// [`ExecutionPipeline`], the grid executor ([`Benchmark::run_execution`])
/// and the scoring service's `execute` mode all call it, so their scores
/// are bit-identical to composing `extract_code` +
/// `workflow_spec_from_config` + `Engine::run` + `TraceSummary::fidelity`
/// by hand (pinned by the workspace integration tests).
pub fn execute_artifact(
    sandbox: &SandboxConfig,
    system: WorkflowSystemId,
    response: &str,
    reference: &TraceSummary,
) -> ExecutionScore {
    let code = extract_code(response);
    let (spec, report) = workflow_spec_from_config(system, &code);
    let mut diagnostics = report.diagnostics.clone();
    let Some(spec) = spec else {
        let reason = diagnostics
            .first()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "artifact did not parse".to_owned());
        return ExecutionScore {
            diagnostics,
            ..ExecutionScore::not_parsed(reason)
        };
    };
    let tasks = spec.tasks.len();
    let valid = report.is_valid();
    let structural = spec.validate();
    let structurally_valid = !structural.iter().any(|d| d.is_error());
    diagnostics.extend(structural);
    // The rungs form a ladder: a spec only counts as structurally validated
    // when it also passed the system's schema.
    let validated = valid && structurally_valid;
    if !validated {
        let reason = diagnostics
            .iter()
            .find(|d| d.is_error())
            .map(|d| d.to_string())
            .unwrap_or_else(|| "validation failed".to_owned());
        return ExecutionScore {
            parsed: true,
            valid,
            runnability: ExecutionScore::stage_score(true, valid, false, false, false),
            tasks,
            diagnostics,
            error: Some(reason),
            ..ExecutionScore::not_parsed(String::new())
        };
    }
    // Canonicalise before running so scoring is insensitive to the order
    // the artifact happened to declare its tasks and edges in.
    let spec = spec.normalized();
    if tasks > sandbox.max_tasks || spec.total_procs() > sandbox.max_total_procs {
        let message = format!(
            "spec exceeds sandbox caps ({} tasks / {} procs; caps {} / {})",
            tasks,
            spec.total_procs(),
            sandbox.max_tasks,
            sandbox.max_total_procs
        );
        diagnostics.push(Diagnostic::error(DiagnosticKind::SandboxCap, &message));
        return ExecutionScore {
            parsed: true,
            valid: true,
            validated: true,
            runnability: ExecutionScore::stage_score(true, true, true, false, false),
            tasks,
            diagnostics,
            error: Some(message),
            ..ExecutionScore::not_parsed(String::new())
        };
    }
    match Engine::new(sandbox.engine_config()).run(&spec) {
        Ok(outcome) => {
            let summary = outcome.summary();
            if !outcome.completed {
                diagnostics.push(Diagnostic::warning(
                    DiagnosticKind::IncompleteRun,
                    format!(
                        "run did not complete: {} task(s) failed",
                        summary.total_failed()
                    ),
                ));
            }
            ExecutionScore {
                parsed: true,
                valid: true,
                validated: true,
                ran: true,
                completed: outcome.completed,
                runnability: ExecutionScore::stage_score(true, true, true, true, outcome.completed),
                trace_fidelity: 100.0 * summary.fidelity(reference),
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
            ExecutionScore {
                parsed: true,
                valid: true,
                validated: true,
                runnability: ExecutionScore::stage_score(true, true, true, false, false),
                tasks,
                diagnostics,
                error: Some(message),
                ..ExecutionScore::not_parsed(String::new())
            }
        }
    }
}

/// A standalone execution pipeline: a sandbox plus a cache of reference-run
/// summaries, for executing caller-supplied responses outside a
/// [`Benchmark`] grid (the scoring service's `execute` mode runs on one
/// shared instance across all connections).
#[derive(Debug)]
pub struct ExecutionPipeline {
    sandbox: SandboxConfig,
    references: Mutex<HashMap<String, Arc<TraceSummary>>>,
    max_cached_references: usize,
}

impl Default for ExecutionPipeline {
    fn default() -> Self {
        ExecutionPipeline {
            sandbox: SandboxConfig::default(),
            references: Mutex::new(HashMap::new()),
            max_cached_references: usize::MAX,
        }
    }
}

impl ExecutionPipeline {
    /// A pipeline with the default sandbox and an empty reference cache.
    pub fn new() -> ExecutionPipeline {
        ExecutionPipeline::default()
    }

    /// Never retain more than `max_entries` reference runs: beyond the cap,
    /// unseen references are still resolved and scored but not cached,
    /// like the metrics cache's
    /// [`get_or_prepare_bounded`](crate::ReferenceCache::get_or_prepare_bounded).
    pub fn with_cache_cap(mut self, max_entries: usize) -> ExecutionPipeline {
        self.max_cached_references = max_entries;
        self
    }

    /// The sandbox every run uses.
    pub fn sandbox(&self) -> &SandboxConfig {
        &self.sandbox
    }

    /// Number of distinct reference runs cached so far.
    pub fn cached_references(&self) -> usize {
        self.references
            .lock()
            .expect("reference cache poisoned")
            .len()
    }

    /// Fetch (or produce on first use, through
    /// [`run_reference`](Self::run_reference), failing as it does) the
    /// reference-run summary for a reference artifact. A new summary is
    /// kept, keyed by system and text, unless the cache already holds its
    /// cap of entries.
    pub fn reference_summary(
        &self,
        system: WorkflowSystemId,
        reference: &str,
    ) -> Result<Arc<TraceSummary>, String> {
        let key = format!("{}\u{1f}{reference}", system.name());
        if let Some(summary) = self
            .references
            .lock()
            .expect("reference cache poisoned")
            .get(&key)
        {
            return Ok(Arc::clone(summary));
        }
        let summary = Arc::new(self.run_reference(system, reference)?);
        let mut references = self.references.lock().expect("reference cache poisoned");
        if references.len() < self.max_cached_references {
            references.insert(key, Arc::clone(&summary));
        }
        Ok(summary)
    }

    /// Produce the reference-run summary for a reference artifact without
    /// the cache: parse it, require it to be fully valid, run it under the
    /// sandbox and summarise the trace. The scoring service runs reference
    /// text a client sends inline through here, so it is never kept.
    ///
    /// Fails when the reference itself does not parse, validate or run —
    /// the caller supplied something that is not an executable ground truth.
    pub fn run_reference(
        &self,
        system: WorkflowSystemId,
        reference: &str,
    ) -> Result<TraceSummary, String> {
        let (spec, report) = workflow_spec_from_config(system, reference);
        let spec = spec.filter(|_| report.is_valid()).ok_or_else(|| {
            format!(
                "reference is not a valid {} configuration: {}",
                system.name(),
                report
                    .diagnostics
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "unparseable".to_owned())
            )
        })?;
        if let Some(d) = spec.validate().iter().find(|d| d.is_error()) {
            return Err(format!("reference spec is not executable: {d}"));
        }
        let spec = spec.normalized();
        if spec.tasks.len() > self.sandbox.max_tasks
            || spec.total_procs() > self.sandbox.max_total_procs
        {
            return Err("reference spec exceeds the sandbox caps".to_owned());
        }
        let outcome = Engine::new(self.sandbox.engine_config())
            .run(&spec)
            .map_err(|e| format!("reference run refused: {e}"))?;
        Ok(outcome.summary())
    }

    /// Execute one response against a reference artifact for `system`.
    pub fn execute(
        &self,
        system: WorkflowSystemId,
        reference: &str,
        response: &str,
    ) -> Result<ExecutionScore, String> {
        let summary = self.reference_summary(system, reference)?;
        Ok(execute_artifact(&self.sandbox, system, response, &summary))
    }
}

/// One fully executed grid cell: every trial of one `(system, model)` pair.
pub type ExecutedCell = GridCell<ExecutionScore>;

impl ExecutedCell {
    /// Mean runnability over the cell's trials.
    pub fn mean_runnability(&self) -> f64 {
        self.mean(|s| s.runnability)
    }

    /// Mean trace fidelity over the cell's trials.
    pub fn mean_fidelity(&self) -> f64 {
        self.mean(|s| s.trace_fidelity)
    }

    /// Trials that ran to completion.
    pub fn completed_trials(&self) -> usize {
        self.trials.iter().filter(|s| s.completed).count()
    }

    /// Trials whose artifact did not even parse.
    pub fn unparsed_trials(&self) -> usize {
        self.trials.iter().filter(|s| !s.parsed).count()
    }

    /// Per-`ErrorKind` categories of the cell's parse failures: one label
    /// per distinct `(kind, position)` among trials whose artifact did not
    /// parse — `tab-indent@2:1` when the parser reported an exact
    /// `line:column`, the bare kind otherwise — with counts, most frequent
    /// first (ties broken by label).  Empty when every trial parsed.
    pub fn parse_failure_categories(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for trial in &self.trials {
            if trial.parsed {
                continue;
            }
            let Some(kind) = trial.failure_kind() else {
                continue;
            };
            let label = match trial.failure_position() {
                Some((line, Some(column))) => format!("{kind}@{line}:{column}"),
                Some((line, None)) => format!("{kind}@{line}"),
                None => kind.to_owned(),
            };
            match counts.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => counts.push((label, 1)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        counts
    }

    /// Counts of failure kinds across the cell's trials, most frequent
    /// first (ties broken by code), using each trial's
    /// [`ExecutionScore::failure_kind`].  Empty when every trial completed.
    pub fn failure_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for trial in &self.trials {
            if let Some(kind) = trial.failure_kind() {
                *counts.entry(kind).or_insert(0) += 1;
            }
        }
        let mut out: Vec<_> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out
    }
}

/// A whole configuration-experiment grid taken through dynamic execution.
#[derive(Debug, Clone)]
pub struct ExecutionGrid {
    /// Cells in declared order: system-major, model-minor.
    pub cells: Vec<ExecutedCell>,
}

impl ExecutionGrid {
    /// Look up one cell by row and model label.
    pub fn cell(&self, row: &str, model: &str) -> Option<&ExecutedCell> {
        grid_cell(&self.cells, row, model)
    }

    /// Total responses executed (cells × trials).
    pub fn total_executions(&self) -> usize {
        grid_trials(&self.cells)
    }

    /// Responses that ran to completion across the whole grid.
    pub fn completed_executions(&self) -> usize {
        self.cells.iter().map(|c| c.completed_trials()).sum()
    }

    /// Mean runnability over every execution in the grid.
    pub fn mean_runnability(&self) -> f64 {
        grid_mean(&self.cells, |s| s.runnability)
    }

    /// Mean trace fidelity over every execution in the grid.
    pub fn mean_fidelity(&self) -> f64 {
        grid_mean(&self.cells, |s| s.trace_fidelity)
    }

    /// Render a fixed-width summary table: one line per cell with
    /// runnability, trace fidelity and completion counts, plus a grid-level
    /// footer.  The final column breaks parse failures down into
    /// per-`ErrorKind` categories with the offending `line:column`
    /// ([`ExecutedCell::parse_failure_categories`]) instead of a flat
    /// unparsed count; cells whose trials all parsed show `-`.
    pub fn render_summary(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        out.push_str(&format!(
            "{:<10} {:<16} {:>9} {:>9} {:>10}  {}\n",
            "system", "model", "runnable", "fidelity", "completed", "parse failure"
        ));
        for cell in &self.cells {
            let categories = cell.parse_failure_categories();
            let breakdown = if categories.is_empty() {
                "-".to_owned()
            } else {
                categories
                    .iter()
                    .map(|(label, n)| {
                        if *n == 1 {
                            label.clone()
                        } else {
                            format!("{label}×{n}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "{:<10} {:<16} {:>9.2} {:>9.2} {:>7}/{:<2}  {}\n",
                cell.row,
                cell.model,
                cell.mean_runnability(),
                cell.mean_fidelity(),
                cell.completed_trials(),
                cell.trials.len(),
                breakdown,
            ));
        }
        out.push_str(&format!(
            "overall: {} executions, mean runnability {:.2}, mean fidelity {:.2}, {} ran to completion\n",
            self.total_executions(),
            self.mean_runnability(),
            self.mean_fidelity(),
            self.completed_executions(),
        ));
        out
    }

    /// Render the per-cell diagnostic breakdown: for every `(system,
    /// model)` cell, the failure kinds that stopped its trials with counts,
    /// most frequent first.  Cells whose trials all completed say so.
    pub fn render_diagnostics(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        for cell in &self.cells {
            let counts = cell.failure_counts();
            let breakdown = if counts.is_empty() {
                "all trials completed".to_owned()
            } else {
                counts
                    .iter()
                    .map(|(kind, n)| format!("{kind}×{n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "{:<10} {:<16} {}\n",
                cell.row, cell.model, breakdown
            ));
        }
        out
    }
}

impl Benchmark {
    /// Take the full five-system grid through dynamic execution: every
    /// `(system × model × trial)` response goes through [`execute_artifact`]
    /// under the benchmark's sandbox, scored against the reference
    /// artifact's run.
    ///
    /// The configuration systems (Wilkins, ADIOS2, Henson) execute the
    /// responses to their configuration prompt; Parsl and PyCOMPSs execute
    /// the responses to their annotation prompt, since their workflow
    /// structure lives in annotated task code rather than a configuration
    /// file (see `execution_rows`).  The benchmark's grid loop runs the
    /// cells in parallel and keeps declared order (system-major,
    /// model-minor, trials in seed order), and each system's reference run
    /// is resolved once per call through the benchmark's shared
    /// [`ExecutionPipeline`], which keeps it for later calls.
    pub fn run_execution(&self, variant: PromptVariant) -> ExecutionGrid {
        let sandbox = self.executions.sandbox();
        let cells = self.run_cells(
            &execution_rows(variant),
            |row| {
                let summary = self
                    .executions
                    .reference_summary(row.system, row.reference)
                    .expect("reference artifacts are executable");
                (row.system, summary)
            },
            |(system, summary), response| execute_artifact(sandbox, *system, response, summary),
        );
        ExecutionGrid { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BenchmarkConfig;
    use wfspeak_corpus::references::configs::WILKINS_3NODE;
    use wfspeak_corpus::references::{configuration_reference, execution_reference};

    fn quick_benchmark() -> Benchmark {
        Benchmark::with_simulated_models(BenchmarkConfig {
            trials: 2,
            ..BenchmarkConfig::default()
        })
    }

    #[test]
    fn reference_artifacts_execute_perfectly() {
        let pipeline = ExecutionPipeline::new();
        for system in WorkflowSystemId::execution_systems() {
            let reference = execution_reference(system);
            let score = pipeline.execute(system, reference, reference).unwrap();
            assert!(
                score.parsed && score.valid && score.validated && score.ran && score.completed,
                "{system}"
            );
            assert_eq!(score.runnability, 100.0, "{system}");
            assert_eq!(score.trace_fidelity, 100.0, "{system}");
            assert!(score.error.is_none());
            assert_eq!(score.failure_kind(), None, "{system}");
            assert!(
                score.diagnostics.iter().all(|d| !d.is_error()),
                "{system}: {:?}",
                score.diagnostics
            );
            // Configuration references describe the paper's 3-node workflow
            // (two datasets streamed producer → consumers); the Python
            // annotation references are a solo producer publishing one
            // dataset into the void.
            let datasets = if system.uses_python_tasks() { 1 } else { 2 };
            let consumed = if system.uses_python_tasks() { 0 } else { 2 };
            assert_eq!(
                score.published,
                datasets * pipeline.sandbox().timesteps,
                "{system}"
            );
            assert_eq!(
                score.received,
                consumed * pipeline.sandbox().timesteps,
                "{system}"
            );
            assert_eq!(score.failed_tasks, 0);
        }
    }

    #[test]
    fn unparseable_artifact_scores_zero() {
        let pipeline = ExecutionPipeline::new();
        let score = pipeline
            .execute(
                WorkflowSystemId::Wilkins,
                WILKINS_3NODE,
                "I cannot produce that configuration.",
            )
            .unwrap();
        assert!(!score.parsed);
        assert_eq!(score.runnability, 0.0);
        assert_eq!(score.trace_fidelity, 0.0);
        assert!(score.error.is_some());
        assert!(score.failure_kind().is_some());
    }

    #[test]
    fn parsed_but_invalid_artifact_gets_partial_credit() {
        let pipeline = ExecutionPipeline::new();
        // Parses (structure recovered) but carries an unknown field.
        let hallucinated = "tasks:\n  - func: producer\n    nprocs: 2\n    command: ./p\n";
        let score = pipeline
            .execute(WorkflowSystemId::Wilkins, WILKINS_3NODE, hallucinated)
            .unwrap();
        assert!(score.parsed && !score.valid && !score.validated && !score.ran);
        assert_eq!(score.runnability, 20.0);
        assert_eq!(score.tasks, 1);
        assert_eq!(score.failure_kind(), Some("unknown-field"));
        assert!(score.error.unwrap().contains("command"));
    }

    #[test]
    fn valid_but_incomplete_dataflow_runs_with_reduced_fidelity() {
        let pipeline = ExecutionPipeline::new();
        // A lone producer: valid, runs, completes, but publishes into the
        // void — no received messages to match the reference's.
        let solo = "tasks:\n  - func: producer\n    nprocs: 1\n    outports:\n      - filename: outfile.h5\n        dsets:\n          - name: /group1/grid\n            file: 0\n            memory: 1\n";
        let score = pipeline
            .execute(WorkflowSystemId::Wilkins, WILKINS_3NODE, solo)
            .unwrap();
        assert!(score.completed);
        assert_eq!(score.runnability, 100.0);
        assert!(score.trace_fidelity > 0.0 && score.trace_fidelity < 100.0);
        assert_eq!(score.received, 0);
        // Publishing into the void is worth a warning but not a failure.
        assert!(score
            .diagnostics
            .iter()
            .any(|d| d.code() == "unconsumed-produce" && !d.is_error()));
        assert_eq!(score.failure_kind(), None);
    }

    #[test]
    fn sandbox_caps_refuse_oversized_specs() {
        let pipeline = ExecutionPipeline::new();
        let greedy = "tasks:\n  - func: producer\n    nprocs: 5000\n";
        let score = pipeline
            .execute(WorkflowSystemId::Wilkins, WILKINS_3NODE, greedy)
            .unwrap();
        assert!(score.parsed && score.valid && score.validated && !score.ran);
        assert_eq!(score.runnability, 60.0);
        assert_eq!(score.failure_kind(), Some("sandbox-cap"));
        assert!(score.error.unwrap().contains("sandbox caps"));
    }

    #[test]
    fn henson_group_sizes_past_usize_saturate_into_proc_bounds() {
        // The producer's two groups sum past `usize::MAX`; a wrapping sum
        // would give it 1 process and a clean, completed run.
        let response = "producer = ./producer.so 50 3\nconsumer = ./consumer_grid.so\n\n\
                        [18446744073709551615] producer\n[2] producer\n[1] consumer\n";
        let pipeline = ExecutionPipeline::new();
        let reference = execution_reference(WorkflowSystemId::Henson);
        let score = pipeline
            .execute(WorkflowSystemId::Henson, reference, response)
            .unwrap();
        assert!(score.parsed && score.valid && !score.validated && !score.ran);
        assert_eq!(score.runnability, 40.0);
        assert_eq!(score.failure_kind(), Some("proc-bounds"));
        assert!(score
            .error
            .unwrap()
            .contains("`producer` requests 18446744073709551615 processes"));
    }

    #[test]
    fn wilkins_process_totals_past_usize_saturate_into_proc_bounds() {
        let task = |name: &str| format!("  - func: {name}\n    nprocs: 9223372036854775807\n");
        let response = format!("tasks:\n{}{}{}", task("a"), task("b"), task("c"));
        let pipeline = ExecutionPipeline::new();
        let score = pipeline
            .execute(WorkflowSystemId::Wilkins, WILKINS_3NODE, &response)
            .unwrap();
        assert!(score.parsed && score.valid && !score.validated);
        assert_eq!(score.failure_kind(), Some("proc-bounds"));
        // The total saturates at `usize::MAX`; it does not wrap.
        assert!(score.diagnostics.iter().any(|d| d.code() == "proc-bounds"
            && d.message
                .starts_with("18446744073709551615 total processes")));
    }

    #[test]
    fn reference_summaries_are_cached_per_system_and_text() {
        let pipeline = ExecutionPipeline::new();
        let reference = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
        for response in ["a", "b"] {
            pipeline
                .execute(WorkflowSystemId::Wilkins, reference, response)
                .unwrap();
        }
        assert_eq!(pipeline.cached_references(), 1);
        pipeline
            .execute(WorkflowSystemId::Wilkins, reference, "c")
            .unwrap();
        assert_eq!(pipeline.cached_references(), 1);
    }

    #[test]
    fn reference_run_cache_respects_its_cap() {
        let pipeline = ExecutionPipeline::new().with_cache_cap(1);
        let reference_a = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
        let reference_b = configuration_reference(WorkflowSystemId::Henson).unwrap();
        pipeline
            .execute(WorkflowSystemId::Wilkins, reference_a, "x")
            .unwrap();
        assert_eq!(pipeline.cached_references(), 1);
        // A second distinct reference is still resolved and scored, but the
        // cache does not grow past the cap.
        let score = pipeline
            .execute(WorkflowSystemId::Henson, reference_b, reference_b)
            .unwrap();
        assert_eq!(score.runnability, 100.0);
        assert_eq!(pipeline.cached_references(), 1);
        // The retained entry keeps serving.
        pipeline
            .execute(WorkflowSystemId::Wilkins, reference_a, "y")
            .unwrap();
        assert_eq!(pipeline.cached_references(), 1);
    }

    #[test]
    fn bad_reference_text_is_an_error_not_a_score() {
        let pipeline = ExecutionPipeline::new();
        let err = pipeline
            .execute(WorkflowSystemId::Wilkins, "not yaml at all {", "x")
            .unwrap_err();
        assert!(err.contains("reference"), "{err}");
    }

    #[test]
    fn execution_grid_covers_the_five_system_grid() {
        let grid = quick_benchmark().run_execution(PromptVariant::Original);
        assert_eq!(grid.cells.len(), 5 * 4, "5 systems × 4 models");
        assert_eq!(grid.total_executions(), 5 * 4 * 2);
        assert!(grid.mean_runnability() > 0.0);
        // Simulated models include exact-tier outputs, so some runs complete.
        assert!(grid.completed_executions() > 0);
        // And degraded tiers guarantee some do not even parse.
        assert!(grid.mean_runnability() < 100.0);
    }

    #[test]
    fn execution_grid_is_deterministic() {
        let a = quick_benchmark().run_execution(PromptVariant::Original);
        let b = quick_benchmark().run_execution(PromptVariant::Original);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.row, cb.row);
            assert_eq!(ca.model, cb.model);
            assert_eq!(ca.trials, cb.trials);
        }
    }

    #[test]
    fn summary_renders_rows_models_and_totals() {
        let grid = quick_benchmark().run_execution(PromptVariant::Original);
        let summary = grid.render_summary("Execution: configuration");
        assert!(summary.starts_with("Execution: configuration"));
        assert!(summary.contains("Wilkins"));
        assert!(summary.contains("Parsl"));
        assert!(summary.contains("PyCOMPSs"));
        assert!(summary.contains("o3"));
        assert!(summary.contains("parse failure"));
        assert!(summary.contains("overall:"));
    }

    #[test]
    fn parse_failures_carry_per_kind_positions() {
        let pipeline = ExecutionPipeline::new();
        let score = pipeline
            .execute(
                WorkflowSystemId::Wilkins,
                WILKINS_3NODE,
                "tasks:\n\t- func: p\n",
            )
            .unwrap();
        assert!(!score.parsed);
        assert_eq!(score.failure_kind(), Some("tab-indent"));
        assert_eq!(score.failure_position(), Some((2, Some(1))));
    }

    #[test]
    fn parse_failure_categories_group_kind_and_position() {
        let pipeline = ExecutionPipeline::new();
        let artifacts = [
            "tasks:\n\t- func: p\n",
            "tasks:\n\t- func: p\n",
            "tasks: [1, 2\n",
        ];
        let trials: Vec<ExecutionScore> = artifacts
            .iter()
            .map(|a| {
                pipeline
                    .execute(WorkflowSystemId::Wilkins, WILKINS_3NODE, a)
                    .unwrap()
            })
            .collect();
        let cell = ExecutedCell {
            row: "Wilkins".to_owned(),
            model: "test".to_owned(),
            trials,
        };
        assert_eq!(cell.unparsed_trials(), 3);
        assert_eq!(
            cell.parse_failure_categories(),
            vec![
                ("tab-indent@2:1".to_owned(), 2),
                ("unterminated-flow@1:8".to_owned(), 1),
            ]
        );
        // Parsed-but-failing trials never land in the parse-failure column.
        let valid_but_capped = pipeline
            .execute(
                WorkflowSystemId::Wilkins,
                WILKINS_3NODE,
                "tasks:\n  - func: producer\n    nprocs: 5000\n",
            )
            .unwrap();
        assert!(valid_but_capped.parsed);
        let cell = ExecutedCell {
            row: "Wilkins".to_owned(),
            model: "test".to_owned(),
            trials: vec![valid_but_capped],
        };
        assert!(cell.parse_failure_categories().is_empty());
    }

    #[test]
    fn diagnostics_breakdown_names_failure_kinds() {
        let grid = quick_benchmark().run_execution(PromptVariant::Original);
        let breakdown = grid.render_diagnostics("Diagnostics: configuration");
        assert!(breakdown.starts_with("Diagnostics: configuration"));
        assert!(breakdown.contains("Wilkins"));
        // Degraded simulated tiers guarantee at least one failing cell, so
        // the breakdown names at least one failure kind with a count.
        assert!(breakdown.contains('×'), "{breakdown}");
    }

    #[test]
    fn failure_kinds_distinguish_previously_undifferentiated_failures() {
        // Three artifacts that all scored short of completion now carry
        // three distinct machine-readable kinds.
        let pipeline = ExecutionPipeline::new();
        let cases = [
            ("not a config at all {", "schema"),
            (
                "tasks:\n  - func: producer\n    nprocs: 2\n    command: ./p\n",
                "unknown-field",
            ),
            (
                "tasks:\n  - func: producer\n    nprocs: 5000\n",
                "sandbox-cap",
            ),
        ];
        let mut kinds = std::collections::HashSet::new();
        for (artifact, expected) in cases {
            let score = pipeline
                .execute(WorkflowSystemId::Wilkins, WILKINS_3NODE, artifact)
                .unwrap();
            let kind = score.failure_kind().expect("artifact should fail");
            assert_eq!(kind, expected, "{artifact}");
            kinds.insert(kind);
        }
        assert_eq!(kinds.len(), 3);
    }
}
