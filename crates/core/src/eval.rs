//! The end-to-end evaluation pipeline: code extraction → API-call
//! comparison → BLEU/ChrF scoring.
//!
//! The paper's headline analysis is not similarity metrics alone: a model
//! response is first stripped down to its code payload
//! ([`wfspeak_codemodel::extract_code`]), the payload's API calls are
//! compared against the reference ([`wfspeak_codemodel::compare_calls`] —
//! missing / extra / hallucinated calls), and only then are BLEU and ChrF
//! computed.  This module chains those stages behind one implementation,
//! [`evaluate_prepared`], that both surfaces share:
//!
//! * [`Benchmark::run_evaluation`] — the pipeline over a whole experiment
//!   grid, run by the benchmark's one grid loop with its shared
//!   [`ReferenceCache`](crate::ReferenceCache);
//! * the scoring service's `evaluate` request (in `wfspeak-service`) calls
//!   [`evaluate_prepared`] directly, so served evaluations are bit-identical
//!   to in-process ones.

use std::collections::BTreeSet;

use wfspeak_codemodel::{compare_calls, extract_code, CallComparison, Language};
use wfspeak_corpus::prompts::PromptVariant;
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_systems::api::catalog_for;

use crate::experiments::ExperimentKind;
use crate::runner::{grid_cell, grid_mean, grid_trials, Benchmark, GridCell, PreparedPair};

/// What the call-comparison stage needs to know about a workflow system:
/// the task-code language plus the system's API family and catalogue.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// The profiled system.
    pub system: WorkflowSystemId,
    /// Language its task codes are written in.
    pub language: Language,
    prefixes: Vec<&'static str>,
    functions: Vec<&'static str>,
}

impl SystemProfile {
    /// Build the profile for a system from its API catalogue.
    pub fn for_system(system: WorkflowSystemId) -> SystemProfile {
        let catalog = catalog_for(system);
        SystemProfile {
            system,
            language: if system.uses_python_tasks() {
                Language::Python
            } else {
                Language::C
            },
            prefixes: catalog.prefixes.clone(),
            functions: catalog.function_names(),
        }
    }

    /// Resolve a profile from a system display name (case-insensitive).
    pub fn by_name(name: &str) -> Option<SystemProfile> {
        WorkflowSystemId::from_name(name).map(SystemProfile::for_system)
    }

    /// Identifier prefixes marking a call as belonging to the API family.
    pub fn prefixes(&self) -> &[&'static str] {
        &self.prefixes
    }

    /// The catalogue of real API functions.
    pub fn functions(&self) -> &[&'static str] {
        &self.functions
    }
}

/// One response taken through the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The extracted code payload that was scored.
    pub code: String,
    /// sacrebleu-style BLEU of the payload against the reference (0–100).
    pub bleu: f64,
    /// Character n-gram F-score of the payload (0–100).
    pub chrf: f64,
    /// API-call comparison of the payload against the reference.
    pub calls: CallComparison,
}

/// Run one response through the full pipeline against a prepared reference.
///
/// This is the *only* pipeline implementation: the grid evaluator
/// ([`Benchmark::run_evaluation`]) and the scoring service both call it, so
/// their results are bit-identical to composing `extract_code` +
/// `compare_calls` + `score_prepared` by hand (pinned by the workspace
/// integration tests). The scoring grid ([`Benchmark::run_experiment`])
/// computes the same BLEU and ChrF without the call comparison;
/// `tests/table_grids.rs` pins that the two grids agree bit for bit.
pub fn evaluate_prepared(
    bleu: &BleuScorer,
    chrf: &ChrfScorer,
    prepared: &PreparedPair,
    profile: &SystemProfile,
    response: &str,
) -> Evaluation {
    let code = extract_code(response);
    let calls = compare_calls(
        &code,
        prepared.bleu.source(),
        profile.language,
        profile.prefixes(),
        profile.functions(),
    );
    Evaluation {
        bleu: bleu.score_prepared(&code, &prepared.bleu),
        chrf: chrf.score_prepared(&code, &prepared.chrf),
        code,
        calls,
    }
}

/// One fully evaluated grid cell: every trial of one `(row, model)` pair.
pub type EvaluatedCell = GridCell<Evaluation>;

impl EvaluatedCell {
    /// Mean BLEU over the cell's trials.
    pub fn mean_bleu(&self) -> f64 {
        self.mean(|e| e.bleu)
    }

    /// Mean ChrF over the cell's trials.
    pub fn mean_chrf(&self) -> f64 {
        self.mean(|e| e.chrf)
    }

    /// Mean call recall over the cell's trials.
    pub fn mean_call_recall(&self) -> f64 {
        self.mean(|e| e.calls.call_recall())
    }

    /// Mean call precision over the cell's trials.
    pub fn mean_call_precision(&self) -> f64 {
        self.mean(|e| e.calls.call_precision())
    }

    /// Hallucinated call count summed over the cell's trials.
    pub fn hallucinated_calls(&self) -> usize {
        self.trials.iter().map(|e| e.calls.hallucinated.len()).sum()
    }
}

/// A whole experiment grid taken through the evaluation pipeline.
#[derive(Debug, Clone)]
pub struct EvaluationGrid {
    /// Which experiment was evaluated.
    pub kind: ExperimentKind,
    /// Cells in declared order: row-major, model-minor.
    pub cells: Vec<EvaluatedCell>,
}

impl EvaluationGrid {
    /// Look up one cell by row and model label.
    pub fn cell(&self, row: &str, model: &str) -> Option<&EvaluatedCell> {
        grid_cell(&self.cells, row, model)
    }

    /// Total responses evaluated (cells × trials).
    pub fn total_evaluations(&self) -> usize {
        grid_trials(&self.cells)
    }

    /// Hallucinated call count across the whole grid.
    pub fn hallucinated_calls(&self) -> usize {
        self.cells.iter().map(|c| c.hallucinated_calls()).sum()
    }

    /// The distinct hallucinated API names observed anywhere in the grid
    /// (the paper's qualitative finding, e.g. `henson_put`).
    pub fn hallucinated_names(&self) -> BTreeSet<String> {
        self.cells
            .iter()
            .flat_map(|c| &c.trials)
            .flat_map(|e| e.calls.hallucinated.iter().cloned())
            .collect()
    }

    /// Mean BLEU over every evaluation in the grid.
    pub fn mean_bleu(&self) -> f64 {
        grid_mean(&self.cells, |e| e.bleu)
    }

    /// Mean ChrF over every evaluation in the grid.
    pub fn mean_chrf(&self) -> f64 {
        grid_mean(&self.cells, |e| e.chrf)
    }

    /// Mean call recall over every evaluation in the grid.
    pub fn mean_call_recall(&self) -> f64 {
        grid_mean(&self.cells, |e| e.calls.call_recall())
    }

    /// Render a fixed-width summary table: one line per cell with BLEU,
    /// ChrF, call recall/precision and hallucinated-call counts, plus a
    /// grid-level footer.
    pub fn render_summary(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        out.push_str(&format!(
            "{:<22} {:<16} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
            "row", "model", "BLEU", "ChrF", "recall", "prec", "halluc"
        ));
        for cell in &self.cells {
            out.push_str(&format!(
                "{:<22} {:<16} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7}\n",
                cell.row,
                cell.model,
                cell.mean_bleu(),
                cell.mean_chrf(),
                cell.mean_call_recall(),
                cell.mean_call_precision(),
                cell.hallucinated_calls(),
            ));
        }
        let names: Vec<String> = self.hallucinated_names().into_iter().collect();
        out.push_str(&format!(
            "overall: {} evaluations, mean BLEU {:.2}, mean ChrF {:.2}, {} hallucinated calls",
            self.total_evaluations(),
            self.mean_bleu(),
            self.mean_chrf(),
            self.hallucinated_calls(),
        ));
        if !names.is_empty() {
            out.push_str(&format!(" (distinct: {})", names.join(", ")));
        }
        out.push('\n');
        out
    }
}

impl Benchmark {
    /// Take a whole experiment grid through the evaluation pipeline:
    /// [`evaluate_prepared`] on every `(row × model × trial)` response.
    ///
    /// The benchmark's grid loop runs the cells in parallel and keeps
    /// declared order (row-major, model-minor, trials in seed order). Each
    /// row's reference is looked up once in the benchmark's shared
    /// [`ReferenceCache`](crate::ReferenceCache), the cache the scoring grid
    /// uses, and checked against the API catalogue of the row's system (for
    /// translation, the target).
    pub fn run_evaluation(&self, kind: ExperimentKind, variant: PromptVariant) -> EvaluationGrid {
        let cells = self.run_cells(
            &kind.rows(variant),
            |row| {
                (
                    self.prepare(row.reference),
                    SystemProfile::for_system(row.system),
                )
            },
            |(prepared, profile), response| {
                evaluate_prepared(&self.bleu, &self.chrf, prepared, profile, response)
            },
        );
        EvaluationGrid { kind, cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BenchmarkConfig;

    fn quick_benchmark() -> Benchmark {
        Benchmark::with_simulated_models(BenchmarkConfig {
            trials: 2,
            ..BenchmarkConfig::default()
        })
    }

    #[test]
    fn profiles_pick_language_from_system() {
        assert_eq!(
            SystemProfile::for_system(WorkflowSystemId::Henson).language,
            Language::C
        );
        assert_eq!(
            SystemProfile::for_system(WorkflowSystemId::Parsl).language,
            Language::Python
        );
        assert!(SystemProfile::by_name("henson").is_some());
        assert!(SystemProfile::by_name("slurm").is_none());
    }

    /// Take one response through the pipeline against `reference`.
    fn evaluate(reference: &str, profile: &SystemProfile, response: &str) -> Evaluation {
        let (bleu, chrf) = (BleuScorer::default(), ChrfScorer::default());
        let prepared = PreparedPair {
            bleu: bleu.prepare(reference),
            chrf: chrf.prepare(reference),
        };
        evaluate_prepared(&bleu, &chrf, &prepared, profile, response)
    }

    #[test]
    fn pipeline_detects_hallucinated_calls_in_fenced_response() {
        let profile = SystemProfile::for_system(WorkflowSystemId::Henson);
        let reference = "henson_save_int(\"t\", t);\nhenson_yield();";
        let response =
            "Here is the annotated code:\n```c\nhenson_put(\"t\", t);\nhenson_yield();\n```";
        let evaluation = evaluate(reference, &profile, response);
        assert!(evaluation.code.starts_with("henson_put"));
        assert_eq!(evaluation.calls.hallucinated, vec!["henson_put".to_owned()]);
        assert!(evaluation.calls.missing.contains(&"henson_save_int".into()));
        assert!(evaluation.bleu < 100.0);
        assert!(evaluation.chrf > 0.0);
    }

    #[test]
    fn pipeline_matches_direct_stage_composition() {
        let profile = SystemProfile::for_system(WorkflowSystemId::PyCompss);
        let reference = "compss_wait_on_file(out)\nprocess(out)";
        let response = "```python\ncompss_wait_on(out)\nprocess(out)\n```";
        let evaluation = evaluate(reference, &profile, response);

        let code = extract_code(response);
        let bleu = BleuScorer::default();
        let chrf = ChrfScorer::default();
        assert_eq!(evaluation.code, code);
        assert_eq!(
            evaluation.bleu.to_bits(),
            bleu.score(&code, reference).to_bits()
        );
        assert_eq!(
            evaluation.chrf.to_bits(),
            chrf.score(&code, reference).to_bits()
        );
        assert_eq!(
            evaluation.calls,
            compare_calls(
                &code,
                reference,
                Language::Python,
                profile.prefixes(),
                profile.functions()
            )
        );
    }

    #[test]
    fn evaluation_grid_has_experiment_shape() {
        let benchmark = quick_benchmark();
        let grid = benchmark.run_evaluation(ExperimentKind::Annotation, PromptVariant::Original);
        assert_eq!(grid.kind, ExperimentKind::Annotation);
        assert_eq!(grid.cells.len(), 4 * 4, "4 systems × 4 models");
        assert_eq!(grid.total_evaluations(), 4 * 4 * 2);
        for cell in &grid.cells {
            assert_eq!(cell.trials.len(), 2);
            for evaluation in &cell.trials {
                assert!(!evaluation.code.is_empty());
            }
        }
        assert!(grid.mean_bleu() > 0.0);
        assert!(grid.mean_chrf() > 0.0);
    }

    #[test]
    fn evaluation_grid_is_deterministic() {
        let a =
            quick_benchmark().run_evaluation(ExperimentKind::Translation, PromptVariant::Original);
        let b =
            quick_benchmark().run_evaluation(ExperimentKind::Translation, PromptVariant::Original);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.row, cb.row);
            assert_eq!(ca.model, cb.model);
            assert_eq!(ca.trials, cb.trials);
        }
    }

    #[test]
    fn evaluation_reuses_the_scoring_grid_cache() {
        let benchmark = quick_benchmark();
        benchmark.run_configuration(PromptVariant::Original, false);
        let prepared_before = benchmark.reference_cache().len();
        benchmark.run_evaluation(ExperimentKind::Configuration, PromptVariant::Original);
        assert_eq!(
            benchmark.reference_cache().len(),
            prepared_before,
            "evaluation hits the references the scoring grid already prepared"
        );
    }

    #[test]
    fn summary_renders_rows_models_and_totals() {
        let benchmark = quick_benchmark();
        let grid = benchmark.run_evaluation(ExperimentKind::Annotation, PromptVariant::Original);
        let summary = grid.render_summary("Annotation evaluation");
        assert!(summary.starts_with("Annotation evaluation"));
        assert!(summary.contains("ADIOS2"));
        assert!(summary.contains("o3"));
        assert!(summary.contains("overall:"));
    }
}
