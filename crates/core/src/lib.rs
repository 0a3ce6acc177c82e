//! `wfspeak-core` — the benchmark harness that reproduces the paper's
//! evaluation.
//!
//! The harness wires the other crates together: it builds prompts from the
//! [`wfspeak_corpus`] scenario, queries a set of [`wfspeak_llm::LlmClient`]s
//! (the simulated o3 / Gemini-2.5-Pro / Claude-Sonnet-4 / LLaMA-3.3-70B by
//! default), extracts the code payload from each response, scores it against
//! the reference artifact with BLEU and ChrF, and aggregates repeated trials
//! into the paper's tables and figures:
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | Workflow configuration | Table 1 | [`Benchmark::run_configuration`] |
//! | Task code annotation | Table 2 | [`Benchmark::run_annotation`] |
//! | Task code translation | Table 3 | [`Benchmark::run_translation`] |
//! | Qualitative translations | Table 4 | [`report::qualitative_translations`] |
//! | Prompt sensitivity | Figure 1 | [`Benchmark::run_prompt_sensitivity`] |
//! | Few-shot prompting | Table 5 | [`Benchmark::run_few_shot_comparison`] |
//! | Qualitative configurations | Table 6 | [`report::qualitative_configurations`] |
//!
//! Beyond per-metric scoring, [`Benchmark::run_evaluation`] takes a whole
//! experiment grid through the full pipeline — code extraction, API-call
//! comparison (missing / extra / hallucinated calls) and BLEU/ChrF — in one
//! pass; see the [`eval`] module.  [`Benchmark::run_execution`] goes one
//! step further and *runs* every generated configuration on the
//! `wfspeak-runtime` engine under a bounded sandbox, scoring runnability
//! and trace fidelity against the reference artifact's run; see the
//! [`exec`] module.
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_core::{Benchmark, BenchmarkConfig};
//!
//! let benchmark = Benchmark::with_simulated_models(BenchmarkConfig { trials: 2, ..BenchmarkConfig::default() });
//! let result = benchmark.run_configuration(Default::default(), false);
//! println!("{}", result.render_table("Workflow configuration"));
//! assert_eq!(result.bleu.rows().len(), 3); // ADIOS2, Henson, Wilkins
//! ```

pub mod config;
pub mod eval;
pub mod exec;
pub mod experiments;
pub mod parallel;
pub mod report;
pub mod result;
pub mod runner;

pub use config::BenchmarkConfig;
pub use eval::{evaluate_prepared, EvaluatedCell, Evaluation, EvaluationGrid, SystemProfile};
pub use exec::{
    execute_artifact, ExecutedCell, ExecutionGrid, ExecutionPipeline, ExecutionScore, SandboxConfig,
};
pub use experiments::{ExperimentKind, FewShotComparison, PromptSensitivity};
pub use result::ExperimentResult;
pub use runner::{Benchmark, GridCell, PreparedPair, ReferenceCache};

pub use wfspeak_corpus::prompts::PromptVariant;
pub use wfspeak_corpus::WorkflowSystemId;
pub use wfspeak_llm::ModelId;
