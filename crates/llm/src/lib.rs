//! `wfspeak-llm` — the language-model layer of the benchmark.
//!
//! The harness only needs one thing from a model: *given a prompt, return a
//! text completion*.  That contract is the [`LlmClient`] trait.  The paper
//! evaluated four hosted models (o3, Gemini-2.5-Pro, Claude-Sonnet-4,
//! LLaMA-3.3-70B); this environment has no network access, so the crate
//! ships [`SimulatedLlm`] — a deterministic, seeded behavioural simulator for
//! each of those models, calibrated so that running the full benchmark over
//! the simulators reproduces the *shape* of the paper's results (which
//! systems and models do better, the failure modes, the few-shot uplift).
//! A real API client can be swapped in by implementing [`LlmClient`] without
//! touching the rest of the workspace.
//!
//! The simulator pipeline per request:
//!
//! 1. [`request`] infers the workflow task (configuration / annotation /
//!    translation), the target system(s) and whether a few-shot exemplar is
//!    present — purely from the prompt text, like a real model would.
//! 2. [`knowledge`] looks up the model's calibrated familiarity with that
//!    (task, system) cell and adjusts it for prompt wording and sampling
//!    noise.
//! 3. [`degrade`] starts from the ground-truth artifact and applies
//!    model-specific degradations (field renamings, hallucinated API calls,
//!    omissions, redundant boilerplate, structural rewrites) proportional to
//!    the model's unfamiliarity.
//! 4. [`models`] wraps the result in the model's response style (markdown
//!    fences, prose preambles).
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_llm::{CompletionRequest, LlmClient, ModelId, SamplingParams, SimulatedLlm};
//!
//! let model = SimulatedLlm::new(ModelId::O3);
//! let request = CompletionRequest::new(
//!     "Generate a Wilkins workflow configuration file for a 3-node workflow.",
//!     SamplingParams::paper_defaults(42),
//! );
//! let response = model.complete(&request);
//! assert!(!response.text.is_empty());
//! // Simulated models are deterministic: same request, same completion.
//! assert_eq!(model.complete(&request).text, response.text);
//! ```

pub mod degrade;
pub mod knowledge;
pub mod models;
pub mod request;

pub use models::SimulatedLlm;
pub use request::{RequestAnalysis, TaskKind};

use wfspeak_corpus::WorkflowSystemId;

/// The four models evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModelId {
    /// OpenAI o3 (reasoning model; ignores temperature/top-p).
    O3,
    /// Google Gemini-2.5-Pro.
    Gemini25Pro,
    /// Anthropic Claude-Sonnet-4.
    ClaudeSonnet4,
    /// Meta LLaMA-3.3-70B-Instruct.
    Llama33_70B,
}

impl ModelId {
    /// All models, in the paper's column order.
    pub const ALL: [ModelId; 4] = [
        ModelId::O3,
        ModelId::Gemini25Pro,
        ModelId::ClaudeSonnet4,
        ModelId::Llama33_70B,
    ];

    /// Display name used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::O3 => "o3",
            ModelId::Gemini25Pro => "Gemini-2.5-Pro",
            ModelId::ClaudeSonnet4 => "Claude-Sonnet-4",
            ModelId::Llama33_70B => "LLaMA-3.3-70B",
        }
    }

    /// Whether the model accepts temperature / top-p sampling parameters
    /// (the paper's footnote: OpenAI's o-series reasoning models do not).
    pub fn supports_sampling_params(&self) -> bool {
        !matches!(self, ModelId::O3)
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sampling parameters sent with a completion request.  The paper uses
/// temperature 0.2 and top-p 0.95 for all models except o3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingParams {
    /// Softmax temperature.
    pub temperature: f64,
    /// Nucleus-sampling probability mass.
    pub top_p: f64,
    /// Seed controlling the (simulated) stochasticity of one trial.
    pub seed: u64,
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams {
            temperature: 0.2,
            top_p: 0.95,
            seed: 0,
        }
    }
}

impl SamplingParams {
    /// The paper's standard settings with a specific trial seed.
    pub fn paper_defaults(seed: u64) -> Self {
        SamplingParams {
            seed,
            ..SamplingParams::default()
        }
    }
}

/// A completion request: a prompt plus sampling parameters.
#[derive(Debug, Clone)]
pub struct CompletionRequest {
    /// The full user prompt (instructions plus any embedded code/examples).
    pub prompt: String,
    /// Sampling parameters for this trial.
    pub params: SamplingParams,
}

impl CompletionRequest {
    /// Convenience constructor.
    pub fn new(prompt: impl Into<String>, params: SamplingParams) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            params,
        }
    }
}

/// A completion response.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionResponse {
    /// The raw model output (possibly markdown-fenced, possibly with prose).
    pub text: String,
}

impl CompletionResponse {
    /// Wrap raw text in a response.
    pub fn from_text(text: String) -> Self {
        CompletionResponse { text }
    }
}

/// A language model the harness can query.
pub trait LlmClient: Send + Sync {
    /// Which of the paper's models this client stands in for.
    fn model(&self) -> ModelId;

    /// Produce a completion for the request.
    fn complete(&self, request: &CompletionRequest) -> CompletionResponse;
}

/// Look up the system a table row refers to (helper shared by tests and the
/// harness when mapping row labels back to systems).
pub fn system_from_row_label(label: &str) -> Option<WorkflowSystemId> {
    WorkflowSystemId::from_name(label.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_names_match_paper_columns() {
        let names: Vec<&str> = ModelId::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["o3", "Gemini-2.5-Pro", "Claude-Sonnet-4", "LLaMA-3.3-70B"]
        );
    }

    #[test]
    fn o3_does_not_take_sampling_params() {
        assert!(!ModelId::O3.supports_sampling_params());
        assert!(ModelId::Gemini25Pro.supports_sampling_params());
        assert!(ModelId::ClaudeSonnet4.supports_sampling_params());
        assert!(ModelId::Llama33_70B.supports_sampling_params());
    }

    #[test]
    fn paper_default_sampling_params() {
        let p = SamplingParams::paper_defaults(3);
        assert!((p.temperature - 0.2).abs() < f64::EPSILON);
        assert!((p.top_p - 0.95).abs() < f64::EPSILON);
        assert_eq!(p.seed, 3);
    }

    #[test]
    fn system_from_row_label_parses_table_rows() {
        assert_eq!(
            system_from_row_label("ADIOS2"),
            Some(WorkflowSystemId::Adios2)
        );
        assert_eq!(
            system_from_row_label(" Wilkins "),
            Some(WorkflowSystemId::Wilkins)
        );
        assert_eq!(system_from_row_label("Henson to ADIOS2"), None);
    }
}
