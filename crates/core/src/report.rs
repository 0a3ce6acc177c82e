//! Qualitative reports (Tables 4 and 6) and JSON export of full benchmark
//! runs.
//!
//! The quantitative tables show *how much* models deviate; the qualitative
//! reports show *how*: concrete generated artifacts side by side with the
//! validator findings (hallucinated API calls, nonexistent configuration
//! fields) that the paper highlights in red.

use serde::Serialize;

use wfspeak_codemodel::extract_code;
use wfspeak_corpus::prompts::{configuration_prompt, translation_prompt, PromptVariant};
use wfspeak_corpus::{fewshot, WorkflowSystemId};
use wfspeak_llm::{CompletionRequest, LlmClient, ModelId, SamplingParams, SimulatedLlm};
use wfspeak_systems::{validate_config, validate_task_code, Severity};

use crate::config::BenchmarkConfig;
use crate::experiments::{FewShotComparison, PromptSensitivity};
use crate::result::ExperimentResult;

/// One qualitative sample: a generated artifact plus validator findings.
#[derive(Debug, Clone, Serialize)]
pub struct QualitativeSample {
    /// Model that produced the artifact.
    pub model: String,
    /// Short description of the request (e.g. `ADIOS2 to Henson translation`).
    pub scenario: String,
    /// The extracted code/configuration payload.
    pub artifact: String,
    /// Error-severity findings from the target system's validator (the
    /// "red" annotations of Tables 4 and 6).
    pub errors: Vec<String>,
    /// Warning-severity findings (redundant boilerplate and similar).
    pub warnings: Vec<String>,
}

fn validate(
    sample_system: WorkflowSystemId,
    artifact: &str,
    is_config: bool,
) -> (Vec<String>, Vec<String>) {
    let report = if is_config {
        validate_config(sample_system, artifact)
    } else {
        validate_task_code(sample_system, artifact)
    };
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    let warnings = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .map(|d| d.to_string())
        .collect();
    (errors, warnings)
}

fn one_completion(client: &dyn LlmClient, prompt: String, seed: u64) -> String {
    let response = client.complete(&CompletionRequest::new(
        prompt,
        SamplingParams::paper_defaults(seed),
    ));
    extract_code(&response.text)
}

/// Reproduce Table 4: the ADIOS2 → Henson translation as produced by
/// LLaMA-3.3-70B (left) and Gemini-2.5-Pro (right), with the nonexistent
/// Henson API calls surfaced by the validator.
pub fn qualitative_translations(seed: u64) -> Vec<QualitativeSample> {
    let prompt = translation_prompt(
        WorkflowSystemId::Adios2,
        WorkflowSystemId::Henson,
        PromptVariant::Original,
    );
    [ModelId::Llama33_70B, ModelId::Gemini25Pro]
        .into_iter()
        .map(|model| {
            let client = SimulatedLlm::new(model);
            let artifact = one_completion(&client, prompt.clone(), seed);
            let (errors, warnings) = validate(WorkflowSystemId::Henson, &artifact, false);
            QualitativeSample {
                model: model.name().to_owned(),
                scenario: "ADIOS2 to Henson translation".to_owned(),
                artifact,
                errors,
                warnings,
            }
        })
        .collect()
}

/// Reproduce Table 6: the Wilkins configuration generated by o3 with
/// few-shot prompting (left) and zero-shot prompting (right), with the
/// nonexistent fields surfaced by the validator.
pub fn qualitative_configurations(seed: u64) -> Vec<QualitativeSample> {
    let client = SimulatedLlm::new(ModelId::O3);
    let base_prompt = configuration_prompt(WorkflowSystemId::Wilkins, PromptVariant::Original);
    let few_shot_prompt =
        fewshot::augment_configuration_prompt(&base_prompt, WorkflowSystemId::Wilkins);
    [
        ("few-shot prompting", few_shot_prompt),
        ("zero-shot prompting", base_prompt),
    ]
    .into_iter()
    .map(|(label, prompt)| {
        let artifact = one_completion(&client, prompt, seed);
        let (errors, warnings) = validate(WorkflowSystemId::Wilkins, &artifact, true);
        QualitativeSample {
            model: ModelId::O3.name().to_owned(),
            scenario: format!("Wilkins configuration, {label}"),
            artifact,
            errors,
            warnings,
        }
    })
    .collect()
}

/// Render qualitative samples as text (artifact followed by findings).
pub fn render_samples(title: &str, samples: &[QualitativeSample]) -> String {
    let mut out = format!("{title}\n");
    for sample in samples {
        out.push_str(&format!(
            "\n--- {} — {} ---\n",
            sample.model, sample.scenario
        ));
        out.push_str(&sample.artifact);
        if !sample.artifact.ends_with('\n') {
            out.push('\n');
        }
        if sample.errors.is_empty() && sample.warnings.is_empty() {
            out.push_str(">>> validator: no findings (artifact is valid)\n");
        }
        for e in &sample.errors {
            out.push_str(&format!(">>> {e}\n"));
        }
        for w in &sample.warnings {
            out.push_str(&format!(">>> {w}\n"));
        }
    }
    out
}

/// A full benchmark run, serialised as `repro json` prints it.
#[derive(Debug, Serialize)]
pub struct FullReport {
    /// Benchmark configuration used.
    pub config: BenchmarkConfig,
    /// Table 1.
    pub configuration: ExperimentResult,
    /// Table 2.
    pub annotation: ExperimentResult,
    /// Table 3.
    pub translation: ExperimentResult,
    /// Table 5.
    pub few_shot: FewShotComparison,
    /// Figure 1 data.
    pub prompt_sensitivity: PromptSensitivity,
}

impl FullReport {
    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_reproduction_flags_hallucinated_henson_calls() {
        let samples = qualitative_translations(2025);
        assert_eq!(samples.len(), 2);
        let llama = &samples[0];
        assert_eq!(llama.model, "LLaMA-3.3-70B");
        assert!(
            !llama.errors.is_empty(),
            "LLaMA translation should contain invalid Henson API usage"
        );
        let gemini = &samples[1];
        assert_eq!(gemini.model, "Gemini-2.5-Pro");
        assert!(gemini.artifact.contains("henson_yield"));
    }

    #[test]
    fn table6_reproduction_contrasts_few_shot_and_zero_shot() {
        let samples = qualitative_configurations(2025);
        assert_eq!(samples.len(), 2);
        let few_shot = &samples[0];
        let zero_shot = &samples[1];
        assert!(few_shot.scenario.contains("few-shot"));
        assert!(
            few_shot.errors.is_empty(),
            "few-shot config should validate cleanly: {:?}",
            few_shot.errors
        );
        assert!(
            !zero_shot.errors.is_empty(),
            "zero-shot config should contain nonexistent fields"
        );
        assert!(few_shot.artifact.contains("inports") || few_shot.artifact.contains("outports"));
    }

    #[test]
    fn render_samples_includes_artifacts_and_findings() {
        let samples = qualitative_configurations(2025);
        let text = render_samples("Table 6", &samples);
        assert!(text.contains("Table 6"));
        assert!(text.contains("o3"));
        assert!(text.contains(">>>"));
    }

    #[test]
    fn full_report_serialises_to_json() {
        use crate::runner::Benchmark;
        let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
            trials: 1,
            ..BenchmarkConfig::default()
        });
        let report = FullReport {
            config: benchmark.config().clone(),
            configuration: benchmark.run_configuration(PromptVariant::Original, false),
            annotation: benchmark.run_annotation(PromptVariant::Original),
            translation: benchmark.run_translation(PromptVariant::Original),
            few_shot: benchmark.run_few_shot_comparison(),
            prompt_sensitivity: PromptSensitivity::default(),
        };
        let json = report.to_json();
        assert!(json.contains("\"configuration\""));
        assert!(json.contains("ADIOS2"));
    }
}
