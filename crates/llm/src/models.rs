//! The simulated models: one [`SimulatedLlm`] per paper model, all sharing
//! the same pipeline (analyse prompt → look up knowledge → degrade the
//! ground truth → wrap in the model's response style).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wfspeak_corpus::WorkflowSystemId;

use crate::degrade::{degrade_code, degrade_config};
use crate::knowledge::{behavior, degradation_level, effective_level, splitmix};
use crate::request::{analyze, TaskKind};
use crate::{CompletionRequest, CompletionResponse, LlmClient, ModelId};

/// A deterministic behavioural simulator of one of the paper's models.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    model: ModelId,
}

impl SimulatedLlm {
    /// Create a simulator for `model`.
    pub fn new(model: ModelId) -> Self {
        SimulatedLlm { model }
    }

    /// Simulators for all four models, in the paper's column order.
    pub fn all() -> Vec<SimulatedLlm> {
        ModelId::ALL.iter().map(|m| SimulatedLlm::new(*m)).collect()
    }

    fn response_style(&self, body: String, task: &TaskKind, rng: &mut StdRng) -> String {
        let profile = behavior(self.model);
        if !rng.gen_bool(profile.verbosity) {
            return body;
        }
        let language_tag = match task {
            TaskKind::Configuration { system } => match system {
                WorkflowSystemId::Henson => "",
                _ => "yaml",
            },
            TaskKind::Annotation { system } | TaskKind::Translation { target: system, .. } => {
                if system.uses_python_tasks() {
                    "python"
                } else {
                    "c"
                }
            }
            TaskKind::Unknown => "",
        };
        let preamble = match (self.model, task) {
            (ModelId::ClaudeSonnet4, TaskKind::Configuration { system }) => format!(
                "Here is the workflow configuration file for the {} system:",
                system.name()
            ),
            (ModelId::ClaudeSonnet4, _) => "Here is the annotated task code:".to_owned(),
            (ModelId::Gemini25Pro, _) => {
                "Of course. Based on your requirements, here is the result:".to_owned()
            }
            (ModelId::O3, _) => "Below is the requested artifact.".to_owned(),
            (ModelId::Llama33_70B, _) => "Sure! Here you go:".to_owned(),
        };
        let postamble = if rng.gen_bool(0.4) {
            "\nLet me know if you need any adjustments."
        } else {
            ""
        };
        format!("{preamble}\n\n```{language_tag}\n{body}```\n{postamble}")
    }
}

impl LlmClient for SimulatedLlm {
    fn model(&self) -> ModelId {
        self.model
    }

    fn complete(&self, request: &CompletionRequest) -> CompletionResponse {
        let analysis = analyze(&request.prompt);
        let base = degradation_level(self.model, &analysis.task);
        let temperature = if self.model.supports_sampling_params() {
            request.params.temperature
        } else {
            0.2
        };
        let level = effective_level(
            self.model,
            base,
            analysis.wording_fingerprint,
            analysis.has_few_shot_example,
            request.params.seed,
            temperature,
        );
        // One RNG per (model, prompt wording, trial): drives which concrete
        // degradations get applied and the response styling.
        let rng_seed = splitmix(
            request.params.seed ^ analysis.wording_fingerprint ^ ((self.model as u64) << 32),
        );
        let mut rng = StdRng::seed_from_u64(rng_seed);

        let body = match analysis.task {
            TaskKind::Configuration { system } => {
                degrade_config(system, level, self.model, &mut rng)
            }
            TaskKind::Annotation { system } => {
                degrade_code(system, None, level, self.model, &mut rng)
            }
            TaskKind::Translation { source, target } => {
                degrade_code(target, Some(source), level, self.model, &mut rng)
            }
            TaskKind::Unknown => {
                "I could not identify a workflow system or task in this request. Could you \
                 clarify which workflow system you are targeting?"
                    .to_owned()
            }
        };
        let text = self.response_style(body, &analysis.task, &mut rng);
        CompletionResponse::from_text(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_codemodel::extract_code;
    use wfspeak_corpus::prompts::{
        annotation_prompt, configuration_prompt, translation_prompt, PromptVariant,
    };
    use wfspeak_corpus::references::{annotation_reference, configuration_reference};
    use wfspeak_corpus::{fewshot, WorkflowSystemId};
    use wfspeak_metrics::{bleu::BleuScorer, Scorer};

    fn paper_request(prompt: String, seed: u64) -> CompletionRequest {
        CompletionRequest::new(prompt, crate::SamplingParams::paper_defaults(seed))
    }

    #[test]
    fn all_returns_four_distinct_models() {
        let models = SimulatedLlm::all();
        assert_eq!(models.len(), 4);
        let names: std::collections::HashSet<&str> =
            models.iter().map(|m| m.model().name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn responses_are_deterministic_per_seed_and_vary_across_seeds() {
        let llm = SimulatedLlm::new(ModelId::Gemini25Pro);
        let prompt = configuration_prompt(WorkflowSystemId::Wilkins, PromptVariant::Original);
        let a = llm.complete(&paper_request(prompt.clone(), 1));
        let b = llm.complete(&paper_request(prompt.clone(), 1));
        assert_eq!(a.text, b.text);
        let responses: std::collections::HashSet<String> = (0..5)
            .map(|s| llm.complete(&paper_request(prompt.clone(), s)).text)
            .collect();
        assert!(responses.len() > 1, "trials should not be identical");
    }

    #[test]
    fn configuration_scores_rank_adios2_above_henson_and_wilkins() {
        // The paper's Table 1 Overall column: ADIOS2 is the system LLMs
        // configure best, Henson the one they configure worst.  The three
        // leading models also show the ordering individually.
        let scorer = BleuScorer::default();
        let mean_for = |llm: &SimulatedLlm, system: WorkflowSystemId| {
            let reference = configuration_reference(system).unwrap();
            let mut total = 0.0;
            for seed in 0..5 {
                let prompt = configuration_prompt(system, PromptVariant::Original);
                let response = llm.complete(&paper_request(prompt, seed));
                let code = extract_code(&response.text);
                total += scorer.score(&code, reference);
            }
            total / 5.0
        };
        let mut overall_adios2 = 0.0;
        let mut overall_henson = 0.0;
        let mut overall_wilkins = 0.0;
        for llm in SimulatedLlm::all() {
            let adios2 = mean_for(&llm, WorkflowSystemId::Adios2);
            let henson = mean_for(&llm, WorkflowSystemId::Henson);
            let wilkins = mean_for(&llm, WorkflowSystemId::Wilkins);
            overall_adios2 += adios2 / 4.0;
            overall_henson += henson / 4.0;
            overall_wilkins += wilkins / 4.0;
            if llm.model() != ModelId::Llama33_70B {
                assert!(
                    adios2 > henson,
                    "{}: ADIOS2 config score {adios2} should beat Henson {henson}",
                    llm.model()
                );
            }
        }
        assert!(
            overall_adios2 > overall_wilkins && overall_wilkins > overall_henson,
            "overall ordering ADIOS2 ({overall_adios2:.1}) > Wilkins ({overall_wilkins:.1}) > Henson ({overall_henson:.1}) expected"
        );
        assert!(overall_adios2 > overall_henson + 15.0);
    }

    #[test]
    fn few_shot_prompting_dramatically_improves_wilkins_config() {
        let scorer = BleuScorer::default();
        let reference = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
        for llm in SimulatedLlm::all() {
            let base_prompt =
                configuration_prompt(WorkflowSystemId::Wilkins, PromptVariant::Original);
            let fs_prompt =
                fewshot::augment_configuration_prompt(&base_prompt, WorkflowSystemId::Wilkins);
            let mut zero = 0.0;
            let mut few = 0.0;
            for seed in 0..5 {
                zero += scorer.score(
                    &extract_code(&llm.complete(&paper_request(base_prompt.clone(), seed)).text),
                    reference,
                );
                few += scorer.score(
                    &extract_code(&llm.complete(&paper_request(fs_prompt.clone(), seed)).text),
                    reference,
                );
            }
            zero /= 5.0;
            few /= 5.0;
            assert!(
                few > zero + 20.0,
                "{}: few-shot {few} should be far above zero-shot {zero}",
                llm.model()
            );
            assert!(few > 70.0, "{}: few-shot score {few} too low", llm.model());
        }
    }

    #[test]
    fn pycompss_annotation_is_geminis_strength_and_llamas_weakness() {
        let scorer = BleuScorer::default();
        let reference = annotation_reference(WorkflowSystemId::PyCompss).unwrap();
        let score_for = |model: ModelId| {
            let llm = SimulatedLlm::new(model);
            let mut total = 0.0;
            for seed in 0..5 {
                let prompt = annotation_prompt(WorkflowSystemId::PyCompss, PromptVariant::Original);
                let code = extract_code(&llm.complete(&paper_request(prompt, seed)).text);
                total += scorer.score(&code, reference);
            }
            total / 5.0
        };
        let gemini = score_for(ModelId::Gemini25Pro);
        let llama = score_for(ModelId::Llama33_70B);
        assert!(gemini > 70.0, "Gemini PyCOMPSs annotation {gemini}");
        assert!(llama < 40.0, "LLaMA PyCOMPSs annotation {llama}");
        assert!(gemini > llama + 30.0);
    }

    #[test]
    fn translation_response_targets_the_right_system() {
        let llm = SimulatedLlm::new(ModelId::O3);
        let prompt = translation_prompt(
            WorkflowSystemId::Henson,
            WorkflowSystemId::Adios2,
            PromptVariant::Original,
        );
        let response = llm.complete(&paper_request(prompt, 0));
        let code = extract_code(&response.text);
        assert!(code.contains("adios2_") || code.contains("adios"));
    }

    #[test]
    fn o3_ignores_temperature() {
        let llm = SimulatedLlm::new(ModelId::O3);
        let prompt = configuration_prompt(WorkflowSystemId::Wilkins, PromptVariant::Original);
        let hot = CompletionRequest::new(
            prompt.clone(),
            crate::SamplingParams {
                temperature: 1.5,
                top_p: 0.95,
                seed: 3,
            },
        );
        let cold = CompletionRequest::new(
            prompt,
            crate::SamplingParams {
                temperature: 0.0,
                top_p: 0.95,
                seed: 3,
            },
        );
        assert_eq!(llm.complete(&hot).text, llm.complete(&cold).text);
    }

    #[test]
    fn unknown_prompt_yields_clarification() {
        let llm = SimulatedLlm::new(ModelId::ClaudeSonnet4);
        let response = llm.complete(&paper_request("Tell me a joke about HPC.".into(), 0));
        assert!(response.text.contains("clarify"));
    }

    #[test]
    fn responses_often_wrap_code_in_markdown_fences() {
        let llm = SimulatedLlm::new(ModelId::ClaudeSonnet4);
        let mut fenced = 0;
        for seed in 0..10 {
            let prompt = configuration_prompt(WorkflowSystemId::Adios2, PromptVariant::Original);
            if llm
                .complete(&paper_request(prompt, seed))
                .text
                .contains("```")
            {
                fenced += 1;
            }
        }
        assert!(
            fenced >= 5,
            "expected frequent markdown fencing, got {fenced}/10"
        );
    }
}
