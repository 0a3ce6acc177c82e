//! Workspace-level differential check of `wfspeak-codemodel`: every
//! simulated response of the three evaluation grids (configuration,
//! annotation and translation; five prompt variants × four models × five
//! seeds), raw and extracted, goes through the byte scanner and through the
//! char-vector implementation it replaced, under both languages. Tokens,
//! calls, decorators, unique call names and the full `CallComparison`
//! against the row's reference and API catalogue must agree (line numbers
//! too, except where the old code miscounts an escaped newline).

#[path = "../crates/codemodel/tests/oracle/mod.rs"]
mod oracle;

use wfspeak::codemodel::{extract_code, Language};
use wfspeak::core::BenchmarkConfig;
use wfspeak::corpus::prompts::{
    annotation_prompt, configuration_prompt, translation_prompt, PromptVariant,
};
use wfspeak::corpus::references::{
    annotation_reference, configuration_reference, translation_reference,
};
use wfspeak::corpus::{translation_pairs, WorkflowSystemId};
use wfspeak::llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};
use wfspeak::systems::api::catalog_for;

/// One grid row: its reference, its prompt under a variant, and the system
/// whose API catalogue the response is compared against.
type Row = (&'static str, String, WorkflowSystemId);

/// Run every simulated response to the rows `rows_for` builds for each
/// prompt variant through both implementations; returns how many
/// (text, language) pairs were compared.
fn check_grid(rows_for: impl Fn(PromptVariant) -> Vec<Row>) -> usize {
    let config = BenchmarkConfig::default();
    let mut compared = 0;
    for variant in PromptVariant::ALL {
        for (reference, prompt, system) in rows_for(variant) {
            let catalog = catalog_for(system);
            let known = catalog.function_names();
            for language in [Language::C, Language::Python] {
                oracle::check_agreement(reference, language).unwrap();
            }
            for client in SimulatedLlm::all() {
                for seed in config.trial_seeds() {
                    let params = SamplingParams {
                        temperature: config.temperature,
                        top_p: config.top_p,
                        seed,
                    };
                    let response = client.complete(&CompletionRequest::new(prompt.clone(), params));
                    let extracted = extract_code(&response.text);
                    for text in [response.text.as_str(), extracted.as_str()] {
                        for language in [Language::C, Language::Python] {
                            oracle::check_agreement(text, language).unwrap();
                            let (prefixes, known) = (&catalog.prefixes, &known);
                            oracle::check_comparison(text, reference, language, prefixes, known)
                                .unwrap();
                            compared += 1;
                        }
                    }
                }
            }
        }
    }
    compared
}

/// Responses per row: 5 variants × 4 models × 5 seeds, raw and extracted,
/// under both languages.
const PER_ROW: usize = 5 * 4 * 5 * 2 * 2;

#[test]
fn configuration_grid_responses_lex_and_compare_as_before() {
    let compared = check_grid(|variant| {
        WorkflowSystemId::configuration_systems()
            .into_iter()
            .map(|system| {
                let reference = configuration_reference(system).unwrap();
                (reference, configuration_prompt(system, variant), system)
            })
            .collect()
    });
    assert_eq!(compared, 3 * PER_ROW);
}

#[test]
fn annotation_grid_responses_lex_and_compare_as_before() {
    let compared = check_grid(|variant| {
        WorkflowSystemId::annotation_systems()
            .into_iter()
            .map(|system| {
                let reference = annotation_reference(system).unwrap();
                (reference, annotation_prompt(system, variant), system)
            })
            .collect()
    });
    assert_eq!(compared, 4 * PER_ROW);
}

#[test]
fn translation_grid_responses_lex_and_compare_as_before() {
    let compared = check_grid(|variant| {
        translation_pairs()
            .into_iter()
            .map(|(source, target)| {
                let reference = translation_reference(target).unwrap();
                (
                    reference,
                    translation_prompt(source, target, variant),
                    target,
                )
            })
            .collect()
    });
    assert_eq!(compared, 4 * PER_ROW);
}
