//! Pins the text of every completion the paper grid asks the simulated
//! models for, so that a change to the simulator's speed cannot change what
//! it says.
//!
//! Per prompt variant the grid asks for the configuration, annotation and
//! translation rows and the five execution rows (3 + 4 + 4 + 5 = 16 prompts)
//! from each of the four models at each of the five trial seeds: 1,600
//! completions over the five variants. The few-shot configuration prompts
//! (Table 5's second row) add 3 × 5 × 4 × 5 = 300 more. Each text is folded
//! into one FNV-1a checksum, followed by its length so that the boundaries
//! between texts count too.

mod common;

use common::{fold, grid_prompts, FNV_OFFSET};
use wfspeak::core::BenchmarkConfig;
use wfspeak::llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};

/// The checksum of every completion at `base_seed`, and how many were
/// folded into it.
fn completions_checksum(base_seed: u64) -> (u64, usize) {
    let config = BenchmarkConfig {
        base_seed,
        ..BenchmarkConfig::default()
    };
    let models = SimulatedLlm::all();
    let mut hash = FNV_OFFSET;
    let mut texts = 0;
    for prompt in grid_prompts() {
        for model in &models {
            for seed in config.trial_seeds() {
                let params = SamplingParams {
                    temperature: config.temperature,
                    top_p: config.top_p,
                    seed,
                };
                let text = model
                    .complete(&CompletionRequest::new(prompt.as_str(), params))
                    .text;
                fold(&mut hash, &text);
                texts += 1;
            }
        }
    }
    (hash, texts)
}

/// 1,600 grid completions plus 300 few-shot ones.
const TEXTS: usize = 1_600 + 300;

#[test]
fn grid_completions_match_their_pin_at_the_default_seed() {
    let base_seed = BenchmarkConfig::default().base_seed;
    assert_eq!(base_seed, 2025);
    let (hash, texts) = completions_checksum(base_seed);
    assert_eq!(texts, TEXTS);
    assert_eq!(hash, 0xd306_3823_6211_7012, "checksum {hash:#018x}");
}

#[test]
fn grid_completions_match_their_pin_at_another_seed() {
    let (hash, texts) = completions_checksum(7);
    assert_eq!(texts, TEXTS);
    assert_eq!(hash, 0x7041_ed4a_e6c9_12b8, "checksum {hash:#018x}");
}
