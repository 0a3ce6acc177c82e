//! Pins the scoring grids behind the paper's tables, and checks that the
//! scoring grid and the evaluation grid score every response alike.
//!
//! The checksum folds FNV-1a over the bits of every BLEU and ChrF sample of
//! the prompt-sensitivity study (Tables 1–3 under all five prompt variants,
//! Figure 1) and of the few-shot study (Table 5), in row, column and trial
//! order, and then over the text of the 180-artifact configuration corpus.
//! Each cell's sample count and each text's length are folded too, so the
//! boundaries between them count.

mod common;

use common::{fnv, fold, FNV_OFFSET};
use wfspeak::core::{Benchmark, BenchmarkConfig, ExperimentKind, ExperimentResult, PromptVariant};

/// Fold every sample of `result`: per row, per column, per trial its BLEU
/// then its ChrF bits.
fn fold_result(hash: &mut u64, result: &ExperimentResult) -> usize {
    let mut samples = 0;
    for row in result.bleu.rows() {
        for col in result.bleu.cols() {
            let bleu = result.bleu.samples(row, col);
            let chrf = result.chrf.samples(row, col);
            assert_eq!(bleu.len(), chrf.len(), "{row}/{col}");
            fnv(hash, &(bleu.len() as u64).to_le_bytes());
            for (b, c) in bleu.iter().zip(chrf) {
                fnv(hash, &b.to_bits().to_le_bytes());
                fnv(hash, &c.to_bits().to_le_bytes());
            }
            samples += bleu.len();
        }
    }
    samples
}

/// The checksum of every table grid sample and corpus text at `base_seed`,
/// with the number of samples and of texts folded into it.
fn table_checksum(base_seed: u64) -> (u64, usize, usize) {
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        base_seed,
        ..BenchmarkConfig::default()
    });
    let mut hash = FNV_OFFSET;
    let mut samples = 0;
    let sensitivity = benchmark.run_prompt_sensitivity();
    for kind in ExperimentKind::ALL {
        for variant in PromptVariant::ALL {
            samples += fold_result(&mut hash, &sensitivity.results[&kind][variant.label()]);
        }
    }
    let few_shot = benchmark.run_few_shot_comparison();
    samples += fold_result(&mut hash, &few_shot.zero_shot);
    samples += fold_result(&mut hash, &few_shot.few_shot);
    let corpus = benchmark.configuration_corpus();
    for text in &corpus {
        fold(&mut hash, text);
    }
    (hash, samples, corpus.len())
}

/// Per variant 11 rows × 4 models × 5 trials over the three experiments,
/// plus the few-shot study's two runs of 3 rows × 4 models × 5 trials.
const SAMPLES: usize = 5 * 11 * 4 * 5 + 2 * 3 * 4 * 5;
/// Three variants × three configuration systems × four models × five trials.
const CORPUS: usize = 180;

#[test]
fn table_grids_match_their_pin_at_the_default_seed() {
    let base_seed = BenchmarkConfig::default().base_seed;
    assert_eq!(base_seed, 2025);
    let (hash, samples, texts) = table_checksum(base_seed);
    assert_eq!((samples, texts), (SAMPLES, CORPUS));
    assert_eq!(hash, 0x5a51_3cdc_2c85_dd8d, "checksum {hash:#018x}");
}

#[test]
fn table_grids_match_their_pin_at_another_seed() {
    let (hash, samples, texts) = table_checksum(7);
    assert_eq!((samples, texts), (SAMPLES, CORPUS));
    assert_eq!(hash, 0xe911_b431_7ba3_227d, "checksum {hash:#018x}");
}

fn bits(samples: impl IntoIterator<Item = f64>) -> Vec<u64> {
    samples.into_iter().map(f64::to_bits).collect()
}

#[test]
fn scoring_grid_cells_equal_evaluation_grid_cells() {
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig::default());
    for kind in ExperimentKind::ALL {
        for variant in PromptVariant::ALL {
            let scored = benchmark.run_experiment(kind, variant);
            let evaluated = benchmark.run_evaluation(kind, variant);
            let cells = scored.bleu.rows().len() * scored.bleu.cols().len();
            assert_eq!(evaluated.cells.len(), cells, "{kind}/{variant:?}");
            for cell in &evaluated.cells {
                let (row, model) = (&cell.row, &cell.model);
                let at = format!("{kind}/{variant:?}/{row}/{model}");
                assert_eq!(
                    bits(scored.bleu.samples(row, model).iter().copied()),
                    bits(cell.trials.iter().map(|e| e.bleu)),
                    "{at}"
                );
                assert_eq!(
                    bits(scored.chrf.samples(row, model).iter().copied()),
                    bits(cell.trials.iter().map(|e| e.chrf)),
                    "{at}"
                );
            }
        }
    }
}
