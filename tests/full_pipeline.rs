//! End-to-end integration test: the full benchmark pipeline from prompt
//! construction through simulated models, response extraction, scoring and
//! table rendering.

use wfspeak_core::report::{qualitative_configurations, qualitative_translations, FullReport};
use wfspeak_core::{Benchmark, BenchmarkConfig, ExperimentKind, PromptVariant};
use wfspeak_metrics::Metric;

fn quick() -> Benchmark {
    Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 2,
        ..BenchmarkConfig::default()
    })
}

#[test]
fn every_experiment_produces_fully_populated_tables() {
    let benchmark = quick();
    for kind in ExperimentKind::ALL {
        let result = benchmark.run_experiment(kind, PromptVariant::Original);
        assert_eq!(result.bleu.rows(), kind.row_labels().as_slice(), "{kind}");
        assert_eq!(result.bleu.cols().len(), 4, "{kind}");
        for row in result.bleu.rows() {
            for col in result.bleu.cols() {
                let bleu = result.cell(Metric::Bleu, row, col);
                let chrf = result.cell(Metric::Chrf, row, col);
                assert_eq!(bleu.n, 2, "{kind} {row}/{col}");
                assert_eq!(chrf.n, 2, "{kind} {row}/{col}");
                assert!(bleu.mean >= 0.0 && bleu.mean <= 100.0);
                assert!(chrf.mean >= 0.0 && chrf.mean <= 100.0);
            }
        }
        let table = result.render_table(kind.paper_table());
        assert!(table.contains("Overall"));
    }
}

#[test]
fn scores_are_deterministic_across_identical_runs() {
    let a = quick().run_translation(PromptVariant::Original);
    let b = quick().run_translation(PromptVariant::Original);
    for row in a.bleu.rows() {
        for col in a.bleu.cols() {
            assert_eq!(
                a.cell(Metric::Bleu, row, col),
                b.cell(Metric::Bleu, row, col),
                "{row}/{col}"
            );
        }
    }
}

#[test]
fn trial_variance_is_reflected_in_standard_errors() {
    // With several trials at temperature 0.2 at least some cells should show
    // nonzero standard error (the paper reports ± values throughout), and
    // deterministic-leaning models (Claude) should show many zero-variance
    // cells.
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 4,
        ..BenchmarkConfig::default()
    });
    let result = benchmark.run_annotation(PromptVariant::Original);
    let mut nonzero = 0;
    for row in result.bleu.rows() {
        for col in result.bleu.cols() {
            if result.cell(Metric::Bleu, row, col).std_err > 0.0 {
                nonzero += 1;
            }
        }
    }
    assert!(
        nonzero >= 3,
        "expected some trial variance, found {nonzero} cells"
    );
}

#[test]
fn prompt_sensitivity_covers_all_variants_and_experiments() {
    let benchmark = Benchmark::with_simulated_models(BenchmarkConfig {
        trials: 1,
        ..BenchmarkConfig::default()
    });
    let sensitivity = benchmark.run_prompt_sensitivity();
    assert_eq!(sensitivity.results.len(), 3);
    for kind in ExperimentKind::ALL {
        let by_variant = &sensitivity.results[&kind];
        assert_eq!(by_variant.len(), 5, "{kind}");
        for row in kind.row_labels() {
            let heatmap = sensitivity.render_heatmap(kind, &row);
            assert!(heatmap.contains("original"));
            assert!(heatmap.contains("reordered"));
        }
    }
}

#[test]
fn qualitative_reports_validate_against_system_models() {
    let translations = qualitative_translations(2025);
    assert_eq!(translations.len(), 2);
    for sample in &translations {
        assert!(!sample.artifact.is_empty());
    }
    let configurations = qualitative_configurations(2025);
    assert_eq!(configurations.len(), 2);
    assert!(configurations[0].errors.len() < configurations[1].errors.len());
}

#[test]
fn full_report_round_trips_through_json() {
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
        prompt_sensitivity: Default::default(),
    };
    let json = report.to_json();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(value["configuration"]["bleu"].is_object());
    assert!(value["few_shot"]["few_shot"].is_object());
}
