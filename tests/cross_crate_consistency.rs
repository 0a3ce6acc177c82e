//! Cross-crate consistency checks: the corpus references, the system
//! models, the rule-based translator and the runtime must agree with each
//! other (the references validate, generate back to themselves, and
//! execute).

use wfspeak_corpus::references::{annotation_reference, configuration_reference};
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_metrics::{BleuScorer, ChrfScorer, Scorer};
use wfspeak_runtime::{Engine, EngineConfig};
use wfspeak_systems::translate::{strip_annotations, translate};
use wfspeak_systems::wilkins::WilkinsConfig;
use wfspeak_systems::{generate_config, validate_config, validate_task_code, WorkflowSpec};

#[test]
fn references_validate_against_their_own_system_models() {
    for system in WorkflowSystemId::configuration_systems() {
        let reference = configuration_reference(system).unwrap();
        let report = validate_config(system, reference);
        assert!(report.is_valid(), "{system} config reference: {report}");
    }
    for system in WorkflowSystemId::annotation_systems() {
        let reference = annotation_reference(system).unwrap();
        let report = validate_task_code(system, reference);
        assert!(report.is_valid(), "{system} annotation reference: {report}");
    }
}

#[test]
fn generated_configs_score_perfectly_against_corpus_references() {
    // The system models' generators and the corpus ground truth are the same
    // artifact: BLEU/ChrF of 100 by construction.
    let spec = WorkflowSpec::paper_3node();
    let bleu = BleuScorer::default();
    let chrf = ChrfScorer::default();
    for system in WorkflowSystemId::configuration_systems() {
        let generated = generate_config(system, &spec).unwrap();
        let reference = configuration_reference(system).unwrap();
        assert!(
            (bleu.score(&generated, reference) - 100.0).abs() < 1e-6,
            "{system}"
        );
        assert!(
            (chrf.score(&generated, reference) - 100.0).abs() < 1e-6,
            "{system}"
        );
    }
}

#[test]
fn rule_based_translation_validates_for_every_paper_pair() {
    for (source, target) in wfspeak_corpus::translation_pairs() {
        let source_code = annotation_reference(source).unwrap();
        let translated = translate(source_code, source, target).unwrap();
        let report = validate_task_code(target, &translated);
        assert!(report.is_valid(), "{source} -> {target}: {report}");
    }
}

#[test]
fn rule_based_translation_scores_above_the_simulated_llm_average() {
    // Ablation: the deterministic strip-and-reannotate baseline should score
    // at least as well as a mid-tier LLM on the same pair, because it never
    // hallucinates.
    let bleu = BleuScorer::default();
    for (source, target) in wfspeak_corpus::translation_pairs() {
        let source_code = annotation_reference(source).unwrap();
        let reference = annotation_reference(target).unwrap();
        let translated = translate(source_code, source, target).unwrap();
        let score = bleu.score(&translated, reference);
        assert!(
            score > 40.0,
            "{source} -> {target}: rule-based baseline scored {score:.1}"
        );
    }
}

#[test]
fn stripping_annotations_recovers_code_close_to_the_bare_producer() {
    let bleu = BleuScorer::default();
    let bare_c = wfspeak_corpus::task_codes::C_PRODUCER;
    for system in [WorkflowSystemId::Adios2, WorkflowSystemId::Henson] {
        let annotated = annotation_reference(system).unwrap();
        let stripped = strip_annotations(annotated, system);
        let score = bleu.score(&stripped, bare_c);
        assert!(
            score > 55.0,
            "{system}: stripped code should resemble the bare producer, got {score:.1}"
        );
    }
}

#[test]
fn reference_wilkins_config_parses_converts_and_executes() {
    let reference = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
    let (config, report) = WilkinsConfig::parse(reference);
    assert!(report.is_valid());
    let spec = config.unwrap().to_spec("integration");
    assert!(!spec.validate().iter().any(|d| d.is_error()));
    assert_eq!(spec.total_procs(), 5);

    let outcome = Engine::new(EngineConfig {
        timesteps: 2,
        elements: 16,
        ..EngineConfig::default()
    })
    .run(&spec)
    .unwrap();
    assert!(outcome.completed, "{}", outcome.trace.render());
    assert_eq!(outcome.total_received(), 4);
}

#[test]
fn generated_wilkins_config_for_arbitrary_specs_round_trips_and_runs() {
    use wfspeak_systems::TaskSpec;
    let spec = WorkflowSpec::new("custom")
        .with_task(TaskSpec::new("sim", 4).produces("field").produces("mesh"))
        .with_task(TaskSpec::new("viz", 2).consumes("field"))
        .with_task(TaskSpec::new("stats", 1).consumes("mesh").consumes("field"));
    let config_text = generate_config(WorkflowSystemId::Wilkins, &spec).unwrap();
    let (parsed, report) = WilkinsConfig::parse(&config_text);
    assert!(report.is_valid(), "{report}");
    let round_tripped = parsed.unwrap().to_spec("custom");
    assert_eq!(round_tripped.edges().len(), spec.edges().len());

    let outcome = Engine::new(EngineConfig {
        timesteps: 2,
        elements: 8,
        ..EngineConfig::default()
    })
    .run(&round_tripped)
    .unwrap();
    assert!(outcome.completed, "{}", outcome.trace.render());
}
