//! Cross-crate consistency checks: the corpus references, the system
//! models and the runtime must agree with each other (the references
//! validate against their own system's model, and the specs the models
//! read from configurations execute).

use wfspeak_corpus::references::{annotation_reference, configuration_reference};
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_runtime::{Engine, EngineConfig};
use wfspeak_systems::{
    validate_config, validate_task_code, workflow_spec_from_config, WorkflowSpec,
};

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
fn reference_wilkins_config_parses_converts_and_executes() {
    let reference = configuration_reference(WorkflowSystemId::Wilkins).unwrap();
    let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Wilkins, reference);
    assert!(report.is_valid());
    let spec = spec.unwrap();
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

/// A Wilkins configuration for a workflow other than the paper's: `sim`
/// feeds `field` to `viz` and both `field` and `mesh` to `stats`.
const CUSTOM_WILKINS: &str = "\
tasks:
  - func: sim
    nprocs: 4
    outports:
      - filename: outfile.h5
        dsets:
          - name: /group1/field
            file: 0
            memory: 1
          - name: /group1/mesh
            file: 0
            memory: 1
  - func: viz
    nprocs: 2
    inports:
      - filename: outfile.h5
        dsets:
          - name: /group1/field
            file: 0
            memory: 1
  - func: stats
    nprocs: 1
    inports:
      - filename: outfile.h5
        dsets:
          - name: /group1/mesh
            file: 0
            memory: 1
          - name: /group1/field
            file: 0
            memory: 1
";

#[test]
fn generated_wilkins_config_for_arbitrary_specs_round_trips_and_runs() {
    use wfspeak_systems::TaskSpec;
    let spec = WorkflowSpec::new("wilkins-workflow")
        .with_task(TaskSpec::new("sim", 4).produces("field").produces("mesh"))
        .with_task(TaskSpec::new("viz", 2).consumes("field"))
        .with_task(TaskSpec::new("stats", 1).consumes("mesh").consumes("field"));
    let (parsed, report) = workflow_spec_from_config(WorkflowSystemId::Wilkins, CUSTOM_WILKINS);
    assert!(report.is_valid(), "{report}");
    let round_tripped = parsed.unwrap();
    assert_eq!(round_tripped, spec);

    let outcome = Engine::new(EngineConfig {
        timesteps: 2,
        elements: 8,
        ..EngineConfig::default()
    })
    .run(&round_tripped)
    .unwrap();
    assert!(outcome.completed, "{}", outcome.trace.render());
}
