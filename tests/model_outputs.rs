//! Pins what the five workflow-system models say and what the engine does
//! with the specs the benchmark runs, so that a change to how the models
//! are dispatched or how a run is recorded cannot change either.
//!
//! * **Reports.** The extracted payload of each of the 1,900 completions
//!   that `simulated_outputs.rs` lists (base seed 2025) is validated as a
//!   configuration and as task code under all five systems: 19,000
//!   reports, each folded as its `Display` text.
//! * **Specs.** The same payloads are read by `workflow_spec_from_config`
//!   under all five systems. Each report is folded as its `Display` text,
//!   and each recovered spec as its name and, per task, the name, process
//!   count and every `(dataset, role)`, then again normalized, then the
//!   `Display` of each of its `validate()` findings. The normalized task
//!   order of the twelve `bench_suite(42)` tiers is folded after them.
//! * **Runs.** `paper_3node`, `fewshot_2node` and the twelve
//!   `bench_suite(42)` tiers run on the default engine, once as they are
//!   and once with a failure injected into `producer`. Each run folds
//!   its event log in order (task, kind, dataset, timestep, failure reason)
//!   and the bits of every consumer sum, by task name.
//!
//! Every text is folded into an FNV-1a checksum followed by its length, so
//! the boundaries between texts count too.

mod common;

use common::{fnv, fold, grid_prompts, FNV_OFFSET};
use wfspeak::codemodel::extract_code;
use wfspeak::core::BenchmarkConfig;
use wfspeak::corpus::WorkflowSystemId;
use wfspeak::llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};
use wfspeak::runtime::{Engine, EngineConfig, EventKind};
use wfspeak::systems::topo::bench_suite;
use wfspeak::systems::{
    validate_config, validate_task_code, workflow_spec_from_config, DataRole, ValidationReport,
    WorkflowSpec,
};

/// The configuration and the task-code report of `text` under `system`.
fn validate(system: WorkflowSystemId, text: &str) -> (ValidationReport, ValidationReport) {
    (
        validate_config(system, text),
        validate_task_code(system, text),
    )
}

/// The extracted payload of every grid completion at the default seed.
fn payloads() -> Vec<String> {
    let config = BenchmarkConfig::default();
    let models = SimulatedLlm::all();
    let mut payloads = Vec::new();
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
                payloads.push(extract_code(&text));
            }
        }
    }
    payloads
}

/// Fold a spec's name and, per task, its name, process count and every
/// `(dataset, role)` in order.
fn fold_spec(hash: &mut u64, spec: &WorkflowSpec) {
    fold(hash, &spec.name);
    for task in &spec.tasks {
        fold(hash, &task.name);
        fnv(hash, &(task.nprocs as u64).to_le_bytes());
        for data in &task.data {
            fold(hash, &data.dataset);
            fold(
                hash,
                match data.role {
                    DataRole::Produces => "produces",
                    DataRole::Consumes => "consumes",
                },
            );
        }
    }
}

/// The paper's two workflows and every tier of the topology suite.
fn specs() -> Vec<WorkflowSpec> {
    let mut specs = vec![WorkflowSpec::paper_3node(), WorkflowSpec::fewshot_2node()];
    specs.extend(bench_suite(42).iter().map(|topo| topo.generate()));
    specs
}

#[test]
fn model_reports_match_their_pin() {
    let payloads = payloads();
    assert_eq!(payloads.len(), 1_600 + 300);
    let mut hash = FNV_OFFSET;
    let mut reports = 0;
    for payload in &payloads {
        for system in WorkflowSystemId::ALL {
            let (config, code) = validate(system, payload);
            fold(&mut hash, &config.to_string());
            fold(&mut hash, &code.to_string());
            reports += 2;
        }
    }
    assert_eq!(reports, 19_000);
    assert_eq!(hash, 0x8c62_b299_72a5_f537, "checksum {hash:#018x}");
}

#[test]
fn recovered_specs_match_their_pin() {
    let payloads = payloads();
    let mut hash = FNV_OFFSET;
    let mut specs = 0;
    for payload in &payloads {
        for system in WorkflowSystemId::ALL {
            let (spec, report) = workflow_spec_from_config(system, payload);
            fold(&mut hash, &report.to_string());
            if let Some(spec) = spec {
                fold_spec(&mut hash, &spec);
                fold_spec(&mut hash, &spec.normalized());
                for finding in spec.validate() {
                    fold(&mut hash, &finding.to_string());
                }
                specs += 1;
            }
        }
    }
    for topo in bench_suite(42) {
        for task in &topo.generate().normalized().tasks {
            fold(&mut hash, &task.name);
        }
    }
    assert_eq!(specs, 1_859);
    assert_eq!(hash, 0xa726_b3ed_ec82_b6b9, "checksum {hash:#018x}");
}

#[test]
fn engine_runs_match_their_pin() {
    let mut hash = FNV_OFFSET;
    let mut events = 0;
    for spec in specs() {
        for fail_task in [None, Some("producer".to_owned())] {
            let config = EngineConfig {
                fail_task,
                ..EngineConfig::default()
            };
            let outcome = Engine::new(config).run(&spec).unwrap();
            for event in outcome.trace.events().iter() {
                fold(&mut hash, &event.task);
                fold(&mut hash, event.kind.label());
                match &event.kind {
                    EventKind::DataPublished { dataset, timestep }
                    | EventKind::DataReceived { dataset, timestep } => {
                        fold(&mut hash, dataset);
                        fnv(&mut hash, &(*timestep as u64).to_le_bytes());
                    }
                    EventKind::TaskFailed { reason } => fold(&mut hash, reason),
                    EventKind::TaskStarted | EventKind::TaskFinished => {}
                }
                events += 1;
            }
            let mut sums: Vec<_> = outcome.consumer_sums.iter().collect();
            sums.sort_by(|a, b| a.0.cmp(b.0));
            for (task, sums) in sums {
                fold(&mut hash, task);
                for sum in sums {
                    fnv(&mut hash, &sum.to_bits().to_le_bytes());
                }
            }
        }
    }
    assert_eq!(events, 84_446);
    assert_eq!(hash, 0xf9f0_151b_77bb_5ef8, "checksum {hash:#018x}");
}
