//! The paper's experiment rows and the simulated models' responses to them,
//! shared by the `grid` workload and the service workloads' inputs.

use wfspeak_core::{BenchmarkConfig, ExperimentKind, WorkflowSystemId};
use wfspeak_corpus::prompts::{
    annotation_prompt, configuration_prompt, execution_prompt, translation_prompt, PromptVariant,
};
use wfspeak_corpus::references::{
    annotation_reference, configuration_reference, execution_reference, translation_reference,
};
use wfspeak_corpus::translation_pairs;
use wfspeak_llm::{CompletionRequest, LlmClient, SamplingParams, SimulatedLlm};

use crate::trace::Recorder;

/// What a row asks the models for.
#[derive(Clone, Copy, PartialEq)]
pub enum Task {
    Configuration,
    Annotation,
    Translation { source: WorkflowSystemId },
    Execution,
}

/// One row of a grid: a prompt per variant and the reference the row is
/// scored against.
#[derive(Clone, Copy)]
pub struct Row {
    pub task: Task,
    /// The system whose reference and API catalogue the row is scored
    /// against (for translation, the target).
    pub system: WorkflowSystemId,
    pub reference: &'static str,
}

impl Row {
    pub fn prompt(&self, variant: PromptVariant) -> String {
        match self.task {
            Task::Configuration => configuration_prompt(self.system, variant),
            Task::Annotation => annotation_prompt(self.system, variant),
            Task::Translation { source } => translation_prompt(source, self.system, variant),
            Task::Execution => execution_prompt(self.system, variant),
        }
    }
}

/// The rows `Benchmark::run_evaluation(kind, _)` scores, in its order.
pub fn evaluation_rows(kind: ExperimentKind) -> Vec<Row> {
    let row = |task, system, reference: Option<&'static str>| Row {
        task,
        system,
        reference: reference.expect("every grid row has a reference"),
    };
    match kind {
        ExperimentKind::Configuration => WorkflowSystemId::configuration_systems()
            .into_iter()
            .map(|s| row(Task::Configuration, s, configuration_reference(s)))
            .collect(),
        ExperimentKind::Annotation => WorkflowSystemId::annotation_systems()
            .into_iter()
            .map(|s| row(Task::Annotation, s, annotation_reference(s)))
            .collect(),
        ExperimentKind::Translation => translation_pairs()
            .into_iter()
            .map(|(source, target)| {
                row(
                    Task::Translation { source },
                    target,
                    translation_reference(target),
                )
            })
            .collect(),
    }
}

/// The rows `Benchmark::run_execution` runs, in its order.
pub fn execution_rows() -> Vec<Row> {
    WorkflowSystemId::execution_systems()
        .into_iter()
        .map(|system| Row {
            task: Task::Execution,
            system,
            reference: execution_reference(system),
        })
        .collect()
}

/// The trial responses of `client` to `prompt`, in trial-seed order.
pub fn trials(
    rec: &mut Recorder,
    config: &BenchmarkConfig,
    client: &SimulatedLlm,
    prompt: &str,
) -> Vec<String> {
    config
        .trial_seeds()
        .into_iter()
        .map(|seed| {
            let params = SamplingParams {
                temperature: config.temperature,
                top_p: config.top_p,
                seed,
            };
            let request = CompletionRequest::new(prompt, params);
            rec.time("llm.complete", || client.complete(&request)).text
        })
        .collect()
}
