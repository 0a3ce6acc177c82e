//! Parsl: Python parallel scripting with app decorators and futures.
//!
//! Parsl has no workflow-structure configuration file — its `Config` object
//! describes the execution environment (executors, providers), which is why
//! the paper excludes it from the configuration experiment.  The benchmark
//! exercises Parsl through task-code annotation: wrapping the producer in
//! `@python_app`, loading a configuration, and synchronising via futures.
//! The workflow *structure* lives in that annotated code, and
//! [`ParslScript`] recovers it for the runtime: app definitions become
//! tasks, and the dataflow is read from call sites (file-name literals bound
//! to `out`/`in` parameters, and futures passed from one app to another).

use std::collections::BTreeSet;

use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::pyflow::{
    dataset_from_path, param_direction, scan_functions, scan_invocations, string_literal,
    PyInvocation,
};
use crate::spec::{DataRole, TaskSpec, WorkflowSpec};

/// Decorator names that mark a function as a Parsl app (task).
const APP_DECORATORS: &[&str] = &["python_app", "bash_app", "join_app"];

/// One `@python_app`-style definition recovered from the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParslApp {
    /// Function (task) name.
    pub name: String,
    /// Parameter names in declaration order.
    pub params: Vec<String>,
    /// The app decorator used (`python_app`, `bash_app` or `join_app`).
    pub decorator: String,
}

/// A parsed Parsl script: app definitions plus their top-level invocations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParslScript {
    /// App definitions in source order.
    pub apps: Vec<ParslApp>,
    /// Invocations of those apps in source order.
    pub invocations: Vec<PyInvocation>,
}

impl ParslScript {
    /// Parse annotated Parsl task code, reporting missing imports and the
    /// absence of any app definition.
    pub fn parse(source: &str) -> (Option<ParslScript>, ValidationReport) {
        let mut report = ValidationReport::valid();
        if !source.contains("import parsl") && !source.contains("from parsl") {
            report.push(Diagnostic::error(
                DiagnosticKind::MissingImport,
                "the script never imports parsl",
            ));
        }
        let apps: Vec<ParslApp> = scan_functions(source)
            .into_iter()
            .filter_map(|f| {
                f.decorator_in(APP_DECORATORS).map(|d| ParslApp {
                    name: f.name.clone(),
                    params: f.params.clone(),
                    decorator: d.base_name().to_owned(),
                })
            })
            .collect();
        if apps.is_empty() {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "the script defines no Parsl apps (no @python_app/@bash_app/@join_app \
                 decorated functions), so no workflow structure can be recovered",
            ));
            return (None, report);
        }
        let names: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        let invocations = scan_invocations(source, &names);
        (Some(ParslScript { apps, invocations }), report)
    }

    /// Reconstruct the neutral workflow specification the script describes.
    ///
    /// Apps become tasks (one process each — Parsl apps are single-process
    /// Python functions).  Dataflow is inferred the way
    /// [`HensonScript::to_spec`](crate::henson::HensonScript::to_spec)
    /// infers it from naming conventions: a file-name literal bound to a
    /// parameter whose name implies a direction (`outfile`, `output_path`,
    /// `infile`, ...) produces or consumes the file's dataset, and a future
    /// assigned from one app and passed to another is a produces/consumes
    /// edge named after the future variable.  Directional parameters never
    /// bound at a call site fall back to the parameter name as the dataset.
    pub fn to_spec(&self, name: &str) -> Result<WorkflowSpec, Diagnostic> {
        if self.apps.is_empty() {
            return Err(Diagnostic::error(
                DiagnosticKind::EmptyWorkflow,
                "the script defines no Parsl apps, so no tasks can be recovered",
            ));
        }
        let mut spec = WorkflowSpec::new(name);
        for app in &self.apps {
            let mut task = TaskSpec::new(&app.name, 1);
            for (dataset, role) in dataflow_for(
                &app.name,
                &app.params,
                &self.invocations,
                &param_direction,
                &|other| self.apps.iter().any(|a| a.name == other),
            ) {
                task = match role {
                    DataRole::Produces => task.produces(&dataset),
                    DataRole::Consumes => task.consumes(&dataset),
                };
            }
            spec.tasks.push(task);
        }
        Ok(spec)
    }
}

/// Shared dataflow inference over invocations of one app/task: directional
/// parameters bound to string literals (or left unbound), plus future
/// variables flowing between apps.  The `direction` callback decides which
/// parameters carry dataflow and which way (Parsl infers it from parameter
/// names, PyCOMPSs from `@task` parameter annotations).  Returns
/// `(dataset, role)` pairs in a deterministic order.
pub(crate) fn dataflow_for(
    task: &str,
    params: &[String],
    invocations: &[PyInvocation],
    direction: &dyn Fn(&str) -> Option<DataRole>,
    is_task: &dyn Fn(&str) -> bool,
) -> Vec<(String, DataRole)> {
    let mut edges: BTreeSet<(String, u8)> = BTreeSet::new();
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    // Futures: variables assigned from a task invocation, named after the
    // variable itself.
    let futures: Vec<(&str, &str)> = invocations
        .iter()
        .filter_map(|inv| {
            inv.assigned_to
                .as_deref()
                .map(|var| (var, inv.callee.as_str()))
        })
        .collect();
    for inv in invocations.iter().filter(|inv| inv.callee == task) {
        for (param, arg) in params.iter().zip(&inv.args) {
            if let Some(path) = string_literal(arg) {
                if let Some(role) = direction(param) {
                    bound.insert(param.as_str());
                    edges.insert((dataset_from_path(path), role_tag(role)));
                }
            } else if let Some(&(var, producer)) = futures
                .iter()
                .find(|(var, producer)| var == &arg.as_str() && *producer != task)
            {
                if is_task(producer) {
                    bound.insert(param.as_str());
                    edges.insert((var.to_owned(), role_tag(DataRole::Consumes)));
                }
            }
        }
    }
    // The produces side of every future this task's invocations feed into
    // another task.
    for (var, producer) in &futures {
        if *producer == task
            && invocations.iter().any(|inv| {
                inv.callee != task && is_task(&inv.callee) && inv.args.iter().any(|a| a == var)
            })
        {
            edges.insert(((*var).to_owned(), role_tag(DataRole::Produces)));
        }
    }
    // Directional parameters never bound at any call site still carry the
    // declared intent; fall back to the parameter name as the dataset.
    for param in params {
        if let Some(role) = direction(param) {
            if !bound.contains(param.as_str()) {
                edges.insert((param.clone(), role_tag(role)));
            }
        }
    }
    edges
        .into_iter()
        .map(|(dataset, tag)| {
            (
                dataset,
                if tag == 0 {
                    DataRole::Produces
                } else {
                    DataRole::Consumes
                },
            )
        })
        .collect()
}

fn role_tag(role: DataRole) -> u8 {
    match role {
        DataRole::Produces => 0,
        DataRole::Consumes => 1,
    }
}

/// API constructs that are legal Parsl but count as unrequested boilerplate
/// for the benchmark's simple producer (the paper observes models adding
/// executors although the prompt never asks for them).
pub const REDUNDANT_FOR_BENCHMARK: &[&str] = &[
    "HighThroughputExecutor",
    "ThreadPoolExecutor",
    "LocalProvider",
    "SlurmProvider",
    "WorkQueueExecutor",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_config, validate_task_code, WorkflowSystemId};
    use wfspeak_corpus::references::annotated;

    #[test]
    fn reference_annotation_validates_without_warnings() {
        let report = validate_task_code(WorkflowSystemId::Parsl, annotated::PARSL_PRODUCER);
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.warning_count(), 0);
    }

    #[test]
    fn redundant_executor_config_warned() {
        let code = r#"
import parsl
from parsl import python_app
from parsl.config import Config
from parsl.executors import HighThroughputExecutor

parsl.load(Config(executors=[HighThroughputExecutor()]))

@python_app
def produce(n, outfile):
    return outfile

produce(50, "out.txt").result()
"#;
        let report = validate_task_code(WorkflowSystemId::Parsl, code);
        assert!(report.is_valid(), "{report}");
        assert!(report.has_code("redundant-call"));
    }

    #[test]
    fn missing_decorator_and_load_flagged() {
        let code = "import parsl\n\ndef produce(n):\n    return n\n\nproduce(5)\n";
        let report = validate_task_code(WorkflowSystemId::Parsl, code);
        assert!(!report.is_valid());
        let missing: Vec<String> = report
            .with_code("missing-call")
            .map(|d| d.message.clone())
            .collect();
        assert!(missing.iter().any(|m| m.contains("python_app")));
        assert!(missing.iter().any(|m| m.contains("load")));
    }

    #[test]
    fn missing_import_flagged() {
        let code = "@python_app\ndef produce(n):\n    return n\n\nproduce(5).result()\nload()\n";
        let report = validate_task_code(WorkflowSystemId::Parsl, code);
        assert!(report.has_code("missing-import"));
    }

    #[test]
    fn config_experiment_not_applicable() {
        let report = validate_config(WorkflowSystemId::Parsl, "executors: []");
        assert!(report.is_valid());
        assert!(report.has_code("environment-config"));
    }

    #[test]
    fn pycompss_style_code_fails_parsl_validation() {
        let code = "from pycompss.api.task import task\n\n@task(returns=1)\ndef produce(n):\n    return n\n";
        let report = validate_task_code(WorkflowSystemId::Parsl, code);
        assert!(!report.is_valid());
    }

    #[test]
    fn reference_annotation_reconstructs_the_producer_spec() {
        let (script, report) = ParslScript::parse(annotated::PARSL_PRODUCER);
        assert!(report.is_valid(), "{report}");
        let script = script.expect("reference parses");
        assert_eq!(script.apps.len(), 1);
        assert_eq!(script.apps[0].name, "produce");
        assert_eq!(script.apps[0].decorator, "python_app");

        let spec = script.to_spec("parsl-workflow").expect("spec recovered");
        assert_eq!(spec.tasks.len(), 1);
        let task = &spec.tasks[0];
        assert_eq!(task.name, "produce");
        assert_eq!(task.nprocs, 1);
        assert_eq!(task.data.len(), 1);
        assert_eq!(task.data[0].dataset, "output");
        assert_eq!(task.data[0].role, DataRole::Produces);
    }

    #[test]
    fn future_passing_becomes_a_dataflow_edge() {
        let code = r#"
import parsl
from parsl import python_app

@python_app
def produce(n, outfile):
    return n

@python_app
def consume(data):
    return data

parsl.load()
fut = produce(50, "grid.h5")
result = consume(fut)
result.result()
"#;
        let (script, report) = ParslScript::parse(code);
        assert!(report.is_valid(), "{report}");
        let spec = script.unwrap().to_spec("parsl-workflow").unwrap();
        assert_eq!(spec.tasks.len(), 2);
        let produce = spec.task("produce").unwrap();
        let consume = spec.task("consume").unwrap();
        // produce writes both the literal-bound file and the future.
        assert!(produce
            .data
            .iter()
            .any(|d| d.dataset == "grid" && d.role == DataRole::Produces));
        assert!(produce
            .data
            .iter()
            .any(|d| d.dataset == "fut" && d.role == DataRole::Produces));
        assert!(consume
            .data
            .iter()
            .any(|d| d.dataset == "fut" && d.role == DataRole::Consumes));
        assert!(spec.is_structurally_valid(), "{:?}", spec.validate());
    }

    #[test]
    fn undecorated_script_yields_no_spec() {
        let code = "import parsl\n\ndef produce(n):\n    return n\n\nproduce(5)\n";
        let (script, report) = ParslScript::parse(code);
        assert!(script.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn unbound_directional_params_fall_back_to_param_names() {
        let code = "import parsl\nfrom parsl import python_app\n\n@python_app\ndef produce(n, outfile):\n    return n\n";
        let (script, report) = ParslScript::parse(code);
        assert!(report.is_valid(), "{report}");
        let spec = script.unwrap().to_spec("parsl-workflow").unwrap();
        assert_eq!(spec.tasks[0].data.len(), 1);
        assert_eq!(spec.tasks[0].data[0].dataset, "outfile");
        assert_eq!(spec.tasks[0].data[0].role, DataRole::Produces);
    }

    #[test]
    fn parse_never_panics_on_malformed_soup() {
        for soup in [
            "",
            "@python_app",
            "@python_app\ndef",
            "@python_app\ndef f(",
            "import parsl\n@python_app\ndef f(a, b):\n",
            "\u{0}\u{1}@python_app\ndef \u{7}():\n",
        ] {
            let (script, _report) = ParslScript::parse(soup);
            if let Some(script) = script {
                let _ = script.to_spec("parsl-workflow");
            }
        }
    }
}
