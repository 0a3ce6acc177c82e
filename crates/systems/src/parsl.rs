//! Parsl: Python parallel scripting with app decorators and futures.
//!
//! Parsl has no workflow-structure configuration file — its `Config` object
//! describes the execution environment (executors, providers), which is why
//! the paper excludes it from the configuration experiment.  The benchmark
//! exercises Parsl through task-code annotation: wrapping the producer in
//! `@python_app`, loading a configuration, and synchronising via futures.
//! The workflow *structure* lives in that annotated code, and [`read`]
//! recovers it for the runtime: app definitions become tasks, and the
//! dataflow is read from call sites (file-name literals bound to `out`/`in`
//! parameters, and futures passed from one app to another).

use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::pyflow::{dataflow_for, param_direction, scan_functions, scan_invocations};
use crate::spec::{TaskSpec, WorkflowSpec};

/// Decorator names that mark a function as a Parsl app (task).
const APP_DECORATORS: &[&str] = &["python_app", "bash_app", "join_app"];

/// Read annotated Parsl task code into the workflow it describes,
/// reporting a missing import and the absence of any app definition.
///
/// Apps become tasks (one process each — Parsl apps are single-process
/// Python functions).  Dataflow is inferred the way the Henson reader
/// ([`henson::read`](crate::henson::read)) infers it from naming
/// conventions: a file-name literal bound to a parameter whose name implies
/// a direction (`outfile`, `output_path`, `infile`, ...) produces or
/// consumes the file's dataset, and a future assigned from one app and
/// passed to another is a produces/consumes edge named after the future
/// variable.  Directional parameters never bound at a call site fall back
/// to the parameter name as the dataset.
pub(crate) fn read(source: &str, spec_name: &str) -> (Option<WorkflowSpec>, ValidationReport) {
    let mut report = ValidationReport::valid();
    if !source.contains("import parsl") && !source.contains("from parsl") {
        report.push(Diagnostic::error(
            DiagnosticKind::MissingImport,
            "the script never imports parsl",
        ));
    }
    let mut apps = scan_functions(source);
    apps.retain(|f| f.decorator_in(APP_DECORATORS).is_some());
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
    let mut spec = WorkflowSpec::new(spec_name);
    for app in &apps {
        let mut task = TaskSpec::new(&app.name, 1);
        task.data = dataflow_for(
            &app.name,
            &app.params,
            &invocations,
            &param_direction,
            &|other| names.contains(&other),
        );
        spec.tasks.push(task);
    }
    (Some(spec), report)
}

/// API constructs that are legal Parsl but count as unrequested boilerplate
/// for the benchmark's simple producer (the paper observes models adding
/// executors although the prompt never asks for them).
pub(crate) const REDUNDANT_FOR_BENCHMARK: &[&str] = &[
    "HighThroughputExecutor",
    "ThreadPoolExecutor",
    "LocalProvider",
    "SlurmProvider",
    "WorkQueueExecutor",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DataRole;
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
        let (spec, report) = read(annotated::PARSL_PRODUCER, "parsl-workflow");
        assert!(report.is_valid(), "{report}");
        let spec = spec.expect("spec recovered");
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
        let (spec, report) = read(code, "parsl-workflow");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
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
        let (spec, report) = read(code, "parsl-workflow");
        assert!(spec.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn unbound_directional_params_fall_back_to_param_names() {
        let code = "import parsl\nfrom parsl import python_app\n\n@python_app\ndef produce(n, outfile):\n    return n\n";
        let (spec, report) = read(code, "parsl-workflow");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
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
            let _ = read(soup, "parsl-workflow");
        }
    }
}
