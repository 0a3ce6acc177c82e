//! PyCOMPSs: task-based programming model with Python method annotations.
//!
//! Like Parsl, PyCOMPSs is exercised through task-code annotation: the
//! producer function is decorated with `@task`, file dependencies are
//! declared with parameter directions (`FILE_OUT`), and the main program
//! synchronises with `compss_wait_on_file` (the call the paper notes
//! LLaMA-3.3-70B keeps forgetting).  Those parameter directions are exactly
//! the workflow structure, and [`read`] recovers it for the runtime: `@task`
//! functions become tasks, `FILE_OUT`/`FILE_IN` parameter annotations become
//! produces/consumes edges named after the file bound at the call site, and
//! `@mpi(processes=N)`/`@constraint(computing_units=N)` set the process
//! count.

use std::collections::BTreeMap;

use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::pyflow::{dataflow_for, scan_functions, scan_invocations};
use crate::spec::{DataRole, TaskSpec, WorkflowSpec};

/// Decorator names that mark a function as a PyCOMPSs task.
const TASK_DECORATORS: &[&str] = &["task", "binary", "mpi", "multinode"];

/// Map a PyCOMPSs parameter-direction constant to a dataflow role.
/// `FILE_INOUT` is treated as consumes only, so an in-place update never
/// turns into a produces-and-consumes self-loop on the same dataset.
fn direction_constant(value: &str) -> Option<DataRole> {
    match value.trim() {
        "FILE_OUT" | "FILE_OUT_STDOUT" | "DIRECTORY_OUT" | "OUT" => Some(DataRole::Produces),
        "FILE_IN" | "DIRECTORY_IN" | "IN" | "FILE_INOUT" | "DIRECTORY_INOUT" | "INOUT" => {
            Some(DataRole::Consumes)
        }
        _ => None,
    }
}

/// Read annotated PyCOMPSs task code into the workflow it describes,
/// reporting a missing import and the absence of any task definition.
///
/// `@task` functions become tasks; their declared parameter directions
/// decide which call-site arguments carry dataflow, with the bound file
/// name (or the parameter name, when no call binds one) as the dataset —
/// the same naming-convention inference the Henson reader
/// ([`henson::read`](crate::henson::read)) applies to shared-library stems.
/// Futures passed between tasks become produces/consumes edges named after
/// the future variable.  A task's process count comes from
/// `@mpi(processes=N)` or `@constraint(computing_units=N)`; it is 1 when
/// neither is given.
pub(crate) fn read(source: &str, spec_name: &str) -> (Option<WorkflowSpec>, ValidationReport) {
    let mut report = ValidationReport::valid();
    if !source.contains("pycompss") {
        report.push(Diagnostic::error(
            DiagnosticKind::MissingImport,
            "the script never imports the pycompss API modules",
        ));
    }
    let mut tasks = scan_functions(source);
    tasks.retain(|f| f.decorator_in(TASK_DECORATORS).is_some());
    if tasks.is_empty() {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            "the script defines no PyCOMPSs tasks (no @task/@binary/@mpi decorated \
             functions), so no workflow structure can be recovered",
        ));
        return (None, report);
    }
    let names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
    let invocations = scan_invocations(source, &names);
    let mut spec = WorkflowSpec::new(spec_name);
    for f in &tasks {
        // Parameter direction annotations from the decorators
        // (`outfile=FILE_OUT` → `("outfile", Produces)`).
        let mut directions = BTreeMap::new();
        let mut nprocs = 1usize;
        for decorator in &f.decorators {
            for (key, value) in &decorator.args {
                if f.params.contains(key) {
                    if let Some(role) = direction_constant(value) {
                        directions.insert(key.as_str(), role);
                    }
                }
                if (key == "processes" || key == "computing_units") && nprocs == 1 {
                    if let Ok(n) = value.trim().parse::<usize>() {
                        nprocs = n.max(1);
                    }
                }
            }
        }
        let mut task = TaskSpec::new(&f.name, nprocs);
        task.data = dataflow_for(
            &f.name,
            &f.params,
            &invocations,
            &|param| directions.get(param).copied(),
            &|other| names.contains(&other),
        );
        spec.tasks.push(task);
    }
    (Some(spec), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_config, validate_task_code, WorkflowSystemId};
    use wfspeak_corpus::references::annotated;

    #[test]
    fn reference_annotation_validates() {
        let report = validate_task_code(WorkflowSystemId::PyCompss, annotated::PYCOMPSS_PRODUCER);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn missing_wait_on_file_flagged() {
        // The paper: LLaMA-3.3-70B omits compss_wait_on_file, required for
        // file-based synchronisation.
        let code = r#"
from pycompss.api.task import task
from pycompss.api.parameter import FILE_OUT

@task(outfile=FILE_OUT)
def produce(n, outfile):
    return outfile

produce(50, "out.txt")
"#;
        let report = validate_task_code(WorkflowSystemId::PyCompss, code);
        assert!(!report.is_valid());
        assert!(report
            .with_code("missing-call")
            .any(|d| d.message.contains("compss_wait_on_file")));
    }

    #[test]
    fn hallucinated_compss_call_flagged() {
        let code = r#"
from pycompss.api.task import task
from pycompss.api.parameter import FILE_OUT

@task(outfile=FILE_OUT)
def produce(n, outfile):
    return outfile

produce(50, "out.txt")
compss_wait_on_file("out.txt")
compss_sync_all()
"#;
        let report = validate_task_code(WorkflowSystemId::PyCompss, code);
        assert!(report.has_code("hallucinated-call"));
    }

    #[test]
    fn missing_import_flagged() {
        let code = "@task(returns=1)\ndef produce(n):\n    return n\n\nproduce(5)\ncompss_wait_on_file(\"o\")\n";
        let report = validate_task_code(WorkflowSystemId::PyCompss, code);
        assert!(report.has_code("missing-import"));
    }

    #[test]
    fn missing_file_direction_warned() {
        let code = "from pycompss.api.task import task\nfrom pycompss.api.api import compss_wait_on_file\n\n@task(returns=1)\ndef produce(n, outfile):\n    return outfile\n\nproduce(5, \"o\")\ncompss_wait_on_file(\"o\")\n";
        let report = validate_task_code(WorkflowSystemId::PyCompss, code);
        assert!(report.is_valid(), "{report}");
        assert!(report.has_code("missing-direction"));
    }

    #[test]
    fn config_experiment_not_applicable() {
        assert!(
            validate_config(WorkflowSystemId::PyCompss, "anything").has_code("environment-config")
        );
    }

    #[test]
    fn reference_annotation_reconstructs_the_producer_spec() {
        let (spec, report) = read(annotated::PYCOMPSS_PRODUCER, "pycompss-workflow");
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
    fn file_in_and_mpi_processes_are_recovered() {
        let code = r#"
from pycompss.api.task import task
from pycompss.api.mpi import mpi
from pycompss.api.parameter import FILE_OUT, FILE_IN
from pycompss.api.api import compss_wait_on_file

@mpi(runner="mpirun", processes=3)
@task(outfile=FILE_OUT)
def produce(n, outfile):
    return n

@task(infile=FILE_IN)
def consume(infile):
    return infile

produce(50, "grid.h5")
consume("grid.h5")
compss_wait_on_file("grid.h5")
"#;
        let (spec, report) = read(code, "pycompss-workflow");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks.len(), 2);
        let produce = spec.task("produce").unwrap();
        assert_eq!(produce.nprocs, 3);
        assert_eq!(produce.data[0].dataset, "grid");
        assert_eq!(produce.data[0].role, DataRole::Produces);
        let consume = spec.task("consume").unwrap();
        assert_eq!(consume.nprocs, 1);
        assert_eq!(consume.data[0].dataset, "grid");
        assert_eq!(consume.data[0].role, DataRole::Consumes);
        assert!(spec.is_structurally_valid(), "{:?}", spec.validate());
    }

    #[test]
    fn direction_free_task_keeps_an_empty_dataflow() {
        // The Poor degradation tier rewrites @task(outfile=FILE_OUT) into
        // @task(returns=1): the task still parses and runs, but the lost
        // direction honestly costs it every data edge (and thus fidelity).
        let code = "from pycompss.api.task import task\n\n@task(returns=1)\ndef produce(n, outfile):\n    return n\n\nproduce(50, \"output.txt\")\n";
        let (spec, report) = read(code, "pycompss-workflow");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks.len(), 1);
        assert!(spec.tasks[0].data.is_empty());
    }

    #[test]
    fn undecorated_script_yields_no_spec() {
        let code = "from pycompss.api.api import compss_barrier\n\ndef produce(n):\n    return n\n\nproduce(5)\n";
        let (spec, report) = read(code, "pycompss-workflow");
        assert!(spec.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn renamed_direction_kwargs_still_bind_to_params() {
        // style_rewrite renames outfile → output_path in both the decorator
        // kwarg and the parameter list; the kwarg-to-param match survives.
        let code = "from pycompss.api.task import task\nfrom pycompss.api.parameter import FILE_OUT\n\n@task(output_path=FILE_OUT)\ndef run_producer(num_values, output_path):\n    return num_values\n\nrun_producer(50, \"output.txt\")\n";
        let (spec, report) = read(code, "pycompss-workflow");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks[0].data.len(), 1);
        assert_eq!(spec.tasks[0].data[0].dataset, "output");
        assert_eq!(spec.tasks[0].data[0].role, DataRole::Produces);
    }

    #[test]
    fn parse_never_panics_on_malformed_soup() {
        for soup in [
            "",
            "@task(",
            "@task(x=FILE_OUT\ndef",
            "pycompss @task()\ndef f():\n",
            "\u{0}@task(a=FILE_IN)\ndef f(a):\n",
        ] {
            let _ = read(soup, "pycompss-workflow");
        }
    }
}
