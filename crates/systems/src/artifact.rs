//! The per-system entry points: each is one `match` on
//! [`WorkflowSystemId`], and they are the only way into the private
//! per-system readers.
//!
//! The readers only read artifacts. [`validate_config`] and
//! [`validate_task_code`] report what a generated configuration or
//! annotated task code gets wrong (Tables 4 and 6), and
//! [`workflow_spec_from_config`] recovers the neutral [`WorkflowSpec`] a
//! generated artifact describes, for the execution-validated evaluation.
//! For the structural-configuration systems (Wilkins, ADIOS2, Henson) that
//! artifact is a configuration file; for Parsl and PyCOMPSs — whose
//! configuration files describe the execution environment, not the graph —
//! it is the annotated task code, whose app decorators and parameter
//! directions carry the workflow structure instead.

use wfspeak_codemodel::lexer::Language;
use wfspeak_corpus::WorkflowSystemId;

use crate::api::catalog_for;
use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::parsl::REDUNDANT_FOR_BENCHMARK;
use crate::spec::WorkflowSpec;
use crate::{adios2, annotate, henson, parsl, pycompss, wilkins};

/// Validate a workflow configuration file for `system`.  Systems whose
/// configuration describes the execution environment rather than the
/// workflow structure (Parsl, PyCOMPSs) report that as an informational
/// diagnostic.
pub fn validate_config(system: WorkflowSystemId, config: &str) -> ValidationReport {
    match system {
        WorkflowSystemId::Wilkins | WorkflowSystemId::Adios2 | WorkflowSystemId::Henson => {
            workflow_spec_from_config(system, config).1
        }
        WorkflowSystemId::Parsl => info_only(
            DiagnosticKind::EnvironmentConfig,
            "Parsl configuration files describe the execution environment, not the workflow \
             structure; the configuration experiment does not apply",
        ),
        WorkflowSystemId::PyCompss => info_only(
            DiagnosticKind::EnvironmentConfig,
            "PyCOMPSs configuration (project/resources XML) describes the execution environment, \
             not the workflow structure; the configuration experiment does not apply",
        ),
    }
}

/// Validate an annotated task code for `system`: required calls present,
/// no hallucinated API functions, no redundant boilerplate.
pub fn validate_task_code(system: WorkflowSystemId, code: &str) -> ValidationReport {
    match system {
        WorkflowSystemId::Adios2 | WorkflowSystemId::Henson => {
            annotate::validate_task_code(&catalog_for(system), code, Language::C, &[])
        }
        WorkflowSystemId::Parsl => {
            let mut report = annotate::validate_task_code(
                &catalog_for(system),
                code,
                Language::Python,
                REDUNDANT_FOR_BENCHMARK,
            );
            // A Parsl app without an import of parsl cannot run.
            if !code.contains("import parsl") && !code.contains("from parsl") {
                report.push(Diagnostic::error(
                    DiagnosticKind::MissingImport,
                    "the task code never imports parsl",
                ));
            }
            report
        }
        WorkflowSystemId::PyCompss => {
            let mut report =
                annotate::validate_task_code(&catalog_for(system), code, Language::Python, &[]);
            if !code.contains("pycompss") {
                report.push(Diagnostic::error(
                    DiagnosticKind::MissingImport,
                    "the task code never imports the pycompss API modules",
                ));
            }
            // File-based producer/consumer exchange needs a parameter direction.
            if !code.contains("FILE_OUT") && !code.contains("FILE_INOUT") {
                report.push(Diagnostic::warning(
                    DiagnosticKind::MissingDirection,
                    "no FILE_OUT/FILE_INOUT parameter direction declared for the produced file",
                ));
            }
            report
        }
        WorkflowSystemId::Wilkins => info_only(
            DiagnosticKind::NoAnnotationNeeded,
            "Wilkins does not require modifications to task codes",
        ),
    }
}

/// A valid report holding one informational finding.
fn info_only(kind: DiagnosticKind, message: &str) -> ValidationReport {
    let mut report = ValidationReport::valid();
    report.push(Diagnostic::info(kind, message));
    report
}

/// Read a generated artifact for `system` into a [`WorkflowSpec`] named
/// `<system>-workflow`.
///
/// Returns the recovered spec (when the artifact's structure could be
/// parsed at all) together with the reader's full diagnostic report; a
/// spec may be returned alongside an *invalid* report when the artifact
/// parses but violates the system's schema, letting callers grade "parsed
/// but wrong" separately from "unparseable".
pub fn workflow_spec_from_config(
    system: WorkflowSystemId,
    source: &str,
) -> (Option<WorkflowSpec>, ValidationReport) {
    let spec_name = format!("{}-workflow", system.name().to_lowercase());
    match system {
        WorkflowSystemId::Wilkins => wilkins::read(source, &spec_name),
        WorkflowSystemId::Adios2 => adios2::read(source, &spec_name),
        WorkflowSystemId::Henson => henson::read(source, &spec_name),
        WorkflowSystemId::Parsl => parsl::read(source, &spec_name),
        WorkflowSystemId::PyCompss => pycompss::read(source, &spec_name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_corpus::references::configs::{
        ADIOS2_3NODE, HENSON_2NODE, HENSON_3NODE, WILKINS_3NODE,
    };

    #[test]
    fn wilkins_reference_reconstructs_the_paper_spec_exactly() {
        let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Wilkins, WILKINS_3NODE);
        assert!(report.is_valid(), "{report}");
        assert_eq!(spec.unwrap().tasks, WorkflowSpec::paper_3node().tasks);
    }

    #[test]
    fn henson_reference_reconstructs_the_paper_spec_exactly() {
        let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Henson, HENSON_3NODE);
        assert!(report.is_valid(), "{report}");
        assert_eq!(spec.unwrap().tasks, WorkflowSpec::paper_3node().tasks);
    }

    #[test]
    fn adios2_reference_reconstructs_the_paper_dataflow() {
        let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Adios2, ADIOS2_3NODE);
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        // ADIOS2 configs carry no process counts, so only the dataflow (not
        // nprocs) matches the paper spec.
        assert!(spec.validate().is_empty());
        assert_eq!(spec.datasets(), vec!["grid", "particles"]);
        let mut edges = spec.edges();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                ("producer".into(), "consumer1".into(), "grid".into()),
                ("producer".into(), "consumer2".into(), "particles".into()),
            ]
        );
    }

    #[test]
    fn henson_two_node_script_yields_tasks_without_inferred_dataflow() {
        // The 2-node exemplar's consumer is `./consumer.so` — no dataset
        // suffix — so only the task/process structure is recoverable.
        let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Henson, HENSON_2NODE);
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks.len(), 2);
        assert!(spec.edges().is_empty());
        assert!(spec.validate().is_empty());
    }

    #[test]
    fn parsed_but_invalid_artifacts_keep_their_spec_and_diagnostics() {
        // An unknown task field is a schema error yet the structure parses.
        let cfg = "tasks:\n  - func: producer\n    nprocs: 2\n    command: ./p\n";
        let (spec, report) = workflow_spec_from_config(WorkflowSystemId::Wilkins, cfg);
        assert!(spec.is_some());
        assert!(!report.is_valid());
        assert!(report.has_code("unknown-field"));
    }

    #[test]
    fn unparseable_artifacts_yield_no_spec() {
        let (spec, report) = workflow_spec_from_config(
            WorkflowSystemId::Wilkins,
            "workflow:\n  name: x\n", // missing `tasks`
        );
        assert!(spec.is_none());
        assert!(!report.is_valid());

        let (spec, report) = workflow_spec_from_config(
            WorkflowSystemId::Henson,
            "int main() { return 0; }\n", // task code, not a script
        );
        assert!(spec.is_none());
        assert!(!report.is_valid());
    }

    #[test]
    fn python_systems_reconstruct_specs_from_annotated_code() {
        use wfspeak_corpus::references::annotated::{PARSL_PRODUCER, PYCOMPSS_PRODUCER};
        for (system, reference) in [
            (WorkflowSystemId::Parsl, PARSL_PRODUCER),
            (WorkflowSystemId::PyCompss, PYCOMPSS_PRODUCER),
        ] {
            let (spec, report) = workflow_spec_from_config(system, reference);
            assert!(report.is_valid(), "{system}: {report}");
            let spec = spec.unwrap();
            assert_eq!(
                spec.name,
                format!("{}-workflow", system.name().to_lowercase())
            );
            assert_eq!(spec.tasks.len(), 1, "{system}");
            assert_eq!(spec.tasks[0].name, "produce");
            assert_eq!(spec.tasks[0].nprocs, 1);
            assert_eq!(spec.tasks[0].data[0].dataset, "output");
            // A solo producer's unconsumed output is a warning, not an
            // error: the spec still executes.
            assert!(
                spec.is_structurally_valid(),
                "{system}: {:?}",
                spec.validate()
            );
        }
    }

    #[test]
    fn python_systems_reject_unannotated_code() {
        for system in [WorkflowSystemId::Parsl, WorkflowSystemId::PyCompss] {
            let (spec, report) =
                workflow_spec_from_config(system, "def produce(n):\n    return n\n");
            assert!(spec.is_none(), "{system}");
            assert!(!report.is_valid(), "{system}");
        }
    }
}
