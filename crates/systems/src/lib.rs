//! `wfspeak-systems` — from-scratch models of the five workflow systems the
//! paper evaluates LLMs against.
//!
//! The paper treats the real systems (ADIOS2, Henson, Parsl, PyCOMPSs,
//! Wilkins) as ground truth: a generated configuration or annotated task
//! code is good when it uses the fields and API calls those systems actually
//! define.  This crate reproduces exactly the part of each system the
//! benchmark needs:
//!
//! * an **API catalogue** ([`api::ApiCatalog`]) of real function names /
//!   decorators / configuration fields, used to classify hallucinations;
//! * a **validating reader** per system, which reads an artifact straight
//!   into the neutral [`spec::WorkflowSpec`] it describes plus a report: a
//!   configuration for the systems whose config files describe workflow
//!   structure (Wilkins YAML, ADIOS2 YAML, Henson scripts), annotated task
//!   code for Parsl and PyCOMPSs;
//! * an **annotation checker** that verifies a task code contains the
//!   system's required calls.
//!
//! The readers and the annotation checker are private, and only read
//! artifacts: callers, the evaluation harness included, reach all five
//! systems uniformly through [`validate_config`], [`validate_task_code`]
//! and [`workflow_spec_from_config`], each one `match` on
//! [`WorkflowSystemId`].
//!
//! # Quickstart
//!
//! ```
//! use wfspeak_systems::api::catalog_for;
//! use wfspeak_systems::WorkflowSystemId;
//!
//! let henson = catalog_for(WorkflowSystemId::Henson);
//! assert!(henson.is_real_function("henson_save_float"));
//! // In the Henson API family but not a real function: a hallucination.
//! assert!(henson.is_hallucinated("henson_save_matrix"));
//! ```

mod adios2;
mod annotate;
pub mod api;
pub mod artifact;
pub mod diagnostics;
mod henson;
mod parsl;
mod pycompss;
mod pyflow;
pub mod spec;
pub mod topo;
mod wilkins;

pub use api::ApiCatalog;
pub use artifact::{validate_config, validate_task_code, workflow_spec_from_config};
pub use diagnostics::{Diagnostic, DiagnosticKind, Severity, ValidationReport};
pub use spec::{DataRequirement, DataRole, TaskSpec, WorkflowSpec};
pub use wfspeak_corpus::WorkflowSystemId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configs_validate_cleanly() {
        use wfspeak_corpus::references::configuration_reference;
        for id in WorkflowSystemId::configuration_systems() {
            let reference = configuration_reference(id).unwrap();
            let report = validate_config(id, reference);
            assert!(
                report.is_valid(),
                "{id} reference config should validate, got: {report:?}"
            );
        }
    }

    #[test]
    fn reference_annotations_validate_cleanly() {
        use wfspeak_corpus::references::annotation_reference;
        for id in WorkflowSystemId::annotation_systems() {
            let reference = annotation_reference(id).unwrap();
            let report = validate_task_code(id, reference);
            assert!(
                report.is_valid(),
                "{id} reference annotation should validate, got: {report:?}"
            );
        }
    }
}
