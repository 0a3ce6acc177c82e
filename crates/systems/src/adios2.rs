//! ADIOS2: I/O middleware used as a workflow coupling layer.
//!
//! Two artifacts matter for the benchmark: the YAML runtime configuration
//! (a list of `IO` definitions with an `Engine` and optional `Variables`)
//! and task codes annotated with the `adios2_*` C API.

use std::collections::HashSet;

use wfspeak_corpus::WorkflowSystemId;
use wfspeak_wyaml::{parse_document, EntryRef, Node};

use crate::api::catalog_for;
use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::spec::{TaskSpec, WorkflowSpec};

/// Engine types ADIOS2 actually ships.
const REAL_ENGINES: &[&str] = &[
    "SST",
    "BP4",
    "BP5",
    "BPFile",
    "HDF5",
    "DataMan",
    "Inline",
    "SSC",
    "Null",
    "FileStream",
];

/// Read an ADIOS2 YAML configuration into the workflow it describes,
/// reporting schema violations.
///
/// An ADIOS2 config names IO streams, not tasks, so the task graph is
/// recovered from the reference layout conventions: every IO that declares
/// `Variables` is a writer stream whose variables one producer task
/// publishes; every variable-less IO is a reader stream consumed by its own
/// consumer task.  A reader named `<X>Reader` (or `<X>Input`) matches the
/// declared variable whose capitalised name is `<X>`; readers that match
/// nothing consume the IO name lowercased.  Process counts are not part of
/// an ADIOS2 config, so every task gets one.  Building the graph takes a
/// second pass, because a reader may match a variable any IO declares.
pub(crate) fn read(source: &str, spec_name: &str) -> (Option<WorkflowSpec>, ValidationReport) {
    let mut report = ValidationReport::valid();
    let catalog = catalog_for(WorkflowSystemId::Adios2);
    let doc = match parse_document(source) {
        Ok(d) => d,
        Err(e) => {
            report.push(
                Diagnostic::error(
                    DiagnosticKind::from_yaml_error(e.kind),
                    format!("{}: {}", e.kind, e.message),
                )
                .at_position(e.line(), Some(e.column())),
            );
            return (None, report);
        }
    };
    let list = match doc.as_seq() {
        Some(s) => s,
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!(
                    "an ADIOS2 YAML config is a list of IO definitions, found {}",
                    doc.type_name()
                ),
            ));
            return (None, report);
        }
    };
    // Each IO's name and declared variables, in file order.
    let mut ios: Vec<(&str, Vec<&str>)> = Vec::new();
    for (idx, entry) in list.iter().enumerate() {
        let map = match entry.as_map() {
            Some(m) => m,
            None => {
                report.push(Diagnostic::error(
                    DiagnosticKind::Schema,
                    format!("IO definition #{idx} must be a mapping"),
                ));
                continue;
            }
        };
        // The name is read first so that a warning about the engine names
        // the IO wherever `IO` comes in the definition. `Err` holds the type
        // of a name that is not a string.
        let io_name = map.get("IO").map(|n| n.as_str().ok_or(n.type_name()));
        let name = io_name.and_then(Result::ok).unwrap_or_default();
        let mut variables = Vec::new();
        // `Err` holds the field and the type of an engine type that is not
        // a string.
        let mut engine: Result<&str, (&str, &str)> = Ok("");
        for EntryRef {
            key, node: value, ..
        } in map.iter()
        {
            match key.as_ref() {
                "IO" => {}
                "Engine" => match value.as_map() {
                    Some(engine_map) => {
                        for EntryRef {
                            key: ek, node: ev, ..
                        } in engine_map.iter()
                        {
                            if ek == "Type" {
                                engine = ev
                                    .as_str()
                                    .ok_or(("engine `Type` must be a string", ev.type_name()));
                            } else if !catalog.is_real_config_field(ek) {
                                report.push(Diagnostic::warning(
                                    DiagnosticKind::UnknownParameter,
                                    format!("IO `{name}`: engine parameter `{ek}` is not a common ADIOS2 parameter"),
                                ));
                            }
                        }
                    }
                    None => {
                        engine = value
                            .as_str()
                            .ok_or(("`Engine` must be a string or a mapping", value.type_name()));
                    }
                },
                "Variables" => match value.as_seq() {
                    Some(vars) => {
                        for (v_idx, v) in vars.iter().enumerate() {
                            match v.get("Variable").and_then(Node::as_str).or_else(|| v.as_str()) {
                                Some(variable) => variables.push(variable),
                                None => report.push(Diagnostic::error(
                                    DiagnosticKind::Schema,
                                    format!("IO definition #{idx}: `Variables` entry #{v_idx} is neither a name nor a mapping with a `Variable` name"),
                                )),
                            }
                        }
                    }
                    None => report.push(Diagnostic::error(
                        DiagnosticKind::Schema,
                        format!(
                            "IO definition #{idx}: `Variables` must be a sequence, found {}",
                            value.type_name()
                        ),
                    )),
                },
                other if catalog.is_real_config_field(other) => {}
                other => {
                    report.push(Diagnostic::error(
                        DiagnosticKind::UnknownField,
                        format!("IO definition #{idx}: field `{other}` does not exist in ADIOS2 configs"),
                    ));
                }
            }
        }
        if let Some(Err(found)) = io_name {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!("IO definition #{idx}: `IO` must be a string, found {found}"),
            ));
            continue;
        }
        if name.is_empty() {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!("IO definition #{idx} is missing the `IO` name"),
            ));
            continue;
        }
        match engine {
            Err((rule, found)) => report.push(Diagnostic::warning(
                DiagnosticKind::Schema,
                format!("IO `{name}`: {rule}, found {found}; BPFile is assumed"),
            )),
            Ok("") => report.push(Diagnostic::warning(
                DiagnosticKind::Schema,
                format!("IO `{name}` does not set an engine type; BPFile is assumed"),
            )),
            Ok(engine) if !REAL_ENGINES.contains(&engine) => report.push(Diagnostic::error(
                DiagnosticKind::UnknownEngine,
                format!("IO `{name}` uses engine `{engine}` which ADIOS2 does not provide"),
            )),
            Ok(_) => {}
        }
        ios.push((name, variables));
    }
    if ios.is_empty() {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            "configuration defines no IO entries",
        ));
        return (None, report);
    }

    let mut seen = HashSet::new();
    let produced: Vec<&str> = ios
        .iter()
        .flat_map(|(_, variables)| variables.iter().copied())
        .filter(|v| seen.insert(*v))
        .collect();
    let mut spec = WorkflowSpec::new(spec_name);
    if !produced.is_empty() {
        let mut producer = TaskSpec::new("producer", 1);
        for dataset in &produced {
            producer = producer.produces(dataset);
        }
        spec.tasks.push(producer);
    }
    let readers = ios.iter().filter(|(_, variables)| variables.is_empty());
    for (consumer_index, (io, _)) in (1usize..).zip(readers) {
        let stem = io.trim_end_matches("Reader").trim_end_matches("Input");
        let dataset = produced
            .iter()
            .find(|v| capitalize(v) == stem)
            .map(|v| (*v).to_owned())
            .unwrap_or_else(|| io.to_lowercase());
        spec.tasks
            .push(TaskSpec::new(&format!("consumer{consumer_index}"), 1).consumes(&dataset));
    }
    (Some(spec), report)
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_task_code;
    use wfspeak_corpus::references::{annotated, configs};

    #[test]
    fn reference_config_parses_cleanly() {
        let (spec, report) = read(configs::ADIOS2_3NODE, "a");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks.len(), 3);
        assert_eq!(spec.tasks[0].name, "producer");
        assert_eq!(spec.tasks[0].produced_datasets(), vec!["grid", "particles"]);
        assert_eq!(spec.tasks[1].name, "consumer1");
        assert_eq!(spec.tasks[1].consumed_datasets(), vec!["grid"]);
    }

    #[test]
    fn unknown_engine_flagged() {
        let cfg = "---\n- IO: Out\n  Engine:\n    Type: FastStream\n";
        let (_, report) = read(cfg, "a");
        assert!(report.has_code("unknown-engine"));
        assert!(!report.is_valid());
    }

    #[test]
    fn unknown_field_flagged() {
        let cfg = "---\n- IO: Out\n  Engine:\n    Type: SST\n  Tasks:\n    - producer\n";
        let (_, report) = read(cfg, "a");
        assert!(report.has_code("unknown-field"));
    }

    #[test]
    fn mapping_root_rejected() {
        let cfg = "io:\n  name: Out\n";
        let (spec, report) = read(cfg, "a");
        assert!(spec.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn missing_engine_defaults_with_warning() {
        let cfg = "---\n- IO: Out\n";
        let (spec, report) = read(cfg, "a");
        assert!(report.is_valid());
        assert!(spec.is_some());
        assert!(report.warning_count() >= 1);
    }

    #[test]
    fn reference_annotation_validates() {
        let report = validate_task_code(WorkflowSystemId::Adios2, annotated::ADIOS2_PRODUCER);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn hallucinated_adios_call_detected() {
        let code = "int main() { adios2_write_step(engine, var, data); }";
        let report = validate_task_code(WorkflowSystemId::Adios2, code);
        assert!(report.has_code("hallucinated-call"));
    }

    #[test]
    fn engine_as_plain_string_accepted() {
        let cfg = "---\n- IO: Out\n  Engine: SST\n";
        let (spec, report) = read(cfg, "a");
        assert!(report.is_valid(), "{report}");
        assert_eq!(report.warning_count(), 0);
        assert!(spec.is_some());
    }

    #[test]
    fn to_spec_rejects_zero_task_configs() {
        // A config with no IO streams must surface a diagnostic, not a
        // silent empty spec the validate stage would wave through.
        let (spec, report) = read("[]\n", "a");
        assert!(spec.is_none());
        assert!(!report.is_valid());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn to_spec_recovers_the_reference_graph() {
        let spec = read(configs::ADIOS2_3NODE, "adios2-workflow").0.unwrap();
        assert_eq!(spec.name, "adios2-workflow");
        assert_eq!(spec.tasks.len(), 3);
        assert!(spec.validate().is_empty());
    }

    #[test]
    fn parse_errors_carry_source_positions() {
        let (_, report) = read("---\n- IO: \"unterminated\n", "a");
        let diag = report.with_code("unterminated-string").next().unwrap();
        assert_eq!(diag.line, Some(2));
        // Column of the opening quote.
        assert_eq!(diag.column, Some(7));
    }
}
