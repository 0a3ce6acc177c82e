//! Wilkins: in situ workflow system with a data-centric YAML configuration.
//!
//! Wilkins workflows are described entirely in a YAML file: a `tasks` list
//! where each task has a `func`, `nprocs`, and `inports`/`outports` carrying
//! `filename` + `dsets` entries (`name`, `file`, `memory`).  Task codes need
//! no modification, which is why Wilkins is excluded from the annotation
//! experiment.

use wfspeak_corpus::WorkflowSystemId;
use wfspeak_wyaml::{parse_document, EntryRef, Node};

use crate::api::{catalog_for, ApiCatalog};
use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::spec::{DataRequirement, DataRole, TaskSpec, WorkflowSpec};

/// Read a Wilkins YAML configuration into the workflow it describes,
/// reporting schema violations.
///
/// Reading is tolerant: unknown fields are reported as diagnostics (the
/// hallucination signal of Table 6) but do not abort it, so the valid part
/// of a partially wrong configuration still yields a spec.  Each task
/// produces its outport datasets, then consumes its inport datasets; each
/// dataset is named by the last segment of its path (`/group1/grid` is
/// `grid`).
pub(crate) fn read(source: &str, spec_name: &str) -> (Option<WorkflowSpec>, ValidationReport) {
    let mut report = ValidationReport::valid();
    let doc = match parse_document(source) {
        Ok(doc) => doc,
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
    let catalog = catalog_for(WorkflowSystemId::Wilkins);

    let root = match doc.as_map() {
        Some(m) => m,
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!(
                    "expected a mapping with a `tasks` key, found {}",
                    doc.type_name()
                ),
            ));
            return (None, report);
        }
    };
    for EntryRef { key, .. } in root.iter() {
        if key != "tasks" {
            let kind = if catalog.is_real_config_field(key) {
                DiagnosticKind::MisplacedField
            } else {
                DiagnosticKind::UnknownField
            };
            report.push(Diagnostic::error(
                kind,
                format!("top-level field `{key}` is not part of a Wilkins configuration"),
            ));
        }
    }
    let tasks_value = match root.get("tasks") {
        Some(v) => v,
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "missing top-level `tasks` list",
            ));
            return (None, report);
        }
    };
    let task_list = match tasks_value.as_seq() {
        Some(s) => s,
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "`tasks` must be a sequence",
            ));
            return (None, report);
        }
    };

    let mut spec = WorkflowSpec::new(spec_name);
    for (idx, entry) in task_list.iter().enumerate() {
        if let Some(task) = read_task(entry, idx, &catalog, &mut report) {
            spec.tasks.push(task);
        }
    }
    if spec.tasks.is_empty() {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            "configuration defines no valid tasks",
        ));
        return (None, report);
    }
    (Some(spec), report)
}

fn read_task(
    entry: &Node<'_>,
    idx: usize,
    catalog: &ApiCatalog,
    report: &mut ValidationReport,
) -> Option<TaskSpec> {
    let map = match entry.as_map() {
        Some(m) => m,
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!("task #{idx} must be a mapping, found {}", entry.type_name()),
            ));
            return None;
        }
    };
    // `Err` holds the type of a `func` that is not a string.
    let mut func: Option<Result<&str, &str>> = None;
    let mut nprocs = 1usize;
    let mut consumes = Vec::new();
    let mut produces = Vec::new();
    for EntryRef {
        key, node: value, ..
    } in map.iter()
    {
        match key.as_ref() {
            "func" => func = Some(value.as_str().ok_or(value.type_name())),
            "nprocs" => match value.as_i64() {
                Some(n) if n > 0 => nprocs = n as usize,
                _ => report.push(Diagnostic::error(
                    DiagnosticKind::Schema,
                    format!("task #{idx}: `nprocs` must be a positive integer"),
                )),
            },
            "inports" => {
                consumes = read_ports(value, idx, "inports", DataRole::Consumes, catalog, report)
            }
            "outports" => {
                produces = read_ports(value, idx, "outports", DataRole::Produces, catalog, report)
            }
            // Optional real Wilkins fields we accept without interpreting.
            "io_freq" | "zerocopy" | "actions" => {}
            other => {
                report.push(Diagnostic::error(
                    DiagnosticKind::UnknownField,
                    format!("task #{idx}: field `{other}` does not exist in Wilkins task entries"),
                ));
            }
        }
    }
    let func = match func {
        Some(Ok(f)) => f,
        Some(Err(found)) => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!("task #{idx}: `func` must be a string, found {found}"),
            ));
            return None;
        }
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!("task #{idx} is missing the required `func` field"),
            ));
            return None;
        }
    };
    let mut task = TaskSpec::new(func, nprocs);
    task.data = produces;
    task.data.append(&mut consumes);
    Some(task)
}

/// The datasets of every entry of an `inports` or `outports` list, each in
/// `role`.
fn read_ports(
    value: &Node<'_>,
    task_idx: usize,
    label: &str,
    role: DataRole,
    catalog: &ApiCatalog,
    report: &mut ValidationReport,
) -> Vec<DataRequirement> {
    let seq = match value.as_seq() {
        Some(s) => s,
        None => {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                format!("task #{task_idx}: `{label}` must be a sequence"),
            ));
            return Vec::new();
        }
    };
    let mut data = Vec::new();
    for port_value in seq {
        let map = match port_value.as_map() {
            Some(m) => m,
            None => {
                report.push(Diagnostic::error(
                    DiagnosticKind::Schema,
                    format!("task #{task_idx}: `{label}` entries must be mappings"),
                ));
                continue;
            }
        };
        // `Err` holds the type of a `filename` that is not a string.
        let mut filename: Option<Result<&str, &str>> = None;
        for EntryRef { key, node: v, .. } in map.iter() {
            match key.as_ref() {
                "filename" => filename = Some(v.as_str().ok_or(v.type_name())),
                "dsets" => match v.as_seq() {
                    Some(list) => {
                        for d in list {
                            if let Some(dataset) = read_dset(d, task_idx, report) {
                                data.push(DataRequirement::new(dataset, role));
                            }
                        }
                    }
                    None => report.push(Diagnostic::error(
                        DiagnosticKind::Schema,
                        format!("task #{task_idx}: `dsets` must be a sequence"),
                    )),
                },
                other => {
                    let kind = if catalog.is_real_config_field(other) {
                        DiagnosticKind::MisplacedField
                    } else {
                        DiagnosticKind::UnknownField
                    };
                    report.push(Diagnostic::error(
                        kind,
                        format!(
                            "task #{task_idx}: port field `{other}` does not belong in `{label}`"
                        ),
                    ));
                }
            }
        }
        match filename {
            Some(Err(found)) => report.push(Diagnostic::warning(
                DiagnosticKind::Schema,
                format!("task #{task_idx}: `{label}` entry's `filename` must be a string, found {found}"),
            )),
            Some(Ok("")) | None => report.push(Diagnostic::warning(
                DiagnosticKind::Schema,
                format!("task #{task_idx}: `{label}` entry has no `filename`"),
            )),
            Some(Ok(_)) => {}
        }
    }
    data
}

/// The dataset a `dsets` entry names: the last segment of its `name` path.
fn read_dset<'n>(
    dset: &'n Node<'_>,
    task_idx: usize,
    report: &mut ValidationReport,
) -> Option<&'n str> {
    let Some(map) = dset.as_map() else {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            format!(
                "task #{task_idx}: `dsets` entries must be mappings, found {}",
                dset.type_name()
            ),
        ));
        return None;
    };
    let mut name = "";
    for EntryRef { key, node, .. } in map.iter() {
        match key.as_ref() {
            "name" => name = node.as_str().unwrap_or_default(),
            // Real Wilkins flags the runtime does not need.
            "file" | "memory" => {}
            other => report.push(Diagnostic::error(
                DiagnosticKind::UnknownField,
                format!("task #{task_idx}: dset field `{other}` does not exist in Wilkins"),
            )),
        }
    }
    if name.is_empty() {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            format!("task #{task_idx}: dset entry missing `name`"),
        ));
        return None;
    }
    name.rsplit('/').next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_task_code;
    use wfspeak_corpus::references::configs::WILKINS_3NODE;

    #[test]
    fn parses_reference_3node_config() {
        let (spec, report) = read(WILKINS_3NODE, "w");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks.len(), 3);
        assert_eq!(spec.tasks[0].name, "producer");
        assert_eq!(spec.tasks[0].nprocs, 3);
        assert_eq!(spec.tasks[0].produced_datasets().len(), 2);
        assert_eq!(spec.tasks[1].consumed_datasets(), vec!["grid"]);
    }

    #[test]
    fn hallucinated_fields_from_table6_are_flagged() {
        // The zero-shot o3 output in Table 6 (right): workflow/datasets/
        // command/processes/inputs/outputs/dependencies are not Wilkins
        // fields.
        let bad = r#"workflow:
  name: simple_3node_workflow
  tasks:
    - func: producer
      command: ./producer
      processes: 3
      outputs:
        - grid
"#;
        let (_, report) = read(bad, "w");
        assert!(!report.is_valid());
        assert!(report.has_code("unknown-field") || report.has_code("schema"));
    }

    #[test]
    fn unknown_task_field_reported() {
        let cfg = "tasks:\n  - func: producer\n    nprocs: 2\n    command: ./p\n";
        let (spec, report) = read(cfg, "w");
        assert!(spec.is_some());
        assert!(report.has_code("unknown-field"));
        assert!(!report.is_valid());
    }

    #[test]
    fn missing_func_is_an_error() {
        let cfg = "tasks:\n  - nprocs: 2\n";
        let (spec, report) = read(cfg, "w");
        assert!(spec.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn invalid_yaml_is_a_typed_parse_error() {
        let (spec, report) = read("tasks:\n\t- func: x\n", "w");
        assert!(spec.is_none());
        // A tab in indentation surfaces as its own failure category, with
        // the real source position of the tab.
        assert!(report.has_code("tab-indent"));
        let diag = report.with_code("tab-indent").next().unwrap();
        assert_eq!(diag.line, Some(2));
        assert_eq!(diag.column, Some(1));
        // Duplicate keys and unterminated flow collections are categorised
        // too, rather than folded into a flat parse-error bucket.
        let (_, report) = read("tasks: 1\ntasks: 2\n", "w");
        assert!(report.has_code("duplicate-key"));
        let (_, report) = read("tasks: [1, 2\n", "w");
        assert!(report.has_code("unterminated-flow"));
    }

    #[test]
    fn non_mapping_root_is_schema_error() {
        let (spec, report) = read("- just\n- a\n- list\n", "w");
        assert!(spec.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn to_spec_reconstructs_graph() {
        let spec = read(WILKINS_3NODE, "w").0.unwrap();
        assert_eq!(spec.name, "w");
        assert_eq!(spec.tasks.len(), 3);
        assert_eq!(spec.edges().len(), 2);
        assert!(spec.validate().is_empty());
        assert_eq!(
            spec.task("producer").unwrap().produced_datasets(),
            vec!["grid", "particles"]
        );
    }

    #[test]
    fn nprocs_zero_rejected() {
        let cfg = "tasks:\n  - func: p\n    nprocs: 0\n";
        let (_, report) = read(cfg, "w");
        assert!(!report.is_valid());
    }

    #[test]
    fn validate_task_code_reports_no_changes_needed() {
        let report = validate_task_code(WorkflowSystemId::Wilkins, "int main() { return 0; }");
        assert!(report.is_valid());
        assert!(report.has_code("no-annotation-needed"));
    }
}
