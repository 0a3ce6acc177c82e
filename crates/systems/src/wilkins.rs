//! Wilkins: in situ workflow system with a data-centric YAML configuration.
//!
//! Wilkins workflows are described entirely in a YAML file: a `tasks` list
//! where each task has a `func`, `nprocs`, and `inports`/`outports` carrying
//! `filename` + `dsets` entries (`name`, `file`, `memory`).  Task codes need
//! no modification, which is why Wilkins is excluded from the annotation
//! experiment.

use wfspeak_corpus::WorkflowSystemId;
use wfspeak_wyaml::{parse_document, EntryRef, Node, ValueRef};

use crate::api::{catalog_for, ApiCatalog};
use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::spec::{DataRole, TaskSpec, WorkflowSpec};
use crate::WorkflowSystem;

/// One dataset entry under an inport/outport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WilkinsDset {
    /// Full dataset path (e.g. `/group1/grid`).
    pub name: String,
    /// Whether the dataset is also written to file (0/1).
    pub file: bool,
    /// Whether the dataset is exchanged in memory (0/1).
    pub memory: bool,
}

/// An inport or outport: a backing file plus its datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WilkinsPort {
    /// Backing filename (e.g. `outfile.h5`).
    pub filename: String,
    /// Datasets carried over this port.
    pub dsets: Vec<WilkinsDset>,
}

/// One task in a Wilkins configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WilkinsTask {
    /// Task function name.
    pub func: String,
    /// Number of MPI processes.
    pub nprocs: usize,
    /// Input ports.
    pub inports: Vec<WilkinsPort>,
    /// Output ports.
    pub outports: Vec<WilkinsPort>,
}

/// A parsed Wilkins workflow configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WilkinsConfig {
    /// Tasks in file order.
    pub tasks: Vec<WilkinsTask>,
}

impl WilkinsConfig {
    /// Parse a Wilkins YAML configuration, reporting schema violations.
    ///
    /// Parsing is tolerant: unknown fields are reported as diagnostics (the
    /// hallucination signal of Table 6) but do not abort parsing, so the
    /// valid part of a partially wrong configuration can still be inspected.
    pub fn parse(source: &str) -> (Option<WilkinsConfig>, ValidationReport) {
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

        let mut tasks = Vec::new();
        for (idx, entry) in task_list.iter().enumerate() {
            match parse_task(entry, idx, &catalog, &mut report) {
                Some(task) => tasks.push(task),
                None => continue,
            }
        }
        if tasks.is_empty() {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "configuration defines no valid tasks",
            ));
            return (None, report);
        }
        (Some(WilkinsConfig { tasks }), report)
    }

    /// Render the configuration in the canonical reference layout.
    pub fn render(&self) -> String {
        let mut out = String::from("tasks:\n");
        for task in &self.tasks {
            out.push_str(&format!("  - func: {}\n", task.func));
            out.push_str(&format!("    nprocs: {}\n", task.nprocs));
            for (label, ports) in [("outports", &task.outports), ("inports", &task.inports)] {
                if ports.is_empty() {
                    continue;
                }
                out.push_str(&format!("    {label}:\n"));
                for port in ports {
                    out.push_str(&format!("      - filename: {}\n", port.filename));
                    out.push_str("        dsets:\n");
                    for dset in &port.dsets {
                        out.push_str(&format!("          - name: {}\n", dset.name));
                        out.push_str(&format!("            file: {}\n", u8::from(dset.file)));
                        out.push_str(&format!("            memory: {}\n", u8::from(dset.memory)));
                    }
                }
            }
        }
        out
    }

    /// Convert to the neutral workflow specification (for the runtime).
    pub fn to_spec(&self, name: &str) -> WorkflowSpec {
        let mut spec = WorkflowSpec::new(name);
        for task in &self.tasks {
            let mut t = TaskSpec::new(&task.func, task.nprocs);
            for port in &task.outports {
                for dset in &port.dsets {
                    let mut req = crate::spec::DataRequirement::new(
                        dset.name.rsplit('/').next().unwrap_or(&dset.name),
                        DataRole::Produces,
                    );
                    req.filename = port.filename.clone();
                    req.group_path = dset.name.clone();
                    t.data.push(req);
                }
            }
            for port in &task.inports {
                for dset in &port.dsets {
                    let mut req = crate::spec::DataRequirement::new(
                        dset.name.rsplit('/').next().unwrap_or(&dset.name),
                        DataRole::Consumes,
                    );
                    req.filename = port.filename.clone();
                    req.group_path = dset.name.clone();
                    t.data.push(req);
                }
            }
            spec.tasks.push(t);
        }
        spec
    }

    /// Build the canonical configuration for a neutral workflow spec.
    pub fn from_spec(spec: &WorkflowSpec) -> WilkinsConfig {
        let tasks = spec
            .tasks
            .iter()
            .map(|task| {
                let mut outports: Vec<WilkinsPort> = Vec::new();
                let mut inports: Vec<WilkinsPort> = Vec::new();
                for req in &task.data {
                    let target = match req.role {
                        DataRole::Produces => &mut outports,
                        DataRole::Consumes => &mut inports,
                    };
                    let dset = WilkinsDset {
                        name: req.group_path.clone(),
                        file: false,
                        memory: true,
                    };
                    if let Some(port) = target.iter_mut().find(|p| p.filename == req.filename) {
                        port.dsets.push(dset);
                    } else {
                        target.push(WilkinsPort {
                            filename: req.filename.clone(),
                            dsets: vec![dset],
                        });
                    }
                }
                WilkinsTask {
                    func: task.name.clone(),
                    nprocs: task.nprocs,
                    inports,
                    outports,
                }
            })
            .collect();
        WilkinsConfig { tasks }
    }
}

fn parse_bool_flag(node: &Node<'_>) -> Option<bool> {
    match node.value {
        ValueRef::Int(0) => Some(false),
        ValueRef::Int(1) => Some(true),
        ValueRef::Bool(b) => Some(b),
        _ => None,
    }
}

fn parse_task(
    entry: &Node<'_>,
    idx: usize,
    catalog: &ApiCatalog,
    report: &mut ValidationReport,
) -> Option<WilkinsTask> {
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
    let mut func: Option<Result<String, &str>> = None;
    let mut nprocs = 1usize;
    let mut inports = Vec::new();
    let mut outports = Vec::new();
    for EntryRef {
        key, node: value, ..
    } in map.iter()
    {
        match key.as_ref() {
            "func" => func = Some(value.as_str().map(str::to_owned).ok_or(value.type_name())),
            "nprocs" => match value.as_i64() {
                Some(n) if n > 0 => nprocs = n as usize,
                _ => report.push(Diagnostic::error(
                    DiagnosticKind::Schema,
                    format!("task #{idx}: `nprocs` must be a positive integer"),
                )),
            },
            "inports" => inports = parse_ports(value, idx, "inports", catalog, report),
            "outports" => outports = parse_ports(value, idx, "outports", catalog, report),
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
    Some(WilkinsTask {
        func,
        nprocs,
        inports,
        outports,
    })
}

fn parse_ports(
    value: &Node<'_>,
    task_idx: usize,
    label: &str,
    catalog: &ApiCatalog,
    report: &mut ValidationReport,
) -> Vec<WilkinsPort> {
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
    let mut ports = Vec::new();
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
        let mut dsets = Vec::new();
        for EntryRef { key, node: v, .. } in map.iter() {
            match key.as_ref() {
                "filename" => filename = Some(v.as_str().ok_or(v.type_name())),
                "dsets" => {
                    if let Some(list) = v.as_seq() {
                        for d in list {
                            let Some(dm) = d.as_map() else {
                                report.push(Diagnostic::error(
                                    DiagnosticKind::Schema,
                                    format!(
                                        "task #{task_idx}: `dsets` entries must be mappings, found {}",
                                        d.type_name()
                                    ),
                                ));
                                continue;
                            };
                            let mut dset = WilkinsDset {
                                name: String::new(),
                                file: false,
                                memory: true,
                            };
                            for EntryRef {
                                key: dk, node: dv, ..
                            } in dm.iter()
                            {
                                match dk.as_ref() {
                                    "name" => {
                                        dset.name = dv.as_str().unwrap_or_default().to_owned()
                                    }
                                    "file" => {
                                        dset.file = parse_bool_flag(dv).unwrap_or(false)
                                    }
                                    "memory" => {
                                        dset.memory = parse_bool_flag(dv).unwrap_or(true)
                                    }
                                    other => report.push(Diagnostic::error(DiagnosticKind::UnknownField, format!(
                                            "task #{task_idx}: dset field `{other}` does not exist in Wilkins"
                                        ),
                                    )),
                                }
                            }
                            if dset.name.is_empty() {
                                report.push(Diagnostic::error(
                                    DiagnosticKind::Schema,
                                    format!("task #{task_idx}: dset entry missing `name`"),
                                ));
                            } else {
                                dsets.push(dset);
                            }
                        }
                    } else {
                        report.push(Diagnostic::error(
                            DiagnosticKind::Schema,
                            format!("task #{task_idx}: `dsets` must be a sequence"),
                        ));
                    }
                }
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
        let filename = filename.and_then(Result::ok).unwrap_or_default().to_owned();
        ports.push(WilkinsPort { filename, dsets });
    }
    ports
}

/// The Wilkins system model.
#[derive(Debug)]
pub struct WilkinsSystem {
    api: ApiCatalog,
}

impl WilkinsSystem {
    /// Create the model.
    pub fn new() -> Self {
        WilkinsSystem {
            api: catalog_for(WorkflowSystemId::Wilkins),
        }
    }
}

impl Default for WilkinsSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkflowSystem for WilkinsSystem {
    fn id(&self) -> WorkflowSystemId {
        WorkflowSystemId::Wilkins
    }

    fn api(&self) -> &ApiCatalog {
        &self.api
    }

    fn validate_config(&self, config: &str) -> ValidationReport {
        let (_, report) = WilkinsConfig::parse(config);
        report
    }

    fn validate_task_code(&self, _code: &str) -> ValidationReport {
        let mut report = ValidationReport::valid();
        report.push(Diagnostic::info(
            DiagnosticKind::NoAnnotationNeeded,
            "Wilkins does not require modifications to task codes",
        ));
        report
    }

    fn generate_config(&self, spec: &WorkflowSpec) -> Option<String> {
        Some(WilkinsConfig::from_spec(spec).render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_corpus::references::configs::{WILKINS_2NODE, WILKINS_3NODE};

    #[test]
    fn parses_reference_3node_config() {
        let (config, report) = WilkinsConfig::parse(WILKINS_3NODE);
        assert!(report.is_valid(), "{report}");
        let config = config.unwrap();
        assert_eq!(config.tasks.len(), 3);
        assert_eq!(config.tasks[0].func, "producer");
        assert_eq!(config.tasks[0].nprocs, 3);
        assert_eq!(config.tasks[0].outports[0].dsets.len(), 2);
        assert_eq!(config.tasks[1].inports[0].dsets[0].name, "/group1/grid");
        assert!(config.tasks[1].inports[0].dsets[0].memory);
        assert!(!config.tasks[1].inports[0].dsets[0].file);
    }

    #[test]
    fn render_round_trips_reference_exactly() {
        let (config, _) = WilkinsConfig::parse(WILKINS_3NODE);
        assert_eq!(config.unwrap().render(), WILKINS_3NODE);
        let (config2, _) = WilkinsConfig::parse(WILKINS_2NODE);
        assert_eq!(config2.unwrap().render(), WILKINS_2NODE);
    }

    #[test]
    fn generated_config_matches_reference() {
        let system = WilkinsSystem::new();
        let generated = system
            .generate_config(&WorkflowSpec::paper_3node())
            .unwrap();
        assert_eq!(generated, WILKINS_3NODE);
        let generated2 = system
            .generate_config(&WorkflowSpec::fewshot_2node())
            .unwrap();
        assert_eq!(generated2, WILKINS_2NODE);
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
        let (_, report) = WilkinsConfig::parse(bad);
        assert!(!report.is_valid());
        assert!(report.has_code("unknown-field") || report.has_code("schema"));
    }

    #[test]
    fn unknown_task_field_reported() {
        let cfg = "tasks:\n  - func: producer\n    nprocs: 2\n    command: ./p\n";
        let (config, report) = WilkinsConfig::parse(cfg);
        assert!(config.is_some());
        assert!(report.has_code("unknown-field"));
        assert!(!report.is_valid());
    }

    #[test]
    fn missing_func_is_an_error() {
        let cfg = "tasks:\n  - nprocs: 2\n";
        let (config, report) = WilkinsConfig::parse(cfg);
        assert!(config.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn invalid_yaml_is_a_typed_parse_error() {
        let (config, report) = WilkinsConfig::parse("tasks:\n\t- func: x\n");
        assert!(config.is_none());
        // A tab in indentation surfaces as its own failure category, with
        // the real source position of the tab.
        assert!(report.has_code("tab-indent"));
        let diag = report.with_code("tab-indent").next().unwrap();
        assert_eq!(diag.line, Some(2));
        assert_eq!(diag.column, Some(1));
        // Duplicate keys and unterminated flow collections are categorised
        // too, rather than folded into a flat parse-error bucket.
        let (_, report) = WilkinsConfig::parse("tasks: 1\ntasks: 2\n");
        assert!(report.has_code("duplicate-key"));
        let (_, report) = WilkinsConfig::parse("tasks: [1, 2\n");
        assert!(report.has_code("unterminated-flow"));
    }

    #[test]
    fn non_mapping_root_is_schema_error() {
        let (config, report) = WilkinsConfig::parse("- just\n- a\n- list\n");
        assert!(config.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn to_spec_reconstructs_graph() {
        let (config, _) = WilkinsConfig::parse(WILKINS_3NODE);
        let spec = config.unwrap().to_spec("w");
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
        let (_, report) = WilkinsConfig::parse(cfg);
        assert!(!report.is_valid());
    }

    #[test]
    fn validate_task_code_reports_no_changes_needed() {
        let system = WilkinsSystem::new();
        let report = system.validate_task_code("int main() { return 0; }");
        assert!(report.is_valid());
        assert!(report.has_code("no-annotation-needed"));
    }
}
