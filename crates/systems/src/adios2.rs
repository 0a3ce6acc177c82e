//! ADIOS2: I/O middleware used as a workflow coupling layer.
//!
//! Two artifacts matter for the benchmark: the YAML runtime configuration
//! (a list of `IO` definitions with an `Engine` and optional `Variables`)
//! and task codes annotated with the `adios2_*` C API.

use wfspeak_codemodel::lexer::Language;
use wfspeak_corpus::WorkflowSystemId;
use wfspeak_wyaml::{parse_document, EntryRef, Node};

use crate::annotate::validate_task_code;
use crate::api::{catalog_for, ApiCatalog};
use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::spec::{DataRole, WorkflowSpec};
use crate::WorkflowSystem;

/// Engine types ADIOS2 actually ships.
pub const REAL_ENGINES: &[&str] = &[
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

/// One `IO` definition in an ADIOS2 YAML configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adios2Io {
    /// IO name (the string passed to `adios2_declare_io`).
    pub name: String,
    /// Engine type (e.g. `SST`, `BP5`).
    pub engine: String,
    /// Declared variables (name only; shapes are free-form).
    pub variables: Vec<String>,
}

/// A parsed ADIOS2 runtime configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Adios2Config {
    /// IO definitions in file order.
    pub ios: Vec<Adios2Io>,
}

impl Adios2Config {
    /// Parse an ADIOS2 YAML configuration, reporting schema violations.
    pub fn parse(source: &str) -> (Option<Adios2Config>, ValidationReport) {
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
        let mut ios = Vec::new();
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
            // The name is read first so that a warning about the engine
            // names the IO wherever `IO` comes in the definition.
            let mut io = Adios2Io {
                name: map
                    .get("IO")
                    .and_then(Node::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                engine: String::new(),
                variables: Vec::new(),
            };
            for EntryRef {
                key, node: value, ..
            } in map.iter()
            {
                match key.as_ref() {
                    "IO" => {}
                    "Engine" => {
                        if let Some(engine_map) = value.as_map() {
                            for EntryRef {
                                key: ek, node: ev, ..
                            } in engine_map.iter()
                            {
                                if ek == "Type" {
                                    io.engine = ev.as_str().unwrap_or_default().to_owned();
                                } else if !catalog.is_real_config_field(ek) {
                                    report.push(Diagnostic::warning(DiagnosticKind::UnknownParameter, format!("IO `{0}`: engine parameter `{ek}` is not a common ADIOS2 parameter", io.name),
                                    ));
                                }
                            }
                        } else if let Some(s) = value.as_str() {
                            io.engine = s.to_owned();
                        }
                    }
                    "Variables" => match value.as_seq() {
                        Some(vars) => {
                            for (v_idx, v) in vars.iter().enumerate() {
                                match v.get("Variable").and_then(Node::as_str).or_else(|| v.as_str()) {
                                    Some(name) => io.variables.push(name.to_owned()),
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
                        report.push(Diagnostic::error(DiagnosticKind::UnknownField, format!("IO definition #{idx}: field `{other}` does not exist in ADIOS2 configs"),
                        ));
                    }
                }
            }
            if io.name.is_empty() {
                report.push(Diagnostic::error(
                    DiagnosticKind::Schema,
                    format!("IO definition #{idx} is missing the `IO` name"),
                ));
                continue;
            }
            if io.engine.is_empty() {
                report.push(Diagnostic::warning(
                    DiagnosticKind::Schema,
                    format!(
                        "IO `{}` does not set an engine type; BPFile is assumed",
                        io.name
                    ),
                ));
                io.engine = "BPFile".to_owned();
            } else if !REAL_ENGINES.contains(&io.engine.as_str()) {
                report.push(Diagnostic::error(
                    DiagnosticKind::UnknownEngine,
                    format!(
                        "IO `{}` uses engine `{}` which ADIOS2 does not provide",
                        io.name, io.engine
                    ),
                ));
            }
            ios.push(io);
        }
        if ios.is_empty() {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "configuration defines no IO entries",
            ));
            return (None, report);
        }
        (Some(Adios2Config { ios }), report)
    }

    /// Reconstruct the neutral workflow specification the configuration
    /// describes (for the runtime).
    ///
    /// An ADIOS2 config names IO streams, not tasks, so the task graph is
    /// recovered from the reference layout conventions: every IO that
    /// declares `Variables` is a writer stream whose variables one producer
    /// task publishes; every variable-less IO is a reader stream consumed by
    /// its own consumer task.  A reader named `<X>Reader` (or `<X>Input`)
    /// matches the declared variable whose capitalised name is `<X>`;
    /// readers that match nothing consume the IO name lowercased.  Process
    /// counts are not part of an ADIOS2 config, so every task gets one.
    ///
    /// A configuration that names zero IO streams describes no tasks at all;
    /// that is reported as a parse-stage diagnostic rather than silently
    /// yielding an empty (vacuously valid) spec.
    pub fn to_spec(&self, name: &str) -> Result<WorkflowSpec, Diagnostic> {
        use crate::spec::TaskSpec;
        if self.ios.is_empty() {
            return Err(Diagnostic::error(
                DiagnosticKind::EmptyWorkflow,
                "the ADIOS2 configuration defines no IO streams, so no tasks can be recovered",
            ));
        }
        let produced: Vec<&str> = {
            let mut seen = std::collections::HashSet::new();
            self.ios
                .iter()
                .flat_map(|io| io.variables.iter())
                .map(String::as_str)
                .filter(|v| seen.insert(*v))
                .collect()
        };
        let mut spec = WorkflowSpec::new(name);
        if !produced.is_empty() {
            let mut producer = TaskSpec::new("producer", 1);
            for dataset in &produced {
                producer = producer.produces(dataset);
            }
            spec.tasks.push(producer);
        }
        let mut consumer_index = 0usize;
        for io in &self.ios {
            if !io.variables.is_empty() {
                continue;
            }
            let stem = io.name.trim_end_matches("Reader").trim_end_matches("Input");
            let dataset = produced
                .iter()
                .find(|v| capitalize(v) == stem)
                .map(|v| (*v).to_owned())
                .unwrap_or_else(|| io.name.to_lowercase());
            consumer_index += 1;
            spec.tasks
                .push(TaskSpec::new(&format!("consumer{consumer_index}"), 1).consumes(&dataset));
        }
        Ok(spec)
    }

    /// Render the canonical reference layout for a workflow spec: one writer
    /// IO per produced dataset (with the variable declared) and one reader
    /// IO per consumed dataset, all over SST for in situ exchange.
    pub fn render_for_spec(spec: &WorkflowSpec) -> String {
        let mut out = String::from("---\n");
        // Writer streams (producer side), in dataset order.
        for task in &spec.tasks {
            for req in &task.data {
                if req.role == DataRole::Produces {
                    let stream = format!("{}Stream", capitalize(&req.dataset));
                    out.push_str(&format!("- IO: {stream}\n"));
                    out.push_str("  Engine:\n    Type: SST\n    RendezvousReaderCount: 1\n    QueueLimit: 1\n");
                    out.push_str("  Variables:\n");
                    out.push_str(&format!("    - Variable: {}\n", req.dataset));
                    let shape = if req.dataset == "grid" {
                        "[64, 64]"
                    } else {
                        "[1024, 3]"
                    };
                    out.push_str(&format!("      Shape: {shape}\n      Type: float\n"));
                }
            }
        }
        // Reader streams (consumer side).
        for task in &spec.tasks {
            for req in &task.data {
                if req.role == DataRole::Consumes {
                    let stream = format!("{}Reader", capitalize(&req.dataset));
                    out.push_str(&format!("- IO: {stream}\n"));
                    out.push_str("  Engine:\n    Type: SST\n");
                }
            }
        }
        out
    }
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

/// The ADIOS2 system model.
#[derive(Debug)]
pub struct Adios2System {
    api: ApiCatalog,
}

impl Adios2System {
    /// Create the model.
    pub fn new() -> Self {
        Adios2System {
            api: catalog_for(WorkflowSystemId::Adios2),
        }
    }
}

impl Default for Adios2System {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkflowSystem for Adios2System {
    fn id(&self) -> WorkflowSystemId {
        WorkflowSystemId::Adios2
    }

    fn api(&self) -> &ApiCatalog {
        &self.api
    }

    fn validate_config(&self, config: &str) -> ValidationReport {
        let (_, report) = Adios2Config::parse(config);
        report
    }

    fn validate_task_code(&self, code: &str) -> ValidationReport {
        validate_task_code(&self.api, code, Language::C, &[])
    }

    fn generate_config(&self, spec: &WorkflowSpec) -> Option<String> {
        Some(Adios2Config::render_for_spec(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_corpus::references::{annotated, configs};

    #[test]
    fn reference_config_parses_cleanly() {
        let (config, report) = Adios2Config::parse(configs::ADIOS2_3NODE);
        assert!(report.is_valid(), "{report}");
        let config = config.unwrap();
        assert_eq!(config.ios.len(), 4);
        assert_eq!(config.ios[0].name, "GridStream");
        assert_eq!(config.ios[0].engine, "SST");
        assert_eq!(config.ios[0].variables, vec!["grid"]);
    }

    #[test]
    fn generated_config_matches_reference() {
        let generated = Adios2Config::render_for_spec(&WorkflowSpec::paper_3node());
        assert_eq!(generated, configs::ADIOS2_3NODE);
    }

    #[test]
    fn generated_2node_matches_fewshot_exemplar_structure() {
        let generated = Adios2Config::render_for_spec(&WorkflowSpec::fewshot_2node());
        let (config, report) = Adios2Config::parse(&generated);
        assert!(report.is_valid());
        assert_eq!(config.unwrap().ios.len(), 2);
    }

    #[test]
    fn unknown_engine_flagged() {
        let cfg = "---\n- IO: Out\n  Engine:\n    Type: FastStream\n";
        let (_, report) = Adios2Config::parse(cfg);
        assert!(report.has_code("unknown-engine"));
        assert!(!report.is_valid());
    }

    #[test]
    fn unknown_field_flagged() {
        let cfg = "---\n- IO: Out\n  Engine:\n    Type: SST\n  Tasks:\n    - producer\n";
        let (_, report) = Adios2Config::parse(cfg);
        assert!(report.has_code("unknown-field"));
    }

    #[test]
    fn mapping_root_rejected() {
        let cfg = "io:\n  name: Out\n";
        let (config, report) = Adios2Config::parse(cfg);
        assert!(config.is_none());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn missing_engine_defaults_with_warning() {
        let cfg = "---\n- IO: Out\n";
        let (config, report) = Adios2Config::parse(cfg);
        assert!(report.is_valid());
        assert_eq!(config.unwrap().ios[0].engine, "BPFile");
        assert!(report.warning_count() >= 1);
    }

    #[test]
    fn reference_annotation_validates() {
        let system = Adios2System::new();
        let report = system.validate_task_code(annotated::ADIOS2_PRODUCER);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn hallucinated_adios_call_detected() {
        let system = Adios2System::new();
        let code = "int main() { adios2_write_step(engine, var, data); }";
        let report = system.validate_task_code(code);
        assert!(report.has_code("hallucinated-call"));
    }

    #[test]
    fn engine_as_plain_string_accepted() {
        let cfg = "---\n- IO: Out\n  Engine: SST\n";
        let (config, report) = Adios2Config::parse(cfg);
        assert!(report.is_valid(), "{report}");
        assert_eq!(config.unwrap().ios[0].engine, "SST");
    }

    #[test]
    fn to_spec_rejects_zero_task_configs() {
        // A config with no IO streams must surface a diagnostic, not a
        // silent empty spec the validate stage would wave through.
        let empty = Adios2Config::default();
        let err = empty.to_spec("adios2-workflow").unwrap_err();
        assert_eq!(err.kind, DiagnosticKind::EmptyWorkflow);
        assert_eq!(err.severity, crate::diagnostics::Severity::Error);
    }

    #[test]
    fn to_spec_recovers_the_reference_graph() {
        let (config, _) = Adios2Config::parse(configs::ADIOS2_3NODE);
        let spec = config.unwrap().to_spec("adios2-workflow").unwrap();
        assert_eq!(spec.tasks.len(), 3);
        assert!(spec.validate().is_empty());
    }

    #[test]
    fn parse_errors_carry_source_positions() {
        let (_, report) = Adios2Config::parse("---\n- IO: \"unterminated\n");
        let diag = report.with_code("unterminated-string").next().unwrap();
        assert_eq!(diag.line, Some(2));
        // Column of the opening quote.
        assert_eq!(diag.column, Some(7));
    }
}
