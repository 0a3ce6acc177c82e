//! Validation diagnostics shared by every system model.
//!
//! A [`Diagnostic`] is a typed finding: a machine-readable [`DiagnosticKind`],
//! a [`Severity`], an optional path into the artifact (task or field), an
//! optional source position, and a human-readable message.  The scoring
//! service sends each one as a `WireDiagnostic` (the kind's wire code, the
//! severity label and the same optional fields) so clients can tell *why*
//! an artifact failed without parsing prose.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational note (does not invalidate the artifact).
    Info,
    /// Suspicious but tolerated (e.g. redundant boilerplate).
    Warning,
    /// The artifact is wrong for this system (unknown field, hallucinated
    /// API call, missing required call, parse failure).
    Error,
}

impl Severity {
    /// Lower-case label used in display and wire forms.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// What category of problem a diagnostic reports.
///
/// The kinds cover three lifecycle stages: **parse** (the artifact text did
/// not yield a spec), **validate** (the spec is structurally wrong), and
/// **execute** (the engine refused or failed the run).  [`code`] gives the
/// stable kebab-case identifier used on the wire and in `has_code` lookups.
///
/// [`code`]: DiagnosticKind::code
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    // ---- parse stage: artifact text → spec ----
    /// The artifact text failed to parse at all (uncategorised).
    ParseError,
    /// A line is not a legal construct of the config language.
    Syntax,
    /// YAML indentation does not match any open block.
    BadIndentation,
    /// A tab character used in YAML block indentation.
    TabIndent,
    /// A quoted YAML scalar was not terminated.
    UnterminatedString,
    /// A YAML flow collection (`[...]` / `{...}`) was not closed.
    UnterminatedFlow,
    /// A mapping key appears twice in the same YAML mapping.
    DuplicateKey,
    /// Valid YAML outside the supported subset (anchors, tags, block
    /// scalars, multiple documents).
    UnsupportedYaml,
    /// The document parses but violates the system's config schema.
    Schema,
    /// A field name the system does not define.
    UnknownField,
    /// A real field in a place the schema does not allow it.
    MisplacedField,
    /// An engine parameter the system does not define.
    UnknownParameter,
    /// An engine name the system does not define.
    UnknownEngine,
    /// A Henson puppet defined twice.
    DuplicatePuppet,
    /// A Henson process group references an undefined puppet.
    UndefinedPuppet,
    /// A Henson line that is neither a puppet definition nor a group.
    UnknownDirective,
    /// The system has no structural configuration file to parse.
    NoStructuralConfig,
    /// The config describes the execution environment, not the workflow.
    EnvironmentConfig,
    // ---- annotation checks: task code against the API catalogue ----
    /// A required import is missing from the task code.
    MissingImport,
    /// A required parameter direction is missing.
    MissingDirection,
    /// No API usage found in the task code.
    NoApiUsage,
    /// The task code needs no annotation for this system.
    NoAnnotationNeeded,
    /// A call that does not exist in the system's API.
    HallucinatedCall,
    /// A required API call is missing.
    MissingCall,
    /// Legal but unrequested boilerplate.
    RedundantCall,
    /// Free-form informational note.
    Note,
    // ---- validate stage: structural checks on the spec ----
    /// The spec defines no tasks at all.
    EmptyWorkflow,
    /// Two tasks share a name.
    DuplicateTask,
    /// A task name is empty or contains whitespace/control characters.
    InvalidTaskName,
    /// A task requests zero processes.
    ZeroProcs,
    /// A process count beyond any plausible deployment.
    ProcBounds,
    /// More tasks than any plausible workflow.
    TaskBounds,
    /// A dataset name is empty.
    InvalidDataset,
    /// A task consumes a dataset no task produces.
    DanglingConsume,
    /// A task produces a dataset no task consumes.
    UnconsumedProduce,
    /// The same dataset requirement is listed twice on one task.
    DuplicateEdge,
    /// A task consumes a dataset it also produces.
    SelfLoop,
    /// The producer/consumer graph contains a dependency cycle.
    Cycle,
    // ---- execute stage: sandboxed runs ----
    /// The spec exceeds the sandbox's resource caps.
    SandboxCap,
    /// The runtime engine refused or aborted the run.
    EngineError,
    /// The run started but did not complete within the sandbox budget.
    IncompleteRun,
}

impl DiagnosticKind {
    /// Every kind, for exhaustive wire/round-trip tests.
    pub const ALL: &'static [DiagnosticKind] = &[
        DiagnosticKind::ParseError,
        DiagnosticKind::Syntax,
        DiagnosticKind::BadIndentation,
        DiagnosticKind::TabIndent,
        DiagnosticKind::UnterminatedString,
        DiagnosticKind::UnterminatedFlow,
        DiagnosticKind::DuplicateKey,
        DiagnosticKind::UnsupportedYaml,
        DiagnosticKind::Schema,
        DiagnosticKind::UnknownField,
        DiagnosticKind::MisplacedField,
        DiagnosticKind::UnknownParameter,
        DiagnosticKind::UnknownEngine,
        DiagnosticKind::DuplicatePuppet,
        DiagnosticKind::UndefinedPuppet,
        DiagnosticKind::UnknownDirective,
        DiagnosticKind::NoStructuralConfig,
        DiagnosticKind::EnvironmentConfig,
        DiagnosticKind::MissingImport,
        DiagnosticKind::MissingDirection,
        DiagnosticKind::NoApiUsage,
        DiagnosticKind::NoAnnotationNeeded,
        DiagnosticKind::HallucinatedCall,
        DiagnosticKind::MissingCall,
        DiagnosticKind::RedundantCall,
        DiagnosticKind::Note,
        DiagnosticKind::EmptyWorkflow,
        DiagnosticKind::DuplicateTask,
        DiagnosticKind::InvalidTaskName,
        DiagnosticKind::ZeroProcs,
        DiagnosticKind::ProcBounds,
        DiagnosticKind::TaskBounds,
        DiagnosticKind::InvalidDataset,
        DiagnosticKind::DanglingConsume,
        DiagnosticKind::UnconsumedProduce,
        DiagnosticKind::DuplicateEdge,
        DiagnosticKind::SelfLoop,
        DiagnosticKind::Cycle,
        DiagnosticKind::SandboxCap,
        DiagnosticKind::EngineError,
        DiagnosticKind::IncompleteRun,
    ];

    /// Stable kebab-case identifier used on the wire.
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticKind::ParseError => "parse-error",
            DiagnosticKind::Syntax => "syntax",
            DiagnosticKind::BadIndentation => "bad-indentation",
            DiagnosticKind::TabIndent => "tab-indent",
            DiagnosticKind::UnterminatedString => "unterminated-string",
            DiagnosticKind::UnterminatedFlow => "unterminated-flow",
            DiagnosticKind::DuplicateKey => "duplicate-key",
            DiagnosticKind::UnsupportedYaml => "unsupported-yaml",
            DiagnosticKind::Schema => "schema",
            DiagnosticKind::UnknownField => "unknown-field",
            DiagnosticKind::MisplacedField => "misplaced-field",
            DiagnosticKind::UnknownParameter => "unknown-parameter",
            DiagnosticKind::UnknownEngine => "unknown-engine",
            DiagnosticKind::DuplicatePuppet => "duplicate-puppet",
            DiagnosticKind::UndefinedPuppet => "undefined-puppet",
            DiagnosticKind::UnknownDirective => "unknown-directive",
            DiagnosticKind::NoStructuralConfig => "no-structural-config",
            DiagnosticKind::EnvironmentConfig => "environment-config",
            DiagnosticKind::MissingImport => "missing-import",
            DiagnosticKind::MissingDirection => "missing-direction",
            DiagnosticKind::NoApiUsage => "no-api-usage",
            DiagnosticKind::NoAnnotationNeeded => "no-annotation-needed",
            DiagnosticKind::HallucinatedCall => "hallucinated-call",
            DiagnosticKind::MissingCall => "missing-call",
            DiagnosticKind::RedundantCall => "redundant-call",
            DiagnosticKind::Note => "note",
            DiagnosticKind::EmptyWorkflow => "empty-workflow",
            DiagnosticKind::DuplicateTask => "duplicate-task",
            DiagnosticKind::InvalidTaskName => "invalid-task-name",
            DiagnosticKind::ZeroProcs => "zero-procs",
            DiagnosticKind::ProcBounds => "proc-bounds",
            DiagnosticKind::TaskBounds => "task-bounds",
            DiagnosticKind::InvalidDataset => "invalid-dataset",
            DiagnosticKind::DanglingConsume => "dangling-consume",
            DiagnosticKind::UnconsumedProduce => "unconsumed-produce",
            DiagnosticKind::DuplicateEdge => "duplicate-edge",
            DiagnosticKind::SelfLoop => "self-loop",
            DiagnosticKind::Cycle => "cycle",
            DiagnosticKind::SandboxCap => "sandbox-cap",
            DiagnosticKind::EngineError => "engine-error",
            DiagnosticKind::IncompleteRun => "incomplete-run",
        }
    }

    /// The kind with the given wire code, if any.
    pub fn from_code(code: &str) -> Option<DiagnosticKind> {
        DiagnosticKind::ALL
            .iter()
            .copied()
            .find(|k| k.code() == code)
    }

    /// The diagnostic category for a YAML parse-failure kind.  Each parser
    /// category maps onto the matching diagnostic so evaluation tables can
    /// break "did not parse" down by cause; kinds without a dedicated
    /// diagnostic fold into [`DiagnosticKind::Syntax`] / `ParseError`.
    pub fn from_yaml_error(kind: wfspeak_wyaml::ErrorKind) -> DiagnosticKind {
        use wfspeak_wyaml::ErrorKind as Y;
        match kind {
            Y::BadIndentation => DiagnosticKind::BadIndentation,
            Y::TabIndent => DiagnosticKind::TabIndent,
            Y::UnterminatedString => DiagnosticKind::UnterminatedString,
            Y::UnterminatedFlow => DiagnosticKind::UnterminatedFlow,
            Y::DuplicateKey => DiagnosticKind::DuplicateKey,
            Y::Unsupported => DiagnosticKind::UnsupportedYaml,
            Y::ExpectedMapping | Y::ExpectedSequence => DiagnosticKind::Syntax,
            Y::Other => DiagnosticKind::ParseError,
        }
    }
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// A single finding from validating a configuration, task code or spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What category of problem this is.
    pub kind: DiagnosticKind,
    /// Severity of the finding.
    pub severity: Severity,
    /// Path into the artifact (task or field name), when known.
    pub path: Option<String>,
    /// 1-based source line, when known.
    pub line: Option<usize>,
    /// 1-based source column, when known.
    pub column: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic with an explicit severity.
    pub fn new(kind: DiagnosticKind, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            severity,
            path: None,
            line: None,
            column: None,
            message: message.into(),
        }
    }

    /// Construct an error diagnostic.
    pub fn error(kind: DiagnosticKind, message: impl Into<String>) -> Self {
        Diagnostic::new(kind, Severity::Error, message)
    }

    /// Construct a warning diagnostic.
    pub fn warning(kind: DiagnosticKind, message: impl Into<String>) -> Self {
        Diagnostic::new(kind, Severity::Warning, message)
    }

    /// Construct an informational diagnostic.
    pub fn info(kind: DiagnosticKind, message: impl Into<String>) -> Self {
        Diagnostic::new(kind, Severity::Info, message)
    }

    /// Attach a path into the artifact (e.g. a task or field name).
    pub fn at_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Attach a 1-based source line.
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Attach a 1-based source line and optional column.
    pub fn at_position(mut self, line: usize, column: Option<usize>) -> Self {
        self.line = Some(line);
        self.column = column;
        self
    }

    /// The stable wire code of this diagnostic's kind.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }

    /// True when this finding is error severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.label(),
            self.kind.code(),
            self.message
        )?;
        let mut at = Vec::new();
        if let Some(path) = &self.path {
            at.push(path.clone());
        }
        if let Some(line) = self.line {
            match self.column {
                Some(col) => at.push(format!("line {line}, column {col}")),
                None => at.push(format!("line {line}")),
            }
        }
        if !at.is_empty() {
            write!(f, " ({})", at.join(", "))?;
        }
        Ok(())
    }
}

/// The outcome of validating one artifact against one system model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// All findings, in detection order.
    pub diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    /// An empty (fully valid) report.
    pub fn valid() -> Self {
        ValidationReport::default()
    }

    /// Add a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// True when no error-severity findings exist.
    pub fn is_valid(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// The first error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
    }

    /// Findings with a specific wire code.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics
            .iter()
            .filter(move |d| d.kind.code() == code)
    }

    /// True if any finding carries the given wire code.
    pub fn has_code(&self, code: &str) -> bool {
        self.with_code(code).next().is_some()
    }

    /// Findings of a specific kind.
    pub fn with_kind(&self, kind: DiagnosticKind) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diagnostics.iter().filter(move |d| d.kind == kind)
    }

    /// True if any finding is of the given kind.
    pub fn has_kind(&self, kind: DiagnosticKind) -> bool {
        self.with_kind(kind).next().is_some()
    }

    /// Merge another report's findings into this one.
    pub fn merge(&mut self, other: ValidationReport) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "valid (no findings)");
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid() {
        let r = ValidationReport::valid();
        assert!(r.is_valid());
        assert_eq!(r.error_count(), 0);
        assert_eq!(format!("{r}"), "valid (no findings)");
    }

    #[test]
    fn errors_invalidate_warnings_do_not() {
        let mut r = ValidationReport::valid();
        r.push(Diagnostic::warning(
            DiagnosticKind::RedundantCall,
            "extra executor config",
        ));
        assert!(r.is_valid());
        r.push(Diagnostic::error(
            DiagnosticKind::HallucinatedCall,
            "henson_put does not exist",
        ));
        assert!(!r.is_valid());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(
            r.first_error().unwrap().kind,
            DiagnosticKind::HallucinatedCall
        );
    }

    #[test]
    fn lookup_by_code_and_kind() {
        let mut r = ValidationReport::valid();
        r.push(Diagnostic::error(DiagnosticKind::UnknownField, "inputs"));
        r.push(Diagnostic::error(DiagnosticKind::UnknownField, "outputs"));
        r.push(Diagnostic::info(DiagnosticKind::Note, "something"));
        assert!(r.has_code("unknown-field"));
        assert_eq!(r.with_code("unknown-field").count(), 2);
        assert!(!r.has_code("missing-call"));
        assert!(r.has_kind(DiagnosticKind::Note));
        assert_eq!(r.with_kind(DiagnosticKind::UnknownField).count(), 2);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = ValidationReport::valid();
        a.push(Diagnostic::info(DiagnosticKind::Note, "x"));
        let mut b = ValidationReport::valid();
        b.push(Diagnostic::error(DiagnosticKind::Schema, "y"));
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 2);
        assert!(!a.is_valid());
    }

    #[test]
    fn display_formats_severity_and_code() {
        let d = Diagnostic::error(DiagnosticKind::MissingCall, "henson_yield not found");
        assert_eq!(
            format!("{d}"),
            "error[missing-call]: henson_yield not found"
        );
        assert!(format!("{}", Diagnostic::info(DiagnosticKind::Note, "m")).starts_with("info"));
    }

    #[test]
    fn display_appends_position_and_path() {
        let d = Diagnostic::error(DiagnosticKind::ParseError, "bad token")
            .at_position(3, Some(7))
            .at_path("tasks[0]");
        assert_eq!(
            format!("{d}"),
            "error[parse-error]: bad token (tasks[0], line 3, column 7)"
        );
        let line_only = Diagnostic::warning(DiagnosticKind::Schema, "odd").at_line(2);
        assert_eq!(format!("{line_only}"), "warning[schema]: odd (line 2)");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn kind_codes_are_unique_and_round_trip() {
        let mut seen = std::collections::HashSet::new();
        for kind in DiagnosticKind::ALL {
            assert!(seen.insert(kind.code()), "duplicate code {}", kind.code());
            assert_eq!(DiagnosticKind::from_code(kind.code()), Some(*kind));
        }
        assert_eq!(DiagnosticKind::from_code("no-such-kind"), None);
    }

    #[test]
    fn yaml_error_kinds_map_onto_diagnostic_categories() {
        use wfspeak_wyaml::ErrorKind as Y;
        // Every parser category maps to a diagnostic whose wire code equals
        // the parser's own failure-category code (or a generic fallback).
        for kind in Y::ALL {
            let diag = DiagnosticKind::from_yaml_error(*kind);
            match kind {
                Y::ExpectedMapping | Y::ExpectedSequence => {
                    assert_eq!(diag, DiagnosticKind::Syntax)
                }
                _ => assert_eq!(diag.code(), kind.code(), "{kind:?}"),
            }
        }
        assert_eq!(
            DiagnosticKind::from_yaml_error(Y::TabIndent),
            DiagnosticKind::TabIndent
        );
        assert_eq!(
            DiagnosticKind::from_yaml_error(Y::Other),
            DiagnosticKind::ParseError
        );
    }
}
