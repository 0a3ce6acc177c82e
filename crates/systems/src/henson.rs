//! Henson: cooperative multitasking for in situ processing.
//!
//! Henson workflows are described in a small script: each *puppet* (task) is
//! bound to a shared object plus arguments, and process-group lines assign
//! processes to puppets.  Task codes use the `henson_*` data API
//! (`henson_save_*`, `henson_load_*`, `henson_yield`).

use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::spec::{TaskSpec, WorkflowSpec};

/// One puppet definition: `name = ./library.so args...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Puppet {
    /// Puppet name.
    pub name: String,
    /// Shared-object path.
    pub executable: String,
    /// Command-line arguments.
    pub args: Vec<String>,
}

/// One process-group assignment: `[nprocs] puppet1 puppet2 ...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessGroup {
    /// Number of processes in the group.
    pub nprocs: usize,
    /// Puppets co-scheduled on the group.
    pub puppets: Vec<String>,
}

/// A parsed Henson workflow script.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HensonScript {
    /// Puppet definitions in file order.
    pub puppets: Vec<Puppet>,
    /// Process groups in file order.
    pub groups: Vec<ProcessGroup>,
}

impl HensonScript {
    /// Parse a Henson script, reporting syntax and consistency problems.
    pub fn parse(source: &str) -> (Option<HensonScript>, ValidationReport) {
        let mut report = ValidationReport::valid();
        let mut script = HensonScript::default();
        for (idx, raw) in source.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                // Process group: "[3] producer consumer".
                let Some(close) = rest.find(']') else {
                    report.push(Diagnostic::error(
                        DiagnosticKind::Syntax,
                        format!("line {line_no}: process group is missing `]`"),
                    ));
                    continue;
                };
                let count_text = rest[..close].trim();
                let nprocs = match count_text.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        report.push(Diagnostic::error(
                            DiagnosticKind::Syntax,
                            format!("line {line_no}: `{count_text}` is not a valid process count"),
                        ));
                        continue;
                    }
                };
                let puppets: Vec<String> = rest[close + 1..]
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect();
                if puppets.is_empty() {
                    report.push(Diagnostic::error(
                        DiagnosticKind::Syntax,
                        format!("line {line_no}: process group assigns no puppets"),
                    ));
                    continue;
                }
                script.groups.push(ProcessGroup { nprocs, puppets });
            } else if let Some(eq) = line.find('=') {
                let name = line[..eq].trim().to_owned();
                let rhs = line[eq + 1..].trim();
                if name.is_empty() || rhs.is_empty() {
                    report.push(Diagnostic::error(
                        DiagnosticKind::Syntax,
                        format!(
                            "line {line_no}: puppet definition must be `name = executable [args]`"
                        ),
                    ));
                    continue;
                }
                if name == "procs" || name == "world" {
                    // Accepted global settings; no structural meaning here.
                    continue;
                }
                if script.puppets.iter().any(|p| p.name == name) {
                    report.push(Diagnostic::error(
                        DiagnosticKind::DuplicatePuppet,
                        format!("line {line_no}: puppet `{name}` is defined twice"),
                    ));
                    continue;
                }
                let mut parts = rhs.split_whitespace();
                let executable = parts.next().unwrap_or_default().to_owned();
                let args = parts.map(str::to_owned).collect();
                script.puppets.push(Puppet {
                    name,
                    executable,
                    args,
                });
            } else {
                report.push(Diagnostic::error(DiagnosticKind::UnknownDirective, format!("line {line_no}: `{line}` is neither a puppet definition nor a process group"),
                ));
            }
        }

        if script.puppets.is_empty() {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "script defines no puppets",
            ));
            return (None, report);
        }
        if script.groups.is_empty() {
            report.push(Diagnostic::error(
                DiagnosticKind::Schema,
                "script assigns no process groups (`[n] puppet ...` lines)",
            ));
        }
        for group in &script.groups {
            for puppet in &group.puppets {
                if !script.puppets.iter().any(|p| p.name == *puppet) {
                    report.push(Diagnostic::error(
                        DiagnosticKind::UndefinedPuppet,
                        format!("process group references undefined puppet `{puppet}`"),
                    ));
                }
            }
        }
        let valid = report.is_valid();
        (
            if valid || !script.puppets.is_empty() {
                Some(script)
            } else {
                None
            },
            report,
        )
    }

    /// Total number of processes across groups, saturating at
    /// `usize::MAX`.
    pub fn total_procs(&self) -> usize {
        self.groups
            .iter()
            .fold(0, |sum, g| sum.saturating_add(g.nprocs))
    }

    /// Reconstruct the neutral workflow specification the script describes
    /// (for the runtime).
    ///
    /// Henson scripts name tasks and process groups but carry no explicit
    /// dataflow, so data edges are recovered from the executable naming
    /// convention of the benchmark's reference scripts (which real Henson
    /// examples follow): a puppet bound to `./<base>_<dataset>.so` consumes
    /// `<dataset>`, and every puppet that consumes nothing produces the
    /// union of the consumed datasets.  A puppet assigned to several groups
    /// gets the sum of their process counts, saturating at `usize::MAX`;
    /// one assigned to none defaults to a single process.
    ///
    /// A script that defines zero puppets describes no tasks; that is
    /// reported as a parse-stage diagnostic rather than silently yielding an
    /// empty (vacuously valid) spec.
    pub fn to_spec(&self, name: &str) -> Result<WorkflowSpec, Diagnostic> {
        if self.puppets.is_empty() {
            return Err(Diagnostic::error(
                DiagnosticKind::EmptyWorkflow,
                "the Henson script defines no puppets, so no tasks can be recovered",
            ));
        }
        let consumed: Vec<(usize, String)> = self
            .puppets
            .iter()
            .enumerate()
            .filter_map(|(idx, puppet)| {
                let stem = puppet
                    .executable
                    .rsplit('/')
                    .next()
                    .unwrap_or(&puppet.executable)
                    .trim_end_matches(".so");
                stem.rsplit_once('_')
                    .map(|(_, dataset)| (idx, dataset.to_owned()))
            })
            .collect();
        let all_datasets: Vec<&str> = {
            let mut seen = std::collections::HashSet::new();
            consumed
                .iter()
                .filter(|(_, d)| seen.insert(d.as_str()))
                .map(|(_, d)| d.as_str())
                .collect()
        };
        let mut spec = WorkflowSpec::new(name);
        for (idx, puppet) in self.puppets.iter().enumerate() {
            let nprocs = self
                .groups
                .iter()
                .filter(|g| g.puppets.contains(&puppet.name))
                .fold(0usize, |sum, g| sum.saturating_add(g.nprocs));
            let mut task = TaskSpec::new(&puppet.name, nprocs.max(1));
            let consumes: Vec<&str> = consumed
                .iter()
                .filter(|(i, _)| *i == idx)
                .map(|(_, d)| d.as_str())
                .collect();
            if consumes.is_empty() {
                for dataset in &all_datasets {
                    task = task.produces(dataset);
                }
            } else {
                for dataset in consumes {
                    task = task.consumes(dataset);
                }
            }
            spec.tasks.push(task);
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_task_code, WorkflowSystemId};
    use wfspeak_corpus::references::{annotated, configs};

    #[test]
    fn reference_3node_script_parses_cleanly() {
        let (script, report) = HensonScript::parse(configs::HENSON_3NODE);
        assert!(report.is_valid(), "{report}");
        let script = script.unwrap();
        assert_eq!(script.puppets.len(), 3);
        assert_eq!(script.groups.len(), 3);
        assert_eq!(script.total_procs(), 5);
        assert_eq!(script.puppets[0].name, "producer");
        assert_eq!(script.puppets[0].executable, "./producer.so");
        assert_eq!(script.puppets[0].args, vec!["50", "3"]);
        assert_eq!(script.groups[0].nprocs, 3);
    }

    #[test]
    fn undefined_puppet_in_group_flagged() {
        let src = "producer = ./p.so\n\n[2] producer analyzer\n";
        let (_, report) = HensonScript::parse(src);
        assert!(report.has_code("undefined-puppet"));
        assert!(!report.is_valid());
    }

    #[test]
    fn duplicate_puppet_flagged() {
        let src = "p = ./a.so\np = ./b.so\n[1] p\n";
        let (_, report) = HensonScript::parse(src);
        assert!(report.has_code("duplicate-puppet"));
    }

    #[test]
    fn missing_groups_flagged() {
        let src = "p = ./a.so\n";
        let (_, report) = HensonScript::parse(src);
        assert!(report.has_code("schema"));
        assert!(!report.is_valid());
    }

    #[test]
    fn yaml_like_content_is_not_a_henson_script() {
        // Models often answer with YAML when asked for a Henson config; the
        // validator must reject it.
        let (_, report) = HensonScript::parse("tasks:\n  - func: producer\n    nprocs: 3\n");
        assert!(!report.is_valid());
        assert!(report.has_code("unknown-directive") || report.has_code("schema"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# comment\nproducer = ./p.so 1 2  # trailing\n\n[1] producer\n";
        let (script, report) = HensonScript::parse(src);
        assert!(report.is_valid(), "{report}");
        assert_eq!(script.unwrap().puppets.len(), 1);
    }

    #[test]
    fn bad_group_count_flagged() {
        let (_, report) = HensonScript::parse("p = ./a.so\n[zero] p\n");
        assert!(report.has_code("syntax"));
    }

    #[test]
    fn to_spec_rejects_zero_task_scripts() {
        let empty = HensonScript::default();
        let err = empty.to_spec("henson-workflow").unwrap_err();
        assert_eq!(err.kind, DiagnosticKind::EmptyWorkflow);
    }

    #[test]
    fn to_spec_recovers_the_reference_graph() {
        let (script, _) = HensonScript::parse(configs::HENSON_3NODE);
        let spec = script.unwrap().to_spec("henson-workflow").unwrap();
        assert_eq!(spec.tasks.len(), 3);
        assert!(spec.validate().is_empty());
    }

    #[test]
    fn reference_annotation_validates() {
        let report = validate_task_code(WorkflowSystemId::Henson, annotated::HENSON_PRODUCER);
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn gemini_style_hallucinations_from_table4_detected() {
        // Table 4 (right): Gemini-2.5-Pro invents henson_init/henson_rank/
        // henson_size/henson_data_init/henson_save/henson_finalize.
        let code = r#"
int main(int argc, char** argv) {
    henson_init(argc, argv, MPI_COMM_WORLD);
    int rank = henson_rank();
    henson_data_t array_hd;
    henson_data_init(&array_hd, HENSON_FLOAT, n, array);
    henson_save("array", &array_hd);
    henson_yield();
    henson_finalize();
    return 0;
}
"#;
        let report = validate_task_code(WorkflowSystemId::Henson, code);
        assert!(report.has_code("hallucinated-call"));
        assert!(report.with_code("hallucinated-call").count() >= 4);
    }
}
