//! Henson: cooperative multitasking for in situ processing.
//!
//! Henson workflows are described in a small script: each *puppet* (task) is
//! bound to a shared object plus arguments, and process-group lines assign
//! processes to puppets.  Task codes use the `henson_*` data API
//! (`henson_save_*`, `henson_load_*`, `henson_yield`).

use std::collections::HashSet;

use crate::diagnostics::{Diagnostic, DiagnosticKind, ValidationReport};
use crate::spec::{TaskSpec, WorkflowSpec};

/// Read a Henson script into the workflow it describes, reporting syntax
/// and consistency problems.
///
/// Henson scripts name tasks and process groups but carry no explicit
/// dataflow, so data edges are recovered from the executable naming
/// convention of the benchmark's reference scripts (which real Henson
/// examples follow): a puppet bound to `./<base>_<dataset>.so` consumes
/// `<dataset>`, and every puppet that consumes nothing produces the union of
/// the consumed datasets.  A puppet assigned to several groups gets the sum
/// of their process counts, saturating at `usize::MAX`; one assigned to none
/// defaults to a single process.  Groups are checked and summed after the
/// scan, because a group line may come before its puppet's definition.
pub(crate) fn read(source: &str, spec_name: &str) -> (Option<WorkflowSpec>, ValidationReport) {
    let mut report = ValidationReport::valid();
    // Each puppet's name and the dataset its executable consumes, if any.
    let mut puppets: Vec<(&str, Option<&str>)> = Vec::new();
    // Each process group's size and the puppets it lists.
    let mut groups: Vec<(usize, Vec<&str>)> = Vec::new();
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
            let members: Vec<&str> = rest[close + 1..].split_whitespace().collect();
            if members.is_empty() {
                report.push(Diagnostic::error(
                    DiagnosticKind::Syntax,
                    format!("line {line_no}: process group assigns no puppets"),
                ));
                continue;
            }
            groups.push((nprocs, members));
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            if name.is_empty() || rhs.is_empty() {
                report.push(Diagnostic::error(
                    DiagnosticKind::Syntax,
                    format!("line {line_no}: puppet definition must be `name = executable [args]`"),
                ));
                continue;
            }
            if name == "procs" || name == "world" {
                // Accepted global settings; no structural meaning here.
                continue;
            }
            if puppets.iter().any(|&(p, _)| p == name) {
                report.push(Diagnostic::error(
                    DiagnosticKind::DuplicatePuppet,
                    format!("line {line_no}: puppet `{name}` is defined twice"),
                ));
                continue;
            }
            let executable = rhs.split_whitespace().next().unwrap_or_default();
            let stem = executable
                .rsplit('/')
                .next()
                .unwrap_or(executable)
                .trim_end_matches(".so");
            puppets.push((name, stem.rsplit_once('_').map(|(_, dataset)| dataset)));
        } else {
            report.push(Diagnostic::error(
                DiagnosticKind::UnknownDirective,
                format!(
                    "line {line_no}: `{line}` is neither a puppet definition nor a process group"
                ),
            ));
        }
    }

    if puppets.is_empty() {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            "script defines no puppets",
        ));
        return (None, report);
    }
    if groups.is_empty() {
        report.push(Diagnostic::error(
            DiagnosticKind::Schema,
            "script assigns no process groups (`[n] puppet ...` lines)",
        ));
    }
    for (_, members) in &groups {
        for puppet in members {
            if !puppets.iter().any(|(p, _)| p == puppet) {
                report.push(Diagnostic::error(
                    DiagnosticKind::UndefinedPuppet,
                    format!("process group references undefined puppet `{puppet}`"),
                ));
            }
        }
    }

    let mut seen = HashSet::new();
    let all_datasets: Vec<&str> = puppets
        .iter()
        .filter_map(|&(_, consumed)| consumed)
        .filter(|d| seen.insert(*d))
        .collect();
    let mut spec = WorkflowSpec::new(spec_name);
    for &(name, consumed) in &puppets {
        let nprocs = groups
            .iter()
            .filter(|(_, members)| members.contains(&name))
            .fold(0usize, |sum, (n, _)| sum.saturating_add(*n));
        let mut task = TaskSpec::new(name, nprocs.max(1));
        match consumed {
            Some(dataset) => task = task.consumes(dataset),
            None => {
                for dataset in &all_datasets {
                    task = task.produces(dataset);
                }
            }
        }
        spec.tasks.push(task);
    }
    (Some(spec), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate_task_code, WorkflowSystemId};
    use wfspeak_corpus::references::{annotated, configs};

    #[test]
    fn reference_3node_script_parses_cleanly() {
        let (spec, report) = read(configs::HENSON_3NODE, "h");
        assert!(report.is_valid(), "{report}");
        let spec = spec.unwrap();
        assert_eq!(spec.tasks.len(), 3);
        assert_eq!(spec.total_procs(), 5);
        assert_eq!(spec.tasks[0].name, "producer");
        assert_eq!(spec.tasks[0].nprocs, 3);
        assert_eq!(spec.tasks[0].produced_datasets(), vec!["grid", "particles"]);
        assert_eq!(spec.tasks[2].consumed_datasets(), vec!["particles"]);
    }

    #[test]
    fn undefined_puppet_in_group_flagged() {
        let src = "producer = ./p.so\n\n[2] producer analyzer\n";
        let (_, report) = read(src, "h");
        assert!(report.has_code("undefined-puppet"));
        assert!(!report.is_valid());
    }

    #[test]
    fn duplicate_puppet_flagged() {
        let src = "p = ./a.so\np = ./b.so\n[1] p\n";
        let (_, report) = read(src, "h");
        assert!(report.has_code("duplicate-puppet"));
    }

    #[test]
    fn missing_groups_flagged() {
        let src = "p = ./a.so\n";
        let (_, report) = read(src, "h");
        assert!(report.has_code("schema"));
        assert!(!report.is_valid());
    }

    #[test]
    fn yaml_like_content_is_not_a_henson_script() {
        // Models often answer with YAML when asked for a Henson config; the
        // validator must reject it.
        let (_, report) = read("tasks:\n  - func: producer\n    nprocs: 3\n", "h");
        assert!(!report.is_valid());
        assert!(report.has_code("unknown-directive") || report.has_code("schema"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "# comment\nproducer = ./p.so 1 2  # trailing\n\n[1] producer\n";
        let (spec, report) = read(src, "h");
        assert!(report.is_valid(), "{report}");
        assert_eq!(spec.unwrap().tasks.len(), 1);
    }

    #[test]
    fn bad_group_count_flagged() {
        let (_, report) = read("p = ./a.so\n[zero] p\n", "h");
        assert!(report.has_code("syntax"));
    }

    #[test]
    fn to_spec_rejects_zero_task_scripts() {
        // Only global settings and groups: no puppet, so no task.
        let (spec, report) = read("procs = 4\n[1] p\n", "h");
        assert!(spec.is_none());
        assert!(!report.is_valid());
        assert!(report.has_code("schema"));
    }

    #[test]
    fn to_spec_recovers_the_reference_graph() {
        let spec = read(configs::HENSON_3NODE, "henson-workflow").0.unwrap();
        assert_eq!(spec.name, "henson-workflow");
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
