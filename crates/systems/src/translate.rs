//! Rule-based annotation and translation between workflow systems.
//!
//! This module is the deterministic, non-LLM baseline: it strips one
//! system's API from a task code and re-annotates the remaining simulation
//! logic with another system's API, using structural anchors that the
//! benchmark's producer codes share (initialisation after `srand`/argument
//! parsing, publication after the reduction step, cleanup before
//! `MPI_Finalize` / end of `main`).  EXPERIMENTS.md uses it as an ablation
//! baseline against the simulated LLMs.

use wfspeak_corpus::WorkflowSystemId;

use crate::api::catalog_for;

/// Remove every line that belongs to `system`'s API family: includes /
/// imports, declarations of its handle types, and statements calling its
/// functions or decorators.
pub fn strip_annotations(code: &str, system: WorkflowSystemId) -> String {
    let catalog = catalog_for(system);
    let markers: Vec<String> = {
        let mut m: Vec<String> = catalog
            .prefixes
            .iter()
            .map(|p| p.trim_end_matches('_').to_string())
            .collect();
        match system {
            WorkflowSystemId::Adios2 => m.push("adios2".into()),
            WorkflowSystemId::Henson => m.push("henson".into()),
            WorkflowSystemId::Parsl => {
                m.extend(["parsl".into(), "python_app".into(), "bash_app".into()]);
            }
            WorkflowSystemId::PyCompss => {
                m.extend([
                    "pycompss".into(),
                    "compss_".into(),
                    "@task".into(),
                    "FILE_OUT".into(),
                ]);
            }
            WorkflowSystemId::Wilkins => m.push("wilkins".into()),
        }
        m
    };
    let mut out = String::new();
    let mut skip_decorator_block = false;
    for line in code.lines() {
        let lower = line.to_ascii_lowercase();
        let mentions_system = markers
            .iter()
            .any(|m| lower.contains(&m.to_ascii_lowercase()));
        if mentions_system {
            // Multi-line call statements: if the line opens a call that does
            // not close on the same line, skip until it does.
            let opens = line.matches('(').count();
            let closes = line.matches(')').count();
            skip_decorator_block = opens > closes;
            continue;
        }
        if skip_decorator_block {
            let opens = line.matches('(').count();
            let closes = line.matches(')').count();
            if closes > opens || (closes == opens && closes > 0) || line.trim().ends_with(");") {
                skip_decorator_block = false;
            }
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Annotate a (bare) producer task code with `system`'s API.  Returns `None`
/// for Wilkins, which needs no annotations.
pub fn annotate(code: &str, system: WorkflowSystemId) -> Option<String> {
    match system {
        WorkflowSystemId::Adios2 => Some(annotate_c(code, &Adios2Snippets)),
        WorkflowSystemId::Henson => Some(annotate_c(code, &HensonSnippets)),
        WorkflowSystemId::Parsl => Some(annotate_python_parsl(code)),
        WorkflowSystemId::PyCompss => Some(annotate_python_pycompss(code)),
        WorkflowSystemId::Wilkins => None,
    }
}

/// Translate annotated task code from one system to another by stripping the
/// source API and re-annotating with the target API.
pub fn translate(code: &str, source: WorkflowSystemId, target: WorkflowSystemId) -> Option<String> {
    let bare = strip_annotations(code, source);
    annotate(&bare, target)
}

/// Code snippets a C annotator inserts at each structural anchor.
trait CSnippets {
    fn includes(&self) -> &'static str;
    fn init(&self) -> &'static str;
    fn publish(&self) -> &'static str;
    fn finalize(&self) -> &'static str;
}

struct Adios2Snippets;

impl CSnippets for Adios2Snippets {
    fn includes(&self) -> &'static str {
        "#include <adios2_c.h>"
    }
    fn init(&self) -> &'static str {
        r#"    adios2_adios* adios = adios2_init_mpi(MPI_COMM_WORLD);
    adios2_io* io = adios2_declare_io(adios, "SimulationOutput");
    size_t shape[2] = {(size_t) size, n};
    size_t start[2] = {(size_t) rank, 0};
    size_t count[2] = {1, n};
    adios2_variable* var_array = adios2_define_variable(
        io, "array", adios2_type_float, 2, shape, start, count,
        adios2_constant_dims_true);
    adios2_variable* var_t = adios2_define_variable(
        io, "t", adios2_type_int32_t, 0, NULL, NULL, NULL,
        adios2_constant_dims_true);
    adios2_engine* engine = adios2_open(io, "output.bp", adios2_mode_write);"#
    }
    fn publish(&self) -> &'static str {
        r#"        adios2_step_status status;
        adios2_begin_step(engine, adios2_step_mode_append, -1.0, &status);
        adios2_put(engine, var_array, array, adios2_mode_deferred);
        adios2_put(engine, var_t, &t, adios2_mode_deferred);
        adios2_end_step(engine);"#
    }
    fn finalize(&self) -> &'static str {
        r#"    adios2_close(engine);
    adios2_finalize(adios);"#
    }
}

struct HensonSnippets;

impl CSnippets for HensonSnippets {
    fn includes(&self) -> &'static str {
        "#include <henson/data.h>\n#include <henson/context.h>"
    }
    fn init(&self) -> &'static str {
        ""
    }
    fn publish(&self) -> &'static str {
        r#"        henson_save_array("array", array, sizeof(float), n, sizeof(float));
        henson_save_int("t", t);
        henson_yield();"#
    }
    fn finalize(&self) -> &'static str {
        ""
    }
}

/// Insert C snippets at the producer's structural anchors.
fn annotate_c(code: &str, snippets: &dyn CSnippets) -> String {
    let lines: Vec<&str> = code.lines().collect();
    let mut out: Vec<String> = Vec::with_capacity(lines.len() + 16);

    // Anchor detection.
    let last_include = lines
        .iter()
        .rposition(|l| l.trim_start().starts_with("#include"));
    let srand_line = lines.iter().position(|l| l.contains("srand("));
    let publish_anchor = lines
        .iter()
        .position(|l| l.contains("free(array)"))
        .or_else(|| lines.iter().position(|l| l.contains("total_sum = %f")));
    let finalize_anchor = lines.iter().position(|l| l.contains("MPI_Finalize"));

    for (i, line) in lines.iter().enumerate() {
        if Some(i) == publish_anchor && !snippets.publish().is_empty() {
            out.push(snippets.publish().to_owned());
            if !line.contains("free(array)") {
                // Anchored on the print instead; emit it before the snippet.
                out.pop();
                out.push((*line).to_owned());
                out.push(String::new());
                out.push(snippets.publish().to_owned());
                continue;
            }
        }
        if Some(i) == finalize_anchor && !snippets.finalize().is_empty() {
            out.push(snippets.finalize().to_owned());
            out.push(String::new());
        }
        out.push((*line).to_owned());
        if Some(i) == last_include {
            out.push(snippets.includes().to_owned());
        }
        if Some(i) == srand_line && !snippets.init().is_empty() {
            out.push(String::new());
            out.push(snippets.init().to_owned());
        }
    }
    let mut text = out.join("\n");
    if !text.ends_with('\n') {
        text.push('\n');
    }
    text
}

/// Annotate the Python producer as a Parsl app.
fn annotate_python_parsl(code: &str) -> String {
    let mut out = String::new();
    let mut inserted_imports = false;
    let mut in_main = false;
    for line in code.lines() {
        let trimmed = line.trim_start();
        if !inserted_imports && trimmed.starts_with("def ") {
            out.push_str("import parsl\nfrom parsl import python_app\n\n\n");
            inserted_imports = true;
        }
        if trimmed.starts_with("def produce(") {
            out.push_str("@python_app\n");
        }
        if trimmed.starts_with("def main(") {
            in_main = true;
        }
        if in_main && (trimmed.starts_with("produce(") || trimmed.contains("= produce(")) {
            let indent = &line[..line.len() - trimmed.len()];
            out.push_str(&format!("{indent}parsl.load()\n\n"));
            let call = trimmed.trim_start_matches(|c: char| c != 'p').trim_end();
            out.push_str(&format!("{indent}future = {call}\n"));
            out.push_str(&format!("{indent}future.result()\n"));
            in_main = false;
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    if !inserted_imports {
        out = format!("import parsl\nfrom parsl import python_app\n\n{out}");
    }
    out
}

/// Annotate the Python producer as a PyCOMPSs task.
fn annotate_python_pycompss(code: &str) -> String {
    let mut out = String::new();
    let mut inserted_imports = false;
    let mut in_main = false;
    for line in code.lines() {
        let trimmed = line.trim_start();
        if !inserted_imports && trimmed.starts_with("def ") {
            out.push_str(
                "from pycompss.api.task import task\nfrom pycompss.api.parameter import FILE_OUT\nfrom pycompss.api.api import compss_wait_on_file\n\n\n",
            );
            inserted_imports = true;
        }
        if trimmed.starts_with("def produce(") {
            out.push_str("@task(outfile=FILE_OUT)\n");
        }
        if trimmed.starts_with("def main(") {
            in_main = true;
        }
        if in_main && (trimmed.starts_with("produce(") || trimmed.contains("= produce(")) {
            let indent = &line[..line.len() - trimmed.len()];
            let call = trimmed.trim_end();
            let call = call.strip_prefix("future = ").unwrap_or(call);
            out.push_str(&format!("{indent}{call}\n"));
            out.push_str(&format!("{indent}compss_wait_on_file(\"output.txt\")\n"));
            in_main = false;
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    if !inserted_imports {
        out = format!(
            "from pycompss.api.task import task\nfrom pycompss.api.api import compss_wait_on_file\n\n{out}"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_task_code;
    use wfspeak_codemodel::calls::call_names;
    use wfspeak_codemodel::lexer::Language;
    use wfspeak_corpus::references::annotated;
    use wfspeak_corpus::task_codes;

    #[test]
    fn strip_removes_all_henson_calls_but_keeps_simulation() {
        let bare = strip_annotations(annotated::HENSON_PRODUCER, WorkflowSystemId::Henson);
        assert!(!bare.contains("henson"));
        assert!(bare.contains("MPI_Reduce"));
        assert!(bare.contains("free(array)"));
    }

    #[test]
    fn strip_removes_multiline_adios2_statements() {
        let bare = strip_annotations(annotated::ADIOS2_PRODUCER, WorkflowSystemId::Adios2);
        assert!(!bare.contains("adios2"), "left over: {bare}");
        assert!(bare.contains("MPI_Init"));
    }

    #[test]
    fn annotate_bare_c_producer_for_henson_validates() {
        let annotated_code = annotate(task_codes::C_PRODUCER, WorkflowSystemId::Henson).unwrap();
        let report = validate_task_code(WorkflowSystemId::Henson, &annotated_code);
        assert!(report.is_valid(), "{report}\n{annotated_code}");
    }

    #[test]
    fn annotate_bare_c_producer_for_adios2_validates() {
        let annotated_code = annotate(task_codes::C_PRODUCER, WorkflowSystemId::Adios2).unwrap();
        let report = validate_task_code(WorkflowSystemId::Adios2, &annotated_code);
        assert!(report.is_valid(), "{report}\n{annotated_code}");
    }

    #[test]
    fn annotate_bare_python_producer_for_parsl_validates() {
        let annotated_code = annotate(task_codes::PY_PRODUCER, WorkflowSystemId::Parsl).unwrap();
        let report = validate_task_code(WorkflowSystemId::Parsl, &annotated_code);
        assert!(report.is_valid(), "{report}\n{annotated_code}");
    }

    #[test]
    fn annotate_bare_python_producer_for_pycompss_validates() {
        let annotated_code = annotate(task_codes::PY_PRODUCER, WorkflowSystemId::PyCompss).unwrap();
        let report = validate_task_code(WorkflowSystemId::PyCompss, &annotated_code);
        assert!(report.is_valid(), "{report}\n{annotated_code}");
    }

    #[test]
    fn wilkins_needs_no_annotation() {
        assert!(annotate(task_codes::C_PRODUCER, WorkflowSystemId::Wilkins).is_none());
    }

    #[test]
    fn translate_adios2_to_henson_validates_and_drops_adios2() {
        let translated = translate(
            annotated::ADIOS2_PRODUCER,
            WorkflowSystemId::Adios2,
            WorkflowSystemId::Henson,
        )
        .unwrap();
        assert!(!translated.contains("adios2"));
        let names = call_names(&translated, Language::C);
        assert!(names.contains(&"henson_save_int".to_string()));
        assert!(names.contains(&"henson_yield".to_string()));
        let report = validate_task_code(WorkflowSystemId::Henson, &translated);
        assert!(report.is_valid(), "{report}\n{translated}");
    }

    #[test]
    fn translate_henson_to_adios2_validates() {
        let translated = translate(
            annotated::HENSON_PRODUCER,
            WorkflowSystemId::Henson,
            WorkflowSystemId::Adios2,
        )
        .unwrap();
        assert!(!translated.contains("henson"));
        let report = validate_task_code(WorkflowSystemId::Adios2, &translated);
        assert!(report.is_valid(), "{report}\n{translated}");
    }

    #[test]
    fn translate_parsl_to_pycompss_validates() {
        let translated = translate(
            annotated::PARSL_PRODUCER,
            WorkflowSystemId::Parsl,
            WorkflowSystemId::PyCompss,
        )
        .unwrap();
        assert!(!translated.contains("parsl"));
        let report = validate_task_code(WorkflowSystemId::PyCompss, &translated);
        assert!(report.is_valid(), "{report}\n{translated}");
    }

    #[test]
    fn translate_pycompss_to_parsl_validates() {
        let translated = translate(
            annotated::PYCOMPSS_PRODUCER,
            WorkflowSystemId::PyCompss,
            WorkflowSystemId::Parsl,
        )
        .unwrap();
        assert!(!translated.contains("compss"));
        let report = validate_task_code(WorkflowSystemId::Parsl, &translated);
        assert!(report.is_valid(), "{report}\n{translated}");
    }

    #[test]
    fn translation_keeps_simulation_logic() {
        let translated = translate(
            annotated::ADIOS2_PRODUCER,
            WorkflowSystemId::Adios2,
            WorkflowSystemId::Henson,
        )
        .unwrap();
        assert!(translated.contains("MPI_Reduce"));
        assert!(translated.contains("total_sum"));
        assert!(translated.contains("rand()"));
    }
}
