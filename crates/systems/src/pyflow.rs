//! Line-level Python scanning shared by the Parsl and PyCOMPSs readers.
//!
//! Both systems describe workflow structure inside annotated task code
//! rather than a configuration file: decorated function definitions are the
//! tasks, and call sites bind concrete file names (or futures from earlier
//! calls) to the parameters that carry the dataflow.  This module recovers
//! exactly that — decorated functions with their parameter lists, and
//! top-level invocations with their argument texts — without attempting to
//! be a general Python parser, and infers each task's dataflow from them
//! ([`dataflow_for`]).  Everything is a total function of the input:
//! malformed text yields fewer findings, never a panic.

use std::collections::BTreeSet;

use crate::spec::{DataRequirement, DataRole};

/// One decorator applied to a function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyDecorator {
    /// Dotted decorator name with the leading `@` stripped (e.g. `task`,
    /// `python_app`, `parsl.python_app`).
    pub name: String,
    /// Keyword arguments as `(name, raw value text)` pairs; positional
    /// decorator arguments are recorded with an empty name.
    pub args: Vec<(String, String)>,
}

impl PyDecorator {
    /// Final segment of the dotted name (`parsl.python_app` → `python_app`).
    pub fn base_name(&self) -> &str {
        self.name.rsplit('.').next().unwrap_or(&self.name)
    }
}

/// One function definition with its decorators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyFunction {
    /// Function name.
    pub name: String,
    /// Parameter names in declaration order (defaults and annotations
    /// stripped; `*args`/`**kwargs` markers dropped).
    pub params: Vec<String>,
    /// Decorators in source order.
    pub decorators: Vec<PyDecorator>,
}

impl PyFunction {
    /// The first decorator whose base name is in `names`, if any.
    pub fn decorator_in<'a>(&'a self, names: &[&str]) -> Option<&'a PyDecorator> {
        self.decorators
            .iter()
            .find(|d| names.contains(&d.base_name()))
    }
}

/// One top-level invocation of a known function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PyInvocation {
    /// Name of the invoked function.
    pub callee: String,
    /// Raw argument texts, split on top-level commas.
    pub args: Vec<String>,
    /// Variable the result is assigned to (`future = produce(...)`).
    pub assigned_to: Option<String>,
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

/// Split `text` on commas at bracket/quote depth zero.
fn split_top_level(text: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut depth = 0i32;
    let mut quote: Option<char> = None;
    for c in text.chars() {
        match quote {
            Some(q) => {
                current.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '"' | '\'' => {
                    quote = Some(c);
                    current.push(c);
                }
                '(' | '[' | '{' => {
                    depth += 1;
                    current.push(c);
                }
                ')' | ']' | '}' => {
                    depth -= 1;
                    current.push(c);
                }
                ',' if depth == 0 => {
                    parts.push(current.trim().to_owned());
                    current.clear();
                }
                _ => current.push(c),
            },
        }
    }
    if !current.trim().is_empty() {
        parts.push(current.trim().to_owned());
    }
    parts
}

/// Extract the balanced-paren argument text starting just after an opening
/// `(` at byte offset `open` in `line`, bounded to the line.  Returns the
/// inner text (possibly unterminated at end of line).
fn paren_args(line: &str, open: usize) -> &str {
    let inner = &line[open + 1..];
    let mut depth = 1i32;
    let mut quote: Option<char> = None;
    for (i, c) in inner.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '"' | '\'' => quote = Some(c),
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return &inner[..i];
                    }
                }
                _ => {}
            },
        }
    }
    inner
}

/// Scan decorated function definitions.  Decorators accumulate until the
/// `def` they annotate; comments and blank lines between them are tolerated,
/// any other statement resets the pending list.
pub fn scan_functions(source: &str) -> Vec<PyFunction> {
    let mut functions = Vec::new();
    let mut pending: Vec<PyDecorator> = Vec::new();
    for raw in source.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('@') {
            let (name, args) = match rest.find('(') {
                Some(open) => {
                    let name = rest[..open].trim().to_owned();
                    let args = split_top_level(paren_args(rest, open))
                        .into_iter()
                        .map(|arg| match arg.split_once('=') {
                            Some((k, v)) if is_ident(k.trim()) && !v.starts_with('=') => {
                                (k.trim().to_owned(), v.trim().to_owned())
                            }
                            _ => (String::new(), arg),
                        })
                        .collect();
                    (name, args)
                }
                None => (rest.trim().to_owned(), Vec::new()),
            };
            if !name.is_empty() {
                pending.push(PyDecorator { name, args });
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("def ") {
            if let Some(open) = rest.find('(') {
                let name = rest[..open].trim().to_owned();
                let params = split_top_level(paren_args(rest, open))
                    .into_iter()
                    .filter_map(|p| {
                        let p = p.split(['=', ':']).next().unwrap_or("").trim();
                        let p = p.trim_start_matches('*').trim();
                        is_ident(p).then(|| p.to_owned())
                    })
                    .collect();
                if is_ident(&name) {
                    functions.push(PyFunction {
                        name,
                        params,
                        decorators: std::mem::take(&mut pending),
                    });
                }
            }
            pending.clear();
            continue;
        }
        pending.clear();
    }
    functions
}

/// Scan invocations of the named functions outside `def` and decorator
/// lines, recording raw argument texts and any simple assignment target.
pub fn scan_invocations(source: &str, names: &[&str]) -> Vec<PyInvocation> {
    let mut invocations = Vec::new();
    for raw in source.lines() {
        let line = raw.trim_end();
        let trimmed = line.trim_start();
        if trimmed.starts_with("def ") || trimmed.starts_with('@') || trimmed.starts_with('#') {
            continue;
        }
        for &name in names {
            let mut search_from = 0;
            while let Some(found) = line[search_from..].find(name) {
                let start = search_from + found;
                search_from = start + name.len();
                let before_ok = line[..start]
                    .chars()
                    .next_back()
                    .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != '.');
                let after = &line[start + name.len()..];
                if !before_ok || !after.starts_with('(') {
                    continue;
                }
                let args = split_top_level(paren_args(line, start + name.len()));
                let prefix = line[..start].trim();
                let assigned_to = prefix
                    .strip_suffix('=')
                    .map(str::trim)
                    .filter(|v| is_ident(v) && !prefix.ends_with("==") && !prefix.ends_with("!="))
                    .map(str::to_owned);
                invocations.push(PyInvocation {
                    callee: name.to_owned(),
                    args,
                    assigned_to,
                });
            }
        }
    }
    invocations
}

/// The inner text of a quoted string literal, if `text` is one.
pub fn string_literal(text: &str) -> Option<&str> {
    let text = text.trim();
    for quote in ['"', '\''] {
        if text.len() >= 2 && text.starts_with(quote) && text.ends_with(quote) {
            let inner = &text[1..text.len() - 1];
            if !inner.contains(quote) {
                return Some(inner);
            }
        }
    }
    None
}

/// Dataset name derived from a file path: basename with the extension
/// stripped (`"output.txt"` → `output`, `"runs/grid.h5"` → `grid`).
pub fn dataset_from_path(path: &str) -> String {
    let base = path.rsplit('/').next().unwrap_or(path);
    let stem = match base.rsplit_once('.') {
        Some((stem, _)) if !stem.is_empty() => stem,
        _ => base,
    };
    if stem.is_empty() {
        path.to_owned()
    } else {
        stem.to_owned()
    }
}

/// Dataflow direction a parameter name implies, from its `_`-separated
/// tokens (`outfile`, `output_path` → produces; `infile`, `input_path` →
/// consumes; anything else carries no direction).
pub fn param_direction(param: &str) -> Option<DataRole> {
    let lower = param.to_ascii_lowercase();
    for token in lower.split('_') {
        match token {
            "out" | "outfile" | "output" | "outputs" | "outpath" => {
                return Some(DataRole::Produces)
            }
            "in" | "infile" | "input" | "inputs" | "inpath" => return Some(DataRole::Consumes),
            _ => {}
        }
    }
    None
}

/// The dataflow of one task, inferred from the invocations of every task:
/// directional parameters bound to string literals (or left unbound), plus
/// future variables flowing between tasks.  The `direction` callback decides
/// which parameters carry dataflow and which way (Parsl infers it from
/// parameter names, PyCOMPSs from `@task` parameter annotations).
/// Requirements come sorted by dataset, then role.
pub fn dataflow_for(
    task: &str,
    params: &[String],
    invocations: &[PyInvocation],
    direction: &dyn Fn(&str) -> Option<DataRole>,
    is_task: &dyn Fn(&str) -> bool,
) -> Vec<DataRequirement> {
    let mut edges: BTreeSet<(String, DataRole)> = BTreeSet::new();
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    // Futures: variables assigned from a task invocation, named after the
    // variable itself.
    let futures: Vec<(&str, &str)> = invocations
        .iter()
        .filter_map(|inv| {
            inv.assigned_to
                .as_deref()
                .map(|var| (var, inv.callee.as_str()))
        })
        .collect();
    for inv in invocations.iter().filter(|inv| inv.callee == task) {
        for (param, arg) in params.iter().zip(&inv.args) {
            if let Some(path) = string_literal(arg) {
                if let Some(role) = direction(param) {
                    bound.insert(param.as_str());
                    edges.insert((dataset_from_path(path), role));
                }
            } else if let Some(&(var, producer)) = futures
                .iter()
                .find(|(var, producer)| var == &arg.as_str() && *producer != task)
            {
                if is_task(producer) {
                    bound.insert(param.as_str());
                    edges.insert((var.to_owned(), DataRole::Consumes));
                }
            }
        }
    }
    // The produces side of every future this task's invocations feed into
    // another task.
    for (var, producer) in &futures {
        if *producer == task
            && invocations.iter().any(|inv| {
                inv.callee != task && is_task(&inv.callee) && inv.args.iter().any(|a| a == var)
            })
        {
            edges.insert(((*var).to_owned(), DataRole::Produces));
        }
    }
    // Directional parameters never bound at any call site still carry the
    // declared intent; fall back to the parameter name as the dataset.
    for param in params {
        if let Some(role) = direction(param) {
            if !bound.contains(param.as_str()) {
                edges.insert((param.clone(), role));
            }
        }
    }
    edges
        .into_iter()
        .map(|(dataset, role)| DataRequirement { dataset, role })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_decorated_functions_with_params() {
        let src = "import parsl\n\n@python_app\ndef produce(n, iterations, sleep_interval, outfile):\n    pass\n";
        let funcs = scan_functions(src);
        assert_eq!(funcs.len(), 1);
        assert_eq!(funcs[0].name, "produce");
        assert_eq!(
            funcs[0].params,
            vec!["n", "iterations", "sleep_interval", "outfile"]
        );
        assert_eq!(funcs[0].decorators.len(), 1);
        assert_eq!(funcs[0].decorators[0].base_name(), "python_app");
    }

    #[test]
    fn decorator_kwargs_are_recovered() {
        let src = "@task(outfile=FILE_OUT, returns=1, \"x\")\ndef produce(n, outfile):\n    pass\n";
        let funcs = scan_functions(src);
        let task = funcs[0].decorator_in(&["task"]).unwrap();
        let args: Vec<(&str, &str)> = task
            .args
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            args,
            [("outfile", "FILE_OUT"), ("returns", "1"), ("", "\"x\"")]
        );
    }

    #[test]
    fn dotted_decorators_and_defaults() {
        let src = "@parsl.python_app\ndef f(a=1, b=\"x\", *args, **kwargs):\n    pass\n";
        let funcs = scan_functions(src);
        assert_eq!(funcs[0].decorators[0].base_name(), "python_app");
        assert_eq!(funcs[0].params, vec!["a", "b", "args", "kwargs"]);
    }

    #[test]
    fn statements_between_decorator_and_def_reset_pending() {
        let src = "@python_app\nx = 1\ndef f(a):\n    pass\n";
        let funcs = scan_functions(src);
        assert!(funcs[0].decorators.is_empty());
    }

    #[test]
    fn scans_invocations_with_assignment_targets() {
        let src = "future = produce(n, iterations, 0, \"output.txt\")\nfuture.result()\nconsume(future)\n";
        let invocations = scan_invocations(src, &["produce", "consume"]);
        assert_eq!(invocations.len(), 2);
        assert_eq!(invocations[0].callee, "produce");
        assert_eq!(invocations[0].assigned_to.as_deref(), Some("future"));
        assert_eq!(invocations[0].args[3], "\"output.txt\"");
        assert_eq!(invocations[1].callee, "consume");
        assert_eq!(invocations[1].args, vec!["future"]);
        assert_eq!(invocations[1].assigned_to, None);
    }

    #[test]
    fn definition_lines_are_not_invocations() {
        let src = "def produce(n):\n    pass\n\nproduce(5)\n";
        let invocations = scan_invocations(src, &["produce"]);
        assert_eq!(invocations.len(), 1);
        assert_eq!(invocations[0].args, vec!["5"]);
    }

    #[test]
    fn attribute_calls_are_not_invocations_of_the_bare_name() {
        let src = "module.produce(5)\n";
        assert!(scan_invocations(src, &["produce"]).is_empty());
    }

    #[test]
    fn string_literals_and_dataset_stems() {
        assert_eq!(string_literal("\"output.txt\""), Some("output.txt"));
        assert_eq!(string_literal("'grid.h5'"), Some("grid.h5"));
        assert_eq!(string_literal("future"), None);
        assert_eq!(string_literal("f(\"x\")"), None);
        assert_eq!(dataset_from_path("output.txt"), "output");
        assert_eq!(dataset_from_path("runs/grid.h5"), "grid");
        assert_eq!(dataset_from_path("plain"), "plain");
        assert_eq!(dataset_from_path(".hidden"), ".hidden");
    }

    #[test]
    fn parameter_directions() {
        assert_eq!(param_direction("outfile"), Some(DataRole::Produces));
        assert_eq!(param_direction("output_path"), Some(DataRole::Produces));
        assert_eq!(param_direction("infile"), Some(DataRole::Consumes));
        assert_eq!(param_direction("input_path"), Some(DataRole::Consumes));
        assert_eq!(param_direction("sleep_interval"), None);
        assert_eq!(param_direction("num_values"), None);
        assert_eq!(param_direction("delay"), None);
    }

    #[test]
    fn malformed_text_never_panics() {
        for src in [
            "@",
            "def (",
            "def f(((",
            "@x(((\ndef f(a:\n",
            "f(\"unclosed",
        ] {
            let _ = scan_functions(src);
            let _ = scan_invocations(src, &["f"]);
        }
    }
}
