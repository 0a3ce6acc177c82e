//! Function-call, decorator, include and import extraction.

use crate::lexer::{Language, Lexer, Token, TokenKind};

/// A function call found in source code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Called function name (the identifier immediately before `(`).
    pub name: String,
    /// 1-based source line of the call.
    pub line: usize,
    /// Receiver for method-style calls (`engine.Put(...)` → `Some("engine")`).
    pub receiver: Option<String>,
}

impl Call {
    /// Fully qualified display name (`receiver.name` or just `name`).
    pub fn qualified(&self) -> String {
        match &self.receiver {
            Some(r) => format!("{r}.{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A Python decorator (e.g. `@task(returns=1)` or `@python_app`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decorator {
    /// Decorator name without the `@` (dotted names joined, e.g. `parsl.python_app`).
    pub name: String,
    /// 1-based source line.
    pub line: usize,
    /// Whether the decorator had an argument list.
    pub has_args: bool,
}

/// Stream the call sites of `source` as (name token, receiver) pairs: every
/// identifier directly followed by `(`, judged by the last three
/// significant tokens (newlines, comments and preprocessor lines skipped).
pub(crate) fn call_sites(
    source: &str,
    language: Language,
) -> impl Iterator<Item = (Token<'_>, Option<&str>)> {
    let keywords: &[&str] = match language {
        Language::C => &[
            "if", "while", "for", "switch", "return", "sizeof", "int", "float", "double", "char",
            "void", "size_t",
        ],
        Language::Python => &[
            "if", "while", "for", "return", "print", "def", "class", "with", "lambda",
        ],
    };
    let mut behind: [Option<Token>; 3] = [None; 3];
    Lexer::new(source, language)
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Newline | TokenKind::Comment | TokenKind::Preprocessor
            )
        })
        .filter_map(move |token| {
            let [receiver, prev, name] = behind;
            behind = [prev, name, Some(token)];
            if token.kind != TokenKind::Punct || token.text != "(" {
                return None;
            }
            let name =
                name.filter(|t| t.kind == TokenKind::Ident && !keywords.contains(&t.text))?;
            let prev = prev.map(|t| (t.kind, t.text));
            // `def name(` and `class name(` are definitions, not calls, and
            // a decorator's `@name(` is reported by `extract_decorators`.
            if matches!(
                prev,
                Some((TokenKind::Ident, "def" | "class") | (TokenKind::At, _))
            ) {
                return None;
            }
            let dotted = prev == Some((TokenKind::Punct, "."));
            let receiver = receiver.filter(|r| dotted && r.kind == TokenKind::Ident);
            Some((name, receiver.map(|r| r.text)))
        })
}

/// Extract every function call from `source`.
///
/// Control-flow keywords (`if`, `while`, `for`, ...) followed by `(` are not
/// reported as calls.
pub fn extract_calls(source: &str, language: Language) -> Vec<Call> {
    call_sites(source, language)
        .map(|(name, receiver)| Call {
            name: name.text.to_owned(),
            line: name.line,
            receiver: receiver.map(str::to_owned),
        })
        .collect()
}

/// Extract Python decorators from `source` (returns an empty list for C).
///
/// A decorator's name joins with `.` every identifier after its `@` up to
/// the first token, comments aside, that is neither an identifier nor a
/// `.`; the decorator has arguments when that token is `(`.
pub fn extract_decorators(source: &str) -> Vec<Decorator> {
    let mut out: Vec<Decorator> = Vec::new();
    // Whether the last decorator in `out` is still reading its name.
    let mut naming = false;
    for token in Lexer::new(source, Language::Python).filter(|t| t.kind != TokenKind::Comment) {
        match (out.last_mut().filter(|_| naming), token.kind) {
            (Some(last), TokenKind::Ident) => {
                if !last.name.is_empty() {
                    last.name.push('.');
                }
                last.name.push_str(token.text);
            }
            (Some(_), TokenKind::Punct) if token.text == "." => {}
            (last, kind) => {
                if let Some(last) = last {
                    last.has_args = token.text == "(";
                }
                naming = kind == TokenKind::At;
                if naming {
                    out.push(Decorator {
                        name: String::new(),
                        line: token.line,
                        has_args: false,
                    });
                }
            }
        }
    }
    out.retain(|d| !d.name.is_empty());
    out
}

/// Extract `#include` targets (C) or imported module names (Python).
pub fn extract_imports(source: &str, language: Language) -> Vec<String> {
    match language {
        Language::C => source
            .lines()
            .filter_map(|l| {
                let l = l.trim();
                l.strip_prefix("#include").map(|rest| {
                    rest.trim()
                        .trim_matches(|c| c == '<' || c == '>' || c == '"')
                        .to_owned()
                })
            })
            .collect(),
        Language::Python => {
            let mut out = Vec::new();
            for line in source.lines() {
                let l = line.trim();
                if let Some(rest) = l.strip_prefix("import ") {
                    for part in rest.split(',') {
                        let module = part.split_whitespace().next().unwrap_or("");
                        if !module.is_empty() {
                            out.push(module.to_owned());
                        }
                    }
                } else if let Some(rest) = l.strip_prefix("from ") {
                    if let Some(module) = rest.split_whitespace().next() {
                        out.push(module.to_owned());
                    }
                }
            }
            out
        }
    }
}

/// Unique call names in source order (convenience for validation).
pub fn call_names(source: &str, language: Language) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    call_sites(source, language)
        .filter(|(name, _)| seen.insert(name.text))
        .map(|(name, _)| name.text.to_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const C_SNIPPET: &str = r#"
#include <mpi.h>
#include "henson.h"

int main(int argc, char** argv) {
    MPI_Init(&argc, &argv);
    if (rank == 0) printf("hello\n");
    for (i = 0; i < n; ++i) array[i] = (float) rand() / (float) RAND_MAX;
    henson_save_int("t", t);
    henson_yield();
    MPI_Finalize();
    return 0;
}
"#;

    const PY_SNIPPET: &str = r#"
import numpy as np
from pycompss.api.task import task
from pycompss.api.api import compss_wait_on_file

@task(returns=1)
def producer(n):
    data = np.random.rand(n)
    save(data)
    return data

@python_app
def consumer(x):
    return sum(x)

result = producer(50)
compss_wait_on_file("out.txt")
"#;

    #[test]
    fn extracts_c_calls_without_keywords() {
        let names = call_names(C_SNIPPET, Language::C);
        assert!(names.contains(&"MPI_Init".to_string()));
        assert!(names.contains(&"henson_save_int".to_string()));
        assert!(names.contains(&"henson_yield".to_string()));
        assert!(names.contains(&"MPI_Finalize".to_string()));
        assert!(!names.contains(&"if".to_string()));
        assert!(!names.contains(&"for".to_string()));
    }

    #[test]
    fn c_calls_report_lines() {
        let calls = extract_calls("foo();\nbar();\n", Language::C);
        assert_eq!(calls[0].line, 1);
        assert_eq!(calls[1].line, 2);
    }

    #[test]
    fn python_def_is_not_a_call() {
        // `def producer(` must not be reported; the later call `producer(50)` is.
        let calls = extract_calls(PY_SNIPPET, Language::Python);
        let producer_calls: Vec<&Call> = calls.iter().filter(|c| c.name == "producer").collect();
        assert_eq!(producer_calls.len(), 1);
    }

    #[test]
    fn python_detects_api_calls() {
        let names = call_names(PY_SNIPPET, Language::Python);
        assert!(names.contains(&"compss_wait_on_file".to_string()));
        assert!(names.contains(&"save".to_string()));
    }

    #[test]
    fn method_calls_capture_receiver() {
        let calls = extract_calls(
            "engine.Put(var, data);\nbpIO.DefineVariable(name);",
            Language::C,
        );
        assert_eq!(calls[0].receiver.as_deref(), Some("engine"));
        assert_eq!(calls[0].qualified(), "engine.Put");
        assert_eq!(calls[1].receiver.as_deref(), Some("bpIO"));
    }

    #[test]
    fn decorators_extracted_with_args_flag() {
        let decs = extract_decorators(PY_SNIPPET);
        let names: Vec<&str> = decs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["task", "python_app"]);
        assert!(decs[0].has_args);
        assert!(!decs[1].has_args);
    }

    #[test]
    fn dotted_decorator_name_joined() {
        let decs = extract_decorators("@parsl.python_app\ndef f():\n    pass\n");
        assert_eq!(decs[0].name, "parsl.python_app");
    }

    #[test]
    fn decorator_not_reported_as_call() {
        let calls = extract_calls("@task(returns=1)\ndef f():\n    pass\n", Language::Python);
        assert!(calls.iter().all(|c| c.name != "task"));
    }

    #[test]
    fn c_includes_extracted() {
        let incs = extract_imports(C_SNIPPET, Language::C);
        assert_eq!(incs, vec!["mpi.h", "henson.h"]);
    }

    #[test]
    fn python_imports_extracted() {
        let imports = extract_imports(PY_SNIPPET, Language::Python);
        assert!(imports.contains(&"numpy".to_string()));
        assert!(imports.contains(&"pycompss.api.task".to_string()));
        assert!(imports.contains(&"pycompss.api.api".to_string()));
    }

    #[test]
    fn calls_inside_comments_and_strings_ignored() {
        let src = "// henson_yield();\nprintf(\"henson_save_int()\");\nreal_call();";
        let names = call_names(src, Language::C);
        assert!(!names.contains(&"henson_yield".to_string()));
        assert!(!names.contains(&"henson_save_int".to_string()));
        assert!(names.contains(&"real_call".to_string()));
    }

    #[test]
    fn lines_after_an_escaped_newline_in_a_string_are_not_short() {
        let calls = extract_calls("printf(\"a\\\nb\");\nfoo();\n", Language::C);
        let lines: Vec<(&str, usize)> = calls.iter().map(|c| (c.name.as_str(), c.line)).collect();
        assert_eq!(lines, vec![("printf", 1), ("foo", 3)]);
        let source = "x = 'a\\\nb'\n\n\ng()\n@task\ndef f():\n    pass\n";
        let g = extract_calls(source, Language::Python);
        assert_eq!((g[0].name.as_str(), g[0].line), ("g", 5));
        assert_eq!(extract_decorators(source)[0].line, 6);
    }

    #[test]
    fn empty_source_no_calls() {
        assert!(extract_calls("", Language::C).is_empty());
        assert!(extract_decorators("").is_empty());
        assert!(extract_imports("", Language::Python).is_empty());
    }
}
