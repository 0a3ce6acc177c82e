//! The char-vector tokenizer and call extraction that the byte scanner
//! replaced, their code unchanged, kept as the oracle of the differential
//! tests.
//!
//! Every token is an owned `String` here and comparison goes through
//! `BTreeSet`s, exactly as before the rewrite. Only the owned [`Token`]
//! differs from the library's type; `Language`, `TokenKind`, `Call`,
//! `Decorator` and `CallComparison` are the library's own.
//!
//! One known difference: a backslash before a newline inside a string
//! literal skips the newline without counting it, so every later line
//! number is one short. The scanner counts it, so line numbers are compared
//! only on inputs without such a string.

#![allow(dead_code)]

use std::collections::BTreeSet;

use wfspeak_codemodel::{Call, CallComparison, Decorator, Language, TokenKind};

/// A lexed token with owned text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
}

pub fn tokenize(source: &str, language: Language) -> Vec<Token> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                tokens.push(Token {
                    kind: TokenKind::Newline,
                    text: "\n".to_owned(),
                    line,
                });
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => {
                i += 1;
            }
            '#' if language == Language::C => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Preprocessor,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            '#' if language == Language::Python => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            '@' if language == Language::Python => {
                tokens.push(Token {
                    kind: TokenKind::At,
                    text: "@".to_owned(),
                    line,
                });
                i += 1;
            }
            '/' if language == Language::C && i + 1 < chars.len() && chars[i + 1] == '/' => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            '/' if language == Language::C && i + 1 < chars.len() && chars[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                i += 2;
                while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(chars.len());
                tokens.push(Token {
                    kind: TokenKind::Comment,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line: start_line,
                });
            }
            '"' | '\'' => {
                let quote = c;
                let start = i;
                i += 1;
                while i < chars.len() && chars[i] != quote && chars[i] != '\n' {
                    if chars[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                if i < chars.len() && chars[i] == quote {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Str,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric() || chars[i] == '.' || chars[i] == '_')
                {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Number,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    tokens
}

pub fn extract_calls(source: &str, language: Language) -> Vec<Call> {
    let tokens = tokenize(source, language);
    let keywords: &[&str] = match language {
        Language::C => &[
            "if", "while", "for", "switch", "return", "sizeof", "int", "float", "double", "char",
            "void", "size_t",
        ],
        Language::Python => &[
            "if", "while", "for", "return", "print", "def", "class", "with", "lambda",
        ],
    };
    let mut calls = Vec::new();
    let significant: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Newline | TokenKind::Comment | TokenKind::Preprocessor
            )
        })
        .collect();
    for i in 0..significant.len() {
        let t = significant[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let next = significant.get(i + 1);
        let is_call = matches!(next, Some(n) if n.kind == TokenKind::Punct && n.text == "(");
        if !is_call || keywords.contains(&t.text.as_str()) {
            continue;
        }
        if i >= 1 {
            let prev = significant[i - 1];
            if prev.kind == TokenKind::Ident && (prev.text == "def" || prev.text == "class") {
                continue;
            }
            if prev.kind == TokenKind::At {
                continue;
            }
        }
        let receiver = if i >= 2
            && significant[i - 1].kind == TokenKind::Punct
            && significant[i - 1].text == "."
            && significant[i - 2].kind == TokenKind::Ident
        {
            Some(significant[i - 2].text.clone())
        } else {
            None
        };
        calls.push(Call {
            name: t.text.clone(),
            line: t.line,
            receiver,
        });
    }
    calls
}

pub fn extract_decorators(source: &str) -> Vec<Decorator> {
    let tokens = tokenize(source, Language::Python);
    let significant: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment))
        .collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < significant.len() {
        if significant[i].kind == TokenKind::At {
            let line = significant[i].line;
            let mut name_parts = Vec::new();
            let mut j = i + 1;
            while j < significant.len() {
                match significant[j].kind {
                    TokenKind::Ident => name_parts.push(significant[j].text.clone()),
                    TokenKind::Punct if significant[j].text == "." => {}
                    _ => break,
                }
                j += 1;
            }
            let has_args = significant
                .get(j)
                .map(|t| t.kind == TokenKind::Punct && t.text == "(")
                .unwrap_or(false);
            if !name_parts.is_empty() {
                out.push(Decorator {
                    name: name_parts.join("."),
                    line,
                    has_args,
                });
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

pub fn call_names(source: &str, language: Language) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    extract_calls(source, language)
        .into_iter()
        .filter(|c| seen.insert(c.name.clone()))
        .map(|c| c.name)
        .collect()
}

pub fn compare_calls(
    hypothesis: &str,
    reference: &str,
    language: Language,
    api_prefixes: &[&str],
    known_api: &[&str],
) -> CallComparison {
    let hyp_calls: BTreeSet<String> = call_names(hypothesis, language).into_iter().collect();
    let ref_calls: BTreeSet<String> = call_names(reference, language).into_iter().collect();
    let known: BTreeSet<&str> = known_api.iter().copied().collect();

    let matched = hyp_calls.intersection(&ref_calls).cloned().collect();
    let missing = ref_calls.difference(&hyp_calls).cloned().collect();
    let extra: Vec<String> = hyp_calls.difference(&ref_calls).cloned().collect();
    let hallucinated = hyp_calls
        .iter()
        .filter(|c| api_prefixes.iter().any(|p| c.starts_with(p)) && !known.contains(c.as_str()))
        .cloned()
        .collect();

    CallComparison {
        matched,
        missing,
        extra,
        hallucinated,
    }
}

/// True when one of the oracle's string tokens runs past a newline. Only
/// an escaped newline does that, and the oracle then counts every later
/// line one short, so line numbers are compared only when this is false.
pub fn has_escaped_newline(tokens: &[Token]) -> bool {
    tokens
        .iter()
        .any(|t| t.kind == TokenKind::Str && t.text.contains('\n'))
}

/// Assert that the library agrees with the oracle on `source` under
/// `language`: token kinds and texts, call and decorator names, unique call
/// names, and (unless the source holds an escaped newline) every line
/// number. Returns a description of the first disagreement.
pub fn check_agreement(source: &str, language: Language) -> Result<(), String> {
    use wfspeak_codemodel as lib;

    let old = tokenize(source, language);
    let lines = !has_escaped_newline(&old);
    let new = lib::tokenize(source, language);
    let old_tokens: Vec<(TokenKind, &str)> =
        old.iter().map(|t| (t.kind, t.text.as_str())).collect();
    let new_tokens: Vec<(TokenKind, &str)> = new.iter().map(|t| (t.kind, t.text)).collect();
    if old_tokens != new_tokens {
        return Err(format!(
            "tokens differ under {language:?} on {source:?}:\n oracle {old_tokens:?}\n    new {new_tokens:?}"
        ));
    }
    if lines {
        let old_lines: Vec<usize> = old.iter().map(|t| t.line).collect();
        let new_lines: Vec<usize> = new.iter().map(|t| t.line).collect();
        if old_lines != new_lines {
            return Err(format!(
                "token lines differ under {language:?} on {source:?}: {old_lines:?} vs {new_lines:?}"
            ));
        }
    }

    let old_calls = extract_calls(source, language);
    let new_calls = lib::extract_calls(source, language);
    let strip = |calls: &[Call]| -> Vec<Call> {
        calls
            .iter()
            .map(|c| Call {
                line: if lines { c.line } else { 0 },
                ..c.clone()
            })
            .collect()
    };
    if strip(&old_calls) != strip(&new_calls) {
        return Err(format!(
            "calls differ under {language:?} on {source:?}:\n oracle {old_calls:?}\n    new {new_calls:?}"
        ));
    }
    let old_names = call_names(source, language);
    let new_names = lib::calls::call_names(source, language);
    if old_names != new_names {
        return Err(format!(
            "call names differ under {language:?} on {source:?}: {old_names:?} vs {new_names:?}"
        ));
    }

    // Decorators are always lexed as Python.
    let lines = !has_escaped_newline(&tokenize(source, Language::Python));
    let old_decorators = extract_decorators(source);
    let new_decorators = lib::extract_decorators(source);
    let strip = |decorators: &[Decorator]| -> Vec<Decorator> {
        decorators
            .iter()
            .map(|d| Decorator {
                line: if lines { d.line } else { 0 },
                ..d.clone()
            })
            .collect()
    };
    if strip(&old_decorators) != strip(&new_decorators) {
        return Err(format!(
            "decorators differ on {source:?}:\n oracle {old_decorators:?}\n    new {new_decorators:?}"
        ));
    }
    Ok(())
}

/// Assert that the library's `compare_calls` returns the oracle's full
/// `CallComparison` for one hypothesis/reference pair.
pub fn check_comparison(
    hypothesis: &str,
    reference: &str,
    language: Language,
    api_prefixes: &[&str],
    known_api: &[&str],
) -> Result<(), String> {
    let old = compare_calls(hypothesis, reference, language, api_prefixes, known_api);
    let new =
        wfspeak_codemodel::compare_calls(hypothesis, reference, language, api_prefixes, known_api);
    if old != new {
        return Err(format!(
            "comparisons differ under {language:?} on {hypothesis:?} vs {reference:?}:\n oracle {old:?}\n    new {new:?}"
        ));
    }
    Ok(())
}
