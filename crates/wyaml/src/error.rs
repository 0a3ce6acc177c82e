//! Parse errors.  Every error carries a full [`Span`] — an exact 1-based
//! `line:column` pointing at a real character of the input — so failure
//! categories in the evaluation tables can be pinned to source positions
//! instead of a flat "did not parse".

use crate::span::Span;
use std::fmt;

/// Category of parse failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Indentation does not match any open block.
    BadIndentation,
    /// A tab character used in block indentation.  Tabs have no defined
    /// width in YAML indentation; silently counting them as one column
    /// would nest the document differently than it reads.
    TabIndent,
    /// A mapping entry was expected (`key: value`).
    ExpectedMapping,
    /// A sequence entry was expected (`- item`).
    ExpectedSequence,
    /// A quoted scalar was not terminated before the end of the line.
    UnterminatedString,
    /// A flow collection (`[...]` / `{...}`) was not closed.
    UnterminatedFlow,
    /// The construct is valid YAML but outside the supported subset
    /// (anchors, tags, block scalars, multiple documents).
    Unsupported,
    /// Mapping key appears twice in the same (block or flow) mapping.
    DuplicateKey,
    /// Anything else.
    Other,
}

impl ErrorKind {
    /// Every kind, for exhaustive category accounting.
    pub const ALL: &'static [ErrorKind] = &[
        ErrorKind::BadIndentation,
        ErrorKind::TabIndent,
        ErrorKind::ExpectedMapping,
        ErrorKind::ExpectedSequence,
        ErrorKind::UnterminatedString,
        ErrorKind::UnterminatedFlow,
        ErrorKind::Unsupported,
        ErrorKind::DuplicateKey,
        ErrorKind::Other,
    ];

    /// Stable kebab-case identifier: the parse-failure category label,
    /// mapped into the systems diagnostic vocabulary.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::BadIndentation => "bad-indentation",
            ErrorKind::TabIndent => "tab-indent",
            ErrorKind::ExpectedMapping => "expected-mapping",
            ErrorKind::ExpectedSequence => "expected-sequence",
            ErrorKind::UnterminatedString => "unterminated-string",
            ErrorKind::UnterminatedFlow => "unterminated-flow",
            ErrorKind::Unsupported => "unsupported-yaml",
            ErrorKind::DuplicateKey => "duplicate-key",
            ErrorKind::Other => "parse-error",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::BadIndentation => "bad indentation",
            ErrorKind::TabIndent => "tab in indentation",
            ErrorKind::ExpectedMapping => "expected a `key: value` mapping entry",
            ErrorKind::ExpectedSequence => "expected a `- item` sequence entry",
            ErrorKind::UnterminatedString => "unterminated quoted string",
            ErrorKind::UnterminatedFlow => "unterminated flow collection",
            ErrorKind::Unsupported => "unsupported YAML construct",
            ErrorKind::DuplicateKey => "duplicate mapping key",
            ErrorKind::Other => "parse error",
        };
        f.write_str(s)
    }
}

/// A parse error at an exact source position.
///
/// There is no way to construct an `Error` without a column: every error
/// site in the parser must pin down exactly which character it is pointing
/// at (the pre-rewrite parser's optional column left most failures with a
/// bare line number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Error category.
    pub kind: ErrorKind,
    /// Exact source region: 1-based line and byte column of the offending
    /// character.
    pub span: Span,
    /// Human-readable detail.
    pub message: String,
}

impl Error {
    /// Construct an error pointing at `line:column` (both 1-based).
    pub fn at(kind: ErrorKind, line: usize, column: usize, message: impl Into<String>) -> Self {
        Error::with_span(kind, Span::point(line, column), message)
    }

    /// Construct an error over an explicit span.
    pub fn with_span(kind: ErrorKind, span: Span, message: impl Into<String>) -> Self {
        Error {
            kind,
            span,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.span.line
    }

    /// 1-based byte column of the error.
    pub fn column(&self) -> usize {
        self.span.column
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.span, self.kind, self.message)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position_kind_and_message() {
        let e = Error::at(ErrorKind::BadIndentation, 7, 3, "unexpected indent of 3");
        let s = format!("{e}");
        assert!(s.contains("line 7"));
        assert!(s.contains("column 3"));
        assert!(s.contains("bad indentation"));
        assert!(s.contains("unexpected indent of 3"));
    }

    #[test]
    fn accessors_expose_the_span() {
        let e = Error::at(ErrorKind::UnterminatedString, 3, 12, "missing closing `\"`");
        assert_eq!(e.line(), 3);
        assert_eq!(e.column(), 12);
        assert_eq!(e.span, Span::point(3, 12));
        let wide = Error::with_span(ErrorKind::Other, Span::new(2, 4, 6), "x");
        assert_eq!((wide.line(), wide.column(), wide.span.len), (2, 4, 6));
    }

    #[test]
    fn error_kinds_have_distinct_messages_and_codes() {
        let mut messages: Vec<String> = ErrorKind::ALL.iter().map(|k| k.to_string()).collect();
        messages.sort();
        messages.dedup();
        assert_eq!(messages.len(), ErrorKind::ALL.len());
        let mut codes: Vec<&str> = ErrorKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ErrorKind::ALL.len());
    }
}
