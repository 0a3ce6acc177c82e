//! The crate's one tokenizer: [`Lexer`], a zero-copy byte scanner over C
//! and Python task codes. A [`Token`]'s `text` borrows from the source, and
//! a char is decoded only at a byte at or above `0x80`. The rules:
//!
//! * `\n` is a newline; space, tab and `\r` are skipped (a no-break space
//!   is punctuation). `#` runs to the line end: preprocessor in C, comment
//!   in Python. `@` is [`TokenKind::At`] in Python. In C, `//` runs to the
//!   line end and `/*` to the next `*/`, both comments.
//! * A quote opens a string that ends at the same quote or before a
//!   newline. A backslash escapes the next byte; an escaped newline
//!   continues the string and counts a line. Python's `"""` is an empty
//!   string and a new one, so a docstring spanning lines lexes as code.
//! * An ASCII digit opens a number of ASCII alphanumerics, `.` and `_`; an
//!   alphabetic char or `_` opens an identifier of alphanumerics and `_`.
//!   Any other char is one punctuation token. Unterminated strings and
//!   comments stop at the end of the line or of the source.

/// Source language of a task code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Language {
    /// C (the paper's producer code emulating an HPC simulation).
    C,
    /// Python (the equivalent producer used for Parsl / PyCOMPSs).
    Python,
}

impl Language {
    /// Guess the language from source text (crude but effective for the
    /// benchmark's two shapes of task code).
    pub fn detect(source: &str) -> Language {
        let c_signals = ["#include", "int main(", "printf(", "MPI_Init(", "->", ";\n"];
        let py_signals = ["def ", "import ", "print(", "@", "__main__", "self."];
        let c_score: usize = c_signals.iter().filter(|s| source.contains(*s)).count();
        let py_score: usize = py_signals.iter().filter(|s| source.contains(*s)).count();
        if py_score > c_score {
            Language::Python
        } else {
            Language::C
        }
    }

    /// Comment prefix for single-line comments in this language.
    pub fn line_comment(&self) -> &'static str {
        match self {
            Language::C => "//",
            Language::Python => "#",
        }
    }
}

/// Kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal.
    Number,
    /// String or char literal (quotes included).
    Str,
    /// Single punctuation/operator character (`(`, `)`, `;`, `=`, ...).
    Punct,
    /// Preprocessor directive line (C) — `#include <mpi.h>` etc.
    Preprocessor,
    /// Decorator line marker (Python `@`), emitted as its own token.
    At,
    /// Comment text (single-line or block), content included.
    Comment,
    /// Newline (significant for Python and for line-based heuristics).
    Newline,
}

/// A lexed token: its kind, its text borrowed from the source, and the
/// 1-based source line it starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Token category.
    pub kind: TokenKind,
    /// Raw token text.
    pub text: &'a str,
    /// 1-based line number.
    pub line: usize,
}

/// The stream of [`Token`]s of one source text.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    source: &'a str,
    language: Language,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `source`.
    pub fn new(source: &'a str, language: Language) -> Self {
        Lexer {
            source,
            language,
            pos: 0,
            line: 1,
        }
    }

    /// The offset of the next newline at or after `from`, or the end.
    fn line_end(&self, from: usize) -> usize {
        self.source[from..]
            .find('\n')
            .map_or(self.source.len(), |n| from + n)
    }

    /// The end of a `/*` comment opened at `start`, counting its newlines.
    fn block_comment_end(&mut self, start: usize) -> usize {
        let body = start + 2;
        let end = self.source[body..]
            .find("*/")
            .map_or(self.source.len(), |n| body + n + 2);
        self.line += self.source[body..end].matches('\n').count();
        end
    }

    /// The end of a string opened by `quote` at `start`: past the closing
    /// quote, or at the newline or source end that cuts it off. No byte of
    /// a multi-byte char is a quote, a newline or a backslash.
    fn string_end(&mut self, start: usize, quote: u8) -> usize {
        let bytes = self.source.as_bytes();
        let mut i = start + 1;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'\n' => return i,
                b'\\' => {
                    self.line += usize::from(bytes.get(i + 1) == Some(&b'\n'));
                    i += 2;
                }
                _ if b == quote => return i + 1,
                _ => i += 1,
            }
        }
        bytes.len()
    }

    /// The char at byte `at` (a char boundary), decoded only if not ASCII.
    fn char_at(&self, at: usize) -> Option<char> {
        match self.source.as_bytes().get(at)? {
            &b if b < 0x80 => Some(char::from(b)),
            _ => self.source[at..].chars().next(),
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let bytes = self.source.as_bytes();
        let blank = |b: &&u8| matches!(b, b' ' | b'\t' | b'\r');
        let start = self.pos + bytes[self.pos..].iter().take_while(blank).count();
        let (&b, line) = (bytes.get(start)?, self.line);
        let python = self.language == Language::Python;
        let next = bytes.get(start + 1).copied();
        let (kind, end) = match b {
            b'\n' => {
                self.line += 1;
                (TokenKind::Newline, start + 1)
            }
            b'#' if python => (TokenKind::Comment, self.line_end(start)),
            b'#' => (TokenKind::Preprocessor, self.line_end(start)),
            b'@' if python => (TokenKind::At, start + 1),
            b'/' if !python && next == Some(b'/') => (TokenKind::Comment, self.line_end(start)),
            b'/' if !python && next == Some(b'*') => {
                (TokenKind::Comment, self.block_comment_end(start))
            }
            b'"' | b'\'' => (TokenKind::Str, self.string_end(start, b)),
            b'0'..=b'9' => {
                let digits = bytes[start..]
                    .iter()
                    .take_while(|d| d.is_ascii_alphanumeric() || **d == b'.' || **d == b'_');
                (TokenKind::Number, start + digits.count())
            }
            _ => {
                let c = self.char_at(start)?;
                let mut end = start + c.len_utf8();
                if !(c.is_alphabetic() || c == '_') {
                    (TokenKind::Punct, end)
                } else {
                    while let Some(c) = self
                        .char_at(end)
                        .filter(|c| c.is_alphanumeric() || *c == '_')
                    {
                        end += c.len_utf8();
                    }
                    (TokenKind::Ident, end)
                }
            }
        };
        self.pos = end;
        Some(Token {
            kind,
            text: &self.source[start..end],
            line,
        })
    }
}

/// Every token of `source`, in order (the [`Lexer`] stream, collected).
pub fn tokenize(source: &str, language: Language) -> Vec<Token<'_>> {
    Lexer::new(source, language).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_c_vs_python() {
        assert_eq!(
            Language::detect("#include <mpi.h>\nint main() {}"),
            Language::C
        );
        assert_eq!(
            Language::detect("import numpy\ndef producer(n):\n    return n"),
            Language::Python
        );
    }

    #[test]
    fn line_comment_prefixes() {
        assert_eq!(Language::C.line_comment(), "//");
        assert_eq!(Language::Python.line_comment(), "#");
    }

    #[test]
    fn tokenizes_c_call_statement() {
        let toks = tokenize("MPI_Init(&argc, &argv);", Language::C);
        let kinds: Vec<TokenKind> = toks.iter().map(|t| t.kind).collect();
        assert_eq!(toks[0].text, "MPI_Init");
        assert_eq!(kinds[0], TokenKind::Ident);
        assert!(kinds.contains(&TokenKind::Punct));
    }

    #[test]
    fn c_preprocessor_lines_are_single_tokens() {
        let toks = tokenize("#include <mpi.h>\nint x;", Language::C);
        assert_eq!(toks[0].kind, TokenKind::Preprocessor);
        assert_eq!(toks[0].text, "#include <mpi.h>");
        assert_eq!(toks[0].line, 1);
    }

    #[test]
    fn python_hash_is_comment_not_preprocessor() {
        let toks = tokenize("# a comment\nx = 1", Language::Python);
        assert_eq!(toks[0].kind, TokenKind::Comment);
    }

    #[test]
    fn python_decorator_at_token() {
        let toks = tokenize("@task(returns=1)\ndef f():\n    pass", Language::Python);
        assert_eq!(toks[0].kind, TokenKind::At);
        assert_eq!(toks[1].text, "task");
    }

    #[test]
    fn string_literals_keep_quotes_and_dont_leak() {
        let toks = tokenize("printf(\"sum = %f\\n\", sum);", Language::C);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert!(s.text.starts_with('"') && s.text.ends_with('"'));
        // Identifiers inside the string must not appear as Ident tokens.
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "sum" && t.line != 1));
    }

    #[test]
    fn c_line_and_block_comments() {
        let toks = tokenize("// hello\n/* multi\nline */\nint x;", Language::C);
        assert_eq!(toks[0].kind, TokenKind::Comment);
        let block = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Comment)
            .nth(1)
            .unwrap();
        assert!(block.text.contains("multi"));
        let x = toks.iter().find(|t| t.text == "int").unwrap();
        assert_eq!(x.line, 4);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\nc", Language::C);
        let idents: Vec<(usize, &str)> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.line, t.text))
            .collect();
        assert_eq!(idents, vec![(1, "a"), (2, "b"), (3, "c")]);
    }

    #[test]
    fn numbers_including_floats() {
        let toks = tokenize("x = 3.5 + 42", Language::Python);
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Number)
            .map(|t| t.text)
            .collect();
        assert_eq!(nums, vec!["3.5", "42"]);
    }

    #[test]
    fn unterminated_string_does_not_panic() {
        let toks = tokenize("printf(\"oops", Language::C);
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn escaped_newlines_in_strings_still_count_a_line() {
        // A backslash before a newline continues the string literal on the
        // next line (C and Python both allow it); the newline still counts.
        let toks = tokenize("printf(\"a\\\nb\");\nfoo();\n", Language::C);
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!((s.text, s.line), ("\"a\\\nb\"", 1));
        let foo = toks.iter().find(|t| t.text == "foo").unwrap();
        assert_eq!(foo.line, 3);
        let toks = tokenize("x = 'a\\\nb'\n\n\ng()\n", Language::Python);
        let g = toks.iter().find(|t| t.text == "g").unwrap();
        assert_eq!(g.line, 5);
    }

    #[test]
    fn token_texts_borrow_from_the_source() {
        let source = "henson_yield(); // done";
        let range = source.as_bytes().as_ptr_range();
        for token in Lexer::new(source, Language::C) {
            assert!(range.contains(&token.text.as_ptr()), "{token:?}");
        }
    }

    #[test]
    fn non_ascii_letters_digits_and_spaces_follow_char_classes() {
        // Letters of 2, 3 and 4 bytes continue an identifier, and so does
        // a non-ASCII digit; that digit cannot start one, and a no-break
        // space is punctuation, not whitespace.
        let toks = tokenize("é中𝔸x٣ ٣\u{a0}_1", Language::Python);
        let texts: Vec<(TokenKind, &str)> = toks.iter().map(|t| (t.kind, t.text)).collect();
        assert_eq!(
            texts,
            vec![
                (TokenKind::Ident, "é中𝔸x٣"),
                (TokenKind::Punct, "٣"),
                (TokenKind::Punct, "\u{a0}"),
                (TokenKind::Ident, "_1"),
            ]
        );
    }

    #[test]
    fn unterminated_block_comment_and_trailing_backslash_end_at_the_source_end() {
        let toks = tokenize("a /* open\n", Language::C);
        assert_eq!(toks.last().unwrap().text, "/* open\n");
        let toks = tokenize("s = 'tail\\", Language::Python);
        assert_eq!(toks.last().unwrap().text, "'tail\\");
    }

    #[test]
    fn empty_source_gives_no_tokens() {
        assert!(tokenize("", Language::C).is_empty());
        assert!(tokenize("   ", Language::Python).is_empty());
    }
}
