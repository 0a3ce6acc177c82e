//! Differential property tests: the byte scanner, and the call and
//! decorator extraction streamed from it, agree with the char-vector
//! implementation they replaced ([`oracle`]) under both languages, on token
//! kinds and texts, calls, decorators, unique call names and the full
//! `CallComparison`. Line numbers are compared too, except on inputs where
//! the oracle miscounts an escaped newline inside a string.
//!
//! The generated text is weighted toward what a byte scanner could get
//! wrong: quotes and backslashes (also as the very last byte), `#` and `@`,
//! `//` and unterminated `/*`, `def`/`class`, keywords before `(`, letters
//! of two to four bytes, non-ASCII digits, and no-break and other Unicode
//! spaces.

mod oracle;

use proptest::prelude::*;
use wfspeak_codemodel::Language;

const LANGUAGES: [Language; 2] = [Language::C, Language::Python];

/// Uniform choice among fixed fragments.
fn one_of(options: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..options.len()).prop_map(move |i| options[i].to_owned())
}

/// Strings of 1–3 chars drawn from `lo..=hi`.
fn chars_in(lo: char, hi: char) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::char::range(lo, hi), 1..4)
        .prop_map(|chars| chars.into_iter().collect::<String>())
}

const PUNCTUATION: &[&str] = &[
    "(", ")", "(", ".", ",", ";", "=", "*", "/", " ", "\n", "\t", "\r",
];
const QUOTES: &[&str] = &[
    "\"", "'", "\\", "\\\n", "\\\"", "\\'", "\"\"\"", "'''", "\\\r\n",
];
const MARKERS: &[&str] = &[
    "#",
    "@",
    "//",
    "/*",
    "*/",
    "#include <mpi.h>",
    "@task(",
    "@a.b",
];
const DEFINITIONS: &[&str] = &[
    "def ",
    "class ",
    "def f(",
    "class K(",
    "x.y(",
    "henson_put(",
];
const KEYWORD_CALLS: &[&str] = &[
    "if(", "while (", "for(", "return(", "print(", "sizeof(", "lambda(", "with(", "int(",
    "switch(", "void(", "size_t(", "def(", "class(",
];
/// Non-ASCII digits and numerals: Arabic-Indic, Devanagari, mathematical
/// (four bytes), superscripts, fractions and Roman numerals (which are
/// letters).
const DIGITS: &[&str] = &["٣", "٠٩", "०", "𝟙", "𝟿", "²", "½", "Ⅻ", "ⅰ"];
const SPACES: &[&str] = &[
    "\u{a0}", "\u{2007}", "\u{202f}", "\u{3000}", "\u{feff}", "\u{b}",
];

/// One piece of source text.
fn fragment() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z_]{1,6}|henson_[a-z]{1,3}|[A-Z][a-z0-9]{0,3}",
        one_of(PUNCTUATION),
        one_of(QUOTES),
        one_of(MARKERS),
        one_of(DEFINITIONS),
        one_of(KEYWORD_CALLS),
        "[0-9]{1,3}|[0-9]\\.[0-9]|0x[0-9A-F]{1,2}",
        // Letters of two, three and four bytes (the ranges also hold some
        // chars that are not letters, such as `×`, and unassigned ones).
        chars_in('À', 'ÿ'),
        chars_in('α', 'ω'),
        chars_in('一', '龥'),
        chars_in('𐐀', '𐑏'),
        chars_in('𝔸', '𝕫'),
        one_of(DIGITS),
        one_of(SPACES),
        chars_in('\u{80}', '\u{10ffff}'),
    ]
}

/// Source text: up to 40 fragments, ending in a lone backslash one time in
/// four.
fn source() -> impl Strategy<Value = String> {
    (proptest::collection::vec(fragment(), 0..40), 0..4u8).prop_map(|(parts, tail)| {
        let mut text = parts.concat();
        if tail == 0 {
            text.push('\\');
        }
        text
    })
}

/// Arbitrary chars, a third of them ASCII.
fn char_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('\0', '\u{7f}'),
            proptest::char::range(' ', '~'),
            proptest::char::range('\u{80}', '\u{10ffff}'),
        ],
        0..60,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

const PREFIXES: &[&str] = &["henson_", "MPI_", "x"];
const KNOWN_API: &[&str] = &["henson_save_int", "henson_yield", "MPI_Init", "x"];

proptest! {
    #[test]
    fn the_scanner_matches_the_oracle(source in source()) {
        for language in LANGUAGES {
            if let Err(message) = oracle::check_agreement(&source, language) {
                prop_assert!(false, "{}", message);
            }
        }
    }

    #[test]
    fn the_scanner_matches_the_oracle_on_arbitrary_chars(source in char_soup()) {
        for language in LANGUAGES {
            if let Err(message) = oracle::check_agreement(&source, language) {
                prop_assert!(false, "{}", message);
            }
        }
    }

    #[test]
    fn call_comparisons_match_the_oracle(
        hypothesis in source(),
        reference in source(),
        shared in source(),
    ) {
        // A shared tail gives both sides common calls to match.
        let hypothesis = hypothesis + "\n" + &shared;
        let reference = reference + "\n" + &shared;
        for language in LANGUAGES {
            let pairs = [(&hypothesis, &reference), (&reference, &hypothesis), (&hypothesis, &hypothesis)];
            for (hyp, rf) in pairs {
                if let Err(message) =
                    oracle::check_comparison(hyp, rf, language, PREFIXES, KNOWN_API)
                {
                    prop_assert!(false, "{}", message);
                }
            }
        }
    }
}

#[test]
fn the_oracle_miscounts_escaped_newlines_and_the_scanner_does_not() {
    // The one intended difference: after `"a\` + newline + `b"` the oracle
    // puts `foo` on line 2; the scanner on line 3.
    let source = "printf(\"a\\\nb\");\nfoo();\n";
    let old = oracle::extract_calls(source, Language::C);
    let new = wfspeak_codemodel::extract_calls(source, Language::C);
    assert_eq!((old[1].name.as_str(), old[1].line), ("foo", 2));
    assert_eq!((new[1].name.as_str(), new[1].line), ("foo", 3));
    assert!(oracle::check_agreement(source, Language::C).is_ok());
}
