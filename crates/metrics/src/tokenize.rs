//! Tokenisation used by the similarity metrics.
//!
//! BLEU is computed over word-level tokens produced by a tokenizer modelled
//! after sacrebleu's `13a` tokenizer (punctuation and symbols are split into
//! their own tokens, whitespace collapsed).  ChrF is computed over character
//! n-grams with whitespace removed, again following sacrebleu.

/// Tokenise a string for BLEU, approximating sacrebleu's `13a`/`intl`
/// behaviour closely enough for code-like text:
///
/// * runs of alphanumeric characters (plus `_`) form a single token;
/// * every other non-whitespace character becomes its own token;
/// * whitespace separates tokens and is otherwise discarded.
///
/// ```
/// use wfspeak_metrics::tokenize::tokenize_13a;
/// let toks = tokenize_13a("henson_save_int(\"t\", &t);");
/// assert_eq!(toks, vec!["henson_save_int", "(", "\"", "t", "\"", ",", "&", "t", ")", ";"]);
/// ```
pub fn tokenize_13a(text: &str) -> Vec<String> {
    tokenize_13a_spans(text)
        .into_iter()
        .map(str::to_owned)
        .collect()
}

/// Zero-copy variant of [`tokenize_13a`]: every token is a slice into the
/// input, so tokenising allocates only the `Vec` of spans — no per-token
/// `String` and, in particular, no `char::to_string` per punctuation
/// character.  This is the tokenizer the scoring fast path builds interned
/// token ids from.
///
/// Multi-byte UTF-8 punctuation is sliced at the correct byte boundaries:
///
/// ```
/// use wfspeak_metrics::tokenize::tokenize_13a_spans;
/// // em dash, ellipsis and guillemets are all multi-byte punctuation
/// let toks = tokenize_13a_spans("naïve—code…«quoted»");
/// assert_eq!(toks, vec!["naïve", "—", "code", "…", "«", "quoted", "»"]);
/// ```
pub fn tokenize_13a_spans(text: &str) -> Vec<&str> {
    let mut tokens = Vec::new();
    let mut word_start: Option<usize> = None;
    for (i, ch) in text.char_indices() {
        if ch.is_alphanumeric() || ch == '_' {
            if word_start.is_none() {
                word_start = Some(i);
            }
        } else {
            if let Some(start) = word_start.take() {
                tokens.push(&text[start..i]);
            }
            if !ch.is_whitespace() {
                tokens.push(&text[i..i + ch.len_utf8()]);
            }
        }
    }
    if let Some(start) = word_start {
        tokens.push(&text[start..]);
    }
    tokens
}

/// Split a string on whitespace only (sacrebleu's `none` tokenizer).
pub fn tokenize_whitespace(text: &str) -> Vec<String> {
    text.split_whitespace().map(str::to_owned).collect()
}

/// Produce the character sequence used for ChrF: all whitespace removed,
/// every remaining character kept in order.
///
/// ```
/// use wfspeak_metrics::tokenize::chrf_chars;
/// assert_eq!(chrf_chars("a b\nc"), vec!['a', 'b', 'c']);
/// ```
pub fn chrf_chars(text: &str) -> Vec<char> {
    text.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Normalise line endings and trim trailing whitespace per line.  Applied to
/// both hypothesis and reference before scoring so that platform differences
/// and trailing-space noise do not affect the metrics.
pub fn normalize(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.replace("\r\n", "\n").lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(line.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_13a_splits_punctuation() {
        assert_eq!(tokenize_13a("a.b(c)"), vec!["a", ".", "b", "(", "c", ")"]);
    }

    #[test]
    fn tokenize_13a_keeps_identifiers_whole() {
        assert_eq!(
            tokenize_13a("compss_wait_on_file(out)"),
            vec!["compss_wait_on_file", "(", "out", ")"]
        );
    }

    #[test]
    fn tokenize_13a_empty_input() {
        assert!(tokenize_13a("").is_empty());
        assert!(tokenize_13a("   \n\t ").is_empty());
    }

    #[test]
    fn tokenize_whitespace_basic() {
        assert_eq!(tokenize_whitespace("a  b\nc"), vec!["a", "b", "c"]);
    }

    #[test]
    fn chrf_chars_strips_all_whitespace() {
        assert_eq!(chrf_chars(" x\ty \n z "), vec!['x', 'y', 'z']);
    }

    #[test]
    fn normalize_strips_trailing_space_and_crlf() {
        assert_eq!(normalize("a  \r\nb\t\n"), "a\nb");
    }

    #[test]
    fn normalize_preserves_indentation() {
        assert_eq!(
            normalize("  - func: producer  \n    nprocs: 3"),
            "  - func: producer\n    nprocs: 3"
        );
    }

    #[test]
    fn tokenize_13a_unicode_alphanumerics_group() {
        assert_eq!(tokenize_13a("héllo wörld"), vec!["héllo", "wörld"]);
    }

    #[test]
    fn tokenize_13a_spans_agree_with_owned_tokenizer() {
        for text in [
            "henson_save_int(\"t\", &t);",
            "a.b(c)",
            "",
            "   \n\t ",
            "héllo—wörld… «x»",
            "mixed_帯域 テスト(1)",
        ] {
            let owned = tokenize_13a(text);
            let spans = tokenize_13a_spans(text);
            assert_eq!(owned, spans, "{text:?}");
        }
    }

    #[test]
    fn tokenize_13a_spans_are_true_slices_of_the_input() {
        let text = "abc«def»ghi";
        for span in tokenize_13a_spans(text) {
            let start = span.as_ptr() as usize - text.as_ptr() as usize;
            assert_eq!(&text[start..start + span.len()], span);
        }
    }
}
