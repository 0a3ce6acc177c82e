//! Property tests for the request codec.
//!
//! Whatever text a client puts in a request — control characters, quotes,
//! backslashes, astral characters, long plain runs between them — comes
//! out of `encode_line` → `decode_line` unchanged. And no line, however
//! malformed or deeply nested, makes `decode_line` panic: it ends in `Ok`
//! or `Err`.

use proptest::prelude::*;
use wfspeak_service::protocol::{decode_line, encode_line, ScoreRequest};

/// Text built from the pieces the JSON string codec treats differently.
fn tricky_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        // Printable ASCII runs, the bulk of real hypotheses.
        "[ -~]{0,40}",
        // Control characters, escaped on the wire.
        proptest::char::range('\u{0}', '\u{1f}').prop_map(String::from),
        Just("\"".to_owned()),
        Just("\\".to_owned()),
        // Escape-shaped text that must stay literal.
        Just("\\u00e9\\n".to_owned()),
        // Two- and three-byte UTF-8.
        proptest::char::range('\u{80}', '\u{ffff}').prop_map(String::from),
        // Astral characters (four-byte UTF-8).
        proptest::char::range('\u{10000}', '\u{10ffff}').prop_map(String::from),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// JSON-ish tokens, so soup reaches deep into the parser.
fn json_soup() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        Just("{"),
        Just("}"),
        Just("["),
        Just("]"),
        Just(","),
        Just(":"),
        Just("\""),
        Just("\\"),
        Just("\\u"),
        Just("\\ud800"),
        Just("\"id\""),
        Just("\"hypotheses\""),
        Just("\"reference_text\""),
        Just("12"),
        Just("-3.5e2"),
        Just("true"),
        Just("null"),
        Just(" "),
        Just("é"),
    ];
    proptest::collection::vec(token, 0..64).prop_map(|tokens| tokens.concat())
}

/// Nested arrays and objects around one value, `depth` levels deep, each
/// level an array when its bit is set; sometimes cut short.
fn nesting() -> impl Strategy<Value = (String, usize)> {
    (proptest::collection::vec(any::<bool>(), 0..200), 0usize..4).prop_map(|(levels, cut)| {
        let mut text = String::new();
        for &array in &levels {
            text.push_str(if array { "[" } else { "{\"a\":" });
        }
        text.push_str("\"x\"");
        for &array in levels.iter().rev() {
            text.push(if array { ']' } else { '}' });
        }
        // `cut` 0 keeps the text whole; otherwise drop that many bytes.
        text.truncate(text.len().saturating_sub(cut));
        (text, levels.len())
    })
}

proptest! {
    // Any text round-trips exactly, as hypotheses and as reference text,
    // and the encoded request stays one line.
    #[test]
    fn arbitrary_text_round_trips_through_the_codec(
        id in 0u64..1_000_000,
        reference in tricky_text(),
        hypotheses in proptest::collection::vec(tricky_text(), 0..4),
    ) {
        let request = ScoreRequest::by_text(id, &reference, hypotheses.clone());
        let line = encode_line(&request);
        prop_assert_eq!(line.find('\n'), Some(line.len() - 1));
        let decoded: ScoreRequest = decode_line(&line).unwrap();
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(decoded.reference_text, Some(reference));
        prop_assert_eq!(decoded.hypotheses, hypotheses);
    }

    // Byte soup, decoded lossily the way a client could send it, never
    // panics the decoder.
    #[test]
    fn byte_soup_decodes_to_ok_or_err(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = decode_line::<ScoreRequest>(&line);
    }

    // JSON-shaped soup, and valid request lines cut at any character,
    // never panic the decoder either.
    #[test]
    fn json_soup_and_cut_requests_decode_to_ok_or_err(
        soup in json_soup(),
        text in tricky_text(),
        cut in 0usize..4096,
    ) {
        let _ = decode_line::<ScoreRequest>(&soup);
        let line = encode_line(&ScoreRequest::by_text(1, &text, vec![soup]));
        let at = (0..=cut.min(line.len()))
            .rev()
            .find(|&at| line.is_char_boundary(at))
            .unwrap_or(0);
        let _ = decode_line::<ScoreRequest>(&line[..at]);
    }

    // Deep or broken nesting is an error past the parser's depth limit,
    // and never a panic or a stack overflow.
    #[test]
    fn random_nesting_decodes_to_ok_or_err((text, depth) in nesting()) {
        let decoded = decode_line::<ScoreRequest>(&text);
        if depth > 128 {
            prop_assert!(decoded.is_err());
        }
        let _ = decode_line::<serde::Value>(&text);
    }
}
