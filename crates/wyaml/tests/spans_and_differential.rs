//! Property tests for the zero-copy rewrite:
//!
//! * **Differential refinement** — the zero-copy parser is pinned against
//!   the preserved pre-rewrite parser (the `baseline` test module): when
//!   the new parser accepts, the baseline accepts with the identical value,
//!   and when the baseline rejects, the new parser rejects too.  The two
//!   intentional fixes (tabs → `TabIndent`, flow duplicate keys rejected)
//!   only ever *add* rejections, so both directions hold.
//! * **Span invariants** — every reported error's `line:column` indexes a
//!   real character of the input, and parsed nodes' spans appear in
//!   document order.
//! * **Tab twins** — no tab-indented input ever parses as a differently
//!   shaped document than its space-indented twin (tabs are rejected
//!   outright, with the tab's exact column).
//! * **Slice identity** — borrowed scalars point into the original buffer.
//!
//! Both parsers' results are compared as the test-support owned tree
//! (`owned`), and documents are generated through its emitter.

mod baseline;
mod owned;

use std::borrow::Cow;

use owned::{block_value_strategy, emit, parse};
use proptest::prelude::*;
use wfspeak_wyaml::{parse_document, ErrorKind, Node, ValueRef};

/// Count scalar string leaves, splitting them into borrowed-from-`buffer`
/// and owned.
fn count_scalars(node: &Node<'_>, buffer: &str, borrowed: &mut usize, owned: &mut usize) {
    match &node.value {
        ValueRef::Str(Cow::Borrowed(s)) => {
            let b = buffer.as_ptr() as usize;
            let p = s.as_ptr() as usize;
            assert!(
                p >= b && p + s.len() <= b + buffer.len(),
                "borrowed scalar {s:?} does not point into the source buffer"
            );
            *borrowed += 1;
        }
        ValueRef::Str(Cow::Owned(_)) => *owned += 1,
        ValueRef::Seq(items) => {
            for item in items {
                count_scalars(item, buffer, borrowed, owned);
            }
        }
        ValueRef::Map(map) => {
            for entry in map.iter() {
                count_scalars(&entry.node, buffer, borrowed, owned);
            }
        }
        _ => {}
    }
}

/// Replace the leading space run of every line with tabs, producing the
/// "tab twin" of a space-indented document.
fn tab_twin(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    for line in source.split_inclusive('\n') {
        let indent = line.len() - line.trim_start_matches(' ').len();
        for _ in 0..indent {
            out.push('\t');
        }
        out.push_str(&line[indent..]);
    }
    out
}

#[test]
fn baseline_and_zero_copy_agree_on_the_happy_path() {
    let src = "\
io:
  name: SimulationOutput
  engine:
    type: SST
variables:
  - name: array
    shape: [4, 50]
";
    assert_eq!(parse(src).unwrap(), baseline::parse(src).unwrap());
}

#[test]
fn plain_resolution_matches_owned_model() {
    for raw in [
        "null", "~", "", "true", "False", "42", "-7", "3.5", "x.h5", "1.0.0", "1e3", "+5", ".5",
    ] {
        let node = Node::new(ValueRef::from_plain(raw), wfspeak_wyaml::Span::point(1, 1));
        assert_eq!(
            owned::from_node(&node),
            baseline::plain_scalar(raw),
            "{raw:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // On arbitrary text, the zero-copy parser is a refinement of the
    // baseline: it accepts a subset of what the baseline accepts, and where
    // both accept the values are identical.
    #[test]
    fn zero_copy_refines_baseline_on_arbitrary_text(text in "[ -~\t\n]{0,200}") {
        let new = parse(&text);
        let old = baseline::parse(&text);
        if let Ok(new_value) = &new {
            let old_value = old.as_ref().unwrap_or_else(|e| {
                panic!("zero-copy accepted but baseline rejected:\n{text:?}\nerror: {e}")
            });
            prop_assert_eq!(new_value, old_value, "parsers disagree on:\n{:?}", text);
        }
        // (old Err => new Err is the contrapositive of the check above.)
    }

    // On well-formed emitted documents the two parsers agree exactly.
    #[test]
    fn zero_copy_matches_baseline_on_emitted_documents(value in block_value_strategy()) {
        let text = emit(&value);
        let new = parse(&text).unwrap_or_else(|e| panic!("zero-copy rejected:\n{text:?}\nerror: {e}"));
        let old = baseline::parse(&text).unwrap_or_else(|e| panic!("baseline rejected:\n{text:?}\nerror: {e}"));
        prop_assert_eq!(new, old);
    }

    // Every parse error's line and column index a real character of the
    // input (1-based; the column lands on or inside the offending line).
    #[test]
    fn error_positions_index_a_real_character(text in "[ -~\t\n]{0,200}") {
        if let Err(e) = parse(&text) {
            let lines: Vec<&str> = text.lines().collect();
            prop_assert!(e.line() >= 1 && e.line() <= lines.len(),
                "line {} out of range 1..={} for {text:?} ({e})", e.line(), lines.len());
            let line = lines[e.line() - 1];
            prop_assert!(e.column() >= 1 && e.column() <= line.len(),
                "column {} out of range 1..={} on line {:?} for {text:?} ({e})",
                e.column(), line.len(), line);
        }
    }

    // Emit → parse keeps node spans in document order: a pre-order walk of
    // the tree (keys before values) yields non-decreasing (line, column).
    #[test]
    fn emitted_documents_have_ordered_spans(value in block_value_strategy()) {
        let text = emit(&value);
        let doc = parse_document(&text).unwrap_or_else(|e| panic!("rejected:\n{text:?}\nerror: {e}"));
        let spans = doc.spans();
        let positions: Vec<_> = spans.iter().map(|s| s.position()).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        prop_assert_eq!(&positions, &sorted, "spans out of document order for:\n{:?}", text);
        // Spans of non-synthesised nodes index real characters.
        let lines: Vec<&str> = text.lines().collect();
        for span in &spans {
            if span.len == 0 {
                continue;
            }
            prop_assert!(span.line >= 1 && span.line <= lines.len());
            let line = lines[span.line - 1];
            prop_assert!(span.column >= 1 && span.column + span.len - 1 <= line.len(),
                "span {span:?} exceeds line {line:?} in {text:?}");
        }
    }

    // Zero-copy means zero copies: scalars that needed no unescaping borrow
    // from the source buffer.  Only double-quoted scalars containing a
    // backslash may own their text.
    #[test]
    fn unescaped_scalars_borrow_from_the_buffer(value in block_value_strategy()) {
        let text = emit(&value);
        let doc = parse_document(&text).unwrap_or_else(|e| panic!("rejected:\n{text:?}\nerror: {e}"));
        let (mut borrowed, mut owned) = (0usize, 0usize);
        count_scalars(&doc, &text, &mut borrowed, &mut owned);
        let escapes = text.lines().filter(|l| l.contains('\\')).count();
        prop_assert!(owned <= escapes,
            "{owned} owned scalars but only {escapes} lines with escapes in:\n{text:?}");
    }

    // No tab-indented input ever parses as a differently-shaped document
    // than its space-indented twin: indentation tabs are rejected outright,
    // and the error column points at a real tab.
    #[test]
    fn tab_twin_never_parses_to_a_different_shape(value in block_value_strategy()) {
        let text = emit(&value);
        let twin = tab_twin(&text);
        if twin == text {
            // No indentation anywhere — nothing to check.
            return Ok(());
        }
        let space_parse = parse(&text);
        match parse(&twin) {
            Ok(twin_value) => {
                // Only acceptable if the space version parses identically
                // (cannot happen today — tabs always error — but this is
                // the shape-equality form of the property).
                prop_assert_eq!(Ok(twin_value), space_parse);
            }
            Err(e) => {
                prop_assert_eq!(e.kind, ErrorKind::TabIndent, "twin:\n{:?}", twin);
                let line = twin.lines().nth(e.line() - 1).unwrap();
                prop_assert_eq!(line.as_bytes()[e.column() - 1], b'\t',
                    "column {} of {:?} is not the tab", e.column(), line);
            }
        }
    }
}
