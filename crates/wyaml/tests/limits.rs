//! The parser's two input bounds: collections nest at most `MAX_DEPTH`
//! (128) levels and a mapping holds at most `MAX_MAPPING_KEYS` (256) keys.
//! Past either, the document is refused with `ErrorKind::Unsupported` at
//! the offending character instead of recursing until the stack overflows
//! or scanning keys in quadratic time.

use proptest::prelude::*;
use wfspeak_wyaml::{parse_document, Error, ErrorKind, Node};

fn refused_at(src: &str) -> (usize, usize) {
    let err: Error = parse_document(src).unwrap_err();
    assert_eq!(err.kind, ErrorKind::Unsupported, "{err}");
    assert_eq!(err.kind.code(), "unsupported-yaml");
    (err.line(), err.column())
}

/// Levels of nested collections from `node` down its first children.
fn depth(node: &Node<'_>) -> usize {
    if let Some(items) = node.as_seq() {
        1 + items.first().map_or(0, depth)
    } else if let Some(map) = node.as_map() {
        1 + map.iter().next().map_or(0, |e| depth(&e.node))
    } else {
        0
    }
}

/// `levels` block mappings, each the only key of the one above it.
fn indented_mappings(levels: usize) -> String {
    (0..levels)
        .map(|i| format!("{}k:\n", "  ".repeat(i)))
        .collect()
}

#[test]
fn flow_nesting_past_the_limit_is_refused_at_its_bracket() {
    let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    assert_eq!(depth(&parse_document(&nested(128)).unwrap()), 128);
    assert_eq!(refused_at(&nested(129)), (1, 129));
    // Flow mappings count too, and so does the block mapping holding them:
    // the 64th `{` opens level 129.
    let mixed = format!("tasks: {}1{}", "[{a: ".repeat(64), "}]".repeat(64));
    assert_eq!(refused_at(&mixed), (1, 9 + 5 * 63));
    // A 10,007-byte configuration: its 128th `[` opens level 129.
    let hostile = format!("tasks: {}", "[".repeat(10_000));
    assert_eq!(refused_at(&hostile), (1, 7 + 128));
}

#[test]
fn indented_nesting_past_the_limit_is_refused_at_its_first_key() {
    let accepted = indented_mappings(128);
    assert_eq!(depth(&parse_document(&accepted).unwrap()), 128);
    assert_eq!(refused_at(&indented_mappings(129)), (129, 257));
    // Block sequences nest by indentation as well.
    let dashes: String = (0..129).map(|i| format!("{}-\n", "  ".repeat(i))).collect();
    assert_eq!(refused_at(&dashes), (129, 257));
}

#[test]
fn dash_nesting_past_the_limit_is_refused_at_its_dash() {
    let dashes = |levels: usize| format!("{}x\n", "- ".repeat(levels));
    assert_eq!(depth(&parse_document(&dashes(128)).unwrap()), 128);
    assert_eq!(refused_at(&dashes(129)), (1, 257));
    // Ten thousand dashes on one line stop at the same dash.
    assert_eq!(refused_at(&dashes(10_000)), (1, 257));
}

#[test]
fn a_block_mapping_past_the_key_limit_is_refused_at_that_key() {
    let keys = |n: usize| -> String { (0..n).map(|i| format!("k{i}: {i}\n")).collect() };
    let accepted = keys(256);
    let root = parse_document(&accepted).unwrap();
    assert_eq!(root.as_map().unwrap().len(), 256);
    assert_eq!(refused_at(&keys(257)), (257, 1));
    // The same inside a sequence item, whose keys sit after the dash.
    let item = format!("- {}", keys(257).replace('\n', "\n  "));
    assert_eq!(refused_at(&item), (257, 3));
}

#[test]
fn a_flow_mapping_past_the_key_limit_is_refused_at_that_key() {
    let keys = |n: usize| -> String {
        let entries: Vec<String> = (0..n).map(|i| format!("k{i}: {i}")).collect();
        format!("m: {{{}}}\n", entries.join(", "))
    };
    let accepted = keys(256);
    let root = parse_document(&accepted).unwrap();
    assert_eq!(root.get("m").unwrap().as_map().unwrap().len(), 256);
    let src = keys(257);
    let column = src.find("k256:").unwrap() + 1;
    assert_eq!(refused_at(&src), (1, column));
}

#[test]
fn the_key_limit_counts_each_mapping_on_its_own() {
    // 600 keys in one document, at most 200 in any one mapping.
    let src: String = (0..3)
        .map(|m| {
            let keys: String = (0..199).map(|k| format!("  k{k}: {k}\n")).collect();
            format!("m{m}:\n{keys}")
        })
        .collect();
    let root = parse_document(&src).unwrap();
    assert_eq!(root.as_map().unwrap().len(), 3);
    assert_eq!(root.get("m2").unwrap().as_map().unwrap().len(), 199);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Block openers (`- `, or `k:` with its value indented below) followed
    // by flow openers (`[`, `{a: `), each nested in the one before: at most
    // 128 levels parse (or stop at the unclosed flow), and any deeper mix
    // is refused at the opener of level 129.
    #[test]
    fn mixed_nesting_is_refused_at_level_129(
        block in proptest::collection::vec(any::<bool>(), 0..200),
        flow in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let (mut text, mut line, mut column) = (String::new(), 1, 0);
        let mut openers = Vec::new();
        for dash in block {
            openers.push((line, column + 1));
            if dash {
                text.push_str("- ");
                column += 2;
            } else {
                column += 2;
                text.push_str("k:\n");
                text.push_str(&" ".repeat(column));
                line += 1;
            }
        }
        for bracket in flow {
            openers.push((line, column + 1));
            let piece = if bracket { "[" } else { "{a: " };
            text.push_str(piece);
            column += piece.len();
        }
        match parse_document(&text) {
            Err(e) if openers.len() > 128 => {
                prop_assert_eq!(e.kind, ErrorKind::Unsupported, "{} in {:?}", e, text);
                prop_assert_eq!((e.line(), e.column()), openers[128]);
            }
            Err(e) => prop_assert!(e.kind != ErrorKind::Unsupported, "{} in {:?}", e, text),
            Ok(_) => prop_assert!(openers.len() <= 128, "accepted {:?}", text),
        }
    }
}
