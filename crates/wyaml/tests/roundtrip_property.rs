//! Round-trip tests for the test-support emitter and the parser: emitted
//! text re-parses to an equivalent value, for hand-written documents and
//! for any value built from the supported model.

mod owned;

use owned::{block_gnarly_string, block_value_strategy, emit, emit_value, parse, Map, Value};
use proptest::prelude::*;

fn round_trip(src: &str) {
    let doc = parse(src).unwrap();
    let emitted = emit(&doc);
    let reparsed = parse(&emitted).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{emitted}"));
    assert_eq!(doc, reparsed, "round trip changed document:\n{emitted}");
}

#[test]
fn scalar_emission() {
    assert_eq!(emit(&Value::Int(3)), "3\n");
    assert_eq!(emit(&Value::Bool(false)), "false\n");
    assert_eq!(emit(&Value::Null), "null\n");
    assert_eq!(emit(&Value::Str("plain".to_owned())), "plain\n");
}

#[test]
fn float_emission_keeps_decimal_point() {
    assert_eq!(emit(&Value::Float(2.0)), "2.0\n");
    assert_eq!(emit(&Value::Float(2.5)), "2.5\n");
}

#[test]
fn strings_that_look_like_numbers_are_quoted() {
    assert_eq!(emit(&Value::Str("42".to_owned())), "\"42\"\n");
    assert_eq!(emit(&Value::Str("true".to_owned())), "\"true\"\n");
    assert_eq!(emit(&Value::Str(String::new())), "\"\"\n");
}

#[test]
fn inline_value_rendering() {
    let mut m = Map::new();
    m.insert("a", Value::Int(1));
    m.insert("b", Value::Seq(vec![Value::Int(2), Value::Int(3)]));
    assert_eq!(emit_value(&Value::Map(m)), "{a: 1, b: [2, 3]}");
}

#[test]
fn round_trip_flat_mapping() {
    round_trip("a: 1\nb: text\nc: true\nd: 2.5\n");
}

#[test]
fn round_trip_nested_structures() {
    round_trip("outer:\n  inner:\n    - 1\n    - x: 2\n      y: 3\n");
}

#[test]
fn round_trip_wilkins_config() {
    round_trip(
        "tasks:\n  - func: producer\n    nprocs: 3\n    outports:\n      - filename: outfile.h5\n        dsets:\n          - name: /group1/grid\n            file: 0\n            memory: 1\n",
    );
}

#[test]
fn round_trip_empty_collections() {
    round_trip("a: {}\nb: []\nc: null\n");
}

#[test]
fn round_trip_sequence_document() {
    round_trip("- 1\n- two\n- false\n");
}

#[test]
fn emitted_wilkins_config_is_stable() {
    let src = "tasks:\n  - func: producer\n    nprocs: 3\n";
    let doc = parse(src).unwrap();
    let once = emit(&doc);
    let twice = emit(&parse(&once).unwrap());
    assert_eq!(once, twice);
}

#[test]
fn round_trip_simple_document() {
    let src = "name: workflow\ncount: 3\nenabled: true\n";
    let doc = parse(src).unwrap();
    let emitted = emit(&doc);
    let reparsed = parse(&emitted).unwrap();
    assert_eq!(doc, reparsed);
}

/// Strategy for plain-ish scalar strings (identifiers, paths, filenames).
fn scalar_string() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,12}",
        "/[a-z]{1,6}/[a-z]{1,6}",
        "[a-z]{1,8}\\.h5",
        "[a-z ]{1,14}",
        Just(String::new()),
        Just("null".to_string()),
        Just("42".to_string()),
    ]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(|f| Value::Float((f * 100.0).round() / 100.0)),
        scalar_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::vec(("[a-z][a-z0-9_]{0,8}", inner), 0..4).prop_map(|entries| {
                let mut m = Map::new();
                for (k, v) in entries {
                    m.insert(k, v);
                }
                Value::Map(m)
            }),
        ]
    })
}

/// Floats can lose the integral/float distinction through emission when they
/// have no fractional part and a scalar re-resolution; compare with that
/// tolerance.
fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() < 1e-9,
        (Value::Float(x), Value::Int(y)) | (Value::Int(y), Value::Float(x)) => {
            (*x - *y as f64).abs() < 1e-9
        }
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| approx_eq(x, y))
        }
        (Value::Map(xm), Value::Map(ym)) => {
            xm.len() == ym.len()
                && xm
                    .iter()
                    .all(|(k, v)| ym.get(k).map(|w| approx_eq(v, w)).unwrap_or(false))
        }
        _ => a == b,
    }
}

/// Strategy for arbitrary printable-ASCII scalars — includes quotes,
/// backslashes, colons, commas and brackets, exactly the characters that
/// force quoting and escaping in flow style.
fn gnarly_string() -> impl Strategy<Value = String> {
    "[ -~]{0,12}"
}

/// Values emitted in flow style: scalars (with gnarly strings) plus nested
/// flow sequences and mappings.
fn flow_value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(|f| Value::Float((f * 100.0).round() / 100.0)),
        gnarly_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            proptest::collection::vec(("[ -~]{1,8}", inner), 0..4).prop_map(|entries| {
                let mut m = Map::new();
                for (k, v) in entries {
                    m.insert(k, v);
                }
                Value::Map(m)
            }),
        ]
    })
}

/// Sequences of mappings specifically (`- key: value` with continuation
/// lines) — the layout every task list in the corpus uses.
fn seq_of_maps_strategy() -> impl Strategy<Value = Value> {
    let scalar = prop_oneof![
        Just(Value::Null),
        (-1000i64..1000).prop_map(Value::Int),
        block_gnarly_string().prop_map(Value::Str),
    ];
    let map = proptest::collection::vec(("[ -~]{1,8}", scalar), 1..4).prop_map(|entries| {
        let mut m = Map::new();
        for (k, v) in entries {
            m.insert(k, v);
        }
        Value::Map(m)
    });
    proptest::collection::vec(map, 1..4).prop_map(Value::Seq)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn emit_parse_round_trip(value in value_strategy()) {
        let text = emit(&value);
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("failed to reparse:\n{text}\nerror: {e}"));
        prop_assert!(approx_eq(&value, &reparsed), "value {value:?} -> text:\n{text}\nreparsed {reparsed:?}");
    }

    #[test]
    fn emit_is_idempotent(value in value_strategy()) {
        let once = emit(&value);
        let twice = emit(&parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn parse_never_panics_on_arbitrary_text(text in "[ -~\n]{0,200}") {
        let _ = parse(&text);
    }

    // Flow-style emission (quoted/escaped scalars, quoted keys, nested flow
    // collections) re-parses to an equivalent value.  Regression cover for
    // the flow parser's escaped-quote and quoted-key handling.
    #[test]
    fn flow_emit_parse_round_trip(value in flow_value_strategy()) {
        let text = emit_value(&value);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("failed to reparse flow text:\n{text}\nerror: {e}"));
        prop_assert!(approx_eq(&value, &reparsed), "value {value:?} -> text:\n{text}\nreparsed {reparsed:?}");
    }

    // The same flow collections survive when embedded as a block-mapping
    // value (the form the corpus configs actually use, e.g. `dims: [64, 64]`).
    #[test]
    fn flow_collection_under_key_round_trips(value in flow_value_strategy()) {
        let text = format!("root: {}\n", emit_value(&value));
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("failed to reparse:\n{text}\nerror: {e}"));
        let root = reparsed.get("root").expect("root key survives");
        prop_assert!(approx_eq(&value, root), "value {value:?} -> text:\n{text}\nreparsed {root:?}");
    }

    // Block-emitted scalars with quotes, backslashes, tabs and newlines
    // re-parse to the identical string.  Regression cover for the emitter's
    // newline/tab escaping and quote-character quoting.
    #[test]
    fn block_scalar_round_trip(s in block_gnarly_string()) {
        let value = Value::Str(s);
        let text = emit(&value);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("failed to reparse scalar doc:\n{text:?}\nerror: {e}"));
        prop_assert!(approx_eq(&value, &reparsed), "value {value:?} -> text {text:?} -> {reparsed:?}");
    }

    // Arbitrary block documents — nested mappings with gnarly keys, gnarly
    // scalars, sequences of mappings — survive emit → parse.  Regression
    // cover for quoted-key unescaping (`"a\"b": 1`) and for plain keys
    // containing quote characters or opening brackets, which used to derail
    // the mapping-colon search.
    #[test]
    fn block_emit_parse_round_trip(value in block_value_strategy()) {
        let text = emit(&value);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("failed to reparse:\n{text:?}\nerror: {e}"));
        prop_assert!(approx_eq(&value, &reparsed), "value {value:?} -> text:\n{text}\nreparsed {reparsed:?}");
    }

    // And block emission is idempotent on the same shapes.
    #[test]
    fn block_emit_is_idempotent(value in block_value_strategy()) {
        let once = emit(&value);
        let twice = emit(&parse(&once).unwrap());
        prop_assert_eq!(once, twice);
    }

    // Sequences of mappings (`- key: value` + continuation lines) round-trip
    // with gnarly scalar payloads.
    #[test]
    fn sequence_of_mappings_round_trip(value in seq_of_maps_strategy()) {
        let text = emit(&value);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("failed to reparse:\n{text:?}\nerror: {e}"));
        prop_assert!(approx_eq(&value, &reparsed), "value {value:?} -> text:\n{text}\nreparsed {reparsed:?}");
        // Same layout survives nesting under a key, as in the Wilkins configs.
        let nested = format!("tasks:\n{}", emit(&value).lines().map(|l| format!("  {l}\n")).collect::<String>());
        let reparsed = parse(&nested)
            .unwrap_or_else(|e| panic!("failed to reparse nested:\n{nested:?}\nerror: {e}"));
        let tasks = reparsed.get("tasks").expect("tasks key survives");
        prop_assert!(approx_eq(&value, tasks), "nested {value:?} -> text:\n{nested}\nreparsed {tasks:?}");
    }
}
