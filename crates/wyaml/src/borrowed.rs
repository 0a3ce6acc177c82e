//! The borrowed, span-carrying document model produced by
//! [`parse_document`](crate::parse_document).
//!
//! Every node borrows from the source text where it can: plain scalars and
//! quoted scalars without escapes are [`Cow::Borrowed`] slices of the input
//! buffer (zero copies, zero allocations for the string data); only scalars
//! that required unescaping (`"a\"b"`, `"line\nbreak"`) own their text.
//! Every node also records the [`Span`] it was parsed from.  This is the
//! only document model: the Wilkins and ADIOS2 schema readers walk it in
//! place.

use std::borrow::Cow;

use crate::span::Span;

/// A parsed value plus the source region it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Node<'a> {
    /// The value itself.
    pub value: ValueRef<'a>,
    /// Where in the source the value starts (first line of the construct).
    pub span: Span,
}

impl<'a> Node<'a> {
    /// Construct a node.
    pub fn new(value: ValueRef<'a>, span: Span) -> Node<'a> {
        Node { value, span }
    }

    /// Borrowed-string view (only for [`ValueRef::Str`]).
    pub fn as_str(&self) -> Option<&str> {
        match &self.value {
            ValueRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (only for [`ValueRef::Int`]).
    pub fn as_i64(&self) -> Option<i64> {
        match self.value {
            ValueRef::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Sequence view.
    pub fn as_seq(&self) -> Option<&[Node<'a>]> {
        match &self.value {
            ValueRef::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Map view.
    pub fn as_map(&self) -> Option<&MapRef<'a>> {
        match &self.value {
            ValueRef::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Shorthand for map lookup; `None` for non-map nodes.
    pub fn get(&self, key: &str) -> Option<&Node<'a>> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Descriptive name of the value's type (used in error messages):
    /// `null`, `bool`, `int`, `float`, `string`, `sequence` or `mapping`.
    pub fn type_name(&self) -> &'static str {
        match self.value {
            ValueRef::Null => "null",
            ValueRef::Bool(_) => "bool",
            ValueRef::Int(_) => "int",
            ValueRef::Float(_) => "float",
            ValueRef::Str(_) => "string",
            ValueRef::Seq(_) => "sequence",
            ValueRef::Map(_) => "mapping",
        }
    }

    /// All spans in the subtree, pre-order (node before children, map keys
    /// before their values).  Used by the span-ordering invariants.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        self.collect_spans(&mut out);
        out
    }

    fn collect_spans(&self, out: &mut Vec<Span>) {
        out.push(self.span);
        match &self.value {
            ValueRef::Seq(items) => {
                for item in items {
                    item.collect_spans(out);
                }
            }
            ValueRef::Map(map) => {
                for entry in map.iter() {
                    out.push(entry.key_span);
                    entry.node.collect_spans(out);
                }
            }
            _ => {}
        }
    }
}

/// A borrowed YAML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueRef<'a> {
    /// `null`, `~` or an empty scalar.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer scalar.
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// String scalar; borrowed unless unescaping forced a copy.
    Str(Cow<'a, str>),
    /// Sequence (`- item` or `[a, b]`).
    Seq(Vec<Node<'a>>),
    /// Mapping (`key: value` or `{a: 1}`).
    Map(MapRef<'a>),
}

impl<'a> ValueRef<'a> {
    /// Interpret a plain (unquoted) scalar, resolving null, booleans and
    /// numbers the way the YAML 1.1 core schema does for the common cases,
    /// and keeping string payloads borrowed.
    pub fn from_plain(s: &'a str) -> ValueRef<'a> {
        let t = s.trim();
        match t {
            "" | "~" | "null" | "Null" | "NULL" => return ValueRef::Null,
            "true" | "True" | "TRUE" => return ValueRef::Bool(true),
            "false" | "False" | "FALSE" => return ValueRef::Bool(false),
            _ => {}
        }
        // Numbers can only start with a digit, a sign or a dot (floats that
        // pass the numeric-character filter below never start with `e`), so
        // everything else is a string without attempting a numeric parse.
        let first = t.as_bytes()[0];
        if !(first.is_ascii_digit() || matches!(first, b'-' | b'+' | b'.')) {
            return ValueRef::Str(Cow::Borrowed(t));
        }
        if let Ok(i) = t.parse::<i64>() {
            return ValueRef::Int(i);
        }
        // Only treat as float if it looks numeric (avoid "1.0.0" or version
        // strings being mangled).
        if t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        {
            if let Ok(f) = t.parse::<f64>() {
                return ValueRef::Float(f);
            }
        }
        ValueRef::Str(Cow::Borrowed(t))
    }
}

/// One `key: value` entry of a [`MapRef`].
#[derive(Debug, Clone, PartialEq)]
pub struct EntryRef<'a> {
    /// The key text (borrowed unless unescaping forced a copy).
    pub key: Cow<'a, str>,
    /// Where the key sits in the source.
    pub key_span: Span,
    /// The entry's value.
    pub node: Node<'a>,
}

/// An insertion-ordered borrowed mapping.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MapRef<'a> {
    entries: Vec<EntryRef<'a>>,
}

impl<'a> MapRef<'a> {
    /// An empty map.
    pub fn new() -> MapRef<'a> {
        MapRef::default()
    }

    /// An empty map with room for a typical block mapping, so the first few
    /// pushes never reallocate.
    pub(crate) fn with_default_capacity() -> MapRef<'a> {
        MapRef {
            entries: Vec::with_capacity(4),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append an entry.  The parser rejects duplicates before calling this,
    /// so no replace-in-place logic is needed here.
    pub fn push(&mut self, entry: EntryRef<'a>) {
        self.entries.push(entry);
    }

    /// Look up a key by text.  The parser's duplicate-key check is this
    /// scan, which the per-mapping key limit keeps short.
    pub fn get(&self, key: &str) -> Option<&Node<'a>> {
        self.entries.iter().find(|e| e.key == key).map(|e| &e.node)
    }

    /// Iterate over entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &EntryRef<'a>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry<'a>(key: &'a str, value: ValueRef<'a>) -> EntryRef<'a> {
        EntryRef {
            key: Cow::Borrowed(key),
            key_span: Span::point(1, 1),
            node: Node::new(value, Span::point(1, 4)),
        }
    }

    #[test]
    fn plain_scalar_resolution() {
        let cases = [
            ("null", ValueRef::Null),
            ("~", ValueRef::Null),
            ("", ValueRef::Null),
            ("true", ValueRef::Bool(true)),
            ("False", ValueRef::Bool(false)),
            ("42", ValueRef::Int(42)),
            ("-7", ValueRef::Int(-7)),
            ("3.5", ValueRef::Float(3.5)),
            ("outfile.h5", ValueRef::Str(Cow::Borrowed("outfile.h5"))),
            ("/group1/grid", ValueRef::Str(Cow::Borrowed("/group1/grid"))),
            ("1.0.0", ValueRef::Str(Cow::Borrowed("1.0.0"))),
        ];
        for (raw, expected) in cases {
            assert_eq!(ValueRef::from_plain(raw), expected, "{raw:?}");
        }
    }

    #[test]
    fn plain_strings_stay_borrowed() {
        let source = String::from("  outfile.h5  ");
        match ValueRef::from_plain(&source) {
            ValueRef::Str(Cow::Borrowed(s)) => assert_eq!(s, "outfile.h5"),
            other => panic!("expected borrowed str, got {other:?}"),
        }
    }

    #[test]
    fn accessors_return_expected_views() {
        let node = |value| Node::new(value, Span::point(1, 1));
        assert_eq!(node(ValueRef::Int(3)).as_i64(), Some(3));
        assert_eq!(node(ValueRef::Str(Cow::Borrowed("x"))).as_str(), Some("x"));
        assert!(node(ValueRef::Str(Cow::Borrowed("3"))).as_i64().is_none());
        assert!(node(ValueRef::Float(3.0)).as_i64().is_none());
        assert!(node(ValueRef::Int(1)).as_str().is_none());
        assert_eq!(node(ValueRef::Seq(vec![])).as_seq(), Some(&[][..]));
        assert!(node(ValueRef::Null).as_map().is_none());
        assert!(node(ValueRef::Null).get("k").is_none());
    }

    #[test]
    fn type_names() {
        let names: Vec<&str> = [
            ValueRef::Null,
            ValueRef::Bool(true),
            ValueRef::Int(1),
            ValueRef::Float(1.5),
            ValueRef::Str(Cow::Borrowed("s")),
            ValueRef::Seq(vec![]),
            ValueRef::Map(MapRef::new()),
        ]
        .into_iter()
        .map(|value| Node::new(value, Span::point(1, 1)).type_name())
        .collect();
        assert_eq!(
            names,
            ["null", "bool", "int", "float", "string", "sequence", "mapping"]
        );
    }

    #[test]
    fn map_lookup_finds_keys_by_text() {
        let mut m = MapRef::new();
        assert!(m.get("a").is_none());
        m.push(entry("a", ValueRef::Int(1)));
        m.push(EntryRef {
            key: Cow::Owned("b\"c".to_owned()),
            ..entry("", ValueRef::Int(2))
        });
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a").and_then(Node::as_i64), Some(1));
        assert_eq!(m.get("b\"c").and_then(Node::as_i64), Some(2));
        assert!(m.get("b").is_none());
    }

    #[test]
    fn spans_collect_in_document_order() {
        let mut m = MapRef::new();
        m.push(entry("k", ValueRef::Int(1)));
        let root = Node::new(ValueRef::Map(m), Span::point(1, 1));
        let spans = root.spans();
        assert_eq!(spans.len(), 3);
        let positions: Vec<_> = spans.iter().map(Span::position).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted);
    }
}
