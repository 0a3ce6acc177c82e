//! Test support shared by the baseline, differential and round-trip tests:
//! an owned document tree, a conversion from the parser's borrowed
//! [`Node`] into it, and a deterministic emitter that renders a tree as
//! well-formed YAML text (block style, two-space indentation, or flow style
//! for one inline value), plus the block-document strategy the property
//! tests share.
//!
//! The crate has one document model, the borrowed [`Node`].  This owned
//! tree is what property tests generate documents from, what the
//! pre-rewrite baseline parser returns, and what both parsers' results are
//! compared as.

#![allow(dead_code)]

use proptest::prelude::*;
use wfspeak_wyaml::{parse_document, Error, Node, ValueRef};

/// An insertion-ordered map of string keys to values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Create an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a key/value pair.  If the key already exists its value is
    /// replaced in place (original position retained), which is the
    /// baseline's last-wins behaviour for duplicate flow-mapping keys.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// An owned YAML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`, `~` or an empty scalar.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer scalar.
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// String scalar (plain or quoted).
    Str(String),
    /// Sequence (`- item` or `[a, b]`).
    Seq(Vec<Value>),
    /// Mapping (`key: value` or `{a: 1}`).
    Map(Map),
}

impl Value {
    /// String view (only for [`Value::Str`]).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Sequence view.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    /// Map view.
    pub fn as_map(&self) -> Option<&Map> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Shorthand for map lookup; `None` for non-map values.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Walk a `/`-separated path of map keys and sequence indices, e.g.
    /// `tasks/0/func`.
    pub fn lookup_path(&self, path: &str) -> Option<&Value> {
        let mut current = self;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            current = match current {
                Value::Map(m) => m.get(part)?,
                Value::Seq(s) => s.get(part.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(current)
    }
}

/// Convert a parsed node into the owned tree (drops spans).
pub fn from_node(node: &Node<'_>) -> Value {
    match &node.value {
        ValueRef::Null => Value::Null,
        ValueRef::Bool(b) => Value::Bool(*b),
        ValueRef::Int(i) => Value::Int(*i),
        ValueRef::Float(f) => Value::Float(*f),
        ValueRef::Str(s) => Value::Str(s.clone().into_owned()),
        ValueRef::Seq(items) => Value::Seq(items.iter().map(from_node).collect()),
        // The parser rejected duplicate keys, so the entries are collected
        // without `insert`'s replace-in-place scan.
        ValueRef::Map(map) => Value::Map(Map {
            entries: map
                .iter()
                .map(|e| (e.key.clone().into_owned(), from_node(&e.node)))
                .collect(),
        }),
    }
}

/// [`parse_document`] followed by [`from_node`].
pub fn parse(source: &str) -> Result<Value, Error> {
    parse_document(source).map(|root| from_node(&root))
}

/// Emit a document with a trailing newline.
pub fn emit(value: &Value) -> String {
    let mut out = String::new();
    match value {
        Value::Map(m) => emit_map(m, 0, &mut out),
        Value::Seq(s) => emit_seq(s, 0, &mut out),
        other => {
            out.push_str(&emit_scalar(other));
            out.push('\n');
        }
    }
    out
}

/// Emit a single value inline (flow style for collections).
pub fn emit_value(value: &Value) -> String {
    match value {
        Value::Seq(items) => {
            let inner: Vec<String> = items.iter().map(emit_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Map(map) => {
            let inner: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}: {}", quote_in_flow(k), emit_value(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Value::Str(s) => quote_in_flow(s),
        other => emit_scalar(other),
    }
}

fn emit_scalar(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.is_finite() {
                format!("{f:.1}")
            } else {
                f.to_string()
            }
        }
        Value::Str(s) => quote_if_needed(s),
        Value::Seq(_) | Value::Map(_) => unreachable!("collections handled by caller"),
    }
}

/// Render `s` as a double-quoted scalar, escaping everything the parser's
/// quoted-scalar reader unescapes (`\\`, `\"`, `\n`, `\t` — newlines and
/// tabs would otherwise break the line-oriented block format).
fn quoted(s: &str) -> String {
    format!(
        "\"{}\"",
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
            .replace('\t', "\\t")
    )
}

/// Quote a string scalar when emitting it plainly would change its meaning
/// on re-parse (empty, looks like another type, contains YAML syntax, or —
/// for the quote characters and control whitespace — would derail the
/// line/quote scanning of keys and comments).
fn quote_if_needed(s: &str) -> String {
    let needs_quoting = s.is_empty()
        || s != s.trim()
        || matches!(
            s,
            "null"
                | "Null"
                | "NULL"
                | "~"
                | "true"
                | "True"
                | "TRUE"
                | "false"
                | "False"
                | "FALSE"
                | "..."
        )
        || s.parse::<i64>().is_ok()
        || (s.parse::<f64>().is_ok()
            && s.chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        || s.starts_with([
            '-', '[', ']', '{', '}', '&', '*', '!', '#', '\'', '"', '|', '>',
        ])
        || s.contains(": ")
        || s.ends_with(':')
        || s.contains(" #")
        // A quote character anywhere in a plain scalar toggles the parser's
        // quote trackers (comment stripping, mapping-colon search); an
        // opening bracket/brace makes the mapping-colon search think the
        // colon sits inside a flow collection; newlines and tabs break the
        // line-oriented format outright.
        || s.contains(['"', '\'', '[', '{', '\n', '\t']);
    if needs_quoting {
        quoted(s)
    } else {
        s.to_owned()
    }
}

/// Quote a string for *flow* context: everything [`quote_if_needed`] quotes,
/// plus strings containing flow punctuation (`,`, brackets, braces), colons,
/// quotes or backslashes, any of which would change meaning when re-parsed
/// inside a flow collection.
fn quote_in_flow(s: &str) -> String {
    if s.contains([',', ':', '[', ']', '{', '}', '"', '\'', '\\', '#']) {
        quoted(s)
    } else {
        quote_if_needed(s)
    }
}

fn indent_str(indent: usize) -> String {
    " ".repeat(indent)
}

/// Emit one `key: value` entry after `prefix`; a non-empty nested
/// collection goes on the following lines at `child_indent`.
fn emit_entry(prefix: &str, key: &str, value: &Value, child_indent: usize, out: &mut String) {
    let key = quote_if_needed(key);
    match value {
        Value::Map(m) if !m.is_empty() => {
            out.push_str(&format!("{prefix}{key}:\n"));
            emit_map(m, child_indent, out);
        }
        Value::Seq(s) if !s.is_empty() => {
            out.push_str(&format!("{prefix}{key}:\n"));
            emit_seq(s, child_indent, out);
        }
        Value::Map(_) => out.push_str(&format!("{prefix}{key}: {{}}\n")),
        Value::Seq(_) => out.push_str(&format!("{prefix}{key}: []\n")),
        scalar => out.push_str(&format!("{prefix}{key}: {}\n", emit_scalar(scalar))),
    }
}

fn emit_map(map: &Map, indent: usize, out: &mut String) {
    if map.is_empty() {
        out.push_str(&format!("{}{{}}\n", indent_str(indent)));
        return;
    }
    for (key, value) in map.iter() {
        emit_entry(&indent_str(indent), key, value, indent + 2, out);
    }
}

fn emit_seq(seq: &[Value], indent: usize, out: &mut String) {
    if seq.is_empty() {
        out.push_str(&format!("{}[]\n", indent_str(indent)));
        return;
    }
    for item in seq {
        match item {
            Value::Map(m) if !m.is_empty() => {
                // First key inline with the dash, remaining keys below.
                for (i, (key, value)) in m.iter().enumerate() {
                    let marker = if i == 0 { "- " } else { "  " };
                    let prefix = format!("{}{marker}", indent_str(indent));
                    emit_entry(&prefix, key, value, indent + 4, out);
                }
            }
            Value::Seq(s) if !s.is_empty() => {
                out.push_str(&format!("{}-\n", indent_str(indent)));
                emit_seq(s, indent + 2, out);
            }
            Value::Map(_) => out.push_str(&format!("{}- {{}}\n", indent_str(indent))),
            Value::Seq(_) => out.push_str(&format!("{}- []\n", indent_str(indent))),
            scalar => out.push_str(&format!(
                "{}- {}\n",
                indent_str(indent),
                emit_scalar(scalar)
            )),
        }
    }
}

/// Strategy for scalars with printable ASCII plus tabs and newlines — the
/// characters that force the block emitter to quote and escape.
pub fn block_gnarly_string() -> impl Strategy<Value = String> {
    "[ -~\t\n]{0,14}"
}

/// Block-style documents: nested mappings (gnarly keys included), gnarly
/// scalars, and sequences of mappings — the shapes the corpus configs
/// use, with adversarial content.
pub fn block_value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(|f| Value::Float((f * 100.0).round() / 100.0)),
        block_gnarly_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // Sequences (including sequences of mappings via the map arm).
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Seq),
            // Mappings with gnarly keys.
            proptest::collection::vec(("[ -~\t\n]{1,8}", inner), 0..4).prop_map(|entries| {
                let mut m = Map::new();
                for (k, v) in entries {
                    m.insert(k, v);
                }
                Value::Map(m)
            }),
        ]
    })
}
