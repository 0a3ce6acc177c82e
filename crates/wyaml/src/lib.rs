//! `wfspeak-wyaml` — a minimal, from-scratch YAML-subset parser and emitter
//! built around a zero-copy, span-carrying document model.
//!
//! Workflow systems such as Wilkins and ADIOS2 describe workflow graphs in
//! small, regular YAML documents (block mappings, block sequences, scalars,
//! occasional flow collections).  The reproduction hint for this paper calls
//! for workflow parsing to be built from scratch, so this crate implements
//! exactly the subset those configuration files need instead of pulling in a
//! full YAML implementation:
//!
//! * block mappings (`key: value`) with arbitrary nesting by indentation,
//! * block sequences (`- item`), including sequences of mappings,
//! * flow sequences (`[a, b]`) and flow mappings (`{a: 1}`) as scalar-level
//!   constructs,
//! * plain, single-quoted and double-quoted scalars,
//! * integers, floats, booleans and null,
//! * `#` comments and blank lines,
//! * a deterministic emitter that round-trips parsed documents.
//!
//! Out of scope (and rejected with an error where detectable): anchors,
//! aliases, tags, multi-document streams, block scalars (`|`, `>`), tabs in
//! block indentation ([`ErrorKind::TabIndent`]).
//!
//! # The borrowed document model
//!
//! [`parse_document`] is the primary entry point.  It returns a
//! [`Document`]`<'a>` that **borrows from the input `&'a str`**:
//!
//! * Plain scalars, single-quoted scalars, and double-quoted scalars
//!   without escape sequences are `Cow::Borrowed` slices of the original
//!   buffer — parsing a well-formed document allocates only the tree
//!   structure, never the string data.
//! * `Cow::Owned` appears in exactly one case: a double-quoted scalar (or
//!   key) whose body contains a backslash, where unescaping must build a
//!   new string (`"line\nbreak"` → `line<newline>break`).
//! * Every mapping key is interned into a per-document [`Interner`]: equal
//!   key text yields the same [`Symbol`], so duplicate-key detection is a
//!   `u32` comparison and callers can count distinct keys without walking
//!   the tree.
//! * Every node and mapping key carries a [`Span`] (`line`, `column`,
//!   `len`; 1-based line and byte column), and every [`Error`] points at an
//!   exact `line:column` of a real input character.
//!
//! The owned [`Value`]/[`Map`] model is a thin layer on top:
//! [`parse()`] is `parse_document(src).map(Document::into_owned)`, so
//! consumers that do not care about lifetimes or spans keep a plain owned
//! API.
//!
//! # Example
//!
//! ```
//! use wfspeak_wyaml::{parse, parse_document, Value};
//!
//! let src = "tasks:\n  - func: producer\n    nprocs: 3\n";
//!
//! // Owned API — what most of the workspace uses.
//! let doc = parse(src).unwrap();
//! let tasks = doc.get("tasks").unwrap().as_seq().unwrap();
//! assert_eq!(tasks[0].get("func").unwrap().as_str(), Some("producer"));
//! assert_eq!(tasks[0].get("nprocs").unwrap().as_i64(), Some(3));
//!
//! // Borrowed API — zero-copy scalars plus spans.
//! let doc = parse_document(src).unwrap();
//! let func = doc.root().get("tasks").unwrap().as_seq().unwrap()[0]
//!     .get("func")
//!     .unwrap();
//! assert_eq!(func.as_str(), Some("producer"));
//! assert_eq!((func.span.line, func.span.column), (2, 11));
//! assert_eq!(doc.interner().len(), 3); // tasks, func, nprocs
//! ```
//!
//! Errors carry exact positions:
//!
//! ```
//! use wfspeak_wyaml::{parse, ErrorKind};
//!
//! let err = parse("a:\n\tb: 1\n").unwrap_err();
//! assert_eq!(err.kind, ErrorKind::TabIndent);
//! assert_eq!((err.line(), err.column()), (2, 1));
//! ```

pub mod borrowed;
pub mod emit;
pub mod error;
pub mod intern;
pub mod parse;
pub mod span;
pub mod value;

pub use borrowed::{Document, EntryRef, MapRef, Node, ValueRef};
pub use emit::{emit, emit_value};
pub use error::{Error, ErrorKind};
pub use intern::{Interner, Symbol};
pub use parse::{parse, parse_document};
pub use span::Span;
pub use value::{Map, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_simple_document() {
        let src = "name: workflow\ncount: 3\nenabled: true\n";
        let doc = parse(src).unwrap();
        let emitted = emit(&doc);
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(doc, reparsed);
    }

    #[test]
    fn wilkins_style_document_parses() {
        let src = "\
tasks:
  - func: producer
    nprocs: 3
    outports:
      - filename: outfile.h5
        dsets:
          - name: /group1/grid
            file: 0
            memory: 1
  - func: consumer1
    nprocs: 1
    inports:
      - filename: outfile.h5
        dsets:
          - name: /group1/grid
            file: 0
            memory: 1
";
        let doc = parse(src).unwrap();
        let tasks = doc.get("tasks").unwrap().as_seq().unwrap();
        assert_eq!(tasks.len(), 2);
        let outports = tasks[0].get("outports").unwrap().as_seq().unwrap();
        assert_eq!(
            outports[0].get("filename").unwrap().as_str(),
            Some("outfile.h5")
        );
        let dsets = outports[0].get("dsets").unwrap().as_seq().unwrap();
        assert_eq!(dsets[0].get("name").unwrap().as_str(), Some("/group1/grid"));
        assert_eq!(dsets[0].get("memory").unwrap().as_i64(), Some(1));
    }
}
