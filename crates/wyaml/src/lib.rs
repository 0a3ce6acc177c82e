//! `wfspeak-wyaml` — a minimal, from-scratch YAML-subset parser built
//! around a zero-copy, span-carrying document model.
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
//! * `#` comments and blank lines.
//!
//! Out of scope (and rejected with an error where detectable): anchors,
//! aliases, tags, multi-document streams, block scalars (`|`, `>`), tabs in
//! block indentation ([`ErrorKind::TabIndent`]).
//!
//! Two limits bound the work any input can cause, and are refused with
//! [`ErrorKind::Unsupported`]: collections nested deeper than 128 levels,
//! refused at the opening character of the first collection too deep, and
//! mappings with more than 256 keys, refused at the first key past the
//! limit.
//!
//! # The document model
//!
//! [`parse_document`] returns the root [`Node`]`<'a>` of a tree that
//! **borrows from the input `&'a str`**:
//!
//! * Plain scalars, single-quoted scalars, and double-quoted scalars
//!   without escape sequences are `Cow::Borrowed` slices of the original
//!   buffer — parsing a well-formed document allocates only the tree
//!   structure, never the string data.
//! * `Cow::Owned` appears in exactly one case: a double-quoted scalar (or
//!   key) whose body contains a backslash, where unescaping must build a
//!   new string (`"line\nbreak"` → `line<newline>break`).
//! * Every node and mapping key carries a [`Span`] (`line`, `column`,
//!   `len`; 1-based line and byte column), and every [`Error`] points at an
//!   exact `line:column` of a real input character.
//!
//! # Example
//!
//! ```
//! use wfspeak_wyaml::parse_document;
//!
//! let src = "tasks:\n  - func: producer\n    nprocs: 3\n";
//! let root = parse_document(src).unwrap();
//! let task = &root.get("tasks").unwrap().as_seq().unwrap()[0];
//! let func = task.get("func").unwrap();
//! assert_eq!(func.as_str(), Some("producer"));
//! assert_eq!((func.span.line, func.span.column), (2, 11));
//! assert_eq!(task.get("nprocs").unwrap().as_i64(), Some(3));
//! assert_eq!(task.type_name(), "mapping");
//! ```
//!
//! Errors carry exact positions:
//!
//! ```
//! use wfspeak_wyaml::{parse_document, ErrorKind};
//!
//! let err = parse_document("a:\n\tb: 1\n").unwrap_err();
//! assert_eq!(err.kind, ErrorKind::TabIndent);
//! assert_eq!((err.line(), err.column()), (2, 1));
//! ```

pub mod borrowed;
pub mod error;
pub mod parse;
pub mod span;

pub use borrowed::{EntryRef, MapRef, Node, ValueRef};
pub use error::{Error, ErrorKind};
pub use parse::parse_document;
pub use span::Span;

#[cfg(test)]
mod tests {
    use super::*;

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
        let doc = parse_document(src).unwrap();
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
