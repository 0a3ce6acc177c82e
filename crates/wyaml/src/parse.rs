//! The zero-copy, span-carrying parser for the supported YAML subset.
//!
//! [`parse_document`] borrows the input `&str` and produces a tree of
//! [`Node`]s whose scalars are `Cow::Borrowed` slices of the original
//! buffer wherever the text needs no unescaping.
//!
//! The parser is line-oriented: `preprocess` slices the source into
//! `(indent, content, line-number)` triples (no per-line allocation — each
//! `Line` is a `Copy` of two slices' worth of metadata), then a recursive
//! descent over those lines builds block mappings and sequences, handing
//! inline text to the scalar/flow sub-parsers.  Every node records the
//! [`Span`] it started at, and every [`Error`] carries an exact 1-based
//! `line:column` pointing at a real character of the input.
//!
//! Two limits keep hostile input bounded: a collection nested deeper than
//! `MAX_DEPTH` (128) levels and a mapping with more than `MAX_MAPPING_KEYS`
//! (256) keys are refused with [`ErrorKind::Unsupported`], so recursion
//! depth and the duplicate-key scan stay bounded whatever the input.

use std::borrow::Cow;

use crate::borrowed::{EntryRef, MapRef, Node, ValueRef};
use crate::error::{Error, ErrorKind};
use crate::span::Span;

/// The deepest nesting of collections (block or flow, mappings or
/// sequences) the parser accepts; a collection one level deeper is refused
/// at its opening character.  The parser recurses once per level, so this
/// bounds its stack use.
const MAX_DEPTH: usize = 128;

/// The most keys one mapping may hold; the next key is refused at its
/// position.  Duplicate detection scans the mapping being built, so this
/// bounds each key's check.
const MAX_MAPPING_KEYS: usize = 256;

/// Parse a YAML-subset document into its root [`Node`].
///
/// The tree borrows from `source`: plain scalars and quoted scalars without
/// escape sequences are slices of the input buffer.  An empty document
/// (only comments/blank lines) parses to a null root.
pub fn parse_document(source: &str) -> Result<Node<'_>, Error> {
    let lines = preprocess(source)?;
    if lines.is_empty() {
        return Ok(Node::new(ValueRef::Null, Span::new(1, 1, 0)));
    }
    let mut parser = Parser { lines, pos: 0 };
    let root_indent = parser.lines[0].indent;
    let root = parser.parse_node(root_indent, 0)?;
    if parser.pos < parser.lines.len() {
        let line = parser.lines[parser.pos];
        return Err(Error::at(
            ErrorKind::BadIndentation,
            line.number,
            line.indent + 1,
            format!("unexpected content `{}` after document root", line.text),
        ));
    }
    Ok(root)
}

fn too_deep(line: usize, column: usize) -> Error {
    Error::at(
        ErrorKind::Unsupported,
        line,
        column,
        format!("collections nested deeper than {MAX_DEPTH} levels are not supported"),
    )
}

fn too_many_keys(line: usize, column: usize) -> Error {
    Error::at(
        ErrorKind::Unsupported,
        line,
        column,
        format!("mappings with more than {MAX_MAPPING_KEYS} keys are not supported"),
    )
}

/// One significant source line: its indent width, its content (indent and
/// comment stripped) and its 1-based line number.  `Copy` slices — the
/// preprocessing pass allocates nothing per line.
#[derive(Debug, Clone, Copy)]
struct Line<'a> {
    indent: usize,
    text: &'a str,
    number: usize,
}

fn preprocess(source: &str) -> Result<Vec<Line<'_>>, Error> {
    let mut out = Vec::with_capacity(source.len() / 16 + 1);
    let mut seen_doc_marker = false;
    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let stripped = strip_comment(raw);
        let text = stripped.trim_end();
        let trimmed = text.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "---" {
            if seen_doc_marker || !out.is_empty() {
                return Err(Error::at(
                    ErrorKind::Unsupported,
                    number,
                    text.len() - trimmed.len() + 1,
                    "multiple YAML documents are not supported",
                ));
            }
            seen_doc_marker = true;
            continue;
        }
        if trimmed == "..." {
            break;
        }
        let indent_end = text.len() - text.trim_start_matches([' ', '\t']).len();
        if let Some(tab) = text[..indent_end].find('\t') {
            return Err(Error::at(
                ErrorKind::TabIndent,
                number,
                tab + 1,
                "tab character in indentation (indent with spaces)",
            ));
        }
        out.push(Line {
            indent: indent_end,
            text: trimmed,
            number,
        });
    }
    Ok(out)
}

/// Remove a trailing `#` comment that is not inside a quoted scalar.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    // Fast path: most lines carry no `#` at all, and the quote tracking
    // below only exists to decide whether a `#` is a comment.
    if !bytes.contains(&b'#') {
        return line;
    }
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            // An escaped character inside a double-quoted scalar (e.g. `\"`)
            // must not toggle the quote tracker.
            b'\\' if in_double => i += 1,
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            // YAML only treats '#' as a comment when at line start or
            // preceded by whitespace.
            b'#' if !in_single && !in_double && (i == 0 || bytes[i - 1].is_ascii_whitespace()) => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

struct Parser<'a> {
    lines: Vec<Line<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn current(&self) -> Option<Line<'a>> {
        self.lines.get(self.pos).copied()
    }

    /// The span of the block collection starting at the current line, or
    /// the depth error when `depth` collections already enclose it.
    fn open_collection(&self, indent: usize, depth: usize) -> Result<Span, Error> {
        let Some(l) = self.current() else {
            return Ok(Span::new(1, indent + 1, 0));
        };
        if depth >= MAX_DEPTH {
            return Err(too_deep(l.number, l.indent + 1));
        }
        Ok(Span::new(l.number, l.indent + 1, l.text.len()))
    }

    /// Parse the node starting at the current line, which must sit at
    /// exactly `indent`; `depth` collections enclose it.
    fn parse_node(&mut self, indent: usize, depth: usize) -> Result<Node<'a>, Error> {
        let line = match self.current() {
            Some(l) => l,
            None => return Ok(Node::new(ValueRef::Null, Span::new(1, 1, 0))),
        };
        if line.text.starts_with('-')
            && (line.text == "-" || line.text.starts_with("- ") || line.text == "---")
        {
            self.parse_sequence(indent, depth)
        } else if find_mapping_colon(line.text).is_some() {
            self.parse_mapping(indent, depth)
        } else {
            // Single scalar document / nested scalar.
            self.pos += 1;
            parse_scalar(line.text, line.number, line.indent + 1, depth)
        }
    }

    fn parse_mapping(&mut self, indent: usize, depth: usize) -> Result<Node<'a>, Error> {
        let span = self.open_collection(indent, depth)?;
        let mut map = MapRef::with_default_capacity();
        while let Some(line) = self.current() {
            if line.indent < indent {
                break;
            }
            if line.indent > indent {
                return Err(Error::at(
                    ErrorKind::BadIndentation,
                    line.number,
                    line.indent + 1,
                    format!("unexpected indent {} (expected {})", line.indent, indent),
                ));
            }
            if line.text.starts_with("- ") || line.text == "-" {
                break;
            }
            let colon = find_mapping_colon(line.text).ok_or_else(|| {
                Error::at(
                    ErrorKind::ExpectedMapping,
                    line.number,
                    line.indent + 1,
                    format!("`{}` is not a `key: value` entry", line.text),
                )
            })?;
            let raw_key = line.text[..colon].trim();
            // Anchors/aliases/tags are only syntax on *plain* keys; a quoted
            // key beginning with `&` is just a string.
            if raw_key.starts_with(['&', '*', '!']) {
                return Err(Error::at(
                    ErrorKind::Unsupported,
                    line.number,
                    line.indent + 1,
                    "anchors, aliases and tags are not supported",
                ));
            }
            let key = unquote_key(raw_key);
            if map.len() == MAX_MAPPING_KEYS {
                return Err(too_many_keys(line.number, line.indent + 1));
            }
            if map.get(&key).is_some() {
                return Err(Error::at(
                    ErrorKind::DuplicateKey,
                    line.number,
                    line.indent + 1,
                    format!("key `{key}` already defined in this mapping"),
                ));
            }
            let key_span = Span::new(line.number, line.indent + 1, raw_key.len());
            let after = &line.text[colon + 1..];
            let after_start = after.trim_start();
            let rest = after_start.trim_end();
            // Column of the value's first character: indent + key text up to
            // the colon + the colon itself + leading whitespace, 1-based.
            let value_col = line.indent + colon + 1 + (after.len() - after_start.len()) + 1;
            self.pos += 1;
            let node = if rest.is_empty() {
                match self.current() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        self.parse_node(child_indent, depth + 1)?
                    }
                    // A sequence nested under a key may sit at the same
                    // indent as the key (common YAML style).
                    Some(next)
                        if next.indent == indent
                            && (next.text.starts_with("- ") || next.text == "-") =>
                    {
                        self.parse_sequence(indent, depth + 1)?
                    }
                    _ => Node::new(ValueRef::Null, Span::new(line.number, value_col, 0)),
                }
            } else {
                parse_scalar(rest, line.number, value_col, depth + 1)?
            };
            map.push(EntryRef {
                key,
                key_span,
                node,
            });
        }
        Ok(Node::new(ValueRef::Map(map), span))
    }

    fn parse_sequence(&mut self, indent: usize, depth: usize) -> Result<Node<'a>, Error> {
        let span = self.open_collection(indent, depth)?;
        let mut items = Vec::with_capacity(4);
        while let Some(line) = self.current() {
            if line.indent != indent || !(line.text.starts_with("- ") || line.text == "-") {
                if line.indent > indent {
                    return Err(Error::at(
                        ErrorKind::BadIndentation,
                        line.number,
                        line.indent + 1,
                        format!(
                            "unexpected indent {} in sequence (expected {})",
                            line.indent, indent
                        ),
                    ));
                }
                break;
            }
            let content = if line.text == "-" {
                ""
            } else {
                line.text[1..].trim_start()
            };
            if content.is_empty() {
                self.pos += 1;
                let node = match self.current() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        self.parse_node(child_indent, depth + 1)?
                    }
                    _ => Node::new(ValueRef::Null, Span::new(line.number, indent + 2, 0)),
                };
                items.push(node);
            } else {
                // Inline content: re-home it at the content column so a
                // mapping started on the dash line can continue on the
                // following lines.  `content` is a subslice of the line, so
                // this is a pointer-width rewrite, not a reallocation.
                let content_indent = indent + (line.text.len() - content.len());
                self.lines[self.pos] = Line {
                    indent: content_indent,
                    text: content,
                    number: line.number,
                };
                let node = self.parse_node(content_indent, depth + 1)?;
                items.push(node);
            }
        }
        Ok(Node::new(ValueRef::Seq(items), span))
    }
}

/// Locate the colon that separates a mapping key from its value: the first
/// `:` outside quotes that is followed by a space or ends the line.
fn find_mapping_colon(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    // Fast path: until the first quote, bracket or escape, no state
    // tracking is needed — a `:` followed by whitespace (or end of line) is
    // the mapping colon, and any other byte just advances.
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' | b'"' | b'[' | b']' | b'{' | b'}' | b'\\' => {
                return find_mapping_colon_tracked(text)
            }
            b':' if i + 1 == bytes.len() || bytes[i + 1].is_ascii_whitespace() => return Some(i),
            _ => {}
        }
    }
    None
}

/// The full quote/bracket-tracking scan behind [`find_mapping_colon`], used
/// once a line contains syntax the fast path cannot skip over.
fn find_mapping_colon_tracked(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut depth = 0usize;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if in_double => escaped = true,
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'[' | b'{' if !in_single && !in_double => depth += 1,
            b']' | b'}' if !in_single && !in_double => depth = depth.saturating_sub(1),
            b':' if !in_single
                && !in_double
                && depth == 0
                && (i + 1 == bytes.len() || bytes[i + 1].is_ascii_whitespace()) =>
            {
                return Some(i);
            }
            _ => {}
        }
    }
    None
}

fn unquote_key(key: &str) -> Cow<'_, str> {
    let k = key.trim();
    // A double-quoted key must be unescaped the way quoted scalars are
    // (`"a\"b"` is the key `a"b`), but only when the opening quote's real
    // closing quote is the final character — otherwise the quotes are
    // literal content of a plain key.
    if k.len() >= 2 && k.starts_with('"') && find_closing_quote(k) == Some(k.len() - 1) {
        if let Ok(s) = parse_quoted(k, 0, 1) {
            return s;
        }
    }
    if k.len() >= 2 && k.starts_with('\'') && k.ends_with('\'') {
        return Cow::Borrowed(&k[1..k.len() - 1]);
    }
    if k.starts_with('"') && k.ends_with('"') && k.len() >= 2 {
        return Cow::Borrowed(&k[1..k.len() - 1]);
    }
    Cow::Borrowed(k)
}

/// Parse an inline scalar or flow collection.  `col` is the 1-based byte
/// column of `text`'s first character in the source line; `depth`
/// collections enclose it.
fn parse_scalar(text: &str, line: usize, col: usize, depth: usize) -> Result<Node<'_>, Error> {
    let t = text.trim();
    let col = col + (text.len() - text.trim_start().len());
    if t.starts_with('[') || t.starts_with('{') {
        let (node, rest) = parse_flow(t, line, col, depth)?;
        if !rest.trim().is_empty() {
            return Err(Error::at(
                ErrorKind::Other,
                line,
                col + (t.len() - rest.trim_start().len()),
                format!("trailing content `{rest}` after flow collection"),
            ));
        }
        return Ok(node);
    }
    if t.starts_with('"') || t.starts_with('\'') {
        let s = parse_quoted(t, line, col)?;
        return Ok(Node::new(ValueRef::Str(s), Span::new(line, col, t.len())));
    }
    if t == "|" || t == ">" || t.starts_with("| ") || t.starts_with("> ") {
        return Err(Error::at(
            ErrorKind::Unsupported,
            line,
            col,
            "block scalars (`|`, `>`) are not supported",
        ));
    }
    if t.starts_with('&') || t.starts_with('*') || t.starts_with('!') {
        return Err(Error::at(
            ErrorKind::Unsupported,
            line,
            col,
            "anchors, aliases and tags are not supported",
        ));
    }
    Ok(Node::new(
        ValueRef::from_plain(t),
        Span::new(line, col, t.len()),
    ))
}

/// Decode the quoted scalar starting at `t[0]`, borrowing when the text
/// needs no unescaping.  Content after the closing quote is ignored (block
/// context); flow contexts slice `t` to the closing quote before calling.
fn parse_quoted<'a>(t: &'a str, line: usize, col: usize) -> Result<Cow<'a, str>, Error> {
    let quote = t.chars().next().unwrap();
    let Some(end) = find_closing_quote(t) else {
        return Err(Error::at(
            ErrorKind::UnterminatedString,
            line,
            col,
            format!("missing closing `{quote}`"),
        ));
    };
    let inner = &t[1..end];
    if quote == '"' && inner.contains('\\') {
        Ok(Cow::Owned(unescape_double(inner)))
    } else {
        Ok(Cow::Borrowed(inner))
    }
}

/// Resolve the backslash escapes of a double-quoted scalar body.  Only
/// called when `inner` actually contains a backslash — the escape-free case
/// borrows instead.
fn unescape_double(inner: &str) -> String {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parse a flow collection starting at the beginning of `t`, returning the
/// node and the remaining unparsed text.  `col` is the 1-based column of
/// `t`'s first character; error columns are derived from how much of `t`
/// was consumed when the problem surfaced.  `depth` collections enclose
/// this one.
fn parse_flow(t: &str, line: usize, col: usize, depth: usize) -> Result<(Node<'_>, &str), Error> {
    let col = col + (t.len() - t.trim_start().len());
    let t = t.trim_start();
    if depth >= MAX_DEPTH {
        return Err(too_deep(line, col));
    }
    // Column of a suffix of `t` still waiting to be parsed.
    let col_of = |rest: &str| col + (t.len() - rest.len());
    if let Some(first) = t.strip_prefix('[') {
        let mut items = Vec::new();
        let mut rest = first.trim_start();
        loop {
            if let Some(r) = rest.strip_prefix(']') {
                let span = Span::new(line, col, col_of(r) - col);
                return Ok((Node::new(ValueRef::Seq(items), span), r));
            }
            if rest.is_empty() {
                return Err(Error::at(
                    ErrorKind::UnterminatedFlow,
                    line,
                    col,
                    "missing `]`",
                ));
            }
            let (item, r) = parse_flow_item(rest, line, col_of(rest), depth + 1)?;
            items.push(item);
            rest = r.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() && !rest.starts_with(']') {
                // A stray `}` (or any other junk) where `,`/`]` is expected
                // would otherwise re-parse as an empty item forever.
                return Err(Error::at(
                    ErrorKind::Other,
                    line,
                    col_of(rest),
                    format!("expected `,` or `]` in flow sequence, found `{rest}`"),
                ));
            }
        }
    }
    if let Some(first) = t.strip_prefix('{') {
        let mut map = MapRef::new();
        let mut rest = first.trim_start();
        loop {
            if let Some(r) = rest.strip_prefix('}') {
                let span = Span::new(line, col, col_of(r) - col);
                return Ok((Node::new(ValueRef::Map(map), span), r));
            }
            if rest.is_empty() {
                return Err(Error::at(
                    ErrorKind::UnterminatedFlow,
                    line,
                    col,
                    "missing `}`",
                ));
            }
            let colon = find_flow_colon(rest).ok_or_else(|| {
                Error::at(
                    ErrorKind::ExpectedMapping,
                    line,
                    col_of(rest),
                    "flow mapping entry missing `:`",
                )
            })?;
            let raw_key = rest[..colon].trim();
            let key_col = col_of(rest);
            let key = if raw_key.starts_with('"') || raw_key.starts_with('\'') {
                parse_quoted(raw_key, line, key_col)?
            } else {
                unquote_key(raw_key)
            };
            if map.len() == MAX_MAPPING_KEYS {
                return Err(too_many_keys(line, key_col));
            }
            if map.get(&key).is_some() {
                return Err(Error::at(
                    ErrorKind::DuplicateKey,
                    line,
                    key_col,
                    format!("key `{key}` already defined in this flow mapping"),
                ));
            }
            let key_span = Span::new(line, key_col, raw_key.len());
            let after = rest[colon + 1..].trim_start();
            if after.starts_with('}') {
                map.push(EntryRef {
                    key,
                    key_span,
                    node: Node::new(ValueRef::Null, Span::new(line, col_of(after), 0)),
                });
                rest = after;
                continue;
            }
            let (val, r) = parse_flow_item(after, line, col_of(after), depth + 1)?;
            map.push(EntryRef {
                key,
                key_span,
                node: val,
            });
            rest = r.trim_start();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim_start();
            } else if !rest.is_empty() && !rest.starts_with('}') {
                return Err(Error::at(
                    ErrorKind::Other,
                    line,
                    col_of(rest),
                    format!("expected `,` or `}}` in flow mapping, found `{rest}`"),
                ));
            }
        }
    }
    Err(Error::at(
        ErrorKind::Other,
        line,
        col,
        "expected flow collection",
    ))
}

fn parse_flow_item(
    t: &str,
    line: usize,
    col: usize,
    depth: usize,
) -> Result<(Node<'_>, &str), Error> {
    let col = col + (t.len() - t.trim_start().len());
    let t = t.trim_start();
    if t.starts_with('[') || t.starts_with('{') {
        return parse_flow(t, line, col, depth);
    }
    if t.starts_with('"') || t.starts_with('\'') {
        let quote = t.chars().next().unwrap();
        // Find the closing quote, honouring backslash escapes so a scalar
        // like `"a\"b"` does not terminate at the escaped quote.
        if let Some(end) = find_closing_quote(t) {
            let s = parse_quoted(&t[..=end], line, col)?;
            let node = Node::new(ValueRef::Str(s), Span::new(line, col, end + 1));
            return Ok((node, &t[end + 1..]));
        }
        return Err(Error::at(
            ErrorKind::UnterminatedString,
            line,
            col,
            format!("missing closing `{quote}` in flow scalar"),
        ));
    }
    // Plain flow scalar ends at ',', ']' or '}'.
    let end = t.find([',', ']', '}']).unwrap_or(t.len());
    let node = Node::new(ValueRef::from_plain(&t[..end]), Span::new(line, col, end));
    Ok((node, &t[end..]))
}

/// Byte index of the quote closing the quoted scalar that starts at `t[0]`,
/// skipping backslash-escaped characters inside double quotes.
fn find_closing_quote(t: &str) -> Option<usize> {
    let bytes = t.as_bytes();
    let quote = *bytes.first()?;
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i] == b'\\' && quote == b'"' {
            i += 2;
        } else if bytes[i] == quote {
            return Some(i);
        } else {
            i += 1;
        }
    }
    None
}

/// Locate the colon separating a flow-mapping key from its value: the first
/// `:` after the key scalar.  A quoted key can only *start* at the beginning
/// of the entry; quote characters later in a plain key (`it's`) are literal.
fn find_flow_colon(t: &str) -> Option<usize> {
    let bytes = t.as_bytes();
    let mut i = 0;
    if matches!(bytes.first(), Some(b'"') | Some(b'\'')) {
        i = find_closing_quote(t)? + 1;
    }
    bytes[i..].iter().position(|&b| b == b':').map(|p| i + p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The node at a `/`-separated path of map keys and sequence indices,
    /// e.g. `tasks/0/func`.
    fn lookup<'d>(root: &'d Node<'d>, path: &str) -> Option<&'d Node<'d>> {
        let mut current = root;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            current = match &current.value {
                ValueRef::Map(m) => m.get(part)?,
                ValueRef::Seq(s) => s.get(part.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(current)
    }

    /// The value at `path` (see [`lookup`]).
    fn value<'d>(root: &'d Node<'d>, path: &str) -> Option<&'d ValueRef<'d>> {
        lookup(root, path).map(|n| &n.value)
    }

    fn string(s: &str) -> ValueRef<'_> {
        ValueRef::Str(Cow::Borrowed(s))
    }

    /// The values of a sequence node's items.
    fn items<'d>(node: &'d Node<'d>) -> Vec<&'d ValueRef<'d>> {
        node.as_seq().unwrap().iter().map(|n| &n.value).collect()
    }

    fn parse_err(src: &str) -> Error {
        parse_document(src).unwrap_err()
    }

    #[test]
    fn empty_and_comment_only_documents_are_null() {
        assert_eq!(parse_document("").unwrap().value, ValueRef::Null);
        assert_eq!(
            parse_document("# just a comment\n\n").unwrap().value,
            ValueRef::Null
        );
    }

    #[test]
    fn scalar_document() {
        assert_eq!(parse_document("42").unwrap().value, ValueRef::Int(42));
        assert_eq!(parse_document("hello").unwrap().value, string("hello"));
    }

    #[test]
    fn simple_mapping() {
        let doc = parse_document("a: 1\nb: two\nc: true\nd:\n").unwrap();
        assert_eq!(value(&doc, "a"), Some(&ValueRef::Int(1)));
        assert_eq!(value(&doc, "b"), Some(&string("two")));
        assert_eq!(value(&doc, "c"), Some(&ValueRef::Bool(true)));
        assert_eq!(value(&doc, "d"), Some(&ValueRef::Null));
    }

    #[test]
    fn nested_mapping() {
        let doc = parse_document("outer:\n  inner:\n    leaf: 5\n").unwrap();
        assert_eq!(value(&doc, "outer/inner/leaf"), Some(&ValueRef::Int(5)));
    }

    #[test]
    fn sequence_of_scalars() {
        let doc = parse_document("- 1\n- 2\n- three\n").unwrap();
        assert_eq!(
            items(&doc),
            [&ValueRef::Int(1), &ValueRef::Int(2), &string("three")]
        );
    }

    #[test]
    fn sequence_of_mappings_with_inline_first_key() {
        let doc = parse_document("- func: producer\n  nprocs: 3\n- func: consumer\n  nprocs: 1\n")
            .unwrap();
        let seq = doc.as_seq().unwrap();
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0].get("nprocs").and_then(Node::as_i64), Some(3));
        assert_eq!(seq[1].get("func").unwrap().as_str(), Some("consumer"));
    }

    #[test]
    fn sequence_under_key_at_same_indent() {
        let doc = parse_document("tasks:\n- a\n- b\n").unwrap();
        let tasks = doc.get("tasks").unwrap().as_seq().unwrap();
        assert_eq!(tasks.len(), 2);
    }

    #[test]
    fn sequence_under_key_indented() {
        let doc = parse_document("tasks:\n  - a\n  - b\nother: 1\n").unwrap();
        assert_eq!(doc.get("tasks").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(value(&doc, "other"), Some(&ValueRef::Int(1)));
    }

    #[test]
    fn nested_sequences_via_dash_dash() {
        let doc = parse_document("-\n  - 1\n  - 2\n- 3\n").unwrap();
        let seq = doc.as_seq().unwrap();
        assert_eq!(seq[0].as_seq().unwrap().len(), 2);
        assert_eq!(seq[1].value, ValueRef::Int(3));
    }

    #[test]
    fn flow_sequence_and_mapping() {
        let doc = parse_document("dims: [64, 64, 64]\nmeta: {owner: sim, level: 2}\n").unwrap();
        assert_eq!(
            items(doc.get("dims").unwrap()),
            [&ValueRef::Int(64), &ValueRef::Int(64), &ValueRef::Int(64)]
        );
        assert_eq!(lookup(&doc, "meta/owner").unwrap().as_str(), Some("sim"));
        assert_eq!(value(&doc, "meta/level"), Some(&ValueRef::Int(2)));
    }

    #[test]
    fn empty_flow_collections() {
        let doc = parse_document("grid: {}\nitems: []\n").unwrap();
        assert_eq!(value(&doc, "grid"), Some(&ValueRef::Map(MapRef::new())));
        assert_eq!(value(&doc, "items"), Some(&ValueRef::Seq(vec![])));
    }

    #[test]
    fn quoted_scalars_and_escapes() {
        let doc =
            parse_document("a: \"hello: world\"\nb: 'single # not comment'\nc: \"line\\nbreak\"\n")
                .unwrap();
        assert_eq!(doc.get("a").unwrap().as_str(), Some("hello: world"));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("single # not comment"));
        assert_eq!(doc.get("c").unwrap().as_str(), Some("line\nbreak"));
    }

    #[test]
    fn flow_scalar_with_escaped_quote_parses() {
        // Regression: the closing-quote scan used to stop at the escaped
        // quote and report UnterminatedString for `k: ["a\"b", 1]`.
        let doc = parse_document("k: [\"a\\\"b\", 1]\n").unwrap();
        assert_eq!(
            items(doc.get("k").unwrap()),
            [&string("a\"b"), &ValueRef::Int(1)]
        );
    }

    #[test]
    fn flow_mapping_key_with_colon_inside_quotes() {
        // Regression: the entry used to split at the first `:` even inside
        // quotes, mis-parsing `m: {"a:b": 1}` as key `"a` / value `b": 1`.
        let doc = parse_document("m: {\"a:b\": 1}\n").unwrap();
        let m = doc.get("m").unwrap();
        assert_eq!(m.get("a:b").and_then(Node::as_i64), Some(1));
        assert_eq!(m.as_map().map(|m| m.len()), Some(1));
    }

    #[test]
    fn plain_flow_key_with_interior_quote_chars_stays_plain() {
        // A quote only opens a quoted scalar at the start of the key; an
        // apostrophe mid-token (`it's`) is a literal character.
        let doc = parse_document("m: {it's: 1, don\"t: 2}\n").unwrap();
        let m = doc.get("m").unwrap();
        assert_eq!(m.get("it's").and_then(Node::as_i64), Some(1));
        assert_eq!(m.get("don\"t").and_then(Node::as_i64), Some(2));
    }

    #[test]
    fn flow_mapping_value_with_escaped_quote_and_comma() {
        let doc = parse_document("m: {k: \"a\\\"b, c\", n: 2}\n").unwrap();
        let m = doc.get("m").unwrap();
        assert_eq!(m.get("k").unwrap().as_str(), Some("a\"b, c"));
        assert_eq!(m.get("n").and_then(Node::as_i64), Some(2));
    }

    #[test]
    fn escaped_quote_does_not_confuse_comment_stripping() {
        // `\"` must not toggle the quote tracker, or the ` # ` inside the
        // later scalar would be stripped as a comment.
        let doc = parse_document("k: [\"a\\\"b\", \"x # y\"]\n").unwrap();
        assert_eq!(items(doc.get("k").unwrap())[1], &string("x # y"));
    }

    #[test]
    fn comments_are_stripped() {
        let doc = parse_document("a: 1 # trailing\n# full line\nb: 2\n").unwrap();
        assert_eq!(value(&doc, "a"), Some(&ValueRef::Int(1)));
        assert_eq!(value(&doc, "b"), Some(&ValueRef::Int(2)));
    }

    #[test]
    fn hash_inside_plain_scalar_not_a_comment() {
        let doc = parse_document("path: /group#1/grid\n").unwrap();
        assert_eq!(doc.get("path").unwrap().as_str(), Some("/group#1/grid"));
    }

    #[test]
    fn leading_document_marker_allowed() {
        let doc = parse_document("---\na: 1\n").unwrap();
        assert_eq!(value(&doc, "a"), Some(&ValueRef::Int(1)));
    }

    #[test]
    fn multiple_documents_rejected() {
        let err = parse_err("a: 1\n---\nb: 2\n");
        assert_eq!(err.kind, ErrorKind::Unsupported);
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = parse_err("a: 1\na: 2\n");
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn duplicate_keys_rejected_in_nested_block_mappings() {
        let err = parse_err("outer:\n  inner:\n    a: 1\n    a: 2\n");
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        assert_eq!((err.line(), err.column()), (4, 5));
        // Also inside mappings that are sequence items.
        let err = parse_err("tasks:\n  - func: x\n    func: y\n");
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        assert_eq!(err.line(), 3);
        // Same key in *sibling* mappings is fine.
        assert!(parse_document("a:\n  k: 1\nb:\n  k: 2\n").is_ok());
    }

    #[test]
    fn duplicate_keys_rejected_in_flow_mappings() {
        // Regression: the old parser silently kept the last value.
        let err = parse_err("m: {a: 1, a: 2}\n");
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        // Column of the second `a`.
        assert_eq!((err.line(), err.column()), (1, 11));
        // Nested flow mappings check their own scope only.
        assert!(parse_document("m: {a: {a: 1}}\n").is_ok());
        let err = parse_err("m: {o: {x: 1, x: 2}}\n");
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        assert_eq!((err.line(), err.column()), (1, 15));
    }

    #[test]
    fn tabs_in_indentation_are_a_typed_error() {
        let err = parse_err("a:\n\tb: 1\n");
        assert_eq!(err.kind, ErrorKind::TabIndent);
        // Column of the tab itself, including tabs after spaces.
        assert_eq!((err.line(), err.column()), (2, 1));
        let err = parse_err("a:\n  \tb: 1\n");
        assert_eq!(err.kind, ErrorKind::TabIndent);
        assert_eq!((err.line(), err.column()), (2, 3));
    }

    #[test]
    fn unterminated_string_rejected() {
        let err = parse_err("a: \"oops\n");
        assert_eq!(err.kind, ErrorKind::UnterminatedString);
        // Column points at the opening quote.
        assert_eq!(err.column(), 4);
    }

    #[test]
    fn unterminated_flow_rejected() {
        let err = parse_err("a: [1, 2\n");
        assert_eq!(err.kind, ErrorKind::UnterminatedFlow);
        // Column points at the opening bracket.
        assert_eq!(err.column(), 4);
    }

    #[test]
    fn errors_carry_columns() {
        // Duplicate key: column of the key on the offending line.
        let err = parse_err("a: 1\na: 2\n");
        assert_eq!((err.line(), err.column()), (2, 1));
        // Bad indentation: column of the over-indented content.
        let err = parse_err("a: 1\n   b: 2\n");
        assert_eq!((err.line(), err.column()), (2, 4));
        // Tab in indentation: column of the tab itself.
        let err = parse_err("a:\n\tb: 1\n");
        assert_eq!((err.line(), err.column()), (2, 1));
        // Unterminated string in a nested value: column of its quote.
        let err = parse_err("outer:\n  inner: \"x\n");
        assert_eq!((err.line(), err.column()), (2, 10));
        // Stray closer in a flow sequence: column of the junk.
        let err = parse_err("a: [1}, 2]\n");
        assert_eq!((err.line(), err.column()), (1, 6));
        // Block scalar: column of the indicator.
        let err = parse_err("a: |\n  text\n");
        assert_eq!((err.line(), err.column()), (1, 4));
    }

    #[test]
    fn mismatched_flow_closer_terminates_with_an_error() {
        // Regression: a `}` where a sequence expected `,`/`]` used to
        // re-parse as an empty item forever (unbounded memory, no progress).
        // Found by the arbitrary-text property test at high case counts.
        let err = parse_err("[BX`JKC=e(}+|!&*Z'k");
        assert!(matches!(
            err.kind,
            ErrorKind::Other | ErrorKind::UnterminatedFlow
        ));
        assert!(parse_document("a: [1}, 2]\n").is_err());
        assert!(parse_document("a: {k: 1] }\n").is_err());
        // Well-formed flow text keeps parsing.
        assert!(parse_document("a: [1, 2]\nb: {k: 1}\n").is_ok());
    }

    #[test]
    fn block_scalars_rejected() {
        let err = parse_err("a: |\n  text\n");
        assert_eq!(err.kind, ErrorKind::Unsupported);
    }

    #[test]
    fn anchors_rejected() {
        let err = parse_err("a: &anchor 1\n");
        assert_eq!(err.kind, ErrorKind::Unsupported);
    }

    #[test]
    fn bad_indentation_in_mapping_rejected() {
        let err = parse_err("a: 1\n   b: 2\n");
        assert_eq!(err.kind, ErrorKind::BadIndentation);
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn colon_in_value_without_space_is_part_of_scalar() {
        let doc = parse_document("url: http://example.org\n").unwrap();
        assert_eq!(doc.get("url").unwrap().as_str(), Some("http://example.org"));
    }

    #[test]
    fn keys_with_quotes() {
        let doc = parse_document("\"quoted key\": 1\n").unwrap();
        assert_eq!(value(&doc, "quoted key"), Some(&ValueRef::Int(1)));
    }

    #[test]
    fn deep_wilkins_like_nesting() {
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
          - name: /group1/particles
            file: 0
            memory: 1
";
        let doc = parse_document(src).unwrap();
        let dsets = lookup(&doc, "tasks/0/outports/0/dsets").unwrap();
        assert_eq!(dsets.as_seq().unwrap().len(), 2);
        assert_eq!(
            lookup(&doc, "tasks/0/outports/0/dsets/1/name")
                .unwrap()
                .as_str(),
            Some("/group1/particles")
        );
    }

    #[test]
    fn adios2_style_engine_parameters() {
        let src = "\
io:
  name: SimulationOutput
  engine:
    type: SST
    parameters:
      RendezvousReaderCount: 1
      QueueLimit: 5
variables:
  - name: array
    shape: [4, 50]
    type: float
";
        let doc = parse_document(src).unwrap();
        assert_eq!(
            lookup(&doc, "io/engine/type").unwrap().as_str(),
            Some("SST")
        );
        assert_eq!(
            value(&doc, "io/engine/parameters/QueueLimit"),
            Some(&ValueRef::Int(5))
        );
        assert_eq!(value(&doc, "variables/0/shape/1"), Some(&ValueRef::Int(50)));
    }

    // ---- zero-copy / span behaviour ------------------------------------

    /// True when `slice` points into `buffer`'s allocation.
    fn is_slice_of(slice: &str, buffer: &str) -> bool {
        let b = buffer.as_ptr() as usize;
        let s = slice.as_ptr() as usize;
        s >= b && s + slice.len() <= b + buffer.len()
    }

    #[test]
    fn plain_scalars_borrow_from_the_source_buffer() {
        let src = "name: workflow\npath: /group1/grid\nitems: [alpha, beta]\n".to_owned();
        let doc = parse_document(&src).unwrap();
        for path in ["name", "path"] {
            let node = doc.get(path).unwrap();
            match &node.value {
                ValueRef::Str(Cow::Borrowed(s)) => assert!(is_slice_of(s, &src), "{path}"),
                other => panic!("expected borrowed scalar for `{path}`, got {other:?}"),
            }
        }
        let items = doc.get("items").unwrap().as_seq().unwrap();
        for item in items {
            match &item.value {
                ValueRef::Str(Cow::Borrowed(s)) => assert!(is_slice_of(s, &src)),
                other => panic!("expected borrowed flow scalar, got {other:?}"),
            }
        }
    }

    #[test]
    fn quoted_scalars_borrow_unless_escaped() {
        let src = "a: \"plain text\"\nb: 'single'\nc: \"needs\\nunescape\"\n".to_owned();
        let doc = parse_document(&src).unwrap();
        match &doc.get("a").unwrap().value {
            ValueRef::Str(Cow::Borrowed(s)) => {
                assert_eq!(*s, "plain text");
                assert!(is_slice_of(s, &src));
            }
            other => panic!("expected borrowed double-quoted scalar, got {other:?}"),
        }
        match &doc.get("b").unwrap().value {
            ValueRef::Str(Cow::Borrowed(s)) => assert!(is_slice_of(s, &src)),
            other => panic!("expected borrowed single-quoted scalar, got {other:?}"),
        }
        match &doc.get("c").unwrap().value {
            ValueRef::Str(Cow::Owned(s)) => assert_eq!(s, "needs\nunescape"),
            other => panic!("expected owned unescaped scalar, got {other:?}"),
        }
    }

    #[test]
    fn nodes_carry_spans() {
        let src = "a: 1\nb:\n  - x\n  - y\nc: [1, 2]\n";
        let root = parse_document(src).unwrap();
        assert_eq!(root.span.position(), (1, 1));
        assert_eq!(root.get("a").unwrap().span, Span::new(1, 4, 1));
        let b = root.get("b").unwrap();
        assert_eq!(b.span.position(), (3, 3));
        assert_eq!(b.as_seq().unwrap()[1].span.position(), (4, 5));
        let c = root.get("c").unwrap();
        assert_eq!(c.span, Span::new(5, 4, 6));
        assert_eq!(c.as_seq().unwrap()[0].span.position(), (5, 5));
        assert_eq!(c.as_seq().unwrap()[1].span.position(), (5, 8));
        let key_spans: Vec<Span> = root.as_map().unwrap().iter().map(|e| e.key_span).collect();
        assert_eq!(key_spans[0], Span::new(1, 1, 1));
        assert_eq!(key_spans[1], Span::new(2, 1, 1));
        assert_eq!(key_spans[2], Span::new(5, 1, 1));
    }

    #[test]
    fn spans_are_in_document_order() {
        let src = "\
tasks:
  - func: producer
    nprocs: 3
    outports:
      - filename: outfile.h5
        dsets: [a, b]
meta: {owner: sim, level: 2}
";
        let spans = parse_document(src).unwrap().spans();
        let positions: Vec<_> = spans.iter().map(Span::position).collect();
        let mut sorted = positions.clone();
        sorted.sort();
        assert_eq!(positions, sorted, "pre-order spans must be non-decreasing");
    }

    /// The borrowed tree holds the keys and values an owned copy of this
    /// document held, and every string is still a slice of the source.
    #[test]
    fn owned_and_borrowed_apis_agree() {
        use ValueRef::{Bool, Float, Int, Null};
        let src = "\
io:
  engine: {type: SST, params: [1, 2.5, true, null]}
  name: \"Simulation Output\"
tasks:
  - func: producer
";
        let root = parse_document(src).unwrap();
        let keys = |path| -> Vec<&str> {
            let map = lookup(&root, path).unwrap().as_map().unwrap();
            map.iter().map(|e| e.key.as_ref()).collect()
        };
        assert_eq!(keys(""), ["io", "tasks"]);
        assert_eq!(keys("io"), ["engine", "name"]);
        assert_eq!(keys("io/engine"), ["type", "params"]);
        assert_eq!(keys("tasks/0"), ["func"]);
        assert_eq!(items(lookup(&root, "tasks").unwrap()).len(), 1);
        let params = items(lookup(&root, "io/engine/params").unwrap());
        assert_eq!(params, [&Int(1), &Float(2.5), &Bool(true), &Null]);
        let strings =
            ["io/engine/type", "io/name", "tasks/0/func"].map(|p| match value(&root, p) {
                Some(ValueRef::Str(Cow::Borrowed(s))) if is_slice_of(s, src) => *s,
                other => panic!("expected a borrowed slice at `{p}`, got {other:?}"),
            });
        assert_eq!(strings, ["SST", "Simulation Output", "producer"]);
    }
}
