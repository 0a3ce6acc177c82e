//! The pre-rewrite owned-`String` parser, preserved verbatim as a test
//! oracle.
//!
//! The differential properties in `spans_and_differential.rs` parse every
//! generated document with both parsers and require the zero-copy parser
//! (`wfspeak_wyaml::parse_document`) to be a refinement of this one:
//! whenever the new parser accepts, the baseline must accept with the same
//! value, and whenever the baseline rejects, the new parser must reject
//! too.  It is built from the crate's public `Error` and `ErrorKind` and
//! the test-support owned tree (`owned::Map`, `owned::Value`), which is
//! what the zero-copy parser's result is converted to for comparison.
//!
//! It deliberately retains the old parser's two known bugs (fixed in the
//! zero-copy parser): tabs in indentation are reported as plain
//! [`ErrorKind::BadIndentation`] rather than [`ErrorKind::TabIndent`], and
//! duplicate keys in *flow* mappings (`{a: 1, a: 2}`) are silently
//! last-wins instead of rejected.  Do not fix them here; the differential
//! properties are written to tolerate exactly these two divergences.

use wfspeak_wyaml::{Error, ErrorKind};

use crate::owned::{Map, Value};

/// Parse a YAML-subset document with the pre-rewrite owned parser.
///
/// An empty document (only comments/blank lines) parses to [`Value::Null`].
pub fn parse(source: &str) -> Result<Value, Error> {
    let lines = preprocess(source)?;
    if lines.is_empty() {
        return Ok(Value::Null);
    }
    let mut parser = Parser { lines, pos: 0 };
    let root_indent = parser.lines[0].indent;
    let value = parser.parse_node(root_indent)?;
    if parser.pos < parser.lines.len() {
        let line = &parser.lines[parser.pos];
        return Err(Error::at(
            ErrorKind::BadIndentation,
            line.number,
            line.indent + 1,
            format!("unexpected content `{}` after document root", line.text),
        ));
    }
    Ok(value)
}

#[derive(Debug, Clone)]
struct Line {
    indent: usize,
    text: String,
    number: usize,
}

fn preprocess(source: &str) -> Result<Vec<Line>, Error> {
    let mut out = Vec::new();
    let mut seen_doc_marker = false;
    for (idx, raw) in source.lines().enumerate() {
        let number = idx + 1;
        let stripped = strip_comment(raw);
        let text = stripped.trim_end();
        if text.trim().is_empty() {
            continue;
        }
        let trimmed = text.trim_start();
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
        let indent_str: String = text
            .chars()
            .take_while(|c| *c == ' ' || *c == '\t')
            .collect();
        if let Some(tab) = indent_str.find('\t') {
            return Err(Error::at(
                ErrorKind::BadIndentation,
                number,
                tab + 1,
                "tabs are not allowed in indentation",
            ));
        }
        out.push(Line {
            indent: indent_str.len(),
            text: trimmed.to_owned(),
            number,
        });
    }
    Ok(out)
}

/// Remove a trailing `#` comment that is not inside a quoted scalar.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
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

struct Parser {
    lines: Vec<Line>,
    pos: usize,
}

impl Parser {
    fn current(&self) -> Option<&Line> {
        self.lines.get(self.pos)
    }

    /// Parse the node starting at the current line, which must sit at
    /// exactly `indent`.
    fn parse_node(&mut self, indent: usize) -> Result<Value, Error> {
        let line = match self.current() {
            Some(l) => l.clone(),
            None => return Ok(Value::Null),
        };
        if line.text.starts_with('-')
            && (line.text == "-" || line.text.starts_with("- ") || line.text == "---")
        {
            self.parse_sequence(indent)
        } else if find_mapping_colon(&line.text).is_some() {
            self.parse_mapping(indent)
        } else {
            // Single scalar document / nested scalar.
            self.pos += 1;
            parse_scalar(&line.text, line.number, line.indent + 1)
        }
    }

    fn parse_mapping(&mut self, indent: usize) -> Result<Value, Error> {
        let mut map = Map::new();
        while let Some(line) = self.current().cloned() {
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
            let colon = find_mapping_colon(&line.text).ok_or_else(|| {
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
            if map.contains_key(&key) {
                return Err(Error::at(
                    ErrorKind::DuplicateKey,
                    line.number,
                    line.indent + 1,
                    format!("key `{key}` already defined in this mapping"),
                ));
            }
            let after = &line.text[colon + 1..];
            let rest = after.trim();
            // Column of the value's first character: indent + key text up to
            // the colon + the colon itself + leading whitespace, 1-based.
            let value_col = line.indent + colon + 1 + (after.len() - after.trim_start().len()) + 1;
            self.pos += 1;
            let value = if rest.is_empty() {
                match self.current() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        self.parse_node(child_indent)?
                    }
                    // A sequence nested under a key may sit at the same
                    // indent as the key (common YAML style).
                    Some(next)
                        if next.indent == indent
                            && (next.text.starts_with("- ") || next.text == "-") =>
                    {
                        self.parse_sequence(indent)?
                    }
                    _ => Value::Null,
                }
            } else {
                parse_scalar(rest, line.number, value_col)?
            };
            map.insert(key, value);
        }
        Ok(Value::Map(map))
    }

    fn parse_sequence(&mut self, indent: usize) -> Result<Value, Error> {
        let mut items = Vec::new();
        while let Some(line) = self.current().cloned() {
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
                let value = match self.current() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        self.parse_node(child_indent)?
                    }
                    _ => Value::Null,
                };
                items.push(value);
            } else {
                // Inline content: re-home it at the content column so a
                // mapping started on the dash line can continue on the
                // following lines.
                let content_indent = indent + (line.text.len() - content.len());
                self.lines[self.pos] = Line {
                    indent: content_indent,
                    text: content.to_owned(),
                    number: line.number,
                };
                let value = self.parse_node(content_indent)?;
                items.push(value);
            }
        }
        Ok(Value::Seq(items))
    }
}

/// Locate the colon that separates a mapping key from its value: the first
/// `:` outside quotes that is followed by a space or ends the line.
fn find_mapping_colon(text: &str) -> Option<usize> {
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

fn unquote_key(key: &str) -> String {
    let k = key.trim();
    // A double-quoted key must be unescaped the way quoted scalars are
    // (`"a\"b"` is the key `a"b`), but only when the opening quote's real
    // closing quote is the final character — otherwise the quotes are
    // literal content of a plain key.
    if k.len() >= 2 && k.starts_with('"') && find_closing_quote(k) == Some(k.len() - 1) {
        if let Ok(Value::Str(s)) = parse_quoted(k, 0, 1) {
            return s;
        }
    }
    if k.len() >= 2 && k.starts_with('\'') && k.ends_with('\'') {
        return k[1..k.len() - 1].to_owned();
    }
    if k.starts_with('"') && k.ends_with('"') && k.len() >= 2 {
        return k[1..k.len() - 1].to_owned();
    }
    k.to_owned()
}

/// Parse an inline scalar or flow collection.  `col` is the 1-based byte
/// column of `text`'s first character in the source line.
fn parse_scalar(text: &str, line: usize, col: usize) -> Result<Value, Error> {
    let t = text.trim();
    let col = col + (text.len() - text.trim_start().len());
    if t.starts_with('[') || t.starts_with('{') {
        let (value, rest) = parse_flow(t, line, col)?;
        if !rest.trim().is_empty() {
            return Err(Error::at(
                ErrorKind::Other,
                line,
                col + (t.len() - rest.trim_start().len()),
                format!("trailing content `{rest}` after flow collection"),
            ));
        }
        return Ok(value);
    }
    if t.starts_with('"') || t.starts_with('\'') {
        return parse_quoted(t, line, col);
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
    Ok(plain_scalar(t))
}

/// Interpret a plain (unquoted) scalar string, resolving null, booleans
/// and numbers the way YAML 1.1 core schema does for the common cases.
pub fn plain_scalar(s: &str) -> Value {
    let t = s.trim();
    match t {
        "" | "~" | "null" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Int(i);
    }
    // Only treat as float if it looks numeric (avoid "1.0.0" or version
    // strings being mangled).
    if t.parse::<f64>().is_ok()
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
    {
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
    }
    Value::Str(t.to_owned())
}

fn parse_quoted(t: &str, line: usize, col: usize) -> Result<Value, Error> {
    let quote = t.chars().next().unwrap();
    let inner = &t[1..];
    let mut out = String::new();
    let mut chars = inner.chars();
    let mut closed = false;
    while let Some(c) = chars.next() {
        if c == quote {
            closed = true;
            break;
        }
        if quote == '"' && c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    if !closed {
        return Err(Error::at(
            ErrorKind::UnterminatedString,
            line,
            col,
            format!("missing closing `{quote}`"),
        ));
    }
    Ok(Value::Str(out))
}

/// Parse a flow collection starting at the beginning of `t`, returning the
/// value and the remaining unparsed text.  `col` is the 1-based column of
/// `t`'s first character; error columns are derived from how much of `t`
/// was consumed when the problem surfaced.
fn parse_flow(t: &str, line: usize, col: usize) -> Result<(Value, &str), Error> {
    let col = col + (t.len() - t.trim_start().len());
    let t = t.trim_start();
    // Column of a suffix of `t` still waiting to be parsed.
    let col_of = |rest: &str| col + (t.len() - rest.len());
    if let Some(rest) = t.strip_prefix('[') {
        let mut items = Vec::new();
        let mut rest = rest.trim_start();
        loop {
            if let Some(r) = rest.strip_prefix(']') {
                return Ok((Value::Seq(items), r));
            }
            if rest.is_empty() {
                return Err(Error::at(
                    ErrorKind::UnterminatedFlow,
                    line,
                    col,
                    "missing `]`",
                ));
            }
            let (item, r) = parse_flow_item(rest, line, col_of(rest))?;
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
    if let Some(rest) = t.strip_prefix('{') {
        let mut map = Map::new();
        let mut rest = rest.trim_start();
        loop {
            if let Some(r) = rest.strip_prefix('}') {
                return Ok((Value::Map(map), r));
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
            let key = if raw_key.starts_with('"') || raw_key.starts_with('\'') {
                match parse_quoted(raw_key, line, col_of(rest))? {
                    Value::Str(s) => s,
                    _ => unreachable!("parse_quoted always yields a string"),
                }
            } else {
                unquote_key(raw_key)
            };
            let after = rest[colon + 1..].trim_start();
            if after.starts_with('}') {
                map.insert(key, Value::Null);
                rest = after;
                continue;
            }
            let (val, r) = parse_flow_item(after, line, col_of(after))?;
            map.insert(key, val);
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

fn parse_flow_item(t: &str, line: usize, col: usize) -> Result<(Value, &str), Error> {
    let col = col + (t.len() - t.trim_start().len());
    let t = t.trim_start();
    if t.starts_with('[') || t.starts_with('{') {
        return parse_flow(t, line, col);
    }
    if t.starts_with('"') || t.starts_with('\'') {
        let quote = t.chars().next().unwrap();
        // Find the closing quote, honouring backslash escapes so a scalar
        // like `"a\"b"` does not terminate at the escaped quote.
        if let Some(end) = find_closing_quote(t) {
            let value = parse_quoted(&t[..=end], line, col)?;
            return Ok((value, &t[end + 1..]));
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
    Ok((plain_scalar(&t[..end]), &t[end..]))
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

    #[test]
    fn parses_the_supported_subset() {
        let doc = parse("a: 1\nb: [1, 2]\nc: {k: v}\nd:\n  - x\n  - y\n").unwrap();
        assert_eq!(doc.get("a"), Some(&Value::Int(1)));
        assert_eq!(doc.get("b").unwrap().as_seq().unwrap().len(), 2);
        assert_eq!(doc.lookup_path("c/k").unwrap().as_str(), Some("v"));
        assert_eq!(doc.get("d").unwrap().as_seq().unwrap().len(), 2);
    }

    #[test]
    fn rejects_with_positions() {
        let err = parse("a: \"oops\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnterminatedString);
        assert_eq!((err.line(), err.column()), (1, 4));
        let err = parse("a: [1, 2\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnterminatedFlow);
        assert_eq!((err.line(), err.column()), (1, 4));
        let err = parse("a: 1\n   b: 2\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadIndentation);
        assert_eq!((err.line(), err.column()), (2, 4));
    }

    #[test]
    fn known_bug_tabs_report_generic_bad_indentation() {
        // Preserved old behaviour: the zero-copy parser reports TabIndent.
        let err = parse("a:\n\tb: 1\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadIndentation);
        assert_eq!((err.line(), err.column()), (2, 1));
    }

    #[test]
    fn known_bug_flow_duplicate_keys_are_last_wins() {
        // Preserved old behaviour: the zero-copy parser rejects this with
        // ErrorKind::DuplicateKey.
        let doc = parse("m: {a: 1, a: 2}\n").unwrap();
        let m = doc.get("m").unwrap();
        assert_eq!(m.get("a"), Some(&Value::Int(2)));
        assert_eq!(m.as_map().map(Map::len), Some(1));
    }

    #[test]
    fn block_duplicate_keys_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateKey);
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn deep_nesting_and_quoting_still_work() {
        let doc = parse("tasks:\n  - func: producer\n    nprocs: 3\n").unwrap();
        assert_eq!(doc.lookup_path("tasks/0/nprocs"), Some(&Value::Int(3)));
        let doc = parse("k: [\"a\\\"b\", 1]\n").unwrap();
        assert_eq!(
            doc.get("k").unwrap().as_seq().unwrap()[0],
            Value::Str("a\"b".into())
        );
    }
}
