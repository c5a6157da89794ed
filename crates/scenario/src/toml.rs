//! Dependency-free TOML-subset parser and serializer.
//!
//! Parses the slice of TOML that scenario files need into a
//! [`deep_json::Value`] tree (insertion order preserved; canonical
//! digests come from `deep_json::digest`, which sorts keys):
//!
//! * `#` comments, blank lines
//! * `key = value` pairs with bare (`[A-Za-z0-9_-]+`) or basic
//!   ("quoted") keys
//! * `[table]` and `[table.sub]` headers, `[[array-of-tables]]`
//! * basic strings with `\" \\ \n \t \r \uXXXX` escapes
//! * integers (underscore separators allowed), floats, booleans
//! * arrays (may span lines, trailing comma allowed) and inline tables
//!
//! Deliberately out of scope (each rejected with a line-numbered
//! error): dates, literal `'...'` strings, multi-line strings, and
//! dotted keys on the left of `=`. Every error message is of the form
//! `line N: <what>` and is asserted verbatim by the scenario
//! conformance corpus in `tests/scenario_fixtures/`.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels, both arrays and inline
//! tables inside one value and keys in one table header: the value
//! parser recurses once per level, and the tree it builds is dropped
//! and validated recursively.

use deep_json::{Value, MAX_DEPTH};

/// Parse a TOML-subset document into an object [`Value`].
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: input.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    let mut root = Value::Object(Vec::new());
    // Paths of explicitly declared `[table]` headers, to reject
    // duplicates.
    let mut declared: Vec<String> = Vec::new();
    // Where `key = value` lines currently land.
    let mut cursor: Vec<String> = Vec::new();

    p.skip_trivia();
    while !p.eof() {
        if p.peek() == Some(b'[') {
            p.bump();
            let array_table = p.peek() == Some(b'[');
            if array_table {
                p.bump();
            }
            let path = p.parse_header_path()?;
            p.expect_byte(b']')?;
            if array_table {
                p.expect_byte(b']')?;
            }
            let joined = path.join(".");
            let Some((leaf, parents)) = path.split_last() else {
                return Err(format!("line {}: empty table header", p.line));
            };
            if array_table {
                let arr = descend(&mut root, parents, p.line)?;
                let table = ensure_entry(arr, leaf);
                match table {
                    Value::Array(items) if items.iter().all(|v| matches!(v, Value::Object(_))) => {
                        items.push(Value::Object(Vec::new()));
                    }
                    Value::Object(kv) if kv.is_empty() => {
                        *table = Value::Array(vec![Value::Object(Vec::new())]);
                    }
                    _ => {
                        return Err(format!(
                            "line {}: key '{}' is not an array of tables",
                            p.line, joined
                        ))
                    }
                }
                // A fresh element resets sub-table declarations: a
                // later `[x.sub]` targets the new element, not a
                // duplicate of the previous element's `sub`.
                let prefix = format!("{joined}.");
                declared.retain(|d| !d.starts_with(&prefix));
            } else {
                if declared.iter().any(|d| d == &joined) {
                    return Err(format!("line {}: duplicate table '{}'", p.line, joined));
                }
                let table = {
                    let parent = descend(&mut root, parents, p.line)?;
                    ensure_entry(parent, leaf)
                };
                if !matches!(table, Value::Object(_)) {
                    return Err(format!("line {}: key '{}' is not a table", p.line, joined));
                }
                declared.push(joined);
            }
            cursor = path;
        } else {
            let key = p.parse_key()?;
            p.skip_inline_ws();
            if p.peek() == Some(b'.') {
                return Err(format!("line {}: dotted keys are not supported", p.line));
            }
            p.expect_byte(b'=')?;
            p.skip_inline_ws();
            let value = p.parse_value()?;
            let table = descend(&mut root, &cursor, p.line)?;
            let Value::Object(kv) = table else {
                unreachable!("descend always lands on a table")
            };
            if kv.iter().any(|(k, _)| k == &key) {
                return Err(format!("line {}: duplicate key '{}'", p.line, key));
            }
            kv.push((key, value));
        }
        p.expect_eol()?;
        p.skip_trivia();
    }
    Ok(root)
}

/// Walk `path` from `root`, creating empty tables as needed. A path
/// segment that names an array of tables continues into its last
/// element (TOML semantics for `[[x]]` followed by `[x.y]`).
fn descend<'v>(root: &'v mut Value, path: &[String], line: usize) -> Result<&'v mut Value, String> {
    let mut node = root;
    for (i, seg) in path.iter().enumerate() {
        let child = ensure_entry(node, seg);
        node = match child {
            Value::Object(_) => child,
            Value::Array(items) if items.iter().all(|v| matches!(v, Value::Object(_))) => {
                match items.last_mut() {
                    Some(last) => last,
                    None => {
                        return Err(format!(
                            "line {}: key '{}' is not a table",
                            line,
                            path[..=i].join(".")
                        ))
                    }
                }
            }
            _ => {
                return Err(format!(
                    "line {}: key '{}' is not a table",
                    line,
                    path[..=i].join(".")
                ))
            }
        };
    }
    Ok(node)
}

/// Fetch `key` from an object value, inserting an empty table if
/// absent. `node` must be an object (guaranteed by `descend`).
fn ensure_entry<'v>(node: &'v mut Value, key: &str) -> &'v mut Value {
    let Value::Object(kv) = node else {
        unreachable!("ensure_entry caller guarantees an object")
    };
    let idx = kv.iter().position(|(k, _)| k == key).unwrap_or_else(|| {
        kv.push((key.to_string(), Value::Object(Vec::new())));
        kv.len() - 1
    });
    &mut kv[idx].1
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and inline tables open around the value being parsed.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    /// Spaces and tabs only.
    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\r')) {
            self.bump();
        }
    }

    /// Whitespace, newlines, and `#` comments — between statements and
    /// inside brackets.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => {
                    self.bump();
                }
                Some(b'#') => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        self.skip_inline_ws();
        if self.peek() == Some(want) {
            self.bump();
            Ok(())
        } else {
            Err(format!("line {}: expected '{}'", self.line, want as char))
        }
    }

    /// After a statement: optional inline whitespace and comment, then
    /// newline or end of input.
    fn expect_eol(&mut self) -> Result<(), String> {
        self.skip_inline_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.bump();
                Ok(())
            }
            _ => Err(format!("line {}: expected end of line", self.line)),
        }
    }

    fn parse_key(&mut self) -> Result<String, String> {
        self.skip_inline_ws();
        match self.peek() {
            Some(b'"') => self.parse_basic_string(),
            Some(b'\'') => Err(format!(
                "line {}: literal ('-quoted) strings are not supported",
                self.line
            )),
            _ => {
                let start = self.pos;
                while matches!(self.peek(),
                    Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
                {
                    self.bump();
                }
                if self.pos == start {
                    return Err(format!("line {}: expected a key", self.line));
                }
                Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
            }
        }
    }

    /// Dotted path inside `[...]` headers.
    fn parse_header_path(&mut self) -> Result<Vec<String>, String> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'.') {
                if path.len() == MAX_DEPTH {
                    return Err(format!(
                        "line {}: table header deeper than {MAX_DEPTH} keys",
                        self.line
                    ));
                }
                self.bump();
                path.push(self.parse_key()?);
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_basic_string(&mut self) -> Result<String, String> {
        let start_line = self.line;
        self.bump(); // opening quote
        let mut out = String::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => {
                    return Err(format!("line {start_line}: unterminated string"))
                }
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| format!("line {}: invalid \\u escape", self.line))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("line {}: invalid \\u escape", self.line))?,
                        );
                    }
                    _ => return Err(format!("line {}: unknown string escape", self.line)),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-assemble a UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    for _ in 1..len {
                        self.bump();
                    }
                    match std::str::from_utf8(&self.src[start..self.pos]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => {
                            return Err(format!("line {}: invalid UTF-8 in string", self.line))
                        }
                    }
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_inline_ws();
        match self.peek() {
            None => Err(format!("line {}: expected a value", self.line)),
            Some(b'"') => Ok(Value::String(self.parse_basic_string()?)),
            Some(b'\'') => Err(format!(
                "line {}: literal ('-quoted) strings are not supported",
                self.line
            )),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_inline_table),
            _ => self.parse_bare(),
        }
    }

    /// Parse an array or inline table one level deeper, refusing to go
    /// past [`MAX_DEPTH`] levels.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "line {}: nesting deeper than {MAX_DEPTH} levels",
                self.line
            ));
        }
        self.bump();
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// The rest of an array, after its `[`.
    fn parse_array(&mut self) -> Result<Value, String> {
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b']') {
                self.bump();
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b']') => {
                    self.bump();
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("line {}: expected ',' or ']' in array", self.line)),
            }
        }
    }

    /// The rest of an inline table, after its `{`.
    fn parse_inline_table(&mut self) -> Result<Value, String> {
        let mut kv: Vec<(String, Value)> = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek() == Some(b'}') {
                self.bump();
                return Ok(Value::Object(kv));
            }
            let key = self.parse_key()?;
            self.expect_byte(b'=')?;
            self.skip_inline_ws();
            let value = self.parse_value()?;
            if kv.iter().any(|(k, _)| k == &key) {
                return Err(format!("line {}: duplicate key '{}'", self.line, key));
            }
            kv.push((key, value));
            self.skip_trivia();
            match self.peek() {
                Some(b',') => {
                    self.bump();
                }
                Some(b'}') => {
                    self.bump();
                    return Ok(Value::Object(kv));
                }
                _ => {
                    return Err(format!(
                        "line {}: expected ',' or '}}' in inline table",
                        self.line
                    ))
                }
            }
        }
    }

    /// Booleans and numbers — anything else is an error.
    fn parse_bare(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(),
            Some(b) if !matches!(b, b' ' | b'\t' | b'\r' | b'\n' | b',' | b']' | b'}' | b'#'))
        {
            self.bump();
        }
        let token = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        if token.is_empty() {
            return Err(format!("line {}: expected a value", self.line));
        }
        match token.as_str() {
            "true" => return Ok(Value::Bool(true)),
            "false" => return Ok(Value::Bool(false)),
            _ => {}
        }
        let digits: String = token.chars().filter(|&c| c != '_').collect();
        if let Ok(i) = digits.parse::<i64>() {
            return Ok(Value::Number(i as f64));
        }
        // A digit run beyond i64 range (e.g. "10000000000000000000",
        // the serializer's rendering of 1e19) is a float: `to_toml`
        // prints integral f64s without '.' or exponent, so the parser
        // must take them back for the round-trip fixed point.
        let body = digits.strip_prefix(['+', '-']).unwrap_or(&digits);
        let bare_digits = !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit());
        if bare_digits
            || (digits.contains(['.', 'e', 'E'])
                && !digits.contains("nan")
                && !digits.contains("inf"))
        {
            if let Ok(f) = digits.parse::<f64>() {
                if f.is_finite() {
                    return Ok(Value::Number(f));
                }
            }
        }
        Err(format!("line {}: invalid value '{}'", self.line, token))
    }
}

/// Serialize an object [`Value`] back to the TOML subset understood by
/// [`parse`]. `parse(to_toml(v)?) == v` for every `v` that `parse` can
/// produce (the round-trip fixed point asserted by the proptest
/// suite).
pub fn to_toml(doc: &Value) -> Result<String, String> {
    let Value::Object(kv) = doc else {
        return Err("top-level value must be a table".to_string());
    };
    let mut out = String::new();
    write_table(&mut out, &mut Vec::new(), kv)?;
    Ok(out)
}

fn is_table(v: &Value) -> bool {
    matches!(v, Value::Object(_))
}

/// Non-empty arrays whose elements are all objects serialize as
/// `[[path]]` sections; everything else is inline.
fn is_array_of_tables(v: &Value) -> bool {
    matches!(v, Value::Array(items)
        if !items.is_empty() && items.iter().all(|i| matches!(i, Value::Object(_))))
}

fn write_table(
    out: &mut String,
    path: &mut Vec<String>,
    entries: &[(String, Value)],
) -> Result<(), String> {
    for (k, v) in entries {
        if !is_table(v) && !is_array_of_tables(v) {
            out.push_str(&format!("{} = {}\n", fmt_key(k), fmt_inline(v)?));
        }
    }
    for (k, v) in entries {
        if let Value::Object(sub) = v {
            path.push(k.clone());
            out.push_str(&format!("\n[{}]\n", fmt_path(path)));
            write_table(out, path, sub)?;
            path.pop();
        } else if is_array_of_tables(v) {
            let Value::Array(items) = v else {
                unreachable!()
            };
            path.push(k.clone());
            for item in items {
                let Value::Object(sub) = item else {
                    unreachable!()
                };
                out.push_str(&format!("\n[[{}]]\n", fmt_path(path)));
                write_table(out, path, sub)?;
            }
            path.pop();
        }
    }
    Ok(())
}

fn fmt_path(path: &[String]) -> String {
    path.iter()
        .map(|s| fmt_key(s))
        .collect::<Vec<_>>()
        .join(".")
}

fn fmt_key(k: &str) -> String {
    let bare = !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        k.to_string()
    } else {
        fmt_string(k)
    }
}

fn fmt_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_inline(v: &Value) -> Result<String, String> {
    match v {
        Value::Null => Err("null is not representable in TOML".to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Number(n) => {
            if !n.is_finite() {
                return Err("non-finite numbers are not representable in TOML".to_string());
            }
            // Match deep_json's number rendering: integer-valued floats
            // inside the exact-i64 range print without a fraction (a
            // TOML integer), everything else uses Rust's shortest
            // round-trip decimal form. Both reparse to the same f64.
            if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
                Ok(format!("{}", *n as i64))
            } else {
                Ok(format!("{n}"))
            }
        }
        Value::String(s) => Ok(fmt_string(s)),
        Value::Array(items) => {
            let parts: Result<Vec<_>, _> = items.iter().map(fmt_inline).collect();
            Ok(format!("[{}]", parts?.join(", ")))
        }
        Value::Object(kv) => {
            let parts: Result<Vec<_>, _> = kv
                .iter()
                .map(|(k, v)| Ok(format!("{} = {}", fmt_key(k), fmt_inline(v)?)))
                .collect::<Result<Vec<_>, String>>();
            Ok(format!("{{ {} }}", parts?.join(", ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_json::object;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = parse(
            "# header comment\n\
             title = \"hello\"\n\
             count = 3\n\
             ratio = 0.5\n\
             on = true\n\
             \n\
             [nested.sub]\n\
             xs = [1, 2, 3]\n\
             inline = { a = 1, b = \"two\" }\n",
        )
        .unwrap();
        assert_eq!(doc["title"].as_str(), Some("hello"));
        assert_eq!(doc["count"].as_f64(), Some(3.0));
        assert_eq!(doc["ratio"].as_f64(), Some(0.5));
        assert_eq!(doc["on"].as_bool(), Some(true));
        assert_eq!(doc["nested"]["sub"]["xs"][2].as_f64(), Some(3.0));
        assert_eq!(doc["nested"]["sub"]["inline"]["b"].as_str(), Some("two"));
    }

    #[test]
    fn arrays_of_tables_accumulate() {
        let doc =
            parse("[[sweep.axes]]\nparam = \"a\"\n\n[[sweep.axes]]\nparam = \"b\"\n").unwrap();
        let axes = doc["sweep"]["axes"].as_array().unwrap();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[1]["param"].as_str(), Some("b"));
    }

    #[test]
    fn subtables_repeat_per_array_of_tables_element() {
        let doc = parse(
            "[[run]]\nid = 1\n[run.limits]\ncpus = 2\n\n\
             [[run]]\nid = 2\n[run.limits]\ncpus = 4\n",
        )
        .unwrap();
        let runs = doc["run"].as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0]["limits"]["cpus"].as_f64(), Some(2.0));
        assert_eq!(runs[1]["limits"]["cpus"].as_f64(), Some(4.0));
        // But within one element a repeated header is still rejected.
        let err = parse("[[run]]\n[run.limits]\n[run.limits]\n").unwrap_err();
        assert_eq!(err, "line 3: duplicate table 'run.limits'");
    }

    #[test]
    fn multiline_arrays_and_underscored_ints() {
        let doc = parse("xs = [\n  1_000,\n  2_000, # comment\n]\n").unwrap();
        assert_eq!(doc["xs"][1].as_f64(), Some(2000.0));
    }

    #[test]
    fn exact_error_messages() {
        let cases = [
            ("a = 1\na = 2\n", "line 2: duplicate key 'a'"),
            ("[t]\n[t]\n", "line 2: duplicate table 't'"),
            ("a = \n", "line 1: expected a value"),
            ("a 1\n", "line 1: expected '='"),
            ("a = 1 2\n", "line 1: expected end of line"),
            ("a = 2020-01-01\n", "line 1: invalid value '2020-01-01'"),
            ("a = \"oops\n", "line 1: unterminated string"),
            (
                "a = 'literal'\n",
                "line 1: literal ('-quoted) strings are not supported",
            ),
            ("a.b = 1\n", "line 1: dotted keys are not supported"),
            ("a = 1\n[a]\n", "line 2: key 'a' is not a table"),
            ("a = [1, 2\n", "line 2: expected ',' or ']' in array"),
        ];
        for (src, want) in cases {
            assert_eq!(parse(src).unwrap_err(), want, "for input {src:?}");
        }
    }

    #[test]
    fn nesting_past_max_depth_is_an_error_not_a_stack_overflow() {
        let arrays: fn(usize) -> String = |n| format!("a = {}{}\n", "[".repeat(n), "]".repeat(n));
        let tables: fn(usize) -> String =
            |n| format!("a = {}1{}\n", "{ b = ".repeat(n), " }".repeat(n));
        let header: fn(usize) -> String = |n| format!("[{}]\n", vec!["a"; n].join("."));
        let nesting = format!("line 1: nesting deeper than {MAX_DEPTH} levels");
        let too_long = format!("line 1: table header deeper than {MAX_DEPTH} keys");
        for (doc, err) in [(arrays, &nesting), (tables, &nesting), (header, &too_long)] {
            assert!(parse(&doc(MAX_DEPTH)).is_ok());
            assert_eq!(parse(&doc(MAX_DEPTH + 1)).unwrap_err(), *err);
            assert_eq!(parse(&doc(200_000)).unwrap_err(), *err);
        }
    }

    #[test]
    fn round_trips_through_serializer() {
        let doc = object([
            ("name", "weird \"key\"".into()),
            ("n", 1e-7.into()),
            ("big", 1.0e18.into()),
            (
                "xs",
                Value::Array(vec![1.0.into(), true.into(), "s".into()]),
            ),
            (
                "table",
                object([
                    ("inner", 2.5.into()),
                    (
                        "rows",
                        Value::Array(vec![
                            object([("a", 1.0.into())]),
                            object([("a", 2.0.into())]),
                        ]),
                    ),
                ]),
            ),
        ]);
        let text = to_toml(&doc).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc, "serialized form:\n{text}");
    }

    #[test]
    fn over_i64_integral_floats_round_trip() {
        // The serializer prints these as bare digit runs (Rust's f64
        // Display never uses exponent form), which overflow i64 — the
        // parser must still accept them as floats.
        let doc = object([
            ("big", 1.0e19.into()),
            ("neg", (-2.5e20).into()),
            ("huge", 1.5e300.into()),
        ]);
        let text = to_toml(&doc).unwrap();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc, "serialized form:\n{text}");
        assert_eq!(
            parse("x = 10000000000000000000\n").unwrap()["x"].as_f64(),
            Some(1.0e19)
        );
        // Dates and other hyphenated tokens are still rejected.
        assert_eq!(
            parse("a = 2020-01-01\n").unwrap_err(),
            "line 1: invalid value '2020-01-01'"
        );
    }
}
