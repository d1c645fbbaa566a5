//! A lightweight, line-oriented Rust lexer.
//!
//! `pb-lint` has no access to `syn` or any registry crate, and it does not
//! need full parsing: every rule it enforces is expressible over a token
//! stream with accurate line numbers — *provided* the stream never contains
//! text from comments, string literals, character literals or raw strings.
//! This module does exactly that split: [`strip`] walks the source once with
//! a small state machine and produces, per line,
//!
//! * `code` — the source text with comment bodies and literal *contents*
//!   blanked out (delimiters are kept so tokens never merge across a blanked
//!   region), and
//! * `comment` — the concatenated comment text of the line, which is where
//!   `SAFETY:` justifications and `pb-lint: allow(...)` annotations live,
//!   and
//! * `literal` — the contents of the line's string literals, each followed
//!   by a space, which is where attribute arguments such as a
//!   `target_feature`'s feature list live.
//!
//! Handled: nested `/* */` block comments, `//` line comments (doc variants
//! included), string literals with escapes, raw strings `r"…"`/`r#"…"#` (any
//! hash depth, `b`/`br` prefixes), character literals, and the
//! lifetime-vs-char-literal ambiguity (`'a` vs `'a'`).

/// One source line after comment/literal stripping.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code text with comments removed and literal contents blanked.
    pub code: String,
    /// Concatenated comment text (line and block comments) on this line.
    pub comment: String,
    /// Contents of the string literals on this line (raw and byte strings
    /// included, escapes as written), each followed by a space.
    pub literal: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Splits `source` into per-line code and comment channels.
pub fn strip(source: &str) -> Vec<Line> {
    let b: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut st = State::Code;
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            if st == State::LineComment {
                st = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            State::Code => {
                match c {
                    '/' if b.get(i + 1) == Some(&'/') => {
                        st = State::LineComment;
                        i += 2;
                        continue;
                    }
                    '/' if b.get(i + 1) == Some(&'*') => {
                        st = State::BlockComment(1);
                        // Keep a space so tokens around the comment stay split.
                        cur.code.push(' ');
                        i += 2;
                        continue;
                    }
                    '"' => {
                        cur.code.push('"');
                        st = State::Str;
                        i += 1;
                        continue;
                    }
                    'r' | 'b' if !prev_is_ident(&cur.code) => {
                        // Possible raw/byte string start: r", r#", b", br#"…
                        if let Some((hashes, len)) = raw_string_open(&b, i) {
                            cur.code.push('"');
                            st = State::RawStr(hashes);
                            i += len;
                            continue;
                        }
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                    '\'' => {
                        // Lifetime (`'a`) or char literal (`'a'`, `'\n'`)?
                        if b.get(i + 1) == Some(&'\\')
                            || (b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\''))
                        {
                            cur.code.push('\'');
                            st = State::Char;
                            i += 1;
                            continue;
                        }
                        // Lifetime: keep the quote, stay in code.
                        cur.code.push('\'');
                        i += 1;
                        continue;
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && b.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        st = State::Code;
                    } else {
                        st = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(depth + 1);
                    cur.comment.push_str("/*");
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    cur.literal.push(c);
                    i += 1;
                    // A `\` line continuation leaves its newline to the
                    // newline branch, which ends the line.
                    if let Some(&next) = b.get(i).filter(|&&n| n != '\n') {
                        cur.code.push(' ');
                        cur.literal.push(next);
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    cur.literal.push(' ');
                    st = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    cur.literal.push(c);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&b, i, hashes) {
                    cur.code.push('"');
                    cur.literal.push(' ');
                    st = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    cur.code.push(' ');
                    cur.literal.push(c);
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' {
                    cur.code.push(' ');
                    if b.get(i + 1).is_some() {
                        cur.code.push(' ');
                    }
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    st = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    lines.push(cur);
    lines
}

/// True when the code buffer ends in an identifier character — in that case
/// a following `r`/`b` is part of an identifier, not a raw-string prefix.
fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .last()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// If `b[i..]` opens a raw or byte string (`r"`, `r#"`, `b"`, `br##"`, …),
/// returns `(hash_count, consumed_chars)` for the opener.
fn raw_string_open(b: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if b.get(j) == Some(&'"') {
            return Some((0, j - i + 1)); // b"…"
        }
        if b.get(j) != Some(&'r') {
            return None;
        }
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

/// True when the `"` at `b[i]` is followed by `hashes` `#` characters,
/// closing a raw string of that depth.
fn closes_raw(b: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| b.get(i + k) == Some(&'#'))
}

/// One code token: an identifier (including keywords) or a single
/// punctuation character, with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    pub text: String,
    pub line: usize,
}

/// Flattens the code channel into a token stream. Identifiers/keywords come
/// out whole; everything else (except whitespace) is a single-character
/// token. Rules that must follow a call chain across rustfmt's line breaks
/// (`pool\n.frames\n.iter()`) match on this stream instead of raw lines.
pub fn tokens(lines: &[Line]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.push(Tok {
                    text: chars[start..i].iter().collect(),
                    line: ln + 1,
                });
            } else {
                out.push(Tok {
                    text: c.to_string(),
                    line: ln + 1,
                });
                i += 1;
            }
        }
    }
    out
}

/// Marks the lines belonging to `#[cfg(test)] mod … { … }` regions (1-based
/// indexing into the returned vec is off by one: `v[i]` covers line `i+1`).
///
/// Rules skip these regions: test code legitimately unwraps, spawns threads
/// and measures time. Files under a `tests/` directory are classified
/// [`crate::classify::FileClass::Test`] wholesale and never reach this
/// per-region path.
pub fn test_regions(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Scan forward for the `mod … {` this attribute decorates,
            // tolerating further attributes and blank lines in between. A
            // `mod name;` (out-of-line module) has no body here; skip it.
            let mut j = i + 1;
            let mut found = None;
            while j < lines.len() && j <= i + 8 {
                let code = lines[j].code.trim();
                if code.is_empty() || code.starts_with("#[") {
                    j += 1;
                    continue;
                }
                if code.starts_with("mod ") || code.starts_with("pub mod ") {
                    if code.contains(';') {
                        break; // out-of-line module
                    }
                    found = Some(j);
                }
                break;
            }
            if let Some(start) = found {
                // Walk the brace depth from the module header to its close.
                let mut depth = 0i64;
                let mut opened = false;
                let mut k = start;
                while k < lines.len() {
                    depth += brace_delta(&lines[k].code);
                    if lines[k].code.contains('{') {
                        opened = true;
                    }
                    if opened && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                let end = k.min(lines.len() - 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let src = "let a = 1; // trailing note\n/* block */ let b = 2;\n";
        let lines = strip(src);
        assert_eq!(lines[0].code.trim_end(), "let a = 1;");
        assert_eq!(lines[0].comment, " trailing note");
        assert!(lines[1].code.contains("let b = 2;"));
        assert_eq!(lines[1].comment, " block ");
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ code();\n";
        let lines = strip(src);
        assert!(lines[0].code.contains("code();"));
        assert!(!lines[0].code.contains("still"));
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_remain() {
        let src = "let s = \"panic!(.unwrap()) // not a comment\"; f();\n";
        let lines = strip(src);
        assert!(!lines[0].code.contains("panic"));
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].comment.is_empty());
        assert!(lines[0].code.contains("f();"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"thread::spawn \"quoted\" inside\"#; g();\n";
        let lines = strip(src);
        assert!(!lines[0].code.contains("spawn"));
        assert!(lines[0].code.contains("g();"));
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; h(); }\n";
        let lines = strip(src);
        // The double-quote char literal must not open a string state.
        assert!(lines[0].code.contains("h();"));
        assert!(!lines[0].code.contains('y'));
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let src = "let s = \"a\\\"b.unwrap()\"; k();\n";
        let lines = strip(src);
        assert!(!lines[0].code.contains("unwrap"));
        assert!(lines[0].code.contains("k();"));
    }

    #[test]
    fn string_continuation_keeps_line_numbers() {
        let src = "let q = \"a \\\n    b\";\nlet x = 1;\n";
        let lines = strip(src);
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].code, "     \";");
        assert_eq!(lines[2].code, "let x = 1;");
    }

    #[test]
    fn token_stream_spans_lines() {
        let src = "pool\n    .frames\n    .iter()\n";
        let toks = tokens(&strip(src));
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["pool", ".", "frames", ".", "iter", "(", ")"]);
        assert_eq!(toks[2].line, 2);
        assert_eq!(toks[4].line, 3);
    }

    #[test]
    fn cfg_test_module_region_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let lines = strip(src);
        let mask = test_regions(&lines);
        assert!(!mask[0]);
        assert!(mask[1] && mask[2] && mask[3] && mask[4]);
        assert!(!mask[5]);
    }

    #[test]
    fn out_of_line_test_module_is_not_a_region() {
        let src = "#[cfg(test)]\nmod tests;\nfn live() {}\n";
        let mask = test_regions(&strip(src));
        assert!(!mask[2]);
    }
}
