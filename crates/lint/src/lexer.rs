//! A minimal Rust lexer producing a *code-only* view of a source file.
//!
//! The rule engine never wants to see the inside of a comment, string or
//! character literal: `// call .unwrap() here` and `"SystemTime::now"` are
//! not violations. [`scrub`] replaces every such region with spaces (one
//! per character, newlines preserved) so byte/line positions in the
//! scrubbed text match the original exactly, and extracts `mcim-lint:`
//! pragma comments on the way through.
//!
//! The tricky corners this lexer gets right (and unit-tests below pin):
//!
//! * nested block comments — `/* a /* b */ c */` is one comment,
//! * raw strings with any hash depth (`r"…"`, `r##"…"##`, `br#"…"#`),
//! * lifetimes vs char literals — `'a` in `&'a str` is code, `'a'` is a
//!   literal, `'\n'` and `'\u{1F600}'` are literals,
//! * multi-line strings (line numbering stays aligned).

/// An inline allowance: `// mcim-lint: allow(rule, reason)`.
///
/// A *trailing* pragma (code earlier on the same line) allows findings on
/// its own line; a *standalone* pragma allows findings on the next line.
#[derive(Debug, Clone, PartialEq)]
pub struct Pragma {
    /// 1-based source line the pragma comment sits on.
    pub line: usize,
    /// Rule identifier the pragma allows.
    pub rule: String,
    /// Mandatory human reason.
    pub reason: String,
    /// Whether code precedes the pragma on its line.
    pub trailing: bool,
}

/// The code-only view of one source file.
#[derive(Debug)]
pub struct Scrubbed {
    /// The source with comments/strings/char literals blanked to spaces.
    /// Identical length and line structure to the input.
    pub code: String,
    /// Well-formed pragmas found in comments.
    pub pragmas: Vec<Pragma>,
    /// Lines carrying a comment that mentions `mcim-lint:` but does not
    /// parse — silently ignoring a typo'd pragma would be the worst
    /// possible failure mode for an allow mechanism.
    pub malformed_pragmas: Vec<(usize, String)>,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Blanks `chars[from..to]` into `out` (spaces; newlines preserved),
/// keeping the line counter in step.
fn blank(out: &mut String, chars: &[char], from: usize, to: usize, line: &mut usize) {
    for &c in &chars[from..to] {
        if c == '\n' {
            out.push('\n');
            *line += 1;
        } else {
            out.push(' ');
        }
    }
}

/// Parses one line-comment's text as a pragma, if it claims to be one.
fn parse_pragma(text: &str, line: usize, trailing: bool) -> Option<Result<Pragma, String>> {
    let marker = "mcim-lint:";
    let at = text.find(marker)?;
    let rest = text[at + marker.len()..].trim();
    let Some(args) = rest.strip_prefix("allow(") else {
        return Some(Err(format!(
            "expected `allow(rule, reason)` after `mcim-lint:`, got `{rest}`"
        )));
    };
    let Some(close) = args.rfind(')') else {
        return Some(Err("unclosed `allow(` pragma".to_string()));
    };
    let args = &args[..close];
    let Some((rule, reason)) = args.split_once(',') else {
        return Some(Err(format!(
            "pragma `allow({args})` is missing a reason: use `allow(rule, reason)`"
        )));
    };
    let rule = rule.trim();
    let reason = reason.trim().trim_matches('"').trim();
    if rule.is_empty() || reason.is_empty() {
        return Some(Err(format!(
            "pragma `allow({args})` needs a non-empty rule and reason"
        )));
    }
    Some(Ok(Pragma {
        line,
        rule: rule.to_string(),
        reason: reason.to_string(),
        trailing,
    }))
}

/// Returns the code-only view of `src`. See the module docs.
pub fn scrub(src: &str) -> Scrubbed {
    let chars: Vec<char> = src.chars().collect();
    let len = chars.len();
    let mut out = String::with_capacity(src.len());
    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    while i < len {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        let prev_is_ident = i > 0 && is_ident_char(chars[i - 1]);
        match c {
            '\n' => {
                out.push('\n');
                line += 1;
                line_has_code = false;
                i += 1;
            }
            '/' if next == Some('/') => {
                let start = i;
                while i < len && chars[i] != '\n' {
                    i += 1;
                }
                // Doc comments (`///`, `//!`) are prose, not pragma
                // carriers — they may *talk about* the pragma syntax.
                let doc = matches!(chars.get(start + 2), Some(&'/') | Some(&'!'));
                if !doc {
                    let text: String = chars[start..i].iter().collect();
                    match parse_pragma(&text, line, line_has_code) {
                        Some(Ok(p)) => pragmas.push(p),
                        Some(Err(e)) => malformed.push((line, e)),
                        None => {}
                    }
                }
                blank(&mut out, &chars, start, i, &mut line);
            }
            '/' if next == Some('*') => {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < len && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, &chars, start, i, &mut line);
            }
            '"' => {
                let start = i;
                i += 1;
                while i < len {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                blank(&mut out, &chars, start, i.min(len), &mut line);
            }
            'r' | 'b' | 'c' if !prev_is_ident => {
                // Possible raw/byte/C-string prefix: r"", r#""#, b"", br#""#,
                // b'', c"", cr#""#. Anything else falls through as an
                // ordinary identifier character.
                let mut j = i + 1;
                if c == 'b' && chars.get(j) == Some(&'r') || c == 'c' && chars.get(j) == Some(&'r')
                {
                    j += 1;
                }
                let raw = j > i + 1 || c == 'r';
                let mut hashes = 0usize;
                if raw {
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                }
                if raw && chars.get(j) == Some(&'"') {
                    // Raw string: ends at `"` followed by `hashes` hashes.
                    let start = i;
                    j += 1;
                    'scan: while j < len {
                        if chars[j] == '"' {
                            let mut k = 0usize;
                            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'scan;
                            }
                        }
                        j += 1;
                    }
                    blank(&mut out, &chars, start, j.min(len), &mut line);
                    i = j.min(len);
                } else if c == 'b' && hashes == 0 && next == Some('"') {
                    // Byte string: same shape as a normal string.
                    let start = i;
                    i += 2;
                    while i < len {
                        match chars[i] {
                            '\\' => i += 2,
                            '"' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    blank(&mut out, &chars, start, i.min(len), &mut line);
                } else if c == 'b' && hashes == 0 && next == Some('\'') {
                    // Byte char literal b'x' / b'\n'.
                    let start = i;
                    i += 2;
                    while i < len {
                        match chars[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    blank(&mut out, &chars, start, i.min(len), &mut line);
                } else {
                    out.push(c);
                    line_has_code = true;
                    i += 1;
                }
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident with
                // no closing quote right after one ident char.
                if next == Some('\\') {
                    // Escaped char literal: '\n', '\\', '\u{…}'.
                    let start = i;
                    i += 2;
                    while i < len {
                        match chars[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    blank(&mut out, &chars, start, i.min(len), &mut line);
                } else if chars.get(i + 2) == Some(&'\'')
                    && next.is_some_and(|n| n != '\'' && n != '\n')
                {
                    // 'x' — including non-ident chars like '+' and unicode.
                    blank(&mut out, &chars, i, i + 3, &mut line);
                    i += 3;
                } else {
                    // Lifetime ('a, 'static, '_) or stray quote: keep as
                    // code so `&'a str` still tokenizes around it.
                    out.push('\'');
                    line_has_code = true;
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                if !c.is_whitespace() {
                    line_has_code = true;
                }
                i += 1;
            }
        }
    }

    Scrubbed {
        code: out,
        pragmas,
        malformed_pragmas: malformed,
    }
}

/// One code token: an identifier/number or a single punctuation char.
#[derive(Debug, Clone, PartialEq)]
pub enum TokKind {
    /// Identifier, keyword, or numeric literal chunk.
    Ident(String),
    /// Any single non-ident, non-whitespace character.
    Punct(char),
}

/// A token with its 1-based source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    /// What the token is.
    pub kind: TokKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (in chars).
    pub col: usize,
}

impl Tok {
    /// The identifier text, if this is an identifier token.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            TokKind::Punct(_) => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Tokenizes scrubbed code (no comments/strings left to worry about).
pub fn tokenize(code: &str) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = code.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c == '\n' {
            chars.next();
            line += 1;
            col = 1;
        } else if c.is_whitespace() {
            chars.next();
            col += 1;
        } else if is_ident_char(c) {
            let (start_line, start_col) = (line, col);
            let mut text = String::new();
            while let Some(&c) = chars.peek() {
                if is_ident_char(c) {
                    text.push(c);
                    chars.next();
                    col += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Ident(text),
                line: start_line,
                col: start_col,
            });
        } else {
            chars.next();
            toks.push(Tok {
                kind: TokKind::Punct(c),
                line,
                col,
            });
            col += 1;
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        scrub(src).code
    }

    #[test]
    fn line_comments_are_blanked() {
        let code = code_of("let x = 1; // call .unwrap() here\nlet y = 2;");
        assert!(!code.contains("unwrap"));
        assert!(code.contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments_are_one_comment() {
        let code = code_of("a /* x /* y */ z */ b /* tail");
        assert_eq!(code.trim(), "a                   b");
    }

    #[test]
    fn strings_are_blanked_with_escapes() {
        let code = code_of(r#"let s = "panic!(\"no\")"; done();"#);
        assert!(!code.contains("panic"));
        assert!(code.contains("done();"));
    }

    #[test]
    fn raw_strings_respect_hash_depth() {
        let code = code_of(r###"let s = r#"inner " quote unwrap()"# ; after();"###);
        assert!(!code.contains("unwrap"), "{code}");
        assert!(code.contains("after();"), "{code}");
        // Zero-hash raw string.
        let code = code_of(r#"let s = r"no unwrap" ; tail();"#);
        assert!(!code.contains("unwrap"), "{code}");
        assert!(code.contains("tail();"), "{code}");
    }

    #[test]
    fn raw_string_containing_impl_wire_is_inert() {
        // A raw string spelling out a wire impl must not reach the rules
        // as tokens (it would mark the file wire-sensitive) — only the
        // real impl after it may.
        let code = code_of(
            r###"const DOC: &str = r#"impl Wire for Ghost { }"# ;
impl Wire for Real { }"###,
        );
        assert!(!code.contains("Ghost"), "{code}");
        assert!(code.contains("impl Wire for Real"), "{code}");
        let impls = tokenize(&code)
            .iter()
            .filter(|t| t.ident() == Some("impl"))
            .count();
        assert_eq!(impls, 1, "only the real impl tokenizes");
    }

    #[test]
    fn macro_bodies_tokenize_like_ordinary_code() {
        // Macros are checked unexpanded, so the bodies and invocation args
        // of `wire_int!`-style macros must tokenize with honest positions
        // rather than being treated as opaque blobs.
        let src = "macro_rules! wire_int { ($t:ty) => { impl Wire for $t { } } }\nwire_int!(u8);";
        let toks = tokenize(&scrub(src).code);
        let idents: Vec<&str> = toks.iter().filter_map(Tok::ident).collect();
        assert!(idents.contains(&"wire_int"));
        assert!(idents.contains(&"impl") && idents.contains(&"u8"));
        let bang = toks
            .iter()
            .position(|t| t.ident() == Some("wire_int"))
            .unwrap();
        assert_eq!(toks[bang].line, 1, "macro definition on line 1");
        let last = toks.iter().rposition(|t| t.ident() == Some("u8")).unwrap();
        assert_eq!(toks[last].line, 2, "invocation args on line 2");
    }

    #[test]
    fn byte_and_c_strings_are_blanked() {
        let code = code_of(r##"let b = b"unwrap"; let r = br#"x"# ; t();"##);
        assert!(!code.contains("unwrap"), "{code}");
        assert!(code.contains("t();"), "{code}");
    }

    #[test]
    fn lifetimes_survive_but_char_literals_do_not() {
        let code = code_of("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(code.contains("&'a str"), "{code}");
        assert!(!code.contains("'x'"), "{code}");
        // 'static and '_ are lifetimes; '\n' and '+' literals are not code.
        let code = code_of(r"let s: &'static str; let u = '_'; let c = '\n'; let p = '+';");
        assert!(code.contains("&'static str"), "{code}");
        assert!(!code.contains(r"\n"), "{code}");
        assert!(!code.contains('+'), "{code}");
    }

    #[test]
    fn multiline_strings_keep_line_numbers_aligned() {
        let src = "let a = \"one\ntwo\nthree\";\nlet b = 1;";
        let code = code_of(src);
        assert_eq!(code.matches('\n').count(), src.matches('\n').count());
        let toks = tokenize(&code);
        let b = toks.iter().find(|t| t.ident() == Some("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let code = code_of("let var = 1; let cr = 2; let b = 3;");
        assert!(code.contains("var"), "{code}");
        assert!(code.contains("cr"), "{code}");
    }

    #[test]
    fn pragmas_are_extracted_with_position_kind() {
        let src = "let x = risky(); // mcim-lint: allow(panic-freedom, join cannot fail)\n\
                   // mcim-lint: allow(stdout-noise, operator diagnostic)\n\
                   eprintln!(\"x\");";
        let s = scrub(src);
        assert_eq!(s.pragmas.len(), 2);
        assert!(s.pragmas[0].trailing && s.pragmas[0].line == 1);
        assert_eq!(s.pragmas[0].rule, "panic-freedom");
        assert_eq!(s.pragmas[0].reason, "join cannot fail");
        assert!(!s.pragmas[1].trailing && s.pragmas[1].line == 2);
    }

    #[test]
    fn doc_comments_may_talk_about_pragma_syntax() {
        let s =
            scrub("/// use `// mcim-lint: allow(rule, reason)`\n//! mcim-lint: prose\nfn f(){}");
        assert!(s.pragmas.is_empty());
        assert!(s.malformed_pragmas.is_empty());
    }

    #[test]
    fn malformed_pragmas_are_reported_not_dropped() {
        let s = scrub("// mcim-lint: allow(panic-freedom)\n// mcim-lint: alow(x, y)\n");
        assert_eq!(s.pragmas.len(), 0);
        assert_eq!(s.malformed_pragmas.len(), 2);
        assert_eq!(s.malformed_pragmas[0].0, 1);
    }

    #[test]
    fn tokenize_reports_positions() {
        let toks = tokenize("ab.cd!\n  ef");
        assert_eq!(toks[0].ident(), Some("ab"));
        assert!(toks[1].is_punct('.'));
        assert_eq!(toks[2].ident(), Some("cd"));
        assert!(toks[3].is_punct('!'));
        let ef = &toks[4];
        assert_eq!((ef.line, ef.col), (2, 3));
    }
}
