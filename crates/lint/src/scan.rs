//! A line-tracking Rust source scanner.
//!
//! The offline workspace has no `syn`, so the linter reads source text
//! directly — the same hand-rolled, line-tracking approach the TOML
//! reader and the JSONL trace parser take. The scanner does not parse Rust; it
//! tokenises just enough to answer the two questions every rule asks:
//!
//! * what does the **code** on line *N* say, with comments stripped and
//!   string-literal *contents* blanked (so a doc comment mentioning
//!   `Instant` never trips the wall-clock rule), and
//! * what string literals does line *N* carry (so the float-format rule
//!   can inspect format strings)?
//!
//! It tracks line comments, nested block comments, normal / raw / byte
//! string literals (including multi-line bodies), char literals vs
//! lifetimes, and marks every line covered by a `#[cfg(test)]` item so
//! determinism rules can skip test code — tests may use `HashSet` to
//! assert uniqueness without feeding serialized output.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct SourceLine {
    /// 1-based line number.
    pub number: usize,
    /// The line's code with comments removed and string contents
    /// blanked (the delimiting quotes remain, so `""` marks a literal).
    pub code: String,
    /// Contents of string-literal fragments on this line (a multi-line
    /// string contributes one fragment per line it spans).
    pub strings: Vec<String>,
    /// `true` when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A fully scanned source file.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// Lines in order; `lines[i].number == i + 1`.
    pub lines: Vec<SourceLine>,
}

impl ScannedFile {
    /// Non-test lines, the view determinism rules iterate.
    pub fn code_lines(&self) -> impl Iterator<Item = &SourceLine> {
        self.lines.iter().filter(|l| !l.in_test)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Nested block comment at the given depth.
    Block(u32),
    /// Normal (escaping) string literal.
    Str,
    /// Raw string closed by `"` followed by this many `#`s.
    RawStr(u32),
}

/// Scans `text` into per-line code/strings views.
#[must_use]
pub fn scan(text: &str) -> ScannedFile {
    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut strings: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut mode = Mode::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {
            if matches!(mode, Mode::Str | Mode::RawStr(_)) && !current.is_empty() {
                strings.push(std::mem::take(&mut current));
            }
            lines.push(SourceLine {
                number: lines.len() + 1,
                code: std::mem::take(&mut code),
                strings: std::mem::take(&mut strings),
                in_test: false,
            });
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            flush_line!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => match c {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    // Line comment: drop the rest of the line.
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    mode = Mode::Block(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                }
                'r' | 'b' if raw_string_hashes(&chars, i).is_some() => {
                    let (hashes, skip) = raw_string_hashes(&chars, i).expect("checked");
                    code.push('"');
                    mode = Mode::RawStr(hashes);
                    i += skip;
                }
                'b' if chars.get(i + 1) == Some(&'"') => {
                    code.push('"');
                    mode = Mode::Str;
                    i += 2;
                }
                '\'' => {
                    // Char literal or lifetime. A literal is 'x' or '\x…'.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to the closing quote.
                        i += 2;
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        i += 1;
                        code.push_str("' '");
                    } else if chars.get(i + 2) == Some(&'\'') {
                        code.push_str("' '");
                        i += 3;
                    } else {
                        // Lifetime tick.
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            },
            Mode::Block(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::Block(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    mode = Mode::Block(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Mode::Str => match c {
                '\\' => match chars.get(i + 1) {
                    // A line continuation: its newline still ends the line.
                    Some('\n') | None => i += 1,
                    Some(&esc) => {
                        current.push('\\');
                        current.push(esc);
                        i += 2;
                    }
                },
                '"' => {
                    strings.push(std::mem::take(&mut current));
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                }
                c => {
                    current.push(c);
                    i += 1;
                }
            },
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    strings.push(std::mem::take(&mut current));
                    code.push('"');
                    mode = Mode::Code;
                    i += 1 + hashes as usize;
                } else {
                    current.push(c);
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !strings.is_empty() || !current.is_empty() {
        flush_line!();
    }

    let mut file = ScannedFile { lines };
    mark_test_items(&mut file);
    file
}

/// If position `i` starts a raw string (`r"`, `r#"`, `br##"`, …),
/// returns `(hash_count, chars_to_skip)` up to and including the
/// opening quote.
fn raw_string_hashes(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j + 1 - i))
    } else {
        None
    }
}

/// `true` when the `"` at `i` is followed by `hashes` `#`s.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Marks every line covered by a `#[cfg(test)]` item. The attribute
/// guards the next item: the region runs to the matching close of the
/// first `{` after it (brace-counted over code, so braces in strings
/// and comments cannot confuse it), or to the first `;` outside every
/// bracket for brace-less items (the `;` of an array type `[T; N]` in a
/// signature does not end it).
fn mark_test_items(file: &mut ScannedFile) {
    let mut i = 0usize;
    while i < file.lines.len() {
        if !file.lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let start = i;
        let mut depth = 0i64;
        let mut nest = 0i64;
        let mut started = false;
        let mut end = file.lines.len() - 1;
        'outer: for (j, line) in file.lines.iter().enumerate().skip(start) {
            // Only look past the attribute itself on its own line.
            let code = if j == start {
                let at = line.code.find("#[cfg(test)]").expect("checked") + "#[cfg(test)]".len();
                &line.code[at..]
            } else {
                line.code.as_str()
            };
            for c in code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth == 0 {
                            end = j;
                            break 'outer;
                        }
                    }
                    '(' | '[' => nest += 1,
                    ')' | ']' => nest -= 1,
                    ';' if !started && depth == 0 && nest == 0 => {
                        end = j;
                        break 'outer;
                    }
                    _ => {}
                }
            }
        }
        for line in &mut file.lines[start..=end] {
            line.in_test = true;
        }
        i = end + 1;
    }
}

/// `true` when `code` contains `word` delimited by non-identifier
/// characters on both sides (`::`-qualified patterns work too: the
/// boundary test applies to the pattern's first and last characters).
#[must_use]
pub fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(word) {
        let begin = start + pos;
        let end = begin + word.len();
        let left_ok =
            begin == 0 || !is_ident_char(code[..begin].chars().next_back().expect("char"));
        let right_ok =
            end == code.len() || !is_ident_char(code[end..].chars().next().expect("char"));
        if left_ok && right_ok {
            return true;
        }
        start = end;
    }
    false
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_from_code() {
        let f = scan("let x = 1; // Instant::now\n/* HashMap */ let y = 2;\n");
        assert_eq!(f.lines[0].code.trim(), "let x = 1;");
        assert_eq!(f.lines[1].code.trim(), "let y = 2;");
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let f = scan("/* a /* b */ still comment */ code();\n");
        assert_eq!(f.lines[0].code.trim(), "code();");
    }

    #[test]
    fn string_contents_move_to_the_strings_view() {
        let f = scan("let s = \"Instant {x:?}\"; HashMap::new();\n");
        assert_eq!(f.lines[0].code.trim(), "let s = \"\"; HashMap::new();");
        assert_eq!(f.lines[0].strings, vec!["Instant {x:?}".to_string()]);
    }

    #[test]
    fn raw_strings_and_escapes_are_tracked() {
        let f = scan("let a = r#\"x \" y\"#; let b = \"q\\\"r\";\n");
        assert_eq!(f.lines[0].strings.len(), 2);
        assert_eq!(f.lines[0].strings[0], "x \" y");
        assert_eq!(f.lines[0].strings[1], "q\\\"r");
    }

    #[test]
    fn char_literals_are_not_strings_and_lifetimes_survive() {
        let f = scan("let c = '\"'; fn f<'a>(x: &'a str) {}\n");
        assert!(f.lines[0].strings.is_empty());
        assert!(f.lines[0].code.contains("fn f<'a>"));
    }

    #[test]
    fn multiline_strings_fragment_per_line() {
        let f = scan("let s = \"one\ntwo\";\nafter();\n");
        assert_eq!(f.lines[0].strings, vec!["one".to_string()]);
        assert_eq!(f.lines[1].strings, vec!["two".to_string()]);
        assert_eq!(f.lines[2].code.trim(), "after();");
    }

    #[test]
    fn cfg_test_items_are_marked_to_their_closing_brace() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = scan(src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, [false, true, true, true, true, false]);
    }

    #[test]
    fn a_line_continuation_in_a_string_keeps_the_line_numbers() {
        let f = scan("let s = \"a\\\n    b\";\nafter();\n");
        assert_eq!(f.lines.len(), 3);
        assert_eq!(f.lines[0].strings, vec!["a".to_string()]);
        assert_eq!((f.lines[2].number, f.lines[2].code.trim()), (3, "after();"));
    }

    #[test]
    fn an_array_type_does_not_end_a_cfg_test_item() {
        let src = "#[cfg(test)]\nfn f() -> [u8; 2] {\n    [0; 2]\n}\nfn after() {}\n\
                   #[cfg(test)]\nconst X: [u8; 2] = [0; 2];\nfn last() {}\n";
        let flags: Vec<bool> = scan(src).lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, [true, true, true, true, false, true, true, false]);
    }

    #[test]
    fn word_boundaries_hold() {
        assert!(has_word("use std::time::Instant;", "Instant"));
        assert!(has_word("Instant::now()", "Instant"));
        assert!(!has_word("SimInstantaneous", "Instant"));
        assert!(!has_word("let instant = 3;", "Instant"));
        assert!(has_word("rand::random()", "rand::random"));
    }
}
