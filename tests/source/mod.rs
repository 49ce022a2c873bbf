//! The source lexer the inventory tests share: it blanks comments and
//! literals, finds `#[cfg(test)]` items and walks source trees.

use std::path::{Path, PathBuf};

/// A source file's characters with comments and literal contents blanked
/// out (so braces, calls and items are matched in code only), and each
/// string literal's text keyed by the index of its opening quote.
pub(crate) fn lex(src: &str) -> (Vec<char>, Vec<(usize, String)>) {
    let chars: Vec<char> = src.chars().collect();
    let mut code = chars.clone();
    let mut literals = Vec::new();
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                code[i] = ' ';
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    code[i] = ' ';
                    i += 1;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    code[i] = ' ';
                    i += 1;
                }
                code[i] = ' ';
                i += 1;
                if depth == 0 {
                    break;
                }
            }
        } else if c == 'r'
            && (i == 0 || !ident(chars[i - 1]) || chars[i - 1] == 'b')
            && matches!(next, Some('"' | '#'))
        {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            let open = i + 1 + hashes;
            if chars.get(open) != Some(&'"') {
                i += 1;
                continue;
            }
            let mut j = open + 1;
            while j < chars.len()
                && !(chars[j] == '"' && chars[j + 1..].iter().take(hashes).all(|&h| h == '#'))
            {
                j += 1;
            }
            literals.push((open, chars[open + 1..j].iter().collect()));
            code[open + 1..j].iter_mut().for_each(|c| *c = ' ');
            i = j + 1 + hashes;
        } else if c == '"' {
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '"' {
                j += if chars[j] == '\\' { 2 } else { 1 };
            }
            literals.push((i, chars[i + 1..j].iter().collect()));
            code[i + 1..j].iter_mut().for_each(|c| *c = ' ');
            i = j + 1;
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A char literal (a lifetime has no closing quote).
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '\'' {
                j += if chars[j] == '\\' { 2 } else { 1 };
            }
            code[i + 1..j].iter_mut().for_each(|c| *c = ' ');
            i = j + 1;
        } else {
            i += 1;
        }
    }
    (code, literals)
}

pub(crate) fn find(hay: &[char], needle: &str, from: usize) -> Option<usize> {
    let needle: Vec<char> = needle.chars().collect();
    (from..hay.len().saturating_sub(needle.len() - 1)).find(|&i| hay[i..].starts_with(&needle))
}

/// The `[start, end)` ranges of `#[cfg(test)]` items: the attribute
/// through the item's closing brace (or its `;`).
pub(crate) fn test_items(code: &[char]) -> Vec<(usize, usize)> {
    let mut items = Vec::new();
    let mut from = 0;
    while let Some(start) = find(code, "#[cfg(test)]", from) {
        let mut i = start + "#[cfg(test)]".len();
        while i < code.len() && code[i] != '{' && code[i] != ';' {
            i += 1;
        }
        if code.get(i) == Some(&'{') {
            let mut depth = 0usize;
            while i < code.len() {
                match code[i] {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
        } else {
            i += 1;
        }
        items.push((start, i));
        from = i;
    }
    items
}

/// Every `.rs` file under `dir`, in path order.
pub(crate) fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> =
        std::fs::read_dir(dir).expect("readable dir").map(|e| e.expect("entry").path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
