//! Every metric name the product code records or reads is a row of
//! DESIGN.md §7's metric table, every row names a metric the code still
//! has and what reads it, and every name the code reads is also recorded
//! somewhere.
//!
//! The code side is every string literal passed as a metric name in
//! `crates/*/src`, outside `#[cfg(test)]` items: the first argument of
//! `telemetry::{count, gauge, observe, timer, count_labeled,
//! observe_labeled}` and of the registry's `counter`/`gauge`/`histogram`
//! (and labeled) lookups. A lookup whose handle is only `.get()` is a
//! read; every other use is a record. A name built with `format!`
//! (`{}.alloc_bytes`) is a pattern; the table writes its holes as `<…>`
//! (`<span>.alloc_bytes`), and both sides compare with every hole as `*`.
//! A span's duration histogram is recorded under the span's own name, not
//! a metric-name literal, so it is not part of this inventory; §7's span
//! taxonomy lists the round loop's spans.

mod source;

use std::collections::BTreeSet;
use std::path::Path;

use source::{find, lex, rust_files, test_items};

/// Call prefixes whose first argument is a metric name. The
/// `telemetry::` ones always record.
const CALLS: &[&str] = &[
    "telemetry::count(",
    "telemetry::gauge(",
    "telemetry::observe(",
    "telemetry::timer(",
    "telemetry::count_labeled(",
    "telemetry::observe_labeled(",
    ".counter(",
    ".gauge(",
    ".histogram(",
    ".counter_labeled(",
    ".histogram_labeled(",
];

/// How a call site uses the metric it names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Use {
    Record,
    Read,
}

/// Metric names (and `*`-normalized `format!` patterns) passed to the
/// recording and lookup calls in one file's non-test code, each with how
/// the call uses it.
fn names_in(src: &str) -> Vec<(String, Use)> {
    let (code, literals) = lex(src);
    let tests = test_items(&code);
    let literal_at = |i: usize| literals.iter().find(|(at, _)| *at == i).map(|(_, s)| s.clone());
    let mut names = Vec::new();
    for call in CALLS {
        let mut from = 0;
        while let Some(at) = find(&code, call, from) {
            from = at + 1;
            if tests.iter().any(|&(s, e)| (s..e).contains(&at)) {
                continue;
            }
            let open = at + call.chars().count() - 1;
            let mut i = open + 1;
            while code.get(i).is_some_and(|c| c.is_whitespace() || *c == '&') {
                i += 1;
            }
            let name = if let Some(name) = literal_at(i) {
                name
            } else if code[i..].starts_with(&['f', 'o', 'r', 'm', 'a', 't', '!', '(']) {
                match literal_at(i + "format!(".len()) {
                    Some(pattern) => holes(&pattern, '{', '}'),
                    None => continue,
                }
            } else {
                continue;
            };
            let mut end = close_paren(&code, open);
            while code.get(end).is_some_and(|c| c.is_whitespace()) {
                end += 1;
            }
            let read = !call.starts_with("telemetry::")
                && code[end..].starts_with(&['.', 'g', 'e', 't', '(', ')']);
            names.push((name, if read { Use::Read } else { Use::Record }));
        }
    }
    names
}

/// The index just past the `)` that closes the `(` at `open`.
fn close_paren(code: &[char], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, c) in code.iter().enumerate().skip(open) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// Whether `name` is `pattern` with each `*` standing for one or more
/// characters.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, rest)) => {
            name.starts_with(head)
                && (head.len() + 1..=name.len())
                    .any(|k| name.is_char_boundary(k) && glob(rest, &name[k..]))
        }
    }
}

/// Replaces every `open…close` hole with `*`.
fn holes(s: &str, open: char, close: char) -> String {
    let mut out = String::new();
    let mut in_hole = false;
    for c in s.chars() {
        match c {
            _ if c == open => {
                in_hole = true;
                out.push('*');
            }
            _ if c == close && in_hole => in_hole = false,
            _ if in_hole => {}
            _ => out.push(c),
        }
    }
    out
}

fn code_inventory(root: &Path) -> Vec<(String, Use)> {
    let mut files = Vec::new();
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("entry").path().join("src"))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for src in &crates {
        rust_files(src, &mut files);
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    files.iter().flat_map(|f| names_in(&std::fs::read_to_string(f).expect("source file"))).collect()
}

/// Each row of the `| metric | …` table in DESIGN.md §7: its first-column
/// name and its last ("read by") cell.
fn design_inventory(root: &Path) -> Vec<(String, String)> {
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let start = design.find("\n## 7.").expect("DESIGN.md §7");
    let end = start + design[start..].find("\n## 8.").expect("DESIGN.md §8");
    let section = &design[start..end];
    let table = &section[section.find("\n| metric |").expect("§7 metric table") + 1..];
    table
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            assert_eq!(cells.len(), 6, "four cells: {row}");
            let name = cells[1].strip_prefix('`').and_then(|c| c.strip_suffix('`'));
            let name = name.unwrap_or_else(|| panic!("first cell is one `name`: {row}"));
            (holes(name, '<', '>'), cells[4].to_string())
        })
        .collect()
}

#[test]
fn lexer_skips_comments_literals_and_test_items() {
    let src = r##"
        // telemetry::count("commented.out", 1);
        /* telemetry::gauge("block.comment", 1.0); */
        fn live() {
            let s = "not a call: telemetry::count(\"in.a.string\", 1) }";
            let c = '{';
            telemetry::count("live.counter", 1);
            reg.histogram(&format!("mem.{name}.bytes"));
            let raw = r#"telemetry::timer("raw.string")"#;
            let n = reg.counter("read.counter")
                .get();
            reg.gauge(&name("x")).set(1.0);
        }
        #[cfg(test)]
        mod tests {
            fn t() { telemetry::count("test.only", 1); let b = '}'; }
        }
        fn after<'a>(x: &'a str) { telemetry::observe_labeled(
            "after.test.module", "k", x, 1); }
    "##;
    let names: Vec<_> = names_in(src).into_iter().map(|(n, u)| (n, u == Use::Read)).collect();
    let expect = [("live.counter", false), ("after.test.module", false), ("read.counter", true)];
    let mut expect: Vec<_> = expect.iter().map(|&(n, r)| (n.to_string(), r)).collect();
    expect.push(("mem.*.bytes".to_string(), false));
    assert_eq!(names, expect);
    assert!(glob("mem.*.bytes", "mem.obs.refresh.bytes") && !glob("mem.*.bytes", "mem..bytes"));
}

#[test]
fn design_metric_table_matches_the_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let uses = code_inventory(root);
    let code: BTreeSet<String> = uses.iter().map(|(n, _)| n.clone()).collect();
    let rows: Vec<String> = design_inventory(root).into_iter().map(|(name, _)| name).collect();
    let table: BTreeSet<String> = rows.iter().cloned().collect();
    assert_eq!(table.len(), rows.len(), "a metric has two rows in DESIGN.md §7");
    let undocumented: Vec<_> = code.difference(&table).collect();
    let stale: Vec<_> = table.difference(&code).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "DESIGN.md §7's metric table is out of date\n\
         recorded or read in crates/*/src but not in the table: {undocumented:?}\n\
         in the table but in no crates/*/src call: {stale:?}"
    );
    let recorded: Vec<&String> =
        uses.iter().filter(|(_, u)| *u == Use::Record).map(|(n, _)| n).collect();
    let unrecorded: BTreeSet<&String> = uses
        .iter()
        .filter(|(n, u)| *u == Use::Read && !recorded.iter().any(|r| glob(r, n)))
        .map(|(n, _)| n)
        .collect();
    assert!(unrecorded.is_empty(), "read in crates/*/src but recorded nowhere: {unrecorded:?}");
    assert!(uses.iter().any(|(n, u)| n == "par.queue.depth" && *u == Use::Read));
}

#[test]
fn every_design_metric_has_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unread: Vec<String> = design_inventory(root)
        .into_iter()
        .filter(|(_, read_by)| read_by.is_empty() || read_by == "operator only")
        .map(|(name, _)| name)
        .collect();
    assert!(
        unread.is_empty(),
        "a metric in DESIGN.md §7 has no reader: assert it in a test, render it in a \
         report or endpoint, or delete it: {unread:?}"
    );
}
