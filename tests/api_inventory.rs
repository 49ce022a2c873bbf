//! Every `pub` item of the library crates has a user outside its crate,
//! or an allow-list entry that says why it stays `pub`; and every
//! allow-list entry names an item that still exists and still has no
//! such user (DESIGN.md §7's API rule).
//!
//! An item is a `pub` `fn`, `struct`, `enum`, `trait`, `type`, `const`,
//! `static` or `union` in a library crate's `src/`, outside
//! `#[cfg(test)]` items and `src/bin/` (fields, modules and re-exports
//! are not items). A user is its name as an identifier in another
//! crate's `src/`, in a bin, in any `tests/` file or example, in a
//! README code block or in a doc-comment example. Names are matched
//! without paths, so a common name (`new`, `len`) counts as used: the
//! inventory finds items nobody names, not every item nobody calls.
//!
//! `cargo test --test api_inventory -- --nocapture` prints the per-crate
//! counts.

mod source;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use source::{lex, rust_files, test_items};

/// The library crates under audit (`bench` and `benchmark` are
/// harnesses: nothing imports them).
const CRATES: &[&str] = &[
    "bigint",
    "channel",
    "core",
    "data",
    "fhe",
    "hdc",
    "net",
    "nn",
    "obs",
    "par",
    "scenario",
    "telemetry",
];

const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "union"];

/// `(crate, item, why it stays pub)` for the items no one outside their
/// crate names.
const ALLOWED: &[(&str, &str, &str)] = &[
    ("bigint", "ParseBigUintError", "the error of `BigUint::from_decimal`"),
    ("channel", "PhyConfig", "the type of the public field `ChannelModel::phy`"),
    ("channel", "TransferStats", "returned by `PacketLink::transfer`"),
    ("core", "ChannelStats", "returned by `NoisyFederation::run`"),
    ("core", "EncoderKind", "the type of `FlConfig::encoder` and its builder setter"),
    ("core", "FlConfigBuilder", "returned by `FlConfig::builder`"),
    ("core", "Lanes", "the payload of `PackingConfig::BitInterleaved`"),
    ("core", "RunReport", "returned by `Framework::run` and `NnFederation::run`"),
    ("core", "Sealed", "the supertrait that seals `WireCodec`"),
    ("data", "GenerateError", "the error of `SyntheticConfig::generate`"),
    ("fhe", "NttKernel", "returned by `available_kernels` and taken by `NttTable::with_kernel`"),
    ("fhe", "PaillierCiphertext", "returned by `PaillierContext::encrypt`"),
    ("fhe", "PartialDecryption", "returned by `ThresholdGroup::partial_decrypt`"),
    ("net", "NetRoundReport", "the element of the public field `NetReport::rounds`"),
    ("net", "ServerConfigBuilder", "returned by `ServerConfig::builder`"),
    ("nn", "Layer", "the trait object `Network::new` takes"),
    ("scenario", "ChurnEvent", "returned by `ChurnTrace::events`"),
    ("telemetry", "AllocStats", "returned by `alloc::stats`"),
    ("telemetry", "Counter", "returned by `Registry::counter`"),
    ("telemetry", "Gauge", "returned by `Registry::gauge`"),
    ("telemetry", "Histogram", "returned by `Registry::histogram`"),
    ("telemetry", "HistogramSummary", "the element of `MetricsSnapshot::histograms`"),
    ("telemetry", "Span", "returned by `telemetry::span`"),
    ("telemetry", "SpanNode", "returned by `SpanTree::get` and `SpanTree::nodes`"),
    ("telemetry", "SpanRecord", "returned by `profile::parse_jsonl_records`"),
    ("telemetry", "Timer", "returned by `telemetry::timer`"),
];

/// One `pub` item: its crate, its name and where it is declared.
struct Item {
    krate: &'static str,
    name: String,
    at: String,
}

fn ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers of a stretch of code.
fn words(code: &[char]) -> impl Iterator<Item = String> + '_ {
    code.split(|&c| !ident(c)).filter(|w| !w.is_empty()).map(|w| w.iter().collect())
}

/// The `(char offset, name)` of each `pub` item in one file's non-test
/// code.
fn pub_items(src: &str) -> Vec<(usize, String)> {
    let (code, _) = lex(src);
    let tests = test_items(&code);
    let mut items = Vec::new();
    for at in 0..code.len().saturating_sub(4) {
        let keyword = code[at..].starts_with(&['p', 'u', 'b'])
            && code[at + 3].is_whitespace()
            && (at == 0 || !ident(code[at - 1]));
        if !keyword || tests.iter().any(|&(s, e)| (s..e).contains(&at)) {
            continue;
        }
        // `pub const fn f<T>(…`, `pub struct S;`, `pub static mut X: …`:
        // the words up to the first delimiter end with the name.
        let end = (at + 3..code.len()).find(|&i| "(<{;:=,)".contains(code[i])).unwrap_or(at + 3);
        let head: Vec<String> = words(&code[at + 3..end]).collect();
        let Some((name, quals)) = head.split_last() else { continue };
        let qualifier = |w: &String| {
            KINDS.contains(&w.as_str())
                || ["unsafe", "async", "extern", "mut"].contains(&w.as_str())
        };
        if quals.iter().any(|w| KINDS.contains(&w.as_str())) && quals.iter().all(qualifier) {
            items.push((at, name.clone()));
        }
    }
    items
}

/// The identifiers in the fenced code blocks of markdown lines (a README,
/// or the text of doc comments), skipping blocks marked as another
/// language.
fn fenced_words(lines: impl Iterator<Item = String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut fence: Option<bool> = None;
    for line in lines {
        let line = line.trim_start();
        if let Some(info) = line.strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => {
                    let other = ["text", "sh", "bash", "console", "json", "toml", "plain"];
                    Some(!other.contains(&info.trim()))
                }
            };
        } else if fence == Some(true) {
            out.extend(words(&line.chars().collect::<Vec<_>>()));
        }
    }
    out
}

/// The identifiers in a source file's doc-comment examples.
fn doc_example_words(src: &str) -> BTreeSet<String> {
    let docs = src.lines().filter_map(|l| {
        let l = l.trim_start();
        l.strip_prefix("///").or_else(|| l.strip_prefix("//!")).map(str::to_string)
    });
    fenced_words(docs)
}

/// Every `.rs` file of the workspace with the crate it belongs to
/// (`None` for the root package) and whether it is library source.
fn workspace_files(root: &Path) -> Vec<(Option<String>, bool, PathBuf)> {
    let mut files = Vec::new();
    let mut push = |krate: Option<String>, lib: bool, dir: PathBuf| {
        let mut found = Vec::new();
        if dir.is_dir() {
            rust_files(&dir, &mut found);
        }
        files.extend(found.into_iter().map(|p| (krate.clone(), lib, p)));
    };
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("entry").path())
        .collect();
    crates.sort();
    for dir in crates {
        let krate = dir.file_name().and_then(|n| n.to_str()).map(str::to_string);
        push(krate.clone(), true, dir.join("src"));
        for other in ["tests", "examples", "benches"] {
            push(krate.clone(), false, dir.join(other));
        }
    }
    for dir in ["src", "tests", "examples"] {
        push(None, false, root.join(dir));
    }
    // A bin is a user of its own crate; the inventories' own code names
    // no product item.
    files
        .into_iter()
        .filter(|(_, _, p)| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            !(p.starts_with(root.join("tests"))
                && (name.ends_with("_inventory.rs") || p.parent() != Some(&root.join("tests"))))
        })
        .map(|(krate, lib, p)| {
            let bin = p.components().any(|c| c.as_os_str() == "bin");
            (krate, lib && !bin, p)
        })
        .collect()
}

/// Every audited `pub` item, and for each crate the identifiers found
/// outside it.
fn inventory(root: &Path) -> (Vec<Item>, Vec<BTreeSet<String>>) {
    let files: Vec<_> = workspace_files(root)
        .into_iter()
        .map(|(krate, lib, path)| {
            let src = std::fs::read_to_string(&path).expect("source file");
            let names: BTreeSet<String> = words(&lex(&src).0).collect();
            (krate, lib, path, src, names)
        })
        .collect();
    assert!(files.len() > 100, "found only {} source files", files.len());
    let mut shared = BTreeSet::new();
    let readmes = std::iter::once(root.join("README.md"))
        .chain(CRATES.iter().map(|c| root.join("crates").join(c).join("README.md")));
    for readme in readmes.filter(|p| p.is_file()) {
        let text = std::fs::read_to_string(readme).expect("README");
        shared.extend(fenced_words(text.lines().map(str::to_string)));
    }
    for (_, _, _, src, _) in &files {
        shared.extend(doc_example_words(src));
    }
    let mut items = Vec::new();
    let mut users = Vec::new();
    for &krate in CRATES {
        let mut outside = shared.clone();
        for (owner, lib, path, src, names) in &files {
            let own = owner.as_deref() == Some(krate) && *lib;
            if !own {
                outside.extend(names.iter().cloned());
                continue;
            }
            for (at, name) in pub_items(src) {
                let line = src.chars().take(at).filter(|&c| c == '\n').count() + 1;
                let file = path.strip_prefix(root).unwrap_or(path).display();
                items.push(Item { krate, name, at: format!("{file}:{line}") });
            }
        }
        users.push(outside);
    }
    (items, users)
}

fn allowed(krate: &str, name: &str) -> bool {
    ALLOWED.iter().any(|&(c, n, _)| c == krate && n == name)
}

/// The `allowed` entries that name no `pub` item, or one with a user.
fn stale(
    allowed: &[(&str, &str, &str)],
    items: &[Item],
    used: impl Fn(&Item) -> bool,
) -> Vec<String> {
    allowed
        .iter()
        .filter(|&&(krate, name, _)| {
            let live: Vec<&Item> =
                items.iter().filter(|i| i.krate == krate && i.name == name).collect();
            live.is_empty() || live.iter().any(|i| used(i))
        })
        .map(|&(krate, name, _)| format!("{krate}::{name}"))
        .collect()
}

#[test]
fn item_lexer_finds_pub_items_outside_tests() {
    let src = r#"
        pub fn free<T>(x: T) {}
        pub const fn konst() -> u8 { 0 }
        pub const LIMIT: usize = 4;
        pub static mut COUNT: u32 = 0;
        pub struct Unit;
        pub struct Pair(pub u8, pub u16);
        pub struct Named { pub field: u8 }
        pub unsafe extern "C" fn ffi() {}
        pub(crate) fn narrow() {}
        pub mod module {}
        pub use std::fmt;
        pub trait Sealed: Clone {}
        pub type Alias = u8;
        // pub fn commented() {}
        const S: &str = "pub fn quoted() {}";
        #[cfg(test)]
        mod tests { pub fn test_only() {} }
        impl Unit { pub fn method(&self) {} }
    "#;
    let names: Vec<String> = pub_items(src).into_iter().map(|(_, n)| n).collect();
    let expect = [
        "free", "konst", "LIMIT", "COUNT", "Unit", "Pair", "Named", "ffi", "Sealed", "Alias",
        "method",
    ];
    assert_eq!(names, expect);
    let doc = "/// ```\n/// let x = documented();\n/// ```\n/// ```text\n/// prose()\n/// ```\n";
    assert_eq!(
        doc_example_words(doc),
        BTreeSet::from(["documented".into(), "let".into(), "x".into()])
    );
}

#[test]
fn an_allow_list_entry_that_is_gone_or_used_is_stale() {
    let item = |name: &str| Item { krate: "core", name: name.into(), at: String::new() };
    let items = [item("Used"), item("Unused")];
    let allowed = [("core", "Used", "r"), ("core", "Unused", "r"), ("net", "Unused", "r")];
    assert_eq!(stale(&allowed, &items, |i| i.name == "Used"), ["core::Used", "net::Unused"]);
}

#[test]
fn every_pub_item_has_an_outside_user_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (items, users) = inventory(root);
    let used = |item: &Item| {
        let k = CRATES.iter().position(|&c| c == item.krate).expect("audited crate");
        users[k].contains(&item.name)
    };
    println!("{:<10} {:>9} {:>13} {:>12}", "crate", "pub items", "outside user", "allow-listed");
    for &krate in CRATES {
        let of: Vec<&Item> = items.iter().filter(|i| i.krate == krate).collect();
        let with_user = of.iter().filter(|i| used(i)).count();
        let listed = of.iter().filter(|i| !used(i) && allowed(krate, &i.name)).count();
        println!("{krate:<10} {:>9} {with_user:>13} {listed:>12}", of.len());
    }
    println!(
        "{:<10} {:>9} {:>13} {:>12}",
        "total",
        items.len(),
        items.iter().filter(|i| used(i)).count(),
        items.iter().filter(|i| !used(i) && allowed(i.krate, &i.name)).count()
    );

    let unused: Vec<String> = items
        .iter()
        .filter(|i| !used(i) && !allowed(i.krate, &i.name))
        .map(|i| format!("{}::{} ({})", i.krate, i.name, i.at))
        .collect();
    assert!(
        unused.is_empty(),
        "{} pub items have no user outside their crate: narrow them to pub(crate), delete \
         them, or allow-list them with a reason:\n{}",
        unused.len(),
        unused.join("\n")
    );

    let stale = stale(ALLOWED, &items, used);
    assert!(stale.is_empty(), "allow-list entries that are gone or now have a user: {stale:?}");
    for &(krate, name, why) in ALLOWED {
        assert!(!why.trim().is_empty() && !why.contains('\n'), "{krate}::{name}: one-line reason");
    }
}
