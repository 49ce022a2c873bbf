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
//! The same holds for the names a library crate's `lib.rs` re-exports at
//! its root with `pub use`: each needs a root-path user outside the crate
//! (`rhychee_core::Framework`, `use rhychee_fl::core::{Framework, …}`, or
//! `telemetry::Span` behind `use rhychee_telemetry as telemetry`) or an
//! `ALLOWED_ROOT` entry, and a stale entry fails. A user of the module
//! path (`rhychee_core::framework::Framework`) does not count: it needs
//! no re-export.
//!
//! `cargo test --test api_inventory -- --nocapture` prints the per-crate
//! counts of both.

mod source;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use source::{find, lex, rust_files, test_items};

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

/// `(crate, name, why it stays)` for the root re-exports no one outside
/// their crate reaches through the root path.
const ALLOWED_ROOT: &[(&str, &str, &str)] = &[];

/// One `pub` item or root re-export: its crate, its name and where it is
/// declared.
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

/// The identifiers, `::` and other punctuation of a stretch of code, in
/// order, whitespace dropped.
fn tokens(code: &[char]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let c = code[i];
        let len = if ident(c) {
            code[i..].iter().take_while(|&&c| ident(c)).count()
        } else if code[i..].starts_with(&[':', ':']) {
            2
        } else {
            1
        };
        if !c.is_whitespace() {
            out.push(code[i..i + len].iter().collect());
        }
        i += len;
    }
    out
}

/// The identifiers among `toks`.
fn identifiers(toks: &[String]) -> impl Iterator<Item = String> + '_ {
    toks.iter().filter(|t| t.chars().all(ident)).cloned()
}

/// The `(char offset, name)` of each name a `lib.rs` re-exports in its
/// non-test `pub use` declarations: each leaf of the use tree (a word
/// before `,`, `}` or `;`), which is its `as` alias when it has one.
fn root_reexports(src: &str) -> Vec<(usize, String)> {
    let (code, _) = lex(src);
    let tests = test_items(&code);
    let mut names = Vec::new();
    let mut from = 0;
    while let Some(at) = find(&code, "pub use ", from) {
        let end = (at..code.len()).find(|&i| code[i] == ';').unwrap_or(code.len() - 1);
        from = end + 1;
        if (at > 0 && ident(code[at - 1])) || tests.iter().any(|&(s, e)| (s..e).contains(&at)) {
            continue;
        }
        let toks = tokens(&code[at + "pub use".len()..=end]);
        for pair in toks.windows(2) {
            let leaf = pair[0].chars().all(ident) && pair[0] != "self";
            if leaf && [",", "}", ";"].contains(&pair[1].as_str()) {
                names.push((at, pair[0].clone()));
            }
        }
    }
    names
}

/// The first path segments that follow `prefix::` in `toks`, for any of
/// `prefixes` (a crate's name and its short alias): `rhychee_core::A`,
/// `core::{B, c::D}` and `rhychee_fl::core::E` give `A`, `B`, `c` and
/// `E`. A prefix behind another path (`std::net::`) does not count,
/// except behind the umbrella crate.
fn root_path_names(toks: &[String], prefixes: &[String]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for i in 0..toks.len().saturating_sub(2) {
        let rooted = i == 0 || toks[i - 1] != "::" || (i >= 2 && toks[i - 2] == "rhychee_fl");
        if !rooted || !prefixes.contains(&toks[i]) || toks[i + 1] != "::" {
            continue;
        }
        if toks[i + 2] != "{" {
            out.insert(toks[i + 2].clone());
            continue;
        }
        let mut depth = 0;
        for (j, tok) in toks.iter().enumerate().skip(i + 2) {
            match tok.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            if depth == 1 && ["{", ","].contains(&tok.as_str()) {
                if let Some(next) = toks.get(j + 1).filter(|t| t.chars().all(ident) && *t != "self")
                {
                    out.insert(next.clone());
                }
            }
        }
    }
    out
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

/// The lines of the fenced code blocks of markdown lines (a README, or
/// the text of doc comments), skipping blocks marked as another language.
fn fenced_code(lines: impl Iterator<Item = String>) -> String {
    let mut out = String::new();
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
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The code of a source file's doc-comment examples.
fn doc_examples(src: &str) -> String {
    let docs = src.lines().filter_map(|l| {
        let l = l.trim_start();
        l.strip_prefix("///").or_else(|| l.strip_prefix("//!")).map(str::to_string)
    });
    fenced_code(docs)
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

/// The audited `pub` items and root re-exports, and for each crate the
/// identifiers found outside it and the names reached through its root.
struct Inventory {
    items: Vec<Item>,
    users: Vec<BTreeSet<String>>,
    reexports: Vec<Item>,
    root_users: Vec<BTreeSet<String>>,
}

fn inventory(root: &Path) -> Inventory {
    let files: Vec<_> = workspace_files(root)
        .into_iter()
        .map(|(krate, lib, path)| {
            let src = std::fs::read_to_string(&path).expect("source file");
            let toks = tokens(&lex(&src).0);
            (krate, lib, path, src, toks)
        })
        .collect();
    assert!(files.len() > 100, "found only {} source files", files.len());
    let readmes = std::iter::once(root.join("README.md"))
        .chain(CRATES.iter().map(|c| root.join("crates").join(c).join("README.md")));
    let mut examples: Vec<String> = readmes
        .filter(|p| p.is_file())
        .map(|p| {
            fenced_code(std::fs::read_to_string(p).expect("README").lines().map(str::to_string))
        })
        .collect();
    examples.extend(files.iter().map(|(_, _, _, src, _)| doc_examples(src)));
    let shared: Vec<Vec<String>> =
        examples.iter().map(|e| tokens(&e.chars().collect::<Vec<_>>())).collect();
    let at = |path: &Path, src: &str, at: usize| {
        let line = src.chars().take(at).filter(|&c| c == '\n').count() + 1;
        format!("{}:{line}", path.strip_prefix(root).unwrap_or(path).display())
    };
    let mut inv = Inventory {
        items: Vec::new(),
        users: Vec::new(),
        reexports: Vec::new(),
        root_users: Vec::new(),
    };
    for &krate in CRATES {
        let prefixes = [format!("rhychee_{krate}"), krate.to_string()];
        let mut outside: BTreeSet<String> = shared.iter().flat_map(|t| identifiers(t)).collect();
        let mut rooted: BTreeSet<String> =
            shared.iter().flat_map(|t| root_path_names(t, &prefixes)).collect();
        for (owner, lib, path, src, toks) in &files {
            let own = owner.as_deref() == Some(krate) && *lib;
            if !own {
                outside.extend(identifiers(toks));
                rooted.extend(root_path_names(toks, &prefixes));
                continue;
            }
            for (offset, name) in pub_items(src) {
                inv.items.push(Item { krate, name, at: at(path, src, offset) });
            }
            if path.ends_with("src/lib.rs") {
                for (offset, name) in root_reexports(src) {
                    inv.reexports.push(Item { krate, name, at: at(path, src, offset) });
                }
            }
        }
        inv.users.push(outside);
        inv.root_users.push(rooted);
    }
    inv
}

fn listed(allowed: &[(&str, &str, &str)], krate: &str, name: &str) -> bool {
    allowed.iter().any(|&(c, n, _)| c == krate && n == name)
}

/// The `allowed` entries that name no item, or one with a user.
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
    assert_eq!(doc_examples(doc), "let x = documented();\n");
}

#[test]
fn root_reexports_and_root_paths_are_found() {
    let lib = r#"
        pub use a::{B, c::D as E};
        pub use rhychee_par::Parallelism;
        pub(crate) use f::G;
        // pub use h::I;
        #[cfg(test)]
        pub use j::K;
    "#;
    let names: Vec<String> = root_reexports(lib).into_iter().map(|(_, n)| n).collect();
    assert_eq!(names, ["B", "E", "Parallelism"]);
    let code = "use rhychee_core::{A, b::C, self}; rhychee_fl::core::D::new(); \
                core::E; std::core::F; rhychee_core::g::H; x_core::I;";
    let prefixes = ["rhychee_core".to_string(), "core".to_string()];
    let found = root_path_names(&tokens(&code.chars().collect::<Vec<_>>()), &prefixes);
    assert_eq!(found, BTreeSet::from(["A", "D", "E", "b", "g"].map(String::from)));
}

#[test]
fn an_allow_list_entry_that_is_gone_or_used_is_stale() {
    let item = |name: &str| Item { krate: "core", name: name.into(), at: String::new() };
    let items = [item("Used"), item("Unused")];
    let allowed = [("core", "Used", "r"), ("core", "Unused", "r"), ("net", "Unused", "r")];
    assert_eq!(stale(&allowed, &items, |i| i.name == "Used"), ["core::Used", "net::Unused"]);
}

/// Per crate: how many of `of` there are, how many are `used`, and how
/// many of the rest `allowed` lists.
fn counts(
    of: &[Item],
    used: impl Fn(&Item) -> bool,
    allowed: &[(&str, &str, &str)],
) -> Vec<[usize; 3]> {
    CRATES
        .iter()
        .map(|&krate| {
            let of: Vec<&Item> = of.iter().filter(|i| i.krate == krate).collect();
            let with_user = of.iter().filter(|i| used(i)).count();
            let listed = of.iter().filter(|i| !used(i) && listed(allowed, krate, &i.name)).count();
            [of.len(), with_user, listed]
        })
        .collect()
}

/// The `of` entries neither `used` nor `allowed`, with where they are.
fn unlisted(of: &[Item], used: impl Fn(&Item) -> bool, allowed: &[(&str, &str, &str)]) -> String {
    of.iter()
        .filter(|i| !used(i) && !listed(allowed, i.krate, &i.name))
        .map(|i| format!("{}::{} ({})\n", i.krate, i.name, i.at))
        .collect()
}

#[test]
fn every_pub_item_has_an_outside_user_or_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let inv = inventory(root);
    let user_in = |sets: &[BTreeSet<String>], item: &Item| {
        let k = CRATES.iter().position(|&c| c == item.krate).expect("audited crate");
        sets[k].contains(&item.name)
    };
    let used = |item: &Item| user_in(&inv.users, item);
    let rooted = |item: &Item| user_in(&inv.root_users, item);
    let items = counts(&inv.items, used, ALLOWED);
    let reexports = counts(&inv.reexports, rooted, ALLOWED_ROOT);
    println!("crate      pub items  outside user allow-listed re-exports  root user allow-listed");
    let row = |name: &str, [a, b, c]: [usize; 3], [d, e, f]: [usize; 3]| {
        println!("{name:<10} {a:>9} {b:>13} {c:>12} {d:>10} {e:>10} {f:>12}");
    };
    let mut total = ([0; 3], [0; 3]);
    for (k, &krate) in CRATES.iter().enumerate() {
        row(krate, items[k], reexports[k]);
        for c in 0..3 {
            total.0[c] += items[k][c];
            total.1[c] += reexports[k][c];
        }
    }
    row("total", total.0, total.1);

    let unused = unlisted(&inv.items, used, ALLOWED);
    assert!(
        unused.is_empty(),
        "pub items with no user outside their crate: narrow them to pub(crate), delete them, \
         or allow-list them with a reason:\n{unused}"
    );
    let unrooted = unlisted(&inv.reexports, rooted, ALLOWED_ROOT);
    assert!(
        unrooted.is_empty(),
        "root re-exports no one outside their crate reaches through the root path: delete \
         them, or allow-list them in ALLOWED_ROOT with a reason:\n{unrooted}"
    );

    for (allowed, of, used) in [
        (ALLOWED, &inv.items, &used as &dyn Fn(&Item) -> bool),
        (ALLOWED_ROOT, &inv.reexports, &rooted),
    ] {
        let stale = stale(allowed, of, used);
        assert!(stale.is_empty(), "allow-list entries that are gone or now have a user: {stale:?}");
        for &(krate, name, why) in allowed {
            assert!(
                !why.trim().is_empty() && !why.contains('\n'),
                "{krate}::{name}: one-line reason"
            );
        }
    }
}
