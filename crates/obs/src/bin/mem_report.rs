//! `mem_report` — pretty-print Rhychee memory snapshots.
//!
//! Reads either a flight-recorder dump / `/memory.json` capture from a
//! file, or scrapes a live server's `/memory.json` over TCP, and prints
//! the JSON indented with a headline summary of the memory figures.
//!
//! ```text
//! mem_report dumps/flight-stall-1722950000000.json
//! mem_report 127.0.0.1:9464            # GET /memory.json from a live server
//! mem_report --raw snapshot.json      # indent only, no headline
//! ```
//!
//! Zero dependencies: a small brace/string lexer does the indentation
//! and `telemetry::json`'s field lookups pull the headline numbers —
//! enough for the well-formed JSON this stack emits, with no parser
//! crate in the tree.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::Duration;

use rhychee_telemetry::json::{str_field, u64_field};

fn main() -> ExitCode {
    let mut raw_only = false;
    let mut targets = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--raw" => raw_only = true,
            "--help" | "-h" => {
                eprintln!("usage: mem_report [--raw] <file.json | host:port>...");
                return ExitCode::SUCCESS;
            }
            _ => targets.push(arg),
        }
    }
    if targets.is_empty() {
        eprintln!("usage: mem_report [--raw] <file.json | host:port>...");
        return ExitCode::FAILURE;
    }
    let mut ok = true;
    for target in &targets {
        match load(target) {
            Ok(body) => {
                if targets.len() > 1 {
                    println!("==> {target} <==");
                }
                if !raw_only {
                    print_headline(&body);
                }
                println!("{}", indent_json(&body));
            }
            Err(err) => {
                eprintln!("mem_report: {target}: {err}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A `host:port` target is scraped for `/memory.json`; anything else is
/// read as a file.
fn load(target: &str) -> Result<String, String> {
    if looks_like_addr(target) {
        http_get(target, "/memory.json")
    } else {
        std::fs::read_to_string(target).map_err(|e| e.to_string())
    }
}

/// `host:port` iff the part after the last `:` is a valid port and the
/// target is not an existing file (a file named `a:1` still wins).
fn looks_like_addr(target: &str) -> bool {
    if std::path::Path::new(target).exists() {
        return false;
    }
    match target.rsplit_once(':') {
        Some((host, port)) => !host.is_empty() && port.parse::<u16>().is_ok(),
        None => false,
    }
}

fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| e.to_string())?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or("malformed HTTP response")?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(format!("server answered: {status}"));
    }
    Ok(body.to_owned())
}

const MIB: f64 = 1024.0 * 1024.0;

/// Prints the numbers a human checks first, pulled straight from the
/// raw body so the headline works for both `/memory.json` captures and
/// flight-recorder dumps (which embed the same object under "memory").
fn print_headline(body: &str) {
    if let Some(reason) = str_field(body, "reason") {
        println!("# flight recorder dump — reason: {reason}");
    }
    let figure = |label: &str, bytes: Option<u64>| {
        if let Some(v) = bytes {
            println!("# {label:<24} {:>10.2} MiB", v as f64 / MIB);
        }
    };
    if u64_field(body, "live_bytes").is_some() {
        figure("heap live", u64_field(body, "live_bytes"));
        figure("heap peak", u64_field(body, "peak_bytes"));
        let rss = body.split_once("\"rss\":").and_then(|(_, rest)| u64_field(rest, "bytes"));
        figure("rss", rss);
        figure("tracked sources", u64_field(body, "sources_total_bytes"));
    }
    println!();
}

/// Re-indents compact JSON: newline + indent after `{`/`[`/`,`, newline
/// before `}`/`]`, space after `:` — all outside string literals.
fn indent_json(body: &str) -> String {
    let mut out = String::with_capacity(body.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in body.chars() {
        if in_str {
            out.push(c);
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_str = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            c if c.is_whitespace() => {}
            _ => out.push(c),
        }
    }
    out
}
