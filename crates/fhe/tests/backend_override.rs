//! `RHYCHEE_NTT_BACKEND` resolves as `ntt::active_kernel` documents:
//! `scalar` pins the reference, unset means the last (widest) entry of
//! `available_kernels()`, and a name no backend answers to (here
//! `avx2`) falls back to scalar with one warning line on stderr.
//!
//! `active_kernel()` resolves once per process, so each case re-runs
//! this test binary as a child — only the ignored
//! `print_active_kernel` test, with the variable set or removed — and
//! reads the name the child printed.

use std::process::Command;

use rhychee_fhe::ckks::ntt::{active_kernel, available_kernels};

const CHILD: &str = "print_active_kernel";
const PREFIX: &str = "active kernel: ";
const WARNING: &str = "unavailable on this host";

/// The child body; run only by [`resolve`].
#[test]
#[ignore = "run as a child process by the tests below"]
fn print_active_kernel() {
    println!("{PREFIX}{}", active_kernel().name());
}

/// Runs the child with `RHYCHEE_NTT_BACKEND` set to `backend` (removed
/// when `None`) and returns the kernel name it printed and its stderr.
fn resolve(backend: Option<&str>) -> (String, String) {
    let mut child = Command::new(std::env::current_exe().expect("path of this test binary"));
    child.args([CHILD, "--ignored", "--exact", "--nocapture"]);
    match backend {
        Some(name) => child.env("RHYCHEE_NTT_BACKEND", name),
        None => child.env_remove("RHYCHEE_NTT_BACKEND"),
    };
    let out = child.output().expect("run the child test");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(out.status.success(), "child failed:\n{stdout}\n{stderr}");
    let name = stdout
        .lines()
        .find_map(|l| l.strip_prefix(PREFIX))
        .unwrap_or_else(|| panic!("child printed no kernel name:\n{stdout}"));
    (name.to_owned(), stderr)
}

#[test]
fn scalar_pins_the_reference() {
    let (name, stderr) = resolve(Some("scalar"));
    assert_eq!(name, "scalar");
    assert!(!stderr.contains(WARNING), "{stderr}");
}

#[test]
fn unset_resolves_the_widest_available_kernel() {
    let widest = available_kernels().last().expect("scalar is always available").name();
    let (name, stderr) = resolve(None);
    assert_eq!(name, widest);
    assert!(!stderr.contains(WARNING), "{stderr}");
}

#[test]
fn unknown_backend_falls_back_to_scalar_with_one_warning() {
    let (name, stderr) = resolve(Some("avx2"));
    assert_eq!(name, "scalar");
    assert_eq!(stderr.matches(WARNING).count(), 1, "{stderr}");
}
