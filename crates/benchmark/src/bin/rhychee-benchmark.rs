//! The end-to-end binary: system allocator, tracer compiled to nothing.
//! See `rhychee_benchmark::cli` for the command line.

use std::process::ExitCode;

use rhychee_benchmark::cli::{self, Flavor};

fn main() -> ExitCode {
    cli::main(Flavor::EndToEnd)
}
