//! The traced binary: same drivers, tracer on, and the tracking
//! allocator installed so every span carries the heap bytes it
//! allocated. Started by `rhychee-benchmark --trace 1`.

use std::process::ExitCode;

use rhychee_benchmark::cli::{self, Flavor};
use rhychee_benchmark::sut::TrackingAlloc;

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() -> ExitCode {
    cli::main(Flavor::Traced)
}
