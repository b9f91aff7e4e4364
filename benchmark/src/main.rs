//! `cb-benchmark run | compare` — see `cb_benchmark::cli`.

use cb_benchmark::alloc::Counting;

// Counts heap allocations of timed calls; switched on only by the traced run.
#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() -> std::process::ExitCode {
    cb_benchmark::cli::main(std::env::args().skip(1).collect())
}
