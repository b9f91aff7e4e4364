//! The `cloudybench` command line: run an evaluation described by a props
//! file, or the `chaos` and `load` subcommands.
//!
//! ```text
//! cloudybench path/to/run.props
//! echo "sut = cdb3
//! mode = elasticity
//! pattern = zero-valley" | cloudybench -
//! cloudybench run.props --trace-out traces/   # + Chrome trace & histograms
//! cloudybench chaos --seeds 100               # crash-recovery fuzz campaign
//! cloudybench load --arrival poisson:5000/s   # open-loop load run
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    ExitCode::from(cb_cli::cli_main(std::env::args().skip(1)))
}
