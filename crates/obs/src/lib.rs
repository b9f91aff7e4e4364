//! # cb-obs — virtual-time observability for CloudyBench
//!
//! Everything in a CloudyBench run happens on the simulator's virtual
//! clock, which makes observability *exact*: there is no sampling jitter,
//! no clock skew, and a run with a given seed always produces the same
//! timeline. This crate exploits that with three pieces:
//!
//! * [`LogHistogram`] — HDR-style log-bucketed latency histograms
//!   with ≤0.79% relative bucket error, exact counts/means, and lossless
//!   merge. No allocation on the record path.
//! * `trace` — span tracing keyed on [`cb_sim::time::SimTime`]: a
//!   bounded ring-buffer journal of spans and instants per subsystem
//!   ([`Category`]), plus named histograms and counters, behind the
//!   cheap [`ObsSink`] handle (no-op when disabled).
//! * [`export`] — deterministic Chrome trace-event JSON, histogram
//!   JSON/CSV summaries, and an ASCII timeline. Same seed, same bytes.

pub mod export;
mod hist;
mod trace;

pub use export::{
    ascii_timeline, chrome_trace_json, first_divergence, histogram_csv, histogram_summary_json,
    write_run_artifacts,
};
pub use hist::LogHistogram;
pub use trace::{Category, EventKind, ObsSink, SpanJournal, TraceEvent, Tracer};
