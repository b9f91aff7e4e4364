//! Deterministic exporters for traces and histograms.
//!
//! Three formats: Chrome trace-event JSON (loadable in `chrome://tracing`
//! or Perfetto), histogram summaries as JSON and CSV, and a plain-ASCII
//! timeline for terminals. All output is produced by walking
//! order-deterministic containers and formatting integers, so two runs with
//! the same seed emit byte-identical artifacts — the files double as
//! regression fixtures.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;

use crate::hist::LogHistogram;
use crate::trace::{Category, EventKind, Tracer};

/// Append the decimal digits of `n` to `out`: the digits fill a stack
/// buffer from the right, with none of the formatting machinery a Chrome
/// trace would otherwise pay three times per event.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append virtual nanoseconds to `out` as microseconds with fixed
/// three-decimal precision (the Chrome trace `ts`/`dur` unit), avoiding
/// float formatting. The fraction runs to 999, so it stays a `u64` until
/// each digit is split off.
fn push_micros(out: &mut String, ns: u64) {
    push_u64(out, ns / 1_000);
    let frac = ns % 1_000;
    let digit = |d: u64| b'0' + (d % 10) as u8;
    let tail = [b'.', digit(frac / 100), digit(frac / 10), digit(frac)];
    out.push_str(std::str::from_utf8(&tail).expect("ASCII digits"));
}

/// Minimal JSON string escaping for the names we emit; a name with no `"`,
/// `\` or control byte (every name the simulator emits) comes back as it
/// is.
fn escape(s: &str) -> Cow<'_, str> {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Render the journal as Chrome trace-event JSON. Spans become complete
/// (`"ph":"X"`) events and instants become `"ph":"i"`; tracks map to `tid`.
/// Every field is written straight into the output buffer.
pub fn chrome_trace_json(tracer: &Tracer) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for ev in tracer.journal().iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        out.push_str(&escape(&ev.name));
        out.push_str("\",\"cat\":\"");
        out.push_str(ev.cat.as_str());
        out.push_str("\",\"pid\":0,\"tid\":");
        push_u64(&mut out, ev.track);
        out.push_str(",\"ts\":");
        push_micros(&mut out, ev.start.as_nanos());
        match ev.kind {
            EventKind::Span { dur_ns } => {
                out.push_str(",\"ph\":\"X\",\"dur\":");
                push_micros(&mut out, dur_ns);
            }
            EventKind::Instant => {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
            }
        }
        out.push('}');
    }
    let _ = writeln!(
        out,
        "],\"otherData\":{{\"dropped\":{},\"retained\":{}}}}}",
        tracer.journal().dropped(),
        tracer.journal().len(),
    );
    out
}

fn summary_fields(h: &LogHistogram) -> [(&'static str, u64); 7] {
    [
        ("count", h.count()),
        ("min_ns", h.min()),
        ("p50_ns", h.percentile(50.0)),
        ("p95_ns", h.percentile(95.0)),
        ("p99_ns", h.percentile(99.0)),
        ("p999_ns", h.percentile(99.9)),
        ("max_ns", h.max()),
    ]
}

/// Histogram and counter summaries as a JSON document.
pub fn histogram_summary_json(tracer: &Tracer) -> String {
    let mut out = String::from("{\"histograms\":{");
    let mut first = true;
    for (name, h) in tracer.histograms() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{{", escape(name));
        for (i, (k, v)) in summary_fields(h).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        // The mean is exact (tracked as a 128-bit sum); emit in nanos with
        // fixed precision so output stays byte-stable.
        let mean = h.mean();
        let _ = write!(
            out,
            ",\"mean_ns\":{}.{:03}",
            mean as u64,
            ((mean * 1000.0) as u64) % 1000
        );
        out.push('}');
    }
    out.push_str("},\"counters\":{");
    let mut first = true;
    for (name, v) in tracer.counters() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", escape(name), v);
    }
    out.push_str("}}\n");
    out
}

/// Histogram summaries as CSV, one row per histogram.
pub fn histogram_csv(tracer: &Tracer) -> String {
    let mut out = String::from("name,count,min_ns,p50_ns,p95_ns,p99_ns,p999_ns,max_ns,mean_ns\n");
    for (name, h) in tracer.histograms() {
        let mean = h.mean();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}.{:03}",
            name,
            h.count(),
            h.min(),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.percentile(99.9),
            h.max(),
            mean as u64,
            ((mean * 1000.0) as u64) % 1000,
        );
    }
    out
}

/// Width of the ASCII timeline plot area.
const TIMELINE_COLS: usize = 72;

/// Render retained events as an ASCII timeline: one row per
/// (category, name) pair, `#` cells where at least one event overlaps that
/// time slice, and a µs axis. Good enough to eyeball failover phases and
/// checkpoint cadence without leaving the terminal.
pub fn ascii_timeline(tracer: &Tracer) -> String {
    let journal = tracer.journal();
    if journal.is_empty() {
        return String::from("(no events)\n");
    }
    let t0 = journal
        .iter()
        .map(|e| e.start.as_nanos())
        .min()
        .unwrap_or(0);
    let t1 = journal
        .iter()
        .map(|e| e.end().as_nanos())
        .max()
        .unwrap_or(t0);
    let span = (t1 - t0).max(1);

    // Row per (cat, name), in first-seen order for stable output. No
    // category name holds a `/`, so the pair and its `cat/name` label
    // identify the same row; the label is formatted once, for a new row.
    let mut rows: Vec<(Category, &str, String, [bool; TIMELINE_COLS], u64)> = Vec::new();
    for ev in journal.iter() {
        let idx = match rows
            .iter()
            .position(|(cat, name, ..)| *cat == ev.cat && *name == ev.name)
        {
            Some(i) => i,
            None => {
                let label = format!("{}/{}", ev.cat.as_str(), ev.name);
                rows.push((ev.cat, &ev.name, label, [false; TIMELINE_COLS], 0));
                rows.len() - 1
            }
        };
        let cell = |ns: u64| -> usize {
            (((ns - t0) as u128 * (TIMELINE_COLS as u128 - 1) / span as u128) as usize)
                .min(TIMELINE_COLS - 1)
        };
        let (a, b) = (cell(ev.start.as_nanos()), cell(ev.end().as_nanos()));
        for c in &mut rows[idx].3[a..=b] {
            *c = true;
        }
        rows[idx].4 += 1;
    }

    let label_w = rows
        .iter()
        .map(|(_, _, label, ..)| label.len())
        .max()
        .unwrap_or(0)
        .max(8);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline {}us .. {}us ({} events, {} dropped)",
        t0 / 1_000,
        t1.div_ceil(1_000),
        journal.total(),
        journal.dropped(),
    );
    for (_, _, label, cells, n) in &rows {
        let bar: String = cells.iter().map(|&on| if on { '#' } else { '.' }).collect();
        let _ = writeln!(out, "{label:<label_w$} |{bar}| x{n}");
    }
    out
}

/// Artifact file names written by [`write_run_artifacts`].
pub const TRACE_FILE: &str = "trace.json";
/// Histogram summary JSON file name.
pub const HIST_JSON_FILE: &str = "histograms.json";
/// Histogram summary CSV file name.
pub const HIST_CSV_FILE: &str = "histograms.csv";
/// ASCII timeline file name.
pub const TIMELINE_FILE: &str = "timeline.txt";

/// Locate the first line where two artifact strings diverge. Returns
/// `None` when they are byte-identical; otherwise `Some((line_number,
/// left_line, right_line))` with 1-based numbering (a side that ran out of
/// lines reports the empty string). Determinism checkers use this to turn
/// "artifacts differ" into an actionable pointer.
pub fn first_divergence(left: &str, right: &str) -> Option<(usize, String, String)> {
    if left == right {
        return None;
    }
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (l.next(), r.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (Some(a), Some(b)) => return Some((line_no, a.to_string(), b.to_string())),
            (Some(a), None) => return Some((line_no, a.to_string(), String::new())),
            (None, Some(b)) => return Some((line_no, String::new(), b.to_string())),
            // Same lines but different bytes (e.g. trailing newline): report
            // the final line as the divergence point.
            (None, None) => {
                return Some((
                    line_no.saturating_sub(1).max(1),
                    left.lines().last().unwrap_or("").to_string(),
                    right.lines().last().unwrap_or("").to_string(),
                ))
            }
        }
    }
}

/// Write all four artifacts into `dir` (created if absent): `trace.json`,
/// `histograms.json`, `histograms.csv`, `timeline.txt`.
pub fn write_run_artifacts(tracer: &Tracer, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(TRACE_FILE), chrome_trace_json(tracer))?;
    std::fs::write(dir.join(HIST_JSON_FILE), histogram_summary_json(tracer))?;
    std::fs::write(dir.join(HIST_CSV_FILE), histogram_csv(tracer))?;
    std::fs::write(dir.join(TIMELINE_FILE), ascii_timeline(tracer))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Category, ObsSink};
    use cb_sim::time::SimTime;

    fn sample_sink() -> ObsSink {
        let sink = ObsSink::with_capacity(64);
        sink.span(
            Category::Txn,
            "txn",
            1,
            SimTime::from_micros(10),
            SimTime::from_micros(22),
        );
        sink.instant(Category::Wal, "append", 0, SimTime::from_micros(15));
        sink.span(
            Category::Failover,
            "promotion",
            2,
            SimTime::from_micros(40),
            SimTime::from_micros(90),
        );
        sink.record("commit_ns", 12_345);
        sink.record("commit_ns", 99_999);
        sink.add("wal.appends", 7);
        sink
    }

    #[test]
    fn first_divergence_pinpoints_the_differing_line() {
        assert_eq!(first_divergence("a\nb\nc\n", "a\nb\nc\n"), None);
        assert_eq!(
            first_divergence("a\nb\nc\n", "a\nX\nc\n"),
            Some((2, "b".to_string(), "X".to_string()))
        );
        assert_eq!(
            first_divergence("a\nb\n", "a\n"),
            Some((2, "b".to_string(), String::new()))
        );
        assert_eq!(
            first_divergence("a\n", "a\nb\n"),
            Some((2, String::new(), "b".to_string()))
        );
        // Byte-level difference invisible to the line iterator still reports.
        assert!(first_divergence("a\n", "a").is_some());
        // Two identical runs of the same sink diverge nowhere.
        let a = sample_sink().with(chrome_trace_json).unwrap();
        let b = sample_sink().with(chrome_trace_json).unwrap();
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let sink = sample_sink();
        let json = sink.with(chrome_trace_json).unwrap();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"cat\":\"txn\""));
        assert!(json.contains("\"ts\":10.000"));
        assert!(json.contains("\"dur\":12.000"));
        // Balanced braces and brackets => structurally plausible JSON.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_escapes_names_and_prints_every_fraction() {
        let sink = ObsSink::with_capacity(8);
        sink.span(
            Category::Txn,
            "a\"b\\c\n",
            3,
            SimTime::from_nanos(1_999_999),
            SimTime::from_nanos(2_000_998),
        );
        sink.instant(Category::Wal, "plain", 0, SimTime::from_nanos(5));
        assert_eq!(
            sink.with(chrome_trace_json).unwrap(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"a\\\"b\\\\c\\u000a\",\"cat\":\"txn\",\"pid\":0,\"tid\":3,\
             \"ts\":1999.999,\"ph\":\"X\",\"dur\":0.999},\
             {\"name\":\"plain\",\"cat\":\"wal\",\"pid\":0,\"tid\":0,\
             \"ts\":0.005,\"ph\":\"i\",\"s\":\"t\"}],\
             \"otherData\":{\"dropped\":0,\"retained\":2}}\n"
        );
    }

    #[test]
    fn histogram_summary_lists_all_series() {
        let sink = sample_sink();
        let json = sink.with(histogram_summary_json).unwrap();
        assert!(json.contains("\"commit_ns\""));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"wal.appends\":7"));
        let csv = sink.with(histogram_csv).unwrap();
        assert!(csv.starts_with("name,count,"));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    fn timeline_renders_every_row() {
        let sink = sample_sink();
        let txt = sink.with(ascii_timeline).unwrap();
        assert!(txt.contains("txn/txn"));
        assert!(txt.contains("wal/append"));
        assert!(txt.contains("failover/promotion"));
    }

    #[test]
    fn timeline_columns_round_down_at_any_offset() {
        // Offsets of 2^59 ns and more overflow `offset * 71` in 64 bits;
        // the columns must still round down exactly.
        let sink = ObsSink::with_capacity(8);
        sink.instant(Category::Txn, "a", 0, SimTime::from_nanos(0));
        sink.instant(Category::Txn, "b", 0, SimTime::from_nanos(1 << 59));
        sink.instant(Category::Txn, "c", 0, SimTime::from_nanos(3 << 58));
        sink.instant(Category::Txn, "d", 0, SimTime::from_nanos(1 << 60));
        let txt = sink.with(ascii_timeline).unwrap();
        let column = |label: &str| {
            let line = txt.lines().find(|l| l.starts_with(label)).unwrap();
            let bar = line.split('|').nth(1).unwrap();
            assert_eq!(bar.matches('#').count(), 1, "{line}");
            bar.find('#').unwrap()
        };
        // 71 * offset / 2^60, rounded down.
        assert_eq!(
            [
                column("txn/a"),
                column("txn/b"),
                column("txn/c"),
                column("txn/d")
            ],
            [0, 35, 53, 71]
        );
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_sink().with(|t| {
            (
                chrome_trace_json(t),
                histogram_summary_json(t),
                histogram_csv(t),
                ascii_timeline(t),
            )
        });
        let b = sample_sink().with(|t| {
            (
                chrome_trace_json(t),
                histogram_summary_json(t),
                histogram_csv(t),
                ascii_timeline(t),
            )
        });
        assert_eq!(a, b);
    }
}
