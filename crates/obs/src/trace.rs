//! Virtual-time span tracing.
//!
//! A [`Tracer`] collects spans and instant events keyed on the simulation's
//! [`SimTime`] into a bounded ring-buffer [`SpanJournal`], alongside a
//! registry of named [`LogHistogram`]s and monotone counters. The handle
//! threaded through the testbed is [`ObsSink`]: a cheap-to-clone,
//! optionally-disabled reference. A disabled sink is a no-op on every path
//! (no allocation, no branching beyond one `Option` check), so
//! instrumentation can stay unconditionally in place in the hot loops.
//!
//! Everything is keyed on virtual time and stored in order-deterministic
//! containers (`Vec`/`BTreeMap`), so two runs with the same seed produce
//! byte-identical exports.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use cb_sim::time::SimTime;

use crate::hist::LogHistogram;

/// What subsystem an event belongs to; becomes the Chrome trace `cat` and
/// the timeline row label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Whole transactions and their phases in the client driver.
    Txn,
    /// Buffer pool misses, evictions, flushes.
    BufferPool,
    /// Write-ahead-log appends.
    Wal,
    /// Lock waits in the concurrency layer.
    Lock,
    /// Log shipping and replay on read replicas.
    Replication,
    /// Autoscaler decisions.
    Autoscale,
    /// Failover phases (detection, promotion, catch-up, ...).
    Failover,
    /// Checkpointing.
    Checkpoint,
    /// ARIES-style recovery passes.
    Recovery,
    /// Multi-version concurrency control: snapshot-read resolution,
    /// first-committer-wins aborts, version-chain GC.
    Mvcc,
}

impl Category {
    /// Stable lowercase name used in every export format.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Category::Txn => "txn",
            Category::BufferPool => "bufferpool",
            Category::Wal => "wal",
            Category::Lock => "lock",
            Category::Replication => "replication",
            Category::Autoscale => "autoscale",
            Category::Failover => "failover",
            Category::Checkpoint => "checkpoint",
            Category::Recovery => "recovery",
            Category::Mvcc => "mvcc",
        }
    }
}

/// Span (has a duration) or instant (a point on the timeline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval `[start, start + dur_ns]`.
    Span {
        /// Duration in virtual nanoseconds.
        dur_ns: u64,
    },
    /// A zero-width marker.
    Instant,
}

/// One recorded trace event, timestamped in virtual time.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotone sequence number (also counts events evicted from the ring).
    pub seq: u64,
    /// Subsystem.
    pub cat: Category,
    /// Event name, e.g. `"txn"` or `"miss"`.
    pub name: String,
    /// Logical track (tenant, client, or node id) the event belongs to.
    pub track: u64,
    /// Virtual start time.
    pub start: SimTime,
    /// Span or instant.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Span duration in nanoseconds (0 for instants).
    pub(crate) fn dur_ns(&self) -> u64 {
        match self.kind {
            EventKind::Span { dur_ns } => dur_ns,
            EventKind::Instant => 0,
        }
    }

    /// Virtual end time.
    pub(crate) fn end(&self) -> SimTime {
        SimTime::from_nanos(self.start.as_nanos().saturating_add(self.dur_ns()))
    }
}

/// Bounded ring buffer of trace events. When full, pushing evicts the
/// oldest event; `dropped()` reports how many were lost.
#[derive(Clone, Debug)]
pub struct SpanJournal {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    next_seq: u64,
    dropped: u64,
}

impl SpanJournal {
    /// A journal holding at most `cap` events (`cap` ≥ 1).
    pub(crate) fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        SpanJournal {
            buf: VecDeque::with_capacity(cap),
            cap,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if the ring is full. Returns
    /// the event's sequence number.
    pub(crate) fn push(
        &mut self,
        cat: Category,
        name: &str,
        track: u64,
        start: SimTime,
        kind: EventKind,
    ) -> u64 {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(TraceEvent {
            seq,
            cat,
            name: name.to_string(),
            track,
            start,
            kind,
        });
        seq
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }
}

/// The mutable observability state behind an enabled [`ObsSink`].
#[derive(Debug)]
pub struct Tracer {
    journal: SpanJournal,
    hists: BTreeMap<String, LogHistogram>,
    counters: BTreeMap<String, u64>,
}

impl Tracer {
    /// A tracer whose journal holds at most `journal_cap` events.
    pub(crate) fn new(journal_cap: usize) -> Self {
        Tracer {
            journal: SpanJournal::new(journal_cap),
            hists: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// The event journal.
    pub fn journal(&self) -> &SpanJournal {
        &self.journal
    }

    /// Named histograms, in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&str, &LogHistogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Look up one histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Named monotone counters, in name order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Look up one counter by name (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record `value_ns` into the histogram called `name`, creating it on
    /// first use.
    pub(crate) fn record(&mut self, name: &str, value_ns: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(value_ns),
            None => {
                let mut h = LogHistogram::new();
                h.record(value_ns);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Add `n` to the counter called `name`.
    pub(crate) fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }
}

/// Shared, optionally-disabled handle to a [`Tracer`]. Clones are cheap
/// (one `Rc` bump) and all clones observe the same state. The default
/// sink is disabled: every method is a no-op and allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ObsSink {
    core: Option<Rc<RefCell<Tracer>>>,
}

/// Default journal capacity for [`ObsSink::enabled`].
pub(crate) const DEFAULT_JOURNAL_CAP: usize = 65_536;

impl ObsSink {
    /// The no-op sink as a constant: `&ObsSink::DISABLED` is a `'static`
    /// borrow, so a holder of `&ObsSink` needs no sink of its own to
    /// default to.
    pub const DISABLED: ObsSink = ObsSink { core: None };

    /// The no-op sink.
    pub fn disabled() -> Self {
        Self::DISABLED
    }

    /// An active sink with the default journal capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAP)
    }

    /// An active sink whose journal holds at most `journal_cap` events.
    pub fn with_capacity(journal_cap: usize) -> Self {
        ObsSink {
            core: Some(Rc::new(RefCell::new(Tracer::new(journal_cap)))),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    // The four recorders below are inlined down to the `core` test alone,
    // so a disabled sink costs its caller one compare; the enabled body is
    // one out-of-line call on the tracer.

    /// Record a closed span `[start, end]` in one call.
    #[inline]
    pub fn span(&self, cat: Category, name: &str, track: u64, start: SimTime, end: SimTime) {
        if let Some(core) = &self.core {
            let dur_ns = end.saturating_since(start).as_nanos();
            push(core, cat, name, track, start, EventKind::Span { dur_ns });
        }
    }

    /// Record an instant event at `at`.
    #[inline]
    pub fn instant(&self, cat: Category, name: &str, track: u64, at: SimTime) {
        if let Some(core) = &self.core {
            push(core, cat, name, track, at, EventKind::Instant);
        }
    }

    /// Record `value_ns` into the histogram called `name`.
    #[inline]
    pub fn record(&self, name: &str, value_ns: u64) {
        if let Some(core) = &self.core {
            record(core, name, value_ns);
        }
    }

    /// Add `n` to the counter called `name`.
    #[inline]
    pub fn add(&self, name: &str, n: u64) {
        if let Some(core) = &self.core {
            add(core, name, n);
        }
    }

    /// Run `f` against the tracer, if enabled.
    pub fn with<R>(&self, f: impl FnOnce(&Tracer) -> R) -> Option<R> {
        self.core.as_ref().map(|core| f(&core.borrow()))
    }
}

/// The enabled body of [`ObsSink::span`] and [`ObsSink::instant`].
#[inline(never)]
fn push(
    core: &RefCell<Tracer>,
    cat: Category,
    name: &str,
    track: u64,
    at: SimTime,
    kind: EventKind,
) {
    core.borrow_mut().journal.push(cat, name, track, at, kind);
}

/// The enabled body of [`ObsSink::record`].
#[inline(never)]
fn record(core: &RefCell<Tracer>, name: &str, value_ns: u64) {
    core.borrow_mut().record(name, value_ns);
}

/// The enabled body of [`ObsSink::add`].
#[inline(never)]
fn add(core: &RefCell<Tracer>, name: &str, n: u64) {
    core.borrow_mut().add(name, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_noop() {
        let sink = ObsSink::disabled();
        assert!(!sink.is_enabled());
        sink.instant(Category::Wal, "append", 0, SimTime::from_millis(1));
        sink.record("latency", 42);
        sink.add("commits", 1);
        assert!(sink.with(|_| ()).is_none());
    }

    #[test]
    fn spans_and_instants_round_trip() {
        let sink = ObsSink::with_capacity(16);
        sink.span(
            Category::Txn,
            "txn",
            3,
            SimTime::from_micros(10),
            SimTime::from_micros(25),
        );
        sink.instant(Category::Autoscale, "scale-up", 0, SimTime::from_micros(30));
        sink.with(|t| {
            let evs: Vec<_> = t.journal().iter().collect();
            assert_eq!(evs.len(), 2);
            assert_eq!(evs[0].name, "txn");
            assert_eq!(evs[0].dur_ns(), 15_000);
            assert_eq!(evs[0].track, 3);
            assert_eq!(evs[1].kind, EventKind::Instant);
            assert_eq!(evs[1].cat.as_str(), "autoscale");
        })
        .unwrap();
    }

    #[test]
    fn journal_ring_evicts_oldest() {
        let mut j = SpanJournal::new(4);
        for i in 0..10u64 {
            j.push(
                Category::Wal,
                "append",
                0,
                SimTime::from_nanos(i),
                EventKind::Instant,
            );
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        assert_eq!(j.total(), 10);
        let seqs: Vec<u64> = j.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn histograms_and_counters_accumulate() {
        let sink = ObsSink::enabled();
        for v in [100u64, 200, 300] {
            sink.record("lat", v);
        }
        sink.add("commits", 2);
        sink.add("commits", 3);
        sink.with(|t| {
            assert_eq!(t.histogram("lat").unwrap().count(), 3);
            assert_eq!(t.counter("commits"), 5);
            assert_eq!(t.counter("absent"), 0);
        })
        .unwrap();
    }

    #[test]
    fn clones_share_state() {
        let a = ObsSink::enabled();
        let b = a.clone();
        a.add("x", 1);
        b.add("x", 1);
        assert_eq!(a.with(|t| t.counter("x")).unwrap(), 2);
    }
}
