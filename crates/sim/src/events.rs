//! A deterministic event queue for virtual-time simulations.
//!
//! Events scheduled at the same instant pop in FIFO order (a monotone
//! sequence number breaks ties), which keeps every run bit-for-bit
//! reproducible regardless of heap internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A handle returned by [`EventQueue::schedule`] that can be used to cancel
/// the event later.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with the sequence number as a FIFO tie-breaker.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-heap of timestamped events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    cancelled: Vec<EventId>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: Vec::new(),
        }
    }

    /// Schedule `payload` to fire at `at`. Returns a cancellation handle.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let id = EventId(self.next_seq);
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            id,
            payload,
        });
        self.next_seq += 1;
        id
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// unknown event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.push(id);
    }

    /// The instant of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Number of live events still queued.
    pub fn len(&self) -> usize {
        self.heap
            .iter()
            .filter(|e| !self.cancelled.contains(&e.id))
            .count()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if let Some(pos) = self.cancelled.iter().position(|c| *c == top.id) {
                self.cancelled.swap_remove(pos);
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, p)| p), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelling_unknown_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        let a = q.schedule(SimTime::ZERO, "a");
        assert_eq!(q.pop().map(|(_, p)| p), Some("a"));
        q.cancel(a); // already fired
        q.schedule(SimTime::from_secs(1), "b");
        assert_eq!(q.pop().map(|(_, p)| p), Some("b"));
    }
}
