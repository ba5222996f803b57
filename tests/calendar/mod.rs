//! Time-ordered event calendar.
//!
//! The timeline models in `uc-sim` answer "when does this request
//! finish?" without scheduling events. An event-driven reference
//! simulator, which checks that claim against an explicit schedule, pops
//! its events off this calendar; until it exists, only the tests here
//! and the property test in `tests/proptests.rs` use it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use unwritten_contract::sim::SimTime;

/// A min-heap of `(SimTime, T)` events with FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in insertion order, which keeps
/// simulations deterministic regardless of heap internals.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the smallest time first,
        // breaking ties by insertion sequence.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> EventQueue<T> {
    /// An empty calendar.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` at `time`.
    pub fn push(&mut self, time: SimTime, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, item });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> Extend<(SimTime, T)> for EventQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        for (time, item) in iter {
            self.push(time, item);
        }
    }
}

impl<T> FromIterator<(SimTime, T)> for EventQueue<T> {
    fn from_iter<I: IntoIterator<Item = (SimTime, T)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(20), "late");
        q.push(SimTime::from_nanos(10), "early");
        q.push(SimTime::from_nanos(10), "early-second");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early-second")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [5u64, 3, 9, 1, 7] {
            q.push(SimTime::from_nanos(t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(10);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(4), ());
        q.push(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn collect_from_iterator() {
        let q: EventQueue<&str> =
            vec![(SimTime::from_nanos(2), "b"), (SimTime::from_nanos(1), "a")]
                .into_iter()
                .collect();
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
    }
}
