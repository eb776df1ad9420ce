//! The event queue: a time-ordered priority queue with FIFO tie-breaking.
//!
//! Events scheduled for the same instant fire in insertion order, which
//! keeps the simulator deterministic even when model code schedules many
//! simultaneous events.
//!
//! The queue keeps the earliest entry in a dedicated front slot rather
//! than in the heap, and refills it lazily: a pop hands out the front
//! without touching the heap, and the next push claims the empty front
//! when it beats the heap's top. Discrete-event workloads
//! overwhelmingly pop one event and push its successor (a generator's
//! production chain, a channel's buffer cycles); as long as that
//! successor stays ahead of everything else pending, the pop-then-push
//! cycle is a slot swap and a single comparison — no heap sift at all,
//! regardless of how many unrelated events are parked in the heap.
//!
//! Payloads live in a slab indexed by heap entries, not in the heap
//! itself. Heap sift operations then move only 20-byte (time, seq,
//! slot) records regardless of payload size, and a pop-then-push cycle
//! reuses the freed slot, so a steady-state simulation allocates
//! nothing per event: the slab grows once to the peak concurrent event
//! population and every later push lands in a recycled slot.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A time-ordered queue of payloads of type `T`.
///
/// ```
/// use scsq_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "later");
/// q.push(SimTime::from_nanos(10), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "sooner")));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Fast-path slot for the earliest entry. Invariant: when `front`
    /// is `Some`, it sorts before every heap entry; when `None`, the
    /// heap's top (if any) is the minimum. The slot is refilled lazily
    /// by pushes, never by pops, so a steady pop-then-push chain leaves
    /// the heap untouched.
    front: Option<Entry>,
    heap: BinaryHeap<Entry>,
    seq: u64,
    /// Payload storage. Invariant: `slab[e.slot]` is `Some` for every
    /// queued entry `e`, and every `None` slot index is on `free`.
    slab: Vec<Option<T>>,
    free: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// Whether this entry surfaces strictly before `other`.
    fn before(&self, other: &Self) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::new(),
            seq: 0,
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Creates an empty queue with capacity for `capacity` concurrent
    /// entries, avoiding reallocation while the event population grows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Stores `payload` in a free slab slot and returns its index.
    fn alloc(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(Some(payload));
                slot
            }
        }
    }

    /// Enqueues `payload` to surface at time `at`.
    // `push` and `pop` run once per simulated event. Without the hint,
    // whether they inline into the simulator loop depends on how the
    // instantiating crate's unrelated code happens to split into
    // codegen units, which moved per-event cost by ~15% (Fig 6 query,
    // 2-core x86-64 host).
    #[inline]
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(payload);
        let entry = Entry { at, seq, slot };
        match &self.front {
            Some(min) if entry.before(min) => {
                let displaced = self.front.replace(entry).expect("front checked Some");
                self.heap.push(displaced);
            }
            Some(_) => self.heap.push(entry),
            None => match self.heap.peek() {
                Some(top) if !entry.before(top) => self.heap.push(entry),
                _ => self.front = Some(entry),
            },
        }
    }

    /// Removes and returns the earliest entry, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let min = match self.front.take() {
            Some(e) => e,
            None => self.heap.pop()?,
        };
        let payload = self.slab[min.slot as usize]
            .take()
            .expect("queued entry has a payload");
        self.free.push(min.slot);
        Some((min.at, payload))
    }

    /// The earliest queued entry: the front slot when occupied, the heap
    /// top otherwise.
    fn min_entry(&self) -> Option<&Entry> {
        self.front.as_ref().or_else(|| self.heap.peek())
    }

    /// The time of the earliest entry without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min_entry().map(|e| e.at)
    }

    /// The payload of the earliest entry without removing it.
    pub fn peek_payload(&self) -> Option<&T> {
        self.min_entry()
            .map(|e| self.slab[e.slot as usize].as_ref().expect("queued payload"))
    }

    /// Walks every queued entry in surfacing order through a
    /// [`crate::coalesce::StateProbe`]: each entry's time is probed as
    /// an extrapolatable number, the margin to the previous entry (and
    /// to `now` for the first) as a stay-positive guard, and the payload
    /// through `probe_payload`. The queue is rebuilt afterwards with
    /// surfacing order preserved exactly, so a digest-mode walk is
    /// observationally a no-op.
    pub fn probe_entries(
        &mut self,
        p: &mut crate::coalesce::StateProbe<'_>,
        now: SimTime,
        mut probe_payload: impl FnMut(&mut T, &mut crate::coalesce::StateProbe<'_>),
    ) {
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len());
        entries.extend(self.front.take());
        entries.extend(std::mem::take(&mut self.heap).into_vec());
        entries.sort_by_key(|e| (e.at, e.seq));
        p.shape(entries.len() as u64);
        let mut prev_at = now;
        for e in &mut entries {
            // An advancing `now` must never overtake this entry, and
            // entries must not swap order: guard both margins (only the
            // implicit negative-delta rule applies).
            p.guard(e.at.as_nanos().saturating_sub(prev_at.as_nanos()), u64::MAX);
            prev_at = e.at;
            p.time(&mut e.at);
            let payload = self.slab[e.slot as usize]
                .as_mut()
                .expect("queued entry has a payload");
            probe_payload(payload, p);
        }
        // Re-number in surfacing order: relative order of existing
        // entries is preserved and future pushes sort after them.
        for (i, e) in entries.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        self.seq = entries.len() as u64;
        debug_assert!(entries
            .windows(2)
            .all(|w| (w[0].at, w[0].seq) <= (w[1].at, w[1].seq)));
        let mut it = entries.into_iter();
        self.front = it.next();
        self.heap = it.collect();
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(3), 'c');
        q.push(SimTime::from_nanos(1), 'a');
        q.push(SimTime::from_nanos(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(9), ());
        q.push(SimTime::from_nanos(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn pop_then_push_chain_stays_ordered() {
        // The front-slot fast path: alternating pop / push-at-later-time
        // with at most one pending entry.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 0u64);
        for i in 1..1000u64 {
            let (at, v) = q.pop().expect("chained entry");
            assert_eq!(v, i - 1);
            q.push(at + crate::SimDur::from_nanos(1), i);
        }
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn earlier_push_displaces_the_front() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(50), 'b');
        q.push(SimTime::from_nanos(10), 'a');
        q.push(SimTime::from_nanos(90), 'c');
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ['a', 'b', 'c']);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.is_empty());
        q.push(SimTime::from_nanos(2), 2);
        q.push(SimTime::from_nanos(1), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slab_slots_are_recycled() {
        // A steady pop-then-push cycle must reuse the freed slot rather
        // than growing payload storage without bound.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), String::from("a"));
        q.push(SimTime::from_nanos(2), String::from("b"));
        for i in 3..100u64 {
            let (at, v) = q.pop().expect("entry");
            assert!(!v.is_empty());
            q.push(at + crate::SimDur::from_nanos(i), format!("v{i}"));
        }
        assert_eq!(q.slab.len(), 2);
        assert_eq!(q.len(), 2);
    }
}
