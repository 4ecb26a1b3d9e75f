//! Discrete-event scheduler.
//!
//! A [`Scheduler`] is a time-ordered queue of typed events. Events
//! scheduled for the same instant pop in FIFO order (stable sequence
//! numbers), which keeps simulations deterministic. The experiment
//! framework in `phishsim-core` drives one scheduler per experiment run:
//! report submissions, crawl visits, blacklist publications and feed
//! polls are all events.
//!
//! The queue is a single `BinaryHeap` ordered by `(at, seq)`.
//! Cancellation is lazy: a cancelled ID becomes a tombstone that is
//! swept when it reaches the front, and the heap is compacted once
//! tombstones dominate it. `len()` tracks the alive set, so the count
//! never depends on tombstone placement.

use crate::obs::ObsSink;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    /// Insertion order; also the event's [`EventId`].
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn id(&self) -> EventId {
        EventId(self.seq)
    }
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
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // breaking ties by insertion order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use phishsim_simnet::{Scheduler, SimTime, SimDuration};
///
/// let mut sched: Scheduler<&str> = Scheduler::new();
/// sched.schedule_at(SimTime::from_mins(10), "crawl");
/// sched.schedule_at(SimTime::from_mins(5), "report");
/// let (t, ev) = sched.pop().unwrap();
/// assert_eq!((t.as_mins(), ev), (5, "report"));
/// ```
pub struct Scheduler<E> {
    /// Pending events, tombstones included.
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    /// IDs scheduled and not yet popped or cancelled. `len()` is this
    /// set's size, so cancelling an already-popped ID cannot skew the
    /// count.
    alive: HashSet<EventId>,
    /// Lazily-deleted IDs still sitting in the heap.
    cancelled: HashSet<EventId>,
    /// Observability sink; `Null` by default and free when disabled.
    obs: ObsSink,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Create an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            alive: HashSet::new(),
            cancelled: HashSet::new(),
            obs: ObsSink::Null,
        }
    }

    /// Attach an observability sink. Dispatch, cancellation and
    /// compaction counts flow into its registry; the tombstone gauge
    /// tracks the lazy-delete set.
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lazily-deleted tombstones still sitting in the queue.
    /// Exposed so churn tests can assert that compaction bounds the
    /// queue under schedule/cancel storms (e.g. from retry timers).
    pub fn tombstone_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Schedule an event at an absolute time. Scheduling in the past is a
    /// logic error and panics: discrete-event time must be monotonic.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: {} < now {}",
            at,
            self.now
        );
        let id = EventId(self.next_seq);
        self.heap.push(Entry {
            at,
            seq: self.next_seq,
            payload,
        });
        self.alive.insert(id);
        self.next_seq += 1;
        self.obs.incr("sched.scheduled");
        id
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancel a pending event. Returns true if the event was still
    /// pending; cancelling an already-popped, already-cancelled, or
    /// never-issued ID is a no-op returning false.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Only events that are genuinely pending may grow the tombstone
        // set, so every tombstone has exactly one queue counterpart.
        if !self.alive.remove(&id) {
            return false;
        }
        // Lazy deletion: mark and skip at pop time.
        self.cancelled.insert(id);
        self.obs.incr("sched.cancelled");
        self.obs
            .gauge("sched.tombstones", self.now, self.cancelled.len() as i64);
        self.maybe_compact();
        true
    }

    /// Physically remove tombstoned entries once they dominate the
    /// queue, bounding memory for workloads that cancel most of what
    /// they schedule. O(queue) rebuild, amortised by the >=1/2 trigger.
    fn maybe_compact(&mut self) {
        if self.cancelled.len() >= 64 && self.cancelled.len() * 2 >= self.heap.len() {
            let swept = self.cancelled.len() as u64;
            let cancelled = std::mem::take(&mut self.cancelled);
            self.heap.retain(|e| !cancelled.contains(&e.id()));
            self.obs.incr("sched.compactions");
            self.obs.add("sched.tombstones_swept", swept);
            self.obs.gauge("sched.tombstones", self.now, 0);
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.peek_time()?;
        // peek_time left an alive entry at the front.
        let entry = self.heap.pop().expect("peeked front");
        self.alive.remove(&entry.id());
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.obs.incr("sched.dispatched");
        Some((entry.at, entry.payload))
    }

    /// Pop the next event only if it occurs at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the next pending event without popping it.
    /// Tombstones encountered on the way are swept.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let front = self.heap.peek()?;
            // `contains` skips hashing while the tombstone set is empty.
            if !self.cancelled.contains(&front.id()) {
                return Some(front.at);
            }
            let swept = self.heap.pop().expect("peeked front");
            self.cancelled.remove(&swept.id());
        }
    }

    /// Advance the clock manually (e.g. to close out an experiment horizon
    /// with no remaining events). Panics if `to` is in the past.
    pub fn advance_to(&mut self, to: SimTime) {
        assert!(to >= self.now, "cannot rewind the clock");
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(30), 3);
        s.schedule_at(SimTime::from_mins(10), 1);
        s.schedule_at(SimTime::from_mins(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_mins(5);
        for i in 0..10 {
            s.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(7), "a");
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_mins(7));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(10), "first");
        s.pop();
        s.schedule_after(SimDuration::from_mins(5), "second");
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, SimTime::from_mins(15));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(10), "a");
        s.pop();
        s.schedule_at(SimTime::from_mins(5), "too late");
    }

    #[test]
    fn cancellation() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let id = s.schedule_at(SimTime::from_mins(1), "cancel me");
        s.schedule_at(SimTime::from_mins(2), "keep");
        assert!(s.cancel(id));
        assert!(!s.cancel(id), "double-cancel reports false");
        assert_eq!(s.len(), 1);
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "keep");
        assert!(s.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut s: Scheduler<&str> = Scheduler::new();
        assert!(!s.cancel(EventId(99)));
    }

    #[test]
    fn cancel_after_pop_does_not_corrupt_len() {
        // Regression: cancelling an ID that was already popped used to
        // insert a tombstone with no queue counterpart, making
        // `physical - cancelled` over-subtract (and underflow once the
        // queue drained).
        let mut s: Scheduler<&str> = Scheduler::new();
        let id = s.schedule_at(SimTime::from_mins(1), "popped");
        s.schedule_at(SimTime::from_mins(2), "pending");
        s.pop();
        assert!(!s.cancel(id), "cancelling a popped event is a no-op");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.pop();
        assert!(!s.cancel(id));
        assert_eq!(s.len(), 0, "previously underflowed");
        assert!(s.is_empty());
    }

    #[test]
    fn mass_cancellation_compacts_tombstones() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let ids: Vec<EventId> = (0..1000)
            .map(|i| s.schedule_at(SimTime::from_mins(i + 1), i as u32))
            .collect();
        // Cancel all but one; the tombstone set must not retain ~999
        // entries alongside a drained queue.
        for id in &ids[1..] {
            assert!(s.cancel(*id));
        }
        assert_eq!(s.len(), 1);
        assert!(s.cancelled.len() < 64, "tombstones were compacted");
        let (t, e) = s.pop().unwrap();
        assert_eq!((t.as_mins(), e), (1, 0));
        assert!(s.pop().is_none());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn interleaved_cancel_pop_keeps_len_consistent() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut expect = 0usize;
        let mut ids = Vec::new();
        for round in 0..200u64 {
            let id = s.schedule_at(SimTime::from_mins(round + 1), round);
            ids.push(id);
            expect += 1;
            if round % 3 == 0 && s.cancel(ids[(round / 2) as usize]) {
                expect -= 1;
            }
            if round % 5 == 0 && s.pop().is_some() {
                expect -= 1;
            }
            assert_eq!(s.len(), expect, "round {round}");
        }
        while s.pop().is_some() {
            expect -= 1;
        }
        assert_eq!(expect, 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_mins(10), "early");
        s.schedule_at(SimTime::from_hours(30), "late");
        assert!(s.pop_until(SimTime::from_hours(24)).is_some());
        assert!(s.pop_until(SimTime::from_hours(24)).is_none());
        assert_eq!(s.len(), 1, "late event still pending");
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let id = s.schedule_at(SimTime::from_mins(1), "gone");
        s.schedule_at(SimTime::from_mins(2), "next");
        s.cancel(id);
        assert_eq!(s.peek_time(), Some(SimTime::from_mins(2)));
    }

    #[test]
    fn obs_counts_dispatch_cancel_and_compaction() {
        let sink = ObsSink::memory();
        let mut s: Scheduler<u32> = Scheduler::new().with_obs(sink.clone());
        let ids: Vec<EventId> = (0..200)
            .map(|i| s.schedule_at(SimTime::from_mins(i + 1), i as u32))
            .collect();
        for id in &ids[..150] {
            s.cancel(*id);
        }
        while s.pop().is_some() {}
        let m = sink.metrics();
        assert_eq!(m.counter("sched.scheduled"), 200);
        assert_eq!(m.counter("sched.cancelled"), 150);
        assert_eq!(m.counter("sched.dispatched"), 50);
        assert!(m.counter("sched.compactions") >= 1);
        assert_eq!(
            m.counter("sched.cancelled"),
            m.counter("sched.scheduled") - m.counter("sched.dispatched")
        );
    }

    #[test]
    fn advance_to_moves_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_to(SimTime::from_hours(24));
        assert_eq!(s.now(), SimTime::from_hours(24));
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        // Mix of near (seconds) and far-future (hours) events.
        s.schedule_at(SimTime::from_hours(20), 4);
        s.schedule_at(SimTime::from_secs(2), 1);
        s.schedule_at(SimTime::from_hours(2), 3);
        s.schedule_at(SimTime::from_secs(50), 2);
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn same_instant_fifo_at_far_future_instant() {
        // Events at an identical far-future instant must keep the
        // (at, seq) tie-break.
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_hours(5);
        for i in 0..20 {
            s.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn schedule_before_peeked_time_keeps_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_hours(10), "far");
        // Peeking reports the 10 h mark without moving now.
        assert_eq!(s.peek_time(), Some(SimTime::from_hours(10)));
        assert_eq!(s.now(), SimTime::ZERO);
        // Scheduling at 1 min is legal (>= now) and earlier than the
        // peeked front; it must pop first.
        s.schedule_at(SimTime::from_mins(1), "near");
        let (t1, e1) = s.pop().unwrap();
        assert_eq!((t1.as_mins(), e1), (1, "near"));
        let (t2, e2) = s.pop().unwrap();
        assert_eq!((t2.as_hours(), e2), (10, "far"));
        assert!(s.pop().is_none());
    }

    #[test]
    fn interleaving_pops_and_inserts_keeps_order() {
        // Retry-timer pattern: pop, then schedule a few milliseconds
        // ahead, repeatedly. Pop times must stay monotonic.
        let mut s: Scheduler<u64> = Scheduler::new();
        s.schedule_at(SimTime::from_millis(10), 0);
        let mut popped = Vec::new();
        let mut next = 1u64;
        while let Some((t, e)) = s.pop() {
            popped.push((t.as_millis(), e));
            if next <= 6 {
                s.schedule_at(SimTime::from_millis(10 + next * 3), next);
                next += 1;
            }
        }
        let times: Vec<u64> = popped.iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "pop times must be monotonic");
        assert_eq!(popped.len(), 7);
    }

    #[test]
    fn long_dense_horizon_drains_in_order() {
        // Many closely spaced events over ~166 s of simulated time;
        // ordering must hold and the queue must drain completely.
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut expected = Vec::new();
        for i in 0..500u64 {
            let t = SimTime::from_millis(i * 333);
            s.schedule_at(t, i);
            expected.push(i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, expected);
        assert!(s.is_empty());
    }

    #[test]
    fn cancel_far_future_event() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let far = s.schedule_at(SimTime::from_hours(9), "cancelled");
        s.schedule_at(SimTime::from_hours(8), "kept");
        assert!(s.cancel(far));
        let (t, e) = s.pop().unwrap();
        assert_eq!((t.as_hours(), e), (8, "kept"));
        assert!(s.pop().is_none());
        assert_eq!(s.tombstone_count(), 0, "tombstone swept on drain");
    }
}
