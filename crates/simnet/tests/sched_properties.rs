//! Model test: the scheduler against a reference priority queue.
//!
//! `RefQueue` is the specification: a `(at, seq)`-ordered queue with
//! lazy cancellation, written for obviousness rather than speed. These
//! properties drive the scheduler and the model through the same
//! randomized operation sequences — schedule near and far, cancel,
//! pop, pop-until, peek, manual clock advances — and require identical
//! observable behaviour: same pop order, same cancel results, same
//! lengths, the same tombstone-compaction bound, and `sched.*`
//! counters that agree with the script.

use phishsim_simnet::{EventId, ObsSink, Scheduler, SimTime};
use proptest::prelude::*;

/// The reference semantics: a `(at, seq)`-ordered queue with lazy
/// cancellation. O(n) pops are fine at test sizes; what matters is
/// that every observable is obviously right.
#[derive(Default)]
struct RefQueue {
    /// (at_ms, seq, payload, alive)
    entries: Vec<(u64, u64, u32, bool)>,
    now: u64,
    next_seq: u64,
}

impl RefQueue {
    fn schedule_at(&mut self, at: u64, payload: u32) -> u64 {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((at, seq, payload, true));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.entries.iter_mut().find(|e| e.1 == seq && e.3) {
            Some(e) => {
                e.3 = false;
                true
            }
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.3).count()
    }

    fn peek_time(&self) -> Option<u64> {
        self.entries
            .iter()
            .filter(|e| e.3)
            .min_by_key(|e| (e.0, e.1))
            .map(|e| e.0)
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let idx = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.3)
            .min_by_key(|(_, e)| (e.0, e.1))
            .map(|(i, _)| i)?;
        let (at, _, payload, _) = self.entries.remove(idx);
        self.now = at;
        Some((at, payload))
    }

    fn pop_until(&mut self, deadline: u64) -> Option<(u64, u32)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    fn advance_to(&mut self, to: u64) {
        assert!(to >= self.now);
        self.now = to;
    }
}

/// One step of the interaction script. Delays are relative to the
/// model's current time so every generated script is legal (no
/// scheduling in the past).
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at now + delay_ms. Delays range from milliseconds to
    /// hours; zero creates same-instant FIFO ties.
    Schedule(u64),
    /// Cancel the n-th id ever issued (may already be popped/cancelled).
    Cancel(usize),
    Pop,
    /// Pop only if the next event is within now + offset.
    PopUntil(u64),
    Peek,
    /// Advance the clock to now + offset without popping.
    AdvanceTo(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Schedule and Pop repeat so the script mixes them more often.
    // Delay mix inside Schedule: ties, sub-second, seconds to a
    // minute, hours.
    prop_oneof![
        Just(0u64).prop_map(Op::Schedule),
        (1u64..2_000).prop_map(Op::Schedule),
        (2_000u64..70_000).prop_map(Op::Schedule),
        (1_000_000u64..50_000_000).prop_map(Op::Schedule),
        (0usize..400).prop_map(Op::Cancel),
        (0usize..400).prop_map(Op::Cancel),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        (0u64..100_000).prop_map(Op::PopUntil),
        Just(Op::Peek),
        (0u64..5_000_000).prop_map(Op::AdvanceTo),
    ]
}

proptest! {
    /// Every observable of the scheduler matches the reference model
    /// across arbitrary operation scripts.
    #[test]
    fn scheduler_matches_reference_model(
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        let sink = ObsSink::memory();
        let mut sched: Scheduler<u32> = Scheduler::new().with_obs(sink.clone());
        let mut model = RefQueue::default();
        // What the counters must read: schedule ops, cancels that
        // returned true, and pops that returned an event.
        let (mut scheduled, mut cancelled, mut dispatched) = (0u64, 0u64, 0u64);
        let mut ids: Vec<EventId> = Vec::new();
        let mut seqs: Vec<u64> = Vec::new();
        let mut payload = 0u32;

        for op in ops {
            match op {
                Op::Schedule(delay) => {
                    let at = model.now + delay;
                    ids.push(sched.schedule_at(SimTime::from_millis(at), payload));
                    seqs.push(model.schedule_at(at, payload));
                    payload += 1;
                    scheduled += 1;
                }
                Op::Cancel(n) => {
                    if !ids.is_empty() {
                        let n = n % ids.len();
                        let got = sched.cancel(ids[n]);
                        let want = model.cancel(seqs[n]);
                        prop_assert_eq!(got, want, "cancel #{} disagreed", n);
                        cancelled += u64::from(got);
                    }
                }
                Op::Pop => {
                    let got = sched.pop().map(|(t, e)| (t.as_millis(), e));
                    dispatched += u64::from(got.is_some());
                    prop_assert_eq!(got, model.pop());
                }
                Op::PopUntil(off) => {
                    let deadline = model.now + off;
                    let got = sched
                        .pop_until(SimTime::from_millis(deadline))
                        .map(|(t, e)| (t.as_millis(), e));
                    dispatched += u64::from(got.is_some());
                    prop_assert_eq!(got, model.pop_until(deadline));
                }
                Op::Peek => {
                    let got = sched.peek_time().map(|t| t.as_millis());
                    prop_assert_eq!(got, model.peek_time());
                }
                Op::AdvanceTo(off) => {
                    // Advancing past a pending event is a caller bug in
                    // both implementations (the next pop would rewind
                    // the clock), so clamp like real harness code does:
                    // never beyond the next pending event.
                    let mut to = model.now + off;
                    if let Some(next) = model.peek_time() {
                        to = to.min(next);
                    }
                    sched.advance_to(SimTime::from_millis(to));
                    model.advance_to(to);
                }
            }
            prop_assert_eq!(sched.len(), model.len());
            prop_assert_eq!(sched.is_empty(), model.len() == 0);
            prop_assert_eq!(sched.now().as_millis(), model.now);
            // Compaction bound: tombstones never dominate the queue.
            let tc = sched.tombstone_count();
            prop_assert!(
                tc < 64 || tc * 2 < sched.len() + tc,
                "tombstones {} vs alive {}",
                tc,
                sched.len()
            );
        }

        // Drain both: the full remaining pop order must agree, and the
        // drained scheduler must be tombstone-free.
        loop {
            let got = sched.pop().map(|(t, e)| (t.as_millis(), e));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
            dispatched += 1;
        }
        prop_assert_eq!(sched.len(), 0);
        prop_assert_eq!(sched.tombstone_count(), 0);

        let m = sink.metrics();
        prop_assert_eq!(m.counter("sched.scheduled"), scheduled);
        prop_assert_eq!(m.counter("sched.cancelled"), cancelled);
        prop_assert_eq!(m.counter("sched.dispatched"), dispatched);
    }

    /// Same-instant FIFO holds among the survivors of arbitrary
    /// cancellations, at near and far instants alike.
    #[test]
    fn fifo_ties_survive_cancel_and_jump(
        base in 0u64..10_000_000,
        n in 2usize..40,
        cancel_mask in proptest::collection::vec(any::<bool>(), 2..40),
    ) {
        let mut sched: Scheduler<usize> = Scheduler::new();
        let t = SimTime::from_millis(base);
        let ids: Vec<EventId> = (0..n).map(|i| sched.schedule_at(t, i)).collect();
        let mut kept: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(sched.cancel(*id));
            } else {
                kept.push(i);
            }
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, kept, "FIFO among survivors");
    }
}
