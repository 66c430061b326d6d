//! The discrete-event simulation engine (paper §III-C).
//!
//! XMTSim is a *discrete-event* (DE) simulator, not a discrete-time one:
//! the main loop pops the next event from a time-ordered event list and
//! notifies the actor that scheduled it, so simulated time advances in
//! irregular jumps instead of polling every component every cycle
//! (paper Fig. 5b vs Fig. 5a).
//!
//! Two entry points are provided:
//!
//! * [`Scheduler`] — the bare event list used by the production
//!   cycle-accurate model. Events carry an arbitrary payload type; the
//!   simulation loop lives with the model, which plays the role of one
//!   large *macro-actor* (see below) for each component class.
//! * [`actor`] — a faithful port of the paper's actor framework
//!   (`Actor::notify` callbacks, macro-actors that iterate many components
//!   per notification). It exists both as a teaching artifact and to
//!   reproduce the paper's macro-actor threshold experiment (§III-D:
//!   grouping components into a macro-actor wins once the event rate
//!   passes a threshold — ~800 events/cycle in the paper's measurement).
//!
//! # Event-list organization
//!
//! The event list is the simulator's hottest data structure: the paper
//! attributes up to 60% of host time to the ICN model (§III-D), and most
//! of that is event-list traffic; MGSim and gem5 both abandoned binary
//! heaps for bucketed designs for the same reason. [`Scheduler`] is a
//! **two-level calendar queue**:
//!
//! * a *near horizon* of [`N_BUCKETS`] per-tick buckets, each covering
//!   [`BUCKET_WIDTH_PS`] picoseconds (one default clock period), arranged
//!   as a ring indexed by `time >> BUCKET_SHIFT`. Insertion is an O(1)
//!   append; a bucket is sorted at most once, lazily, when the window
//!   reaches it (appends that arrive already in key order never trigger a
//!   sort at all);
//! * a *far-future overflow* min-heap for events beyond the near window,
//!   drained back into buckets as the window advances.
//!
//! Events are totally ordered by `(time, priority, seq)`, so the popping
//! order — including the deterministic FIFO tie-break — is bit-identical
//! to the original binary-heap implementation, which is preserved in
//! [`baseline`] as the differential-testing oracle and bench baseline.

pub mod actor;
pub mod baseline;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time, in picoseconds.
///
/// Clock domains convert their cycle counts to picoseconds through their
/// current period, which lets the activity-plug-in API retune domain
/// frequencies mid-run (paper §III-B) without rescaling history.
pub type Time = u64;

/// Scheduling priority for events that share a timestamp. Lower runs
/// first. This implements the paper's two-phase clock-cycle mechanism:
/// components first *negotiate* transfers, then *transfer* packages, and
/// the priority scheme keeps the phase order consistent in every cycle.
pub type Priority = u8;

/// Priority of the negotiate phase (runs first within a timestamp).
pub const PRI_NEGOTIATE: Priority = 0;
/// Priority of the transfer phase.
pub const PRI_TRANSFER: Priority = 1;
/// Default priority for ordinary events.
pub const PRI_DEFAULT: Priority = 2;
/// Priority of sampling/observation events (run after state settles).
pub const PRI_SAMPLE: Priority = 3;

/// log2 of the bucket width: 1024 ps per bucket, about one cycle of the
/// default 1000 ps clock domains, so one bucket holds one cycle's burst.
const BUCKET_SHIFT: u32 = 10;
/// Width of one near-horizon bucket in picoseconds.
pub const BUCKET_WIDTH_PS: Time = 1 << BUCKET_SHIFT;
/// Buckets in the near horizon; the window covers
/// `N_BUCKETS * BUCKET_WIDTH_PS` ≈ 256 cycles ahead of the current time,
/// comfortably past the deepest modeled latency (a DRAM round trip).
pub const N_BUCKETS: usize = 256;

/// One queue entry: the `(time, priority, seq)` ordering key plus the
/// payload slot it refers to. `seq` is unique, so `slot` (compared last)
/// never decides an ordering. The slot rides inside the key as a `u32`
/// so an entry is 24 bytes, not 32: drained buckets keep their capacity,
/// which makes this array the simulator's largest resident structure on
/// chip-scale runs (hundreds of events per page × [`N_BUCKETS`] pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: Time,
    priority: Priority,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

/// One near-horizon bucket: events of a single page (`time >> BUCKET_SHIFT`
/// value), drained front-to-back through a cursor so popping never shifts
/// the vector.
#[derive(Debug)]
struct Bucket {
    items: Vec<Key>,
    /// Entries before `head` have been popped.
    head: usize,
    /// Whether `items` is ascending by key. Kept `true` incrementally for
    /// in-order appends; out-of-order appends to a future bucket just
    /// clear it and the bucket is sorted once when the window arrives.
    /// Invariant: a partially drained bucket (`head > 0`) is sorted.
    sorted: bool,
}

impl Bucket {
    const fn new() -> Self {
        Bucket { items: Vec::new(), head: 0, sorted: true }
    }

    #[inline]
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // `head > 0` implies sorted, so an unsorted bucket is undrained
            // and the whole vector can be sorted. Keys are unique (seq), so
            // an unstable sort yields the exact total order.
            debug_assert_eq!(self.head, 0);
            self.items.sort_unstable();
            self.sorted = true;
        }
    }
}

/// A time/priority-ordered event list with deterministic FIFO tie-breaking,
/// organized as a two-level calendar queue (see the module docs).
///
/// Determinism matters: checkpointing (paper §III-E) and the verification
/// of the cycle-accurate model against the functional model both rely on
/// identical runs producing identical event orders.
#[derive(Debug)]
pub struct Scheduler<E> {
    /// Ring of near-horizon buckets; page `p` lives at `p % N_BUCKETS`.
    buckets: Vec<Bucket>,
    /// First page the near window covers; equals `now >> BUCKET_SHIFT`
    /// after every pop, so `schedule_at`'s `time >= now` assertion also
    /// guarantees no event lands before the window.
    cur_page: u64,
    /// Events currently held in the near-horizon buckets.
    near_pending: usize,
    /// Far-future events (page at or beyond `cur_page + N_BUCKETS`).
    overflow: BinaryHeap<Reverse<Key>>,
    payloads: Vec<Option<E>>,
    free: Vec<u32>,
    now: Time,
    seq: u64,
    processed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            buckets: (0..N_BUCKETS).map(|_| Bucket::new()).collect(),
            cur_page: 0,
            near_pending: 0,
            overflow: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            now: 0,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.near_pending + self.overflow.len()
    }

    #[inline]
    fn alloc_slot(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.payloads[s as usize] = Some(event);
                s
            }
            None => {
                let s = u32::try_from(self.payloads.len()).expect("more than 2^32 pending events");
                self.payloads.push(Some(event));
                s
            }
        }
    }

    #[inline]
    fn take_payload(&mut self, slot: u32) -> E {
        let ev = self.payloads[slot as usize].take().expect("event slot already taken");
        self.free.push(slot);
        ev
    }

    /// Insert into the near-horizon bucket for `page`.
    fn push_near(&mut self, page: u64, key: Key) {
        let is_current = page == self.cur_page;
        let b = &mut self.buckets[(page % N_BUCKETS as u64) as usize];
        match b.items.last() {
            None => {
                b.head = 0;
                b.sorted = true;
                b.items.push(key);
            }
            // Common case: keys arrive in ascending order (monotone seq,
            // same or later time) — O(1) append keeps the bucket sorted.
            Some(&last) if b.sorted && last <= key => b.items.push(key),
            _ if is_current => {
                // Out-of-order arrival into the bucket being drained (e.g.
                // a same-timestamp event of an earlier phase): a binary
                // insert preserves the partially-drained sorted invariant
                // without re-sorting.
                b.ensure_sorted();
                let pos = b.head + b.items[b.head..].partition_point(|&k| k < key);
                b.items.insert(pos, key);
            }
            _ => {
                // Future bucket: append now, sort once when the window
                // reaches it.
                b.items.push(key);
                b.sorted = false;
            }
        }
        self.near_pending += 1;
    }

    /// Schedule `event` at absolute time `time` with `priority`.
    ///
    /// Scheduling in the past panics: actors may only schedule at or after
    /// the current time, exactly like the paper's DE scheduler.
    pub fn schedule_at(&mut self, time: Time, priority: Priority, event: E) {
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        let slot = self.alloc_slot(event);
        let key = Key { time, priority, seq: self.seq, slot };
        self.seq += 1;
        let page = time >> BUCKET_SHIFT;
        if page >= self.cur_page + N_BUCKETS as u64 {
            self.overflow.push(Reverse(key));
        } else {
            self.push_near(page, key);
        }
    }

    /// Schedule `event` `delay` picoseconds from now with default priority.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, PRI_DEFAULT, event);
    }

    /// Schedule with an externally assigned sequence number.
    ///
    /// The parallel engine runs one scheduler per shard but keeps a single
    /// *global* insertion counter, so the cross-shard merge of a
    /// `(time, priority)` group — ordered by these seqs — reproduces the
    /// exact FIFO order a single sequential queue would have produced.
    /// The caller must hand each scheduler strictly increasing seqs (a
    /// shared monotone counter does this naturally); the internal counter
    /// is bumped past `seq` so mixing in [`schedule_at`](Self::schedule_at)
    /// calls later cannot collide.
    pub fn schedule_at_seq(&mut self, time: Time, priority: Priority, seq: u64, event: E) {
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        debug_assert!(seq >= self.seq, "external seq must be monotone per scheduler");
        let slot = self.alloc_slot(event);
        let key = Key { time, priority, seq, slot };
        self.seq = seq + 1;
        let page = time >> BUCKET_SHIFT;
        if page >= self.cur_page + N_BUCKETS as u64 {
            self.overflow.push(Reverse(key));
        } else {
            self.push_near(page, key);
        }
    }

    /// [`requeue`](Self::requeue) with an externally assigned sequence
    /// number (see [`schedule_at_seq`](Self::schedule_at_seq)).
    pub fn requeue_seq(&mut self, time: Time, priority: Priority, seq: u64, event: E) {
        self.schedule_at_seq(time, priority, seq, event);
        self.processed -= 1;
    }

    /// Pull every overflow event that now fits into the near window.
    fn refill_from_overflow(&mut self) {
        let limit = self.cur_page + N_BUCKETS as u64;
        while let Some(&Reverse(key)) = self.overflow.peek() {
            let page = key.time >> BUCKET_SHIFT;
            if page >= limit {
                break;
            }
            self.overflow.pop();
            self.push_near(page, key);
        }
    }

    /// Find, pop, and return the globally smallest key, advancing the
    /// window as needed. Does not touch `now`/`processed`.
    fn pop_key(&mut self) -> Option<Key> {
        if self.near_pending == 0 {
            // Near window exhausted: jump straight to the earliest
            // far-future page (or report empty).
            let &Reverse(key) = self.overflow.peek()?;
            self.cur_page = key.time >> BUCKET_SHIFT;
            self.refill_from_overflow();
        }
        loop {
            let idx = (self.cur_page % N_BUCKETS as u64) as usize;
            if self.buckets[idx].items.is_empty() {
                // Advancing one page extends the window by one page at the
                // far end; any overflow events for it move in.
                self.cur_page += 1;
                self.refill_from_overflow();
                continue;
            }
            let b = &mut self.buckets[idx];
            b.ensure_sorted();
            let key = b.items[b.head];
            b.head += 1;
            if b.head == b.items.len() {
                b.items.clear();
                b.head = 0;
            }
            self.near_pending -= 1;
            return Some(key);
        }
    }

    /// Pop the next event, advancing simulated time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let key = self.pop_key()?;
        self.now = key.time;
        self.processed += 1;
        Some((key.time, self.take_payload(key.slot)))
    }

    /// Batch-drain one `(time, priority)` group: pop *every* currently
    /// pending event sharing the next event's timestamp and priority into
    /// `out` (cleared first), in FIFO order, advancing simulated time once.
    /// Returns the group's `(time, priority)`, or `None` when empty.
    ///
    /// This is the macro-actor interface of the event list: the two-phase
    /// negotiate/transfer cycle of the model pops one *group* per phase
    /// instead of one event at a time, turning N heap pops per cycle into
    /// one bucket walk. Events scheduled into the same group *while the
    /// batch is being handled* are not lost — they have larger sequence
    /// numbers than anything drained here, so the next call returns them,
    /// exactly as repeated single pops would.
    pub fn pop_cycle(&mut self, out: &mut Vec<E>) -> Option<(Time, Priority)> {
        out.clear();
        let key = self.pop_key()?;
        self.now = key.time;
        self.processed += 1;
        let ev = self.take_payload(key.slot);
        out.push(ev);
        // The rest of the group is contiguous at the head of the current
        // bucket: same time ⟹ same page, and the bucket is sorted.
        let idx = (self.cur_page % N_BUCKETS as u64) as usize;
        loop {
            let b = &mut self.buckets[idx];
            if b.items.is_empty() {
                break;
            }
            let k = b.items[b.head];
            if k.time != key.time || k.priority != key.priority {
                break;
            }
            b.head += 1;
            if b.head == b.items.len() {
                b.items.clear();
                b.head = 0;
            }
            self.near_pending -= 1;
            self.processed += 1;
            let ev = self.take_payload(k.slot);
            out.push(ev);
        }
        Some((key.time, key.priority))
    }

    /// Smallest pending `(time, priority)` without popping — the lock-step
    /// window bound: the parallel engine's coordinator takes the minimum
    /// of this across all shard schedulers to pick the next global group.
    pub fn peek_key(&self) -> Option<(Time, Priority)> {
        let near = if self.near_pending > 0 {
            let mut page = self.cur_page;
            loop {
                let b = &self.buckets[(page % N_BUCKETS as u64) as usize];
                if !b.items.is_empty() {
                    // First non-empty bucket holds the earliest event; the
                    // bucket may be unsorted, so scan for the minimum key.
                    break b.items[b.head..].iter().map(|k| (k.time, k.priority)).min();
                }
                page += 1;
            }
        } else {
            None
        };
        // Overflow events live ≥ N_BUCKETS pages past `cur_page`, so any
        // near event beats them; compare only when the near window is empty.
        near.or_else(|| self.overflow.peek().map(|&Reverse(k)| (k.time, k.priority)))
    }

    /// Drain this scheduler's slice of the global `(time, priority)` group
    /// into `out` (appended, **not** cleared) as `(seq, event)` pairs, and
    /// advance `now` to `time` even if nothing here matches — lock-stepping
    /// every shard's clock so later `schedule_at*` calls agree on "the
    /// past". The caller merges slices from all shards by seq.
    pub fn pop_group_seq(&mut self, time: Time, priority: Priority, out: &mut Vec<(u64, E)>) {
        self.now = self.now.max(time);
        match self.peek_key() {
            Some((t, p)) if t == time && p == priority => {}
            _ => return,
        }
        let key = self.pop_key().expect("peeked a matching group");
        debug_assert!(key.time == time && key.priority == priority);
        self.processed += 1;
        let ev = self.take_payload(key.slot);
        out.push((key.seq, ev));
        // As in `pop_cycle`: the rest of the group is contiguous at the
        // head of the (sorted) current bucket.
        let idx = (self.cur_page % N_BUCKETS as u64) as usize;
        loop {
            let b = &mut self.buckets[idx];
            if b.items.is_empty() {
                break;
            }
            let k = b.items[b.head];
            if k.time != time || k.priority != priority {
                break;
            }
            b.head += 1;
            if b.head == b.items.len() {
                b.items.clear();
                b.head = 0;
            }
            self.near_pending -= 1;
            self.processed += 1;
            let ev = self.take_payload(k.slot);
            out.push((k.seq, ev));
        }
    }

    /// Re-insert an event that was drained by [`pop_cycle`](Self::pop_cycle)
    /// but not handled (the model hit a stop/checkpoint boundary mid-batch),
    /// un-counting it from `processed`. Requeued events keep their relative
    /// order when requeued in batch order; they are appended after any event
    /// the already-handled part of the batch scheduled into the same group.
    pub fn requeue(&mut self, time: Time, priority: Priority, event: E) {
        self.schedule_at(time, priority, event);
        self.processed -= 1;
    }

    /// Snapshot every pending event as `(time, priority, payload)` in
    /// exact pop order (ascending `(time, priority, seq)`), without
    /// disturbing the queue. This is the checkpoint path for mid-flight
    /// state: re-scheduling the snapshot into a fresh scheduler in this
    /// order reproduces the pop order exactly, because newly assigned
    /// sequence numbers are monotone in insertion order.
    pub fn pending_snapshot(&self) -> Vec<(Time, Priority, E)>
    where
        E: Clone,
    {
        self.pending_snapshot_seq().into_iter().map(|(t, p, _, e)| (t, p, e)).collect()
    }

    /// [`pending_snapshot`](Self::pending_snapshot) with each event's
    /// sequence number exposed — the parallel engine's checkpoint path
    /// merges per-shard snapshots into one global pop order by seq.
    pub fn pending_snapshot_seq(&self) -> Vec<(Time, Priority, u64, E)>
    where
        E: Clone,
    {
        let mut keyed: Vec<Key> = Vec::with_capacity(self.pending());
        for b in &self.buckets {
            keyed.extend_from_slice(&b.items[b.head..]);
        }
        keyed.extend(self.overflow.iter().map(|Reverse(k)| *k));
        // Keys are unique (seq), so an unstable sort is exact.
        keyed.sort_unstable();
        keyed
            .into_iter()
            .map(|k| {
                let ev = self.payloads[k.slot as usize].as_ref().expect("pending slot has payload");
                (k.time, k.priority, k.seq, ev.clone())
            })
            .collect()
    }

    /// Time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if self.near_pending > 0 {
            let mut page = self.cur_page;
            loop {
                let b = &self.buckets[(page % N_BUCKETS as u64) as usize];
                if !b.items.is_empty() {
                    // The earliest event is in the first non-empty bucket;
                    // the bucket may be unsorted, so scan for its minimum.
                    return b.items[b.head..].iter().map(|k| k.time).min();
                }
                page += 1;
            }
        }
        self.overflow.peek().map(|Reverse(k)| k.time)
    }

    /// Drop all pending events (used by the stop event and by phase
    /// sampling's time skips). Keeps `now`, `seq` and `processed`: the
    /// scheduler stays anchored at the current time and still refuses
    /// events in the past. For rewinding time (checkpoint restore into a
    /// fresh or reused scheduler), use [`reset`](Self::reset).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.items.clear();
            b.head = 0;
            b.sorted = true;
        }
        self.cur_page = self.now >> BUCKET_SHIFT;
        self.near_pending = 0;
        self.overflow.clear();
        self.payloads.clear();
        self.free.clear();
    }

    /// Return to the pristine time-zero state: everything [`clear`]
    /// drops, plus `now`, `seq` and `processed`. This is the checkpoint-
    /// restore entry point — a restored simulation may resume at a time
    /// *earlier* than this scheduler has already reached, which `clear`
    /// (deliberately) still treats as "scheduling in the past".
    ///
    /// [`clear`]: Self::clear
    pub fn reset(&mut self) {
        self.clear();
        self.now = 0;
        self.seq = 0;
        self.processed = 0;
        self.cur_page = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(30, PRI_DEFAULT, "c");
        s.schedule_at(10, PRI_DEFAULT, "a");
        s.schedule_at(20, PRI_DEFAULT, "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(order, vec![(10, "a"), (20, "b"), (30, "c")]);
        assert_eq!(s.now(), 30);
        assert_eq!(s.processed(), 3);
    }

    #[test]
    fn same_time_ordered_by_priority_then_fifo() {
        let mut s = Scheduler::new();
        s.schedule_at(5, PRI_TRANSFER, "t1");
        s.schedule_at(5, PRI_NEGOTIATE, "n1");
        s.schedule_at(5, PRI_TRANSFER, "t2");
        s.schedule_at(5, PRI_NEGOTIATE, "n2");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["n1", "n2", "t1", "t2"]);
    }

    #[test]
    fn relative_scheduling_tracks_now() {
        let mut s = Scheduler::new();
        s.schedule_in(10, 1);
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, 10);
        s.schedule_in(5, 2);
        assert_eq!(s.peek_time(), Some(15));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut s = Scheduler::new();
        s.schedule_at(10, PRI_DEFAULT, ());
        s.pop();
        s.schedule_at(5, PRI_DEFAULT, ());
    }

    #[test]
    fn slot_reuse_does_not_corrupt_payloads() {
        let mut s = Scheduler::new();
        for round in 0..100u32 {
            for k in 0..10u32 {
                s.schedule_in((k as u64) + 1, round * 100 + k);
            }
            for k in 0..10u32 {
                let (_, v) = s.pop().unwrap();
                assert_eq!(v, round * 100 + k);
            }
        }
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn far_future_events_cross_the_bucket_window() {
        let mut s = Scheduler::new();
        // Far beyond the near horizon, out of order, plus one near event.
        let far = N_BUCKETS as u64 * BUCKET_WIDTH_PS;
        s.schedule_at(7 * far + 3, PRI_DEFAULT, "far2");
        s.schedule_at(5, PRI_DEFAULT, "near");
        s.schedule_at(3 * far + 1, PRI_DEFAULT, "far1");
        s.schedule_at(u64::MAX, PRI_DEFAULT, "max");
        assert_eq!(s.pending(), 4);
        assert_eq!(s.peek_time(), Some(5));
        assert_eq!(s.pop(), Some((5, "near")));
        assert_eq!(s.peek_time(), Some(3 * far + 1));
        assert_eq!(s.pop(), Some((3 * far + 1, "far1")));
        // Scheduling relative to the new now still works across windows.
        s.schedule_in(2 * far, "mid");
        assert_eq!(s.pop(), Some((5 * far + 1, "mid")));
        assert_eq!(s.pop(), Some((7 * far + 3, "far2")));
        assert_eq!(s.pop(), Some((u64::MAX, "max")));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pop_cycle_batches_one_group() {
        let mut s = Scheduler::new();
        s.schedule_at(5, PRI_TRANSFER, "t1");
        s.schedule_at(5, PRI_NEGOTIATE, "n1");
        s.schedule_at(5, PRI_NEGOTIATE, "n2");
        s.schedule_at(9, PRI_NEGOTIATE, "later");
        let mut out = Vec::new();
        assert_eq!(s.pop_cycle(&mut out), Some((5, PRI_NEGOTIATE)));
        assert_eq!(out, vec!["n1", "n2"]);
        assert_eq!(s.now(), 5);
        // An event scheduled into the drained group is picked up by the
        // next call, not lost.
        s.schedule_at(5, PRI_NEGOTIATE, "n3");
        assert_eq!(s.pop_cycle(&mut out), Some((5, PRI_NEGOTIATE)));
        assert_eq!(out, vec!["n3"]);
        assert_eq!(s.pop_cycle(&mut out), Some((5, PRI_TRANSFER)));
        assert_eq!(out, vec!["t1"]);
        assert_eq!(s.pop_cycle(&mut out), Some((9, PRI_NEGOTIATE)));
        assert_eq!(out, vec!["later"]);
        assert_eq!(s.pop_cycle(&mut out), None);
        assert!(out.is_empty());
        assert_eq!(s.processed(), 5);
    }

    #[test]
    fn requeue_restores_pending_and_uncounts() {
        let mut s = Scheduler::new();
        s.schedule_at(5, PRI_DEFAULT, "a");
        s.schedule_at(5, PRI_DEFAULT, "b");
        let mut out = Vec::new();
        s.pop_cycle(&mut out);
        assert_eq!(out, vec!["a", "b"]);
        // Handle "a", put "b" back.
        s.requeue(5, PRI_DEFAULT, "b");
        assert_eq!(s.processed(), 1);
        assert_eq!(s.pending(), 1);
        assert_eq!(s.pop(), Some((5, "b")));
    }

    #[test]
    fn clear_keeps_now_reset_rewinds() {
        let mut s = Scheduler::new();
        s.schedule_at(5000, PRI_DEFAULT, 1u32);
        s.pop();
        s.clear();
        assert_eq!(s.now(), 5000);
        assert_eq!(s.pending(), 0);
        // clear(): still anchored — the past stays rejected.
        let past = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s2 = Scheduler::new();
            s2.schedule_at(5000, PRI_DEFAULT, 1u32);
            s2.pop();
            s2.clear();
            s2.schedule_at(100, PRI_DEFAULT, 2u32);
        }));
        assert!(past.is_err(), "clear() must keep rejecting events in the past");
        // reset(): full rewind — restoring an earlier checkpoint works.
        s.reset();
        assert_eq!(s.now(), 0);
        assert_eq!(s.processed(), 0);
        s.schedule_at(100, PRI_DEFAULT, 2u32);
        assert_eq!(s.pop(), Some((100, 2u32)));
    }

    #[test]
    fn pending_snapshot_matches_pop_order() {
        let mut s = Scheduler::new();
        let far = N_BUCKETS as u64 * BUCKET_WIDTH_PS;
        s.schedule_at(5, PRI_TRANSFER, "t");
        s.schedule_at(5, PRI_NEGOTIATE, "n1");
        s.schedule_at(3 * far, PRI_DEFAULT, "far");
        s.schedule_at(5, PRI_NEGOTIATE, "n2");
        s.schedule_at(9, PRI_SAMPLE, "s");
        let snap = s.pending_snapshot();
        let popped: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(t, e)| (t, e)).collect();
        assert_eq!(
            snap.iter().map(|&(t, _, e)| (t, e)).collect::<Vec<_>>(),
            popped,
            "snapshot order must equal pop order"
        );
        // Replaying the snapshot into a fresh scheduler reproduces it.
        let mut s2 = Scheduler::new();
        for &(t, p, e) in &snap {
            s2.schedule_at(t, p, e);
        }
        assert_eq!(s2.pending_snapshot(), snap);
    }

    #[test]
    fn peek_key_reports_the_next_group() {
        let mut s = Scheduler::new();
        assert_eq!(s.peek_key(), None);
        let far = N_BUCKETS as u64 * BUCKET_WIDTH_PS;
        s.schedule_at(3 * far, PRI_DEFAULT, "far");
        assert_eq!(s.peek_key(), Some((3 * far, PRI_DEFAULT)));
        s.schedule_at(9, PRI_SAMPLE, "s");
        s.schedule_at(9, PRI_NEGOTIATE, "n");
        assert_eq!(s.peek_key(), Some((9, PRI_NEGOTIATE)));
        s.pop();
        assert_eq!(s.peek_key(), Some((9, PRI_SAMPLE)));
    }

    /// Two shard schedulers fed from one global seq counter must merge
    /// back into exactly the order a single scheduler produces.
    #[test]
    fn sharded_pop_group_seq_merge_equals_single_queue() {
        let mut single = Scheduler::new();
        let mut a = Scheduler::new();
        let mut b = Scheduler::new();
        let mut seq = 0u64;
        // Interleave inserts across shards, including group collisions.
        let plan: &[(Time, Priority, &str, bool)] = &[
            (5, PRI_DEFAULT, "a1", false),
            (5, PRI_DEFAULT, "b1", true),
            (5, PRI_DEFAULT, "a2", false),
            (5, PRI_NEGOTIATE, "b2", true),
            (7, PRI_DEFAULT, "b3", true),
            (5, PRI_DEFAULT, "b4", true),
            (7, PRI_DEFAULT, "a3", false),
        ];
        for &(t, p, ev, to_b) in plan {
            single.schedule_at(t, p, ev);
            let shard = if to_b { &mut b } else { &mut a };
            shard.schedule_at_seq(t, p, seq, ev);
            seq += 1;
        }
        let mut merged_events = Vec::new();
        loop {
            let key = match (a.peek_key(), b.peek_key()) {
                (None, None) => break,
                (Some(x), None) => x,
                (None, Some(y)) => y,
                (Some(x), Some(y)) => x.min(y),
            };
            let mut merged: Vec<(u64, &str)> = Vec::new();
            a.pop_group_seq(key.0, key.1, &mut merged);
            b.pop_group_seq(key.0, key.1, &mut merged);
            merged.sort_unstable_by_key(|&(q, _)| q);
            // Both shards' clocks advanced in lock-step.
            assert_eq!(a.now(), key.0);
            assert_eq!(b.now(), key.0);
            merged_events.extend(merged.into_iter().map(|(_, e)| e));
        }
        let mut want = Vec::new();
        let mut batch = Vec::new();
        while single.pop_cycle(&mut batch).is_some() {
            want.extend(batch.iter().copied());
        }
        assert_eq!(merged_events, want);
        assert_eq!(a.processed() + b.processed(), single.processed());
    }

    #[test]
    fn pending_snapshot_seq_merges_across_schedulers() {
        let mut a = Scheduler::new();
        let mut b = Scheduler::new();
        a.schedule_at_seq(5, PRI_DEFAULT, 0, "e0");
        b.schedule_at_seq(5, PRI_DEFAULT, 1, "e1");
        a.schedule_at_seq(5, PRI_DEFAULT, 2, "e2");
        b.schedule_at_seq(3, PRI_DEFAULT, 3, "e3");
        let mut all = a.pending_snapshot_seq();
        all.extend(b.pending_snapshot_seq());
        all.sort_unstable_by_key(|&(t, p, q, _)| (t, p, q));
        let order: Vec<_> = all.iter().map(|&(_, _, _, e)| e).collect();
        assert_eq!(order, vec!["e3", "e0", "e1", "e2"]);
    }

    #[test]
    fn interleaved_same_bucket_inserts_stay_ordered() {
        // Insert into the bucket currently being drained, with an earlier
        // priority than events still in it: the binary-insert path must
        // keep the order exact.
        let mut s = Scheduler::new();
        s.schedule_at(10, PRI_SAMPLE, "s1");
        s.schedule_at(10, PRI_TRANSFER, "t1");
        assert_eq!(s.pop(), Some((10, "t1")));
        // Same time, earlier priority than the pending "s1".
        s.schedule_at(10, PRI_TRANSFER, "t2");
        s.schedule_at(12, PRI_NEGOTIATE, "n1");
        assert_eq!(s.pop(), Some((10, "t2")));
        assert_eq!(s.pop(), Some((10, "s1")));
        assert_eq!(s.pop(), Some((12, "n1")));
    }
}
