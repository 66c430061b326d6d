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
//! **calendar queue of FIFO lanes**:
//!
//! * a *near horizon* of [`N_BUCKETS`] pages of [`BUCKET_WIDTH_PS`]
//!   picoseconds (one default clock period), a ring indexed by
//!   `time >> BUCKET_SHIFT`. A page is [`N_PRI`] *lanes*, one per
//!   priority; a lane's entries sit in fixed-size chunks taken from and
//!   returned to one pool, so queue memory follows the *pending* events.
//!   Insertion appends to the lane's last chunk. Sequence numbers only
//!   grow, so a lane whose page holds one timestamp (all but about 1 in
//!   42 at 1000 ps periods) is in `(time, seq)` order as built, and all
//!   of it is one group; a lane that does receive an earlier time after
//!   a later one is flagged and stably sorted once, when next drained;
//! * a *far-future overflow* map for events beyond the near window,
//!   drained back into lanes as the window advances.
//!
//! Events are totally ordered by `(time, priority, seq)`, so the popping
//! order — including the deterministic FIFO tie-break — is bit-identical
//! to the original binary-heap implementation, which is preserved in
//! [`baseline`] as the differential-testing oracle and bench baseline.

pub mod actor;
pub mod baseline;

use std::collections::{BTreeMap, VecDeque};

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
/// Number of priorities: every [`Priority`] must be below it.
pub const N_PRI: usize = 4;

/// log2 of the page width: 1024 ps per page, about one cycle of the
/// default 1000 ps clock domains, so one page holds one cycle's burst.
const BUCKET_SHIFT: u32 = 10;
/// Width of one near-horizon page in picoseconds.
pub const BUCKET_WIDTH_PS: Time = 1 << BUCKET_SHIFT;
/// Pages in the near horizon; the window covers
/// `N_BUCKETS * BUCKET_WIDTH_PS` ≈ 256 cycles ahead of the current time,
/// comfortably past the deepest modeled latency (a DRAM round trip).
pub const N_BUCKETS: usize = 256;

/// Entries per chunk. A lane holding one event pins a whole chunk, and
/// on chip-scale runs a hundred lanes hold a few events each: 32 cost
/// more resident memory than the parent's key ring, 8 bought no speed.
const CHUNK: usize = 16;
/// "No chunk": an empty lane, the end of a chain, an empty pool.
const NIL: u32 = u32::MAX;
/// Words in the bitmap of non-empty lanes.
const LANE_WORDS: usize = N_BUCKETS * N_PRI / 64;

/// Up to [`CHUNK`] entries of one lane: `(time, seq)` keys and, at the
/// same positions but apart from them, the events — so a whole chunk of
/// events moves into a batch as one block. Chunks are chained by index,
/// in a lane or in the pool; a chunk in a lane is never empty.
#[derive(Debug)]
struct Chunk<E> {
    keys: VecDeque<(Time, u64)>,
    events: VecDeque<E>,
    next: u32,
}

/// The events of one `(page, priority)`, in arrival order.
#[derive(Debug, Clone, Copy)]
struct Lane {
    head: u32,
    tail: u32,
    /// Time of the entry that arrived last.
    last_time: Time,
    /// The lane holds more than one time, so only a prefix of it is a
    /// group; otherwise every entry is of `last_time`.
    mixed: bool,
    /// An entry arrived with an earlier time than its predecessor: sort
    /// before taking anything.
    unsorted: bool,
}

const EMPTY_LANE: Lane = Lane { head: NIL, tail: NIL, last_time: 0, mixed: false, unsorted: false };

/// What a queue saw of its traffic: the facts the lane design rests on,
/// counted instead of assumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Groups drained by `pop_cycle`.
    pub groups: u64,
    /// Groups that were a strict prefix of their lane.
    pub partial_groups: u64,
    /// Lanes sorted because an earlier time arrived after a later one.
    pub lane_sorts: u64,
    /// Events scheduled beyond the near window.
    pub overflow_events: u64,
    /// Largest number of events pending when something was popped.
    pub max_pending: u64,
    /// Chunks taken from the allocator rather than the pool.
    pub chunks_allocated: u64,
}

/// A time/priority-ordered event list with deterministic FIFO tie-breaking,
/// organized as a calendar queue of FIFO lanes (see the module docs).
/// Checkpointing (paper §III-E) and the verification of the cycle-accurate
/// model against the functional one rely on identical runs producing
/// identical event orders.
#[derive(Debug)]
pub struct Scheduler<E> {
    /// Lane `(page, priority)` is `lanes[page % N_BUCKETS * N_PRI + priority]`.
    lanes: Vec<Lane>,
    /// One bit per lane, set while it has entries: pops skip idle pages a
    /// word at a time.
    occupied: [u64; LANE_WORDS],
    /// Every chunk taken from the allocator so far.
    chunks: Vec<Chunk<E>>,
    /// Head of the pool of drained chunks.
    free: u32,
    /// First page the near window covers; equals `now >> BUCKET_SHIFT`
    /// after every pop, so `schedule_at`'s `time >= now` assertion also
    /// guarantees no event lands before the window.
    cur_page: u64,
    /// Events currently held in lanes.
    near_pending: usize,
    /// Far-future events (page at or beyond `cur_page + N_BUCKETS`).
    overflow: BTreeMap<(Time, Priority, u64), E>,
    now: Time,
    seq: u64,
    processed: u64,
    /// Kept across [`clear`](Self::clear), zeroed by [`reset`](Self::reset).
    pub counters: SchedCounters,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero; allocates the lane table only.
    pub fn new() -> Self {
        Scheduler {
            lanes: vec![EMPTY_LANE; N_BUCKETS * N_PRI],
            occupied: [0; LANE_WORDS],
            chunks: Vec::new(),
            free: NIL,
            cur_page: 0,
            near_pending: 0,
            overflow: BTreeMap::new(),
            now: 0,
            seq: 0,
            processed: 0,
            counters: SchedCounters::default(),
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

    /// Chunk slots held, in use or pooled: the peak of
    /// [`pending`](Self::pending) plus one part-filled chunk per lane in
    /// use then — not the sum of every lane's own high-water mark.
    pub fn retained_entries(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    #[inline]
    fn lane_index(page: u64, priority: Priority) -> usize {
        (page % N_BUCKETS as u64) as usize * N_PRI + priority as usize
    }

    /// A chunk from the pool, or a new one.
    fn take_chunk(&mut self) -> u32 {
        if let Some(chunk) = self.chunks.get_mut(self.free as usize) {
            return std::mem::replace(&mut self.free, std::mem::replace(&mut chunk.next, NIL));
        }
        let c = u32::try_from(self.chunks.len()).ok().filter(|&c| c != NIL);
        self.counters.chunks_allocated += 1;
        let (keys, events) = (VecDeque::with_capacity(CHUNK), VecDeque::with_capacity(CHUNK));
        self.chunks.push(Chunk { keys, events, next: NIL });
        c.expect("more than 2^32 event chunks")
    }

    /// Append to the lane of `(time, priority)`.
    #[inline]
    fn push_near(&mut self, time: Time, priority: Priority, seq: u64, event: E) {
        self.near_pending += 1;
        let li = Self::lane_index(time >> BUCKET_SHIFT, priority);
        let lane = &mut self.lanes[li];
        let tail = lane.tail;
        if time != lane.last_time {
            lane.mixed = tail != NIL;
            lane.unsorted |= lane.mixed && time < lane.last_time;
            lane.last_time = time;
        }
        let mut c = tail;
        if self.chunks.get(c as usize).is_none_or(|chunk| chunk.keys.len() == CHUNK) {
            // The lane's first entry, or its last chunk is full: link one more.
            c = self.take_chunk();
            self.occupied[li / 64] |= 1 << (li % 64);
            match self.chunks.get_mut(tail as usize) {
                Some(chunk) => chunk.next = c,
                None => self.lanes[li].head = c,
            }
            self.lanes[li].tail = c;
        }
        let chunk = &mut self.chunks[c as usize];
        chunk.keys.push_back((time, seq));
        chunk.events.push_back(event);
    }

    /// Schedule `event` at absolute time `time` with `priority`.
    ///
    /// Scheduling in the past panics: actors may only schedule at or after
    /// the current time, exactly like the paper's DE scheduler.
    pub fn schedule_at(&mut self, time: Time, priority: Priority, event: E) {
        assert!(time >= self.now, "event scheduled in the past: {time} < {}", self.now);
        assert!((priority as usize) < N_PRI, "priority {priority} is not below N_PRI = {N_PRI}");
        let seq = self.seq;
        self.seq += 1;
        if time >> BUCKET_SHIFT >= self.cur_page + N_BUCKETS as u64 {
            self.counters.overflow_events += 1;
            self.overflow.insert((time, priority, seq), event);
        } else {
            self.push_near(time, priority, seq, event);
        }
    }

    /// Schedule `event` `delay` picoseconds from now with default priority.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, PRI_DEFAULT, event);
    }

    /// Pull every overflow event that now fits into the near window. They
    /// come in key order, and before anything is scheduled into their
    /// pages directly, so their lanes start out ordered. Out of line, to
    /// keep the map walk out of the pop path's registers.
    #[inline(never)]
    fn refill_from_overflow(&mut self) {
        let limit = self.cur_page + N_BUCKETS as u64;
        while self.overflow.first_key_value().is_some_and(|(k, _)| k.0 >> BUCKET_SHIFT < limit) {
            let ((time, priority, seq), event) = self.overflow.pop_first().expect("peeked");
            self.push_near(time, priority, seq, event);
        }
    }

    /// The entries `(time, seq, event)` of lane `li`, in arrival order.
    fn lane_entries(&self, li: usize) -> impl Iterator<Item = (Time, u64, &E)> {
        let mut c = self.lanes[li].head;
        std::iter::from_fn(move || {
            let chunk = self.chunks.get(c as usize)?;
            c = chunk.next;
            Some(chunk.keys.iter().zip(&chunk.events).map(|(&(time, seq), e)| (time, seq, e)))
        })
        .flatten()
    }

    /// The earliest time in the non-empty lane `li`: its first entry's,
    /// unless it awaits its sort.
    #[inline(always)]
    fn head_time(&self, li: usize) -> Time {
        let lane = &self.lanes[li];
        match (lane.mixed, lane.unsorted) {
            (false, _) => lane.last_time,
            (true, false) => self.chunks[lane.head as usize].keys[0].0,
            (true, true) => self.lane_entries(li).map(|e| e.0).min().unwrap_or(lane.last_time),
        }
    }

    /// The earliest pending near event: its page, time and lane.
    /// `occupied` gives the first non-empty lane from `cur_page` on, going
    /// round the ring; a later lane of the same page comes first only if
    /// its head is strictly earlier (at equal times lower priority wins).
    /// Always inlined: returned through memory, the triple is written in
    /// words and read back wider, which stalls every pop.
    #[inline(always)]
    fn first_near(&self) -> Option<(u64, Time, usize)> {
        if self.near_pending == 0 {
            return None;
        }
        let from = Self::lane_index(self.cur_page, 0);
        let ahead = (0..=LANE_WORDS).find_map(|k| {
            // The last round is the first word again, for the bits below `from`.
            let mask = if k == 0 { !0 << (from % 64) } else { !0 };
            let word = self.occupied[(from / 64 + k) % LANE_WORDS] & mask;
            (word != 0).then(|| 64 * k + word.trailing_zeros() as usize - from % 64)
        });
        let ahead = ahead.expect("near events pending but no lane occupied");
        let mut li = (from + ahead) % (N_BUCKETS * N_PRI);
        let mut time = self.head_time(li);
        for other in li + 1..li - li % N_PRI + N_PRI {
            if self.lanes[other].head != NIL && self.head_time(other) < time {
                (time, li) = (self.head_time(other), other);
            }
        }
        Some((self.cur_page + (ahead / N_PRI) as u64, time, li))
    }

    /// Advance the window to the first pending event and return its time
    /// and lane. Does not touch `now`/`processed`.
    fn next_key(&mut self) -> Option<(Time, usize)> {
        self.counters.max_pending = self.counters.max_pending.max(self.pending() as u64);
        if self.near_pending == 0 {
            // Near window exhausted: jump to the earliest far-future page.
            self.cur_page = self.overflow.first_key_value()?.0 .0 >> BUCKET_SHIFT;
            self.refill_from_overflow();
        }
        let (page, time, li) = self.first_near()?;
        if page != self.cur_page {
            // The window grows at the far end: overflow events move in.
            self.cur_page = page;
            if !self.overflow.is_empty() {
                self.refill_from_overflow();
            }
        }
        Some((time, li))
    }

    /// Restore `(time, seq)` order in a flagged lane: empty it and push
    /// its entries again. Entries of one time are in seq order already,
    /// so a stable sort by time is exact.
    #[cold]
    fn sort_lane(&mut self, li: usize) {
        let mut all = Vec::new();
        let mut c = std::mem::replace(&mut self.lanes[li], EMPTY_LANE).head;
        while let Some(chunk) = self.chunks.get_mut(c as usize) {
            all.extend(chunk.keys.drain(..).zip(chunk.events.drain(..)));
            self.free = std::mem::replace(&mut c, std::mem::replace(&mut chunk.next, self.free));
        }
        self.near_pending -= all.len();
        all.sort_by_key(|&((time, _), _)| time);
        for ((time, seq), event) in all {
            self.push_near(time, (li % N_PRI) as Priority, seq, event);
        }
        self.counters.lane_sorts += 1;
    }

    /// Take the events of `time` off the front of lane `li`, at most
    /// `limit` of them: `take(chunk, n)` is to remove the first `n`
    /// entries of `chunk`.
    #[inline]
    fn take_front(&mut self, time: Time, li: usize, limit: usize, mut take: impl FnMut(&mut Chunk<E>, usize)) {
        if self.lanes[li].unsorted {
            self.sort_lane(li);
        }
        let mixed = self.lanes[li].mixed;
        let mut c = self.lanes[li].head;
        let mut taken = 0;
        while taken < limit {
            let Some(chunk) = self.chunks.get_mut(c as usize) else { break };
            let mut n = chunk.keys.len();
            if n > limit - taken || (mixed && chunk.keys[n - 1].0 != time) {
                // The group, or the caller's limit, ends inside this chunk.
                n = chunk.keys.iter().take(limit - taken).take_while(|k| k.0 == time).count();
                take(chunk, n);
                taken += n;
                break;
            }
            // The common case: the whole chunk goes, and back to the pool.
            take(chunk, n);
            taken += n;
            self.free = std::mem::replace(&mut c, std::mem::replace(&mut chunk.next, self.free));
        }
        if c == NIL {
            self.lanes[li] = EMPTY_LANE;
            self.occupied[li / 64] &= !(1 << (li % 64));
        } else {
            self.lanes[li].head = c;
        }
        self.near_pending -= taken;
        self.processed += taken as u64;
    }

    /// Drain the whole group of `time` at the front of lane `li`.
    #[inline]
    fn take_group(&mut self, time: Time, li: usize, take: impl FnMut(&mut Chunk<E>, usize)) {
        self.take_front(time, li, usize::MAX, take);
        self.counters.groups += 1;
        self.counters.partial_groups += u64::from(self.lanes[li].head != NIL);
    }

    /// Pop the next event, advancing simulated time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let (time, li) = self.next_key()?;
        self.now = time;
        let mut event = None;
        self.take_front(time, li, 1, |chunk, _| {
            chunk.keys.pop_front();
            event = chunk.events.pop_front();
        });
        Some((time, event.expect("next_key found an event")))
    }

    /// Batch-drain one `(time, priority)` group: pop *every* currently
    /// pending event sharing the next event's timestamp and priority into
    /// `out` (cleared first), in FIFO order, advancing simulated time once.
    /// Returns the group's `(time, priority)`, or `None` when empty.
    ///
    /// This is the macro-actor interface of the event list: the model's
    /// two-phase cycle pops one *group* per phase — one lane walk instead
    /// of N heap pops. Events scheduled into the group *while the batch is
    /// being handled* have larger sequence numbers than anything drained
    /// here, so the next call returns them, as repeated single pops would.
    pub fn pop_cycle(&mut self, out: &mut Vec<E>) -> Option<(Time, Priority)> {
        out.clear();
        let (time, li) = self.next_key()?;
        self.now = time;
        self.take_group(time, li, |chunk, n| {
            if n < chunk.events.len() {
                chunk.keys.drain(..n);
                return out.extend(chunk.events.drain(..n));
            }
            // A whole chunk moves as one block, not event by event — or
            // not at all: a group of one chunk swaps buffers with a caller
            // whose own is no larger (the Master TCU's groups of one).
            let mut events = Vec::from(std::mem::take(&mut chunk.events));
            if out.is_empty() && out.capacity() <= CHUNK {
                std::mem::swap(out, &mut events);
            } else {
                out.append(&mut events);
            }
            chunk.events = events.into();
            chunk.keys.clear();
        });
        Some((time, (li % N_PRI) as Priority))
    }

    /// Smallest pending `(time, priority)` without popping.
    pub fn peek_key(&self) -> Option<(Time, Priority)> {
        // Overflow events live ≥ N_BUCKETS pages past `cur_page`, so they
        // matter only when the near window is empty.
        match self.first_near() {
            Some((_, time, li)) => Some((time, (li % N_PRI) as Priority)),
            None => self.overflow.first_key_value().map(|(k, _)| (k.0, k.1)),
        }
    }

    /// Re-insert an event that [`pop_cycle`](Self::pop_cycle) drained but
    /// the model did not handle (a stop/checkpoint boundary mid-batch),
    /// un-counting it from `processed`. Requeued in batch order, events
    /// keep their relative order, behind anything the handled part of the
    /// batch scheduled into the same group.
    pub fn requeue(&mut self, time: Time, priority: Priority, event: E) {
        self.schedule_at(time, priority, event);
        self.processed -= 1;
    }

    /// Snapshot every pending event as `(time, priority, payload)` in
    /// exact pop order, without disturbing the queue — the checkpoint path
    /// for mid-flight state: re-scheduling the snapshot into a fresh
    /// scheduler in this order reproduces the pop order, because newly
    /// assigned sequence numbers are monotone in insertion order.
    pub fn pending_snapshot(&self) -> Vec<(Time, Priority, E)>
    where
        E: Clone,
    {
        self.pending_snapshot_seq().into_iter().map(|(t, p, _, e)| (t, p, e)).collect()
    }

    /// [`pending_snapshot`](Self::pending_snapshot) with each event's
    /// sequence number exposed — the checkpoint writer ranks queued
    /// services by it.
    pub fn pending_snapshot_seq(&self) -> Vec<(Time, Priority, u64, E)>
    where
        E: Clone,
    {
        let mut all: Vec<(Time, Priority, u64, &E)> = Vec::with_capacity(self.pending());
        for li in 0..self.lanes.len() {
            let priority = (li % N_PRI) as Priority;
            all.extend(self.lane_entries(li).map(|(time, seq, e)| (time, priority, seq, e)));
        }
        all.extend(self.overflow.iter().map(|(&(t, p, seq), e)| (t, p, seq, e)));
        // Keys are unique (seq), so an unstable sort is exact.
        all.sort_unstable_by_key(|&(t, p, seq, _)| (t, p, seq));
        all.into_iter().map(|(t, p, seq, e)| (t, p, seq, e.clone())).collect()
    }

    /// Time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.peek_key().map(|(time, _)| time)
    }

    /// Drop all pending events (the stop event, phase sampling's time
    /// skips) and the chunks that held them. Keeps `now`, `seq` and
    /// `processed`: the scheduler stays anchored at the current time and
    /// still refuses events in the past; [`reset`](Self::reset) rewinds.
    pub fn clear(&mut self) {
        self.lanes.fill(EMPTY_LANE);
        self.occupied = [0; LANE_WORDS];
        self.chunks.clear();
        self.free = NIL;
        self.cur_page = self.now >> BUCKET_SHIFT;
        self.near_pending = 0;
        self.overflow.clear();
    }

    /// Return to the pristine time-zero state: everything
    /// [`clear`](Self::clear) drops, plus `now`, `seq`, `processed` and the
    /// counters. The checkpoint-restore entry point: a restored simulation
    /// may resume *earlier* than this scheduler has already reached, which
    /// `clear` (deliberately) still treats as scheduling in the past.
    pub fn reset(&mut self) {
        self.clear();
        self.now = 0;
        self.seq = 0;
        self.processed = 0;
        self.cur_page = 0;
        self.counters = SchedCounters::default();
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

    /// Chunks go back to the pool when drained and are linked into other
    /// lanes later; an event must never come out of a stale chunk.
    #[test]
    fn chunk_reuse_does_not_corrupt_events() {
        let mut s = Scheduler::new();
        let mut batch = Vec::new();
        for round in 0..100u32 {
            // Two lanes of several chunks each, drained by different paths.
            for k in 0..3 * CHUNK as u32 {
                s.schedule_in(1 + u64::from(k % 2) * BUCKET_WIDTH_PS, round * 1000 + k);
            }
            let first: Vec<u32> = std::iter::from_fn(|| s.pop().map(|(_, v)| v))
                .take(3 * CHUNK / 2)
                .collect();
            s.pop_cycle(&mut batch);
            let want = |odd: u32| (0..3 * CHUNK as u32).filter(move |k| k % 2 == odd);
            assert!(first.into_iter().eq(want(0).map(|k| round * 1000 + k)));
            assert!(batch.iter().copied().eq(want(1).map(|k| round * 1000 + k)));
        }
        assert_eq!(s.pending(), 0);
        // The pool served every round after the first.
        assert_eq!(s.retained_entries(), 4 * CHUNK);
        assert_eq!(s.counters.chunks_allocated, 4);
    }

    #[test]
    #[should_panic(expected = "not below N_PRI")]
    fn rejects_priorities_without_a_lane() {
        Scheduler::new().schedule_at(10, N_PRI as Priority, ());
    }

    /// A page holding two timestamps: arrivals out of time order flag the
    /// lane, it is sorted once when reached, and its first group is a
    /// strict prefix of it.
    #[test]
    fn out_of_order_arrivals_sort_the_lane_once() {
        let mut s = Scheduler::new();
        let n = 2 * CHUNK + 3;
        for k in 0..n {
            s.schedule_at(1000, PRI_DEFAULT, (1000, k));
            s.schedule_at(0, PRI_DEFAULT, (0, k));
        }
        assert_eq!(s.peek_key(), Some((0, PRI_DEFAULT)), "peeking scans the unsorted lane");
        let mut batch = Vec::new();
        for time in [0, 1000] {
            assert_eq!(s.pop_cycle(&mut batch), Some((time, PRI_DEFAULT)));
            assert!(batch.iter().copied().eq((0..n).map(|k| (time, k))));
        }
        let c = s.counters;
        assert_eq!((c.lane_sorts, c.groups, c.partial_groups), (1, 2, 1));
        assert_eq!(c.max_pending, 2 * n as u64);
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

    #[test]
    fn interleaved_same_bucket_inserts_stay_ordered() {
        // Insert into the page currently being drained, with an earlier
        // priority than events still in it: the other lanes' heads must
        // still be compared.
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
