//! Property tests on the simulator's core data structures: the DE
//! scheduler's ordering contract, the cache tag model against a naive
//! reference, and the sparse memory against a flat reference.

use std::collections::BTreeMap;
use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::{FromJson, Json, ToJson};
use xmt_isa::{DATA_BASE, HEAP_PTR_ADDR, STACK_TOP};
use xmtsim::cycle::cachesim::CacheTags;
use xmtsim::engine::baseline::HeapScheduler;
use xmtsim::engine::{Priority, Scheduler, Time, BUCKET_WIDTH_PS, N_BUCKETS, N_PRI};
use xmtsim::machine::Memory;

/// The scheduler pops events in (time, priority, FIFO) order, no
/// matter the insertion order.
#[test]
fn scheduler_total_order() {
    run("scheduler_total_order", Config::default(), |g: &mut Gen| {
        let events = g.vec_of(1, 200, |g| (g.int_in(0, 500) as u64, g.usize_in(0, 4) as u8));
        let mut s: Scheduler<usize> = Scheduler::new();
        for (k, (t, p)) in events.iter().enumerate() {
            s.schedule_at(*t, *p as Priority, k);
        }
        let mut popped: Vec<(u64, Priority, usize)> = Vec::new();
        while let Some((t, k)) = s.pop() {
            popped.push((t, events[k].1 as Priority, k));
        }
        assert_eq!(popped.len(), events.len());
        // Sorted by (time, priority); FIFO among exact ties.
        for w in popped.windows(2) {
            let (t1, p1, k1) = w[0];
            let (t2, p2, k2) = w[1];
            assert!(
                (t1, p1) < (t2, p2) || ((t1, p1) == (t2, p2) && k1 < k2),
                "out of order: {:?} before {:?}",
                w[0],
                w[1]
            );
        }
    });
}

/// Draw a schedule delay that exercises every calendar-queue regime:
/// same-timestamp bursts (delta 0), near-horizon traffic, bucket-boundary
/// crossings, and far-future events beyond the whole bucket window.
fn gen_delay(g: &mut Gen) -> Time {
    let window = N_BUCKETS as u64 * BUCKET_WIDTH_PS;
    match g.usize_in(0, 10) {
        0..=2 => 0,                                            // same-time burst
        3..=5 => g.int_in(1, 2 * BUCKET_WIDTH_PS as i64) as u64, // current/next bucket
        6..=8 => g.int_in(1, window as i64) as u64,            // anywhere in the window
        _ => window + g.int_in(0, 8 * window as i64) as u64,   // overflow heap
    }
}

/// Differential test: the calendar-queue [`Scheduler`] pops the exact
/// `(time, priority, seq)` sequence the reference [`HeapScheduler`] does,
/// on random schedule/pop interleavings. Both assign sequence numbers in
/// schedule order, so identical payload sequences imply identical keys.
#[test]
fn calendar_queue_matches_heap_reference() {
    run("calendar_queue_matches_heap_reference", Config::default(), |g: &mut Gen| {
        let mut cal: Scheduler<usize> = Scheduler::new();
        let mut heap: HeapScheduler<usize> = HeapScheduler::new();
        let mut next_id = 0usize;
        let steps = g.len_in(1, 400);
        for _ in 0..steps {
            if g.bool_p(0.6) {
                // Bursts: several events, often sharing a timestamp.
                let n = g.usize_in(1, 6);
                let delay = gen_delay(g);
                for _ in 0..n {
                    let d = if g.bool_p(0.5) { delay } else { gen_delay(g) };
                    let pri = g.usize_in(0, 4) as Priority;
                    cal.schedule_at(cal.now() + d, pri, next_id);
                    heap.schedule_at(heap.now() + d, pri, next_id);
                    next_id += 1;
                }
            } else {
                assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged");
                assert_eq!(cal.pop(), heap.pop(), "pop diverged");
                assert_eq!(cal.now(), heap.now());
                assert_eq!(cal.pending(), heap.pending());
            }
        }
        // Drain both completely; the tails must agree element-for-element.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.processed(), heap.processed());
    });
}

/// `pop_cycle` batches are exactly the maximal same-`(time, priority)`
/// runs that repeated single pops of the reference heap produce.
#[test]
fn pop_cycle_matches_heap_groups() {
    run("pop_cycle_matches_heap_groups", Config::default(), |g: &mut Gen| {
        let mut cal: Scheduler<usize> = Scheduler::new();
        let mut heap: HeapScheduler<usize> = HeapScheduler::new();
        let events = g.vec_of(1, 300, |g| (gen_delay(g), g.usize_in(0, 4) as Priority));
        for (k, &(t, p)) in events.iter().enumerate() {
            cal.schedule_at(t, p, k);
            heap.schedule_at(t, p, k);
        }
        let mut batch = Vec::new();
        let mut last_group = None;
        while let Some((time, pri)) = cal.pop_cycle(&mut batch) {
            // Nothing is scheduled while draining, so each batch must be a
            // *maximal* group: two consecutive batches never share a key.
            assert_ne!(Some((time, pri)), last_group, "non-maximal batch split a group");
            last_group = Some((time, pri));
            for &k in &batch {
                let (ht, hk) = heap.pop().expect("heap ran dry before the calendar queue");
                assert_eq!((time, events[k].1, k), (ht, pri, hk), "group member diverged");
            }
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(cal.processed(), heap.processed());
    });
}

/// The lanes against the heap on the traffic the cycle model sends:
/// clock periods that put one, two or three timestamps in a 1024 ps page
/// (with and without jitter), bursts of three priorities pushed out of
/// key order, externally assigned sequence numbers, and the three drains
/// mixed — `pop`, `pop_cycle` with the unhandled half of a batch put
/// back, and `pop_group_seq` (matching and not).
#[test]
fn lanes_match_heap_on_model_traffic() {
    let (mut cases, mut sorts, mut partial) = (0u32, 0u64, 0u64);
    run("lanes_match_heap_on_model_traffic", Config::default(), |g: &mut Gen| {
        let mut cal: Scheduler<usize> = Scheduler::new();
        let mut heap: HeapScheduler<usize> = HeapScheduler::new();
        let period = *g.choose(&[500u64, 1000, 1024, 1333]);
        let jitter = if g.bool_p(0.3) { g.int_in(1, 200) as u64 } else { 0 };
        let external = g.bool_p(0.5);
        let (mut next_id, mut next_seq, mut handled) = (0usize, 0u64, 0u64);
        let mut pri_of: Vec<Priority> = Vec::new();
        let mut batch = Vec::new();
        let mut slice: Vec<(u64, usize)> = Vec::new();
        for _ in 0..g.len_in(1, 300) {
            match g.usize_in(0, 8) {
                0..=3 => {
                    // One "request": a few events, later keys first.
                    for ahead in [15, 3, 14, 300].into_iter().take(g.usize_in(1, 5)) {
                        let cycles = if g.bool_p(0.8) { ahead } else { g.int_in(0, 40) as u64 };
                        let t = cal.now() + cycles * period + g.int_in(0, jitter as i64 + 1) as u64;
                        let pri = g.usize_in(0, N_PRI) as Priority;
                        pri_of.push(pri);
                        if external {
                            next_seq += g.int_in(1, 5) as u64;
                            cal.schedule_at_seq(t, pri, next_seq, next_id);
                        } else {
                            cal.schedule_at(t, pri, next_id);
                        }
                        heap.schedule_at(t, pri, next_id);
                        next_id += 1;
                    }
                }
                4 => {
                    let popped = cal.pop();
                    assert_eq!(popped, heap.pop(), "pop diverged");
                    handled += u64::from(popped.is_some());
                }
                5 | 6 => {
                    let Some((time, pri)) = cal.pop_cycle(&mut batch) else {
                        assert_eq!(heap.pop(), None);
                        continue;
                    };
                    for &id in &batch {
                        assert_eq!(heap.pop(), Some((time, id)), "group member diverged");
                        assert_eq!(pri_of[id], pri);
                    }
                    // Handle the first half; the rest goes back, in order.
                    let keep = if g.bool_p(0.5) { batch.len() } else { batch.len() / 2 };
                    for &id in &batch[keep..] {
                        if external {
                            next_seq += 1;
                            cal.requeue_seq(time, pri, next_seq, id);
                        } else {
                            cal.requeue(time, pri, id);
                        }
                        heap.schedule_at(time, pri, id);
                    }
                    handled += keep as u64;
                }
                _ => {
                    let Some((time, pri)) = cal.peek_key() else { continue };
                    // An earlier priority matches nothing and only moves `now`.
                    if pri > 0 && g.bool_p(0.3) {
                        cal.pop_group_seq(time, pri - 1, &mut slice);
                        assert!(slice.is_empty());
                        assert_eq!(cal.now(), time);
                    }
                    cal.pop_group_seq(time, pri, &mut slice);
                    assert!(slice.windows(2).all(|w| w[0].0 < w[1].0), "seqs ascend");
                    for (_, id) in slice.drain(..) {
                        assert_eq!(heap.pop(), Some((time, id)), "slice member diverged");
                        handled += 1;
                    }
                    assert_ne!(cal.peek_key(), Some((time, pri)), "the slice was the whole group");
                }
            }
            assert_eq!(cal.pending(), heap.pending());
            assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged");
        }
        // The snapshot is the pop order; then drain both to the end.
        let snapshot: Vec<usize> = cal.pending_snapshot().into_iter().map(|(_, _, id)| id).collect();
        let mut drained = Vec::new();
        while let Some((time, id)) = cal.pop() {
            assert_eq!(heap.pop(), Some((time, id)), "drain diverged");
            drained.push(id);
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(snapshot, drained);
        // Requeued events were un-counted, everything else counted once.
        assert_eq!(cal.processed(), handled + drained.len() as u64);
        cases += 1;
        sorts += cal.counters.lane_sorts;
        partial += cal.counters.partial_groups;
    });
    // The fallbacks were on the path, and `scripts/verify.sh` wants the count.
    assert!(sorts > 0 && partial > 0, "{sorts} lane sorts, {partial} partial groups");
    eprintln!(
        "lanes_match_heap_on_model_traffic: ran {cases} cases ({sorts} lane sorts, {partial} partial groups)"
    );
}

/// Queue memory follows the pending events: after 300 cycles of
/// 1 024-event groups on three priorities the chunks held are the peak
/// pending count plus a part-filled chunk per lane in use — not 256 pages
/// times a group, which is what per-bucket capacity retained.
#[test]
fn scheduler_memory_follows_pending_events() {
    use xmtsim::engine::{PRI_DEFAULT, PRI_NEGOTIATE, PRI_TRANSFER};
    let mut s: Scheduler<[u64; 6]> = Scheduler::new();
    for cycle in 0..15 {
        for i in 0..1024 {
            s.schedule_at(cycle * 1000, PRI_DEFAULT, [i; 6]);
        }
    }
    let mut batch = Vec::new();
    while let Some((t, pri)) = s.pop_cycle(&mut batch) {
        if pri == PRI_DEFAULT && t < 300 * 1000 {
            for &ev in &batch {
                s.schedule_at(t + 14_000, PRI_NEGOTIATE, ev);
                s.schedule_at(t + 3_000, PRI_TRANSFER, ev);
                s.schedule_at(t + 15_000, PRI_DEFAULT, ev);
            }
        }
    }
    let c = s.counters;
    assert_eq!(s.pending(), 0);
    assert_eq!(c.groups, 15 + 3 * 300);
    assert!(c.max_pending >= 32 * 1024, "the load was not what this test means: {c:?}");
    let slack = 64 * 16; // a part-filled chunk on each of 64 lanes
    assert!(
        s.retained_entries() as u64 <= c.max_pending + slack,
        "{} entries of chunk held for a peak of {} pending",
        s.retained_entries(),
        c.max_pending
    );
}

/// A new scheduler owns no chunk: 824 simulators are built per pass of
/// the classroom loop, each with 1 024 lanes. Chunks come with events.
#[test]
fn new_scheduler_allocates_no_chunks() {
    let mut s: Scheduler<[u64; 6]> = Scheduler::new();
    assert_eq!((s.retained_entries(), s.counters.chunks_allocated), (0, 0));
    s.schedule_at(5, 0, [0; 6]);
    let chunk = s.retained_entries();
    assert!(chunk > 0 && s.counters.chunks_allocated == 1);
    for page in 1..100 {
        s.schedule_at(page * BUCKET_WIDTH_PS, (page % N_PRI as u64) as Priority, [page; 6]);
    }
    assert_eq!(s.retained_entries(), 100 * chunk, "one chunk per lane in use");
    s.clear();
    assert_eq!(s.retained_entries(), 0, "clear() gives the chunks back");
}

/// The LRU set-associative tags agree with a brute-force reference
/// model on hit/miss for every access sequence.
#[test]
fn cache_tags_match_reference() {
    run("cache_tags_match_reference", Config::default(), |g: &mut Gen| {
        let addrs = g.vec_of(1, 300, |g| g.int_in(0, 4096) as u32);
        const LINE: u32 = 32;
        let mut sut = CacheTags::new(512, 2, LINE); // 16 lines, 2-way, 8 sets
        let sets = sut.n_sets() as u32;

        // Reference: per set, a most-recent-first list of tags.
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); sets as usize];
        for &a in &addrs {
            let line = a / LINE;
            let set = (line % sets) as usize;
            let hit_ref = reference[set].contains(&line);
            if hit_ref {
                reference[set].retain(|&t| t != line);
            } else if reference[set].len() == 2 {
                reference[set].pop();
            }
            reference[set].insert(0, line);

            let hit_sut = sut.access(a);
            assert_eq!(hit_sut, hit_ref, "divergence at address {a}");
        }
    });
}

/// Sparse paged memory behaves exactly like a flat array, across
/// mixed byte/word reads and writes (including page boundaries).
#[test]
fn memory_matches_flat_reference() {
    run("memory_matches_flat_reference", Config::default(), |g: &mut Gen| {
        let ops = g.vec_of(1, 300, |g| {
            (g.int_in(0, 20_000) as u32, g.u32(), g.usize_in(0, 4) as u8)
        });
        let mut sut = Memory::new();
        let mut flat = vec![0u8; 20_004];
        for &(addr, val, kind) in &ops {
            match kind {
                0 => {
                    let a = addr & !3;
                    sut.write_u32(a, val);
                    flat[a as usize..a as usize + 4].copy_from_slice(&val.to_le_bytes());
                }
                1 => {
                    let a = addr & !3;
                    let want = u32::from_le_bytes(
                        flat[a as usize..a as usize + 4].try_into().unwrap(),
                    );
                    assert_eq!(sut.read_u32(a), want);
                }
                2 => {
                    sut.write_u8(addr, val as u8);
                    flat[addr as usize] = val as u8;
                }
                _ => {
                    assert_eq!(sut.read_u8(addr), flat[addr as usize]);
                }
            }
        }
    });
}

/// The representation `Memory` had before it became a page table — a
/// `BTreeMap` from page number to 4096 bytes, probed once per access,
/// words moved one at a time — kept here as the oracle for the new one.
#[derive(Clone, Default, PartialEq)]
struct PageMap {
    pages: BTreeMap<u32, Vec<u8>>,
}

impl PageMap {
    fn read_u8(&self, addr: u32) -> u8 {
        self.pages.get(&(addr / 4096)).map_or(0, |p| p[(addr % 4096) as usize])
    }

    fn write_u8(&mut self, addr: u32, val: u8) {
        self.pages.entry(addr / 4096).or_insert_with(|| vec![0; 4096])[(addr % 4096) as usize] = val;
    }

    fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(std::array::from_fn(|b| self.read_u8(addr + b as u32)))
    }

    fn write_u32(&mut self, addr: u32, val: u32) {
        for (b, byte) in val.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr + b as u32, byte);
        }
    }

    fn read_words(&self, addr: u32, count: usize) -> Vec<u32> {
        (0..count as u32).map(|k| self.read_u32(addr + 4 * k)).collect()
    }

    fn write_words(&mut self, addr: u32, words: &[u32]) {
        for (k, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * k as u32, *w);
        }
    }

    /// The checkpoint form: `{"pages":{"<page>":[bytes…]}}`, ascending.
    fn to_json_string(&self) -> String {
        Json::Obj(vec![("pages".to_string(), self.pages.to_json())]).encode()
    }
}

/// The page-table `Memory` is indistinguishable from the page map it
/// replaced: every read, the set of touched pages, equality, and the
/// JSON bytes — on interleaved byte / word / bulk accesses whose ranges
/// cross a page, cross a page-table leaf, and sit at the addresses the
/// toolchain itself uses.
#[test]
fn memory_matches_the_page_map_it_replaced() {
    // Ranges start a little before each of these.
    const EDGES: [u32; 8] = [
        0x40,               // bottom of the address space
        0x1000,             // a page boundary inside leaf 0
        HEAP_PTR_ADDR + 8,  // the heap-break word, just under…
        DATA_BASE + 0x2000, // …the data segment
        0x1040_0000,        // 0x103f_f000 → 0x1040_0000: next leaf
        STACK_TOP,          // the stack grows down from here
        0x8000_0000,        // a directory entry no program touches
        0xffff_fff0,        // the last words there are
    ];
    run("memory_matches_the_page_map_it_replaced", Config::default(), |g: &mut Gen| {
        let mut sut = Memory::new();
        let mut oracle = PageMap::default();
        for _ in 0..g.len_in(1, 80) {
            let edge = *g.choose(&EDGES);
            let addr = edge - g.int_in(0, 17) as u32 * 4;
            // Usually a few words around the edge; sometimes enough to
            // cover whole pages (which takes the build-in-place path).
            let room = ((u32::MAX - addr) / 4 + 1) as usize;
            let count = if g.bool_p(0.15) { g.usize_in(1024, 2200) } else { g.usize_in(0, 40) }.min(room);
            match g.usize_in(0, 6) {
                0 => {
                    let a = addr + g.int_in(0, 8) as u32;
                    assert_eq!(sut.read_u8(a), oracle.read_u8(a), "read_u8 0x{a:08x}");
                }
                1 => {
                    let (a, v) = (addr + g.int_in(0, 8) as u32, g.u32() as u8);
                    sut.write_u8(a, v);
                    oracle.write_u8(a, v);
                }
                2 => assert_eq!(sut.read_u32(addr), oracle.read_u32(addr), "read_u32 0x{addr:08x}"),
                3 => {
                    // Zero is a value like any other: it touches the page.
                    let v = if g.bool_p(0.2) { 0 } else { g.u32() };
                    sut.write_u32(addr, v);
                    oracle.write_u32(addr, v);
                }
                4 => assert_eq!(
                    sut.read_words(addr, count),
                    oracle.read_words(addr, count),
                    "read_words 0x{addr:08x} x {count}"
                ),
                _ => {
                    let words: Vec<u32> = (0..count).map(|_| g.u32()).collect();
                    sut.write_words(addr, &words);
                    oracle.write_words(addr, &words);
                }
            }
            // Reads allocate nothing, writes exactly the pages they hit.
            assert_eq!(sut.pages_touched(), oracle.pages.len());
        }
        let json = sut.to_json_string();
        assert_eq!(json, oracle.to_json_string(), "checkpoint bytes");
        let back = Memory::from_json_str(&json).unwrap();
        assert!(back == sut, "JSON round trip");
        // Equality is over touched pages, not over what reads return.
        let mut touched = sut.clone();
        assert!(touched == sut);
        touched.write_u32(0x2000_0000, 0);
        assert!(touched != sut, "an all-zero touched page still differs from an untouched one");
    });
}

/// The per-spawn records expose the work/depth structure of a run.
#[test]
fn spawn_records_track_sections() {
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Reg, Target};
    use xmtsim::{CycleSim, XmtConfig};

    // Two spawns of different widths separated by serial code.
    let mut p = AsmProgram::new();
    let spawn_block = |p: &mut AsmProgram, lo: i32, hi: i32, tag: &str| {
        p.push(Instr::Li { rt: Reg::A0, imm: lo });
        p.push(Instr::Li { rt: Reg::A1, imm: hi });
        p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
        p.label(format!("vt{tag}"));
        p.push(Instr::Li { rt: Reg::T0, imm: 1 });
        p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Addi { rt: Reg::T1, rs: Reg::T0, imm: 1 });
        p.push(Instr::J { target: Target::label(format!("vt{tag}")) });
        p.push(Instr::Join);
    };
    spawn_block(&mut p, 0, 7, "a");
    p.push(Instr::Li { rt: Reg::T5, imm: 42 });
    spawn_block(&mut p, 0, 63, "b");
    p.push(Instr::Halt);

    let exe = p.link(MemoryMap::new()).unwrap();
    let mut sim = CycleSim::new(exe, XmtConfig::tiny());
    sim.run().unwrap();
    let recs = &sim.stats.spawn_records;
    assert_eq!(recs.len(), 2);
    assert_eq!(recs[0].threads, 8);
    assert_eq!(recs[1].threads, 64);
    assert!(recs[0].end_ps > recs[0].start_ps);
    assert!(recs[1].start_ps >= recs[0].end_ps, "sections do not overlap");
    assert!(
        recs[1].duration_ps() > recs[0].duration_ps(),
        "8x the threads on 4 TCUs takes longer"
    );
}

/// Degenerate and stress spawn shapes all behave.
#[test]
fn spawn_edge_shapes() {
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Reg, Target};
    use xmtsim::{CycleSim, XmtConfig};

    // Single-thread spawn, then immediately another spawn (no serial
    // code in between), then a wide spawn with far more virtual threads
    // than TCUs.
    let mut mm = MemoryMap::new();
    let a = mm.push("A", vec![0; 3]);
    let mut p = AsmProgram::new();
    let section = |p: &mut AsmProgram, hi: i32, slot: i32, tag: &str| {
        p.push(Instr::Li { rt: Reg::A0, imm: 0 });
        p.push(Instr::Li { rt: Reg::A1, imm: hi });
        p.push(Instr::Li { rt: Reg::S0, imm: a as i32 + 4 * slot });
        p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
        p.label(format!("vt{tag}"));
        p.push(Instr::Li { rt: Reg::T0, imm: 1 });
        p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Li { rt: Reg::T1, imm: 1 });
        p.push(Instr::Psm { rt: Reg::T1, base: Reg::S0, off: 0 });
        p.push(Instr::J { target: Target::label(format!("vt{tag}")) });
        p.push(Instr::Join);
    };
    section(&mut p, 0, 0, "a"); // one thread
    section(&mut p, 3, 1, "b"); // back-to-back, exactly n_tcus of tiny
    section(&mut p, 9999, 2, "c"); // 10000 threads on 4 TCUs
    p.push(Instr::Halt);
    let exe = p.link(mm).unwrap();
    let mut sim = CycleSim::new(exe, XmtConfig::tiny());
    sim.run().unwrap();
    assert_eq!(
        sim.machine.read_symbol(sim.executable(), "A", 3).unwrap(),
        vec![1, 4, 10000]
    );
    assert_eq!(sim.stats.spawns, 3);
    assert_eq!(sim.stats.virtual_threads, 1 + 4 + 10000);
}
