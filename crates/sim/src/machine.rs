//! Architectural state of the simulated XMT machine: the shared memory,
//! per-context register files, the global (prefix-sum) registers and the
//! simulation output stream.
//!
//! This is the state owned by the *functional model* of paper Fig. 3 — the
//! cycle-accurate model fetches instructions, delays them, and applies
//! their operational semantics to this state.

use std::fmt;
use std::ops::Range;
use xmt_harness::json::{JsonError, JsonKey};
use xmt_harness::{json_enum, json_struct, FromJson, Json, ToJson};
use xmt_isa::{Executable, FReg, GlobalReg, Reg, HEAP_PTR_ADDR};

/// Size of one memory page (bytes).
const PAGE_SIZE: u32 = 4096;
/// Words per page.
const PAGE_WORDS: usize = (PAGE_SIZE / 4) as usize;
/// Entries per page-table level: a 32-bit address splits 10/10/12 into
/// directory index, leaf index and byte offset within the page.
const FANOUT: usize = 1024;

/// One page, words stored natively; byte `b` of a word is bits
/// `8b..8b+8` (the simulated machine is little-endian).
type Page = [u32; PAGE_WORDS];
type Leaf = [Option<Box<Page>>; FANOUT];

/// Two-level page table over the 32-bit address space. A lookup is two
/// indexed loads (directory, then leaf) with no key comparison.
///
/// A leaf exists only while it holds a page and pages are never removed,
/// so the derived equality is equality of the resident-page sets and
/// their contents.
#[derive(Debug, Clone, PartialEq)]
struct PageTable {
    dir: Box<[Option<Box<Leaf>>; FANOUT]>,
}

impl Default for PageTable {
    fn default() -> Self {
        PageTable { dir: Box::new(std::array::from_fn(|_| None)) }
    }
}

impl PageTable {
    /// The resident page holding `addr`.
    #[inline]
    fn get(&self, addr: u32) -> Option<&Page> {
        self.dir[(addr >> 22) as usize].as_ref()?[(addr >> 12) as usize % FANOUT].as_deref()
    }

    /// The table slot of the page holding `addr`; filling it makes the
    /// page resident.
    #[inline]
    fn slot(&mut self, addr: u32) -> &mut Option<Box<Page>> {
        let leaf = self.dir[(addr >> 22) as usize]
            .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        &mut leaf[(addr >> 12) as usize % FANOUT]
    }

    /// Resident pages with their page numbers, ascending.
    fn iter(&self) -> impl Iterator<Item = (u32, &Page)> {
        self.dir.iter().enumerate().flat_map(|(d, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter()
                    .enumerate()
                    .filter_map(move |(l, page)| Some(((d * FANOUT + l) as u32, page.as_deref()?)))
            })
        })
    }
}

/// The checkpoint form, independent of the in-memory layout: an object
/// keyed by decimal page number, ascending, each page an array of its
/// `PAGE_SIZE` bytes.
impl ToJson for PageTable {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(no, page)| {
                    let bytes = page.iter().flat_map(|w| w.to_le_bytes());
                    (no.to_key(), Json::Arr(bytes.map(|b| b.to_json()).collect()))
                })
                .collect(),
        )
    }
}

impl FromJson for PageTable {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut table = PageTable::default();
        for (key, bytes) in v.as_obj()? {
            let no = u32::from_key(key)?;
            let bytes = Vec::<u8>::from_json(bytes)?;
            if no as usize >= FANOUT * FANOUT || bytes.len() != PAGE_SIZE as usize {
                return Err(JsonError::new(format!(
                    "page {no} ({} bytes) is not a {PAGE_SIZE}-byte page of a 32-bit address space",
                    bytes.len()
                )));
            }
            let words: Box<[u32]> = bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            // A repeated key overwrites, as decoding into a map would.
            *table.slot(no * PAGE_SIZE) = Some(words.try_into().expect("PAGE_SIZE / 4 words"));
        }
        Ok(table)
    }
}

fn zeroed_page() -> Box<Page> {
    // Through `Vec`, so the zeroes come from the allocator rather than
    // from an array built on the stack and copied.
    vec![0u32; PAGE_WORDS].into_boxed_slice().try_into().expect("PAGE_WORDS words")
}

/// Cut the word range `[addr, addr + 4·count)` at page boundaries: for
/// each piece, the address of its first word and its index range within
/// the caller's word slice.
///
/// Panics when the range runs past the end of the address space; ranges
/// that come from outside the program are rejected before they get here
/// (`MemoryMap::parse`, `AsmProgram::link`, [`Machine::load`]).
fn page_chunks(addr: u32, count: usize) -> impl Iterator<Item = (u32, Range<usize>)> {
    debug_assert_eq!(addr % 4, 0);
    let room = ((1u64 << 32) - addr as u64) / 4;
    assert!(
        count as u64 <= room,
        "{count} words at 0x{addr:08x} run past the end of the address space"
    );
    let mut done = 0;
    std::iter::from_fn(move || {
        if done == count {
            return None;
        }
        // In range because the whole range is and `done < count`.
        let at = addr + 4 * done as u32;
        let n = (PAGE_WORDS - word_of(at)).min(count - done);
        done += n;
        Some((at, done - n..done))
    })
}

/// Index of `addr`'s word within its page.
#[inline]
fn word_of(addr: u32) -> usize {
    (addr % PAGE_SIZE / 4) as usize
}

/// Sparse byte-addressable memory in 4 KiB pages: reads of untouched
/// memory return zero and allocate nothing, the first write to a page
/// makes it resident.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Memory {
    pages: PageTable,
}

json_struct!(Memory { pages });

impl Memory {
    /// Empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        self.pages.slot(addr).get_or_insert_with(zeroed_page)
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        (self.read_u32(addr & !3) >> (8 * (addr % 4))) as u8
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u32, val: u8) {
        let shift = 8 * (addr % 4);
        let word = &mut self.page_mut(addr)[word_of(addr)];
        *word = *word & !(0xff << shift) | (val as u32) << shift;
    }

    /// Read an aligned 32-bit little-endian word. The caller checks
    /// alignment (the execution layer raises [`Trap::Misaligned`]).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        debug_assert_eq!(addr % 4, 0);
        self.pages.get(addr).map_or(0, |p| p[word_of(addr)])
    }

    /// Write an aligned 32-bit little-endian word.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, val: u32) {
        debug_assert_eq!(addr % 4, 0);
        self.page_mut(addr)[word_of(addr)] = val;
    }

    /// Read `count` consecutive words starting at `addr`.
    pub fn read_words(&self, addr: u32, count: usize) -> Vec<u32> {
        let mut out = vec![0; count];
        for (at, piece) in page_chunks(addr, count) {
            if let Some(page) = self.pages.get(at) {
                let n = piece.len();
                out[piece].copy_from_slice(&page[word_of(at)..][..n]);
            }
        }
        out
    }

    /// Write consecutive words starting at `addr`.
    pub fn write_words(&mut self, addr: u32, words: &[u32]) {
        for (at, piece) in page_chunks(addr, words.len()) {
            let src = &words[piece];
            match self.pages.slot(at) {
                // A whole page that is not resident yet is built straight
                // from the source, not zero-filled and then overwritten.
                slot @ None if src.len() == PAGE_WORDS => {
                    *slot = Some(Box::<[u32]>::from(src).try_into().expect("PAGE_WORDS words"));
                }
                slot => slot.get_or_insert_with(zeroed_page)[word_of(at)..][..src.len()]
                    .copy_from_slice(src),
            }
        }
    }

    /// Number of touched pages (memory footprint indicator).
    pub fn pages_touched(&self) -> usize {
        self.pages.iter().count()
    }
}

/// The integer + floating-point register file of one hardware context
/// (one TCU, or the Master TCU).
#[derive(Debug, Clone, PartialEq)]
pub struct RegFile {
    int: [u32; 32],
    fp: [f32; 16],
}

json_struct!(RegFile { int, fp });

impl Default for RegFile {
    fn default() -> Self {
        RegFile { int: [0; 32], fp: [0.0; 16] }
    }
}

impl RegFile {
    /// Read an integer register (`$zero` always reads 0).
    #[inline]
    pub fn get(&self, r: Reg) -> u32 {
        self.int[r.number() as usize]
    }

    /// Read an integer register as signed.
    #[inline]
    pub fn get_i(&self, r: Reg) -> i32 {
        self.get(r) as i32
    }

    /// Write an integer register (writes to `$zero` are discarded).
    #[inline]
    pub fn set(&mut self, r: Reg, v: u32) {
        if r != Reg::Zero {
            self.int[r.number() as usize] = v;
        }
    }

    /// Write a signed value to an integer register.
    #[inline]
    pub fn set_i(&mut self, r: Reg, v: i32) {
        self.set(r, v as u32);
    }

    /// Read an FP register.
    #[inline]
    pub fn getf(&self, r: FReg) -> f32 {
        self.fp[r.0 as usize]
    }

    /// Write an FP register.
    #[inline]
    pub fn setf(&mut self, r: FReg, v: f32) {
        self.fp[r.0 as usize] = v;
    }
}

/// One hardware execution context: register file plus program counter
/// (an instruction index into the text segment).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadCtx {
    pub regs: RegFile,
    pub pc: u32,
}

json_struct!(ThreadCtx { regs, pc });

/// One item on the simulation output stream (the `print` family — the
/// paper's printf plug-in output).
#[derive(Debug, Clone, PartialEq)]
pub enum OutputItem {
    Int(i32),
    Float(f32),
    Char(char),
}

json_enum!(OutputItem { Int(i32), Float(f32), Char(char) });

/// The collected output of a simulated program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Output {
    pub items: Vec<OutputItem>,
}

json_struct!(Output { items });

impl Output {
    /// Render the output stream as text: ints/floats newline-separated,
    /// chars verbatim.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        for item in &self.items {
            match item {
                OutputItem::Int(v) => {
                    s.push_str(&v.to_string());
                    s.push('\n');
                }
                OutputItem::Float(v) => {
                    s.push_str(&format!("{v:?}"));
                    s.push('\n');
                }
                OutputItem::Char(c) => s.push(*c),
            }
        }
        s
    }

    /// Just the integer items, in order (the common shape in tests).
    pub fn ints(&self) -> Vec<i32> {
        self.items
            .iter()
            .filter_map(|i| match i {
                OutputItem::Int(v) => Some(*v),
                _ => None,
            })
            .collect()
    }
}

/// A runtime error raised by the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Unaligned word access.
    Misaligned { pc: u32, addr: u32 },
    /// Program counter left the text segment.
    PcOutOfRange { pc: u32 },
    /// A TCU fell through into the `join` marker — the compiler must end
    /// every virtual thread with a jump back to the `ps`/`chkid` header.
    FellThroughJoin { pc: u32 },
    /// `spawn` executed while already in parallel mode (nested spawns are
    /// serialized by the compiler, never reach hardware).
    SpawnInParallel { pc: u32 },
    /// `halt` executed by a TCU (serial-only instruction).
    HaltInParallel { pc: u32 },
    /// `chkid` executed outside a parallel section.
    ChkidOutsideSpawn { pc: u32 },
    /// `ps` increment was not 0 or 1 (hardware restriction, paper §II-A).
    PsIncrementInvalid { pc: u32, value: i32 },
    /// `grput` executed by a TCU (global registers are written by the
    /// master only; TCUs coordinate through `ps`).
    GrputInParallel { pc: u32 },
    /// `join` reached by the master outside a spawn (linker should have
    /// rejected this program).
    StrayJoin { pc: u32 },
    /// `spawn` with no `join` in the image's spawn/join table (the linker
    /// and the image reader both reject such a program).
    UnmatchedSpawn { pc: u32 },
}

json_enum!(Trap {
    Misaligned { pc, addr },
    PcOutOfRange { pc },
    FellThroughJoin { pc },
    SpawnInParallel { pc },
    HaltInParallel { pc },
    ChkidOutsideSpawn { pc },
    PsIncrementInvalid { pc, value },
    GrputInParallel { pc },
    StrayJoin { pc },
    UnmatchedSpawn { pc },
});

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Misaligned { pc, addr } => {
                write!(f, "misaligned word access to 0x{addr:08x} at instruction {pc}")
            }
            Trap::PcOutOfRange { pc } => write!(f, "pc {pc} out of text segment"),
            Trap::FellThroughJoin { pc } => {
                write!(f, "virtual thread fell through into `join` at instruction {pc}")
            }
            Trap::SpawnInParallel { pc } => {
                write!(f, "`spawn` inside a parallel section at instruction {pc}")
            }
            Trap::HaltInParallel { pc } => {
                write!(f, "`halt` executed by a TCU at instruction {pc}")
            }
            Trap::ChkidOutsideSpawn { pc } => {
                write!(f, "`chkid` outside a parallel section at instruction {pc}")
            }
            Trap::PsIncrementInvalid { pc, value } => {
                write!(f, "`ps` increment {value} not in {{0,1}} at instruction {pc}")
            }
            Trap::GrputInParallel { pc } => {
                write!(f, "`grput` executed by a TCU at instruction {pc}")
            }
            Trap::StrayJoin { pc } => write!(f, "stray `join` at instruction {pc}"),
            Trap::UnmatchedSpawn { pc } => {
                write!(f, "`spawn` without a matching `join` at instruction {pc}")
            }
        }
    }
}

impl std::error::Error for Trap {}

/// The complete functional-model state shared by all execution contexts.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// The shared memory.
    pub mem: Memory,
    /// The chip-wide global registers of the prefix-sum unit.
    pub gregs: [u32; GlobalReg::COUNT as usize],
    /// Output stream.
    pub output: Output,
    /// Set once `halt` executes.
    pub halted: bool,
}

json_struct!(Machine { mem, gregs, output, halted });

impl Machine {
    /// Build the initial machine state for an executable: load the memory
    /// map into the data segment and initialize the heap-break word used
    /// by serial dynamic allocation.
    ///
    /// Fails on a memory-map entry that runs past the end of the address
    /// space, which `AsmProgram::link` rejects but a hand-assembled
    /// [`Executable`] can still carry.
    pub fn load(exe: &Executable) -> Result<Self, String> {
        let mut mem = Memory::new();
        let mut data_end = 0u32;
        for e in &exe.memmap.entries {
            let end = e
                .end()
                .ok_or_else(|| xmt_isa::LinkError::DataOverrun(e.name.clone()).to_string())?;
            mem.write_words(e.addr, &e.words);
            data_end = data_end.max(end);
        }
        // Heap starts past the static data, rounded up to a page (the top
        // page when the data reaches it).
        let heap_base = data_end.max(xmt_isa::DATA_BASE).saturating_add(PAGE_SIZE) & !(PAGE_SIZE - 1);
        mem.write_u32(HEAP_PTR_ADDR, heap_base);
        Ok(Machine {
            mem,
            gregs: [0; GlobalReg::COUNT as usize],
            output: Output::default(),
            halted: false,
        })
    }

    /// Atomic prefix-sum on a global register: returns the old value.
    pub fn ps(&mut self, gr: GlobalReg, inc: u32) -> u32 {
        let slot = &mut self.gregs[gr.0 as usize];
        let old = *slot;
        *slot = slot.wrapping_add(inc);
        old
    }

    /// Read the value of a data-segment symbol as words.
    pub fn read_symbol(&self, exe: &Executable, name: &str, count: usize) -> Option<Vec<u32>> {
        let addr = exe.data_symbol(name)?;
        Some(self.mem.read_words(addr, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::{AsmProgram, Instr, MemoryMap};

    #[test]
    fn memory_default_zero_and_rw() {
        let mut m = Memory::new();
        assert_eq!(m.read_u32(0x1000_0000), 0);
        m.write_u32(0x1000_0000, 0xdead_beef);
        assert_eq!(m.read_u32(0x1000_0000), 0xdead_beef);
        assert_eq!(m.read_u8(0x1000_0000), 0xef); // little endian
        m.write_u8(0x1000_0003, 0x01);
        assert_eq!(m.read_u32(0x1000_0000), 0x01ad_beef);
    }

    #[test]
    fn memory_words_roundtrip_across_pages() {
        let mut m = Memory::new();
        let base = PAGE_SIZE - 8; // straddles a page boundary
        let vals = vec![1, 2, 3, 4, 5];
        m.write_words(base, &vals);
        assert_eq!(m.read_words(base, 5), vals);
        assert_eq!(m.pages_touched(), 2);
    }

    #[test]
    fn memory_json_rejects_what_is_not_a_page() {
        // A short page used to decode and then index out of bounds.
        assert!(Memory::from_json_str(r#"{"pages":{"5":[1,2,3]}}"#).is_err());
        let page = vec!["0"; PAGE_SIZE as usize].join(",");
        assert!(Memory::from_json_str(&format!(r#"{{"pages":{{"1048575":[{page}]}}}}"#)).is_ok());
        assert!(Memory::from_json_str(&format!(r#"{{"pages":{{"1048576":[{page}]}}}}"#)).is_err());
    }

    #[test]
    fn zero_register_is_hardwired() {
        let mut r = RegFile::default();
        r.set(Reg::Zero, 42);
        assert_eq!(r.get(Reg::Zero), 0);
        r.set_i(Reg::T0, -7);
        assert_eq!(r.get_i(Reg::T0), -7);
    }

    #[test]
    fn ps_returns_old_value() {
        let mut m = Machine {
            mem: Memory::new(),
            gregs: [0; 8],
            output: Output::default(),
            halted: false,
        };
        assert_eq!(m.ps(GlobalReg(1), 1), 0);
        assert_eq!(m.ps(GlobalReg(1), 1), 1);
        assert_eq!(m.ps(GlobalReg(1), 0), 2); // read without increment
        assert_eq!(m.gregs[1], 2);
    }

    #[test]
    fn load_initializes_data_and_heap() {
        let mut p = AsmProgram::new();
        p.push(Instr::Halt);
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![7, 8, 9]);
        let exe = p.link(mm).unwrap();
        let m = Machine::load(&exe).unwrap();
        assert_eq!(m.mem.read_words(a, 3), vec![7, 8, 9]);
        let heap = m.mem.read_u32(HEAP_PTR_ADDR);
        assert!(heap > a + 12);
        assert_eq!(heap % PAGE_SIZE, 0);
        assert_eq!(m.read_symbol(&exe, "A", 3), Some(vec![7, 8, 9]));
    }

    #[test]
    fn load_reports_data_past_the_address_space() {
        let mut p = AsmProgram::new();
        p.push(Instr::Halt);
        let mut exe = p.link(MemoryMap::new()).unwrap();
        // Past the linker: a hand-edited image.
        exe.memmap.entries.push(xmt_isa::MemEntry {
            name: "x".into(),
            addr: 0xffff_fffc,
            words: vec![7, 9],
        });
        let err = Machine::load(&exe).unwrap_err();
        assert!(err.contains("`x` runs past the end of the address space"), "{err}");
        // The last representable entry loads, heap break at the top page.
        exe.memmap.entries[0].addr = 0xffff_fff4;
        let m = Machine::load(&exe).unwrap();
        assert_eq!(m.mem.read_words(0xffff_fff4, 2), vec![7, 9]);
        assert_eq!(m.mem.read_u32(HEAP_PTR_ADDR), 0xffff_f000);
    }

    #[test]
    fn output_rendering() {
        let out = Output {
            items: vec![
                OutputItem::Int(-3),
                OutputItem::Char('x'),
                OutputItem::Float(1.5),
            ],
        };
        assert_eq!(out.to_text(), "-3\nx1.5\n");
        assert_eq!(out.ints(), vec![-3]);
    }
}
