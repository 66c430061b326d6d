//! Memory map files.
//!
//! The simulated XMT machine runs no operating system, so (as §III-A of the
//! paper explains) *global variables are the only way to provide input to
//! XMTC programs*. A memory map records, for every global, its name, its
//! address in the data segment and its initial 32-bit words. The compiler
//! emits the layout; workload drivers fill in the values.
//!
//! The textual format is line-oriented and human-inspectable:
//!
//! ```text
//! # xmt memory map
//! N    0x10000000 1 64
//! A    0x10000004 64 5 0 12 ...
//! ```
//!
//! i.e. `name address word-count words...`.

use crate::DATA_BASE;
use std::fmt;
use xmt_harness::json_struct;

/// One global variable in the data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemEntry {
    /// Source-level name of the global.
    pub name: String,
    /// Byte address of the first word.
    pub addr: u32,
    /// Initial values, one per 32-bit word.
    pub words: Vec<u32>,
}

json_struct!(MemEntry { name, addr, words });

impl MemEntry {
    /// Size of the entry in bytes.
    pub fn byte_len(&self) -> u32 {
        (self.words.len() as u32) * 4
    }

    /// The first address past the entry, or `None` when the entry runs
    /// past the end of the 32-bit address space.
    pub fn end(&self) -> Option<u32> {
        let bytes = u32::try_from(self.words.len()).ok()?.checked_mul(4)?;
        self.addr.checked_add(bytes)
    }
}

/// A complete memory map: the initial image of the static data segment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryMap {
    pub entries: Vec<MemEntry>,
}

json_struct!(MemoryMap { entries });

/// Errors from parsing a textual memory map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemMapParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for MemMapParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory map line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MemMapParseError {}

impl MemoryMap {
    /// An empty memory map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a global at the next free (word-aligned) address and return
    /// its address.
    pub fn push(&mut self, name: impl Into<String>, words: Vec<u32>) -> u32 {
        let addr = self.next_free();
        self.entries.push(MemEntry { name: name.into(), addr, words });
        addr
    }

    /// The first address past all current entries (data base when empty).
    /// Entries that run past the end of the address space — which
    /// [`Self::parse`] and `AsmProgram::link` reject — do not count.
    pub fn next_free(&self) -> u32 {
        self.entries.iter().filter_map(MemEntry::end).max().unwrap_or(DATA_BASE)
    }

    /// Find a global by name.
    pub fn lookup(&self, name: &str) -> Option<&MemEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Replace the initial values of an existing global. Returns `false`
    /// if no such global exists or the word count differs.
    pub fn set_values(&mut self, name: &str, words: &[u32]) -> bool {
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(e) if e.words.len() == words.len() => {
                e.words.copy_from_slice(words);
                true
            }
            _ => false,
        }
    }

    /// Total initialized bytes.
    pub fn total_bytes(&self) -> u32 {
        self.entries.iter().map(|e| e.byte_len()).sum()
    }

    /// Serialize to the textual memory-map format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# xmt memory map\n");
        for e in &self.entries {
            out.push_str(&format!("{} 0x{:08x} {}", e.name, e.addr, e.words.len()));
            for w in &e.words {
                out.push_str(&format!(" {w}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the textual memory-map format.
    pub fn parse(text: &str) -> Result<MemoryMap, MemMapParseError> {
        let mut map = MemoryMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |m: &str| MemMapParseError { line: lineno + 1, message: m.to_string() };
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or_else(|| err("missing name"))?.to_string();
            let addr_s = parts.next().ok_or_else(|| err("missing address"))?;
            let addr = parse_u32(addr_s).ok_or_else(|| err("bad address"))?;
            if addr % 4 != 0 {
                return Err(err("address not word aligned"));
            }
            let count_s = parts.next().ok_or_else(|| err("missing word count"))?;
            let count = parse_u32(count_s).ok_or_else(|| err("bad word count"))? as usize;
            // The count is the file's own claim; a line of `len` bytes
            // holds fewer than `len / 2 + 1` tokens, so reserve no more.
            let mut words = Vec::with_capacity(count.min(line.len() / 2 + 1));
            for _ in 0..count {
                let w = parts.next().ok_or_else(|| err("too few words"))?;
                words.push(parse_u32(w).ok_or_else(|| err("bad word value"))?);
            }
            if parts.next().is_some() {
                return Err(err("trailing tokens"));
            }
            let entry = MemEntry { name, addr, words };
            if entry.end().is_none() {
                return Err(err("entry runs past the end of the address space"));
            }
            map.entries.push(entry);
        }
        Ok(map)
    }
}

/// Parse a decimal, hex (`0x`), or negative decimal 32-bit value.
fn parse_u32(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else if let Some(neg) = s.strip_prefix('-') {
        neg.parse::<i64>().ok().map(|v| (-v) as u32)
    } else {
        s.parse::<u32>().ok().or_else(|| s.parse::<i64>().ok().map(|v| v as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_packs_consecutively() {
        let mut m = MemoryMap::new();
        let a = m.push("N", vec![64]);
        let b = m.push("A", vec![0; 4]);
        assert_eq!(a, DATA_BASE);
        assert_eq!(b, DATA_BASE + 4);
        assert_eq!(m.next_free(), DATA_BASE + 20);
        assert_eq!(m.total_bytes(), 20);
    }

    #[test]
    fn text_roundtrip() {
        let mut m = MemoryMap::new();
        m.push("N", vec![64]);
        m.push("A", vec![1, 2, 3, 0xdead_beef]);
        let text = m.to_text();
        let back = MemoryMap::parse(&text).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn parse_accepts_hex_and_negative() {
        let m = MemoryMap::parse("x 0x10000000 2 0xff -1\n").unwrap();
        assert_eq!(m.entries[0].words, vec![255, u32::MAX]);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(MemoryMap::parse("x 0x10000001 1 0").is_err()); // unaligned
        assert!(MemoryMap::parse("x 0x10000000 2 0").is_err()); // too few words
        assert!(MemoryMap::parse("x 0x10000000 1 0 9").is_err()); // trailing
        assert!(MemoryMap::parse("x zzz 1 0").is_err()); // bad addr
    }

    #[test]
    fn parse_bounds_the_reservation_by_the_line() {
        // The count is hostile; the answer is a diagnostic, not a 16 GB
        // reservation that aborts the process.
        let e = MemoryMap::parse("x 0x10000000 4294967295 1\n").unwrap_err();
        assert_eq!(e.to_string(), "memory map line 1: too few words");
    }

    #[test]
    fn parse_rejects_an_entry_past_the_address_space() {
        let e = MemoryMap::parse("# top\nx 0xfffffffc 2 7 9\n").unwrap_err();
        assert_eq!(
            e.to_string(),
            "memory map line 2: entry runs past the end of the address space"
        );
        // Ending exactly at 2^32 has no representable end either.
        assert!(MemoryMap::parse("x 0xfffffffc 1 7").is_err());
        assert!(MemoryMap::parse("x 0xfffffff8 1 7").is_ok());
        // A programmatically built map reports it instead of wrapping.
        let mut m = MemoryMap::new();
        m.entries.push(MemEntry { name: "x".into(), addr: 0xffff_fffc, words: vec![7, 9] });
        assert_eq!(m.entries[0].end(), None);
        assert_eq!(m.next_free(), DATA_BASE);
    }

    #[test]
    fn set_values_checks_shape() {
        let mut m = MemoryMap::new();
        m.push("A", vec![0; 3]);
        assert!(m.set_values("A", &[7, 8, 9]));
        assert!(!m.set_values("A", &[1]));
        assert!(!m.set_values("B", &[1, 2, 3]));
        assert_eq!(m.lookup("A").unwrap().words, vec![7, 8, 9]);
    }
}
