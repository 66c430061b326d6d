//! Set-associative cache tag model.
//!
//! Used for three structures of the XMT memory hierarchy: the shared L1
//! cache modules, the per-cluster read-only caches, and the Master TCU's
//! private cache. Only tags are modeled (data lives in the functional
//! memory), which is all a transaction-level timing model needs.

use xmt_harness::json::{json_field, JsonError};
use xmt_harness::{FromJson, Json, ToJson};

/// Largest associativity a configuration or checkpoint may ask for: the
/// tag array reserves `assoc` slots for every set up front.
pub const MAX_ASSOC: u32 = 1 << 16;

/// LRU set-associative tag array.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheTags {
    /// `assoc` slots per set, set after set; the first `fill[s]` slots of
    /// set `s` hold its tags, most-recently-used first. Slots past the
    /// fill count are zero, so the derived equality sees only live tags.
    tags: Vec<u32>,
    fill: Vec<u32>,
    assoc: usize,
    line_bytes: u32,
    set_mask: u32,
}

impl CacheTags {
    /// Build a cache of `capacity_bytes` with `assoc` ways and
    /// `line_bytes` lines. Capacity is rounded down to a power-of-two
    /// number of sets (at least one).
    pub fn new(capacity_bytes: u32, assoc: u32, line_bytes: u32) -> Self {
        assert!(line_bytes.is_power_of_two() && line_bytes >= 4);
        let assoc = assoc.max(1) as usize;
        let lines = (capacity_bytes / line_bytes).max(assoc as u32);
        // Round *down* to a power of two: 1 << floor(log2(s)). An exact
        // power of two must stay as-is — `next_power_of_two() / 2` here
        // would halve the modeled capacity of every pow2 configuration.
        let s = (lines / assoc as u32).max(1);
        let sets = 1u32 << (31 - s.leading_zeros());
        CacheTags {
            tags: vec![0; sets as usize * assoc],
            fill: vec![0; sets as usize],
            assoc,
            line_bytes,
            set_mask: sets - 1,
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.fill.len()
    }

    fn index(&self, addr: u32) -> (usize, u32) {
        let line = addr / self.line_bytes;
        ((line & self.set_mask) as usize, line)
    }

    /// The live tags of `set`, most-recently-used first.
    fn ways(&self, set: usize) -> &[u32] {
        &self.tags[set * self.assoc..][..self.fill[set] as usize]
    }

    /// Probe for `addr`, updating LRU and filling on miss.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: u32) -> bool {
        let (set, tag) = self.index(addr);
        let hit = self.ways(set).iter().position(|&t| t == tag);
        if hit.is_none() && (self.fill[set] as usize) < self.assoc {
            self.fill[set] += 1;
        }
        // Rotate `tag` to the MRU slot: on a hit from where it was, on a
        // miss from the slot just opened or, in a full set, from the LRU
        // slot, which evicts that tag.
        let last = hit.unwrap_or(self.fill[set] as usize - 1);
        let ways = &mut self.tags[set * self.assoc..][..=last];
        ways.rotate_right(1);
        ways[0] = tag;
        hit.is_some()
    }

    /// Probe without modifying state.
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.index(addr);
        self.ways(set).contains(&tag)
    }

    /// Invalidate everything (used by checkpoint restore of cold caches).
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.fill.fill(0);
    }
}

/// The checkpoint form keeps `sets` as an array of per-set tag arrays
/// (MRU first), whatever the in-memory layout.
impl ToJson for CacheTags {
    fn to_json(&self) -> Json {
        let sets = (0..self.n_sets())
            .map(|s| Json::Arr(self.ways(s).iter().map(ToJson::to_json).collect()));
        Json::Obj(vec![
            ("sets".to_string(), Json::Arr(sets.collect())),
            ("assoc".to_string(), self.assoc.to_json()),
            ("line_bytes".to_string(), self.line_bytes.to_json()),
            ("set_mask".to_string(), self.set_mask.to_json()),
        ])
    }
}

impl FromJson for CacheTags {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let members = v
            .as_obj()
            .map_err(|e| JsonError::new(format!("CacheTags: {}", e.message)))?;
        let sets = json_field::<Vec<Vec<u32>>>(members, "sets")?;
        let assoc: usize = json_field(members, "assoc")?;
        let line_bytes: u32 = json_field(members, "line_bytes")?;
        let set_mask: u32 = json_field(members, "set_mask")?;
        // The geometry is what `new` can build; anything else would index
        // out of the tag array (or reserve `assoc` slots on its say-so).
        let consistent = sets.len().is_power_of_two()
            && set_mask as usize == sets.len() - 1
            && line_bytes.is_power_of_two()
            && line_bytes >= 4
            && assoc >= 1
            && assoc <= MAX_ASSOC as usize
            && sets.iter().all(|ways| ways.len() <= assoc);
        if !consistent {
            return Err(JsonError::new("CacheTags: inconsistent cache geometry"));
        }
        let mut tags = vec![0; sets.len() * assoc];
        for (slots, ways) in tags.chunks_exact_mut(assoc).zip(&sets) {
            slots[..ways.len()].copy_from_slice(ways);
        }
        let fill = sets.iter().map(|ways| ways.len() as u32).collect();
        Ok(CacheTags { tags, fill, assoc, line_bytes, set_mask })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = CacheTags::new(1024, 2, 32);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
        assert!(!c.access(0x1000 + 32)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        // 2-way, force all tags into one set by stepping by set_count*line.
        let mut c = CacheTags::new(256, 2, 32); // 8 lines, 4 sets
        let stride = c.n_sets() as u32 * 32;
        let a = 0;
        let b = stride;
        let d = 2 * stride;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a)); // a is MRU now
        assert!(!c.access(d)); // evicts b (LRU)
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.access(a));
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = CacheTags::new(256, 1, 32);
        assert!(!c.probe(0));
        assert!(!c.probe(0));
        c.access(0);
        assert!(c.probe(0));
    }

    #[test]
    fn degenerate_tiny_cache_still_works() {
        let mut c = CacheTags::new(32, 4, 32); // single line capacity
        assert!(!c.access(0));
        assert!(c.access(0));
    }

    #[test]
    fn pow2_geometry_keeps_full_capacity() {
        // Regression: set-count rounding used `next_power_of_two() / 2`,
        // which halved the capacity of every power-of-two configuration
        // (i.e. every preset). Exact powers must be kept as-is.
        assert_eq!(CacheTags::new(1024, 2, 32).n_sets(), 16);
        for (cap, assoc, line) in [
            (1024u32, 2u32, 32u32), // 1 KB tiny preset module
            (32 * 1024, 2, 32),     // fpga64 cache module
            (64 * 1024, 4, 32),     // chip1024 cache module
            (4 * 1024, 2, 32),      // read-only cache
            (16 * 1024, 4, 64),
        ] {
            let c = CacheTags::new(cap, assoc, line);
            assert_eq!(
                c.n_sets() as u32 * assoc * line,
                cap,
                "pow2 config ({cap} B, {assoc}-way, {line} B lines) must model full capacity"
            );
        }
    }

    #[test]
    fn non_pow2_set_count_rounds_down() {
        // 24 lines / 2 ways = 12 sets -> rounds down to 8, not up to 16.
        assert_eq!(CacheTags::new(768, 2, 32).n_sets(), 8);
    }

    #[test]
    fn checkpoint_form_is_per_set_arrays_mru_first() {
        let mut c = CacheTags::new(256, 2, 32); // 4 sets
        c.access(0); // line 0 -> set 0
        c.access(4 * 32); // line 4 -> set 0, now MRU
        c.access(32); // line 1 -> set 1
        let json = c.to_json_string();
        assert_eq!(json, r#"{"sets":[[4,0],[1],[],[]],"assoc":2,"line_bytes":32,"set_mask":3}"#);
        assert_eq!(CacheTags::from_json_str(&json).unwrap(), c);
        // A geometry `new` cannot build would index out of the tag array.
        for bad in [
            r#"{"sets":[[4,0],[1],[],[]],"assoc":2,"line_bytes":32,"set_mask":7}"#,
            r#"{"sets":[[4,0,9],[1],[],[]],"assoc":2,"line_bytes":32,"set_mask":3}"#,
            r#"{"sets":[[4,0],[1],[]],"assoc":2,"line_bytes":32,"set_mask":3}"#,
            r#"{"sets":[],"assoc":2,"line_bytes":32,"set_mask":0}"#,
            r#"{"sets":[[]],"assoc":4294967295,"line_bytes":32,"set_mask":0}"#,
        ] {
            assert!(CacheTags::from_json_str(bad).is_err(), "{bad}");
        }
    }
}
