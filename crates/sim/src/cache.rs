//! Set-associative LRU cache model with 32-byte sectors.

const PAGE_SETS: u64 = 64; // sets per page of the tag store

/// A set-associative LRU cache. Accesses are at sector granularity (the unit
/// the coalescer produces), matching the sectored caches of modern GPUs.
/// Each page of `PAGE_SETS` sets is allocated on first touch, so a cache
/// costs the same to build and drop at any size. A set is `assoc` slots, MRU
/// first, each holding `tag + 1` (0 marks an empty slot).
#[derive(Clone, Debug)]
pub struct Cache {
    pages: Vec<Option<Box<[u64]>>>,
    page_shift: u32,
    assoc: usize,
    line: u64,
    set_mask: u64,
    /// Total hits since creation or [`Cache::reset_counters`].
    pub hits: u64,
    /// Total misses since creation or [`Cache::reset_counters`].
    pub misses: u64,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `line`-byte lines and the
    /// given associativity. The set count is rounded down to a power of two.
    /// Panics unless `line >= 2` (so `tag + 1` cannot overflow) and `assoc > 0`.
    pub fn new(bytes: u64, line: u64, assoc: usize) -> Cache {
        assert!(line >= 2 && assoc > 0, "cache line {line}, assoc {assoc}");
        let lines = (bytes / line).max(1);
        let sets = (lines / assoc as u64).max(1);
        let sets = 1u64 << (63 - sets.leading_zeros() as u64); // prev power of two
        let page_sets = sets.min(PAGE_SETS);
        Cache {
            pages: vec![None; (sets / page_sets) as usize],
            page_shift: page_sets.trailing_zeros(),
            assoc,
            line,
            set_mask: sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate (for both
    /// reads and writes — write-allocate).
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = addr / self.line;
        let (key, set) = (tag + 1, tag & self.set_mask);
        let (assoc, page_sets) = (self.assoc, 1usize << self.page_shift);
        let page = self.pages[(set >> self.page_shift) as usize]
            .get_or_insert_with(|| vec![0; page_sets * assoc].into_boxed_slice());
        let base = (set as usize & (page_sets - 1)) * assoc;
        let ways = &mut page[base..base + assoc];
        // Filled slots come first: stop at `key`, the first empty slot or
        // the LRU. A hit moves to MRU; a miss fills or evicts `end`.
        let end = ways.iter().position(|&k| k == key || k == 0);
        let end = end.unwrap_or(assoc - 1);
        let hit = ways[end] == key;
        ways.copy_within(0..end, 1);
        ways[0] = key;
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Splits a warp's lane accesses into the distinct 32-byte sectors they
/// touch — the number of memory transactions after coalescing (§II-A2).
pub fn coalesce_sectors(addrs: &[(u64, u8)]) -> Vec<u64> {
    let mut sectors = Vec::new();
    coalesce_sectors_into(addrs, &mut sectors);
    sectors
}

/// [`coalesce_sectors`] into a caller-owned buffer (overwritten): the
/// distinct sector base addresses in ascending order.
pub(crate) fn coalesce_sectors_into(addrs: &[(u64, u8)], sectors: &mut Vec<u64>) {
    sectors.clear();
    for &(addr, bytes) in addrs {
        let first = addr / 32;
        let last = (addr + bytes as u64 - 1) / 32;
        sectors.extend((first..=last).map(|s| s * 32));
    }
    sectors.sort_unstable();
    sectors.dedup();
}

/// Computes the serialization factor of a shared-memory warp access: the
/// maximum number of *distinct words* mapped to any one bank (accesses to
/// the same word broadcast).
pub fn bank_conflict_factor(addrs: &[(u64, u8)], banks: u32) -> u32 {
    bank_conflict_factor_with(addrs, banks, &mut Vec::new(), &mut Vec::new())
}

/// [`bank_conflict_factor`] over caller-owned scratch (both overwritten).
pub(crate) fn bank_conflict_factor_with(
    addrs: &[(u64, u8)],
    banks: u32,
    words: &mut Vec<u64>,
    per_bank: &mut Vec<u32>,
) -> u32 {
    words.clear();
    words.extend(addrs.iter().map(|&(a, _)| a / 4));
    words.sort_unstable();
    words.dedup();
    per_bank.clear();
    per_bank.resize(banks as usize, 0);
    for &w in words.iter() {
        per_bank[(w % banks as u64) as usize] += 1;
    }
    per_bank.iter().copied().max().unwrap_or(0).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_after_fill() {
        let mut c = Cache::new(1024, 32, 4);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(16)); // same sector
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn cache_evicts_lru() {
        // 4 lines total, 1 set of associativity 4.
        let mut c = Cache::new(128, 32, 4);
        for i in 0..4 {
            c.access(i * 32);
        }
        assert!(c.access(0)); // still resident
        c.access(4 * 32); // evicts LRU (line 1, since 0 was just touched)
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    #[test]
    fn coalesced_unit_stride_is_minimal() {
        // 32 f32 lanes at consecutive addresses = 128 bytes = 4 sectors.
        let addrs: Vec<(u64, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
        assert_eq!(coalesce_sectors(&addrs).len(), 4);
    }

    #[test]
    fn strided_access_needs_more_sectors() {
        // Stride-2 f32: same 32 lanes now span 8 sectors.
        let addrs: Vec<(u64, u8)> = (0..32).map(|i| (i * 8, 4)).collect();
        assert_eq!(coalesce_sectors(&addrs).len(), 8);
    }

    #[test]
    fn scattered_access_is_fully_uncoalesced() {
        let addrs: Vec<(u64, u8)> = (0..32).map(|i| (i * 256, 4)).collect();
        assert_eq!(coalesce_sectors(&addrs).len(), 32);
    }

    #[test]
    fn unaligned_access_straddles_sectors() {
        assert_eq!(coalesce_sectors(&[(30, 4)]).len(), 2);
    }

    #[test]
    fn no_bank_conflict_for_unit_stride() {
        let addrs: Vec<(u64, u8)> = (0..32).map(|i| (i * 4, 4)).collect();
        assert_eq!(bank_conflict_factor(&addrs, 32), 1);
    }

    #[test]
    fn stride_32_words_conflicts_fully() {
        // Every lane hits bank 0 with a distinct word: 32-way conflict.
        let addrs: Vec<(u64, u8)> = (0..32).map(|i| (i * 32 * 4, 4)).collect();
        assert_eq!(bank_conflict_factor(&addrs, 32), 32);
    }

    #[test]
    fn broadcast_does_not_conflict() {
        let addrs: Vec<(u64, u8)> = (0..32).map(|_| (64, 4)).collect();
        assert_eq!(bank_conflict_factor(&addrs, 32), 1);
    }
}
