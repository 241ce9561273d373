//! Differential test of the cache model: [`Cache`] against the plain
//! one-`Vec`-per-set LRU it replaced, access by access, on the L1 and L2
//! geometry of every registry target and on small odd geometries.

use proptest::prelude::*;
use respec_sim::{targets, Cache};

/// Reference LRU: one `Vec` per set, least recently used first.
struct Reference {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line: u64,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl Reference {
    fn new(bytes: u64, line: u64, assoc: usize) -> Reference {
        let lines = (bytes / line).max(1);
        let sets = (lines / assoc as u64).max(1);
        let sets = 1u64 << (63 - sets.leading_zeros() as u64); // prev power of two
        Reference {
            sets: vec![Vec::with_capacity(assoc); sets as usize],
            assoc,
            line,
            set_mask: sets - 1,
            hits: 0,
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let tag = addr / self.line;
        let set = &mut self.sets[(tag & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.push(t);
            self.hits += 1;
            true
        } else {
            if set.len() == self.assoc {
                set.remove(0);
            }
            set.push(tag);
            self.misses += 1;
            false
        }
    }

    /// Bytes between two addresses that map to the same set.
    fn set_span(&self) -> u64 {
        (self.set_mask + 1) * self.line
    }
}

/// `(bytes, line, assoc)` of every registry target's sim-L1 and sim-L2 (as
/// `GpuSim` builds them), then small odd geometries: one set of one way,
/// more ways than lines, byte counts that are not powers of two, an odd
/// associativity.
fn geometries() -> Vec<(u64, u64, usize)> {
    let mut geoms = Vec::new();
    for name in targets::TARGET_NAMES {
        let t = targets::by_name(name)
            .expect("registry name")
            .desc()
            .clone();
        geoms.push((t.l1_bytes, 32, 8));
        geoms.push((t.l2_bytes, 32, 16));
    }
    geoms.extend([
        (32, 32, 1),
        (96, 32, 4),
        (1000, 32, 3),
        (5000, 32, 8),
        (48 * 1024 + 96, 32, 16),
    ]);
    geoms
}

/// splitmix64: scatters a seed over the address space.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands `(kind, a, b, n)` segments into an address stream with locality:
/// strided runs, runs that all land in one set (evictions), re-reads of an
/// earlier window, and scattered addresses over a few times the capacity.
fn stream(segments: &[(u8, u64, u64, usize)], bytes: u64, set_span: u64) -> Vec<u64> {
    let mut addrs: Vec<u64> = Vec::new();
    for &(kind, a, b, n) in segments {
        match kind {
            0 => {
                let (base, stride) = (a % (4 * bytes), 1 + b % 4096);
                addrs.extend((0..n as u64).map(|i| base + i * stride));
            }
            1 => {
                let (base, stride) = (a % (4 * bytes), set_span * (1 + b % 3));
                addrs.extend((0..n as u64).map(|i| base + i * stride));
            }
            2 if !addrs.is_empty() => {
                let start = (a % addrs.len() as u64) as usize;
                let end = (start + n).min(addrs.len());
                addrs.extend_from_within(start..end);
            }
            _ => addrs.extend((0..n as u64).map(|i| mix(a ^ mix(b + i)) % (4 * bytes))),
        }
    }
    addrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_matches_the_per_set_vec_lru(
        segments in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>(), 1usize..80), 1..40),
    ) {
        for (bytes, line, assoc) in geometries() {
            let mut want = Reference::new(bytes, line, assoc);
            let mut got = Cache::new(bytes, line, assoc);
            for (i, addr) in stream(&segments, bytes, want.set_span()).into_iter().enumerate() {
                prop_assert_eq!(
                    got.access(addr),
                    want.access(addr),
                    "access {} to {:#x} on ({}, {}, {})", i, addr, bytes, line, assoc
                );
            }
            prop_assert_eq!((got.hits, got.misses), (want.hits, want.misses));
        }
    }
}
