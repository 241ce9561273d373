//! Execution statistics: per-warp merging of thread counters, coalescing,
//! cache filtering and the aggregate counters the timing model and the
//! Table II profile consume.

use std::collections::HashMap;

use respec_ir::MemSpace;

use crate::cache::{bank_conflict_factor_with, coalesce_sectors_into, Cache};
use crate::interp::{InstClass, WarpCounters};
use crate::target::TargetDesc;

/// Number of instruction classes.
pub const NUM_CLASSES: usize = 8;

fn class_index(c: InstClass) -> usize {
    match c {
        InstClass::IntAlu => 0,
        InstClass::Fp32 => 1,
        InstClass::Fp64 => 2,
        InstClass::Special => 3,
        InstClass::GlobalMem => 4,
        InstClass::SharedMem => 5,
        InstClass::Branch => 6,
        InstClass::Barrier => 7,
    }
}

/// Aggregate counters of one kernel launch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Warp-level instruction issues per class.
    pub issues: [u64; NUM_CLASSES],
    /// Warp-level global/local load requests (L1→SM read requests).
    pub global_load_requests: u64,
    /// Warp-level global/local store requests (SM→L1 write requests).
    pub global_store_requests: u64,
    /// 32-byte read sectors after coalescing.
    pub read_sectors: u64,
    /// 32-byte write sectors after coalescing.
    pub write_sectors: u64,
    /// Read sectors that hit in L1.
    pub l1_read_hits: u64,
    /// Read sectors that missed L1 and hit L2 (L2→L1 read traffic).
    pub l2_read_hits: u64,
    /// Read sectors that missed L2 (DRAM read traffic).
    pub dram_read_sectors: u64,
    /// Write sectors forwarded to L2 (write-through L1).
    pub l1_to_l2_write_sectors: u64,
    /// Write sectors that missed in L2 (DRAM write traffic).
    pub dram_write_sectors: u64,
    /// Warp-level shared-memory read requests (ShMem→SM).
    pub shared_read_requests: u64,
    /// Warp-level shared-memory write requests (SM→ShMem).
    pub shared_write_requests: u64,
    /// Extra shared-memory cycles from bank-conflict serialization.
    pub shared_conflict_extra: u64,
    /// Barrier waits observed (warp-level).
    pub barrier_waits: u64,
    /// Blocks executed.
    pub blocks: u64,
    /// Warps executed (per phase iteration counted once per launch).
    pub warps: u64,
    /// Threads executed.
    pub threads: u64,
}

impl ExecStats {
    /// Total warp-level instruction issues.
    pub fn total_issues(&self) -> u64 {
        self.issues.iter().sum()
    }

    /// Issues of one class.
    pub fn issues_of(&self, c: InstClass) -> u64 {
        self.issues[class_index(c)]
    }

    /// Bytes read from L2 into L1 (the paper's "L2→L1 Read").
    pub fn l2_to_l1_read_bytes(&self) -> u64 {
        (self.l2_read_hits + self.dram_read_sectors) * 32
    }

    /// Bytes written from L1 to L2 (the paper's "L1→L2 Write").
    pub fn l1_to_l2_write_bytes(&self) -> u64 {
        self.l1_to_l2_write_sectors * 32
    }

    /// Bytes exchanged with DRAM.
    pub fn dram_bytes(&self) -> u64 {
        (self.dram_read_sectors + self.dram_write_sectors) * 32
    }

    /// Accumulates another launch's statistics (for composite runs).
    pub fn accumulate(&mut self, other: &ExecStats) {
        for i in 0..NUM_CLASSES {
            self.issues[i] += other.issues[i];
        }
        self.global_load_requests += other.global_load_requests;
        self.global_store_requests += other.global_store_requests;
        self.read_sectors += other.read_sectors;
        self.write_sectors += other.write_sectors;
        self.l1_read_hits += other.l1_read_hits;
        self.l2_read_hits += other.l2_read_hits;
        self.dram_read_sectors += other.dram_read_sectors;
        self.l1_to_l2_write_sectors += other.l1_to_l2_write_sectors;
        self.dram_write_sectors += other.dram_write_sectors;
        self.shared_read_requests += other.shared_read_requests;
        self.shared_write_requests += other.shared_write_requests;
        self.shared_conflict_extra += other.shared_conflict_extra;
        self.barrier_waits += other.barrier_waits;
        self.blocks += other.blocks;
        self.warps += other.warps;
        self.threads += other.threads;
    }
}

/// A fast one-shot hasher for small integer keys (the standard SipHash is
/// needlessly slow for the merge hot path).
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// `BuildHasher` for [`IntHasher`].
#[derive(Clone, Copy, Default)]
pub struct IntHasherBuilder;

impl std::hash::BuildHasher for IntHasherBuilder {
    type Hasher = IntHasher;

    fn build_hasher(&self) -> IntHasher {
        IntHasher::default()
    }
}

#[derive(Clone, Debug, Default)]
struct AccessGroup {
    space_store: u8, // bit0: is_store, bit1: shared
    lanes: Vec<(u64, u8)>,
}

/// Scratch of one warp access's accounting: coalesced sectors, distinct
/// shared words and per-bank word counts.
#[derive(Clone, Debug, Default)]
struct AccessScratch {
    sectors: Vec<u64>,
    words: Vec<u64>,
    per_bank: Vec<u32>,
}

impl AccessScratch {
    /// Accounts one warp-level access: bank-conflict analysis for shared
    /// memory, coalescing plus the L1/L2 hierarchy for everything else.
    #[allow(clippy::too_many_arguments)]
    fn account_access(
        &mut self,
        target: &TargetDesc,
        lanes: &[(u64, u8)],
        is_store: bool,
        is_shared: bool,
        l1: &mut Cache,
        l2: &mut Cache,
        stats: &mut ExecStats,
    ) {
        if is_shared {
            let factor = bank_conflict_factor_with(
                lanes,
                target.shared_banks,
                &mut self.words,
                &mut self.per_bank,
            ) as u64;
            if is_store {
                stats.shared_write_requests += 1;
            } else {
                stats.shared_read_requests += 1;
            }
            stats.shared_conflict_extra += factor - 1;
            return;
        }
        coalesce_sectors_into(lanes, &mut self.sectors);
        if is_store {
            stats.global_store_requests += 1;
            stats.write_sectors += self.sectors.len() as u64;
            for &s in &self.sectors {
                // Write-through L1 with write-allocate.
                l1.access(s);
                if !l2.access(s) {
                    stats.dram_write_sectors += 1;
                }
                stats.l1_to_l2_write_sectors += 1;
            }
        } else {
            stats.global_load_requests += 1;
            stats.read_sectors += self.sectors.len() as u64;
            for &s in &self.sectors {
                if l1.access(s) {
                    stats.l1_read_hits += 1;
                } else if l2.access(s) {
                    stats.l2_read_hits += 1;
                } else {
                    stats.dram_read_sectors += 1;
                }
            }
        }
    }
}

/// Reusable warp-phase merger: owns the scratch structures so the per-phase
/// merge allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub(crate) struct WarpMerger {
    group_index: HashMap<u64, u32, IntHasherBuilder>,
    groups: Vec<AccessGroup>,
    group_count: usize,
    access: AccessScratch,
}

impl WarpMerger {
    /// Merges one warp's phase counters into the launch statistics, running
    /// coalescing, bank-conflict analysis and the cache hierarchy. `classes`
    /// is the decoded program's per-op instruction class.
    ///
    /// Instruction issues are warp-level: the same static op at the same
    /// occurrence across lanes is one issue; divergent extra iterations
    /// issue separately (`max` over lanes).
    ///
    /// Memory accesses reach the caches one `(op, occurrence)` group at a
    /// time, in order of first appearance scanning lane 0's accesses, then
    /// lane 1's, and so on. Access records are such groups already; in
    /// program order that is a stable sort by lowest lane.
    pub(crate) fn merge_warp_phase(
        &mut self,
        classes: &[Option<InstClass>],
        target: &TargetDesc,
        warp: &mut WarpCounters,
        l1: &mut Cache,
        l2: &mut Cache,
        stats: &mut ExecStats,
    ) {
        for &op in &warp.touched {
            if let Some(class) = classes[op as usize] {
                let count = warp.issue_count(op as usize) as u64;
                stats.issues[class_index(class)] += count;
                if class == InstClass::Barrier {
                    stats.barrier_waits += count;
                }
            }
        }

        if !warp.per_lane {
            if !warp.ordered {
                warp.records.sort_by_key(|r| r.first_lane);
                warp.ordered = true;
            }
            for r in &warp.records {
                let lanes = &warp.lanes_of[r.start as usize..][..r.len as usize];
                self.access
                    .account_access(target, lanes, r.is_store, r.shared, l1, l2, stats);
            }
            return;
        }

        // Event lists: group by (op, occ) across lanes.
        self.group_index.clear();
        self.group_count = 0;
        for lane in 0..warp.lanes {
            for ev in warp.events(lane) {
                let key = (ev.op as u64) << 32 | ev.occ as u64;
                let idx = *self.group_index.entry(key).or_insert_with(|| {
                    if self.groups.len() == self.group_count {
                        self.groups.push(AccessGroup::default());
                    }
                    let g = &mut self.groups[self.group_count];
                    g.lanes.clear();
                    g.space_store = ev.is_store as u8 | ((ev.space == MemSpace::Shared) as u8) << 1;
                    self.group_count += 1;
                    (self.group_count - 1) as u32
                });
                self.groups[idx as usize].lanes.push((ev.addr, ev.bytes));
            }
        }
        for g in &self.groups[..self.group_count] {
            self.access.account_access(
                target,
                &g.lanes,
                g.space_store & 1 != 0,
                g.space_store & 2 != 0,
                l1,
                l2,
                stats,
            );
        }
    }
}

/// Convenience: replays a single warp access pattern (unit tests and the
/// indexing ablation).
pub fn replay_access(
    target: &TargetDesc,
    lanes: &[(u64, u8)],
    is_store: bool,
    space: MemSpace,
    l1: &mut Cache,
    l2: &mut Cache,
    stats: &mut ExecStats,
) {
    AccessScratch::default().account_access(
        target,
        lanes,
        is_store,
        space == MemSpace::Shared,
        l1,
        l2,
        stats,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::a100;

    #[test]
    fn unit_stride_warp_read_is_four_sectors() {
        let t = a100();
        let mut l1 = Cache::new(t.l1_bytes, 32, 8);
        let mut l2 = Cache::new(t.l2_bytes, 32, 16);
        let mut stats = ExecStats::default();
        let lanes: Vec<(u64, u8)> = (0..32).map(|i| (0x1000 + i * 4, 4)).collect();
        replay_access(
            &t,
            &lanes,
            false,
            MemSpace::Global,
            &mut l1,
            &mut l2,
            &mut stats,
        );
        assert_eq!(stats.global_load_requests, 1);
        assert_eq!(stats.read_sectors, 4);
        assert_eq!(stats.dram_read_sectors, 4); // cold caches
                                                // Re-reading hits L1.
        replay_access(
            &t,
            &lanes,
            false,
            MemSpace::Global,
            &mut l1,
            &mut l2,
            &mut stats,
        );
        assert_eq!(stats.l1_read_hits, 4);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = ExecStats::default();
        let mut b = ExecStats {
            read_sectors: 5,
            blocks: 2,
            ..ExecStats::default()
        };
        b.issues[0] = 3;
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.read_sectors, 10);
        assert_eq!(a.issues[0], 6);
        assert_eq!(a.blocks, 4);
    }

    #[test]
    fn derived_byte_counters() {
        let stats = ExecStats {
            l2_read_hits: 3,
            dram_read_sectors: 2,
            l1_to_l2_write_sectors: 4,
            dram_write_sectors: 1,
            ..ExecStats::default()
        };
        assert_eq!(stats.l2_to_l1_read_bytes(), 5 * 32);
        assert_eq!(stats.l1_to_l2_write_bytes(), 4 * 32);
        assert_eq!(stats.dram_bytes(), 3 * 32);
    }
}
