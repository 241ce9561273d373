//! Target descriptors and the [`TargetModel`] trait.
//!
//! One struct, [`TargetDesc`], describes every target: the four GPUs of
//! Table I in the paper, transcribed into the resource and throughput
//! parameters the occupancy calculator and timing model consume, and two
//! multicore CPUs for the GPU-to-CPU retargeting path. Retargeting a kernel
//! from NVIDIA to AMD is — exactly as in the paper — nothing more than
//! compiling the same IR against a different descriptor; retargeting to a
//! CPU additionally lowers the IR (see `respec_opt`'s CPU lowering pass)
//! before it meets the same tuner and simulator. A CPU is written in the
//! GPU's vocabulary: its cores are the units, its SIMD lanes the lock-step
//! width (the field docs of [`TargetDesc`] give the mapping).

use std::fmt;
use std::sync::Arc;

/// Target vendor, which determines the execution-width conventions and the
/// [`TargetKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// CUDA-style: 32-thread warps.
    Nvidia,
    /// ROCm-style: 64-thread wavefronts.
    Amd,
    /// Multicore CPU: cores with SIMD lanes ([`TargetKind::Cpu`]).
    Cpu,
}

/// The family a target belongs to. Cache keys, lowering decisions, and
/// the serve protocol all discriminate on this: a CPU fingerprint must
/// never collide with or warm-start a GPU entry, and the tune engine only
/// runs the GPU-to-CPU lowering pass for [`TargetKind::Cpu`] models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// A GPU: blocks scheduled over SMs, threads in warps/wavefronts.
    Gpu,
    /// A multicore CPU: cores with SIMD lanes; block/thread parallelism is
    /// lowered to tiled sequential loops before execution.
    Cpu,
}

impl TargetKind {
    /// Stable lowercase tag used in persistent cache keys and wire
    /// protocols. Never change an existing tag: it is part of the on-disk
    /// cache key grammar.
    pub fn tag(self) -> &'static str {
        match self {
            TargetKind::Gpu => "gpu",
            TargetKind::Cpu => "cpu",
        }
    }
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// The target-model view every layer above the simulator depends on: the
/// queries a tuning decision can observe. [`TargetDesc`] is its only
/// implementor; every method is derived from [`desc`](TargetModel::desc).
///
/// `Send + Sync` because tune workers share one model across threads;
/// `Debug` because the facade's `Compiler`/`Compiled` derive it.
pub trait TargetModel: Send + Sync + fmt::Debug {
    /// The descriptor the simulator, occupancy calculator and timing model
    /// run against.
    fn desc(&self) -> &TargetDesc;

    /// Marketing name, e.g. `"NVIDIA A100"` or `"CPU Desktop 8c AVX2"`.
    fn name(&self) -> &str {
        self.desc().name
    }

    /// Which target family this is (decides lowering and cache-key kind).
    fn kind(&self) -> TargetKind {
        match self.desc().vendor {
            Vendor::Nvidia | Vendor::Amd => TargetKind::Gpu,
            Vendor::Cpu => TargetKind::Cpu,
        }
    }

    /// Stable 64-bit fingerprint of every field that influences compile
    /// feedback, pruning, or simulated timing — i.e. everything a tuning
    /// decision can depend on. Two descriptors fingerprint equal iff they
    /// describe the same machine, so the fingerprint is a sound persistent
    /// cache-key component: a respecialized winner cached for one target
    /// can never be served for a differently-parameterized one. The vendor
    /// tag keeps CPU and GPU keys disjoint.
    fn fingerprint(&self) -> u64 {
        let d = self.desc();
        let mut h = respec_ir::StableHasher::new();
        h.write_str(d.name);
        h.write_str(match d.vendor {
            Vendor::Nvidia => "nvidia",
            Vendor::Amd => "amd",
            // Part of every persisted CPU cache key: never change it.
            Vendor::Cpu => "cpu-projection",
        });
        for v in [
            u64::from(d.warp_size),
            u64::from(d.sm_count),
            u64::from(d.regs_per_sm),
            u64::from(d.max_regs_per_thread),
            u64::from(d.max_threads_per_sm),
            u64::from(d.max_blocks_per_sm),
            u64::from(d.max_threads_per_block),
            d.shared_per_sm,
            d.shared_per_block,
            u64::from(d.shared_banks),
            d.l2_bytes,
            d.l1_bytes,
            d.global_bytes,
        ] {
            h.write_u64(v);
        }
        for v in [
            d.clock_hz,
            d.fp32_flops,
            d.fp64_flops,
            d.sfu_ops,
            d.issue_per_sm_per_cycle,
            d.lsu_per_sm_per_cycle,
            d.dram_bw,
            d.l2_bw,
            d.dram_latency,
            d.l2_latency,
            d.l1_latency,
            d.alu_latency,
        ] {
            h.write_f64(v);
        }
        h.finish()
    }

    /// Width of the lock-step execution group: warp/wavefront size on
    /// GPUs, SIMD f32 lanes on CPUs. The CPU lowering pass uses this as
    /// the lane-parallel width of fissioned loops.
    fn exec_width(&self) -> u32 {
        self.desc().warp_size
    }

    /// Scratchpad budget per block in bytes. The tune engine prunes
    /// candidates whose static shared usage exceeds this.
    fn shared_per_block(&self) -> u64 {
        self.desc().shared_per_block
    }

    /// Registers per thread before the backend must spill.
    fn max_regs_per_thread(&self) -> u32 {
        self.desc().max_regs_per_thread
    }

    /// Feature vector for nearest-neighbor target matching: execution
    /// width, parallel units, per-block scratch budget, and the two cache
    /// levels, in that order. A fat binary's runtime dispatcher compares
    /// these (in log space — the quantities span orders of magnitude) to
    /// pick a variant for a target whose fingerprint it has never seen.
    /// Strictly positive by construction, so `ln` is always defined.
    fn feature_vector(&self) -> [f64; 5] {
        let d = self.desc();
        [
            f64::from(d.warp_size),
            f64::from(d.sm_count),
            d.shared_per_block as f64,
            d.l1_bytes as f64,
            d.l2_bytes as f64,
        ]
    }
}

/// A target description: occupancy-limiting resources (§II-A3) plus
/// execution resources for the timing model.
///
/// A CPU fills the same fields: a core is an SM whose lock-step group is
/// its SIMD unit, so a fissioned lane loop steps all lanes of a core
/// exactly like a vectorized loop body. Per-field CPU meanings are given
/// after "CPU:" below.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetDesc {
    /// Marketing name, e.g. `"NVIDIA A100"`.
    pub name: &'static str,
    /// Vendor (decides warp vs wavefront width, and the [`TargetKind`]).
    pub vendor: Vendor,
    /// Threads per warp/wavefront. CPU: SIMD f32 lanes per core (8 = AVX2,
    /// 16 = AVX-512).
    pub warp_size: u32,
    /// Number of streaming multiprocessors (compute units). CPU: cores.
    pub sm_count: u32,
    /// Core clock in Hz. CPU: sustained all-core clock.
    pub clock_hz: f64,

    // ---- occupancy-limiting resources (per SM) ----
    /// 32-bit registers per SM. CPU: `max_regs_per_thread ×
    /// max_threads_per_sm`, so registers never limit occupancy — a CPU
    /// spills to stack, it does not shed residency.
    pub regs_per_sm: u32,
    /// Maximum registers per thread before the backend must spill. CPU:
    /// architectural + rename headroom per logical thread.
    pub max_regs_per_thread: u32,
    /// Maximum resident threads per SM. CPU: `max_threads_per_block ×
    /// max_blocks_per_sm`.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM. CPU: SMT ways.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block. CPU: the GPU limit, so the same kernels
    /// pass precheck on both families (the un-fissioned fallback tier
    /// oversubscribes lanes fiber-style).
    pub max_threads_per_block: u32,
    /// Shared memory per SM in bytes. CPU: `shared_per_block ×
    /// max_blocks_per_sm`.
    pub shared_per_sm: u64,
    /// Maximum shared memory per block in bytes. CPU: one private L2, since
    /// lowering demotes shared allocations to stack/L1-resident buffers —
    /// the CPU has no scratchpad cliff, it has a cache gradient.
    pub shared_per_block: u64,

    // ---- execution resources ----
    /// Peak single-precision throughput in FLOP/s.
    pub fp32_flops: f64,
    /// Peak double-precision throughput in FLOP/s.
    pub fp64_flops: f64,
    /// Special-function throughput (sqrt/exp/…) in op/s.
    pub sfu_ops: f64,
    /// Warp instruction issue slots per SM per cycle. CPU: vector issue
    /// slots per core.
    pub issue_per_sm_per_cycle: f64,
    /// Load/store unit: global/shared access slots per SM per cycle
    /// (warp-level requests). CPU: vector-wide load/store slots per core.
    pub lsu_per_sm_per_cycle: f64,
    /// Shared-memory banks (bank conflicts serialize accesses). CPU: one
    /// per SIMD lane.
    pub shared_banks: u32,

    // ---- memory hierarchy ----
    /// DRAM bandwidth in bytes/s.
    pub dram_bw: f64,
    /// L2 bandwidth in bytes/s. CPU: shared-L3 bandwidth.
    pub l2_bw: f64,
    /// Total L2 capacity in bytes. CPU: the shared L3.
    pub l2_bytes: u64,
    /// L1 capacity per SM in bytes. CPU: the core's private L2, which keeps
    /// the private-vs-shared split the cache model discriminates on.
    pub l1_bytes: u64,
    /// Average DRAM access latency in cycles.
    pub dram_latency: f64,
    /// Average L2 hit latency in cycles. CPU: L3 hit latency.
    pub l2_latency: f64,
    /// Average L1 hit latency in cycles. CPU: private-L2 hit latency.
    pub l1_latency: f64,
    /// Arithmetic pipeline latency in cycles.
    pub alu_latency: f64,
    /// Global memory size in bytes.
    pub global_bytes: u64,
}

impl TargetDesc {
    /// Warps per SM when fully occupied.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Peak FP32 operations per SM per cycle.
    pub fn fp32_per_sm_cycle(&self) -> f64 {
        self.fp32_flops / self.clock_hz / self.sm_count as f64
    }

    /// Peak FP64 operations per SM per cycle.
    pub fn fp64_per_sm_cycle(&self) -> f64 {
        self.fp64_flops / self.clock_hz / self.sm_count as f64
    }
}

impl TargetModel for TargetDesc {
    fn desc(&self) -> &TargetDesc {
        self
    }
}

/// NVIDIA RTX A4000 (consumer-grade Ampere, Table I column 1).
pub fn a4000() -> TargetDesc {
    TargetDesc {
        name: "NVIDIA A4000",
        vendor: Vendor::Nvidia,
        warp_size: 32,
        sm_count: 48,
        clock_hz: 1.56e9,
        regs_per_sm: 65536,
        max_regs_per_thread: 255,
        max_threads_per_sm: 1536,
        max_blocks_per_sm: 16,
        max_threads_per_block: 1024,
        shared_per_sm: 100 * 1024,
        shared_per_block: 48 * 1024,
        fp32_flops: 19.17e12,
        fp64_flops: 0.60e12,
        sfu_ops: 4.8e12,
        issue_per_sm_per_cycle: 4.0,
        lsu_per_sm_per_cycle: 4.0,
        shared_banks: 32,
        dram_bw: 445.0e9,
        l2_bw: 1.5e12,
        l2_bytes: 4 * 1024 * 1024,
        l1_bytes: 128 * 1024,
        dram_latency: 450.0,
        l2_latency: 200.0,
        l1_latency: 30.0,
        alu_latency: 4.0,
        global_bytes: 16 * 1024 * 1024 * 1024,
    }
}

/// AMD Radeon RX 6800 (consumer-grade RDNA2, Table I column 2).
pub fn rx6800() -> TargetDesc {
    TargetDesc {
        name: "AMD RX6800",
        vendor: Vendor::Amd,
        warp_size: 64,
        sm_count: 60,
        clock_hz: 1.82e9,
        regs_per_sm: 65536,
        max_regs_per_thread: 256,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 16,
        max_threads_per_block: 1024,
        shared_per_sm: 64 * 1024,
        shared_per_block: 64 * 1024,
        fp32_flops: 16.17e12,
        fp64_flops: 1.01e12,
        sfu_ops: 4.0e12,
        issue_per_sm_per_cycle: 4.0,
        lsu_per_sm_per_cycle: 4.0,
        shared_banks: 32,
        dram_bw: 512.0e9,
        l2_bw: 1.2e12,
        l2_bytes: 4 * 1024 * 1024,
        l1_bytes: 16 * 1024,
        dram_latency: 500.0,
        l2_latency: 220.0,
        l1_latency: 35.0,
        alu_latency: 4.0,
        global_bytes: 16 * 1024 * 1024 * 1024,
    }
}

/// NVIDIA A100 PCIe 40 GB (HPC Ampere, Table I column 3).
pub fn a100() -> TargetDesc {
    TargetDesc {
        name: "NVIDIA A100",
        vendor: Vendor::Nvidia,
        warp_size: 32,
        sm_count: 108,
        clock_hz: 1.41e9,
        regs_per_sm: 65536,
        max_regs_per_thread: 255,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 32,
        max_threads_per_block: 1024,
        shared_per_sm: 164 * 1024,
        shared_per_block: 48 * 1024,
        fp32_flops: 19.49e12,
        fp64_flops: 9.75e12,
        sfu_ops: 4.9e12,
        issue_per_sm_per_cycle: 4.0,
        lsu_per_sm_per_cycle: 4.0,
        shared_banks: 32,
        dram_bw: 1555.0e9,
        l2_bw: 4.0e12,
        l2_bytes: 40 * 1024 * 1024,
        l1_bytes: 192 * 1024,
        dram_latency: 400.0,
        l2_latency: 180.0,
        l1_latency: 28.0,
        alu_latency: 4.0,
        global_bytes: 40u64 * 1024 * 1024 * 1024,
    }
}

/// AMD Instinct MI210 (HPC CDNA2, Table I column 4).
pub fn mi210() -> TargetDesc {
    TargetDesc {
        name: "AMD MI210",
        vendor: Vendor::Amd,
        warp_size: 64,
        sm_count: 104,
        clock_hz: 1.70e9,
        regs_per_sm: 65536,
        max_regs_per_thread: 256,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 16,
        max_threads_per_block: 1024,
        shared_per_sm: 64 * 1024,
        shared_per_block: 64 * 1024,
        fp32_flops: 22.60e12,
        fp64_flops: 22.60e12,
        sfu_ops: 5.6e12,
        issue_per_sm_per_cycle: 4.0,
        lsu_per_sm_per_cycle: 4.0,
        shared_banks: 32,
        dram_bw: 1638.0e9,
        l2_bw: 3.5e12,
        l2_bytes: 16 * 1024 * 1024,
        l1_bytes: 16 * 1024,
        dram_latency: 480.0,
        l2_latency: 200.0,
        l1_latency: 35.0,
        alu_latency: 4.0,
        global_bytes: 64u64 * 1024 * 1024 * 1024,
    }
}

/// All four evaluation targets in Table I order.
pub fn all_targets() -> Vec<TargetDesc> {
    vec![a4000(), rx6800(), a100(), mi210()]
}

/// An 8-core AVX2 desktop (Zen3/Golden-Cove-class): few heavy cores, high
/// clock, modest memory bandwidth. The opposite preference profile to a
/// GPU — winners here favour deep per-core tiles over thread count.
pub fn cpu_desktop8() -> TargetDesc {
    TargetDesc {
        name: "CPU Desktop 8c AVX2",
        vendor: Vendor::Cpu,
        warp_size: 8,
        sm_count: 8,
        clock_hz: 4.5e9,
        regs_per_sm: 128 * 2048,
        max_regs_per_thread: 128,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 2,
        max_threads_per_block: 1024,
        shared_per_sm: 2 * 1024 * 1024,
        shared_per_block: 1024 * 1024,
        // 8 cores × 8 lanes × 2 FMA pipes × 2 flops × 4.5 GHz
        fp32_flops: 1.152e12,
        fp64_flops: 0.576e12,
        sfu_ops: 0.288e12,
        issue_per_sm_per_cycle: 2.0,
        lsu_per_sm_per_cycle: 2.0,
        shared_banks: 8,
        dram_bw: 60.0e9,
        l2_bw: 400.0e9,
        l2_bytes: 32 * 1024 * 1024,
        l1_bytes: 1024 * 1024,
        dram_latency: 350.0,
        l2_latency: 45.0,
        l1_latency: 14.0,
        alu_latency: 4.0,
        global_bytes: 32u64 * 1024 * 1024 * 1024,
    }
}

/// A 64-core AVX-512 server (Sapphire-Rapids/Genoa-class): many cores,
/// wide vectors, lower clock, large shared LLC and memory bandwidth.
pub fn cpu_server64() -> TargetDesc {
    TargetDesc {
        name: "CPU Server 64c AVX-512",
        vendor: Vendor::Cpu,
        warp_size: 16,
        sm_count: 64,
        clock_hz: 2.6e9,
        regs_per_sm: 128 * 2048,
        max_regs_per_thread: 128,
        max_threads_per_sm: 2048,
        max_blocks_per_sm: 2,
        max_threads_per_block: 1024,
        shared_per_sm: 4 * 1024 * 1024,
        shared_per_block: 2 * 1024 * 1024,
        // 64 cores × 16 lanes × 2 FMA pipes × 2 flops × 2.6 GHz
        fp32_flops: 10.65e12,
        fp64_flops: 5.33e12,
        sfu_ops: 1.33e12,
        issue_per_sm_per_cycle: 2.0,
        lsu_per_sm_per_cycle: 2.0,
        shared_banks: 16,
        dram_bw: 300.0e9,
        l2_bw: 1.2e12,
        l2_bytes: 256 * 1024 * 1024,
        l1_bytes: 2 * 1024 * 1024,
        dram_latency: 400.0,
        l2_latency: 60.0,
        l1_latency: 16.0,
        alu_latency: 4.0,
        global_bytes: 256u64 * 1024 * 1024 * 1024,
    }
}

/// Both simulated CPU evaluation targets.
pub fn all_cpu_targets() -> Vec<TargetDesc> {
    vec![cpu_desktop8(), cpu_server64()]
}

/// Builds one registered target.
type Constructor = fn() -> TargetDesc;

/// Every registered target, GPU and CPU, in registry order: its canonical
/// protocol name and its constructor.
const REGISTRY: [(&str, Constructor); 6] = [
    ("a4000", a4000),
    ("rx6800", rx6800),
    ("a100", a100),
    ("mi210", mi210),
    ("cpu-desktop8", cpu_desktop8),
    ("cpu-server64", cpu_server64),
];

/// Canonical protocol names of every registered target, GPU and CPU, in
/// registry order. One naming scheme for serve, bench, and examples.
pub const TARGET_NAMES: [&str; 6] = {
    let mut names = [""; 6];
    let mut i = 0;
    while i < names.len() {
        names[i] = REGISTRY[i].0;
        i += 1;
    }
    names
};

/// The canonical target registry: resolves a protocol name to its target
/// model. Covers the four Table I GPUs and both simulated CPU targets;
/// every consumer (serve daemon, bench bins, examples) resolves names
/// through here, so there is exactly one naming scheme and one
/// fingerprint rule per name.
pub fn by_name(name: &str) -> Option<Arc<dyn TargetModel>> {
    let (_, make) = REGISTRY.iter().find(|(n, _)| *n == name)?;
    Some(Arc::new(make()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_targets_have_expected_identity() {
        let ts = all_targets();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0].sm_count, 48);
        assert_eq!(ts[1].warp_size, 64);
        assert_eq!(ts[2].sm_count, 108);
        assert_eq!(ts[3].vendor, Vendor::Amd);
    }

    #[test]
    fn amd_has_wider_wavefronts_than_nvidia() {
        assert_eq!(a100().warp_size, 32);
        assert_eq!(mi210().warp_size, 64);
    }

    #[test]
    fn a100_beats_a4000_on_bandwidth_and_fp64() {
        assert!(a100().dram_bw > a4000().dram_bw);
        assert!(a100().fp64_flops > a4000().fp64_flops);
    }

    #[test]
    fn rx6800_has_tiny_l1_compared_to_a4000() {
        // This asymmetry drives the paper's `nw` analysis (§VII-D2).
        assert!(rx6800().l1_bytes * 4 < a4000().l1_bytes);
    }

    #[test]
    fn fingerprints_separate_targets_and_parameter_tweaks() {
        let ts = all_targets();
        for (i, a) in ts.iter().enumerate() {
            assert_eq!(a.fingerprint(), a.clone().fingerprint(), "deterministic");
            for b in &ts[i + 1..] {
                assert_ne!(a.fingerprint(), b.fingerprint(), "{} vs {}", a.name, b.name);
            }
        }
        // Any tuning-relevant field change must change the fingerprint.
        let mut t = a100();
        let base = t.fingerprint();
        t.max_regs_per_thread -= 1;
        assert_ne!(t.fingerprint(), base);
        let mut t = a100();
        t.dram_bw *= 1.0000001;
        assert_ne!(t.fingerprint(), base);
    }

    #[test]
    fn derived_quantities() {
        let t = a100();
        assert_eq!(t.max_warps_per_sm(), 64);
        assert!(t.fp32_per_sm_cycle() > 0.0);
        assert!(t.fp64_per_sm_cycle() > 0.0);
    }

    #[test]
    fn gpu_desc_implements_the_model_faithfully() {
        let t = a100();
        let m: &dyn TargetModel = &t;
        assert_eq!(m.kind(), TargetKind::Gpu);
        assert_eq!(m.name(), "NVIDIA A100");
        assert_eq!(m.exec_width(), 32);
        assert_eq!(m.desc().sm_count, 108);
        assert_eq!(m.fingerprint(), TargetDesc::fingerprint(&t));
        assert_eq!(m.desc(), &t);
    }

    #[test]
    fn cpu_targets_have_expected_identity() {
        let d = cpu_desktop8();
        let s = cpu_server64();
        assert_eq!(d.kind(), TargetKind::Cpu);
        assert_eq!(d.exec_width(), 8, "AVX2 = 8 f32 lanes");
        assert_eq!(s.exec_width(), 16, "AVX-512 = 16 f32 lanes");
        assert_eq!(d.sm_count, 8);
        assert_eq!(s.sm_count, 64);
        assert!(d.clock_hz > s.clock_hz, "desktop clocks higher");
        assert!(s.dram_bw > d.dram_bw, "server has more bandwidth");
        // Registers must never be the CPU occupancy limiter.
        for c in [&d, &s] {
            assert!(c.regs_per_sm >= c.max_regs_per_thread * c.max_threads_per_sm);
        }
    }

    #[test]
    fn cpu_fingerprints_are_disjoint_from_gpu_and_each_other() {
        let mut fps: Vec<u64> = all_targets().iter().map(TargetDesc::fingerprint).collect();
        fps.extend(all_cpu_targets().iter().map(TargetDesc::fingerprint));
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Parameter tweaks must change the fingerprint.
        let base = cpu_desktop8().fingerprint();
        let mut t = cpu_desktop8();
        t.warp_size = 16;
        assert_ne!(t.fingerprint(), base);
        let mut t = cpu_desktop8();
        t.dram_bw *= 1.0000001;
        assert_ne!(t.fingerprint(), base);
    }

    #[test]
    fn feature_vectors_are_positive_and_discriminate_registry_targets() {
        let mut seen: Vec<[u64; 5]> = Vec::new();
        for name in TARGET_NAMES {
            let m = by_name(name).expect("registered target");
            let f = m.feature_vector();
            assert!(
                f.iter().all(|&v| v.is_finite() && v > 0.0),
                "{name}: features must be strictly positive for log-space \
                 distances, got {f:?}"
            );
            seen.push(f.map(f64::to_bits));
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            TARGET_NAMES.len(),
            "no two registry targets may share a feature vector, or \
             nearest-neighbor dispatch could not tell them apart"
        );
    }

    #[test]
    fn registry_resolves_every_name_to_a_unique_fingerprint() {
        let mut fps = Vec::new();
        for name in TARGET_NAMES {
            let m = by_name(name).expect("registered target");
            assert_ne!(m.fingerprint(), 0);
            fps.push(m.fingerprint());
        }
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), TARGET_NAMES.len());
        assert!(by_name("h100").is_none());
        assert!(by_name("cpu-desktop8").unwrap().kind() == TargetKind::Cpu);
        assert!(by_name("a100").unwrap().kind() == TargetKind::Gpu);
    }

    #[test]
    fn registry_fingerprints_are_pinned() {
        // Persisted cache keys: a changed value orphans every stored entry
        // for that target. The two CPU values equal what the CPU keys
        // hashed to when a CPU was a separate struct projected onto these
        // fields, so the CPU literals carry that projection's values.
        let pinned: [u64; 6] = [
            0xd1e3_f44f_468d_4026,
            0x21c5_00fc_e0b5_61a1,
            0xc426_c45a_a778_af60,
            0x303b_d30d_52fb_59d6,
            0x87ee_9a59_0f0c_44c9,
            0xdb71_8f37_6ba6_0d9e,
        ];
        for (name, fp) in TARGET_NAMES.into_iter().zip(pinned) {
            let got = by_name(name).expect("registered target").fingerprint();
            assert_eq!(got, fp, "{name}: {got:#018x}");
        }
    }
}
