//! Target descriptors and the [`TargetModel`] trait.
//!
//! The four GPUs of Table I in the paper, transcribed into the resource and
//! throughput parameters the occupancy calculator and timing model consume,
//! plus multicore CPU descriptors for the GPU-to-CPU retargeting path.
//! Retargeting a kernel from NVIDIA to AMD is — exactly as in the paper —
//! nothing more than compiling the same IR against a different descriptor;
//! retargeting to a CPU additionally lowers the IR (see `respec_opt`'s
//! CPU lowering pass) before it meets the same tuner and simulator.
//!
//! Every layer above the simulator (tune engine, persistent cache keys,
//! serve scheduler, facade) depends on the [`TargetModel`] trait, not on
//! the concrete structs, so adding a target *family* is implementing one
//! trait — the alpaka-style hierarchical-redundant-parallelism idiom.

use std::fmt;
use std::sync::Arc;

/// GPU vendor, which determines the execution-width conventions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Vendor {
    /// CUDA-style: 32-thread warps.
    Nvidia,
    /// ROCm-style: 64-thread wavefronts.
    Amd,
    /// Multicore CPU projected into the simulator's units×lanes model
    /// (used only by [`CpuTargetDesc::sim_desc`] projections).
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

/// The target-model abstraction every layer above the simulator depends
/// on: the queries a tuning decision can observe, as trait methods.
///
/// Contract:
///
/// * [`fingerprint`](TargetModel::fingerprint) must change whenever any
///   parameter that can influence compile feedback, pruning, or simulated
///   timing changes, and must be disjoint across implementations of
///   different [`kind`](TargetModel::kind)s (each implementation hashes a
///   kind-specific domain tag).
/// * [`sim_desc`](TargetModel::sim_desc) projects the model into the
///   simulator's units×lanes machine: `sm_count` parallel units each
///   executing `warp_size`-wide lock-step groups. For GPUs this is the
///   identity; for CPUs, cores×SIMD-lanes.
/// * `Send + Sync` because tune workers share one model across threads;
///   `Debug` because the facade's `Compiler`/`Compiled` derive it.
pub trait TargetModel: Send + Sync + fmt::Debug {
    /// Marketing name, e.g. `"NVIDIA A100"` or `"CPU Desktop 8c"`.
    fn name(&self) -> &str;

    /// Which target family this is (decides lowering and cache-key kind).
    fn kind(&self) -> TargetKind;

    /// Stable 64-bit fingerprint of every tuning-relevant parameter.
    fn fingerprint(&self) -> u64;

    /// Width of the lock-step execution group: warp/wavefront size on
    /// GPUs, SIMD f32 lanes on CPUs. The CPU lowering pass uses this as
    /// the lane-parallel width of fissioned loops.
    fn exec_width(&self) -> u32;

    /// Independent parallel processors: SMs/CUs on GPUs, cores on CPUs.
    fn parallel_units(&self) -> u32;

    /// Core clock in Hz.
    fn clock_hz(&self) -> f64;

    /// Maximum threads per block the target accepts.
    fn max_threads_per_block(&self) -> u32;

    /// Scratchpad budget per block in bytes. The tune engine prunes
    /// candidates whose static shared usage exceeds this. CPU models
    /// report their effective stack/L1-resident budget (generous, since
    /// lowering demotes shared allocations to private memory).
    fn shared_per_block(&self) -> u64;

    /// Registers per thread before the backend must spill.
    fn max_regs_per_thread(&self) -> u32;

    /// Projection into the simulator's units×lanes machine model. The
    /// decoded-op interpreter, occupancy calculator, and timing model run
    /// against this descriptor unchanged for every target family.
    fn sim_desc(&self) -> TargetDesc;

    /// Feature vector for nearest-neighbor target matching: execution
    /// width, parallel units, per-block scratch budget, and the two cache
    /// levels of the simulator projection, in that order. A fat binary's
    /// runtime dispatcher compares these (in log space — the quantities
    /// span orders of magnitude) to pick a variant for a target whose
    /// fingerprint it has never seen. Strictly positive by construction,
    /// so `ln` is always defined.
    fn feature_vector(&self) -> [f64; 5] {
        let d = self.sim_desc();
        [
            f64::from(self.exec_width()),
            f64::from(self.parallel_units()),
            self.shared_per_block() as f64,
            d.l1_bytes as f64,
            d.l2_bytes as f64,
        ]
    }
}

/// A GPU target description: occupancy-limiting resources (§II-A3) plus
/// execution resources for the timing model.
#[derive(Clone, Debug, PartialEq)]
pub struct TargetDesc {
    /// Marketing name, e.g. `"NVIDIA A100"`.
    pub name: &'static str,
    /// Vendor (decides warp vs wavefront width).
    pub vendor: Vendor,
    /// Threads per warp/wavefront.
    pub warp_size: u32,
    /// Number of streaming multiprocessors (compute units).
    pub sm_count: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,

    // ---- occupancy-limiting resources (per SM) ----
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum registers per thread before the backend must spill.
    pub max_regs_per_thread: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: u64,
    /// Maximum shared memory per block in bytes.
    pub shared_per_block: u64,

    // ---- execution resources ----
    /// Peak single-precision throughput in FLOP/s.
    pub fp32_flops: f64,
    /// Peak double-precision throughput in FLOP/s.
    pub fp64_flops: f64,
    /// Special-function throughput (sqrt/exp/…) in op/s.
    pub sfu_ops: f64,
    /// Warp instruction issue slots per SM per cycle.
    pub issue_per_sm_per_cycle: f64,
    /// Load/store unit: global/shared access slots per SM per cycle
    /// (warp-level requests).
    pub lsu_per_sm_per_cycle: f64,
    /// Shared-memory banks (bank conflicts serialize accesses).
    pub shared_banks: u32,

    // ---- memory hierarchy ----
    /// DRAM bandwidth in bytes/s.
    pub dram_bw: f64,
    /// L2 bandwidth in bytes/s.
    pub l2_bw: f64,
    /// Total L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L1 capacity per SM in bytes.
    pub l1_bytes: u64,
    /// Average DRAM access latency in cycles.
    pub dram_latency: f64,
    /// Average L2 hit latency in cycles.
    pub l2_latency: f64,
    /// Average L1 hit latency in cycles.
    pub l1_latency: f64,
    /// Arithmetic pipeline latency in cycles.
    pub alu_latency: f64,
    /// Global memory size in bytes.
    pub global_bytes: u64,
}

impl TargetDesc {
    /// Stable 64-bit fingerprint of every field that influences compile
    /// feedback, pruning, or simulated timing — i.e. everything a tuning
    /// decision can depend on. Two descriptors fingerprint equal iff they
    /// describe the same machine, so the fingerprint is a sound persistent
    /// cache-key component: a respecialized winner cached for one target
    /// can never be served for a differently-parameterized one.
    pub fn fingerprint(&self) -> u64 {
        let mut h = respec_ir::StableHasher::new();
        h.write_str(self.name);
        h.write_str(match self.vendor {
            Vendor::Nvidia => "nvidia",
            Vendor::Amd => "amd",
            Vendor::Cpu => "cpu-projection",
        });
        for v in [
            u64::from(self.warp_size),
            u64::from(self.sm_count),
            u64::from(self.regs_per_sm),
            u64::from(self.max_regs_per_thread),
            u64::from(self.max_threads_per_sm),
            u64::from(self.max_blocks_per_sm),
            u64::from(self.max_threads_per_block),
            self.shared_per_sm,
            self.shared_per_block,
            u64::from(self.shared_banks),
            self.l2_bytes,
            self.l1_bytes,
            self.global_bytes,
        ] {
            h.write_u64(v);
        }
        for v in [
            self.clock_hz,
            self.fp32_flops,
            self.fp64_flops,
            self.sfu_ops,
            self.issue_per_sm_per_cycle,
            self.lsu_per_sm_per_cycle,
            self.dram_bw,
            self.l2_bw,
            self.dram_latency,
            self.l2_latency,
            self.l1_latency,
            self.alu_latency,
        ] {
            h.write_f64(v);
        }
        h.finish()
    }

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
    fn name(&self) -> &str {
        self.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Gpu
    }

    fn fingerprint(&self) -> u64 {
        TargetDesc::fingerprint(self)
    }

    fn exec_width(&self) -> u32 {
        self.warp_size
    }

    fn parallel_units(&self) -> u32 {
        self.sm_count
    }

    fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    fn max_threads_per_block(&self) -> u32 {
        self.max_threads_per_block
    }

    fn shared_per_block(&self) -> u64 {
        self.shared_per_block
    }

    fn max_regs_per_thread(&self) -> u32 {
        self.max_regs_per_thread
    }

    fn sim_desc(&self) -> TargetDesc {
        self.clone()
    }
}

/// A multicore CPU target: cores with SIMD vector units and a private-L1/
/// private-L2/shared-L3 cache hierarchy.
///
/// The GPU-to-CPU retargeting path (companion paper: Moses/Ivanov et al.,
/// "High-Performance GPU-to-CPU Transpilation and Optimization via
/// High-Level Parallel Constructs") lowers block/thread parallel loops to
/// tiled sequential loops per core, shared memory to stack/L1-resident
/// buffers, and barriers to loop fission — then the *same* tuner and
/// simulator run against [`CpuTargetDesc::sim_desc`]'s projection.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuTargetDesc {
    /// Marketing name, e.g. `"CPU Desktop 8c AVX2"`.
    pub name: &'static str,
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads per core (SMT ways).
    pub smt: u32,
    /// SIMD f32 lanes per vector unit (8 = AVX2, 16 = AVX-512).
    pub simd_width: u32,
    /// Sustained all-core clock in Hz.
    pub clock_hz: f64,
    /// Vector instruction issue slots per core per cycle.
    pub issue_per_core_per_cycle: f64,
    /// Load/store slots per core per cycle (vector-wide requests).
    pub lsu_per_core_per_cycle: f64,
    /// Peak single-precision throughput in FLOP/s (cores × lanes × 2 FMA
    /// pipes × clock for the defaults below).
    pub fp32_flops: f64,
    /// Peak double-precision throughput in FLOP/s.
    pub fp64_flops: f64,
    /// Special-function throughput (sqrt/exp/…) in op/s.
    pub sfu_ops: f64,
    /// Per-core L1 data cache in bytes.
    pub l1d_bytes: u64,
    /// Per-core private L2 in bytes.
    pub l2_bytes: u64,
    /// Shared last-level cache in bytes.
    pub l3_bytes: u64,
    /// DRAM bandwidth in bytes/s.
    pub dram_bw: f64,
    /// Shared-LLC bandwidth in bytes/s.
    pub l3_bw: f64,
    /// DRAM access latency in cycles.
    pub dram_latency: f64,
    /// L3 hit latency in cycles.
    pub l3_latency: f64,
    /// L2 hit latency in cycles.
    pub l2_latency: f64,
    /// L1 hit latency in cycles.
    pub l1_latency: f64,
    /// Arithmetic pipeline latency in cycles.
    pub alu_latency: f64,
    /// Main memory size in bytes.
    pub global_bytes: u64,
    /// Register budget per logical thread the backend may use before
    /// spilling (architectural + rename headroom).
    pub max_regs_per_thread: u32,
    /// Maximum threads per block accepted before lowering (matches the
    /// GPU limit so the same kernels pass precheck on both families).
    pub max_threads_per_block: u32,
}

impl CpuTargetDesc {
    /// Stable 64-bit fingerprint. Hashes a `"cpu"` domain tag first, so a
    /// CPU fingerprint can never collide with a [`TargetDesc`] fingerprint
    /// even for identical numeric parameters.
    pub fn fingerprint(&self) -> u64 {
        let mut h = respec_ir::StableHasher::new();
        h.write_str("cpu");
        h.write_str(self.name);
        for v in [
            u64::from(self.cores),
            u64::from(self.smt),
            u64::from(self.simd_width),
            self.l1d_bytes,
            self.l2_bytes,
            self.l3_bytes,
            self.global_bytes,
            u64::from(self.max_regs_per_thread),
            u64::from(self.max_threads_per_block),
        ] {
            h.write_u64(v);
        }
        for v in [
            self.clock_hz,
            self.issue_per_core_per_cycle,
            self.lsu_per_core_per_cycle,
            self.fp32_flops,
            self.fp64_flops,
            self.sfu_ops,
            self.dram_bw,
            self.l3_bw,
            self.dram_latency,
            self.l3_latency,
            self.l2_latency,
            self.l1_latency,
            self.alu_latency,
        ] {
            h.write_f64(v);
        }
        h.finish()
    }

    /// Effective per-block scratch budget after lowering demotes shared
    /// allocations to private (stack/L1-resident) buffers: one private L2
    /// per core. Generous by GPU standards — the CPU has no scratchpad
    /// cliff, it has a cache gradient.
    pub fn scratch_per_block(&self) -> u64 {
        self.l2_bytes
    }
}

impl TargetModel for CpuTargetDesc {
    fn name(&self) -> &str {
        self.name
    }

    fn kind(&self) -> TargetKind {
        TargetKind::Cpu
    }

    fn fingerprint(&self) -> u64 {
        CpuTargetDesc::fingerprint(self)
    }

    fn exec_width(&self) -> u32 {
        self.simd_width
    }

    fn parallel_units(&self) -> u32 {
        self.cores
    }

    fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    fn max_threads_per_block(&self) -> u32 {
        self.max_threads_per_block
    }

    fn shared_per_block(&self) -> u64 {
        self.scratch_per_block()
    }

    fn max_regs_per_thread(&self) -> u32 {
        self.max_regs_per_thread
    }

    /// Projects the CPU into the simulator's units×lanes model:
    ///
    /// * one "SM" per core, `warp_size` = SIMD lanes (a fissioned lane
    ///   loop steps all lanes of a core in lock-step, exactly like a
    ///   vectorized loop body);
    /// * the simulator's per-SM "L1" is the core's *private L2* and its
    ///   shared "L2" is the *L3*, preserving the private-vs-shared split
    ///   the cache model discriminates on;
    /// * occupancy caps model SMT: at most `smt` resident blocks per
    ///   core, each up to `max_threads_per_block` logical threads (the
    ///   un-fissioned fallback tier oversubscribes lanes fiber-style);
    /// * registers are set high enough never to be the occupancy limiter —
    ///   a CPU spills to stack, it does not shed residency.
    fn sim_desc(&self) -> TargetDesc {
        let max_threads_per_sm = self.max_threads_per_block * self.smt.max(1);
        TargetDesc {
            name: self.name,
            vendor: Vendor::Cpu,
            warp_size: self.simd_width,
            sm_count: self.cores,
            clock_hz: self.clock_hz,
            regs_per_sm: self.max_regs_per_thread * max_threads_per_sm,
            max_regs_per_thread: self.max_regs_per_thread,
            max_threads_per_sm,
            max_blocks_per_sm: self.smt.max(1),
            max_threads_per_block: self.max_threads_per_block,
            shared_per_sm: self.scratch_per_block() * u64::from(self.smt.max(1)),
            shared_per_block: self.scratch_per_block(),
            fp32_flops: self.fp32_flops,
            fp64_flops: self.fp64_flops,
            sfu_ops: self.sfu_ops,
            issue_per_sm_per_cycle: self.issue_per_core_per_cycle,
            lsu_per_sm_per_cycle: self.lsu_per_core_per_cycle,
            shared_banks: self.simd_width.max(1),
            dram_bw: self.dram_bw,
            l2_bw: self.l3_bw,
            l2_bytes: self.l3_bytes,
            l1_bytes: self.l2_bytes,
            dram_latency: self.dram_latency,
            l2_latency: self.l3_latency,
            l1_latency: self.l2_latency,
            alu_latency: self.alu_latency,
            global_bytes: self.global_bytes,
        }
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
pub fn cpu_desktop8() -> CpuTargetDesc {
    CpuTargetDesc {
        name: "CPU Desktop 8c AVX2",
        cores: 8,
        smt: 2,
        simd_width: 8,
        clock_hz: 4.5e9,
        issue_per_core_per_cycle: 2.0,
        lsu_per_core_per_cycle: 2.0,
        // 8 cores × 8 lanes × 2 FMA pipes × 2 flops × 4.5 GHz
        fp32_flops: 1.152e12,
        fp64_flops: 0.576e12,
        sfu_ops: 0.288e12,
        l1d_bytes: 48 * 1024,
        l2_bytes: 1024 * 1024,
        l3_bytes: 32 * 1024 * 1024,
        dram_bw: 60.0e9,
        l3_bw: 400.0e9,
        dram_latency: 350.0,
        l3_latency: 45.0,
        l2_latency: 14.0,
        l1_latency: 5.0,
        alu_latency: 4.0,
        global_bytes: 32u64 * 1024 * 1024 * 1024,
        max_regs_per_thread: 128,
        max_threads_per_block: 1024,
    }
}

/// A 64-core AVX-512 server (Sapphire-Rapids/Genoa-class): many cores,
/// wide vectors, lower clock, large shared LLC and memory bandwidth.
pub fn cpu_server64() -> CpuTargetDesc {
    CpuTargetDesc {
        name: "CPU Server 64c AVX-512",
        cores: 64,
        smt: 2,
        simd_width: 16,
        clock_hz: 2.6e9,
        issue_per_core_per_cycle: 2.0,
        lsu_per_core_per_cycle: 2.0,
        // 64 cores × 16 lanes × 2 FMA pipes × 2 flops × 2.6 GHz
        fp32_flops: 10.65e12,
        fp64_flops: 5.33e12,
        sfu_ops: 1.33e12,
        l1d_bytes: 48 * 1024,
        l2_bytes: 2 * 1024 * 1024,
        l3_bytes: 256 * 1024 * 1024,
        dram_bw: 300.0e9,
        l3_bw: 1.2e12,
        dram_latency: 400.0,
        l3_latency: 60.0,
        l2_latency: 16.0,
        l1_latency: 5.0,
        alu_latency: 4.0,
        global_bytes: 256u64 * 1024 * 1024 * 1024,
        max_regs_per_thread: 128,
        max_threads_per_block: 1024,
    }
}

/// Both simulated CPU evaluation targets.
pub fn all_cpu_targets() -> Vec<CpuTargetDesc> {
    vec![cpu_desktop8(), cpu_server64()]
}

/// Canonical protocol names of every registered target, GPU and CPU, in
/// registry order. One naming scheme for serve, bench, and examples.
pub const TARGET_NAMES: [&str; 6] = [
    "a4000",
    "rx6800",
    "a100",
    "mi210",
    "cpu-desktop8",
    "cpu-server64",
];

/// The canonical target registry: resolves a protocol name to its target
/// model. Covers the four Table I GPUs and both simulated CPU targets;
/// every consumer (serve daemon, bench bins, examples) resolves names
/// through here, so there is exactly one naming scheme and one
/// fingerprint rule per name.
pub fn by_name(name: &str) -> Option<Arc<dyn TargetModel>> {
    match name {
        "a4000" => Some(Arc::new(a4000())),
        "rx6800" => Some(Arc::new(rx6800())),
        "a100" => Some(Arc::new(a100())),
        "mi210" => Some(Arc::new(mi210())),
        "cpu-desktop8" => Some(Arc::new(cpu_desktop8())),
        "cpu-server64" => Some(Arc::new(cpu_server64())),
        _ => None,
    }
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
        assert_eq!(m.parallel_units(), 108);
        assert_eq!(m.fingerprint(), TargetDesc::fingerprint(&t));
        assert_eq!(m.sim_desc(), t);
    }

    #[test]
    fn cpu_targets_have_expected_identity() {
        let d = cpu_desktop8();
        let s = cpu_server64();
        assert_eq!(d.kind(), TargetKind::Cpu);
        assert_eq!(d.exec_width(), 8, "AVX2 = 8 f32 lanes");
        assert_eq!(s.exec_width(), 16, "AVX-512 = 16 f32 lanes");
        assert_eq!(d.parallel_units(), 8);
        assert_eq!(s.parallel_units(), 64);
        assert!(d.clock_hz() > s.clock_hz(), "desktop clocks higher");
        assert!(s.dram_bw > d.dram_bw, "server has more bandwidth");
    }

    #[test]
    fn cpu_fingerprints_are_disjoint_from_gpu_and_each_other() {
        let mut fps: Vec<u64> = all_targets().iter().map(TargetDesc::fingerprint).collect();
        fps.extend(all_cpu_targets().iter().map(CpuTargetDesc::fingerprint));
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Parameter tweaks must change the fingerprint.
        let base = cpu_desktop8().fingerprint();
        let mut t = cpu_desktop8();
        t.simd_width = 16;
        assert_ne!(t.fingerprint(), base);
        let mut t = cpu_desktop8();
        t.dram_bw *= 1.0000001;
        assert_ne!(t.fingerprint(), base);
    }

    #[test]
    fn cpu_projection_preserves_hierarchy_semantics() {
        let c = cpu_desktop8();
        let p = c.sim_desc();
        assert_eq!(p.vendor, Vendor::Cpu);
        assert_eq!(p.warp_size, c.simd_width);
        assert_eq!(p.sm_count, c.cores);
        assert_eq!(p.max_blocks_per_sm, c.smt, "SMT bounds residency");
        assert_eq!(p.l1_bytes, c.l2_bytes, "sim-L1 is the private L2");
        assert_eq!(p.l2_bytes, c.l3_bytes, "sim-L2 is the shared L3");
        // Registers must never be the CPU occupancy limiter.
        assert!(p.regs_per_sm >= p.max_regs_per_thread * p.max_threads_per_sm);
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
}
