//! Kernel launch orchestration: grid/block/warp expansion, phase-wise
//! lock-step execution around barriers, and statistics collection.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use respec_ir::{diag, Diagnostic, Function, MemSpace, OpId, Value};
use respec_trace::Trace;

use crate::cache::Cache;
use crate::decoded::DecodedProgram;
use crate::interp::{want_int, SimError, WarpCounters};
use crate::memory::{BufferId, DeviceMemory};
use crate::occupancy::{occupancy, BlockResources, Occupancy};
use crate::stats::{ExecStats, WarpMerger};
use crate::target::TargetDesc;
use crate::timing::{estimate, Timing, LAUNCH_OVERHEAD_S};
use crate::value::{MemVal, RtVal, Store};
use crate::warp::{WarpCx, WarpInterp, WarpPhase};

/// A host-side kernel argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelArg {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// `index`-typed integer.
    Index(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// Device buffer (appears as a 1-D dynamic memref).
    Buf(BufferId),
}

/// Per-launch execution options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaunchOptions {
    /// The backend's per-thread register estimate (occupancy input).
    pub regs_per_thread: u32,
    /// Run the shared-memory sanitizer: track the last writer of every
    /// shared cell per barrier interval and record conflicting accesses by
    /// distinct threads as [`RaceRecord`]s. Observational only — results
    /// and timing estimates are unchanged.
    pub sanitize_shared: bool,
}

impl LaunchOptions {
    /// Options with the given register estimate and the sanitizer off.
    pub fn new(regs_per_thread: u32) -> LaunchOptions {
        LaunchOptions {
            regs_per_thread,
            sanitize_shared: false,
        }
    }

    /// Enables or disables the shared-memory sanitizer.
    pub fn sanitize(mut self, on: bool) -> LaunchOptions {
        self.sanitize_shared = on;
        self
    }
}

impl Default for LaunchOptions {
    fn default() -> LaunchOptions {
        LaunchOptions::new(32)
    }
}

/// How the launcher executes the threads of a warp: the reference switch of
/// the differential tests, not a production option.
///
/// Both modes are bit-identical in simulated results, statistics and timing
/// estimates for any kernel that completes. They differ in what the
/// differential tests compare: masking, reconvergence, uniform folding and
/// warp-level access records against lane-by-lane execution and the merging
/// of per-lane events.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Every warp of a block starts despooled: each lane runs on its own
    /// width-one machine (the reference mode).
    Scalar,
    /// One lock-step machine per warp (the default). A divergent `if`/`for`
    /// with no barrier, alloc or `while` below it runs under a lane mask and
    /// reconverges at its end; any other divergence despools each lane into
    /// a width-one machine for the rest of the block.
    WarpVectorized,
}

/// A dynamic shared-memory race observed by the sanitizer: two distinct
/// threads of one block touched the same shared cell in the same barrier
/// interval, at least one of them writing.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceRecord {
    /// Kernel name.
    pub kernel: String,
    /// `"race-ww"` for write-write, `"race-rw"` for read-write.
    pub code: &'static str,
    /// Raw op index of the access that completed the race (observed second).
    pub op_a: u32,
    /// Raw op index of the conflicting access.
    pub op_b: u32,
    /// Simulated byte address of the contended cell.
    pub addr: u64,
    /// Linear thread ids of the two conflicting threads.
    pub threads: (u32, u32),
}

impl RaceRecord {
    /// Renders the record as a [`Diagnostic`] located at `op_a` of `func`.
    pub fn to_diagnostic(&self, func: &Function) -> Diagnostic {
        let what = if self.code == "race-ww" {
            "write-write race"
        } else {
            "read-write race"
        };
        Diagnostic::error(
            self.code,
            format!(
                "sanitizer: {what} on shared memory at address {:#x}: threads {} and {} \
                 conflict with {} in the same barrier interval",
                self.addr,
                self.threads.0,
                self.threads.1,
                diag::op_path(func, OpId::from_index(self.op_b as usize)),
            ),
        )
        .at_op(func, OpId::from_index(self.op_a as usize))
    }
}

/// How the executor ran a launch: host-side bookkeeping that lives outside
/// [`ExecStats`] — and so outside caches, goldens and the determinism
/// contract — because it describes the simulator, not the simulated machine.
/// All zero when every warp runs lane by lane from the start (despooled lanes
/// count no warp phases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Lock-step warp phases run (one warp up to its next barrier or end).
    pub warp_phases: u64,
    /// Divergent `if`/`for` ops executed under a lane mask.
    pub masked_branches: u64,
    /// Warps that fell back to one width-one machine per lane.
    pub despooled_warps: u64,
}

impl ExecCounters {
    fn accumulate(&mut self, other: &ExecCounters) {
        self.warp_phases += other.warp_phases;
        self.masked_branches += other.masked_branches;
        self.despooled_warps += other.despooled_warps;
    }
}

/// Where the *host's* time went in a launch, in nanoseconds of wall clock:
/// the simulator's own cost, measured with coarse `Instant` pairs (one per
/// warp phase, one per merge). Like [`ExecCounters`] it describes the
/// simulator, not the simulated machine, and is outside the determinism
/// contract: two identical launches report different values.
///
/// What the four fields leave of a launch's wall time is the host and block
/// scopes and the launch bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostTime {
    /// Decoding the kernel and building the interpreter scratch.
    pub setup_ns: u64,
    /// Functional execution of the thread level: warp phases and despooled
    /// lanes.
    pub exec_ns: u64,
    /// Merging warp phases: issue counts, coalescing, bank conflicts, caches.
    pub account_ns: u64,
    /// Occupancy and the analytic timing estimate.
    pub model_ns: u64,
}

impl HostTime {
    fn accumulate(&mut self, other: &HostTime) {
        self.setup_ns += other.setup_ns;
        self.exec_ns += other.exec_ns;
        self.account_ns += other.account_ns;
        self.model_ns += other.model_ns;
    }
}

/// Nanoseconds since `since`, saturating.
fn ns_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Result of one simulated kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchReport {
    /// Kernel name.
    pub kernel: String,
    /// Estimated kernel execution time in seconds (excl. launch overhead).
    pub kernel_seconds: f64,
    /// Aggregate execution counters.
    pub stats: ExecStats,
    /// Timing breakdown of the dominant block-parallel segment.
    pub timing: Timing,
    /// Occupancy of the dominant segment.
    pub occupancy: Occupancy,
    /// Total blocks launched (all segments, incl. coarsening epilogues).
    pub blocks: u64,
    /// Races the shared-memory sanitizer observed (empty when disabled).
    pub races: Vec<RaceRecord>,
    /// Executor counters of this launch.
    pub exec: ExecCounters,
    /// Host time of this launch by phase.
    pub host: HostTime,
}

/// A simulated GPU: device memory, cache hierarchy, a target description and
/// an accumulated wall-clock.
#[derive(Debug)]
pub struct GpuSim {
    /// The target GPU.
    pub target: TargetDesc,
    /// Device memory (allocate buffers here).
    pub mem: DeviceMemory,
    l1: Vec<Cache>,
    l2: Cache,
    /// Accumulated simulated time over all launches, in seconds — the
    /// paper's *composite* measurement (§VII-A) when host logic is included.
    pub elapsed_seconds: f64,
    /// Per-launch kernel timings, in launch order — the paper's *kernel*
    /// measurement scope (§VII-A).
    pub launch_log: Vec<KernelTiming>,
    total_stats: ExecStats,
    total_exec: ExecCounters,
    total_host: HostTime,
    trace: Trace,
    sanitize_shared: bool,
    races: Vec<RaceRecord>,
    exec_mode: ExecMode,
}

/// One entry of [`GpuSim::launch_log`].
#[derive(Clone, Debug, PartialEq)]
pub struct KernelTiming {
    /// Kernel name.
    pub kernel: String,
    /// Kernel execution time in seconds (excl. launch overhead).
    pub seconds: f64,
    /// Execution counters of this launch.
    pub stats: ExecStats,
}

impl GpuSim {
    /// Creates a simulator for any target model, GPU or CPU: the model's
    /// [`crate::TargetModel::sim_desc`] projection supplies the machine description
    /// the decoded-op interpreter and timing model run against.
    pub fn for_model(model: &dyn crate::TargetModel) -> GpuSim {
        GpuSim::new(model.sim_desc())
    }

    /// Creates a simulator for the given target.
    pub fn new(target: TargetDesc) -> GpuSim {
        let l1 = (0..target.sm_count)
            .map(|_| Cache::new(target.l1_bytes, 32, 8))
            .collect();
        let l2 = Cache::new(target.l2_bytes, 32, 16);
        GpuSim {
            target,
            mem: DeviceMemory::new(),
            l1,
            l2,
            elapsed_seconds: 0.0,
            launch_log: Vec::new(),
            total_stats: ExecStats::default(),
            total_exec: ExecCounters::default(),
            total_host: HostTime::default(),
            trace: Trace::disabled(),
            sanitize_shared: false,
            races: Vec::new(),
            exec_mode: ExecMode::WarpVectorized,
        }
    }

    /// Selects lane-by-lane or lock-step thread execution for subsequent
    /// launches (the differential tests' reference switch). Both modes are
    /// bit-identical in results, statistics and timing. Defaults to
    /// [`ExecMode::WarpVectorized`].
    #[doc(hidden)]
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// Turns the shared-memory sanitizer on or off for subsequent launches
    /// (including launches an application drives internally). Observational
    /// only: simulated results and timings are unchanged; observed races
    /// accumulate in [`GpuSim::races`].
    pub fn set_sanitize_shared(&mut self, on: bool) {
        self.sanitize_shared = on;
    }

    /// Races the sanitizer has observed over all launches so far.
    pub fn races(&self) -> &[RaceRecord] {
        &self.races
    }

    /// Removes and returns all accumulated sanitizer race records.
    pub fn take_races(&mut self) -> Vec<RaceRecord> {
        std::mem::take(&mut self.races)
    }

    /// Attaches a trace: every subsequent [`GpuSim::launch`] records a
    /// `launch:<kernel>` span with occupancy, coalescing/cache counters and
    /// the timing-model breakdown. Tracing is observational only — it never
    /// changes simulated results.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The currently attached trace handle (disabled by default).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Aggregate execution counters over every launch so far.
    pub fn total_stats(&self) -> &ExecStats {
        &self.total_stats
    }

    /// Executor counters summed over every launch so far.
    pub fn exec_counters(&self) -> ExecCounters {
        self.total_exec
    }

    /// Host time by launch phase, summed over every launch so far.
    pub fn host_time(&self) -> HostTime {
        self.total_host
    }

    /// Total kernel time of all launches of `name` (the paper's *kernel*
    /// measurement).
    pub fn kernel_seconds(&self, name: &str) -> f64 {
        self.launch_log
            .iter()
            .filter(|t| t.kernel == name)
            .map(|t| t.seconds)
            .sum()
    }

    /// Total kernel time across every launch (the composite measurement
    /// minus launch overheads and host logic).
    pub fn total_kernel_seconds(&self) -> f64 {
        self.launch_log.iter().map(|t| t.seconds).sum()
    }

    /// Total kernel time of launches of `name` at or above `cutoff`
    /// seconds. The paper's kernel measurements discard runs shorter than
    /// 0.0001 s (§VII-A); this is the same filter for the simulated scale.
    pub fn kernel_seconds_above(&self, name: &str, cutoff: f64) -> f64 {
        self.launch_log
            .iter()
            .filter(|t| t.kernel == name && t.seconds >= cutoff)
            .map(|t| t.seconds)
            .sum()
    }

    /// Aggregate execution counters of all launches of `name`.
    pub fn kernel_stats(&self, name: &str) -> ExecStats {
        let mut total = ExecStats::default();
        for t in self.launch_log.iter().filter(|t| t.kernel == name) {
            total.accumulate(&t.stats);
        }
        total
    }

    /// Launches `func` with the given grid extents, arguments and the
    /// backend's per-thread register estimate. Executes functionally and
    /// returns the performance estimate.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on argument mismatches, out-of-bounds
    /// accesses, or malformed kernels.
    pub fn launch(
        &mut self,
        func: &Function,
        grid: [i64; 3],
        args: &[KernelArg],
        regs_per_thread: u32,
    ) -> Result<LaunchReport, SimError> {
        let opts = LaunchOptions::new(regs_per_thread).sanitize(self.sanitize_shared);
        self.launch_with(func, grid, args, opts)
    }

    /// [`GpuSim::launch`] with explicit [`LaunchOptions`] (register
    /// estimate, shared-memory sanitizer).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on argument mismatches, out-of-bounds
    /// accesses, or malformed kernels.
    pub fn launch_with(
        &mut self,
        func: &Function,
        grid: [i64; 3],
        args: &[KernelArg],
        opts: LaunchOptions,
    ) -> Result<LaunchReport, SimError> {
        let regs_per_thread = opts.regs_per_thread;
        let mut sanitizer = opts
            .sanitize_shared
            .then(|| Sanitizer::new(func.name().to_string()));
        let mut span = self.trace.span("sim", format!("launch:{}", func.name()));
        span.record("grid", format!("{}x{}x{}", grid[0], grid[1], grid[2]));
        span.record("regs_per_thread", regs_per_thread);
        let params = func.params().to_vec();
        let Some(expected) = params.len().checked_sub(3) else {
            return Err(SimError::new(format!(
                "kernel {} has no grid parameters: its first three parameters \
                 must be the grid extents, found {}",
                func.name(),
                params.len()
            )));
        };
        if expected != args.len() {
            return Err(SimError::new(format!(
                "kernel {} expects {expected} arguments, got {}",
                func.name(),
                args.len()
            )));
        }
        // Decode the kernel once; every machine of this launch — host,
        // block, per-warp and per-lane — shares it.
        let setup_start = Instant::now();
        let program = Arc::new(DecodedProgram::decode(func));
        let mut host = WarpInterp::new(func, Arc::clone(&program), 1);
        host.restart(func.body(), 1);
        for (d, p) in params[..3].iter().enumerate() {
            host.set_with(*p, |_| RtVal::Int(grid[d]));
        }
        for (p, a) in params[3..].iter().zip(args) {
            let v = match *a {
                KernelArg::I32(v) => RtVal::Int(v as i64),
                KernelArg::I64(v) | KernelArg::Index(v) => RtVal::Int(v),
                KernelArg::F32(v) => RtVal::Float(v as f64),
                KernelArg::F64(v) => RtVal::Float(v),
                KernelArg::Buf(id) => {
                    let len = self.mem.len(id) as i64;
                    RtVal::Mem(MemVal::new(id, 1, [len, 1, 1], MemSpace::Global))
                }
            };
            host.set_with(*p, |_| v);
        }

        // Machines shared across every segment, block and thread of this
        // launch: pools are allocated once and restarted, never rebuilt per
        // block.
        let mut scratch = LaunchScratch {
            threads: ThreadScratch {
                lane_pool: Vec::new(),
                counter_pool: Vec::new(),
                warp_pool: Vec::new(),
                merger: WarpMerger::default(),
                program: Arc::clone(&program),
                exec: ExecCounters::default(),
                host: HostTime::default(),
            },
            block: WarpInterp::new(func, program, 1),
            scope_counters: WarpCounters::new(func.num_ops(), 1),
        };
        scratch.threads.host.setup_ns = ns_since(setup_start);

        let mut stats = ExecStats::default();
        let mut dominant: Option<(Timing, Occupancy, u64)> = None;
        let mut total_blocks = 0u64;
        while let Some(par_op) = run_scope(
            &mut host,
            &mut self.mem,
            &[],
            &mut scratch.scope_counters,
            "barrier at host level",
        )? {
            let seg = self.run_block_parallel(
                func,
                par_op,
                host.regs(),
                regs_per_thread,
                &mut sanitizer,
                &mut scratch,
            )?;
            stats.accumulate(&seg.stats);
            total_blocks += seg.blocks;
            match &dominant {
                Some((t, _, _)) if t.seconds >= seg.timing.seconds => {}
                _ => dominant = Some((seg.timing, seg.occupancy, seg.blocks)),
            }
        }
        let (timing, occ) = match dominant {
            Some((t, o, _)) => (t, o),
            None => {
                return Err(SimError::new(format!(
                    "kernel {} contains no block-parallel loop",
                    func.name()
                )))
            }
        };
        // Total time: sum of segment estimates ≈ recompute over accumulated
        // stats of the dominant occupancy (segments run back-to-back).
        let model_start = Instant::now();
        let total_timing = estimate(&self.target, &stats, &occ, total_blocks.max(1));
        scratch.threads.host.model_ns += ns_since(model_start);
        let seconds = total_timing.seconds;
        let (exec, host_time) = (scratch.threads.exec, scratch.threads.host);
        self.elapsed_seconds += seconds + LAUNCH_OVERHEAD_S;
        self.total_stats.accumulate(&stats);
        self.total_exec.accumulate(&exec);
        self.total_host.accumulate(&host_time);
        self.launch_log.push(KernelTiming {
            kernel: func.name().to_string(),
            seconds,
            stats: stats.clone(),
        });
        if span.is_recording() {
            // Shape and occupancy.
            span.record("blocks", total_blocks);
            span.record("threads", stats.threads);
            span.record("warps", stats.warps);
            span.record("occupancy", occ.occupancy);
            span.record("blocks_per_sm", occ.blocks_per_sm);
            span.record("active_warps_per_sm", occ.active_warps_per_sm);
            span.record("occupancy_limiter", occ.limiter.to_string());
            // Coalescing and the cache hierarchy.
            span.record("global_load_requests", stats.global_load_requests);
            span.record("global_store_requests", stats.global_store_requests);
            span.record("read_sectors", stats.read_sectors);
            span.record("write_sectors", stats.write_sectors);
            span.record("l1_read_hits", stats.l1_read_hits);
            span.record("l2_read_hits", stats.l2_read_hits);
            span.record("dram_read_sectors", stats.dram_read_sectors);
            span.record("dram_write_sectors", stats.dram_write_sectors);
            if stats.read_sectors > 0 {
                span.record(
                    "l1_hit_rate",
                    stats.l1_read_hits as f64 / stats.read_sectors as f64,
                );
                let l1_misses = stats.read_sectors - stats.l1_read_hits;
                if l1_misses > 0 {
                    span.record("l2_hit_rate", stats.l2_read_hits as f64 / l1_misses as f64);
                }
            }
            span.record("dram_bytes", stats.dram_bytes());
            span.record("shared_read_requests", stats.shared_read_requests);
            span.record("shared_write_requests", stats.shared_write_requests);
            span.record("shared_conflict_extra", stats.shared_conflict_extra);
            span.record("barrier_waits", stats.barrier_waits);
            // Timing-model breakdown (whole-launch estimate).
            span.record("cycles:issue", total_timing.issue_cycles);
            span.record("cycles:int", total_timing.int_cycles);
            span.record("cycles:fp32", total_timing.fp32_cycles);
            span.record("cycles:fp64", total_timing.fp64_cycles);
            span.record("cycles:sfu", total_timing.sfu_cycles);
            span.record("cycles:lsu", total_timing.lsu_cycles);
            span.record("cycles:l2", total_timing.l2_cycles);
            span.record("cycles:dram", total_timing.dram_cycles);
            span.record("cycles:latency", total_timing.latency_cycles);
            span.record("cycles:sched", total_timing.sched_cycles);
            span.record("cycles:total", total_timing.total_cycles);
            span.record("bound_by", total_timing.bound_by());
            span.record("kernel_seconds", seconds);
            span.record("warp_phases", exec.warp_phases);
            span.record("masked_branches", exec.masked_branches);
            span.record("despooled_warps", exec.despooled_warps);
            span.record("host:setup_ns", host_time.setup_ns);
            span.record("host:exec_ns", host_time.exec_ns);
            span.record("host:account_ns", host_time.account_ns);
            span.record("host:model_ns", host_time.model_ns);
            if opts.sanitize_shared {
                let n = sanitizer.as_ref().map_or(0, |s| s.races.len());
                span.record("sanitizer_races", n as u64);
            }
        }
        let races = sanitizer.map(|s| s.races).unwrap_or_default();
        self.races.extend(races.iter().cloned());
        Ok(LaunchReport {
            kernel: func.name().to_string(),
            kernel_seconds: seconds,
            stats,
            timing,
            occupancy: occ,
            blocks: total_blocks,
            races,
            exec,
            host: host_time,
        })
    }

    fn run_block_parallel<'f>(
        &mut self,
        func: &'f Function,
        par_op: OpId,
        host_store: &Store,
        regs_per_thread: u32,
        sanitizer: &mut Option<Sanitizer>,
        scratch: &mut LaunchScratch<'f>,
    ) -> Result<Segment, SimError> {
        let op = func.op(par_op);
        let block_region = op.regions[0];
        let rank = op.operands.len();
        let mut extents = [1i64; 3];
        for (d, ub) in op.operands.iter().enumerate() {
            extents[d] = want_int(lookup(host_store, &[], *ub)?)?;
            if extents[d] < 0 {
                return Err(SimError::new("negative grid extent"));
            }
        }
        let blocks = extents.iter().take(rank).product::<i64>().max(0) as u64;

        let mut stats = ExecStats {
            blocks,
            ..ExecStats::default()
        };

        let block_args = &func.region(block_region).args;

        let mut shared_bytes_seen = 0u64;
        let mut threads_per_block_seen = 0u32;

        let mut linear = 0u64;
        for bz in 0..extents[2].max(1) {
            for by in 0..extents[1].max(1) {
                for bx in 0..extents[0].max(1) {
                    if blocks == 0 {
                        break;
                    }
                    let sm_id = (linear % self.target.sm_count as u64) as usize;
                    let mark = self.mem.mark();
                    let block = &mut scratch.block;
                    block.restart(block_region, 1);
                    let ivs = [bx, by, bz];
                    for (d, a) in block_args.iter().enumerate() {
                        block.set_with(*a, |_| RtVal::Int(ivs[d]));
                    }
                    // Shared memory of this block for occupancy: what the
                    // block scope itself allocates.
                    let mut shared_bytes = 0;
                    loop {
                        let before = self.mem.mark();
                        let next = run_scope(
                            &mut scratch.block,
                            &mut self.mem,
                            &[host_store],
                            &mut scratch.scope_counters,
                            "barrier outside the thread-parallel loop",
                        )?;
                        shared_bytes += self.mem.bytes_since(before);
                        let Some(thread_op) = next else { break };
                        let tp = self.run_thread_parallel(
                            func,
                            thread_op,
                            host_store,
                            scratch.block.regs(),
                            sm_id,
                            &mut scratch.threads,
                            &mut stats,
                            sanitizer,
                        )?;
                        threads_per_block_seen = threads_per_block_seen.max(tp);
                    }
                    shared_bytes_seen = shared_bytes_seen.max(shared_bytes);
                    self.mem.release(mark);
                    linear += 1;
                }
            }
        }
        stats.threads = blocks * threads_per_block_seen as u64;
        stats.warps =
            blocks * (threads_per_block_seen as u64).div_ceil(self.target.warp_size as u64);

        let res = BlockResources {
            threads: threads_per_block_seen.max(1),
            regs_per_thread,
            shared_bytes: shared_bytes_seen,
        };
        let model_start = Instant::now();
        let occ = occupancy(&self.target, res).map_err(|e| SimError::new(e.to_string()))?;
        let timing = estimate(&self.target, &stats, &occ, blocks.max(1));
        scratch.threads.host.model_ns += ns_since(model_start);
        Ok(Segment {
            stats,
            timing,
            occupancy: occ,
            blocks,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_thread_parallel<'f>(
        &mut self,
        func: &'f Function,
        thread_op: OpId,
        host_store: &Store,
        block_store: &Store,
        sm_id: usize,
        scratch: &mut ThreadScratch<'f>,
        stats: &mut ExecStats,
        sanitizer: &mut Option<Sanitizer>,
    ) -> Result<u32, SimError> {
        let op = func.op(thread_op);
        let region = op.regions[0];
        let args = &func.region(region).args;
        let rank = op.operands.len();
        let mut extents = [1i64; 3];
        for (d, ub) in op.operands.iter().enumerate() {
            extents[d] = want_int(lookup(block_store, &[host_store], *ub)?)?;
            if extents[d] <= 0 {
                return Err(SimError::new("thread extents must be positive"));
            }
        }
        let threads: usize = extents.iter().take(rank.max(1)).product::<i64>() as usize;

        let warp_size = self.target.warp_size as usize;
        let warps = threads.div_ceil(warp_size);
        while scratch.counter_pool.len() < warps {
            scratch
                .counter_pool
                .push(WarpCounters::new(func.num_ops(), warp_size));
        }

        // Regions that allocate must run per lane from the start so buffer
        // ids are handed out in lane-by-lane order; everything else starts
        // in lock-step and despools only on divergence a lane mask cannot
        // carry.
        let vectorize = self.exec_mode == ExecMode::WarpVectorized
            && !scratch.program.region_has_alloc[region.index()];

        // Linear thread id -> (tx, ty, tz), x fastest (CUDA linearization).
        let ivs_of = |t: usize| {
            [
                t as i64 % extents[0],
                (t as i64 / extents[0]) % extents[1],
                t as i64 / (extents[0] * extents[1]),
            ]
        };

        while scratch.warp_pool.len() < warps {
            scratch.warp_pool.push(WarpInterp::new(
                func,
                Arc::clone(&scratch.program),
                warp_size,
            ));
        }
        for w in 0..warps {
            let lo = w * warp_size;
            let hi = ((w + 1) * warp_size).min(threads);
            let warp = &mut scratch.warp_pool[w];
            warp.restart(region, hi - lo);
            for (d, a) in args.iter().enumerate() {
                warp.set_with(*a, |lane| RtVal::Int(ivs_of(lo + lane)[d]));
            }
            if !vectorize {
                // Lane by lane from the start, counted per lane.
                scratch.counter_pool[w].reset(hi - lo, true);
                despool(func, &scratch.program, warp, &mut scratch.lane_pool, lo..hi);
            }
        }
        // Warps that run lane by lane (a despool lasts for the rest of the
        // block).
        let mut despooled = vec![!vectorize; warps];

        // Phase loop: run every thread to its next barrier (or completion),
        // merge warp statistics, repeat until all threads are done.
        loop {
            let mut all_done = true;
            let mut any_progress = false;
            // One iteration of this loop is one barrier interval: every live
            // thread runs up to its next barrier, so the sanitizer's shadow
            // cells are valid exactly for the duration of one round.
            if let Some(s) = sanitizer.as_mut() {
                s.new_interval();
            }
            for (w, despooled_w) in despooled.iter_mut().enumerate() {
                let lo = w * warp_size;
                let hi = ((w + 1) * warp_size).min(threads);
                let parents: [&Store; 2] = [block_store, host_store];
                let mut cx = WarpCx {
                    mem: &mut self.mem,
                    parents: &parents,
                    counters: &mut scratch.counter_pool[w],
                    masked_branches: &mut scratch.exec.masked_branches,
                };
                let exec_start = Instant::now();
                if !*despooled_w {
                    let warp = &mut scratch.warp_pool[w];
                    if !warp.is_done() {
                        // The sanitizer reads per-lane events.
                        cx.counters.reset(hi - lo, sanitizer.is_some());
                        let phase = warp.run_phase(&mut cx)?;
                        any_progress = true;
                        scratch.exec.warp_phases += 1;
                        match phase {
                            WarpPhase::Done => {}
                            WarpPhase::Barrier => all_done = false,
                            WarpPhase::Launch(_) => return Err(nested_parallel()),
                            WarpPhase::Diverged => {
                                // Despool every lane — the program counter
                                // sits *at* the divergent op — and finish the
                                // phase lane by lane on top of the counts and
                                // accesses so far.
                                cx.counters.spill();
                                despool(
                                    func,
                                    &scratch.program,
                                    warp,
                                    &mut scratch.lane_pool,
                                    lo..hi,
                                );
                                *despooled_w = true;
                                scratch.exec.despooled_warps += 1;
                                for lane in &mut scratch.lane_pool[lo..hi] {
                                    all_done &= run_lane(lane, &mut cx)?;
                                }
                            }
                        }
                        if let Some(s) = sanitizer.as_mut() {
                            for t in lo..hi {
                                s.observe(t as u32, cx.counters.events(t - lo));
                            }
                        }
                    }
                } else {
                    for t in lo..hi {
                        let lane = &mut scratch.lane_pool[t];
                        if lane.is_done() {
                            continue;
                        }
                        cx.counters.reset_lane(t - lo);
                        all_done &= run_lane(lane, &mut cx)?;
                        any_progress = true;
                        if let Some(s) = sanitizer.as_mut() {
                            s.observe(t as u32, cx.counters.events(t - lo));
                        }
                    }
                }
                scratch.host.exec_ns += ns_since(exec_start);
                let account_start = Instant::now();
                // Merge this warp's phase (unconditionally, exactly like the
                // lane-by-lane loop, which also re-merges the stale
                // final-phase counters of warps that finished early).
                scratch.merger.merge_warp_phase(
                    &scratch.program.classes,
                    &self.target,
                    &mut scratch.counter_pool[w],
                    &mut self.l1[sm_id],
                    &mut self.l2,
                    stats,
                );
                scratch.host.account_ns += ns_since(account_start);
            }
            if all_done {
                break;
            }
            if !any_progress {
                return Err(SimError::new("deadlock: no thread can make progress"));
            }
        }
        Ok(threads as u32)
    }
}

/// Runs the width-one machine of a host or block scope to its next nested
/// `parallel` (`Some`) or to its end (`None`); a barrier there is the error
/// `barrier`. The scope counts into `counters`, which nobody reads.
fn run_scope(
    machine: &mut WarpInterp<'_>,
    mem: &mut DeviceMemory,
    parents: &[&Store],
    counters: &mut WarpCounters,
    barrier: &str,
) -> Result<Option<OpId>, SimError> {
    counters.reset(1, false);
    let mut masked_branches = 0;
    let mut cx = WarpCx {
        mem,
        parents,
        counters,
        masked_branches: &mut masked_branches,
    };
    match machine.run_phase(&mut cx)? {
        WarpPhase::Done => Ok(None),
        WarpPhase::Launch(op) => Ok(Some(op)),
        WarpPhase::Barrier => Err(SimError::new(barrier)),
        WarpPhase::Diverged => unreachable!("a width-one machine never diverges"),
    }
}

/// Splits the warp of threads `lanes` into width-one machines, one per lane,
/// in `pool[lanes]` (grown as needed): each resumes where the warp stopped
/// and counts into its lane of the warp's counters.
fn despool<'f>(
    func: &'f Function,
    program: &Arc<DecodedProgram>,
    warp: &WarpInterp<'f>,
    pool: &mut Vec<WarpInterp<'f>>,
    lanes: std::ops::Range<usize>,
) {
    while pool.len() < lanes.end {
        pool.push(WarpInterp::new(func, Arc::clone(program), 1));
    }
    for (lane, machine) in pool[lanes].iter_mut().enumerate() {
        warp.despool_into(lane, machine);
    }
}

/// Runs a despooled lane to its next barrier; `true` once it has finished.
fn run_lane(lane: &mut WarpInterp<'_>, cx: &mut WarpCx<'_>) -> Result<bool, SimError> {
    match lane.run_phase(cx)? {
        WarpPhase::Done => Ok(true),
        WarpPhase::Barrier => Ok(false),
        WarpPhase::Launch(_) => Err(nested_parallel()),
        WarpPhase::Diverged => unreachable!("a width-one machine never diverges"),
    }
}

fn nested_parallel() -> SimError {
    SimError::new("parallel loop nested inside the thread level")
}

fn lookup(first: &Store, rest: &[&Store], v: Value) -> Result<RtVal, SimError> {
    if let Some(val) = first.get(v) {
        return Ok(val);
    }
    for s in rest {
        if let Some(val) = s.get(v) {
            return Ok(val);
        }
    }
    Err(SimError::new(format!("unbound value {v:?} in launch")))
}

struct Segment {
    stats: ExecStats,
    timing: Timing,
    occupancy: Occupancy,
    blocks: u64,
}

/// Machines of the thread-parallel loop, reused across every block and
/// segment of one launch.
struct ThreadScratch<'f> {
    /// The kernel decoded once, shared by every machine via `Arc`.
    program: Arc<DecodedProgram>,
    /// Warp lock-step machines, one per warp of the widest block seen.
    warp_pool: Vec<WarpInterp<'f>>,
    /// Width-one machines of despooled lanes, indexed by thread (grown to the
    /// widest despooled warp's last thread).
    lane_pool: Vec<WarpInterp<'f>>,
    /// Per-warp counters (grown to the widest block seen).
    counter_pool: Vec<WarpCounters>,
    /// Warp statistics merger (per-op instruction classes precomputed once).
    merger: WarpMerger,
    /// Executor counters of this launch.
    exec: ExecCounters,
    /// Host time of this launch.
    host: HostTime,
}

/// Per-launch machines: allocated once in [`GpuSim::launch_with`],
/// restarted everywhere else.
struct LaunchScratch<'f> {
    threads: ThreadScratch<'f>,
    /// Width-one machine of the block scope.
    block: WarpInterp<'f>,
    /// Counters the host and block scopes count into; nothing reads them.
    scope_counters: WarpCounters,
}

/// Shared-memory shadow state for the sanitizer: per barrier interval, the
/// first writer and the readers of every touched shared cell.
#[derive(Default)]
struct Cell {
    writer: Option<(u32, u32)>,
    readers: Vec<(u32, u32)>,
}

/// One dense-arena slot; its cell is valid only while `epoch` matches the
/// sanitizer's current barrier interval (lazy clearing instead of a wipe
/// of the whole arena per interval).
#[derive(Default)]
struct ArenaCell {
    epoch: u32,
    cell: Cell,
}

/// Byte span the dense arena covers above the first observed shared address
/// — larger than any real GPU's shared memory, so in practice every access
/// lands in the arena. Addresses outside the span (or below the first one
/// observed) fall back to the sparse hash map.
const SANITIZER_ARENA_SPAN: usize = 1 << 18;

struct Sanitizer {
    kernel: String,
    /// First shared address observed this launch, the arena's base. Shared
    /// allocations are released per block and reuse the same address range,
    /// so one base covers the whole launch.
    base: Option<u64>,
    arena: Vec<ArenaCell>,
    epoch: u32,
    /// Sparse overflow for addresses outside the arena span.
    overflow: HashMap<u64, Cell>,
    reported: HashSet<(&'static str, u32, u32)>,
    races: Vec<RaceRecord>,
}

impl Sanitizer {
    fn new(kernel: String) -> Sanitizer {
        Sanitizer {
            kernel,
            base: None,
            arena: Vec::new(),
            epoch: 1,
            overflow: HashMap::new(),
            reported: HashSet::new(),
            races: Vec::new(),
        }
    }

    /// Starts a new barrier interval: all shadow cells are forgotten (arena
    /// cells lazily, by epoch mismatch).
    fn new_interval(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch counter wrapped: stale cells could alias the recycled
            // epoch value, so clear the arena eagerly this once.
            for slot in &mut self.arena {
                slot.epoch = 0;
                slot.cell.writer = None;
                slot.cell.readers.clear();
            }
            self.epoch = 1;
        }
        self.overflow.clear();
    }

    /// The shadow cell for `addr`: a dense-arena slot when the address lands
    /// in the covered span, a hash-map entry otherwise.
    fn cell_mut(&mut self, addr: u64) -> &mut Cell {
        let base = *self.base.get_or_insert(addr);
        if addr >= base && addr - base < SANITIZER_ARENA_SPAN as u64 {
            let off = (addr - base) as usize;
            if off >= self.arena.len() {
                let len = (off + 1).next_power_of_two().max(256);
                self.arena
                    .resize_with(len.min(SANITIZER_ARENA_SPAN), ArenaCell::default);
            }
            let slot = &mut self.arena[off];
            if slot.epoch != self.epoch {
                slot.epoch = self.epoch;
                slot.cell.writer = None;
                slot.cell.readers.clear();
            }
            &mut slot.cell
        } else {
            self.overflow.entry(addr).or_default()
        }
    }

    /// Feeds one thread's phase events ((thread, op) pairs per cell) into
    /// the shadow state, recording conflicts with *other* threads.
    fn observe(&mut self, t: u32, events: &[crate::interp::MemEvent]) {
        for e in events {
            if e.space != MemSpace::Shared {
                continue;
            }
            let cell = self.cell_mut(e.addr);
            let mut hits: Vec<(&'static str, u32, u32, u32)> = Vec::new();
            if e.is_store {
                if let Some((wt, wop)) = cell.writer {
                    if wt != t {
                        hits.push(("race-ww", e.op, wop, wt));
                    }
                }
                if let Some(&(rt, rop)) = cell.readers.iter().find(|&&(rt, _)| rt != t) {
                    hits.push(("race-rw", e.op, rop, rt));
                }
                if cell.writer.is_none() {
                    cell.writer = Some((t, e.op));
                }
            } else {
                if let Some((wt, wop)) = cell.writer {
                    if wt != t {
                        hits.push(("race-rw", e.op, wop, wt));
                    }
                }
                if !cell.readers.iter().any(|&(rt, _)| rt == t) {
                    cell.readers.push((t, e.op));
                }
            }
            for (code, op_a, op_b, other_t) in hits {
                let key = (code, op_a.min(op_b), op_a.max(op_b));
                if self.reported.insert(key) {
                    self.races.push(RaceRecord {
                        kernel: self.kernel.clone(),
                        code,
                        op_a,
                        op_b,
                        addr: e.addr,
                        threads: (t, other_t),
                    });
                }
            }
        }
    }
}

// DeviceMemory scratch-arena support lives here to keep the memory module
// free of launch-specific policy.
impl DeviceMemory {
    /// Marks the current allocation point; see [`DeviceMemory::release`].
    pub fn mark(&self) -> usize {
        self.buffer_count()
    }

    /// Releases every buffer allocated after `mark` (per-block shared/local
    /// scratch). Buffer ids handed out after the mark become invalid.
    pub fn release(&mut self, mark: usize) {
        self.truncate_buffers(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::a100;
    use respec_frontend_testutil::compile_saxpy;

    // A tiny local "frontend" replacement so the sim crate does not depend
    // on respec-frontend: kernels are written in textual IR.
    mod respec_frontend_testutil {
        use respec_ir::{parse_function, Function};

        pub fn compile_saxpy() -> Function {
            parse_function(
                "func @saxpy(%gx: index, %gy: index, %gz: index, %y: memref<?xf32, global>, %x: memref<?xf32, global>, %a: f32, %n: i32) {
  %c256 = const 256 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%c256, %c1, %c1) {
      %bdim = const 256 : i32
      %bi = cast %bx : i32
      %ti = cast %tx : i32
      %base = mul %bi, %bdim : i32
      %i = add %base, %ti : i32
      %inb = cmp lt %i, %n
      if %inb {
        %idx = cast %i : index
        %xv = load %x[%idx] : f32
        %yv = load %y[%idx] : f32
        %ax = mul %a, %xv : f32
        %s = add %yv, %ax : f32
        store %s, %y[%idx]
        yield
      }
      yield
    }
    yield
  }
  return
}",
            )
            .unwrap()
        }
    }

    #[test]
    fn saxpy_computes_and_reports() {
        let func = compile_saxpy();
        let n = 1024usize;
        let mut sim = GpuSim::new(a100());
        let y: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let yb = sim.mem.alloc_f32(&y);
        let xb = sim.mem.alloc_f32(&x);
        let report = sim
            .launch(
                &func,
                [4, 1, 1],
                &[
                    KernelArg::Buf(yb),
                    KernelArg::Buf(xb),
                    KernelArg::F32(2.0),
                    KernelArg::I32(n as i32),
                ],
                32,
            )
            .unwrap();
        let out = sim.mem.read_f32(yb);
        for i in 0..n {
            assert_eq!(out[i], y[i] + 2.0 * x[i], "element {i}");
        }
        assert_eq!(report.blocks, 4);
        assert_eq!(report.stats.threads, 4 * 256);
        assert!(report.kernel_seconds > 0.0);
        // Unit-stride loads must coalesce: 2 loads × 1024 threads × 4B =
        // 8 KiB = 256 sectors.
        assert_eq!(report.stats.read_sectors, 256);
        assert!(report.stats.global_load_requests >= 64);
    }

    #[test]
    fn guard_masks_out_of_range_threads() {
        let func = compile_saxpy();
        let mut sim = GpuSim::new(a100());
        let yb = sim.mem.alloc_f32(&[1.0; 100]);
        let xb = sim.mem.alloc_f32(&[1.0; 100]);
        // 1 block of 256 threads, but n = 100: the guard must prevent OOB.
        let report = sim
            .launch(
                &func,
                [1, 1, 1],
                &[
                    KernelArg::Buf(yb),
                    KernelArg::Buf(xb),
                    KernelArg::F32(1.0),
                    KernelArg::I32(100),
                ],
                32,
            )
            .unwrap();
        assert_eq!(sim.mem.read_f32(yb), vec![2.0f32; 100]);
        assert_eq!(report.blocks, 1);
    }

    #[test]
    fn traced_launch_records_a_span_with_counters() {
        let func = compile_saxpy();
        let n = 1024usize;
        let mut sim = GpuSim::new(a100());
        let trace = Trace::new();
        sim.set_trace(trace.clone());
        let y: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let x: Vec<f32> = vec![1.0; n];
        let yb = sim.mem.alloc_f32(&y);
        let xb = sim.mem.alloc_f32(&x);
        let report = sim
            .launch(
                &func,
                [4, 1, 1],
                &[
                    KernelArg::Buf(yb),
                    KernelArg::Buf(xb),
                    KernelArg::F32(2.0),
                    KernelArg::I32(n as i32),
                ],
                32,
            )
            .unwrap();
        let events = trace.events();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.name, "launch:saxpy");
        assert_eq!(ev.category, "sim");
        // Occupancy, coalescing and timing metrics mirror the report.
        assert_eq!(
            ev.metric("occupancy").and_then(|m| m.as_f64()),
            Some(report.occupancy.occupancy)
        );
        assert_eq!(
            ev.metric("occupancy_limiter").and_then(|m| m.as_str()),
            Some(report.occupancy.limiter.to_string().as_str())
        );
        assert_eq!(
            ev.metric("read_sectors").and_then(|m| m.as_f64()),
            Some(report.stats.read_sectors as f64)
        );
        assert_eq!(
            ev.metric("kernel_seconds").and_then(|m| m.as_f64()),
            Some(report.kernel_seconds)
        );
        assert!(ev.metric("l1_hit_rate").is_some());
        assert!(ev.metric("cycles:total").is_some());
        assert!(ev.metric("bound_by").is_some());
    }

    #[test]
    fn traced_and_untraced_launches_agree() {
        let func = compile_saxpy();
        let n = 512usize;
        let run = |trace: Option<Trace>| {
            let mut sim = GpuSim::new(a100());
            if let Some(t) = trace {
                sim.set_trace(t);
            }
            let yb = sim.mem.alloc_f32(&vec![1.0; n]);
            let xb = sim.mem.alloc_f32(&vec![3.0; n]);
            let report = sim
                .launch(
                    &func,
                    [2, 1, 1],
                    &[
                        KernelArg::Buf(yb),
                        KernelArg::Buf(xb),
                        KernelArg::F32(2.0),
                        KernelArg::I32(n as i32),
                    ],
                    32,
                )
                .unwrap();
            (
                report.kernel_seconds,
                report.stats.clone(),
                sim.mem.read_f32(yb),
            )
        };
        let (s0, st0, out0) = run(None);
        let (s1, st1, out1) = run(Some(Trace::new()));
        assert_eq!(s0, s1);
        assert_eq!(st0, st1);
        assert_eq!(out0, out1);
    }

    #[test]
    fn sanitizer_catches_seeded_shared_race() {
        // Every thread stores to sm[0]: a write-write race, plus read-write
        // races against the unguarded loads.
        let func = respec_ir::parse_function(
            "func @racy(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c0 = const 0 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %f = cast %tx : f32
      store %f, %sm[%c0]
      %v = load %sm[%tx] : f32
      store %v, %m[%tx]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let mut sim = GpuSim::new(a100());
        sim.set_sanitize_shared(true);
        let mb = sim.mem.alloc_f32(&[0.0; 8]);
        let report = sim
            .launch(&func, [1, 1, 1], &[KernelArg::Buf(mb)], 32)
            .unwrap();
        assert!(
            report.races.iter().any(|r| r.code == "race-ww"),
            "expected a write-write race, got {:?}",
            report.races
        );
        assert!(!sim.races().is_empty());
        // The record renders as a located diagnostic.
        let d = report.races[0].to_diagnostic(&func);
        assert!(d.is_error());
        assert!(d.location.as_deref().unwrap().contains("@racy"));
    }

    #[test]
    fn sanitizer_accepts_barrier_separated_accesses() {
        // Staged exchange: write own cell, barrier, read the neighbour's.
        let func = respec_ir::parse_function(
            "func @stage(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c7 = const 7 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %f = cast %tx : f32
      store %f, %sm[%tx]
      barrier<thread>
      %n = sub %c7, %tx : index
      %v = load %sm[%n] : f32
      store %v, %m[%tx]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let mut sim = GpuSim::new(a100());
        sim.set_sanitize_shared(true);
        let mb = sim.mem.alloc_f32(&[0.0; 8]);
        let report = sim
            .launch(&func, [1, 1, 1], &[KernelArg::Buf(mb)], 32)
            .unwrap();
        assert!(report.races.is_empty(), "clean kernel: {:?}", report.races);
        assert_eq!(
            sim.mem.read_f32(mb),
            vec![7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]
        );
    }

    #[test]
    fn sanitizer_is_observational_only() {
        let func = compile_saxpy();
        let n = 256usize;
        let run = |sanitize: bool| {
            let mut sim = GpuSim::new(a100());
            sim.set_sanitize_shared(sanitize);
            let yb = sim.mem.alloc_f32(&vec![1.0; n]);
            let xb = sim.mem.alloc_f32(&vec![2.0; n]);
            let report = sim
                .launch(
                    &func,
                    [1, 1, 1],
                    &[
                        KernelArg::Buf(yb),
                        KernelArg::Buf(xb),
                        KernelArg::F32(3.0),
                        KernelArg::I32(n as i32),
                    ],
                    32,
                )
                .unwrap();
            (
                report.kernel_seconds,
                report.stats.clone(),
                sim.mem.read_f32(yb),
            )
        };
        let (s0, st0, out0) = run(false);
        let (s1, st1, out1) = run(true);
        assert_eq!(s0, s1);
        assert_eq!(st0, st1);
        assert_eq!(out0, out1);
    }

    #[test]
    fn scalar_and_vectorized_saxpy_agree_bitwise() {
        let func = compile_saxpy();
        // Not a multiple of the block size: the straddling warp diverges at
        // the bounds guard and must despool mid-phase.
        let n = 1000usize;
        let run = |mode: ExecMode| {
            let mut sim = GpuSim::new(a100());
            sim.set_exec_mode(mode);
            let y: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let x: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
            let yb = sim.mem.alloc_f32(&y);
            let xb = sim.mem.alloc_f32(&x);
            let report = sim
                .launch(
                    &func,
                    [4, 1, 1],
                    &[
                        KernelArg::Buf(yb),
                        KernelArg::Buf(xb),
                        KernelArg::F32(2.0),
                        KernelArg::I32(n as i32),
                    ],
                    32,
                )
                .unwrap();
            (
                report.kernel_seconds.to_bits(),
                report.stats.clone(),
                sim.mem.read_f32(yb),
            )
        };
        let scalar = run(ExecMode::Scalar);
        let warp = run(ExecMode::WarpVectorized);
        assert_eq!(scalar.0, warp.0, "kernel_seconds must be bit-identical");
        assert_eq!(scalar.1, warp.1, "stats must be identical");
        assert_eq!(scalar.2, warp.2, "memory must be identical");
    }

    #[test]
    fn divergent_loop_trip_counts_agree_across_modes() {
        // Per-lane loop bound: the warp diverges at the `for` header.
        let func = respec_ir::parse_function(
            "func @dloop(%gx: index, %gy: index, %gz: index, %m: memref<?xi32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c0 = const 0 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %z = const 0 : i32
      %s = for %i = %c0 to %tx step %c1 iter (%acc = %z) {
        %ii = cast %i : i32
        %nx = add %acc, %ii : i32
        yield %nx
      }
      store %s, %m[%tx]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let run = |mode: ExecMode| {
            let mut sim = GpuSim::new(a100());
            sim.set_exec_mode(mode);
            let mb = sim.mem.alloc_i32(&[0; 8]);
            let report = sim
                .launch(&func, [1, 1, 1], &[KernelArg::Buf(mb)], 32)
                .unwrap();
            (
                report.kernel_seconds.to_bits(),
                report.stats.clone(),
                sim.mem.read_i32(mb),
            )
        };
        let scalar = run(ExecMode::Scalar);
        let warp = run(ExecMode::WarpVectorized);
        assert_eq!(scalar.0, warp.0);
        assert_eq!(scalar.1, warp.1);
        assert_eq!(scalar.2, warp.2);
        // m[t] = sum of 0..t.
        assert_eq!(warp.2, vec![0, 0, 1, 3, 6, 10, 15, 21]);
    }

    #[test]
    fn divergence_then_barrier_agrees_across_modes() {
        // Diverge at an `if`, then synchronize: the despooled warp must keep
        // running per-lane in later barrier intervals.
        let func = respec_ir::parse_function(
            "func @divbar(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c4 = const 4 : index
  %c7 = const 7 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %f = cast %tx : f32
      store %f, %sm[%tx]
      %lt = cmp lt %tx, %c4
      if %lt {
        %d = add %f, %f : f32
        store %d, %sm[%tx]
        yield
      }
      barrier<thread>
      %n = sub %c7, %tx : index
      %v = load %sm[%n] : f32
      store %v, %m[%tx]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let run = |mode: ExecMode| {
            let mut sim = GpuSim::new(a100());
            sim.set_exec_mode(mode);
            sim.set_sanitize_shared(true);
            let mb = sim.mem.alloc_f32(&[0.0; 8]);
            let report = sim
                .launch(&func, [1, 1, 1], &[KernelArg::Buf(mb)], 32)
                .unwrap();
            (
                report.kernel_seconds.to_bits(),
                report.stats.clone(),
                sim.mem.read_f32(mb),
                report.races,
            )
        };
        let scalar = run(ExecMode::Scalar);
        let warp = run(ExecMode::WarpVectorized);
        assert_eq!(scalar.0, warp.0);
        assert_eq!(scalar.1, warp.1);
        assert_eq!(scalar.2, warp.2);
        assert_eq!(scalar.3, warp.3);
        assert!(warp.3.is_empty(), "barrier-separated: {:?}", warp.3);
        // Threads 0..4 doubled their cell before the exchange.
        assert_eq!(warp.2, vec![7.0, 6.0, 5.0, 4.0, 6.0, 4.0, 2.0, 0.0]);
    }

    #[test]
    fn sanitizer_races_agree_across_modes() {
        // The racy kernel's *memory* may legitimately differ between modes
        // (per-op vs per-thread interleaving of racing accesses), but the
        // observed event streams — and therefore race records, stats and
        // timing — must not.
        let func = respec_ir::parse_function(
            "func @racy(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c0 = const 0 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %f = cast %tx : f32
      store %f, %sm[%c0]
      %v = load %sm[%c0] : f32
      store %v, %m[%tx]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let run = |mode: ExecMode| {
            let mut sim = GpuSim::new(a100());
            sim.set_exec_mode(mode);
            sim.set_sanitize_shared(true);
            let mb = sim.mem.alloc_f32(&[0.0; 8]);
            let report = sim
                .launch(&func, [1, 1, 1], &[KernelArg::Buf(mb)], 32)
                .unwrap();
            (
                report.kernel_seconds.to_bits(),
                report.stats.clone(),
                report.races,
            )
        };
        let scalar = run(ExecMode::Scalar);
        let warp = run(ExecMode::WarpVectorized);
        assert_eq!(scalar.0, warp.0);
        assert_eq!(scalar.1, warp.1);
        assert_eq!(scalar.2, warp.2);
        assert!(warp.2.iter().any(|r| r.code == "race-ww"));
    }

    #[test]
    fn wrong_arity_is_an_error() {
        let func = compile_saxpy();
        let mut sim = GpuSim::new(a100());
        let err = sim.launch(&func, [1, 1, 1], &[], 32).unwrap_err();
        assert!(err.message.contains("expects"));
    }

    #[test]
    fn kernel_without_grid_parameters_is_an_error() {
        let func = respec_ir::parse_function("func @k(%a: index) {\n  return\n}").unwrap();
        let mut sim = GpuSim::new(a100());
        let err = sim.launch(&func, [1, 1, 1], &[], 32).unwrap_err();
        assert!(
            err.message.contains("has no grid parameters"),
            "{}",
            err.message
        );
    }
}
