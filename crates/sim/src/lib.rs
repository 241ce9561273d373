//! Functional + timing GPU simulator for the `respec` retargeting compiler.
//!
//! This crate is the hardware substitute for the paper's four evaluation
//! GPUs (Table I). It executes the parallel IR *functionally* — grids,
//! blocks, warps/wavefronts, barriers, shared memory — while collecting the
//! performance signals the paper's analysis hinges on:
//!
//! * warp-level instruction issues (divergent iterations issue separately),
//! * **memory coalescing** on the actual simulated address stream,
//! * a set-associative **L1/L2 cache hierarchy** with 32-byte sectors,
//! * **shared-memory bank conflicts**,
//! * the **occupancy** implied by threads/registers/shared-memory use,
//! * an analytic **timing model** bounded by the most-contended resource.
//!
//! Retargeting NVIDIA → AMD is compiling the same IR against a different
//! [`TargetDesc`] (warp width 64, small L1, different FLOP balance — the
//! asymmetries §VII-D of the paper investigates).
//!
//! # Example
//!
//! ```
//! use respec_sim::{GpuSim, KernelArg, targets};
//!
//! let func = respec_ir::parse_function(r#"
//! func @fill(%gx: index, %gy: index, %gz: index, %out: memref<?xf32, global>) {
//!   %c64 = const 64 : index
//!   %c1 = const 1 : index
//!   parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
//!     parallel<thread> (%tx, %ty, %tz) to (%c64, %c1, %c1) {
//!       %w = mul %bx, %c64 : index
//!       %i = add %w, %tx : index
//!       %v = fconst 1.0 : f32
//!       store %v, %out[%i]
//!       yield
//!     }
//!     yield
//!   }
//!   return
//! }"#).expect("valid IR");
//! let mut sim = GpuSim::new(targets::a100());
//! let buf = sim.mem.alloc_f32(&vec![0.0; 256]);
//! let report = sim.launch(&func, [4, 1, 1], &[KernelArg::Buf(buf)], 16)?;
//! assert_eq!(sim.mem.read_f32(buf), vec![1.0; 256]);
//! assert!(report.kernel_seconds > 0.0);
//! # Ok::<(), respec_sim::SimError>(())
//! ```

mod cache;
mod decoded;
mod interp;
mod launch;
mod memory;
mod occupancy;
mod stats;
pub mod target;
mod timing;
mod value;
mod warp;

pub use cache::{bank_conflict_factor, coalesce_sectors, Cache};
pub use interp::{InstClass, SimError};
pub use launch::{
    ExecCounters, ExecMode, GpuSim, HostTime, KernelArg, KernelTiming, LaunchOptions, LaunchReport,
    RaceRecord,
};
pub use memory::{BufferId, DeviceMemory};
pub use occupancy::{occupancy, BlockResources, Infeasible, Limiter, Occupancy};
pub use stats::{replay_access, ExecStats, NUM_CLASSES};
pub use target::{TargetDesc, TargetKind, TargetModel, Vendor};
pub use timing::{estimate, Timing, LAUNCH_OVERHEAD_S};
pub use value::{MemVal, RtVal, Store};
pub use warp::INTERP_BUILDS;

/// Canonical target registry: GPU constructors (Table I), simulated CPU
/// targets, and the one name→model lookup every consumer shares.
pub mod targets {
    pub use crate::target::{
        a100, a4000, all_cpu_targets, all_targets, by_name, cpu_desktop8, cpu_server64, mi210,
        rx6800, TARGET_NAMES,
    };
}
