//! Optimization and transformation passes for the `respec` GPU retargeting
//! compiler — the paper's primary contribution.
//!
//! * [`interleave`] — nested parallel loop unroll-and-interleave (§IV),
//!   with jam/interleave of invariant control flow and barrier-merging
//!   legality (§IV-B).
//! * [`coarsen`] — thread and block coarsening as granularity variation
//!   (§V), including epilogue grids for non-divisor block factors.
//! * [`factors`] — balancing a total factor across multi-parallel
//!   dimensions (§IV-C).
//! * Classical cleanups the parallel representation enables: [`canonicalize`],
//!   [`cse`], [`licm`] (incl. shared-memory load hoisting), [`dce`].
//!
//! # Example: coarsen a kernel both ways
//!
//! ```
//! use respec_opt::{coarsen_function, optimize, CoarsenConfig};
//!
//! let mut func = respec_ir::parse_function(r#"
//! func @k(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
//!   %c64 = const 64 : index
//!   %c1 = const 1 : index
//!   parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
//!     parallel<thread> (%tx, %ty, %tz) to (%c64, %c1, %c1) {
//!       %w = mul %bx, %c64 : index
//!       %i = add %w, %tx : index
//!       %v = load %m[%i] : f32
//!       store %v, %m[%i]
//!       yield
//!     }
//!     yield
//!   }
//!   return
//! }"#).expect("valid IR");
//! coarsen_function(&mut func, CoarsenConfig { block: [2, 1, 1], thread: [4, 1, 1] })?;
//! optimize(&mut func);
//! respec_ir::verify_function(&func).expect("still valid");
//! # Ok::<(), respec_opt::CoarsenError>(())
//! ```

mod barrier_elim;
mod canon;
pub mod coarsen;
pub mod cpu_lower;
mod cse;
mod dce;
pub mod factors;
pub mod interleave;
mod licm;
pub mod pass_manager;
mod shared_offload;

pub use barrier_elim::eliminate_barriers;
pub use canon::canonicalize;
pub use coarsen::{
    block_coarsen, coarsen_function, coarsen_precheck, thread_coarsen, CoarsenConfig, CoarsenError,
};
pub use cpu_lower::{
    lower_function_to_cpu, lower_module_to_cpu, CpuLowerSummary, CpuLoweringParams,
};
pub use cse::cse;
pub use dce::dce;
pub use factors::{prime_factors, split_total};
pub use interleave::{
    parent_region, region_contains_barrier, unroll_interleave, IndexingStyle, InterleaveError,
};
pub use licm::licm;
pub use pass_manager::{
    op_census, optimize_traced, run_pass, AnalysisGate, GateError, PIPELINE_VERSION,
};
pub use shared_offload::{offload_shared_to_global, OFFLOAD_BYTES_PER_THREAD, SMALL_L1_BYTES};

use respec_ir::Function;

/// Runs the standard cleanup pipeline (canonicalize → CSE → LICM → CSE →
/// DCE) for one round; returns the total number of rewrites.
///
/// This is the pass set Polygeist applies around coarsening: it folds the
/// interleaver's index arithmetic, deduplicates shared instance
/// computations, and hoists loop-invariant work (the `lavaMD` effect).
/// [`optimize_traced`] is the same pipeline with one recorded span per pass.
pub fn optimize(func: &mut Function) -> usize {
    optimize_traced(func, &respec_trace::Trace::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::{parse_function, verify_function};

    #[test]
    fn optimize_cleans_interleaved_kernel() {
        let mut func = parse_function(
            "func @k(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c64 = const 64 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%c64, %c1, %c1) {
      %w = mul %bx, %c64 : index
      %i = add %w, %tx : index
      %v = load %m[%i] : f32
      store %v, %m[%i]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        coarsen_function(
            &mut func,
            CoarsenConfig {
                block: [1, 1, 1],
                thread: [4, 1, 1],
            },
        )
        .unwrap();
        let before = func.to_string().lines().count();
        let n = optimize(&mut func);
        assert!(n > 0, "pipeline must find rewrites in interleaved code");
        verify_function(&func).unwrap();
        let after = func.to_string().lines().count();
        assert!(after <= before);
    }
}
