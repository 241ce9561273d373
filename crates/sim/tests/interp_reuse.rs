//! Allocation-regression test: the launch loop must reuse its width-one
//! machines (host scope, block scope, despooled lanes) across blocks and
//! segments instead of rebuilding them per block.
//!
//! This lives in its own integration-test binary so [`INTERP_BUILDS`] — a
//! process-global counter — is not perturbed by unrelated tests running
//! concurrently in the same process.

use std::sync::atomic::Ordering;

use respec_sim::{targets, ExecMode, GpuSim, KernelArg, INTERP_BUILDS};

const SAXPY: &str = "func @saxpy(%gx: index, %gy: index, %gz: index, %y: memref<?xf32, global>, %x: memref<?xf32, global>, %a: f32, %n: i32) {
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
}";

/// Launches saxpy over `blocks` full blocks and returns how many width-one
/// machines were constructed for the launch.
fn builds_for(blocks: i64, mode: ExecMode) -> u64 {
    builds_for_n(blocks, (blocks * 256) as usize, mode)
}

/// [`builds_for`] with an explicit element count: when `n` is not a multiple
/// of the block size, the warp straddling `n` diverges at the bounds guard.
fn builds_for_n(blocks: i64, n: usize, mode: ExecMode) -> u64 {
    let func = respec_ir::parse_function(SAXPY).unwrap();
    let mut sim = GpuSim::new(targets::a100());
    sim.set_exec_mode(mode);
    let yb = sim.mem.alloc_f32(&vec![1.0; n]);
    let xb = sim.mem.alloc_f32(&vec![1.0; n]);
    let before = INTERP_BUILDS.load(Ordering::Relaxed);
    sim.launch(
        &func,
        [blocks, 1, 1],
        &[
            KernelArg::Buf(yb),
            KernelArg::Buf(xb),
            KernelArg::F32(2.0),
            KernelArg::I32(n as i32),
        ],
        32,
    )
    .unwrap();
    INTERP_BUILDS.load(Ordering::Relaxed) - before
}

#[test]
fn interpreter_builds_are_independent_of_block_count() {
    let one = builds_for(1, ExecMode::Scalar);
    let many = builds_for(16, ExecMode::Scalar);
    assert_eq!(
        one, many,
        "scalar pool must be built once and restarted per block"
    );
    // Host + block machines plus one width-one machine per thread of the
    // widest block: every warp runs lane by lane.
    assert_eq!(one, 2 + 256);

    // Uniform control flow in warp mode needs no per-thread machines at
    // all: only the host and block scopes run at width one.
    let warp = builds_for(16, ExecMode::WarpVectorized);
    assert_eq!(warp, 2, "uniform warps must not despool");

    // A ragged problem size diverges at the bounds guard. The guard is a
    // maskable `if`, so the straddling warp runs it under a lane mask: the
    // build count does not grow with the thread count.
    let ragged = builds_for_n(16, 16 * 256 - 100, ExecMode::WarpVectorized);
    assert_eq!(ragged, 2, "a masked bounds guard must not despool");
}
