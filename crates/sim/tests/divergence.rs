//! SIMT reconvergence differential: hand-written divergent kernels, each run
//! under `ExecMode::Scalar` (the reference) and `ExecMode::WarpVectorized`
//! and compared on outputs, `ExecStats` and the timing estimate's bits.
//!
//! Maskable divergence (`if`/`for` with no barrier, alloc or `while` below)
//! must stay on the lock-step machine — `despooled_warps == 0` — and the
//! non-maskable shapes must still despool and still match.

use proptest::prelude::*;
use respec_ir::{parse_function, Function, OpId, OpKind};
use respec_sim::{
    targets, ExecCounters, ExecMode, ExecStats, GpuSim, KernelArg, RaceRecord, SimError,
    TargetDesc, TargetModel,
};

/// Kernel prologue/epilogue around a thread-region body. Every kernel takes
/// an output buffer `%m` and two input buffers `%a`, `%b`, one `i32` per
/// thread, and runs one block of `threads` threads.
fn kernel(threads: usize, body: &str) -> Function {
    kernel_in(threads, "", body)
}

/// [`kernel`] with `block` spliced in at block scope, ahead of the thread
/// loop (shared allocations live there).
fn kernel_in(threads: usize, block: &str, body: &str) -> Function {
    let src = format!(
        "func @k(%gx: index, %gy: index, %gz: index, %m: memref<?xi32, global>, %a: memref<?xi32, global>, %b: memref<?xi32, global>) {{
  %T = const {threads} : index
  %c0 = const 0 : index
  %c1 = const 1 : index
  %z = const 0 : i32
  %one = const 1 : i32
  %three = const 3 : i32
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {{
{block}
    parallel<thread> (%tx, %ty, %tz) to (%T, %c1, %c1) {{
      %av = load %a[%tx] : i32
      %bv = load %b[%tx] : i32
{body}
      yield
    }}
    yield
  }}
  return
}}"
    );
    parse_function(&src).unwrap_or_else(|e| panic!("kernel parses: {e:?}\n{src}"))
}

#[derive(Debug, PartialEq)]
struct Outcome {
    seconds_bits: u64,
    stats: ExecStats,
    out: Vec<i32>,
}

fn run_mode(
    func: &Function,
    target: &TargetDesc,
    mode: ExecMode,
    a: &[i32],
    b: &[i32],
) -> Result<(Outcome, ExecCounters), SimError> {
    run_opts(func, target, mode, false, a, b).map(|(outcome, exec, _)| (outcome, exec))
}

/// [`run_mode`] with the shared-memory sanitizer switchable; also returns
/// the races it recorded.
fn run_opts(
    func: &Function,
    target: &TargetDesc,
    mode: ExecMode,
    sanitize: bool,
    a: &[i32],
    b: &[i32],
) -> Result<(Outcome, ExecCounters, Vec<RaceRecord>), SimError> {
    let mut sim = GpuSim::new(target.clone());
    sim.set_exec_mode(mode);
    sim.set_sanitize_shared(sanitize);
    let mb = sim.mem.alloc_i32(&vec![0; a.len()]);
    let ab = sim.mem.alloc_i32(a);
    let bb = sim.mem.alloc_i32(b);
    let args = [KernelArg::Buf(mb), KernelArg::Buf(ab), KernelArg::Buf(bb)];
    let report = sim.launch(func, [1, 1, 1], &args, 32)?;
    let outcome = Outcome {
        seconds_bits: report.kernel_seconds.to_bits(),
        stats: report.stats,
        out: sim.mem.read_i32(mb),
    };
    Ok((outcome, report.exec, report.races))
}

/// Runs both modes, asserts they agree bit for bit, and returns the warp
/// run's outputs and executor counters.
fn differential(
    func: &Function,
    target: &TargetDesc,
    a: &[i32],
    b: &[i32],
) -> (Vec<i32>, ExecCounters) {
    let (scalar, scalar_exec) = run_mode(func, target, ExecMode::Scalar, a, b).expect("scalar");
    let (warp, exec) = run_mode(func, target, ExecMode::WarpVectorized, a, b).expect("warp");
    assert_eq!(scalar, warp, "scalar and warp runs must be bit-identical");
    assert_eq!(scalar_exec, ExecCounters::default());
    (warp.out, exec)
}

fn assert_masked(exec: ExecCounters) {
    assert!(
        exec.masked_branches > 0,
        "expected masked execution: {exec:?}"
    );
    assert_eq!(exec.despooled_warps, 0, "maskable divergence despooled");
}

const IF_BOTH_ARMS: &str = "      %odd = and %av, %one : i32
      %p = cmp ne %odd, %z
      %r = if %p {
        %x = add %av, %bv : i32
        yield %x
      } else {
        %y = mul %av, %three : i32
        yield %y
      }
      store %r, %m[%tx]";

fn if_both_arms_model(a: i32, b: i32) -> i32 {
    if a & 1 != 0 {
        a + b
    } else {
        a * 3
    }
}

#[test]
fn divergent_if_yields_results_from_both_arms() {
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i * 7 % 11).collect();
    let b: Vec<i32> = (0..n).map(|i| 100 + i).collect();
    let (out, exec) = differential(&kernel(n as usize, IF_BOTH_ARMS), &targets::a100(), &a, &b);
    let want: Vec<i32> = a
        .iter()
        .zip(&b)
        .map(|(&a, &b)| if_both_arms_model(a, b))
        .collect();
    assert_eq!(out, want);
    assert_masked(exec);
}

/// Per-lane lower bound, upper bound and step, loop-carried accumulator.
const FOR_PER_LANE: &str = "      %lbi = and %bv, %three : i32
      %lb = cast %lbi : index
      %ub = cast %av : index
      %sti = and %bv, %one : i32
      %stp = add %sti, %one : i32
      %st = cast %stp : index
      %s = for %i = %lb to %ub step %st iter (%acc = %bv) {
        %ii = cast %i : i32
        %nx = add %acc, %ii : i32
        yield %nx
      }
      store %s, %m[%tx]";

fn for_per_lane_model(a: i32, b: i32) -> i32 {
    let (mut i, step, mut acc) = (b & 3, (b & 1) + 1, b);
    while i < a {
        acc += i;
        i += step;
    }
    acc
}

#[test]
fn divergent_for_with_zero_trip_lanes_and_carried_values() {
    let n = 32;
    // Trip counts 0..=6, several lanes zero-trip (ub <= lb).
    let a: Vec<i32> = (0..n).map(|i| i % 7).collect();
    let b: Vec<i32> = (0..n).map(|i| i * 5 % 9).collect();
    let (out, exec) = differential(&kernel(n as usize, FOR_PER_LANE), &targets::a100(), &a, &b);
    let want: Vec<i32> = a
        .iter()
        .zip(&b)
        .map(|(&a, &b)| for_per_lane_model(a, b))
        .collect();
    assert_eq!(out, want);
    assert!(want.iter().zip(&b).any(|(w, b)| w == b), "a zero-trip lane");
    assert_masked(exec);
}

#[test]
fn divergent_for_where_every_lane_is_zero_trip() {
    // Bounds differ per lane but no lane enters the body.
    let n = 32;
    let a = vec![0; n];
    let b: Vec<i32> = (0..n as i32).collect();
    let (out, exec) = differential(&kernel(n, FOR_PER_LANE), &targets::a100(), &a, &b);
    assert_eq!(out, b);
    assert_eq!(exec.despooled_warps, 0);
}

/// `if` inside a divergent `for` inside a divergent `if`; the inner `if`
/// depends on both the lane and the iteration.
const NESTED: &str = "      %p = cmp ne %av, %z
      %r = if %p {
        %ub = cast %bv : index
        %s = for %i = %c0 to %ub step %c1 iter (%acc = %z) {
          %ii = cast %i : i32
          %k = add %ii, %av : i32
          %bit = and %k, %one : i32
          %q = cmp eq %bit, %z
          %x = if %q {
            %e = add %acc, %ii : i32
            yield %e
          } else {
            %t = mul %acc, %three : i32
            %o = add %t, %one : i32
            yield %o
          }
          yield %x
        }
        yield %s
      } else {
        %neg = sub %z, %bv : i32
        yield %neg
      }
      store %r, %m[%tx]";

fn nested_model(a: i32, b: i32) -> i32 {
    if a == 0 {
        return -b;
    }
    let mut acc = 0i32;
    for i in 0..b {
        acc = if (i + a) & 1 == 0 {
            acc.wrapping_add(i)
        } else {
            acc.wrapping_mul(3).wrapping_add(1)
        };
    }
    acc
}

fn nested_want(a: &[i32], b: &[i32]) -> Vec<i32> {
    a.iter().zip(b).map(|(&a, &b)| nested_model(a, b)).collect()
}

#[test]
fn if_inside_divergent_for_inside_divergent_if() {
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i % 3).collect();
    let b: Vec<i32> = (0..n).map(|i| i * 3 % 7).collect();
    let (out, exec) = differential(&kernel(n as usize, NESTED), &targets::a100(), &a, &b);
    assert_eq!(out, nested_want(&a, &b));
    assert_masked(exec);
    // Outer `if`, the `for`, and inner `if`s all ran masked.
    assert!(exec.masked_branches >= 3, "{exec:?}");
}

#[test]
fn ragged_last_warp_masks_correctly() {
    // 40 threads on a 32-wide target: the second warp has 8 lanes.
    let n = 40;
    let a: Vec<i32> = (0..n).map(|i| (i + 1) % 4).collect();
    let b: Vec<i32> = (0..n).map(|i| i % 6).collect();
    let (out, exec) = differential(&kernel(n as usize, NESTED), &targets::a100(), &a, &b);
    assert_eq!(out, nested_want(&a, &b));
    assert_masked(exec);
}

#[test]
fn only_lane_63_of_a_64_lane_warp_takes_the_arm() {
    let n = 64;
    let mut a = vec![0; n];
    a[63] = 5;
    let b: Vec<i32> = (0..n as i32).map(|i| i % 5 + 1).collect();
    let (out, exec) = differential(&kernel(n, NESTED), &targets::mi210(), &a, &b);
    assert_eq!(out, nested_want(&a, &b));
    assert_masked(exec);
}

#[test]
fn eight_lane_cpu_width_warps_mask_correctly() {
    let cpu = targets::cpu_desktop8();
    assert_eq!(cpu.exec_width(), 8);
    let n = 20; // two full 8-lane warps and a ragged one of 4
    let a: Vec<i32> = (0..n).map(|i| i % 2).collect();
    let b: Vec<i32> = (0..n).map(|i| (i * 5) % 8).collect();
    let (out, exec) = differential(&kernel(n as usize, NESTED), &cpu.sim_desc(), &a, &b);
    assert_eq!(out, nested_want(&a, &b));
    assert_masked(exec);
}

#[test]
fn barrier_under_a_divergent_if_still_despools_and_matches() {
    let body = "      %p = cmp ne %av, %z
      if %p {
        store %bv, %m[%tx]
        barrier<thread>
        %x = add %bv, %one : i32
        store %x, %m[%tx]
        yield
      }";
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i % 2).collect();
    let b: Vec<i32> = (0..n).map(|i| 10 * i).collect();
    let (out, exec) = differential(&kernel(n as usize, body), &targets::a100(), &a, &b);
    let want: Vec<i32> = (0..n)
        .map(|i| if i % 2 != 0 { 10 * i + 1 } else { 0 })
        .collect();
    assert_eq!(out, want);
    assert_eq!(exec.despooled_warps, 1);
    assert_eq!(exec.masked_branches, 0);
    // The same despool with the sanitizer reading along: nothing moves.
    let func = kernel(n as usize, body);
    let run = |mode, sanitize| run_opts(&func, &targets::a100(), mode, sanitize, &a, &b);
    let (plain, _, _) = run(ExecMode::WarpVectorized, false).expect("warp");
    let (checked, _, _) = run(ExecMode::WarpVectorized, true).expect("warp, sanitized");
    let (scalar, _, _) = run(ExecMode::Scalar, true).expect("scalar, sanitized");
    assert_eq!(plain, checked);
    assert_eq!(scalar, checked);
}

#[test]
fn alloc_in_a_divergent_arm_still_matches() {
    let body = "      %p = cmp ne %av, %z
      if %p {
        %l = alloc() : memref<4xi32, local>
        store %bv, %l[%c0]
        %v = load %l[%c0] : i32
        %x = add %v, %av : i32
        store %x, %m[%tx]
        yield
      }";
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i % 3).collect();
    let b: Vec<i32> = (0..n).map(|i| 7 * i).collect();
    let (out, exec) = differential(&kernel(n as usize, body), &targets::a100(), &a, &b);
    let want: Vec<i32> = (0..n)
        .map(|i| if i % 3 != 0 { 7 * i + i % 3 } else { 0 })
        .collect();
    assert_eq!(out, want);
    // Alloc-bearing thread regions run per-lane from the start.
    assert_eq!(exec.masked_branches, 0);
}

#[test]
fn divergent_while_still_despools_and_matches() {
    let body = "      %w = while (%cur = %av) {
        %go = cmp gt %cur, %z
        condition %go, %cur
      } do (%x) {
        %nx = sub %x, %three : i32
        yield %nx
      }
      store %w, %m[%tx]";
    let n = 32;
    let a: Vec<i32> = (0..n).collect();
    let b = vec![0; n as usize];
    let (out, exec) = differential(&kernel(n as usize, body), &targets::a100(), &a, &b);
    let want: Vec<i32> = (0..n)
        .map(|i| if i == 0 { 0 } else { (i - 1) % 3 - 2 })
        .collect();
    assert_eq!(out, want);
    assert_eq!(exec.despooled_warps, 1);
}

#[test]
fn despooled_warp_crossing_a_barrier_counts_each_round_once() {
    // Every lane survives the despool (a divergent `while`) and meets the
    // barrier: the next round starts from the lanes' own, cleared counts, and
    // the issues the warp counted in lock-step before the despool must not
    // be merged a second time — with or without the sanitizer reading along.
    let body = "      %w = while (%cur = %av) {
        %go = cmp gt %cur, %z
        condition %go, %cur
      } do (%x) {
        %nx = sub %x, %three : i32
        yield %nx
      }
      barrier<thread>
      %s = add %w, %bv : i32
      store %s, %m[%tx]";
    let n = 32;
    let a: Vec<i32> = (0..n).collect();
    let b: Vec<i32> = (0..n).map(|i| 5 * i).collect();
    let func = kernel(n as usize, body);
    let target = targets::a100();
    let (out, exec) = differential(&func, &target, &a, &b);
    let want: Vec<i32> = (0..n)
        .map(|i| 5 * i + if i == 0 { 0 } else { (i - 1) % 3 - 2 })
        .collect();
    assert_eq!(out, want);
    assert_eq!(exec.despooled_warps, 1);
    let (scalar, _, _) = run_opts(&func, &target, ExecMode::Scalar, true, &a, &b).expect("scalar");
    let (warp, _, _) =
        run_opts(&func, &target, ExecMode::WarpVectorized, true, &a, &b).expect("warp");
    assert_eq!(scalar, warp, "sanitized runs must be bit-identical too");
}

#[test]
fn if_with_a_missing_arm_under_a_partial_mask_is_an_error() {
    // The outer `if` diverges (partial mask); the inner `if` diverges too
    // and has lost its else-arm: some lane needs a region that is not there.
    let body = "      %p = cmp ne %av, %z
      if %p {
        %q = cmp ne %bv, %z
        if %q {
          store %bv, %m[%tx]
          yield
        }
        yield
      }";
    let mut func = kernel(32, body);
    let ifs: Vec<OpId> = (0..func.num_ops())
        .map(OpId::from_index)
        .filter(|&id| matches!(func.op(id).kind, OpKind::If))
        .collect();
    let inner_if = *ifs
        .iter()
        .find(|&&inner| {
            ifs.iter()
                .any(|&outer| func.region(func.op(outer).regions[0]).ops.contains(&inner))
        })
        .expect("one `if` nested in the other's then-arm");
    func.op_mut(inner_if).regions.truncate(1);
    let a: Vec<i32> = (0..32).map(|i| i % 2).collect();
    let b: Vec<i32> = (0..32).map(|i| i % 3).collect();
    for mode in [ExecMode::Scalar, ExecMode::WarpVectorized] {
        let err = run_mode(&func, &targets::a100(), mode, &a, &b).unwrap_err();
        assert!(
            err.message.contains("without both arm regions"),
            "{mode:?}: {}",
            err.message
        );
    }
}

// ---------------------------------------------------------------------------
// Memory accesses under lane masks. The warp executor keeps one access record
// per warp-op and hands it to the accounting directly; these kernels sit on
// both sides of the rule that decides when a record may stand in for the
// per-lane `(op, occurrence)` grouping the scalar reference performs.
// ---------------------------------------------------------------------------

/// Block-scope shared buffer, one `i32` cell per thread.
const SHARED: &str = "    %sm = alloc() : memref<128xi32, shared>";

/// The nw shape: a guard that depends on the induction variable of a uniform
/// loop, around a shared load. A lane's occurrence count of the load differs
/// from the warp's, so executions of different iterations fall into one
/// `(op, occurrence)` group.
fn iv_guard_body(pred: &str) -> String {
    format!(
        "      store %bv, %sm[%tx]
      %c4 = const 4 : index
      %ti = cast %tx : i32
      %s = for %i = %c0 to %c4 step %c1 iter (%acc = %av) {{
        %ii = cast %i : i32
        %p = cmp {pred} %ti, %ii
        %x = if %p {{
          %v = load %sm[%tx] : i32
          %e = add %acc, %v : i32
          yield %e
        }} else {{
          yield %acc
        }}
        yield %x
      }}
      store %s, %m[%tx]"
    )
}

#[test]
fn iv_dependent_guard_merges_accesses_across_iterations() {
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i % 5).collect();
    let b: Vec<i32> = (0..n).map(|i| 3 * i + 1).collect();
    // `tx <= i`: lane t executes the load in iterations t..4.
    let func = kernel_in(n as usize, SHARED, &iv_guard_body("le"));
    let (out, exec) = differential(&func, &targets::a100(), &a, &b);
    let want: Vec<i32> = (0..n)
        .map(|t| a[t as usize] + b[t as usize] * (4 - t).max(0))
        .collect();
    assert_eq!(out, want);
    assert_masked(exec);

    // `tx == i`: four executions of the load, one lane each, every lane at
    // its own occurrence 0 — the reference accounts them as ONE warp access.
    let func = kernel_in(n as usize, SHARED, &iv_guard_body("eq"));
    for mode in [ExecMode::Scalar, ExecMode::WarpVectorized] {
        let (outcome, _) = run_mode(&func, &targets::a100(), mode, &a, &b).expect("runs");
        assert_eq!(outcome.stats.shared_read_requests, 1, "{mode:?}");
    }
    differential(&func, &targets::a100(), &a, &b);
}

#[test]
fn load_under_per_lane_trip_counts_then_at_full_mask() {
    // Outer iteration 0 runs the inner loop `av` times per lane (masked);
    // iteration 1 runs it three times at full mask, where each lane's
    // occurrence count of the load starts from its own `av`.
    let body = "      %c2 = const 2 : index
      %c3 = const 3 : index
      %ubl = cast %av : index
      %s = for %o = %c0 to %c2 step %c1 iter (%acc = %z) {
        %first = cmp eq %o, %c0
        %ub = select %first, %ubl, %c3 : index
        %t = for %i = %c0 to %ub step %c1 iter (%in = %acc) {
          %v = load %b[%i] : i32
          %nx = add %in, %v : i32
          yield %nx
        }
        yield %t
      }
      store %s, %m[%tx]";
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i % 7).collect();
    let b: Vec<i32> = (0..n).map(|i| 2 * i + 1).collect();
    let (out, exec) = differential(&kernel(n as usize, body), &targets::a100(), &a, &b);
    let want: Vec<i32> = a
        .iter()
        .map(|&a| b[..a as usize].iter().sum::<i32>() + b[..3].iter().sum::<i32>())
        .collect();
    assert_eq!(out, want);
    assert_masked(exec);
}

#[test]
fn arm_order_follows_the_lowest_lane_not_program_order() {
    // Odd lanes take the then-arm, which executes first; lane 0 sits in the
    // else-arm. The reference accounts warp accesses in order of their
    // lowest lane, so the else-arm's load of `%m` reaches the caches before
    // the then-arm's store to the same sectors: the load misses to DRAM and
    // the store then hits L2. In program order the store would miss instead.
    let body = "      %odd = and %tx, %c1 : index
      %p = cmp ne %odd, %c0
      if %p {
        %x = load %b[%tx] : i32
        store %x, %m[%tx]
        yield
      } else {
        %y = load %m[%tx] : i32
        %w = add %y, %av : i32
        store %w, %m[%tx]
        yield
      }";
    let n = 32;
    let a: Vec<i32> = (0..n).map(|i| i + 1).collect();
    let b: Vec<i32> = (0..n).map(|i| 100 - i).collect();
    let func = kernel(n as usize, body);
    let (out, exec) = differential(&func, &targets::a100(), &a, &b);
    let want: Vec<i32> = (0..n as usize)
        .map(|t| if t % 2 == 1 { b[t] } else { a[t] })
        .collect();
    assert_eq!(out, want);
    assert_masked(exec);
    for mode in [ExecMode::Scalar, ExecMode::WarpVectorized] {
        let (outcome, _) = run_mode(&func, &targets::a100(), mode, &a, &b).expect("runs");
        assert_eq!(outcome.stats.dram_write_sectors, 0, "{mode:?}");
        // `%a`, `%b` and `%m`: 128 bytes each, read from DRAM exactly once.
        assert_eq!(outcome.stats.dram_read_sectors, 12, "{mode:?}");
    }
}

#[test]
fn loop_arguments_swapped_and_uniform_through_the_yield() {
    // `yield %y, %x` swaps the carried values: the second source is the
    // plane the first pair overwrites. `%u`/`%w` swap too but start uniform
    // (a constant and a kernel-uniform sum), and `%k` is recomputed from the
    // induction variable alone. Run at full mask (uniform trip count) and
    // under a mask (per-lane trip count), with a uniform inner `for`.
    let body = "      %c5 = const 5 : index
      %seven = const 7 : i32
      %ubl = cast %av : index
      %x1, %y1, %u1, %w1 = for %i = %c0 to %c5 step %c1 iter (%x = %av, %y = %bv, %u = %three, %w = %seven) {
        %ii = cast %i : i32
        %k = mul %ii, %three : i32
        %xk = add %x, %k : i32
        yield %y, %xk, %w, %u
      }
      %x2, %y2, %u2 = for %j = %c0 to %ubl step %c1 iter (%x = %x1, %y = %y1, %u = %u1) {
        %in = for %q = %c0 to %c5 step %c1 iter (%a2 = %u) {
          %n = add %a2, %one : i32
          yield %n
        }
        yield %y, %x, %in
      }
      %s1 = add %x2, %w1 : i32
      %s2 = mul %y2, %three : i32
      %s3 = add %s1, %s2 : i32
      %s4 = add %s3, %u2 : i32
      store %s4, %m[%tx]";
    let model = |a: i32, b: i32| {
        let (mut x, mut y, mut u, mut w) = (a, b, 3, 7);
        for i in 0..5 {
            (x, y, u, w) = (y, x + 3 * i, w, u);
        }
        for _ in 0..a {
            (x, y, u) = (y, x, u + 5);
        }
        x + w + 3 * y + u
    };
    let n = 40;
    let a: Vec<i32> = (0..n).map(|i| i % 4).collect();
    let b: Vec<i32> = (0..n).map(|i| 11 * i - 60).collect();
    let (out, exec) = differential(&kernel(n as usize, body), &targets::a100(), &a, &b);
    let want: Vec<i32> = a.iter().zip(&b).map(|(&a, &b)| model(a, b)).collect();
    assert_eq!(out, want);
    assert_masked(exec);
}

/// [`NESTED`] with its accumulator in a shared cell and a global load in the
/// inner then-arm: loads and stores under one, two and three nested masks.
const NESTED_MEM: &str = "      store %z, %sm[%tx]
      %p = cmp ne %av, %z
      if %p {
        %ub = cast %bv : index
        for %i = %c0 to %ub step %c1 {
          %ii = cast %i : i32
          %k = add %ii, %av : i32
          %bit = and %k, %one : i32
          %q = cmp eq %bit, %z
          %old = load %sm[%tx] : i32
          if %q {
            %v = load %a[%i] : i32
            %e = add %old, %v : i32
            store %e, %sm[%tx]
            yield
          } else {
            %t = mul %old, %three : i32
            %o = add %t, %one : i32
            store %o, %sm[%tx]
            yield
          }
          yield
        }
        %r = load %sm[%tx] : i32
        store %r, %m[%tx]
        yield
      } else {
        %neg = sub %z, %bv : i32
        store %neg, %m[%tx]
        yield
      }";

fn nested_mem_want(a: &[i32], b: &[i32]) -> Vec<i32> {
    let model = |av: i32, bv: i32| {
        if av == 0 {
            return -bv;
        }
        let mut acc = 0i32;
        for i in 0..bv {
            acc = if (i + av) & 1 == 0 {
                acc.wrapping_add(a[i as usize])
            } else {
                acc.wrapping_mul(3).wrapping_add(1)
            };
        }
        acc
    };
    a.iter().zip(b).map(|(&a, &b)| model(a, b)).collect()
}

#[test]
fn ragged_last_warp_with_masked_memory_on_three_widths() {
    let cpu = targets::cpu_server64();
    assert_eq!(cpu.exec_width(), 16);
    for (target, width) in [
        (cpu.sim_desc(), 16),
        (targets::a100(), 32),
        (targets::mi210(), 64),
    ] {
        // One full warp and a ragged one of a quarter of the width.
        let n = width + width / 4;
        let a: Vec<i32> = (0..n).map(|i| (i + 1) % 4).collect();
        let b: Vec<i32> = (0..n).map(|i| i % 6).collect();
        let func = kernel_in(n as usize, SHARED, NESTED_MEM);
        let (out, exec) = differential(&func, &target, &a, &b);
        assert_eq!(out, nested_mem_want(&a, &b), "{}", target.name);
        assert_masked(exec);
    }
}

#[test]
fn sanitizer_changes_nothing_and_sees_the_same_races_in_both_modes() {
    // Masked stores of every taken lane to one shared cell race with each
    // other and with the loads of it; nothing read from the cell feeds
    // control flow, an address or the output, so the runs stay comparable.
    let body = "      store %z, %sm[%tx]
      %p = cmp ne %av, %z
      if %p {
        %ub = cast %bv : index
        for %i = %c0 to %ub step %c1 {
          store %bv, %sm[%c0]
          %v = load %sm[%tx] : i32
          yield
        }
        yield
      }
      %r = load %sm[%c0] : i32
      store %bv, %m[%tx]";
    let n = 40;
    let a: Vec<i32> = (0..n).map(|i| i % 3).collect();
    let b: Vec<i32> = (0..n).map(|i| i % 5).collect();
    let func = kernel_in(n as usize, SHARED, body);
    let target = targets::a100();
    let run = |mode, sanitize| run_opts(&func, &target, mode, sanitize, &a, &b).expect("runs");
    let mut races = Vec::new();
    for mode in [ExecMode::Scalar, ExecMode::WarpVectorized] {
        let (plain, _, none) = run(mode, false);
        let (checked, _, found) = run(mode, true);
        assert_eq!(plain, checked, "{mode:?}: the sanitizer is observational");
        assert_eq!(plain.out, b);
        assert!(none.is_empty());
        assert!(found.iter().any(|r| r.code == "race-ww"), "{found:?}");
        assert!(found.iter().any(|r| r.code == "race-rw"), "{found:?}");
        races.push((plain, found));
    }
    assert_eq!(races[0], races[1], "scalar and warp runs must agree");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-lane conditions and trip counts drawn at random over the fixed
    /// nested kernel, on a 32-wide (ragged), a 64-wide and an 8-wide target.
    #[test]
    fn random_lane_conditions_and_trip_counts_match_scalar(
        lanes in prop::collection::vec((0i32..3, 0i32..7), 40..41),
        which in 0usize..3,
    ) {
        let target = match which {
            0 => targets::a100(),
            1 => targets::mi210(),
            _ => targets::cpu_desktop8().sim_desc(),
        };
        let (a, b): (Vec<i32>, Vec<i32>) = lanes.into_iter().unzip();
        let func = kernel(a.len(), NESTED);
        let (scalar, _) = run_mode(&func, &target, ExecMode::Scalar, &a, &b).expect("scalar");
        let (warp, exec) = run_mode(&func, &target, ExecMode::WarpVectorized, &a, &b).expect("warp");
        prop_assert_eq!(&scalar, &warp);
        prop_assert_eq!(&warp.out, &nested_want(&a, &b));
        prop_assert_eq!(exec.despooled_warps, 0);
    }

    /// The same draw over the kernel with loads and stores under the nested
    /// masks: shared cells and a global load whose address is the iteration.
    #[test]
    fn random_masked_loads_and_stores_match_scalar(
        lanes in prop::collection::vec((0i32..3, 0i32..7), 40..41),
        which in 0usize..3,
    ) {
        let target = match which {
            0 => targets::a100(),
            1 => targets::mi210(),
            _ => targets::cpu_desktop8().sim_desc(),
        };
        let (a, b): (Vec<i32>, Vec<i32>) = lanes.into_iter().unzip();
        let func = kernel_in(a.len(), SHARED, NESTED_MEM);
        let (scalar, _) = run_mode(&func, &target, ExecMode::Scalar, &a, &b).expect("scalar");
        let (warp, exec) = run_mode(&func, &target, ExecMode::WarpVectorized, &a, &b).expect("warp");
        prop_assert_eq!(&scalar, &warp);
        prop_assert_eq!(&warp.out, &nested_mem_want(&a, &b));
        prop_assert_eq!(exec.despooled_warps, 0);
    }
}
