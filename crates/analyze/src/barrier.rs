//! Barrier-divergence checking.
//!
//! A scoped barrier is only well-defined when *every* iteration of its
//! enclosing parallel level reaches it together: a barrier under an `if`
//! whose condition differs per thread, or inside a loop whose trip count
//! differs per thread, deadlocks or desynchronizes real GPUs. This pass
//! walks each parallel loop, computes the uniformity lattice relative to
//! its induction variables, and flags every barrier nested under
//! non-uniform control flow.
//!
//! Severity: a guard that provably depends on the level's induction
//! variables is an **error**; a guard that is merely not provably uniform
//! (data-dependent through memory, unknown call) is a **warning**.

use respec_ir::diag::{barrier_phrase, Diagnostic};
use respec_ir::{Function, OpId, OpKind, ParLevel, RegionId, Value};

use crate::uniform::{Lattices, Uniformity};

/// One enclosing control-flow guard: its kind and the values it depends on
/// (split in two slices so a `while` borrows both its inits and its
/// condition terminator's operands).
type Guard<'f> = (&'static str, &'f [Value], &'f [Value]);

/// Checks every barrier in `func` for convergence. Returns one diagnostic
/// per problematic barrier, at the strongest applicable severity.
pub fn check_barriers(func: &Function) -> Vec<Diagnostic> {
    check_barriers_in(func, &Lattices::new(func))
}

/// [`check_barriers`] over lattices shared with the race checker; a
/// parallel level's lattice is computed only when one of its barriers sits
/// under control flow.
pub(crate) fn check_barriers_in(func: &Function, lattices: &Lattices<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for par in lattices.parallels() {
        let OpKind::Parallel { level } = func.op(par).kind else {
            unreachable!()
        };
        let uni = || lattices.of(par);
        let mut ctrl: Vec<Guard<'_>> = Vec::new();
        check_region(
            func,
            func.op(par).regions[0],
            level,
            &uni,
            &mut ctrl,
            false,
            &mut diags,
        );
    }
    diags
}

fn check_region<'f, 'l>(
    func: &'f Function,
    region: RegionId,
    level: ParLevel,
    uni: &dyn Fn() -> &'l Uniformity,
    ctrl: &mut Vec<Guard<'f>>,
    shadowed: bool,
    diags: &mut Vec<Diagnostic>,
) {
    for &op in &func.region(region).ops {
        let operation = func.op(op);
        match &operation.kind {
            OpKind::Barrier { level: l } if *l == level && !shadowed => {
                if let Some(d) = judge_barrier(func, op, level, uni, ctrl) {
                    diags.push(d);
                }
            }
            OpKind::If => {
                ctrl.push(("if", &operation.operands[..1], &[]));
                for &r in &operation.regions {
                    check_region(func, r, level, uni, ctrl, shadowed, diags);
                }
                ctrl.pop();
            }
            OpKind::For => {
                ctrl.push(("for", &operation.operands[..3], &[]));
                check_region(
                    func,
                    operation.regions[0],
                    level,
                    uni,
                    ctrl,
                    shadowed,
                    diags,
                );
                ctrl.pop();
            }
            OpKind::While => {
                // The continuation condition lives in the cond region's
                // terminator; inits feed both regions.
                let cond = func
                    .region(operation.regions[0])
                    .ops
                    .last()
                    .map_or(&[][..], |&t| func.op(t).operands.as_slice());
                ctrl.push(("while", &operation.operands, cond));
                for &r in &operation.regions {
                    check_region(func, r, level, uni, ctrl, shadowed, diags);
                }
                ctrl.pop();
            }
            OpKind::Parallel { level: l } => {
                let nested_same = *l == level;
                check_region(
                    func,
                    operation.regions[0],
                    level,
                    uni,
                    ctrl,
                    shadowed || nested_same,
                    diags,
                );
            }
            _ => {}
        }
    }
}

fn judge_barrier<'l>(
    func: &Function,
    barrier: OpId,
    level: ParLevel,
    uni: &dyn Fn() -> &'l Uniformity,
    ctrl: &[Guard<'_>],
) -> Option<Diagnostic> {
    if ctrl.is_empty() {
        return None;
    }
    let uni = uni();
    let mut warning: Option<Diagnostic> = None;
    for &(kind, vals, more) in ctrl {
        let mut vals = vals.iter().chain(more);
        if vals.clone().any(|&v| uni.depends_on_ivs(v)) {
            return Some(
                Diagnostic::error(
                    "divergent-barrier",
                    format!(
                        "{} under a `{kind}` whose {} depends on {level} induction \
                         variables: not all iterations reach the barrier together",
                        barrier_phrase(level),
                        guard_noun(kind),
                    ),
                )
                .at_op(func, barrier)
                .with_suggestion(
                    "hoist the barrier out of the divergent control flow, or make the \
                     guard uniform across the parallel level",
                ),
            );
        }
        if warning.is_none() && vals.any(|&v| !uni.is_uniform(v)) {
            warning = Some(
                Diagnostic::warning(
                    "possibly-divergent-barrier",
                    format!(
                        "{} under a `{kind}` whose {} is not provably uniform \
                         across the {level} level",
                        barrier_phrase(level),
                        guard_noun(kind),
                    ),
                )
                .at_op(func, barrier)
                .with_suggestion("prove the guard uniform or hoist the barrier"),
            );
        }
    }
    warning
}

fn guard_noun(kind: &str) -> &'static str {
    match kind {
        "if" => "condition",
        "for" => "trip count",
        _ => "continuation condition",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::parse_function;
    use respec_ir::Severity;

    fn check(src: &str) -> Vec<Diagnostic> {
        check_barriers(&parse_function(src).unwrap())
    }

    #[test]
    fn convergent_barrier_is_clean() {
        let d = check(
            "func @k(%g: index) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  %c1 = const 1 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      for %i = %c0 to %c8 step %c1 {
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}",
        );
        assert!(d.is_empty(), "unexpected diagnostics: {d:?}");
    }

    #[test]
    fn barrier_under_thread_dependent_if_is_an_error() {
        let d = check(
            "func @k(%g: index) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      %c = cmp eq %t, %c0
      if %c {
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "divergent-barrier");
        assert_eq!(d[0].severity, Severity::Error);
        assert!(d[0]
            .location
            .as_deref()
            .unwrap()
            .contains("barrier<thread>"));
    }

    #[test]
    fn barrier_in_thread_dependent_loop_is_an_error() {
        let d = check(
            "func @k(%g: index) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  %c1 = const 1 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      for %i = %c0 to %t step %c1 {
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "divergent-barrier");
    }

    #[test]
    fn data_dependent_guard_is_a_warning() {
        let d = check(
            "func @k(%g: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  %f0 = fconst 0.0 : f32
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      %v = load %m[%t] : f32
      store %v, %sm[%t]
      %w = load %sm[%c0] : f32
      %c = cmp lt %w, %f0
      if %c {
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}",
        );
        assert_eq!(d.len(), 1, "diagnostics: {d:?}");
        assert_eq!(d[0].code, "possibly-divergent-barrier");
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn uniform_guard_is_clean() {
        let d = check(
            "func @k(%g: index, %n: index) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      %c = cmp lt %n, %c0
      if %c {
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}",
        );
        assert!(d.is_empty(), "unexpected diagnostics: {d:?}");
    }
}
