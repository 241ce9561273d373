//! Uniformity analysis: which values are provably the same for every
//! iteration of a parallel loop.
//!
//! The lattice has two non-⊥ points per value, tracked as two sets:
//!
//! * **iv-dependent** — the value (transitively) depends on an induction
//!   variable of the parallel loop under analysis. A barrier guarded by
//!   such a value is definitely divergence-prone.
//! * **varying** — the value may differ across iterations for *any*
//!   reason: iv-dependence, or data flowing through memory a non-uniform
//!   store touched. `varying ⊇ iv-dependent`. A barrier guarded by a
//!   varying-but-not-iv-dependent value is only *possibly* divergent.
//!
//! Memory is modelled per buffer: a store with a varying value or index
//! taints its buffer, and loads from tainted buffers produce varying
//! values. Loads from untainted buffers at uniform indices are uniform —
//! every iteration reads the same cell of memory no other iteration
//! diverged on.

use respec_ir::walk;
use respec_ir::{Function, OpId, OpKind, RegionId, Value};

/// Per-value lattice bits.
const VARYING: u8 = 1;
const IV_DEP: u8 = 2;
/// On a memref value: some store wrote varying data or indices into it.
const TAINTED: u8 = 4;

/// Result of [`uniformity`]: membership queries for the two lattice sets.
pub struct Uniformity {
    /// Lattice bits per value, indexed by [`Value::index`].
    bits: Vec<u8>,
}

impl Uniformity {
    fn has(&self, v: Value, bit: u8) -> bool {
        self.bits.get(v.index()).is_some_and(|&b| b & bit != 0)
    }

    /// `true` if the value is provably identical for all iterations.
    pub fn is_uniform(&self, v: Value) -> bool {
        !self.has(v, VARYING)
    }

    /// `true` if the value may depend on the parallel induction variables.
    pub fn depends_on_ivs(&self, v: Value) -> bool {
        self.has(v, IV_DEP)
    }
}

struct Prop<'f> {
    func: &'f Function,
    uni: Uniformity,
    changed: bool,
}

impl<'f> Prop<'f> {
    fn any(&self, vals: &[Value], bit: u8) -> bool {
        vals.iter().any(|&v| self.uni.has(v, bit))
    }

    fn any_varying(&self, vals: &[Value]) -> bool {
        self.any(vals, VARYING)
    }

    fn any_iv(&self, vals: &[Value]) -> bool {
        self.any(vals, IV_DEP)
    }

    fn set(&mut self, v: Value, bit: u8) {
        let b = &mut self.uni.bits[v.index()];
        if *b & bit == 0 {
            *b |= bit;
            self.changed = true;
        }
    }

    fn mark(&mut self, v: Value, varying: bool, iv: bool) {
        if varying {
            self.set(v, VARYING);
        }
        if iv {
            self.set(v, IV_DEP);
        }
    }

    fn mark_all(&mut self, vals: &[Value], varying: bool, iv: bool) {
        for &v in vals {
            self.mark(v, varying, iv);
        }
    }

    fn terminator_operands(&self, region: RegionId) -> &'f [Value] {
        let func = self.func;
        func.region(region)
            .ops
            .last()
            .map_or(&[], |&t| func.op(t).operands.as_slice())
    }

    fn step(&mut self, op: OpId) {
        let func = self.func;
        let operation = func.op(op);
        let operands = operation.operands.as_slice();
        let results = operation.results.as_slice();
        match &operation.kind {
            OpKind::Store => {
                // operands: value, memref, indices…
                let mem = operands[1];
                if self.any_varying(&operands[..1]) || self.any_varying(&operands[2..]) {
                    self.set(mem, TAINTED);
                }
            }
            OpKind::Load => {
                // A load result varies when its indices vary or the buffer
                // was written non-uniformly — but memory *launders*
                // iv-dependence down to plain "varying": a guard fed from
                // memory is only possibly divergent, never provably so.
                let mem = operands[0];
                let varying = self.any_varying(operands) || self.uni.has(mem, TAINTED);
                self.mark_all(results, varying, false);
            }
            OpKind::For => {
                let body = operation.regions[0];
                let args = func.region(body).args.as_slice();
                let yielded = self.terminator_operands(body);
                // Bounds decide the induction variable.
                let bounds = &operands[..3.min(operands.len())];
                self.mark(args[0], self.any_varying(bounds), self.any_iv(bounds));
                // Each carried value joins its init and its yielded update.
                for (i, &arg) in args.iter().skip(1).enumerate() {
                    let mut feeds = [operands.get(3 + i), yielded.get(i), Some(&args[0])]
                        .into_iter()
                        .flatten();
                    let varying = feeds.clone().any(|&v| self.uni.has(v, VARYING));
                    let iv = feeds.any(|&v| self.uni.has(v, IV_DEP));
                    self.mark(arg, varying, iv);
                    if let Some(&r) = results.get(i) {
                        self.mark(r, varying, iv);
                    }
                }
            }
            OpKind::While => {
                let cond_region = operation.regions[0];
                let body_region = operation.regions[1];
                // Everything the while defines joins: inits, the loop-back
                // yield, the forwarded condition values, and the condition
                // flag itself (divergent trip counts make all of it vary).
                let feeds = [
                    operands,
                    self.terminator_operands(cond_region),
                    self.terminator_operands(body_region),
                ];
                let varying = feeds.iter().any(|f| self.any_varying(f));
                let iv = feeds.iter().any(|f| self.any_iv(f));
                self.mark_all(&func.region(cond_region).args, varying, iv);
                self.mark_all(&func.region(body_region).args, varying, iv);
                self.mark_all(results, varying, iv);
            }
            OpKind::If => {
                let mut feeds = operation
                    .regions
                    .iter()
                    .map(|&r| self.terminator_operands(r))
                    .chain([&operands[..1]]);
                let varying = feeds.clone().any(|f| self.any_varying(f));
                let iv = feeds.any(|f| self.any_iv(f));
                self.mark_all(results, varying, iv);
            }
            OpKind::Call { .. } => {
                // Unknown body and memory effects: conservatively varying.
                self.mark_all(results, true, self.any_iv(operands));
            }
            OpKind::Parallel { .. } => {
                // Iterations of a nested parallel level also diverge from
                // each other; its ivs are seeded separately.
            }
            _ => {
                let varying = self.any_varying(operands);
                let iv = self.any_iv(operands);
                self.mark_all(results, varying, iv);
            }
        }
    }
}

/// Computes uniformity of every value under the parallel op `par`,
/// relative to `par`'s own iterations.
///
/// # Panics
///
/// Panics if `par` is not a [`OpKind::Parallel`] operation.
pub fn uniformity(func: &Function, par: OpId) -> Uniformity {
    assert!(
        matches!(func.op(par).kind, OpKind::Parallel { .. }),
        "uniformity is defined relative to a parallel op"
    );
    let body = func.op(par).regions[0];
    let mut prop = Prop {
        func,
        uni: Uniformity {
            bits: vec![0; func.num_values()],
        },
        changed: false,
    };
    // Seed: this level's ivs, plus the ivs of any parallel nested below it
    // (those iterations diverge from one another too).
    prop.mark_all(&func.region(body).args, true, true);
    let ops = walk::collect_ops(func, body);
    for &op in &ops {
        if let OpKind::Parallel { .. } = func.op(op).kind {
            prop.mark_all(&func.region(func.op(op).regions[0]).args, true, true);
        }
    }
    loop {
        prop.changed = false;
        for &op in &ops {
            prop.step(op);
        }
        if !prop.changed {
            break;
        }
    }
    prop.uni
}

/// The lattices of every parallel op of a function, each computed on first
/// use and then shared by the barrier and race checkers.
pub(crate) struct Lattices<'f> {
    func: &'f Function,
    pars: Vec<(OpId, std::cell::OnceCell<Uniformity>)>,
}

impl<'f> Lattices<'f> {
    /// The parallel ops of `func`, in pre-order; nothing is computed yet.
    pub(crate) fn new(func: &'f Function) -> Lattices<'f> {
        let mut pars = Vec::new();
        walk::walk_ops(func, func.body(), &mut |op| {
            if matches!(func.op(op).kind, OpKind::Parallel { .. }) {
                pars.push((op, std::cell::OnceCell::new()));
            }
        });
        Lattices { func, pars }
    }

    /// The parallel ops, in pre-order.
    pub(crate) fn parallels(&self) -> impl Iterator<Item = OpId> + '_ {
        self.pars.iter().map(|(op, _)| *op)
    }

    /// The lattice relative to `par`'s iterations.
    ///
    /// # Panics
    ///
    /// Panics if `par` is not a parallel op of the function.
    pub(crate) fn of(&self, par: OpId) -> &Uniformity {
        let (_, cell) = self
            .pars
            .iter()
            .find(|(op, _)| *op == par)
            .expect("a parallel op of this function");
        cell.get_or_init(|| uniformity(self.func, par))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::{parse_function, ParLevel};

    fn first_parallel(func: &Function, level: ParLevel) -> OpId {
        walk::collect_ops(func, func.body())
            .into_iter()
            .find(|&o| matches!(&func.op(o).kind, OpKind::Parallel { level: l } if *l == level))
            .unwrap()
    }

    #[test]
    fn thread_iv_chains_are_varying_and_iv_dependent() {
        let func = parse_function(
            "func @k(%g: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      %i = add %t, %c8 : index
      %u = add %c8, %c8 : index
      %v = load %m[%u] : f32
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let tp = first_parallel(&func, ParLevel::Thread);
        let uni = uniformity(&func, tp);
        let ops = walk::collect_ops(&func, func.body());
        let adds: Vec<OpId> = ops
            .iter()
            .copied()
            .filter(|&o| matches!(func.op(o).kind, OpKind::Binary(respec_ir::BinOp::Add)))
            .collect();
        let i = func.op(adds[0]).results[0];
        let u = func.op(adds[1]).results[0];
        assert!(!uni.is_uniform(i));
        assert!(uni.depends_on_ivs(i));
        assert!(uni.is_uniform(u));
        // Load from an untainted buffer at a uniform index stays uniform.
        let load = ops
            .iter()
            .copied()
            .find(|&o| matches!(func.op(o).kind, OpKind::Load))
            .unwrap();
        assert!(uni.is_uniform(func.op(load).results[0]));
    }

    #[test]
    fn stores_taint_buffers() {
        let func = parse_function(
            "func @k(%g: index) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      %v = load %sm[%c0] : f32
      %f = cast %t : f32
      store %f, %sm[%t]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let tp = first_parallel(&func, ParLevel::Thread);
        let uni = uniformity(&func, tp);
        let load = walk::collect_ops(&func, func.body())
            .into_iter()
            .find(|&o| matches!(func.op(o).kind, OpKind::Load))
            .unwrap();
        // The store writes per-thread data, so even the uniform-index load
        // may observe varying values.
        assert!(!uni.is_uniform(func.op(load).results[0]));
    }

    #[test]
    fn for_iv_uniform_iff_bounds_uniform() {
        let func = parse_function(
            "func @k(%g: index) {
  %c0 = const 0 : index
  %c1 = const 1 : index
  %c8 = const 8 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      for %i = %c0 to %c8 step %c1 {
        yield
      }
      for %j = %c0 to %t step %c1 {
        yield
      }
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let tp = first_parallel(&func, ParLevel::Thread);
        let uni = uniformity(&func, tp);
        let fors: Vec<OpId> = walk::collect_ops(&func, func.body())
            .into_iter()
            .filter(|&o| matches!(func.op(o).kind, OpKind::For))
            .collect();
        let iv_of = |o: OpId| func.region(func.op(o).regions[0]).args[0];
        assert!(uni.is_uniform(iv_of(fors[0])));
        assert!(!uni.is_uniform(iv_of(fors[1])));
        assert!(uni.depends_on_ivs(iv_of(fors[1])));
    }
}
