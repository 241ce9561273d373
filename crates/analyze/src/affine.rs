//! Symbolic affine forms over parallel induction variables.
//!
//! The race detector compares shared-memory access indices symbolically.
//! Each index expression is decomposed into `constant + Σ coeff·basis`
//! where the basis variables are the launch's thread induction variables,
//! its block induction variables, and opaque symbols for everything else
//! (sequential loop ivs, parameters, loaded values). Expressions the
//! builder cannot decompose become a single opaque term with coefficient
//! one, so they still compare equal to themselves and unequal to anything
//! else — exactly the precision symbolic comparison needs.

use respec_ir::{BinOp, Function, OpId, OpKind, RegionId, Value};

/// Basis variable of an affine form.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Basis {
    /// Thread induction variable, dimension `d` of the launch.
    Thread(usize),
    /// Block induction variable, dimension `d` of the launch. Uniform
    /// across the threads of one block, so equal terms cancel in
    /// comparisons just like [`Basis::Sym`] terms.
    Block(usize),
    /// Any other SSA value: sequential loop ivs, parameters, loaded
    /// values. The second field is a loop-instance tag — the same value
    /// observed in two different iterations of an enclosing sequential
    /// loop carries different tags, so cross-iteration comparisons treat
    /// it as a distinct unknown.
    Sym(Value, u32),
}

impl Basis {
    /// Returns the thread dimension if this is a thread induction variable.
    pub fn thread_dim(self) -> Option<usize> {
        match self {
            Basis::Thread(d) => Some(d),
            _ => None,
        }
    }
}

/// `constant + Σ coeff·basis`, with sorted terms and no zero coefficients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Affine {
    /// The constant term.
    pub constant: i64,
    /// Non-constant terms, sorted by basis, coefficients non-zero.
    pub terms: Vec<(Basis, i64)>,
}

impl Affine {
    /// A constant form.
    pub fn constant(c: i64) -> Affine {
        Affine {
            constant: c,
            terms: Vec::new(),
        }
    }

    /// A single basis variable with coefficient one.
    pub fn var(b: Basis) -> Affine {
        Affine {
            constant: 0,
            terms: vec![(b, 1)],
        }
    }

    fn normalized(mut terms: Vec<(Basis, i64)>, constant: i64) -> Affine {
        terms.sort_by_key(|&(b, _)| b);
        let mut out: Vec<(Basis, i64)> = Vec::with_capacity(terms.len());
        for (b, c) in terms {
            match out.last_mut() {
                Some((pb, pc)) if *pb == b => *pc = pc.wrapping_add(c),
                _ => out.push((b, c)),
            }
        }
        out.retain(|&(_, c)| c != 0);
        Affine {
            constant,
            terms: out,
        }
    }

    /// Sum of two forms.
    pub fn add(&self, o: &Affine) -> Affine {
        let mut terms = self.terms.clone();
        terms.extend_from_slice(&o.terms);
        Affine::normalized(terms, self.constant.wrapping_add(o.constant))
    }

    /// Difference of two forms.
    pub fn sub(&self, o: &Affine) -> Affine {
        self.add(&o.scale(-1))
    }

    /// The form scaled by a constant.
    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            constant: self.constant.wrapping_mul(k),
            terms: self
                .terms
                .iter()
                .map(|&(b, c)| (b, c.wrapping_mul(k)))
                .collect(),
        }
    }

    /// The constant value if the form has no variable terms.
    pub fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.constant)
    }

    /// Coefficient of a basis variable (zero if absent).
    pub fn coeff(&self, b: Basis) -> i64 {
        self.terms
            .iter()
            .find(|&&(tb, _)| tb == b)
            .map_or(0, |&(_, c)| c)
    }

    /// Thread-iv coefficients as a dense vector of length `ndims`.
    pub fn thread_coeffs(&self, ndims: usize) -> Vec<i64> {
        (0..ndims).map(|d| self.coeff(Basis::Thread(d))).collect()
    }

    /// Terms over non-thread basis variables (block ivs and symbols).
    pub fn sym_terms(&self) -> impl Iterator<Item = (Basis, i64)> + '_ {
        self.terms
            .iter()
            .copied()
            .filter(|(b, _)| b.thread_dim().is_none())
    }

    /// Returns `true` if any term is a non-thread (symbolic) variable.
    pub fn has_sym_terms(&self) -> bool {
        self.sym_terms().next().is_some()
    }

    /// Evaluates the form at a concrete thread point, assuming no symbolic
    /// terms (callers check [`Affine::has_sym_terms`] first).
    pub fn eval_threads(&self, t: &[i64]) -> i64 {
        let mut v = self.constant;
        for &(b, c) in &self.terms {
            if let Some(d) = b.thread_dim() {
                v = v.wrapping_add(c.wrapping_mul(t[d]));
            }
        }
        v
    }
}

/// What a value is to [`AffineCx`].
#[derive(Clone, Copy)]
enum Def {
    /// Defined outside the scope (or a parameter not classified as an iv).
    Unknown,
    /// A region argument under the scope: a loop iv or carried value.
    Arg,
    /// Result of an op under the scope.
    Op(OpId),
    /// Thread induction variable of the given dimension.
    Thread(usize),
    /// Block induction variable of the given dimension.
    Block(usize),
}

/// Context for building affine forms: a def map over one kernel launch
/// plus the classification of its induction variables, as one dense table
/// indexed by [`Value::index`].
pub struct AffineCx<'f> {
    func: &'f Function,
    defs: Vec<Def>,
}

const MAX_DEPTH: u32 = 64;

impl<'f> AffineCx<'f> {
    /// Creates a context scoped to the ops under `scope` (typically the
    /// function body), classifying the given induction variables.
    pub fn new(
        func: &'f Function,
        scope: RegionId,
        thread_ivs: &[Value],
        block_ivs: &[Value],
    ) -> AffineCx<'f> {
        fn go(func: &Function, region: RegionId, defs: &mut [Def]) {
            for &op in &func.region(region).ops {
                let operation = func.op(op);
                for &r in &operation.results {
                    defs[r.index()] = Def::Op(op);
                }
                for &r in &operation.regions {
                    for &a in &func.region(r).args {
                        defs[a.index()] = Def::Arg;
                    }
                    go(func, r, defs);
                }
            }
        }
        let mut defs = vec![Def::Unknown; func.num_values()];
        go(func, scope, &mut defs);
        // A value listed as both keeps the thread classification.
        for (d, &v) in block_ivs.iter().enumerate() {
            defs[v.index()] = Def::Block(d);
        }
        for (d, &v) in thread_ivs.iter().enumerate() {
            defs[v.index()] = Def::Thread(d);
        }
        AffineCx { func, defs }
    }

    fn def(&self, v: Value) -> Def {
        self.defs.get(v.index()).copied().unwrap_or(Def::Unknown)
    }

    /// Decomposes `v` into an affine form. `tag` supplies the loop-instance
    /// tag for opaque symbols (see [`Basis::Sym`]).
    pub fn build(&self, v: Value, tag: &dyn Fn(Value) -> u32) -> Affine {
        self.build_depth(v, tag, 0)
    }

    /// The operation defining `v`, if any is in scope.
    pub fn def_of(&self, v: Value) -> Option<OpId> {
        match self.def(v) {
            Def::Op(op) => Some(op),
            _ => None,
        }
    }

    /// The value of `v` if it is an integer constant; the same answer as
    /// [`Function::const_int_value`] without scanning the op arena when
    /// `v` is defined in scope.
    pub fn const_int(&self, v: Value) -> Option<i64> {
        match self.def(v) {
            Def::Op(op) => match self.func.op(op).kind {
                OpKind::ConstInt { value, .. } => Some(value),
                _ => None,
            },
            Def::Unknown => self.func.const_int_value(v),
            Def::Arg | Def::Thread(_) | Def::Block(_) => None,
        }
    }

    fn opaque(&self, v: Value, tag: &dyn Fn(Value) -> u32) -> Affine {
        Affine::var(Basis::Sym(v, tag(v)))
    }

    fn build_depth(&self, v: Value, tag: &dyn Fn(Value) -> u32, depth: u32) -> Affine {
        let op = match self.def(v) {
            Def::Thread(d) => return Affine::var(Basis::Thread(d)),
            Def::Block(d) => return Affine::var(Basis::Block(d)),
            _ if depth >= MAX_DEPTH => return self.opaque(v, tag),
            Def::Op(op) => op,
            // Region argument or function parameter: an opaque symbol.
            Def::Arg | Def::Unknown => return self.opaque(v, tag),
        };
        let operation = self.func.op(op);
        match &operation.kind {
            OpKind::ConstInt { value, .. } => Affine::constant(*value),
            OpKind::Cast { .. } => self.build_depth(operation.operands[0], tag, depth + 1),
            OpKind::Binary(bin) => {
                let a = self.build_depth(operation.operands[0], tag, depth + 1);
                let b = self.build_depth(operation.operands[1], tag, depth + 1);
                match bin {
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::Mul => match (a.as_const(), b.as_const()) {
                        (Some(k), _) => b.scale(k),
                        (_, Some(k)) => a.scale(k),
                        _ => self.opaque(v, tag),
                    },
                    BinOp::Shl => match b.as_const() {
                        Some(k) if (0..63).contains(&k) => a.scale(1i64 << k),
                        _ => self.opaque(v, tag),
                    },
                    _ => self.opaque(v, tag),
                }
            }
            _ => self.opaque(v, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::{parse_function, walk};

    #[test]
    fn builds_linear_combinations() {
        let func = parse_function(
            "func @k(%g: index, %m: memref<?xf32, global>) {
  %c16 = const 16 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%tx, %ty) to (%c16, %c16) {
      %s = mul %ty, %c16 : index
      %i = add %s, %tx : index
      %v = load %m[%i] : f32
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let launches = respec_ir::kernel::analyze_function(&func).unwrap();
        let l = &launches[0];
        let tids = func.region(func.op(l.thread_par).regions[0]).args.clone();
        let bids = func.region(func.op(l.block_par).regions[0]).args.clone();
        let cx = AffineCx::new(&func, func.body(), &tids, &bids);
        let load = walk::collect_ops(&func, func.body())
            .into_iter()
            .find(|&o| matches!(func.op(o).kind, OpKind::Load))
            .unwrap();
        let idx = func.op(load).operands[1];
        let a = cx.build(idx, &|_| 0);
        assert_eq!(a.constant, 0);
        assert_eq!(a.coeff(Basis::Thread(0)), 1);
        assert_eq!(a.coeff(Basis::Thread(1)), 16);
        assert!(!a.has_sym_terms());
    }

    #[test]
    fn non_affine_becomes_opaque_symbol() {
        let func = parse_function(
            "func @k(%g: index, %m: memref<?xf32, global>) {
  %c16 = const 16 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c16) {
      %q = mul %t, %t : index
      %v = load %m[%q] : f32
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let launches = respec_ir::kernel::analyze_function(&func).unwrap();
        let l = &launches[0];
        let tids = func.region(func.op(l.thread_par).regions[0]).args.clone();
        let cx = AffineCx::new(&func, func.body(), &tids, &[]);
        let load = walk::collect_ops(&func, func.body())
            .into_iter()
            .find(|&o| matches!(func.op(o).kind, OpKind::Load))
            .unwrap();
        let idx = func.op(load).operands[1];
        let a = cx.build(idx, &|_| 0);
        assert!(a.has_sym_terms());
        // The same opaque expression compares equal to itself …
        assert_eq!(a, cx.build(idx, &|_| 0));
        // … and unequal under a different loop-instance tag.
        assert_ne!(a, cx.build(idx, &|_| 1));
    }

    #[test]
    fn arithmetic_normalizes() {
        let x = Affine::var(Basis::Thread(0));
        let sum = x.scale(3).sub(&x.scale(3));
        assert_eq!(sum.as_const(), Some(0));
        let shifted = x.scale(4).add(&Affine::constant(7));
        assert_eq!(shifted.eval_threads(&[5]), 27);
    }
}
