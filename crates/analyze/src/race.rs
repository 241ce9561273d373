//! Static shared-memory race detection.
//!
//! For each kernel launch, every load/store of a `shared`-space buffer
//! inside the thread-parallel loop is decomposed into an affine access
//! ([`crate::affine`]). Two accesses to the same buffer race when
//!
//! 1. at least one is a store,
//! 2. two *distinct* threads can execute them in the same **barrier
//!    interval** (no `barrier<thread>` certainly separates them), and
//! 3. their index expressions can evaluate to the same cell.
//!
//! Intervals are computed compositionally over the structured IR: a
//! running *open set* holds the accesses since the last certain barrier;
//! a barrier only counts as a separator when it executes on every path
//! (both arms of uniform `if`s, loops that provably run). Loop bodies are
//! processed twice so the wrap-around interval — iteration *i* after its
//! last barrier against iteration *i+1* before its first — is checked,
//! with the loop's values renamed between instances.
//!
//! Severity: when both indices are concrete (thread ivs and constants
//! after symbolic terms cancel) the checker *decides* the race by
//! enumerating thread pairs — a hit is an **error** with example thread
//! ids, a miss is silence. An exact test first proves most pairs
//! disjoint without enumerating (index ranges, gcds, mixed-radix
//! injectivity); it never answers for a pair that collides, so the
//! example ids are the enumeration's. Undecidable cases (symbolic
//! coefficients, unmodelled guards) are **warnings**.

use std::collections::HashSet;

use respec_ir::diag::Diagnostic;
use respec_ir::kernel::Launch;
use respec_ir::{BinOp, CmpPred, Function, OpId, OpKind, Operation, RegionId, Value};

use crate::affine::{Affine, AffineCx, Basis};
use crate::uniform::{uniformity, Uniformity};

/// A guard of the form `thread_iv[dim] == expr` with a uniform right side.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Pin {
    dim: usize,
    expr: Affine,
}

#[derive(Clone, Debug)]
struct Access {
    op: OpId,
    is_store: bool,
    buffer: Value,
    index: Vec<Affine>,
    pins: Vec<Pin>,
    /// Under a non-uniform guard the checker cannot model (range guards,
    /// data-dependent conditions, non-uniform loops): never an error.
    unknown_guard: bool,
}

enum Guard {
    Uniform,
    Pins(Vec<Pin>),
    Unknown,
}

struct SeqOut {
    open: Vec<usize>,
    has_barrier: bool,
}

/// Cap on the number of thread pairs enumerated when deciding a race;
/// beyond it the checker degrades to a warning instead of burning time.
const ENUM_CAP: i64 = 1 << 22;

/// "No loop" in [`LoopTags`]' dense tables.
const NONE: u32 = u32::MAX;

/// Loop-instance tags for opaque symbols (see [`Basis::Sym`]), over dense
/// per-value and per-op tables.
struct LoopTags {
    /// Innermost sequential loop (`for`/`while`) enclosing each value's
    /// definition, as an index into `frames`, by [`Value::index`]. Loop
    /// region arguments (ivs, carried values) count as defined by the loop
    /// itself.
    owner: Vec<u32>,
    /// Per loop: the loop op and the frame of the loop enclosing it.
    frames: Vec<(OpId, u32)>,
    /// Instance number of each loop currently being unrolled, by
    /// [`OpId::index`]; [`NONE`] when the loop is not on the stack.
    instance: Vec<u32>,
}

impl LoopTags {
    fn new(func: &Function, scope: RegionId) -> LoopTags {
        fn go(func: &Function, region: RegionId, frame: u32, tags: &mut LoopTags) {
            for &op in &func.region(region).ops {
                let operation = func.op(op);
                for &r in &operation.results {
                    tags.owner[r.index()] = frame;
                }
                let inner = if matches!(operation.kind, OpKind::For | OpKind::While) {
                    tags.frames.push((op, frame));
                    (tags.frames.len() - 1) as u32
                } else {
                    frame
                };
                for &r in &operation.regions {
                    for &a in &func.region(r).args {
                        tags.owner[a.index()] = inner;
                    }
                    go(func, r, inner, tags);
                }
            }
        }
        let mut tags = LoopTags {
            owner: vec![NONE; func.num_values()],
            frames: Vec::new(),
            instance: vec![NONE; func.num_ops()],
        };
        go(func, scope, NONE, &mut tags);
        tags
    }

    /// Distinguishes the same value seen in different iterations of the
    /// loops currently being unrolled: one bit per enclosing loop on the
    /// stack, the innermost lowest.
    fn tag_of(&self, v: Value) -> u32 {
        let mut tag = 0u32;
        let mut shift = 0u32;
        let mut frame = self.owner.get(v.index()).copied().unwrap_or(NONE);
        while frame != NONE {
            let (op, parent) = self.frames[frame as usize];
            let inst = self.instance[op.index()];
            if inst != NONE {
                if shift < 32 {
                    tag = tag.wrapping_add(inst << shift);
                }
                shift += 1;
            }
            frame = parent;
        }
        tag
    }

    fn enter(&mut self, op: OpId, inst: u32) {
        self.instance[op.index()] = inst;
    }

    fn leave(&mut self, op: OpId) {
        self.instance[op.index()] = NONE;
    }
}

struct RaceChecker<'f, 'u> {
    func: &'f Function,
    cx: AffineCx<'f>,
    uni: &'u Uniformity,
    shared: Vec<Value>,
    accesses: Vec<Access>,
    loops: LoopTags,
    active_pins: Vec<Pin>,
    unknown_guard_depth: u32,
    decider: Decider<'u>,
    diags: Vec<Diagnostic>,
    reported: HashSet<(&'static str, OpId, OpId)>,
}

/// Checks one launch of `func` for shared-memory races.
pub fn check_races(func: &Function, launch: &Launch) -> Vec<Diagnostic> {
    if launch.shared_allocs.is_empty() {
        return Vec::new();
    }
    check_races_with(func, launch, &uniformity(func, launch.thread_par))
}

/// [`check_races`] with the thread level's lattice already computed.
pub(crate) fn check_races_with(
    func: &Function,
    launch: &Launch,
    uni: &Uniformity,
) -> Vec<Diagnostic> {
    let thread_body = func.op(launch.thread_par).regions[0];
    let block_body = func.op(launch.block_par).regions[0];
    let shared: Vec<Value> = launch
        .shared_allocs
        .iter()
        .map(|&a| func.op(a).results[0])
        .collect();
    if shared.is_empty() {
        return Vec::new();
    }
    let mut checker = RaceChecker {
        func,
        cx: AffineCx::new(
            func,
            func.body(),
            &func.region(thread_body).args,
            &func.region(block_body).args,
        ),
        uni,
        shared,
        accesses: Vec::new(),
        loops: LoopTags::new(func, thread_body),
        active_pins: Vec::new(),
        unknown_guard_depth: 0,
        decider: Decider::new(&launch.block_dims, uni),
        diags: Vec::new(),
        reported: HashSet::new(),
    };
    checker.process_region(thread_body, Vec::new());
    checker.diags
}

impl<'f, 'u> RaceChecker<'f, 'u> {
    fn affine(&self, v: Value) -> Affine {
        self.cx.build(v, &|x| self.loops.tag_of(x))
    }

    fn is_shared(&self, v: Value) -> bool {
        self.shared.contains(&v)
    }

    fn process_region(&mut self, region: RegionId, mut open: Vec<usize>) -> SeqOut {
        let func = self.func;
        let mut has_barrier = false;
        for &op in &func.region(region).ops {
            let operation = func.op(op);
            match &operation.kind {
                OpKind::Load if self.is_shared(operation.operands[0]) => {
                    self.record(
                        op,
                        false,
                        operation.operands[0],
                        &operation.operands[1..],
                        &mut open,
                    );
                }
                OpKind::Store if self.is_shared(operation.operands[1]) => {
                    self.record(
                        op,
                        true,
                        operation.operands[1],
                        &operation.operands[2..],
                        &mut open,
                    );
                }
                OpKind::Barrier {
                    level: respec_ir::ParLevel::Thread,
                } => {
                    open.clear();
                    has_barrier = true;
                }
                OpKind::If => {
                    let (open2, sync) = self.process_if(operation, open);
                    open = open2;
                    has_barrier |= sync;
                }
                OpKind::For => {
                    let (open2, sync) = self.process_for(op, operation, open);
                    open = open2;
                    has_barrier |= sync;
                }
                OpKind::While => {
                    let entry = open.clone();
                    let nonuniform = operation.operands.iter().any(|&v| !self.uni.is_uniform(v));
                    if nonuniform {
                        self.unknown_guard_depth += 1;
                    }
                    let rc = self.process_region(operation.regions[0], open);
                    self.loops.enter(op, 0);
                    let r1 = self.process_region(operation.regions[1], rc.open);
                    self.loops.enter(op, 1);
                    let r2 = self.process_region(operation.regions[1], r1.open);
                    self.loops.leave(op);
                    if nonuniform {
                        self.unknown_guard_depth -= 1;
                    }
                    // The body may run zero times, so the entry set stays
                    // open; a while never certainly separates.
                    open = union(r2.open, entry);
                }
                OpKind::Parallel { .. } => {
                    // Unexpected nesting: analyze the body conservatively
                    // in the same interval context.
                    let r = self.process_region(operation.regions[0], open);
                    open = r.open;
                }
                _ => {}
            }
        }
        SeqOut { open, has_barrier }
    }

    fn process_if(&mut self, operation: &Operation, open: Vec<usize>) -> (Vec<usize>, bool) {
        let cond = operation.operands[0];
        let then_region = operation.regions[0];
        let else_region = operation.regions.get(1).copied();
        match self.classify_guard(cond) {
            Guard::Uniform => {
                // Every thread takes the same arm: the arms are exclusive
                // and the whole `if` separates only if both arms do.
                let r1 = self.process_region(then_region, open.clone());
                let r2 = match else_region {
                    Some(r) => self.process_region(r, open.clone()),
                    None => SeqOut {
                        open,
                        has_barrier: false,
                    },
                };
                (union(r1.open, r2.open), r1.has_barrier && r2.has_barrier)
            }
            guard => {
                // Divergent: different threads can sit in different arms at
                // the same time, so the arms share one running interval. A
                // barrier below a divergent guard is already reported by
                // the divergence checker; it cannot be trusted to separate.
                let pins = match guard {
                    Guard::Pins(p) => p,
                    _ => {
                        self.unknown_guard_depth += 1;
                        Vec::new()
                    }
                };
                let unknown = pins.is_empty();
                let npins = pins.len();
                self.active_pins.extend(pins);
                let r1 = self.process_region(then_region, open);
                self.active_pins.truncate(self.active_pins.len() - npins);
                let r2 = match else_region {
                    Some(r) => self.process_region(r, r1.open),
                    None => r1,
                };
                if unknown {
                    self.unknown_guard_depth -= 1;
                }
                (r2.open, false)
            }
        }
    }

    fn process_for(
        &mut self,
        op: OpId,
        operation: &Operation,
        open: Vec<usize>,
    ) -> (Vec<usize>, bool) {
        let entry = open.clone();
        let bounds = &operation.operands[..3];
        let uniform = bounds.iter().all(|&v| self.uni.is_uniform(v));
        if !uniform {
            self.unknown_guard_depth += 1;
        }
        self.loops.enter(op, 0);
        let r1 = self.process_region(operation.regions[0], open);
        self.loops.enter(op, 1);
        let r2 = self.process_region(operation.regions[0], r1.open);
        self.loops.leave(op);
        if !uniform {
            self.unknown_guard_depth -= 1;
        }
        let certainly_runs = {
            let c = |v: Value| self.cx.const_int(v);
            match (c(bounds[0]), c(bounds[1]), c(bounds[2])) {
                (Some(lb), Some(ub), Some(step)) => step > 0 && lb < ub,
                _ => false,
            }
        };
        if r1.has_barrier && uniform && certainly_runs {
            (r2.open, true)
        } else if r1.has_barrier {
            // The loop may be skipped (or its barrier divergent): its
            // barrier separates iterations internally but the accesses
            // open at entry stay open across it.
            (union(r2.open, entry), false)
        } else {
            (r2.open, false)
        }
    }

    fn classify_guard(&self, cond: Value) -> Guard {
        if self.uni.is_uniform(cond) {
            return Guard::Uniform;
        }
        match self.collect_pins(cond, 0) {
            Some(pins) if !pins.is_empty() => Guard::Pins(pins),
            _ => Guard::Unknown,
        }
    }

    /// Decomposes `cond` into a conjunction of thread-iv pins
    /// (`tx == expr && ty == expr && …`); `None` if any conjunct fails.
    fn collect_pins(&self, cond: Value, depth: u32) -> Option<Vec<Pin>> {
        if depth > 8 {
            return None;
        }
        let op = self.cx.def_of(cond)?;
        match &self.func.op(op).kind {
            OpKind::Binary(BinOp::And) => {
                let a = self.collect_pins(self.func.op(op).operands[0], depth + 1)?;
                let b = self.collect_pins(self.func.op(op).operands[1], depth + 1)?;
                Some([a, b].concat())
            }
            OpKind::Cmp(CmpPred::Eq) => {
                let lhs = self.affine(self.func.op(op).operands[0]);
                let rhs = self.affine(self.func.op(op).operands[1]);
                let d = lhs.sub(&rhs);
                let mut tterms = d
                    .terms
                    .iter()
                    .filter_map(|&(b, c)| Some((b.thread_dim()?, c)));
                let (dim, coeff) = tterms.next()?;
                if tterms.next().is_some() || coeff.abs() != 1 {
                    return None;
                }
                // d = coeff·t_dim + rest = 0  ⇒  t_dim = −rest/coeff.
                let mut rest = d.clone();
                rest.terms.retain(|(b, _)| b.thread_dim().is_none());
                let expr = rest.scale(-coeff);
                // The pinned-to expression must be uniform.
                let uniform = expr.terms.iter().all(|&(b, _)| match b {
                    Basis::Sym(v, _) => self.uni.is_uniform(v),
                    Basis::Block(_) => true,
                    Basis::Thread(_) => false,
                });
                uniform.then_some(vec![Pin { dim, expr }])
            }
            _ => None,
        }
    }

    fn record(
        &mut self,
        op: OpId,
        is_store: bool,
        buffer: Value,
        idxs: &[Value],
        open: &mut Vec<usize>,
    ) {
        let index: Vec<Affine> = idxs.iter().map(|&v| self.affine(v)).collect();
        let id = self.accesses.len();
        self.accesses.push(Access {
            op,
            is_store,
            buffer,
            index,
            pins: self.active_pins.clone(),
            unknown_guard: self.unknown_guard_depth > 0,
        });
        if is_store {
            self.check_pair(id, id);
        }
        for &o in open.iter() {
            let other = &self.accesses[o];
            if other.buffer == buffer && (is_store || other.is_store) {
                self.check_pair(id, o);
            }
        }
        open.push(id);
    }

    fn check_pair(&mut self, a: usize, b: usize) {
        let (a, b) = (&self.accesses[a], &self.accesses[b]);
        let code: &'static str = if a.is_store && b.is_store {
            "race-ww"
        } else {
            "race-rw"
        };
        let key = if a.op.index() <= b.op.index() {
            (code, a.op, b.op)
        } else {
            (code, b.op, a.op)
        };
        if self.reported.contains(&key) {
            return;
        }
        let d = match self.decider.decide(a, b) {
            Verdict::Safe => return,
            Verdict::Definite(t, t2) => self.race_diag(code, a, b, Some((t, t2))),
            Verdict::Possible(why) => {
                let mut d = self.race_diag(code, a, b, None);
                d.severity = respec_ir::Severity::Warning;
                d.message = format!("possible {} ({why})", d.message);
                d
            }
        };
        self.reported.insert(key);
        self.diags.push(d);
    }

    fn race_diag(
        &self,
        code: &'static str,
        a: &Access,
        b: &Access,
        example: Option<(Vec<i64>, Vec<i64>)>,
    ) -> Diagnostic {
        let what = match code {
            "race-ww" => "write-write race",
            _ => "read-write race",
        };
        let other = if a.op == b.op {
            "itself (two threads, one op)".to_string()
        } else {
            respec_ir::diag::op_path(self.func, b.op)
        };
        let threads = match &example {
            Some((t, t2)) => format!(
                "; e.g. threads ({}) and ({}) touch the same cell",
                fmt_tuple(t),
                fmt_tuple(t2)
            ),
            None => String::new(),
        };
        Diagnostic::error(
            code,
            format!(
                "{what} on shared buffer: conflicts with {other} in the same barrier interval{threads}"
            ),
        )
        .at_op(self.func, a.op)
        .with_suggestion(
            "separate the accesses with barrier<thread>, or make the per-thread \
             indexing injective",
        )
    }
}

/// Index values the exact pre-test reasons about stay below this
/// magnitude, so no evaluation in the enumeration wraps an `i64` and
/// integer reasoning agrees with it.
const EXACT_LIMIT: i128 = 1 << 62;

/// Thread dims the mixed-radix injectivity test handles.
const RADIX_DIMS: usize = 8;

/// Decides access pairs over one launch's thread box, with scratch
/// buffers reused across pairs.
struct Decider<'u> {
    block_dims: Vec<i64>,
    uni: &'u Uniformity,
    fixed_a: Vec<Option<i64>>,
    fixed_b: Vec<Option<i64>>,
    tied: Vec<bool>,
    t: Vec<i64>,
    t2: Vec<i64>,
    delta: Vec<i64>,
}

impl<'u> Decider<'u> {
    fn new(block_dims: &[i64], uni: &'u Uniformity) -> Decider<'u> {
        let n = block_dims.len();
        Decider {
            block_dims: block_dims.to_vec(),
            uni,
            fixed_a: vec![None; n],
            fixed_b: vec![None; n],
            tied: vec![false; n],
            t: vec![0; n],
            t2: vec![0; n],
            delta: vec![0; n],
        }
    }

    fn decide(&mut self, a: &Access, b: &Access) -> Verdict {
        if a.index.len() != b.index.len() {
            return Verdict::Possible("buffer accessed at different ranks");
        }
        if a.unknown_guard || b.unknown_guard {
            // An unmodelled guard restricts which threads execute the
            // access, so a found collision might involve excluded
            // threads: only a `Safe` answer can be trusted.
            if let Verdict::Safe = self.decide_concrete(a, b) {
                return Verdict::Safe;
            }
            return Verdict::Possible("access guarded by a condition the analysis cannot model");
        }
        self.decide_concrete(a, b)
    }

    /// Decides the pair when everything is concrete.
    fn decide_concrete(&mut self, a: &Access, b: &Access) -> Verdict {
        let ndims = self.block_dims.len();
        // Per index dimension, symbolic terms must cancel exactly;
        // otherwise the equation is undecidable.
        for (ia, ib) in a.index.iter().zip(&b.index) {
            if !ia.sym_terms().eq(ib.sym_terms()) {
                return Verdict::Possible("symbolic index terms do not cancel");
            }
            // Matching terms only cancel when the symbol is uniform across
            // threads: a thread-varying symbol (say `tx / 16`) takes
            // *different* values in the two threads of the pair, so nothing
            // about the difference of the indices is known.
            for (basis, _) in ia.sym_terms() {
                if let Basis::Sym(v, _) = basis {
                    if !self.uni.is_uniform(v) {
                        return Verdict::Possible(
                            "index depends on a thread-varying value the analysis cannot model",
                        );
                    }
                }
            }
        }
        // Pins: concrete pins fix a thread coordinate; symbolic pins only
        // help when both sides pin the same dim to the same expression.
        self.fixed_a.fill(None);
        self.fixed_b.fill(None);
        self.tied.fill(false);
        for (pins, fixed) in [(&a.pins, &mut self.fixed_a), (&b.pins, &mut self.fixed_b)] {
            for p in pins.iter() {
                if let Some(c) = p.expr.as_const() {
                    if !(0..self.block_dims[p.dim]).contains(&c) {
                        // Guard can never hold: the access is dead code.
                        return Verdict::Safe;
                    }
                    fixed[p.dim] = Some(c);
                }
            }
        }
        for (d, tie) in self.tied.iter_mut().enumerate() {
            let sym_a = a
                .pins
                .iter()
                .find(|p| p.dim == d && p.expr.as_const().is_none());
            let sym_b = b
                .pins
                .iter()
                .find(|p| p.dim == d && p.expr.as_const().is_none());
            match (sym_a, sym_b) {
                (None, None) => {}
                (Some(pa), Some(pb)) if pa.expr == pb.expr => *tie = true,
                _ => return Verdict::Possible("thread coordinate pinned to a symbolic value"),
            }
        }
        // Before either enumeration, an exact pre-test: most pairs provably
        // never share a cell, and proving that is much cheaper than
        // enumerating. A pair that may collide is enumerated as before, so
        // a reported witness is still the first one the enumeration meets.
        let unconstrained = self.fixed_a.iter().all(Option::is_none)
            && self.fixed_b.iter().all(Option::is_none)
            && self.tied.iter().all(|&t| !t);
        // Fast path: identical thread coefficients and no pins — the
        // per-dimension equations depend only on Δ = t' − t, so enumerate
        // the (much smaller) difference box instead of thread pairs.
        if unconstrained && coeffs_equal(a, b, ndims) {
            if self.provably_disjoint(a, b, unconstrained) {
                return Verdict::Safe;
            }
            return self.search_delta(a, b);
        }
        // Enumerate thread pairs (t, t') with t ≠ t'.
        let mut space: i64 = 1;
        for d in 0..ndims {
            let ra = if self.fixed_a[d].is_some() {
                1
            } else {
                self.block_dims[d]
            };
            let rb = if self.fixed_b[d].is_some() || self.tied[d] {
                1
            } else {
                self.block_dims[d]
            };
            space = space.saturating_mul(ra).saturating_mul(rb);
        }
        if space > ENUM_CAP {
            return Verdict::Possible("thread space too large to decide");
        }
        if self.provably_disjoint(a, b, unconstrained) {
            return Verdict::Safe;
        }
        self.t.fill(0);
        self.t2.fill(0);
        if self.search(a, b, 0) {
            Verdict::Definite(self.t.clone(), self.t2.clone())
        } else {
            Verdict::Safe
        }
    }

    /// `true` when no two threads — equal or not — of the pair's thread
    /// boxes (pins and ties applied) touch the same cell.
    ///
    /// Per index dimension, `a(t) − b(t')` is a linear form over the free
    /// thread coordinates; it has no root when zero lies outside its range
    /// or the gcd of its coefficients does not divide its constant. When
    /// both sides index by the same forms, the only root may be `t = t'`
    /// (one thread, one cell), which [`Decider::only_equal_threads`]
    /// proves.
    fn provably_disjoint(&self, a: &Access, b: &Access, unconstrained: bool) -> bool {
        let dims = &self.block_dims;
        if !(in_exact_range(&a.index, dims) && in_exact_range(&b.index, dims)) {
            return false;
        }
        let mut same_forms = unconstrained;
        for (ia, ib) in a.index.iter().zip(&b.index) {
            let mut konst = i128::from(ia.constant) - i128::from(ib.constant);
            let (mut g, mut lo, mut hi) = (0i128, 0i128, 0i128);
            for (d, &n) in dims.iter().enumerate() {
                let ca = i128::from(thread_coeff(ia, d));
                let cb = i128::from(thread_coeff(ib, d));
                same_forms &= ca == cb;
                let mut term = |c: i128, fixed: Option<i64>| match fixed {
                    Some(x) => konst += c * i128::from(x),
                    None if n > 1 && c != 0 => {
                        g = gcd(g, c.abs());
                        let reach = c * i128::from(n - 1);
                        lo += reach.min(0);
                        hi += reach.max(0);
                    }
                    None => {}
                };
                if self.tied[d] {
                    term(ca - cb, self.fixed_a[d]);
                } else {
                    term(ca, self.fixed_a[d]);
                    term(-cb, self.fixed_b[d]);
                }
            }
            if konst + lo > 0 || konst + hi < 0 {
                return true;
            }
            if (g == 0 && konst != 0) || (g != 0 && konst % g != 0) {
                return true;
            }
            same_forms &= konst == 0;
        }
        same_forms && self.only_equal_threads(a)
    }

    /// With both sides indexing by the same forms, threads `t ≠ t'`
    /// collide only if some nonzero Δ of the difference box solves
    /// `c·Δ = 0` in every index dimension. An index dimension whose thread
    /// coefficients, ordered by magnitude, each exceed the most the smaller
    /// ones can reach together (mixed radix, like `ty*16 + tx` over 16×16)
    /// forces Δ = 0 on its thread dims; if that covers every thread dim of
    /// extent above one, Δ = 0 is the only root.
    fn only_equal_threads(&self, a: &Access) -> bool {
        let dims = &self.block_dims;
        if dims.len() > RADIX_DIMS {
            return false;
        }
        let mut covered: u32 = 0;
        for (d, &n) in dims.iter().enumerate() {
            if n <= 1 {
                covered |= 1 << d;
            }
        }
        for ia in &a.index {
            let mut terms = [(0i128, 0usize); RADIX_DIMS];
            let mut len = 0;
            for (d, &n) in dims.iter().enumerate() {
                let c = i128::from(thread_coeff(ia, d)).abs();
                if c != 0 && n > 1 {
                    terms[len] = (c, d);
                    len += 1;
                }
            }
            let terms = &mut terms[..len];
            terms.sort_unstable();
            let mut reach = 0i128;
            let mut radix = true;
            for &(c, d) in terms.iter() {
                radix &= c > reach;
                reach += c * i128::from(dims[d] - 1);
            }
            if radix {
                for &(_, d) in terms.iter() {
                    covered |= 1 << d;
                }
            }
        }
        covered == (1u32 << dims.len()) - 1
    }

    /// Enumerates Δ = t' − t over the difference box, valid when both
    /// accesses have identical thread coefficients (the equations are
    /// then translation-invariant in t).
    fn search_delta(&mut self, a: &Access, b: &Access) -> Verdict {
        fn go(
            dims: &[i64],
            d: usize,
            delta: &mut [i64],
            check: &mut dyn FnMut(&[i64]) -> bool,
        ) -> bool {
            if d == dims.len() {
                return delta.iter().any(|&x| x != 0) && check(delta);
            }
            for v in -(dims[d] - 1)..dims[d] {
                delta[d] = v;
                if go(dims, d + 1, delta, check) {
                    return true;
                }
            }
            false
        }
        let (t, t2) = (&mut self.t, &mut self.t2);
        let mut check = |delta: &[i64]| -> bool {
            for ((x, y), &d) in t.iter_mut().zip(t2.iter_mut()).zip(delta) {
                *x = (-d).max(0);
                *y = *x + d;
            }
            a.index
                .iter()
                .zip(&b.index)
                .all(|(ia, ib)| ia.eval_threads(t) == ib.eval_threads(t2))
        };
        if go(&self.block_dims, 0, &mut self.delta, &mut check) {
            Verdict::Definite(self.t.clone(), self.t2.clone())
        } else {
            Verdict::Safe
        }
    }

    /// Depth-first enumeration over thread coordinates; dimension `d` of
    /// both `t` and `t2` is chosen per level.
    fn search(&mut self, a: &Access, b: &Access, d: usize) -> bool {
        if d == self.block_dims.len() {
            if self.t == self.t2 {
                return false;
            }
            return a
                .index
                .iter()
                .zip(&b.index)
                .all(|(ia, ib)| ia.eval_threads(&self.t) == ib.eval_threads(&self.t2));
        }
        let n = self.block_dims[d];
        let range_a = match self.fixed_a[d] {
            Some(c) => c..c + 1,
            None => 0..n,
        };
        for va in range_a {
            self.t[d] = va;
            let range_b = if self.tied[d] {
                va..va + 1
            } else {
                match self.fixed_b[d] {
                    Some(c) => c..c + 1,
                    None => 0..n,
                }
            };
            for vb in range_b {
                self.t2[d] = vb;
                if self.search(a, b, d + 1) {
                    return true;
                }
            }
        }
        false
    }
}

enum Verdict {
    Safe,
    Definite(Vec<i64>, Vec<i64>),
    Possible(&'static str),
}

/// Coefficient of thread dim `d` in `form`.
fn thread_coeff(form: &Affine, d: usize) -> i64 {
    form.coeff(Basis::Thread(d))
}

fn coeffs_equal(a: &Access, b: &Access, ndims: usize) -> bool {
    a.index
        .iter()
        .zip(&b.index)
        .all(|(ia, ib)| (0..ndims).all(|d| thread_coeff(ia, d) == thread_coeff(ib, d)))
}

/// `true` when every form stays within [`EXACT_LIMIT`] over the thread box
/// (symbolic terms excluded, as in [`Affine::eval_threads`]).
fn in_exact_range(index: &[Affine], dims: &[i64]) -> bool {
    index.iter().all(|form| {
        let mut reach = i128::from(form.constant).abs();
        for &(basis, c) in &form.terms {
            if let Some(d) = basis.thread_dim() {
                let extent = dims.get(d).map_or(0, |&n| i128::from(n.max(1) - 1));
                reach = reach.saturating_add(i128::from(c).abs() * extent);
            }
        }
        reach < EXACT_LIMIT
    })
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn union(mut a: Vec<usize>, b: Vec<usize>) -> Vec<usize> {
    for x in b {
        if !a.contains(&x) {
            a.push(x);
        }
    }
    a
}

fn fmt_tuple(t: &[i64]) -> String {
    t.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}
