//! The executor: one machine steps a warp of lanes in lock-step through
//! uniform operations. Every scope of a launch runs on it — a warp of the
//! thread level at the target's warp width, and the host scope, each block
//! scope and each lane of a despooled warp at width one.
//!
//! A [`WarpInterp`] keeps a *single* frame stack and a flat value-major
//! register file `vals[value * stride + lane]` (a [`Store`]; at width one a
//! plain value store, which is how child scopes read host and block values).
//! Everything that is a property of the warp-op rather than of a lane is
//! done once per warp-op:
//!
//! * **Operands** are resolved once ([`Opd`]) to a lane plane or to one
//!   uniform value. A value not bound in the warp (kernel arguments,
//!   block-scope values) is uniform by construction; a value computed in the
//!   warp from uniform operands only is kept uniform too — one evaluation,
//!   one slot — so constants, induction variables of uniform loops and the
//!   index arithmetic on them cost one lane, not a warp of them.
//! * **The lane kernel** — the `(op, type)` decode resolved ([`Num`], a
//!   cast's two domains, a comparison's predicate and domain) — is turned
//!   into one specialised lane loop by [`per_variant!`], outside the loop.
//! * **Issues and memory accesses** are counted per warp ([`WarpCounters`]):
//!   one warp-level count for an op at full mask, one access record for a
//!   load or store.
//!
//! Divergence is detected *before* any state is mutated: at a `for` header,
//! an `if` condition, a `while` condition flag, and at an `alloc` in a warp
//! wider than one lane (allocation order must match per-lane execution), the
//! per-lane inputs are peeked first. What happens when they disagree depends
//! on the op:
//!
//! * **Maskable `if`/`for`** ([`DecodedProgram::maskable`]: no barrier,
//!   alloc, `while`, `return`, `parallel` or `call` anywhere below the op) —
//!   SIMT reconvergence. A divergent `if` runs its then-arm under the lanes
//!   that took it, then its else-arm under the rest, and reconverges at the
//!   op's end; a `for` whose bounds differ per lane keeps per-lane induction
//!   state and drops a lane from the mask when its trip count is spent. Only
//!   active lanes are counted and appear in an access, so each lane executes
//!   the same ops the same number of times in the same order as a scalar
//!   machine would.
//! * **Anything else** — the warp reports [`WarpPhase::Diverged`] with the
//!   program counter still pointing *at* the divergent op; the launcher
//!   despools every lane into a width-one machine (via
//!   [`WarpInterp::despool_into`]) which replays the op with identical
//!   semantics and memory effects, counting into its lane of the warp's
//!   counters. Every ancestor of a non-maskable op is itself non-maskable,
//!   so this only ever happens at full mask with no reconvergence pending.
//!
//! Either way stats — and therefore simulated timing — are bit-identical to
//! a lane-by-lane run of the same warp for any kernel that completes. A
//! width-one machine never diverges: it has no other lane to disagree with.
//!
//! The step function is monomorphised over the mask state: while the mask is
//! full (`FULL = true`) every lane loop is the plain `0..lanes` loop, so
//! kernels that never diverge pay nothing for the masking machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use respec_ir::{BinOp, CmpPred, Function, OpId, RegionId, Value};

use crate::decoded::{slot_value, DecodedOp, DecodedProgram, Num, Slot};
use crate::interp::{
    cast_float, cast_int, compare, eval_unary, float_binary, int_binary, want_float, want_int,
    want_mem, Frame, FrameKind, SimError, WarpCounters,
};
use crate::memory::DeviceMemory;
use crate::value::{MemVal, RtVal, Store};

/// Counts every width-one machine built — host scope, block scope and one
/// per despooled lane — *not* restarts. Allocation-regression tests assert
/// that the launch loop reuses them across blocks instead of rebuilding
/// them.
#[doc(hidden)]
pub static INTERP_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Execution context for one phase of a machine.
pub(crate) struct WarpCx<'a> {
    pub(crate) mem: &'a mut DeviceMemory,
    /// Value stores of enclosing scopes (innermost first).
    pub(crate) parents: &'a [&'a Store],
    /// The warp's counters (host and block scopes count into a scratch set
    /// nobody reads).
    pub(crate) counters: &'a mut WarpCounters,
    /// Divergent maskable branches entered (observability only).
    pub(crate) masked_branches: &'a mut u64,
}

/// An operand resolved once for a whole warp-op. `T` is the payload kind it
/// was resolved as: a uniform value is kind-checked at resolution, a plane
/// lane by lane as it is read.
#[derive(Clone, Copy)]
enum Opd<T = RtVal> {
    /// One value per lane: `vals[base + lane]`.
    Plane(usize),
    /// The same value in every active lane: bound in an enclosing scope
    /// (kernel arguments, block-scope values), or computed in the warp from
    /// uniform operands only.
    Uni(T),
}

impl<T> Opd<T> {
    fn is_uniform(&self) -> bool {
        matches!(self, Opd::Uni(_))
    }
}

/// `match $val` over the listed variants of `$ty`, with the matched variant
/// bound to a *constant* `$k` in its arm: an `#[inline(always)]` callee's own
/// `match` on `$k` folds away, so each arm holds one specialised lane loop
/// and the choice between them is made once per warp-op.
macro_rules! per_variant {
    ($val:expr, $ty:ident { $($v:ident),+ }, $k:ident => $body:expr) => {
        match $val {
            $($ty::$v => {
                const $k: $ty = $ty::$v;
                $body
            })+
        }
    };
}

/// Outcome of [`WarpInterp::run_phase`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum WarpPhase {
    /// Every lane finished the scope.
    Done,
    /// Every lane reached the same barrier and suspended.
    Barrier,
    /// Lanes disagree on control flow at an op the lane mask cannot carry
    /// (or reached an `alloc`); the program counter points at that op.
    /// Despool each lane into a width-one machine and continue per lane.
    Diverged,
    /// A nested `parallel` was reached (host and block scopes); the caller
    /// expands it and runs on, the program counter already past it.
    Launch(OpId),
}

enum WarpStep {
    Ran,
    Done,
    Barrier,
    Diverged,
    Launch(OpId),
}

/// A pending reconvergence point: a divergent maskable `if`/`for` whose
/// region frame sits at `depth` on the frame stack.
#[derive(Clone, Copy)]
struct Reconv {
    /// `frames.len()` while the governed region frame is the innermost one.
    depth: usize,
    /// Active range of `lane_buf` to restore at reconvergence (unused by the
    /// outermost entry, which restores the full mask).
    prev: (usize, usize),
    /// `lane_buf` length to restore at reconvergence.
    mark: usize,
    kind: ReconvKind,
}

#[derive(Clone, Copy)]
enum ReconvKind {
    /// Divergent `if`: the else-arm and the `lane_buf` range still owed it.
    If {
        pending: Option<(RegionId, usize, usize)>,
    },
    /// Divergent `for`: base of this loop's per-lane `(iv, ub, step)`
    /// triples in `loop_state`.
    For { state: usize },
}

/// A warp of lanes executing one region tree in lock-step.
pub(crate) struct WarpInterp<'f> {
    func: &'f Function,
    program: Arc<DecodedProgram>,
    /// Lane capacity (target warp width); `lanes <= stride`.
    stride: usize,
    lanes: usize,
    frames: Vec<Frame>,
    /// Value-major register file: `vals[value * stride + lane]`; a uniform
    /// value lives in its lane-0 slot. A value is bound (in every lane that
    /// was active where it is defined) while its epoch is current.
    regs: Store,
    /// Per bound value: one value for every active lane (see [`Opd::Uni`]).
    uni: Vec<bool>,
    /// `Some(l)` while this width-one machine runs lane `l` of a despooled
    /// warp: it counts into that lane of the warp's counters, never at the
    /// warp level.
    despooled_lane: Option<u32>,
    done: bool,
    /// Resolved sources of the `yield`/`for`/`while` being executed.
    srcs: Vec<Opd>,
    /// One lane's source values, staged between read and write.
    staged: Vec<RtVal>,
    /// Reconvergence stack; empty exactly when the mask is full.
    reconv: Vec<Reconv>,
    /// Arena of ascending lane-id lists, one or two per `reconv` entry.
    lane_buf: Vec<u32>,
    /// Active lanes while the mask is partial: `lane_buf[act.0..act.1]`.
    act: (usize, usize),
    /// Per-lane `(iv, ub, step)` of divergent loops, `3 * stride` per entry.
    loop_state: Vec<i64>,
}

impl<'f> WarpInterp<'f> {
    pub(crate) fn new(
        func: &'f Function,
        program: Arc<DecodedProgram>,
        stride: usize,
    ) -> WarpInterp<'f> {
        let stride = stride.max(1);
        if stride == 1 {
            INTERP_BUILDS.fetch_add(1, Ordering::Relaxed);
        }
        WarpInterp {
            func,
            program,
            stride,
            lanes: 0,
            frames: Vec::new(),
            regs: Store::with_stride(func.num_values(), stride),
            uni: vec![false; func.num_values()],
            despooled_lane: None,
            done: false,
            srcs: Vec::new(),
            staged: Vec::new(),
            reconv: Vec::new(),
            lane_buf: Vec::new(),
            act: (0, 0),
            loop_state: Vec::new(),
        }
    }

    /// Rewinds the warp to the start of `region` with `lanes` active lanes,
    /// clearing all bindings without reallocating.
    pub(crate) fn restart(&mut self, region: RegionId, lanes: usize) {
        self.rewind(
            &[Frame {
                region,
                idx: 0,
                kind: FrameKind::Root,
            }],
            lanes,
            None,
        );
    }

    fn rewind(&mut self, frames: &[Frame], lanes: usize, despooled_lane: Option<u32>) {
        debug_assert!(lanes >= 1 && lanes <= self.stride);
        self.lanes = lanes;
        self.frames.clear();
        self.frames.extend_from_slice(frames);
        self.regs.reset();
        self.despooled_lane = despooled_lane;
        self.done = false;
        self.reconv.clear();
        self.lane_buf.clear();
        self.loop_state.clear();
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// The register file; at width one, the scope's value store that child
    /// scopes read.
    pub(crate) fn regs(&self) -> &Store {
        &self.regs
    }

    /// Binds `v` per lane (e.g. thread ids) before stepping.
    pub(crate) fn set_with(&mut self, v: Value, mut f: impl FnMut(usize) -> RtVal) {
        let base = v.index() * self.stride;
        for lane in 0..self.lanes {
            self.regs.vals[base + lane] = f(lane);
        }
        self.stamp(v, false);
    }

    /// Copies one lane's live state into a width-one machine, which then
    /// counts into that lane of this warp's counters. It resumes with the
    /// same frame stack — its program counter at the op the warp stopped
    /// on — and every epoch-current value bound. Only valid at full mask,
    /// which is the only place a warp diverges.
    pub(crate) fn despool_into(&self, lane: usize, target: &mut WarpInterp<'f>) {
        debug_assert!(self.reconv.is_empty(), "despool under a partial mask");
        debug_assert_eq!(target.stride, 1, "a lane despools into a width-one machine");
        target.rewind(&self.frames, 1, Some(lane as u32));
        for (v, &e) in self.regs.epochs.iter().enumerate() {
            if e == self.regs.cur {
                let at = v * self.stride + if self.uni[v] { 0 } else { lane };
                target.def_uniform(Value::from_index(v), self.regs.vals[at]);
            }
        }
    }

    /// Number of active lanes.
    #[inline(always)]
    fn width<const FULL: bool>(&self) -> usize {
        if FULL {
            self.lanes
        } else {
            self.act.1 - self.act.0
        }
    }

    /// The `i`-th active lane; the identity while the mask is full.
    #[inline(always)]
    fn lane_at<const FULL: bool>(&self, i: usize) -> usize {
        if FULL {
            i
        } else {
            self.lane_buf[self.act.0 + i] as usize
        }
    }

    /// One issue of `op` by the warp: one warp-level count at full mask, one
    /// per active lane otherwise (a despooled lane: its own).
    #[inline(always)]
    fn bump<const FULL: bool>(&self, counters: &mut WarpCounters, op: OpId) {
        if !FULL {
            counters.bump_lanes(op, &self.lane_buf[self.act.0..self.act.1]);
        } else if let Some(lane) = &self.despooled_lane {
            counters.bump_lanes(op, std::slice::from_ref(lane));
        } else {
            counters.bump_warp(op);
        }
    }

    /// Resolves an operand of the kind `want` extracts: a value bound in the
    /// warp is its plane (or its one value, if it was defined uniform);
    /// anything else is looked up in the enclosing scopes, once, and is
    /// uniform by construction.
    #[inline]
    fn typed<T>(
        &self,
        parents: &[&Store],
        slot: Slot,
        want: impl Fn(RtVal) -> Result<T, SimError>,
    ) -> Result<Opd<T>, SimError> {
        let v = slot as usize;
        if self.regs.epochs[v] == self.regs.cur {
            let base = v * self.stride;
            return Ok(if self.uni[v] {
                Opd::Uni(want(self.regs.vals[base])?)
            } else {
                Opd::Plane(base)
            });
        }
        for p in parents {
            if let Some(val) = p.get(slot_value(slot)) {
                return Ok(Opd::Uni(want(val)?));
            }
        }
        Err(SimError::new(format!(
            "use of unbound value {:?}",
            slot_value(slot)
        )))
    }

    /// [`WarpInterp::typed`] for an operand of any kind.
    #[inline]
    fn opd(&self, parents: &[&Store], slot: Slot) -> Result<Opd, SimError> {
        self.typed(parents, slot, Ok)
    }

    #[inline(always)]
    fn at<T: Copy>(
        &self,
        o: Opd<T>,
        lane: usize,
        want: impl Fn(RtVal) -> Result<T, SimError>,
    ) -> Result<T, SimError> {
        match o {
            Opd::Plane(base) => want(self.regs.vals[base + lane]),
            Opd::Uni(v) => Ok(v),
        }
    }

    #[inline(always)]
    fn rd(&self, o: Opd, lane: usize) -> RtVal {
        match o {
            Opd::Plane(base) => self.regs.vals[base + lane],
            Opd::Uni(v) => v,
        }
    }

    /// Marks `v` bound, as a plane or as one uniform value.
    #[inline]
    fn stamp(&mut self, v: Value, uniform: bool) {
        self.uni[v.index()] = uniform;
        self.regs.epochs[v.index()] = self.regs.cur;
    }

    fn def_uniform(&mut self, v: Value, val: RtVal) {
        self.regs.vals[v.index() * self.stride] = val;
        self.stamp(v, true);
    }

    /// Defines `out` as `f(lane)` in every active lane — or, when the op's
    /// inputs are all `uniform`, evaluates `f` once and keeps one value.
    #[inline(always)]
    fn def<const FULL: bool>(
        &mut self,
        out: Slot,
        uniform: bool,
        f: impl Fn(&Self, usize) -> Result<RtVal, SimError>,
    ) -> Result<(), SimError> {
        let base = out as usize * self.stride;
        // One call site for `f`, so that it is inlined into the loop: the
        // uniform case is the first active lane alone, kept in slot 0.
        let n = if uniform { 1 } else { self.width::<FULL>() };
        for i in 0..n {
            let lane = self.lane_at::<FULL>(i);
            let val = f(self, lane)?;
            self.regs.vals[base + if uniform { 0 } else { lane }] = val;
        }
        self.stamp(slot_value(out), uniform);
        Ok(())
    }

    /// [`WarpInterp::def`] of a one-operand lane kernel.
    #[inline(always)]
    fn def1<const FULL: bool, T: Copy>(
        &mut self,
        out: Slot,
        v: Opd<T>,
        want: impl Fn(RtVal) -> Result<T, SimError>,
        f: impl Fn(T) -> RtVal,
    ) -> Result<(), SimError> {
        self.def::<FULL>(out, v.is_uniform(), |w, lane| Ok(f(w.at(v, lane, &want)?)))
    }

    /// [`WarpInterp::def`] of a two-operand lane kernel.
    #[inline(always)]
    fn def2<const FULL: bool, T: Copy>(
        &mut self,
        out: Slot,
        (l, r): (Opd<T>, Opd<T>),
        want: impl Fn(RtVal) -> Result<T, SimError>,
        f: impl Fn(T, T) -> Result<RtVal, SimError>,
    ) -> Result<(), SimError> {
        self.def::<FULL>(out, l.is_uniform() && r.is_uniform(), |w, lane| {
            f(w.at(l, lane, &want)?, w.at(r, lane, &want)?)
        })
    }

    /// Resolves the sources of a parallel assignment into `srcs`.
    fn resolve(&mut self, parents: &[&Store], slots: &[Slot]) -> Result<(), SimError> {
        self.srcs.clear();
        for &s in slots {
            let o = self.opd(parents, s)?;
            self.srcs.push(o);
        }
        Ok(())
    }

    /// Binds `srcs` to `targets` in every active lane, truncating to the
    /// shorter list as a `zip` does: planes are
    /// copied plane to plane, a uniform source makes its target uniform.
    fn bind<const FULL: bool>(&mut self, targets: &[Value]) {
        let n = targets.len().min(self.srcs.len());
        // A source plane that an earlier pair overwrites (loop arguments
        // swapped through the `yield`) must be read first: go lane by lane.
        let clobbered = (1..n).any(|k| {
            matches!(self.srcs[k], Opd::Plane(base)
                if targets[..k].iter().any(|t| t.index() * self.stride == base))
        });
        if clobbered {
            for i in 0..self.width::<FULL>() {
                self.bind_lane(targets, self.lane_at::<FULL>(i));
            }
            return self.stamp_planes(targets);
        }
        for (k, &t) in targets[..n].iter().enumerate() {
            let to = t.index() * self.stride;
            match self.srcs[k] {
                Opd::Uni(val) => self.regs.vals[to] = val,
                Opd::Plane(from) if FULL => self.regs.vals.copy_within(from..from + self.lanes, to),
                Opd::Plane(from) => {
                    for i in 0..self.width::<FULL>() {
                        let lane = self.lane_at::<FULL>(i);
                        self.regs.vals[to + lane] = self.regs.vals[from + lane];
                    }
                }
            }
            self.stamp(t, self.srcs[k].is_uniform());
        }
    }

    /// [`WarpInterp::bind`] for one lane, every source read before any
    /// target is written, without stamping the targets (divergent loops
    /// route each lane to the body args or the results).
    fn bind_lane(&mut self, targets: &[Value], lane: usize) {
        let n = targets.len().min(self.srcs.len());
        self.staged.clear();
        for k in 0..n {
            self.staged.push(self.rd(self.srcs[k], lane));
        }
        for (&t, &val) in targets.iter().zip(&self.staged) {
            self.regs.vals[t.index() * self.stride + lane] = val;
        }
    }

    /// Marks the targets of lane-by-lane binds bound, as planes.
    fn stamp_planes(&mut self, targets: &[Value]) {
        for &t in targets.iter().take(self.srcs.len()) {
            self.stamp(t, false);
        }
    }

    /// An integer operand's value if every active lane agrees on it;
    /// `Ok(None)` means the lanes disagree (or a non-lead lane holds a
    /// non-integer — the per-lane path surfaces that lane's own error).
    /// Reads only; no counters move.
    fn uniform_int<const FULL: bool>(&self, o: Opd) -> Result<Option<i64>, SimError> {
        let v0 = want_int(self.rd(o, self.lane_at::<FULL>(0)))?;
        if let Opd::Plane(base) = o {
            for i in 1..self.width::<FULL>() {
                match self.regs.vals[base + self.lane_at::<FULL>(i)].try_int() {
                    Some(v) if v == v0 => {}
                    _ => return Ok(None),
                }
            }
        }
        Ok(Some(v0))
    }

    /// Divergence at an op the lane mask cannot carry: despool at full mask.
    /// Under a partial mask the decode-time maskable table rules it out, so
    /// reaching it means malformed IR.
    fn diverge<const FULL: bool>(&self, op_id: OpId) -> Result<WarpStep, SimError> {
        if FULL {
            Ok(WarpStep::Diverged)
        } else {
            Err(partial_mask_error(op_id))
        }
    }

    /// Runs until a barrier, divergence, or completion.
    pub(crate) fn run_phase(&mut self, cx: &mut WarpCx<'_>) -> Result<WarpPhase, SimError> {
        if self.done {
            return Ok(WarpPhase::Done);
        }
        let program = Arc::clone(&self.program);
        loop {
            let step = if self.reconv.is_empty() {
                self.step_in::<true>(&program, cx)?
            } else {
                self.step_in::<false>(&program, cx)?
            };
            match step {
                WarpStep::Ran => {}
                WarpStep::Done => return Ok(WarpPhase::Done),
                WarpStep::Barrier => return Ok(WarpPhase::Barrier),
                WarpStep::Diverged => return Ok(WarpPhase::Diverged),
                WarpStep::Launch(op) => return Ok(WarpPhase::Launch(op)),
            }
        }
    }

    /// Restores the mask saved by the innermost reconvergence entry.
    fn pop_reconv(&mut self) {
        let r = self.reconv.pop().expect("reconvergence stack non-empty");
        self.act = r.prev;
        self.lane_buf.truncate(r.mark);
        if let ReconvKind::For { state } = r.kind {
            self.loop_state.truncate(state);
        }
    }

    /// Appends to `lane_buf` the active lanes whose `cond` is (non-)zero.
    fn push_lanes_where<const FULL: bool>(
        &mut self,
        cond: Opd,
        taken: bool,
    ) -> Result<(), SimError> {
        for i in 0..self.width::<FULL>() {
            let lane = self.lane_at::<FULL>(i);
            if (want_int(self.rd(cond, lane))? != 0) == taken {
                self.lane_buf.push(lane as u32);
            }
        }
        Ok(())
    }

    /// Divergent maskable `if` (pc already past it): every active lane
    /// issues the branch, then the then-lanes run their arm with the
    /// else-lanes parked on the reconvergence stack.
    #[inline(never)]
    fn enter_masked_if<const FULL: bool>(
        &mut self,
        cx: &mut WarpCx<'_>,
        op_id: OpId,
        cond: Opd,
        arms: (Option<RegionId>, Option<RegionId>),
    ) -> Result<WarpStep, SimError> {
        self.bump::<FULL>(cx.counters, op_id);
        let (Some(then_r), Some(else_r)) = arms else {
            return Err(SimError::new("`if` without both arm regions"));
        };
        let mark = self.lane_buf.len();
        self.push_lanes_where::<FULL>(cond, false)?;
        let mid = self.lane_buf.len();
        self.push_lanes_where::<FULL>(cond, true)?;
        self.frames.push(Frame {
            region: then_r,
            idx: 0,
            kind: FrameKind::If { op: op_id },
        });
        self.reconv.push(Reconv {
            depth: self.frames.len(),
            prev: self.act,
            mark,
            kind: ReconvKind::If {
                pending: Some((else_r, mark, mid)),
            },
        });
        self.act = (mid, self.lane_buf.len());
        *cx.masked_branches += 1;
        Ok(WarpStep::Ran)
    }

    /// Maskable `for` whose bounds differ across the active lanes (pc
    /// already past it): zero-trip lanes get the `iters` as results at once,
    /// the rest enter the body with per-lane induction state.
    #[inline(never)]
    fn enter_masked_for<const FULL: bool>(
        &mut self,
        cx: &mut WarpCx<'_>,
        op_id: OpId,
        bounds: [Opd; 3],
        iters: &[Slot],
        body: RegionId,
    ) -> Result<WarpStep, SimError> {
        let func = self.func;
        let args = &func.region(body).args;
        let results = &func.op(op_id).results;
        self.resolve(cx.parents, iters)?;
        let mark = self.lane_buf.len();
        let state = self.loop_state.len();
        self.loop_state.resize(state + 3 * self.stride, 0);
        for i in 0..self.width::<FULL>() {
            let lane = self.lane_at::<FULL>(i);
            let [lb, ub, step] = bounds.map(|b| want_int(self.rd(b, lane)));
            let (lb, ub, step) = (lb?, ub?, step?);
            if step <= 0 {
                return Err(SimError::new("for loop step must be positive"));
            }
            if lb < ub {
                self.loop_state[state + 3 * lane..][..3].copy_from_slice(&[lb, ub, step]);
                self.regs.vals[args[0].index() * self.stride + lane] = RtVal::Int(lb);
                self.bind_lane(&args[1..], lane);
                self.lane_buf.push(lane as u32);
            } else {
                self.bind_lane(results, lane);
            }
        }
        self.stamp_planes(results);
        if self.lane_buf.len() == mark {
            // Every lane is zero-trip: nothing to mask.
            self.loop_state.truncate(state);
            return Ok(WarpStep::Ran);
        }
        self.stamp(args[0], false);
        self.stamp_planes(&args[1..]);
        self.frames.push(Frame {
            region: body,
            idx: 0,
            // The induction state lives in `loop_state`, not in the frame.
            kind: FrameKind::For {
                op: op_id,
                iv: 0,
                ub: 0,
                step: 0,
            },
        });
        self.reconv.push(Reconv {
            depth: self.frames.len(),
            prev: self.act,
            mark,
            kind: ReconvKind::For { state },
        });
        self.act = (mark, self.lane_buf.len());
        *cx.masked_branches += 1;
        Ok(WarpStep::Ran)
    }

    /// `yield` of the region the innermost reconvergence entry governs
    /// (sources already resolved): an `if` arm hands over to the parked
    /// else-lanes or reconverges; a loop body takes its back-edge per lane,
    /// drops the lanes whose trip count is spent, and reconverges once none
    /// is left. Lanes of one result hold different arms' or iterations'
    /// values, so everything bound here is a plane.
    #[inline(never)]
    fn reconverge(&mut self, cx: &mut WarpCx<'_>, yield_op: OpId) -> WarpStep {
        let func = self.func;
        let fr = self.frames.pop().expect("frame stack non-empty");
        let top = *self.reconv.last().expect("caller matched the entry");
        match (fr.kind, top.kind) {
            (FrameKind::If { op }, ReconvKind::If { pending }) => {
                let results = &func.op(op).results;
                for i in self.act.0..self.act.1 {
                    self.bind_lane(results, self.lane_buf[i] as usize);
                }
                self.stamp_planes(results);
                match pending {
                    Some((else_r, lo, hi)) => {
                        self.reconv.last_mut().expect("non-empty").kind =
                            ReconvKind::If { pending: None };
                        self.act = (lo, hi);
                        self.frames.push(Frame {
                            region: else_r,
                            idx: 0,
                            kind: fr.kind,
                        });
                    }
                    None => self.pop_reconv(),
                }
            }
            (FrameKind::For { op, .. }, ReconvKind::For { state }) => {
                // Loop back-edge: one branch issue per active lane.
                self.bump::<false>(cx.counters, yield_op);
                let args = &func.region(fr.region).args;
                let results = &func.op(op).results;
                let (lo, hi) = self.act;
                debug_assert_eq!(hi, self.lane_buf.len(), "inner masks reconverged");
                let mut keep = lo;
                for i in lo..hi {
                    let lane = self.lane_buf[i] as usize;
                    let s = state + 3 * lane;
                    let next = self.loop_state[s] + self.loop_state[s + 2];
                    if next < self.loop_state[s + 1] {
                        self.loop_state[s] = next;
                        self.regs.vals[args[0].index() * self.stride + lane] = RtVal::Int(next);
                        self.bind_lane(&args[1..], lane);
                        self.lane_buf[keep] = lane as u32;
                        keep += 1;
                    } else {
                        self.bind_lane(results, lane);
                    }
                }
                self.lane_buf.truncate(keep);
                self.act = (lo, keep);
                if keep > lo {
                    self.frames.push(Frame { idx: 0, ..fr });
                } else {
                    self.pop_reconv();
                }
            }
            _ => unreachable!("reconvergence entries are pushed with their region frame"),
        }
        WarpStep::Ran
    }

    fn step_in<const FULL: bool>(
        &mut self,
        program: &DecodedProgram,
        cx: &mut WarpCx<'_>,
    ) -> Result<WarpStep, SimError> {
        let func = self.func;
        let frame = *self.frames.last().expect("non-done warp has frames");
        let ops = &func.region(frame.region).ops;
        debug_assert!(frame.idx < ops.len(), "regions are terminator-closed");
        let op_id = ops[frame.idx];
        let decoded = &program.steps[op_id.index()];

        // Terminators handle the frame stack themselves.
        match decoded {
            DecodedOp::Yield { vals } => {
                self.resolve(cx.parents, vals)?;
                if !FULL
                    && self
                        .reconv
                        .last()
                        .is_some_and(|r| r.depth == self.frames.len())
                {
                    return Ok(self.reconverge(cx, op_id));
                }
                let fr = self.frames.pop().expect("frame stack non-empty");
                match fr.kind {
                    FrameKind::Root => {
                        self.done = true;
                        return Ok(WarpStep::Done);
                    }
                    FrameKind::For {
                        op: for_op,
                        iv,
                        ub,
                        step,
                    } => {
                        // Loop back-edge: one branch issue per lane.
                        self.bump::<FULL>(cx.counters, op_id);
                        let next = iv + step;
                        let body = func.op(for_op).regions[0];
                        if next < ub {
                            let args = &func.region(body).args;
                            self.def_uniform(args[0], RtVal::Int(next));
                            self.bind::<FULL>(&args[1..]);
                            self.frames.push(Frame {
                                region: body,
                                idx: 0,
                                kind: FrameKind::For {
                                    op: for_op,
                                    iv: next,
                                    ub,
                                    step,
                                },
                            });
                        } else {
                            self.bind::<FULL>(&func.op(for_op).results);
                        }
                    }
                    FrameKind::If { op: if_op } => self.bind::<FULL>(&func.op(if_op).results),
                    FrameKind::WhileCond { .. } => {
                        return Err(SimError::new(
                            "while condition region must end in `condition`",
                        ))
                    }
                    FrameKind::WhileBody { op: while_op } => {
                        let cond_region = func.op(while_op).regions[0];
                        self.bind::<FULL>(&func.region(cond_region).args);
                        self.frames.push(Frame {
                            region: cond_region,
                            idx: 0,
                            kind: FrameKind::WhileCond { op: while_op },
                        });
                    }
                }
                return Ok(WarpStep::Ran);
            }
            DecodedOp::Condition { flag, vals } => {
                // Divergence checkpoint: peek the flag before mutating.
                let flag = self.opd(cx.parents, *flag)?;
                let Some(f0) = self.uniform_int::<FULL>(flag)? else {
                    return self.diverge::<FULL>(op_id);
                };
                self.resolve(cx.parents, vals)?;
                let fr = self.frames.pop().expect("frame stack non-empty");
                let while_op = match fr.kind {
                    FrameKind::WhileCond { op } => op,
                    _ => return Err(SimError::new("`condition` outside while condition region")),
                };
                self.bump::<FULL>(cx.counters, op_id);
                if f0 != 0 {
                    let body = *func
                        .op(while_op)
                        .regions
                        .get(1)
                        .ok_or_else(|| SimError::new("while without a body region"))?;
                    self.bind::<FULL>(&func.region(body).args);
                    self.frames.push(Frame {
                        region: body,
                        idx: 0,
                        kind: FrameKind::WhileBody { op: while_op },
                    });
                } else {
                    self.bind::<FULL>(&func.op(while_op).results);
                }
                return Ok(WarpStep::Ran);
            }
            DecodedOp::Return => {
                if !FULL {
                    return Err(partial_mask_error(op_id));
                }
                self.done = true;
                return Ok(WarpStep::Done);
            }
            // Divergence checkpoints: lanes are compared *before* the program
            // counter advances, so a despooled lane re-executes the op.
            DecodedOp::For {
                lb,
                ub,
                step,
                iters,
                body,
            } => {
                let bounds = [
                    self.opd(cx.parents, *lb)?,
                    self.opd(cx.parents, *ub)?,
                    self.opd(cx.parents, *step)?,
                ];
                let [lb, ub, step] = [
                    self.uniform_int::<FULL>(bounds[0])?,
                    self.uniform_int::<FULL>(bounds[1])?,
                    self.uniform_int::<FULL>(bounds[2])?,
                ];
                let (Some(lb), Some(ub), Some(step)) = (lb, ub, step) else {
                    if !program.maskable[op_id.index()] {
                        return self.diverge::<FULL>(op_id);
                    }
                    self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                    return self.enter_masked_for::<FULL>(cx, op_id, bounds, iters, *body);
                };
                self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                if step <= 0 {
                    return Err(SimError::new("for loop step must be positive"));
                }
                self.resolve(cx.parents, iters)?;
                if lb < ub {
                    let args = &func.region(*body).args;
                    self.def_uniform(args[0], RtVal::Int(lb));
                    self.bind::<FULL>(&args[1..]);
                    self.frames.push(Frame {
                        region: *body,
                        idx: 0,
                        kind: FrameKind::For {
                            op: op_id,
                            iv: lb,
                            ub,
                            step,
                        },
                    });
                } else {
                    self.bind::<FULL>(&func.op(op_id).results);
                }
                return Ok(WarpStep::Ran);
            }
            DecodedOp::If {
                cond,
                then_r,
                else_r,
            } => {
                // Uniform means every active lane holds an integer of the
                // same truthiness as the first; a bad first lane is an error
                // here, another bad lane takes the per-lane path, which
                // surfaces that lane's own error.
                let cond = self.opd(cx.parents, *cond)?;
                let truth = |w: &Self, i: usize| {
                    let v = w.rd(cond, w.lane_at::<FULL>(i));
                    v.try_int().map(|v| v != 0)
                };
                let taken = want_int(self.rd(cond, self.lane_at::<FULL>(0)))? != 0;
                let uniform = cond.is_uniform()
                    || (1..self.width::<FULL>()).all(|i| truth(self, i) == Some(taken));
                if !uniform {
                    if !program.maskable[op_id.index()] {
                        return self.diverge::<FULL>(op_id);
                    }
                    self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                    return self.enter_masked_if::<FULL>(cx, op_id, cond, (*then_r, *else_r));
                }
                self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                self.bump::<FULL>(cx.counters, op_id);
                let region = if taken { *then_r } else { *else_r }
                    .ok_or_else(|| SimError::new("`if` without both arm regions"))?;
                self.frames.push(Frame {
                    region,
                    idx: 0,
                    kind: FrameKind::If { op: op_id },
                });
                return Ok(WarpStep::Ran);
            }
            DecodedOp::Alloc { .. } if self.lanes > 1 => {
                // Allocation order must match lane-by-lane execution;
                // nothing has been allocated lock-step up to here, so the
                // despooled lanes reproduce it exactly.
                return self.diverge::<FULL>(op_id);
            }
            _ => {}
        }

        // Non-terminator: advance the program counter first so suspension
        // resumes *after* the op.
        self.frames.last_mut().expect("frame stack non-empty").idx += 1;

        match decoded {
            DecodedOp::Barrier => {
                if !FULL {
                    return Err(partial_mask_error(op_id));
                }
                self.bump::<FULL>(cx.counters, op_id);
                return Ok(WarpStep::Barrier);
            }
            DecodedOp::Parallel => return Ok(WarpStep::Launch(op_id)),
            DecodedOp::Alloc {
                out,
                elem,
                space,
                rank,
                shape,
                dyn_ops,
            } => {
                // One lane: allocate in place.
                let mut dims = [1i64; 3];
                let mut dyn_ops = dyn_ops.iter();
                for (d, &extent) in shape.iter().enumerate() {
                    dims[d] = if extent < 0 {
                        let s = *dyn_ops
                            .next()
                            .ok_or_else(|| SimError::new("alloc missing a dynamic dim operand"))?;
                        let n = self.typed(cx.parents, s, want_int)?;
                        self.at(n, 0, want_int)?
                    } else {
                        extent
                    };
                    if dims[d] < 0 {
                        return Err(SimError::new("negative allocation extent"));
                    }
                }
                let total: i64 = dims.iter().take((*rank).max(1)).product();
                let buf = cx.mem.alloc(*elem, total.max(0) as usize);
                let mem = MemVal::new(buf, *rank as u8, dims, *space);
                self.def_uniform(slot_value(*out), RtVal::Mem(mem));
            }
            DecodedOp::While { inits, cond } => {
                self.resolve(cx.parents, inits)?;
                self.bind::<FULL>(&func.region(*cond).args);
                self.frames.push(Frame {
                    region: *cond,
                    idx: 0,
                    kind: FrameKind::WhileCond { op: op_id },
                });
            }
            DecodedOp::Call { callee } => {
                return Err(SimError::new(format!(
                    "call to @{callee}: the simulator requires fully inlined kernels"
                )))
            }
            DecodedOp::ConstInt { out, value } => {
                self.def_uniform(slot_value(*out), RtVal::Int(*value));
            }
            DecodedOp::ConstFloat { out, value } => {
                self.def_uniform(slot_value(*out), RtVal::Float(*value));
            }
            DecodedOp::Binary { out, l, r, op, num } => {
                self.bump::<FULL>(cx.counters, op_id);
                self.binary::<FULL>(cx.parents, *out, (*l, *r), *op, *num)?;
            }
            DecodedOp::Unary { out, v, op, ty } => {
                self.bump::<FULL>(cx.counters, op_id);
                let v = self.opd(cx.parents, *v)?;
                self.def::<FULL>(*out, v.is_uniform(), |w, lane| {
                    eval_unary(*op, *ty, w.rd(v, lane))
                })?;
            }
            DecodedOp::Cmp {
                out,
                l,
                r,
                pred,
                float,
            } => {
                self.bump::<FULL>(cx.counters, op_id);
                if *float {
                    self.cmp::<FULL, _>(cx.parents, *out, (*l, *r), *pred, want_float)?;
                } else {
                    self.cmp::<FULL, _>(cx.parents, *out, (*l, *r), *pred, want_int)?;
                }
            }
            DecodedOp::Select { out, c, t, f } => {
                self.bump::<FULL>(cx.counters, op_id);
                let c = self.typed(cx.parents, *c, want_int)?;
                let (t, f) = (self.opd(cx.parents, *t)?, self.opd(cx.parents, *f)?);
                let uniform = c.is_uniform() && t.is_uniform() && f.is_uniform();
                self.def::<FULL>(*out, uniform, |w, lane| {
                    let flag = w.at(c, lane, want_int)? != 0;
                    Ok(w.rd(if flag { t } else { f }, lane))
                })?;
            }
            DecodedOp::Cast {
                out,
                v,
                from_float,
                to,
            } => {
                if *from_float {
                    let v = self.typed(cx.parents, *v, want_float)?;
                    self.def1::<FULL, _>(*out, v, want_float, |f| cast_float(f, *to))?;
                } else {
                    let v = self.typed(cx.parents, *v, want_int)?;
                    self.def1::<FULL, _>(*out, v, want_int, |i| cast_int(i, *to))?;
                }
            }
            DecodedOp::Load { out, mem, idx } => {
                self.access::<FULL>(cx, op_id, *mem, idx, None, *out)?;
            }
            DecodedOp::Store { val, mem, idx } => {
                self.access::<FULL>(cx, op_id, *mem, idx, Some(*val), 0)?;
            }
            DecodedOp::Dim { out, mem, index } => {
                let mem = self.typed(cx.parents, *mem, want_mem)?;
                self.def1::<FULL, _>(*out, mem, want_mem, |m| RtVal::Int(m.dim(*index)))?;
            }
            DecodedOp::Invalid { bump, msg } => {
                if *bump {
                    self.bump::<FULL>(cx.counters, op_id);
                }
                return Err(SimError::new(msg.clone()));
            }
            DecodedOp::For { .. }
            | DecodedOp::If { .. }
            | DecodedOp::Yield { .. }
            | DecodedOp::Condition { .. }
            | DecodedOp::Return => unreachable!("handled before the pc advance"),
        }
        Ok(WarpStep::Ran)
    }

    /// A binary op: the `(op, domain)` pair picks one specialised lane loop.
    #[inline(never)]
    fn binary<const FULL: bool>(
        &mut self,
        parents: &[&Store],
        out: Slot,
        (l, r): (Slot, Slot),
        op: BinOp,
        num: Num,
    ) -> Result<(), SimError> {
        match num {
            Num::Int(ty) => {
                let lr = (
                    self.typed(parents, l, want_int)?,
                    self.typed(parents, r, want_int)?,
                );
                per_variant!(
                    op,
                    BinOp { Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max, Pow },
                    K => self.def2::<FULL, _>(out, lr, want_int, |a, b| {
                        int_binary(K, ty, a, b).map(RtVal::Int)
                    })
                )
            }
            Num::Float { single } => {
                let lr = (
                    self.typed(parents, l, want_float)?,
                    self.typed(parents, r, want_float)?,
                );
                per_variant!(
                    op,
                    BinOp { Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max, Pow },
                    K => self.def2::<FULL, _>(out, lr, want_float, |a, b| {
                        float_binary(K, single, a, b).map(RtVal::Float)
                    })
                )
            }
        }
    }

    /// A comparison over operands of the kind `want` extracts: the predicate
    /// picks one specialised lane loop.
    #[inline(never)]
    fn cmp<const FULL: bool, T: Copy + PartialOrd>(
        &mut self,
        parents: &[&Store],
        out: Slot,
        (l, r): (Slot, Slot),
        pred: CmpPred,
        want: impl Fn(RtVal) -> Result<T, SimError>,
    ) -> Result<(), SimError> {
        let lr = (
            self.typed(parents, l, &want)?,
            self.typed(parents, r, &want)?,
        );
        per_variant!(pred, CmpPred { Eq, Ne, Lt, Le, Gt, Ge }, K => {
            self.def2::<FULL, _>(out, lr, &want, |a, b| Ok(RtVal::Int(compare(K, a, b) as i64)))
        })
    }

    /// A load (into `out`) or a store (of `store`): operands resolved once,
    /// one lane entry per active lane handed to the warp's counters, which
    /// book the issue and the access.
    #[inline(never)]
    fn access<const FULL: bool>(
        &mut self,
        cx: &mut WarpCx<'_>,
        op_id: OpId,
        mem: Slot,
        idx: &[Slot],
        store: Option<Slot>,
        out: Slot,
    ) -> Result<(), SimError> {
        let what = if store.is_some() { "store" } else { "load" };
        let store = match store {
            Some(val) => Some(self.opd(cx.parents, val)?),
            None => None,
        };
        let mem = self.typed(cx.parents, mem, want_mem)?;
        let mut index = [Opd::Uni(0i64); 3];
        for (d, &s) in idx.iter().enumerate() {
            index[d] = self.typed(cx.parents, s, want_int)?;
        }
        // A load whose memref and indices are all uniform reads one element:
        // every lane receives it, and every lane is in the access.
        let uniform = store.is_none() && mem.is_uniform() && index.iter().all(Opd::is_uniform);
        let base = out as usize * self.stride;
        // A despooled lane is lane 0 here and its own lane in the counters.
        let counter_lane = self.despooled_lane.unwrap_or(0) as usize;
        let start = cx.counters.begin_access();
        let mut entry = (0, 0, respec_ir::MemSpace::Global);
        for i in 0..self.width::<FULL>() {
            let lane = self.lane_at::<FULL>(i);
            if i == 0 || !uniform {
                let m = self.at(mem, lane, want_mem)?;
                let mut at = [0i64; 3];
                for d in 0..idx.len() {
                    at[d] = self.at(index[d], lane, want_int)?;
                }
                let flat = m.flatten(&at[..m.rank as usize]).ok_or_else(|| {
                    SimError::new(format!(
                        "out-of-bounds {what} at {op_id:?}: index {at:?} in {m:?}"
                    ))
                })?;
                let oob = || SimError::new(format!("out-of-bounds {what} at {op_id:?}"));
                let buf = cx.mem.buffer_mut(m.buf);
                match store {
                    None => {
                        let (f, i) = buf.load(flat).ok_or_else(oob)?;
                        self.regs.vals[base + if uniform { 0 } else { lane }] =
                            if buf.elem.is_float() {
                                RtVal::Float(f)
                            } else {
                                RtVal::Int(i)
                            };
                    }
                    Some(val) => {
                        let (f, i) = match self.rd(val, lane) {
                            RtVal::Float(f) => (f, 0),
                            RtVal::Int(i) => (0.0, i),
                            RtVal::Mem(_) => return Err(SimError::new("cannot store a memref")),
                        };
                        if !buf.store(flat, f, i) {
                            return Err(oob());
                        }
                    }
                }
                let bytes = buf.elem.size_bytes();
                entry = (buf.base_addr + flat as u64 * bytes, bytes as u8, m.space);
            }
            cx.counters
                .push_lane(counter_lane + lane, entry.0, entry.1, entry.2);
        }
        let warp_level = FULL && self.despooled_lane.is_none();
        cx.counters
            .commit_access(op_id, store.is_some(), start, warp_level);
        if store.is_none() {
            self.stamp(slot_value(out), uniform);
        }
        Ok(())
    }
}

/// A barrier, alloc, `return` or non-maskable divergence reached while the
/// mask is partial. Decode marks every op above such an op non-maskable, so
/// this is malformed IR, reported rather than trusted.
fn partial_mask_error(op_id: OpId) -> SimError {
    SimError::new(format!(
        "{op_id:?} cannot execute under a partial lane mask"
    ))
}
