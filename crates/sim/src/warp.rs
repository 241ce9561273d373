//! Warp-vectorized interpreter: one machine steps a whole warp of lanes in
//! lock-step through uniform operations.
//!
//! Instead of one [`Interp`] per thread re-walking the region tree, a
//! [`WarpInterp`] keeps a *single* frame stack and a flat value-major
//! register file `vals[value * stride + lane]`, so the per-op cost is one
//! decoded-op dispatch plus a tight lane loop.
//!
//! Divergence is detected *before* any state is mutated: at a `for` header,
//! an `if` condition, a `while` condition flag, and at `alloc` (allocation
//! order must match per-lane execution), the per-lane inputs are peeked
//! first. What happens when they disagree depends on the op:
//!
//! * **Maskable `if`/`for`** ([`DecodedProgram::maskable`]: no barrier,
//!   alloc, `while`, `return`, `parallel` or `call` anywhere below the op) —
//!   SIMT reconvergence. A divergent `if` runs its then-arm under the lanes
//!   that took it, then its else-arm under the rest, and reconverges at the
//!   op's end; a `for` whose bounds differ per lane keeps per-lane induction
//!   state and drops a lane from the mask when its trip count is spent. Only
//!   active lanes bump their [`ThreadCounters`] and push [`MemEvent`]s, so
//!   each lane executes the same ops the same number of times in the same
//!   order as a scalar machine would.
//! * **Anything else** — the warp reports [`WarpPhase::Diverged`] with the
//!   program counter still pointing *at* the divergent op; the launcher
//!   despools every lane into a scalar [`Interp`] (via
//!   [`WarpInterp::despool_into`]) which replays the op with identical
//!   semantics, counters and memory effects. Every ancestor of a
//!   non-maskable op is itself non-maskable, so this only ever happens at
//!   full mask with no reconvergence pending.
//!
//! Either way stats — and therefore simulated timing — are bit-identical to
//! scalar execution for any kernel that completes.
//!
//! The step function is monomorphised over the mask state: while the mask is
//! full (`FULL = true`) every lane loop is the plain `0..lanes` loop, so
//! kernels that never diverge pay nothing for the masking machinery.

use std::sync::Arc;

use respec_ir::{Function, OpId, RegionId, Value};

use crate::decoded::{slot_value, DecodedOp, DecodedProgram, Slot};
use crate::interp::{
    eval_binary, eval_cmp, eval_unary, want_int, want_mem, Frame, FrameKind, Interp, MemEvent,
    SimError, ThreadCounters,
};
use crate::memory::DeviceMemory;
use crate::value::{RtVal, Store};

/// Execution context for one warp phase. Mirrors `StepCx` but carries one
/// counter set per lane; warps never record allocations (alloc despools).
pub(crate) struct WarpCx<'a> {
    pub(crate) mem: &'a mut DeviceMemory,
    /// Value stores of enclosing scopes (innermost first).
    pub(crate) parents: &'a [&'a Store],
    /// Per-lane counters; `counters.len()` equals the lane count.
    pub(crate) counters: &'a mut [ThreadCounters],
    /// Divergent maskable branches entered (observability only).
    pub(crate) masked_branches: &'a mut u64,
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
    /// Despool each lane into a scalar interpreter and continue per-lane.
    Diverged,
}

enum WarpStep {
    Ran,
    Done,
    Barrier,
    Diverged,
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
    /// Value-major register file: `vals[value * stride + lane]`.
    vals: Vec<RtVal>,
    /// Shared binding epochs: `epochs[value] == cur` means bound (in every
    /// lane that was active where the value is defined).
    epochs: Vec<u32>,
    cur: u32,
    done: bool,
    /// Gather buffer, operand-major and lane-strided:
    /// `scratch[k * stride + lane]`. Grown on demand, never cleared.
    scratch: Vec<RtVal>,
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
        WarpInterp {
            func,
            program,
            stride,
            lanes: 0,
            frames: Vec::new(),
            vals: vec![RtVal::Int(0); func.num_values() * stride],
            epochs: vec![0; func.num_values()],
            cur: 0,
            done: false,
            scratch: Vec::new(),
            reconv: Vec::new(),
            lane_buf: Vec::new(),
            act: (0, 0),
            loop_state: Vec::new(),
        }
    }

    /// Rewinds the warp to the start of `region` with `lanes` active lanes,
    /// clearing all bindings without reallocating.
    pub(crate) fn restart(&mut self, region: RegionId, lanes: usize) {
        debug_assert!(lanes >= 1 && lanes <= self.stride);
        self.lanes = lanes;
        self.frames.clear();
        self.frames.push(Frame {
            region,
            idx: 0,
            kind: FrameKind::Root,
        });
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            self.epochs.fill(0);
            self.cur = 1;
        }
        self.done = false;
        self.reconv.clear();
        self.lane_buf.clear();
        self.loop_state.clear();
    }

    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// Binds `v` per lane (e.g. thread ids) before stepping.
    pub(crate) fn set_with(&mut self, v: Value, mut f: impl FnMut(usize) -> RtVal) {
        let base = v.index() * self.stride;
        for lane in 0..self.lanes {
            self.vals[base + lane] = f(lane);
        }
        self.epochs[v.index()] = self.cur;
    }

    /// Copies one lane's live state into a scalar interpreter. The scalar
    /// machine resumes with the same frame stack — its program counter at
    /// the op the warp stopped on — and every epoch-current value bound.
    /// Only valid at full mask, which is the only place a warp diverges.
    pub(crate) fn despool_into(&self, lane: usize, target: &mut Interp<'f>) {
        debug_assert!(self.reconv.is_empty(), "despool under a partial mask");
        target.adopt_frames(&self.frames);
        for (v, &e) in self.epochs.iter().enumerate() {
            if e == self.cur {
                target
                    .store
                    .set(Value::from_index(v), self.vals[v * self.stride + lane]);
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

    /// One issue of `op` in every active lane.
    #[inline(always)]
    fn bump<const FULL: bool>(&self, counters: &mut [ThreadCounters], op: OpId) {
        if FULL {
            for c in counters.iter_mut() {
                c.bump(op);
            }
        } else {
            for i in 0..self.width::<false>() {
                counters[self.lane_at::<false>(i)].bump(op);
            }
        }
    }

    #[inline]
    fn get(&self, parents: &[&Store], slot: Slot, lane: usize) -> Result<RtVal, SimError> {
        let v = slot as usize;
        if self.epochs[v] == self.cur {
            return Ok(self.vals[v * self.stride + lane]);
        }
        for p in parents {
            if let Some(val) = p.get(slot_value(slot)) {
                return Ok(val);
            }
        }
        Err(SimError::new(format!(
            "use of unbound value {:?}",
            slot_value(slot)
        )))
    }

    #[inline]
    fn stamp(&mut self, slot: Slot) {
        self.epochs[slot as usize] = self.cur;
    }

    fn set_uniform<const FULL: bool>(&mut self, v: Value, val: RtVal) {
        let base = v.index() * self.stride;
        for i in 0..self.width::<FULL>() {
            let lane = self.lane_at::<FULL>(i);
            self.vals[base + lane] = val;
        }
        self.epochs[v.index()] = self.cur;
    }

    /// Gathers `slots` for every active lane into the scratch buffer.
    fn gather<const FULL: bool>(
        &mut self,
        parents: &[&Store],
        slots: &[Slot],
    ) -> Result<usize, SimError> {
        let need = slots.len() * self.stride;
        if self.scratch.len() < need {
            self.scratch.resize(need, RtVal::Int(0));
        }
        for (k, &s) in slots.iter().enumerate() {
            let base = k * self.stride;
            for i in 0..self.width::<FULL>() {
                let lane = self.lane_at::<FULL>(i);
                self.scratch[base + lane] = self.get(parents, s, lane)?;
            }
        }
        Ok(slots.len())
    }

    /// Binds gathered scratch rows to `targets` in every active lane,
    /// truncating to the shorter list exactly like the scalar
    /// interpreter's `zip`.
    fn scatter<const FULL: bool>(&mut self, targets: &[Value], count: usize) {
        for (k, &t) in targets.iter().take(count).enumerate() {
            let (from, to) = (k * self.stride, t.index() * self.stride);
            for i in 0..self.width::<FULL>() {
                let lane = self.lane_at::<FULL>(i);
                self.vals[to + lane] = self.scratch[from + lane];
            }
            self.epochs[t.index()] = self.cur;
        }
    }

    /// [`WarpInterp::scatter`] for one lane, without stamping the targets
    /// (divergent loops route each lane to the body args or the results).
    fn scatter_lane(&mut self, targets: &[Value], count: usize, lane: usize) {
        for (k, &t) in targets.iter().take(count).enumerate() {
            self.vals[t.index() * self.stride + lane] = self.scratch[k * self.stride + lane];
        }
    }

    fn stamp_all(&mut self, targets: &[Value], count: usize) {
        for &t in targets.iter().take(count) {
            self.epochs[t.index()] = self.cur;
        }
    }

    /// Peeks an integer in every active lane; `Ok(None)` means the lanes
    /// disagree (or a non-lead lane holds a non-integer — the per-lane path
    /// surfaces that lane's own error). Reads only; no counters move.
    fn peek_uniform_int<const FULL: bool>(
        &self,
        parents: &[&Store],
        slot: Slot,
    ) -> Result<Option<i64>, SimError> {
        let v0 = want_int(self.get(parents, slot, self.lane_at::<FULL>(0))?)?;
        for i in 1..self.width::<FULL>() {
            match self.get(parents, slot, self.lane_at::<FULL>(i))?.try_int() {
                Some(v) if v == v0 => {}
                _ => return Ok(None),
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
        parents: &[&Store],
        cond: Slot,
        taken: bool,
    ) -> Result<(), SimError> {
        for i in 0..self.width::<FULL>() {
            let lane = self.lane_at::<FULL>(i);
            if (want_int(self.get(parents, cond, lane)?)? != 0) == taken {
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
        cond: Slot,
        arms: (Option<RegionId>, Option<RegionId>),
    ) -> Result<WarpStep, SimError> {
        self.bump::<FULL>(cx.counters, op_id);
        let (Some(then_r), Some(else_r)) = arms else {
            return Err(SimError::new("`if` without both arm regions"));
        };
        let mark = self.lane_buf.len();
        self.push_lanes_where::<FULL>(cx.parents, cond, false)?;
        let mid = self.lane_buf.len();
        self.push_lanes_where::<FULL>(cx.parents, cond, true)?;
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
        bounds: [Slot; 3],
        iters: &[Slot],
        body: RegionId,
    ) -> Result<WarpStep, SimError> {
        let func = self.func;
        let args = &func.region(body).args;
        let results = &func.op(op_id).results;
        let n = self.gather::<FULL>(cx.parents, iters)?;
        let mark = self.lane_buf.len();
        let state = self.loop_state.len();
        self.loop_state.resize(state + 3 * self.stride, 0);
        for i in 0..self.width::<FULL>() {
            let lane = self.lane_at::<FULL>(i);
            let [lb, ub, step] = bounds;
            let lb = want_int(self.get(cx.parents, lb, lane)?)?;
            let ub = want_int(self.get(cx.parents, ub, lane)?)?;
            let step = want_int(self.get(cx.parents, step, lane)?)?;
            if step <= 0 {
                return Err(SimError::new("for loop step must be positive"));
            }
            if lb < ub {
                self.loop_state[state + 3 * lane..][..3].copy_from_slice(&[lb, ub, step]);
                self.vals[args[0].index() * self.stride + lane] = RtVal::Int(lb);
                self.scatter_lane(&args[1..], n, lane);
                self.lane_buf.push(lane as u32);
            } else {
                self.scatter_lane(results, n, lane);
            }
        }
        self.stamp_all(results, n);
        if self.lane_buf.len() == mark {
            // Every lane is zero-trip: nothing to mask.
            self.loop_state.truncate(state);
            return Ok(WarpStep::Ran);
        }
        self.stamp(args[0].index() as Slot);
        self.stamp_all(&args[1..], n);
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
    /// (values already gathered): an `if` arm hands over to the parked
    /// else-lanes or reconverges; a loop body takes its back-edge per lane,
    /// drops the lanes whose trip count is spent, and reconverges once none
    /// is left.
    #[inline(never)]
    fn reconverge(&mut self, cx: &mut WarpCx<'_>, yield_op: OpId, n: usize) -> WarpStep {
        let func = self.func;
        let fr = self.frames.pop().expect("frame stack non-empty");
        let top = *self.reconv.last().expect("caller matched the entry");
        match (fr.kind, top.kind) {
            (FrameKind::If { op }, ReconvKind::If { pending }) => {
                self.scatter::<false>(&func.op(op).results, n);
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
                        self.vals[args[0].index() * self.stride + lane] = RtVal::Int(next);
                        self.scatter_lane(&args[1..], n, lane);
                        self.lane_buf[keep] = lane as u32;
                        keep += 1;
                    } else {
                        self.scatter_lane(results, n, lane);
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
                let n = self.gather::<FULL>(cx.parents, vals)?;
                if !FULL
                    && self
                        .reconv
                        .last()
                        .is_some_and(|r| r.depth == self.frames.len())
                {
                    return Ok(self.reconverge(cx, op_id, n));
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
                            let arg0 = func.region(body).args[0];
                            self.set_uniform::<FULL>(arg0, RtVal::Int(next));
                            self.scatter::<FULL>(&func.region(body).args[1..], n);
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
                            self.scatter::<FULL>(&func.op(for_op).results, n);
                        }
                    }
                    FrameKind::If { op: if_op } => {
                        self.scatter::<FULL>(&func.op(if_op).results, n);
                    }
                    FrameKind::Alt => {}
                    FrameKind::WhileCond { .. } => {
                        return Err(SimError::new(
                            "while condition region must end in `condition`",
                        ))
                    }
                    FrameKind::WhileBody { op: while_op } => {
                        let cond_region = func.op(while_op).regions[0];
                        self.scatter::<FULL>(&func.region(cond_region).args, n);
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
                let Some(f0) = self.peek_uniform_int::<FULL>(cx.parents, *flag)? else {
                    return self.diverge::<FULL>(op_id);
                };
                let taken = f0 != 0;
                let n = self.gather::<FULL>(cx.parents, vals)?;
                let fr = self.frames.pop().expect("frame stack non-empty");
                let while_op = match fr.kind {
                    FrameKind::WhileCond { op } => op,
                    _ => return Err(SimError::new("`condition` outside while condition region")),
                };
                self.bump::<FULL>(cx.counters, op_id);
                if taken {
                    let body = *func
                        .op(while_op)
                        .regions
                        .get(1)
                        .ok_or_else(|| SimError::new("while without a body region"))?;
                    self.scatter::<FULL>(&func.region(body).args, n);
                    self.frames.push(Frame {
                        region: body,
                        idx: 0,
                        kind: FrameKind::WhileBody { op: while_op },
                    });
                } else {
                    self.scatter::<FULL>(&func.op(while_op).results, n);
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
            // counter advances, so a scalar replay re-executes the op.
            DecodedOp::For {
                lb,
                ub,
                step,
                iters,
                body,
            } => {
                let bounds = (
                    self.peek_uniform_int::<FULL>(cx.parents, *lb)?,
                    self.peek_uniform_int::<FULL>(cx.parents, *ub)?,
                    self.peek_uniform_int::<FULL>(cx.parents, *step)?,
                );
                let (Some(lb), Some(ub), Some(step)) = bounds else {
                    if !program.maskable[op_id.index()] {
                        return self.diverge::<FULL>(op_id);
                    }
                    self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                    return self.enter_masked_for::<FULL>(
                        cx,
                        op_id,
                        [*lb, *ub, *step],
                        iters,
                        *body,
                    );
                };
                self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                if step <= 0 {
                    return Err(SimError::new("for loop step must be positive"));
                }
                let n = self.gather::<FULL>(cx.parents, iters)?;
                if lb < ub {
                    let arg0 = func.region(*body).args[0];
                    self.set_uniform::<FULL>(arg0, RtVal::Int(lb));
                    self.scatter::<FULL>(&func.region(*body).args[1..], n);
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
                    self.scatter::<FULL>(&func.op(op_id).results, n);
                }
                return Ok(WarpStep::Ran);
            }
            DecodedOp::If {
                cond,
                then_r,
                else_r,
            } => {
                // Uniform means every active lane holds an integer of the
                // same truthiness; anything else takes the per-lane path,
                // which surfaces a bad lane's own error.
                let lead = self.get(cx.parents, *cond, self.lane_at::<FULL>(0))?;
                let taken = lead.try_int().map(|v| v != 0);
                let mut uniform = taken.is_some();
                for i in 1..self.width::<FULL>() {
                    if !uniform {
                        break;
                    }
                    let v = self.get(cx.parents, *cond, self.lane_at::<FULL>(i))?;
                    uniform = v.try_int().map(|v| v != 0) == taken;
                }
                let Some(taken) = taken.filter(|_| uniform) else {
                    if !program.maskable[op_id.index()] {
                        return self.diverge::<FULL>(op_id);
                    }
                    self.frames.last_mut().expect("frame stack non-empty").idx += 1;
                    return self.enter_masked_if::<FULL>(cx, op_id, *cond, (*then_r, *else_r));
                };
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
            DecodedOp::Alloc { .. } => {
                // Allocation order must match scalar lane-major execution;
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
                Ok(WarpStep::Barrier)
            }
            DecodedOp::Parallel => Err(SimError::new(
                "parallel loop nested inside the thread level",
            )),
            DecodedOp::While { inits, cond } => {
                let n = self.gather::<FULL>(cx.parents, inits)?;
                self.scatter::<FULL>(&func.region(*cond).args, n);
                self.frames.push(Frame {
                    region: *cond,
                    idx: 0,
                    kind: FrameKind::WhileCond { op: op_id },
                });
                Ok(WarpStep::Ran)
            }
            DecodedOp::Alternatives { region } => {
                let region = region.ok_or_else(|| {
                    SimError::new("`alternatives` selects a region it does not have")
                })?;
                self.frames.push(Frame {
                    region,
                    idx: 0,
                    kind: FrameKind::Alt,
                });
                Ok(WarpStep::Ran)
            }
            DecodedOp::Call { callee } => Err(SimError::new(format!(
                "call to @{callee}: the simulator requires fully inlined kernels"
            ))),
            DecodedOp::ConstInt { out, value } => {
                self.set_uniform::<FULL>(slot_value(*out), RtVal::Int(*value));
                Ok(WarpStep::Ran)
            }
            DecodedOp::ConstFloat { out, value } => {
                self.set_uniform::<FULL>(slot_value(*out), RtVal::Float(*value));
                Ok(WarpStep::Ran)
            }
            DecodedOp::Binary { out, l, r, op, ty } => {
                self.bump::<FULL>(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let lv = self.get(cx.parents, *l, lane)?;
                    let rv = self.get(cx.parents, *r, lane)?;
                    self.vals[base + lane] = eval_binary(*op, *ty, lv, rv)?;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Unary { out, v, op, ty } => {
                self.bump::<FULL>(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let vv = self.get(cx.parents, *v, lane)?;
                    self.vals[base + lane] = eval_unary(*op, *ty, vv)?;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Cmp {
                out,
                l,
                r,
                pred,
                float,
            } => {
                self.bump::<FULL>(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let lv = self.get(cx.parents, *l, lane)?;
                    let rv = self.get(cx.parents, *r, lane)?;
                    let flag = eval_cmp(*pred, *float, lv, rv)?;
                    self.vals[base + lane] = RtVal::Int(flag as i64);
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Select { out, c, t, f } => {
                self.bump::<FULL>(cx.counters, op_id);
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let flag = want_int(self.get(cx.parents, *c, lane)?)? != 0;
                    let v = self.get(cx.parents, if flag { *t } else { *f }, lane)?;
                    self.vals[base + lane] = v;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Cast { out, v, from, to } => {
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let vv = self.get(cx.parents, *v, lane)?;
                    self.vals[base + lane] = crate::interp::cast_value(vv, *from, *to)?;
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Load { out, mem, idx } => {
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let mem = want_mem(self.get(cx.parents, *mem, lane)?)?;
                    let mut index = [0i64; 3];
                    for (d, &s) in idx.iter().enumerate() {
                        index[d] = want_int(self.get(cx.parents, s, lane)?)?;
                    }
                    let flat = mem.flatten(&index[..mem.rank as usize]).ok_or_else(|| {
                        SimError::new(format!(
                            "out-of-bounds load at {op_id:?}: index {index:?} in {:?}",
                            mem
                        ))
                    })?;
                    let elem = cx.mem.elem_type(mem.buf);
                    let (f, i) = cx
                        .mem
                        .load_scalar(mem.buf, flat)
                        .ok_or_else(|| SimError::new(format!("out-of-bounds load at {op_id:?}")))?;
                    self.vals[base + lane] = if elem.is_float() {
                        RtVal::Float(f)
                    } else {
                        RtVal::Int(i)
                    };
                    let c = &mut cx.counters[lane];
                    let occ = c.bump(op_id);
                    c.events.push(MemEvent {
                        op: op_id.index() as u32,
                        occ,
                        addr: cx.mem.base_addr(mem.buf) + flat as u64 * elem.size_bytes(),
                        bytes: elem.size_bytes() as u8,
                        space: mem.space,
                        is_store: false,
                    });
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Store { val, mem, idx } => {
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let v = self.get(cx.parents, *val, lane)?;
                    let mem = want_mem(self.get(cx.parents, *mem, lane)?)?;
                    let mut index = [0i64; 3];
                    for (d, &s) in idx.iter().enumerate() {
                        index[d] = want_int(self.get(cx.parents, s, lane)?)?;
                    }
                    let flat = mem.flatten(&index[..mem.rank as usize]).ok_or_else(|| {
                        SimError::new(format!(
                            "out-of-bounds store at {op_id:?}: index {index:?} in {:?}",
                            mem
                        ))
                    })?;
                    let elem = cx.mem.elem_type(mem.buf);
                    let (f, i) = match v {
                        RtVal::Float(f) => (f, 0),
                        RtVal::Int(i) => (0.0, i),
                        RtVal::Mem(_) => return Err(SimError::new("cannot store a memref")),
                    };
                    if !cx.mem.store_scalar(mem.buf, flat, f, i) {
                        return Err(SimError::new(format!("out-of-bounds store at {op_id:?}")));
                    }
                    let c = &mut cx.counters[lane];
                    let occ = c.bump(op_id);
                    c.events.push(MemEvent {
                        op: op_id.index() as u32,
                        occ,
                        addr: cx.mem.base_addr(mem.buf) + flat as u64 * elem.size_bytes(),
                        bytes: elem.size_bytes() as u8,
                        space: mem.space,
                        is_store: true,
                    });
                }
                Ok(WarpStep::Ran)
            }
            DecodedOp::Dim { out, mem, index } => {
                let base = *out as usize * self.stride;
                for i in 0..self.width::<FULL>() {
                    let lane = self.lane_at::<FULL>(i);
                    let mem = want_mem(self.get(cx.parents, *mem, lane)?)?;
                    self.vals[base + lane] = RtVal::Int(mem.dim(*index));
                }
                self.stamp(*out);
                Ok(WarpStep::Ran)
            }
            DecodedOp::Invalid { bump, msg } => {
                if *bump {
                    self.bump::<FULL>(cx.counters, op_id);
                }
                Err(SimError::new(msg.clone()))
            }
            DecodedOp::Alloc { .. }
            | DecodedOp::For { .. }
            | DecodedOp::If { .. }
            | DecodedOp::Yield { .. }
            | DecodedOp::Condition { .. }
            | DecodedOp::Return => unreachable!("handled before the pc advance"),
        }
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
