//! Resumable interpreter over the structured IR.
//!
//! One [`Interp`] executes one scope (host code, one block, or one thread) as
//! an explicit machine over a frame stack, so execution can *suspend* at
//! barriers and at parallel loops (which the launch orchestrator expands).
//!
//! The inner loop dispatches over a pre-decoded instruction stream
//! ([`crate::decoded::DecodedProgram`]): operand/result slots, scalar types
//! and region targets are resolved once per kernel, not re-derived per step.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use respec_ir::{
    BinOp, CmpPred, Function, MemSpace, OpId, OpKind, RegionId, ScalarType, UnOp, Value,
};

use crate::decoded::{slot_value, DecodedOp, DecodedProgram, Num};
use crate::memory::DeviceMemory;
use crate::value::{MemVal, RtVal, Store};

/// Counts every `Interp` construction (`new`/`with_program`), *not*
/// restarts. Allocation-regression tests assert that the launch loop reuses
/// interpreters across blocks instead of rebuilding them.
#[doc(hidden)]
pub static INTERP_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Error produced by simulated execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SimError {
    /// Human-readable description.
    pub message: String,
}

impl SimError {
    pub(crate) fn new(message: impl Into<String>) -> SimError {
        SimError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.message)
    }
}

impl std::error::Error for SimError {}

impl From<SimError> for respec_ir::Diagnostic {
    fn from(e: SimError) -> Self {
        respec_ir::Diagnostic::error("sim-error", e.message)
    }
}

/// A memory access observed during execution, keyed for warp-level grouping
/// by `(op, occ)` — the same static instruction at the same dynamic
/// occurrence across threads forms one warp access.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct MemEvent {
    /// Static operation (as raw arena index).
    pub op: u32,
    /// Dynamic occurrence of the op within the current phase.
    pub occ: u32,
    /// Simulated byte address.
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u8,
    /// Address space.
    pub space: MemSpace,
    /// `true` for stores.
    pub is_store: bool,
}

/// Instruction classes for the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer/index arithmetic and logic.
    IntAlu,
    /// 32-bit float arithmetic.
    Fp32,
    /// 64-bit float arithmetic.
    Fp64,
    /// Transcendental/special function unit ops.
    Special,
    /// Global/local memory access.
    GlobalMem,
    /// Shared memory access.
    SharedMem,
    /// Control flow (loop back-edges, conditionals).
    Branch,
    /// Barrier synchronization.
    Barrier,
}

/// One warp-level memory access of the lock-step executor: the lanes
/// `lanes[start..start + len]` of one execution of `op`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AccessRecord {
    /// Static operation (as raw arena index).
    pub(crate) op: u32,
    /// How often the warp had executed `op` in this phase before.
    pub(crate) occ: u32,
    pub(crate) is_store: bool,
    /// Lowest lane in the access; its address space is the access's.
    pub(crate) first_lane: u8,
    pub(crate) shared: bool,
    pub(crate) start: u32,
    pub(crate) len: u32,
}

/// Issue counts and memory accesses of one warp in one phase.
///
/// The count of `op` in lane `l` is `warp[op] + lane[op][l]`: a lock-step
/// execution at full mask bumps the one warp-level count, anything else
/// (a partial mask, a scalar lane) the lanes it ran in. Memory accesses are
/// kept in one of two forms. While the lock-step executor runs and every
/// access is a whole `(op, occurrence)` group of the per-lane reference
/// (`commit_access` checks it), they are access records
/// the merger accounts directly. Otherwise — scalar lanes, the sanitizer, or
/// a record that would not be such a group — they are per-lane [`MemEvent`]
/// lists the merger regroups by `(op, occurrence)`; `spill`
/// converts the first form into the second.
#[derive(Clone, Debug)]
pub(crate) struct WarpCounters {
    stride: usize,
    /// Live lanes of the warp (a ragged last warp has fewer than `stride`).
    pub(crate) lanes: usize,
    /// Per op: lock-step executions at any mask plus per-lane bumps; non-zero
    /// exactly for the ops in `touched`.
    execs: Vec<u32>,
    /// Per op: lock-step executions at full mask.
    warp: Vec<u32>,
    /// Op-major `[op * stride + lane]`: the lane's executions beyond `warp`.
    lane: Vec<u32>,
    pub(crate) touched: Vec<u32>,
    pub(crate) records: Vec<AccessRecord>,
    /// Lane entries of `records` (and of the access being built): `(addr,
    /// bytes)` and, in parallel, `(lane, space)`.
    pub(crate) lanes_of: Vec<(u64, u8)>,
    who: Vec<(u8, MemSpace)>,
    /// `records` are in ascending `first_lane` order (the merger's order).
    pub(crate) ordered: bool,
    /// Per-lane event lists; in use exactly when `per_lane`.
    events: Vec<Vec<MemEvent>>,
    pub(crate) per_lane: bool,
}

impl WarpCounters {
    /// Creates counters for a warp of up to `stride` lanes over a function
    /// with `num_ops` operations.
    pub(crate) fn new(num_ops: usize, stride: usize) -> WarpCounters {
        assert!(stride <= 256, "lane ids are stored in a byte");
        WarpCounters {
            stride,
            lanes: stride,
            execs: vec![0; num_ops],
            warp: vec![0; num_ops],
            lane: vec![0; num_ops * stride],
            touched: Vec::new(),
            records: Vec::new(),
            lanes_of: Vec::new(),
            who: Vec::new(),
            ordered: true,
            events: vec![Vec::new(); stride],
            per_lane: false,
        }
    }

    /// Clears the counters for the next phase of a warp of `lanes` lanes;
    /// `per_lane` starts it in the event-list form.
    pub(crate) fn reset(&mut self, lanes: usize, per_lane: bool) {
        debug_assert!(lanes <= self.stride);
        for &op in &self.touched {
            let op = op as usize;
            if self.execs[op] != self.warp[op] {
                self.lane[op * self.stride..][..self.stride].fill(0);
            }
            self.execs[op] = 0;
            self.warp[op] = 0;
        }
        self.touched.clear();
        self.records.clear();
        self.lanes_of.clear();
        self.who.clear();
        self.ordered = true;
        if self.per_lane {
            self.events.iter_mut().for_each(Vec::clear);
        }
        self.lanes = lanes;
        self.per_lane = per_lane;
    }

    /// Clears one lane for its next phase (event-list form only: the other
    /// lanes may keep the stale counters of a phase they finished in).
    pub(crate) fn reset_lane(&mut self, lane: usize) {
        debug_assert!(self.per_lane, "lanes reset one by one only after a spill");
        for &op in &self.touched {
            self.lane[op as usize * self.stride + lane] = 0;
        }
        self.events[lane].clear();
    }

    /// The counters as one scalar lane sees them.
    pub(crate) fn lane(&mut self, lane: usize) -> LaneCounters<'_> {
        debug_assert!(self.per_lane, "scalar lanes record events, not records");
        LaneCounters { warp: self, lane }
    }

    /// Memory events of one lane (event-list form).
    pub(crate) fn events(&self, lane: usize) -> &[MemEvent] {
        &self.events[lane]
    }

    /// Warp-level issue count of a touched op: the maximum over its lanes.
    pub(crate) fn issue_count(&self, op: usize) -> u32 {
        let row = &self.lane[op * self.stride..][..self.lanes];
        let extra = if self.execs[op] != self.warp[op] {
            row.iter().copied().max().unwrap_or(0)
        } else {
            0
        };
        self.warp[op] + extra
    }

    #[inline]
    fn touch(&mut self, op: usize) -> u32 {
        let execs = self.execs[op];
        if execs == 0 {
            self.touched.push(op as u32);
        }
        self.execs[op] = execs + 1;
        execs
    }

    /// One lock-step issue of `op` at full mask.
    #[inline]
    pub(crate) fn bump_warp(&mut self, op: OpId) {
        self.touch(op.index());
        self.warp[op.index()] += 1;
    }

    /// One lock-step issue of `op` in the lanes `active`.
    #[inline]
    pub(crate) fn bump_lanes(&mut self, op: OpId, active: &[u32]) {
        self.touch(op.index());
        let row = &mut self.lane[op.index() * self.stride..][..self.stride];
        for &l in active {
            row[l as usize] += 1;
        }
    }

    /// Starts a lock-step memory access; lanes follow through
    /// [`WarpCounters::push_lane`], then [`WarpCounters::commit_access`].
    #[inline]
    pub(crate) fn begin_access(&self) -> usize {
        self.who.len()
    }

    #[inline]
    pub(crate) fn push_lane(&mut self, lane: usize, addr: u64, bytes: u8, space: MemSpace) {
        self.lanes_of.push((addr, bytes));
        self.who.push((lane as u8, space));
    }

    /// Appends lane entry `k` to its lane's event list.
    fn push_event(&mut self, k: usize, op: u32, occ: u32, is_store: bool) {
        let ((addr, bytes), (l, space)) = (self.lanes_of[k], self.who[k]);
        self.events[l as usize].push(MemEvent {
            op,
            occ,
            addr,
            bytes,
            space,
            is_store,
        });
    }

    /// Books the access pushed since `start` (ascending lanes, at least one)
    /// as one issue of `op` and as one [`AccessRecord`] — or, in the
    /// event-list form, as one event per lane.
    ///
    /// A record stands for the reference's `(op, occurrence)` group only if
    /// every lane in it has executed `op` exactly as often as the warp has,
    /// so that the lanes' own occurrence numbers all equal the record's. An
    /// access that fails the test (a guard that depends on the induction
    /// variable of a uniform loop, say) spills the phase.
    pub(crate) fn commit_access(&mut self, op: OpId, is_store: bool, start: usize, full: bool) {
        let mut start = start;
        let o = op.index();
        let row = o * self.stride;
        let partial = self.execs[o] - self.warp[o];
        let is_group = (full && partial == 0)
            || self.who[start..]
                .iter()
                .all(|&(l, _)| self.lane[row + l as usize] == partial);
        if !self.per_lane && !is_group {
            // The records' lane entries end where this access starts.
            self.spill();
            start = 0;
        }
        let occ = self.touch(o);
        if self.per_lane {
            for k in start..self.who.len() {
                let own = self.warp[o] + self.lane[row + self.who[k].0 as usize];
                self.push_event(k, o as u32, own, is_store);
            }
        } else {
            let (first_lane, space) = self.who[start];
            self.ordered &= self
                .records
                .last()
                .is_none_or(|r| r.first_lane <= first_lane);
            self.records.push(AccessRecord {
                op: o as u32,
                occ,
                is_store,
                first_lane,
                shared: space == MemSpace::Shared,
                start: start as u32,
                len: (self.who.len() - start) as u32,
            });
        }
        if full {
            self.warp[o] += 1;
        } else {
            for &(l, _) in &self.who[start..] {
                self.lane[row + l as usize] += 1;
            }
        }
        if self.per_lane {
            self.lanes_of.truncate(start);
            self.who.truncate(start);
        }
    }

    /// Switches to the event-list form: replays the records into per-lane
    /// events (a record's lanes all have its occurrence number) and folds the
    /// warp-level counts into the lanes, so lanes can be reset one by one —
    /// the fold also when the phase began in this form (the sanitizer's).
    /// Lane entries past the last record — an access being built — are kept.
    pub(crate) fn spill(&mut self) {
        if !self.per_lane {
            self.per_lane = true;
            let mut pending = 0;
            for i in 0..self.records.len() {
                let r = self.records[i];
                pending = (r.start + r.len) as usize;
                for k in r.start as usize..pending {
                    self.push_event(k, r.op, r.occ, r.is_store);
                }
            }
            self.records.clear();
            self.lanes_of.drain(..pending);
            self.who.drain(..pending);
        }
        for &op in &self.touched {
            let count = std::mem::take(&mut self.warp[op as usize]);
            if count > 0 {
                let row = &mut self.lane[op as usize * self.stride..][..self.lanes];
                row.iter_mut().for_each(|c| *c += count);
            }
        }
    }
}

/// One scalar lane's view of its warp's [`WarpCounters`].
#[derive(Debug)]
pub(crate) struct LaneCounters<'a> {
    warp: &'a mut WarpCounters,
    lane: usize,
}

impl LaneCounters<'_> {
    /// One issue of `op` in this lane; returns its occurrence number.
    #[inline]
    pub(crate) fn bump(&mut self, op: OpId) -> u32 {
        let c = &mut *self.warp;
        c.touch(op.index());
        let slot = &mut c.lane[op.index() * c.stride + self.lane];
        *slot += 1;
        c.warp[op.index()] + *slot - 1
    }

    /// One issue of the memory op `op` in this lane, with its event.
    #[inline]
    pub(crate) fn access(
        &mut self,
        op: OpId,
        addr: u64,
        bytes: u8,
        space: MemSpace,
        is_store: bool,
    ) {
        let occ = self.bump(op);
        self.warp.events[self.lane].push(MemEvent {
            op: op.index() as u32,
            occ,
            addr,
            bytes,
            space,
            is_store,
        });
    }
}

/// Classifies an op for the timing model; `None` means "free" (constants,
/// casts, structural terminators).
pub(crate) fn classify(func: &Function, op: OpId) -> Option<InstClass> {
    let operation = func.op(op);
    let scalar = |v: Value| func.value_type(v).as_scalar();
    match &operation.kind {
        OpKind::Binary(b) => {
            let ty = scalar(operation.results[0])?;
            Some(match ty {
                ScalarType::F32 => {
                    if matches!(b, BinOp::Pow) {
                        InstClass::Special
                    } else {
                        InstClass::Fp32
                    }
                }
                ScalarType::F64 => {
                    if matches!(b, BinOp::Pow) {
                        InstClass::Special
                    } else {
                        InstClass::Fp64
                    }
                }
                _ => InstClass::IntAlu,
            })
        }
        OpKind::Unary(u) => {
            let ty = scalar(operation.results[0])?;
            Some(match u {
                UnOp::Neg | UnOp::Not | UnOp::Abs => match ty {
                    ScalarType::F32 => InstClass::Fp32,
                    ScalarType::F64 => InstClass::Fp64,
                    _ => InstClass::IntAlu,
                },
                _ => InstClass::Special,
            })
        }
        OpKind::Cmp(_) | OpKind::Select => Some(InstClass::IntAlu),
        OpKind::Load | OpKind::Store => {
            let mem_ty = func
                .value_type(
                    operation.operands[if matches!(operation.kind, OpKind::Store) {
                        1
                    } else {
                        0
                    }],
                )
                .as_memref()?;
            Some(match mem_ty.space {
                MemSpace::Shared => InstClass::SharedMem,
                MemSpace::Global | MemSpace::Local => InstClass::GlobalMem,
            })
        }
        OpKind::If | OpKind::While => Some(InstClass::Branch),
        OpKind::Barrier { .. } => Some(InstClass::Barrier),
        // Loop back-edges are counted at the Yield of a For body.
        OpKind::Yield => None,
        _ => None,
    }
}

/// What happened on one interpreter step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum StepEvent {
    /// An ordinary operation executed.
    Ran,
    /// Execution reached a barrier and suspended (thread scope only).
    Barrier,
    /// The scope finished.
    Done,
    /// A nested `parallel` op was reached; the caller must expand it and
    /// then keep stepping (the program counter already points past it).
    Launch(OpId),
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum FrameKind {
    Root,
    For {
        op: OpId,
        iv: i64,
        ub: i64,
        step: i64,
    },
    If {
        op: OpId,
    },
    WhileCond {
        op: OpId,
    },
    WhileBody {
        op: OpId,
    },
    Alt,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) region: RegionId,
    pub(crate) idx: usize,
    pub(crate) kind: FrameKind,
}

/// Execution context shared by the interpreters of one scope tree.
pub(crate) struct StepCx<'a> {
    /// Simulated device memory.
    pub mem: &'a mut DeviceMemory,
    /// Value stores of enclosing scopes (innermost first).
    pub parents: &'a [&'a Store],
    /// The executing thread's counters; `None` for host/block scopes.
    pub counters: Option<LaneCounters<'a>>,
    /// Scratch allocation start: shared/local allocs performed by this scope
    /// tree, so the launcher can release them.
    pub record_allocs: Option<&'a mut Vec<crate::memory::BufferId>>,
}

/// A resumable interpreter for one region tree of a function.
#[derive(Clone, Debug)]
pub(crate) struct Interp<'f> {
    func: &'f Function,
    program: Arc<DecodedProgram>,
    frames: Vec<Frame>,
    /// Values defined by this scope.
    pub store: Store,
    done: bool,
    scratch: Vec<RtVal>,
}

/// Checked integer extraction: unverified IR can bind any runtime kind to
/// any value, so kind mismatches surface as errors, not panics.
#[inline]
pub(crate) fn want_int(v: RtVal) -> Result<i64, SimError> {
    v.try_int()
        .ok_or_else(|| SimError::new(format!("expected an integer value, found {v:?}")))
}

/// Checked float extraction; see [`want_int`].
#[inline]
pub(crate) fn want_float(v: RtVal) -> Result<f64, SimError> {
    v.try_float()
        .ok_or_else(|| SimError::new(format!("expected a float value, found {v:?}")))
}

/// Checked memref extraction; see [`want_int`].
#[inline]
pub(crate) fn want_mem(v: RtVal) -> Result<MemVal, SimError> {
    v.try_mem()
        .ok_or_else(|| SimError::new(format!("expected a memref value, found {v:?}")))
}

/// Value lookup through the scope chain (free function so callers can hold
/// disjoint field borrows of `Interp`).
#[inline]
pub(crate) fn get_from(store: &Store, parents: &[&Store], v: Value) -> Result<RtVal, SimError> {
    if let Some(val) = store.get(v) {
        return Ok(val);
    }
    for p in parents {
        if let Some(val) = p.get(v) {
            return Ok(val);
        }
    }
    Err(SimError::new(format!("use of unbound value {v:?}")))
}

impl<'f> Interp<'f> {
    /// Creates an interpreter for `region` of `func`, decoding the function.
    /// Region arguments must be bound into [`Interp::store`] by the caller
    /// before stepping. Callers that drive many interpreters over one
    /// function should decode once and share via `Interp::with_program`.
    #[cfg(test)]
    pub(crate) fn new(func: &'f Function, region: RegionId) -> Interp<'f> {
        Interp::with_program(func, Arc::new(DecodedProgram::decode(func)), region)
    }

    /// Creates an interpreter over an already-decoded program.
    pub(crate) fn with_program(
        func: &'f Function,
        program: Arc<DecodedProgram>,
        region: RegionId,
    ) -> Interp<'f> {
        INTERP_BUILDS.fetch_add(1, Ordering::Relaxed);
        Interp {
            func,
            program,
            frames: vec![Frame {
                region,
                idx: 0,
                kind: FrameKind::Root,
            }],
            store: Store::new(func.num_values()),
            done: false,
            scratch: Vec::new(),
        }
    }

    /// Rewinds the interpreter to the start of `region`, clearing all local
    /// bindings (for reuse across threads/blocks without reallocation).
    pub(crate) fn restart(&mut self, region: RegionId) {
        self.frames.clear();
        self.frames.push(Frame {
            region,
            idx: 0,
            kind: FrameKind::Root,
        });
        self.store.reset();
        self.done = false;
    }

    /// Restarts the interpreter mid-execution at an arbitrary frame stack
    /// (warp divergence despool). Local bindings are cleared; the caller
    /// rebinds the lane's live values into [`Interp::store`].
    pub(crate) fn adopt_frames(&mut self, frames: &[Frame]) {
        self.frames.clear();
        self.frames.extend_from_slice(frames);
        self.store.reset();
        self.done = false;
    }

    /// Returns `true` once the scope has finished.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    #[inline]
    fn get(&self, cx: &StepCx<'_>, v: Value) -> Result<RtVal, SimError> {
        get_from(&self.store, cx.parents, v)
    }

    #[inline]
    fn get_slot(&self, cx: &StepCx<'_>, s: u32) -> Result<RtVal, SimError> {
        self.get(cx, slot_value(s))
    }

    /// Runs until the scope finishes, treating barriers and nested parallels
    /// as errors — the mode for host-level and block-level straight-line
    /// code outside parallel loops.
    #[cfg(test)]
    pub(crate) fn run_serial(&mut self, cx: &mut StepCx<'_>) -> Result<(), SimError> {
        let program = Arc::clone(&self.program);
        loop {
            match self.step_in(&program, cx)? {
                StepEvent::Ran => {}
                StepEvent::Done => return Ok(()),
                StepEvent::Barrier => return Err(SimError::new("barrier outside thread scope")),
                StepEvent::Launch(_) => {
                    return Err(SimError::new("nested parallel in serial scope"))
                }
            }
        }
    }

    /// Runs until a barrier, a nested parallel, or completion.
    pub(crate) fn run_phase(&mut self, cx: &mut StepCx<'_>) -> Result<StepEvent, SimError> {
        let program = Arc::clone(&self.program);
        loop {
            match self.step_in(&program, cx)? {
                StepEvent::Ran => {}
                other => return Ok(other),
            }
        }
    }

    fn step_in(
        &mut self,
        program: &DecodedProgram,
        cx: &mut StepCx<'_>,
    ) -> Result<StepEvent, SimError> {
        if self.done {
            return Ok(StepEvent::Done);
        }
        let func = self.func;
        let frame = *self.frames.last().expect("non-done interpreter has frames");
        let ops = &func.region(frame.region).ops;
        debug_assert!(frame.idx < ops.len(), "regions are terminator-closed");
        let op_id = ops[frame.idx];
        let decoded = &program.steps[op_id.index()];

        match decoded {
            DecodedOp::Yield { vals } => {
                self.scratch.clear();
                for &s in vals.iter() {
                    let val = get_from(&self.store, cx.parents, slot_value(s))?;
                    self.scratch.push(val);
                }
                let fr = self.frames.pop().expect("frame stack non-empty");
                match fr.kind {
                    FrameKind::Root => {
                        self.done = true;
                        return Ok(StepEvent::Done);
                    }
                    FrameKind::For {
                        op: for_op,
                        iv,
                        ub,
                        step,
                    } => {
                        // Loop back-edge: one branch issue.
                        if let Some(c) = cx.counters.as_mut() {
                            c.bump(op_id);
                        }
                        let next = iv + step;
                        let body = func.op(for_op).regions[0];
                        let args = &func.region(body).args;
                        if next < ub {
                            self.store.set(args[0], RtVal::Int(next));
                            for (a, v) in args[1..].iter().zip(&self.scratch) {
                                self.store.set(*a, *v);
                            }
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
                            let results = &func.op(for_op).results;
                            for (r, v) in results.iter().zip(&self.scratch) {
                                self.store.set(*r, *v);
                            }
                        }
                    }
                    FrameKind::If { op: if_op } => {
                        let results = &func.op(if_op).results;
                        for (r, v) in results.iter().zip(&self.scratch) {
                            self.store.set(*r, *v);
                        }
                    }
                    FrameKind::Alt => {}
                    FrameKind::WhileCond { .. } => {
                        return Err(SimError::new(
                            "while condition region must end in `condition`",
                        ))
                    }
                    FrameKind::WhileBody { op: while_op } => {
                        let cond_region = func.op(while_op).regions[0];
                        let args = &func.region(cond_region).args;
                        for (a, v) in args.iter().zip(&self.scratch) {
                            self.store.set(*a, *v);
                        }
                        self.frames.push(Frame {
                            region: cond_region,
                            idx: 0,
                            kind: FrameKind::WhileCond { op: while_op },
                        });
                    }
                }
                return Ok(StepEvent::Ran);
            }
            DecodedOp::Condition { flag, vals } => {
                let flag = want_int(self.get_slot(cx, *flag)?)? != 0;
                self.scratch.clear();
                for &s in vals.iter() {
                    let val = get_from(&self.store, cx.parents, slot_value(s))?;
                    self.scratch.push(val);
                }
                let fr = self.frames.pop().expect("frame stack non-empty");
                let while_op = match fr.kind {
                    FrameKind::WhileCond { op } => op,
                    _ => return Err(SimError::new("`condition` outside while condition region")),
                };
                if let Some(c) = cx.counters.as_mut() {
                    c.bump(op_id);
                }
                if flag {
                    let body = *func
                        .op(while_op)
                        .regions
                        .get(1)
                        .ok_or_else(|| SimError::new("while without a body region"))?;
                    let args = &func.region(body).args;
                    for (a, v) in args.iter().zip(&self.scratch) {
                        self.store.set(*a, *v);
                    }
                    self.frames.push(Frame {
                        region: body,
                        idx: 0,
                        kind: FrameKind::WhileBody { op: while_op },
                    });
                } else {
                    let results = &func.op(while_op).results;
                    for (r, v) in results.iter().zip(&self.scratch) {
                        self.store.set(*r, *v);
                    }
                }
                return Ok(StepEvent::Ran);
            }
            DecodedOp::Return => {
                self.done = true;
                return Ok(StepEvent::Done);
            }
            _ => {}
        }

        // Non-terminator: advance the program counter first so suspension
        // resumes *after* the op.
        self.frames.last_mut().expect("frame stack non-empty").idx += 1;

        match decoded {
            DecodedOp::Barrier => {
                if let Some(c) = cx.counters.as_mut() {
                    c.bump(op_id);
                }
                Ok(StepEvent::Barrier)
            }
            DecodedOp::Parallel => Ok(StepEvent::Launch(op_id)),
            DecodedOp::For {
                lb,
                ub,
                step,
                iters,
                body,
            } => {
                let lb = want_int(self.get_slot(cx, *lb)?)?;
                let ub = want_int(self.get_slot(cx, *ub)?)?;
                let step = want_int(self.get_slot(cx, *step)?)?;
                if step <= 0 {
                    return Err(SimError::new("for loop step must be positive"));
                }
                self.scratch.clear();
                for &s in iters.iter() {
                    let val = get_from(&self.store, cx.parents, slot_value(s))?;
                    self.scratch.push(val);
                }
                if lb < ub {
                    let args = &func.region(*body).args;
                    self.store.set(args[0], RtVal::Int(lb));
                    for (a, v) in args[1..].iter().zip(&self.scratch) {
                        self.store.set(*a, *v);
                    }
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
                    let results = &func.op(op_id).results;
                    for (r, v) in results.iter().zip(&self.scratch) {
                        self.store.set(*r, *v);
                    }
                }
                Ok(StepEvent::Ran)
            }
            DecodedOp::While { inits, cond } => {
                self.scratch.clear();
                for &s in inits.iter() {
                    let val = get_from(&self.store, cx.parents, slot_value(s))?;
                    self.scratch.push(val);
                }
                let args = &func.region(*cond).args;
                for (a, v) in args.iter().zip(&self.scratch) {
                    self.store.set(*a, *v);
                }
                self.frames.push(Frame {
                    region: *cond,
                    idx: 0,
                    kind: FrameKind::WhileCond { op: op_id },
                });
                Ok(StepEvent::Ran)
            }
            DecodedOp::If {
                cond,
                then_r,
                else_r,
            } => {
                if let Some(c) = cx.counters.as_mut() {
                    c.bump(op_id);
                }
                let taken = want_int(self.get_slot(cx, *cond)?)? != 0;
                let region = if taken { *then_r } else { *else_r }
                    .ok_or_else(|| SimError::new("`if` without both arm regions"))?;
                self.frames.push(Frame {
                    region,
                    idx: 0,
                    kind: FrameKind::If { op: op_id },
                });
                Ok(StepEvent::Ran)
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
                Ok(StepEvent::Ran)
            }
            DecodedOp::Call { callee } => Err(SimError::new(format!(
                "call to @{callee}: the simulator requires fully inlined kernels"
            ))),
            _ => {
                self.exec_simple(cx, decoded, op_id)?;
                Ok(StepEvent::Ran)
            }
        }
    }

    fn exec_simple(
        &mut self,
        cx: &mut StepCx<'_>,
        decoded: &DecodedOp,
        op_id: OpId,
    ) -> Result<(), SimError> {
        match decoded {
            DecodedOp::ConstInt { out, value } => {
                self.store.set(slot_value(*out), RtVal::Int(*value));
            }
            DecodedOp::ConstFloat { out, value } => {
                self.store.set(slot_value(*out), RtVal::Float(*value));
            }
            DecodedOp::Binary { out, l, r, op, num } => {
                if let Some(c) = cx.counters.as_mut() {
                    c.bump(op_id);
                }
                let l = self.get_slot(cx, *l)?;
                let r = self.get_slot(cx, *r)?;
                let result = eval_binary(*op, *num, l, r)?;
                self.store.set(slot_value(*out), result);
            }
            DecodedOp::Unary { out, v, op, ty } => {
                if let Some(c) = cx.counters.as_mut() {
                    c.bump(op_id);
                }
                let v = self.get_slot(cx, *v)?;
                let result = eval_unary(*op, *ty, v)?;
                self.store.set(slot_value(*out), result);
            }
            DecodedOp::Cmp {
                out,
                l,
                r,
                pred,
                float,
            } => {
                if let Some(c) = cx.counters.as_mut() {
                    c.bump(op_id);
                }
                let l = self.get_slot(cx, *l)?;
                let r = self.get_slot(cx, *r)?;
                let flag = eval_cmp(*pred, *float, l, r)?;
                self.store.set(slot_value(*out), RtVal::Int(flag as i64));
            }
            DecodedOp::Select { out, c, t, f } => {
                if let Some(cnt) = cx.counters.as_mut() {
                    cnt.bump(op_id);
                }
                let flag = want_int(self.get_slot(cx, *c)?)? != 0;
                let v = self.get_slot(cx, if flag { *t } else { *f })?;
                self.store.set(slot_value(*out), v);
            }
            DecodedOp::Cast {
                out,
                v,
                from_float,
                to,
            } => {
                let v = self.get_slot(cx, *v)?;
                let result = cast_value(v, *from_float, *to)?;
                self.store.set(slot_value(*out), result);
            }
            DecodedOp::Alloc {
                out,
                elem,
                space,
                rank,
                shape,
                dyn_ops,
            } => {
                let mut dims = [1i64; 3];
                let mut operand_iter = dyn_ops.iter();
                for (d, &extent) in shape.iter().enumerate() {
                    dims[d] = if extent < 0 {
                        let s = *operand_iter
                            .next()
                            .ok_or_else(|| SimError::new("alloc missing a dynamic dim operand"))?;
                        want_int(self.get_slot(cx, s)?)?
                    } else {
                        extent
                    };
                    if dims[d] < 0 {
                        return Err(SimError::new("negative allocation extent"));
                    }
                }
                let total: i64 = dims.iter().take((*rank).max(1)).product();
                let buf = cx.mem.alloc(*elem, total.max(0) as usize);
                if let Some(rec) = cx.record_allocs.as_deref_mut() {
                    rec.push(buf);
                }
                self.store.set(
                    slot_value(*out),
                    RtVal::Mem(MemVal::new(buf, *rank as u8, dims, *space)),
                );
            }
            DecodedOp::Load { out, mem, idx } => {
                let mem = want_mem(self.get_slot(cx, *mem)?)?;
                let mut index = [0i64; 3];
                for (d, &s) in idx.iter().enumerate() {
                    index[d] = want_int(self.get_slot(cx, s)?)?;
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
                let v = if elem.is_float() {
                    RtVal::Float(f)
                } else {
                    RtVal::Int(i)
                };
                self.store.set(slot_value(*out), v);
                if let Some(c) = cx.counters.as_mut() {
                    let addr = cx.mem.base_addr(mem.buf) + flat as u64 * elem.size_bytes();
                    c.access(op_id, addr, elem.size_bytes() as u8, mem.space, false);
                }
            }
            DecodedOp::Store { val, mem, idx } => {
                let val = self.get_slot(cx, *val)?;
                let mem = want_mem(self.get_slot(cx, *mem)?)?;
                let mut index = [0i64; 3];
                for (d, &s) in idx.iter().enumerate() {
                    index[d] = want_int(self.get_slot(cx, s)?)?;
                }
                let flat = mem.flatten(&index[..mem.rank as usize]).ok_or_else(|| {
                    SimError::new(format!(
                        "out-of-bounds store at {op_id:?}: index {index:?} in {:?}",
                        mem
                    ))
                })?;
                let elem = cx.mem.elem_type(mem.buf);
                let (f, i) = match val {
                    RtVal::Float(f) => (f, 0),
                    RtVal::Int(i) => (0.0, i),
                    RtVal::Mem(_) => return Err(SimError::new("cannot store a memref")),
                };
                if !cx.mem.store_scalar(mem.buf, flat, f, i) {
                    return Err(SimError::new(format!("out-of-bounds store at {op_id:?}")));
                }
                if let Some(c) = cx.counters.as_mut() {
                    let addr = cx.mem.base_addr(mem.buf) + flat as u64 * elem.size_bytes();
                    c.access(op_id, addr, elem.size_bytes() as u8, mem.space, true);
                }
            }
            DecodedOp::Dim { out, mem, index } => {
                let mem = want_mem(self.get_slot(cx, *mem)?)?;
                self.store
                    .set(slot_value(*out), RtVal::Int(mem.dim(*index)));
            }
            DecodedOp::Invalid { bump, msg } => {
                if *bump {
                    if let Some(c) = cx.counters.as_mut() {
                        c.bump(op_id);
                    }
                }
                return Err(SimError::new(msg.clone()));
            }
            other => return Err(SimError::new(format!("unhandled op kind {other:?}"))),
        }
        Ok(())
    }
}

/// `a <pred> b`. `#[inline(always)]` so that a constant `pred` folds the
/// `match` away inside a lane loop.
#[inline(always)]
pub(crate) fn compare<T: PartialOrd>(pred: CmpPred, a: T, b: T) -> bool {
    match pred {
        CmpPred::Eq => a == b,
        CmpPred::Ne => a != b,
        CmpPred::Lt => a < b,
        CmpPred::Le => a <= b,
        CmpPred::Gt => a > b,
        CmpPred::Ge => a >= b,
    }
}

pub(crate) fn eval_cmp(pred: CmpPred, float: bool, l: RtVal, r: RtVal) -> Result<bool, SimError> {
    Ok(if float {
        compare(pred, want_float(l)?, want_float(r)?)
    } else {
        compare(pred, want_int(l)?, want_int(r)?)
    })
}

/// `f` rounded through `f32` when `single`.
#[inline(always)]
pub(crate) fn round_to(f: f64, single: bool) -> f64 {
    if single {
        f as f32 as f64
    } else {
        f
    }
}

/// One float binary op; see [`compare`] for the inlining.
#[inline(always)]
pub(crate) fn float_binary(b: BinOp, single: bool, a: f64, c: f64) -> Result<f64, SimError> {
    let wide = match b {
        BinOp::Add => a + c,
        BinOp::Sub => a - c,
        BinOp::Mul => a * c,
        BinOp::Div => a / c,
        BinOp::Rem => a % c,
        BinOp::Min => a.min(c),
        BinOp::Max => a.max(c),
        BinOp::Pow => a.powf(c),
        other => return Err(SimError::new(format!("{other:?} on floats"))),
    };
    Ok(round_to(wide, single))
}

/// One integer binary op, truncated to `ty`; see [`compare`] for the
/// inlining. Only `Div`, `Rem` and `Pow` can fail.
#[inline(always)]
pub(crate) fn int_binary(b: BinOp, ty: ScalarType, a: i64, c: i64) -> Result<i64, SimError> {
    let wide = match b {
        BinOp::Add => a.wrapping_add(c),
        BinOp::Sub => a.wrapping_sub(c),
        BinOp::Mul => a.wrapping_mul(c),
        BinOp::Div => {
            if c == 0 {
                return Err(SimError::new("integer division by zero"));
            }
            a.wrapping_div(c)
        }
        BinOp::Rem => {
            if c == 0 {
                return Err(SimError::new("integer remainder by zero"));
            }
            a.wrapping_rem(c)
        }
        BinOp::And => a & c,
        BinOp::Or => a | c,
        BinOp::Xor => a ^ c,
        BinOp::Shl => a.wrapping_shl(c as u32 & 63),
        BinOp::Shr => a.wrapping_shr(c as u32 & 63),
        BinOp::Min => a.min(c),
        BinOp::Max => a.max(c),
        BinOp::Pow => return Err(SimError::new("pow on integers")),
    };
    Ok(truncate_int(wide, ty))
}

pub(crate) fn eval_binary(b: BinOp, num: Num, l: RtVal, r: RtVal) -> Result<RtVal, SimError> {
    Ok(match num {
        Num::Float { single } => {
            RtVal::Float(float_binary(b, single, want_float(l)?, want_float(r)?)?)
        }
        Num::Int(ty) => RtVal::Int(int_binary(b, ty, want_int(l)?, want_int(r)?)?),
    })
}

pub(crate) fn eval_unary(u: UnOp, ty: ScalarType, v: RtVal) -> Result<RtVal, SimError> {
    if ty.is_float() {
        let a = want_float(v)?;
        let wide = match u {
            UnOp::Neg => -a,
            UnOp::Abs => a.abs(),
            UnOp::Sqrt => a.sqrt(),
            UnOp::Rsqrt => 1.0 / a.sqrt(),
            UnOp::Exp => a.exp(),
            UnOp::Log => a.ln(),
            UnOp::Sin => a.sin(),
            UnOp::Cos => a.cos(),
            UnOp::Tanh => a.tanh(),
            UnOp::Floor => a.floor(),
            UnOp::Ceil => a.ceil(),
            UnOp::Not => return Err(SimError::new("logical not on a float")),
        };
        Ok(RtVal::Float(round_to(wide, ty == ScalarType::F32)))
    } else {
        let a = want_int(v)?;
        let out = match u {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Abs => a.wrapping_abs(),
            UnOp::Not => {
                if ty == ScalarType::I1 {
                    (a == 0) as i64
                } else {
                    !a
                }
            }
            other => return Err(SimError::new(format!("{other:?} on integers"))),
        };
        Ok(RtVal::Int(truncate_int(out, ty)))
    }
}

#[inline(always)]
pub(crate) fn truncate_int(v: i64, ty: ScalarType) -> i64 {
    match ty {
        ScalarType::I1 => v & 1,
        ScalarType::I32 => v as i32 as i64,
        _ => v,
    }
}

/// A float cast to the domain `to`; see [`compare`] for the inlining.
#[inline(always)]
pub(crate) fn cast_float(f: f64, to: Num) -> RtVal {
    match to {
        Num::Float { single } => RtVal::Float(round_to(f, single)),
        Num::Int(ty) => RtVal::Int(truncate_int(f as i64, ty)),
    }
}

/// An integer cast to the domain `to`; see [`compare`] for the inlining.
#[inline(always)]
pub(crate) fn cast_int(i: i64, to: Num) -> RtVal {
    match to {
        Num::Float { single } => RtVal::Float(round_to(i as f64, single)),
        Num::Int(ty) => RtVal::Int(truncate_int(i, ty)),
    }
}

pub(crate) fn cast_value(v: RtVal, from_float: bool, to: Num) -> Result<RtVal, SimError> {
    Ok(if from_float {
        cast_float(want_float(v)?, to)
    } else {
        cast_int(want_int(v)?, to)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::parse_function;

    fn run_serial_func(
        src: &str,
        bind: impl FnOnce(&Function, &mut Store, &mut DeviceMemory),
    ) -> (DeviceMemory, Store) {
        let func = parse_function(src).unwrap();
        respec_ir::verify_function(&func).unwrap();
        let mut mem = DeviceMemory::new();
        let mut interp = Interp::new(&func, func.body());
        bind(&func, &mut interp.store, &mut mem);
        let mut cx = StepCx {
            mem: &mut mem,
            parents: &[],
            counters: None,
            record_allocs: None,
        };
        interp.run_serial(&mut cx).unwrap();
        (mem, interp.store)
    }

    #[test]
    fn executes_arithmetic_and_loop() {
        // sum of 0..10 into a buffer
        let src = "func @f(%m: memref<?xi32, global>) {
  %c0 = const 0 : index
  %c10 = const 10 : index
  %c1 = const 1 : index
  %z = const 0 : i32
  %s = for %i = %c0 to %c10 step %c1 iter (%acc = %z) {
    %ii = cast %i : i32
    %nx = add %acc, %ii : i32
    yield %nx
  }
  store %s, %m[%c0]
  return
}";
        let (mem, _) = run_serial_func(src, |func, store, mem| {
            let buf = mem.alloc(ScalarType::I32, 1);
            store.set(
                func.params()[0],
                RtVal::Mem(MemVal::new(buf, 1, [1, 1, 1], MemSpace::Global)),
            );
        });
        assert_eq!(mem.read_i32(BufferIdHelper::id(0)), vec![45]);
    }

    /// Test-only accessor because BufferId construction is crate-private.
    struct BufferIdHelper;
    impl BufferIdHelper {
        fn id(i: u32) -> crate::memory::BufferId {
            crate::memory::BufferId(i)
        }
    }

    #[test]
    fn executes_while_and_if() {
        // x = 1; while (x < 100) x *= 2  ⇒ 128; if (x > 100) m[0]=x else m[0]=0
        let src = "func @f(%m: memref<?xi32, global>) {
  %c0 = const 0 : index
  %c1 = const 1 : i32
  %c100 = const 100 : i32
  %c2 = const 2 : i32
  %x = while (%a = %c1) {
    %c = cmp lt %a, %c100
    condition %c, %a
  } do (%bv) {
    %nx = mul %bv, %c2 : i32
    yield %nx
  }
  %big = cmp gt %x, %c100
  %r = if %big {
    yield %x
  } else {
    %z = const 0 : i32
    yield %z
  }
  store %r, %m[%c0]
  return
}";
        let (mem, _) = run_serial_func(src, |func, store, mem| {
            let buf = mem.alloc(ScalarType::I32, 1);
            store.set(
                func.params()[0],
                RtVal::Mem(MemVal::new(buf, 1, [1, 1, 1], MemSpace::Global)),
            );
        });
        assert_eq!(mem.read_i32(BufferIdHelper::id(0)), vec![128]);
    }

    #[test]
    fn f32_math_rounds_to_single_precision() {
        let src = "func @f(%m: memref<?xf32, global>) {
  %c0 = const 0 : index
  %a = fconst 16777216.0 : f32
  %b = fconst 1.0 : f32
  %s = add %a, %b : f32
  store %s, %m[%c0]
  return
}";
        let (mem, _) = run_serial_func(src, |func, store, mem| {
            let buf = mem.alloc(ScalarType::F32, 1);
            store.set(
                func.params()[0],
                RtVal::Mem(MemVal::new(buf, 1, [1, 1, 1], MemSpace::Global)),
            );
        });
        // 2^24 + 1 is not representable in f32: must round back to 2^24.
        assert_eq!(mem.read_f32(BufferIdHelper::id(0)), vec![16777216.0]);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let func = parse_function(
            "func @f() {\n  %a = const 1 : i32\n  %b = const 0 : i32\n  %c = div %a, %b : i32\n  return\n}",
        )
        .unwrap();
        let mut mem = DeviceMemory::new();
        let mut interp = Interp::new(&func, func.body());
        let mut cx = StepCx {
            mem: &mut mem,
            parents: &[],
            counters: None,
            record_allocs: None,
        };
        let err = interp.run_serial(&mut cx).unwrap_err();
        assert!(err.message.contains("division by zero"));
    }

    #[test]
    fn counters_record_issue_and_events() {
        let src = "func @f(%m: memref<?xf32, global>) {
  %c0 = const 0 : index
  %c4 = const 4 : index
  %c1 = const 1 : index
  for %i = %c0 to %c4 step %c1 {
    %v = load %m[%i] : f32
    %w = add %v, %v : f32
    store %w, %m[%i]
    yield
  }
  return
}";
        let func = parse_function(src).unwrap();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(&[1.0, 2.0, 3.0, 4.0]);
        let mut interp = Interp::new(&func, func.body());
        interp.store.set(
            func.params()[0],
            RtVal::Mem(MemVal::new(buf, 1, [4, 1, 1], MemSpace::Global)),
        );
        let mut counters = WarpCounters::new(func.num_ops(), 1);
        counters.reset(1, true);
        let mut cx = StepCx {
            mem: &mut mem,
            parents: &[],
            counters: Some(counters.lane(0)),
            record_allocs: None,
        };
        interp.run_serial(&mut cx).unwrap();
        // 4 loads + 4 stores with increasing occurrence numbers.
        let loads: Vec<_> = counters.events(0).iter().filter(|e| !e.is_store).collect();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads[0].occ, 0);
        assert_eq!(loads[3].occ, 3);
        assert_eq!(loads[1].addr - loads[0].addr, 4);
        assert_eq!(mem.read_f32(buf), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn malformed_ir_errors_instead_of_panicking() {
        // These parse but would all be rejected by the verifier; when driven
        // unverified the interpreter must surface errors, never panic.
        let cases = [
            // `if` on a float condition.
            "func @bad_if() {\n  %f = fconst 1.0 : f32\n  if %f {\n    yield\n  }\n  return\n}",
            // Integer add with a float operand.
            "func @bad_add() {\n  %f = fconst 1.0 : f32\n  %c = const 1 : i32\n  %s = add %f, %c : i32\n  return\n}",
            // Float compare on integers mislabels the operand kinds.
            "func @bad_cmp() {\n  %f = fconst 1.0 : f32\n  %c = const 1 : i32\n  %p = cmp lt %f, %c\n  return\n}",
            // For bounds that are floats.
            "func @bad_for() {\n  %f = fconst 0.0 : f32\n  %c1 = const 1 : index\n  %c4 = const 4 : index\n  for %i = %f to %c4 step %c1 {\n    yield\n  }\n  return\n}",
        ];
        for src in cases {
            let func = parse_function(src).expect("parses");
            let mut mem = DeviceMemory::new();
            let mut interp = Interp::new(&func, func.body());
            let mut cx = StepCx {
                mem: &mut mem,
                parents: &[],
                counters: None,
                record_allocs: None,
            };
            let err = interp.run_serial(&mut cx).unwrap_err();
            // Errors convert into the unified diagnostics currency.
            let diag: respec_ir::Diagnostic = err.into();
            assert!(diag.is_error());
            assert_eq!(diag.code, "sim-error");
        }
    }

    #[test]
    fn barrier_suspends_and_resumes() {
        let src = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c1 = const 1 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c1) {
      %v = load %m[%t] : f32
      barrier<thread>
      store %v, %m[%t]
      yield
    }
    yield
  }
  return
}";
        let func = parse_function(src).unwrap();
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc_f32(&[5.0]);
        // Manually drive into the thread region.
        let launches = respec_ir::kernel::analyze_function(&func).unwrap();
        let thread_region = func.op(launches[0].thread_par).regions[0];
        let tid = func.region(thread_region).args[0];
        let mut host = Store::new(func.num_values());
        host.set(
            func.params()[1],
            RtVal::Mem(MemVal::new(buf, 1, [1, 1, 1], MemSpace::Global)),
        );
        let mut interp = Interp::new(&func, thread_region);
        interp.store.set(tid, RtVal::Int(0));
        let mut cx = StepCx {
            mem: &mut mem,
            parents: &[&host],
            counters: None,
            record_allocs: None,
        };
        let ev = interp.run_phase(&mut cx).unwrap();
        assert_eq!(ev, StepEvent::Barrier);
        let ev = interp.run_phase(&mut cx).unwrap();
        assert_eq!(ev, StepEvent::Done);
        assert!(interp.is_done());
    }
}
