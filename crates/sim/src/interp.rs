//! What the executor ([`crate::warp::WarpInterp`]) is built from: its
//! errors, per-warp issue and access counters, frame stack entries, and the
//! lane arithmetic — one lane's binary, unary, comparison and cast
//! semantics, which the lane loops inline.

use std::fmt;

use respec_ir::{
    BinOp, CmpPred, Function, MemSpace, OpId, OpKind, RegionId, ScalarType, UnOp, Value,
};

use crate::decoded::Num;
use crate::value::{MemVal, RtVal};

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
/// (a partial mask, a despooled lane) the lanes it ran in. Memory accesses
/// are kept in one of two forms. While the lock-step executor runs and every
/// access is a whole `(op, occurrence)` group of the lane-by-lane run
/// (`commit_access` checks it), they are access records
/// the merger accounts directly. Otherwise — despooled lanes, the sanitizer, or
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
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) region: RegionId,
    pub(crate) idx: usize,
    pub(crate) kind: FrameKind,
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::decoded::DecodedProgram;
    use crate::memory::DeviceMemory;
    use crate::value::Store;
    use crate::warp::{WarpCx, WarpInterp, WarpPhase};
    use respec_ir::parse_function;

    /// A width-one machine at the start of `region` of `func`.
    fn machine(func: &Function, region: RegionId) -> WarpInterp<'_> {
        let program = Arc::new(DecodedProgram::decode(func));
        let mut w = WarpInterp::new(func, program, 1);
        w.restart(region, 1);
        w
    }

    /// Runs `w` to its next suspension, counting into `counters`.
    fn phase(
        w: &mut WarpInterp<'_>,
        mem: &mut DeviceMemory,
        parents: &[&Store],
        counters: &mut WarpCounters,
    ) -> Result<WarpPhase, SimError> {
        let mut masked = 0;
        let mut cx = WarpCx {
            mem,
            parents,
            counters,
            masked_branches: &mut masked,
        };
        w.run_phase(&mut cx)
    }

    /// Runs the body of `func` at width one to the end, binding its
    /// parameters with `bind` first.
    fn run_serial(
        func: &Function,
        mem: &mut DeviceMemory,
        bind: impl FnOnce(&mut WarpInterp<'_>, &mut DeviceMemory),
    ) -> Result<(), SimError> {
        let mut w = machine(func, func.body());
        bind(&mut w, mem);
        let mut counters = WarpCounters::new(func.num_ops(), 1);
        counters.reset(1, false);
        match phase(&mut w, mem, &[], &mut counters)? {
            WarpPhase::Done => Ok(()),
            other => Err(SimError::new(format!("serial scope stopped: {other:?}"))),
        }
    }

    fn run_serial_func(
        src: &str,
        bind: impl FnOnce(&Function, &mut WarpInterp<'_>, &mut DeviceMemory),
    ) -> DeviceMemory {
        let func = parse_function(src).unwrap();
        respec_ir::verify_function(&func).unwrap();
        let mut mem = DeviceMemory::new();
        run_serial(&func, &mut mem, |w, mem| bind(&func, w, mem)).unwrap();
        mem
    }

    /// Binds `func`'s first parameter to a new one-element buffer of `elem`.
    fn one_element(
        func: &Function,
        w: &mut WarpInterp<'_>,
        mem: &mut DeviceMemory,
        elem: ScalarType,
    ) {
        let buf = mem.alloc(elem, 1);
        let m = RtVal::Mem(MemVal::new(buf, 1, [1, 1, 1], MemSpace::Global));
        w.set_with(func.params()[0], |_| m);
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
        let mem = run_serial_func(src, |func, w, mem| {
            one_element(func, w, mem, ScalarType::I32)
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
        let mem = run_serial_func(src, |func, w, mem| {
            one_element(func, w, mem, ScalarType::I32)
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
        let mem = run_serial_func(src, |func, w, mem| {
            one_element(func, w, mem, ScalarType::F32)
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
        let err = run_serial(&func, &mut mem, |_, _| {}).unwrap_err();
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
        let mut w = machine(&func, func.body());
        let m = RtVal::Mem(MemVal::new(buf, 1, [4, 1, 1], MemSpace::Global));
        w.set_with(func.params()[0], |_| m);
        let mut counters = WarpCounters::new(func.num_ops(), 1);
        counters.reset(1, true);
        phase(&mut w, &mut mem, &[], &mut counters).unwrap();
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
            let err = run_serial(&func, &mut mem, |_, _| {}).unwrap_err();
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
        let mut w = machine(&func, thread_region);
        w.set_with(tid, |_| RtVal::Int(0));
        let mut counters = WarpCounters::new(func.num_ops(), 1);
        counters.reset(1, false);
        let ev = phase(&mut w, &mut mem, &[&host], &mut counters).unwrap();
        assert_eq!(ev, WarpPhase::Barrier);
        let ev = phase(&mut w, &mut mem, &[&host], &mut counters).unwrap();
        assert_eq!(ev, WarpPhase::Done);
        assert!(w.is_done());
    }
}
