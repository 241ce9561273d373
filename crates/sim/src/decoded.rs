//! Pre-decoded instruction stream.
//!
//! [`DecodedProgram::decode`] resolves every operation of a function once —
//! operand/result value slots, scalar types, pre-rounded constants, region
//! targets — into a dense `Vec<DecodedOp>` indexed by `OpId`. The
//! interpreter inner loop then dispatches on the decoded form instead of
//! re-matching `OpKind`, re-deriving result types, and re-walking operand
//! vectors on every dynamic step.
//!
//! Decode is also where everything that is a property of the *op* rather
//! than of a lane is settled: the arithmetic domain of a binary op
//! ([`Num`]), the domains a cast converts between, whether a comparison is
//! on floats, and the op's [`InstClass`] for the timing model.
//! The executor turns each such choice into one specialised lane loop per
//! warp-op, at whatever width the machine runs.
//!
//! Decode never fails: malformed operations (which previously panicked when
//! driven unverified) decode into [`DecodedOp::Invalid`] carrying the error
//! message and whether the op would have counted an issue before failing, so
//! execution-time behavior — including the bump-then-error ordering of
//! arithmetic ops — is preserved exactly.

use respec_ir::{BinOp, CmpPred, Function, MemSpace, OpKind, RegionId, ScalarType, UnOp, Value};

use crate::interp::{classify, InstClass};

/// A value slot: the raw index of an SSA [`Value`].
pub(crate) type Slot = u32;

#[inline]
pub(crate) fn slot_value(s: Slot) -> Value {
    Value::from_index(s as usize)
}

/// Numeric domain of a result type: what a binary op computes in, what a
/// cast converts to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Num {
    /// Wrapping integer arithmetic, truncated to the result type.
    Int(ScalarType),
    /// Float arithmetic, rounded through `f32` when `single`.
    Float { single: bool },
}

impl Num {
    fn of(ty: ScalarType) -> Num {
        if ty.is_float() {
            Num::Float {
                single: ty == ScalarType::F32,
            }
        } else {
            Num::Int(ty)
        }
    }
}

/// One operation, resolved to direct slot indices and immediate payloads.
#[derive(Debug)]
pub(crate) enum DecodedOp {
    ConstInt {
        out: Slot,
        value: i64,
    },
    ConstFloat {
        out: Slot,
        /// Already rounded to f32 precision when the result type is F32.
        value: f64,
    },
    Binary {
        out: Slot,
        l: Slot,
        r: Slot,
        op: BinOp,
        num: Num,
    },
    Unary {
        out: Slot,
        v: Slot,
        op: UnOp,
        ty: ScalarType,
    },
    Cmp {
        out: Slot,
        l: Slot,
        r: Slot,
        pred: CmpPred,
        float: bool,
    },
    Select {
        out: Slot,
        c: Slot,
        t: Slot,
        f: Slot,
    },
    Cast {
        out: Slot,
        v: Slot,
        /// The operand is float-family (else integer-family).
        from_float: bool,
        to: Num,
    },
    Alloc {
        out: Slot,
        elem: ScalarType,
        space: MemSpace,
        rank: usize,
        shape: Box<[i64]>,
        /// All operands, consumed in order for dynamic extents.
        dyn_ops: Box<[Slot]>,
    },
    Load {
        out: Slot,
        mem: Slot,
        idx: Box<[Slot]>,
    },
    Store {
        val: Slot,
        mem: Slot,
        idx: Box<[Slot]>,
    },
    Dim {
        out: Slot,
        mem: Slot,
        index: usize,
    },
    For {
        lb: Slot,
        ub: Slot,
        step: Slot,
        iters: Box<[Slot]>,
        body: RegionId,
    },
    While {
        inits: Box<[Slot]>,
        cond: RegionId,
    },
    If {
        cond: Slot,
        then_r: Option<RegionId>,
        else_r: Option<RegionId>,
    },
    Parallel,
    Barrier,
    Yield {
        vals: Box<[Slot]>,
    },
    Condition {
        flag: Slot,
        vals: Box<[Slot]>,
    },
    Return,
    Call {
        callee: String,
    },
    /// Decode-time malformation: executing this op reports `msg` as a
    /// simulation error. `bump` preserves the issue-count-then-fail ordering
    /// of arithmetic ops.
    Invalid {
        bump: bool,
        msg: String,
    },
}

/// A function decoded for execution, shared by every interpreter of one
/// launch via `Arc`.
#[derive(Debug)]
pub(crate) struct DecodedProgram {
    /// Decoded op per `OpId` index.
    pub(crate) steps: Vec<DecodedOp>,
    /// Per region: whether the region or any transitively nested region
    /// contains an `Alloc` (warps over such regions start despooled —
    /// allocation order must match lane-by-lane execution).
    pub(crate) region_has_alloc: Vec<bool>,
    /// Per op: an `if`/`for` whose region subtree holds no barrier, alloc,
    /// `while`, `return`, nested `parallel` or `call`. A warp that diverges
    /// at a maskable op runs its arms (or its remaining iterations) under a
    /// lane mask and reconverges at the op's end; at any other op it
    /// despools. Every ancestor of a non-maskable op is itself non-maskable,
    /// so a despool only ever happens at full mask.
    pub(crate) maskable: Vec<bool>,
    /// Per op: its instruction class for the timing model (`None` is free).
    pub(crate) classes: Vec<Option<InstClass>>,
}

impl DecodedProgram {
    pub(crate) fn decode(func: &Function) -> DecodedProgram {
        let steps = (0..func.num_ops())
            .map(|i| decode_op(func, respec_ir::OpId::from_index(i)))
            .collect();
        let flags = region_flags(func);
        let maskable = (0..func.num_ops())
            .map(|i| {
                let op = func.op(respec_ir::OpId::from_index(i));
                matches!(op.kind, OpKind::If | OpKind::For)
                    && op
                        .regions
                        .iter()
                        .all(|r| flags.get(r.index()).is_some_and(|&f| f == 0))
            })
            .collect();
        DecodedProgram {
            steps,
            region_has_alloc: flags.iter().map(|&f| f & HAS_ALLOC != 0).collect(),
            maskable,
            classes: (0..func.num_ops())
                .map(|i| classify(func, respec_ir::OpId::from_index(i)))
                .collect(),
        }
    }
}

/// Region flag: the subtree holds an `Alloc`.
const HAS_ALLOC: u8 = 1;
/// Region flag: the subtree holds a barrier, `while`, `return`, nested
/// `parallel` or `call` — control the lane mask cannot carry.
const HAS_UNMASKABLE: u8 = 2;
/// Memo marker: the region has been visited (also breaks malformed cycles).
const VISITED: u8 = 4;

/// Per region: `HAS_ALLOC | HAS_UNMASKABLE` over the region and everything
/// transitively nested in it.
fn region_flags(func: &Function) -> Vec<u8> {
    let mut memo = vec![0u8; func.num_regions()];
    for r in 0..memo.len() {
        dfs_flags(func, r, &mut memo);
    }
    memo.iter().map(|&m| m & !VISITED).collect()
}

fn dfs_flags(func: &Function, r: usize, memo: &mut [u8]) -> u8 {
    if memo[r] & VISITED != 0 {
        return memo[r] & !VISITED;
    }
    memo[r] = VISITED;
    let mut flags = 0;
    let region = func.region(RegionId::from_index(r));
    for &op_id in &region.ops {
        let op = func.op(op_id);
        match op.kind {
            OpKind::Alloc { .. } => flags |= HAS_ALLOC,
            OpKind::Barrier { .. }
            | OpKind::While
            | OpKind::Return
            | OpKind::Parallel { .. }
            | OpKind::Call { .. } => flags |= HAS_UNMASKABLE,
            _ => {}
        }
        for &sub in &op.regions {
            if sub.index() < memo.len() {
                flags |= dfs_flags(func, sub.index(), memo);
            }
        }
    }
    memo[r] |= flags;
    flags
}

fn decode_op(func: &Function, id: respec_ir::OpId) -> DecodedOp {
    let op = func.op(id);
    let slots = |vs: &[Value]| -> Box<[Slot]> { vs.iter().map(|v| v.index() as Slot).collect() };
    // Checked accessors: a missing operand/result previously panicked when
    // unverified IR was driven; decode it into an execution-time error.
    let operand = |i: usize| op.operands.get(i).map(|v| v.index() as Slot);
    let result0 = || op.results.first().map(|v| v.index() as Slot);
    let scalar_of = |v: Value| func.value_type(v).as_scalar();
    let bad = |bump: bool, msg: String| DecodedOp::Invalid { bump, msg };
    let missing = |bump: bool, what: &str| DecodedOp::Invalid {
        bump,
        msg: format!("malformed {what}: missing operand or result"),
    };
    let not_scalar =
        |bump: bool, v: Value| bad(bump, format!("expected a scalar-typed value, got {v:?}"));

    match &op.kind {
        OpKind::ConstInt { value, .. } => match result0() {
            Some(out) => DecodedOp::ConstInt { out, value: *value },
            None => missing(false, "const"),
        },
        OpKind::ConstFloat { value, ty } => match result0() {
            Some(out) => DecodedOp::ConstFloat {
                out,
                value: if *ty == ScalarType::F32 {
                    *value as f32 as f64
                } else {
                    *value
                },
            },
            None => missing(false, "fconst"),
        },
        OpKind::Binary(b) => match (result0(), operand(0), operand(1)) {
            (Some(out), Some(l), Some(r)) => match scalar_of(op.results[0]) {
                Some(ty) => DecodedOp::Binary {
                    out,
                    l,
                    r,
                    op: *b,
                    num: Num::of(ty),
                },
                None => not_scalar(true, op.results[0]),
            },
            _ => missing(true, "binary op"),
        },
        OpKind::Unary(u) => match (result0(), operand(0)) {
            (Some(out), Some(v)) => match scalar_of(op.results[0]) {
                Some(ty) => DecodedOp::Unary { out, v, op: *u, ty },
                None => not_scalar(true, op.results[0]),
            },
            _ => missing(true, "unary op"),
        },
        OpKind::Cmp(p) => match (result0(), operand(0), operand(1)) {
            (Some(out), Some(l), Some(r)) => match scalar_of(op.operands[0]) {
                Some(ty) => DecodedOp::Cmp {
                    out,
                    l,
                    r,
                    pred: *p,
                    float: ty.is_float(),
                },
                None => not_scalar(true, op.operands[0]),
            },
            _ => missing(true, "cmp"),
        },
        OpKind::Select => match (result0(), operand(0), operand(1), operand(2)) {
            (Some(out), Some(c), Some(t), Some(f)) => DecodedOp::Select { out, c, t, f },
            _ => missing(true, "select"),
        },
        OpKind::Cast { to } => match (result0(), operand(0)) {
            (Some(out), Some(v)) => match scalar_of(op.operands[0]) {
                Some(from) => DecodedOp::Cast {
                    out,
                    v,
                    from_float: from.is_float(),
                    to: Num::of(*to),
                },
                None => not_scalar(false, op.operands[0]),
            },
            _ => missing(false, "cast"),
        },
        OpKind::Alloc { space } => {
            let Some(out) = result0() else {
                return missing(false, "alloc");
            };
            let Some(mem_ty) = func.value_type(op.results[0]).as_memref() else {
                return bad(false, "alloc result is not memref-typed".to_string());
            };
            if mem_ty.shape.len() > 3 {
                return bad(false, "allocation rank exceeds 3".to_string());
            }
            DecodedOp::Alloc {
                out,
                elem: mem_ty.elem,
                space: *space,
                rank: mem_ty.rank(),
                shape: mem_ty.shape.clone().into_boxed_slice(),
                dyn_ops: slots(&op.operands),
            }
        }
        OpKind::Load => match (result0(), operand(0)) {
            (Some(out), Some(mem)) => {
                if op.operands.len() > 4 {
                    bad(false, "load with more than 3 indices".to_string())
                } else {
                    DecodedOp::Load {
                        out,
                        mem,
                        idx: slots(&op.operands[1..]),
                    }
                }
            }
            _ => missing(false, "load"),
        },
        OpKind::Store => match (operand(0), operand(1)) {
            (Some(val), Some(mem)) => {
                if op.operands.len() > 5 {
                    bad(false, "store with more than 3 indices".to_string())
                } else {
                    DecodedOp::Store {
                        val,
                        mem,
                        idx: slots(&op.operands[2..]),
                    }
                }
            }
            _ => missing(false, "store"),
        },
        OpKind::Dim { index } => match (result0(), operand(0)) {
            (Some(out), Some(mem)) => DecodedOp::Dim {
                out,
                mem,
                index: *index,
            },
            _ => missing(false, "dim"),
        },
        OpKind::For => match (operand(0), operand(1), operand(2), op.regions.first()) {
            (Some(lb), Some(ub), Some(step), Some(&body)) => DecodedOp::For {
                lb,
                ub,
                step,
                iters: slots(&op.operands[3..]),
                body,
            },
            _ => missing(false, "for"),
        },
        OpKind::While => match op.regions.first() {
            Some(&cond) => DecodedOp::While {
                inits: slots(&op.operands),
                cond,
            },
            None => missing(false, "while"),
        },
        OpKind::If => match operand(0) {
            Some(cond) => DecodedOp::If {
                cond,
                then_r: op.regions.first().copied(),
                else_r: op.regions.get(1).copied(),
            },
            None => missing(true, "if"),
        },
        OpKind::Parallel { .. } => DecodedOp::Parallel,
        OpKind::Barrier { .. } => DecodedOp::Barrier,
        OpKind::Yield => DecodedOp::Yield {
            vals: slots(&op.operands),
        },
        OpKind::Condition => match operand(0) {
            Some(flag) => DecodedOp::Condition {
                flag,
                vals: slots(&op.operands[1..]),
            },
            None => missing(false, "condition"),
        },
        OpKind::Return => DecodedOp::Return,
        OpKind::Call { callee } => DecodedOp::Call {
            callee: callee.clone(),
        },
    }
}
