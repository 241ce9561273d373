//! Property tests: every randomly generated well-formed function must
//! verify, print, and re-parse to a textually identical function — and the
//! same fixed-point property must hold for the committed Rodinia corpus
//! (the golden snapshots in `tests/goldens/`).

use proptest::prelude::*;
use respec_ir::{
    parse_function, parse_module, verify_function, BinOp, CmpPred, FuncBuilder, Function, MemSpace,
    ParLevel, ScalarType, Type, UnOp, Value,
};

/// A recipe for one random operation appended to a straight-line pool.
#[derive(Clone, Debug)]
enum Step {
    ConstI(i64),
    ConstF(f64),
    Bin(u8, usize, usize),
    Un(u8, usize),
    Cmp(u8, usize, usize),
    SelectLike(usize, usize, usize),
    ForLoop(u8, Vec<Step>),
    IfCond(usize, Vec<Step>, Vec<Step>),
}

fn step_strategy(depth: u32) -> impl Strategy<Value = Step> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(Step::ConstI),
        (-100.0f64..100.0).prop_map(Step::ConstF),
        (any::<u8>(), any::<usize>(), any::<usize>()).prop_map(|(o, a, b)| Step::Bin(o, a, b)),
        (any::<u8>(), any::<usize>()).prop_map(|(o, a)| Step::Un(o, a)),
        (any::<u8>(), any::<usize>(), any::<usize>()).prop_map(|(o, a, b)| Step::Cmp(o, a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(c, a, b)| Step::SelectLike(c, a, b)),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            (any::<u8>(), prop::collection::vec(inner.clone(), 1..4))
                .prop_map(|(n, s)| Step::ForLoop(n, s)),
            (
                any::<usize>(),
                prop::collection::vec(inner.clone(), 1..4),
                prop::collection::vec(inner, 1..4)
            )
                .prop_map(|(c, t, e)| Step::IfCond(c, t, e)),
        ]
    })
}

/// Pools of values by scalar type, so randomly chosen operands always have
/// compatible types.
struct Pools {
    f32s: Vec<Value>,
    i32s: Vec<Value>,
    bools: Vec<Value>,
}

fn pick(pool: &[Value], idx: usize) -> Value {
    pool[idx % pool.len()]
}

fn apply_steps(b: &mut FuncBuilder<'_>, pools: &mut Pools, steps: &[Step]) {
    for step in steps {
        match step {
            Step::ConstI(v) => {
                let c = b.const_i32(*v as i32);
                pools.i32s.push(c);
            }
            Step::ConstF(v) => {
                let c = b.const_f32(*v as f32);
                pools.f32s.push(c);
            }
            Step::Bin(o, a, c) => {
                // Pow/Div/Rem excluded on ints to avoid div-by-zero concerns in
                // later interpreter-based property tests reusing this generator.
                let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max];
                let op = ops[*o as usize % ops.len()];
                let x = pick(&pools.f32s, *a);
                let y = pick(&pools.f32s, *c);
                let r = b.binary(op, x, y);
                pools.f32s.push(r);
            }
            Step::Un(o, a) => {
                let ops = [UnOp::Neg, UnOp::Abs, UnOp::Floor, UnOp::Exp, UnOp::Sqrt];
                let op = ops[*o as usize % ops.len()];
                let x = pick(&pools.f32s, *a);
                let r = b.unary(op, x);
                pools.f32s.push(r);
            }
            Step::Cmp(o, a, c) => {
                let pred = CmpPred::ALL[*o as usize % CmpPred::ALL.len()];
                let x = pick(&pools.f32s, *a);
                let y = pick(&pools.f32s, *c);
                let r = b.cmp(pred, x, y);
                pools.bools.push(r);
            }
            Step::SelectLike(c, x, y) => {
                let cond = pick(&pools.bools, *c);
                let t = pick(&pools.f32s, *x);
                let e = pick(&pools.f32s, *y);
                let r = b.select(cond, t, e);
                pools.f32s.push(r);
            }
            Step::ForLoop(n, body) => {
                let lb = b.const_index(0);
                let ub = b.const_index((*n % 8) as i64 + 1);
                let step_v = b.const_index(1);
                let init = pick(&pools.f32s, *n as usize);
                let results = b.for_loop(lb, ub, step_v, &[init], |b, _iv, iters| {
                    let mut inner = Pools {
                        f32s: {
                            let mut v = pools.f32s.clone();
                            v.push(iters[0]);
                            v
                        },
                        i32s: pools.i32s.clone(),
                        bools: pools.bools.clone(),
                    };
                    apply_steps(b, &mut inner, body);
                    vec![*inner.f32s.last().expect("pool is never empty")]
                });
                pools.f32s.push(results[0]);
            }
            Step::IfCond(c, then_steps, else_steps) => {
                let cond = pick(&pools.bools, *c);
                let results = b.if_op(
                    cond,
                    &[Type::Scalar(ScalarType::F32)],
                    |b| {
                        let mut inner = Pools {
                            f32s: pools.f32s.clone(),
                            i32s: pools.i32s.clone(),
                            bools: pools.bools.clone(),
                        };
                        apply_steps(b, &mut inner, then_steps);
                        vec![*inner.f32s.last().expect("pool is never empty")]
                    },
                    |b| {
                        let mut inner = Pools {
                            f32s: pools.f32s.clone(),
                            i32s: pools.i32s.clone(),
                            bools: pools.bools.clone(),
                        };
                        apply_steps(b, &mut inner, else_steps);
                        vec![*inner.f32s.last().expect("pool is never empty")]
                    },
                );
                pools.f32s.push(results[0]);
            }
        }
    }
}

/// Builds a random kernel-shaped function from the step list.
fn build_function(steps: &[Step]) -> Function {
    let mut func = Function::new("prop");
    let grid = func.add_param(Type::index());
    let mem = func.add_param(Type::MemRef(respec_ir::MemRefType::new_1d_dynamic(
        ScalarType::F32,
        MemSpace::Global,
    )));
    let mut b = FuncBuilder::new(&mut func);
    let c32 = b.const_index(32);
    b.parallel(ParLevel::Block, &[grid], |b, bids| {
        b.parallel(ParLevel::Thread, &[c32], |b, tids| {
            let base = b.mul(bids[0], c32);
            let idx = b.add(base, tids[0]);
            let seed = b.load(mem, &[idx]);
            let t = b.const_bool(true);
            let mut pools = Pools {
                f32s: vec![seed],
                i32s: vec![],
                bools: vec![t],
            };
            // Pools must be non-empty for every type before applying steps.
            let z = b.const_i32(0);
            pools.i32s.push(z);
            apply_steps(b, &mut pools, steps);
            let out = *pools.f32s.last().expect("pool is never empty");
            b.store(out, mem, &[idx]);
        });
    });
    b.ret(&[]);
    func
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_functions_verify_and_round_trip(steps in prop::collection::vec(step_strategy(3), 1..12)) {
        let func = build_function(&steps);
        verify_function(&func).expect("generated function must verify");
        let printed = func.to_string();
        let reparsed = parse_function(&printed).expect("printed function must parse");
        verify_function(&reparsed).expect("reparsed function must verify");
        prop_assert_eq!(printed, reparsed.to_string());
    }
}

/// The same fixed-point property over the committed Rodinia corpus: every
/// golden snapshot (real frontend output after the canonical pipeline, one
/// module per app) parses, verifies, and re-prints byte-identically. This
/// is the invariant the persistent tuning cache leans on when it stores
/// winners as printed IR and the structural hash keys entries by the
/// canonical text.
#[test]
fn rodinia_corpus_round_trips_byte_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/goldens");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/goldens exists (regenerate with RESPEC_UPDATE_GOLDENS=1)")
        .map(|e| e.expect("dir entry").path())
        // The directory also holds the simulator pin of `tests/sim_goldens.rs`.
        .filter(|p| p.extension().is_some_and(|e| e == "ir"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "the golden corpus must not be empty");
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("read golden");
        let module =
            parse_module(&src).unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        for func in module.functions() {
            verify_function(func).unwrap_or_else(|e| panic!("{} must verify: {e}", path.display()));
        }
        let p1 = module.to_string();
        let reparsed = parse_module(&p1)
            .unwrap_or_else(|e| panic!("{} reprint must parse: {e}", path.display()));
        assert_eq!(
            p1,
            reparsed.to_string(),
            "{} print→parse→print must reach a fixed point",
            path.display()
        );
        assert_eq!(
            src,
            p1,
            "{} golden text must already be in canonical printed form",
            path.display()
        );
    }
}
