//! Property pin for the structural hash: the direct IR walk in
//! `respec_ir::structural_hash` must induce exactly the same equivalence
//! relation as hashing the canonical printed text (the version-1 scheme).
//!
//! Two functions must hash equal iff their printed forms are
//! byte-identical — the tuning cache's keys and the serve daemon's
//! request-coalescing key both lean on this contract.

use std::fmt::Write as _;

use proptest::prelude::*;
use respec_ir::{
    parse_function, parse_module, structural_hash, BinOp, FuncBuilder, Function, MemSpace,
    ParLevel, ScalarType, StableHasher, Type,
};

/// The reference relation: FNV-1a over the canonical printed text, which
/// is what `structural_hash` streamed before it walked the IR directly.
fn print_hash(func: &Function) -> u64 {
    let mut w = StableHasher::new();
    write!(w, "{func}").expect("hash writer is infallible");
    w.finish()
}

/// Asserts the equivalence property on one pair.
fn assert_equiv(a: &Function, b: &Function) {
    let prints_equal = print_hash(a) == print_hash(b);
    let hashes_equal = structural_hash(a) == structural_hash(b);
    assert_eq!(
        prints_equal, hashes_equal,
        "print equality and structural-hash equality must agree:\n--- a ---\n{a}\n--- b ---\n{b}"
    );
}

/// A small deterministic kernel generator: straight-line arithmetic inside
/// the canonical block/thread nest, with optional loop and branch nesting
/// driven by the recipe bytes. Unlike `roundtrip_prop.rs`, the recipe is a
/// plain byte vector so two *different* recipes frequently produce
/// *textually identical* functions (e.g. bytes that select the same op
/// sequence) — exactly the collision-heavy regime the equivalence relation
/// must survive.
fn build_kernel(name: &str, recipe: &[u8]) -> Function {
    let mut func = Function::new(name);
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
            let mut pool = vec![seed];
            for chunk in recipe.chunks(3) {
                let sel = chunk[0] % 6;
                let x = pool[chunk.get(1).map_or(0, |&i| i as usize) % pool.len()];
                let y = pool[chunk.get(2).map_or(0, |&i| i as usize) % pool.len()];
                match sel {
                    0 => pool.push(b.binary(BinOp::Add, x, y)),
                    1 => pool.push(b.binary(BinOp::Mul, x, y)),
                    2 => pool.push(b.binary(BinOp::Min, x, y)),
                    3 => {
                        // A loop whose body folds the pool head.
                        let lb = b.const_index(0);
                        let ub = b.const_index((chunk[0] % 4) as i64 + 1);
                        let st = b.const_index(1);
                        let r = b.for_loop(lb, ub, st, &[x], |b, _iv, iters| {
                            vec![b.binary(BinOp::Add, iters[0], y)]
                        });
                        pool.push(r[0]);
                    }
                    4 => {
                        let t = b.const_bool(chunk[0] % 2 == 0);
                        let r = b.if_op(
                            t,
                            &[Type::Scalar(ScalarType::F32)],
                            |b| vec![b.binary(BinOp::Max, x, y)],
                            |_b| vec![x],
                        );
                        pool.push(r[0]);
                    }
                    _ => {
                        let c = b.const_f32(f32::from(chunk[0]));
                        pool.push(b.binary(BinOp::Sub, x, c));
                    }
                }
            }
            let out = *pool.last().expect("pool is never empty");
            b.store(out, mem, &[idx]);
        });
    });
    b.ret(&[]);
    func
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random pairs — including pairs built from different recipes that
    /// happen to print identically — must agree between the two relations.
    #[test]
    fn hash_equality_tracks_print_equality(
        ra in prop::collection::vec(any::<u8>(), 0..24),
        rb in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let a = build_kernel("k", &ra);
        let b = build_kernel("k", &rb);
        assert_equiv(&a, &b);
        // Arena renumbering through print → parse must be invisible.
        let a2 = parse_function(&a.to_string()).expect("printed function parses");
        prop_assert_eq!(structural_hash(&a), structural_hash(&a2));
        prop_assert_eq!(print_hash(&a), print_hash(&a2));
    }

    /// A name change alone must flip both relations the same way.
    #[test]
    fn renamed_functions_disagree_in_both_relations(
        r in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let a = build_kernel("k", &r);
        let b = build_kernel("k2", &r);
        prop_assert_ne!(print_hash(&a), print_hash(&b));
        prop_assert_ne!(structural_hash(&a), structural_hash(&b));
    }
}

/// The committed Rodinia corpus: every pair of real frontend-output
/// functions must agree between the two relations (this sweeps loads,
/// stores, barriers, shared-memory allocs, while loops, calls — shapes the
/// random generator does not reach).
#[test]
fn rodinia_corpus_relations_agree_pairwise() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/goldens");
    let mut funcs: Vec<Function> = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/goldens exists")
        .map(|e| e.expect("dir entry").path())
        // The directory also holds the simulator pin of `tests/sim_goldens.rs`.
        .filter(|p| p.extension().is_some_and(|e| e == "ir"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("read golden");
        let module = parse_module(&src).expect("golden parses");
        funcs.extend(module.functions().cloned());
    }
    assert!(funcs.len() >= 15, "corpus should cover all apps");
    for a in &funcs {
        // Reparse: same print, new arena layout.
        let b = parse_function(&a.to_string()).expect("golden function reprints");
        assert_eq!(structural_hash(a), structural_hash(&b), "{}", a.name());
    }
    for (i, a) in funcs.iter().enumerate() {
        for b in &funcs[i + 1..] {
            assert_equiv(a, b);
        }
    }
}
