//! Common subexpression elimination for pure operations.
//!
//! In the structured IR, lexical scope *is* dominance: an op dominates every
//! later op of its region and everything nested under them. CSE therefore
//! keeps a scoped table keyed by `(kind, operands)`, mapping each key to
//! the first op that computes it.

use std::collections::HashMap;

use respec_ir::{BinOp, CmpPred, Function, OpId, OpKind, RegionId, ScalarType, UnOp, Value};

/// A pure op's kind and attributes. Float constants are keyed by bit
/// pattern, with every NaN under one key: `0.0` and `-0.0` stay apart, and
/// NaNs merge.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum KindKey {
    Int(i64, ScalarType),
    Float(u64, ScalarType),
    Binary(BinOp),
    Unary(UnOp),
    Cmp(CmpPred),
    Select,
    Cast(ScalarType),
    Dim(usize),
}

impl KindKey {
    /// The key of a kind CSE may merge; `None` for impure kinds.
    fn of(kind: &OpKind) -> Option<KindKey> {
        Some(match *kind {
            OpKind::ConstInt { value, ty } => KindKey::Int(value, ty),
            OpKind::ConstFloat { value, ty } => {
                let bits = if value.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    value.to_bits()
                };
                KindKey::Float(bits, ty)
            }
            OpKind::Binary(op) => KindKey::Binary(op),
            OpKind::Unary(op) => KindKey::Unary(op),
            OpKind::Cmp(pred) => KindKey::Cmp(pred),
            OpKind::Select => KindKey::Select,
            OpKind::Cast { to } => KindKey::Cast(to),
            OpKind::Dim { index } => KindKey::Dim(index),
            _ => return None,
        })
    }
}

/// Operands of a keyed op; pure ops have at most three, kept inline.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Operands {
    Inline(u8, [Value; 3]),
    Spilled(Vec<Value>),
}

impl Operands {
    fn of(operands: &[Value]) -> Operands {
        match operands.len() {
            n @ 0..=3 => {
                let mut vals = [Value::from_index(0); 3];
                vals[..n].copy_from_slice(operands);
                Operands::Inline(n as u8, vals)
            }
            _ => Operands::Spilled(operands.to_vec()),
        }
    }
}

type Key = (KindKey, Operands);

/// Runs CSE; returns the number of operations deduplicated.
pub fn cse(func: &mut Function) -> usize {
    let mut scopes: Vec<HashMap<Key, OpId>> = vec![HashMap::new()];
    let body = func.body();
    let mut removed = 0;
    cse_region(func, body, &mut scopes, &mut removed);
    removed
}

fn cse_region(
    func: &mut Function,
    region: RegionId,
    scopes: &mut Vec<HashMap<Key, OpId>>,
    removed: &mut usize,
) {
    scopes.push(HashMap::new());
    let ops = std::mem::take(&mut func.region_mut(region).ops);
    let mut replacements: HashMap<Value, Value> = HashMap::new();
    let mut kept = Vec::with_capacity(ops.len());
    for op_id in ops {
        // Rewrite operands through pending replacements.
        if !replacements.is_empty() {
            for operand in &mut func.op_mut(op_id).operands {
                if let Some(&n) = replacements.get(operand) {
                    *operand = n;
                }
            }
        }
        let op = func.op(op_id);
        if let Some(kind) = KindKey::of(&op.kind) {
            let key = (kind, Operands::of(&op.operands));
            if let Some(prev) = scopes.iter().rev().find_map(|s| s.get(&key)) {
                for (&old, &new) in op.results.iter().zip(&func.op(*prev).results) {
                    replacements.insert(old, new);
                }
                *removed += 1;
                continue; // drop the duplicate op
            }
            scopes
                .last_mut()
                .expect("scope stack is never empty")
                .insert(key, op_id);
        }
        for i in 0..func.op(op_id).regions.len() {
            let r = func.op(op_id).regions[i];
            cse_region(func, r, scopes, removed);
        }
        kept.push(op_id);
    }
    func.region_mut(region).ops = kept;
    if !replacements.is_empty() {
        respec_ir::walk::replace_uses_in_region(func, region, &replacements);
    }
    scopes.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::{parse_function, verify_function, FuncBuilder, MemSpace};

    /// A function defining two values with `make`, then returning them
    /// both, after CSE: the number of ops CSE removed.
    fn merged(make: impl FnOnce(&mut FuncBuilder<'_>) -> (Value, Value)) -> usize {
        let mut func = Function::new("f");
        let mut b = FuncBuilder::new(&mut func);
        let (x, y) = make(&mut b);
        b.ret(&[x, y]);
        let removed = cse(&mut func);
        verify_function(&func).unwrap();
        removed
    }

    #[test]
    fn deduplicates_identical_arith() {
        let mut func = parse_function(
            "func @f(%a: f32, %b: f32) {
  %x = add %a, %b : f32
  %y = add %a, %b : f32
  %z = mul %x, %y : f32
  return %z
}",
        )
        .unwrap();
        assert_eq!(cse(&mut func), 1);
        verify_function(&func).unwrap();
        let text = func.to_string();
        assert_eq!(text.matches(" add ").count(), 1, "{text}");
    }

    #[test]
    fn deduplicates_constants() {
        let mut func = parse_function(
            "func @f() {\n  %a = const 5 : i32\n  %b = const 5 : i32\n  %c = add %a, %b : i32\n  return %c\n}",
        )
        .unwrap();
        assert_eq!(cse(&mut func), 1);
        verify_function(&func).unwrap();
    }

    #[test]
    fn outer_values_are_visible_in_nested_regions() {
        let mut func = parse_function(
            "func @f(%a: f32, %c: i1) {
  %x = add %a, %a : f32
  %r = if %c {
    %y = add %a, %a : f32
    yield %y
  } else {
    yield %x
  }
  return %r
}",
        )
        .unwrap();
        assert_eq!(cse(&mut func), 1);
        verify_function(&func).unwrap();
    }

    #[test]
    fn nested_defs_do_not_leak_to_siblings() {
        let mut func = parse_function(
            "func @f(%a: f32, %c: i1) {
  %r = if %c {
    %x = add %a, %a : f32
    yield %x
  } else {
    %y = add %a, %a : f32
    yield %y
  }
  return %r
}",
        )
        .unwrap();
        // The two adds live in sibling regions: neither dominates the other.
        assert_eq!(cse(&mut func), 0);
        verify_function(&func).unwrap();
    }

    #[test]
    fn does_not_merge_loads() {
        let mut func = parse_function(
            "func @f(%m: memref<?xf32, global>, %i: index) {
  %x = load %m[%i] : f32
  store %x, %m[%i]
  %y = load %m[%i] : f32
  %z = add %x, %y : f32
  return %z
}",
        )
        .unwrap();
        assert_eq!(cse(&mut func), 0);
    }

    #[test]
    fn distinguishes_different_attributes() {
        let mut func = parse_function(
            "func @f() {\n  %a = const 5 : i32\n  %b = const 6 : i32\n  %c = add %a, %b : i32\n  return %c\n}",
        )
        .unwrap();
        assert_eq!(cse(&mut func), 0);
    }

    #[test]
    fn signed_zero_constants_stay_distinct() {
        assert_eq!(merged(|b| (b.const_f64(0.0), b.const_f64(-0.0))), 0);
        assert_eq!(merged(|b| (b.const_f64(-0.0), b.const_f64(-0.0))), 1);
    }

    #[test]
    fn nan_constants_merge() {
        let quiet = f64::NAN;
        let other = f64::from_bits(f64::NAN.to_bits() | 1);
        assert!(other.is_nan() && other.to_bits() != quiet.to_bits());
        assert_eq!(merged(|b| (b.const_f64(quiet), b.const_f64(other))), 1);
        assert_eq!(merged(|b| (b.const_f64(quiet), b.const_f64(-quiet))), 1);
    }

    #[test]
    fn equal_ints_of_different_types_stay_distinct() {
        let (i32_, index) = (ScalarType::I32, ScalarType::Index);
        assert_eq!(merged(|b| (b.const_int(7, i32_), b.const_int(7, index))), 0);
        assert_eq!(merged(|b| (b.const_int(7, i32_), b.const_int(7, i32_))), 1);
    }

    #[test]
    fn dims_of_different_indices_stay_distinct() {
        let dims = |i: usize, j: usize| {
            merged(|b| {
                let n = b.const_index(4);
                let m = b.alloc_dynamic(ScalarType::F32, &[n, n], MemSpace::Global);
                (b.dim(m, i), b.dim(m, j))
            })
        };
        assert_eq!(dims(0, 1), 0);
        assert_eq!(dims(1, 1), 1);
    }
}
