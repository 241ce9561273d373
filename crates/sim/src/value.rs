//! Runtime values and epoch-tagged value stores.

use respec_ir::{MemSpace, Value};

use crate::memory::BufferId;

/// A runtime memref: a buffer plus its (up to 3-D) logical shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemVal {
    /// Backing buffer.
    pub buf: BufferId,
    /// Number of used dimensions.
    pub rank: u8,
    /// Address space, for traffic classification.
    pub space: MemSpace,
    /// Row-major extents (unused trailing entries are 1). Stored narrow to
    /// keep [`RtVal`] small — per-dimension extents beyond 2³¹ are not
    /// representable on real GPUs either.
    dims32: [i32; 3],
}

impl MemVal {
    /// Creates a memref value.
    ///
    /// # Panics
    ///
    /// Panics if an extent exceeds `i32::MAX`.
    pub fn new(buf: BufferId, rank: u8, dims: [i64; 3], space: MemSpace) -> MemVal {
        MemVal {
            buf,
            rank,
            space,
            dims32: [
                i32::try_from(dims[0]).expect("extent fits i32"),
                i32::try_from(dims[1]).expect("extent fits i32"),
                i32::try_from(dims[2]).expect("extent fits i32"),
            ],
        }
    }

    /// Extent of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> i64 {
        self.dims32[d] as i64
    }

    /// Flattens a multi-dimensional index (row-major). Returns `None` if any
    /// index is out of its dimension's bounds.
    #[inline]
    pub fn flatten(&self, idx: &[i64]) -> Option<i64> {
        debug_assert_eq!(idx.len(), self.rank as usize);
        let mut flat = 0i64;
        for (d, &i) in idx.iter().enumerate() {
            if i < 0 || i >= self.dims32[d] as i64 {
                return None;
            }
            flat = flat * self.dims32[d] as i64 + i;
        }
        Some(flat)
    }
}

/// A runtime value: integer-family scalars, float-family scalars, or memory
/// references.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RtVal {
    /// `i1`, `i32`, `i64`, `index` — stored widened to `i64`.
    Int(i64),
    /// `f32` (computed in `f32` precision, stored widened) and `f64`.
    Float(f64),
    /// A memref.
    Mem(MemVal),
}

impl RtVal {
    /// Integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an integer (indicates a verifier gap).
    pub fn as_int(self) -> i64 {
        match self {
            RtVal::Int(v) => v,
            other => panic!("expected integer runtime value, found {other:?}"),
        }
    }

    /// Float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a float.
    pub fn as_float(self) -> f64 {
        match self {
            RtVal::Float(v) => v,
            other => panic!("expected float runtime value, found {other:?}"),
        }
    }

    /// Memref payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a memref.
    pub fn as_mem(self) -> MemVal {
        match self {
            RtVal::Mem(m) => m,
            other => panic!("expected memref runtime value, found {other:?}"),
        }
    }

    /// Integer payload, or `None` on a kind mismatch (unverified IR).
    pub fn try_int(self) -> Option<i64> {
        match self {
            RtVal::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Float payload, or `None` on a kind mismatch (unverified IR).
    pub fn try_float(self) -> Option<f64> {
        match self {
            RtVal::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Memref payload, or `None` on a kind mismatch (unverified IR).
    pub fn try_mem(self) -> Option<MemVal> {
        match self {
            RtVal::Mem(m) => Some(m),
            _ => None,
        }
    }
}

/// A value store with O(1) bulk reset: entries written under an older epoch
/// read as absent. It is the register file of one executing machine: at
/// stride 1 (host and block scopes, one lane) a plain value store, at a
/// warp's stride value-major, `vals[value * stride + lane]`, with one epoch
/// per value.
#[derive(Clone, Debug)]
pub struct Store {
    pub(crate) vals: Vec<RtVal>,
    pub(crate) epochs: Vec<u32>,
    pub(crate) cur: u32,
    stride: usize,
}

impl Store {
    /// Creates a store for a function with `num_values` SSA values.
    pub fn new(num_values: usize) -> Store {
        Store::with_stride(num_values, 1)
    }

    /// A register file of `stride` lanes per value.
    pub(crate) fn with_stride(num_values: usize, stride: usize) -> Store {
        Store {
            vals: vec![RtVal::Int(0); num_values * stride],
            epochs: vec![0; num_values],
            cur: 1,
            stride,
        }
    }

    /// Forgets all bindings in O(1).
    pub fn reset(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // Epoch wrapped: physically clear the tags once every 2³² resets.
            self.epochs.iter_mut().for_each(|e| *e = 0);
            self.cur = 1;
        }
    }

    /// Binds a value (in lane 0).
    #[inline]
    pub fn set(&mut self, v: Value, val: RtVal) {
        let i = v.index();
        self.vals[i * self.stride] = val;
        self.epochs[i] = self.cur;
    }

    /// Reads a value bound in the current epoch (its lane-0 slot).
    #[inline]
    pub fn get(&self, v: Value) -> Option<RtVal> {
        let i = v.index();
        if self.epochs[i] == self.cur {
            Some(self.vals[i * self.stride])
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_set_get_reset() {
        let mut s = Store::new(4);
        let v = Value::from_index(2);
        assert_eq!(s.get(v), None);
        s.set(v, RtVal::Int(7));
        assert_eq!(s.get(v), Some(RtVal::Int(7)));
        s.reset();
        assert_eq!(s.get(v), None);
        s.set(v, RtVal::Float(1.5));
        assert_eq!(s.get(v), Some(RtVal::Float(1.5)));
    }

    #[test]
    fn memval_flatten_row_major() {
        let m = MemVal::new(BufferId(0), 2, [4, 8, 1], MemSpace::Shared);
        assert_eq!(m.flatten(&[0, 0]), Some(0));
        assert_eq!(m.flatten(&[1, 2]), Some(10));
        assert_eq!(m.flatten(&[3, 7]), Some(31));
        assert_eq!(m.flatten(&[4, 0]), None);
        assert_eq!(m.flatten(&[0, -1]), None);
    }
}
