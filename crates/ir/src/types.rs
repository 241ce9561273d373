//! The IR type system: scalar types and multi-dimensional memory references.

use std::fmt;

use crate::ops::MemSpace;

/// A scalar SSA value type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarType {
    /// 1-bit boolean (comparison results, conditions).
    I1,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// Platform index type used for loop bounds, thread/block ids and memory
    /// indexing. Modelled as 64-bit.
    Index,
}

impl ScalarType {
    /// Returns `true` for the floating point types.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarType::F32 | ScalarType::F64)
    }

    /// Returns `true` for the integer types (including [`ScalarType::Index`]
    /// and [`ScalarType::I1`]).
    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// Size of one element of this type in bytes, as laid out in GPU memory.
    pub fn size_bytes(self) -> u64 {
        match self {
            ScalarType::I1 => 1,
            ScalarType::I32 | ScalarType::F32 => 4,
            ScalarType::I64 | ScalarType::F64 | ScalarType::Index => 8,
        }
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::I1 => "i1",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
            ScalarType::F32 => "f32",
            ScalarType::F64 => "f64",
            ScalarType::Index => "index",
        };
        f.write_str(s)
    }
}

/// Shape dimension marker for a dynamically-sized dimension.
pub const DYNAMIC: i64 = -1;

/// A multi-dimensional memory buffer type with an address space.
///
/// Shapes use row-major contiguous layout; a dimension of `DYNAMIC` (`-1`) is
/// unknown at compile time (its extent is an SSA operand of the allocation,
/// or implicit for function parameters).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemRefType {
    /// Element type.
    pub elem: ScalarType,
    /// Extent of each dimension; `DYNAMIC` (`-1`) for unknown extents.
    pub shape: Vec<i64>,
    /// GPU address space the buffer lives in.
    pub space: MemSpace,
}

impl MemRefType {
    /// Creates a memref type with the given shape.
    pub fn new(elem: ScalarType, shape: Vec<i64>, space: MemSpace) -> Self {
        MemRefType { elem, shape, space }
    }

    /// Convenience constructor for a 1-D buffer with dynamic extent.
    pub fn new_1d_dynamic(elem: ScalarType, space: MemSpace) -> Self {
        MemRefType::new(elem, vec![DYNAMIC], space)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Returns `true` if every dimension extent is known at compile time.
    pub fn is_static(&self) -> bool {
        self.shape.iter().all(|&d| d != DYNAMIC)
    }

    /// Total static size in elements, or `None` if any dimension is dynamic.
    pub fn static_elements(&self) -> Option<u64> {
        let mut n: u64 = 1;
        for &d in &self.shape {
            if d == DYNAMIC {
                return None;
            }
            n = n.checked_mul(d as u64)?;
        }
        Some(n)
    }

    /// Total static size in bytes, or `None` if any dimension is dynamic.
    pub fn static_bytes(&self) -> Option<u64> {
        Some(self.static_elements()? * self.elem.size_bytes())
    }
}

impl fmt::Display for MemRefType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memref<")?;
        for &d in &self.shape {
            if d == DYNAMIC {
                write!(f, "?x")?;
            } else {
                write!(f, "{d}x")?;
            }
        }
        write!(f, "{}, {}>", self.elem, self.space)
    }
}

/// The type of an SSA value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// A scalar value.
    Scalar(ScalarType),
    /// A reference to a memory buffer.
    MemRef(MemRefType),
}

impl Type {
    /// Shorthand for `Type::Scalar(ScalarType::Index)`.
    pub fn index() -> Type {
        Type::Scalar(ScalarType::Index)
    }

    /// Returns the scalar type, or `None` for memrefs.
    pub fn as_scalar(&self) -> Option<ScalarType> {
        match self {
            Type::Scalar(s) => Some(*s),
            Type::MemRef(_) => None,
        }
    }

    /// Returns the memref type, or `None` for scalars.
    pub fn as_memref(&self) -> Option<&MemRefType> {
        match self {
            Type::Scalar(_) => None,
            Type::MemRef(m) => Some(m),
        }
    }
}

impl From<ScalarType> for Type {
    fn from(s: ScalarType) -> Type {
        Type::Scalar(s)
    }
}

impl From<MemRefType> for Type {
    fn from(m: MemRefType) -> Type {
        Type::MemRef(m)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Scalar(s) => s.fmt(f),
            Type::MemRef(m) => m.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(ScalarType::F32.size_bytes(), 4);
        assert_eq!(ScalarType::F64.size_bytes(), 8);
        assert_eq!(ScalarType::Index.size_bytes(), 8);
        assert_eq!(ScalarType::I1.size_bytes(), 1);
    }

    #[test]
    fn scalar_classification() {
        assert!(ScalarType::F32.is_float());
        assert!(!ScalarType::F32.is_int());
        assert!(ScalarType::Index.is_int());
        assert!(ScalarType::I1.is_int());
    }

    #[test]
    fn memref_static_bytes() {
        let m = MemRefType::new(ScalarType::F32, vec![16, 16], MemSpace::Shared);
        assert!(m.is_static());
        assert_eq!(m.static_elements(), Some(256));
        assert_eq!(m.static_bytes(), Some(1024));
    }

    #[test]
    fn memref_dynamic_bytes() {
        let m = MemRefType::new_1d_dynamic(ScalarType::F64, MemSpace::Global);
        assert!(!m.is_static());
        assert_eq!(m.static_bytes(), None);
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn display_formats() {
        let m = MemRefType::new(ScalarType::F32, vec![DYNAMIC, 8], MemSpace::Global);
        assert_eq!(m.to_string(), "memref<?x8xf32, global>");
        assert_eq!(Type::index().to_string(), "index");
    }
}
