//! Simulated device memory: a flat 64-bit address space of typed buffers.
//!
//! Every buffer gets a unique, 256-byte aligned base address so that the
//! cache and coalescing models observe realistic address streams.

use respec_ir::ScalarType;

/// Identifier of an allocated device buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) u32);

#[derive(Clone, Debug)]
pub(crate) struct Buffer {
    pub elem: ScalarType,
    pub data: Vec<u8>,
    pub base_addr: u64,
}

/// The simulated device memory of one GPU.
#[derive(Clone, Debug, Default)]
pub struct DeviceMemory {
    buffers: Vec<Buffer>,
    next_addr: u64,
}

const BASE: u64 = 0x7f00_0000_0000;
const ALIGN: u64 = 256;

impl DeviceMemory {
    /// Creates an empty device memory.
    pub fn new() -> DeviceMemory {
        DeviceMemory {
            buffers: Vec::new(),
            next_addr: BASE,
        }
    }

    fn alloc_raw(&mut self, elem: ScalarType, bytes: usize) -> BufferId {
        let id = BufferId(self.buffers.len() as u32);
        let base_addr = self.next_addr;
        self.next_addr += (bytes as u64).div_ceil(ALIGN) * ALIGN + ALIGN;
        self.buffers.push(Buffer {
            elem,
            data: vec![0; bytes],
            base_addr,
        });
        id
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    pub fn alloc(&mut self, elem: ScalarType, len: usize) -> BufferId {
        self.alloc_raw(elem, len * elem.size_bytes() as usize)
    }

    /// Allocates and fills a buffer of `f32` values.
    pub fn alloc_f32(&mut self, data: &[f32]) -> BufferId {
        let id = self.alloc(ScalarType::F32, data.len());
        self.write_f32(id, data);
        id
    }

    /// Allocates and fills a buffer of `f64` values.
    pub fn alloc_f64(&mut self, data: &[f64]) -> BufferId {
        let id = self.alloc(ScalarType::F64, data.len());
        self.write_f64(id, data);
        id
    }

    /// Allocates and fills a buffer of `i32` values.
    pub fn alloc_i32(&mut self, data: &[i32]) -> BufferId {
        let id = self.alloc(ScalarType::I32, data.len());
        self.write_i32(id, data);
        id
    }

    /// Number of buffers allocated so far (scratch-arena marking).
    pub(crate) fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Drops every buffer past `count`, returning their address space to the
    /// allocator (scratch-arena release).
    pub(crate) fn truncate_buffers(&mut self, count: usize) {
        if count < self.buffers.len() {
            self.next_addr = self.buffers[count].base_addr;
            self.buffers.truncate(count);
        }
    }

    /// Bytes held by the buffers allocated after the first `count`.
    pub(crate) fn bytes_since(&self, count: usize) -> u64 {
        self.buffers[count..]
            .iter()
            .map(|b| b.data.len() as u64)
            .sum()
    }

    /// Number of elements in the buffer.
    pub fn len(&self, id: BufferId) -> usize {
        let b = &self.buffers[id.0 as usize];
        b.data.len() / b.elem.size_bytes() as usize
    }

    /// Returns `true` if the buffer holds no elements.
    pub fn is_empty(&self, id: BufferId) -> bool {
        self.len(id) == 0
    }

    /// Element type of the buffer.
    pub fn elem_type(&self, id: BufferId) -> ScalarType {
        self.buffers[id.0 as usize].elem
    }

    /// Base address of the buffer in the simulated address space.
    pub fn base_addr(&self, id: BufferId) -> u64 {
        self.buffers[id.0 as usize].base_addr
    }

    /// Overwrites the buffer with `f32` values.
    ///
    /// # Panics
    ///
    /// Panics if the lengths or element types disagree.
    pub fn write_f32(&mut self, id: BufferId, data: &[f32]) {
        let b = &mut self.buffers[id.0 as usize];
        assert_eq!(b.elem, ScalarType::F32);
        assert_eq!(b.data.len(), data.len() * 4);
        for (i, v) in data.iter().enumerate() {
            b.data[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Overwrites the buffer with `f64` values.
    ///
    /// # Panics
    ///
    /// Panics if the lengths or element types disagree.
    pub fn write_f64(&mut self, id: BufferId, data: &[f64]) {
        let b = &mut self.buffers[id.0 as usize];
        assert_eq!(b.elem, ScalarType::F64);
        assert_eq!(b.data.len(), data.len() * 8);
        for (i, v) in data.iter().enumerate() {
            b.data[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Overwrites the buffer with `i32` values.
    ///
    /// # Panics
    ///
    /// Panics if the lengths or element types disagree.
    pub fn write_i32(&mut self, id: BufferId, data: &[i32]) {
        let b = &mut self.buffers[id.0 as usize];
        assert_eq!(b.elem, ScalarType::I32);
        assert_eq!(b.data.len(), data.len() * 4);
        for (i, v) in data.iter().enumerate() {
            b.data[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads the buffer as `f32` values.
    pub fn read_f32(&self, id: BufferId) -> Vec<f32> {
        let b = &self.buffers[id.0 as usize];
        assert_eq!(b.elem, ScalarType::F32);
        b.data
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Reads the buffer as `f64` values.
    pub fn read_f64(&self, id: BufferId) -> Vec<f64> {
        let b = &self.buffers[id.0 as usize];
        assert_eq!(b.elem, ScalarType::F64);
        b.data
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect()
    }

    /// Reads the buffer as `i32` values.
    pub fn read_i32(&self, id: BufferId) -> Vec<i32> {
        let b = &self.buffers[id.0 as usize];
        assert_eq!(b.elem, ScalarType::I32);
        b.data
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Loads the element at flat index `idx` as a raw scalar value: integers
    /// sign-extended into `i64`, floats widened into `f64` bit patterns.
    ///
    /// Returns `None` for out-of-bounds accesses.
    pub fn load_scalar(&self, id: BufferId, idx: i64) -> Option<(f64, i64)> {
        self.buffers[id.0 as usize].load(idx)
    }

    /// Stores a scalar at flat index `idx`; `f` is used for float buffers and
    /// `i` for integer buffers. Returns `false` for out-of-bounds accesses.
    pub fn store_scalar(&mut self, id: BufferId, idx: i64, f: f64, i: i64) -> bool {
        self.buffers[id.0 as usize].store(idx, f, i)
    }

    /// The buffer itself: one lookup for a whole warp access.
    #[inline]
    pub(crate) fn buffer_mut(&mut self, id: BufferId) -> &mut Buffer {
        &mut self.buffers[id.0 as usize]
    }
}

impl Buffer {
    /// Byte range of element `idx`, if it is in bounds.
    #[inline(always)]
    fn range(&self, idx: i64) -> Option<std::ops::Range<usize>> {
        let sz = self.elem.size_bytes() as usize;
        let off = usize::try_from(idx).ok()?.checked_mul(sz)?;
        (off + sz <= self.data.len()).then_some(off..off + sz)
    }

    /// See [`DeviceMemory::load_scalar`].
    #[inline(always)]
    pub(crate) fn load(&self, idx: i64) -> Option<(f64, i64)> {
        let bytes = &self.data[self.range(idx)?];
        let word = |b: &[u8]| <[u8; 4]>::try_from(b).expect("4-byte element");
        let wide = |b: &[u8]| <[u8; 8]>::try_from(b).expect("8-byte element");
        Some(match self.elem {
            ScalarType::F32 => (f32::from_le_bytes(word(bytes)) as f64, 0),
            ScalarType::F64 => (f64::from_le_bytes(wide(bytes)), 0),
            ScalarType::I32 => (0.0, i32::from_le_bytes(word(bytes)) as i64),
            ScalarType::I64 | ScalarType::Index => (0.0, i64::from_le_bytes(wide(bytes))),
            ScalarType::I1 => (0.0, bytes[0] as i64),
        })
    }

    /// See [`DeviceMemory::store_scalar`].
    #[inline(always)]
    pub(crate) fn store(&mut self, idx: i64, f: f64, i: i64) -> bool {
        let Some(range) = self.range(idx) else {
            return false;
        };
        let bytes = &mut self.data[range];
        match self.elem {
            ScalarType::F32 => bytes.copy_from_slice(&(f as f32).to_le_bytes()),
            ScalarType::F64 => bytes.copy_from_slice(&f.to_le_bytes()),
            ScalarType::I32 => bytes.copy_from_slice(&(i as i32).to_le_bytes()),
            ScalarType::I64 | ScalarType::Index => bytes.copy_from_slice(&i.to_le_bytes()),
            ScalarType::I1 => bytes[0] = (i != 0) as u8,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_f32() {
        let mut m = DeviceMemory::new();
        let id = m.alloc_f32(&[1.0, 2.5, -3.0]);
        assert_eq!(m.read_f32(id), vec![1.0, 2.5, -3.0]);
        assert_eq!(m.len(id), 3);
        assert!(!m.is_empty(id));
    }

    #[test]
    fn buffers_have_distinct_aligned_addresses() {
        let mut m = DeviceMemory::new();
        let a = m.alloc(ScalarType::F32, 10);
        let b = m.alloc(ScalarType::F32, 10);
        assert_ne!(m.base_addr(a), m.base_addr(b));
        assert_eq!(m.base_addr(a) % 256, 0);
        assert_eq!(m.base_addr(b) % 256, 0);
        assert!(m.base_addr(b) >= m.base_addr(a) + 40);
    }

    #[test]
    fn scalar_load_store() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::I32, 4);
        assert!(m.store_scalar(id, 2, 0.0, 42));
        assert_eq!(m.load_scalar(id, 2), Some((0.0, 42)));
        assert_eq!(m.read_i32(id), vec![0, 0, 42, 0]);
    }

    #[test]
    fn out_of_bounds_is_detected() {
        let mut m = DeviceMemory::new();
        let id = m.alloc(ScalarType::F32, 4);
        assert!(m.load_scalar(id, 4).is_none());
        assert!(m.load_scalar(id, -1).is_none());
        assert!(!m.store_scalar(id, 100, 1.0, 0));
    }

    #[test]
    fn f64_and_i32_round_trip() {
        let mut m = DeviceMemory::new();
        let d = m.alloc_f64(&[1.25, -2.5]);
        assert_eq!(m.read_f64(d), vec![1.25, -2.5]);
        let i = m.alloc_i32(&[7, -9]);
        assert_eq!(m.read_i32(i), vec![7, -9]);
        assert_eq!(m.elem_type(i), ScalarType::I32);
    }
}
