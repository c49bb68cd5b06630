//! Sparse, byte-addressable main memory.

use crate::hash::U64Map;

/// log2 of the page size used by [`Memory`] (and by the checkpoint layer,
/// which snapshots dirty pages at this granularity).
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// The architectural load/store interface the CPU steps against.
///
/// [`Memory`] is the concrete backing store for normal trace runs; the
/// checkpoint/replay layer substitutes a copy-on-write overlay that
/// resolves reads against recorded page snapshots. Every implementation
/// must be little-endian and read zeros from untouched addresses so the
/// interpreter semantics are identical whichever bus is plugged in.
pub trait MemBus {
    /// Reads one byte.
    fn read_u8(&self, addr: u64) -> u8;
    /// Reads a little-endian `u32`.
    fn read_u32(&self, addr: u64) -> u32;
    /// Reads a little-endian `u64`.
    fn read_u64(&self, addr: u64) -> u64;
    /// Writes one byte.
    fn write_u8(&mut self, addr: u64, value: u8);
    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, addr: u64, value: u32);
    /// Writes a little-endian `u64`.
    fn write_u64(&mut self, addr: u64, value: u64);
}

impl MemBus for Memory {
    #[inline]
    fn read_u8(&self, addr: u64) -> u8 {
        Memory::read_u8(self, addr)
    }
    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        Memory::read_u32(self, addr)
    }
    #[inline]
    fn read_u64(&self, addr: u64) -> u64 {
        Memory::read_u64(self, addr)
    }
    #[inline]
    fn write_u8(&mut self, addr: u64, value: u8) {
        Memory::write_u8(self, addr, value)
    }
    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        Memory::write_u32(self, addr, value)
    }
    #[inline]
    fn write_u64(&mut self, addr: u64, value: u64) {
        Memory::write_u64(self, addr, value)
    }
}

/// A sparse 64-bit byte-addressable memory.
///
/// Pages (4 KB) are allocated on first touch and zero-filled, so programs
/// may read uninitialized memory and observe zeros — matching what the
/// workload generators assume. All multi-byte accesses are little-endian
/// and may straddle page boundaries.
///
/// # Example
///
/// ```
/// use preexec_mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000), 0xef); // little-endian
/// assert_eq!(m.read_u64(0x9999), 0);   // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: U64Map<Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&p[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        out
    }

    fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        // Page-sized chunks: one page lookup per 4 KB, not per byte —
        // workload data segments are megabytes, and segment loading is
        // on every trace/sim run's critical path.
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(bytes.len());
            self.page(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr += n as u64;
            bytes = &bytes[n..];
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Copies a byte slice into memory at `addr`.
    pub fn write_slice(&mut self, addr: u64, bytes: &[u8]) {
        self.write_bytes(addr, bytes);
    }

    /// The resident page with index `page` (`addr >> PAGE_SHIFT`), if any.
    /// Non-resident pages read as zeros and return `None` here — the
    /// checkpoint layer uses this to snapshot only dirtied pages.
    pub fn page_bytes(&self, page: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&page).map(|p| &**p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(12345), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u32(100, 0x1234_5678);
        m.write_u64(200, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u32(100), 0x1234_5678);
        assert_eq!(m.read_u64(200), 0x0102_0304_0506_0708);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE as u64 - 4; // straddles the first page boundary
        m.write_u64(addr, 0xaabb_ccdd_1122_3344);
        assert_eq!(m.read_u64(addr), 0xaabb_ccdd_1122_3344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn write_slice() {
        let mut m = Memory::new();
        m.write_slice(0x500, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_u8(0x500), 1);
        assert_eq!(m.read_u8(0x504), 5);
    }

    #[test]
    fn write_slice_spanning_many_pages() {
        let mut m = Memory::new();
        let bytes: Vec<u8> = (0..3 * PAGE_SIZE + 7).map(|i| (i % 251) as u8).collect();
        let base = PAGE_SIZE as u64 - 3; // start mid-page, cover 4+ pages
        m.write_slice(base, &bytes);
        assert_eq!(m.resident_pages(), 5);
        for (i, &b) in bytes.iter().enumerate() {
            assert_eq!(m.read_u8(base + i as u64), b, "byte {i}");
        }
    }

    #[test]
    fn pages_allocated_on_write_only() {
        let mut m = Memory::new();
        let _ = m.read_u64(0x8000);
        assert_eq!(m.resident_pages(), 0);
        m.write_u8(0x8000, 1);
        assert_eq!(m.resident_pages(), 1);
    }
}
