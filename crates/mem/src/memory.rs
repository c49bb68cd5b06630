//! Sparse, byte-addressable main memory over a borrowed initial image.

use crate::hash::U64Map;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// log2 of the page size used by [`Memory`] (and by the checkpoint layer,
/// which snapshots written pages at this granularity).
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// One written page. Clones share the bytes until one side writes.
pub type Page = Arc<[u8; PAGE_SIZE]>;

/// A sparse 64-bit byte-addressable memory.
///
/// Its initial contents are a set of borrowed segments, read in place and
/// never copied; every address outside them reads zero. The first write
/// to a page copies that page's initial bytes into a private [`Page`], and
/// reads of that page come from the copy from then on. Pages are shared
/// copy-on-write, so a clone (or a [`share_unshared_pages`] snapshot)
/// costs one reference count per page, and a write to a shared page
/// copies only that page.
///
/// All multi-byte accesses are little-endian, may straddle page
/// boundaries, and wrap at the top of the address space.
///
/// [`share_unshared_pages`]: Memory::share_unshared_pages
///
/// # Example
///
/// ```
/// use preexec_mem::Memory;
///
/// let image = [1u8, 2, 3, 4];
/// let mut m = Memory::with_segments([(0x2000, &image[..])]);
/// assert_eq!(m.read_u32(0x2000), 0x0403_0201); // read in place
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1000), 0xef); // little-endian
/// assert_eq!(m.read_u64(0x9999), 0);   // untouched memory reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory<'a> {
    /// Initial contents as `(base, bytes)`, in load order: where two
    /// overlap, the later one wins, as if each were written in turn.
    segments: Vec<(u64, &'a [u8])>,
    pages: U64Map<Page>,
}

impl<'a> Memory<'a> {
    /// Creates an empty memory: every address reads zero.
    pub fn new() -> Memory<'a> {
        Memory::default()
    }

    /// Creates a memory whose initial contents are `segments`, given as
    /// `(base, bytes)` pairs and borrowed, not copied. It reads exactly
    /// like [`Memory::new`] followed by [`write_slice`](Self::write_slice)
    /// of each segment in order, including a segment that wraps past the
    /// top of the address space.
    pub fn with_segments(segments: impl IntoIterator<Item = (u64, &'a [u8])>) -> Memory<'a> {
        let mut split = Vec::new();
        for (base, bytes) in segments {
            // Bytes past the top of the address space land at address 0.
            let room = (1u128 << 64) - base as u128;
            let (low, wrapped) = bytes.split_at(room.min(bytes.len() as u128) as usize);
            split.push((base, low));
            if !wrapped.is_empty() {
                split.push((0, wrapped));
            }
        }
        Memory { segments: split, pages: U64Map::default() }
    }

    /// Number of written pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Fills `out`, which must lie within one page starting at `addr`,
    /// with the initial contents: the overlapping segment bytes, else
    /// zero.
    fn read_initial(segments: &[(u64, &[u8])], addr: u64, out: &mut [u8]) {
        let end = addr as u128 + out.len() as u128;
        for &(base, bytes) in segments {
            let lo = addr.max(base);
            let hi = end.min(base as u128 + bytes.len() as u128);
            if (lo as u128) < hi {
                let n = (hi - lo as u128) as usize;
                let (o, s) = ((lo - addr) as usize, (lo - base) as usize);
                out[o..o + n].copy_from_slice(&bytes[s..s + n]);
            }
        }
    }

    /// The writable page holding `addr`: a shared page is copied first,
    /// and a page written for the first time starts from its initial
    /// contents.
    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        match self.pages.entry(addr >> PAGE_SHIFT) {
            Entry::Occupied(e) => Arc::make_mut(e.into_mut()),
            Entry::Vacant(e) => {
                let page = Arc::make_mut(e.insert(Arc::new([0u8; PAGE_SIZE])));
                Memory::read_initial(&self.segments, addr & !PAGE_MASK, page);
                page
            }
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.read_bytes::<1>(addr)[0]
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[inline]
    fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: within one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => out.copy_from_slice(&p[off..off + N]),
                None => Memory::read_initial(&self.segments, addr, &mut out),
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        // Page-sized chunks: one page lookup per 4 KB, not per byte.
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let n = (PAGE_SIZE - off).min(bytes.len());
            self.page_mut(addr)[off..off + n].copy_from_slice(&bytes[..n]);
            addr = addr.wrapping_add(n as u64);
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

    /// Every written page that no clone or earlier snapshot shares,
    /// sorted by page index (`addr >> PAGE_SHIFT`), returned as shared
    /// handles. Between two calls with no other sharer, these are exactly
    /// the pages written since the first call: each call shares what it
    /// returns, and a write to a shared page makes a private copy.
    pub fn share_unshared_pages(&self) -> Vec<(u64, Page)> {
        let mut pages: Vec<(u64, Page)> = self
            .pages
            .iter()
            .filter(|(_, p)| Arc::strong_count(p) == 1)
            .map(|(&i, p)| (i, Arc::clone(p)))
            .collect();
        pages.sort_unstable_by_key(|&(i, _)| i);
        pages
    }

    /// Makes `page` the content of page index `index`, shared with the
    /// caller's handle — how a replay restores a recorded page.
    pub fn set_page(&mut self, index: u64, page: Page) {
        self.pages.insert(index, page);
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

    #[test]
    fn accesses_wrap_at_the_top_of_the_address_space() {
        let mut m = Memory::new();
        assert_eq!(m.read_u64(u64::MAX - 3), 0);
        m.write_u64(u64::MAX - 3, 0x0807_0605_0403_0201);
        assert_eq!(m.read_u8(u64::MAX), 4);
        assert_eq!(m.read_u32(0), 0x0807_0605);
        assert_eq!(m.read_u64(u64::MAX - 3), 0x0807_0605_0403_0201);
        m.write_u64(u64::MAX - 7, u64::MAX);
        assert_eq!(m.read_u64(u64::MAX - 7), u64::MAX);
        assert_eq!(m.read_u32(0), 0x0807_0605);
    }

    #[test]
    fn segments_read_in_place_until_written() {
        let image: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 253) as u8).collect();
        let base = 0x10_0000 - 5;
        let mut m = Memory::with_segments([(base, &image[..])]);
        assert_eq!(m.read_u8(base - 1), 0);
        assert_eq!(m.read_u64(base - 4), u64::from_le_bytes([0, 0, 0, 0, 0, 1, 2, 3]));
        assert_eq!(m.resident_pages(), 0);
        // The first write copies the page's image bytes around it.
        m.write_u8(base + 6, 0xff);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u64(base), u64::from_le_bytes([0, 1, 2, 3, 4, 5, 0xff, 7]));
    }

    #[test]
    fn wrapping_segment_continues_at_zero() {
        let image = [1u8, 2, 3, 4];
        let m = Memory::with_segments([(u64::MAX - 1, &image[..])]);
        let mut r = Memory::new();
        r.write_slice(u64::MAX - 1, &image);
        for addr in [u64::MAX - 1, u64::MAX, 0, 1, 2] {
            assert_eq!(m.read_u8(addr), r.read_u8(addr), "{addr:#x}");
        }
        assert_eq!(m.read_u32(u64::MAX - 1), 0x0403_0201);
    }

    #[test]
    fn clones_and_snapshots_share_pages_until_written() {
        let mut a = Memory::new();
        a.write_u8(0, 1);
        a.write_u8(PAGE_SIZE as u64, 2);
        let first = a.share_unshared_pages();
        assert_eq!(first.iter().map(|p| p.0).collect::<Vec<_>>(), [0, 1]);
        assert!(a.share_unshared_pages().is_empty(), "nothing written since");
        a.write_u8(1, 3);
        let second = a.share_unshared_pages();
        assert_eq!(second.iter().map(|p| p.0).collect::<Vec<_>>(), [0]);
        assert_eq!(first[0].1[1], 0, "a snapshot keeps its own bytes");
        let mut b = a.clone();
        b.write_u8(0, 9);
        assert_eq!((a.read_u8(0), b.read_u8(0)), (1, 9));
        let mut c = Memory::new();
        c.set_page(1, Arc::clone(&first[1].1));
        assert_eq!(c.read_u8(PAGE_SIZE as u64), 2);
    }
}
