//! Property tests: the set-associative cache agrees with a naive
//! reference model, memory behaves like a byte array, and a memory over
//! borrowed segments reads like the segments copied in.

use preexec_mem::{Cache, CacheConfig, MemPage, Memory, MEM_PAGE_SHIFT, MEM_PAGE_SIZE};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A naive fully-explicit reference cache: per set, a vector of (tag,
/// dirty) pairs ordered most-recently-used first.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache { cfg, sets: vec![Vec::new(); cfg.num_sets()] }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.cfg.line_bytes as u64;
        (
            (block as usize) & (self.cfg.num_sets() - 1),
            block / self.cfg.num_sets() as u64,
        )
    }

    fn access(&mut self, addr: u64, write: bool) -> bool {
        let (s, t) = self.set_and_tag(addr);
        let set = &mut self.sets[s];
        if let Some(pos) = set.iter().position(|&(tag, _)| tag == t) {
            let (tag, dirty) = set.remove(pos);
            set.insert(0, (tag, dirty || write));
            true
        } else {
            set.insert(0, (t, write));
            set.truncate(self.cfg.assoc);
            false
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (s, t) = self.set_and_tag(addr);
        self.sets[s].iter().any(|&(tag, _)| tag == t)
    }
}

proptest! {
    /// Hit/miss behaviour matches the reference LRU model exactly.
    #[test]
    fn cache_matches_reference(
        accesses in prop::collection::vec((0u64..4096, any::<bool>()), 1..300)
    ) {
        let cfg = CacheConfig::new(512, 32, 2); // 8 sets x 2 ways
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (i, &(addr, write)) in accesses.iter().enumerate() {
            let got = cache.access(addr, write).hit;
            let want = reference.access(addr, write);
            prop_assert_eq!(got, want, "access {} at {:#x}", i, addr);
        }
        // Final contents agree too.
        for addr in (0u64..4096).step_by(32) {
            prop_assert_eq!(cache.probe(addr), reference.probe(addr), "{:#x}", addr);
        }
    }

    /// Hit + miss counters always sum to the access count.
    #[test]
    fn cache_counter_conservation(
        accesses in prop::collection::vec(0u64..2048, 1..200)
    ) {
        let mut cache = Cache::new(CacheConfig::new(256, 32, 2));
        for &a in &accesses {
            let _ = cache.access(a, false);
        }
        prop_assert_eq!(cache.hits() + cache.misses(), accesses.len() as u64);
    }

    /// Memory reads back exactly what was written, at every width.
    #[test]
    fn memory_is_a_byte_array(
        writes in prop::collection::vec((0u64..100_000, any::<u64>(), 0u8..3), 1..100)
    ) {
        let mut mem = Memory::new();
        let mut model: HashMap<u64, u8> = HashMap::new();
        for &(addr, value, width) in &writes {
            match width {
                0 => {
                    mem.write_u8(addr, value as u8);
                    model.insert(addr, value as u8);
                }
                1 => {
                    mem.write_u32(addr, value as u32);
                    for (k, b) in (value as u32).to_le_bytes().iter().enumerate() {
                        model.insert(addr + k as u64, *b);
                    }
                }
                _ => {
                    mem.write_u64(addr, value);
                    for (k, b) in value.to_le_bytes().iter().enumerate() {
                        model.insert(addr + k as u64, *b);
                    }
                }
            }
        }
        for (&addr, &byte) in &model {
            prop_assert_eq!(mem.read_u8(addr), byte, "byte at {:#x}", addr);
        }
    }

    /// A bus transfer never completes before its request, and occupancy
    /// grows monotonically with transfer count.
    #[test]
    fn bus_causality(
        requests in prop::collection::vec((0u64..10_000, 1u64..256), 1..100)
    ) {
        let mut bus = preexec_mem::Bus::new(32, 4);
        for &(now, bytes) in &requests {
            let done = bus.transfer(now, bytes);
            prop_assert!(done > now, "transfer completed at {done} <= request {now}");
        }
        prop_assert_eq!(bus.transfers(), requests.len() as u64);
    }
}

/// Deterministic byte and choice stream for the differential test.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 29)
    }
}

/// Up to three segments at unaligned bases: adjacent to the previous
/// one, a few bytes past it, or on a fresh page; with `wrap`, the last
/// one runs past the top of the address space. Bytes are never zero, so
/// a page seeded with zeros instead of its image shows.
fn segments(layout: &[(u8, u16)], seed: u64, wrap: bool) -> Vec<(u64, Vec<u8>)> {
    let mut mix = Mix(seed);
    let mut base = 0x40_0000 + mix.next() % (3 * MEM_PAGE_SIZE as u64);
    let mut segs = Vec::new();
    for (i, &(kind, len)) in layout.iter().enumerate() {
        let len = len as u64 + 1;
        if i > 0 {
            let end = base + segs.last().map_or(0, |s: &(u64, Vec<u8>)| s.1.len() as u64);
            base = match kind {
                0 => end,
                1 => end + 1 + mix.next() % 64,
                _ => (end | (MEM_PAGE_SIZE as u64 - 1)) + 1 + mix.next() % MEM_PAGE_SIZE as u64,
            };
        }
        if wrap && i + 1 == layout.len() {
            base = 0u64.wrapping_sub(len / 2 + 1);
        }
        let bytes = (0..len).map(|_| (mix.next() as u8) | 1).collect();
        segs.push((base, bytes));
    }
    segs
}

/// An address near a segment edge, a page edge inside a segment, or the
/// top of the address space, or anywhere around the segments.
fn pick_addr(mix: &mut Mix, segs: &[(u64, Vec<u8>)]) -> u64 {
    let (base, bytes) = &segs[(mix.next() % segs.len() as u64) as usize];
    let end = base.wrapping_add(bytes.len() as u64);
    let page_edge = (base | (MEM_PAGE_SIZE as u64 - 1)).wrapping_add(1);
    let anchor = match mix.next() % 5 {
        0 => *base,
        1 => end,
        2 => page_edge,
        3 => 0,
        _ => {
            let span = bytes.len() as u64 + 2 * 4096;
            return base.wrapping_add(mix.next() % span).wrapping_sub(4096);
        }
    };
    anchor.wrapping_add(mix.next() % 19).wrapping_sub(9)
}

/// Who holds each page, for predicting which pages a snapshot returns.
#[derive(Default)]
struct Sharing {
    next_id: u64,
    holders: HashMap<u64, usize>,
}

impl Sharing {
    /// A write by a side whose page `p` is `ids[p]`: a fresh or shared
    /// page gets a new private id.
    fn write(&mut self, ids: &mut HashMap<u64, u64>, page: u64) {
        if let Some(&id) = ids.get(&page) {
            if self.holders[&id] == 1 {
                return;
            }
            self.add(id, -1);
        }
        self.next_id += 1;
        self.holders.insert(self.next_id, 1);
        ids.insert(page, self.next_id);
    }

    /// One more (or one fewer) holder of page `id`.
    fn add(&mut self, id: u64, by: isize) {
        let n = self.holders.entry(id).or_default();
        *n = n.wrapping_add_signed(by);
    }
}

fn page_bytes(mem: &Memory<'_>, page: u64) -> Vec<u8> {
    (0..MEM_PAGE_SIZE as u64).map(|i| mem.read_u8((page << MEM_PAGE_SHIFT) + i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `Memory::with_segments` reads, writes, clones and snapshots exactly
    /// like the copy-in reference, `Memory::new` plus `write_slice` per
    /// segment; a clone sees only its own writes; a snapshot returns
    /// exactly the pages no one else shares, and keeps their bytes.
    #[test]
    fn segment_memory_matches_copy_in(
        layout in prop::collection::vec((0u8..3, 0u16..9000), 1..4),
        seed in any::<u64>(),
        wrap in (0u8..8).prop_map(|w| w == 0),
        ops in prop::collection::vec((0u8..8, any::<u64>()), 1..160),
        clone_at in 0usize..160,
    ) {
        let segs = segments(&layout, seed, wrap);
        let borrowed = segs.iter().map(|(b, v)| (*b, &v[..]));
        let mut sides = [Memory::with_segments(borrowed), Memory::new()];
        let mut refs = [Memory::new(), Memory::new()];
        for (b, v) in &segs {
            refs[0].write_slice(*b, v);
        }
        let mut sharing = Sharing::default();
        let mut ids: [HashMap<u64, u64>; 2] = Default::default();
        let mut held: Vec<(u64, MemPage, Vec<u8>)> = Vec::new();
        let mut cloned = false;
        let mut mix = Mix(seed ^ 0x5555);
        for (i, &(op, value)) in ops.iter().enumerate() {
            if i == clone_at {
                sides[1] = sides[0].clone();
                refs[1] = refs[0].clone();
                ids[1] = ids[0].clone();
                for &id in ids[1].values() {
                    sharing.add(id, 1);
                }
                cloned = true;
            }
            let s = if cloned { (value >> 60) as usize & 1 } else { 0 };
            let addr = pick_addr(&mut mix, &segs);
            let (mem, r) = (&mut sides[s], &mut refs[s]);
            let width = match op {
                0 => {
                    prop_assert_eq!(mem.read_u8(addr), r.read_u8(addr), "u8 {:#x}", addr);
                    0
                }
                1 => {
                    prop_assert_eq!(mem.read_u32(addr), r.read_u32(addr), "u32 {:#x}", addr);
                    0
                }
                2 | 6 => {
                    prop_assert_eq!(mem.read_u64(addr), r.read_u64(addr), "u64 {:#x}", addr);
                    0
                }
                3 => { mem.write_u8(addr, value as u8); r.write_u8(addr, value as u8); 1 }
                4 => { mem.write_u32(addr, value as u32); r.write_u32(addr, value as u32); 4 }
                5 => { mem.write_u64(addr, value); r.write_u64(addr, value); 8 }
                _ => {
                    let got = sides[0].share_unshared_pages();
                    let mut want: Vec<u64> = ids[0]
                        .iter()
                        .filter(|(_, id)| sharing.holders[*id] == 1)
                        .map(|(&p, _)| p)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got.iter().map(|p| p.0).collect::<Vec<_>>(), want);
                    for (page, bytes) in got {
                        sharing.add(ids[0][&page], 1);
                        held.push((page, bytes, page_bytes(&refs[0], page)));
                    }
                    0
                }
            };
            if width > 0 {
                let first = addr >> MEM_PAGE_SHIFT;
                let last = addr.wrapping_add(width - 1) >> MEM_PAGE_SHIFT;
                sharing.write(&mut ids[s], first);
                if last != first {
                    sharing.write(&mut ids[s], last);
                }
            }
        }
        // Every page either side or reference holds reads the same, and
        // every snapshot still holds the bytes it was taken with.
        for s in 0..2 {
            prop_assert_eq!(sides[s].resident_pages(), ids[s].len());
            for &page in ids[s].keys() {
                let (got, want) = (page_bytes(&sides[s], page), page_bytes(&refs[s], page));
                prop_assert!(got == want, "page {:#x}", page);
            }
        }
        for (page, bytes, want) in &held {
            prop_assert!(bytes[..] == want[..], "snapshot of page {:#x} changed", page);
        }
        let mut probe = Memory::new();
        if let Some((page, bytes, want)) = held.first() {
            probe.set_page(*page, Arc::clone(bytes));
            prop_assert!(page_bytes(&probe, *page) == *want);
        }
    }
}
