//! The hash-map [`MshrFile`] and the dividing [`Cache`] that the flat
//! MSHR vector and the shift-and-mask cache replaced, kept as test
//! oracles, and the differential tests pinning old and new together.

use crate::{Cache, CacheConfig, MshrFile};
use proptest::prelude::*;
use std::collections::HashMap;

/// The original MSHR file: a SipHash map from block to completion cycle.
struct ReferenceMshrFile {
    capacity: usize,
    inflight: HashMap<u64, u64>,
    coalesced: u64,
    rejected: u64,
}

impl ReferenceMshrFile {
    fn new(capacity: usize) -> ReferenceMshrFile {
        ReferenceMshrFile { capacity, inflight: HashMap::new(), coalesced: 0, rejected: 0 }
    }

    fn request(&mut self, block_addr: u64, completes_at: u64) -> Option<u64> {
        if let Some(&done) = self.inflight.get(&block_addr) {
            self.coalesced += 1;
            return Some(done);
        }
        if self.inflight.len() >= self.capacity {
            self.rejected += 1;
            return None;
        }
        self.inflight.insert(block_addr, completes_at);
        Some(completes_at)
    }

    fn completion_of(&self, block_addr: u64) -> Option<u64> {
        self.inflight.get(&block_addr).copied()
    }

    fn retire_completed(&mut self, now: u64) {
        self.inflight.retain(|_, &mut done| done > now);
    }

    fn earliest_completion(&self) -> Option<u64> {
        self.inflight.values().copied().min()
    }
}

#[derive(Clone, Copy)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// The original cache: set index and tag by runtime division.
struct ReferenceCache {
    config: CacheConfig,
    sets: Vec<Line>,
    tick: u64,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> ReferenceCache {
        let empty = Line { valid: false, dirty: false, tag: 0, lru: 0 };
        ReferenceCache { config, sets: vec![empty; config.num_sets() * config.assoc], tick: 0 }
    }

    fn set_index(&self, addr: u64) -> usize {
        let block = addr / self.config.line_bytes as u64;
        (block as usize) & (self.config.num_sets() - 1)
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes as u64 / self.config.num_sets() as u64
    }

    /// Returns (hit, writeback address).
    fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let line_bytes = self.config.line_bytes as u64;
        let num_sets = self.config.num_sets() as u64;
        let a = self.config.assoc;
        let ways = &mut self.sets[set * a..(set + 1) * a];
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = tick;
                line.dirty |= is_write;
                return (true, None);
            }
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("assoc >= 1");
        let writeback = if victim.valid && victim.dirty {
            Some((victim.tag * num_sets + set as u64) * line_bytes)
        } else {
            None
        };
        *victim = Line { valid: true, dirty: is_write, tag, lru: tick };
        (false, writeback)
    }

    fn probe(&self, addr: u64) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let a = self.config.assoc;
        self.sets[set * a..(set + 1) * a].iter().any(|l| l.valid && l.tag == tag)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The flat MSHR vector answers every query like the hash map, under
    /// random requests, lookups and retirements — `now` included going
    /// backwards, which the cached earliest completion must survive.
    #[test]
    fn mshr_file_matches_reference(
        capacity in 1usize..9,
        ops in prop::collection::vec((0u8..4, 0u64..12, 0u64..200), 1..200),
    ) {
        let mut new = MshrFile::new(capacity);
        let mut old = ReferenceMshrFile::new(capacity);
        for &(kind, block, t) in &ops {
            let block = block * 64;
            match kind {
                0 => prop_assert_eq!(new.request(block, t), old.request(block, t)),
                1 => {
                    new.retire_completed(t);
                    old.retire_completed(t);
                }
                2 => prop_assert_eq!(new.completion_of(block), old.completion_of(block)),
                _ => prop_assert_eq!(new.contains(block), old.completion_of(block).is_some()),
            }
            prop_assert_eq!(new.occupancy(), old.inflight.len());
            prop_assert_eq!(new.earliest_completion(), old.earliest_completion());
        }
        prop_assert_eq!(new.coalesced(), old.coalesced);
        prop_assert_eq!(new.rejected(), old.rejected);
    }

    /// The shift-and-mask cache classifies every access like the dividing
    /// one and evicts the same victim with the same writeback address,
    /// over geometries from one set to direct-mapped.
    #[test]
    fn cache_matches_reference(
        geometry in prop::sample::select(vec![
            (64usize, 64usize, 1usize), // one set, direct-mapped
            (256, 64, 4),               // one set, 4-way
            (256, 32, 1),               // direct-mapped, 8 sets
            (256, 64, 2),
            (1024, 32, 2),
            (16 * 1024, 32, 2),         // the paper's L1D
            (256 * 1024, 64, 4),        // the paper's L2
        ]),
        accesses in prop::collection::vec((0u64..4096, any::<bool>(), 0u8..4), 1..300),
    ) {
        let (size, line, assoc) = geometry;
        let config = CacheConfig::new(size, line, assoc);
        let mut new = Cache::new(config);
        let mut old = ReferenceCache::new(config);
        for &(offset, is_write, region) in &accesses {
            // Four regions far apart so tags differ in their high bits.
            let addr = ((region as u64) << 40) | (offset * 8);
            let got = new.access(addr, is_write);
            let (hit, writeback) = old.access(addr, is_write);
            prop_assert_eq!((got.hit, got.writeback), (hit, writeback));
            prop_assert_eq!(new.probe(addr ^ 0x40), old.probe(addr ^ 0x40));
        }
    }
}
