//! Differential property test: on-demand slicing against the window.
//!
//! [`SliceWindow::slice_latest`] is the contract [`OnDemandSlicer`] is
//! pinned to: the slice re-executed from checkpoints at any root must
//! equal the one the window returned when that root was its newest
//! instruction. Programs, scopes, checkpoint cadences (above the scope,
//! below it, dividing it or not), slice lengths and request orders all
//! vary; descending and shuffled orders make the slicer re-resolve
//! intervals it resolved for a later root against a lower floor.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use preexec_func::{try_run_trace_checkpointed, Replayer, TraceConfig};
use preexec_isa::{Program, ProgramBuilder, Reg};
use preexec_slice::{OnDemandSlicer, SliceEntry, SliceWindow};
use proptest::prelude::*;

/// A pointer chase with store→load feedback. Each iteration chases one
/// table entry, stores a running value to one of eight scratch slots
/// picked by the chased pointer, reloads the slot picked by a second
/// running value — so a load's producing store lies a data-dependent
/// distance back, often several intervals — and chases a second table
/// entry through the reloaded value. Unaligned word accesses straddle
/// granules.
fn chase_program(seed: u64, table_pow: u32, stride: u64, filler: u8) -> Program {
    let n = 1u64 << table_pow;
    let stride = stride | 1; // odd ⇒ coprime with a power of two
    let table: Vec<u8> = (0..n).flat_map(|i| ((i + stride) % n).to_le_bytes()).collect();
    let base = 0x1000_0000u64;
    let scratch = 0x2000_0000u64;
    let r = Reg::new;
    let (tbase, cur, addr, acc, s, sp, slot, other) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));

    let mut b = ProgramBuilder::new("chase");
    b.li(tbase, base as i64);
    b.li(cur, (seed % n) as i64);
    b.li(s, (seed | 1) as i64);
    b.li(sp, scratch as i64);
    b.label("top");
    b.sll(addr, cur, 3);
    b.add(addr, addr, tbase);
    b.ld(cur, 0, addr);
    b.andi(slot, cur, 7);
    b.sll(slot, slot, 3);
    b.add(slot, slot, sp);
    b.sd(acc, 0, slot);
    for k in 0..(filler % 4) {
        match k {
            0 => b.add(acc, acc, cur),
            1 => b.xor(s, s, acc),
            2 => b.mul(s, s, cur),
            _ => b.srl(acc, s, 7),
        };
    }
    if filler & 4 != 0 {
        b.sw(s, 4, slot);
    }
    b.andi(slot, s, 7);
    b.sll(slot, slot, 3);
    b.add(slot, slot, sp);
    b.ld(acc, 0, slot);
    b.lw(other, 6, slot);
    b.add(s, s, other);
    b.andi(addr, acc, (n - 1) as i64);
    b.sll(addr, addr, 3);
    b.add(addr, addr, tbase);
    b.ld(other, 0, addr);
    b.add(acc, acc, other);
    b.j("top");
    b.data(base, table);
    b.build().expect("chase kernel builds")
}

/// `items` in a seeded pseudo-random order (Fisher–Yates over SplitMix64).
fn shuffled<T>(mut items: Vec<T>, mut seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        items.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every load's slice, requested in ascending, descending or shuffled
    /// order, equals the window's.
    #[test]
    fn ondemand_equals_window(
        seed in any::<u64>(),
        table_pow in 8u32..13,
        stride in 1u64..512,
        filler in any::<u8>(),
        scope_draw in 1usize..4097,
        small_scope in any::<bool>(),
        cadence_draw in any::<u64>(),
        max_len in 1usize..41,
        budget_draw in 600u64..2500,
        order in 0u8..3,
    ) {
        let scope = if small_scope { 1 + scope_draw % 64 } else { scope_draw };
        let every = 1 + cadence_draw % (2 * scope as u64);
        // Every checkpoint clones the whole cache hierarchy, so short
        // cadences get short traces.
        let budget = budget_draw.min(256 * every);
        let p = chase_program(seed, table_pow, stride, filler);
        let config = TraceConfig { max_emitted: Some(budget), ..TraceConfig::default() };

        let mut window = SliceWindow::new(scope);
        let mut want: Vec<(u64, Vec<SliceEntry>)> = Vec::new();
        let (_, trace) = try_run_trace_checkpointed(&p, &config, every, |d| {
            window.push(d);
            if d.inst.op.is_load() {
                want.push((d.seq, window.slice_latest(max_len)));
            }
        })
        .unwrap();
        prop_assert!(!want.is_empty());

        let requests = match order {
            0 => want,
            1 => want.into_iter().rev().collect(),
            _ => shuffled(want, seed),
        };
        let mut slicer =
            OnDemandSlicer::try_new(Replayer::new(&p, &config, &trace), scope, max_len).unwrap();
        for (seq, slice) in &requests {
            prop_assert_eq!(
                &slicer.try_slice_at(*seq).unwrap(),
                slice,
                "root {} (scope {}, every {}, max_len {}, order {})",
                seq,
                scope,
                every,
                max_len,
                order
            );
        }
        prop_assert!(slicer.peak_resident_insts() <= 4 * every);
    }
}
