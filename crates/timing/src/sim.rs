//! The cycle-driven simulation loop.

use crate::{BranchPredictor, MachineParams, MemSys, SimError};
use crate::memsys::MemStats;
use preexec_core::StaticPThread;
use preexec_func::exec;
use preexec_func::{initial_memory, Cpu, SquashReason, PTHREAD_ADDR_LIMIT};
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Op, OpClass, Pc, Program};
use preexec_mem::Memory;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// What the p-threads are allowed to do — the paper's validation modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Full pre-execution: p-threads cost bandwidth and prefetch.
    #[default]
    Normal,
    /// Overhead-only, `execute` variant: p-threads execute as usual but
    /// their loads do not touch the data caches (no pre-execution effect).
    OverheadExecute,
    /// Overhead-only, `sequence` variant: p-thread instructions consume
    /// sequencing cycles and are immediately discarded.
    OverheadSequence,
    /// Latency-tolerance-only: p-threads are not charged for bandwidth.
    LatencyToleranceOnly,
}

/// Configuration of one timing run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// The machine.
    pub machine: MachineParams,
    /// P-thread mode (ignored when no p-threads are supplied).
    pub mode: SimMode,
    /// Model a perfect L2 for the main thread (Table 1).
    pub perfect_l2: bool,
    /// Stop after this many retired main-thread instructions.
    pub max_insts: u64,
    /// Hard cycle cap (watchdog): a run that hits it ends normally with
    /// [`SimResult::timed_out`] set.
    pub max_cycles: u64,
    /// Per-launch p-thread step watchdog: a context that injects this many
    /// instructions without finishing its body is squashed with
    /// [`SquashReason::BudgetExhausted`].
    pub pthread_step_budget: usize,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            machine: MachineParams::paper_default(),
            mode: SimMode::Normal,
            perfect_l2: false,
            max_insts: u64::MAX,
            max_cycles: 4_000_000_000,
            pthread_step_budget: 4096,
        }
    }
}

/// The outcome of a timing run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Main-thread instructions retired.
    pub insts: u64,
    /// Dynamic p-thread launches that got a context.
    pub launches: u64,
    /// Launch requests dropped because no context was free.
    pub drops: u64,
    /// P-thread instructions injected.
    pub pthread_insts: u64,
    /// Conditional-branch lookups.
    pub branches: u64,
    /// Branch mispredictions (direction or target).
    pub mispredicts: u64,
    /// P-thread contexts squashed on a speculative fault or watchdog
    /// (their prior prefetches remain — squash is recovery, not rollback).
    pub squashes: u64,
    /// Squash breakdown by reason.
    pub squash_reasons: BTreeMap<SquashReason, u64>,
    /// Whether the run hit the `max_cycles` watchdog before the program
    /// drained.
    pub timed_out: bool,
    /// Memory-system statistics.
    pub mem: MemStats,
}

impl SimResult {
    /// Main-thread instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Average dynamic p-thread length (injected instructions per launch).
    pub fn avg_pthread_len(&self) -> f64 {
        if self.launches == 0 {
            0.0
        } else {
            self.pthread_insts as f64 / self.launches as f64
        }
    }

    /// Instruction overhead: p-thread instructions per main-thread
    /// instruction (the figures' "instruction overhead" tick).
    pub fn overhead(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.pthread_insts as f64 / self.insts as f64
        }
    }

    /// Misses covered (fully + partially) by p-threads.
    pub fn covered(&self) -> u64 {
        self.mem.covered_full + self.mem.covered_partial
    }

    /// The program's total would-be L2 misses in this run: uncovered
    /// misses plus covered ones.
    pub fn total_would_be_misses(&self) -> u64 {
        self.mem.l2_misses + self.covered()
    }

    /// Squashes attributed to `reason`.
    pub fn squash_count(&self, reason: SquashReason) -> u64 {
        self.squash_reasons.get(&reason).copied().unwrap_or(0)
    }
}

/// One live p-thread context.
struct Ctx<'p> {
    body: &'p [Inst],
    next: usize,
    regs: [i64; NUM_REGS],
    ready: [u64; NUM_REGS],
    burst_left: u32,
    next_burst: u64,
    store_buffer: HashMap<u64, (i64, u8)>,
}

/// Cycles from `base` onward that a `CycleCounts` keeps densely. A
/// booking further out waits in a sparse map until the simulation comes
/// within range, so memory follows the number of bookings, not their
/// distance (a load's completion may lie `mem_latency` cycles ahead).
const HORIZON: u64 = 4096;

/// Event counts per cycle from `base` onward, plus their running total:
/// a wheel that answers "how many events are still ahead?" in O(1) and
/// drops a cycle's events when the simulation passes it (DESIGN.md §7.5).
#[derive(Debug, Default)]
struct CycleCounts {
    /// The cycle `near[0]` counts.
    base: u64,
    /// Counts of the cycles `base..base + HORIZON`, as far as booked.
    near: VecDeque<u32>,
    /// Counts of the cycles at `base + HORIZON` or later.
    far: BTreeMap<u64, u32>,
    total: usize,
}

impl CycleCounts {
    /// Forgets every cycle before `cycle`.
    #[inline]
    fn advance(&mut self, cycle: u64) {
        if cycle <= self.base {
            return;
        }
        let n = (cycle - self.base).min(self.near.len() as u64) as usize;
        for c in self.near.drain(..n) {
            self.total -= c as usize;
        }
        self.base = cycle;
        // Fold the far cycles that came within range into the dense part
        // (or drop them, if a jump passed them).
        while let Some(entry) = self.far.first_entry() {
            let c = *entry.key();
            if c.saturating_sub(self.base) >= HORIZON {
                break;
            }
            let n = entry.remove();
            if c < self.base {
                self.total -= n as usize;
            } else {
                *self.slot(c) += n;
            }
        }
    }

    #[inline]
    fn slot(&mut self, cycle: u64) -> &mut u32 {
        let i = cycle - self.base;
        if i >= HORIZON {
            return self.far.entry(cycle).or_insert(0);
        }
        let i = i as usize;
        if i >= self.near.len() {
            self.near.resize(i + 1, 0);
        }
        &mut self.near[i]
    }

    /// Counts one event at `cycle`; an event at or before the current
    /// cycle counts until the next one.
    #[inline]
    fn add(&mut self, cycle: u64) {
        *self.slot(cycle.max(self.base)) += 1;
        self.total += 1;
    }

    /// Counts one event at the first cycle at or after `earliest` with
    /// fewer than `limit` events, and returns that cycle.
    #[inline]
    fn book_below(&mut self, earliest: u64, limit: u32) -> u64 {
        debug_assert!(earliest >= self.base, "booking behind the current cycle");
        let mut c = earliest.max(self.base);
        while *self.slot(c) >= limit {
            c += 1;
        }
        *self.slot(c) += 1;
        self.total += 1;
        c
    }

    /// Events counted from the current cycle onward.
    #[inline]
    fn total(&self) -> usize {
        self.total
    }
}

/// P-thread indices by trigger PC, in `pthreads` order.
struct Triggers {
    by_pc: Vec<Vec<usize>>,
    /// Triggers at or past the end of the program. Running off the end
    /// renames an implicit `halt` at that PC, so they can fire once.
    beyond: Vec<(Pc, usize)>,
}

impl Triggers {
    fn new(program: &Program, pthreads: &[StaticPThread]) -> Triggers {
        let mut by_pc = vec![Vec::new(); program.len()];
        let mut beyond = Vec::new();
        for (i, p) in pthreads.iter().enumerate() {
            match by_pc.get_mut(p.trigger as usize) {
                Some(list) => list.push(i),
                None => beyond.push((p.trigger, i)),
            }
        }
        Triggers { by_pc, beyond }
    }

    /// The p-threads `pc` triggers.
    #[inline]
    fn at(&self, pc: Pc) -> impl Iterator<Item = usize> + '_ {
        let listed = self.by_pc.get(pc as usize).map_or(&[][..], Vec::as_slice);
        let beyond = self.beyond.iter().filter(move |&&(t, _)| t == pc).map(|&(_, i)| i);
        listed.iter().copied().chain(beyond)
    }
}

/// Issue-bandwidth ledger: at most `width` instructions may begin
/// execution in any cycle, shared by all threads.
///
/// Every booking also occupies a reservation station until its issue
/// cycle, so the bookings still ahead of the current cycle are the
/// reservation-station occupancy.
struct IssueSlots {
    booked: CycleCounts,
    width: u32,
}

impl IssueSlots {
    fn new(width: u32) -> IssueSlots {
        IssueSlots { booked: CycleCounts::default(), width }
    }

    /// First cycle at or after `earliest` with a free issue slot; books it.
    #[inline]
    fn schedule(&mut self, earliest: u64) -> u64 {
        self.booked.book_below(earliest, self.width)
    }

    /// Frees the reservation stations of everything issued by `cycle`.
    #[inline]
    fn issue_through(&mut self, cycle: u64) {
        self.booked.advance(cycle + 1);
    }

    /// Occupied reservation stations.
    #[inline]
    fn rs_occupancy(&self) -> usize {
        self.booked.total()
    }
}

/// Store-to-load forwarding: the youngest older store fully containing the
/// load's bytes supplies the data.
fn store_forward(queue: &VecDeque<(u64, u8, u64)>, addr: u64, width: u8) -> Option<u64> {
    queue
        .iter()
        .rev()
        .find(|&&(sa, sw, _)| sa <= addr && addr + width as u64 <= sa + sw as u64)
        .map(|&(_, _, done)| done)
}

/// Runs `program` on the timing model, pre-executing `pthreads`.
///
/// Returns cycle counts, retirement statistics, p-thread launch/injection
/// statistics, branch statistics and the memory system's coverage
/// accounting. Pass an empty `pthreads` slice for an unassisted (base)
/// run.
///
/// # Panics
///
/// Panics on an invalid machine configuration or a malformed main-thread
/// instruction — use [`try_simulate`] to get those as typed errors.
/// P-thread faults never panic in either form: they squash the context
/// and are counted in [`SimResult::squashes`].
pub fn simulate(program: &Program, pthreads: &[StaticPThread], config: &SimConfig) -> SimResult {
    match try_simulate(program, pthreads, config) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`simulate`].
///
/// # Errors
///
/// Returns [`SimError::Machine`] for an invalid configuration and
/// [`SimError::Exec`] if the *main thread* executes a malformed
/// instruction (p-thread faults squash instead; see [`SimResult`]).
pub fn try_simulate(
    program: &Program,
    pthreads: &[StaticPThread],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    config.machine.try_validate()?;
    let m = &config.machine;
    let mut cpu = Cpu::new(program);
    let mut mem = initial_memory(program);
    let mut memsys = MemSys::new(*m);
    memsys.set_perfect_l2(config.perfect_l2);
    let mut bp = BranchPredictor::new();
    let mut slots = IssueSlots::new(m.width);

    let triggers = Triggers::new(program, pthreads);

    let mut rob: VecDeque<u64> = VecDeque::with_capacity(m.rob_entries);
    let mut reg_ready = [0u64; NUM_REGS];
    let mut store_queue: VecDeque<(u64, u8, u64)> = VecDeque::new();
    let mut contexts: Vec<Option<Ctx<'_>>> = (0..m.pthread_contexts).map(|_| None).collect();
    // P-thread physical registers held, by the cycle their value is ready.
    let mut pthread_regs = CycleCounts::default();

    let mut r = SimResult::default();
    let mut cycle: u64 = 0;
    let mut rename_stall_until: u64 = 0;

    loop {
        // 1. Retire main-thread instructions in order.
        let mut retired_now = 0;
        while retired_now < m.width {
            match rob.front() {
                Some(&done) if done <= cycle => {
                    rob.pop_front();
                    r.insts += 1;
                    retired_now += 1;
                }
                _ => break,
            }
        }

        // 2. Free reservation stations whose instructions have issued, and
        // p-thread registers whose values are ready.
        slots.issue_through(cycle);
        pthread_regs.advance(cycle + 1);

        let mut bandwidth = m.width;

        // 3. P-thread injection: bursts of `pthread_burst` per context.
        // Injection is sandboxed: a speculative fault (invalid opcode,
        // malformed operands, wild address) or an exhausted step budget
        // squashes the context — counted, never propagated.
        for slot in contexts.iter_mut() {
            let free_bandwidth = config.mode == SimMode::LatencyToleranceOnly;
            let Some(ctx) = slot else { continue };
            if cycle >= ctx.next_burst && ctx.burst_left == 0 {
                ctx.burst_left = m.pthread_burst;
                ctx.next_burst = cycle + m.pthread_burst as u64;
            }
            let mut squashed: Option<SquashReason> = None;
            while ctx.burst_left > 0 && ctx.next < ctx.body.len() {
                if !free_bandwidth && bandwidth == 0 {
                    break;
                }
                if config.mode != SimMode::OverheadSequence {
                    if slots.rs_occupancy() >= m.rs_entries {
                        break;
                    }
                    if pthread_regs.total() >= m.pthread_phys_regs {
                        break;
                    }
                }
                if ctx.next >= config.pthread_step_budget {
                    squashed = Some(SquashReason::BudgetExhausted);
                    break;
                }
                let inst = ctx.body[ctx.next];
                let outcome = inject_pthread_inst(
                    ctx, inst, cycle, config.mode, m, &mut memsys, &mem, &mut slots,
                    &mut pthread_regs,
                );
                // The faulting instruction still consumed sequencing
                // bandwidth — it was fetched and renamed before the fault.
                r.pthread_insts += 1;
                ctx.next += 1;
                ctx.burst_left -= 1;
                if !free_bandwidth {
                    bandwidth -= 1;
                }
                if let Err(reason) = outcome {
                    squashed = Some(reason);
                    break;
                }
            }
            if let Some(reason) = squashed {
                r.squashes += 1;
                *r.squash_reasons.entry(reason).or_insert(0) += 1;
                *slot = None;
            } else if ctx.next >= ctx.body.len() {
                // All instructions renamed: the context frees (paper §4.1).
                *slot = None;
            }
        }

        // 4. Main-thread rename/dispatch.
        while bandwidth > 0 && !cpu.halted() && cycle >= rename_stall_until {
            if rob.len() >= m.rob_entries || slots.rs_occupancy() >= m.rs_entries {
                break;
            }
            // Structural store-queue check before committing to the step.
            let next_is_store = program
                .get(cpu.pc())
                .is_some_and(|i| i.op.is_store());
            if next_is_store && store_queue.len() >= m.store_queue_entries {
                match store_queue.front() {
                    Some(&(_, _, done)) if done <= cycle => {
                        store_queue.pop_front();
                    }
                    _ => break,
                }
            }

            let out = cpu.try_step(program, &mut mem)?;
            let inst = out.inst;
            let ready = inst
                .uses()
                .map(|reg| reg_ready[reg.index()])
                .fold(0u64, u64::max);
            let earliest = ready.max(cycle + 1);
            let mut mispredicted = false;

            let completion = match inst.class() {
                OpClass::IntAlu | OpClass::IntMul => {
                    slots.schedule(earliest) + inst.op.exec_latency() as u64
                }
                OpClass::Load => {
                    let t = slots.schedule(earliest) + m.agen_latency;
                    let addr = out.addr.expect("load has address");
                    let width = inst.op.mem_width().expect("load width");
                    if let Some(fwd) = store_forward(&store_queue, addr, width) {
                        fwd.max(t + m.store_forward_latency)
                    } else {
                        memsys.main_load(t, addr)
                    }
                }
                OpClass::Store => {
                    let t = slots.schedule(earliest) + m.agen_latency;
                    let addr = out.addr.expect("store has address");
                    let width = inst.op.mem_width().expect("store width");
                    let done = memsys.main_store(t, addr);
                    store_queue.push_back((addr, width, done));
                    if store_queue.len() > m.store_queue_entries {
                        store_queue.pop_front();
                    }
                    done
                }
                OpClass::Branch => {
                    let done = slots.schedule(earliest) + 1;
                    r.branches += 1;
                    let correct = bp.predict_and_update(out.pc, out.taken, inst.target);
                    if !correct {
                        r.mispredicts += 1;
                        mispredicted = true;
                        rename_stall_until = done + m.mispredict_penalty();
                    }
                    done
                }
                OpClass::Jump => {
                    let done = slots.schedule(earliest) + 1;
                    if inst.op == Op::Jr {
                        let correct = bp.predict_indirect(out.pc, cpu.pc());
                        if !correct {
                            r.mispredicts += 1;
                            mispredicted = true;
                            rename_stall_until = done + m.mispredict_penalty();
                        }
                    }
                    done
                }
                OpClass::Other => cycle + 1,
            };

            rob.push_back(completion);
            if let Some(def) = inst.def() {
                reg_ready[def.index()] = completion;
            }
            bandwidth -= 1;

            // P-thread launch at trigger rename.
            for pi in triggers.at(out.pc) {
                match contexts.iter_mut().find(|c| c.is_none()) {
                    Some(free) => {
                        r.launches += 1;
                        // Seed values are read through the rename map:
                        // a live-in becomes usable when its main-thread
                        // producer completes, not at launch.
                        let mut ready = reg_ready;
                        for t in ready.iter_mut() {
                            *t = (*t).max(cycle);
                        }
                        *free = Some(Ctx {
                            body: &pthreads[pi].body,
                            next: 0,
                            regs: cpu.snapshot_regs(),
                            ready,
                            burst_left: 0,
                            next_burst: cycle,
                            store_buffer: HashMap::new(),
                        });
                    }
                    None => r.drops += 1,
                }
            }
            if mispredicted || out.halted {
                break;
            }
        }

        cycle += 1;
        let drained = cpu.halted() && rob.is_empty();
        if cycle >= config.max_cycles && !drained {
            // Watchdog: the run did not drain within its cycle budget.
            r.timed_out = true;
            break;
        }
        if drained || r.insts >= config.max_insts {
            break;
        }

        // Idle-cycle skip. With no p-thread context live and rename
        // blocked by halt, a full ROB or a redirect stall, no cycle before
        // the ROB head completes or the stall ends can retire, inject or
        // rename anything, so jump straight to the first one that can
        // (DESIGN.md §7.5).
        if contexts.iter().all(Option::is_none)
            && (cpu.halted() || rob.len() >= m.rob_entries || cycle < rename_stall_until)
        {
            let mut wake = rob.front().copied().unwrap_or(u64::MAX);
            if rename_stall_until > cycle {
                wake = wake.min(rename_stall_until);
            }
            if wake >= config.max_cycles {
                // Stepping would have reached the watchdog first.
                cycle = config.max_cycles;
                r.timed_out = true;
                break;
            }
            cycle = cycle.max(wake);
        }
    }

    r.cycles = cycle;
    r.mem = *memsys.stats();
    Ok(r)
}

/// Injects one p-thread instruction: functional execution on the context's
/// private registers (with a private store buffer), then timing.
///
/// Speculative faults are returned as the [`SquashReason`] that should
/// kill the context. The faulting instruction has already consumed its
/// sequencing slot by the time the fault is detected, mirroring a real
/// pipeline where squash happens at execute.
#[allow(clippy::too_many_arguments)]
fn inject_pthread_inst(
    ctx: &mut Ctx<'_>,
    inst: Inst,
    cycle: u64,
    mode: SimMode,
    m: &MachineParams,
    memsys: &mut MemSys,
    mem: &Memory,
    slots: &mut IssueSlots,
    pthread_regs: &mut CycleCounts,
) -> Result<(), SquashReason> {
    if mode == SimMode::OverheadSequence {
        return Ok(()); // sequenced and discarded
    }
    let ready = inst
        .uses()
        .map(|reg| ctx.ready[reg.index()])
        .fold(cycle, u64::max);
    let issue = slots.schedule(ready.max(cycle + 1));

    let a = inst.rs1.map_or(0, |r| ctx.regs[r.index()]);
    let b = inst.rs2.map_or(0, |r| ctx.regs[r.index()]);
    let mut completion = issue + inst.op.exec_latency() as u64;
    let mut result = 0i64;
    let mut writes_def = true;

    match inst.class() {
        OpClass::IntAlu | OpClass::IntMul => {
            result = exec::try_alu(inst.op, a, b, inst.imm)
                .map_err(|_| SquashReason::InvalidOpcode)?;
        }
        OpClass::Load => {
            let addr = exec::effective_address(a, inst.imm);
            if addr >= PTHREAD_ADDR_LIMIT {
                // A poisoned pointer chase: squash instead of prefetching
                // from a wild address (see `preexec_func::pthread`).
                return Err(SquashReason::BadAddress);
            }
            let width = inst.op.mem_width().ok_or(SquashReason::Malformed)?;
            let t = issue + m.agen_latency;
            // Forward from the p-thread's own speculative stores.
            if let Some(&(v, w)) = ctx.store_buffer.get(&addr) {
                if w == width {
                    result = v;
                    completion = t + m.store_forward_latency;
                } else {
                    result = read_mem(mem, inst.op, addr).ok_or(SquashReason::Malformed)?;
                    completion = pthread_mem_access(mode, memsys, t, addr);
                }
            } else {
                result = read_mem(mem, inst.op, addr).ok_or(SquashReason::Malformed)?;
                completion = pthread_mem_access(mode, memsys, t, addr);
            }
        }
        OpClass::Store => {
            // Speculative: buffered locally, never written to memory.
            let addr = exec::effective_address(a, inst.imm);
            let width = inst.op.mem_width().ok_or(SquashReason::Malformed)?;
            ctx.store_buffer.insert(addr, (b, width));
            completion = issue + m.agen_latency + 1;
            writes_def = false;
        }
        // Bodies are control-less; anything else is inert (including
        // jal's link write — the sandbox must not disturb seeded state).
        OpClass::Branch | OpClass::Jump | OpClass::Other => writes_def = false,
    }

    if writes_def {
        if let Some(def) = inst.def() {
            ctx.regs[def.index()] = result;
            ctx.ready[def.index()] = completion;
            pthread_regs.add(completion);
        }
    }
    Ok(())
}

pub(crate) fn pthread_mem_access(mode: SimMode, memsys: &mut MemSys, t: u64, addr: u64) -> u64 {
    match mode {
        SimMode::OverheadExecute => memsys.pthread_load_inert(t),
        _ => memsys.pthread_load(t, addr),
    }
}

pub(crate) fn read_mem(mem: &Memory, op: Op, addr: u64) -> Option<i64> {
    Some(match op {
        Op::Lb => mem.read_u8(addr) as i8 as i64,
        Op::Lbu => mem.read_u8(addr) as i64,
        Op::Lw => mem.read_u32(addr) as i32 as i64,
        Op::Ld => mem.read_u64(addr) as i64,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_core::Advantage;
    use preexec_isa::{assemble, Reg};

    fn run(src: &str) -> SimResult {
        let p = assemble("t", src).unwrap();
        simulate(&p, &[], &SimConfig::default())
    }

    /// A loop streaming over memory at 64 B (one L2 line per iteration),
    /// with a dependent ALU chain per iteration so the memory bus has
    /// headroom (otherwise the stream saturates the bus and prefetching
    /// cannot help — the paper's bus-contention effect).
    const STREAM: &str = "
        li r1, 0x100000
        li r2, 0
        li r3, 2048
    top:
        bge r2, r3, done
        ld  r4, 0(r1)
        add r9, r9, r4
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r9, r9, 1
        addi r1, r1, 64
        addi r2, r2, 1
        j top
    done:
        halt";

    /// The natural p-thread for STREAM: triggered by the induction addi,
    /// runs several iterations ahead.
    fn stream_pthread(unroll: usize) -> StaticPThread {
        let mut body = Vec::new();
        for _ in 0..unroll {
            body.push(Inst::itype(Op::Addi, Reg::new(1), Reg::new(1), 64));
        }
        body.push(Inst::load(Op::Ld, Reg::new(4), Reg::new(1), 0));
        StaticPThread {
            trigger: 5,
            targets: vec![4],
            body,
            dc_trig: 2048,
            dc_ptcm: 2048,
            advantage: Advantage {
                scdh_pt: 0.0,
                scdh_mt: 0.0,
                lt: 70.0,
                oh: 0.0,
                lt_agg: 0.0,
                oh_agg: 0.0,
                adv_agg: 1.0,
                full_coverage: true,
            },
        }
    }

    #[test]
    fn alu_loop_ipc_reasonable() {
        let r = run("li r1, 10000\nli r2, 0\ntop: addi r2, r2, 1\nblt r2, r1, top\nhalt");
        let ipc = r.ipc();
        // A 2-instruction dependent loop on an 8-wide machine: limited by
        // the addi chain (1/cycle) -> about 2 IPC, minus predictor warmup.
        assert!(ipc > 1.0 && ipc < 4.0, "ipc {ipc}");
    }

    /// A pointer chase through a random permutation — the paper's
    /// archetypal problem load: addresses are serialized (no MLP) and
    /// defeat address prediction. Each iteration also does a dependent
    /// ALU chain, which is the main-thread work a p-thread gets to skip.
    fn chase_program(hops: i64) -> preexec_isa::Program {
        use preexec_isa::ProgramBuilder;
        const ENTRIES: usize = 1 << 16; // 512 KB table, 2x the L2
        const BASE: u64 = 0x100000;
        // Single-cycle random permutation via an LCG-driven Sattolo shuffle.
        let mut perm: Vec<u64> = (0..ENTRIES as u64).collect();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for i in (1..ENTRIES).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % i;
            perm.swap(i, j);
        }
        let mut bytes = vec![0u8; ENTRIES * 8];
        for (i, &next) in perm.iter().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&next.to_le_bytes());
        }
        let mut b = ProgramBuilder::new("chase");
        let (tbl, i, n, cur, tmp, acc) =
            (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5), Reg::new(9));
        b.li(tbl, BASE as i64);
        b.li(i, 0);
        b.li(n, hops);
        b.li(cur, 0);
        b.label("top");
        b.bge(i, n, "done");
        b.sll(tmp, cur, 3);
        b.add(tmp, tmp, tbl);
        b.ld(cur, 0, tmp); // cur = perm[cur]: the problem load
        b.add(acc, acc, cur);
        for _ in 0..8 {
            b.addi(acc, acc, 1); // dependent main-thread work
        }
        b.addi(i, i, 1);
        b.j("top");
        b.label("done");
        b.halt();
        b.data(BASE, bytes);
        b.build().unwrap()
    }

    /// The natural chase p-thread: triggered at the problem load, its body
    /// chases `k` nodes ahead, skipping the main thread's ALU work.
    fn chase_pthread(k: usize) -> StaticPThread {
        let (tbl, cur, tmp) = (Reg::new(1), Reg::new(4), Reg::new(5));
        let mut body = Vec::new();
        for _ in 0..k {
            body.push(Inst::itype(Op::Sll, tmp, cur, 3));
            body.push(Inst::rtype(Op::Add, tmp, tmp, tbl));
            body.push(Inst::load(Op::Ld, cur, tmp, 0));
        }
        StaticPThread {
            trigger: 7, // the chase load's PC in chase_program
            targets: vec![7],
            body,
            dc_trig: 0,
            dc_ptcm: 0,
            advantage: Advantage {
                scdh_pt: 0.0,
                scdh_mt: 0.0,
                lt: 70.0,
                oh: 0.0,
                lt_agg: 0.0,
                oh_agg: 0.0,
                adv_agg: 1.0,
                full_coverage: true,
            },
        }
    }

    #[test]
    fn pointer_chase_is_memory_bound() {
        let p = chase_program(1500);
        let r = simulate(&p, &[], &SimConfig::default());
        assert!(r.ipc() < 0.5, "serialized misses must hurt: {}", r.ipc());
        assert!(r.mem.l2_misses > 1200, "misses {}", r.mem.l2_misses);
    }

    #[test]
    fn perfect_l2_is_faster() {
        let p = chase_program(1500);
        let base = simulate(&p, &[], &SimConfig::default());
        let perfect = simulate(
            &p,
            &[],
            &SimConfig { perfect_l2: true, ..SimConfig::default() },
        );
        assert!(
            perfect.ipc() > 2.0 * base.ipc(),
            "{} vs {}",
            perfect.ipc(),
            base.ipc()
        );
        assert_eq!(perfect.mem.l2_misses, 0);
    }

    #[test]
    fn pthreads_cover_misses_and_speed_up() {
        let p = chase_program(1500);
        let base = simulate(&p, &[], &SimConfig::default());
        let assisted = simulate(&p, &[chase_pthread(4)], &SimConfig::default());
        assert!(assisted.launches > 1000, "launches {}", assisted.launches);
        assert!(
            assisted.covered() > base.mem.l2_misses / 4,
            "covered {} of {}",
            assisted.covered(),
            base.mem.l2_misses
        );
        assert!(
            assisted.ipc() > 1.1 * base.ipc(),
            "pre-execution should help: {} vs {}",
            assisted.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn deeper_chasing_gives_more_coverage() {
        let p = chase_program(1500);
        let shallow = simulate(&p, &[chase_pthread(1)], &SimConfig::default());
        let deep = simulate(&p, &[chase_pthread(4)], &SimConfig::default());
        assert!(
            deep.mem.covered_full >= shallow.mem.covered_full,
            "deeper lookahead must not fully-cover fewer: {} vs {}",
            deep.mem.covered_full,
            shallow.mem.covered_full
        );
    }

    #[test]
    fn overhead_modes_do_not_prefetch() {
        let p = assemble("t", STREAM).unwrap();
        let pt = stream_pthread(4);
        for mode in [SimMode::OverheadExecute, SimMode::OverheadSequence] {
            let cfg = SimConfig { mode, ..SimConfig::default() };
            let r = simulate(&p, std::slice::from_ref(&pt), &cfg);
            assert_eq!(r.covered(), 0, "{mode:?} must not prefetch");
        }
    }

    #[test]
    fn overhead_modes_slow_down_or_match_base() {
        let p = assemble("t", STREAM).unwrap();
        let base = simulate(&p, &[], &SimConfig::default());
        let pt = stream_pthread(4);
        let oh = simulate(
            &p,
            &[pt],
            &SimConfig { mode: SimMode::OverheadExecute, ..SimConfig::default() },
        );
        assert!(oh.ipc() <= base.ipc() * 1.02, "{} vs {}", oh.ipc(), base.ipc());
    }

    #[test]
    fn lt_only_at_least_as_fast_as_normal() {
        let p = assemble("t", STREAM).unwrap();
        let pt = stream_pthread(4);
        let normal = simulate(&p, std::slice::from_ref(&pt), &SimConfig::default());
        let lt = simulate(
            &p,
            &[pt],
            &SimConfig { mode: SimMode::LatencyToleranceOnly, ..SimConfig::default() },
        );
        assert!(lt.ipc() >= normal.ipc() * 0.98, "{} vs {}", lt.ipc(), normal.ipc());
    }

    #[test]
    fn context_drops_counted() {
        // A trigger with three p-threads launched every iteration on a
        // 3-context machine: some launch requests must drop.
        let p = assemble("t", STREAM).unwrap();
        let pts: Vec<StaticPThread> = (0..4).map(|_| stream_pthread(8)).collect();
        let r = simulate(&p, &pts, &SimConfig::default());
        assert!(r.drops > 0);
    }

    #[test]
    fn result_accessors() {
        let r = run("li r1, 1\nhalt");
        assert_eq!(r.insts, 2);
        assert!(r.cycles > 0);
        assert_eq!(r.launches, 0);
        assert_eq!(r.avg_pthread_len(), 0.0);
        assert_eq!(r.overhead(), 0.0);
    }

    #[test]
    fn max_insts_respected() {
        let p = assemble("t", STREAM).unwrap();
        let r = simulate(&p, &[], &SimConfig { max_insts: 500, ..SimConfig::default() });
        assert!(r.insts >= 500 && r.insts < 600);
    }

    #[test]
    fn store_forwarding_is_fast() {
        let r = run(
            "li r1, 0x100000\n li r2, 42\n sd r2, 0(r1)\n ld r3, 0(r1)\n halt",
        );
        // The load forwards from the store queue: total run far below a
        // double memory-latency round trip.
        assert!(r.cycles < 100, "cycles {}", r.cycles);
    }

    /// A p-thread whose body chases a register seeded with a wild value.
    fn poisoned_pthread() -> StaticPThread {
        let mut pt = stream_pthread(1);
        // li of a huge address, then a load through it: past the 48-bit
        // speculative address space, this must squash, not prefetch.
        pt.body = vec![
            Inst::li(Reg::new(20), -1),
            Inst::load(Op::Ld, Reg::new(21), Reg::new(20), 0),
        ];
        pt
    }

    #[test]
    fn poisoned_pthread_squashes_and_is_counted() {
        let p = assemble("t", STREAM).unwrap();
        let r = simulate(&p, &[poisoned_pthread()], &SimConfig::default());
        assert!(r.squashes > 0, "wild addresses must squash");
        assert_eq!(r.squashes, r.squash_count(SquashReason::BadAddress));
        // The main thread is unaffected: the program still drains.
        assert!(!r.timed_out);
        assert!(r.insts > 0);
    }

    #[test]
    fn pthread_step_budget_squashes_long_bodies() {
        let p = assemble("t", STREAM).unwrap();
        let pt = stream_pthread(16); // 17-instruction body
        let cfg = SimConfig { pthread_step_budget: 4, ..SimConfig::default() };
        let r = simulate(&p, &[pt], &cfg);
        assert!(r.squash_count(SquashReason::BudgetExhausted) > 0);
        // No context ever injects past its budget.
        assert!(r.avg_pthread_len() <= 4.0, "{}", r.avg_pthread_len());
    }

    #[test]
    fn cycle_watchdog_flags_timeout() {
        let p = assemble("t", STREAM).unwrap();
        let r = simulate(&p, &[], &SimConfig { max_cycles: 200, ..SimConfig::default() });
        assert!(r.timed_out);
        assert_eq!(r.cycles, 200);
        // A drained run is not a timeout.
        let ok = simulate(&p, &[], &SimConfig::default());
        assert!(!ok.timed_out);
    }

    /// Bookings past the dense horizon wait in the sparse map, fold into
    /// the dense part as the wheel comes within range, and drop if a jump
    /// passes them; the total stays exact throughout.
    #[test]
    fn cycle_counts_keep_far_bookings_sparse() {
        let far = 1_000_000_000_000;
        let mut w = CycleCounts::default();
        w.add(far);
        w.add(far);
        assert_eq!(w.book_below(far, 2), far + 1);
        assert_eq!(w.book_below(5, 1), 5);
        assert_eq!(w.book_below(5, 1), 6);
        assert_eq!(w.total(), 5);
        assert_eq!((w.near.len(), w.far.len()), (7, 2));
        // A jump to just before the far bookings drops cycles 5 and 6
        // and folds the far ones in.
        w.advance(far - 10);
        assert_eq!(w.total(), 3);
        assert_eq!((w.near.len(), w.far.len()), (12, 0));
        assert_eq!(w.book_below(far, 2), far + 1);
        assert_eq!(w.book_below(far, 2), far + 2);
        w.advance(far + 2);
        assert_eq!(w.total(), 1);
        // A jump past a far booking drops it without folding.
        w.add(far + 2 * HORIZON);
        w.advance(far + 3 * HORIZON);
        assert_eq!((w.total(), w.near.len(), w.far.len()), (0, 0, 0));
    }

    #[test]
    fn try_simulate_rejects_bad_machine() {
        use crate::{MachineError, SimError};
        let p = assemble("t", "halt").unwrap();
        let cfg = SimConfig {
            machine: MachineParams { width: 0, ..MachineParams::paper_default() },
            ..SimConfig::default()
        };
        assert_eq!(
            try_simulate(&p, &[], &cfg).unwrap_err(),
            SimError::Machine(MachineError::ZeroWidth)
        );
    }

    #[test]
    fn squash_free_run_reports_no_squashes() {
        let p = chase_program(200);
        let r = simulate(&p, &[chase_pthread(2)], &SimConfig::default());
        assert_eq!(r.squashes, 0);
        assert!(r.squash_reasons.is_empty());
    }

    #[test]
    fn branch_heavy_code_pays_mispredictions() {
        // Data-dependent branches on an LCG-generated pseudo-random bit.
        let r = run(
            "li r1, 0\n li r2, 6000\n li r5, 12345\n li r8, 6364136223846793005\n li r9, 1442695040888963407\n\
             top: bge r1, r2, done\n\
             mul r5, r5, r8\n add r5, r5, r9\n srl r6, r5, 33\n andi r6, r6, 1\n\
             beq r6, r0, skip\n addi r7, r7, 1\n\
             skip: addi r1, r1, 1\n j top\n done: halt",
        );
        assert!(r.mispredicts > 1000, "random branch mispredicts: {}", r.mispredicts);
    }
}
