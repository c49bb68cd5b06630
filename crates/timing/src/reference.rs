//! The heap-and-ledger simulation loop that the event-wheel
//! [`try_simulate`] replaced, kept as a test oracle, and the differential
//! property test pinning the two together.
//!
//! The oracle steps every cycle, books issue slots in a SipHash ledger,
//! and tracks reservation stations and p-thread registers in two
//! min-heaps. It shares the memory system, the branch predictor and the
//! interpreter with the real loop, so the test isolates the loop's own
//! bookkeeping; the memory structures have their own oracles in
//! `preexec-mem`.

use crate::sim::{pthread_mem_access, read_mem};
use crate::{
    try_simulate, BranchPredictor, MachineParams, MemSys, SimConfig, SimError, SimMode, SimResult,
};
use preexec_core::{Advantage, StaticPThread};
use preexec_func::exec;
use preexec_func::{Cpu, SquashReason, PTHREAD_ADDR_LIMIT};
use preexec_isa::reg::NUM_REGS;
use preexec_isa::{Inst, Op, OpClass, Pc, Program, ProgramBuilder, Reg};
use preexec_mem::{CacheConfig, Memory};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// One live p-thread context.
struct Ctx {
    body: Vec<Inst>,
    next: usize,
    regs: [i64; NUM_REGS],
    ready: [u64; NUM_REGS],
    burst_left: u32,
    next_burst: u64,
    store_buffer: HashMap<u64, (i64, u8)>,
}

/// Issue-bandwidth ledger: at most `width` instructions may begin
/// execution in any cycle, shared by all threads.
struct IssueSlots {
    counts: HashMap<u64, u32>,
    width: u32,
    last_prune: u64,
}

impl IssueSlots {
    fn new(width: u32) -> IssueSlots {
        IssueSlots { counts: HashMap::new(), width, last_prune: 0 }
    }

    /// First cycle at or after `earliest` with a free issue slot; books it.
    fn schedule(&mut self, earliest: u64, now: u64) -> u64 {
        let mut c = earliest;
        loop {
            let n = self.counts.entry(c).or_insert(0);
            if *n < self.width {
                *n += 1;
                break;
            }
            c += 1;
        }
        if now > self.last_prune + 65536 {
            self.counts.retain(|&k, _| k >= now);
            self.last_prune = now;
        }
        c
    }
}

fn reference_simulate(
    program: &Program,
    pthreads: &[StaticPThread],
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    config.machine.try_validate()?;
    let m = &config.machine;
    let mut cpu = Cpu::new(program);
    let mut mem = Memory::new();
    for seg in program.data_segments() {
        mem.write_slice(seg.base, &seg.bytes);
    }
    let mut memsys = MemSys::new(*m);
    memsys.set_perfect_l2(config.perfect_l2);
    let mut bp = BranchPredictor::new();
    let mut slots = IssueSlots::new(m.width);

    let mut trigger_map: HashMap<Pc, Vec<usize>> = HashMap::new();
    for (i, p) in pthreads.iter().enumerate() {
        trigger_map.entry(p.trigger).or_default().push(i);
    }

    let mut rob: VecDeque<u64> = VecDeque::with_capacity(m.rob_entries);
    let mut rs: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut reg_ready = [0u64; NUM_REGS];
    let mut store_queue: VecDeque<(u64, u8, u64)> = VecDeque::new();
    let mut contexts: Vec<Option<Ctx>> = (0..m.pthread_contexts).map(|_| None).collect();
    let mut pthread_regs: BinaryHeap<Reverse<u64>> = BinaryHeap::new();

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

        // 2. Free reservation stations whose instructions have issued.
        while matches!(rs.peek(), Some(&Reverse(t)) if t <= cycle) {
            rs.pop();
        }
        while matches!(pthread_regs.peek(), Some(&Reverse(t)) if t <= cycle) {
            pthread_regs.pop();
        }

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
                    if rs.len() >= m.rs_entries {
                        break;
                    }
                    if pthread_regs.len() >= m.pthread_phys_regs {
                        break;
                    }
                }
                if ctx.next >= config.pthread_step_budget {
                    squashed = Some(SquashReason::BudgetExhausted);
                    break;
                }
                let inst = ctx.body[ctx.next];
                let outcome = inject_pthread_inst(
                    ctx, inst, cycle, config.mode, m, &mut memsys, &mem, &mut slots, &mut rs,
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
            if rob.len() >= m.rob_entries || rs.len() >= m.rs_entries {
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
                    let issue = slots.schedule(earliest, cycle);
                    rs.push(Reverse(issue));
                    issue + inst.op.exec_latency() as u64
                }
                OpClass::Load => {
                    let issue = slots.schedule(earliest, cycle);
                    rs.push(Reverse(issue));
                    let t = issue + m.agen_latency;
                    let addr = out.addr.expect("load has address");
                    let width = inst.op.mem_width().expect("load width");
                    if let Some(fwd) =
                        store_forward(&store_queue, addr, width, m.store_forward_latency)
                    {
                        fwd.max(t + m.store_forward_latency)
                    } else {
                        memsys.main_load(t, addr)
                    }
                }
                OpClass::Store => {
                    let issue = slots.schedule(earliest, cycle);
                    rs.push(Reverse(issue));
                    let t = issue + m.agen_latency;
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
                    let issue = slots.schedule(earliest, cycle);
                    rs.push(Reverse(issue));
                    r.branches += 1;
                    let correct = bp.predict_and_update(out.pc, out.taken, inst.target);
                    let done = issue + 1;
                    if !correct {
                        r.mispredicts += 1;
                        mispredicted = true;
                        rename_stall_until = done + m.mispredict_penalty();
                    }
                    done
                }
                OpClass::Jump => {
                    let issue = slots.schedule(earliest, cycle);
                    rs.push(Reverse(issue));
                    let done = issue + 1;
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
            if let Some(list) = trigger_map.get(&out.pc) {
                for &pi in list {
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
                                body: pthreads[pi].body.clone(),
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
    }

    r.cycles = cycle;
    r.mem = *memsys.stats();
    Ok(r)
}

/// Store-to-load forwarding: the youngest older store fully containing the
/// load's bytes supplies the data.
fn store_forward(
    queue: &VecDeque<(u64, u8, u64)>,
    addr: u64,
    width: u8,
    _fwd_latency: u64,
) -> Option<u64> {
    queue
        .iter()
        .rev()
        .find(|&&(sa, sw, _)| sa <= addr && addr + width as u64 <= sa + sw as u64)
        .map(|&(_, _, done)| done)
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
    ctx: &mut Ctx,
    inst: Inst,
    cycle: u64,
    mode: SimMode,
    m: &MachineParams,
    memsys: &mut MemSys,
    mem: &Memory,
    slots: &mut IssueSlots,
    rs: &mut BinaryHeap<Reverse<u64>>,
    pthread_regs: &mut BinaryHeap<Reverse<u64>>,
) -> Result<(), SquashReason> {
    if mode == SimMode::OverheadSequence {
        return Ok(()); // sequenced and discarded
    }
    let ready = inst
        .uses()
        .map(|reg| ctx.ready[reg.index()])
        .fold(cycle, u64::max);
    let issue = slots.schedule(ready.max(cycle + 1), cycle);
    rs.push(Reverse(issue));

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
            pthread_regs.push(Reverse(completion));
        }
    }
    Ok(())
}

/// SplitMix64, so one drawn seed describes a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }

    /// One of `r2`..`r9`, the registers random code may clobber.
    fn value_reg(&mut self) -> Reg {
        Reg::new(2 + self.below(8) as u8)
    }
}

const DATA: u64 = 0x10_0000;
/// Base of the data segment; never written by generated code.
const BASE_REG: u8 = 1;
/// Address temporary: only ever `DATA`-relative, so main-thread
/// addresses stay near the segment whatever path runs.
const ADDR_REG: u8 = 10;
/// Indirect-jump temporary: only ever a forward PC.
const JR_REG: u8 = 11;
/// Outer-loop countdown.
const LOOP_REG: u8 = 31;

const ALU_R: [Op; 8] = [Op::Add, Op::Sub, Op::Mul, Op::And, Op::Or, Op::Xor, Op::Slt, Op::Sltu];
const ALU_I: [Op; 8] = [Op::Addi, Op::Andi, Op::Xori, Op::Ori, Op::Sll, Op::Srl, Op::Sra, Op::Slti];
const LOADS: [Op; 4] = [Op::Lb, Op::Lbu, Op::Lw, Op::Ld];
const STORES: [Op; 3] = [Op::Sb, Op::Sw, Op::Sd];
const BRANCHES: [Op; 6] = [Op::Beq, Op::Bne, Op::Blt, Op::Bge, Op::Ble, Op::Bgt];

/// A body step of the generated program, laid out before emission so
/// forward targets are known PCs.
#[derive(Clone, Copy)]
enum Step {
    Alu,
    Load,
    Store,
    /// Conditional branch to a later step.
    Branch,
    /// `andi; addi; jr`: to a later step or one past it, or off the end.
    Jr,
}

impl Step {
    fn len(self) -> u32 {
        match self {
            Step::Alu | Step::Branch => 1,
            Step::Load | Step::Store | Step::Jr => 3,
        }
    }
}

fn alu(rng: &mut Rng) -> Inst {
    let rd = rng.value_reg();
    let rs = rng.value_reg();
    if rng.one_in(2) {
        Inst::rtype(rng.pick(&ALU_R), rd, rs, rng.value_reg())
    } else {
        let op = rng.pick(&ALU_I);
        let imm = if matches!(op, Op::Sll | Op::Srl | Op::Sra) {
            rng.below(64) as i64
        } else {
            rng.below(4096) as i64 - 2048
        };
        Inst::itype(op, rd, rs, imm)
    }
}

/// A program looping a random body over a data segment: loads, stores,
/// forward branches and forward `jr`s, closed by a countdown branch back
/// to the top and then either `halt` or a fall off the end.
fn program(rng: &mut Rng) -> Program {
    let size = rng.pick(&[4096u64, 64 * 1024, 512 * 1024]);
    let mask = ((size - 1) & !7) as i64;
    let mut bytes = vec![0u8; size as usize];
    for chunk in bytes.chunks_exact_mut(8) {
        let v = if rng.one_in(2) { rng.below(size) } else { rng.next() };
        chunk.copy_from_slice(&v.to_le_bytes());
    }

    let steps: Vec<Step> = (0..1 + rng.below(40))
        .map(|_| match rng.below(10) {
            0..=2 => Step::Alu,
            3..=4 => Step::Load,
            5..=6 => Step::Store,
            7..=8 => Step::Branch,
            _ => Step::Jr,
        })
        .collect();
    let prologue = 9u32; // li base, li r2..r8, li countdown
    let mut starts = Vec::with_capacity(steps.len() + 1);
    let mut pc = prologue;
    for s in &steps {
        starts.push(pc);
        pc += s.len();
    }
    let epilogue = pc; // addi countdown; bgt countdown, r0, top
    starts.push(epilogue);
    let end = epilogue + 2 + u32::from(rng.one_in(2)); // optional halt

    let mut b = ProgramBuilder::new("diff");
    let (base, addr, jr, count) =
        (Reg::new(BASE_REG), Reg::new(ADDR_REG), Reg::new(JR_REG), Reg::new(LOOP_REG));
    b.li(base, DATA as i64);
    for r in 2..9 {
        b.li(Reg::new(r), rng.below(size) as i64);
    }
    b.li(count, 1 + rng.below(30) as i64);
    for (k, &s) in steps.iter().enumerate() {
        let later = |rng: &mut Rng| starts[k + 1 + rng.below((steps.len() - k) as u64) as usize];
        match s {
            Step::Alu => b.push(alu(rng)),
            Step::Load | Step::Store => {
                b.andi(addr, rng.value_reg(), mask);
                b.add(addr, addr, base);
                let (value, off) = (rng.value_reg(), rng.below(8) as i64);
                match s {
                    Step::Load => b.push(Inst::load(rng.pick(&LOADS), value, addr, off)),
                    _ => b.push(Inst::store(rng.pick(&STORES), value, addr, off)),
                }
            }
            Step::Branch => {
                let target = later(rng);
                let (rs, rt) = (rng.value_reg(), rng.value_reg());
                b.push(Inst::branch(rng.pick(&BRANCHES), rs, rt, target))
            }
            Step::Jr => {
                let target = if rng.one_in(8) { end + rng.below(3) as u32 } else { later(rng) };
                b.andi(jr, rng.value_reg(), 1);
                b.addi(jr, jr, target as i64);
                b.jr(jr)
            }
        };
    }
    b.addi(count, count, -1);
    b.push(Inst::branch(Op::Bgt, count, Reg::ZERO, prologue));
    if end > epilogue + 2 {
        b.halt();
    }
    b.data(DATA, bytes);
    b.build().expect("generated program")
}

/// A p-thread with an arbitrary trigger (some past the end of the
/// program) or a slice of the program itself, plus ALU ops, loads through
/// any register (so wild addresses), buffered stores and inert control,
/// sometimes longer than the step budget.
fn pthread(rng: &mut Rng, program: &Program) -> StaticPThread {
    let reg = |rng: &mut Rng| Reg::new(1 + rng.below(12) as u8);
    let len = if rng.one_in(6) { 16 + rng.below(32) } else { rng.below(12) };
    let mut body = Vec::new();
    let mut trigger = rng.below(u64::from(program.len() as u32) + 3) as Pc;
    if rng.one_in(2) {
        // A real-looking p-thread: a window of the program itself, run
        // up to three times over, triggered just before the window, so
        // its loads run ahead of the main thread's and cover misses.
        let start = rng.below(program.len() as u64) as Pc;
        let window: Vec<Inst> = (start..program.len() as Pc)
            .take(1 + rng.below(12) as usize)
            .filter_map(|pc| program.get(pc).copied())
            .collect();
        for _ in 0..1 + rng.below(3) {
            body.extend_from_slice(&window);
        }
        trigger = start.saturating_sub(1);
    }
    for _ in 0..len {
        body.push(match rng.below(12) {
            0..=2 => alu(rng),
            3..=4 => {
                let off = rng.pick(&[0i64, 8, 64, -8, 4096]);
                Inst::load(rng.pick(&LOADS), reg(rng), reg(rng), off)
            }
            // Prefetch near the main thread's last address or the base.
            5 => {
                let base = Reg::new(rng.pick(&[ADDR_REG, BASE_REG]));
                Inst::load(Op::Ld, reg(rng), base, 64 * rng.below(64) as i64)
            }
            6..=7 => Inst::store(rng.pick(&STORES), reg(rng), reg(rng), rng.pick(&[0i64, 8])),
            8 => {
                let v = match rng.below(3) {
                    0 => -1,
                    1 => (DATA + rng.below(1 << 20)) as i64,
                    _ => rng.next() as i64,
                };
                Inst::li(reg(rng), v)
            }
            9 => Inst::branch(Op::Bne, reg(rng), reg(rng), 0),
            10 => Inst::jump(Op::Jal, 0),
            _ => Inst::nop(),
        });
    }
    StaticPThread {
        trigger,
        targets: vec![0],
        body,
        dc_trig: 0,
        dc_ptcm: 0,
        advantage: Advantage {
            scdh_pt: 0.0,
            scdh_mt: 0.0,
            lt: 0.0,
            oh: 0.0,
            lt_agg: 0.0,
            oh_agg: 0.0,
            adv_agg: 0.0,
            full_coverage: false,
        },
    }
}

/// Machines from tiny to the paper's, and run limits from a few cycles up.
fn config(rng: &mut Rng) -> SimConfig {
    let paper = MachineParams::paper_default();
    let small = |rng: &mut Rng, n: u64, paper: usize| {
        if rng.one_in(3) { paper } else { 1 + rng.below(n) as usize }
    };
    let machine = MachineParams {
        width: 1 + rng.below(8) as u32,
        pipeline_depth: 1 + rng.below(20) as u32,
        rs_entries: small(rng, 12, paper.rs_entries),
        rob_entries: small(rng, 16, paper.rob_entries),
        store_queue_entries: small(rng, 6, paper.store_queue_entries),
        store_forward_latency: rng.below(4),
        agen_latency: rng.below(3),
        l1d: rng.pick(&[paper.l1d, CacheConfig::new(1024, 32, 2), CacheConfig::new(256, 32, 1)]),
        l1_latency: 1 + rng.below(3),
        l2: rng.pick(&[paper.l2, CacheConfig::new(4096, 64, 4), CacheConfig::new(256, 64, 4)]),
        l2_latency: 1 + rng.below(12),
        // Now and then far past the wheels' dense horizon, so bookings at
        // load completion take the sparse path.
        mem_latency: match rng.below(16) {
            0 => 1_000_000_000_000,
            1 | 2 => 4000 + rng.below(20_000),
            _ => 1 + rng.below(400),
        },
        backside_bus_bytes: rng.pick(&[8, 32]),
        mem_bus_bytes: rng.pick(&[8, 32]),
        mem_bus_divisor: 1 + rng.below(4),
        mshrs: small(rng, 4, paper.mshrs),
        pthread_contexts: rng.below(5) as usize,
        pthread_phys_regs: small(rng, 8, paper.pthread_phys_regs),
        pthread_burst: 1 + rng.below(8) as u32,
    };
    SimConfig {
        machine,
        mode: rng.pick(&[
            SimMode::Normal,
            SimMode::OverheadExecute,
            SimMode::OverheadSequence,
            SimMode::LatencyToleranceOnly,
        ]),
        perfect_l2: rng.one_in(4),
        max_insts: if rng.one_in(3) { 1 + rng.below(400) } else { u64::MAX },
        max_cycles: if rng.one_in(3) { 1 + rng.below(300) } else { 1000 + rng.below(40_000) },
        pthread_step_budget: 1 + rng.below(24) as usize,
    }
}

/// One differential case: a program, its p-threads (none for a base
/// run) and a configuration.
fn case(seed: u64) -> (Program, Vec<StaticPThread>, SimConfig) {
    let mut rng = Rng(seed);
    let program = program(&mut rng);
    let n = if rng.one_in(4) { 0 } else { 1 + rng.below(5) };
    let pthreads = (0..n).map(|_| pthread(&mut rng, &program)).collect();
    (program, pthreads, config(&mut rng))
}

fn both(seed: u64) -> (Result<SimResult, SimError>, Result<SimResult, SimError>) {
    let (program, pthreads, config) = case(seed);
    (
        try_simulate(&program, &pthreads, &config),
        reference_simulate(&program, &pthreads, &config),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The event-wheel loop and the per-cycle heap loop give `Debug`-equal
    /// results — every count, squash reason, timeout flag and memory
    /// statistic — on random programs, p-threads and machines.
    #[test]
    fn simulate_matches_reference(seed in any::<u64>()) {
        let (got, want) = both(seed);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {:#x}", seed);
    }
}

/// A memory latency of 10^12 cycles under the pipeline's cycle budget:
/// every cold miss completes far past the watchdog, so both loops time
/// out at `max_cycles` with the same counts, and the wheels hold the
/// far bookings sparsely instead of a count per cycle of distance.
#[test]
fn huge_memory_latency_times_out_like_reference() {
    let mut timed_out = 0;
    for seed in 0..3u64 {
        let (program, pthreads, mut config) = case(seed);
        config.machine = MachineParams::paper_default();
        config.machine.mem_latency = 1_000_000_000_000;
        config.mode = SimMode::Normal;
        config.perfect_l2 = false;
        config.max_insts = u64::MAX;
        config.max_cycles = 1 << 22;
        let got = try_simulate(&program, &pthreads, &config);
        let want = reference_simulate(&program, &pthreads, &config);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}");
        timed_out += u32::from(want.is_ok_and(|r| r.timed_out));
    }
    assert!(timed_out > 0);
}

/// The generator reaches the paths the differential test is for: drained
/// and timed-out runs, instruction-capped runs, launches, drops, both
/// squash reasons, mispredictions, store-queue forwarding candidates and
/// p-thread-covered misses.
#[test]
fn generator_reaches_every_path() {
    let (mut drained, mut timed_out, mut capped, mut launches, mut drops) = (0, 0, 0, 0, 0);
    let (mut bad_address, mut budget, mut mispredicts, mut covered) = (0, 0, 0, 0);
    for seed in 0..200u64 {
        let (program, pthreads, config) = case(seed);
        let r = reference_simulate(&program, &pthreads, &config).expect("generated programs run");
        drained += u32::from(!r.timed_out && r.insts < config.max_insts);
        timed_out += u32::from(r.timed_out);
        capped += u32::from(r.insts >= config.max_insts);
        launches += u32::from(r.launches > 0);
        drops += u32::from(r.drops > 0);
        bad_address += u32::from(r.squash_count(SquashReason::BadAddress) > 0);
        budget += u32::from(r.squash_count(SquashReason::BudgetExhausted) > 0);
        mispredicts += u32::from(r.mispredicts > 0);
        covered += u32::from(r.covered() > 0);
    }
    let counts =
        [drained, timed_out, capped, launches, drops, bad_address, budget, mispredicts, covered];
    assert!(counts.iter().all(|&n| n >= 3), "{counts:?}");
}
