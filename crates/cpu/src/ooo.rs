//! Cycle-level model of the big out-of-order core.
//!
//! The model implements the mechanisms the paper's reliability results rely
//! on:
//!
//! * a 128-entry ROB whose head blocks on long-latency loads, filling the
//!   back-end with ACE state (the high-AVF mechanism for memory-streaming
//!   codes such as milc);
//! * branch mispredictions that keep fetching down the **wrong path** until
//!   the branch resolves; wrong-path instructions occupy the ROB, issue
//!   queue, load/store queues and registers but are squashed before commit
//!   and therefore never become ACE (the low-AVF mechanism for mcf and
//!   libquantum);
//! * front-end stalls (I-cache misses, post-misprediction refill) that
//!   drain the pipeline of vulnerable state;
//! * finite issue queue, load/store queues, physical register files and
//!   functional units.
//!
//! Instruction scheduling is event-driven (producers wake their consumers),
//! so the per-cycle cost is proportional to pipeline width, not window size.
//!
//! # Data-oriented layout
//!
//! The ROB is a flat struct-of-arrays arena addressed by `seq & (cap - 1)`
//! — live sequence numbers are contiguous, so each maps to a distinct slot
//! with no indirection. Fields read every cycle (flags, op class, finish
//! time) live in their own dense arrays; the full `Instr` payload and
//! retire timestamps are cold arrays touched only at issue/commit. The
//! ready set is a 256-bit mask scanned oldest-first with `trailing_zeros`
//! ([`crate::arena::ReadyMask`]), and completion tracking is a calendar
//! wheel ([`crate::wheel::EventWheel`]) whose per-cycle drain touches only
//! events finishing *now*. DESIGN.md §16 gives the layout and the
//! byte-equivalence argument against the previous `VecDeque`/`BinaryHeap`
//! implementation.

use crate::arena::{ReadyMask, Ring};
use crate::config::{CoreConfig, CoreKind};
use crate::cpi::{CpiStack, StallCause};
use crate::events::{RetireEvent, RetireObserver};
use crate::fu::FuPool;
use crate::wheel::{EventWheel, WheelEvent};
use relsim_mem::{MemLevel, PrivateCacheConfig, PrivateCaches, SharedMem};
use relsim_obs::span::{self, Stage};
use relsim_trace::{Instr, InstrSource, OpClass};

const CP_RING: usize = 256;

// ROB entry state, packed into one byte per slot.
const F_ISSUED: u8 = 1 << 0;
const F_DONE: u8 = 1 << 1;
const F_WRONG: u8 = 1 << 2;
/// The instruction is a mispredicted branch (cached from `Instr::mispredict`
/// so completion handling never touches the cold payload array).
const F_MISP: u8 = 1 << 3;

#[derive(Debug, Clone, Copy)]
struct Fetched {
    instr: Instr,
    wrong_path: bool,
    /// Tick at which the instruction clears the front-end pipeline and may
    /// dispatch.
    avail: u64,
}

/// The big out-of-order core (Table 2 configuration by default).
///
/// # Examples
///
/// ```
/// use relsim_cpu::{CoreConfig, NullObserver, OooCore};
/// use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
/// use relsim_trace::{spec_profile, TraceGenerator};
///
/// let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
/// let mut shared = SharedMem::new(SharedMemConfig::default());
/// let mut src = TraceGenerator::new(spec_profile("hmmer").unwrap(), 1, 0);
/// let mut obs = NullObserver;
/// for tick in 0..10_000 {
///     core.tick(tick, &mut src, &mut shared, &mut obs);
/// }
/// assert!(core.committed() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct OooCore {
    cfg: CoreConfig,
    caches: PrivateCaches,

    // --- ROB arena (struct-of-arrays; slot = seq & rob_mask) ---
    //
    // Live entries are the contiguous window [head_seq, head_seq +
    // rob_len); the invariant next_seq == head_seq + rob_len holds at all
    // times, so slot addressing never collides while rob_len <= capacity.
    /// Slot mask: `rob_size.next_power_of_two() - 1`.
    rob_mask: u64,
    /// Sequence number of the ROB head (oldest live entry).
    head_seq: u64,
    /// Live entry count.
    rob_len: usize,
    next_seq: u64,
    // Hot per-slot fields, read every cycle.
    rs_flags: Box<[u8]>,
    rs_pending: Box<[u8]>,
    rs_epoch: Box<[u32]>,
    rs_op: Box<[OpClass]>,
    rs_mem_level: Box<[Option<MemLevel>]>,
    rs_finish: Box<[u64]>,
    // Wakeup lists: consumers waiting on each slot's result (inline to
    // avoid per-entry heap allocation; overflow spills to `waiter_spill`).
    rs_waiters: Box<[[(u64, u32); 4]]>,
    rs_nwait: Box<[u8]>,
    // Cold per-slot fields, touched at issue/commit/flush only.
    rs_instr: Box<[Instr]>,
    rs_dispatch: Box<[u64]>,
    rs_issue: Box<[u64]>,

    /// Ready-to-issue slots as a bitmask, scanned oldest-first.
    ready: ReadyMask,
    /// Pending completion events, bucketed by tick.
    finish_events: EventWheel,
    /// Reused drain buffer for `finish_events` (no per-tick allocation).
    finish_scratch: Vec<WheelEvent>,
    iq_used: u32,
    lq_used: u32,
    sq_used: u32,
    int_regs_used: u32,
    fp_regs_used: u32,
    fu: FuPool,
    /// Current flush generation.
    epoch: u32,
    /// Overflow waiter registrations as (producer_seq, consumer_seq,
    /// consumer_epoch); normally empty.
    waiter_spill: Vec<(u64, u64, u32)>,

    cp_ring: [u64; CP_RING],
    cp_count: u64,

    fetch_queue: Ring<Fetched>,
    in_wrong_path: bool,
    fetch_stall_until: u64,
    fetch_stall_icache: bool,
    branch_refill_until: u64,
    /// Outstanding misprediction bubble cycles not yet charged to the
    /// branch CPI component. A flush creates a front-end bubble that only
    /// surfaces once the ROB drains; this debt routes those downstream
    /// zero-commit cycles to the branch component (a light-weight stand-in
    /// for interval analysis).
    branch_debt: u64,
    pending_fetch: Option<Instr>,

    cycles: u64,
    committed: u64,
    wrong_path_dispatched: u64,
    icache_misses: u64,
    branch_mispredicts: u64,
    cpi: CpiStack,
    class_counts: [u64; 10],
    loads_by_level: [u64; 4],
}

impl OooCore {
    /// Build an idle core with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not an out-of-order configuration
    /// (`kind == CoreKind::Big`, `rob_size > 0`), or if the ROB exceeds
    /// the 256 entries the ready mask can address.
    pub fn new(cfg: CoreConfig, cache_cfg: PrivateCacheConfig) -> Self {
        assert_eq!(
            cfg.kind,
            CoreKind::Big,
            "OooCore requires a big-core config"
        );
        assert!(cfg.rob_size > 0, "out-of-order core needs a ROB");
        let cap = (cfg.rob_size as usize).next_power_of_two();
        assert!(
            cap <= crate::arena::MASK_BITS,
            "ROB size {} exceeds ready-mask capacity",
            cfg.rob_size
        );
        let caches = PrivateCaches::new(cache_cfg, cfg.ticks_per_cycle);
        let fq_capacity = (cfg.width as usize) * (cfg.frontend_delay() as usize + 1);
        OooCore {
            fu: FuPool::new(cfg.fu),
            caches,
            rob_mask: cap as u64 - 1,
            head_seq: 0,
            rob_len: 0,
            next_seq: 0,
            rs_flags: vec![0; cap].into_boxed_slice(),
            rs_pending: vec![0; cap].into_boxed_slice(),
            rs_epoch: vec![0; cap].into_boxed_slice(),
            rs_op: vec![OpClass::Nop; cap].into_boxed_slice(),
            rs_mem_level: vec![None; cap].into_boxed_slice(),
            rs_finish: vec![0; cap].into_boxed_slice(),
            rs_waiters: vec![[(0, 0); 4]; cap].into_boxed_slice(),
            rs_nwait: vec![0; cap].into_boxed_slice(),
            rs_instr: vec![Instr::nop(); cap].into_boxed_slice(),
            rs_dispatch: vec![0; cap].into_boxed_slice(),
            rs_issue: vec![0; cap].into_boxed_slice(),
            ready: ReadyMask::new(),
            finish_events: EventWheel::new(),
            finish_scratch: Vec::with_capacity(64),
            iq_used: 0,
            lq_used: 0,
            sq_used: 0,
            int_regs_used: 0,
            fp_regs_used: 0,
            epoch: 0,
            waiter_spill: Vec::with_capacity(16),
            cp_ring: [u64::MAX; CP_RING],
            cp_count: 0,
            fetch_queue: Ring::with_capacity(fq_capacity),
            in_wrong_path: false,
            fetch_stall_until: 0,
            fetch_stall_icache: false,
            branch_refill_until: 0,
            branch_debt: 0,
            pending_fetch: None,
            cycles: 0,
            committed: 0,
            wrong_path_dispatched: 0,
            icache_misses: 0,
            branch_mispredicts: 0,
            cpi: CpiStack::default(),
            class_counts: [0; 10],
            loads_by_level: [0; 4],
            cfg,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Correct-path instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Core cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Accumulated CPI stack.
    pub fn cpi_stack(&self) -> &CpiStack {
        &self.cpi
    }

    /// Committed instruction counts per [`OpClass`] index.
    pub fn class_counts(&self) -> &[u64; 10] {
        &self.class_counts
    }

    /// Committed loads served by each memory level (L1, L2, L3, Memory).
    pub fn loads_by_level(&self) -> &[u64; 4] {
        &self.loads_by_level
    }

    /// Wrong-path instructions dispatched into the back-end so far.
    pub fn wrong_path_dispatched(&self) -> u64 {
        self.wrong_path_dispatched
    }

    /// Mispredicted branches committed so far.
    pub fn branch_mispredicts(&self) -> u64 {
        self.branch_mispredicts
    }

    /// I-cache miss stalls taken so far.
    pub fn icache_misses(&self) -> u64 {
        self.icache_misses
    }

    /// The core's private caches.
    pub fn caches(&self) -> &PrivateCaches {
        &self.caches
    }

    /// Mutable access to the private caches (e.g. to reset statistics).
    pub fn caches_mut(&mut self) -> &mut PrivateCaches {
        &mut self.caches
    }

    /// Squash all in-flight state (used when a different application is
    /// migrated onto this core). Cache contents are deliberately kept: the
    /// incoming application starts with a cold-for-it cache, as on real
    /// hardware.
    pub fn reset_pipeline(&mut self) {
        self.rob_len = 0;
        self.head_seq = self.next_seq;
        self.ready.reset();
        self.waiter_spill.clear();
        self.finish_events.clear();
        self.epoch = self.epoch.wrapping_add(1);
        self.fetch_queue.clear();
        self.pending_fetch = None;
        self.iq_used = 0;
        self.lq_used = 0;
        self.sq_used = 0;
        self.int_regs_used = 0;
        self.fp_regs_used = 0;
        self.in_wrong_path = false;
        self.fetch_stall_until = 0;
        self.branch_refill_until = 0;
        self.branch_debt = 0;
        self.fetch_stall_icache = false;
        self.cp_ring = [u64::MAX; CP_RING];
        self.cp_count = 0;
        self.fu.reset();
    }

    /// O(1) ROB lookup by seq: live seqs are exactly the contiguous window
    /// `[head_seq, head_seq + rob_len)`, and each maps to slot
    /// `seq & rob_mask`.
    #[inline]
    fn rob_slot(&self, seq: u64) -> Option<usize> {
        if seq.wrapping_sub(self.head_seq) < self.rob_len as u64 {
            Some((seq & self.rob_mask) as usize)
        } else {
            None
        }
    }

    /// Like [`rob_slot`](Self::rob_slot) but also validates the entry's
    /// flush generation, for references that may predate a flush.
    #[inline]
    fn rob_slot_epoch(&self, seq: u64, epoch: u32) -> Option<usize> {
        let s = self.rob_slot(seq)?;
        (self.rs_epoch[s] == epoch).then_some(s)
    }

    /// Decrement a consumer's pending-source count; set its ready bit when
    /// it reaches zero.
    fn wake(&mut self, consumer: u64, epoch: u32) {
        if let Some(s) = self.rob_slot_epoch(consumer, epoch) {
            let p = self.rs_pending[s];
            if p > 0 {
                self.rs_pending[s] = p - 1;
                if p == 1 && self.rs_flags[s] & F_ISSUED == 0 {
                    self.ready.set(s);
                }
            }
        }
    }

    /// Resolve a dependency for the instruction about to be dispatched.
    /// Returns the ROB slot and seq of the producer if its value is still
    /// being computed; `None` means the operand is already available.
    #[inline]
    fn unresolved_producer(&self, dist: u16) -> Option<(usize, u64)> {
        let d = dist as u64;
        if d == 0 || d > self.cp_count || d > CP_RING as u64 {
            return None; // out of window: treat as ready
        }
        let idx = ((self.cp_count - d) % CP_RING as u64) as usize;
        let producer_seq = self.cp_ring[idx];
        if producer_seq == u64::MAX {
            return None;
        }
        match self.rob_slot(producer_seq) {
            Some(s) if self.rs_flags[s] & F_DONE == 0 => Some((s, producer_seq)),
            _ => None, // committed or already finished
        }
    }

    fn process_finish_events(&mut self, now: u64, prof: bool) {
        let mut due = std::mem::take(&mut self.finish_scratch);
        self.finish_events.drain_due(now, &mut due);
        // Guards run at process time against current state, exactly as the
        // old heap loop's did: an earlier event's flush makes later events
        // in the same batch fail the epoch check, in the same order
        // ((tick, seq, epoch) ascending = heap pop order). Processing
        // never schedules new events, so the batch is complete.
        for &(tick, seq, epoch) in &due {
            let Some(s) = self.rob_slot_epoch(seq, epoch) else {
                continue;
            };
            let flags = self.rs_flags[s];
            if flags & F_ISSUED == 0 || flags & F_DONE != 0 || self.rs_finish[s] != tick {
                continue;
            }
            self.rs_flags[s] = flags | F_DONE;
            let n = self.rs_nwait[s] as usize;
            let waiters = self.rs_waiters[s];
            self.rs_nwait[s] = 0;
            let was_mispredict = flags & F_MISP != 0 && flags & F_WRONG == 0;
            span::scoped(prof, Stage::Wakeup, || {
                for &(w, we) in &waiters[..n] {
                    self.wake(w, we);
                }
                if !self.waiter_spill.is_empty() {
                    let mut i = 0;
                    while i < self.waiter_spill.len() {
                        if self.waiter_spill[i].0 == seq {
                            let (_, w, we) = self.waiter_spill.swap_remove(i);
                            self.wake(w, we);
                        } else {
                            i += 1;
                        }
                    }
                }
            });
            if was_mispredict {
                self.flush_after(seq, now);
            }
        }
        due.clear();
        self.finish_scratch = due;
    }

    /// Squash everything younger than `seq` (wrong-path recovery).
    fn flush_after(&mut self, seq: u64, now: u64) {
        while self.rob_len > 0 {
            let back_seq = self.head_seq + self.rob_len as u64 - 1;
            if back_seq <= seq {
                break;
            }
            let s = (back_seq & self.rob_mask) as usize;
            self.rob_len -= 1;
            self.ready.clear(s);
            let flags = self.rs_flags[s];
            if flags & F_ISSUED == 0 {
                self.iq_used -= 1;
            }
            let op = self.rs_op[s];
            match op {
                OpClass::Load => self.lq_used -= 1,
                OpClass::Store => self.sq_used -= 1,
                _ => {}
            }
            if self.rs_instr[s].has_output() {
                if op.is_fp() {
                    self.fp_regs_used -= 1;
                } else {
                    self.int_regs_used -= 1;
                }
            }
        }
        if self.rob_len == 0 {
            self.head_seq = seq + 1;
        }
        self.next_seq = seq + 1;
        self.epoch = self.epoch.wrapping_add(1);
        self.waiter_spill.retain(|&(p, c, _)| p <= seq && c <= seq);
        self.fetch_queue.clear();
        self.pending_fetch = None;
        self.in_wrong_path = false;
        self.fetch_stall_icache = false;
        // Redirect: fetch restarts next cycle; the refill delay itself comes
        // from the front-end latency of newly fetched instructions.
        let tpc = self.cfg.ticks_per_cycle;
        self.fetch_stall_until = now + tpc;
        self.branch_refill_until = now + (self.cfg.frontend_delay() + 2) * tpc;
        self.branch_debt = (self.branch_debt + self.cfg.frontend_delay() + 2).min(64);
    }

    fn commit(&mut self, now: u64, shared: &mut SharedMem, obs: &mut dyn RetireObserver) -> u32 {
        let mut n = 0;
        while n < self.cfg.width {
            if self.rob_len == 0 {
                break;
            }
            let s = (self.head_seq & self.rob_mask) as usize;
            let flags = self.rs_flags[s];
            if flags & F_DONE == 0 || self.rs_finish[s] > now {
                break;
            }
            debug_assert!(
                flags & F_WRONG == 0,
                "wrong-path instruction reached commit"
            );
            self.head_seq += 1;
            self.rob_len -= 1;
            let op = self.rs_op[s];
            let instr = self.rs_instr[s];
            match op {
                OpClass::Load => self.lq_used -= 1,
                OpClass::Store => {
                    self.sq_used -= 1;
                    // The store leaves the SQ and drains to the memory
                    // system; nothing waits on it.
                    let _ = self.caches.access_data(instr.addr, true, now, shared);
                }
                _ => {}
            }
            if instr.has_output() {
                if op.is_fp() {
                    self.fp_regs_used -= 1;
                } else {
                    self.int_regs_used -= 1;
                }
            }
            self.committed += 1;
            self.class_counts[op.index()] += 1;
            if op == OpClass::Load {
                let li = match self.rs_mem_level[s] {
                    Some(MemLevel::L1) => 0,
                    Some(MemLevel::L2) => 1,
                    Some(MemLevel::L3) => 2,
                    Some(MemLevel::Memory) => 3,
                    None => 0,
                };
                self.loads_by_level[li] += 1;
            }
            if op == OpClass::Branch && instr.mispredict {
                self.branch_mispredicts += 1;
            }
            obs.on_retire(&RetireEvent {
                op,
                dispatch: self.rs_dispatch[s],
                issue: self.rs_issue[s],
                finish: self.rs_finish[s],
                commit: now,
                exec_latency: instr.exec_latency(),
                has_output: instr.has_output(),
            });
            n += 1;
        }
        n
    }

    fn issue(&mut self, now: u64, shared: &mut SharedMem) {
        if !self.ready.any() {
            // Nothing to select. The FU pool's per-cycle counters are only
            // ever read through `try_issue` below, so skipping `new_cycle`
            // here is unobservable.
            return;
        }
        self.fu.new_cycle();
        let mut issued = 0;
        // Examine the oldest few ready instructions only; entries skipped
        // due to busy units keep their ready bit for later cycles.
        let mut candidates = [0u64; 8];
        let n_cand = self.ready.collect_oldest(
            self.head_seq,
            self.rob_mask,
            candidates.len(),
            &mut candidates,
        );
        let tpc = self.cfg.ticks_per_cycle;
        for &seq in &candidates[..n_cand] {
            if issued >= self.cfg.width {
                break;
            }
            let Some(s) = self.rob_slot(seq) else {
                self.ready.clear((seq & self.rob_mask) as usize);
                continue;
            };
            let op = self.rs_op[s];
            if !self.fu.try_issue(op, now, tpc) {
                continue; // unit busy; stays ready for a later cycle
            }
            self.ready.clear(s);
            issued += 1;
            self.iq_used -= 1;
            let (finish_at, mem_level) = match op {
                OpClass::Load => {
                    let addr = self.rs_instr[s].addr;
                    // One cycle of address generation, then the cache walk.
                    let o = self.caches.access_data(addr, false, now + tpc, shared);
                    (o.complete_at, Some(o.level))
                }
                OpClass::Store => (now + tpc, None),
                _ => (now + self.rs_instr[s].exec_latency() * tpc, None),
            };
            self.rs_flags[s] |= F_ISSUED;
            self.rs_issue[s] = now;
            self.rs_finish[s] = finish_at;
            self.rs_mem_level[s] = mem_level;
            // The event carries the entry's own epoch: entries that survive
            // a later flush must still receive their completion.
            self.finish_events.push(finish_at, seq, self.rs_epoch[s]);
        }
    }

    fn dispatch(&mut self, now: u64) {
        let mut n = 0;
        while n < self.cfg.width {
            let Some(f) = self.fetch_queue.front() else {
                break;
            };
            if f.avail > now {
                break;
            }
            if self.rob_len >= self.cfg.rob_size as usize {
                break;
            }
            let instr = f.instr;
            let wrong_path = f.wrong_path;
            let is_nop = instr.op == OpClass::Nop;
            if !is_nop && self.iq_used >= self.cfg.iq_size {
                break;
            }
            match instr.op {
                OpClass::Load if self.lq_used >= self.cfg.lq_size => break,
                OpClass::Store if self.sq_used >= self.cfg.sq_size => break,
                _ => {}
            }
            if instr.has_output() {
                if instr.op.is_fp() {
                    if self.fp_regs_used >= self.cfg.rename_fp_regs() {
                        break;
                    }
                } else if self.int_regs_used >= self.cfg.rename_int_regs() {
                    break;
                }
            }

            // All resources available: dispatch.
            self.fetch_queue.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            match instr.op {
                OpClass::Load => self.lq_used += 1,
                OpClass::Store => self.sq_used += 1,
                _ => {}
            }
            if instr.has_output() {
                if instr.op.is_fp() {
                    self.fp_regs_used += 1;
                } else {
                    self.int_regs_used += 1;
                }
            }

            // Resolve producers before installing the new entry; register
            // this instruction as a waiter on each in-flight producer.
            let mut pending = 0u8;
            for dist in [instr.src1, instr.src2] {
                let Some(d) = dist else { continue };
                if let Some((pi, pseq)) = self.unresolved_producer(d) {
                    let epoch = self.epoch;
                    let nw = self.rs_nwait[pi] as usize;
                    if nw < self.rs_waiters[pi].len() {
                        self.rs_waiters[pi][nw] = (seq, epoch);
                        self.rs_nwait[pi] += 1;
                    } else {
                        self.waiter_spill.push((pseq, seq, epoch));
                    }
                    pending += 1;
                }
            }

            if !wrong_path {
                let idx = (self.cp_count % CP_RING as u64) as usize;
                self.cp_ring[idx] = seq;
                self.cp_count += 1;
            } else {
                self.wrong_path_dispatched += 1;
            }

            // Install the entry in its arena slot. The slot is free:
            // rob_len < rob_size <= capacity, and live seqs are contiguous.
            let s = (seq & self.rob_mask) as usize;
            let mut flags = 0u8;
            if is_nop {
                // NOPs bypass the issue queue and complete immediately.
                flags |= F_ISSUED | F_DONE;
            }
            if wrong_path {
                flags |= F_WRONG;
            }
            if instr.mispredict {
                flags |= F_MISP;
            }
            self.rs_flags[s] = flags;
            self.rs_pending[s] = pending;
            self.rs_epoch[s] = self.epoch;
            self.rs_op[s] = instr.op;
            self.rs_mem_level[s] = None;
            self.rs_finish[s] = if is_nop { now } else { u64::MAX };
            self.rs_nwait[s] = 0;
            self.rs_instr[s] = instr;
            self.rs_dispatch[s] = now;
            self.rs_issue[s] = now;
            self.rob_len += 1;
            debug_assert_eq!(self.next_seq, self.head_seq + self.rob_len as u64);
            if !is_nop {
                self.iq_used += 1;
                if pending == 0 {
                    self.ready.set(s);
                }
            }
            n += 1;
        }
    }

    /// Fetch up to `width` instructions into the fetch queue. The
    /// unconditional `fetch_stall_icache` clear below is not state change
    /// a dead tick must replay: every reader of that flag is guarded by
    /// `now < fetch_stall_until` (or clamps against it), so a stale `true`
    /// past the deadline is unobservable — which lets [`Self::skip_to`]
    /// charge dead ticks without running this stage.
    fn fetch(&mut self, now: u64, src: &mut dyn InstrSource) {
        if now < self.fetch_stall_until {
            return;
        }
        self.fetch_stall_icache = false;
        let tpc = self.cfg.ticks_per_cycle;
        let fe_delay = self.cfg.frontend_delay() * tpc;
        let mut n = 0;
        while n < self.cfg.width && !self.fetch_queue.is_full() {
            let instr = if self.in_wrong_path {
                src.wrong_path_instr()
            } else if let Some(p) = self.pending_fetch.take() {
                p
            } else {
                let i = src.next_instr();
                if i.icache_miss {
                    self.icache_misses += 1;
                    self.pending_fetch = Some(Instr {
                        icache_miss: false,
                        ..i
                    });
                    self.fetch_stall_until = now + self.cfg.icache_penalty * tpc;
                    self.fetch_stall_icache = true;
                    return;
                }
                i
            };
            let wrong_path = self.in_wrong_path;
            let is_mispredict = !wrong_path && instr.op == OpClass::Branch && instr.mispredict;
            self.fetch_queue.push_back(Fetched {
                instr,
                wrong_path,
                avail: now + fe_delay,
            });
            n += 1;
            if is_mispredict {
                self.in_wrong_path = true;
                break; // remaining fetch slots this cycle are lost
            }
        }
    }

    fn account_cpi(&mut self, commits: u32, now: u64) {
        if commits > 0 {
            self.cpi.commit_cycle();
            return;
        }
        let cause = if self.rob_len > 0 {
            let s = (self.head_seq & self.rob_mask) as usize;
            let flags = self.rs_flags[s];
            if flags & F_ISSUED != 0 && flags & F_DONE == 0 && self.rs_op[s] == OpClass::Load {
                // A memory-blocked ROB head dominates whatever else is
                // going on (including concurrent wrong-path fetch).
                match self.rs_mem_level[s] {
                    Some(MemLevel::Memory) => StallCause::Memory,
                    Some(MemLevel::L3) => StallCause::Llc,
                    _ => StallCause::Resource,
                }
            } else if self.in_wrong_path || now < self.branch_refill_until {
                // The back-end is starved or full of junk because fetch is
                // on (or recovering from) the wrong path.
                StallCause::Branch
            } else if self.branch_debt > 0 {
                self.branch_debt -= 1;
                StallCause::Branch
            } else {
                StallCause::Resource
            }
        } else if self.fetch_stall_icache && now < self.fetch_stall_until {
            StallCause::ICache
        } else if self.in_wrong_path || now < self.branch_refill_until {
            StallCause::Branch
        } else {
            StallCause::Resource
        };
        self.cpi.stall_cycle(cause);
    }

    /// Would the dispatch stage accept `instr` right now, resource-wise?
    /// Mirrors the gate order of [`Self::dispatch`] exactly (ROB, issue
    /// queue, LQ/SQ, rename registers), minus the `avail` time gate.
    fn can_dispatch(&self, instr: &Instr) -> bool {
        if self.rob_len >= self.cfg.rob_size as usize {
            return false;
        }
        let is_nop = instr.op == OpClass::Nop;
        if !is_nop && self.iq_used >= self.cfg.iq_size {
            return false;
        }
        match instr.op {
            OpClass::Load if self.lq_used >= self.cfg.lq_size => return false,
            OpClass::Store if self.sq_used >= self.cfg.sq_size => return false,
            _ => {}
        }
        if instr.has_output() {
            if instr.op.is_fp() {
                if self.fp_regs_used >= self.cfg.rename_fp_regs() {
                    return false;
                }
            } else if self.int_regs_used >= self.cfg.rename_int_regs() {
                return false;
            }
        }
        true
    }

    /// Conservative event horizon: the earliest tick strictly after `now`
    /// at which this core's architectural state can change. Every tick in
    /// `(now, next_event(now))` is *dead* — [`Self::tick`] there would only
    /// bump the cycle counter and charge one CPI-stack stall — so the
    /// caller may replace those ticks with one [`Self::skip_to`] call and
    /// get bit-identical results.
    ///
    /// The horizon is the min over: the next finish event (covers commit,
    /// wakeups, flushes and every resource release), the front of the
    /// fetch queue clearing the front-end (when dispatch resources are
    /// free), and the end of a fetch stall (when the fetch queue has
    /// room). When work is possible at the very next cycle boundary —
    /// fetch can run, the ROB head is committable, or ready instructions
    /// await issue — the boundary itself is returned and nothing is
    /// skipped. Returns are conservative (never later than the true next
    /// state change) and always `> now`.
    pub(crate) fn next_event(&self, now: u64) -> u64 {
        let tpc = self.cfg.ticks_per_cycle;
        let nb = (now / tpc + 1) * tpc;
        // Fetch can make progress at the next boundary.
        if !self.fetch_queue.is_full() && nb >= self.fetch_stall_until {
            return nb;
        }
        // Commit pending (done implies finish_at <= now, so the head
        // retires at the next boundary).
        if self.rob_len > 0 {
            let s = (self.head_seq & self.rob_mask) as usize;
            if self.rs_flags[s] & F_DONE != 0 {
                return nb;
            }
        }
        // Issue may proceed (conservatively: a busy divider could still
        // block, but a no-skip answer is always sound).
        if self.ready.any() {
            return nb;
        }
        // `earliest()` is the exact minimum over resident events — the
        // same value the old heap's peek returned, including events whose
        // entries were since flushed (stale-epoch events stay resident
        // until drained, exactly like stale heap entries).
        let mut h = self.finish_events.earliest();
        if let Some(f) = self.fetch_queue.front() {
            // Dispatch is gated on `avail` before resources, so when the
            // resources are free the front clears at `avail`; when they are
            // not, only a commit or flush (both finish-event-driven, so
            // already bounded above) can unblock it.
            if self.can_dispatch(&f.instr) {
                h = h.min(f.avail);
            }
        }
        if !self.fetch_queue.is_full() {
            h = h.min(self.fetch_stall_until);
        }
        if h == u64::MAX {
            return nb; // nothing in flight at all: never skip blind
        }
        h.max(nb)
    }

    /// Charge the dead ticks `[from, to)` in closed form: advance the
    /// cycle counter and CPI stack exactly as per-tick simulation would
    /// have, without simulating the ticks. Sound only when every tick in
    /// the range is dead, i.e. `to <= next_event(from - 1)` (see
    /// [`Self::next_event`]); the stall cause per skipped cycle is then a
    /// pure function of current state plus the cycle's position relative
    /// to the `branch_refill_until`/`fetch_stall_until` deadlines, which
    /// is what the arithmetic below replicates.
    pub(crate) fn skip_to(&mut self, from: u64, to: u64) {
        let tpc = self.cfg.ticks_per_cycle;
        // Cycle boundaries t = k*tpc in [from, to): k in [a, b).
        let a = from.div_ceil(tpc);
        let b = to.div_ceil(tpc);
        if b <= a {
            return;
        }
        let n = b - a;
        self.cycles += n;
        if self.rob_len > 0 {
            let s = (self.head_seq & self.rob_mask) as usize;
            let flags = self.rs_flags[s];
            if flags & F_ISSUED != 0 && flags & F_DONE == 0 && self.rs_op[s] == OpClass::Load {
                // Memory-blocked ROB head dominates every skipped cycle.
                let cause = match self.rs_mem_level[s] {
                    Some(MemLevel::Memory) => StallCause::Memory,
                    Some(MemLevel::L3) => StallCause::Llc,
                    _ => StallCause::Resource,
                };
                self.cpi.stall_cycles(cause, n);
            } else if self.in_wrong_path {
                self.cpi.stall_cycles(StallCause::Branch, n);
            } else {
                // Boundaries before branch_refill_until charge Branch;
                // the rest consume branch debt first, then Resource.
                let k_bru = self.branch_refill_until.div_ceil(tpc).clamp(a, b);
                let n_refill = k_bru - a;
                let rest = n - n_refill;
                let n_debt = rest.min(self.branch_debt);
                self.branch_debt -= n_debt;
                self.cpi.stall_cycles(StallCause::Branch, n_refill + n_debt);
                self.cpi.stall_cycles(StallCause::Resource, rest - n_debt);
            }
        } else {
            // Empty ROB: an I-cache stall window charges ICache, then the
            // wrong-path/refill window charges Branch, then Resource (the
            // per-tick empty path consumes no branch debt).
            let k_fsu = if self.fetch_stall_icache {
                self.fetch_stall_until.div_ceil(tpc).clamp(a, b)
            } else {
                a
            };
            self.cpi.stall_cycles(StallCause::ICache, k_fsu - a);
            if self.in_wrong_path {
                self.cpi.stall_cycles(StallCause::Branch, b - k_fsu);
            } else {
                let k_bru = self.branch_refill_until.div_ceil(tpc).clamp(k_fsu, b);
                self.cpi.stall_cycles(StallCause::Branch, k_bru - k_fsu);
                self.cpi.stall_cycles(StallCause::Resource, b - k_bru);
            }
        }
    }

    /// Advance the core by one global tick.
    ///
    /// The core only performs work on its own cycle boundaries (every
    /// `ticks_per_cycle` ticks); other ticks return immediately, which is
    /// how frequency scaling (Section 6.4 of the paper) is modeled.
    pub fn tick(
        &mut self,
        now: u64,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
        obs: &mut dyn RetireObserver,
    ) {
        if !now.is_multiple_of(self.cfg.ticks_per_cycle) {
            return;
        }
        self.cycles += 1;
        // One global-flag read per cycle; every stage span below branches
        // on the local bool, keeping the disabled path near-free.
        let prof = span::enabled();
        span::scoped(prof, Stage::FuExecute, || {
            self.process_finish_events(now, prof)
        });
        let commits = span::scoped(prof, Stage::Commit, || self.commit(now, shared, obs));
        span::scoped(prof, Stage::SelectIssue, || self.issue(now, shared));
        span::scoped(prof, Stage::RenameDispatch, || self.dispatch(now));
        span::scoped(prof, Stage::Fetch, || self.fetch(now, src));
        span::scoped(prof, Stage::CpiAccount, || self.account_cpi(commits, now));
    }

    /// Shift every in-flight absolute timestamp forward by `delta` ticks,
    /// as if the fast-forward window had been spliced in before the
    /// in-flight instructions' lifetimes. Detailed intervals then behave
    /// like one concatenated simulation: outstanding memory-level
    /// parallelism survives the window instead of completing instantly,
    /// and residencies observed at retire (ACE accounting) do not absorb
    /// fast-forwarded time. Historical timestamps (dispatch/issue/finish)
    /// shift unconditionally so retire-time spans stay delta-free; gating
    /// deadlines already in the past stay inert.
    fn shift_time(&mut self, start: u64, delta: u64) {
        for i in 0..self.rob_len as u64 {
            let s = ((self.head_seq + i) & self.rob_mask) as usize;
            self.rs_dispatch[s] += delta;
            self.rs_issue[s] += delta;
            if self.rs_finish[s] != u64::MAX {
                self.rs_finish[s] += delta;
            }
        }
        let mut scratch = std::mem::take(&mut self.finish_scratch);
        self.finish_events.shift(delta, &mut scratch);
        self.finish_scratch = scratch;
        for f in self.fetch_queue.iter_mut() {
            if f.avail > start {
                f.avail += delta;
            }
        }
        if self.fetch_stall_until > start {
            self.fetch_stall_until += delta;
        }
        if self.branch_refill_until > start {
            self.branch_refill_until += delta;
        }
        self.fu.shift_time(start, delta);
    }

    /// Fast-forward across the tick window `[start, start + ticks)`
    /// without cycle timing: charge the window's cycles with a
    /// `template`-proportioned CPI stack (normally the stack delta observed
    /// over the preceding detailed interval, preserving
    /// `cpi_stack().total() == cycles()` exactly), shift in-flight pipeline
    /// state past the window via [`Self::shift_time`], and functionally
    /// execute `instructions` instructions from `src` — warming the caches
    /// and advancing the trace position.
    pub fn fast_forward(
        &mut self,
        start: u64,
        ticks: u64,
        instructions: u64,
        template: &CpiStack,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
    ) {
        let cycles = crate::ff::cycles_in_window(start, ticks, self.cfg.ticks_per_cycle);
        self.cycles += cycles;
        self.cpi = self.cpi.merged(&template.scaled_to(cycles));
        self.shift_time(start, ticks);
        crate::ff::functional_warm(
            &mut self.caches,
            src,
            shared,
            start,
            ticks,
            instructions,
            crate::ff::FfCounters {
                committed: &mut self.committed,
                branch_mispredicts: &mut self.branch_mispredicts,
                icache_misses: &mut self.icache_misses,
                class_counts: &mut self.class_counts,
                loads_by_level: &mut self.loads_by_level,
            },
        );
    }

    /// Current ROB occupancy (for tests and occupancy diagnostics).
    pub fn rob_occupancy(&self) -> usize {
        self.rob_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingObserver;
    use relsim_mem::SharedMemConfig;
    use relsim_trace::TraceGenerator;

    /// A scripted instruction source for unit tests.
    struct Script {
        instrs: Vec<Instr>,
        pos: usize,
    }

    impl Script {
        fn new(instrs: Vec<Instr>) -> Self {
            Script { instrs, pos: 0 }
        }
    }

    impl InstrSource for Script {
        fn next_instr(&mut self) -> Instr {
            let i = self.instrs.get(self.pos).copied().unwrap_or(Instr::nop());
            self.pos += 1;
            i
        }
        fn wrong_path_instr(&mut self) -> Instr {
            Instr {
                op: OpClass::IntAlu,
                src1: Some(1),
                ..Instr::nop()
            }
        }
    }

    fn run(core: &mut OooCore, src: &mut dyn InstrSource, ticks: u64) -> RecordingObserver {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = RecordingObserver::default();
        for t in 0..ticks {
            core.tick(t, src, &mut shared, &mut obs);
        }
        obs
    }

    fn alu() -> Instr {
        Instr {
            op: OpClass::IntAlu,
            src1: None,
            ..Instr::nop()
        }
    }

    #[test]
    fn independent_alus_commit_at_full_width() {
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut src = Script::new(vec![alu(); 4000]);
        // Only 3 int-add units, so IPC is bounded by 3, not width 4.
        let obs = run(&mut core, &mut src, 2000);
        assert!(
            core.committed() >= 3 * (2000 - 50),
            "committed {}",
            core.committed()
        );
        assert!(obs.events.iter().all(|e| e.is_well_formed()));
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let chain = Instr {
            op: OpClass::IntAlu,
            src1: Some(1),
            ..Instr::nop()
        };
        let mut src = Script::new(vec![chain; 2000]);
        run(&mut core, &mut src, 1000);
        // A dist-1 chain of 1-cycle ops commits at most 1 per cycle.
        assert!(core.committed() <= 1000);
        assert!(core.committed() >= 900, "committed {}", core.committed());
    }

    #[test]
    fn retire_timestamps_ordered() {
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("hmmer").unwrap();
        let mut src = TraceGenerator::new(p, 3, 0);
        let obs = run(&mut core, &mut src, 20_000);
        assert!(!obs.events.is_empty());
        for ev in &obs.events {
            assert!(ev.is_well_formed(), "{ev:?}");
        }
        // Commit order is monotone.
        for w in obs.events.windows(2) {
            assert!(w[0].commit <= w[1].commit);
        }
    }

    #[test]
    fn mispredicted_branch_costs_cycles_and_spawns_wrong_path() {
        let mk = |mis| {
            let mut v = Vec::new();
            for _ in 0..200 {
                for _ in 0..9 {
                    v.push(alu());
                }
                v.push(Instr {
                    op: OpClass::Branch,
                    src1: Some(1),
                    mispredict: mis,
                    ..Instr::nop()
                });
            }
            v
        };
        let mut good = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut src = Script::new(mk(false));
        run(&mut good, &mut src, 3000);
        let mut bad = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut src = Script::new(mk(true));
        run(&mut bad, &mut src, 3000);
        assert!(
            bad.committed() < good.committed() * 8 / 10,
            "mispredicts should hurt IPC: {} vs {}",
            bad.committed(),
            good.committed()
        );
        assert!(bad.wrong_path_dispatched() > 0);
        assert!(bad.cpi_stack().branch > 0, "branch stall cycles recorded");
        assert_eq!(good.wrong_path_dispatched(), 0);
    }

    #[test]
    fn memory_misses_block_rob_head_and_fill_rob() {
        // Loads over a huge working set with no dependencies: head blocks,
        // ROB fills behind it.
        let mut v = Vec::new();
        for i in 0..3000u64 {
            v.push(Instr {
                op: OpClass::Load,
                src1: None,
                src2: None,
                addr: i * 4096 * 17, // conflict-heavy, far apart
                mispredict: false,
                icache_miss: false,
            });
        }
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut src = Script::new(v);
        run(&mut core, &mut src, 5000);
        let s = core.cpi_stack();
        assert!(s.memory > 0, "memory stall cycles expected, stack {s:?}");
        assert!(core.loads_by_level()[3] > 0, "memory-level loads counted");
    }

    #[test]
    fn icache_misses_stall_frontend() {
        let mut v = Vec::new();
        for i in 0..2000 {
            v.push(Instr {
                icache_miss: i % 10 == 0,
                ..alu()
            });
        }
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut src = Script::new(v);
        run(&mut core, &mut src, 4000);
        assert!(core.icache_misses() > 0);
        assert!(core.cpi_stack().icache > 0);
    }

    #[test]
    fn nops_commit_but_use_no_issue_slots() {
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut src = Script::new(vec![Instr::nop(); 4000]);
        let obs = run(&mut core, &mut src, 1200);
        assert!(core.committed() >= 4 * 1000, "nops flow at full width");
        assert!(obs.events.iter().all(|e| e.op == OpClass::Nop));
    }

    #[test]
    fn half_frequency_core_does_half_the_cycles() {
        let cfg = CoreConfig::big().at_half_frequency();
        let mut core = OooCore::new(cfg, PrivateCacheConfig::default());
        let mut src = Script::new(vec![alu(); 10_000]);
        run(&mut core, &mut src, 2000);
        assert_eq!(core.cycles(), 1000);
    }

    #[test]
    fn reset_pipeline_clears_inflight_state() {
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("milc").unwrap();
        let mut src = TraceGenerator::new(p, 3, 0);
        run(&mut core, &mut src, 5000);
        core.reset_pipeline();
        assert_eq!(core.rob_occupancy(), 0);
        // Core keeps running fine after the reset.
        let committed_before = core.committed();
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = RecordingObserver::default();
        for t in 5000..15_000 {
            core.tick(t, &mut src, &mut shared, &mut obs);
        }
        assert!(core.committed() > committed_before);
    }

    #[test]
    fn cpi_stack_total_matches_cycles() {
        let mut core = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("gcc").unwrap();
        let mut src = TraceGenerator::new(p, 9, 0);
        run(&mut core, &mut src, 30_000);
        assert_eq!(core.cpi_stack().total(), core.cycles());
    }
}
