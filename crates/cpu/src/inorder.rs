//! Cycle-level model of the small in-order core.
//!
//! A 2-wide, 5-stage, stall-on-use in-order pipeline (Table 2). Compared to
//! the big core it exposes far fewer vulnerable bits (no ROB, tiny issue
//! queue, architectural register file only), but executes more slowly — the
//! reliability/performance trade-off the paper's scheduler exploits.
//!
//! # Data-oriented layout
//!
//! The pipeline latch is a flat fixed-capacity ring of [`PipeEntry`]
//! (array-of-structs: at `width * depth = 10` entries the whole ring is a
//! couple of cache lines, so splitting fields into separate arrays would
//! only add address arithmetic — see DESIGN.md §16). Issue is strictly
//! in-order, so the issued entries always form a prefix of the ring;
//! `issued_len` tracks that prefix and replaces the per-cycle
//! first-unissued linear scan in both `issue` and `next_event`.

use crate::config::{CoreConfig, CoreKind};
use crate::cpi::{CpiStack, StallCause};
use crate::events::{RetireEvent, RetireObserver};
use crate::fu::FuPool;
use relsim_mem::{MemLevel, PrivateCacheConfig, PrivateCaches, SharedMem};
use relsim_obs::span::{self, Stage};
use relsim_trace::{Instr, InstrSource, OpClass};

const CP_RING: usize = 256;

#[derive(Debug, Clone, Copy)]
struct PipeEntry {
    instr: Instr,
    seq: u64,
    wrong_path: bool,
    fetch: u64,
    /// Tick at which the instruction has cleared the front-end stages and
    /// may issue.
    avail: u64,
    issue_at: u64,
    finish_at: u64,
    issued: bool,
    mem_level: Option<MemLevel>,
    /// Producer seqs resolved at fetch time (dependency distances are
    /// relative to the fetch-order position of this instruction).
    deps: [Option<u64>; 2],
}

impl PipeEntry {
    fn empty() -> Self {
        PipeEntry {
            instr: Instr::nop(),
            seq: 0,
            wrong_path: false,
            fetch: 0,
            avail: 0,
            issue_at: 0,
            finish_at: 0,
            issued: false,
            mem_level: None,
            deps: [None, None],
        }
    }
}

/// The small in-order core (Table 2 configuration by default).
///
/// # Examples
///
/// ```
/// use relsim_cpu::{CoreConfig, InorderCore, NullObserver};
/// use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
/// use relsim_trace::{spec_profile, TraceGenerator};
///
/// let mut core = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
/// let mut shared = SharedMem::new(SharedMemConfig::default());
/// let mut src = TraceGenerator::new(spec_profile("hmmer").unwrap(), 1, 0);
/// let mut obs = NullObserver;
/// for tick in 0..10_000 {
///     core.tick(tick, &mut src, &mut shared, &mut obs);
/// }
/// assert!(core.committed() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct InorderCore {
    cfg: CoreConfig,
    caches: PrivateCaches,

    // --- Pipeline ring (flat fixed-capacity arena) ---
    //
    // Logical position i lives at slot (pipe_head + i) & slot_mask.
    // Unlike the ROB, in-order seqs are NOT contiguous across a flush
    // (`next_seq` is not rewound), so slots are ring positions, not
    // seq-addressed.
    pipe: Box<[PipeEntry]>,
    slot_mask: usize,
    pipe_head: usize,
    pipe_len: usize,
    /// Issued entries always form a prefix of the ring (issue is strictly
    /// in-order; writeback pops issued heads; flushes remove only
    /// unissued suffixes). Length of that prefix.
    issued_len: usize,
    /// Logical capacity (`width * depth`, may be below the ring's
    /// power-of-two storage).
    pipe_capacity: usize,
    next_seq: u64,
    fu: FuPool,
    sq_used: u32,

    cp_ring: [u64; CP_RING],
    cp_count: u64,

    in_wrong_path: bool,
    fetch_stall_until: u64,
    fetch_stall_icache: bool,
    branch_refill_until: u64,
    /// Misprediction bubble cycles not yet charged to the branch CPI
    /// component (see the same field on `OooCore`).
    branch_debt: u64,
    pending_fetch: Option<Instr>,

    cycles: u64,
    committed: u64,
    wrong_path_fetched: u64,
    icache_misses: u64,
    branch_mispredicts: u64,
    cpi: CpiStack,
    class_counts: [u64; 10],
    loads_by_level: [u64; 4],
}

impl InorderCore {
    /// Build an idle core with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is not an in-order configuration
    /// (`kind == CoreKind::Small`).
    pub fn new(cfg: CoreConfig, cache_cfg: PrivateCacheConfig) -> Self {
        assert_eq!(
            cfg.kind,
            CoreKind::Small,
            "InorderCore requires a small-core config"
        );
        let caches = PrivateCaches::new(cache_cfg, cfg.ticks_per_cycle);
        let pipe_capacity = (cfg.width * cfg.depth) as usize;
        let store = pipe_capacity.next_power_of_two().max(1);
        InorderCore {
            fu: FuPool::new(cfg.fu),
            caches,
            pipe: vec![PipeEntry::empty(); store].into_boxed_slice(),
            slot_mask: store - 1,
            pipe_head: 0,
            pipe_len: 0,
            issued_len: 0,
            pipe_capacity,
            next_seq: 0,
            sq_used: 0,
            cp_ring: [u64::MAX; CP_RING],
            cp_count: 0,
            in_wrong_path: false,
            fetch_stall_until: 0,
            fetch_stall_icache: false,
            branch_refill_until: 0,
            branch_debt: 0,
            pending_fetch: None,
            cycles: 0,
            committed: 0,
            wrong_path_fetched: 0,
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

    /// Correct-path instructions written back so far.
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

    /// Wrong-path instructions fetched so far.
    pub fn wrong_path_fetched(&self) -> u64 {
        self.wrong_path_fetched
    }

    /// Mispredicted branches written back so far.
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

    /// Mutable access to the private caches.
    pub fn caches_mut(&mut self) -> &mut PrivateCaches {
        &mut self.caches
    }

    /// Squash all in-flight state (application migration).
    pub fn reset_pipeline(&mut self) {
        self.pipe_len = 0;
        self.issued_len = 0;
        self.pending_fetch = None;
        self.sq_used = 0;
        self.in_wrong_path = false;
        self.fetch_stall_until = 0;
        self.fetch_stall_icache = false;
        self.branch_refill_until = 0;
        self.branch_debt = 0;
        self.cp_ring = [u64::MAX; CP_RING];
        self.cp_count = 0;
        self.fu.reset();
    }

    /// Ring slot of logical position `i` (0 = oldest).
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.pipe_head + i) & self.slot_mask
    }

    /// Entry at logical position `i`.
    #[inline]
    fn at(&self, i: usize) -> &PipeEntry {
        &self.pipe[self.slot(i)]
    }

    fn pipe_index(&self, seq: u64) -> Option<usize> {
        if self.pipe_len == 0 {
            return None;
        }
        let front = self.at(0).seq;
        if seq < front {
            return None;
        }
        let idx = (seq - front) as usize;
        // Pipe seqs are contiguous (flush removes a suffix, writeback a
        // prefix), so direct indexing is valid — but guard against gaps
        // introduced by flushes followed by new fetches.
        if idx < self.pipe_len && self.at(idx).seq == seq {
            return Some(idx);
        }
        // Fall back to binary search over logical positions (post-flush
        // seq gap).
        let mut lo = 0usize;
        let mut hi = self.pipe_len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.at(mid).seq < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.pipe_len && self.at(lo).seq == seq).then_some(lo)
    }

    /// Resolve a dependency distance against the *current* fetch position.
    /// Must be called at fetch time, before the instruction itself enters
    /// the ring. Returns the producer's seq, or `None` if the producer is
    /// out of the tracking window (treated as already complete).
    fn resolve_producer(&self, d: u16) -> Option<u64> {
        let d = d as u64;
        if d == 0 || d > self.cp_count || d > CP_RING as u64 {
            return None;
        }
        let idx = ((self.cp_count - d) % CP_RING as u64) as usize;
        let seq = self.cp_ring[idx];
        (seq != u64::MAX).then_some(seq)
    }

    /// When is the operand produced by `producer_seq` ready? `None` means
    /// "not determined yet" (producer hasn't issued).
    fn operand_ready_at(&self, producer_seq: u64) -> Option<u64> {
        match self.pipe_index(producer_seq) {
            Some(i) => {
                let p = self.at(i);
                if p.issued {
                    Some(p.finish_at)
                } else {
                    None
                }
            }
            None => Some(0), // already written back
        }
    }

    fn writeback(&mut self, now: u64, shared: &mut SharedMem, obs: &mut dyn RetireObserver) -> u32 {
        let mut n = 0;
        while n < self.cfg.width {
            if self.pipe_len == 0 {
                break;
            }
            let s = self.pipe_head;
            let e = self.pipe[s];
            if !e.issued || e.finish_at > now {
                break;
            }
            self.pipe_head = (self.pipe_head + 1) & self.slot_mask;
            self.pipe_len -= 1;
            self.issued_len -= 1;
            debug_assert!(!e.wrong_path, "wrong-path instruction reached writeback");
            if e.instr.op == OpClass::Store {
                self.sq_used -= 1;
                let _ = self.caches.access_data(e.instr.addr, true, now, shared);
            }
            self.committed += 1;
            self.class_counts[e.instr.op.index()] += 1;
            if e.instr.op == OpClass::Load {
                let li = match e.mem_level {
                    Some(MemLevel::L1) => 0,
                    Some(MemLevel::L2) => 1,
                    Some(MemLevel::L3) => 2,
                    Some(MemLevel::Memory) => 3,
                    None => 0,
                };
                self.loads_by_level[li] += 1;
            }
            if e.instr.op == OpClass::Branch && e.instr.mispredict {
                self.branch_mispredicts += 1;
            }
            obs.on_retire(&RetireEvent {
                op: e.instr.op,
                dispatch: e.fetch,
                issue: e.issue_at,
                finish: e.finish_at,
                commit: now,
                exec_latency: e.instr.exec_latency(),
                has_output: e.instr.has_output(),
            });
            n += 1;
        }
        n
    }

    fn issue(&mut self, now: u64, shared: &mut SharedMem) {
        // Strictly in-order: issued entries form a prefix, so the oldest
        // unissued entry is at logical position `issued_len`. All issued:
        // nothing to select (the FU pool's per-cycle counters are only
        // read via `try_issue` below, so skipping `new_cycle` is
        // unobservable).
        if self.issued_len == self.pipe_len {
            return;
        }
        self.fu.new_cycle();
        let tpc = self.cfg.ticks_per_cycle;
        let mut issued = 0;
        let mut idx = self.issued_len;
        while issued < self.cfg.width && idx < self.pipe_len {
            let e = self.at(idx);
            if e.avail > now {
                break;
            }
            // Operand readiness.
            let r1 = e.deps[0].map(|p| self.operand_ready_at(p));
            let r2 = e.deps[1].map(|p| self.operand_ready_at(p));
            let ready_at = match (r1, r2) {
                (Some(None), _) | (_, Some(None)) => break, // producer not issued
                (a, b) => a.flatten().unwrap_or(0).max(b.flatten().unwrap_or(0)),
            };
            if ready_at > now {
                break;
            }
            let op = self.at(idx).instr.op;
            if op == OpClass::Store && self.sq_used >= self.cfg.sq_size {
                break;
            }
            if op != OpClass::Nop && !self.fu.try_issue(op, now, tpc) {
                break;
            }
            let (finish_at, mem_level) = match op {
                OpClass::Load => {
                    let addr = self.at(idx).instr.addr;
                    let o = self.caches.access_data(addr, false, now + tpc, shared);
                    (o.complete_at, Some(o.level))
                }
                OpClass::Store => {
                    self.sq_used += 1;
                    (now + tpc, None)
                }
                OpClass::Nop => (now + tpc, None),
                _ => (now + self.at(idx).instr.exec_latency() * tpc, None),
            };
            let s = self.slot(idx);
            let e = &mut self.pipe[s];
            e.issued = true;
            e.issue_at = now;
            e.finish_at = finish_at;
            e.mem_level = mem_level;
            let mispredicted = e.instr.mispredict && !e.wrong_path && op == OpClass::Branch;
            self.issued_len += 1;
            if mispredicted {
                // The branch resolves at finish; schedule the flush then.
                // For the short in-order pipeline we flush conservatively at
                // issue+latency by remembering the resolve tick.
                let resolve = finish_at;
                self.flush_after_seq(self.pipe[s].seq, resolve);
            }
            issued += 1;
            idx += 1;
        }
    }

    /// Remove all entries younger than `seq` and redirect fetch at
    /// `resolve`. The removed suffix is always unissued (a mispredicted
    /// branch flushes at its own issue, before anything younger can
    /// issue), so `issued_len` is unaffected.
    fn flush_after_seq(&mut self, seq: u64, resolve: u64) {
        while self.pipe_len > 0 {
            let s = self.slot(self.pipe_len - 1);
            let e = &self.pipe[s];
            if e.seq <= seq {
                break;
            }
            if e.issued && e.instr.op == OpClass::Store {
                self.sq_used -= 1;
            }
            debug_assert!(!e.issued, "flushed a suffix entry that had issued");
            self.pipe_len -= 1;
        }
        debug_assert!(self.issued_len <= self.pipe_len);
        self.pending_fetch = None;
        self.in_wrong_path = false;
        self.fetch_stall_icache = false;
        let tpc = self.cfg.ticks_per_cycle;
        self.fetch_stall_until = self.fetch_stall_until.max(resolve + tpc);
        self.branch_refill_until = resolve + (self.cfg.frontend_delay() + 2) * tpc;
        self.branch_debt = (self.branch_debt + self.cfg.frontend_delay() + 2).min(32);
    }

    /// Fetch into the pipe; see `OooCore::fetch` on why the unconditional
    /// `fetch_stall_icache` clear need not be replayed on dead ticks.
    fn fetch(&mut self, now: u64, src: &mut dyn InstrSource) {
        if now < self.fetch_stall_until {
            return;
        }
        self.fetch_stall_icache = false;
        let tpc = self.cfg.ticks_per_cycle;
        let fe_delay = self.cfg.frontend_delay() * tpc;
        let mut n = 0;
        while n < self.cfg.width && self.pipe_len < self.pipe_capacity {
            let instr = if self.in_wrong_path {
                self.wrong_path_fetched += 1;
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
            let seq = self.next_seq;
            self.next_seq += 1;
            // Resolve producers against the ring *before* this instruction
            // is added to it.
            let deps = [
                instr.src1.and_then(|d| self.resolve_producer(d)),
                instr.src2.and_then(|d| self.resolve_producer(d)),
            ];
            if !wrong_path {
                let idx = (self.cp_count % CP_RING as u64) as usize;
                self.cp_ring[idx] = seq;
                self.cp_count += 1;
            }
            let s = self.slot(self.pipe_len);
            self.pipe[s] = PipeEntry {
                instr,
                seq,
                wrong_path,
                fetch: now,
                avail: now + fe_delay,
                issue_at: now,
                finish_at: u64::MAX,
                issued: false,
                mem_level: None,
                deps,
            };
            self.pipe_len += 1;
            n += 1;
            if is_mispredict {
                self.in_wrong_path = true;
                break;
            }
        }
    }

    fn account_cpi(&mut self, commits: u32, now: u64) {
        if commits > 0 {
            self.cpi.commit_cycle();
            return;
        }
        let cause = if self.pipe_len > 0 {
            let head = &self.pipe[self.pipe_head];
            if head.issued && head.instr.op == OpClass::Load && head.finish_at > now {
                match head.mem_level {
                    Some(MemLevel::Memory) => StallCause::Memory,
                    Some(MemLevel::L3) => StallCause::Llc,
                    _ => StallCause::Resource,
                }
            } else if !head.issued && head.avail > now && now < self.branch_refill_until {
                // The pipeline is refilling after a misprediction flush.
                StallCause::Branch
            } else if self.branch_debt > 0 {
                self.branch_debt -= 1;
                StallCause::Branch
            } else {
                // Stall-on-use: the head (or something before it) is waiting
                // on an outstanding load or a busy unit.
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

    /// Conservative event horizon: the earliest tick strictly after `now`
    /// at which this core's architectural state can change; see
    /// [`OooCore::next_event`](crate::OooCore::next_event) for the
    /// contract. For the in-order pipe the horizon is the min over the
    /// head's writeback time, the issue time of the oldest unissued entry
    /// (front-end `avail`, producer results, unpipelined-divider busy
    /// time), and the end of a fetch stall when the pipe has room.
    pub(crate) fn next_event(&self, now: u64) -> u64 {
        let tpc = self.cfg.ticks_per_cycle;
        let nb = (now / tpc + 1) * tpc;
        // Fetch can make progress at the next boundary.
        if self.pipe_len < self.pipe_capacity && nb >= self.fetch_stall_until {
            return nb;
        }
        let mut h = u64::MAX;
        if self.pipe_len > 0 {
            let head = &self.pipe[self.pipe_head];
            if head.issued {
                h = h.min(head.finish_at);
            }
        }
        // Issue is strictly in-order, so only the oldest unissued entry
        // can change state (issued entries form a prefix of the pipe).
        if self.issued_len < self.pipe_len {
            let e = self.at(self.issued_len);
            // A store blocked on a full SQ can only be unblocked by a
            // store writeback at the pipe head; `sq_used > 0` implies the
            // head is issued, so `head.finish_at` above already bounds it.
            let sq_blocked = e.instr.op == OpClass::Store && self.sq_used >= self.cfg.sq_size;
            if !sq_blocked {
                let mut bound = e.avail;
                let mut unknown = false;
                for dep in e.deps.iter().flatten() {
                    match self.operand_ready_at(*dep) {
                        Some(r) => bound = bound.max(r),
                        // Producer not issued: cannot happen for the
                        // oldest unissued entry, but stay conservative.
                        None => unknown = true,
                    }
                }
                match e.instr.op {
                    OpClass::IntDiv => bound = bound.max(self.fu.int_div_busy_at()),
                    OpClass::FpDiv => bound = bound.max(self.fu.fp_div_busy_at()),
                    _ => {}
                }
                if unknown {
                    return nb;
                }
                h = h.min(bound);
            }
        }
        if self.pipe_len < self.pipe_capacity {
            h = h.min(self.fetch_stall_until);
        }
        if h == u64::MAX {
            return nb; // nothing in flight at all: never skip blind
        }
        h.max(nb)
    }

    /// Charge the dead ticks `[from, to)` in closed form; see
    /// [`OooCore::skip_to`](crate::OooCore::skip_to) for the contract.
    /// Replays the per-cycle stall classification of `account_cpi` as
    /// range arithmetic over the skipped cycle boundaries.
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
        if self.pipe_len > 0 {
            let head = &self.pipe[self.pipe_head];
            if head.issued {
                if head.instr.op == OpClass::Load {
                    // The skip ends no later than head.finish_at, so the
                    // load is outstanding on every skipped cycle.
                    let cause = match head.mem_level {
                        Some(MemLevel::Memory) => StallCause::Memory,
                        Some(MemLevel::L3) => StallCause::Llc,
                        _ => StallCause::Resource,
                    };
                    self.cpi.stall_cycles(cause, n);
                } else {
                    // Issued non-load head: branch debt first, then
                    // stall-on-use resource cycles.
                    let n_debt = n.min(self.branch_debt);
                    self.branch_debt -= n_debt;
                    self.cpi.stall_cycles(StallCause::Branch, n_debt);
                    self.cpi.stall_cycles(StallCause::Resource, n - n_debt);
                }
            } else {
                // Unissued head: cycles before min(avail, refill deadline)
                // are misprediction refill, the rest consume branch debt
                // and then count as resource stalls.
                let t_lim = head.avail.min(self.branch_refill_until);
                let k_b = t_lim.div_ceil(tpc).clamp(a, b);
                let n_refill = k_b - a;
                let rest = n - n_refill;
                let n_debt = rest.min(self.branch_debt);
                self.branch_debt -= n_debt;
                self.cpi.stall_cycles(StallCause::Branch, n_refill + n_debt);
                self.cpi.stall_cycles(StallCause::Resource, rest - n_debt);
            }
        } else {
            // Empty pipe: an I-cache stall window charges ICache, then the
            // wrong-path/refill window charges Branch, then Resource (the
            // empty-pipe path consumes no branch debt).
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

    /// Advance the core by one global tick (no-op between cycle
    /// boundaries; see [`OooCore::tick`](crate::OooCore::tick)).
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
        // One global-flag read per cycle (see OooCore::tick).
        let prof = span::enabled();
        let commits = span::scoped(prof, Stage::Commit, || self.writeback(now, shared, obs));
        span::scoped(prof, Stage::SelectIssue, || self.issue(now, shared));
        span::scoped(prof, Stage::Fetch, || self.fetch(now, src));
        span::scoped(prof, Stage::CpiAccount, || self.account_cpi(commits, now));
    }

    /// Shift every in-flight absolute timestamp forward by `delta` ticks;
    /// see [`OooCore`](crate::OooCore)'s `shift_time` for the rationale.
    fn shift_time(&mut self, start: u64, delta: u64) {
        for i in 0..self.pipe_len {
            let s = (self.pipe_head + i) & self.slot_mask;
            let e = &mut self.pipe[s];
            e.fetch += delta;
            e.issue_at += delta;
            if e.finish_at != u64::MAX {
                e.finish_at += delta;
            }
            if e.avail > start {
                e.avail += delta;
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
    /// without cycle timing; see
    /// [`OooCore::fast_forward`](crate::OooCore::fast_forward).
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

    /// Current pipeline occupancy.
    pub fn pipe_occupancy(&self) -> usize {
        self.pipe_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingObserver;
    use relsim_mem::SharedMemConfig;
    use relsim_trace::TraceGenerator;

    struct Script {
        instrs: Vec<Instr>,
        pos: usize,
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

    fn run(core: &mut InorderCore, src: &mut dyn InstrSource, ticks: u64) -> RecordingObserver {
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
    fn independent_alus_flow_at_width_two() {
        let mut core = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        let mut src = Script {
            instrs: vec![alu(); 5000],
            pos: 0,
        };
        let obs = run(&mut core, &mut src, 2000);
        assert!(
            core.committed() >= 2 * (2000 - 30),
            "committed {}",
            core.committed()
        );
        assert!(obs.events.iter().all(|e| e.is_well_formed()));
    }

    #[test]
    fn stall_on_use_after_long_load() {
        // load (misses to memory) followed immediately by a dependent use:
        // everything behind stalls.
        let mut v = Vec::new();
        for i in 0..200u64 {
            v.push(Instr {
                op: OpClass::Load,
                src1: None,
                src2: None,
                addr: 0x100000 + i * 64 * 997, // big strides: mostly misses
                mispredict: false,
                icache_miss: false,
            });
            v.push(Instr {
                op: OpClass::IntAlu,
                src1: Some(1), // depends on the load
                ..Instr::nop()
            });
        }
        let mut core = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        let mut src = Script { instrs: v, pos: 0 };
        run(&mut core, &mut src, 8000);
        let ipc = core.committed() as f64 / core.cycles() as f64;
        assert!(ipc < 0.5, "stall-on-use should crush IPC, got {ipc}");
        let s = core.cpi_stack();
        assert!(s.resource + s.llc + s.memory > 0);
    }

    #[test]
    fn in_order_issue_never_reorders() {
        let mut core = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("povray").unwrap();
        let mut src = TraceGenerator::new(p, 3, 0);
        let obs = run(&mut core, &mut src, 20_000);
        for w in obs.events.windows(2) {
            assert!(w[0].issue <= w[1].issue, "issue must be in order");
            assert!(w[0].commit <= w[1].commit);
        }
    }

    #[test]
    fn small_core_slower_than_big_core_on_same_trace() {
        use crate::ooo::OooCore;
        let p = relsim_trace::spec_profile("hmmer").unwrap();
        let mut big = OooCore::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut small = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        let mut src_b = TraceGenerator::new(p.clone(), 3, 0);
        let mut src_s = TraceGenerator::new(p, 3, 0);
        let mut shared_b = SharedMem::new(SharedMemConfig::default());
        let mut shared_s = SharedMem::new(SharedMemConfig::default());
        let mut obs = crate::events::NullObserver;
        for t in 0..50_000 {
            big.tick(t, &mut src_b, &mut shared_b, &mut obs);
            small.tick(t, &mut src_s, &mut shared_s, &mut obs);
        }
        assert!(
            big.committed() as f64 > 1.3 * small.committed() as f64,
            "big {} vs small {}",
            big.committed(),
            small.committed()
        );
    }

    #[test]
    fn mispredicts_flush_and_cost_cycles() {
        let mk = |mis| {
            let mut v = Vec::new();
            for _ in 0..400 {
                for _ in 0..4 {
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
        let mut good = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        run(
            &mut good,
            &mut Script {
                instrs: mk(false),
                pos: 0,
            },
            3000,
        );
        let mut bad = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        run(
            &mut bad,
            &mut Script {
                instrs: mk(true),
                pos: 0,
            },
            3000,
        );
        assert!(bad.committed() < good.committed());
        assert!(bad.cpi_stack().branch > 0);
        assert!(bad.wrong_path_fetched() > 0);
    }

    #[test]
    fn reset_pipeline_supports_migration() {
        let mut core = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("milc").unwrap();
        let mut src = TraceGenerator::new(p, 1, 0);
        run(&mut core, &mut src, 3000);
        core.reset_pipeline();
        assert_eq!(core.pipe_occupancy(), 0);
        let before = core.committed();
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = crate::events::NullObserver;
        for t in 3000..9000 {
            core.tick(t, &mut src, &mut shared, &mut obs);
        }
        assert!(core.committed() > before);
    }

    #[test]
    fn cpi_stack_total_matches_cycles() {
        let mut core = InorderCore::new(CoreConfig::small(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("gcc").unwrap();
        let mut src = TraceGenerator::new(p, 9, 0);
        run(&mut core, &mut src, 30_000);
        assert_eq!(core.cpi_stack().total(), core.cycles());
    }
}
