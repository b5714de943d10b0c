//! Hierarchical span tracing and the stage-level self-profiler.
//!
//! The detailed engine is the repo's wall-time sink, but until this module
//! existed nothing could say *which stage* of it dominates. Spans answer
//! that with two coordinated views:
//!
//! 1. **Self-time profile**: every `enter`/`exit` boundary charges the
//!    wall time since the previous boundary to the stage on top of the
//!    thread's span stack. Self-times are therefore an *exact partition*
//!    of the instrumented region — summing the per-stage totals
//!    reconstructs the region's wall time with no double counting, which
//!    is what lets the profiler attribute ≥99.5% of a run's wall time,
//!    from `System::new` to the last metric, to named stages. Totals are
//!    kept per `(core, stage)` (see [`set_core`]) plus a log2 histogram
//!    of span durations per stage.
//! 2. **Trace records**: coarse stages (set-up, segments, sampling
//!    windows, scheduler calls, pool jobs, cache traffic, metrics)
//!    additionally push a [`SpanRecord`] on exit, exportable as a Chrome
//!    trace-event JSON (see [`crate::chrome`]). Hot per-tick stages never
//!    record individual spans — a million-tick run would produce an
//!    unloadable trace — instead [`exit_with_rollup`] synthesizes one
//!    back-to-back child span per hot stage when a sampling window closes.
//!
//! # Cost contract
//!
//! Everything is off by default. The disabled path of every entry point
//! is one `Relaxed` atomic load and a predictable branch; hot loops hoist
//! even that by reading [`enabled`] once per tick and branching on the
//! local bool (see [`scoped`]). The enabled path costs one `Instant`
//! read per boundary (~20-25 ns), so profiled runs are expected to be
//! roughly 1.5-2x slower than unprofiled ones — acceptable for a
//! measurement run, never paid by default.
//!
//! State is thread-local; the parallel pool drains each worker's state at
//! job boundaries ([`drain_into`]) and merges the results in grid order,
//! so profiles and traces honour the determinism contract structurally
//! (timestamps are wall times and are normalized on export).

use crate::recorder::{Histogram, Recorder};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One instrumented stage. Hot stages (`is_hot() == true`) are per-tick
/// engine stages that only accumulate self-time; coarse stages also emit
/// one [`SpanRecord`] per span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    // Hot per-tick engine stages (accumulate only).
    /// Instruction fetch, including the L1I walk it triggers.
    Fetch,
    /// Rename + dispatch into the ROB/IQ (big core only).
    RenameDispatch,
    /// Waking dependents when results finish (big core only).
    Wakeup,
    /// Select + issue to functional units, including load cache access.
    SelectIssue,
    /// Functional-unit completion processing.
    FuExecute,
    /// Memory hierarchy walk (L1/L2/L3/DRAM) for data accesses.
    MemWalk,
    /// In-order commit / writeback, including store drain.
    Commit,
    /// Per-cycle CPI-stack accounting.
    CpiAccount,
    /// Event-horizon bookkeeping: `next_event` scans and `skip_to` jumps.
    SkipBookkeeping,
    /// Residual per-tick loop control in `System::run_traced` (cycle
    /// gating, stall checks, window bookkeeping) outside any finer stage.
    TickLoop,
    /// Functional fast-forward warming between detailed windows.
    FfWarm,
    // Coarse stages (accumulate + one trace record per span).
    /// One scheduling quantum end to end.
    Segment,
    /// One detailed (cycle-level) sampling window.
    DetailedWindow,
    /// One functional fast-forward window.
    FfWindow,
    /// Scheduler work: `next_segment` decisions and `observe` calls.
    Scheduler,
    /// Applying migrations at a quantum boundary.
    Migration,
    /// One job's lifetime inside the parallel experiment pool.
    PoolJob,
    /// Result-cache key lookup (memory + disk tiers).
    CacheLookup,
    /// Writing a freshly computed bundle into the result cache.
    CacheStore,
    /// Building a `System`: cores, counters, trace generators and the
    /// closed-form cache warm-up.
    Setup,
    /// End-of-run evaluation: fault classification, result assembly,
    /// SSER/STP metrics and the power model.
    Metrics,
}

/// Every stage, in the fixed order used for drains and reports.
pub const STAGES: [Stage; 21] = [
    Stage::Fetch,
    Stage::RenameDispatch,
    Stage::Wakeup,
    Stage::SelectIssue,
    Stage::FuExecute,
    Stage::MemWalk,
    Stage::Commit,
    Stage::CpiAccount,
    Stage::SkipBookkeeping,
    Stage::TickLoop,
    Stage::FfWarm,
    Stage::Segment,
    Stage::DetailedWindow,
    Stage::FfWindow,
    Stage::Scheduler,
    Stage::Migration,
    Stage::PoolJob,
    Stage::CacheLookup,
    Stage::CacheStore,
    Stage::Setup,
    Stage::Metrics,
];

const NUM_STAGES: usize = STAGES.len();

impl Stage {
    /// Stable snake_case name used in metrics, manifests, and traces.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::RenameDispatch => "rename_dispatch",
            Stage::Wakeup => "wakeup",
            Stage::SelectIssue => "select_issue",
            Stage::FuExecute => "fu_execute",
            Stage::MemWalk => "mem_walk",
            Stage::Commit => "commit",
            Stage::CpiAccount => "cpi_account",
            Stage::SkipBookkeeping => "skip_bookkeeping",
            Stage::TickLoop => "tick_loop",
            Stage::FfWarm => "ff_warm",
            Stage::Segment => "segment",
            Stage::DetailedWindow => "detailed_window",
            Stage::FfWindow => "ff_window",
            Stage::Scheduler => "scheduler",
            Stage::Migration => "migration",
            Stage::PoolJob => "pool_job",
            Stage::CacheLookup => "cache_lookup",
            Stage::CacheStore => "cache_store",
            Stage::Setup => "setup",
            Stage::Metrics => "metrics",
        }
    }

    /// Whether this is a hot per-tick stage (accumulate-only; no
    /// individual trace records — see [`exit_with_rollup`]).
    pub fn is_hot(self) -> bool {
        (self as usize) <= (Stage::FfWarm as usize)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One completed coarse span, ready for Chrome-trace export. Timestamps
/// are nanoseconds relative to the process-wide epoch (first span use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The stage this span instrumented.
    pub stage: Stage,
    /// Start time, nanoseconds since the span epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A named sequence of span records from one logical thread of work (the
/// main run, or one pool job). The Chrome export maps each to a `tid`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanThread {
    /// Display name, e.g. `"main"` or `"job3"`.
    pub name: String,
    /// Records in completion order (children before parents).
    pub records: Vec<SpanRecord>,
}

/// Master switch: true when profiling and/or tracing is on. This is the
/// only thing hot paths read.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether coarse spans should collect trace records (implies profiling).
static TRACING: AtomicBool = AtomicBool::new(false);

/// Process-wide time origin for span timestamps, fixed on first use so
/// records from different threads share one clock.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn the stage profiler on or off process-wide. Call before spawning
/// pool workers (like `relsim::pool::set_default_jobs`).
pub fn set_profiling(on: bool) {
    if !on {
        TRACING.store(false, Ordering::SeqCst);
    }
    ENABLED.store(on || TRACING.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Turn span trace-record collection on or off process-wide. Tracing
/// implies profiling (self-times feed the window rollups).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::SeqCst);
    if on {
        ENABLED.store(true, Ordering::SeqCst);
    }
}

/// Whether any span work is enabled. Hot loops read this once per tick
/// and pass the bool to [`scoped`].
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether trace records are being collected.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Per-thread span state.
struct ThreadState {
    /// Open spans: (stage, start_ns, rollup base index or usize::MAX).
    stack: Vec<(Stage, u64, usize)>,
    /// Time of the last enter/exit boundary, for self-time charging.
    last_boundary_ns: u64,
    /// Allocation count at the last enter/exit boundary (see
    /// [`crate::alloc::alloc_count`]; stays 0 without an installed
    /// counting allocator).
    last_boundary_allocs: u64,
    /// Current core slot: 0 = no core ("host"), i+1 = core i.
    core_slot: usize,
    /// Self-time ns per (core slot, stage), grown on demand.
    self_ns: Vec<[u64; NUM_STAGES]>,
    /// Heap-allocation events per (core slot, stage), charged at the
    /// same boundaries as `self_ns`. All zero unless the binary installs
    /// [`crate::alloc::CountingAlloc`], in which case each stage's count
    /// answers "does this stage allocate in steady state?".
    self_allocs: Vec<[u64; NUM_STAGES]>,
    /// Span-duration histogram per stage.
    hist: Vec<Histogram>,
    /// Completed coarse-span records, in completion order.
    records: Vec<SpanRecord>,
    /// Rollup snapshots (summed self-time per stage) for open windows.
    rollup_bases: Vec<[u64; NUM_STAGES]>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            stack: Vec::with_capacity(16),
            last_boundary_ns: 0,
            last_boundary_allocs: 0,
            core_slot: 0,
            self_ns: vec![[0; NUM_STAGES]],
            self_allocs: vec![[0; NUM_STAGES]],
            hist: vec![Histogram::new(); NUM_STAGES],
            records: Vec::new(),
            rollup_bases: Vec::new(),
        }
    }

    #[inline]
    fn charge_to_top(&mut self, now: u64) {
        let allocs = crate::alloc::alloc_count();
        if let Some(&(top, _, _)) = self.stack.last() {
            let dt = now.saturating_sub(self.last_boundary_ns);
            self.self_ns[self.core_slot][top.index()] += dt;
            let da = allocs.saturating_sub(self.last_boundary_allocs);
            self.self_allocs[self.core_slot][top.index()] += da;
        }
        self.last_boundary_ns = now;
        self.last_boundary_allocs = allocs;
    }

    /// Charge elapsed time and allocation events since the last boundary
    /// to `stage` (the span being exited). Reads the allocation counter
    /// before any profiler-internal bookkeeping so the profiler's own
    /// pushes are not charged to the stage.
    #[inline]
    fn charge_exit(&mut self, now: u64, stage: Stage) {
        let allocs = crate::alloc::alloc_count();
        let dt = now.saturating_sub(self.last_boundary_ns);
        let slot = self.core_slot;
        self.self_ns[slot][stage.index()] += dt;
        let da = allocs.saturating_sub(self.last_boundary_allocs);
        self.self_allocs[slot][stage.index()] += da;
        self.last_boundary_ns = now;
        self.last_boundary_allocs = allocs;
    }

    /// Summed self-time per stage across all core slots.
    fn totals(&self) -> [u64; NUM_STAGES] {
        let mut out = [0u64; NUM_STAGES];
        for per_core in &self.self_ns {
            for (o, v) in out.iter_mut().zip(per_core.iter()) {
                *o += v;
            }
        }
        out
    }
}

thread_local! {
    static STATE: std::cell::RefCell<ThreadState> =
        std::cell::RefCell::new(ThreadState::new());
}

/// Set the core the current thread is simulating, so self-times can be
/// attributed per core. Pass `None` between cores (scheduler, windows).
#[inline]
pub fn set_core(core: Option<usize>) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let slot = core.map(|c| c + 1).unwrap_or(0);
        while st.self_ns.len() <= slot {
            st.self_ns.push([0; NUM_STAGES]);
            st.self_allocs.push([0; NUM_STAGES]);
        }
        st.core_slot = slot;
    });
}

/// Open a span for `stage`. Must be paired with [`exit`] on the same
/// thread, in LIFO order.
#[inline]
pub fn enter(stage: Stage) {
    if !enabled() {
        return;
    }
    enter_enabled(stage);
}

fn enter_enabled(stage: Stage) {
    let now = now_ns();
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        st.charge_to_top(now);
        st.stack.push((stage, now, usize::MAX));
    });
}

/// Open a window span (detailed or fast-forward) whose [`exit_with_rollup`]
/// will synthesize child spans for the hot stages that ran inside it.
pub fn enter_window(stage: Stage) {
    if !enabled() {
        return;
    }
    let now = now_ns();
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        st.charge_to_top(now);
        let totals = st.totals();
        st.rollup_bases.push(totals);
        let base = st.rollup_bases.len() - 1;
        st.stack.push((stage, now, base));
    });
}

/// Close the innermost span, which must be for `stage`. Charges the time
/// since the last boundary to `stage`, observes the span duration in the
/// stage histogram, and — for coarse stages when tracing — pushes a
/// [`SpanRecord`].
#[inline]
pub fn exit(stage: Stage) {
    if !enabled() {
        return;
    }
    exit_enabled(stage);
}

fn exit_enabled(stage: Stage) {
    let now = now_ns();
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let Some((top, start_ns, _)) = st.stack.pop() else {
            debug_assert!(false, "span::exit({stage:?}) with empty stack");
            return;
        };
        debug_assert_eq!(top, stage, "span::exit out of order");
        st.charge_exit(now, top);
        st.hist[top.index()].observe(now.saturating_sub(start_ns));
        if !top.is_hot() && tracing() {
            st.records.push(SpanRecord {
                stage: top,
                start_ns,
                dur_ns: now.saturating_sub(start_ns),
            });
        }
    });
}

/// Close a window opened with [`enter_window`]. In addition to the normal
/// [`exit`] work, when tracing it synthesizes one child record per hot
/// stage from the self-time accumulated inside the window, laid
/// back-to-back from the window start (children are appended before the
/// window's own record, preserving completion order). Because self-times
/// partition wall time, the children always fit inside the window span.
pub fn exit_with_rollup(stage: Stage) {
    if !enabled() {
        return;
    }
    let now = now_ns();
    STATE.with(|s| {
        let mut st = s.borrow_mut();
        let Some((top, start_ns, base)) = st.stack.pop() else {
            debug_assert!(false, "span::exit_with_rollup({stage:?}) with empty stack");
            return;
        };
        debug_assert_eq!(top, stage, "span::exit_with_rollup out of order");
        st.charge_exit(now, top);
        st.hist[top.index()].observe(now.saturating_sub(start_ns));
        let baseline = if base != usize::MAX {
            st.rollup_bases.truncate(base + 1);
            st.rollup_bases.pop()
        } else {
            None
        };
        if tracing() {
            if let Some(baseline) = baseline {
                let totals = st.totals();
                let mut cursor = start_ns;
                for st_stage in STAGES.iter().copied().filter(|s| s.is_hot()) {
                    let d = totals[st_stage.index()] - baseline[st_stage.index()];
                    if d == 0 {
                        continue;
                    }
                    st.records.push(SpanRecord {
                        stage: st_stage,
                        start_ns: cursor,
                        dur_ns: d,
                    });
                    cursor += d;
                }
            }
            st.records.push(SpanRecord {
                stage: top,
                start_ns,
                dur_ns: now.saturating_sub(start_ns),
            });
        }
    });
}

/// Run `f` inside a span for `stage` iff `active` — the hot-loop form:
/// read [`enabled`] once per tick, then branch on the local bool here.
#[inline(always)]
pub fn scoped<R>(active: bool, stage: Stage, f: impl FnOnce() -> R) -> R {
    if active {
        enter_enabled(stage);
    }
    let out = f();
    if active {
        exit_enabled(stage);
    }
    out
}

/// Run `f` inside a span for `stage`, checking the global flag itself.
/// For coarse, infrequent call sites (scheduler, cache, pool).
#[inline]
pub fn scope<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    scoped(enabled(), stage, f)
}

/// Clear the calling thread's span state (open stack, accumulators,
/// records). The pool calls this at job start so a panicked predecessor
/// can't leak half-open spans into the next job's profile.
pub fn reset_thread() {
    STATE.with(|s| {
        *s.borrow_mut() = ThreadState::new();
    });
}

/// Drain the calling thread's span state: fold self-times and duration
/// histograms into `recorder` under `prof.*` names, and append the
/// collected trace records to `records`. The thread state is reset.
///
/// Metric names: `prof.host.<stage>.self_ns` for time outside any core
/// context, `prof.core<i>.<stage>.self_ns` for time attributed to core
/// `i`, `prof.<slot>.<stage>.self_allocs` for heap-allocation events
/// charged at the same boundaries (nonzero only under an installed
/// [`crate::alloc::CountingAlloc`]), and one `prof.<stage>.span_ns`
/// histogram per stage. Only nonzero entries are registered, in fixed
/// (slot, stage) order, so merged registries stay deterministic.
pub fn drain_into(recorder: &mut Recorder, records: &mut Vec<SpanRecord>) {
    let st = STATE.with(|s| std::mem::replace(&mut *s.borrow_mut(), ThreadState::new()));
    debug_assert!(
        st.stack.is_empty(),
        "draining with open spans: {:?}",
        st.stack
    );
    for (slot, per_core) in st.self_ns.iter().enumerate() {
        for stage in STAGES {
            let ns = per_core[stage.index()];
            if ns == 0 {
                continue;
            }
            let name = if slot == 0 {
                format!("prof.host.{}.self_ns", stage.name())
            } else {
                format!("prof.core{}.{}.self_ns", slot - 1, stage.name())
            };
            let id = recorder.counter(&name);
            recorder.add(id, ns);
        }
    }
    // Allocation counts, in the same fixed (slot, stage) order. These are
    // all zero — and hence absent — unless the binary installed
    // `crate::alloc::CountingAlloc` as its global allocator.
    for (slot, per_core) in st.self_allocs.iter().enumerate() {
        for stage in STAGES {
            let count = per_core[stage.index()];
            if count == 0 {
                continue;
            }
            let name = if slot == 0 {
                format!("prof.host.{}.self_allocs", stage.name())
            } else {
                format!("prof.core{}.{}.self_allocs", slot - 1, stage.name())
            };
            let id = recorder.counter(&name);
            recorder.add(id, count);
        }
    }
    for stage in STAGES {
        let h = &st.hist[stage.index()];
        if h.count() == 0 {
            continue;
        }
        let id = recorder.histogram(&format!("prof.{}.span_ns", stage.name()));
        recorder.fold_histogram(id, h);
    }
    records.extend(st.records);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize the tests that flip the process-global flags.
    fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn drained() -> (Recorder, Vec<SpanRecord>) {
        let mut rec = Recorder::new();
        let mut records = Vec::new();
        drain_into(&mut rec, &mut records);
        (rec, records)
    }

    #[test]
    fn disabled_spans_are_free_and_stateless() {
        let _g = flag_guard();
        set_profiling(false);
        reset_thread();
        enter(Stage::Fetch);
        exit(Stage::Fetch);
        let v = scoped(enabled(), Stage::Commit, || 7);
        assert_eq!(v, 7);
        let (rec, records) = drained();
        assert!(rec.snapshot().counters.is_empty());
        assert!(records.is_empty());
    }

    #[test]
    fn self_time_partitions_nested_spans() {
        let _g = flag_guard();
        set_profiling(true);
        reset_thread();
        enter(Stage::Segment);
        std::thread::sleep(std::time::Duration::from_millis(2));
        enter(Stage::Scheduler);
        std::thread::sleep(std::time::Duration::from_millis(2));
        exit(Stage::Scheduler);
        std::thread::sleep(std::time::Duration::from_millis(2));
        exit(Stage::Segment);
        set_profiling(false);
        let (rec, _) = drained();
        let snap = rec.snapshot();
        let seg = snap.counter("prof.host.segment.self_ns").unwrap();
        let sched = snap.counter("prof.host.scheduler.self_ns").unwrap();
        // Each stage saw ~2ms (segment: 2 x 2ms) of *self* time; the
        // scheduler time must not be double counted into the segment.
        assert!(sched >= 1_000_000, "scheduler self {sched}ns");
        assert!(seg >= 2_000_000, "segment self {seg}ns");
        // The segment span duration covers everything.
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "prof.segment.span_ns")
            .unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= seg + sched, "span {} >= {}", h.max, seg + sched);
    }

    #[test]
    fn per_core_attribution_follows_set_core() {
        let _g = flag_guard();
        set_profiling(true);
        reset_thread();
        set_core(Some(2));
        enter(Stage::Fetch);
        std::thread::sleep(std::time::Duration::from_millis(1));
        exit(Stage::Fetch);
        set_core(None);
        enter(Stage::Scheduler);
        exit(Stage::Scheduler);
        set_profiling(false);
        let (rec, _) = drained();
        let snap = rec.snapshot();
        assert!(snap.counter("prof.core2.fetch.self_ns").unwrap() >= 500_000);
        assert!(snap.counter("prof.host.scheduler.self_ns").is_some());
        assert!(snap.counter("prof.core0.fetch.self_ns").is_none());
    }

    #[test]
    fn hot_stages_record_no_spans_coarse_stages_do() {
        let _g = flag_guard();
        set_tracing(true);
        reset_thread();
        enter(Stage::Segment);
        for _ in 0..100 {
            enter(Stage::Fetch);
            exit(Stage::Fetch);
        }
        enter(Stage::Scheduler);
        exit(Stage::Scheduler);
        exit(Stage::Segment);
        set_tracing(false);
        set_profiling(false);
        let (_, records) = drained();
        let names: Vec<&str> = records.iter().map(|r| r.stage.name()).collect();
        // Completion order: scheduler closes before segment; no fetch.
        assert_eq!(names, ["scheduler", "segment"]);
        // Nesting: scheduler inside segment.
        let seg = &records[1];
        let sched = &records[0];
        assert!(sched.start_ns >= seg.start_ns);
        assert!(sched.start_ns + sched.dur_ns <= seg.start_ns + seg.dur_ns);
    }

    #[test]
    fn window_rollup_synthesizes_nested_children() {
        let _g = flag_guard();
        set_tracing(true);
        reset_thread();
        enter_window(Stage::DetailedWindow);
        for _ in 0..50 {
            enter(Stage::Fetch);
            exit(Stage::Fetch);
            enter(Stage::Commit);
            exit(Stage::Commit);
        }
        exit_with_rollup(Stage::DetailedWindow);
        set_tracing(false);
        set_profiling(false);
        let (_, records) = drained();
        let win = records.last().unwrap();
        assert_eq!(win.stage, Stage::DetailedWindow);
        let children = &records[..records.len() - 1];
        assert!(!children.is_empty(), "rollup produced no children");
        let mut cursor = win.start_ns;
        for c in children {
            assert!(c.stage.is_hot());
            assert_eq!(c.start_ns, cursor, "children are back-to-back");
            cursor += c.dur_ns;
        }
        assert!(
            cursor <= win.start_ns + win.dur_ns,
            "children spill past the window: {} > {}",
            cursor,
            win.start_ns + win.dur_ns
        );
    }

    #[test]
    fn span_timestamps_are_monotonic() {
        let _g = flag_guard();
        set_tracing(true);
        reset_thread();
        let mut last = 0;
        for _ in 0..5 {
            enter(Stage::Segment);
            exit(Stage::Segment);
        }
        set_tracing(false);
        set_profiling(false);
        let (_, records) = drained();
        assert_eq!(records.len(), 5);
        for r in &records {
            assert!(r.start_ns >= last, "monotonic starts");
            last = r.start_ns;
        }
    }

    #[test]
    fn reset_thread_discards_open_state() {
        let _g = flag_guard();
        set_profiling(true);
        reset_thread();
        enter(Stage::PoolJob); // never exited — simulates a panicked job
        reset_thread();
        set_profiling(false);
        let (rec, records) = drained();
        assert!(rec.snapshot().counters.is_empty());
        assert!(records.is_empty());
    }

    #[test]
    fn drain_registers_fixed_order_and_resets() {
        let _g = flag_guard();
        set_profiling(true);
        reset_thread();
        set_core(Some(0));
        scoped(true, Stage::Commit, || {});
        scoped(true, Stage::Fetch, || {});
        set_core(None);
        set_profiling(false);
        let (rec, _) = drained();
        let names: Vec<&str> = rec
            .snapshot()
            .counters
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.contains("core0"))
            .map(|n| {
                if n.contains("fetch") {
                    "fetch"
                } else {
                    "commit"
                }
            })
            .collect();
        // Fixed STAGES order regardless of observation order.
        assert_eq!(names, ["fetch", "commit"]);
        // Second drain is empty.
        let (rec2, rec2_records) = drained();
        assert!(rec2.snapshot().counters.is_empty());
        assert!(rec2_records.is_empty());
    }
}
