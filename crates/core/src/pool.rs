//! Std-only work-stealing job pool for the experiment grid.
//!
//! Every figure in the evaluation is an embarrassingly parallel grid of
//! independent simulations (mix × scheduler × seed). This module shards
//! such a grid across OS threads without pulling in an external runtime
//! (the workspace is offline and vendored), while keeping the output a
//! deterministic function of the inputs:
//!
//! * each job runs with its own [`RunObs`] (buffered event sink, private
//!   recorder), so workers never contend on shared observability state;
//! * at the barrier, per-job observations are merged back into the
//!   caller's [`RunObs`] in grid order — events replay in the order a
//!   serial run would have emitted them, counters add, and gauges take
//!   the last (grid-order) value. `-j8` output is therefore
//!   byte-identical to `-j1`;
//! * a panicking job is caught ([`std::panic::catch_unwind`]), logged as
//!   a structured [`Event::JobFailed`] at its grid position, and recorded
//!   for end-of-run reporting via [`take_failures`] — the other workers
//!   keep going.
//!
//! Scheduling is work-stealing over per-worker deques: jobs are dealt
//! round-robin, each worker pops from the front of its own queue and
//! steals from the back of its neighbours' when it runs dry. Because the
//! whole grid is enqueued before the workers start and jobs never spawn
//! jobs, an empty sweep over every queue means the grid is drained.

use relsim_cache::Key;
use relsim_obs::span::{self, Stage};
use relsim_obs::{Event, RunObs, SpanThread};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide default worker count; 0 means "ask the OS".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the default worker count used by [`scatter_map`] /
/// [`scatter_map_into`]. `0` restores the automatic default
/// (available parallelism). Binaries call this once from `--jobs`.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::SeqCst);
}

/// The worker count the pool will use: the value set via
/// [`set_default_jobs`], or the machine's available parallelism.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// One caught job panic, reported at the end of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Grid index of the failed job.
    pub index: usize,
    /// `label[index]` of the scatter call that ran it.
    pub label: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

/// Failures accumulated across every scatter call in this process.
static FAILURES: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());

/// Acquire a pool mutex, recovering from poisoning instead of
/// panicking. Job panics are caught inside [`catch_unwind`] before any
/// of these locks is held, so poison here means a panic at an unrelated
/// point (e.g. an allocation failure); every guarded value is valid at
/// each instruction boundary, and a long-lived host (`relsim-serve`)
/// must keep scattering after one job thread dies.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drain the failures recorded since the last call. Binaries report
/// these at the end of the run and exit nonzero if any occurred.
pub fn take_failures() -> Vec<JobFailure> {
    std::mem::take(&mut lock_recover(&FAILURES))
}

/// Outcome of one job, in a `Send`-safe deconstructed form (the job's
/// `RunObs` holds a `Box<dyn EventSink>`, which is not `Send`).
struct Done<T> {
    result: Result<T, String>,
    events: Vec<Event>,
    obs: relsim_obs::Recorder,
    spans: Vec<relsim_obs::SpanRecord>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_one<I, T>(
    index: usize,
    item: I,
    buffer: bool,
    f: &(impl Fn(usize, I, &mut RunObs) -> T + Sync),
) -> Done<T> {
    let mut job_obs = if buffer {
        RunObs::buffered()
    } else {
        RunObs::disabled()
    };
    // A previous job on this worker may have panicked mid-span; start
    // from clean thread-local profiler state.
    span::reset_thread();
    let result = catch_unwind(AssertUnwindSafe(|| {
        span::scope(Stage::PoolJob, || f(index, item, &mut job_obs))
    }))
    .map_err(|e| panic_message(e.as_ref()));
    let events = job_obs.sink.take_events().unwrap_or_default();
    let mut spans = Vec::new();
    if result.is_ok() {
        span::drain_into(&mut job_obs.recorder, &mut spans);
    } else {
        // A panic unwound past open spans; their state is unusable.
        span::reset_thread();
    }
    Done {
        result,
        events,
        obs: job_obs.recorder,
        spans,
    }
}

/// Pop the next job for worker `w`: own queue first (front), then steal
/// from the back of the other workers' queues.
fn next_job<I>(queues: &[Mutex<VecDeque<(usize, I)>>], w: usize) -> Option<(usize, I)> {
    if let Some(job) = lock_recover(&queues[w]).pop_front() {
        return Some(job);
    }
    for k in 1..queues.len() {
        let victim = (w + k) % queues.len();
        if let Some(job) = lock_recover(&queues[victim]).pop_back() {
            return Some(job);
        }
    }
    None
}

/// Run `f` over `items` on `jobs` workers, observing each job through its
/// own buffered [`RunObs`] and merging everything into `obs` in item
/// order. Returns one slot per item: `Some(output)` on success, `None`
/// for a job that panicked (also reported via [`Event::JobFailed`], a
/// `warn!` line, and [`take_failures`]).
pub fn scatter_map_into_with_jobs<I, T, F>(
    label: &str,
    items: Vec<I>,
    obs: &mut RunObs,
    jobs: usize,
    f: F,
) -> Vec<Option<T>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I, &mut RunObs) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    // Flush the caller's own pending spans before any job runs: the
    // jobs==1 path reuses this thread's span state (resetting it per
    // job), so main-thread spans recorded since the last flush would
    // otherwise be destroyed at -j1 but survive at -jN — absorbing
    // them here, at the same program point for every worker count,
    // keeps `--trace-spans` output identical at any `-jN`.
    obs.absorb_spans("main");
    // Buffering events only pays off if someone will read them.
    let buffer = !obs.sink.is_null();

    let queues: Vec<Mutex<VecDeque<(usize, I)>>> =
        (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        lock_recover(&queues[i % jobs]).push_back((i, item));
    }
    let slots: Vec<Mutex<Option<Done<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    if jobs == 1 {
        // Inline path: same per-job observation and panic isolation,
        // no threads.
        while let Some((i, item)) = next_job(&queues, 0) {
            *lock_recover(&slots[i]) = Some(run_one(i, item, buffer, &f));
        }
    } else {
        std::thread::scope(|s| {
            for w in 0..jobs {
                let queues = &queues;
                let slots = &slots;
                let f = &f;
                s.spawn(move || {
                    while let Some((i, item)) = next_job(queues, w) {
                        *lock_recover(&slots[i]) = Some(run_one(i, item, buffer, f));
                    }
                });
            }
        });
    }

    // Barrier: merge per-job observations back in grid order.
    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        let done = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("every job runs exactly once");
        out.push(merge_done(label, i, done, obs));
    }
    out
}

/// Merge one finished job into the caller's observer (events in order,
/// counters added, spans appended) and convert its outcome: `Some` on
/// success, `None` for a panic (warned, evented, registered).
fn merge_done<T>(label: &str, i: usize, done: Done<T>, obs: &mut RunObs) -> Option<T> {
    for e in &done.events {
        obs.sink.emit(e);
    }
    obs.recorder.merge(&done.obs);
    if !done.spans.is_empty() {
        // Grid order, not worker order: the trace is a deterministic
        // function of the inputs at any `-jN`.
        obs.spans.push(SpanThread {
            name: format!("job{i}"),
            records: done.spans,
        });
    }
    match done.result {
        Ok(t) => Some(t),
        Err(message) => {
            let job_label = format!("{label}[{i}]");
            relsim_obs::warn!("job {job_label} panicked: {message}");
            obs.emit(Event::JobFailed {
                tick: 0,
                job: i as u64,
                label: job_label.clone(),
                error: message.clone(),
            });
            lock_recover(&FAILURES).push(JobFailure {
                index: i,
                label: job_label,
                message,
            });
            None
        }
    }
}

/// [`scatter_map_into_with_jobs`] at the process default worker count.
pub fn scatter_map_into<I, T, F>(
    label: &str,
    items: Vec<I>,
    obs: &mut RunObs,
    f: F,
) -> Vec<Option<T>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I, &mut RunObs) -> T + Sync,
{
    scatter_map_into_with_jobs(label, items, obs, default_jobs(), f)
}

/// Scatter without observability: jobs still run isolated and panics are
/// still caught/reported, but events and counters are discarded.
pub fn scatter_map<I, T, F>(label: &str, items: Vec<I>, f: F) -> Vec<Option<T>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let mut obs = RunObs::disabled();
    scatter_map_into(label, items, &mut obs, |i, item, _| f(i, item))
}

/// [`scatter_map_into_with_jobs`] routed through the content-addressed
/// result cache. Each item carries an optional [`Key`]; keyed items are
/// served via [`crate::cache::run_keyed`] (hit → replay the stored
/// bundle, miss → compute under the single-flight lease and store),
/// unkeyed items always compute. With the process-wide cache disabled
/// this is exactly the plain scatter.
///
/// Determinism across worker counts is preserved by construction:
/// duplicate keys *within one scatter* never race for flight leadership.
/// Only the first occurrence of each key enters the parallel phase; the
/// duplicates are filled in sequentially after the barrier, in grid
/// order, from the (by then warm) cache.
pub fn scatter_map_cached_into_with_jobs<I, T, F>(
    label: &str,
    items: Vec<(Option<Key>, I)>,
    obs: &mut RunObs,
    jobs: usize,
    f: F,
) -> Vec<Option<T>>
where
    I: Send,
    T: Send + Serialize + Deserialize,
    F: Fn(usize, I, &mut RunObs) -> T + Sync,
{
    let Some(store) = relsim_cache::global() else {
        let plain: Vec<I> = items.into_iter().map(|(_, item)| item).collect();
        return scatter_map_into_with_jobs(label, plain, obs, jobs, f);
    };

    // Partition: first occurrence of each key (and every unkeyed item)
    // runs in the parallel scatter; repeats wait for the barrier.
    let n = items.len();
    let mut seen: std::collections::HashSet<u128> = std::collections::HashSet::new();
    let mut scatter_items: Vec<(usize, Option<Key>, I)> = Vec::new();
    let mut dups: Vec<(usize, Key, I)> = Vec::new();
    for (i, (key, item)) in items.into_iter().enumerate() {
        match key {
            Some(k) if !seen.insert(k.0) => dups.push((i, k, item)),
            key => scatter_items.push((i, key, item)),
        }
    }

    let runner =
        |_: usize, (orig, key, item): (usize, Option<Key>, I), job_obs: &mut RunObs| match key {
            Some(k) => crate::cache::run_keyed(&store, k, job_obs, |inner| f(orig, item, inner)),
            None => f(orig, item, job_obs),
        };

    let origs: Vec<usize> = scatter_items.iter().map(|(orig, _, _)| *orig).collect();
    let partial = scatter_map_into_with_jobs(label, scatter_items, obs, jobs, runner);

    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (orig, result) in origs.into_iter().zip(partial) {
        out[orig] = result;
    }
    // Fill the duplicates in grid order: each is a memory-tier hit on
    // its primary's entry (or an inline recompute if the primary failed
    // or its bundle was unstorable) — sequential, hence deterministic.
    let buffer = !obs.sink.is_null();
    for (orig, k, item) in dups {
        let done = run_one(orig, (orig, Some(k), item), buffer, &runner);
        out[orig] = merge_done(label, orig, done, obs);
    }
    out
}

/// [`scatter_map_cached_into_with_jobs`] at the process default worker
/// count.
pub fn scatter_map_cached_into<I, T, F>(
    label: &str,
    items: Vec<(Option<Key>, I)>,
    obs: &mut RunObs,
    f: F,
) -> Vec<Option<T>>
where
    I: Send,
    T: Send + Serialize + Deserialize,
    F: Fn(usize, I, &mut RunObs) -> T + Sync,
{
    scatter_map_cached_into_with_jobs(label, items, obs, default_jobs(), f)
}

/// Cached scatter without caller-side observability (cache markers and
/// replayed events are discarded; panics still caught/reported).
pub fn scatter_map_cached<I, T, F>(
    label: &str,
    items: Vec<(Option<Key>, I)>,
    f: F,
) -> Vec<Option<T>>
where
    I: Send,
    T: Send + Serialize + Deserialize,
    F: Fn(usize, I) -> T + Sync,
{
    let mut obs = RunObs::disabled();
    scatter_map_cached_into(label, items, &mut obs, |i, item, _| f(i, item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use relsim_obs::{EventSink, JsonlSink};

    fn square_grid(jobs: usize) -> Vec<Option<u64>> {
        let items: Vec<u64> = (0..37).collect();
        let mut obs = RunObs::disabled();
        scatter_map_into_with_jobs("square", items, &mut obs, jobs, |_, x, _| x * x)
    }

    #[test]
    fn results_come_back_in_item_order() {
        for jobs in [1, 2, 4, 8] {
            let out = square_grid(jobs);
            assert_eq!(out.len(), 37, "-j{jobs}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, Some((i as u64).pow(2)), "-j{jobs} slot {i}");
            }
        }
    }

    #[test]
    fn imbalanced_jobs_are_stolen_and_still_ordered() {
        // Front-load the grid: early items do far more work than late
        // ones, so with round-robin dealing the other workers must steal.
        let items: Vec<u64> = (0..24).collect();
        let out = scatter_map_into_with_jobs(
            "imbalanced",
            items,
            &mut RunObs::disabled(),
            4,
            |_, x, _| {
                let spins = if x < 4 { 200_000 } else { 10 };
                (0..spins).fold(x, |a, _| a.wrapping_mul(31).wrapping_add(7))
            },
        );
        let serial: Vec<u64> = (0..24u64)
            .map(|x| {
                let spins = if x < 4 { 200_000 } else { 10 };
                (0..spins).fold(x, |a, _| a.wrapping_mul(31).wrapping_add(7))
            })
            .collect();
        assert_eq!(
            out.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            serial
        );
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let _ = take_failures(); // drain other tests' leftovers
        let items: Vec<u32> = (0..8).collect();
        let mut obs = RunObs::buffered();
        let out = scatter_map_into_with_jobs("faulty", items, &mut obs, 4, |_, x, _| {
            if x == 3 {
                panic!("job {x} exploded");
            }
            x + 1
        });
        assert_eq!(out.len(), 8);
        for (i, v) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(*v, None);
            } else {
                assert_eq!(*v, Some(i as u32 + 1));
            }
        }
        // The failure is visible as a structured event...
        let events = obs.sink.take_events().unwrap();
        let failed: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::JobFailed { .. }))
            .collect();
        assert_eq!(failed.len(), 1);
        if let Event::JobFailed {
            job, label, error, ..
        } = failed[0]
        {
            assert_eq!(*job, 3);
            assert_eq!(label, "faulty[3]");
            assert!(error.contains("job 3 exploded"), "{error}");
        }
        // ...and in the end-of-run failure report.
        let failures: Vec<JobFailure> = take_failures()
            .into_iter()
            .filter(|f| f.label.starts_with("faulty["))
            .collect();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 3);
    }

    #[test]
    fn merged_observations_are_independent_of_job_count() {
        let run = |jobs: usize| {
            let mut obs = RunObs::with_sink(Box::new(JsonlSink::new(Vec::new())));
            let items: Vec<u64> = (0..12).collect();
            let out = scatter_map_into_with_jobs("det", items, &mut obs, jobs, |i, x, job_obs| {
                job_obs.emit(Event::RunStart {
                    tick: x,
                    scheduler: format!("job-{i}"),
                    cores: 2,
                    apps: 2,
                    quantum_ticks: 1,
                    duration_ticks: x,
                });
                let c = job_obs.recorder.counter("pool.test.work");
                job_obs.recorder.add(c, x);
                let h = job_obs.recorder.histogram("pool.test.sizes");
                job_obs.recorder.observe(h, x);
                x * 2
            });
            let snapshot = obs.recorder.snapshot();
            (out, snapshot)
        };
        let (out1, snap1) = run(1);
        let (out4, snap4) = run(4);
        let (out8, snap8) = run(8);
        assert_eq!(out1, out4);
        assert_eq!(out1, out8);
        assert_eq!(snap1, snap4);
        assert_eq!(snap1, snap8);
    }

    #[test]
    fn cached_scatter_dedups_and_returns_in_grid_order() {
        let _guard = crate::cache::test_guard();
        relsim_cache::configure(Some(relsim_cache::CacheConfig::default()));
        let computed = std::sync::atomic::AtomicUsize::new(0);
        // 12 items over 4 distinct keys, interleaved.
        let items: Vec<(Option<Key>, u64)> = (0..12u64)
            .map(|x| (Some(relsim_cache::Key::of(&("dedup", x % 4))), x % 4))
            .collect();
        let out = scatter_map_cached_into_with_jobs(
            "cdedup",
            items,
            &mut RunObs::disabled(),
            4,
            |_, x, _| {
                computed.fetch_add(1, Ordering::SeqCst);
                x * 10
            },
        );
        let expect: Vec<Option<u64>> = (0..12u64).map(|x| Some((x % 4) * 10)).collect();
        assert_eq!(out, expect);
        assert_eq!(
            computed.load(Ordering::SeqCst),
            4,
            "one computation per distinct key"
        );
        let stats = relsim_cache::global_stats().unwrap();
        assert_eq!((stats.misses, stats.hits), (4, 8));
        relsim_cache::configure(None);
    }

    #[test]
    fn cached_scatter_replay_bytes_match_across_job_counts() {
        let _guard = crate::cache::test_guard();
        let replay = |jobs: usize| -> Vec<u8> {
            // Fresh (cold) store per run so both job counts start equal.
            relsim_cache::configure(Some(relsim_cache::CacheConfig::default()));
            let mut obs = RunObs::buffered();
            let items: Vec<(Option<Key>, u64)> = (0..10u64)
                .map(|x| (Some(relsim_cache::Key::of(&("cbytes", x % 3))), x % 3))
                .collect();
            scatter_map_cached_into_with_jobs("cbytes", items, &mut obs, jobs, |_, x, job_obs| {
                job_obs.emit(Event::Migration {
                    tick: x,
                    app: x as usize,
                    from_core: Some(0),
                    to_core: 1,
                });
                x
            });
            let mut out = JsonlSink::new(Vec::new());
            for e in obs.sink.take_events().unwrap() {
                out.emit(&e);
            }
            out.into_inner()
        };
        let a = replay(1);
        let b = replay(4);
        let c = replay(8);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(a, c);
        relsim_cache::configure(None);
    }

    #[test]
    fn cached_scatter_without_store_is_plain_scatter() {
        let _guard = crate::cache::test_guard();
        relsim_cache::configure(None);
        let items: Vec<(Option<Key>, u64)> = (0..8u64)
            .map(|x| (Some(relsim_cache::Key::of(&x)), x))
            .collect();
        let out = scatter_map_cached_into_with_jobs(
            "coff",
            items,
            &mut RunObs::disabled(),
            2,
            |_, x, _| x + 1,
        );
        assert_eq!(out, (0..8u64).map(|x| Some(x + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn replayed_event_bytes_match_across_job_counts() {
        // Buffer per-job events, then serialize the merged stream to
        // JSONL bytes: the bytes must not depend on the worker count.
        let replay = |jobs: usize| -> Vec<u8> {
            let mut obs = RunObs::buffered();
            let items: Vec<u64> = (0..10).collect();
            scatter_map_into_with_jobs("bytes", items, &mut obs, jobs, |i, x, job_obs| {
                job_obs.emit(Event::Migration {
                    tick: x,
                    app: i,
                    from_core: Some(0),
                    to_core: 1,
                });
            });
            let mut out = JsonlSink::new(Vec::new());
            for e in obs.sink.take_events().unwrap() {
                out.emit(&e);
            }
            out.into_inner()
        };
        let a = replay(1);
        let b = replay(4);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
