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
//! * a panicking job is caught ([`std::panic::catch_unwind`]) and its
//!   slot comes back as `Err(`[`JobFailure`]`)`; the failure is also
//!   logged as a structured [`Event::JobFailed`] at its grid position and
//!   recorded for end-of-run reporting via [`take_failures`] — the other
//!   workers keep going.
//!
//! [`scatter`] is the entry point: it takes an optional result-cache
//! [`Key`] per item and an explicit worker count. [`scatter_map`] is the
//! keyless form without an observer.
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

/// Set the worker count [`default_jobs`] reports, which [`scatter_map`]
/// and the program's [`scatter`] callers use. `0` restores the automatic
/// default (available parallelism). Binaries call this once from
/// `--jobs`.
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

/// One caught job panic: the failed job's slot, and an entry of the
/// end-of-run report.
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
    index: usize,
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
        index,
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

/// The worker loop behind [`scatter`] and [`scatter_map`]: run `f` over
/// `items`, each tagged with its grid index, on `jobs` workers, observing
/// each job through its own buffered [`RunObs`] and merging everything
/// into `obs` in list order. Returns one slot per item, in list order.
fn scatter_plain<I, T, F>(
    label: &str,
    items: Vec<(usize, I)>,
    obs: &mut RunObs,
    jobs: usize,
    f: F,
) -> Vec<Result<T, JobFailure>>
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

    // Queue entries are (slot, (grid index, item)).
    let queues: Vec<Mutex<VecDeque<_>>> = (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect();
    for (slot, item) in items.into_iter().enumerate() {
        lock_recover(&queues[slot % jobs]).push_back((slot, item));
    }
    let slots: Vec<Mutex<Option<Done<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = |w: usize| {
        while let Some((slot, (i, item))) = next_job(&queues, w) {
            *lock_recover(&slots[slot]) = Some(run_one(i, item, buffer, &f));
        }
    };
    if jobs == 1 {
        // Inline path: same per-job observation and panic isolation,
        // no threads.
        work(0);
    } else {
        std::thread::scope(|s| {
            for w in 0..jobs {
                let work = &work;
                s.spawn(move || work(w));
            }
        });
    }

    // Barrier: merge per-job observations back in grid order.
    slots
        .into_iter()
        .map(|slot| {
            let done = slot
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job runs exactly once");
            merge_done(label, done, obs)
        })
        .collect()
}

/// Merge one finished job into the caller's observer (events in order,
/// counters added, spans appended) and return its slot: `Ok` on success,
/// `Err` for a panic (also warned, evented and registered).
fn merge_done<T>(label: &str, done: Done<T>, obs: &mut RunObs) -> Result<T, JobFailure> {
    for e in &done.events {
        obs.sink.emit(e);
    }
    obs.recorder.merge(&done.obs);
    let i = done.index;
    if !done.spans.is_empty() {
        // Grid order, not worker order: the trace is a deterministic
        // function of the inputs at any `-jN`.
        obs.spans.push(SpanThread {
            name: format!("job{i}"),
            records: done.spans,
        });
    }
    done.result.map_err(|message| {
        let job_label = format!("{label}[{i}]");
        relsim_obs::warn!("job {job_label} panicked: {message}");
        obs.emit(Event::JobFailed {
            tick: 0,
            job: i as u64,
            label: job_label.clone(),
            error: message.clone(),
        });
        let failure = JobFailure {
            index: i,
            label: job_label,
            message,
        };
        lock_recover(&FAILURES).push(failure.clone());
        failure
    })
}

/// Run `f` over `items` on `jobs` workers, observing each job through its
/// own buffered [`RunObs`] and merging everything into `obs` in item
/// order. Returns one slot per item: `Ok(output)` on success, or
/// `Err(`[`JobFailure`]`)` for a job that panicked (also reported via
/// [`Event::JobFailed`], a `warn!` line, and [`take_failures`]).
///
/// Each item carries an optional [`Key`] into the content-addressed
/// result cache. With a process-wide store configured, keyed items are
/// served via [`crate::cache::run_keyed`] (hit → replay the stored
/// bundle, miss → compute under the single-flight lease and store) and
/// unkeyed items always compute; with none, every item computes.
///
/// Determinism across worker counts is preserved by construction:
/// duplicate keys *within one scatter* never race for flight leadership.
/// Only the first occurrence of each key enters the parallel phase; the
/// duplicates are filled in sequentially after the barrier, in grid
/// order, from the (by then warm) cache.
pub fn scatter<I, T, F>(
    label: &str,
    items: Vec<(Option<Key>, I)>,
    obs: &mut RunObs,
    jobs: usize,
    f: F,
) -> Vec<Result<T, JobFailure>>
where
    I: Send,
    T: Send + Serialize + Deserialize,
    F: Fn(usize, I, &mut RunObs) -> T + Sync,
{
    let Some(store) = relsim_cache::global() else {
        let plain = items.into_iter().map(|(_, item)| item).enumerate();
        return scatter_plain(label, plain.collect(), obs, jobs, f);
    };

    // Partition: first occurrence of each key (and every unkeyed item)
    // runs in the parallel scatter; repeats wait for the barrier.
    let n = items.len();
    let mut seen: std::collections::HashSet<u128> = std::collections::HashSet::new();
    let mut firsts: Vec<(usize, (Option<Key>, I))> = Vec::new();
    let mut dups: Vec<(usize, (Option<Key>, I))> = Vec::new();
    for (i, (key, item)) in items.into_iter().enumerate() {
        match key {
            Some(k) if !seen.insert(k.0) => dups.push((i, (key, item))),
            key => firsts.push((i, (key, item))),
        }
    }

    let runner = |i: usize, (key, item): (Option<Key>, I), job_obs: &mut RunObs| match key {
        Some(k) => crate::cache::run_keyed(&store, k, job_obs, |inner| f(i, item, inner)),
        None => f(i, item, job_obs),
    };

    let origs: Vec<usize> = firsts.iter().map(|(i, _)| *i).collect();
    let mut out: Vec<Option<Result<T, JobFailure>>> = (0..n).map(|_| None).collect();
    let slots = scatter_plain(label, firsts, obs, jobs, runner);
    for (i, slot) in origs.into_iter().zip(slots) {
        out[i] = Some(slot);
    }
    // Fill the duplicates in grid order: each is a memory-tier hit on
    // its primary's entry (or an inline recompute if the primary failed
    // or its bundle was unstorable) — sequential, hence deterministic.
    let buffer = !obs.sink.is_null();
    for (i, item) in dups {
        out[i] = Some(merge_done(label, run_one(i, item, buffer, &runner), obs));
    }
    out.into_iter()
        .map(|slot| slot.expect("every item runs exactly once"))
        .collect()
}

/// Scatter for callers without cache keys or an observer, such as the
/// benchmark harness: [`scatter`]'s worker loop at [`default_jobs`], with
/// events and counters discarded. Panics are still caught and reported;
/// a failed slot is `None`.
pub fn scatter_map<I, T, F>(label: &str, items: Vec<I>, f: F) -> Vec<Option<T>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let items = items.into_iter().enumerate().collect();
    let mut obs = RunObs::disabled();
    scatter_plain(label, items, &mut obs, default_jobs(), |i, item, _| {
        f(i, item)
    })
    .into_iter()
    .map(Result::ok)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relsim_obs::{EventSink, JsonlSink};

    /// A grid with no cache keys, as [`scatter`] takes it.
    fn keyless<I>(items: impl IntoIterator<Item = I>) -> Vec<(Option<Key>, I)> {
        items.into_iter().map(|item| (None, item)).collect()
    }

    fn square_grid(jobs: usize) -> Vec<Result<u64, JobFailure>> {
        let mut obs = RunObs::disabled();
        scatter("square", keyless(0..37u64), &mut obs, jobs, |_, x, _| x * x)
    }

    #[test]
    fn results_come_back_in_item_order() {
        for jobs in [1, 2, 4, 8] {
            let out = square_grid(jobs);
            assert_eq!(out.len(), 37, "-j{jobs}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, Ok((i as u64).pow(2)), "-j{jobs} slot {i}");
            }
        }
    }

    #[test]
    fn imbalanced_jobs_are_stolen_and_still_ordered() {
        // Front-load the grid: early items do far more work than late
        // ones, so with round-robin dealing the other workers must steal.
        let work = |x: u64| {
            let spins = if x < 4 { 200_000 } else { 10 };
            (0..spins).fold(x, |a, _| a.wrapping_mul(31).wrapping_add(7))
        };
        let out = scatter(
            "imbalanced",
            keyless(0..24u64),
            &mut RunObs::disabled(),
            4,
            |_, x, _| work(x),
        );
        let serial: Vec<u64> = (0..24u64).map(work).collect();
        assert_eq!(
            out.into_iter().map(Result::unwrap).collect::<Vec<_>>(),
            serial
        );
    }

    #[test]
    fn panicking_job_is_isolated_and_reported() {
        let _ = take_failures(); // drain other tests' leftovers
        let mut obs = RunObs::buffered();
        let out = scatter("faulty", keyless(0..8u32), &mut obs, 4, |_, x, _| {
            if x == 3 {
                panic!("job {x} exploded");
            }
            x + 1
        });
        assert_eq!(out.len(), 8);
        for (i, v) in out.iter().enumerate() {
            if i == 3 {
                // The failure comes back in its own slot...
                let failure = v.as_ref().unwrap_err();
                assert_eq!((failure.index, failure.label.as_str()), (3, "faulty[3]"));
                assert!(failure.message.contains("job 3 exploded"), "{failure:?}");
            } else {
                assert_eq!(*v, Ok(i as u32 + 1));
            }
        }
        // ...as a structured event...
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
        assert_eq!(failures, vec![out[3].clone().unwrap_err()]);
    }

    #[test]
    fn merged_observations_are_independent_of_job_count() {
        let run = |jobs: usize| {
            let mut obs = RunObs::with_sink(Box::new(JsonlSink::new(Vec::new())));
            let out = scatter("det", keyless(0..12u64), &mut obs, jobs, |i, x, job_obs| {
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
        let out = scatter("cdedup", items, &mut RunObs::disabled(), 4, |_, x, _| {
            computed.fetch_add(1, Ordering::SeqCst);
            x * 10
        });
        let expect: Vec<Result<u64, JobFailure>> = (0..12u64).map(|x| Ok((x % 4) * 10)).collect();
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
    fn cached_failure_names_its_grid_index_past_duplicates() {
        // Only first occurrences enter the parallel phase, so the failing
        // item is the parallel phase's second job but the grid's fourth.
        let _guard = crate::cache::test_guard();
        relsim_cache::configure(Some(relsim_cache::CacheConfig::default()));
        let _ = take_failures();
        let key = |x: u64| Some(relsim_cache::Key::of(&("cfail", x)));
        let items = vec![(key(0), 0), (key(0), 0), (None, 1), (key(2), 2)];
        let out = scatter("cfail", items, &mut RunObs::disabled(), 2, |_, x, _| {
            assert!(x != 2, "item two is broken");
            x
        });
        assert_eq!(out[..3], [Ok(0), Ok(0), Ok(1)]);
        let failure = out[3].clone().unwrap_err();
        assert_eq!((failure.index, failure.label.as_str()), (3, "cfail[3]"));
        let registered: Vec<JobFailure> = take_failures()
            .into_iter()
            .filter(|f| f.label.starts_with("cfail["))
            .collect();
        assert_eq!(registered, vec![failure]);
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
            scatter("cbytes", items, &mut obs, jobs, |_, x, job_obs| {
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
        let out = scatter("coff", items, &mut RunObs::disabled(), 2, |_, x, _| x + 1);
        assert_eq!(out, (0..8u64).map(|x| Ok(x + 1)).collect::<Vec<_>>());
    }

    #[test]
    fn replayed_event_bytes_match_across_job_counts() {
        // Buffer per-job events, then serialize the merged stream to
        // JSONL bytes: the bytes must not depend on the worker count.
        let replay = |jobs: usize| -> Vec<u8> {
            let mut obs = RunObs::buffered();
            scatter(
                "bytes",
                keyless(0..10u64),
                &mut obs,
                jobs,
                |i, x, job_obs| {
                    job_obs.emit(Event::Migration {
                        tick: x,
                        app: i,
                        from_core: Some(0),
                        to_core: 1,
                    });
                    x
                },
            );
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
