//! Differential harness for the event-horizon cycle-skipping engine
//! (DESIGN.md §11): skipping must be *byte-identical* to the plain tick
//! loop — same `RunResult`s, same event streams, same golden figures — at
//! every `--jobs` and `--sample` setting, across all schedulers.
//!
//! Two layers of evidence:
//!
//! 1. Grid-level byte identity: the scheduler-comparison grid serialized
//!    with skipping on equals the grid with skipping off (the referee
//!    loop, which ticks every core every tick and never reads a horizon),
//!    detailed and sampled, at `-j1` and `-j4`.
//! 2. Core-level properties (proptest): `Core::step` always returns a
//!    tick in `(now, limit]`, and a core stepped under arbitrary limits
//!    retires exactly the instruction stream of a plainly-ticked twin and
//!    ends in exactly its state.
//!
//! All grid tests mutate process-wide defaults (skip enable, sampling
//! configuration, pool worker count), so they serialize on a mutex.

use relsim::experiments::{compare_schedulers, hcmp_config, Context, Scale};
use relsim::mixes::Mix;
use relsim::{pool, sampling, skip, SamplingConfig, SamplingParams};
use relsim_obs::{EventSink, JsonlSink, RunObs};
use std::sync::Mutex;

/// The sampling configuration the repo's accuracy claim is stated for;
/// the skip engine must compose with it bit-for-bit.
const CLAIMED_CONFIG: &str = "1500:15000:1";

static GLOBALS: Mutex<()> = Mutex::new(());

fn scale() -> Scale {
    Scale {
        isolation_ticks: 60_000,
        run_ticks: 100_000,
        quantum_ticks: 8_000,
        per_category: 1,
        seed: 9,
    }
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            category: "hzn-a".into(),
            benchmarks: vec![
                "hmmer".into(),
                "milc".into(),
                "gobmk".into(),
                "povray".into(),
            ],
        },
        Mix {
            category: "hzn-b".into(),
            benchmarks: vec!["lbm".into(), "mcf".into(), "hmmer".into(), "milc".into()],
        },
    ]
}

/// Serialize a buffered event stream to the JSONL bytes a `--trace-out`
/// file would contain.
fn jsonl_bytes(obs: &mut RunObs) -> Vec<u8> {
    let mut log = JsonlSink::new(Vec::new());
    for e in obs.sink.take_events().expect("buffered sink") {
        log.emit(&e);
    }
    log.into_inner()
}

/// Run the full `mix × scheduler` grid on a prebuilt context and return
/// (serialized results, serialized event log).
fn grid_bytes(
    ctx: &Context,
    grid_mixes: &[Mix],
    skip_on: bool,
    sample: Option<&str>,
    jobs: usize,
) -> (Vec<u8>, Vec<u8>) {
    pool::set_default_jobs(jobs);
    skip::set_default_enabled(skip_on);
    sampling::set_default(sample.map(|s| SamplingConfig::parse(s).expect("sample config")));
    let mut obs = RunObs::buffered();
    let comparisons = compare_schedulers(
        ctx,
        &hcmp_config(ctx, 2, 2),
        grid_mixes,
        SamplingParams::default(),
        &mut obs,
    );
    sampling::set_default(None);
    skip::set_default_enabled(true);
    pool::set_default_jobs(0);
    assert!(!comparisons.is_empty(), "grid produced no results");
    (
        serde_json::to_vec(&comparisons).expect("serialize comparisons"),
        jsonl_bytes(&mut obs),
    )
}

/// Build the small-scale reference context (isolated bare-core runs,
/// which no skip setting affects), so the grid run is the only thing
/// under test.
fn reference_context() -> Context {
    sampling::set_default(None);
    Context::build(scale())
}

/// The core identity: with skipping on, the fully-detailed scheduler grid
/// — results and event log — is byte-for-byte the grid the plain tick
/// loop produces.
#[test]
fn skip_grid_is_byte_identical_to_tick_loop() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    let (skip_res, skip_log) = grid_bytes(&ctx, &mixes(), true, None, 1);
    let (plain_res, plain_log) = grid_bytes(&ctx, &mixes(), false, None, 1);
    assert!(!skip_res.is_empty() && !skip_log.is_empty());
    assert_eq!(skip_res, plain_res, "skip changes grid results");
    assert_eq!(skip_log, plain_log, "skip changes the event stream");
}

/// Skipping composes with `--jobs`: identical bytes at `-j1` and `-j4`.
#[test]
fn skip_grid_is_byte_identical_across_job_counts() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    let (res1, log1) = grid_bytes(&ctx, &mixes(), true, None, 1);
    let (res4, log4) = grid_bytes(&ctx, &mixes(), true, None, 4);
    assert_eq!(res1, res4, "skipped results depend on -j");
    assert_eq!(log1, log4, "skipped event log depends on -j");
}

/// Skipping composes with `--sample`: under the claimed sampling
/// configuration, skip-vs-noskip stays byte-identical, and the sampled
/// skipped grid is `-j`-independent too.
#[test]
fn skip_composes_with_sampling() {
    let _lock = GLOBALS.lock().unwrap();
    let ctx = reference_context();
    let (skip_res, skip_log) = grid_bytes(&ctx, &mixes(), true, Some(CLAIMED_CONFIG), 1);
    let (plain_res, plain_log) = grid_bytes(&ctx, &mixes(), false, Some(CLAIMED_CONFIG), 1);
    assert_eq!(skip_res, plain_res, "skip changes sampled grid results");
    assert_eq!(skip_log, plain_log, "skip changes sampled event stream");
    let (res4, log4) = grid_bytes(&ctx, &mixes(), true, Some(CLAIMED_CONFIG), 4);
    assert_eq!(skip_res, res4, "sampled skipped results depend on -j");
    assert_eq!(skip_log, log4, "sampled skipped event log depends on -j");
}

/// The acceptance gate at full quick scale: the exact grid `run_all
/// --quick` evaluates is byte-identical with skipping on and off, both
/// fully detailed and under the claimed sampling configuration.
///
/// Runs the quick grid 4x, so it is ignored in debug builds; `ci.sh`
/// runs it in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "quick-scale differential grid; run in release (ci.sh test)"
)]
fn quick_grid_is_byte_identical_with_and_without_skip() {
    let _lock = GLOBALS.lock().unwrap();
    sampling::set_default(None);
    let ctx = Context::build(Scale::quick());
    let quick_mixes = ctx.four_program_mixes();
    for sample in [None, Some(CLAIMED_CONFIG)] {
        let (skip_res, skip_log) = grid_bytes(&ctx, &quick_mixes, true, sample, 0);
        let (plain_res, plain_log) = grid_bytes(&ctx, &quick_mixes, false, sample, 0);
        assert_eq!(
            skip_res, plain_res,
            "skip changes quick-grid results (sample={sample:?})"
        );
        assert_eq!(
            skip_log, plain_log,
            "skip changes quick-grid event stream (sample={sample:?})"
        );
    }
}

/// Core-level properties of `Core::step`, over both core kinds, the
/// benchmark catalog, arbitrary seeds and arbitrary step limits. These
/// drive bare cores, so they touch no process-wide defaults and need no
/// lock.
mod horizon_properties {
    use proptest::prelude::*;
    use relsim_cpu::{Core, CoreConfig, NullObserver, RecordingObserver};
    use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
    use relsim_trace::TraceGenerator;

    /// Ticks each proptest case simulates. Long enough to drain fill
    /// buffers and hit ROB-head stalls, short enough for debug builds.
    const CASE_TICKS: u64 = 6_000;

    fn core_config(big: bool, half_freq: bool) -> CoreConfig {
        let mut cfg = if big {
            CoreConfig::big()
        } else {
            CoreConfig::small()
        };
        if half_freq {
            cfg.ticks_per_cycle = 2;
        }
        cfg
    }

    fn build(cfg: CoreConfig, bench: &str, seed: u64) -> (Core, TraceGenerator, SharedMem) {
        let profile = relsim_trace::spec_profile(bench).expect("catalog benchmark");
        (
            Core::new(cfg, PrivateCacheConfig::default()),
            TraceGenerator::new(profile, seed, 0),
            SharedMem::new(SharedMemConfig::default()),
        )
    }

    fn bench_name(index: usize) -> String {
        let names = relsim_trace::spec_names();
        names[index % names.len()].clone()
    }

    /// The limit of the `i`-th step taken at `now`: `ahead[i]` ticks
    /// ahead (cycling through `ahead`), where 0 means the case end.
    fn limit(now: u64, ahead: &[u64], i: usize) -> u64 {
        match ahead[i % ahead.len()] {
            0 => CASE_TICKS,
            a => (now + a).min(CASE_TICKS),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `step(now, limit)` always lands strictly after `now` and never
        /// past `limit`, whatever the limit. A return `<= now` would
        /// deadlock (or rewind) every stepping loop; one past `limit` would
        /// skip a checkpoint, fault or re-snapshot tick.
        #[test]
        fn next_event_is_strictly_future(
            big in prop::bool::ANY,
            half_freq in prop::bool::ANY,
            bench_idx in 0usize..64,
            seed in 1u64..1_000,
            ahead in prop::collection::vec(0u64..CASE_TICKS, 1..16),
        ) {
            let cfg = core_config(big, half_freq);
            let (mut core, mut src, mut shared) = build(cfg, &bench_name(bench_idx), seed);
            let mut obs = NullObserver;
            let (mut t, mut i) = (0, 0);
            while t < CASE_TICKS {
                let lim = limit(t, &ahead, i);
                let next = core.step(t, lim, &mut src, &mut shared, &mut obs);
                prop_assert!(
                    t < next && next <= lim,
                    "step({t}, {lim}) returned {next}"
                );
                t = next;
                i += 1;
            }
        }

        /// A core stepped under arbitrary limits (partial skips well short
        /// of the horizon included) retires exactly the instruction stream
        /// of a plainly-ticked twin — the stream `AceCounter`,
        /// `run_isolated` and `validate_counters` consume — and ends in
        /// its state: committed count, cycles, CPI stack, class mix,
        /// memory-level profile and trace position.
        #[test]
        fn skipped_core_matches_ticked_twin(
            big in prop::bool::ANY,
            half_freq in prop::bool::ANY,
            bench_idx in 0usize..64,
            seed in 1u64..1_000,
            ahead in prop::collection::vec(0u64..200, 1..16),
        ) {
            let cfg = core_config(big, half_freq);
            let bench = bench_name(bench_idx);
            let (mut plain, mut plain_src, mut plain_shared) = build(cfg.clone(), &bench, seed);
            let (mut stepped, mut step_src, mut step_shared) = build(cfg, &bench, seed);
            let mut plain_obs = RecordingObserver::default();
            let mut step_obs = RecordingObserver::default();

            for t in 0..CASE_TICKS {
                plain.tick(t, &mut plain_src, &mut plain_shared, &mut plain_obs);
            }
            let (mut t, mut i) = (0, 0);
            while t < CASE_TICKS {
                let lim = limit(t, &ahead, i);
                t = stepped.step(t, lim, &mut step_src, &mut step_shared, &mut step_obs);
                i += 1;
            }

            let first_diff = step_obs
                .events
                .iter()
                .zip(&plain_obs.events)
                .position(|(a, b)| a != b);
            prop_assert!(
                step_obs.events == plain_obs.events,
                "retire streams diverge at event {:?} (lengths {} vs {})",
                first_diff,
                step_obs.events.len(),
                plain_obs.events.len()
            );
            prop_assert_eq!(stepped.committed(), plain.committed(), "committed diverged");
            prop_assert_eq!(stepped.cycles(), plain.cycles(), "cycles diverged");
            prop_assert_eq!(stepped.cpi_stack(), plain.cpi_stack(), "CPI stack diverged");
            prop_assert_eq!(stepped.class_counts(), plain.class_counts(), "class mix diverged");
            prop_assert_eq!(
                stepped.loads_by_level(),
                plain.loads_by_level(),
                "memory-level profile diverged"
            );
            prop_assert_eq!(
                step_src.generated(),
                plain_src.generated(),
                "trace sources fell out of lockstep"
            );
        }
    }
}
