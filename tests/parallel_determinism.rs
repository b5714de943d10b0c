//! The worker count must be invisible in the output: the work-stealing
//! pool shards the experiment grid across threads, but results, metrics
//! and event logs merge in grid order at the barrier, so every byte of
//! output is independent of `--jobs`.

use relsim::experiments::{compare_schedulers, hcmp_config, Context, Scale};
use relsim::mixes::Mix;
use relsim::{pool, SamplingParams};
use relsim_obs::{Event, EventSink, JsonlSink, RunObs};

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
            category: "par-a".into(),
            benchmarks: vec![
                "hmmer".into(),
                "milc".into(),
                "gobmk".into(),
                "povray".into(),
            ],
        },
        Mix {
            category: "par-b".into(),
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

/// Full pipeline — isolated characterization (`Context::build`) plus the
/// three-scheduler comparison — at a given worker count. Returns the
/// serialized reference table, the serialized comparison results, and
/// the replayed JSONL event log.
fn run_at(jobs: usize) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    pool::set_default_jobs(jobs);
    let ctx = Context::build(scale());
    let cfg = hcmp_config(&ctx, 2, 2);
    let mut obs = RunObs::buffered();
    let comparisons = compare_schedulers(&ctx, &cfg, &mixes(), SamplingParams::default(), &mut obs);
    pool::set_default_jobs(0);
    (
        serde_json::to_vec(&ctx.refs).expect("serialize refs"),
        serde_json::to_vec(&comparisons).expect("serialize comparisons"),
        jsonl_bytes(&mut obs),
    )
}

/// The headline guarantee: `-j1` and `-j4` produce byte-identical JSON
/// artifacts and event logs for the same grid.
///
/// This is the only test in this binary that touches the process-wide
/// default job count, so it cannot race with a concurrent test.
#[test]
fn grid_output_is_byte_identical_across_job_counts() {
    let (refs1, results1, log1) = run_at(1);
    let (refs4, results4, log4) = run_at(4);
    assert!(!results1.is_empty() && !log1.is_empty());
    assert_eq!(refs1, refs4, "reference table depends on -j");
    assert_eq!(results1, results4, "comparison results depend on -j");
    assert_eq!(log1, log4, "event log depends on -j");
}

/// A panicking job must come back as an `Err` in its own slot, and surface
/// as a structured `JobFailed` event and a recorded failure at its grid
/// position, without disturbing its neighbours — at any worker count.
#[test]
fn job_failure_is_isolated_and_reported_in_grid_order() {
    for jobs in [1, 4] {
        let mut obs = RunObs::buffered();
        let out = pool::scatter(
            "integration-faulty",
            (0u64..8).map(|x| (None, x)).collect(),
            &mut obs,
            jobs,
            |_, x, _| {
                assert!(x != 5, "job five is broken");
                x * 10
            },
        );
        for (i, slot) in out.iter().enumerate() {
            if i == 5 {
                let failure = slot.as_ref().expect_err("slot 5 panicked");
                assert_eq!(failure.index, 5, "-j{jobs}");
                assert!(failure.message.contains("job five is broken"), "-j{jobs}");
            } else {
                assert_eq!(*slot, Ok(i as u64 * 10), "-j{jobs}");
            }
        }
        let events = obs.sink.take_events().expect("buffered sink");
        let failed: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::JobFailed { .. }))
            .collect();
        assert_eq!(failed.len(), 1, "-j{jobs}");
        assert!(
            matches!(failed[0], Event::JobFailed { job: 5, .. }),
            "-j{jobs}: {failed:?}"
        );
        // The registry holds the same failure the slot returned.
        let ours: Vec<_> = pool::take_failures()
            .into_iter()
            .filter(|f| f.label.starts_with("integration-faulty"))
            .collect();
        assert_eq!(ours, [out[5].clone().unwrap_err()], "-j{jobs}");
    }
}
