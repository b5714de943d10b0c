//! # relsim-bench
//!
//! Shared plumbing for the figure/table regeneration binaries: scale
//! parsing, context caching, observability wiring and result output. Each
//! paper table/figure has a binary in `src/bin/`; run e.g.
//!
//! ```text
//! cargo run --release -p relsim-bench --bin fig01_avf
//! cargo run --release -p relsim-bench --bin run_all -- --quick
//! ```
//!
//! Every binary accepts `--quick` for a smoke-test scale, plus the shared
//! observability flags (`--trace-out`, `--metrics-out`, `--quiet`,
//! `--log-level`); see [`obs_init`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod svg;

use relsim::experiments::{Context, Scale};
use relsim_obs::{info, RunObs};
use serde::Serialize;
use std::path::PathBuf;

pub use relsim_obs::ObsArgs;

/// Bump when simulator/model changes invalidate cached reference tables
/// and content-addressed result-cache entries (re-exported from
/// `relsim::cache`, where it is hashed into every cache key).
pub use relsim::cache::MODEL_VERSION;

/// Parse the shared observability flags from the process arguments and
/// apply the requested log level, then configure the job pool from
/// `--jobs` and the result cache from `--cache`/`--no-cache`/
/// `--cache-dir`. Call once at the top of every binary's `main`; progress
/// output below the chosen level (everything under `--quiet`) is silenced
/// while stdout data stays untouched.
pub fn obs_init() -> ObsArgs {
    relsim::pool::set_default_jobs(jobs_from_args());
    relsim::sampling::set_default(sampling_from_args());
    relsim::skip::set_default_enabled(!no_skip_from_args());
    relsim_cache::configure(cache_from_args());
    let args = ObsArgs::from_env();
    // Resolve `--profile`/`--trace-spans`/`--no-profile` before any pool
    // worker spawns, so every thread sees the same global flags.
    args.apply_span_flags();
    args
}

/// Parse the worker count from the process arguments: `--jobs N`,
/// `--jobs=N`, `-j N`, or `-jN`. `0` (or no flag) means "use the
/// machine's available parallelism". Output is independent of the worker
/// count by construction, so this only changes wall time.
pub fn jobs_from_args() -> usize {
    parse_jobs(std::env::args().skip(1)).unwrap_or(0)
}

/// Testable `--jobs` parser; `None` means the flag was absent/invalid.
pub fn parse_jobs<I: IntoIterator<Item = String>>(args: I) -> Option<usize> {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v.to_string())
        } else if arg == "--jobs" || arg == "-j" {
            iter.next()
        } else if let Some(v) = arg.strip_prefix("-j") {
            // `-j4` — but don't swallow unrelated flags like `-json`.
            if v.chars().all(|c| c.is_ascii_digit()) {
                Some(v.to_string())
            } else {
                continue;
            }
        } else {
            continue;
        };
        match value.as_deref().map(str::parse::<usize>) {
            Some(Ok(n)) => return Some(n),
            _ => {
                relsim_obs::warn!(
                    "--jobs expects a number, got {:?}; using available parallelism",
                    value.as_deref().unwrap_or("")
                );
                return None;
            }
        }
    }
    None
}

/// Help text fragment for the `--jobs` flag, for `--help` output.
pub const JOBS_HELP: &str = "  --jobs N, -j N        worker threads for the experiment grid \
                             (default: available parallelism; output is byte-identical at any N)";

/// Parse the interval-sampling configuration from the process arguments:
/// `--sample DETAILED:FF[:SEED]` or `--sample=...`. `None` means the flag
/// was absent and runs stay fully detailed. An invalid value warns and is
/// ignored rather than silently producing approximate results under a
/// different configuration than the user asked for.
pub fn sampling_from_args() -> Option<relsim::SamplingConfig> {
    parse_sample(std::env::args().skip(1))
}

/// Testable `--sample` parser; `None` means absent or invalid.
pub fn parse_sample<I: IntoIterator<Item = String>>(args: I) -> Option<relsim::SamplingConfig> {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if let Some(v) = arg.strip_prefix("--sample=") {
            Some(v.to_string())
        } else if arg == "--sample" {
            iter.next()
        } else {
            continue;
        };
        return match value.as_deref().map(relsim::SamplingConfig::parse) {
            Some(Ok(cfg)) => Some(cfg),
            other => {
                relsim_obs::warn!(
                    "--sample expects DETAILED:FF[:SEED], got {:?}; running fully detailed{}",
                    value.as_deref().unwrap_or(""),
                    match other {
                        Some(Err(e)) => format!(" ({e})"),
                        _ => String::new(),
                    }
                );
                None
            }
        };
    }
    None
}

/// Whether `--no-skip` was passed: disables event-horizon cycle skipping
/// in the multicore system, which then runs the referee loop that ticks
/// every core on every tick (DESIGN.md §11). Skipping is byte-identical to
/// that loop, so the flag only trades speed for a reference timing
/// baseline (`bench_perf`) or for bisecting a suspected equivalence bug.
pub fn no_skip_from_args() -> bool {
    parse_no_skip(std::env::args().skip(1))
}

/// Testable `--no-skip` parser.
pub fn parse_no_skip<I: IntoIterator<Item = String>>(args: I) -> bool {
    args.into_iter().any(|a| a == "--no-skip")
}

/// Help text fragment for the `--no-skip` flag, for `--help` output.
pub const NO_SKIP_HELP: &str =
    "  --no-skip             disable event-horizon cycle skipping: tick every core \
                               every tick (same results, slower; for timing baselines and \
                               equivalence bisection)";

/// Help text fragment for the `--sample` flag, for `--help` output.
pub const SAMPLE_HELP: &str =
    "  --sample D:F[:S]      interval sampling: alternate D detailed ticks \
                               with ~F fast-forwarded ticks (seed S jitters window lengths; \
                               0 disables the jitter)";

/// Parse the reliability-mode selection from the process arguments:
/// `--mode NAME` / `--mode=NAME` with `off`, `checkpoint`, `dmr`,
/// `backup`, or `all`. `None` (absent or invalid, with a warning) means
/// "all modes" — the full Pareto study.
pub fn modes_from_args() -> Option<Vec<relsim::ModeKind>> {
    parse_mode(std::env::args().skip(1))
}

/// Testable `--mode` parser; `None` means absent or invalid.
pub fn parse_mode<I: IntoIterator<Item = String>>(args: I) -> Option<Vec<relsim::ModeKind>> {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if let Some(v) = arg.strip_prefix("--mode=") {
            Some(v.to_string())
        } else if arg == "--mode" {
            iter.next()
        } else {
            continue;
        };
        return match value.as_deref() {
            Some("all") => Some(relsim::ModeKind::ALL.to_vec()),
            Some(name) => match relsim::ModeKind::parse(name) {
                Some(mode) => Some(vec![mode]),
                None => {
                    relsim_obs::warn!(
                        "--mode expects off|checkpoint|dmr|backup|all, got {name:?}; \
                         running all modes"
                    );
                    None
                }
            },
            None => {
                relsim_obs::warn!("--mode expects a value; running all modes");
                None
            }
        };
    }
    None
}

/// Testable parser for a `u64`-valued flag (`--faults N`, `--faults=N`,
/// `--ckpt-interval N`, ...); `None` means absent or invalid (with a
/// warning naming the flag).
pub fn parse_u64_flag<I: IntoIterator<Item = String>>(args: I, flag: &str) -> Option<u64> {
    let prefix = format!("{flag}=");
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if let Some(v) = arg.strip_prefix(prefix.as_str()) {
            Some(v.to_string())
        } else if arg == flag {
            iter.next()
        } else {
            continue;
        };
        return match value.as_deref().map(str::parse::<u64>) {
            Some(Ok(n)) => Some(n),
            _ => {
                relsim_obs::warn!(
                    "{flag} expects a number, got {:?}; using the default",
                    value.as_deref().unwrap_or("")
                );
                None
            }
        };
    }
    None
}

/// Parse `--faults N` (fault strikes per run) from the process arguments.
pub fn faults_from_args() -> Option<u64> {
    parse_u64_flag(std::env::args().skip(1), "--faults")
}

/// Parse `--fault-seed N` (campaign seed) from the process arguments.
pub fn fault_seed_from_args() -> Option<u64> {
    parse_u64_flag(std::env::args().skip(1), "--fault-seed")
}

/// Parse `--ckpt-interval N` (checkpoint period in ticks) from the
/// process arguments. Zero is rejected (warns and falls back to the
/// default): a checkpoint every tick is a degenerate configuration the
/// drivers clamp away anyway.
pub fn ckpt_interval_from_args() -> Option<u64> {
    match parse_u64_flag(std::env::args().skip(1), "--ckpt-interval") {
        Some(0) => {
            relsim_obs::warn!("--ckpt-interval must be positive; using the default");
            None
        }
        other => other,
    }
}

/// Help text fragment for the reliability-mode flags, for `--help`
/// output.
pub const MODE_HELP: &str = "  --mode M              reliability mode: off, checkpoint, dmr, backup, \
                             or all (default: all)\n  \
                             --faults N            fault strikes injected per run (default: 1000)\n  \
                             --fault-seed N        fault-campaign seed (default: fixed)\n  \
                             --ckpt-interval N     checkpoint period in ticks \
                             (default: the scale's quantum)";

/// What the cache flags asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheChoice {
    /// No flag (or an explicit `--cache`): cache on, default directory.
    Enabled,
    /// `--cache-dir PATH`: cache on, persistent tier at `PATH`.
    Dir(PathBuf),
    /// `--no-cache`: no result caching at all.
    Disabled,
}

/// Parse the result-cache flags from the process arguments and translate
/// them into a store configuration: `None` disables caching, otherwise
/// the persistent tier lives at `--cache-dir`, `$RELSIM_CACHE_DIR`, or
/// `.relsim-cache/` under [`out_dir`], in that order of preference.
pub fn cache_from_args() -> Option<relsim_cache::CacheConfig> {
    let dir = match parse_cache(std::env::args().skip(1)) {
        CacheChoice::Disabled => return None,
        CacheChoice::Dir(d) => d,
        CacheChoice::Enabled => match std::env::var("RELSIM_CACHE_DIR") {
            Ok(d) if !d.is_empty() => PathBuf::from(d),
            _ => out_dir().join(".relsim-cache"),
        },
    };
    Some(relsim_cache::CacheConfig { dir: Some(dir) })
}

/// Testable cache-flag parser. `--no-cache` wins over any enabling flag
/// regardless of order; `--cache-dir PATH` / `--cache-dir=PATH` picks the
/// persistent-tier directory; a bare `--cache-dir` warns and falls back
/// to the default directory.
pub fn parse_cache<I: IntoIterator<Item = String>>(args: I) -> CacheChoice {
    let mut choice = CacheChoice::Enabled;
    let mut disabled = false;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--no-cache" {
            disabled = true;
        } else if arg == "--cache" {
            // Explicit opt-in; same as the default.
        } else if let Some(v) = arg.strip_prefix("--cache-dir=") {
            choice = CacheChoice::Dir(PathBuf::from(v));
        } else if arg == "--cache-dir" {
            match iter.next() {
                Some(v) => choice = CacheChoice::Dir(PathBuf::from(v)),
                None => {
                    relsim_obs::warn!("--cache-dir expects a path; using the default directory");
                }
            }
        }
    }
    if disabled {
        CacheChoice::Disabled
    } else {
        choice
    }
}

/// Help text fragment for the cache flags, for `--help` output.
pub const CACHE_HELP: &str = "  --cache               content-addressed result cache (default: on)\n  \
                              --no-cache            recompute everything; identical output, slower\n  \
                              --cache-dir PATH      persistent cache tier location \
                              (default: $RELSIM_CACHE_DIR or <out>/.relsim-cache)";

/// The result-cache traffic of this run as a generic JSON value for the
/// run manifest, or `None` when caching is disabled.
pub fn cache_manifest_value() -> Option<serde::Value> {
    relsim_cache::global_stats().map(|s| s.to_value())
}

/// Open the run-level observer for a binary: events stream to
/// `--trace-out` (exiting cleanly if the path is unwritable), metrics and
/// phase timers accumulate for [`obs_finish`].
pub fn run_obs(args: &ObsArgs) -> RunObs {
    RunObs::with_sink(args.sink_or_exit())
}

/// Finish a binary's observed run: flush the event sink, write
/// `--metrics-out` (exiting cleanly on I/O failure), log the merged host
/// profile, and report any job failures the pool caught — exiting
/// nonzero if there were any, after all successful results were written.
pub fn obs_finish(args: &ObsArgs, obs: &mut RunObs) {
    // Fold the main thread's span state in before the snapshot below so
    // `--metrics-out` carries the `prof.*` series; pool-worker spans were
    // already merged at their scatter barriers.
    obs.absorb_spans("main");
    obs.sink.flush();
    let snapshot = obs.recorder.snapshot();
    args.write_metrics_or_exit(&snapshot);
    if let Some(path) = &args.trace_spans {
        match relsim_obs::write_chrome_trace(path, &obs.spans) {
            Ok(()) => info!("wrote {path:?}"),
            Err(e) => {
                relsim_obs::error!("cannot write {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.profiling_enabled() {
        if let Some(stage) = relsim_obs::StageProfile::from_snapshot(&snapshot) {
            let breakdown: Vec<String> = stage
                .stages
                .iter()
                .map(|s| {
                    format!(
                        "{} {:.2}s ({:.1}%)",
                        s.stage,
                        s.self_seconds,
                        100.0 * s.self_seconds / stage.attributed_seconds.max(f64::MIN_POSITIVE)
                    )
                })
                .collect();
            info!(
                "stage profile: {:.2}s attributed ({})",
                stage.attributed_seconds,
                breakdown.join(", ")
            );
        }
    }
    let profile = obs.timers.profile();
    if profile.attributed_seconds > 0.0 {
        let breakdown: Vec<String> = profile
            .phases
            .iter()
            .filter(|(_, s)| *s > 0.0)
            .map(|(n, s)| format!("{n} {s:.2}s"))
            .collect();
        info!(
            "host profile: {:.2}s attributed across workers ({})",
            profile.attributed_seconds,
            breakdown.join(", ")
        );
    }
    if let Some(stats) = relsim_cache::global_stats() {
        if stats.lookups() > 0 {
            info!(
                "cache: {}/{} hits ({:.0}%; memory {}, disk {}), {} stores, \
                 {} invalidations, {} B read, {} B written",
                stats.hits,
                stats.lookups(),
                stats.hit_rate() * 100.0,
                stats.memory_hits,
                stats.disk_hits,
                stats.stores,
                stats.invalidations,
                stats.bytes_read,
                stats.bytes_written
            );
        }
    }
    let failures = relsim::pool::take_failures();
    if !failures.is_empty() {
        for f in &failures {
            relsim_obs::error!("job failed: {}: {}", f.label, f.message);
        }
        relsim_obs::error!(
            "{} of the experiment jobs failed; results above exclude them",
            failures.len()
        );
        std::process::exit(1);
    }
}

/// Parse the experiment scale from CLI arguments (`--quick` shrinks it).
pub fn scale_from_args() -> Scale {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        Scale::quick()
    } else {
        Scale::default_scale()
    }
}

/// Directory where experiment outputs and caches are written.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(
        std::env::var("RELSIM_OUT").unwrap_or_else(|_| "target/experiments".to_owned()),
    );
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Build or load the shared experiment context for `scale`.
pub fn context(scale: Scale) -> Context {
    let path = out_dir().join(format!(
        "context-{MODEL_VERSION}-{}-{}.json",
        scale.isolation_ticks, scale.seed
    ));
    info!("context: building/loading isolated reference table ({path:?})");
    Context::load_or_build(scale, &path)
}

/// Persist a JSON result artifact next to the printed output. The write
/// is atomic (temp file + rename in the output directory), so a reader —
/// or a concurrent run of the same figure — never observes a partial
/// file.
pub fn save_json<T: Serialize>(name: &str, data: &T) {
    let path = out_dir().join(format!("{name}.json"));
    match serde_json::to_vec_pretty(data) {
        Ok(bytes) => {
            if let Err(e) = relsim_obs::write_atomic(&path, &bytes) {
                relsim_obs::warn!("could not write {path:?}: {e}");
            } else {
                info!("wrote {path:?}");
            }
        }
        Err(e) => relsim_obs::warn!("could not serialize {name}: {e}"),
    }
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Perf-trend gate logic for `bench_perf --check`: pure comparison of a
/// fresh measurement against the committed snapshot, kept in the library
/// so the thresholds are unit-testable without timing anything.
pub mod perf {
    /// Sample statistics of one timed row: all repeats in measurement
    /// order, the minimum (a deterministic workload's least-noisy cost
    /// estimate), and the spread relative to that minimum.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RowStat {
        /// Row name (`<workload>-<engine>-<skip|noskip>`).
        pub name: String,
        /// Best (minimum) wall time across the repeats, milliseconds.
        pub wall_ms: f64,
        /// Every repeat's wall time, in measurement order.
        pub samples_ms: Vec<f64>,
        /// Population standard deviation of the repeats, milliseconds.
        pub stddev_ms: f64,
        /// Relative spread of the *low half* of the repeats:
        /// `(median - min) / min`. The point estimate is the minimum, so
        /// the noise that matters is how far the floor wanders between
        /// runs — the low-half spread estimates that, while the full
        /// range `(max - min)` is dominated by one-off load spikes that
        /// the min estimator already rejects.
        pub jitter: f64,
    }

    impl RowStat {
        /// Reduce raw repeat timings to row statistics.
        ///
        /// # Panics
        ///
        /// Panics if `samples_ms` is empty.
        pub fn from_samples(name: &str, samples_ms: Vec<f64>) -> RowStat {
            assert!(!samples_ms.is_empty(), "row {name} measured no samples");
            let best = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
            let var = samples_ms.iter().map(|s| (s - mean).powi(2)).sum::<f64>()
                / samples_ms.len() as f64;
            let mut sorted = samples_ms.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            RowStat {
                name: name.to_string(),
                wall_ms: best,
                samples_ms,
                stddev_ms: var.sqrt(),
                jitter: if best > 0.0 {
                    (median - best) / best
                } else {
                    0.0
                },
            }
        }
    }

    /// Verdict on one row of a perf-trend check.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RowDelta {
        /// Row name.
        pub name: String,
        /// `fresh / committed` wall-time ratio (1.0 = unchanged).
        pub ratio: f64,
        /// Slowdown tolerance applied to this row (e.g. 0.10 = +10%).
        pub threshold: f64,
        /// Whether the row slowed down beyond the tolerance.
        pub regressed: bool,
        /// Whether a regression on this row fails the gate ([`gating`]).
        pub gating: bool,
    }

    /// Whether a regression on this row fails `bench_perf --check`.
    ///
    /// Detailed-engine rows gate: they time the data-oriented core tick
    /// loop itself (`-detailed-` canonical mix, `-membound-` stall-heavy
    /// companion), which is deterministic work where best-of-N wall time
    /// tracks real cost. Sampled rows stay warn-only — their wall time is
    /// dominated by functional fast-forwarding between detail intervals,
    /// a different (and much shorter) code path whose share of timer
    /// noise is proportionally larger.
    pub fn gating(name: &str) -> bool {
        name.contains("-detailed-") || name.contains("-membound-")
    }

    /// Minimum slowdown tolerated by [`compare`] regardless of how quiet
    /// the samples were: machine load the repeats didn't witness can
    /// still move best-of-N wall times by several percent.
    pub const NOISE_FLOOR: f64 = 0.10;

    /// How many measured jitters of headroom the gate grants on top of
    /// the floor: a row whose best-of-N floor already wanders by x% may
    /// honestly wander by a small multiple of that between runs.
    pub const JITTER_MARGIN: f64 = 2.0;

    /// Per-row slowdown tolerance: the noise floor or the jitter margin
    /// times the worse of the two runs' observed jitter, whichever is
    /// larger.
    pub fn threshold(committed: &RowStat, fresh: &RowStat) -> f64 {
        NOISE_FLOOR.max(JITTER_MARGIN * committed.jitter.max(fresh.jitter))
    }

    /// Diff fresh row measurements against the committed snapshot. Rows
    /// present on only one side are ignored (renames are not
    /// regressions). Speedups are never flagged.
    pub fn compare(committed: &[RowStat], fresh: &[RowStat]) -> Vec<RowDelta> {
        fresh
            .iter()
            .filter_map(|f| {
                let c = committed.iter().find(|c| c.name == f.name)?;
                let threshold = threshold(c, f);
                let ratio = if c.wall_ms > 0.0 {
                    f.wall_ms / c.wall_ms
                } else {
                    1.0
                };
                Some(RowDelta {
                    gating: gating(&f.name),
                    name: f.name.clone(),
                    ratio,
                    threshold,
                    regressed: ratio > 1.0 + threshold,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_cache, parse_jobs, parse_sample, CacheChoice};
    use relsim::SamplingConfig;
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Option<usize> {
        parse_jobs(args.iter().map(|s| s.to_string()))
    }

    fn sample(args: &[&str]) -> Option<SamplingConfig> {
        parse_sample(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn jobs_flag_forms() {
        assert_eq!(parse(&["--jobs", "4"]), Some(4));
        assert_eq!(parse(&["--jobs=8"]), Some(8));
        assert_eq!(parse(&["-j", "2"]), Some(2));
        assert_eq!(parse(&["-j16"]), Some(16));
        assert_eq!(parse(&["--jobs", "0"]), Some(0));
        assert_eq!(parse(&["--quick"]), None);
        // `-json` must not be mistaken for `-j son`.
        assert_eq!(parse(&["-json"]), None);
        assert_eq!(parse(&["--jobs", "lots"]), None);
    }

    #[test]
    fn no_skip_flag_forms() {
        use super::parse_no_skip;
        let parse = |args: &[&str]| parse_no_skip(args.iter().map(|s| s.to_string()));
        assert!(parse(&["--no-skip"]));
        assert!(parse(&["--quick", "--no-skip", "-j2"]));
        assert!(!parse(&["--quick"]));
        assert!(!parse(&["--no-skip=1"]), "flag takes no value");
    }

    #[test]
    fn cache_flag_forms() {
        let parse = |args: &[&str]| parse_cache(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&[]), CacheChoice::Enabled);
        assert_eq!(parse(&["--quick", "--cache"]), CacheChoice::Enabled);
        assert_eq!(parse(&["--no-cache"]), CacheChoice::Disabled);
        // `--no-cache` wins regardless of flag order.
        assert_eq!(
            parse(&["--no-cache", "--cache-dir", "/tmp/c"]),
            CacheChoice::Disabled
        );
        assert_eq!(
            parse(&["--cache-dir", "/tmp/c", "--no-cache"]),
            CacheChoice::Disabled
        );
        assert_eq!(
            parse(&["--cache-dir", "/tmp/c"]),
            CacheChoice::Dir(PathBuf::from("/tmp/c"))
        );
        assert_eq!(
            parse(&["--cache-dir=/tmp/d"]),
            CacheChoice::Dir(PathBuf::from("/tmp/d"))
        );
        // Bare `--cache-dir` warns and keeps the default directory.
        assert_eq!(parse(&["--cache-dir"]), CacheChoice::Enabled);
    }

    #[test]
    fn row_stats_from_samples() {
        use super::perf::RowStat;
        let r = RowStat::from_samples("row", vec![120.0, 100.0, 110.0]);
        assert_eq!(r.wall_ms, 100.0);
        assert_eq!(r.samples_ms, vec![120.0, 100.0, 110.0]);
        // Low-half spread: (median 110 - min 100) / min 100.
        assert!((r.jitter - 0.1).abs() < 1e-12, "jitter {}", r.jitter);
        // Population stddev of {120,100,110} = sqrt(200/3).
        assert!((r.stddev_ms - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
        let quiet = RowStat::from_samples("quiet", vec![50.0]);
        assert_eq!(
            (quiet.wall_ms, quiet.jitter, quiet.stddev_ms),
            (50.0, 0.0, 0.0)
        );
    }

    #[test]
    fn perf_check_flags_real_regressions_only() {
        use super::perf::{compare, RowStat, NOISE_FLOOR};
        let committed = vec![
            RowStat::from_samples("a", vec![100.0, 101.0, 100.5]),
            RowStat::from_samples("b", vec![200.0, 201.0, 200.2]),
            RowStat::from_samples("gone", vec![50.0]),
        ];
        let fresh = vec![
            // +20% on quiet samples: beyond the 10% floor -> regression.
            RowStat::from_samples("a", vec![120.0, 121.0, 120.4]),
            // -30%: speedups never flag.
            RowStat::from_samples("b", vec![140.0, 141.0, 140.2]),
            // Unknown row: ignored, not a regression.
            RowStat::from_samples("new", vec![10.0]),
        ];
        let deltas = compare(&committed, &fresh);
        assert_eq!(deltas.len(), 2);
        assert!(deltas[0].regressed, "{deltas:?}");
        assert!((deltas[0].ratio - 1.2).abs() < 1e-9);
        assert!((deltas[0].threshold - NOISE_FLOOR).abs() < 1e-12);
        assert!(!deltas[1].regressed, "{deltas:?}");
    }

    #[test]
    fn perf_check_widens_threshold_with_jitter() {
        use super::perf::{compare, RowStat};
        // Committed floor wanders by 8% (median 108 vs min 100) ->
        // 2 x 8% = 16% tolerance; a 12% slowdown passes.
        let committed = vec![RowStat::from_samples("noisy", vec![100.0, 115.0, 108.0])];
        let fresh = vec![RowStat::from_samples("noisy", vec![112.0, 113.0, 112.4])];
        let deltas = compare(&committed, &fresh);
        assert!((deltas[0].threshold - 0.16).abs() < 1e-9, "{deltas:?}");
        assert!(!deltas[0].regressed, "{deltas:?}");
        // The same 8% committed jitter does not excuse a 25% slowdown.
        let slow = vec![RowStat::from_samples("noisy", vec![125.0, 126.0, 125.5])];
        assert!(compare(&committed, &slow)[0].regressed);
    }

    #[test]
    fn perf_gate_covers_detailed_engine_rows_only() {
        use super::perf::{compare, gating, RowStat};
        assert!(gating("4B4S-detailed-skip"));
        assert!(gating("4B4S-detailed-noskip"));
        assert!(gating("4B4S-membound-skip"));
        assert!(gating("4B4S-membound-noskip"));
        assert!(!gating("4B4S-sampled-skip"));
        assert!(!gating("4B4S-sampled-noskip"));
        // compare() stamps each delta with the row's gate class.
        let committed = vec![
            RowStat::from_samples("4B4S-detailed-skip", vec![100.0]),
            RowStat::from_samples("4B4S-sampled-skip", vec![100.0]),
        ];
        let fresh = vec![
            RowStat::from_samples("4B4S-detailed-skip", vec![130.0]),
            RowStat::from_samples("4B4S-sampled-skip", vec![130.0]),
        ];
        let deltas = compare(&committed, &fresh);
        assert!(deltas[0].regressed && deltas[0].gating, "{deltas:?}");
        assert!(deltas[1].regressed && !deltas[1].gating, "{deltas:?}");
    }

    #[test]
    fn mode_flag_forms() {
        use super::parse_mode;
        use relsim::ModeKind;
        let parse = |args: &[&str]| parse_mode(args.iter().map(|s| s.to_string()));
        assert_eq!(
            parse(&["--mode", "checkpoint"]),
            Some(vec![ModeKind::Checkpoint])
        );
        assert_eq!(parse(&["--mode=dmr"]), Some(vec![ModeKind::Dmr]));
        assert_eq!(parse(&["--mode", "all"]), Some(ModeKind::ALL.to_vec()));
        assert_eq!(parse(&["--quick"]), None);
        assert_eq!(parse(&["--mode", "bogus"]), None, "invalid warns -> all");
        assert_eq!(parse(&["--mode"]), None, "bare flag warns -> all");
    }

    #[test]
    fn u64_flag_forms() {
        use super::parse_u64_flag;
        let parse =
            |args: &[&str], flag: &str| parse_u64_flag(args.iter().map(|s| s.to_string()), flag);
        assert_eq!(parse(&["--faults", "500"], "--faults"), Some(500));
        assert_eq!(parse(&["--faults=2000"], "--faults"), Some(2000));
        assert_eq!(parse(&["--ckpt-interval", "9"], "--ckpt-interval"), Some(9));
        assert_eq!(parse(&["--faults", "many"], "--faults"), None);
        assert_eq!(parse(&["--quick"], "--faults"), None);
        // A flag must not swallow another flag's value.
        assert_eq!(parse(&["--fault-seed", "7"], "--faults"), None);
    }

    #[test]
    fn sample_flag_forms() {
        let cfg = SamplingConfig::parse("2000:8000").unwrap();
        assert_eq!(sample(&["--sample", "2000:8000"]), Some(cfg));
        assert_eq!(
            sample(&["--quick", "--sample=1000:4000:7"]),
            Some(SamplingConfig::parse("1000:4000:7").unwrap())
        );
        assert_eq!(sample(&["--quick"]), None);
        assert_eq!(sample(&["--sample", "nonsense"]), None);
        assert_eq!(sample(&["--sample"]), None);
        assert_eq!(sample(&["--sample", "0:4000"]), None);
    }
}
