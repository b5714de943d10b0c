//! End-to-end and per-layer benchmark of relsim.
//!
//! Two workloads drive the simulator through its public entry points
//! (see `README.md` for why each was chosen):
//!
//! * [`grid`] — `grid-2b2s`: `experiments::compare_schedulers` over the
//!   2B2S four-program grid, fully detailed, `-j2`, cache writes;
//! * [`serve`] — `serve-hotcold`: an in-process `relsim-serve` daemon
//!   under hot/cold HTTP traffic, open loop and in closed-loop bursts.
//!
//! Every workload times its operations with tracing off, in host seconds
//! and in reference seconds that divide out the shared host's drifting
//! speed ([`speed`]), checks every output ([`gate`]), and — when asked —
//! runs a separate traced pass that splits the same work into public
//! calls per layer ([`spans`], [`layers`]). The grid's traced pass also
//! runs [`membound`]'s sampled, memory-bound run under a fault campaign.

#![forbid(unsafe_code)]

pub mod gate;
pub mod grid;
pub mod layers;
pub mod membound;
pub mod report;
pub mod serve;
pub mod spans;
pub mod speed;
pub mod stats;

use relsim::experiments::{Context, Scale};
use std::path::PathBuf;

/// Worker threads for the experiment pool and the daemon's exec pool:
/// the benchmark is sized for a two-CPU host, with the load coming from
/// one process with at most that many threads of work.
pub const JOBS: usize = 2;

/// How many times set-up is repeated per invocation; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 3;

/// Run settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: reaches the program only as generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether to run the traced pass after the timed phase.
    pub trace: bool,
    /// Scratch directory for cache stores and the span file.
    pub work_dir: PathBuf,
}

/// Build the context of `scale` from scratch (no context file, no
/// result cache).
pub fn build_context(scale: Scale) -> Context {
    relsim_cache::configure(None);
    Context::build(scale)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A size field of `/proc/self/status` in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: the benchmark's only random source, so the same
/// seed always generates the same inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from [`splitmix64`].
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seed derived from `(seed, stream)`, for independent input streams.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
    splitmix64(&mut s)
}

/// A fresh, empty directory for one cache store.
pub fn fresh_dir(work: &std::path::Path, tag: &str) -> PathBuf {
    let dir = work.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
