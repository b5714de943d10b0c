//! Isolated single-application reference runs.
//!
//! The paper's metrics need per-benchmark reference data from isolated
//! big-core execution (reference IPS for SSER's `T_ref` and STP's
//! normalization), and the motivation figures (1, 2, 5) are isolated-run
//! characterizations. This module runs one application alone on one core
//! with perfect ACE counters and reports everything those uses need.

use relsim_ace::{avf, AbcStack, AceCounter, CounterKind};
use relsim_cpu::{Core, CoreConfig, CoreKind, CpiStack};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_trace::{BenchmarkProfile, TraceGenerator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Outcome of one isolated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsolatedResult {
    /// Benchmark name.
    pub name: String,
    /// Core type it ran on.
    pub kind: CoreKind,
    /// Run length in ticks.
    pub ticks: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// Total ACE bit-time (perfect counters).
    pub abc: f64,
    /// Per-structure ABC breakdown.
    pub stack: AbcStack,
    /// Architectural vulnerability factor over the run.
    pub avf: f64,
    /// Instructions per tick.
    pub ips: f64,
    /// ACE bit-time per tick.
    pub abc_rate: f64,
    /// CPI stack.
    pub cpi: CpiStack,
}

/// Run `profile` alone on a core of the given configuration for
/// `duration` ticks (with pre-warmed caches) and measure it.
pub fn run_isolated(
    profile: &BenchmarkProfile,
    core_cfg: &CoreConfig,
    duration: u64,
    seed: u64,
) -> IsolatedResult {
    run_isolated_with(
        profile,
        core_cfg,
        PrivateCacheConfig::default(),
        duration,
        seed,
    )
}

/// Like [`run_isolated`], with an explicit private-cache configuration
/// (e.g. to enable the L2 prefetcher in ablation studies).
pub fn run_isolated_with(
    profile: &BenchmarkProfile,
    core_cfg: &CoreConfig,
    cache_cfg: PrivateCacheConfig,
    duration: u64,
    seed: u64,
) -> IsolatedResult {
    let mut core = Core::new(core_cfg.clone(), cache_cfg);
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut counter = AceCounter::new(core_cfg, CounterKind::Perfect);
    let mut gen = TraceGenerator::new(profile.clone(), seed, 0);
    let (base, bytes) = gen.l3_warm_span();
    shared.warm_region(base, bytes);

    let mut t = 0;
    while t < duration {
        t = core.step(t, duration, &mut gen, &mut shared, &mut counter);
    }

    let abc = counter.abc(duration);
    IsolatedResult {
        name: profile.name.clone(),
        kind: core_cfg.kind,
        ticks: duration,
        instructions: core.committed(),
        abc,
        stack: counter.stack(duration),
        avf: avf(abc, core_cfg.total_bits(), duration),
        ips: core.committed() as f64 / duration as f64,
        abc_rate: abc / duration as f64,
        cpi: *core.cpi_stack(),
    }
}

/// Cached isolated-run results for a set of benchmarks on both core types.
///
/// Building the table simulates each benchmark once per core type; all
/// downstream uses (reference IPS, AVF classification, oracle schedules)
/// read from the cache.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "Vec<IsolatedResult>", into = "Vec<IsolatedResult>")]
pub struct ReferenceTable {
    entries: HashMap<(String, CoreKind), IsolatedResult>,
}

impl From<Vec<IsolatedResult>> for ReferenceTable {
    fn from(v: Vec<IsolatedResult>) -> Self {
        let entries = v
            .into_iter()
            .map(|r| ((r.name.clone(), r.kind), r))
            .collect();
        ReferenceTable { entries }
    }
}

impl From<ReferenceTable> for Vec<IsolatedResult> {
    fn from(t: ReferenceTable) -> Self {
        let mut v: Vec<IsolatedResult> = t.entries.into_values().collect();
        v.sort_by(|a, b| {
            (&a.name, a.kind == CoreKind::Small).cmp(&(&b.name, b.kind == CoreKind::Small))
        });
        v
    }
}

impl ReferenceTable {
    /// Build the table for `profiles`, running each for `duration` ticks
    /// per core type. `big`/`small` give the core configurations (allowing
    /// e.g. the half-frequency small core of Section 6.4). The
    /// `profiles × {big, small}` grid is sharded across the job pool;
    /// each run is seeded identically to the serial implementation, so
    /// the table is the same at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if any isolated run panics — the table is the foundation of
    /// every downstream metric, so a partial table is never useful.
    ///
    /// Each isolated run is individually content-addressed (profile,
    /// core config, duration, seed), so rebuilding a table — including
    /// ablation variants that perturb one core parameter — recomputes
    /// only the runs whose inputs actually changed.
    pub fn build(
        profiles: &[BenchmarkProfile],
        big: &CoreConfig,
        small: &CoreConfig,
        duration: u64,
    ) -> Self {
        const SEED: u64 = 1;
        let grid: Vec<(Option<relsim_cache::Key>, (&BenchmarkProfile, &CoreConfig))> = profiles
            .iter()
            .flat_map(|p| [(p, big), (p, small)])
            .map(|(p, cfg)| {
                let key = crate::cache::key_if_enabled("isolated/v1", &(p, cfg, duration, SEED));
                (key, (p, cfg))
            })
            .collect();
        let names: Vec<(String, CoreKind)> = profiles
            .iter()
            .flat_map(|p| [(p.name.clone(), big.kind), (p.name.clone(), small.kind)])
            .collect();
        let results = crate::pool::scatter(
            "isolated",
            grid,
            &mut relsim_obs::RunObs::disabled(),
            crate::pool::default_jobs(),
            |_, (p, cfg), _| run_isolated(p, cfg, duration, SEED),
        );
        let mut entries = HashMap::new();
        let mut failed: Vec<String> = Vec::new();
        for (slot, (name, kind)) in results.into_iter().zip(names) {
            match slot {
                Ok(r) => {
                    entries.insert((r.name.clone(), r.kind), r);
                }
                Err(_) => failed.push(format!("({name}, {kind})")),
            }
        }
        assert!(
            failed.is_empty(),
            "isolated characterization failed for {}",
            failed.join(", ")
        );
        ReferenceTable { entries }
    }

    /// A stable hex digest of the table's full contents, for embedding
    /// in downstream cache keys: any change to any isolated result
    /// changes every key derived from the table.
    pub fn fingerprint(&self) -> String {
        relsim_cache::Key::of(self).hex()
    }

    /// Look up one isolated result.
    pub fn get(&self, name: &str, kind: CoreKind) -> Option<&IsolatedResult> {
        self.entries.get(&(name.to_owned(), kind))
    }

    /// Reference (isolated big-core) instructions per tick for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not in the table.
    pub fn ref_ips(&self, name: &str) -> f64 {
        self.get(name, CoreKind::Big)
            .unwrap_or_else(|| panic!("{name:?} not in reference table"))
            .ips
    }

    /// All benchmark names in the table.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .entries
            .keys()
            .filter(|(_, k)| *k == CoreKind::Big)
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Big-core AVFs, sorted ascending (the order of Figure 1).
    pub fn sorted_big_avfs(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .entries
            .iter()
            .filter(|((_, k), _)| *k == CoreKind::Big)
            .map(|((n, _), r)| (n.clone(), r.avf))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relsim_trace::spec_profile;

    const TICKS: u64 = 150_000;

    #[test]
    fn isolated_run_produces_consistent_measurements() {
        let p = spec_profile("hmmer").unwrap();
        let r = run_isolated(&p, &CoreConfig::big(), TICKS, 1);
        assert_eq!(r.kind, CoreKind::Big);
        assert!(r.instructions > 0);
        assert!(r.abc > 0.0);
        assert!((r.ips - r.instructions as f64 / TICKS as f64).abs() < 1e-12);
        assert!(r.avf > 0.0 && r.avf < 1.0, "AVF {}", r.avf);
        assert!((r.stack.total() - r.abc).abs() < 1e-6);
    }

    #[test]
    fn isolated_runs_are_deterministic() {
        let p = spec_profile("gobmk").unwrap();
        let a = run_isolated(&p, &CoreConfig::big(), TICKS, 7);
        let b = run_isolated(&p, &CoreConfig::big(), TICKS, 7);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.abc, b.abc);
    }

    #[test]
    fn big_core_faster_but_more_vulnerable_than_small() {
        let p = spec_profile("milc").unwrap();
        let big = run_isolated(&p, &CoreConfig::big(), TICKS, 1);
        let small = run_isolated(&p, &CoreConfig::small(), TICKS, 1);
        assert!(big.ips > small.ips, "big core is faster");
        assert!(
            big.abc_rate > small.abc_rate,
            "big core exposes more ACE bits per tick: {} vs {}",
            big.abc_rate,
            small.abc_rate
        );
    }

    #[test]
    fn reference_table_round_trips() {
        let profiles: Vec<_> = ["hmmer", "mcf"]
            .iter()
            .map(|n| spec_profile(n).unwrap())
            .collect();
        let t = ReferenceTable::build(&profiles, &CoreConfig::big(), &CoreConfig::small(), 100_000);
        assert_eq!(t.names(), vec!["hmmer".to_owned(), "mcf".to_owned()]);
        assert!(t.ref_ips("hmmer") > t.ref_ips("mcf"));
        assert!(t.get("mcf", CoreKind::Small).is_some());
        let avfs = t.sorted_big_avfs();
        assert_eq!(avfs.len(), 2);
        assert!(avfs[0].1 <= avfs[1].1);
    }
}
