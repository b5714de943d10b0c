//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (see DESIGN.md §3 for the experiment index).
//!
//! All experiments are deterministic given a [`Scale`]. The expensive
//! shared artifact, the isolated-run reference table, is built by
//! [`Context::build`], whose isolated runs go through the result cache.

use crate::evaluate::{evaluate, Evaluation, DEFAULT_IFR};
use crate::isolated::{run_isolated, IsolatedResult, ReferenceTable};
use crate::mixes::{generate_mixes, Classification, Mix};
use crate::oracle::{oracle_schedules, OracleOutcome};
use crate::reliability::{ModeKind, ReliabilityPlan, ReliabilityReport};
use crate::sched::{
    BackupScheduler, Objective, RandomScheduler, SamplingParams, SamplingScheduler, Scheduler,
    StaticScheduler,
};
use crate::system::{AppSpec, RunResult, System, SystemConfig};
use relsim_ace::CounterKind;
use relsim_cache::Key;
use relsim_cpu::{CoreConfig, CoreKind};
use relsim_metrics::arithmetic_mean;
use relsim_obs::span::{self, Stage};
use relsim_obs::RunObs;
use relsim_power::{PowerModel, PowerReport, SharedActivity};
use serde::{Deserialize, Serialize};

/// Experiment scale knobs (DESIGN.md §7 maps them to the paper's values).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Ticks per isolated characterization run.
    pub isolation_ticks: u64,
    /// Ticks per multiprogram run.
    pub run_ticks: u64,
    /// Scheduler quantum in ticks.
    pub quantum_ticks: u64,
    /// Workloads generated per mix category (paper: 6).
    pub per_category: usize,
    /// Master seed for workload generation.
    pub seed: u64,
}

impl Scale {
    /// The default (laptop-scale) configuration used in EXPERIMENTS.md.
    pub fn default_scale() -> Self {
        Scale {
            isolation_ticks: 1_000_000,
            run_ticks: 1_200_000,
            quantum_ticks: 20_000,
            per_category: 6,
            seed: 2017,
        }
    }

    /// A much smaller configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Scale {
            isolation_ticks: 120_000,
            run_ticks: 200_000,
            quantum_ticks: 10_000,
            per_category: 1,
            seed: 2017,
        }
    }
}

/// Shared experiment context: the scale, the isolated-run reference table
/// for all 29 benchmarks, and the H/M/L classification derived from it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Context {
    /// Scale the context was built at.
    pub scale: Scale,
    /// Isolated-run data for every benchmark on both core types.
    pub refs: ReferenceTable,
    /// AVF-based sensitivity classification.
    pub class: Classification,
}

impl Context {
    /// Build the context by simulating every benchmark in isolation on
    /// both core types (the expensive, shared step).
    pub fn build(scale: Scale) -> Self {
        let profiles = relsim_trace::spec2006_profiles();
        let refs = ReferenceTable::build(
            &profiles,
            &CoreConfig::big(),
            &CoreConfig::small(),
            scale.isolation_ticks,
        );
        let class = Classification::from_avfs(&refs.sorted_big_avfs(), 8);
        Context { scale, refs, class }
    }

    /// The paper's 4-program workload set (36 mixes at paper scale).
    pub fn four_program_mixes(&self) -> Vec<Mix> {
        generate_mixes(&self.class, 4, self.scale.per_category, self.scale.seed)
    }

    /// The 2-program workload set.
    pub fn two_program_mixes(&self) -> Vec<Mix> {
        generate_mixes(&self.class, 2, self.scale.per_category, self.scale.seed + 1)
    }

    /// The 8-program workload set.
    pub fn eight_program_mixes(&self) -> Vec<Mix> {
        generate_mixes(&self.class, 8, self.scale.per_category, self.scale.seed + 2)
    }
}

/// Which scheduler to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedKind {
    /// Random assignment every quantum.
    Random,
    /// Sampling scheduler optimizing STP.
    PerfOpt,
    /// Sampling scheduler optimizing SSER (the paper's contribution).
    RelOpt,
}

impl SchedKind {
    /// All three evaluated schedulers, in report order.
    pub const ALL: [SchedKind; 3] = [SchedKind::Random, SchedKind::PerfOpt, SchedKind::RelOpt];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Random => "random",
            SchedKind::PerfOpt => "performance-optimized",
            SchedKind::RelOpt => "reliability-optimized",
        }
    }

    fn build(
        self,
        kinds: Vec<CoreKind>,
        quantum: u64,
        params: SamplingParams,
        seed: u64,
    ) -> Box<dyn Scheduler> {
        match self {
            SchedKind::Random => Box::new(RandomScheduler::new(kinds, quantum, seed)),
            SchedKind::PerfOpt => Box::new(SamplingScheduler::new(
                Objective::Stp,
                kinds,
                quantum,
                params,
            )),
            SchedKind::RelOpt => Box::new(SamplingScheduler::new(
                Objective::Sser,
                kinds,
                quantum,
                params,
            )),
        }
    }
}

/// Run one mix on one system configuration under one scheduler.
pub fn run_mix(
    ctx: &Context,
    sys_cfg: &SystemConfig,
    mix: &Mix,
    sched: SchedKind,
    params: SamplingParams,
) -> (Evaluation, RunResult) {
    run_mix_traced(ctx, sys_cfg, mix, sched, params, &mut RunObs::disabled())
}

/// [`run_mix`] with observability: events stream to `obs.sink` and
/// metrics accumulate in `obs.recorder`. This is the per-job body the
/// parallel drivers hand to the pool.
pub fn run_mix_traced(
    ctx: &Context,
    sys_cfg: &SystemConfig,
    mix: &Mix,
    sched: SchedKind,
    params: SamplingParams,
    obs: &mut RunObs,
) -> (Evaluation, RunResult) {
    let specs = mix_specs(ctx, mix);
    let mut scheduler = sched.build(
        sys_cfg.core_kinds(),
        sys_cfg.quantum_ticks,
        params,
        ctx.scale.seed,
    );
    let mut system = System::new(sys_cfg.clone(), &specs);
    let result = system.run_traced(scheduler.as_mut(), ctx.scale.run_ticks, obs);
    let eval = span::scope(Stage::Metrics, || evaluate(&result, &ctx.refs, DEFAULT_IFR));
    (eval, result)
}

/// The per-app specs a mix expands to: benchmark profiles plus the
/// deterministic per-app trace seeds derived from the scale's master
/// seed. This exact expansion is hashed into cache keys, so it is the
/// single source of truth for what a mix *runs*.
fn mix_specs(ctx: &Context, mix: &Mix) -> Vec<AppSpec> {
    mix.benchmarks
        .iter()
        .enumerate()
        .map(|(i, n)| AppSpec::spec(n, ctx.scale.seed ^ (i as u64 + 1)))
        .collect()
}

/// System configuration helper honoring the context's quantum.
pub fn hcmp_config(ctx: &Context, n_big: usize, n_small: usize) -> SystemConfig {
    let mut cfg = SystemConfig::hcmp(n_big, n_small);
    cfg.quantum_ticks = ctx.scale.quantum_ticks;
    cfg.migration_ticks = (ctx.scale.quantum_ticks / 50).max(1);
    cfg
}

// ===================================================================
// Figure 1 & 2 & 5: isolated characterization
// ===================================================================

/// One row of Figure 1 / 2 / 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IsolatedRow {
    /// Benchmark name.
    pub name: String,
    /// Sensitivity category.
    pub category: String,
    /// Big-core isolated measurements.
    pub big: IsolatedResult,
}

/// Figure 1 (sorted big-core AVF) plus the data for Figures 2 and 5,
/// in ascending-AVF order.
pub fn isolated_characterization(ctx: &Context) -> Vec<IsolatedRow> {
    ctx.refs
        .sorted_big_avfs()
        .into_iter()
        .map(|(name, _)| {
            let big = ctx
                .refs
                .get(&name, CoreKind::Big)
                .expect("in table")
                .clone();
            let category = ctx
                .class
                .category_of(&name)
                .map(|c| c.to_string())
                .unwrap_or_default();
            IsolatedRow {
                name,
                category,
                big,
            }
        })
        .collect()
}

/// Correlation coefficient between ROB ABC and total core ABC across
/// benchmarks (the paper reports 0.99, Section 4.2).
pub fn rob_abc_correlation(rows: &[IsolatedRow]) -> f64 {
    let xs: Vec<f64> = rows.iter().map(|r| r.big.stack.rob).collect();
    let ys: Vec<f64> = rows.iter().map(|r| r.big.stack.total()).collect();
    pearson(&xs, &ys)
}

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = arithmetic_mean(xs);
    let my = arithmetic_mean(ys);
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    if vx == 0.0 || vy == 0.0 {
        0.0
    } else {
        cov / (vx * vy).sqrt()
    }
}

// ===================================================================
// Figure 3: oracle potential study
// ===================================================================

/// Figure 3: oracle SER gain and STP loss per 4-program workload on 2B2S.
/// Workloads are sharded across the job pool; a panicking workload is
/// dropped from the result (and reported via the pool's failure channel).
/// Each outcome is content-addressed by the reference-table fingerprint
/// and the benchmark set, so repeat runs are cache hits.
pub fn oracle_study(ctx: &Context) -> Vec<(Mix, OracleOutcome)> {
    const N_BIG: usize = 2;
    let fingerprint = refs_fingerprint(ctx);
    let mixes = ctx.four_program_mixes();
    let items: Vec<(Option<Key>, Vec<String>)> = mixes
        .iter()
        .map(|m| {
            let key = crate::cache::key_if_enabled(
                "oracle/v1",
                &(&fingerprint, &m.benchmarks, N_BIG as u64),
            );
            (key, m.benchmarks.clone())
        })
        .collect();
    let outcomes = crate::pool::scatter(
        "oracle",
        items,
        &mut RunObs::disabled(),
        crate::pool::default_jobs(),
        |_, benches, _| oracle_schedules(&ctx.refs, &benches, N_BIG),
    );
    mixes
        .into_iter()
        .zip(outcomes)
        .filter_map(|(m, o)| match o {
            Ok(o) => Some((m, o)),
            Err(_) => {
                // The pool has already warned with the panic; name the
                // dropped mix so a shrunken study is explainable.
                relsim_obs::warn!(
                    "oracle study: dropping mix {:?} {:?} (job panicked)",
                    m.category,
                    m.benchmarks
                );
                None
            }
        })
        .collect()
}

// ===================================================================
// Figures 6-12: scheduler comparisons
// ===================================================================

/// Metrics of one workload under the three schedulers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MixComparison {
    /// The workload.
    pub mix: Mix,
    /// SSER per scheduler, in [`SchedKind::ALL`] order.
    pub sser: [f64; 3],
    /// STP per scheduler.
    pub stp: [f64; 3],
    /// Chip/DRAM power per scheduler.
    pub power: [PowerReport; 3],
}

impl MixComparison {
    /// SSER of one scheduler normalized to the random scheduler.
    pub fn sser_vs_random(&self, sched: SchedKind) -> f64 {
        self.sser[sched_index(sched)] / self.sser[0]
    }

    /// STP of one scheduler normalized to the random scheduler.
    pub fn stp_vs_random(&self, sched: SchedKind) -> f64 {
        self.stp[sched_index(sched)] / self.stp[0]
    }
}

fn sched_index(s: SchedKind) -> usize {
    match s {
        SchedKind::Random => 0,
        SchedKind::PerfOpt => 1,
        SchedKind::RelOpt => 2,
    }
}

/// Everything any figure driver needs from one `mix × scheduler` run.
/// All grid drivers share this one cell shape — and therefore one cache
/// site — so a cell computed for one figure is a cache hit for every
/// other figure that replays the same grid point (Figure 10's 2B2S
/// column and Figure 11's default setting both replay Figure 6's grid).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixCell {
    /// System soft-error rate (the paper's reliability metric).
    pub sser: f64,
    /// System throughput.
    pub stp: f64,
    /// Chip/DRAM power.
    pub power: PowerReport,
    /// Ticks simulated cycle-detailed (equals `total_ticks` when the
    /// interval-sampling engine is off).
    pub detailed_ticks: u64,
    /// Total simulated ticks.
    pub total_ticks: u64,
}

/// Compute one grid cell: run the mix under one scheduler, evaluate,
/// and report power and engine coverage.
pub fn run_mix_cell(
    ctx: &Context,
    sys_cfg: &SystemConfig,
    mix: &Mix,
    sched: SchedKind,
    params: SamplingParams,
    obs: &mut RunObs,
) -> MixCell {
    let (eval, result) = run_mix_traced(ctx, sys_cfg, mix, sched, params, obs);
    let activities: Vec<_> = result.cores.iter().map(|c| c.to_activity()).collect();
    let shared = SharedActivity {
        l3_accesses: result.shared.l3_accesses,
        mem_requests: result.shared.mem_requests,
    };
    let power = span::scope(Stage::Metrics, || {
        PowerModel::default().report(&activities, &shared, result.duration)
    });
    let (detailed, ff) = result
        .sampling
        .map_or((result.duration, 0), |r| (r.detailed_ticks, r.ff_ticks));
    MixCell {
        sser: eval.sser,
        stp: eval.stp,
        power,
        detailed_ticks: detailed,
        total_ticks: detailed + ff,
    }
}

/// The reference-table fingerprint when caching is on (it is hashed
/// into every cell key), or the empty string — unused — when off.
fn refs_fingerprint(ctx: &Context) -> String {
    if relsim_cache::enabled() {
        ctx.refs.fingerprint()
    } else {
        String::new()
    }
}

/// The cache key of one [`MixCell`], or `None` when caching is off.
/// The input covers every run determinant: the reference table (via its
/// fingerprint), the system config (incl. quantum, migration cost, and
/// counter kind), the expanded app specs (profiles + trace seeds), the
/// scheduler kind/params/seed, the run length, and the process-wide
/// engine switches (interval sampling, event-horizon skip).
fn cell_key(
    ctx: &Context,
    fingerprint: &str,
    sys_cfg: &SystemConfig,
    mix: &Mix,
    sched: SchedKind,
    params: &SamplingParams,
) -> Option<Key> {
    crate::cache::key_if_enabled(
        "mix-cell/v1",
        &(
            fingerprint,
            sys_cfg,
            mix_specs(ctx, mix),
            sched,
            params,
            (ctx.scale.run_ticks, ctx.scale.seed),
            (
                crate::sampling::default_config(),
                crate::skip::default_enabled(),
            ),
        ),
    )
}

/// Run a workload set on one system configuration under all three
/// schedulers (the engine behind Figures 6-10 and 12).
///
/// The `mix × scheduler` grid is sharded across the job pool; each run
/// observes through its own buffered sink/recorder, merged into `obs` in
/// grid order (mix-major, [`SchedKind::ALL`] order within a mix), so the
/// output stream is identical at any worker count. A mix with a failed
/// run is dropped from the result with a warning; the failure itself is
/// reported through the pool's failure channel.
///
/// When the process-wide result cache is enabled, each cell is
/// content-addressed (`cell_key`) and served through
/// [`crate::pool::scatter`]: previously computed cells
/// replay their stored results, events, and metrics instead of
/// re-simulating.
pub fn compare_schedulers(
    ctx: &Context,
    sys_cfg: &SystemConfig,
    mixes: &[Mix],
    params: SamplingParams,
    obs: &mut RunObs,
) -> Vec<MixComparison> {
    let fingerprint = refs_fingerprint(ctx);
    let grid: Vec<(Option<Key>, (usize, SchedKind))> = (0..mixes.len())
        .flat_map(|mi| SchedKind::ALL.map(|s| (mi, s)))
        .map(|(mi, s)| {
            let key = cell_key(ctx, &fingerprint, sys_cfg, &mixes[mi], s, &params);
            (key, (mi, s))
        })
        .collect();
    let jobs = crate::pool::default_jobs();
    let runs = crate::pool::scatter("compare", grid, obs, jobs, |_, (mi, sched), job_obs| {
        run_mix_cell(ctx, sys_cfg, &mixes[mi], sched, params, job_obs)
    });
    let mut out = Vec::with_capacity(mixes.len());
    for (mi, mix) in mixes.iter().enumerate() {
        let mut sser = [0.0; 3];
        let mut stp = [0.0; 3];
        let mut power = [PowerReport {
            chip_watts: 0.0,
            dram_watts: 0.0,
        }; 3];
        let mut complete = true;
        for sched in SchedKind::ALL {
            let i = sched_index(sched);
            match &runs[mi * SchedKind::ALL.len() + i] {
                Ok(cell) => {
                    sser[i] = cell.sser;
                    stp[i] = cell.stp;
                    power[i] = cell.power;
                }
                Err(_) => complete = false,
            }
        }
        if complete {
            out.push(MixComparison {
                mix: mix.clone(),
                sser,
                stp,
                power,
            });
        } else {
            relsim_obs::warn!(
                "dropping mix {} ({:?}): a scheduler run failed",
                mix.category,
                mix.benchmarks
            );
        }
    }
    out
}

/// Aggregate summary of a scheduler comparison (the headline numbers).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonSummary {
    /// Mean SSER reduction of the reliability scheduler vs random
    /// (positive = better reliability).
    pub rel_vs_random_sser: f64,
    /// Maximum SSER reduction vs random.
    pub rel_vs_random_sser_max: f64,
    /// Mean SSER reduction vs the performance-optimized scheduler.
    pub rel_vs_perf_sser: f64,
    /// Maximum SSER reduction vs the performance-optimized scheduler.
    pub rel_vs_perf_sser_max: f64,
    /// Mean STP loss vs the performance-optimized scheduler
    /// (positive = slower).
    pub rel_vs_perf_stp_loss: f64,
    /// Mean SSER reduction of the performance-optimized scheduler vs
    /// random.
    pub perf_vs_random_sser: f64,
    /// Mean STP gain of the reliability scheduler vs random.
    pub rel_vs_random_stp: f64,
}

/// Summarize a comparison set.
pub fn summarize(comparisons: &[MixComparison]) -> ComparisonSummary {
    let red = |num: &dyn Fn(&MixComparison) -> f64,
               den: &dyn Fn(&MixComparison) -> f64|
     -> Vec<f64> { comparisons.iter().map(|c| 1.0 - num(c) / den(c)).collect() };
    let rel_rand = red(&|c| c.sser[2], &|c| c.sser[0]);
    let rel_perf = red(&|c| c.sser[2], &|c| c.sser[1]);
    let perf_rand = red(&|c| c.sser[1], &|c| c.sser[0]);
    let stp_loss = red(&|c| c.stp[2], &|c| c.stp[1]);
    let stp_gain: Vec<f64> = comparisons
        .iter()
        .map(|c| c.stp[2] / c.stp[0] - 1.0)
        .collect();
    // f64::max silently drops NaN operands; an invalid run (NaN SSER from
    // a broken reference) must poison the maximum the same way it poisons
    // the means.
    let nan_max = |xs: &[f64]| {
        xs.iter().copied().fold(f64::MIN, |a, b| {
            if a.is_nan() || b.is_nan() {
                f64::NAN
            } else {
                a.max(b)
            }
        })
    };
    ComparisonSummary {
        rel_vs_random_sser: arithmetic_mean(&rel_rand),
        rel_vs_random_sser_max: nan_max(&rel_rand),
        rel_vs_perf_sser: arithmetic_mean(&rel_perf),
        rel_vs_perf_sser_max: nan_max(&rel_perf),
        rel_vs_perf_stp_loss: arithmetic_mean(&stp_loss),
        perf_vs_random_sser: arithmetic_mean(&perf_rand),
        rel_vs_random_stp: arithmetic_mean(&stp_gain),
    }
}

/// Group comparisons by mix category and average the per-scheduler
/// metrics (Figure 7).
pub fn by_category(comparisons: &[MixComparison]) -> Vec<(String, [f64; 3], [f64; 3])> {
    let mut order: Vec<String> = Vec::new();
    for c in comparisons {
        if !order.contains(&c.mix.category) {
            order.push(c.mix.category.clone());
        }
    }
    order
        .into_iter()
        .map(|cat| {
            let members: Vec<&MixComparison> = comparisons
                .iter()
                .filter(|c| c.mix.category == cat)
                .collect();
            let mut sser = [0.0; 3];
            let mut stp = [0.0; 3];
            for i in 0..3 {
                sser[i] = arithmetic_mean(&members.iter().map(|m| m.sser[i]).collect::<Vec<_>>());
                stp[i] = arithmetic_mean(&members.iter().map(|m| m.stp[i]).collect::<Vec<_>>());
            }
            (cat, sser, stp)
        })
        .collect()
}

// ===================================================================
// Figure 4: ABC timeline (phase-change response)
// ===================================================================

/// One co-run timeline point: `(start_tick, abc_rate, on_big_core)`.
pub type CorunPoint = (u64, f64, bool);

/// Data behind Figure 4: per-quantum ABC of calculix and povray, isolated
/// on a big core and co-running on 1B1S under the reliability scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AbcTimeline {
    /// Quantum length used for bucketing.
    pub quantum_ticks: u64,
    /// Isolated big-core ABC per quantum: (benchmark, series).
    pub isolated: Vec<(String, Vec<f64>)>,
    /// Co-running ABC per segment, per benchmark.
    pub corun: Vec<(String, Vec<CorunPoint>)>,
}

/// Produce the Figure 4 timeline for two benchmarks (the paper uses
/// calculix and povray). The whole timeline — which does not depend on
/// the reference table — is cached as one unit when the result cache is
/// enabled.
pub fn abc_timeline(ctx: &Context, bench_a: &str, bench_b: &str) -> AbcTimeline {
    let input = (
        bench_a,
        bench_b,
        ctx.scale,
        (
            crate::sampling::default_config(),
            crate::skip::default_enabled(),
        ),
    );
    crate::cache::cached("abc-timeline/v1", &input, &mut RunObs::disabled(), |_| {
        abc_timeline_uncached(ctx, bench_a, bench_b)
    })
}

fn abc_timeline_uncached(ctx: &Context, bench_a: &str, bench_b: &str) -> AbcTimeline {
    let q = ctx.scale.quantum_ticks;
    // Isolated series: run on a big core, bucket ABC per quantum.
    let mut isolated = Vec::new();
    for name in [bench_a, bench_b] {
        let profile = relsim_trace::spec_profile(name).expect("known benchmark");
        let mut series = Vec::new();
        // Re-run per quantum bucket to extract a time series.
        let mut sys = System::new(
            {
                let mut c = hcmp_config(ctx, 1, 1);
                c.quantum_ticks = q;
                c
            },
            &[AppSpec::spec(name, 1), AppSpec::spec("povray", 999)],
        );
        // Pin the benchmark to the big core by using a pinned scheduler.
        struct Pinned(u64);
        impl Scheduler for Pinned {
            fn name(&self) -> &'static str {
                "pinned"
            }
            fn next_segment(&mut self) -> crate::sched::Segment {
                crate::sched::Segment {
                    mapping: vec![0, 1],
                    ticks: self.0,
                    is_sampling: false,
                }
            }
            fn observe(&mut self, _o: &[crate::sched::SegmentObservation]) {}
        }
        let mut sched = Pinned(q);
        let r = sys.run(&mut sched, ctx.scale.run_ticks);
        for seg in &r.timeline {
            series.push(seg.app_abc[0] / seg.ticks as f64);
        }
        let _ = profile;
        isolated.push((name.to_string(), series));
    }

    // Co-run under the reliability scheduler on 1B1S.
    let cfg = hcmp_config(ctx, 1, 1);
    let mix = Mix {
        category: "fig4".into(),
        benchmarks: vec![bench_a.to_string(), bench_b.to_string()],
    };
    let (_, result) = run_mix(
        ctx,
        &cfg,
        &mix,
        SchedKind::RelOpt,
        SamplingParams::default(),
    );
    let mut corun = vec![
        (bench_a.to_string(), Vec::new()),
        (bench_b.to_string(), Vec::new()),
    ];
    for seg in &result.timeline {
        for (app, series) in corun.iter_mut().enumerate() {
            let core = seg.mapping.iter().position(|&a| a == app).expect("mapped");
            let on_big = core == 0; // core 0 is the big core in hcmp(1,1)
            series
                .1
                .push((seg.start, seg.app_abc[app] / seg.ticks as f64, on_big));
        }
    }
    AbcTimeline {
        quantum_ticks: q,
        isolated,
        corun,
    }
}

// ===================================================================
// Convenience wrappers used by the bench binaries
// ===================================================================

/// Figure 6/7/12 engine: the 4-program workloads on 2B2S.
pub fn fig6_comparisons(ctx: &Context, obs: &mut RunObs) -> Vec<MixComparison> {
    compare_schedulers(
        ctx,
        &hcmp_config(ctx, 2, 2),
        &ctx.four_program_mixes(),
        SamplingParams::default(),
        obs,
    )
}

/// Figure 8: asymmetric HCMPs (returns label + comparisons per config).
pub fn fig8_asymmetric(ctx: &Context, obs: &mut RunObs) -> Vec<(String, Vec<MixComparison>)> {
    let mixes = ctx.four_program_mixes();
    [(1usize, 3usize), (2, 2), (3, 1)]
        .into_iter()
        .map(|(b, s)| {
            let cfg = hcmp_config(ctx, b, s);
            let label = format!("{b}B{s}S");
            (
                label,
                compare_schedulers(ctx, &cfg, &mixes, SamplingParams::default(), obs),
            )
        })
        .collect()
}

/// Figure 9: 2B2S with the small cores at half frequency.
pub fn fig9_low_frequency(ctx: &Context, obs: &mut RunObs) -> Vec<MixComparison> {
    let mut cfg = SystemConfig::hcmp_slow_small(2, 2);
    cfg.quantum_ticks = ctx.scale.quantum_ticks;
    cfg.migration_ticks = (ctx.scale.quantum_ticks / 50).max(1);
    compare_schedulers(
        ctx,
        &cfg,
        &ctx.four_program_mixes(),
        SamplingParams::default(),
        obs,
    )
}

/// Figure 10: core-count scaling (1B1S/2B2S/4B4S) and the ROB-only
/// counter variant on each.
pub fn fig10_core_count(
    ctx: &Context,
    obs: &mut RunObs,
) -> Vec<(String, Vec<MixComparison>, Vec<MixComparison>)> {
    let configs = [
        ("1B1S".to_string(), 1usize, 1usize, ctx.two_program_mixes()),
        ("2B2S".to_string(), 2, 2, ctx.four_program_mixes()),
        ("4B4S".to_string(), 4, 4, ctx.eight_program_mixes()),
    ];
    configs
        .into_iter()
        .map(|(label, b, s, mixes)| {
            let cfg = hcmp_config(ctx, b, s);
            let core_abc = compare_schedulers(ctx, &cfg, &mixes, SamplingParams::default(), obs);
            let mut rob_cfg = cfg.clone();
            rob_cfg.counter_kind = CounterKind::HwRobOnly;
            let rob_abc = compare_schedulers(ctx, &rob_cfg, &mixes, SamplingParams::default(), obs);
            (label, core_abc, rob_abc)
        })
        .collect()
}

/// Figure 11: sampling-parameter sweep `(period, fraction)` on 2B2S.
pub fn fig11_sampling_sweep(
    ctx: &Context,
    settings: &[(u32, f64)],
    obs: &mut RunObs,
) -> Vec<((u32, f64), Vec<MixComparison>)> {
    let cfg = hcmp_config(ctx, 2, 2);
    let mixes = ctx.four_program_mixes();
    settings
        .iter()
        .map(|&(period, fraction)| {
            let params = SamplingParams {
                staleness_quanta: period,
                sampling_fraction: fraction,
                ..SamplingParams::default()
            };
            (
                (period, fraction),
                compare_schedulers(ctx, &cfg, &mixes, params, obs),
            )
        })
        .collect()
}

// ===================================================================
// Figure 13: reliability modes — SSER vs throughput vs energy Pareto
// ===================================================================

/// Fault strikes injected per Figure 13 run at the default scale.
pub const FIG13_FAULTS: u64 = 1_000;

/// One `mode × workload` point of the Figure 13 Pareto front
/// (DESIGN.md §15): metrics of a run executed under one per-core
/// reliability mode with an active fault campaign, before and after the
/// mode's masking and overhead are charged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModeCell {
    /// Mode name ([`ModeKind::name`]).
    pub mode: String,
    /// Workload, as `category:bench+bench+...`.
    pub workload: String,
    /// SSER of the run ignoring fault handling (the raw exposure).
    pub sser_raw: f64,
    /// SSER scaled by the fraction of ACE hits that escaped as SDCs —
    /// zero for a mode that recovered every hit.
    pub sser_effective: f64,
    /// STP before overhead accounting. Under DMR this is pair
    /// throughput: each replica pair contributes its slower copy's
    /// progress (compare-at-commit waits for both).
    pub stp_raw: f64,
    /// STP after dilation by checkpoint-capture and rollback
    /// re-execution overhead.
    pub stp_effective: f64,
    /// Average system power over the dilated run (watts).
    pub system_watts: f64,
    /// Total energy (joules): run energy plus overhead-tick energy.
    pub energy_joules: f64,
    /// Fault-campaign outcome totals.
    pub report: ReliabilityReport,
    /// Fraction of wall time spent capturing checkpoints and
    /// re-executing rolled-back work.
    pub overhead_frac: f64,
}

/// DMR workload shape: pair big core `i` with small core `n_big + i`,
/// both running `mix.benchmarks[i]` from the same trace seed (lockstep
/// replicas). App `2i` is the pair's primary (big core), app `2i + 1`
/// its replica (small core). Only the first `n_big` benchmarks of the
/// mix run — the halved multiprogramming capacity is DMR's price.
///
/// # Panics
///
/// Panics unless the layout is a balanced big-then-small HCMP with at
/// least one pair and the mix provides a benchmark per pair.
fn dmr_pairing(ctx: &Context, kinds: &[CoreKind], mix: &Mix) -> (Vec<AppSpec>, Vec<usize>) {
    let n_big = kinds.iter().filter(|k| **k == CoreKind::Big).count();
    assert!(
        n_big > 0 && 2 * n_big == kinds.len(),
        "DMR pairing needs a balanced HCMP, got {kinds:?}"
    );
    assert!(
        kinds[..n_big].iter().all(|k| *k == CoreKind::Big),
        "DMR pairing expects big-then-small core order, got {kinds:?}"
    );
    assert!(
        mix.benchmarks.len() >= n_big,
        "mix of {} cannot fill {n_big} DMR pairs",
        mix.benchmarks.len()
    );
    let mut specs = Vec::with_capacity(kinds.len());
    let mut mapping = vec![0usize; kinds.len()];
    for (i, name) in mix.benchmarks.iter().take(n_big).enumerate() {
        let seed = ctx.scale.seed ^ (i as u64 + 1);
        specs.push(AppSpec::spec(name, seed)); // primary
        specs.push(AppSpec::spec(name, seed)); // replica, same stream
        mapping[i] = 2 * i;
        mapping[n_big + i] = 2 * i + 1;
    }
    (specs, mapping)
}

/// DMR throughput: a pair commits at its slower replica's rate, so each
/// pair contributes the minimum of its two copies' normalized progress.
fn dmr_pair_stp(result: &RunResult, refs: &ReferenceTable) -> f64 {
    result
        .apps
        .chunks(2)
        .map(|pair| {
            pair.iter()
                .map(|a| {
                    relsim_metrics::AppProgress {
                        work: a.instructions as f64,
                        time: result.duration as f64,
                        ref_rate: refs.ref_ips(&a.name),
                    }
                    .normalized_progress()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Compute one Figure 13 grid cell: run the mix under `plan`'s mode with
/// that mode's scheduler variant, classify the fault campaign, and
/// charge the mode's overhead to throughput and energy.
///
/// Mode → scheduler/workload shape:
/// * `off` / `checkpoint` — the mix under the reliability-optimized
///   sampling scheduler; checkpoint mode additionally pays capture and
///   rollback re-execution ticks;
/// * `dmr` — `dmr_pairing` under a pinned static schedule;
/// * `backup` — the mix under [`BackupScheduler`], which keeps
///   fault-prone work where the plan's per-quantum `k`-fault budget can
///   cover it.
pub fn run_mode_cell(
    ctx: &Context,
    sys_cfg: &SystemConfig,
    mix: &Mix,
    plan: ReliabilityPlan,
    obs: &mut RunObs,
) -> ModeCell {
    let kinds = sys_cfg.core_kinds();
    let (specs, mut scheduler): (Vec<AppSpec>, Box<dyn Scheduler>) = match plan.mode {
        ModeKind::Dmr => {
            let (specs, mapping) = dmr_pairing(ctx, &kinds, mix);
            (
                specs,
                Box::new(StaticScheduler::new(mapping, sys_cfg.quantum_ticks))
                    as Box<dyn Scheduler>,
            )
        }
        ModeKind::Backup => (
            mix_specs(ctx, mix),
            Box::new(BackupScheduler::new(kinds, sys_cfg.quantum_ticks, plan.k))
                as Box<dyn Scheduler>,
        ),
        ModeKind::Off | ModeKind::Checkpoint => (
            mix_specs(ctx, mix),
            SchedKind::RelOpt.build(
                kinds,
                sys_cfg.quantum_ticks,
                SamplingParams::default(),
                ctx.scale.seed,
            ),
        ),
    };
    let mut system = System::new(sys_cfg.clone(), &specs);
    system.set_reliability(Some(plan));
    let result = system.run_traced(scheduler.as_mut(), ctx.scale.run_ticks, obs);
    let eval = span::scope(Stage::Metrics, || evaluate(&result, &ctx.refs, DEFAULT_IFR));
    let report = result.reliability.clone().expect("plan was set");

    let stp_raw = if plan.mode == ModeKind::Dmr {
        dmr_pair_stp(&result, &ctx.refs)
    } else {
        eval.stp
    };
    let overhead = report.overhead_ticks();
    let dilation = relsim_metrics::recovery_slowdown(result.duration, overhead);
    let residual = relsim_metrics::residual_fraction(report.sdc, report.ace_hits());

    let activities: Vec<_> = result.cores.iter().map(|c| c.to_activity()).collect();
    let shared = SharedActivity {
        l3_accesses: result.shared.l3_accesses,
        mem_requests: result.shared.mem_requests,
    };
    let model = PowerModel::default();
    let power = span::scope(Stage::Metrics, || {
        model.report(&activities, &shared, result.duration)
    });
    let run_seconds = result.duration as f64 * model.tick_seconds;
    // Overhead ticks are charged at big-core rates: a checkpoint captures
    // every core's state and a rollback replays on the faulted core, so
    // the big core is the binding (and conservative) rate.
    let energy =
        power.system_watts() * run_seconds + model.overhead_energy(CoreKind::Big, overhead);
    let total_seconds = run_seconds * dilation;

    ModeCell {
        mode: plan.mode.name().to_string(),
        workload: format!("{}:{}", mix.category, mix.benchmarks.join("+")),
        sser_raw: eval.sser,
        sser_effective: eval.sser * residual,
        stp_raw,
        stp_effective: stp_raw / dilation,
        system_watts: energy / total_seconds,
        energy_joules: energy,
        report,
        overhead_frac: overhead as f64 / (result.duration + overhead).max(1) as f64,
    }
}

/// The cache key of one [`ModeCell`], or `None` when caching is off: the
/// `mix-cell/v1` determinants plus the full reliability plan (mode,
/// fault count/seed, checkpoint knobs, `k`), which changes both the
/// schedule and the classification. The mode together with the mix
/// determines the DMR pairing, so hashing the plain mix expansion covers
/// the paired workload too.
fn mode_cell_key(
    ctx: &Context,
    fingerprint: &str,
    sys_cfg: &SystemConfig,
    mix: &Mix,
    plan: &ReliabilityPlan,
) -> Option<Key> {
    crate::cache::key_if_enabled(
        "mode-cell/v1",
        &(
            fingerprint,
            sys_cfg,
            mix_specs(ctx, mix),
            plan,
            (ctx.scale.run_ticks, ctx.scale.seed),
            (
                crate::sampling::default_config(),
                crate::skip::default_enabled(),
            ),
        ),
    )
}

/// Figure 13: the reliability-mode Pareto study on 2B2S — every
/// four-program workload under each mode of [`ModeKind::ALL`] with an
/// active campaign of [`FIG13_FAULTS`] strikes per run.
pub fn fig13_modes(ctx: &Context, obs: &mut RunObs) -> Vec<ModeCell> {
    let plans = fig13_plans(
        ctx,
        &ModeKind::ALL,
        FIG13_FAULTS,
        ReliabilityPlan::default().fault_seed,
        None,
    );
    fig13_modes_with(ctx, &plans, obs)
}

/// The per-mode plans of a Figure 13 study, from the CLI knobs
/// (`--mode`, `--faults`, `--fault-seed`, `--ckpt-interval`). Unless
/// overridden, the checkpoint interval is tied to the context's quantum
/// so capture overheads stay proportionate at any scale.
pub fn fig13_plans(
    ctx: &Context,
    modes: &[ModeKind],
    faults: u64,
    fault_seed: u64,
    ckpt_interval: Option<u64>,
) -> Vec<ReliabilityPlan> {
    modes
        .iter()
        .map(|&mode| {
            let mut p = ReliabilityPlan::new(mode, faults);
            p.fault_seed = fault_seed;
            p.ckpt_interval = ckpt_interval.unwrap_or(ctx.scale.quantum_ticks).max(1);
            p
        })
        .collect()
}

/// [`fig13_modes`] over an explicit plan list. Cells are sharded across
/// the job pool and content-addressed (`mode_cell_key`); a failed cell
/// is dropped with a warning.
pub fn fig13_modes_with(
    ctx: &Context,
    plans: &[ReliabilityPlan],
    obs: &mut RunObs,
) -> Vec<ModeCell> {
    if plans.is_empty() {
        return Vec::new();
    }
    let cfg = hcmp_config(ctx, 2, 2);
    let mixes = ctx.four_program_mixes();
    let fingerprint = refs_fingerprint(ctx);
    let grid: Vec<(Option<Key>, (usize, ReliabilityPlan))> = (0..mixes.len())
        .flat_map(|mi| plans.iter().map(move |p| (mi, *p)))
        .map(|(mi, p)| {
            let key = mode_cell_key(ctx, &fingerprint, &cfg, &mixes[mi], &p);
            (key, (mi, p))
        })
        .collect();
    let jobs = crate::pool::default_jobs();
    let cells = crate::pool::scatter("fig13", grid, obs, jobs, |_, (mi, plan), job_obs| {
        run_mode_cell(ctx, &cfg, &mixes[mi], plan, job_obs)
    });
    cells
        .into_iter()
        .filter_map(|c| match c {
            Ok(cell) => Some(cell),
            Err(failure) => {
                let gi = failure.index;
                relsim_obs::warn!(
                    "fig13: dropping {} × mix {:?} (run failed)",
                    plans[gi % plans.len()].mode.name(),
                    mixes[gi / plans.len()].benchmarks
                );
                None
            }
        })
        .collect()
}

/// Per-mode means over a [`fig13_modes`] cell set, in [`ModeKind::ALL`]
/// order: `(mode, mean effective SSER, mean effective STP, mean energy)`.
pub fn fig13_mode_means(cells: &[ModeCell]) -> Vec<(String, f64, f64, f64)> {
    ModeKind::ALL
        .into_iter()
        .filter_map(|mode| {
            let rows: Vec<&ModeCell> = cells.iter().filter(|c| c.mode == mode.name()).collect();
            if rows.is_empty() {
                return None;
            }
            let mean = |f: &dyn Fn(&ModeCell) -> f64| {
                arithmetic_mean(&rows.iter().map(|c| f(c)).collect::<Vec<_>>())
            };
            Some((
                mode.name().to_string(),
                mean(&|c| c.sser_effective),
                mean(&|c| c.stp_effective),
                mean(&|c| c.energy_joules),
            ))
        })
        .collect()
}

/// Modes on the Pareto front of (lower effective SSER, higher effective
/// STP, lower energy), judged on [`fig13_mode_means`]. A mode is kept
/// unless another mode is at least as good on all three axes and
/// strictly better on one.
pub fn fig13_pareto(cells: &[ModeCell]) -> Vec<String> {
    let means = fig13_mode_means(cells);
    let dominates = |a: &(String, f64, f64, f64), b: &(String, f64, f64, f64)| {
        a.1 <= b.1 && a.2 >= b.2 && a.3 <= b.3 && (a.1 < b.1 || a.2 > b.2 || a.3 < b.3)
    };
    means
        .iter()
        .filter(|m| !means.iter().any(|other| dominates(other, m)))
        .map(|m| m.0.clone())
        .collect()
}

// ===================================================================
// Interval-sampling engine: sampled-vs-full accuracy study
// ===================================================================

/// One `mix × scheduler` cell of the sampled-vs-full differential study:
/// the evaluated metrics of the interval-sampled run as ratios over the
/// fully detailed run of the same workload and scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingAccuracyCell {
    /// Workload, as `category:bench+bench+...`.
    pub workload: String,
    /// Scheduler name ([`SchedKind::name`]).
    pub scheduler: String,
    /// Sampled SSER / full SSER.
    pub sser_ratio: f64,
    /// Sampled STP / full STP.
    pub stp_ratio: f64,
}

/// Aggregate accuracy and speedup of one engine configuration over a
/// `mix × scheduler` grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingAccuracyRow {
    /// The engine configuration, in `--sample` flag form.
    pub config: String,
    /// Fraction of simulated ticks that ran cycle-detailed.
    pub detailed_fraction: f64,
    /// Geometric-mean absolute relative SSER error across the grid.
    pub sser_err: f64,
    /// Geometric-mean absolute relative STP error across the grid.
    pub stp_err: f64,
    /// Per-cell ratios behind the aggregates.
    pub cells: Vec<SamplingAccuracyCell>,
}

impl SamplingAccuracyRow {
    /// How many times fewer cycles were simulated in detail.
    pub fn detailed_cycle_reduction(&self) -> f64 {
        1.0 / self.detailed_fraction
    }
}

/// Geometric mean of absolute relative errors: `exp(mean |ln r|) - 1`.
/// NaN (never silently dropped) if any ratio is non-finite or
/// non-positive, or if the set is empty.
pub fn geomean_abs_err<I: IntoIterator<Item = f64>>(ratios: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for r in ratios {
        if !(r.is_finite() && r > 0.0) {
            return f64::NAN;
        }
        sum += r.ln().abs();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (sum / n as f64).exp() - 1.0
    }
}

/// Differential accuracy study of the interval-sampling engine
/// ([`crate::sampling`]): run the 2B2S four-program grid under all three
/// schedulers fully detailed, then once per `configs` entry with the
/// engine enabled, and report per-config metric error and detailed-cycle
/// reduction.
///
/// Temporarily overrides the process-wide sampling default (restored on
/// return), so callers must not race it against other experiment drivers
/// in the same process. Grid cells whose full or sampled run failed are
/// dropped from the aggregates via the pool's failure channel.
pub fn sampling_accuracy_study(
    ctx: &Context,
    configs: &[crate::SamplingConfig],
    obs: &mut RunObs,
) -> Vec<SamplingAccuracyRow> {
    let cfg = hcmp_config(ctx, 2, 2);
    let mixes = ctx.four_program_mixes();
    let grid: Vec<(usize, SchedKind)> = (0..mixes.len())
        .flat_map(|mi| SchedKind::ALL.map(|s| (mi, s)))
        .collect();
    // Cell keys are derived *after* set_default so the engine override
    // is hashed in; the fully detailed grid shares its keys (and so its
    // cache entries) with Figure 6's grid.
    let fingerprint = refs_fingerprint(ctx);
    let run_grid =
        |sampling: Option<crate::SamplingConfig>, obs: &mut RunObs| -> Vec<Result<MixCell, _>> {
            crate::sampling::set_default(sampling);
            let items: Vec<(Option<Key>, (usize, SchedKind))> = grid
                .iter()
                .map(|&(mi, s)| {
                    let key = cell_key(
                        ctx,
                        &fingerprint,
                        &cfg,
                        &mixes[mi],
                        s,
                        &SamplingParams::default(),
                    );
                    (key, (mi, s))
                })
                .collect();
            crate::pool::scatter(
                "sampling-accuracy",
                items,
                obs,
                crate::pool::default_jobs(),
                |_, (mi, sched), job_obs| {
                    run_mix_cell(
                        ctx,
                        &cfg,
                        &mixes[mi],
                        sched,
                        SamplingParams::default(),
                        job_obs,
                    )
                },
            )
        };
    let saved = crate::sampling::default_config();
    let full = run_grid(None, obs);
    let mut rows = Vec::with_capacity(configs.len());
    for sc in configs {
        let sampled = run_grid(Some(*sc), obs);
        let mut cells = Vec::new();
        let mut detailed = 0u64;
        let mut total = 0u64;
        for (gi, (mi, sched)) in grid.iter().enumerate() {
            if let (Ok(f), Ok(s)) = (&full[gi], &sampled[gi]) {
                cells.push(SamplingAccuracyCell {
                    workload: format!(
                        "{}:{}",
                        mixes[*mi].category,
                        mixes[*mi].benchmarks.join("+")
                    ),
                    scheduler: sched.name().to_string(),
                    sser_ratio: s.sser / f.sser,
                    stp_ratio: s.stp / f.stp,
                });
                detailed += s.detailed_ticks;
                total += s.total_ticks;
            }
        }
        rows.push(SamplingAccuracyRow {
            config: sc.to_flag(),
            detailed_fraction: detailed as f64 / total.max(1) as f64,
            sser_err: geomean_abs_err(cells.iter().map(|c| c.sser_ratio)),
            stp_err: geomean_abs_err(cells.iter().map(|c| c.stp_ratio)),
            cells,
        });
    }
    crate::sampling::set_default(saved);
    rows
}

/// Run one isolated benchmark on a custom core config (used by ablation
/// benches).
pub fn isolated_on(ctx: &Context, name: &str, cfg: &CoreConfig) -> IsolatedResult {
    let p = relsim_trace::spec_profile(name).expect("known benchmark");
    run_isolated(&p, cfg, ctx.scale.isolation_ticks, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Context {
        Context::build(Scale {
            isolation_ticks: 60_000,
            run_ticks: 120_000,
            quantum_ticks: 8_000,
            per_category: 1,
            seed: 1,
        })
    }

    #[test]
    fn context_builds_and_classifies() {
        let ctx = tiny_ctx();
        assert_eq!(ctx.refs.names().len(), 29);
        assert_eq!(ctx.class.high.len(), 8);
        assert_eq!(ctx.class.low.len(), 8);
        assert_eq!(ctx.class.medium.len(), 13);
    }

    #[test]
    fn isolated_characterization_is_sorted() {
        let ctx = tiny_ctx();
        let rows = isolated_characterization(&ctx);
        assert_eq!(rows.len(), 29);
        for w in rows.windows(2) {
            assert!(w[0].big.avf <= w[1].big.avf);
        }
        let corr = rob_abc_correlation(&rows);
        assert!(corr > 0.8, "ROB/core ABC correlation {corr}");
    }

    #[test]
    fn fig6_engine_runs_one_mix_per_category() {
        let ctx = tiny_ctx();
        let comparisons = compare_schedulers(
            &ctx,
            &hcmp_config(&ctx, 2, 2),
            &ctx.four_program_mixes()[..2],
            SamplingParams::default(),
            &mut RunObs::disabled(),
        );
        assert_eq!(comparisons.len(), 2);
        for c in &comparisons {
            for i in 0..3 {
                assert!(c.sser[i] > 0.0);
                assert!(c.stp[i] > 0.0);
                assert!(c.power[i].chip_watts > 0.0);
            }
        }
        let s = summarize(&comparisons);
        assert!(s.rel_vs_random_sser.is_finite());
    }

    #[test]
    fn geomean_error_definition() {
        assert!(geomean_abs_err([].into_iter()).is_nan());
        assert!(geomean_abs_err([1.0, f64::NAN].into_iter()).is_nan());
        assert!(geomean_abs_err([1.0, 0.0].into_iter()).is_nan());
        assert!(geomean_abs_err([1.0, 1.0].into_iter()).abs() < 1e-12);
        // Symmetric in over/under-estimation: 1.1 and 1/1.1 are the same
        // error.
        let over = geomean_abs_err([1.1]);
        let under = geomean_abs_err([1.0 / 1.1]);
        assert!((over - under).abs() < 1e-12);
        assert!((over - 0.1).abs() < 1e-12);
    }

    #[test]
    fn fig13_mode_cells_account_masking_and_overheads() {
        let ctx = tiny_ctx();
        let cfg = hcmp_config(&ctx, 2, 2);
        let mix = &ctx.four_program_mixes()[0];
        let mut cells = Vec::new();
        for mode in ModeKind::ALL {
            let mut plan = ReliabilityPlan::new(mode, 200);
            plan.ckpt_interval = ctx.scale.quantum_ticks;
            let cell = run_mode_cell(&ctx, &cfg, mix, plan, &mut RunObs::disabled());
            assert_eq!(cell.mode, mode.name());
            assert!(cell.stp_raw > 0.0, "{mode:?} stp");
            assert!(cell.energy_joules > 0.0, "{mode:?} energy");
            assert_eq!(cell.report.faults, 200);
            let r = &cell.report;
            assert_eq!(
                r.masked + r.recovered_rollback + r.recovered_replica + r.sdc,
                r.faults,
                "{mode:?} outcome totals"
            );
            match mode {
                ModeKind::Off => {
                    assert_eq!(r.recovered_rollback + r.recovered_replica, 0);
                    assert_eq!(r.sdc, r.ace_hits(), "off masks nothing");
                    assert_eq!(cell.stp_effective, cell.stp_raw, "no overhead");
                }
                ModeKind::Checkpoint => {
                    assert_eq!(r.sdc, 0, "rollback recovers every hit");
                    assert_eq!(cell.sser_effective, 0.0);
                    assert!(r.checkpoints > 0);
                    assert!(
                        cell.stp_effective < cell.stp_raw,
                        "capture overhead must cost throughput"
                    );
                }
                ModeKind::Dmr => {
                    assert_eq!(r.sdc, 0, "replica recovers every hit");
                    assert_eq!(cell.sser_effective, 0.0);
                    // Pair throughput over 2 pairs can never exceed 2.
                    assert!(cell.stp_raw <= 2.05, "DMR stp {}", cell.stp_raw);
                }
                ModeKind::Backup => {
                    assert!(r.sdc <= r.ace_hits(), "k-budget can only reduce exposure");
                }
            }
            cells.push(cell);
        }
        let means = fig13_mode_means(&cells);
        assert_eq!(means.len(), 4);
        let pareto = fig13_pareto(&cells);
        assert!(!pareto.is_empty(), "some mode must be non-dominated");
    }

    #[test]
    fn dmr_pairing_replicates_in_lockstep() {
        let ctx = tiny_ctx();
        let kinds = hcmp_config(&ctx, 2, 2).core_kinds();
        let mix = &ctx.four_program_mixes()[0];
        let (specs, mapping) = dmr_pairing(&ctx, &kinds, mix);
        assert_eq!(specs.len(), 4);
        assert_eq!(mapping, vec![0, 2, 1, 3]);
        for pair in specs.chunks(2) {
            assert_eq!(pair[0].profile.name, pair[1].profile.name);
            assert_eq!(pair[0].seed, pair[1].seed, "replicas share the stream");
        }
    }

    #[test]
    fn oracle_study_produces_gains() {
        let ctx = tiny_ctx();
        let outcomes = oracle_study(&ctx);
        assert_eq!(outcomes.len(), 6);
        for (_, o) in &outcomes {
            assert!(o.ser_gain() >= -1e-9);
        }
    }
}
