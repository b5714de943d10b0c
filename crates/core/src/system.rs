//! The heterogeneous multicore system runtime.
//!
//! [`System`] owns the cores, their private caches and ACE counters, the
//! shared L3/DRAM backend, and the co-running applications. It executes a
//! [`Scheduler`]'s segments tick by tick, applies migration overhead,
//! attributes per-segment statistics to applications, and produces a
//! [`RunResult`] from which SSER, STP and power are computed.

use crate::reliability::{classify, ReliabilityPlan, ReliabilityReport};
use crate::sampling::{self, ErrorEstimator, SamplingConfig, SamplingReport};
use crate::sched::{Scheduler, SegmentObservation};
use crate::skip;
use relsim_ace::{AceCounter, CounterKind};
use relsim_cpu::{Core, CoreConfig, CoreKind, CpiStack, RetireEvent, RetireObserver};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_obs::span::{self, Stage};
use relsim_obs::{Event, RunObs};
use relsim_power::{CoreActivity, SharedActivity};
use relsim_trace::{BenchmarkProfile, OpClass, TraceGenerator};
use serde::{Deserialize, Serialize};

/// Address-space spacing between co-running applications (64 GiB), enough
/// to keep even mcf-sized working sets disjoint.
const APP_ADDR_STRIDE: u64 = 1 << 36;

/// Configuration of a [`System`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// One configuration per core; order defines core indices.
    pub cores: Vec<CoreConfig>,
    /// Private cache geometry (identical across cores, per Table 2).
    pub cache: PrivateCacheConfig,
    /// Shared L3 + DRAM configuration.
    pub shared: SharedMemConfig,
    /// Scheduler quantum in ticks (the paper's 1 ms at 2.66 GHz scales to
    /// this; see DESIGN.md §7).
    pub quantum_ticks: u64,
    /// Migration penalty in ticks (the paper's 20 µs ≙ 2% of a quantum).
    pub migration_ticks: u64,
    /// Which ACE counter implementation the scheduler reads.
    pub counter_kind: CounterKind,
    /// Pre-warm caches with each application's working set before the run
    /// (stands in for SimPoint warm state).
    pub warm_caches: bool,
    /// Ticks to exclude from a migrated application's measurement window
    /// while its pipeline and L1 refill. At paper scale the refill is ~2%
    /// of a sampling quantum; at this repository's reduced scale it would
    /// dominate the sample, so the counters are read after the warmup.
    pub measurement_warmup_ticks: u64,
}

impl SystemConfig {
    /// A heterogeneous multicore with `n_big` big and `n_small` small
    /// cores at reference frequency, paper-default parameters otherwise.
    pub fn hcmp(n_big: usize, n_small: usize) -> Self {
        let mut cores = Vec::new();
        cores.extend(std::iter::repeat_with(CoreConfig::big).take(n_big));
        cores.extend(std::iter::repeat_with(CoreConfig::small).take(n_small));
        SystemConfig {
            cores,
            cache: PrivateCacheConfig::default(),
            shared: SharedMemConfig::default(),
            quantum_ticks: 20_000,
            migration_ticks: 400,
            counter_kind: CounterKind::Perfect,
            warm_caches: true,
            measurement_warmup_ticks: 800,
        }
    }

    /// Same, with the small cores clocked at half frequency (Section 6.4).
    pub fn hcmp_slow_small(n_big: usize, n_small: usize) -> Self {
        let mut cfg = Self::hcmp(n_big, n_small);
        for c in &mut cfg.cores {
            if c.kind == CoreKind::Small {
                *c = c.clone().at_half_frequency();
            }
        }
        cfg
    }

    /// The core kinds, in core order.
    pub fn core_kinds(&self) -> Vec<CoreKind> {
        self.cores.iter().map(|c| c.kind).collect()
    }
}

/// An application to run: a benchmark profile plus a seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// The benchmark profile.
    pub profile: BenchmarkProfile,
    /// Trace-generation seed.
    pub seed: u64,
}

impl AppSpec {
    /// Spec for a named SPEC CPU2006 benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the catalog.
    pub fn spec(name: &str, seed: u64) -> Self {
        AppSpec {
            profile: relsim_trace::spec_profile(name)
                .unwrap_or_else(|| panic!("unknown benchmark {name:?}")),
            seed,
        }
    }
}

struct AppInstance {
    name: String,
    gen: TraceGenerator,
    instructions: u64,
    abc: f64,
    migrations: u64,
    ticks_on_big: u64,
}

/// Per-application totals of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRunStats {
    /// Benchmark name.
    pub name: String,
    /// Instructions committed over the run.
    pub instructions: u64,
    /// ACE bit-time accumulated over the run (per the configured counter).
    pub abc: f64,
    /// Number of core migrations the application underwent.
    pub migrations: u64,
    /// Ticks spent mapped to a big core.
    pub ticks_on_big: u64,
}

/// Per-core totals of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreRunStats {
    /// Core type.
    pub kind: CoreKind,
    /// Core cycles elapsed.
    pub cycles: u64,
    /// Instructions committed on this core.
    pub committed: u64,
    /// Committed instruction counts per [`OpClass`] index.
    pub class_counts: [u64; 10],
    /// CPI stack over the whole run.
    pub cpi: CpiStack,
    /// L1 (I+D) accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
}

impl CoreRunStats {
    /// Convert to the power model's activity record.
    pub fn to_activity(&self) -> CoreActivity {
        let fp = self.class_counts[OpClass::FpAdd.index()]
            + self.class_counts[OpClass::FpMul.index()]
            + self.class_counts[OpClass::FpDiv.index()];
        let mem =
            self.class_counts[OpClass::Load.index()] + self.class_counts[OpClass::Store.index()];
        CoreActivity {
            kind: self.kind,
            cycles: self.cycles,
            // Front-end-drained cycles (mispredict recovery, I-cache
            // stalls) are the only ones where the back end holds no live
            // state; everything else keeps the core's dynamic machinery
            // switching.
            busy_cycles: self.cpi.total() - self.cpi.branch - self.cpi.icache,
            committed: self.committed,
            fp_ops: fp,
            mem_ops: mem,
            l1_accesses: self.l1_accesses,
            l2_accesses: self.l2_accesses,
        }
    }
}

/// Record of one executed segment (for timelines such as Figure 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentRecord {
    /// Start tick.
    pub start: u64,
    /// Length in ticks.
    pub ticks: u64,
    /// `mapping[core] = app`.
    pub mapping: Vec<usize>,
    /// Whether it was a sampling segment.
    pub is_sampling: bool,
    /// Per-app ABC accumulated in this segment (indexed by app).
    pub app_abc: Vec<f64>,
    /// Per-app instructions committed in this segment (indexed by app).
    pub app_instructions: Vec<u64>,
}

/// Complete outcome of one system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Run length in ticks.
    pub duration: u64,
    /// Per-application totals (indexed by app).
    pub apps: Vec<AppRunStats>,
    /// Per-core totals (indexed by core).
    pub cores: Vec<CoreRunStats>,
    /// Shared-memory activity.
    pub shared: SharedActivity,
    /// Per-segment timeline.
    pub timeline: Vec<SegmentRecord>,
    /// Total migrations across all applications.
    pub migrations: u64,
    /// Interval-sampling summary (present only when the run used the
    /// sampling engine).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sampling: Option<SamplingReport>,
    /// Fault-campaign outcome totals (present only when the run executed
    /// under a reliability plan; see DESIGN.md §15).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub reliability: Option<ReliabilityReport>,
}

/// Feeds one core's retirement events to both counter sets.
struct TeeObserver<'a> {
    eval: &'a mut AceCounter,
    sched: &'a mut AceCounter,
}

impl RetireObserver for TeeObserver<'_> {
    fn on_retire(&mut self, ev: &RetireEvent) {
        self.eval.on_retire(ev);
        self.sched.on_retire(ev);
    }
}

/// The multicore system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    /// Perfect counters used for evaluation (SSER ground truth).
    eval_counters: Vec<AceCounter>,
    /// The counters the scheduler reads (the configured kind), measured
    /// over the post-warmup window of each segment.
    sched_counters: Vec<AceCounter>,
    apps: Vec<AppInstance>,
    shared: SharedMem,
    /// Current `mapping[core] = app`.
    mapping: Vec<usize>,
    /// Per-core tick at which the core is next stepped: the end of its
    /// migration stall, or the tick its last [`Core::step`] returned.
    /// Ticks before it are either stalled (not simulated by any loop) or
    /// dead and already charged by that step.
    due: Vec<u64>,
    /// Per-core tick at which the current segment's measurement starts
    /// (counters reset and baselines snapshot there).
    measure_start: Vec<u64>,
    /// Interval-sampling configuration; `None` runs fully detailed.
    sampling: Option<SamplingConfig>,
    /// Event-horizon cycle skipping in detailed windows (DESIGN.md §11).
    /// Byte-identical to the referee loop that ticks every core every
    /// tick (`false`), so on by default.
    skip: bool,
    /// Active reliability mode + fault campaign; `None` skips the
    /// post-run classification entirely (DESIGN.md §15).
    reliability: Option<ReliabilityPlan>,
    now: u64,
}

impl System {
    /// Build a system running `specs` (one application per core).
    ///
    /// # Panics
    ///
    /// Panics if the number of applications differs from the number of
    /// cores, or the configuration is degenerate.
    pub fn new(cfg: SystemConfig, specs: &[AppSpec]) -> Self {
        assert_eq!(
            specs.len(),
            cfg.cores.len(),
            "one application per core required"
        );
        assert!(!cfg.cores.is_empty(), "need at least one core");
        span::enter(Stage::Setup);
        let mut shared = SharedMem::new(cfg.shared);
        let cores: Vec<Core> = cfg
            .cores
            .iter()
            .map(|c| Core::new(c.clone(), cfg.cache))
            .collect();
        let eval_counters: Vec<AceCounter> = cfg
            .cores
            .iter()
            .map(|c| AceCounter::new(c, CounterKind::Perfect))
            .collect();
        let sched_counters: Vec<AceCounter> = cfg
            .cores
            .iter()
            .map(|c| AceCounter::new(c, cfg.counter_kind))
            .collect();
        let mut apps = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let gen =
                TraceGenerator::new(spec.profile.clone(), spec.seed, i as u64 * APP_ADDR_STRIDE);
            if cfg.warm_caches {
                let (base, bytes) = gen.l3_warm_span();
                shared.warm_region(base, bytes);
            }
            apps.push(AppInstance {
                name: spec.profile.name.clone(),
                gen,
                instructions: 0,
                abc: 0.0,
                migrations: 0,
                ticks_on_big: 0,
            });
        }
        let n = cores.len();
        span::exit(Stage::Setup);
        System {
            cores,
            eval_counters,
            sched_counters,
            apps,
            shared,
            mapping: (0..n).collect(),
            due: vec![0; n],
            measure_start: vec![0; n],
            sampling: sampling::default_config(),
            skip: skip::default_enabled(),
            reliability: None,
            cfg,
            now: 0,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Override the interval-sampling configuration for this system
    /// (`None` restores full detailed simulation). Systems pick up the
    /// process-wide default ([`sampling::default_config`]) at
    /// construction; this setter exists for tests and differential
    /// harnesses that need both modes in one process.
    pub fn set_sampling(&mut self, cfg: Option<SamplingConfig>) {
        self.sampling = cfg;
    }

    /// The active interval-sampling configuration, if any.
    pub fn sampling(&self) -> Option<SamplingConfig> {
        self.sampling
    }

    /// Enable or disable event-horizon cycle skipping for this system;
    /// disabled, its detailed windows run the referee loop that ticks
    /// every core on every tick. Systems pick up the process-wide default
    /// ([`skip::default_enabled`]) at construction; this setter exists for
    /// tests and differential harnesses that need both modes in one
    /// process.
    pub fn set_skip(&mut self, enabled: bool) {
        self.skip = enabled;
    }

    /// Whether event-horizon cycle skipping is enabled.
    pub fn skip_enabled(&self) -> bool {
        self.skip
    }

    /// Set the reliability plan for this system's runs (`None` disables
    /// the fault campaign). The plan classifies a deterministic fault
    /// campaign against the finished run's timeline — it never perturbs
    /// the tick loop, so a reliability run's simulation is byte-identical
    /// to a plain run of the same workload.
    pub fn set_reliability(&mut self, plan: Option<ReliabilityPlan>) {
        self.reliability = plan;
    }

    /// The active reliability plan, if any.
    pub fn reliability(&self) -> Option<ReliabilityPlan> {
        self.reliability
    }

    /// Run under `scheduler` for `duration` ticks and report the outcome.
    ///
    /// Equivalent to [`System::run_traced`] with observability disabled
    /// (null sink, unused recorder) — the tracing hooks reduce to a few
    /// per-segment no-ops, so untraced runs pay essentially nothing.
    pub fn run(&mut self, scheduler: &mut dyn Scheduler, duration: u64) -> RunResult {
        let mut obs = RunObs::disabled();
        self.run_traced(scheduler, duration, &mut obs)
    }

    /// Run under `scheduler` for `duration` ticks, streaming structured
    /// events to `obs.sink` and accumulating counters/histograms in
    /// `obs.recorder`.
    ///
    /// Event stream per segment: `SchedulerDecision` (when the scheduler
    /// reports one), `QuantumStart`, one `Migration` per moved
    /// application, and one `SampleTaken` per application after sampling
    /// segments. The stream is framed by `RunStart`/`RunEnd`. All events
    /// are a deterministic function of the run's inputs, so two same-seed
    /// runs emit byte-identical JSONL.
    pub fn run_traced(
        &mut self,
        scheduler: &mut dyn Scheduler,
        duration: u64,
        obs: &mut RunObs,
    ) -> RunResult {
        let RunObs { sink, recorder, .. } = obs;
        let mut timeline = Vec::new();
        let mut migrations_total = 0u64;
        let end = self.now + duration;
        sink.emit(&Event::RunStart {
            tick: self.now,
            scheduler: scheduler.name().to_string(),
            cores: self.cores.len(),
            apps: self.apps.len(),
            quantum_ticks: self.cfg.quantum_ticks,
            duration_ticks: duration,
        });
        if let Some(sc) = self.sampling {
            sink.emit(&Event::SamplingPlan {
                tick: self.now,
                detailed_ticks: sc.detailed_ticks,
                ff_ticks: sc.ff_ticks,
                seed: sc.seed,
            });
        }
        // Run-level sampling bookkeeping: tick totals, the global
        // fast-forward window index (drives deterministic length jitter),
        // and the per-window rate estimators behind the error model.
        let mut detailed_total = 0u64;
        let mut ff_total = 0u64;
        let mut window_total = 0u64;
        let mut ff_window_index = 0u64;
        let mut est_ipc = ErrorEstimator::default();
        let mut est_abc = ErrorEstimator::default();
        // Metric handles are registered once; the per-segment hot path is
        // index arithmetic only.
        let m_quanta = recorder.counter("sim.quanta");
        let m_sampling = recorder.counter("sim.sampling_quanta");
        let m_migrations = recorder.counter("sim.migrations");
        let m_instructions = recorder.counter("sim.instructions");
        let m_ticks = recorder.counter("sim.ticks");
        let m_detailed = recorder.counter("sim.detailed_ticks");
        let m_ff = recorder.counter("sim.ff_ticks");
        let m_skipped = recorder.counter("sim.skipped_ticks");
        let h_seg_instr = recorder.histogram("sim.segment_instructions");
        let h_seg_migr = recorder.histogram("sim.segment_migrations");
        // Baselines for per-core deltas: one at segment start (full
        // attribution) and one at measurement start (scheduler samples).
        let mut core_committed_base: Vec<u64> = self.cores.iter().map(Core::committed).collect();
        let mut measure_base: Vec<u64> = core_committed_base.clone();
        let mut cpi_base: Vec<relsim_cpu::CpiStack> =
            self.cores.iter().map(|c| *c.cpi_stack()).collect();
        let mut quantum_index = 0u64;
        let n_cores = self.cores.len();
        let do_skip = self.skip;
        // Measurement-point snapshot buffers, reused across windows.
        let mut snap_committed: Vec<u64> = Vec::with_capacity(n_cores);
        let mut snap_cpi: Vec<CpiStack> = Vec::with_capacity(n_cores);
        let mut snap_abc: Vec<f64> = Vec::with_capacity(n_cores);

        while self.now < end {
            span::enter(Stage::Segment);
            let seg = span::scope(Stage::Scheduler, || scheduler.next_segment());
            assert_eq!(seg.mapping.len(), self.cores.len(), "mapping arity");
            let ticks = seg.ticks.min(end - self.now);
            if let Some(d) = scheduler.last_decision() {
                sink.emit(&Event::SchedulerDecision {
                    tick: self.now,
                    mapping: d.mapping,
                    predicted_objective: d.predicted_objective,
                    baseline_objective: d.baseline_objective,
                    reason: d.reason,
                });
            }
            sink.emit(&Event::QuantumStart {
                tick: self.now,
                index: quantum_index,
                mapping: seg.mapping.clone(),
                is_sampling: seg.is_sampling,
            });
            quantum_index += 1;

            // Apply migrations. Migrated applications get a measurement
            // warmup: their counters only start once the pipeline and L1
            // have refilled, so the scheduler's samples reflect steady
            // state rather than migration transients.
            let mut seg_migrations = 0u64;
            span::scope(Stage::Migration, || {
                for (core, &app) in seg.mapping.iter().enumerate() {
                    if self.mapping[core] != app {
                        sink.emit(&Event::Migration {
                            tick: self.now,
                            app,
                            // `None` when the app enters from the
                            // unscheduled pool rather than another core.
                            from_core: self.mapping.iter().position(|&a| a == app),
                            to_core: core,
                        });
                        self.cores[core].reset_pipeline();
                        self.due[core] = self.now + self.cfg.migration_ticks;
                        self.apps[app].migrations += 1;
                        migrations_total += 1;
                        seg_migrations += 1;
                        self.measure_start[core] = (self.now
                            + self.cfg.migration_ticks
                            + self.cfg.measurement_warmup_ticks)
                            .min(self.now + ticks.saturating_sub(1));
                        if self.cfg.warm_caches {
                            // Scale correction (DESIGN.md §1): at paper scale
                            // (2.66M-cycle quanta) an L1/L2 refill after a
                            // migration is <1% of a quantum; at this reduced
                            // scale it would dominate, so the incoming
                            // application's hot set is warmed during the
                            // migration stall.
                            let (hot_base, hot_len) = self.apps[app].gen.hot_span();
                            self.cores[core]
                                .caches_mut()
                                .warm_region(hot_base, hot_len.min(64 << 10));
                        }
                    } else {
                        self.measure_start[core] = self.now;
                    }
                }
            });
            self.mapping = seg.mapping;

            // Reset counters for this segment.
            for c in &mut self.eval_counters {
                c.reset();
            }
            for c in &mut self.sched_counters {
                c.reset();
            }

            // Execute: fully detailed, or — when the interval-sampling
            // engine is active — alternating detailed and fast-forward
            // windows. Sampling quanta (the scheduler's own measurement
            // segments) and segments too short to split always run fully
            // detailed.
            let seg_start = self.now;
            let seg_end = self.now + ticks;
            let mut seg_detailed = 0u64;
            let mut seg_skipped = 0u64;
            // Detailed ticks at/after each core's measurement start, for
            // scheduler-counter extrapolation over the active window.
            let mut active_detailed = vec![0u64; n_cores];
            // Event-part ABC accumulated over the measured (post-warmup)
            // portions of the detailed windows, and the ticks they cover:
            // the unbiased rate behind the eval-counter extrapolation.
            let mut meas_abc = vec![0.0f64; n_cores];
            let mut meas_detailed = 0u64;
            let plan = match self.sampling {
                Some(sc) if !seg.is_sampling && ticks > 2 * sc.detailed_ticks => Some(sc),
                _ => None,
            };
            // Read the profiler flag once per segment; per-tick span
            // work below branches on this local bool.
            let prof = span::enabled();
            let mut cur = seg_start;
            loop {
                // Detailed window [cur, win_end). The segment's first
                // window is stretched to cover migration stalls and
                // measurement-warmup trigger ticks, so those always run
                // in detail.
                let win_end = match plan {
                    None => seg_end,
                    Some(sc) => {
                        let mut b = cur + sc.detailed_ticks;
                        if cur == seg_start {
                            // A step never passes its window's end, so
                            // here `due` past `cur` is a migration stall.
                            for i in 0..n_cores {
                                b = b.max(self.due[i]).max(self.measure_start[i] + 1);
                            }
                        }
                        b.min(seg_end)
                    }
                };
                // Each detailed window keeps its leading quarter as
                // unmeasured warmup (the post-splice transient decays
                // there) and measures the tail; for stretched windows
                // the tail still has the full measured length.
                let measure_from = match plan {
                    Some(sc) => win_end - (win_end - cur).min(sc.measured_ticks()),
                    None => cur,
                };
                // Measurement-point snapshots: they seed the
                // fast-forward extrapolation and the per-window rate
                // estimators. Re-taken mid-window when warmup applies.
                snap_committed.clear();
                snap_committed.extend(self.cores.iter().map(Core::committed));
                snap_cpi.clear();
                snap_cpi.extend(self.cores.iter().map(|c| *c.cpi_stack()));
                snap_abc.clear();
                snap_abc.extend(self.eval_counters.iter().map(|c| c.abc(0)));
                if prof {
                    span::enter_window(Stage::DetailedWindow);
                }
                while self.now < win_end {
                    if prof {
                        span::enter(Stage::TickLoop);
                    }
                    let t = self.now;
                    if t == measure_from && t > cur {
                        snap_committed.clear();
                        snap_committed.extend(self.cores.iter().map(Core::committed));
                        snap_cpi.clear();
                        snap_cpi.extend(self.cores.iter().map(|c| *c.cpi_stack()));
                        snap_abc.clear();
                        snap_abc.extend(self.eval_counters.iter().map(|c| c.abc(0)));
                    }
                    // Steps settle at the re-snapshot point, whose
                    // reads need fully charged CPI stacks, and at the
                    // window end. The referee (`--no-skip`) steps one
                    // tick at a time and never reads a horizon.
                    let settle = if measure_from > t {
                        measure_from
                    } else {
                        win_end
                    };
                    let limit = if do_skip { settle } else { t + 1 };
                    // The next tick at which anything happens: a core
                    // falls due, a trigger fires or the window settles.
                    let mut next = settle;
                    #[allow(clippy::needless_range_loop)] // parallel arrays
                    for core_idx in 0..n_cores {
                        if t == self.measure_start[core_idx] && t > seg_start {
                            // Start of the (post-warmup) measurement
                            // window: snapshot progress and restart the
                            // scheduler's counter. Evaluation counters
                            // keep the full segment (ground truth must
                            // not lose ABC). This trigger reads only
                            // committed counts (never pre-charged by a
                            // step), so it may fire while the core is
                            // between steps.
                            measure_base[core_idx] = self.cores[core_idx].committed();
                            self.sched_counters[core_idx].reset();
                        } else if self.measure_start[core_idx] > t {
                            next = next.min(self.measure_start[core_idx]);
                        }
                        if t < self.due[core_idx] {
                            next = next.min(self.due[core_idx]);
                            continue;
                        }
                        let app_idx = self.mapping[core_idx];
                        if prof {
                            span::set_core(Some(core_idx));
                        }
                        let mut tee = TeeObserver {
                            eval: &mut self.eval_counters[core_idx],
                            sched: &mut self.sched_counters[core_idx],
                        };
                        let due = self.cores[core_idx].step(
                            t,
                            limit,
                            &mut self.apps[app_idx].gen,
                            &mut self.shared,
                            &mut tee,
                        );
                        seg_skipped += due - t - 1;
                        self.due[core_idx] = due;
                        next = next.min(due);
                    }
                    if prof {
                        span::set_core(None);
                    }
                    self.now = next;
                    if prof {
                        span::exit(Stage::TickLoop);
                    }
                }
                if prof {
                    span::exit_with_rollup(Stage::DetailedWindow);
                }
                let win_ticks = win_end - cur;
                let meas_ticks = win_end - measure_from;
                seg_detailed += win_ticks;
                #[allow(clippy::needless_range_loop)] // parallel arrays
                for i in 0..n_cores {
                    let m = self.measure_start[i];
                    if win_end > m {
                        active_detailed[i] += win_end - cur.max(m);
                    }
                }
                if plan.is_some() && meas_ticks > 0 {
                    let committed: u64 = self
                        .cores
                        .iter()
                        .zip(&snap_committed)
                        .map(|(c, &b)| c.committed() - b)
                        .sum();
                    let mut abc = 0.0;
                    #[allow(clippy::needless_range_loop)] // parallel arrays
                    for i in 0..n_cores {
                        let d = self.eval_counters[i].abc(0) - snap_abc[i];
                        meas_abc[i] += d;
                        abc += d;
                    }
                    meas_detailed += meas_ticks;
                    est_ipc.push(committed as f64 / meas_ticks as f64);
                    est_abc.push(abc / meas_ticks as f64);
                    window_total += 1;
                }
                if self.now >= seg_end {
                    break;
                }
                // Fast-forward window: functionally warm each core's
                // instruction stream through the caches, extrapolating
                // instruction count and CPI stack from the detailed
                // window just observed. The window is chunked and the
                // cores round-robined through it so their warming
                // accesses interleave in the shared L3/DRAM roughly as
                // detailed execution would — one core warming a whole
                // window at once evicts the others' shared state
                // wholesale and poisons the next detailed interval.
                if prof {
                    span::enter_window(Stage::FfWindow);
                }
                let sc = plan.expect("fast-forward requires a sampling plan");
                let ff_ticks = sc.ff_len(ff_window_index).min(seg_end - self.now);
                ff_window_index += 1;
                let ff_instr: Vec<u64> = (0..n_cores)
                    .map(|i| {
                        let d_committed = self.cores[i].committed() - snap_committed[i];
                        ((d_committed as u128 * ff_ticks as u128 + (meas_ticks / 2) as u128)
                            / meas_ticks.max(1) as u128) as u64
                    })
                    .collect();
                let d_cpi: Vec<CpiStack> = (0..n_cores)
                    .map(|i| self.cores[i].cpi_stack().since(&snap_cpi[i]))
                    .collect();
                const FF_CHUNK_TICKS: u64 = 256;
                let mut warmed = vec![0u64; n_cores];
                let mut chunk_start = self.now;
                while chunk_start < self.now + ff_ticks {
                    let chunk = FF_CHUNK_TICKS.min(self.now + ff_ticks - chunk_start);
                    let covered = chunk_start + chunk - self.now;
                    #[allow(clippy::needless_range_loop)] // parallel arrays
                    for core_idx in 0..n_cores {
                        if prof {
                            span::set_core(Some(core_idx));
                        }
                        let target = ((ff_instr[core_idx] as u128 * covered as u128)
                            / ff_ticks as u128) as u64;
                        let app_idx = self.mapping[core_idx];
                        self.cores[core_idx].fast_forward(
                            chunk_start,
                            chunk,
                            target - warmed[core_idx],
                            &d_cpi[core_idx],
                            &mut self.apps[app_idx].gen,
                            &mut self.shared,
                        );
                        warmed[core_idx] = target;
                    }
                    chunk_start += chunk;
                }
                if prof {
                    span::set_core(None);
                }
                self.now += ff_ticks;
                if prof {
                    span::exit_with_rollup(Stage::FfWindow);
                }
                if self.now >= seg_end {
                    break;
                }
                cur = self.now;
            }
            detailed_total += seg_detailed;
            ff_total += ticks - seg_detailed;

            // Collect observations.
            let mut obs = Vec::with_capacity(self.cores.len());
            let mut app_abc = vec![0.0; self.apps.len()];
            let mut app_instr = vec![0u64; self.apps.len()];
            for (core_idx, core) in self.cores.iter().enumerate() {
                let app_idx = self.mapping[core_idx];
                let measured_from = self.measure_start[core_idx].clamp(seg_start, seg_end);
                let active_ticks = seg_end - measured_from;
                // Full-segment instructions for attribution; post-warmup
                // window for the scheduler's sample.
                let instructions = core.committed() - core_committed_base[core_idx];
                let measured_instructions =
                    core.committed() - measure_base[core_idx].max(core_committed_base[core_idx]);
                core_committed_base[core_idx] = core.committed();
                measure_base[core_idx] = core.committed();
                // Event-driven ABC (ROB/LSQ/issue occupancy) is only
                // accumulated during detailed ticks; extrapolate it to the
                // full window from the measured (post-warmup) rate.
                // Identity when the whole window ran detailed.
                let eval_abc = sampling::extrapolate_abc_measured(
                    &self.eval_counters[core_idx],
                    ticks,
                    meas_abc[core_idx],
                    meas_detailed,
                    seg_detailed,
                );
                // The scheduler sees the configured (possibly quantized)
                // counter over the measurement window; evaluation always
                // uses perfect accounting over the full segment.
                let sched_abc = sampling::extrapolate_abc(
                    &self.sched_counters[core_idx],
                    active_ticks,
                    active_detailed[core_idx],
                );
                let cpi = core.cpi_stack().since(&cpi_base[core_idx]);
                cpi_base[core_idx] = *core.cpi_stack();
                let kind = core.kind();
                obs.push(SegmentObservation {
                    app: app_idx,
                    core: core_idx,
                    kind,
                    ticks,
                    active_ticks,
                    instructions: measured_instructions,
                    abc: sched_abc,
                    cpi,
                });
                let app = &mut self.apps[app_idx];
                app.instructions += instructions;
                app.abc += eval_abc;
                if kind == CoreKind::Big {
                    app.ticks_on_big += ticks;
                }
                app_abc[app_idx] = eval_abc;
                app_instr[app_idx] = instructions;
            }
            if seg.is_sampling {
                // Sampling segments exist to produce measurements; expose
                // the exact numbers the scheduler will act on.
                for o in &obs {
                    sink.emit(&Event::SampleTaken {
                        tick: self.now,
                        app: o.app,
                        core: o.core,
                        cpi: if o.instructions > 0 {
                            o.active_ticks as f64 / o.instructions as f64
                        } else {
                            0.0
                        },
                        abc_rate: if o.active_ticks > 0 {
                            o.abc / o.active_ticks as f64
                        } else {
                            0.0
                        },
                        instructions: o.instructions,
                    });
                }
            }
            span::scope(Stage::Scheduler, || scheduler.observe(&obs));
            recorder.inc(m_quanta);
            if seg.is_sampling {
                recorder.inc(m_sampling);
            }
            recorder.add(m_migrations, seg_migrations);
            recorder.add(m_ticks, ticks);
            recorder.add(m_detailed, seg_detailed);
            recorder.add(m_ff, ticks - seg_detailed);
            recorder.add(m_skipped, seg_skipped);
            let seg_instr: u64 = app_instr.iter().sum();
            recorder.add(m_instructions, seg_instr);
            recorder.observe(h_seg_instr, seg_instr);
            recorder.observe(h_seg_migr, seg_migrations);
            timeline.push(SegmentRecord {
                start: seg_end - ticks,
                ticks,
                mapping: self.mapping.clone(),
                is_sampling: seg.is_sampling,
                app_abc,
                app_instructions: app_instr,
            });
            span::exit(Stage::Segment);
        }

        let sampling_report = self.sampling.map(|_| SamplingReport {
            detailed_ticks: detailed_total,
            ff_ticks: ff_total,
            windows: window_total,
            ipc_rel_stderr: est_ipc.rel_stderr(),
            abc_rel_stderr: est_abc.rel_stderr(),
        });
        // Classify the reliability-mode fault campaign against the
        // finished timeline (pure post-run step; see DESIGN.md §15).
        let reliability_outcome = self.reliability.map(|plan| {
            let core_bits: Vec<u64> = self.cfg.cores.iter().map(|c| c.total_bits()).collect();
            span::scope(Stage::Metrics, || {
                classify(
                    &plan,
                    duration,
                    self.cfg.quantum_ticks,
                    &timeline,
                    &core_bits,
                )
            })
        });
        let result = span::scope(Stage::Metrics, || {
            let apps: Vec<AppRunStats> = self
                .apps
                .iter()
                .map(|a| AppRunStats {
                    name: a.name.clone(),
                    instructions: a.instructions,
                    abc: a.abc,
                    migrations: a.migrations,
                    ticks_on_big: a.ticks_on_big,
                })
                .collect();
            let cores: Vec<CoreRunStats> = self
                .cores
                .iter()
                .map(|c| {
                    let (l1i, l1d, l2) = c.cache_stats();
                    CoreRunStats {
                        kind: c.kind(),
                        cycles: c.cycles(),
                        committed: c.committed(),
                        class_counts: *c.class_counts(),
                        cpi: *c.cpi_stack(),
                        l1_accesses: l1i.accesses + l1d.accesses,
                        l2_accesses: l2.accesses,
                    }
                })
                .collect();
            RunResult {
                duration,
                apps,
                cores,
                shared: SharedActivity {
                    l3_accesses: self.shared.l3_stats().accesses,
                    mem_requests: self.shared.controller_stats().requests,
                },
                timeline,
                migrations: migrations_total,
                sampling: sampling_report.clone(),
                reliability: reliability_outcome.as_ref().map(|(r, _)| r.clone()),
            }
        });
        // Cumulative-totals counters (core cycles/instructions, cache and
        // DRAM miss/bandwidth counters from the memory crate).
        let c_cycles = recorder.counter("core.cycles");
        let c_committed = recorder.counter("core.instructions");
        for c in &result.cores {
            recorder.add(c_cycles, c.cycles);
            recorder.add(c_committed, c.committed);
        }
        for core in &mut self.cores {
            core.caches_mut().record_metrics(recorder);
        }
        self.shared.record_metrics(recorder);
        if let Some(r) = &sampling_report {
            sink.emit(&Event::SamplingSummary {
                tick: self.now,
                detailed_ticks: r.detailed_ticks,
                ff_ticks: r.ff_ticks,
                windows: r.windows,
                ipc_rel_stderr: r.ipc_rel_stderr,
                abc_rel_stderr: r.abc_rel_stderr,
            });
        }
        if let Some((report, faults)) = &reliability_outcome {
            for f in faults {
                sink.emit(&Event::FaultInjected {
                    tick: f.fault.tick,
                    injection: f.fault.injection,
                    structure: format!("core{}", f.fault.core),
                    outcome: f.outcome.name().to_string(),
                });
            }
            sink.emit(&Event::ReliabilitySummary {
                tick: self.now,
                mode: report.mode.clone(),
                faults: report.faults,
                masked: report.masked,
                recovered_rollback: report.recovered_rollback,
                recovered_replica: report.recovered_replica,
                sdc: report.sdc,
                overhead_ticks: report.overhead_ticks(),
            });
            for (name, value) in [
                ("reliability.faults", report.faults),
                ("reliability.masked", report.masked),
                ("reliability.recovered_rollback", report.recovered_rollback),
                ("reliability.recovered_replica", report.recovered_replica),
                ("reliability.sdc", report.sdc),
                ("reliability.checkpoints", report.checkpoints),
                ("reliability.reexec_ticks", report.reexec_ticks),
                ("reliability.overhead_ticks", report.overhead_ticks()),
            ] {
                let c = recorder.counter(name);
                recorder.add(c, value);
            }
        }
        sink.emit(&Event::RunEnd {
            tick: self.now,
            quanta: quantum_index,
            migrations: migrations_total,
            instructions: result.apps.iter().map(|a| a.instructions).sum(),
        });
        sink.flush();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Objective, RandomScheduler, SamplingParams, SamplingScheduler};

    fn four_apps() -> Vec<AppSpec> {
        ["milc", "gobmk", "hmmer", "mcf"]
            .iter()
            .enumerate()
            .map(|(i, n)| AppSpec::spec(n, 100 + i as u64))
            .collect()
    }

    /// `Write` target shared with the test body, so the JSONL bytes
    /// survive the boxed sink.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn system_runs_under_random_scheduler() {
        let cfg = SystemConfig::hcmp(2, 2);
        let kinds = cfg.core_kinds();
        let q = cfg.quantum_ticks;
        let mut sys = System::new(cfg, &four_apps());
        let mut sched = RandomScheduler::new(kinds, q, 7);
        let r = sys.run(&mut sched, 200_000);
        assert_eq!(r.apps.len(), 4);
        for a in &r.apps {
            assert!(a.instructions > 0, "{} made no progress", a.name);
            assert!(a.abc > 0.0, "{} accumulated no ABC", a.name);
        }
        assert!(r.migrations > 0, "random scheduler migrates");
        assert!(!r.timeline.is_empty());
        let total_ticks: u64 = r.timeline.iter().map(|s| s.ticks).sum();
        assert_eq!(total_ticks, 200_000);
    }

    #[test]
    fn system_runs_under_reliability_scheduler() {
        let cfg = SystemConfig::hcmp(2, 2);
        let kinds = cfg.core_kinds();
        let q = cfg.quantum_ticks;
        let mut sys = System::new(cfg, &four_apps());
        let mut sched =
            SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
        let r = sys.run(&mut sched, 300_000);
        assert!(
            r.timeline.iter().any(|s| s.is_sampling),
            "sampling happened"
        );
        assert!(r.timeline.iter().any(|s| !s.is_sampling), "main quanta ran");
        for a in &r.apps {
            assert!(a.instructions > 0);
        }
    }

    #[test]
    fn migration_overhead_reduces_progress() {
        // Same workload under a scheduler that never moves anything vs one
        // that reshuffles every quantum: total instructions should drop.
        struct Pinned(Vec<usize>, u64);
        impl Scheduler for Pinned {
            fn name(&self) -> &'static str {
                "pinned"
            }
            fn next_segment(&mut self) -> crate::sched::Segment {
                crate::sched::Segment {
                    mapping: self.0.clone(),
                    ticks: self.1,
                    is_sampling: false,
                }
            }
            fn observe(&mut self, _obs: &[SegmentObservation]) {}
        }
        let mk = || {
            let mut cfg = SystemConfig::hcmp(2, 2);
            cfg.migration_ticks = 5000; // exaggerate to make the effect clear
            cfg
        };
        let cfg = mk();
        let q = cfg.quantum_ticks;
        let mut pinned_sys = System::new(mk(), &four_apps());
        let mut pinned = Pinned((0..4).collect(), q);
        let pinned_total: u64 = pinned_sys
            .run(&mut pinned, 200_000)
            .apps
            .iter()
            .map(|a| a.instructions)
            .sum();

        let mut random_sys = System::new(cfg, &four_apps());
        let mut random = RandomScheduler::new(
            vec![
                CoreKind::Big,
                CoreKind::Big,
                CoreKind::Small,
                CoreKind::Small,
            ],
            q,
            3,
        );
        let random_total: u64 = random_sys
            .run(&mut random, 200_000)
            .apps
            .iter()
            .map(|a| a.instructions)
            .sum();
        assert!(
            random_total < pinned_total,
            "random {random_total} should trail pinned {pinned_total}"
        );
    }

    #[test]
    fn core_stats_consistent_with_app_stats() {
        let cfg = SystemConfig::hcmp(1, 1);
        let kinds = cfg.core_kinds();
        let q = cfg.quantum_ticks;
        let mut sys = System::new(cfg, &four_apps()[..2]);
        let mut sched = RandomScheduler::new(kinds, q, 5);
        let r = sys.run(&mut sched, 100_000);
        let apps_total: u64 = r.apps.iter().map(|a| a.instructions).sum();
        let cores_total: u64 = r.cores.iter().map(|c| c.committed).sum();
        assert_eq!(apps_total, cores_total);
    }

    #[test]
    #[should_panic(expected = "one application per core")]
    fn app_count_must_match_core_count() {
        let _ = System::new(SystemConfig::hcmp(2, 2), &four_apps()[..2]);
    }

    #[test]
    fn traced_runs_emit_a_coherent_event_stream() {
        use relsim_obs::{Event, JsonlSink, RunObs};

        let cfg = SystemConfig::hcmp(2, 2);
        let kinds = cfg.core_kinds();
        let q = cfg.quantum_ticks;
        let mut sys = System::new(cfg, &four_apps());
        let mut sched =
            SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
        let buf = SharedBuf::default();
        let mut obs = RunObs::with_sink(Box::new(JsonlSink::new(buf.clone())));
        let r = sys.run_traced(&mut sched, 300_000, &mut obs);

        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid event JSON"))
            .collect();
        assert!(matches!(events.first(), Some(Event::RunStart { .. })));
        assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
        // Every quantum gets a start event, and every non-sampling quantum
        // a decision with a predicted objective.
        let quanta = events
            .iter()
            .filter(|e| matches!(e, Event::QuantumStart { .. }))
            .count();
        assert_eq!(quanta, r.timeline.len());
        let mut main_decisions = 0;
        for pair in events.windows(2) {
            if let [Event::SchedulerDecision {
                mapping,
                predicted_objective,
                ..
            }, Event::QuantumStart {
                mapping: qmap,
                is_sampling,
                ..
            }] = pair
            {
                assert_eq!(mapping, qmap, "decision matches the quantum it starts");
                if !is_sampling {
                    assert!(predicted_objective.is_some());
                    main_decisions += 1;
                }
            }
        }
        assert!(main_decisions > 0, "main quanta carry predicted objectives");
        // Migration events agree with the run totals.
        let migration_events = events
            .iter()
            .filter(|e| matches!(e, Event::Migration { .. }))
            .count() as u64;
        assert_eq!(migration_events, r.migrations);
        // Sampling segments produce the samples the scheduler acts on.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SampleTaken { .. })));
        // The recorder agrees with the result, and the memory counters
        // from the hierarchy are present.
        let snap = obs.recorder.snapshot();
        assert_eq!(snap.counter("sim.quanta"), Some(r.timeline.len() as u64));
        assert_eq!(snap.counter("sim.migrations"), Some(r.migrations));
        assert_eq!(
            snap.counter("sim.instructions"),
            Some(r.apps.iter().map(|a| a.instructions).sum())
        );
        assert_eq!(
            snap.counter("core.instructions"),
            Some(r.cores.iter().map(|c| c.committed).sum())
        );
        assert!(snap.counter("mem.l1.accesses").unwrap_or(0) > 0);
        assert!(snap.counter("mem.l3.accesses").unwrap_or(0) > 0);
        assert!(snap.counter("mem.dram.requests").unwrap_or(0) > 0);
    }

    #[test]
    fn same_seed_traced_runs_are_byte_identical() {
        use relsim_obs::{JsonlSink, RunObs};

        let trace = || {
            let cfg = SystemConfig::hcmp(2, 2);
            let kinds = cfg.core_kinds();
            let q = cfg.quantum_ticks;
            let mut sys = System::new(cfg, &four_apps());
            let mut sched =
                SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
            let buf = SharedBuf::default();
            let mut obs = RunObs::with_sink(Box::new(JsonlSink::new(buf.clone())));
            sys.run_traced(&mut sched, 200_000, &mut obs);
            let bytes = buf.0.borrow().clone();
            bytes
        };
        let a = trace();
        let b = trace();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same-seed event logs must be byte-identical");
    }

    #[test]
    fn runs_are_deterministic_end_to_end() {
        let run = || {
            let cfg = SystemConfig::hcmp(2, 2);
            let kinds = cfg.core_kinds();
            let q = cfg.quantum_ticks;
            let mut sys = System::new(cfg, &four_apps());
            let mut sched =
                SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
            sys.run(&mut sched, 150_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.shared, b.shared);
    }

    #[test]
    fn sampling_segments_are_marked_in_timeline() {
        let cfg = SystemConfig::hcmp(2, 2);
        let kinds = cfg.core_kinds();
        let q = cfg.quantum_ticks;
        let mut sys = System::new(cfg, &four_apps());
        let mut sched =
            SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
        let r = sys.run(&mut sched, 300_000);
        let sampling: Vec<&SegmentRecord> = r.timeline.iter().filter(|s| s.is_sampling).collect();
        assert!(!sampling.is_empty());
        for s in sampling {
            assert!(
                s.ticks <= q / 5,
                "sampling segments are short: {} of quantum {q}",
                s.ticks
            );
        }
    }

    #[test]
    fn consecutive_runs_accumulate() {
        // Two back-to-back run() calls continue the same system state.
        let cfg = SystemConfig::hcmp(1, 1);
        let kinds = cfg.core_kinds();
        let q = cfg.quantum_ticks;
        let mut sys = System::new(cfg, &four_apps()[..2]);
        let mut sched = RandomScheduler::new(kinds, q, 3);
        let r1 = sys.run(&mut sched, 60_000);
        let r2 = sys.run(&mut sched, 60_000);
        // Cumulative app stats grow monotonically across calls.
        for (a1, a2) in r1.apps.iter().zip(&r2.apps) {
            assert!(a2.instructions >= a1.instructions);
            assert!(a2.abc >= a1.abc);
        }
    }

    #[test]
    fn sampled_traced_runs_are_byte_identical_and_report() {
        use relsim_obs::{Event, JsonlSink, RunObs};

        let trace = || {
            let cfg = SystemConfig::hcmp(2, 2);
            let kinds = cfg.core_kinds();
            let q = cfg.quantum_ticks;
            let mut sys = System::new(cfg, &four_apps());
            sys.set_sampling(Some(SamplingConfig::parse("2000:8000:1").unwrap()));
            let mut sched =
                SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
            let buf = SharedBuf::default();
            let mut obs = RunObs::with_sink(Box::new(JsonlSink::new(buf.clone())));
            let r = sys.run_traced(&mut sched, 300_000, &mut obs);
            let bytes = buf.0.borrow().clone();
            (bytes, r, obs.recorder.snapshot())
        };
        let (a, r, snap) = trace();
        let (b, _, _) = trace();
        assert_eq!(a, b, "same-seed sampled event logs must be byte-identical");

        let report = r.sampling.expect("sampled run carries a report");
        assert_eq!(report.detailed_ticks + report.ff_ticks, 300_000);
        assert!(report.ff_ticks > 0, "fast-forward actually happened");
        assert!(report.windows >= 2, "enough windows for an error estimate");
        assert!(report.ipc_rel_stderr.is_finite());
        assert!(report.detailed_fraction() < 1.0);
        assert_eq!(
            snap.counter("sim.detailed_ticks"),
            Some(report.detailed_ticks)
        );
        assert_eq!(snap.counter("sim.ff_ticks"), Some(report.ff_ticks));

        let text = String::from_utf8(a).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid event JSON"))
            .collect();
        assert!(matches!(events.get(1), Some(Event::SamplingPlan { .. })));
        let summary = events
            .iter()
            .find_map(|e| match e {
                Event::SamplingSummary {
                    detailed_ticks,
                    ff_ticks,
                    windows,
                    ..
                } => Some((*detailed_ticks, *ff_ticks, *windows)),
                _ => None,
            })
            .expect("sampled run emits a summary");
        assert_eq!(
            summary,
            (report.detailed_ticks, report.ff_ticks, report.windows)
        );
    }

    #[test]
    fn cycle_skipping_is_byte_identical_to_tick_loop() {
        use relsim_obs::{JsonlSink, RunObs};

        // The cheap in-crate equivalence check; the full grid-level
        // differential lives in tests/horizon_equivalence.rs.
        let trace = |skip: bool, sampling: Option<&str>| {
            let cfg = SystemConfig::hcmp(2, 2);
            let kinds = cfg.core_kinds();
            let q = cfg.quantum_ticks;
            let mut sys = System::new(cfg, &four_apps());
            sys.set_skip(skip);
            sys.set_sampling(sampling.map(|s| SamplingConfig::parse(s).unwrap()));
            let mut sched =
                SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
            let buf = SharedBuf::default();
            let mut obs = RunObs::with_sink(Box::new(JsonlSink::new(buf.clone())));
            let r = sys.run_traced(&mut sched, 300_000, &mut obs);
            let bytes = buf.0.borrow().clone();
            let skipped = obs
                .recorder
                .snapshot()
                .counter("sim.skipped_ticks")
                .unwrap_or(0);
            (serde_json::to_vec(&r).unwrap(), bytes, skipped)
        };
        for sampling in [None, Some("2000:8000:1")] {
            let (res_skip, log_skip, skipped) = trace(true, sampling);
            let (res_tick, log_tick, none_skipped) = trace(false, sampling);
            assert_eq!(
                res_skip, res_tick,
                "RunResult differs under skip (sampling {sampling:?})"
            );
            assert_eq!(
                log_skip, log_tick,
                "event log differs under skip (sampling {sampling:?})"
            );
            assert!(skipped > 0, "horizon never skipped (sampling {sampling:?})");
            assert_eq!(none_skipped, 0, "tick loop must not skip");
        }
    }

    #[test]
    fn sampled_run_tracks_full_run_coarsely() {
        // The sampled engine is an approximation; this guards against gross
        // divergence (the tight accuracy bound lives in the differential
        // harness under tests/).
        let run = |sampling: Option<SamplingConfig>| {
            let cfg = SystemConfig::hcmp(2, 2);
            let kinds = cfg.core_kinds();
            let q = cfg.quantum_ticks;
            let mut sys = System::new(cfg, &four_apps());
            sys.set_sampling(sampling);
            let mut sched =
                SamplingScheduler::new(Objective::Sser, kinds, q, SamplingParams::default());
            sys.run(&mut sched, 300_000)
        };
        let full = run(None);
        assert!(full.sampling.is_none(), "full runs carry no report");
        let sampled = run(Some(SamplingConfig::parse("2000:8000:1").unwrap()));
        let instr = |r: &RunResult| r.apps.iter().map(|a| a.instructions).sum::<u64>() as f64;
        let abc = |r: &RunResult| r.apps.iter().map(|a| a.abc).sum::<f64>();
        let rel = |s: f64, f: f64| (s - f).abs() / f;
        assert!(
            rel(instr(&sampled), instr(&full)) < 0.15,
            "instructions: sampled {} vs full {}",
            instr(&sampled),
            instr(&full)
        );
        assert!(
            rel(abc(&sampled), abc(&full)) < 0.25,
            "ABC: sampled {} vs full {}",
            abc(&sampled),
            abc(&full)
        );
    }

    #[test]
    fn half_frequency_small_cores_slow_the_system() {
        let run = |cfg: SystemConfig| {
            let kinds = cfg.core_kinds();
            let q = cfg.quantum_ticks;
            let mut sys = System::new(cfg, &four_apps());
            let mut sched = RandomScheduler::new(kinds, q, 9);
            let r = sys.run(&mut sched, 150_000);
            r.apps.iter().map(|a| a.instructions).sum::<u64>()
        };
        let full = run(SystemConfig::hcmp(2, 2));
        let slow = run(SystemConfig::hcmp_slow_small(2, 2));
        assert!(slow < full, "half-frequency small cores: {slow} vs {full}");
    }
}
