//! Pieces of the traced pass shared by every workload: a forwarding
//! scheduler that times the scheduler's calls, the decomposed grid cell,
//! the traced context build, the run-recorder counters, and isolated
//! replays of the core, fast-forward, trace-generator and cache layers on
//! a workload's own profiles and seeds.

use crate::report::{Report, Values};
use crate::spans::Tracer;
use crate::{stats, RunConfig, JOBS};
use relsim::evaluate::{evaluate, DEFAULT_IFR};
use relsim::experiments::{Context, MixCell, Scale, SchedKind};
use relsim::isolated::run_isolated;
use relsim::mixes::Mix;
use relsim::{
    AppSpec, DecisionInfo, Objective, RandomScheduler, RunObs, RunResult, SamplingParams,
    SamplingScheduler, Scheduler, Segment, SegmentObservation, System, SystemConfig,
};
use relsim_cpu::{Core, CoreConfig, CoreKind, CpiStack, NullObserver};
use relsim_mem::{PrivateCacheConfig, PrivateCaches, SharedMem, SharedMemConfig};
use relsim_power::{PowerModel, PowerReport, SharedActivity};
use relsim_trace::{InstrSource, OpClass, TraceGenerator};
use std::hint::black_box;

/// The per-app specs a mix runs: profiles plus trace seeds derived from
/// the scale's master seed, exactly as `experiments` expands a mix.
pub fn mix_specs(ctx: &Context, mix: &Mix) -> Vec<AppSpec> {
    mix.benchmarks
        .iter()
        .enumerate()
        .map(|(i, n)| AppSpec::spec(n, ctx.scale.seed ^ (i as u64 + 1)))
        .collect()
}

/// The scheduler `experiments` builds for `kind`.
pub fn build_scheduler(kind: SchedKind, cfg: &SystemConfig, seed: u64) -> Box<dyn Scheduler> {
    let (kinds, q) = (cfg.core_kinds(), cfg.quantum_ticks);
    let params = SamplingParams::default();
    match kind {
        SchedKind::Random => Box::new(RandomScheduler::new(kinds, q, seed)),
        SchedKind::PerfOpt => Box::new(SamplingScheduler::new(Objective::Stp, kinds, q, params)),
        SchedKind::RelOpt => Box::new(SamplingScheduler::new(Objective::Sser, kinds, q, params)),
    }
}

/// Forwards every call to the wrapped scheduler inside a span, so the
/// scheduler layer is timed from outside the program.
pub struct TimedScheduler<'a> {
    /// The scheduler under test.
    pub inner: Box<dyn Scheduler>,
    /// Where the spans go.
    pub tracer: &'a Tracer,
    /// Operation id stamped on the spans.
    pub op: u64,
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_segment(&mut self) -> Segment {
        let inner = &mut self.inner;
        self.tracer
            .scope("Scheduler::next_segment", self.op, || inner.next_segment())
    }
    fn observe(&mut self, obs: &[SegmentObservation]) {
        let inner = &mut self.inner;
        self.tracer
            .scope("Scheduler::observe", self.op, || inner.observe(obs))
    }
    fn last_decision(&self) -> Option<DecisionInfo> {
        self.tracer.scope("Scheduler::last_decision", self.op, || {
            self.inner.last_decision()
        })
    }
}

/// Names of the forwarding scheduler's spans.
pub const SCHED_SPANS: [&str; 3] = [
    "Scheduler::next_segment",
    "Scheduler::observe",
    "Scheduler::last_decision",
];

/// Power report of a finished run, as the experiments compute it.
pub fn power_of(result: &RunResult) -> PowerReport {
    let activities: Vec<_> = result.cores.iter().map(|c| c.to_activity()).collect();
    let shared = SharedActivity {
        l3_accesses: result.shared.l3_accesses,
        mem_requests: result.shared.mem_requests,
    };
    PowerModel::default().report(&activities, &shared, result.duration)
}

/// `experiments::run_mix_cell`, decomposed into its public calls, each
/// inside a span: `System::new`, `System::run_traced` (with the
/// forwarding scheduler) and the evaluation.
pub fn traced_mix_cell(
    ctx: &Context,
    cfg: &SystemConfig,
    mix: &Mix,
    kind: SchedKind,
    tracer: &Tracer,
    op: u64,
    obs: &mut RunObs,
) -> MixCell {
    tracer.scope("run_mix_cell", op, || {
        let specs = mix_specs(ctx, mix);
        let mut sched = TimedScheduler {
            inner: build_scheduler(kind, cfg, ctx.scale.seed),
            tracer,
            op,
        };
        let mut system = tracer.scope("System::new", op, || System::new(cfg.clone(), &specs));
        let result = tracer.scope("System::run_traced", op, || {
            system.run_traced(&mut sched, ctx.scale.run_ticks, obs)
        });
        let (eval, power) = tracer.scope("evaluate", op, || {
            (evaluate(&result, &ctx.refs, DEFAULT_IFR), power_of(&result))
        });
        let (detailed_ticks, ff) = result
            .sampling
            .map_or((result.duration, 0), |r| (r.detailed_ticks, r.ff_ticks));
        MixCell {
            sser: eval.sser,
            stp: eval.stp,
            power,
            detailed_ticks,
            total_ticks: detailed_ticks + ff,
        }
    })
}

/// Build the context inside a `Context::build` span, then replay each of
/// its isolated runs inside an `isolated::run_isolated` span. Returns the
/// context and the number of replayed runs that differ from the table the
/// build produced (0 when the composed and decomposed paths agree).
pub fn traced_context(scale: Scale, tracer: &Tracer) -> (Context, usize) {
    relsim_cache::configure(None);
    let ctx = tracer.scope("Context::build", 0, || Context::build(scale));
    let mut mismatches = 0;
    let profiles = relsim_trace::spec2006_profiles();
    for (i, p) in profiles.iter().enumerate() {
        for (k, cfg) in [CoreConfig::big(), CoreConfig::small()].iter().enumerate() {
            let op = (2 * i + k) as u64;
            // `ReferenceTable::build` seeds every isolated run with 1.
            let r = tracer.scope("isolated::run_isolated", op, || {
                run_isolated(p, cfg, scale.isolation_ticks, 1)
            });
            if ctx.refs.get(&p.name, cfg.kind) != Some(&r) {
                mismatches += 1;
            }
        }
    }
    (ctx, mismatches)
}

/// Run-recorder counters summed over the traced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    pub quanta: u64,
    pub migrations: u64,
    pub instructions: u64,
    pub ticks: u64,
    pub ff_ticks: u64,
    pub skipped_ticks: u64,
    pub core_ticks: u64,
    pub detailed_core_ticks: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub l3_accesses: u64,
    pub l3_misses: u64,
    pub dram_requests: u64,
}

impl SimCounters {
    /// Fold in one run's recorder (`n_cores` cores).
    pub fn add(&mut self, obs: &RunObs, n_cores: usize) {
        let s = obs.recorder.snapshot();
        let c = |name: &str| s.counter(name).unwrap_or(0);
        self.quanta += c("sim.quanta");
        self.migrations += c("sim.migrations");
        self.instructions += c("sim.instructions");
        self.ticks += c("sim.ticks");
        self.ff_ticks += c("sim.ff_ticks");
        self.skipped_ticks += c("sim.skipped_ticks");
        self.core_ticks += c("sim.ticks") * n_cores as u64;
        self.detailed_core_ticks += c("sim.detailed_ticks") * n_cores as u64;
        self.l2_accesses += c("mem.l2.accesses");
        self.l2_misses += c("mem.l2.misses");
        self.l3_accesses += c("mem.l3.accesses");
        self.l3_misses += c("mem.l3.misses");
        self.dram_requests += c("mem.dram.requests");
    }

    /// Skipped share of detailed per-core ticks (event-horizon skipping).
    pub fn skipped_share(&self) -> f64 {
        ratio(self.skipped_ticks as f64, self.detailed_core_ticks as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer figures from the isolated replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    pub big_ns_per_tick: f64,
    pub small_ns_per_tick: f64,
    pub big_ipc: f64,
    pub small_ipc: f64,
    pub ff_ns_per_tick: f64,
    pub trace_ns_per_instr: f64,
    pub mem_ns_per_access: f64,
    pub l1d_miss_rate: f64,
}

/// Detailed ticks per core and app in the core replay.
const REPLAY_TICKS: u64 = 20_000;
/// Fast-forwarded ticks per app in the fast-forward replay.
const REPLAY_FF_TICKS: u64 = 60_000;
/// Instructions per app in the trace-generator replay.
const REPLAY_INSTRS: u64 = 200_000;
/// Data accesses per app in the private-cache replay.
const REPLAY_ACCESSES: u64 = 100_000;

/// Replay `Core::tick` (both core kinds), `Core::fast_forward`,
/// `TraceGenerator` and `PrivateCaches` in isolation on `apps` (profile
/// name and trace seed, as the workload runs them), each inside a span.
pub fn replay_layers(apps: &[(String, u64)], tracer: &Tracer) -> Replays {
    let mut r = Replays::default();
    let (mut big, mut small) = ((0.0, 0u64, 0u64), (0.0, 0u64, 0u64));
    let mut ff_ns = 0.0;
    let (mut gen_ns, mut mem_ns) = (0.0, 0.0);
    let (mut l1d_acc, mut l1d_miss) = (0u64, 0u64);
    for (op, (name, seed)) in apps.iter().enumerate() {
        let op = op as u64;
        let profile =
            relsim_trace::spec_profile(name).expect("workload benchmark is in the catalog");
        let fresh = || {
            let gen = TraceGenerator::new(profile.clone(), *seed, 0);
            let mut shared = SharedMem::new(SharedMemConfig::default());
            let (base, span) = gen.address_span();
            let warm = span.min(32 << 20);
            shared.warm_region(base + span - warm, warm);
            (gen, shared)
        };
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let (mut gen, mut shared) = fresh();
            let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
            let ns = time_ns(tracer, "Core::tick", op, || {
                for t in 0..REPLAY_TICKS {
                    core.tick(t, &mut gen, &mut shared, &mut NullObserver);
                }
            });
            let acc = if cfg.kind == CoreKind::Big {
                &mut big
            } else {
                &mut small
            };
            acc.0 += ns;
            acc.1 += core.committed();
            acc.2 += core.cycles();
            if cfg.kind == CoreKind::Big {
                // Fast-forward the warmed core at its measured rate, in
                // the sampler's 256-tick chunks.
                let ipt = core.committed() as f64 / REPLAY_TICKS as f64;
                let template = *core.cpi_stack();
                ff_ns += time_ns(tracer, "Core::fast_forward", op, || {
                    fast_forward(&mut core, &template, ipt, &mut gen, &mut shared)
                });
            }
        }
        let (mut gen, mut shared) = fresh();
        gen_ns += time_ns(tracer, "TraceGenerator::next_instr", op, || {
            let mut acc = 0u64;
            for _ in 0..REPLAY_INSTRS {
                acc ^= black_box(gen.next_instr()).addr;
            }
            black_box(acc);
        });
        let mut caches = PrivateCaches::new(PrivateCacheConfig::default(), 1);
        let (hot, hot_bytes) = gen.hot_span();
        caches.warm_region(hot, hot_bytes.min(4 << 20));
        let accesses: Vec<(u64, bool)> = std::iter::repeat_with(|| gen.next_instr())
            .filter(|i| i.op.is_mem())
            .take(REPLAY_ACCESSES as usize)
            .map(|i| (i.addr, i.op == OpClass::Store))
            .collect();
        mem_ns += time_ns(tracer, "PrivateCaches::access_data", op, || {
            for (t, &(addr, w)) in accesses.iter().enumerate() {
                black_box(caches.access_data(addr, w, t as u64, &mut shared));
            }
        });
        let l1d = caches.stats().1;
        l1d_acc += l1d.accesses;
        l1d_miss += l1d.misses();
    }
    let n = apps.len() as f64;
    r.big_ns_per_tick = ratio(big.0, n * REPLAY_TICKS as f64);
    r.small_ns_per_tick = ratio(small.0, n * REPLAY_TICKS as f64);
    r.big_ipc = ratio(big.1 as f64, big.2 as f64);
    r.small_ipc = ratio(small.1 as f64, small.2 as f64);
    r.ff_ns_per_tick = ratio(ff_ns, n * REPLAY_FF_TICKS as f64);
    r.trace_ns_per_instr = ratio(gen_ns, n * REPLAY_INSTRS as f64);
    r.mem_ns_per_access = ratio(mem_ns, n * REPLAY_ACCESSES as f64);
    r.l1d_miss_rate = ratio(l1d_miss as f64, l1d_acc as f64);
    r
}

fn fast_forward(
    core: &mut Core,
    template: &CpiStack,
    instr_per_tick: f64,
    gen: &mut dyn InstrSource,
    shared: &mut SharedMem,
) {
    const CHUNK: u64 = 256;
    let mut start = REPLAY_TICKS;
    let end = start + REPLAY_FF_TICKS;
    let mut done = 0u64;
    while start < end {
        let chunk = CHUNK.min(end - start);
        let target = ((start + chunk - REPLAY_TICKS) as f64 * instr_per_tick) as u64;
        core.fast_forward(start, chunk, target - done, template, gen, shared);
        done = target;
        start += chunk;
    }
}

/// Time `f` inside a span and return its wall time in nanoseconds.
pub fn time_ns(tracer: &Tracer, name: &'static str, op: u64, f: impl FnOnce()) -> f64 {
    let t0 = std::time::Instant::now();
    tracer.scope(name, op, f);
    t0.elapsed().as_nanos() as f64
}

/// Median and 90th percentile, in milliseconds, of spans named `name`.
pub fn span_ms(tracer: &Tracer, name: &str) -> (f64, f64) {
    let ms: Vec<f64> = tracer.durations_ns(name).iter().map(|n| n / 1e6).collect();
    (stats::median(&ms), stats::quantile(&ms, 0.9))
}

/// Per-layer figures every workload's traced pass fills the same way.
pub fn common_layers(l: &mut Values, tracer: &Tracer, c: &SimCounters, r: &Replays) {
    let build_s = stats::median(&tracer.durations_ns("Context::build")) / 1e9;
    let (iso_p50, iso_p90) = span_ms(tracer, "isolated::run_isolated");
    let iso_total_s = stats::sum(&tracer.durations_ns("isolated::run_isolated")) / 1e9;
    l.set("isolated.build_s", build_s);
    l.set("isolated.run_ms_p50", iso_p50);
    l.set("isolated.run_ms_p90", iso_p90);
    l.set(
        "isolated.busy_share",
        ratio(iso_total_s, JOBS as f64 * build_s),
    );

    // The run's self time: the scheduler's calls are the sched layer's.
    let runs = tracer.count("System::run_traced") as f64;
    let run_self_ns = tracer.self_ns("System::run_traced");
    l.set("system.run_ms", ratio(run_self_ns / 1e6, runs));
    l.set(
        "system.new_ms",
        stats::median(&tracer.durations_ns("System::new")) / 1e6,
    );
    l.set(
        "system.ns_per_core_tick",
        ratio(run_self_ns, c.core_ticks as f64),
    );
    l.set("system.quanta", c.quanta as f64);
    l.set("system.migrations", c.migrations as f64);
    l.set("system.skipped_share", c.skipped_share());
    l.set("sim.instructions", c.instructions as f64);
    l.set("sim.ticks", c.ticks as f64);

    let calls: usize = SCHED_SPANS.iter().map(|n| tracer.count(n)).sum();
    let sched_ns: f64 = SCHED_SPANS
        .iter()
        .map(|n| stats::sum(&tracer.durations_ns(n)))
        .sum();
    l.set("sched.calls", calls as f64);
    l.set("sched.us_per_call", ratio(sched_ns / 1e3, calls as f64));

    l.set("cpu.big.ns_per_tick", r.big_ns_per_tick);
    l.set("cpu.small.ns_per_tick", r.small_ns_per_tick);
    l.set("cpu.big.ipc", r.big_ipc);
    l.set("cpu.small.ipc", r.small_ipc);
    l.set("ff.ticks", c.ff_ticks as f64);
    l.set("ff.ns_per_tick", r.ff_ns_per_tick);
    l.set("mem.l1d.miss_rate", r.l1d_miss_rate);
    l.set(
        "mem.l2.miss_rate",
        ratio(c.l2_misses as f64, c.l2_accesses as f64),
    );
    l.set(
        "mem.l3.miss_rate",
        ratio(c.l3_misses as f64, c.l3_accesses as f64),
    );
    l.set("mem.dram.requests", c.dram_requests as f64);
    l.set("mem.ns_per_access", r.mem_ns_per_access);
    l.set("trace.ns_per_instr", r.trace_ns_per_instr);
    l.set(
        "eval.us",
        stats::median(&tracer.durations_ns("evaluate")) / 1e3,
    );
}

/// Write the traced pass's spans under the work directory.
pub fn write_spans(cfg: &RunConfig, workload: &str, tracer: &Tracer, report: &mut Report) {
    let path = cfg
        .work_dir
        .join(format!("spans-{workload}-seed{}.jsonl", cfg.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => report.notes.push(format!("could not write spans: {e}")),
    }
}
