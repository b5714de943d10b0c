//! The sampled, memory-bound run: the interval-sampled engine on a
//! memory-bound 4B4S mix under a checkpoint-mode fault campaign, as
//! `run_mode_cell` runs it with the reliability scheduler and
//! `--sample 1500:15000:1`.
//!
//! Fast-forward warming and the cache/DRAM hierarchy carry a large share
//! of engine time here, detailed stages run on about a sixth of the
//! ticks, and this is the only run that draws and classifies faults. Its
//! host time swings with the host's memory traffic by up to 1.6x between
//! runs of the same inputs, more than any timing bound can absorb, so it
//! is not a timed workload: `grid-2b2s`'s traced pass runs it (see
//! [`sampled_layers`]) to measure the fast-forward, sampling and
//! reliability layers and the sampled engine's error against fully
//! detailed runs of the same inputs.

use crate::gate::{self, Pins, Reference, Tally};
use crate::layers::{self, SimCounters, TimedScheduler};
use crate::report::Values;
use crate::spans::Tracer;
use crate::{derive_seed, stats};
use relsim::evaluate::{evaluate, DEFAULT_IFR};
use relsim::experiments::{hcmp_config, run_mode_cell, Context, ModeCell, Scale, SchedKind};
use relsim::mixes::Mix;
use relsim::reliability::classify;
use relsim::{sampling, ModeKind, ReliabilityPlan, RunObs, SamplingConfig, System};
use std::time::Instant;

/// Pin namespace of the sampled runs.
pub const NAME: &str = "sampled-membound";

/// The eight memory-dominated programs.
pub const MIX: [&str; 8] = [
    "milc",
    "lbm",
    "libquantum",
    "soplex",
    "mcf",
    "GemsFDTD",
    "omnetpp",
    "astar",
];

/// The sampling engine's windows, as the `--sample` flag takes them.
pub const SAMPLE: &str = "1500:15000:1";

/// Simulated ticks per run.
pub const RUN_TICKS: u64 = 1_000_000;

/// Fault strikes per run (the Figure 13 campaign size).
pub const FAULTS: u64 = relsim::experiments::FIG13_FAULTS;

/// Input replicas: each has its own trace seeds and fault seed derived
/// from the workload seed, so the sampled error is not one draw's luck.
pub const REPLICAS: usize = 8;

/// `Scale::quick()` with million-tick runs.
pub fn scale(seed: u64) -> Scale {
    Scale {
        run_ticks: RUN_TICKS,
        seed,
        ..Scale::quick()
    }
}

/// The mix as `experiments` takes it.
pub fn mix() -> Mix {
    Mix {
        category: "8MEM".to_string(),
        benchmarks: MIX.iter().map(|s| s.to_string()).collect(),
    }
}

/// One input replica: the context with the replica's master seed (trace
/// seeds) and the checkpoint plan with its fault seed.
pub struct Replica {
    /// Context carrying the replica's seed.
    pub ctx: Context,
    /// The checkpoint-mode fault campaign.
    pub plan: ReliabilityPlan,
}

/// The replicas of workload seed `seed`, over a context whose reference
/// table they share (its scale is replaced by [`scale`]).
pub fn replicas(ctx: &Context, seed: u64) -> Vec<Replica> {
    (0..REPLICAS as u64)
        .map(|j| {
            let mut c = ctx.clone();
            c.scale = scale(derive_seed(seed, j));
            let mut plan = ReliabilityPlan::new(ModeKind::Checkpoint, FAULTS);
            plan.fault_seed = derive_seed(seed, 1_000 + j);
            plan.ckpt_interval = c.scale.quantum_ticks;
            Replica { ctx: c, plan }
        })
        .collect()
}

/// Pin key of replica `j` of seed `seed`.
pub fn pin_key(seed: u64, j: usize) -> String {
    format!("{seed}/{j}")
}

/// The sampling configuration of the sampled runs.
pub fn sampling_config() -> SamplingConfig {
    SamplingConfig::parse(SAMPLE).expect("valid --sample value")
}

/// Run one replica on 4B4S, sampled or fully detailed as the
/// process-wide sampling default says.
pub fn run_replica(r: &Replica) -> ModeCell {
    let cfg = hcmp_config(&r.ctx, 4, 4);
    run_mode_cell(&r.ctx, &cfg, &mix(), r.plan, &mut RunObs::disabled())
}

/// Gate one sampled run: digest equal to the replica's reference, and no
/// silent data corruption under checkpoint mode.
pub fn check(cell: &ModeCell, reference: &mut Reference) -> Result<(), String> {
    if cell.report.sdc != 0 {
        return Err(format!("{} SDCs under checkpoint mode", cell.report.sdc));
    }
    reference.check("sampled run", &gate::digest(cell))
}

/// Run the replicas of `seed` sampled and fully detailed, two at a time,
/// and gate the sampled cells; then run replica 0 once more composed
/// (`run_mode_cell`, untraced, before and after) and decomposed into
/// `System::new`, `System::run_traced` (forwarding scheduler),
/// `reliability::classify` on the finished timeline and `evaluate`, each
/// in a span of `tracer`. Fills the fast-forward, sampling and
/// reliability layers and notes the sampled error.
pub fn sampled_layers(
    ctx: &Context,
    seed: u64,
    pins: &Pins,
    tracer: &Tracer,
    tally: &mut Tally,
    l: &mut Values,
    notes: &mut Vec<String>,
) {
    let reps = replicas(ctx, seed);
    let run_all = |sampled: bool| {
        sampling::set_default(sampled.then(sampling_config));
        let cells =
            relsim::pool::scatter_map(NAME, (0..REPLICAS).collect(), |_, j| run_replica(&reps[j]));
        sampling::set_default(None);
        cells
    };
    let sampled = run_all(true);
    let detailed = run_all(false);
    let (mut sser_err, mut stp_err) = (Vec::new(), Vec::new());
    for (j, (s, d)) in sampled.iter().zip(&detailed).enumerate() {
        let mut reference = Reference::new(pins.get(NAME, &pin_key(seed, j)));
        let verdict = match (s, d) {
            (Some(s), Some(d)) => {
                sser_err.push(100.0 * (s.sser_raw / d.sser_raw - 1.0).abs());
                stp_err.push(100.0 * (s.stp_raw / d.stp_raw - 1.0).abs());
                check(s, &mut reference)
            }
            _ => Err(format!("sampled run: replica {j} panicked")),
        };
        tally.record(verdict);
    }
    let (sser_err, stp_err) = (stats::mean(&sser_err), stats::mean(&stp_err));
    notes.push(format!(
        "sampled 4B4S {} x {REPLICAS} replicas, {RUN_TICKS} ticks, --sample {SAMPLE}, \
         checkpoint mode, {FAULTS} faults: sample_err_sser_pct {sser_err:.4} %, \
         sample_err_stp_pct {stp_err:.4} % (mean |sampled/detailed - 1|)",
        MIX.join("+")
    ));
    l.set("sampling.sser_err_pct", sser_err);
    l.set("sampling.stp_err_pct", stp_err);

    let rep = &reps[0];
    let sys = hcmp_config(&rep.ctx, 4, 4);
    sampling::set_default(Some(sampling_config()));
    let t0 = Instant::now();
    let composed = run_replica(rep);
    let mut untraced_s = t0.elapsed().as_secs_f64();
    let mut obs = RunObs::disabled();
    let (result, eval, classified) = tracer.scope("run_mode_cell", 0, || {
        let specs = layers::mix_specs(&rep.ctx, &mix());
        let mut sched = TimedScheduler {
            inner: layers::build_scheduler(SchedKind::RelOpt, &sys, rep.ctx.scale.seed),
            tracer,
            op: 0,
        };
        let mut system = tracer.scope("System::new", 0, || System::new(sys.clone(), &specs));
        system.set_reliability(Some(rep.plan));
        let result = tracer.scope("System::run_traced", 0, || {
            system.run_traced(&mut sched, rep.ctx.scale.run_ticks, &mut obs)
        });
        let core_bits: Vec<u64> = sys.cores.iter().map(|c| c.total_bits()).collect();
        let (classified, _) = tracer.scope("reliability::classify", 0, || {
            classify(
                &rep.plan,
                result.duration,
                sys.quantum_ticks,
                &result.timeline,
                &core_bits,
            )
        });
        let eval = tracer.scope("evaluate", 0, || {
            evaluate(&result, &rep.ctx.refs, DEFAULT_IFR)
        });
        (result, eval, classified)
    });
    let traced_s = tracer.durations_ns("run_mode_cell")[0] / 1e9;
    let t0 = Instant::now();
    let again = run_replica(rep);
    untraced_s = (untraced_s + t0.elapsed().as_secs_f64()) / 2.0;
    sampling::set_default(None);

    let agrees = sampled[0].as_ref() == Some(&composed)
        && again == composed
        && eval.sser == composed.sser_raw
        && eval.stp == composed.stp_raw
        && result.reliability.as_ref() == Some(&composed.report)
        && classified == composed.report;
    tally.record(if agrees {
        Ok(())
    } else {
        Err("sampled run: the decomposed calls disagree with run_mode_cell".to_string())
    });

    let mut counters = SimCounters::default();
    counters.add(&obs, sys.cores.len());
    l.set("ff.ticks", counters.ff_ticks as f64);
    if let Some(s) = &result.sampling {
        l.set("sampling.windows", s.windows as f64);
        l.set("sampling.detailed_share", s.detailed_fraction());
        l.set("sampling.ipc_rel_stderr", s.ipc_rel_stderr);
        l.set("sampling.abc_rel_stderr", s.abc_rel_stderr);
    }
    l.set("reliability.faults", composed.report.faults as f64);
    l.set("reliability.sdc", composed.report.sdc as f64);
    l.set(
        "reliability.classify_ms",
        stats::median(&tracer.durations_ns("reliability::classify")) / 1e6,
    );
    notes.push(format!(
        "sampled run of replica 0: {:.1} ms traced, {:.1} ms untraced",
        traced_s * 1e3,
        untraced_s * 1e3
    ));
}
