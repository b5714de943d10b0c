//! `grid-2b2s`: the scheduler-comparison grid behind Figures 6–12.
//!
//! A closed loop, one grid at a time: `compare_schedulers` over the
//! context's 2B2S four-program mixes under the random, performance and
//! reliability schedulers, fully detailed, on the two-worker pool. The
//! result cache is on over a fresh store each iteration, so every cell
//! misses and stores: cache writes are measured, cache reads and
//! fast-forward do nothing.

use crate::gate::{self, Pins, Reference};
use crate::layers::{self, ratio, SimCounters};
use crate::report::Report;
use crate::spans::Tracer;
use crate::speed::Speed;
use crate::{build_context, fresh_dir, membound, stats, RunConfig, JOBS, SETUP_REPEATS};
use relsim::experiments::{
    compare_schedulers, hcmp_config, run_mix_cell, Context, MixCell, MixComparison, Scale,
    SchedKind,
};
use relsim::mixes::Mix;
use relsim::{RunObs, SamplingParams, SystemConfig};
use relsim_cache::{CacheConfig, CacheStats, Key, Store};
use std::path::Path;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "grid-2b2s";

/// `Scale::quick()` with two mixes per category (12 mixes, 36 cells), so
/// one seed's draw of benchmarks moves a grid's wall time less.
pub fn scale(seed: u64) -> Scale {
    Scale {
        per_category: 2,
        seed,
        ..Scale::quick()
    }
}

/// The grid a context defines: 2B2S, its four-program mixes.
pub struct Grid {
    /// The experiment context (reference table, scale).
    pub ctx: Context,
    /// The 2B2S system configuration.
    pub cfg: SystemConfig,
    /// The four-program mixes.
    pub mixes: Vec<Mix>,
}

/// One timed grid.
pub struct GridRun {
    /// The grid's output.
    pub out: Vec<MixComparison>,
    /// Host seconds.
    pub wall_s: f64,
    /// Simulated committed instructions across all cells.
    pub instructions: u64,
    /// The fresh store's traffic.
    pub cache: CacheStats,
}

impl Grid {
    /// The grid of `ctx`.
    pub fn new(ctx: Context) -> Self {
        let cfg = hcmp_config(&ctx, 2, 2);
        let mixes = ctx.four_program_mixes();
        Grid { ctx, cfg, mixes }
    }

    /// Run the grid once over a fresh disk-backed result store in
    /// `store_dir` (removed afterwards).
    pub fn run(&self, store_dir: &Path) -> GridRun {
        relsim_cache::configure(Some(CacheConfig {
            dir: Some(store_dir.to_path_buf()),
        }));
        let mut obs = RunObs::disabled();
        let t0 = Instant::now();
        let out = compare_schedulers(
            &self.ctx,
            &self.cfg,
            &self.mixes,
            SamplingParams::default(),
            &mut obs,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let cache = relsim_cache::global_stats().unwrap_or_default();
        relsim_cache::configure(None);
        let _ = std::fs::remove_dir_all(store_dir);
        let instructions = obs
            .recorder
            .snapshot()
            .counter("sim.instructions")
            .unwrap_or(0);
        GridRun {
            out,
            wall_s,
            instructions,
            cache,
        }
    }
}

/// Gate one grid output: no mix dropped and the digest equal to the
/// reference (pin and earlier grids).
pub fn check(grid: &Grid, out: &[MixComparison], reference: &mut Reference) -> Result<(), String> {
    if out.len() != grid.mixes.len() {
        return Err(format!(
            "grid returned {} of {} mixes",
            out.len(),
            grid.mixes.len()
        ));
    }
    reference.check("grid", &gate::digest(out))
}

/// Whether a cell equals the grid's entry for the same mix and scheduler.
fn cell_matches(cmp: &MixComparison, sched: SchedKind, cell: &MixCell) -> bool {
    let i = SchedKind::ALL
        .iter()
        .position(|s| *s == sched)
        .expect("known scheduler");
    cmp.sser[i] == cell.sser && cmp.stp[i] == cell.stp && cmp.power[i] == cell.power
}

/// Timed phase, then (with `cfg.trace`) the traced pass. Every set-up
/// and grid runs between two units of reference work; the end-to-end
/// timings are in reference seconds.
pub fn run(cfg: &RunConfig, pins: &Pins) -> Report {
    let mut report = Report::default();
    let mut speed = Speed::new(JOBS);
    // One set-up before the timed phase, the other SETUP_REPEATS - 1
    // after it (and after `peak_rss_mb` is read): set-ups back to back
    // left the heap 0 or 3 MB larger, depending on how the allocator
    // reused the dropped contexts' memory, and that would otherwise
    // decide `peak_rss_mb`.
    let (ctx, _, setup_s) = speed.time(|| build_context(scale(cfg.seed)));
    let mut setups = vec![setup_s];
    let grid = Grid::new(ctx);
    let mut reference = Reference::new(pins.get(NAME, &cfg.seed.to_string()));
    report.notes.push(format!(
        "{} mixes x 3 schedulers on 2B2S, {} ticks each; pinned digest for seed {}: {}",
        grid.mixes.len(),
        grid.ctx.scale.run_ticks,
        cfg.seed,
        if reference.pinned() { "yes" } else { "no" }
    ));

    let (mut host_walls, mut walls) = (Vec::new(), Vec::new());
    let mut instructions = 0;
    let mut first: Option<Vec<MixComparison>> = None;
    let mut last_cache = CacheStats::default();
    let t_start = Instant::now();
    while walls.is_empty() || t_start.elapsed().as_secs_f64() < cfg.seconds {
        let (r, factor) = speed.around(|| grid.run(&fresh_dir(&cfg.work_dir, "grid-cache")));
        let verdict = gate::pool_failures().and_then(|()| check(&grid, &r.out, &mut reference));
        report.tally.record(verdict);
        host_walls.push(r.wall_s);
        walls.push(r.wall_s * factor);
        instructions += r.instructions;
        last_cache = r.cache;
        first.get_or_insert(r.out);
    }
    let peak = crate::peak_rss_mb();
    for _ in 1..SETUP_REPEATS {
        setups.push(speed.time(|| build_context(scale(cfg.seed))).2);
    }
    let e = &mut report.e2e;
    e.set("setup_s", stats::median(&setups));
    e.set("peak_rss_mb", peak - speed.resident_mb());
    e.set("wall_s", stats::median(&walls));
    e.set("sim_mips", instructions as f64 / stats::sum(&walls) / 1e6);
    e.set("ops_per_s", walls.len() as f64 / stats::sum(&walls));
    report.samples = vec![
        ("setup_s", setups.len()),
        ("wall_s", walls.len()),
        ("sim_mips", walls.len()),
        ("ops_per_s", walls.len()),
    ];
    report.notes.push(format!(
        "host ran {:.3}x slower than the reference host (median of {} reference units); \
         peak resident {:.2} MB, of which the reference work {:.2} MB",
        speed.slowdown(),
        speed.units_s.len(),
        crate::peak_rss_mb(),
        speed.resident_mb()
    ));
    report.notes.push(format!(
        "s per grid, in order: host {host_walls:.4?}, reference {walls:.4?}"
    ));
    report.notes.push(format!(
        "reference units, host s, in order: {:.4?}",
        speed.units_s
    ));
    if let Some(d) = reference.expected() {
        report.notes.push(format!("grid output digest {d}"));
    }

    if cfg.trace {
        let first = first.expect("at least one grid");
        traced_pass(
            cfg,
            pins,
            &grid,
            &first,
            stats::median(&host_walls),
            last_cache,
            &mut report,
        );
    }
    report.layers.set("obs.host_slowdown", speed.slowdown());
    report.e2e.set("ok_rate", 1.0 - report.tally.error_rate());
    report
}

/// The traced pass: traced context build and isolated replays; every
/// cell composed (`run_mix_cell`, untraced) and decomposed (traced), both
/// sequential; cache writes of the cells; isolated layer replays; then
/// the sampled memory-bound run ([`membound::sampled_layers`]).
fn traced_pass(
    cfg: &RunConfig,
    pins: &Pins,
    grid: &Grid,
    parallel: &[MixComparison],
    host_wall_s: f64,
    cache: CacheStats,
    report: &mut Report,
) {
    let tracer = Tracer::new();
    let (_, iso_mismatch) = layers::traced_context(grid.ctx.scale, &tracer);
    let cells: Vec<(usize, SchedKind)> = (0..grid.mixes.len())
        .flat_map(|mi| SchedKind::ALL.map(|s| (mi, s)))
        .collect();
    let params = SamplingParams::default();

    // Each cell runs composed (untraced `run_mix_cell`) and decomposed
    // (traced) back to back, in alternating order, so host drift over the
    // pass and the second run's warmer host caches fall on both sides of
    // `obs.trace_overhead` alike.
    let mut counters = SimCounters::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let (mut composed, mut decomposed) = (Vec::new(), Vec::new());
    for (op, &(mi, s)) in cells.iter().enumerate() {
        let mix = &grid.mixes[mi];
        let mut obs = RunObs::disabled();
        for traced in [op % 2 == 1, op % 2 == 0] {
            let t0 = Instant::now();
            if traced {
                decomposed.push(layers::traced_mix_cell(
                    &grid.ctx, &grid.cfg, mix, s, &tracer, op as u64, &mut obs,
                ));
                traced_s += t0.elapsed().as_secs_f64();
            } else {
                let cell = run_mix_cell(
                    &grid.ctx,
                    &grid.cfg,
                    mix,
                    s,
                    params,
                    &mut RunObs::disabled(),
                );
                composed.push(cell);
                untraced_s += t0.elapsed().as_secs_f64();
            }
        }
        counters.add(&obs, grid.cfg.cores.len());
    }

    // The composed, decomposed and parallel results must agree cell for
    // cell; a disagreement fails the invocation.
    let mut mismatched = 0;
    for (k, &(mi, s)) in cells.iter().enumerate() {
        let agrees = composed[k] == decomposed[k]
            && parallel
                .get(mi)
                .is_some_and(|cmp| cell_matches(cmp, s, &composed[k]));
        if !agrees {
            mismatched += 1;
        }
    }
    report.tally.record(if mismatched + iso_mismatch == 0 {
        Ok(())
    } else {
        Err(format!(
            "traced pass: {mismatched} grid cells differ between the -j{JOBS} grid, \
             sequential run_mix_cell and the decomposed calls; {iso_mismatch} isolated runs \
             differ from the context's table"
        ))
    });

    // Cache writes: each cell's bundle into a fresh disk store.
    let dir = fresh_dir(&cfg.work_dir, "grid-trace-cache");
    let store = Store::new(CacheConfig {
        dir: Some(dir.clone()),
    });
    for (op, cell) in decomposed.iter().enumerate() {
        let bytes =
            relsim::cache::encode_bundle(cell, &[], &relsim_obs::Recorder::new().snapshot())
                .expect("a cell serializes");
        let key = Key::of(&(NAME, grid.ctx.scale.seed, op as u64));
        tracer.scope("Store::put", op as u64, || store.put(key, bytes));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Every sixth app of the grid (8 of 48) keeps the replays short.
    let apps: Vec<(String, u64)> = grid
        .mixes
        .iter()
        .flat_map(|m| layers::mix_specs(&grid.ctx, m))
        .map(|s| (s.profile.name, s.seed))
        .step_by(6)
        .collect();
    let replays = layers::replay_layers(&apps, &tracer);

    let l = &mut report.layers;
    layers::common_layers(l, &tracer, &counters, &replays);
    let (cell_p50, cell_p90) = layers::span_ms(&tracer, "run_mix_cell");
    let cell_total_s = stats::sum(&tracer.durations_ns("run_mix_cell")) / 1e9;
    l.set("pool.cells", cells.len() as f64);
    l.set("pool.cell_ms_p50", cell_p50);
    l.set("pool.cell_ms_p90", cell_p90);
    l.set(
        "pool.busy_share",
        ratio(cell_total_s, JOBS as f64 * host_wall_s),
    );
    l.set("cache.hits", cache.hits as f64);
    l.set("cache.misses", cache.misses as f64);
    l.set("cache.stores", cache.stores as f64);
    l.set("cache.hit_rate", cache.hit_rate());
    l.set("cache.bytes_written", cache.bytes_written as f64);
    l.set(
        "cache.put_us",
        stats::median(&tracer.durations_ns("Store::put")) / 1e3,
    );
    l.set("loadgen.completed_rps", report.e2e.get("ops_per_s"));
    l.set("obs.trace_overhead", traced_s / untraced_s - 1.0);
    layers::write_spans(cfg, NAME, &tracer, report);

    // The sampled engine and the fault campaign never run in the grid;
    // their layers come from the sampled memory-bound run, traced apart
    // so its spans do not mix with the grid cells'.
    let sampled = Tracer::new();
    membound::sampled_layers(
        &grid.ctx,
        cfg.seed,
        pins,
        &sampled,
        &mut report.tally,
        &mut report.layers,
        &mut report.notes,
    );
    layers::write_spans(cfg, membound::NAME, &sampled, report);
}
