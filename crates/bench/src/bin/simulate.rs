//! `simulate` — run a custom workload on a custom HCMP from the command
//! line.
//!
//! ```text
//! cargo run --release -p relsim-bench --bin simulate -- \
//!     --benchmarks milc,lbm,gobmk,perlbench \
//!     --big 2 --small 2 \
//!     --scheduler reliability \
//!     --ticks 1000000 [--quantum 20000] [--rob-only] [--half-freq-small] \
//!     [--quick] [--result-out result.json] \
//!     [--trace-out trace.jsonl] [--metrics-out metrics.json] [--quiet]
//! ```
//!
//! Prints per-application placement, slowdown and wSER, plus system SSER,
//! STP and power. `--list` prints the benchmark catalog.
//!
//! The run itself goes through [`relsim_serve::run_request`] — the same
//! function the `serve` daemon executes — so `--result-out` writes an
//! artifact byte-identical to what a live daemon returns for the same
//! request (the determinism contract extends to the wire). `--quick`
//! evaluates against the quick-scale reference table, matching
//! `serve --quick`.
//!
//! With `--trace-out` the run streams a structured JSONL event log
//! (scheduler decisions with predicted objectives, migrations, samples);
//! with `--metrics-out` it writes a metrics snapshot (core, cache and
//! DRAM counters) plus a run manifest (`*.manifest.json`) recording the
//! full configuration, scheduler, seed, elapsed time and, under
//! `--profile`, the stage profile.

use relsim::experiments::Context;
use relsim_bench::{arg_value, flag, MODEL_VERSION};
use relsim_obs::{info, manifest_path, write_manifest, RunManifest, OBS_HELP};
use relsim_serve::{artifact_bytes, run_request, SimRequest};

fn main() {
    let started = std::time::Instant::now();
    let obs_args = relsim_bench::obs_init();
    if flag("--list") {
        println!("available benchmarks:");
        for n in relsim_trace::spec_names() {
            println!("  {n}");
        }
        return;
    }
    if flag("--help") || flag("-h") {
        println!(
            "usage: simulate --benchmarks a,b,c,d [--big N] [--small N] \
             [--scheduler random|performance|reliability|static] \
             [--ticks N] [--quantum N] [--rob-only] [--half-freq-small] \
             [--quick] [--result-out FILE] [--list]\n{OBS_HELP}\n{}\n{}\n{}\n{}",
            relsim_bench::JOBS_HELP,
            relsim_bench::SAMPLE_HELP,
            relsim_bench::NO_SKIP_HELP,
            relsim_bench::CACHE_HELP
        );
        return;
    }

    let benchmarks: Vec<String> = arg_value("--benchmarks")
        .unwrap_or_else(|| "milc,lbm,gobmk,perlbench".to_owned())
        .split(',')
        .map(|s| s.trim().to_owned())
        .collect();
    let req = SimRequest {
        big: arg_value("--big").map_or(2, |v| v.parse().expect("--big")),
        small: arg_value("--small").map_or(2, |v| v.parse().expect("--small")),
        ticks: arg_value("--ticks").map_or(1_000_000, |v| v.parse().expect("--ticks")),
        quantum: arg_value("--quantum").map_or(20_000, |v| v.parse().expect("--quantum")),
        scheduler: arg_value("--scheduler").unwrap_or_else(|| "reliability".to_owned()),
        half_freq_small: flag("--half-freq-small"),
        rob_only: flag("--rob-only"),
        benchmarks,
    };
    if let Err(msg) = req.validate() {
        relsim_obs::error!("simulate: {msg}");
        std::process::exit(1);
    }

    let mut obs = relsim_bench::run_obs(&obs_args);

    // Reference table for the metrics; its isolated runs come from the
    // result cache when warm. `--quick` selects the quick-scale table,
    // matching `serve --quick`.
    let mut scale = relsim_bench::scale_from_args();
    scale.quantum_ticks = req.quantum;
    let ctx = Context::build(scale);

    info!(
        "running {} on {}B{}S under {} for {} ticks...",
        req.benchmarks.join("+"),
        req.big,
        req.small,
        req.scheduler,
        req.ticks
    );
    let artifact = run_request(&ctx.refs, &req, &mut obs);

    println!(
        "\n{:<14} {:>9} {:>10} {:>10} {:>10} {:>6}",
        "application", "big-frac", "instr", "wSER", "slowdown", "migr"
    );
    for a in &artifact.apps {
        println!(
            "{:<14} {:>9.2} {:>10} {:>10.3e} {:>10.2} {:>6}",
            a.name, a.big_frac, a.instructions, a.wser, a.slowdown, a.migrations
        );
    }
    println!(
        "\nSSER {:.4e}   STP {:.3}   chip {:.2} W   system {:.2} W   migrations {}",
        artifact.sser,
        artifact.stp,
        artifact.chip_watts,
        artifact.system_watts,
        artifact.migrations
    );

    // Observability outputs: metrics snapshot (with the main thread's
    // span state folded in first), span trace, then the run manifest
    // next to whichever result file anchors this run.
    obs.absorb_spans("main");
    let snapshot = obs.recorder.snapshot();
    if obs_args.profiling_enabled() {
        match relsim_obs::StageProfile::from_snapshot(&snapshot) {
            Some(stage) => {
                println!(
                    "\nstage profile: {:.3} s attributed to {} stages",
                    stage.attributed_seconds,
                    stage.stages.len()
                );
                println!(
                    "{:<18} {:>9} {:>7} {:>12} {:>10} {:>10}",
                    "stage", "self-s", "share", "calls", "p50-ns", "p99-ns"
                );
                for s in &stage.stages {
                    println!(
                        "{:<18} {:>9.3} {:>6.1}% {:>12} {:>10} {:>10}",
                        s.stage,
                        s.self_seconds,
                        100.0 * s.self_seconds / stage.attributed_seconds.max(f64::MIN_POSITIVE),
                        s.calls,
                        s.p50_ns,
                        s.p99_ns
                    );
                }
            }
            None => println!("\nstage profile: no samples recorded"),
        }
    }
    let mut outputs: Vec<String> = Vec::new();
    if let Some(path) = arg_value("--result-out") {
        let path = std::path::PathBuf::from(path);
        match relsim_obs::write_atomic(&path, &artifact_bytes(&artifact)) {
            Ok(()) => {
                info!("wrote result artifact {path:?}");
                outputs.push(path.display().to_string());
            }
            Err(e) => {
                relsim_obs::error!("cannot write {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &obs_args.trace_out {
        outputs.push(path.display().to_string());
        info!("wrote event trace {path:?}");
    }
    if let Some(path) = obs_args.write_metrics_or_exit(&snapshot) {
        outputs.push(path.display().to_string());
        info!("wrote metrics snapshot {path:?}");
    }
    if let Some(path) = &obs_args.trace_spans {
        match relsim_obs::write_chrome_trace(path, &obs.spans) {
            Ok(()) => {
                outputs.push(path.display().to_string());
                info!("wrote span trace {path:?}");
            }
            Err(e) => {
                relsim_obs::error!("cannot write {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(anchor) = obs_args
        .metrics_out
        .as_ref()
        .or(obs_args.trace_out.as_ref())
    {
        let mut manifest =
            RunManifest::new("simulate", MODEL_VERSION, &artifact.scheduler, scale.seed);
        manifest.duration_ticks = req.ticks;
        manifest.scale = serde_json::to_value(&scale).unwrap_or(serde::Value::Null);
        manifest.config = serde_json::to_value(&req).unwrap_or(serde::Value::Null);
        manifest.elapsed_seconds = started.elapsed().as_secs_f64();
        manifest.outputs = outputs;
        manifest.cache = relsim_bench::cache_manifest_value();
        manifest.stage_profile = relsim_obs::StageProfile::from_snapshot(&snapshot);
        match write_manifest(anchor, &manifest) {
            Ok(path) => info!("wrote run manifest {path:?}"),
            Err(e) => relsim_obs::warn!(
                "could not write run manifest {:?}: {e}",
                manifest_path(anchor)
            ),
        }
    }
}
