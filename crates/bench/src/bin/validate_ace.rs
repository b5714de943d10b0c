//! Validate the ACE counter architecture against Monte Carlo fault
//! injection (the methodology ACE analysis replaces — Section 7.1 of the
//! paper discusses the relationship).
//!
//! With `--trace-out campaign.jsonl` every injected fault is streamed as
//! a `FaultInjected` event (strike tick plus `ace_hit`/`masked` outcome).
//!
//! The 12 campaigns (6 benchmarks × 2 core types) are independent, so
//! they shard across the worker pool (`--jobs N`). Each job buffers its
//! fault events privately; the pool replays them in grid order at the
//! barrier, so the event log is byte-identical at any `-j`.

use relsim_ace::fault_injection::validate_counters_traced;
use relsim_bench::{obs_finish, run_obs};
use relsim_cpu::CoreConfig;

fn main() {
    let obs_args = relsim_bench::obs_init();
    let mut obs = run_obs(&obs_args);
    let quick = std::env::args().any(|a| a == "--quick");
    let (ticks, injections) = if quick {
        (60_000, 50_000)
    } else {
        (300_000, 400_000)
    };
    let grid: Vec<(&str, CoreConfig)> = ["milc", "hmmer", "gobmk", "mcf", "povray", "lbm"]
        .into_iter()
        .flat_map(|name| [(name, CoreConfig::big()), (name, CoreConfig::small())])
        .collect();
    let rows = relsim::pool::scatter(
        "validate-ace",
        grid.iter().map(|cell| (None, cell)).collect(),
        &mut obs,
        relsim::pool::default_jobs(),
        |_, (name, cfg), job_obs| {
            let profile = relsim_trace::spec_profile(name).expect("catalog benchmark");
            // Per-cell seed derived from the cell's identity, not its grid
            // position or scheduling order: the campaign stream is the same
            // whichever worker runs the cell at any `-jN`.
            let seed = relsim_ace::live::mix_seed(7, &format!("{name}/{}", cfg.kind));
            validate_counters_traced(
                cfg,
                &profile,
                ticks,
                injections,
                seed,
                job_obs.sink.as_mut(),
            )
        },
    );
    println!("# ACE analysis vs Monte Carlo fault injection");
    println!(
        "{:<12} {:>6} {:>12} {:>18} {:>10}",
        "benchmark", "core", "counter AVF", "fault-injection", "agree?"
    );
    for ((name, cfg), slot) in grid.iter().zip(rows) {
        match slot {
            Ok((campaign, counter_avf)) => println!(
                "{:<12} {:>6} {:>12.4} {:>12.4} ±{:.4} {:>6}",
                name,
                cfg.kind.to_string(),
                counter_avf,
                campaign.avf_estimate,
                campaign.confidence_95,
                if campaign.consistent_with(counter_avf, 0.01) {
                    "yes"
                } else {
                    "NO"
                }
            ),
            // The pool records the panic; obs_finish reports it and exits
            // nonzero. Keep the row visible instead of silently shrinking
            // the table.
            Err(failure) => println!(
                "{:<12} {:>6} {:>12} {:>18} {:>10}",
                format!("cell[{}]", failure.index),
                "-",
                "FAILED",
                "job panicked",
                "-"
            ),
        }
    }
    println!("# The counters and {injections}-fault campaigns must agree within the 95% CI.");
    obs_finish(&obs_args, &mut obs);
}
