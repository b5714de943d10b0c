//! `perfbench` — run one workload of the relsim benchmark.
//!
//! ```text
//! perfbench --workload grid-2b2s|serve-hotcold
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           --default-seed N --heldout-seed N
//!           --lo-rps R --hi-rps R --p99-limit-ms L
//! perfbench --pin --workload W --seeds 0-31,2017   # print pin lines
//!           (W also sampled-membound: the sampled runs of the grid's
//!           traced pass)
//! ```
//!
//! The last line of standard output is the JSON result: with `--trace 0`
//! every end-to-end metric, with `--trace 1` every per-layer metric. The
//! exit code is 0 when the run completed (even with failed operations,
//! which the result line counts), and nonzero on bad arguments.

use perfbench::gate::{self, Pins};
use perfbench::{grid, membound, serve, RunConfig, JOBS};
use relsim::experiments::Context;
use relsim_cache::Key;
use relsim_serve::{artifact_bytes, run_request};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = [grid::NAME, serve::NAME];

fn value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} expects a number, got {v:?}")),
    }
}

fn required<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    number(args, flag)?.ok_or_else(|| format!("missing {flag}"))
}

/// `0-31,2017` → every listed seed.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("bad seed list {spec:?}");
    let mut out = Vec::new();
    for part in spec.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                let a: u64 = a.parse().map_err(|_| bad())?;
                let b: u64 = b.parse().map_err(|_| bad())?;
                out.extend(a..=b);
            }
            None => out.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(out)
}

/// Print the pin lines of `workload` for `seeds` at the linked model
/// version (serve pins cover the whole hot-set catalog, seed-free).
fn pin(workload: &str, seeds: &[u64], work_dir: &std::path::Path) {
    let v = relsim::cache::MODEL_VERSION;
    let scale = match workload {
        w if w == grid::NAME => grid::scale(0),
        w if w == membound::NAME => membound::scale(0),
        _ => serve::scale(0),
    };
    // The seed does not enter the reference table, so one build serves
    // every seed.
    let ctx = perfbench::build_context(scale);
    if workload == grid::NAME {
        for &seed in seeds {
            let mut c: Context = ctx.clone();
            c.scale.seed = seed;
            let r = grid::Grid::new(c).run(&perfbench::fresh_dir(work_dir, "pin-cache"));
            println!("{v} {workload} {seed} {}", gate::digest(&r.out));
        }
    } else if workload == membound::NAME {
        relsim::sampling::set_default(Some(membound::sampling_config()));
        for &seed in seeds {
            let reps = membound::replicas(&ctx, seed);
            let cells = relsim::pool::scatter_map("pin", (0..reps.len()).collect(), |_, j| {
                membound::run_replica(&reps[j])
            });
            for (j, c) in cells.iter().enumerate() {
                let c = c.as_ref().expect("pin run completes");
                println!(
                    "{v} {workload} {} {}",
                    membound::pin_key(seed, j),
                    gate::digest(c)
                );
            }
        }
    } else {
        let refs = &ctx.refs;
        let bodies = relsim::pool::scatter_map("pin", serve::catalog(), |_, req| {
            let body = artifact_bytes(&run_request(refs, &req, &mut relsim::RunObs::disabled()));
            (Key::of(&req).hex(), gate::digest_bytes(&body))
        });
        for (key, digest) in bodies.into_iter().flatten() {
            println!("{v} {workload} {key} {digest}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = value(args, "--workload").ok_or("missing --workload")?;
    let pinning = args.iter().any(|a| a == "--pin");
    let pinnable = pinning && workload == membound::NAME;
    if !(WORKLOADS.contains(&workload.as_str()) || pinnable) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    relsim::pool::set_default_jobs(JOBS);
    relsim_obs::set_log_level(relsim_obs::LogLevel::Error);
    let work_dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("cannot create {work_dir:?}: {e}"))?;

    if pinning {
        let seeds = parse_seeds(&value(args, "--seeds").unwrap_or_else(|| "0".into()))?;
        pin(&workload, &seeds, &work_dir);
        return Ok(());
    }

    let default_seed: u64 = required(args, "--default-seed")?;
    let heldout_seed: u64 = required(args, "--heldout-seed")?;
    let load = serve::Load {
        lo_rps: required(args, "--lo-rps")?,
        hi_rps: required(args, "--hi-rps")?,
        p99_limit_ms: required(args, "--p99-limit-ms")?,
    };
    let seed = number(args, "--seed")?.unwrap_or(default_seed);
    let seconds: f64 = number(args, "--seconds")?.unwrap_or(10.0);
    let trace = match value(args, "--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        work_dir,
    };
    let pins = Pins::current();
    let mut report = if workload == grid::NAME {
        grid::run(&cfg, &pins)
    } else {
        serve::run(&cfg, load, &pins)
    };
    report.notes.insert(
        0,
        format!(
            "seed {seed}{} (default {default_seed}, held-out {heldout_seed}); model version {}; \
             {} pins for this workload; {JOBS} workers; {seconds} s timed",
            if seed == heldout_seed {
                ", the held-out seed"
            } else {
                ""
            },
            relsim::cache::MODEL_VERSION,
            pins.count(&workload),
        ),
    );
    report.print(&workload, trace);
    Ok(())
}
