//! `serve` — the always-on simulation daemon (DESIGN.md §14).
//!
//! ```text
//! cargo run --release -p relsim-bench --bin serve -- \
//!     --addr 127.0.0.1:7878 [--port-file target/serve.port] \
//!     [--queue-depth 64] [--serve-workers N] [--quick] \
//!     [--io-timeout-ms 10000] [--max-request-kb 64] \
//!     [--manifest-dir DIR | --no-manifests]
//! ```
//!
//! Accepts `POST /run` simulation requests (the `simulate` CLI flags
//! as a JSON object), `GET /healthz`, `GET /stats`, and
//! `POST /shutdown` (graceful drain). Responses are byte-identical to
//! `simulate --result-out` artifacts; warm requests are answered from
//! the content-addressed cache before admission. Drive it with the
//! `loadgen` binary.

use relsim_bench::{arg_value, flag, obs_finish, obs_init, run_obs, scale_from_args};
use relsim_obs::info;
use relsim_serve::{Server, ServerConfig, SimEngine};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let obs_args = obs_init();
    if flag("--help") || flag("-h") {
        println!(
            "usage: serve [--addr HOST:PORT] [--port-file PATH] [--queue-depth N] \
             [--serve-workers N] [--io-timeout-ms N] [--max-request-kb N] \
             [--manifest-dir DIR | --no-manifests] [--quick]\n\
             routes: POST /run, GET /healthz, GET /stats, POST /shutdown\n{}\n{}",
            relsim_bench::JOBS_HELP,
            relsim_bench::CACHE_HELP
        );
        return;
    }
    let mut obs = run_obs(&obs_args);
    let scale = scale_from_args();

    let manifest_dir = if flag("--no-manifests") {
        None
    } else {
        Some(
            arg_value("--manifest-dir")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| relsim_bench::out_dir().join("serve-manifests")),
        )
    };
    let cfg = ServerConfig {
        addr: arg_value("--addr").unwrap_or_else(|| "127.0.0.1:0".to_owned()),
        queue_depth: arg_value("--queue-depth").map_or(64, |v| v.parse().expect("--queue-depth")),
        exec_workers: arg_value("--serve-workers").map_or_else(relsim::pool::default_jobs, |v| {
            v.parse().expect("--serve-workers")
        }),
        io_timeout: Duration::from_millis(
            arg_value("--io-timeout-ms").map_or(10_000, |v| v.parse().expect("--io-timeout-ms")),
        ),
        max_request_bytes: 1024
            * arg_value("--max-request-kb").map_or(64, |v| v.parse().expect("--max-request-kb")),
        manifest_dir,
    };

    // The expensive shared step: the isolated-run reference table
    // (content-cached on disk, so restarts are cheap).
    let ctx = relsim_bench::context(scale);
    let engine = Arc::new(SimEngine::new(ctx.refs));

    let server = match Server::start(engine, cfg) {
        Ok(s) => s,
        Err(e) => {
            relsim_obs::error!("serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    if let Some(path) = arg_value("--port-file") {
        if let Err(e) =
            relsim_obs::write_atomic(std::path::Path::new(&path), addr.to_string().as_bytes())
        {
            relsim_obs::error!("serve: cannot write port file {path:?}: {e}");
            std::process::exit(1);
        }
    }
    info!("serve: listening on {addr} (POST /run; POST /shutdown to drain)");

    // Foreground until a client asks for shutdown; there is no signal
    // handling without external crates, so /shutdown is the one door.
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    info!("serve: draining in-flight work...");
    let snap = server.shutdown();
    let requests = snap.counter("serve.requests").unwrap_or(0);
    let warm = snap.counter("serve.warm_hits").unwrap_or(0)
        + snap.counter("serve.queued_hits").unwrap_or(0);
    info!(
        "serve: done — {requests} requests, {warm} warm, {} cold, {} shed, {} failed",
        snap.counter("serve.cold_runs").unwrap_or(0),
        snap.counter("serve.shed").unwrap_or(0),
        snap.counter("serve.failures").unwrap_or(0)
    );
    obs.recorder.merge_snapshot(&snap);
    obs_finish(&obs_args, &mut obs);
}
