//! The correctness gate can fail: one perturbed grid cell and one
//! perturbed served body each count as a failed operation.

use perfbench::gate::{self, Reference, Tally};
use perfbench::{grid, serve};
use relsim::experiments::{Context, Scale};
use relsim_serve::http::read_response;
use relsim_serve::{artifact_bytes, run_request, Server, ServerConfig, SimEngine};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

/// Both tests install the process-wide result cache; run them one at a
/// time.
static CACHE: Mutex<()> = Mutex::new(());

fn tiny_context() -> Context {
    Context::build(Scale {
        isolation_ticks: 20_000,
        run_ticks: 20_000,
        quantum_ticks: 5_000,
        per_category: 1,
        seed: 7,
    })
}

#[test]
fn a_perturbed_grid_cell_fails_its_operation() {
    let _serial = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let g = grid::Grid::new(tiny_context());
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate-grid-cache");
    let out = g.run(&dir).out;
    let mut reference = Reference::new(None);
    let mut tally = Tally::default();
    tally.record(grid::check(&g, &out, &mut reference));
    assert_eq!(
        (tally.attempted, tally.failed),
        (1, 0),
        "{:?}",
        tally.reasons
    );

    let mut perturbed = out.clone();
    perturbed[0].sser[2] = f64::from_bits(perturbed[0].sser[2].to_bits() ^ 1);
    tally.record(grid::check(&g, &perturbed, &mut reference));
    assert_eq!((tally.attempted, tally.failed), (2, 1));

    // A correct grid still passes after the failure, and a dropped mix
    // fails even with the right cells.
    tally.record(grid::check(&g, &out, &mut reference));
    tally.record(grid::check(&g, &out[1..], &mut reference));
    assert_eq!((tally.attempted, tally.failed), (4, 2));

    // A pin that disagrees fails the very first grid.
    let mut pinned = Reference::new(Some("0123456789abcdef0123456789abcdef"));
    assert!(grid::check(&g, &out, &mut pinned).is_err());
}

#[test]
fn a_perturbed_served_body_fails_its_operation() {
    let _serial = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = tiny_context();
    relsim_cache::configure(Some(relsim_cache::CacheConfig { dir: None }));
    let server = Server::start(
        Arc::new(SimEngine::new(ctx.refs.clone())),
        ServerConfig::default(),
    )
    .expect("daemon starts");
    let req = serve::catalog().swap_remove(5);
    let body = serde_json::to_vec(&req).expect("request serializes");
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    conn.write_all(
        format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .and_then(|()| conn.write_all(&body))
    .expect("send");
    let (status, _, served) = read_response(&mut conn).expect("response");
    drop(conn);
    server.shutdown();
    relsim_cache::configure(None);

    let direct = artifact_bytes(&run_request(
        &ctx.refs,
        &req,
        &mut relsim::RunObs::disabled(),
    ));
    let trusted = gate::digest_bytes(&direct);
    let mut tally = Tally::default();
    tally.record(serve::check_body(
        status,
        &gate::digest_bytes(&served),
        Some(&trusted),
    ));
    assert_eq!(
        (tally.attempted, tally.failed),
        (1, 0),
        "{:?}",
        tally.reasons
    );

    let mut perturbed = served.clone();
    let i = perturbed
        .iter()
        .position(|b| b.is_ascii_digit())
        .expect("a digit in the body");
    perturbed[i] = if perturbed[i] == b'9' {
        b'8'
    } else {
        perturbed[i] + 1
    };
    tally.record(serve::check_body(
        status,
        &gate::digest_bytes(&perturbed),
        Some(&trusted),
    ));
    assert_eq!((tally.attempted, tally.failed), (2, 1));

    // Non-200 responses and bodies with no trusted digest fail too.
    tally.record(serve::check_body(
        429,
        &gate::digest_bytes(&served),
        Some(&trusted),
    ));
    tally.record(serve::check_body(
        status,
        &gate::digest_bytes(&served),
        None,
    ));
    assert_eq!((tally.attempted, tally.failed), (4, 3));
}
