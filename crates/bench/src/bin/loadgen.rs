//! `loadgen` — drive a live `relsim-serve` daemon with mixed hot/cold
//! traffic and gate on what comes back.
//!
//! ```text
//! # load profile (the default mode)
//! loadgen --addr 127.0.0.1:7878 [--requests 1000] [--clients 8] \
//!         [--distinct 25] [--quick] [--min-warm-rate 0.9] [--max-shed 0.0]
//!
//! # one request from a JSON file, body to a file (byte-identity checks)
//! loadgen --addr ... --one req.json --out resp.json
//!
//! # admin
//! loadgen --addr ... --shutdown | --stats
//! ```
//!
//! `--port-file PATH` (written by `serve --port-file`) substitutes for
//! `--addr`. The load profile generates `--distinct` deterministic
//! requests, issues `--requests` total in a hash-scrambled order (so
//! repeats — hot traffic — interleave with first occurrences — cold),
//! and reports throughput, warm-hit rate, shed rate, and latency
//! percentiles. It exits nonzero if any request got no response, if
//! two responses for the same request differ by a byte, or if the
//! `--min-warm-rate` / `--max-shed` gates fail.

use relsim_bench::{arg_value, flag};
use relsim_serve::http::{read_response, ReadError};
use relsim_serve::SimRequest;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

fn addr() -> String {
    if let Some(a) = arg_value("--addr") {
        return a;
    }
    if let Some(p) = arg_value("--port-file") {
        match std::fs::read_to_string(&p) {
            Ok(s) if !s.trim().is_empty() => return s.trim().to_string(),
            _ => {
                eprintln!("loadgen: port file {p:?} is missing or empty");
                std::process::exit(1);
            }
        }
    }
    eprintln!("loadgen: need --addr HOST:PORT or --port-file PATH");
    std::process::exit(1);
}

/// One round trip on an existing connection.
fn send(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Option<String>, Vec<u8>), String> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body))
        .map_err(|e| format!("write: {e}"))?;
    match read_response(stream) {
        Ok(r) => Ok(r),
        Err(ReadError::Io(e)) => Err(format!("read: {e}")),
        Err(e) => Err(format!("read: {e:?}")),
    }
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    // Requests go out as head + body in separate writes; nodelay keeps
    // Nagle from pairing with delayed ACK into ~40ms per-request stalls.
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = s.set_write_timeout(Some(Duration::from_secs(60)));
    Ok(s)
}

/// Build the deterministic distinct-request set. Benchmarks and
/// schedulers cycle through fixed catalogs, so the same flags always
/// produce the same requests (and therefore the same cache keys).
/// Request `i` runs `ticks + i / catalog.len()` ticks: the benchmark pair
/// fixes `i % catalog.len()`, the run length the rest, so all `n`
/// requests differ.
fn distinct_requests(n: usize, ticks: u64, quantum: u64) -> Vec<SimRequest> {
    let catalog = [
        "milc",
        "hmmer",
        "gobmk",
        "mcf",
        "povray",
        "lbm",
        "perlbench",
        "namd",
    ];
    let catalog: Vec<&str> = catalog
        .into_iter()
        .filter(|n| relsim_trace::spec_profile(n).is_some())
        .collect();
    let scheds = ["reliability", "performance", "random", "static"];
    (0..n)
        .map(|i| SimRequest {
            benchmarks: vec![
                catalog[i % catalog.len()].to_string(),
                catalog[(i * 3 + 1) % catalog.len()].to_string(),
            ],
            big: 1,
            small: 1,
            scheduler: scheds[i % scheds.len()].to_string(),
            ticks: ticks + (i / catalog.len()) as u64,
            quantum,
            half_freq_small: false,
            rob_only: false,
        })
        .collect()
}

#[derive(Default)]
struct Tally {
    ok: u64,
    warm: u64,
    shed: u64,
    errors: u64,
    latencies_us: Vec<u64>,
    /// First 200-body seen per distinct id, for byte-identity checks.
    bodies: HashMap<usize, Vec<u8>>,
    mismatches: u64,
}

fn main() {
    if flag("--help") || flag("-h") {
        println!(
            "usage: loadgen (--addr HOST:PORT | --port-file PATH) [mode]\n\
             modes:\n  (default)             load profile: --requests N --clients C --distinct G\n\
                                    [--ticks N] [--quantum N] [--quick]\n\
                                    [--min-warm-rate F] [--max-shed F]\n\
               --one REQ.json --out RESP.json   send one request, save the body\n\
               --shutdown            drain the daemon\n\
               --stats               print the daemon's metrics snapshot"
        );
        return;
    }
    let addr = addr();

    if flag("--shutdown") {
        let mut s = connect(&addr).unwrap_or_else(|e| fail(&e));
        match send(&mut s, "POST", "/shutdown", b"") {
            Ok((200, _, _)) => println!("loadgen: daemon draining"),
            Ok((code, _, body)) => fail(&format!(
                "shutdown got {code}: {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => fail(&e),
        }
        return;
    }
    if flag("--stats") {
        let mut s = connect(&addr).unwrap_or_else(|e| fail(&e));
        match send(&mut s, "GET", "/stats", b"") {
            Ok((200, _, body)) => println!("{}", String::from_utf8_lossy(&body)),
            Ok((code, _, _)) => fail(&format!("stats got {code}")),
            Err(e) => fail(&e),
        }
        return;
    }
    if let Some(req_path) = arg_value("--one") {
        let out_path = arg_value("--out").unwrap_or_else(|| fail("--one needs --out FILE"));
        let body = std::fs::read(&req_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {req_path:?}: {e}")));
        let mut s = connect(&addr).unwrap_or_else(|e| fail(&e));
        match send(&mut s, "POST", "/run", &body) {
            Ok((200, cache, resp)) => {
                std::fs::write(&out_path, &resp)
                    .unwrap_or_else(|e| fail(&format!("cannot write {out_path:?}: {e}")));
                println!(
                    "loadgen: 200 ({} B, x-cache {}) -> {out_path}",
                    resp.len(),
                    cache.as_deref().unwrap_or("-")
                );
            }
            Ok((code, _, resp)) => fail(&format!("got {code}: {}", String::from_utf8_lossy(&resp))),
            Err(e) => fail(&e),
        }
        return;
    }

    // Load profile.
    let quick = flag("--quick");
    let requests: usize = arg_value("--requests").map_or(1000, |v| v.parse().expect("--requests"));
    let clients: usize = arg_value("--clients").map_or(8, |v| v.parse().expect("--clients"));
    let distinct: usize = arg_value("--distinct").map_or(25, |v| v.parse().expect("--distinct"));
    let ticks: u64 = arg_value("--ticks").map_or(if quick { 20_000 } else { 60_000 }, |v| {
        v.parse().expect("--ticks")
    });
    let quantum: u64 = arg_value("--quantum").map_or(if quick { 5_000 } else { 10_000 }, |v| {
        v.parse().expect("--quantum")
    });
    let min_warm: f64 =
        arg_value("--min-warm-rate").map_or(0.0, |v| v.parse().expect("--min-warm-rate"));
    let max_shed: f64 = arg_value("--max-shed").map_or(1.0, |v| v.parse().expect("--max-shed"));

    let reqs = distinct_requests(distinct, ticks, quantum);
    let payloads: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| serde_json::to_vec(r).expect("request serializes"))
        .collect();
    // Knuth-hash scramble: repeats of hot ids interleave with cold
    // first occurrences, deterministically.
    let schedule: Vec<usize> = (0..requests)
        .map(|j| ((j as u64).wrapping_mul(2654435761) >> 7) as usize % distinct)
        .collect();

    let tally = Mutex::new(Tally::default());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let addr = &addr;
            let payloads = &payloads;
            let schedule = &schedule;
            let tally = &tally;
            s.spawn(move || {
                let mut stream = connect(addr).ok();
                let mut local = Tally::default();
                for (j, &id) in schedule.iter().enumerate() {
                    if j % clients != c {
                        continue;
                    }
                    let r0 = Instant::now();
                    let mut attempt = 0;
                    let outcome = loop {
                        let st = match stream.as_mut() {
                            Some(st) => st,
                            None => match connect(addr) {
                                Ok(st) => {
                                    stream = Some(st);
                                    stream.as_mut().unwrap()
                                }
                                Err(e) => break Err(e),
                            },
                        };
                        match send(st, "POST", "/run", &payloads[id]) {
                            Ok(r) => break Ok(r),
                            Err(e) => {
                                // One reconnect per request: the server
                                // may have timed the idle socket out.
                                stream = None;
                                attempt += 1;
                                if attempt > 1 {
                                    break Err(e);
                                }
                            }
                        }
                    };
                    local.latencies_us.push(r0.elapsed().as_micros() as u64);
                    match outcome {
                        Ok((200, cache, body)) => {
                            local.ok += 1;
                            if cache.as_deref() == Some("hit") {
                                local.warm += 1;
                            }
                            match local.bodies.get(&id) {
                                None => {
                                    local.bodies.insert(id, body);
                                }
                                Some(first) if *first != body => local.mismatches += 1,
                                Some(_) => {}
                            }
                        }
                        Ok((429, _, _)) => local.shed += 1,
                        Ok((_code, _, _)) => local.errors += 1,
                        Err(_) => local.errors += 1,
                    }
                }
                let mut t = tally.lock().unwrap_or_else(|e| e.into_inner());
                t.ok += local.ok;
                t.warm += local.warm;
                t.shed += local.shed;
                t.errors += local.errors;
                t.mismatches += local.mismatches;
                t.latencies_us.extend(local.latencies_us);
                for (id, body) in local.bodies {
                    match t.bodies.get(&id) {
                        None => {
                            t.bodies.insert(id, body);
                        }
                        Some(first) if *first != body => t.mismatches += 1,
                        Some(_) => {}
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();

    let t = tally.into_inner().unwrap_or_else(|e| e.into_inner());
    let answered = t.ok + t.shed + t.errors;
    let dropped = requests as u64 - answered.min(requests as u64);
    let cold_seen = t.bodies.len() as u64;
    let repeats = t.ok.saturating_sub(cold_seen);
    let warm_rate = if repeats > 0 {
        t.warm as f64 / repeats as f64
    } else {
        1.0
    };
    let shed_rate = t.shed as f64 / (requests as f64).max(1.0);
    let mut lat = t.latencies_us.clone();
    lat.sort_unstable();
    let pick = |q: f64| {
        lat.get(((lat.len() as f64 - 1.0) * q) as usize)
            .copied()
            .unwrap_or(0)
    };

    println!("# loadgen against {addr}");
    println!("{:<22} {:>10}", "requests", requests);
    println!("{:<22} {:>10}", "distinct", distinct);
    println!("{:<22} {:>10}", "clients", clients);
    println!("{:<22} {:>10}", "ok", t.ok);
    println!("{:<22} {:>10}", "warm hits", t.warm);
    println!("{:<22} {:>10.3}", "warm rate (repeats)", warm_rate);
    println!("{:<22} {:>10}", "shed (429)", t.shed);
    println!("{:<22} {:>10.3}", "shed rate", shed_rate);
    println!("{:<22} {:>10}", "errors", t.errors);
    println!("{:<22} {:>10}", "dropped (no answer)", dropped);
    println!("{:<22} {:>10}", "body mismatches", t.mismatches);
    println!(
        "{:<22} {:>10.1}",
        "throughput req/s",
        answered as f64 / elapsed.max(1e-9)
    );
    println!("{:<22} {:>10}", "latency p50 us", pick(0.5));
    println!("{:<22} {:>10}", "latency p99 us", pick(0.99));

    let mut failed = false;
    if dropped > 0 {
        eprintln!("loadgen: FAIL — {dropped} requests dropped on the floor");
        failed = true;
    }
    if t.mismatches > 0 {
        eprintln!(
            "loadgen: FAIL — {} responses differ from the first response for the same request",
            t.mismatches
        );
        failed = true;
    }
    if warm_rate < min_warm {
        eprintln!("loadgen: FAIL — warm rate {warm_rate:.3} below --min-warm-rate {min_warm}");
        failed = true;
    }
    if shed_rate > max_shed {
        eprintln!("loadgen: FAIL — shed rate {shed_rate:.3} above --max-shed {max_shed}");
        failed = true;
    }
    if t.errors > 0 {
        eprintln!("loadgen: FAIL — {} requests errored", t.errors);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_distinct_request_is_distinct() {
        for n in [8, 25, 50] {
            let bodies: std::collections::HashSet<Vec<u8>> = distinct_requests(n, 20_000, 5_000)
                .iter()
                .map(|r| serde_json::to_vec(r).expect("request serializes"))
                .collect();
            assert_eq!(bodies.len(), n, "--distinct {n}");
        }
    }
}
