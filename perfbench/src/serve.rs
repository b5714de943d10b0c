//! `serve-hotcold`: an in-process `relsim-serve` daemon under open-loop
//! hot/cold traffic.
//!
//! The daemon runs `SimEngine` on the context's reference table with two
//! exec workers and the result cache on. One load generator drives it
//! over two keep-alive loopback connections: open loop at the fixed
//! offered rates `lo` and `hi`, then in closed-loop bursts with every
//! request due at once (the end-to-end figures), then open loop up a rate
//! ladder. Requests draw Zipf-like over a hot set that is warmed before
//! timing, plus a small fixed share of never-seen 1B1S/2B2S requests:
//! warm requests never touch the engine (HTTP parse, `Store::peek`,
//! write) and set the median; cold ones queue for the pool and the engine
//! and set the tail.
//!
//! Each request is timed from its due time, so a request sent late
//! because both connections were busy counts that wait; the generator's
//! own lag is reported.

use crate::gate::{self, Pins, Tally};
use crate::layers::{self, ratio, Replays, SimCounters};
use crate::report::Report;
use crate::spans::Tracer;
use crate::speed::Speed;
use crate::{build_context, fresh_dir, splitmix64, stats, unit, RunConfig, JOBS, SETUP_REPEATS};
use relsim::experiments::{Context, Scale};
use relsim::RunObs;
use relsim_cache::{CacheConfig, Key};
use relsim_serve::http::{self, read_response};
use relsim_serve::{
    artifact_bytes, request_key, run_request, Server, ServerConfig, SimEngine, SimRequest,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "serve-hotcold";

/// Requests in the hot set.
pub const HOT_SET: usize = 16;

/// One request in this many is never-seen (cold): a fixed 2.5% share,
/// the share of first-seen requests the repository's own serve profile
/// asks for (`./ci.sh serve`: `--distinct 25` among 1000 requests).
pub const COLD_EVERY: u64 = 40;

/// Simulated ticks of a hot request (cold ones add a unique offset).
pub const TICKS: u64 = 20_000;

/// Scheduler quantum of every request.
pub const QUANTUM: u64 = 5_000;

/// Client connections (and load-generator threads).
pub const CONNECTIONS: usize = 2;

/// Fewest requests a timed phase sends, so its p99 has ten samples
/// beyond it.
pub const MIN_PHASE_REQUESTS: usize = 1_000;

/// Each ladder step offers this factor more than the one before. Finer
/// steps would not help: near the knee a step's p99 rests on its ten
/// slowest requests and moves more than this between runs.
pub const LADDER_STEP: f64 = 1.2;

/// The ladder gives up after this many sustained steps.
pub const LADDER_MAX_STEPS: usize = 12;

/// The generator sleeps until this long before a request is due, then
/// spins: a sleep alone wakes late by the timer's slack, and that lag
/// would count in the request's latency.
const SPIN_NS: u64 = 200_000;

/// Requests in each closed-loop burst (all due at once).
pub const BURST_REQUESTS: usize = 1_000;

/// Bursts per 10 s of `--seconds`: a fixed count, so every run does the
/// same work whatever the host's speed (about half of `--seconds` on the
/// reference host, reference units included).
pub const BURSTS_PER_10S: f64 = 5.0;

/// A client gives up on a response after this long (a failure).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Benchmarks of the hot-set catalog.
const HOT_BENCHES: [&str; 12] = [
    "milc",
    "hmmer",
    "gobmk",
    "mcf",
    "povray",
    "lbm",
    "perlbench",
    "namd",
    "libquantum",
    "soplex",
    "astar",
    "sjeng",
];

/// Schedulers requests draw from.
const SCHEDULERS: [&str; 3] = ["reliability", "performance", "random"];

/// Offered rates and the latency limit (from the command line).
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Low fixed rate, requests per second.
    pub lo_rps: f64,
    /// High fixed rate, requests per second.
    pub hi_rps: f64,
    /// p99 limit, milliseconds.
    pub p99_limit_ms: f64,
}

/// The context serve builds: `Scale::quick()` (requests carry their own
/// run length; the seed only shapes the request stream).
pub fn scale(seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::quick()
    }
}

fn request(benchmarks: Vec<String>, scheduler: &str, ticks: u64) -> SimRequest {
    let half = benchmarks.len() / 2;
    SimRequest {
        benchmarks,
        big: half,
        small: half,
        scheduler: scheduler.to_string(),
        ticks,
        quantum: QUANTUM,
        half_freq_small: false,
        rob_only: false,
    }
}

/// Every request a hot set can draw from: each ordered pair of catalog
/// benchmarks on 1B1S under each scheduler.
pub fn catalog() -> Vec<SimRequest> {
    let mut out = Vec::new();
    for a in HOT_BENCHES {
        for b in HOT_BENCHES.iter().filter(|b| **b != a) {
            for s in SCHEDULERS {
                out.push(request(vec![a.to_string(), b.to_string()], s, TICKS));
            }
        }
    }
    out
}

/// The seeded request stream: Zipf-like over the hot set (rank `i` has
/// weight `1/(i+1)`), with every [`COLD_EVERY`]-th request never-seen.
pub struct Stream {
    rng: u64,
    /// The hot set, most popular first.
    pub hot: Vec<SimRequest>,
    cdf: Vec<f64>,
    sent: u64,
    cold_seq: u64,
    /// Every benchmark in a seeded order; cold requests take the next
    /// ones in turn, so any stretch of cold traffic is balanced across
    /// the catalog whatever the seed.
    cold_order: Vec<String>,
}

impl Stream {
    /// The stream of workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = seed ^ 0x5e77_e000;
        let mut pool = catalog();
        let mut hot = Vec::with_capacity(HOT_SET);
        for _ in 0..HOT_SET {
            let i = (splitmix64(&mut rng) % pool.len() as u64) as usize;
            hot.push(pool.swap_remove(i));
        }
        let total: f64 = (1..=HOT_SET).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=HOT_SET)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        let mut cold_order = relsim_trace::spec_names();
        for i in (1..cold_order.len()).rev() {
            let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
            cold_order.swap(i, j);
        }
        Stream {
            sent: splitmix64(&mut rng) % COLD_EVERY,
            rng,
            hot,
            cdf,
            cold_seq: 0,
            cold_order,
        }
    }

    /// The next request and whether it is cold. Cold requests alternate
    /// 1B1S and 2B2S, take the next benchmarks of the seeded order, and
    /// carry their sequence number in their run length, so no two are
    /// alike and none is in the hot set.
    pub fn next_request(&mut self) -> (SimRequest, bool) {
        self.sent += 1;
        if self.sent.is_multiple_of(COLD_EVERY) {
            self.cold_seq += 1;
            let n = if self.cold_seq % 2 == 1 { 2 } else { 4 };
            let len = self.cold_order.len() as u64;
            let picked = (0..n)
                .map(|i| self.cold_order[((self.cold_seq * 3 + i) % len) as usize].clone())
                .collect();
            let s = SCHEDULERS[(self.cold_seq % 3) as usize];
            return (request(picked, s, TICKS + self.cold_seq), true);
        }
        let u = unit(&mut self.rng);
        let i = self.cdf.iter().position(|c| u < *c).unwrap_or(HOT_SET - 1);
        (self.hot[i].clone(), false)
    }
}

/// The wire bytes of a `POST /run` for `body`.
fn wire(body: &[u8]) -> Vec<u8> {
    let mut w = format!(
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    w.extend_from_slice(body);
    w
}

/// One request as sent: index into the run's distinct requests, timing
/// relative to the phase start, and what came back.
#[derive(Debug, Clone)]
struct Sent {
    req: usize,
    cold: bool,
    due_ns: u64,
    send_ns: u64,
    done_ns: u64,
    status: u16,
    /// Digest of the response body.
    digest: Key,
}

/// One open-loop phase at a fixed offered rate.
#[derive(Debug, Clone)]
struct Phase {
    rate: f64,
    secs: f64,
    sent: Vec<Sent>,
    /// Set by the correctness check.
    failed: Vec<bool>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .zip(&self.failed)
            .map(|(s, f)| {
                if *f {
                    f64::INFINITY
                } else {
                    (s.done_ns - s.due_ns) as f64 / 1e6
                }
            })
            .collect()
    }

    /// Seconds from the phase start to its last answer.
    fn duration_s(&self) -> f64 {
        self.sent.iter().map(|s| s.done_ns).max().unwrap_or(0) as f64 / 1e9
    }

    fn lags_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.send_ns.saturating_sub(s.due_ns) as f64 / 1e6)
            .collect()
    }

    fn completed_rps(&self) -> f64 {
        ratio(self.sent.len() as f64, self.duration_s())
    }

    /// Sustained: p99 within the limit, every request answered correctly,
    /// and the last answer no later than the limit past the phase end
    /// (no backlog).
    fn sustained(&self, limit_ms: f64) -> bool {
        let last = self.sent.iter().map(|s| s.done_ns).max().unwrap_or(0) as f64 / 1e6;
        !self.failed.iter().any(|f| *f)
            && self.sent.iter().all(|s| s.status == 200)
            && stats::quantile(&self.latencies_ms(), 0.99) <= limit_ms
            && last <= self.secs * 1e3 + limit_ms
    }
}

/// Distinct requests seen in a run, with their wire form.
#[derive(Default)]
struct Requests {
    list: Vec<(SimRequest, bool)>,
    wire: Vec<Vec<u8>>,
    index: HashMap<Vec<u8>, usize>,
}

impl Requests {
    fn add(&mut self, req: SimRequest, cold: bool) -> usize {
        let body = serde_json::to_vec(&req).expect("request serializes");
        if let Some(&i) = self.index.get(&body) {
            return i;
        }
        self.list.push((req, cold));
        self.wire.push(wire(&body));
        self.index.insert(body, self.list.len() - 1);
        self.list.len() - 1
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    s.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    Ok(s)
}

/// Send one request on `conn` (reconnecting once if the connection is
/// gone) and return the status and body; status `0` means no response.
fn round_trip(conn: &mut Option<TcpStream>, addr: SocketAddr, wire: &[u8]) -> (u16, Vec<u8>) {
    for _ in 0..2 {
        if conn.is_none() {
            *conn = connect(addr).ok();
        }
        let Some(s) = conn.as_mut() else {
            return (0, Vec::new());
        };
        let reply = s
            .write_all(wire)
            .map_err(|_| ())
            .and_then(|()| read_response(s).map_err(|_| ()));
        match reply {
            Ok((code, _, body)) => return (code, body),
            Err(()) => *conn = None,
        }
    }
    (0, Vec::new())
}

/// Offer `reqs` (indices into `requests`) at `rate` per second over the
/// client connections; each connection sends the next due request as
/// soon as it is free.
fn run_phase(
    addr: SocketAddr,
    conns: &mut [Option<TcpStream>],
    requests: &Requests,
    reqs: &[usize],
    rate: f64,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let due = |i: usize| (i as f64 / rate * 1e9) as u64;
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                // Allocated here, so a client thread allocates nothing
                // that outlives it: what a finished thread leaves in the
                // allocator's per-thread arenas would otherwise move the
                // peak resident size from run to run.
                let mut mine = Vec::with_capacity(reqs.len());
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&req) = reqs.get(i) else { break };
                        let due_ns = due(i);
                        wait_until(start, due_ns);
                        let send_ns = start.elapsed().as_nanos() as u64;
                        let (status, body) = round_trip(conn, addr, &requests.wire[req]);
                        let done_ns = start.elapsed().as_nanos() as u64;
                        mine.push(Sent {
                            req,
                            cold: requests.list[req].1,
                            due_ns,
                            send_ns,
                            done_ns,
                            status,
                            digest: Key::of_bytes(&body),
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    sent.sort_by_key(|s| s.due_ns);
    let n = sent.len();
    Phase {
        rate,
        secs: reqs.len() as f64 / rate,
        sent,
        failed: vec![false; n],
    }
}

/// Return once `due_ns` have passed since `start`: sleep until
/// [`SPIN_NS`] before, then spin.
fn wait_until(start: Instant, due_ns: u64) {
    let now = start.elapsed().as_nanos() as u64;
    if due_ns > now + SPIN_NS {
        std::thread::sleep(Duration::from_nanos(due_ns - now - SPIN_NS));
    }
    while (start.elapsed().as_nanos() as u64) < due_ns {
        std::hint::spin_loop();
    }
}

/// A running daemon with warmed hot set and the client connections.
struct Daemon {
    server: Server,
    conns: Vec<Option<TcpStream>>,
    store_dir: PathBuf,
}

impl Daemon {
    /// Start the daemon over a fresh disk-backed store and warm the hot
    /// set through one connection.
    fn start(ctx: &Context, work: &std::path::Path, hot: &[SimRequest]) -> Result<Daemon, String> {
        let store_dir = fresh_dir(work, "serve-cache");
        relsim_cache::configure(Some(CacheConfig {
            dir: Some(store_dir.clone()),
        }));
        let engine = Arc::new(SimEngine::new(ctx.refs.clone()));
        let server = Server::start(
            engine,
            ServerConfig {
                exec_workers: JOBS,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("daemon did not start: {e}"))?;
        let addr = server.addr();
        let mut conns: Vec<Option<TcpStream>> =
            (0..CONNECTIONS).map(|_| connect(addr).ok()).collect();
        for req in hot {
            let body = serde_json::to_vec(req).expect("request serializes");
            let (code, _) = round_trip(&mut conns[0], addr, &wire(&body));
            if code != 200 {
                drop(conns);
                server.shutdown();
                return Err(format!("warming {:?} got status {code}", req.benchmarks));
            }
        }
        Ok(Daemon {
            server,
            conns,
            store_dir,
        })
    }

    /// Close the connections, drain the daemon, drop its store.
    fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
        relsim_cache::configure(None);
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// Gate every served body: equal to `artifact_bytes(run_request(..))`
/// computed directly, and for hot requests to the pinned body digest.
/// Returns the direct artifacts' simulated instruction counts.
fn check_bodies(
    ctx: &Context,
    requests: &Requests,
    phases: &mut [Phase],
    pins: &Pins,
    tally: &mut Tally,
) -> Vec<u64> {
    let refs = &ctx.refs;
    let direct = relsim::pool::scatter_map("serve-direct", requests.list.clone(), |_, (req, _)| {
        let a = run_request(refs, &req, &mut RunObs::disabled());
        let instr: u64 = a.apps.iter().map(|r| r.instructions).sum();
        (gate::digest_bytes(&artifact_bytes(&a)), instr)
    });
    let mut instructions = vec![0; requests.list.len()];
    let mut expected: Vec<Option<String>> = vec![None; requests.list.len()];
    for (i, d) in direct.into_iter().enumerate() {
        let Some((digest, instr)) = d else { continue };
        let (req, cold) = &requests.list[i];
        let pin = pins.get(NAME, &Key::of(req).hex());
        instructions[i] = instr;
        if *cold || pin.is_none_or(|p| p == digest) {
            expected[i] = Some(digest);
        }
    }
    for phase in phases.iter_mut() {
        for (k, s) in phase.sent.iter().enumerate() {
            let verdict = check_body(s.status, &s.digest.hex(), expected[s.req].as_deref())
                .map_err(|e| format!("request {}: {e}", s.req));
            phase.failed[k] = verdict.is_err();
            tally.record(verdict);
        }
    }
    instructions
}

/// Gate one response: status 200 and a body digest equal to the trusted
/// one (the direct `run_request` bytes, agreeing with the pin if any).
pub fn check_body(status: u16, body_digest: &str, trusted: Option<&str>) -> Result<(), String> {
    match trusted {
        _ if status != 200 => Err(format!("status {status}")),
        Some(want) if want == body_digest => Ok(()),
        Some(want) => Err(format!(
            "served body digest {body_digest} != run_request's {want}"
        )),
        None => Err("direct run_request failed or disagrees with the pinned body".to_string()),
    }
}

/// Set-up, the timed phases (`lo`, `hi`, the closed-loop bursts, the
/// ladder), the body check, and (with `cfg.trace`) the traced pass.
///
/// The end-to-end figures come from set-up and the bursts, each run
/// between two units of reference work and reported in reference
/// seconds. The open-loop phases give the per-layer latencies at `lo` and
/// `hi` and the ladder's knee, in host time.
pub fn run(cfg: &RunConfig, load: Load, pins: &Pins) -> Report {
    let mut report = Report::default();
    let mut stream = Stream::new(cfg.seed);
    let mut speed = Speed::new(JOBS);
    // Set-up is built the same way as the grid's (context builds back to
    // back), then the daemon is started and its hot set warmed. Each is
    // done SETUP_REPEATS times; `setup_s` adds the two medians. Only one
    // daemon start comes before the timed phases, the others after them:
    // a start after a stop leaves the heap 0 or 3.5 MB larger, depending
    // on whether the stopped daemon's connection threads have exited and
    // released their allocator arenas, and that race would otherwise
    // decide `peak_rss_mb`.
    let (mut builds, mut starts) = (Vec::new(), Vec::new());
    let mut ctx = None;
    for _ in 0..SETUP_REPEATS {
        let (c, _, ref_s) = speed.time(|| build_context(scale(cfg.seed)));
        builds.push(ref_s);
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one set-up");
    let hot = stream.hot.clone();
    let start = |speed: &mut Speed| -> Result<(Daemon, f64), String> {
        let (d, _, ref_s) = speed.time(|| Daemon::start(&ctx, &cfg.work_dir, &hot));
        Ok((d?, ref_s))
    };
    let mut daemon = match start(&mut speed) {
        Ok((d, s)) => {
            starts.push(s);
            d
        }
        Err(e) => {
            report.tally.record(Err(e));
            return report;
        }
    };
    let addr = daemon.server.addr();
    let before = daemon.server.snapshot();
    let store_before = relsim_cache::global_stats().unwrap_or_default();
    report.notes.push(format!(
        "hot set {HOT_SET} of {} catalog requests (1B1S, {TICKS} ticks), {:.1}% cold 1B1S/2B2S; \
         pinned hot bodies: {}",
        catalog().len(),
        100.0 / COLD_EVERY as f64,
        stream
            .hot
            .iter()
            .filter(|r| pins.get(NAME, &Key::of(*r).hex()).is_some())
            .count()
    ));

    // Open loop: `lo` and `hi` take a twelfth of `--seconds` each, ladder
    // steps a fifteenth (2 s at 30 s), each at least MIN_PHASE_REQUESTS
    // requests. A step must last long enough that a backlog growing from
    // a 1.2x overload outgrows the latency limit before it ends.
    let mut requests = Requests::default();
    let limit = load.p99_limit_ms;
    let mut phases: Vec<Phase> = Vec::new();
    let offer = |rate: f64,
                 secs: f64,
                 phases: &mut Vec<Phase>,
                 stream: &mut Stream,
                 requests: &mut Requests,
                 conns: &mut [Option<TcpStream>]|
     -> bool {
        let n = ((rate * secs) as usize).max(MIN_PHASE_REQUESTS);
        let reqs: Vec<usize> = (0..n)
            .map(|_| {
                let (r, cold) = stream.next_request();
                requests.add(r, cold)
            })
            .collect();
        let phase = run_phase(addr, conns, requests, &reqs, rate);
        let ok = phase.sustained(limit);
        phases.push(phase);
        ok
    };
    let t_start = Instant::now();
    let conns = &mut daemon.conns;
    let (st, rq) = (&mut stream, &mut requests);
    let lo_ok = offer(load.lo_rps, cfg.seconds / 12.0, &mut phases, st, rq, conns);
    let hi_ok = offer(load.hi_rps, cfg.seconds / 12.0, &mut phases, st, rq, conns);

    // Closed loop, for the end-to-end figures: bursts of the mixed stream
    // with every request due at once, so both connections stay busy and
    // completions per second are the daemon's throughput. Each burst runs
    // between two units of reference work.
    let mut bursts = Vec::new();
    let n_bursts = ((cfg.seconds / 10.0 * BURSTS_PER_10S).round() as usize).max(2);
    for _ in 0..n_bursts {
        let reqs: Vec<usize> = (0..BURST_REQUESTS)
            .map(|_| {
                let (r, cold) = st.next_request();
                rq.add(r, cold)
            })
            .collect();
        let (phase, factor) = speed.around(|| run_phase(addr, conns, rq, &reqs, f64::INFINITY));
        bursts.push((phases.len(), factor));
        phases.push(phase);
    }
    // Peak memory over set-up, the fixed-rate phases and the bursts, whose
    // work does not depend on how far the ladder climbs.
    let peak = crate::peak_rss_mb() - speed.resident_mb();

    // The ladder starts from the higher sustained fixed rate and climbs
    // until a step is not sustained; from `lo` it stays below the `hi`
    // that failed.
    let step_secs = cfg.seconds / 15.0;
    let (mut rate, ceiling) = if hi_ok {
        (load.hi_rps, f64::INFINITY)
    } else {
        (load.lo_rps, load.hi_rps)
    };
    if lo_ok {
        for _ in 0..LADDER_MAX_STEPS {
            rate *= LADDER_STEP;
            if rate >= ceiling || !offer(rate, step_secs, &mut phases, st, rq, conns) {
                break;
            }
        }
    }
    let timed_s = t_start.elapsed().as_secs_f64();
    let after = daemon.server.snapshot();
    let store_after = relsim_cache::global_stats().unwrap_or_default();

    let instructions = check_bodies(&ctx, &requests, &mut phases, pins, &mut report.tally);
    // The highest sustained rate with every lower offered rate sustained
    // too (after the body check, which can fail a phase).
    let max_rps = phases
        .iter()
        .filter(|p| p.rate.is_finite())
        .filter(|p| phases.iter().all(|q| q.rate > p.rate || q.sustained(limit)))
        .map(|p| p.rate)
        .fold(0.0, f64::max);
    // In reference seconds: each burst's length; its completions and its
    // cold requests' simulated instructions over the bursts' summed
    // lengths (sums, so the cold requests' mix of benchmarks evens out).
    let walls: Vec<f64> = bursts
        .iter()
        .map(|&(i, factor)| phases[i].duration_s() * factor)
        .collect();
    let (mut completed, mut cold_instr) = (0, 0);
    for &(i, _) in &bursts {
        let p = &phases[i];
        completed += p.sent.len();
        cold_instr += p
            .sent
            .iter()
            .zip(&p.failed)
            .filter(|(s, f)| s.cold && !**f)
            .map(|(s, _)| instructions[s.req])
            .sum::<u64>();
    }
    let (lo, hi) = (&phases[0], &phases[1]);
    let (lo_lat, hi_lat) = (lo.latencies_ms(), hi.latencies_ms());
    let e = &mut report.e2e;
    e.set("peak_rss_mb", peak);
    e.set("wall_s", stats::median(&walls));
    e.set(
        "sim_mips",
        ratio(cold_instr as f64, stats::sum(&walls)) / 1e6,
    );
    e.set("ops_per_s", ratio(completed as f64, stats::sum(&walls)));
    report.samples = vec![
        ("setup_s", builds.len()),
        ("wall_s", walls.len()),
        ("sim_mips", walls.len()),
        ("ops_per_s", walls.len()),
    ];
    for p in phases.iter().filter(|p| p.rate.is_finite()) {
        let lat = p.latencies_ms();
        report.notes.push(format!(
            "rate {:>8.1}/s: n={} p50 {:.3} ms p99 {:.3} ms, generator lag p50 {:.4} ms p99 {:.3} ms, \
             completed {:.1}/s, sustained {}",
            p.rate,
            lat.len(),
            stats::median(&lat),
            stats::quantile(&lat, 0.99),
            stats::median(&p.lags_ms()),
            stats::quantile(&p.lags_ms(), 0.99),
            p.completed_rps(),
            p.sustained(load.p99_limit_ms)
        ));
    }
    report.notes.push(format!(
        "host ran {:.3}x slower than the reference host (median of {} reference units); \
         knee (serve.max_rps) {max_rps:.1}/s",
        speed.slowdown(),
        speed.units_s.len()
    ));
    report.notes.push(format!(
        "s per burst of {BURST_REQUESTS} requests: host {:.4?}, reference {walls:.4?}",
        bursts
            .iter()
            .map(|&(i, _)| phases[i].duration_s())
            .collect::<Vec<_>>(),
    ));
    report.notes.push(format!(
        "reference units, host s, in order: {:.4?}",
        speed.units_s
    ));
    let l = &mut report.layers;
    let lags: Vec<f64> = lo.lags_ms().into_iter().chain(hi.lags_ms()).collect();
    l.set("serve.lo.p50_ms", stats::median(&lo_lat));
    l.set("serve.lo.p99_ms", stats::quantile(&lo_lat, 0.99));
    l.set("serve.hi.p50_ms", stats::median(&hi_lat));
    l.set("serve.hi.p99_ms", stats::quantile(&hi_lat, 0.99));
    l.set("serve.max_rps", max_rps);
    l.set("loadgen.lag_ms_p99", stats::quantile(&lags, 0.99));
    l.set("loadgen.completed_rps", hi.completed_rps());
    l.set("obs.host_slowdown", speed.slowdown());
    let delta =
        |name: &str| (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64;
    for name in [
        "serve.requests",
        "serve.warm_hits",
        "serve.cold_runs",
        "serve.shed",
        "serve.failures",
    ] {
        l.set(name, delta(name));
    }
    if let Some(h) = after
        .histograms
        .iter()
        .find(|h| h.name == "serve.request_ns")
    {
        l.set("serve.server_p50_us", h.p50 as f64 / 1e3);
        l.set("serve.server_p99_us", h.p99 as f64 / 1e3);
    }
    let hits = (store_after.hits - store_before.hits) as f64;
    let misses = (store_after.misses - store_before.misses) as f64;
    l.set("cache.hits", hits);
    l.set("cache.misses", misses);
    l.set(
        "cache.stores",
        (store_after.stores - store_before.stores) as f64,
    );
    l.set("cache.hit_rate", ratio(hits, hits + misses));
    l.set(
        "cache.bytes_written",
        (store_after.bytes_written - store_before.bytes_written) as f64,
    );
    let cold_runs = delta("serve.cold_runs");
    l.set("pool.cells", cold_runs);

    if cfg.trace {
        traced_pass(
            cfg,
            &ctx,
            &stream,
            &requests,
            cold_runs,
            timed_s,
            &mut report,
        );
    }
    daemon.stop();
    for _ in 1..SETUP_REPEATS {
        match start(&mut speed) {
            Ok((d, s)) => {
                starts.push(s);
                d.stop();
            }
            Err(e) => report.tally.record(Err(e)),
        }
    }
    report
        .e2e
        .set("setup_s", stats::median(&builds) + stats::median(&starts));
    report.e2e.set("ok_rate", 1.0 - report.tally.error_rate());
    report
}

/// Cold requests replayed (untraced, then traced) by the traced pass.
const TRACED_COLD: usize = 16;
/// Requests parsed and hot keys peeked by the traced pass.
const TRACED_PARSES: usize = 1_000;

/// The traced pass: traced context build and isolated replays; HTTP
/// parsing of the run's own wire requests; `Store::peek` on the hot keys;
/// `run_request` on cold requests, untraced then traced; layer replays on
/// the hot set's profiles and seeds.
fn traced_pass(
    cfg: &RunConfig,
    ctx: &Context,
    stream: &Stream,
    requests: &Requests,
    cold_runs: f64,
    timed_s: f64,
    report: &mut Report,
) {
    let tracer = Tracer::new();
    // Hold the daemon's store: the traced context build runs uncached.
    let store = relsim_cache::global().expect("the daemon's store is configured");
    let (_, iso_mismatch) = layers::traced_context(ctx.scale, &tracer);
    let mut parse_failures = 0;
    for op in 0..TRACED_PARSES {
        let w = &requests.wire[op % requests.wire.len()];
        let parsed = tracer.scope("http::read_request", op as u64, || {
            http::read_request(&mut std::io::Cursor::new(w), 64 * 1024)
        });
        if !matches!(parsed, Ok(r) if w.ends_with(&r.body)) {
            parse_failures += 1;
        }
    }
    let fp = ctx.refs.fingerprint();
    let mut peek_misses = 0;
    for op in 0..TRACED_PARSES {
        let key = request_key(&fp, &stream.hot[op % HOT_SET]);
        let hit = tracer.scope("Store::peek", op as u64, || store.peek(key));
        peek_misses += usize::from(hit.is_none());
    }
    let cold: Vec<&SimRequest> = requests
        .list
        .iter()
        .filter(|(_, c)| *c)
        .map(|(r, _)| r)
        .take(TRACED_COLD)
        .collect();
    // Untraced runs bracket the traced ones; their mean is the overhead's
    // base.
    let untraced = || {
        let t0 = Instant::now();
        for r in &cold {
            run_request(&ctx.refs, r, &mut RunObs::disabled());
        }
        t0.elapsed().as_secs_f64()
    };
    let before_s = untraced();
    let mut counters = SimCounters::default();
    let t0 = Instant::now();
    for (op, r) in cold.iter().enumerate() {
        let mut obs = RunObs::disabled();
        tracer.scope("run_request", op as u64, || {
            run_request(&ctx.refs, r, &mut obs)
        });
        counters.add(&obs, r.big + r.small);
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let untraced_s = (before_s + untraced()) / 2.0;
    report
        .tally
        .record(if parse_failures + peek_misses + iso_mismatch == 0 {
            Ok(())
        } else {
            Err(format!(
                "traced pass: {parse_failures} requests misparsed, {peek_misses} hot keys missing \
             from the store, {iso_mismatch} isolated runs differ from the context's table"
            ))
        });
    let apps: Vec<(String, u64)> = stream
        .hot
        .iter()
        .take(4)
        .flat_map(|r| {
            r.benchmarks
                .iter()
                .enumerate()
                .map(|(i, b)| (b.clone(), i as u64 + 1))
        })
        .collect();
    let replays: Replays = layers::replay_layers(&apps, &tracer);
    let l = &mut report.layers;
    layers::common_layers(l, &tracer, &counters, &replays);
    let (p50, p90) = layers::span_ms(&tracer, "run_request");
    l.set("pool.cell_ms_p50", p50);
    l.set("pool.cell_ms_p90", p90);
    l.set(
        "pool.busy_share",
        ratio(cold_runs * p50 / 1e3, JOBS as f64 * timed_s),
    );
    l.set("sampling.detailed_share", 1.0);
    l.set(
        "cache.peek_us",
        stats::median(&tracer.durations_ns("Store::peek")) / 1e3,
    );
    l.set(
        "http.parse_us",
        stats::median(&tracer.durations_ns("http::read_request")) / 1e3,
    );
    l.set("proto.run_request_ms_p50", p50);
    l.set("obs.trace_overhead", traced_s / untraced_s - 1.0);
    layers::write_spans(cfg, NAME, &tracer, report);
}
