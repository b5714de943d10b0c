//! The daemon: admission → single-flight → pool → cache.
//!
//! Request lifecycle (DESIGN.md §14):
//!
//! 1. a connection-handler thread parses the request and validates it
//!    (`400` before any simulation state is touched);
//! 2. **warm path**: if the process-wide result cache holds the
//!    artifact, only its value line is decoded (the stored events and
//!    metrics are not needed to answer) and returned immediately
//!    (`X-Cache: hit`) — warm requests never consume a queue slot;
//! 3. **admission**: the request enters a bounded queue, or is shed
//!    with `429` when the queue is full, or `503` when the server is
//!    draining;
//! 4. an exec worker runs the job through [`relsim::pool::scatter`] —
//!    the same machinery as the batch grid, giving `catch_unwind` panic
//!    isolation and single-flight caching of concurrent duplicates —
//!    and writes the artifact bytes back on the client's socket (or a
//!    `500` naming the job's own panic).
//!
//! Graceful shutdown flips a draining flag (under the queue lock, so
//! no job can slip in after the workers' final empty-queue check),
//! stops accepting, rejects new work with `503`, and joins the workers
//! only after every queued job has been answered.

use crate::http::{self, ReadError, Request, Status};
use crate::proto::{artifact_bytes, request_key, run_request, SimArtifact, SimRequest};
use relsim::isolated::ReferenceTable;
use relsim_cache::Key;
use relsim_obs::{MetricsSnapshot, Recorder, RunManifest, RunObs, StageProfile};
use serde::Serialize;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Acquire a server mutex, recovering from poisoning: one panicked
/// connection thread must never wedge the daemon.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What executes requests. The daemon itself only routes; the engine
/// is injected so tests can substitute a controllable fake.
pub trait Engine: Send + Sync + 'static {
    /// Stable identity of the engine's inputs (folded into cache keys).
    fn fingerprint(&self) -> String;
    /// Run one validated request to completion.
    fn run(&self, req: &SimRequest, obs: &mut RunObs) -> SimArtifact;
}

/// The real engine: [`run_request`] against a reference table.
pub struct SimEngine {
    refs: ReferenceTable,
    fp: String,
}

impl SimEngine {
    /// Wrap a built reference table.
    pub fn new(refs: ReferenceTable) -> Self {
        let fp = refs.fingerprint();
        SimEngine { refs, fp }
    }
}

impl Engine for SimEngine {
    fn fingerprint(&self) -> String {
        self.fp.clone()
    }
    fn run(&self, req: &SimRequest, obs: &mut RunObs) -> SimArtifact {
        run_request(&self.refs, req, obs)
    }
}

/// Server tunables; `Default` is sized for tests and smoke runs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Bounded admission-queue depth; beyond it requests shed with 429.
    pub queue_depth: usize,
    /// Exec worker threads draining the queue.
    pub exec_workers: usize,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Largest accepted request body, bytes.
    pub max_request_bytes: usize,
    /// Where per-request run manifests go (`None` disables them).
    pub manifest_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_depth: 64,
            exec_workers: 2,
            io_timeout: Duration::from_secs(10),
            max_request_bytes: 64 * 1024,
            manifest_dir: None,
        }
    }
}

/// One admitted job: the validated request, its cache key (when the
/// cache is on), and the channel the worker answers on.
struct Job {
    req: SimRequest,
    key: Option<Key>,
    tx: mpsc::Sender<(Status, Option<&'static str>, Vec<u8>)>,
}

/// Queue state guarded by one mutex: the jobs *and* the draining flag,
/// so "drain started" and "queue empty" are checked atomically.
struct QueueState {
    jobs: VecDeque<Job>,
    draining: bool,
}

struct Shared {
    engine: Arc<dyn Engine>,
    cfg: ServerConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Mirror of `QueueState::draining` for lock-free reads in the
    /// accept loop and health endpoint.
    draining: AtomicBool,
    rec: Mutex<Recorder>,
    /// Monotonic request number, for manifest names when uncached.
    seq: std::sync::atomic::AtomicU64,
}

impl Shared {
    fn bump(&self, name: &str) {
        let mut rec = lock_recover(&self.rec);
        let id = rec.counter(name);
        rec.inc(id);
    }
    fn observe_ns(&self, name: &str, ns: u64) {
        let mut rec = lock_recover(&self.rec);
        let id = rec.histogram(name);
        rec.observe(id, ns);
    }
}

#[derive(Serialize)]
struct ErrBody {
    error: String,
}

fn err_body(msg: &str) -> Vec<u8> {
    serde_json::to_vec(&ErrBody {
        error: msg.to_string(),
    })
    .unwrap_or_else(|_| b"{\"error\":\"unknown\"}".to_vec())
}

/// A running daemon. Dropping the handle without calling
/// [`Server::shutdown`] leaks the threads (the process is exiting
/// anyway); `shutdown` is the graceful path.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    /// Set by `POST /shutdown`; the owning binary polls it.
    shutdown_requested: Arc<AtomicBool>,
}

impl Server {
    /// Bind, spawn the acceptor and exec workers, return immediately.
    pub fn start(engine: Arc<dyn Engine>, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if let Some(dir) = &cfg.manifest_dir {
            let _ = std::fs::create_dir_all(dir);
        }
        let shared = Arc::new(Shared {
            engine,
            cfg,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                draining: false,
            }),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            rec: Mutex::new(Recorder::new()),
            seq: std::sync::atomic::AtomicU64::new(0),
        });
        let shutdown_requested = Arc::new(AtomicBool::new(false));
        let workers = (0..shared.cfg.exec_workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-exec-{w}"))
                    .spawn(move || exec_worker(&shared))
                    .expect("spawn exec worker")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let sd = Arc::clone(&shutdown_requested);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared, &sd))
                .expect("spawn acceptor")
        };
        Ok(Server {
            shared,
            addr,
            acceptor,
            workers,
            shutdown_requested,
        })
    }

    /// The bound address (real port even when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client has POSTed `/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Snapshot the `serve.*` (and merged per-job) metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        lock_recover(&self.shared.rec).snapshot()
    }

    /// Graceful shutdown: stop accepting, shed new work with 503,
    /// answer every already-admitted job, join all threads, and return
    /// the final metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        {
            let mut state = lock_recover(&self.shared.state);
            state.draining = true;
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        self.shared.cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
        let _ = self.acceptor.join();
        lock_recover(&self.shared.rec).snapshot()
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, sd: &Arc<AtomicBool>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let sd = Arc::clone(sd);
                // Handlers are detached: they die with their connection
                // (or its timeout); draining only has to answer work
                // that was *admitted*, not hold sockets open.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_conn(stream, &shared, &sd));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Arc<Shared>, sd: &Arc<AtomicBool>) {
    let _ = stream.set_nonblocking(false);
    // Responses are written as head + body in separate syscalls; without
    // nodelay, Nagle + delayed ACK serializes them into ~40ms stalls.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    loop {
        let req = match http::read_request(&mut stream, shared.cfg.max_request_bytes) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::TooLarge) => {
                shared.bump("serve.too_large");
                let _ = http::write_response(
                    &mut stream,
                    Status::PayloadTooLarge,
                    None,
                    &err_body("request too large"),
                );
                return;
            }
            Err(ReadError::Malformed(m)) => {
                shared.bump("serve.bad_requests");
                let _ = http::write_response(&mut stream, Status::BadRequest, None, &err_body(&m));
                return;
            }
            Err(ReadError::Io(_)) => return,
        };
        if !respond(&mut stream, shared, sd, req) {
            return;
        }
    }
}

/// Route one request; returns whether the connection stays open.
fn respond(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    sd: &Arc<AtomicBool>,
    req: Request,
) -> bool {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = shared.draining.load(Ordering::SeqCst);
            let body = format!("{{\"ok\":true,\"draining\":{draining}}}");
            http::write_response(stream, Status::Ok, None, body.as_bytes()).is_ok()
        }
        ("GET", "/stats") => {
            let snap = lock_recover(&shared.rec).snapshot();
            let body = serde_json::to_vec(&snap).unwrap_or_else(|_| b"{}".to_vec());
            http::write_response(stream, Status::Ok, None, &body).is_ok()
        }
        ("POST", "/shutdown") => {
            sd.store(true, Ordering::SeqCst);
            shared.bump("serve.shutdown_requests");
            http::write_response(stream, Status::Ok, None, b"{\"draining\":true}").is_ok()
        }
        ("POST", "/run") => run_route(stream, shared, &req.body),
        _ => {
            shared.bump("serve.not_found");
            http::write_response(stream, Status::NotFound, None, &err_body("unknown route")).is_ok()
        }
    }
}

fn run_route(stream: &mut TcpStream, shared: &Arc<Shared>, body: &[u8]) -> bool {
    let t0 = Instant::now();
    shared.bump("serve.requests");
    let sim_req: SimRequest = match serde_json::from_slice(body) {
        Ok(r) => r,
        Err(e) => {
            shared.bump("serve.bad_requests");
            return http::write_response(
                stream,
                Status::BadRequest,
                None,
                &err_body(&format!("unparseable request: {e}")),
            )
            .is_ok();
        }
    };
    if let Err(msg) = sim_req.validate() {
        shared.bump("serve.bad_requests");
        return http::write_response(stream, Status::BadRequest, None, &err_body(&msg)).is_ok();
    }

    let key = if relsim_cache::enabled() {
        Some(request_key(&shared.engine.fingerprint(), &sim_req))
    } else {
        None
    };

    // Warm path: a cached artifact short-circuits before admission —
    // hot traffic costs no queue slot and cannot be shed.
    if let (Some(store), Some(k)) = (relsim_cache::global(), key) {
        if let Some((payload, _tier)) = store.peek(k) {
            if let Some(artifact) = relsim::cache::decode_value::<SimArtifact>(&payload) {
                shared.bump("serve.warm_hits");
                shared.observe_ns("serve.request_ns", t0.elapsed().as_nanos() as u64);
                let bytes = artifact_bytes(&artifact);
                return http::write_response(stream, Status::Ok, Some("hit"), &bytes).is_ok();
            }
            // Undecodable entry: fall through; the worker's run_keyed
            // path invalidates and heals it.
        }
    }

    // Admission: bounded queue, checked under the same lock as the
    // draining flag so a job can never be enqueued after the workers'
    // final drain check.
    let (tx, rx) = mpsc::channel();
    {
        let mut state = lock_recover(&shared.state);
        if state.draining {
            drop(state);
            shared.bump("serve.draining_rejects");
            return http::write_response(
                stream,
                Status::Unavailable,
                None,
                &err_body("draining for shutdown"),
            )
            .is_ok();
        }
        if state.jobs.len() >= shared.cfg.queue_depth {
            drop(state);
            shared.bump("serve.shed");
            return http::write_response(
                stream,
                Status::TooManyRequests,
                None,
                &err_body("admission queue full; retry later"),
            )
            .is_ok();
        }
        state.jobs.push_back(Job {
            req: sim_req,
            key,
            tx,
        });
        shared.bump("serve.admitted");
    }
    shared.cv.notify_one();

    // The worker answers exactly once; a dropped sender means the
    // worker died mid-job despite its catch_unwind — answer 500 rather
    // than hanging the client.
    let (status, cache, bytes) = rx
        .recv()
        .unwrap_or_else(|_| (Status::Internal, None, err_body("worker lost")));
    shared.observe_ns("serve.request_ns", t0.elapsed().as_nanos() as u64);
    http::write_response(stream, status, cache, &bytes).is_ok()
}

fn exec_worker(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut state = lock_recover(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.draining {
                    return;
                }
                state = shared.cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        // One panicking job must not cost an exec worker: the pool
        // already catches job panics, this guards the bookkeeping
        // around it (manifest I/O, channel sends).
        let shared2 = Arc::clone(shared);
        let _ = catch_unwind(AssertUnwindSafe(move || run_job(&shared2, job)));
    }
}

fn run_job(shared: &Arc<Shared>, job: Job) {
    let t0 = Instant::now();
    let engine = Arc::clone(&shared.engine);
    let mut obs = RunObs::disabled();
    let req = job.req.clone();
    // jobs=1: the request IS the unit of parallelism (many clients,
    // many workers); the scatter is used for its catch_unwind isolation
    // and its single-flight cached execution, not for fan-out.
    let mut results = relsim::pool::scatter(
        "serve-run",
        vec![(job.key, req)],
        &mut obs,
        1,
        |_, r, job_obs| engine.run(&r, job_obs),
    );
    let reply = match results.pop().expect("one slot per item") {
        Ok(artifact) => {
            let snap = obs.recorder.snapshot();
            let computed = job.key.is_none() || snap.counter("cache.misses").unwrap_or(0) > 0;
            if computed {
                shared.bump("serve.cold_runs");
                write_job_manifest(shared, &job.req, &snap, t0.elapsed().as_secs_f64(), job.key);
            } else {
                // Admitted but resolved warm: a concurrent leader
                // stored the artifact while this job sat in the queue.
                shared.bump("serve.queued_hits");
            }
            let cache = if computed { "miss" } else { "hit" };
            (Status::Ok, Some(cache), artifact_bytes(&artifact))
        }
        Err(failure) => {
            // The failure is also in the pool's failure registry; drain
            // it so a long-lived daemon's registry cannot grow without
            // bound (and so the owning binary's obs_finish does not treat
            // an answered 500 as a fatal batch failure).
            let _ = relsim::pool::take_failures();
            let msg = failure.message;
            relsim_obs::warn!("serve: job failed: {msg}");
            shared.bump("serve.failures");
            (
                Status::Internal,
                None,
                err_body(&format!("simulation job panicked: {msg}")),
            )
        }
    };
    {
        let mut rec = lock_recover(&shared.rec);
        rec.merge(&obs.recorder);
    }
    // A dead client (hung up before the answer) is not an error.
    let _ = job.tx.send(reply);
}

fn write_job_manifest(
    shared: &Arc<Shared>,
    req: &SimRequest,
    snap: &MetricsSnapshot,
    elapsed: f64,
    key: Option<Key>,
) {
    let Some(dir) = &shared.cfg.manifest_dir else {
        return;
    };
    let mut manifest = RunManifest::new(
        "relsim-serve",
        relsim::cache::MODEL_VERSION,
        &req.scheduler,
        1,
    );
    manifest.duration_ticks = req.ticks;
    manifest.config = serde_json::to_value(req).unwrap_or(serde::Value::Null);
    manifest.elapsed_seconds = elapsed;
    manifest.cache = relsim_cache::global_stats().map(|s| s.to_value());
    manifest.stage_profile = StageProfile::from_snapshot(snap);
    let name = match key {
        Some(k) => k.hex(),
        None => format!(
            "req-{}",
            shared.seq.fetch_add(1, std::sync::atomic::Ordering::SeqCst)
        ),
    };
    let anchor = dir.join(format!("{name}.json"));
    if let Err(e) = relsim_obs::write_manifest(&anchor, &manifest) {
        relsim_obs::warn!("serve: could not write manifest for {name}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::mpsc::{Receiver, SyncSender};

    /// Engine that blocks each run until the test releases it, and
    /// panics on demand — enough to script queue and drain scenarios.
    struct GatedEngine {
        gate: Mutex<Receiver<()>>,
        started: SyncSender<()>,
    }

    impl GatedEngine {
        fn new() -> (Arc<GatedEngine>, SyncSender<()>, Receiver<()>) {
            let (release_tx, release_rx) = mpsc::sync_channel(64);
            let (started_tx, started_rx) = mpsc::sync_channel(64);
            (
                Arc::new(GatedEngine {
                    gate: Mutex::new(release_rx),
                    started: started_tx,
                }),
                release_tx,
                started_rx,
            )
        }
    }

    impl Engine for GatedEngine {
        fn fingerprint(&self) -> String {
            "gated".into()
        }
        fn run(&self, req: &SimRequest, _obs: &mut RunObs) -> SimArtifact {
            let _ = self.started.send(());
            let _ = lock_recover(&self.gate).recv();
            if (600..700).contains(&req.ticks) {
                panic!("scripted engine failure at {} ticks", req.ticks);
            }
            SimArtifact {
                model_version: relsim::cache::MODEL_VERSION,
                request: req.clone(),
                scheduler: req.scheduler.clone(),
                sser: 1.0,
                stp: 1.0,
                antt: 1.0,
                chip_watts: 1.0,
                system_watts: 2.0,
                migrations: 0,
                apps: Vec::new(),
            }
        }
    }

    fn request(ticks: u64) -> Vec<u8> {
        let req = SimRequest {
            benchmarks: vec!["milc".into(), "hmmer".into()],
            big: 1,
            small: 1,
            scheduler: "reliability".into(),
            ticks,
            quantum: 1000,
            half_freq_small: false,
            rob_only: false,
        };
        serde_json::to_vec(&req).unwrap()
    }

    fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, Option<String>, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let head = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body).unwrap();
        http::read_response(&mut s).unwrap()
    }

    fn cfg(depth: usize) -> ServerConfig {
        ServerConfig {
            queue_depth: depth,
            exec_workers: 1,
            io_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn queue_full_sheds_with_429() {
        let (engine, release, started) = GatedEngine::new();
        let server = Server::start(engine, cfg(1)).unwrap();
        let addr = server.addr();

        // First request occupies the single worker...
        let a = std::thread::spawn(move || post(addr, "/run", &request(10)));
        started.recv_timeout(Duration::from_secs(10)).unwrap();
        // ...second fills the depth-1 queue...
        let b = std::thread::spawn(move || post(addr, "/run", &request(20)));
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.snapshot().counter("serve.admitted").unwrap_or(0) < 2 {
            assert!(Instant::now() < deadline, "second request never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...third must shed immediately.
        let (code, _, _) = post(addr, "/run", &request(30));
        assert_eq!(code, 429);

        release.send(()).unwrap();
        release.send(()).unwrap();
        assert_eq!(a.join().unwrap().0, 200);
        assert_eq!(b.join().unwrap().0, 200);
        let snap = server.shutdown();
        assert_eq!(snap.counter("serve.shed"), Some(1));
        assert_eq!(snap.counter("serve.admitted"), Some(2));
    }

    #[test]
    fn shutdown_drains_admitted_work_and_rejects_new() {
        let (engine, release, started) = GatedEngine::new();
        let server = Server::start(engine, cfg(8)).unwrap();
        let addr = server.addr();

        let clients: Vec<_> = (0..3)
            .map(|i| std::thread::spawn(move || post(addr, "/run", &request(10 + i))))
            .collect();
        started.recv_timeout(Duration::from_secs(10)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.snapshot().counter("serve.admitted").unwrap_or(0) < 3 {
            assert!(Instant::now() < deadline, "requests never admitted");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Shut down while one job runs and two sit in the queue; the
        // gate stays scripted so jobs finish only after drain begins.
        let shutdown = std::thread::spawn(move || server.shutdown());
        std::thread::sleep(Duration::from_millis(50));
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        for c in clients {
            let (code, _, body) = c.join().unwrap();
            assert_eq!(code, 200, "admitted request dropped during drain");
            assert!(!body.is_empty());
        }
        let snap = shutdown.join().unwrap();
        assert_eq!(snap.counter("serve.admitted"), Some(3));
        // New connections are refused (acceptor gone) or rejected.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                // The accept backlog may still take the connection; any
                // answered request must be a 503, never fresh work.
                s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let body = request(40);
                let head = format!(
                    "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                );
                if s.write_all(head.as_bytes())
                    .and_then(|_| s.write_all(&body))
                    .is_ok()
                {
                    if let Ok((code, _, _)) = http::read_response(&mut s) {
                        assert_eq!(code, 503);
                    }
                }
            }
        }
    }

    #[test]
    fn panicking_job_answers_500_and_daemon_survives() {
        let (engine, release, started) = GatedEngine::new();
        let server = Server::start(
            engine,
            ServerConfig {
                exec_workers: 2,
                ..cfg(8)
            },
        )
        .unwrap();
        let addr = server.addr();
        // Two requests fail at once on the two workers, so both panics
        // sit in the process-wide registry together: each 500 must
        // still name its own request's panic.
        for round in 0..20u64 {
            let ticks = [600 + 2 * round, 601 + 2 * round];
            let clients =
                ticks.map(|t| std::thread::spawn(move || post(addr, "/run", &request(t))));
            for _ in ticks {
                started.recv_timeout(Duration::from_secs(10)).unwrap();
            }
            for _ in ticks {
                release.send(()).unwrap();
            }
            for (t, client) in ticks.into_iter().zip(clients) {
                let (code, _, body) = client.join().unwrap();
                assert_eq!(code, 500, "round {round}");
                let body = String::from_utf8_lossy(&body);
                let own = format!("scripted engine failure at {t} ticks");
                assert!(body.contains(&own), "round {round}: {body}");
            }
        }
        // The workers survived the panics: a healthy request still runs.
        release.send(()).unwrap();
        let (code, _, _) = post(addr, "/run", &request(10));
        assert_eq!(code, 200);
        let snap = server.shutdown();
        assert_eq!(snap.counter("serve.failures"), Some(40));
        assert!(relsim::pool::take_failures().is_empty(), "registry drained");
    }

    #[test]
    fn bad_requests_and_unknown_routes_are_4xx() {
        let (engine, _release, _started) = GatedEngine::new();
        let server = Server::start(engine, cfg(4)).unwrap();
        let addr = server.addr();
        let (code, _, _) = post(addr, "/run", b"this is not json");
        assert_eq!(code, 400);
        let mut bad = request(10);
        bad.extend_from_slice(b" "); // still JSON...
        let invalid = serde_json::to_vec(&SimRequest {
            benchmarks: vec!["milc".into()],
            big: 1,
            small: 1,
            scheduler: "reliability".into(),
            ticks: 10,
            quantum: 10,
            half_freq_small: false,
            rob_only: false,
        })
        .unwrap();
        let (code, _, body) = post(addr, "/run", &invalid);
        assert_eq!(code, 400);
        assert!(String::from_utf8_lossy(&body).contains("benchmark per core"));
        let (code, _, _) = post(addr, "/nope", b"{}");
        assert_eq!(code, 404);
        let (code, _, _) = post(addr, "/shutdown", b"");
        assert_eq!(code, 200);
        assert!(server.shutdown_requested());
        let snap = server.shutdown();
        assert_eq!(snap.counter("serve.bad_requests"), Some(2));
    }
}
