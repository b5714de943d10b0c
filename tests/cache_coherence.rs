//! The content-addressed result cache must be invisible in every output
//! byte: cold, warm, and `--no-cache` runs of the same grid produce
//! byte-identical artifacts at any worker count; corrupt or truncated
//! persisted entries are healed misses, never wrong answers; and any
//! change to any output-determining input changes the cache key.

use proptest::prelude::*;
use relsim::cache::{decode_bundle, decode_value};
use relsim::experiments::{compare_schedulers, hcmp_config, Context, MixCell, Scale};
use relsim::isolated::ReferenceTable;
use relsim::mixes::Mix;
use relsim::{pool, CounterKind, SamplingParams, SystemConfig};
use relsim_cache::{CacheConfig, Key, Store};
use relsim_cpu::CoreConfig;
use relsim_obs::RunObs;
use relsim_serve::http::read_response;
use relsim_serve::{artifact_bytes, request_key, run_request, Server, ServerConfig, SimEngine};
use relsim_serve::{SimArtifact, SimRequest};
use relsim_trace::spec_profile;
use serde_json::Value;
use std::collections::HashSet;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Tests below reconfigure the process-global cache store; they must not
/// interleave with each other (the key-sensitivity tests don't touch the
/// store and run freely).
fn store_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relsim-cache-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scale() -> Scale {
    Scale {
        isolation_ticks: 40_000,
        run_ticks: 60_000,
        quantum_ticks: 8_000,
        per_category: 1,
        seed: 11,
    }
}

fn mixes() -> Vec<Mix> {
    vec![
        Mix {
            category: "cache-a".into(),
            benchmarks: vec![
                "hmmer".into(),
                "milc".into(),
                "gobmk".into(),
                "povray".into(),
            ],
        },
        Mix {
            category: "cache-b".into(),
            benchmarks: vec!["lbm".into(), "mcf".into(), "hmmer".into(), "milc".into()],
        },
    ]
}

/// Full pipeline under the current cache configuration: isolated
/// characterization plus the three-scheduler comparison, serialized the
/// way the fig JSON artifacts are.
fn run_grid(jobs: usize) -> Vec<u8> {
    pool::set_default_jobs(jobs);
    let ctx = Context::build(scale());
    let cfg = hcmp_config(&ctx, 2, 2);
    let mut obs = RunObs::disabled();
    let comparisons = compare_schedulers(&ctx, &cfg, &mixes(), SamplingParams::default(), &mut obs);
    pool::set_default_jobs(0);
    let mut bytes = serde_json::to_vec(&ctx.refs).expect("serialize refs");
    bytes.extend(serde_json::to_vec(&comparisons).expect("serialize comparisons"));
    bytes
}

fn enable_cache(dir: &Path) {
    relsim_cache::configure(Some(CacheConfig {
        dir: Some(dir.to_path_buf()),
    }));
}

/// The headline differential: disabled, cold, and warm runs are
/// byte-identical — and the warm run stays byte-identical at `-j1` and
/// `-j4`, served from the persistent tier with zero misses.
#[test]
fn cold_warm_and_disabled_runs_are_byte_identical() {
    let _guard = store_guard();
    let dir = scratch_dir("coldwarm");

    relsim_cache::configure(None);
    let baseline = run_grid(0);

    enable_cache(&dir);
    let cold = run_grid(0);
    let stats = relsim_cache::global_stats().expect("cache enabled");
    assert!(stats.misses > 0, "cold run must miss: {stats:?}");
    assert!(stats.stores > 0, "cold run must store: {stats:?}");

    // Reconfiguring drops the memory tier — the warm runs model a new
    // process against the populated persistent tier.
    enable_cache(&dir);
    let warm1 = run_grid(1);
    let stats = relsim_cache::global_stats().expect("cache enabled");
    assert_eq!(stats.misses, 0, "warm run must not recompute: {stats:?}");
    assert!(
        stats.disk_hits > 0,
        "warm run reads the disk tier: {stats:?}"
    );
    let warm4 = run_grid(4);

    relsim_cache::configure(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(baseline, cold, "cold cache changed the output bytes");
    assert_eq!(baseline, warm1, "warm -j1 cache changed the output bytes");
    assert_eq!(baseline, warm4, "warm -j4 cache changed the output bytes");
}

/// Every persisted entry file under `dir`.
fn entry_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rsc") {
                files.push(p);
            }
        }
    }
    files
}

/// Poisoned persistent entries — truncated or bit-flipped — must be
/// detected, dropped, and recomputed, with the output bytes unchanged.
#[test]
fn corrupt_entries_are_healed_misses() {
    let _guard = store_guard();
    let dir = scratch_dir("poison");

    enable_cache(&dir);
    let cold = run_grid(0);
    let files = entry_files(&dir);
    assert!(!files.is_empty(), "cold run persisted no entries");
    for (i, path) in files.iter().enumerate() {
        let mut bytes = std::fs::read(path).expect("read entry");
        if i % 2 == 0 {
            bytes.truncate(bytes.len() / 2);
        } else {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xff;
        }
        std::fs::write(path, &bytes).expect("poison entry");
    }

    enable_cache(&dir);
    let healed = run_grid(0);
    let stats = relsim_cache::global_stats().expect("cache enabled");
    relsim_cache::configure(None);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(cold, healed, "poisoned entries leaked into the output");
    assert!(
        stats.invalidations > 0,
        "corrupt entries must be invalidated: {stats:?}"
    );
    assert!(
        stats.misses > 0 && stats.stores > 0,
        "corrupt entries must be recomputed and rewritten: {stats:?}"
    );
}

/// The key an entry file is stored under (its name is the key's hex).
fn key_of(path: &Path) -> Key {
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("entry name");
    Key(u128::from_str_radix(stem, 16).expect("entry name is a key"))
}

/// The same bundle in the one-array layout that preceded the three-line
/// one: `[value,events,metrics]` on a single line.
fn single_array(bundle: &[u8]) -> Vec<u8> {
    let (value, events, metrics) = decode_bundle::<Value>(bundle).expect("a three-line bundle");
    serde_json::to_vec(&(value, events, metrics)).expect("serialize")
}

fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Every bundle a grid stores decodes to the same value through
/// `decode_value` as through `decode_bundle`. Grid entries left in the
/// old one-array layout under their real `mix-cell/v1` keys are
/// invalidated, recomputed into identical output bytes, and rewritten
/// as three lines.
#[test]
fn old_layout_grid_entries_heal_into_three_lines() {
    let _guard = store_guard();
    let dir = scratch_dir("old-layout-grid");

    enable_cache(&dir);
    let cold = run_grid(0);
    let store = Store::new(CacheConfig {
        dir: Some(dir.clone()),
    });
    let files = entry_files(&dir);
    assert!(!files.is_empty(), "cold run persisted no entries");
    let mut cells = Vec::new();
    for path in &files {
        let key = key_of(path);
        let (bundle, _) = store.peek(key).expect("stored entry reads back");
        assert_eq!(newlines(&bundle), 2, "{path:?} is not three lines");
        let (value, _, _) = decode_bundle::<Value>(&bundle).expect("bundle decodes");
        assert_eq!(decode_value::<Value>(&bundle), Some(value), "{path:?}");
        if decode_bundle::<MixCell>(&bundle).is_some() {
            store.put(key, single_array(&bundle));
            cells.push(key);
        }
    }
    assert_eq!(cells.len(), mixes().len() * 3, "one mix-cell entry per run");

    enable_cache(&dir);
    let healed = run_grid(0);
    let stats = relsim_cache::global_stats().expect("cache enabled");
    relsim_cache::configure(None);

    assert_eq!(cold, healed, "old-layout entries changed the output bytes");
    assert_eq!(stats.invalidations, cells.len() as u64, "{stats:?}");
    assert_eq!(stats.misses, cells.len() as u64, "{stats:?}");
    let reread = Store::new(CacheConfig {
        dir: Some(dir.clone()),
    });
    for key in cells {
        let (bundle, _) = reread.peek(key).expect("healed entry persisted");
        assert_eq!(newlines(&bundle), 2, "entry {key} was not rewritten");
        assert!(decode_bundle::<MixCell>(&bundle).is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn post_run(addr: SocketAddr, body: &[u8]) -> (u16, Option<String>, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let head = format!(
        "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    read_response(&mut s).expect("response")
}

/// A served request whose entry sits in the old one-array layout under
/// its real `serve-run/v1` key: the warm path cannot decode it, so the
/// request goes to the engine, the answer is byte-identical to the batch
/// artifact, the entry is rewritten as three lines, and the next request
/// is a warm hit with the same bytes.
#[test]
fn old_layout_serve_entry_heals_into_three_lines() {
    let _guard = store_guard();
    let dir = scratch_dir("old-layout-serve");
    enable_cache(&dir);

    let profiles: Vec<_> = ["milc", "hmmer"]
        .iter()
        .map(|n| spec_profile(n).expect("catalog benchmark"))
        .collect();
    let refs = ReferenceTable::build(&profiles, &CoreConfig::big(), &CoreConfig::small(), 40_000);
    let req = SimRequest {
        benchmarks: vec!["milc".into(), "hmmer".into()],
        big: 1,
        small: 1,
        scheduler: "reliability".into(),
        ticks: 20_000,
        quantum: 5_000,
        half_freq_small: false,
        rob_only: false,
    };
    let key = request_key(&refs.fingerprint(), &req);
    let mut obs = RunObs::buffered();
    let artifact = run_request(&refs, &req, &mut obs);
    let events = obs.sink.take_events().unwrap_or_default();
    let bundle = relsim::cache::encode_bundle(&artifact, &events, &obs.recorder.snapshot())
        .expect("artifact round-trips");
    let store = relsim_cache::global().expect("cache enabled");
    store.put(key, single_array(&bundle));
    let want = artifact_bytes(&artifact);

    let server = Server::start(Arc::new(SimEngine::new(refs)), ServerConfig::default())
        .expect("server starts");
    let body = serde_json::to_vec(&req).unwrap();
    let (code, cache, first) = post_run(server.addr(), &body);
    assert_eq!(code, 200, "{}", String::from_utf8_lossy(&first));
    assert_eq!(
        cache.as_deref(),
        Some("miss"),
        "an old entry is not a warm hit"
    );
    assert_eq!(first, want, "healed answer differs from the batch artifact");
    let (code, cache, second) = post_run(server.addr(), &body);
    assert_eq!(
        (code, cache.as_deref()),
        (200, Some("hit")),
        "the rewritten entry serves warm"
    );
    assert_eq!(second, want, "warm answer differs from the batch artifact");
    server.shutdown();
    let stats = relsim_cache::global_stats().expect("cache enabled");
    relsim_cache::configure(None);
    assert_eq!(stats.invalidations, 1, "{stats:?}");

    let (rewritten, _) = Store::new(CacheConfig {
        dir: Some(dir.clone()),
    })
    .peek(key)
    .expect("healed entry persisted");
    assert_eq!(
        rewritten,
        bundle.into(),
        "entry not rewritten as three lines"
    );
    assert_eq!(decode_value::<SimArtifact>(&rewritten), Some(artifact));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Perturbing any single field of the real key inputs — system config,
/// benchmark profile, seed, scheduler params, engine flag — yields a
/// distinct key. (Key derivation is pure; no store needed.)
#[test]
fn every_input_field_is_key_separating() {
    let cfg = SystemConfig::hcmp(2, 2);
    let profile = spec_profile("milc").expect("catalog profile");
    let params = SamplingParams::default();
    let seed = 7u64;
    let skip = true;

    let mut variants: Vec<(
        SystemConfig,
        relsim_trace::BenchmarkProfile,
        SamplingParams,
        u64,
        bool,
    )> = Vec::new();
    let base = (cfg.clone(), profile.clone(), params, seed, skip);
    variants.push(base.clone());

    let mut push_cfg = |f: &dyn Fn(&mut SystemConfig)| {
        let mut v = base.clone();
        f(&mut v.0);
        variants.push(v);
    };
    push_cfg(&|c| c.quantum_ticks += 1);
    push_cfg(&|c| c.migration_ticks += 1);
    push_cfg(&|c| c.measurement_warmup_ticks += 1);
    push_cfg(&|c| c.warm_caches = !c.warm_caches);
    push_cfg(&|c| c.counter_kind = CounterKind::HwRobOnly);
    push_cfg(&|c| {
        c.cores.pop();
    });

    let mut push_profile = |f: &dyn Fn(&mut relsim_trace::BenchmarkProfile)| {
        let mut v = base.clone();
        f(&mut v.1);
        variants.push(v);
    };
    push_profile(&|p| p.name.push('x'));
    push_profile(&|p| p.phases[0].len_instrs += 1);
    push_profile(&|p| p.phases[0].mean_dep_dist += 1e-9);
    push_profile(&|p| p.phases[0].branch_mispredict_rate *= 2.0);
    push_profile(&|p| p.phases[0].icache_miss_rate += 1e-9);

    let mut push_params = |f: &dyn Fn(&mut SamplingParams)| {
        let mut v = base.clone();
        f(&mut v.2);
        variants.push(v);
    };
    push_params(&|p| p.staleness_quanta += 1);
    push_params(&|p| p.sampling_fraction += 1e-9);
    push_params(&|p| p.switch_threshold += 1e-9);

    let mut seed_v = base.clone();
    seed_v.3 += 1;
    variants.push(seed_v);
    let mut skip_v = base.clone();
    skip_v.4 = !skip_v.4;
    variants.push(skip_v);

    let n = variants.len();
    let keys: HashSet<String> = variants
        .iter()
        .map(|v| relsim::cache::key("sensitivity/v1", v).hex())
        .collect();
    assert_eq!(keys.len(), n, "some single-field perturbation collided");

    // Same input, same site: the key is stable.
    assert_eq!(
        relsim::cache::key("sensitivity/v1", &base),
        relsim::cache::key("sensitivity/v1", &base)
    );
    // Same input, different site: separated.
    assert_ne!(
        relsim::cache::key("sensitivity/v1", &base),
        relsim::cache::key("sensitivity/v2", &base)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized single-field perturbations of a scalar input tuple
    /// (seed, ticks, quantum, fraction, flag) always change the key, and
    /// identical inputs always agree.
    #[test]
    fn key_sensitivity_holds_for_random_scalar_inputs(
        seed in 0u64..u64::MAX,
        ticks in 1u64..1_000_000_000,
        quantum in 1u64..1_000_000,
        fraction in 0.01f64..0.9,
        flag in prop::bool::ANY,
        bump in 1u64..1_000_003,
    ) {
        let base = (seed, ticks, quantum, fraction, flag);
        let k = relsim::cache::key("prop/v1", &base);
        prop_assert_eq!(k, relsim::cache::key("prop/v1", &base));
        prop_assert_ne!(k, relsim::cache::key("prop/v2", &base));
        prop_assert_ne!(
            k,
            relsim::cache::key("prop/v1", &(seed.wrapping_add(bump), ticks, quantum, fraction, flag))
        );
        prop_assert_ne!(k, relsim::cache::key("prop/v1", &(seed, ticks + bump, quantum, fraction, flag)));
        prop_assert_ne!(k, relsim::cache::key("prop/v1", &(seed, ticks, quantum + bump, fraction, flag)));
        prop_assert_ne!(
            k,
            relsim::cache::key("prop/v1", &(seed, ticks, quantum, fraction + 1e-6, flag))
        );
        prop_assert_ne!(k, relsim::cache::key("prop/v1", &(seed, ticks, quantum, fraction, !flag)));
    }
}
