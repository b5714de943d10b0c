//! Content-addressed caching of simulation results.
//!
//! A cache entry is a *bundle*: the result value, the buffered event
//! stream the computation emitted, and a snapshot of its metrics, stored
//! as three compact JSON lines in that order (the compact writer escapes
//! every newline inside a string, so a raw newline only ever separates
//! lines). On a hit the bundle is replayed into the caller's [`RunObs`]
//! — events in original order after a [`Event::CacheHit`] marker,
//! counters and histograms merged exactly — so a warm run is
//! observationally equivalent to a cold one, not just equal in its
//! return value. A caller that needs only the value reads the first line
//! with [`decode_value`] and leaves the other two unparsed.
//!
//! Keys are derived with [`key`]: the MurmurHash3 x64/128 digest of the
//! canonical JSON of `(site, MODEL_VERSION, input)`. The *site* names
//! the call point and the shape of the stored value (bump its suffix
//! when the value type changes); [`MODEL_VERSION`] invalidates the
//! whole universe of entries whenever the simulation model changes; the
//! *input* must contain every value that determines the result.
//!
//! Corruption, framing drift, and undecodable payloads are all healed
//! locally: the entry is dropped, the result recomputed and re-stored.
//! That includes entries in the earlier one-array layout
//! (`[value,events,metrics]` on one line), which neither decoder accepts.
//! A bundle that does not survive a decode/re-encode round trip (JSON
//! has no NaN, so non-finite floats degrade to `null`) is *never*
//! stored — such results always recompute, keeping warm output
//! byte-identical to cold output even for degenerate configurations.

use relsim_cache::{Key, Lookup, Store};
use relsim_obs::span::{self, Stage};
use relsim_obs::{warn, Event, MetricsSnapshot, RunObs};
use serde::{Deserialize, Serialize};

/// Version stamp of the simulation model itself. Any change that alters
/// simulated results — timing model, scheduler behaviour, reliability
/// model, serialized result schema — must bump this. It is hashed into
/// every cache key (orphaning all previous entries) and recorded in run
/// manifests and result files.
pub const MODEL_VERSION: u32 = 3;

/// Derive the content key for a cached result: the digest of the
/// canonical serialization of `(site, MODEL_VERSION, input)`.
pub fn key<T: Serialize + ?Sized>(site: &str, input: &T) -> Key {
    Key::of(&(site, MODEL_VERSION, input))
}

/// [`key`] when the process-wide cache is enabled, else `None` (skipping
/// serialization + hashing entirely). The `Option<Key>` plugs directly
/// into [`crate::pool::scatter`] item tuples.
pub fn key_if_enabled<T: Serialize + ?Sized>(site: &str, input: &T) -> Option<Key> {
    if relsim_cache::enabled() {
        Some(key(site, input))
    } else {
        None
    }
}

/// Serialize a result bundle as three compact JSON lines (value,
/// events, metrics), verifying it survives a decode/re-encode round
/// trip. Returns `None` — "do not store this" — when it does not
/// (non-finite floats serialize as `null` and cannot come back).
pub fn encode_bundle<T>(value: &T, events: &[Event], metrics: &MetricsSnapshot) -> Option<Vec<u8>>
where
    T: Serialize + Deserialize,
{
    let bytes = write_lines(value, events, metrics)?;
    let (value, events, metrics) = decode_bundle::<T>(&bytes)?;
    (write_lines(&value, &events, &metrics)? == bytes).then_some(bytes)
}

/// The three compact JSON lines of a bundle.
fn write_lines<T: Serialize>(
    value: &T,
    events: &[Event],
    metrics: &MetricsSnapshot,
) -> Option<Vec<u8>> {
    let mut bytes = serde_json::to_vec(value).ok()?;
    bytes.push(b'\n');
    bytes.extend(serde_json::to_vec(events).ok()?);
    bytes.push(b'\n');
    bytes.extend(serde_json::to_vec(metrics).ok()?);
    Some(bytes)
}

/// Split a stored bundle into its value, events and metrics lines;
/// `None` unless there are exactly three.
fn lines(bytes: &[u8]) -> Option<[&[u8]; 3]> {
    let mut it = bytes.split(|&b| b == b'\n');
    match (it.next(), it.next(), it.next(), it.next()) {
        (Some(value), Some(events), Some(metrics), None) => Some([value, events, metrics]),
        _ => None,
    }
}

/// Decode a stored bundle. `None` means the payload is stale or corrupt
/// at this layer (e.g. the value shape changed without a site bump, or
/// the entry predates the three-line layout); callers treat it as a
/// miss and heal the entry.
pub fn decode_bundle<T: Deserialize>(bytes: &[u8]) -> Option<(T, Vec<Event>, MetricsSnapshot)> {
    let [value, events, metrics] = lines(bytes)?;
    Some((
        serde_json::from_slice(value).ok()?,
        serde_json::from_slice(events).ok()?,
        serde_json::from_slice(metrics).ok()?,
    ))
}

/// Decode only the value of a stored bundle, leaving its events and
/// metrics unparsed — for callers that answer from the value alone, such
/// as the serve warm path. Like [`decode_bundle`] it demands exactly
/// three lines, so an entry in an older layout reads as a miss here too.
pub fn decode_value<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    let [value, _, _] = lines(bytes)?;
    serde_json::from_slice(value).ok()
}

/// Replay a hit into `obs`: marker event, then the stored stream, then
/// the stored metrics.
fn replay_hit(
    obs: &mut RunObs,
    keyhex: String,
    tier: &'static str,
    bytes: u64,
    events: &[Event],
    metrics: &MetricsSnapshot,
) {
    obs.emit(Event::CacheHit {
        tick: 0,
        key: keyhex,
        tier: tier.to_string(),
        bytes,
    });
    let hits = obs.recorder.counter("cache.hits");
    obs.recorder.inc(hits);
    let read = obs.recorder.counter("cache.bytes_read");
    obs.recorder.add(read, bytes);
    for e in events {
        obs.sink.emit(e);
    }
    obs.recorder.merge_snapshot(metrics);
}

/// Serve one keyed computation through `store`: hit → replay the stored
/// bundle; miss → compute under the single-flight lease, store the
/// bundle (if it round-trips), and merge the fresh observations into
/// `obs`. Exactly the engine behind both the cached scatter
/// ([`crate::pool::scatter`]) and [`cached`].
pub fn run_keyed<T, F>(store: &Store, key: Key, obs: &mut RunObs, f: F) -> T
where
    T: Serialize + Deserialize,
    F: FnOnce(&mut RunObs) -> T,
{
    let mut healed = false;
    // Resolve to either a compute lease, or `None` after giving up on a
    // repeatedly undecodable entry (compute without storing).
    let lease = loop {
        match span::scope(Stage::CacheLookup, || store.lookup_or_lead(key)) {
            Lookup::Hit(payload, tier) => {
                let decoded = span::scope(Stage::CacheLookup, || decode_bundle::<T>(&payload));
                if let Some((value, events, metrics)) = decoded {
                    replay_hit(
                        obs,
                        key.hex(),
                        tier.name(),
                        payload.len() as u64,
                        &events,
                        &metrics,
                    );
                    return value;
                }
                warn!("cache: entry {key} does not decode at this site; recomputing");
                store.invalidate(key);
                if healed {
                    break None;
                }
                healed = true;
            }
            Lookup::Lead(lease) => break Some(lease),
        }
    };

    // Compute into a private buffered observer so the bundle captures
    // the job's events and metrics, then merge them out in order.
    let mut inner = RunObs::buffered();
    let value = f(&mut inner);
    let events = inner.sink.take_events().unwrap_or_default();
    let metrics = inner.recorder.snapshot();

    obs.emit(Event::CacheMiss {
        tick: 0,
        key: key.hex(),
    });
    let misses = obs.recorder.counter("cache.misses");
    obs.recorder.inc(misses);
    for e in &events {
        obs.sink.emit(e);
    }
    obs.recorder.merge(&inner.recorder);

    if lease.is_some() {
        let stored = span::scope(Stage::CacheStore, || {
            encode_bundle(&value, &events, &metrics).map(|bytes| {
                let n = bytes.len() as u64;
                store.put(key, bytes);
                n
            })
        });
        match stored {
            Some(n) => {
                obs.emit(Event::CacheStore {
                    tick: 0,
                    key: key.hex(),
                    bytes: n,
                });
                let stores = obs.recorder.counter("cache.stores");
                obs.recorder.inc(stores);
                let written = obs.recorder.counter("cache.bytes_written");
                obs.recorder.add(written, n);
            }
            None => {
                warn!(
                    "cache: result for {key} does not round-trip (non-finite values?); not stored"
                );
            }
        }
    }
    // Lease (if held) drops here, waking any single-flight waiters.
    value
}

/// Cache one whole computation under the process-wide store: compute
/// `f` through the cache keyed by `(site, MODEL_VERSION, input)`, or run
/// it directly when caching is disabled. For single-result call sites
/// (e.g. whole-figure drivers); grids go through
/// [`crate::pool::scatter`].
pub fn cached<T, F, In>(site: &str, input: &In, obs: &mut RunObs, f: F) -> T
where
    T: Serialize + Deserialize,
    In: Serialize + ?Sized,
    F: FnOnce(&mut RunObs) -> T,
{
    match relsim_cache::global() {
        Some(store) => run_keyed(&store, key(site, input), obs, f),
        None => f(obs),
    }
}

/// Serialize tests that reconfigure the process-wide store (it is one
/// per process, and `cargo test` threads share it).
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relsim_cache::CacheConfig;

    #[test]
    fn bundle_round_trips() {
        let events = vec![Event::RunEnd {
            tick: 10,
            quanta: 1,
            migrations: 0,
            instructions: 99,
        }];
        let mut rec = relsim_obs::Recorder::new();
        let c = rec.counter("test.count");
        rec.add(c, 5);
        let snap = rec.snapshot();
        let value = (1.5f64, "milc".to_string());
        let bytes = encode_bundle(&value, &events, &snap).expect("finite bundle stores");
        let (v2, e2, m2) = decode_bundle::<(f64, String)>(&bytes).expect("decodes");
        assert_eq!(v2, value);
        assert_eq!(e2, events);
        assert_eq!(m2, snap);
        assert_eq!(decode_value::<(f64, String)>(&bytes), Some(value));
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);
    }

    #[test]
    fn single_array_layout_does_not_decode() {
        let snap = relsim_obs::Recorder::new().snapshot();
        let value = "line one\nline two".to_string();
        let old = serde_json::to_vec(&(&value, Vec::<Event>::new(), &snap)).unwrap();
        assert!(decode_bundle::<String>(&old).is_none());
        assert!(decode_value::<String>(&old).is_none());
        let bytes = encode_bundle(&value, &[], &snap).unwrap();
        assert_eq!(decode_value::<String>(&bytes), Some(value));
        // A fourth line, or a missing third, is not a bundle either.
        let mut four = bytes.clone();
        four.extend(b"\nnull");
        assert!(decode_value::<String>(&four).is_none());
        let two = &bytes[..bytes.iter().rposition(|&b| b == b'\n').unwrap()];
        assert!(decode_value::<String>(two).is_none());
    }

    #[test]
    fn non_finite_bundles_are_refused() {
        let snap = relsim_obs::Recorder::new().snapshot();
        assert!(encode_bundle(&f64::NAN, &[], &snap).is_none());
        assert!(encode_bundle(&f64::INFINITY, &[], &snap).is_none());
        assert!(encode_bundle(&1.25f64, &[], &snap).is_some());
    }

    #[test]
    fn negative_zero_bundles_are_stored() {
        let snap = relsim_obs::Recorder::new().snapshot();
        let value = (-0.0f64, vec![1.5f64, -0.0]);
        let bytes = encode_bundle(&value, &[], &snap).expect("-0.0 survives the round trip");
        let (back, _, _) = decode_bundle::<(f64, Vec<f64>)>(&bytes).unwrap();
        assert!(back.0.is_sign_negative() && back.1[1].is_sign_negative());
    }

    #[test]
    fn key_separates_sites_versions_and_inputs() {
        let a = key("site-a/v1", &42u64);
        assert_eq!(a, key("site-a/v1", &42u64));
        assert_ne!(a, key("site-b/v1", &42u64));
        assert_ne!(a, key("site-a/v2", &42u64));
        assert_ne!(a, key("site-a/v1", &43u64));
    }

    #[test]
    fn run_keyed_hit_replays_events_and_metrics() {
        let store = Store::new(CacheConfig::default());
        let k = Key::of(&"run-keyed-replay");
        let body = |obs: &mut RunObs| -> u64 {
            obs.emit(Event::RunEnd {
                tick: 7,
                quanta: 2,
                migrations: 1,
                instructions: 100,
            });
            let c = obs.recorder.counter("work.done");
            obs.recorder.add(c, 3);
            41
        };

        let mut cold = RunObs::buffered();
        assert_eq!(run_keyed(&store, k, &mut cold, body), 41);
        let mut warm = RunObs::buffered();
        assert_eq!(run_keyed(&store, k, &mut warm, body), 41);

        let cold_events = cold.sink.take_events().unwrap();
        let warm_events = warm.sink.take_events().unwrap();
        // Cold: miss marker, job events, store marker. Warm: hit marker,
        // then the identical job events.
        assert!(matches!(cold_events[0], Event::CacheMiss { .. }));
        assert!(matches!(warm_events[0], Event::CacheHit { .. }));
        let job_of = |evs: &[Event]| -> Vec<Event> {
            evs.iter()
                .filter(|e| {
                    !matches!(
                        e,
                        Event::CacheHit { .. } | Event::CacheMiss { .. } | Event::CacheStore { .. }
                    )
                })
                .cloned()
                .collect()
        };
        assert_eq!(job_of(&cold_events), job_of(&warm_events));
        assert_eq!(
            warm.recorder.snapshot().counter("work.done"),
            Some(3),
            "hit merges the stored metrics"
        );
        let s = store.stats();
        assert_eq!((s.misses, s.hits, s.stores), (1, 1, 1));
    }

    #[test]
    fn undecodable_entry_is_healed_and_recomputed() {
        let store = Store::new(CacheConfig::default());
        let k = Key::of(&"healing");
        // Plant a payload that is valid at the store layer but garbage
        // as a bundle.
        match store.lookup_or_lead(k) {
            Lookup::Lead(lease) => {
                store.put(k, b"not json at all".to_vec());
                drop(lease);
            }
            Lookup::Hit(..) => panic!("fresh store cannot hit"),
        }
        let mut obs = RunObs::disabled();
        let got: u64 = run_keyed(&store, k, &mut obs, |_| 7);
        assert_eq!(got, 7);
        assert_eq!(store.stats().invalidations, 1);
        // The recompute re-stored a good bundle: next call hits.
        let mut obs2 = RunObs::disabled();
        let again: u64 = run_keyed(&store, k, &mut obs2, |_| panic!("must hit"));
        assert_eq!(again, 7);
    }

    #[test]
    fn cached_is_transparent_when_disabled() {
        let _guard = test_guard();
        relsim_cache::configure(None);
        let mut obs = RunObs::buffered();
        let v: u64 = cached("off/v1", &1u8, &mut obs, |o| {
            o.emit(Event::RunEnd {
                tick: 1,
                quanta: 1,
                migrations: 0,
                instructions: 1,
            });
            9
        });
        assert_eq!(v, 9);
        let events = obs.sink.take_events().unwrap();
        assert_eq!(events.len(), 1, "no cache markers when disabled");
        assert!(matches!(events[0], Event::RunEnd { .. }));
    }
}
