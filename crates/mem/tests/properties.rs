//! Property-based tests of the cache and memory-controller models,
//! including the hierarchy invariants the interval-sampling engine's
//! functional warming relies on (fills establish presence at every
//! private level; access latencies are exactly the level floors plus
//! bounded bus queueing).

use proptest::prelude::*;
use relsim_mem::{
    Cache, CacheConfig, CacheStats, MemController, MemControllerConfig, MemLevel,
    PrivateCacheConfig, PrivateCaches, SharedMem, SharedMemConfig,
};

fn cache_strategy() -> impl Strategy<Value = CacheConfig> {
    // Small caches so property runs are fast: 2^s sets, 1-8 ways.
    (0u32..6, 1u32..9).prop_map(|(set_bits, ways)| {
        let sets = 1u64 << set_bits;
        CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            ways,
            line_bytes: 64,
            latency: 1,
        }
    })
}

proptest! {
    /// Immediately re-accessing any address hits.
    #[test]
    fn access_then_hit(cfg in cache_strategy(), addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = Cache::new(cfg);
        for addr in addrs {
            let _ = c.access(addr, false);
            prop_assert!(c.access(addr, false), "addr {addr:#x} must hit after fill");
        }
    }

    /// The cache never holds more distinct lines than its capacity.
    #[test]
    fn capacity_respected(cfg in cache_strategy(), addrs in prop::collection::vec(0u64..10_000_000, 1..500)) {
        let mut c = Cache::new(cfg);
        let mut inserted: Vec<u64> = Vec::new();
        for addr in addrs {
            let _ = c.access(addr, false);
            let line = addr / 64 * 64;
            if !inserted.contains(&line) {
                inserted.push(line);
            }
        }
        let resident = inserted.iter().filter(|&&l| c.contains(l)).count() as u64;
        let capacity_lines = cfg.size_bytes / cfg.line_bytes;
        prop_assert!(resident <= capacity_lines, "{resident} lines in a {capacity_lines}-line cache");
    }

    /// Hits + misses always equals accesses; hit count matches a
    /// reference model when the working set fits one way-set.
    #[test]
    fn stats_are_consistent(cfg in cache_strategy(), addrs in prop::collection::vec(0u64..1_000_000, 0..300)) {
        let mut c = Cache::new(cfg);
        for &addr in &addrs {
            let _ = c.access(addr, false);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        prop_assert_eq!(s.hits + s.misses(), s.accesses);
        prop_assert!(s.miss_ratio() >= 0.0 && s.miss_ratio() <= 1.0);
    }

    /// A direct-comparison LRU model: for a single set, the cache's
    /// hit/miss sequence matches a straightforward LRU list.
    #[test]
    fn matches_reference_lru_for_single_set(
        ways in 1u32..9,
        lines in prop::collection::vec(0u64..12, 1..300),
    ) {
        // One set: sets = 1, so every line maps there.
        let cfg = CacheConfig {
            size_bytes: ways as u64 * 64,
            ways,
            line_bytes: 64,
            latency: 1,
        };
        let mut c = Cache::new(cfg);
        let mut lru: Vec<u64> = Vec::new(); // front = most recent
        for line in lines {
            let addr = line * 64;
            let expect_hit = lru.contains(&line);
            let got_hit = c.access(addr, false);
            prop_assert_eq!(got_hit, expect_hit, "line {} divergence", line);
            lru.retain(|&l| l != line);
            lru.insert(0, line);
            lru.truncate(ways as usize);
        }
    }

    /// Write-backs only happen for lines that were written.
    #[test]
    fn writebacks_bounded_by_writes(
        ops in prop::collection::vec((0u64..2048, prop::bool::ANY), 1..400),
    ) {
        let cfg = CacheConfig { size_bytes: 4 * 64, ways: 2, line_bytes: 64, latency: 1 };
        let mut c = Cache::new(cfg);
        let mut writes = 0u64;
        for (line, is_write) in ops {
            let _ = c.access(line * 64, is_write);
            writes += is_write as u64;
        }
        prop_assert!(c.stats().writebacks <= writes);
    }

    /// Memory controller completions are monotone in request order and
    /// never earlier than latency + transfer.
    #[test]
    fn controller_completions_monotone(
        gaps in prop::collection::vec(0u64..50, 1..200),
        cfg in (1u64..300, 1u64..30).prop_map(|(l, t)| MemControllerConfig {
            latency_ticks: l,
            transfer_ticks: t,
        }),
    ) {
        let mut ctrl = MemController::new(cfg);
        let mut now = 0u64;
        let mut last_done = 0u64;
        for gap in gaps {
            now += gap;
            let done = ctrl.request(now);
            prop_assert!(done >= now + cfg.latency_ticks + cfg.transfer_ticks);
            prop_assert!(done >= last_done, "completions must be monotone");
            last_done = done;
        }
    }

    /// Inclusion on the fill path: driving an L1/L2 pair the way
    /// `PrivateCaches::access_data` does (L1 first, then L2 on miss, both
    /// filling), the just-accessed line is always present in both levels
    /// afterwards — the invariant that makes functional warming through
    /// `access_data` warm every private level at once.
    #[test]
    fn fill_establishes_presence_in_both_levels(
        l1 in cache_strategy(),
        l2 in cache_strategy(),
        addrs in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let mut l1 = Cache::new(l1);
        let mut l2 = Cache::new(l2);
        for addr in addrs {
            if !l1.access(addr, false) {
                let _ = l2.access(addr, false);
            }
            prop_assert!(l1.contains(addr), "L1 lost the line it just served");
            // L1 hits may outlive the line's L2 residency (no
            // back-invalidation), but a fill that went through L2 must
            // have established it there.
            if !l2.contains(addr) {
                prop_assert!(l1.contains(addr));
            }
        }
    }

    /// Every timed access completes at exactly its level's latency floor;
    /// only memory accesses may exceed theirs, and then only by the bus
    /// queueing bound (one transfer per earlier request).
    #[test]
    fn hierarchy_latency_matches_level_floor(
        addrs in prop::collection::vec((0u64..(4u64 << 20), prop::bool::ANY), 1..300),
        gaps in prop::collection::vec(0u64..200, 1..300),
    ) {
        let pcfg = PrivateCacheConfig::default();
        let scfg = SharedMemConfig::default();
        let mut p = PrivateCaches::new(pcfg, 1);
        let mut s = SharedMem::new(scfg);
        let (l1, l2) = (pcfg.l1d.latency, pcfg.l1d.latency + pcfg.l2.latency);
        let l3 = l2 + scfg.l3.latency;
        let dram_floor = l3 + scfg.controller.latency_ticks + scfg.controller.transfer_ticks;
        let mut now = 0u64;
        let mut dram_requests = 0u64;
        for ((addr, is_write), gap) in addrs.into_iter().zip(gaps) {
            now += gap;
            let o = p.access_data(addr, is_write, now, &mut s);
            let lat = o.complete_at - now;
            match o.level {
                MemLevel::L1 => prop_assert_eq!(lat, l1),
                MemLevel::L2 => prop_assert_eq!(lat, l2),
                MemLevel::L3 => prop_assert_eq!(lat, l3),
                MemLevel::Memory => {
                    prop_assert!(lat >= dram_floor, "memory access beat the DRAM floor");
                    // Queue wait is bounded by the transfers still
                    // draining: one line per earlier request.
                    prop_assert!(
                        lat <= dram_floor + dram_requests * scfg.controller.transfer_ticks,
                        "queue wait exceeds outstanding-transfer bound"
                    );
                }
            }
            // Prefetches (disabled by default) would add extra requests;
            // count only demand traffic for the occupancy bound.
            dram_requests = s.controller_stats().requests;
        }
    }

    /// Bus-occupancy accounting: with monotone arrivals, each request's
    /// queueing delay is bounded by one transfer per request before it,
    /// and the recorded `queue_ticks` equal the sum of individual delays.
    #[test]
    fn controller_queue_occupancy_bounded(
        gaps in prop::collection::vec(0u64..30, 1..200),
        cfg in (1u64..200, 1u64..20).prop_map(|(l, t)| MemControllerConfig {
            latency_ticks: l,
            transfer_ticks: t,
        }),
    ) {
        let mut ctrl = MemController::new(cfg);
        let mut now = 0u64;
        let mut delays = 0u64;
        for (i, gap) in gaps.iter().enumerate() {
            now += gap;
            let done = ctrl.request(now);
            let delay = done - now - cfg.latency_ticks - cfg.transfer_ticks;
            prop_assert!(
                delay <= i as u64 * cfg.transfer_ticks,
                "request {i} queued {delay} ticks behind at most {i} transfers"
            );
            delays += delay;
        }
        prop_assert_eq!(ctrl.stats().queue_ticks, delays);
    }

    /// Bandwidth accounting: over any request train, the bus serves at
    /// most one line per transfer window.
    #[test]
    fn controller_respects_bandwidth(
        n in 1usize..200,
        cfg in (1u64..100, 1u64..20).prop_map(|(l, t)| MemControllerConfig {
            latency_ticks: l,
            transfer_ticks: t,
        }),
    ) {
        let mut ctrl = MemController::new(cfg);
        // All requests arrive at tick 0: completion i = latency + (i+1)*transfer.
        let mut last = 0;
        for i in 0..n {
            let done = ctrl.request(0);
            prop_assert_eq!(done, cfg.latency_ticks + (i as u64 + 1) * cfg.transfer_ticks);
            prop_assert!(done > last);
            last = done;
        }
    }
}

/// Reference model: per set, a list of `(line, dirty)`, most recent
/// first, driven one line at a time.
struct LruModel {
    sets: u64,
    ways: usize,
    line_bytes: u64,
    lists: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl LruModel {
    fn new(cfg: CacheConfig) -> Self {
        LruModel {
            sets: cfg.sets(),
            ways: cfg.ways as usize,
            line_bytes: cfg.line_bytes,
            lists: vec![Vec::new(); cfg.sets() as usize],
            stats: CacheStats::default(),
        }
    }

    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let line = addr / self.line_bytes;
        let list = &mut self.lists[(line % self.sets) as usize];
        self.stats.accesses += 1;
        let hit = list.iter().position(|&(l, _)| l == line);
        let was_dirty = hit.is_some_and(|i| list.remove(i).1);
        list.insert(0, (line, was_dirty || is_write));
        if list.len() > self.ways && list.pop().is_some_and(|(_, dirty)| dirty) {
            self.stats.writebacks += 1;
        }
        self.stats.hits += u64::from(hit.is_some());
        hit.is_some()
    }

    /// The per-line sweep, statistics left alone.
    fn fill(&mut self, base: u64, bytes: u64) {
        let stats = self.stats;
        let mut addr = base;
        while addr < base + bytes {
            let _ = self.access(addr, false);
            addr += self.line_bytes;
        }
        self.stats = stats;
    }

    fn contains(&self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        self.lists[(line % self.sets) as usize]
            .iter()
            .any(|&(l, _)| l == line)
    }

    fn flush(&mut self) {
        self.lists.iter_mut().for_each(Vec::clear);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(u64, bool),
    /// A sweep of `lines` lines from an offset into the traffic window,
    /// or into a fresh 64 GB region no other operation touches.
    Fill {
        fresh: bool,
        offset: u64,
        lines: u64,
    },
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Of every 47 operations, 40 are accesses, 6 sweeps and 1 a flush.
    (0u32..47, 0u64..1 << 20, 0u64..1 << 20, prop::bool::ANY).prop_map(|(kind, a, b, flag)| {
        match kind {
            0..40 => Op::Access(a, flag),
            40..46 => Op::Fill {
                fresh: flag,
                offset: a,
                lines: b,
            },
            _ => Op::Flush,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The cache agrees with a per-set LRU list that tracks dirty bits,
    /// under random reads and writes, `fill_sequential` sweeps (the
    /// model runs the per-line loop) and flushes, on 1-12 sets (powers of
    /// two or not) and 1-16 ways: the hit or miss of every access,
    /// residency over every range touched, and the final statistics,
    /// write-backs included.
    #[test]
    fn matches_lru_list_model(
        (sets, ways) in (1u64..13, 1u32..17),
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let line = 64;
        let cfg = CacheConfig { size_bytes: sets * ways as u64 * line, ways, line_bytes: line, latency: 1 };
        let capacity = sets * ways as u64;
        // Traffic covers three capacities; a sweep runs up to three
        // capacities, so sets are read below `ways`, between `ways` and
        // `2 * ways`, and past `2 * ways` times.
        let window = 3 * capacity * line;
        let mut cache = Cache::new(cfg);
        let mut model = LruModel::new(cfg);
        let mut touched = vec![(0, window)];
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Access(a, is_write) => {
                    let addr = a % window;
                    prop_assert_eq!(
                        cache.access(addr, is_write),
                        model.access(addr, is_write),
                        "op {}: access to {:#x}", i, addr
                    );
                }
                Op::Fill { fresh, offset, lines } => {
                    let region = if fresh { (i as u64 + 1) << 36 } else { 0 };
                    let base = region + offset % window;
                    let bytes = ((lines % (3 * capacity + 1)) * line).saturating_sub(offset % line);
                    cache.fill_sequential(base, bytes);
                    model.fill(base, bytes);
                    touched.push((base, bytes));
                }
                Op::Flush => {
                    cache.flush();
                    model.flush();
                }
            }
        }
        for &(base, bytes) in &touched {
            let mut addr = base - base % line;
            while addr < base + bytes {
                prop_assert_eq!(cache.contains(addr), model.contains(addr), "residency of {:#x}", addr);
                addr += line;
            }
        }
        prop_assert_eq!(cache.stats(), model.stats);
    }
}

/// The per-line warm-up loop `Cache::fill_sequential` replaces, kept as
/// its reference.
fn sweep_per_line(c: &mut Cache, base: u64, bytes: u64) {
    let line = c.config().line_bytes;
    let mut addr = base;
    while addr < base + bytes {
        let _ = c.access(addr, false);
        addr += line;
    }
}

/// Warm `[base, base + bytes)` with the closed-form fill on `fast` and
/// the per-line loop on `slow` (two caches in the same state), reset
/// both caches' statistics and check that nothing downstream can tell
/// them apart: residency over the swept range, the hit or miss of every
/// access in `follow`, and the write-backs that stream causes.
fn check_fill_matches_loop(
    mut fast: Cache,
    mut slow: Cache,
    base: u64,
    bytes: u64,
    follow: &[(u64, bool)],
) -> Result<(), String> {
    fast.fill_sequential(base, bytes);
    sweep_per_line(&mut slow, base, bytes);
    fast.reset_stats();
    slow.reset_stats();
    let line = fast.config().line_bytes;
    let mut addr = base;
    while addr < base + bytes {
        if fast.contains(addr) != slow.contains(addr) {
            return Err(format!("residency of {addr:#x} differs after the fill"));
        }
        addr += line;
    }
    for (i, &(addr, is_write)) in follow.iter().enumerate() {
        let (f, s) = (fast.access(addr, is_write), slow.access(addr, is_write));
        if f != s {
            return Err(format!(
                "follow-up access {i} to {addr:#x}: fill hit={f}, loop hit={s}"
            ));
        }
    }
    if fast.stats() != slow.stats() {
        return Err(format!(
            "follow-up stats differ: fill {:?}, loop {:?}",
            fast.stats(),
            slow.stats()
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// `Cache::fill_sequential` is indistinguishable from the per-line
    /// loop it replaces. Geometries include set counts that are not
    /// powers of two; the prior history writes, so dirty lines sit
    /// inside the swept range; bases are unaligned; and sweeps run below
    /// 1x, between 1x and 2x, and above 2x capacity, so sets land on
    /// both sides of the `ways` and `2 * ways` read counts.
    #[test]
    fn fill_sequential_matches_per_line_loop(
        (sets, ways, line_shift) in (1u64..13, 1u32..9, 4u32..7),
        history in prop::collection::vec((0u64..1 << 20, prop::bool::ANY), 0..300),
        (bucket, len_frac, skew, start_line) in (0usize..3, 0u64..1000, 0u64..64, 0u64..64),
        follow in prop::collection::vec((0u64..1 << 20, prop::bool::ANY), 1..400),
    ) {
        let line = 1u64 << line_shift;
        let cfg = CacheConfig { size_bytes: sets * ways as u64 * line, ways, line_bytes: line, latency: 1 };
        let capacity = sets * ways as u64;
        // Sweep length in lines: [0, 1x), [1x, 2x) or [2x, 4x) capacity.
        let (lo, span) = [(0, capacity), (capacity, capacity), (2 * capacity, 2 * capacity)][bucket];
        let base = (1 << 16) + start_line * line + skew % line;
        let bytes = ((lo + len_frac % span) * line).saturating_sub(skew / 2 % line);
        // History and follow-up traffic cover the swept range and one
        // capacity either side of it.
        let lo_addr = base - capacity * line;
        let window = bytes + 2 * capacity * line;
        let mut fast = Cache::new(cfg);
        for &(a, is_write) in &history {
            let _ = fast.access(lo_addr + a % window, is_write);
        }
        let slow = fast.clone();
        let follow: Vec<(u64, bool)> = follow.iter().map(|&(a, w)| (lo_addr + a % window, w)).collect();
        check_fill_matches_loop(fast, slow, base, bytes, &follow).map_err(TestCaseError::fail)?;
    }
}

/// The Table 2 L3 warmed the way `System::new` warms it. First, two
/// applications' 12 MB regions in turn, the first written to beforehand
/// and the second at an unaligned base. Then, on an empty L3, five real
/// applications' `l3_warm_span`s in turn at their `System::new` bases
/// (`i << 36`): 1, 2, 4, 8 and 32 MB, so each set is read 2, 4, 8, 16
/// and 64 times, and the sets read fewer than 16 times take the closed
/// form for sets that hold none of their swept tags.
#[test]
fn fill_sequential_matches_per_line_loop_on_the_l3() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let (a, b, region) = (1u64 << 36, (2u64 << 36) + 40, 12u64 << 20);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut fast = Cache::new(SharedMemConfig::default().l3);
    for _ in 0..20_000 {
        let _ = fast.access(a + rng.gen_range(0..region), rng.gen_bool(0.5));
    }
    let mut slow = fast.clone();
    fast.fill_sequential(a, region);
    sweep_per_line(&mut slow, a, region);
    let follow: Vec<(u64, bool)> = (0..50_000)
        .map(|_| {
            let base = if rng.gen_bool(0.5) { a } else { b };
            (base + rng.gen_range(0..region), rng.gen_bool(0.3))
        })
        .collect();
    check_fill_matches_loop(fast, slow, b, region, &follow).unwrap();

    let spans: Vec<(u64, u64)> = ["gobmk", "perlbench", "bzip2", "gcc", "milc"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let profile = relsim_trace::spec_profile(name).expect("a SPEC profile");
            relsim_trace::TraceGenerator::new(profile, 1, (i as u64) << 36).l3_warm_span()
        })
        .collect();
    let mb: Vec<u64> = spans.iter().map(|&(_, bytes)| bytes >> 20).collect();
    assert_eq!(mb, [1, 2, 4, 8, 32], "warm spans in MB");
    let mut fast = Cache::new(SharedMemConfig::default().l3);
    let mut slow = fast.clone();
    let (&(last_base, last_bytes), earlier) = spans.split_last().expect("five spans");
    for &(base, bytes) in earlier {
        fast.fill_sequential(base, bytes);
        sweep_per_line(&mut slow, base, bytes);
        let mut addr = base;
        while addr < base + bytes {
            assert_eq!(fast.contains(addr), slow.contains(addr), "{addr:#x}");
            addr += 64;
        }
    }
    let follow: Vec<(u64, bool)> = (0..50_000)
        .map(|_| {
            let (base, bytes) = spans[rng.gen_range(0..spans.len())];
            (base + rng.gen_range(0..bytes), rng.gen_bool(0.3))
        })
        .collect();
    check_fill_matches_loop(fast, slow, last_base, last_bytes, &follow).unwrap();
}
