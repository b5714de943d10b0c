//! Per-core private caches plus the shared L3/DRAM backend.
//!
//! Each core owns a [`PrivateCaches`] instance (L1I, L1D, private L2); all
//! cores share one [`SharedMem`] (L3 + memory controller), which is where
//! multiprogram interference arises.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::controller::{MemController, MemControllerConfig, MemControllerStats};
use crate::prefetch::{PrefetchConfig, PrefetchStats, Prefetcher};
use serde::{Deserialize, Serialize};

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemLevel {
    /// L1 data (or instruction) cache hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared L3 hit — the "LLC" component of the paper's CPI stacks.
    L3,
    /// Main memory access.
    Memory,
}

/// Outcome of a timed data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Tick at which the data is available.
    pub complete_at: u64,
    /// Deepest level that had to be consulted.
    pub level: MemLevel,
}

/// Configuration of one core's private hierarchy (Table 2 values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrivateCacheConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private unified L2.
    pub l2: CacheConfig,
    /// L2 stream prefetcher (disabled by default, the paper's baseline).
    pub prefetch: PrefetchConfig,
}

impl Default for PrivateCacheConfig {
    /// The Table 2 configuration: 32 KB 4-way L1I (2 cyc), 32 KB 8-way L1D
    /// (4 cyc), 256 KB 8-way L2 (8 cyc), all with 64 B lines.
    fn default() -> Self {
        PrivateCacheConfig {
            l1i: CacheConfig {
                size_bytes: 32 << 10,
                ways: 4,
                line_bytes: 64,
                latency: 2,
            },
            l1d: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                ways: 8,
                line_bytes: 64,
                latency: 8,
            },
            prefetch: PrefetchConfig::default(),
        }
    }
}

/// Configuration of the shared backend (Table 2 values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMemConfig {
    /// Shared L3: 8 MB, 16-way, 30-cycle latency.
    pub l3: CacheConfig,
    /// DRAM: 25.6 GB/s, 45 ns.
    pub controller: MemControllerConfig,
}

impl Default for SharedMemConfig {
    fn default() -> Self {
        SharedMemConfig {
            l3: CacheConfig {
                size_bytes: 8 << 20,
                ways: 16,
                line_bytes: 64,
                latency: 30,
            },
            controller: MemControllerConfig::default(),
        }
    }
}

/// The shared L3 cache and memory controller.
#[derive(Debug, Clone)]
pub struct SharedMem {
    l3: Cache,
    controller: MemController,
}

impl SharedMem {
    /// Build the shared backend.
    pub fn new(cfg: SharedMemConfig) -> Self {
        SharedMem {
            l3: Cache::new(cfg.l3),
            controller: MemController::new(cfg.controller),
        }
    }

    /// Access the shared levels at tick `now` (already past the private
    /// levels). Returns the extra completion time and deepest level.
    pub fn access(&mut self, addr: u64, is_write: bool, now: u64) -> AccessOutcome {
        let l3_lat = self.l3.config().latency;
        if self.l3.access(addr, is_write) {
            AccessOutcome {
                complete_at: now + l3_lat,
                level: MemLevel::L3,
            }
        } else {
            let complete_at = self.controller.request(now + l3_lat);
            AccessOutcome {
                complete_at,
                level: MemLevel::Memory,
            }
        }
    }

    /// Tick at which the memory bus becomes free for a new transfer; see
    /// [`MemController::bus_free_at`]. Because every shared-level access
    /// resolves eagerly at request time, this is the only
    /// earliest-completion state the backend holds — there are no pending
    /// callbacks a cycle-skipping core could miss.
    pub fn bus_free_at(&self) -> u64 {
        self.controller.bus_free_at()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// Memory-controller statistics.
    pub fn controller_stats(&self) -> MemControllerStats {
        self.controller.stats()
    }

    /// Reset all statistics (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        self.l3.reset_stats();
        self.controller.reset_stats();
    }

    /// Add the shared hierarchy's miss/bandwidth totals to `rec` under
    /// `mem.l3.*` / `mem.dram.*`. Totals are cumulative since construction
    /// (or the last [`SharedMem::reset_stats`]), so call this once per run.
    pub fn record_metrics(&self, rec: &mut relsim_obs::Recorder) {
        let l3 = self.l3_stats();
        let dram = self.controller_stats();
        for (name, value) in [
            ("mem.l3.accesses", l3.accesses),
            ("mem.l3.misses", l3.misses()),
            ("mem.l3.writebacks", l3.writebacks),
            ("mem.dram.requests", dram.requests),
            ("mem.dram.queue_ticks", dram.queue_ticks),
        ] {
            let id = rec.counter(name);
            rec.add(id, value);
        }
    }

    /// Untimed warm-up of the shared L3: one read per line over an
    /// address range, as [`Cache::fill_sequential`] computes it. L3
    /// statistics are reset afterwards.
    pub fn warm_region(&mut self, base: u64, bytes: u64) {
        self.l3.fill_sequential(base, bytes);
        self.l3.reset_stats();
    }
}

/// One core's private L1I/L1D/L2.
#[derive(Debug, Clone)]
pub struct PrivateCaches {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    prefetcher: Prefetcher,
    /// Per-level latencies pre-multiplied by the core's ticks-per-cycle
    /// (1 at full frequency, 2 at half), so the hit path does no
    /// arithmetic beyond an add.
    l1i_lat: u64,
    l1d_lat: u64,
    l2_lat: u64,
    /// `!(line_bytes - 1)` for the L2 line, for prefetch line rounding.
    line_mask: u64,
}

impl PrivateCaches {
    /// Build a private hierarchy. `ticks_per_cycle` scales latencies for
    /// cores running below the reference frequency.
    pub fn new(cfg: PrivateCacheConfig, ticks_per_cycle: u64) -> Self {
        assert!(ticks_per_cycle >= 1);
        PrivateCaches {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            prefetcher: Prefetcher::new(cfg.prefetch),
            l1i_lat: cfg.l1i.latency * ticks_per_cycle,
            l1d_lat: cfg.l1d.latency * ticks_per_cycle,
            l2_lat: cfg.l2.latency * ticks_per_cycle,
            line_mask: !(cfg.l2.line_bytes - 1),
        }
    }

    /// Prefetcher statistics.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetcher.stats()
    }

    /// Timed data access (load or store) starting at tick `now`.
    pub fn access_data(
        &mut self,
        addr: u64,
        is_write: bool,
        now: u64,
        shared: &mut SharedMem,
    ) -> AccessOutcome {
        relsim_obs::span::scope(relsim_obs::span::Stage::MemWalk, || {
            self.access_data_inner(addr, is_write, now, shared)
        })
    }

    fn access_data_inner(
        &mut self,
        addr: u64,
        is_write: bool,
        now: u64,
        shared: &mut SharedMem,
    ) -> AccessOutcome {
        let l1_lat = self.l1d_lat;
        if self.l1d.access(addr, is_write) {
            return AccessOutcome {
                complete_at: now + l1_lat,
                level: MemLevel::L1,
            };
        }
        let l2_lat = self.l2_lat;
        let line_bytes = self.l2.config().line_bytes;
        let line_addr = addr & self.line_mask;
        if self.l2.access(addr, is_write) {
            self.prefetcher.note_demand(line_addr);
            return AccessOutcome {
                complete_at: now + l1_lat + l2_lat,
                level: MemLevel::L2,
            };
        }
        // L2 demand miss: trigger the stream prefetcher. Prefetches fill
        // L2 through the shared hierarchy (consuming L3/memory bandwidth)
        // but nothing waits on them.
        for line in self.prefetcher.lines_after_miss(line_addr, line_bytes) {
            if !self.l2.contains(line) {
                let _ = shared.access(line, false, now + l1_lat + l2_lat);
                let _ = self.l2.access(line, false);
            }
        }
        shared.access(addr, is_write, now + l1_lat + l2_lat)
    }

    /// Timed instruction-fetch access starting at tick `now`.
    ///
    /// A fetch that misses the L1I is served by the private L2 (instruction
    /// working sets that spill past L2 are rare for SPEC-class workloads and
    /// are folded into the same path).
    pub fn access_instr(&mut self, addr: u64, now: u64, shared: &mut SharedMem) -> AccessOutcome {
        relsim_obs::span::scope(relsim_obs::span::Stage::MemWalk, || {
            self.access_instr_inner(addr, now, shared)
        })
    }

    fn access_instr_inner(&mut self, addr: u64, now: u64, shared: &mut SharedMem) -> AccessOutcome {
        let l1_lat = self.l1i_lat;
        if self.l1i.access(addr, false) {
            return AccessOutcome {
                complete_at: now + l1_lat,
                level: MemLevel::L1,
            };
        }
        let l2_lat = self.l2_lat;
        if self.l2.access(addr, false) {
            return AccessOutcome {
                complete_at: now + l1_lat + l2_lat,
                level: MemLevel::L2,
            };
        }
        shared.access(addr, false, now + l1_lat + l2_lat)
    }

    /// Statistics of (L1I, L1D, L2).
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats())
    }

    /// Add this hierarchy's access/miss totals to `rec`, aggregated under
    /// `mem.l1.*` / `mem.l2.*` (call once per core per run; totals from
    /// multiple cores accumulate into the same counters).
    pub fn record_metrics(&self, rec: &mut relsim_obs::Recorder) {
        let (l1i, l1d, l2) = self.stats();
        for (name, value) in [
            ("mem.l1.accesses", l1i.accesses + l1d.accesses),
            ("mem.l1.misses", l1i.misses() + l1d.misses()),
            ("mem.l2.accesses", l2.accesses),
            ("mem.l2.misses", l2.misses()),
            ("mem.prefetch.issued", self.prefetch_stats().issued),
        ] {
            let id = rec.counter(name);
            rec.add(id, value);
        }
    }

    /// Reset statistics of all three levels.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }

    /// Invalidate all private caches (used when an application migrates to
    /// this core and brings no warm state with it).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }

    /// Untimed warm-up of the data path (L1D and L2) over an address
    /// range: each level reads one address per line of its own, as
    /// [`Cache::fill_sequential`] computes it. This stands in for the warm
    /// state a SimPoint would carry.
    ///
    /// L1D and L2 statistics are reset afterwards, and L1I's are not. A
    /// caller that warms mid-run (`System::run_traced` does on every
    /// migration) therefore perturbs measurements: from then on
    /// [`PrivateCaches::stats`] counts L1D and L2 accesses only since the
    /// last warm-up, while L1I still counts the whole run.
    pub fn warm_region(&mut self, base: u64, bytes: u64) {
        self.l1d.fill_sequential(base, bytes);
        self.l2.fill_sequential(base, bytes);
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PrivateCaches, SharedMem) {
        (
            PrivateCaches::new(PrivateCacheConfig::default(), 1),
            SharedMem::new(SharedMemConfig::default()),
        )
    }

    #[test]
    fn latency_accumulates_down_the_hierarchy() {
        let (mut p, mut s) = setup();
        // Cold access goes to memory: 4 + 8 + 30 + 120 + 7.
        let o = p.access_data(0x10000, false, 0, &mut s);
        assert_eq!(o.level, MemLevel::Memory);
        assert_eq!(o.complete_at, 4 + 8 + 30 + 127);
        // Second access to the same line: L1 hit.
        let o = p.access_data(0x10000, false, 1000, &mut s);
        assert_eq!(o.level, MemLevel::L1);
        assert_eq!(o.complete_at, 1004);
    }

    #[test]
    fn l2_and_l3_hits_observed() {
        let (mut p, mut s) = setup();
        // Fill a line everywhere, then evict it from L1 only by touching
        // enough conflicting lines (L1D: 64 sets x 8 ways; addresses that
        // map to set 0 differ by 64*64 = 4096 bytes).
        p.access_data(0, false, 0, &mut s);
        for i in 1..=8 {
            p.access_data(i * 4096, false, 0, &mut s);
        }
        let o = p.access_data(0, false, 0, &mut s);
        assert_eq!(o.level, MemLevel::L2, "evicted from L1, still in L2");

        // Evict from L2 as well (L2: 512 sets x 8 ways; set-0 stride 32 KiB),
        // but keep L3 resident.
        let (mut p, mut s) = setup();
        p.access_data(0, false, 0, &mut s);
        for i in 1..=16 {
            p.access_data(i * 32768, false, 0, &mut s);
        }
        let o = p.access_data(0, false, 0, &mut s);
        assert_eq!(o.level, MemLevel::L3);
    }

    #[test]
    fn shared_l3_interference_between_requesters() {
        let mut s = SharedMem::new(SharedMemConfig::default());
        let mut a = PrivateCaches::new(PrivateCacheConfig::default(), 1);
        let mut b = PrivateCaches::new(PrivateCacheConfig::default(), 1);
        // Both cores miss to memory at the same tick: the second queues.
        let oa = a.access_data(0x100000, false, 0, &mut s);
        let ob = b.access_data(0x900000, false, 0, &mut s);
        assert_eq!(oa.level, MemLevel::Memory);
        assert_eq!(ob.level, MemLevel::Memory);
        assert!(ob.complete_at > oa.complete_at, "bandwidth contention");
        assert!(s.controller_stats().queue_ticks > 0);
    }

    #[test]
    fn slow_core_pays_scaled_private_latency() {
        let mut s = SharedMem::new(SharedMemConfig::default());
        let mut slow = PrivateCaches::new(PrivateCacheConfig::default(), 2);
        slow.access_data(0, false, 0, &mut s);
        let o = slow.access_data(0, false, 0, &mut s);
        assert_eq!(o.complete_at, 8, "L1 hit costs 4 core cycles = 8 ticks");
    }

    #[test]
    fn instruction_fetch_path() {
        let (mut p, mut s) = setup();
        let o = p.access_instr(0x4000_0000, 0, &mut s);
        assert_eq!(o.level, MemLevel::Memory);
        let o = p.access_instr(0x4000_0000, 500, &mut s);
        assert_eq!(o.level, MemLevel::L1);
        assert_eq!(o.complete_at, 502);
    }

    #[test]
    fn record_metrics_exports_hierarchy_counters() {
        let (mut p, mut s) = setup();
        p.access_data(0x10000, false, 0, &mut s);
        p.access_data(0x10000, false, 1000, &mut s);
        let mut rec = relsim_obs::Recorder::new();
        p.record_metrics(&mut rec);
        s.record_metrics(&mut rec);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("mem.l1.accesses"), Some(2));
        assert_eq!(snap.counter("mem.l1.misses"), Some(1));
        assert_eq!(snap.counter("mem.l3.misses"), Some(1));
        assert_eq!(snap.counter("mem.dram.requests"), Some(1));
    }

    #[test]
    fn flush_cools_private_caches() {
        let (mut p, mut s) = setup();
        p.access_data(0, false, 0, &mut s);
        let o = p.access_data(0, false, 10, &mut s);
        assert_eq!(o.level, MemLevel::L1);
        p.flush();
        let o = p.access_data(0, false, 20, &mut s);
        assert_eq!(o.level, MemLevel::L3, "private gone, shared L3 still warm");
    }
}
