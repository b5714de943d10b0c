//! Set-associative write-back cache model with LRU replacement.

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: u32,
    /// Cache line size in bytes. Must be a power of two.
    pub line_bytes: u64,
    /// Access latency in cycles of the owning clock domain.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `ways * line_bytes`, or non-power-of-two line size).
    pub fn sets(&self) -> u64 {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size not a power of two"
        );
        let bytes_per_way_set = self.ways as u64 * self.line_bytes;
        assert!(
            bytes_per_way_set > 0 && self.size_bytes.is_multiple_of(bytes_per_way_set),
            "capacity {} not divisible by ways*line {}",
            self.size_bytes,
            bytes_per_way_set
        );
        self.size_bytes / bytes_per_way_set
    }
}

/// Hit/miss statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Lines evicted while dirty (write-backs to the next level).
    pub writebacks: u64,
}

impl CacheStats {
    /// Misses (`accesses - hits`).
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; 0 if no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Per-set logical timestamp of the last touch (for LRU).
    lru: u64,
}

/// A set-associative, write-allocate, write-back cache with true LRU.
///
/// The model tracks tags only (no data), which is sufficient for timing and
/// vulnerability simulation.
///
/// # Examples
///
/// ```
/// use relsim_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig {
///     size_bytes: 32 << 10, ways: 8, line_bytes: 64, latency: 4,
/// });
/// assert!(!c.access(0x1000, false), "cold miss");
/// assert!(c.access(0x1000, false), "now resident");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines, flattened: set `i` occupies `[i*ways, (i+1)*ways)`.
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    /// `log2(line_bytes)`, so indexing shifts instead of dividing.
    line_shift: u32,
    /// `sets - 1` when `sets` is a power of two (the common case for
    /// every Table 2 geometry), else 0 with `set_mask_valid` unset.
    set_mask: u64,
    /// Whether `set_mask` may be used in place of `% sets`.
    set_mask_valid: bool,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets() as usize;
        let ways = cfg.ways as usize;
        Cache {
            cfg,
            lines: vec![Line::default(); sets * ways],
            sets,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            set_mask_valid: sets.is_power_of_two(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        if self.set_mask_valid {
            (
                (line & self.set_mask) as usize,
                line >> self.set_mask.count_ones(),
            )
        } else {
            let sets = self.sets as u64;
            ((line % sets) as usize, line / sets)
        }
    }

    /// Access `addr`; returns `true` on hit. On a miss the line is filled
    /// (write-allocate), possibly evicting the LRU way; a dirty eviction is
    /// counted as a write-back. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let (idx, tag) = self.index_and_tag(addr);
        let tick = self.tick;
        let set = &mut self.lines[idx * self.ways..(idx + 1) * self.ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return true;
        }

        // Miss: fill into an invalid way or evict the LRU way.
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("cache sets are never empty");
        if victim.valid && victim.dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: tick,
        };
        false
    }

    /// Read `[base, base + bytes)` one address per line, in order. This
    /// leaves the same lines resident, with the same dirty bits and LRU
    /// stamps, and the same tick, as
    ///
    /// ```text
    /// let mut addr = base;
    /// while addr < base + bytes {
    ///     cache.access(addr, false);
    ///     addr += line_bytes;
    /// }
    /// ```
    ///
    /// but statistics are left alone and most sets are written in closed
    /// form (DESIGN.md §17). The sweep's `n` lines are consecutive, so set
    /// `s` sees every `sets`-th of them, and the `k`-th line swept is
    /// stamped `tick + k + 1`. A set read at least `ways` times holds
    /// exactly its last `ways` lines afterwards, all clean (LRU keeps the
    /// most recent distinct lines). A set read fewer than `ways` times
    /// replays its own reads, and so does a set read fewer than
    /// `2 * ways` times that holds a dirty line: the sweep may hit that
    /// line and leave it dirty. A sweep that reads every set at least
    /// `2 * ways` times thus costs one write per cache line instead of one
    /// `ways`-wide probe per swept line. Which way of a set holds which
    /// line may differ from the loop's; hits, victims and write-backs
    /// depend only on the tags and stamps.
    pub fn fill_sequential(&mut self, base: u64, bytes: u64) {
        let stats = self.stats;
        let line_bytes = self.cfg.line_bytes;
        let n = bytes.div_ceil(line_bytes);
        let (sets, ways) = (self.sets as u64, self.ways as u64);
        let tick0 = self.tick;
        // The `d`-th swept line (`d < sets`) heads the run of lines swept
        // at `d + j * sets` that share its set, with tags `tag0 + j`.
        for d in 0..n.min(sets) {
            let reads = n / sets + u64::from(d < n % sets);
            let (idx, tag0) = self.index_and_tag(base + d * line_bytes);
            let set = &mut self.lines[idx * self.ways..(idx + 1) * self.ways];
            if reads >= 2 * ways || (reads >= ways && !set.iter().any(|l| l.valid && l.dirty)) {
                for (line, j) in set.iter_mut().zip(reads - ways..reads) {
                    *line = Line {
                        tag: tag0 + j,
                        valid: true,
                        dirty: false,
                        lru: tick0 + d + j * sets + 1,
                    };
                }
            } else {
                for j in 0..reads {
                    let k = d + j * sets;
                    self.tick = tick0 + k;
                    let _ = self.access(base + k * line_bytes, false);
                }
            }
        }
        self.tick = tick0 + n;
        self.stats = stats;
    }

    /// Whether `addr`'s line is currently resident (no state change).
    pub fn contains(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        self.lines[idx * self.ways..(idx + 1) * self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Invalidate the entire cache (e.g. on migration); statistics are kept.
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().sets(), 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
            latency: 1,
        });
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0, false));
        assert!(c.access(0, false));
        assert!(c.access(63, false), "same line");
        assert!(
            !c.access(128, false),
            "different set? no: 128/64=2, 2%2=0 same set, new tag"
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Set 0 holds lines with line-number % 2 == 0: addresses 0, 128, 256...
        c.access(0, false); // A
        c.access(128, false); // B
        c.access(0, false); // touch A, making B LRU
        c.access(256, false); // C evicts B
        assert!(c.contains(0), "A stays");
        assert!(!c.contains(128), "B evicted");
        assert!(c.contains(256), "C resident");
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let mut c = small();
        c.access(0, true); // dirty A
        c.access(128, false); // B
        c.access(256, false); // evicts A (LRU) -> writeback
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(64, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = small();
        c.access(0, false);
        assert!(c.contains(0));
        c.flush();
        assert!(!c.contains(0));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 32 << 10,
            ways: 8,
            line_bytes: 64,
            latency: 4,
        });
        // 16 KiB working set fits in 32 KiB cache.
        for pass in 0..3 {
            let mut misses = 0;
            for addr in (0..(16u64 << 10)).step_by(64) {
                if !c.access(addr, false) {
                    misses += 1;
                }
            }
            if pass > 0 {
                assert_eq!(misses, 0, "warm pass {pass} must fully hit");
            }
        }
    }
}
