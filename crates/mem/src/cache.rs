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

/// A set-associative, write-allocate, write-back cache with true LRU.
///
/// Each set keeps its valid tags contiguous and in recency order, most
/// recent first, with one dirty bit per recency position: a hit moves its
/// tag to the front, and a miss fills the front and evicts the last tag
/// of a full set. The model tracks tags only (no data), which is
/// sufficient for timing and vulnerability simulation.
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
    /// Tags, flattened: set `i` occupies `[i*ways, (i+1)*ways)`, and its
    /// `len[i]` valid tags come first, most recently used first.
    tags: Vec<u64>,
    /// The dirty bit of each recency position, laid out like `tags`.
    /// Positions at or past a set's valid count are stale and never read.
    dirty: Vec<bool>,
    /// Valid tags per set.
    len: Vec<u32>,
    sets: usize,
    ways: usize,
    /// `log2(line_bytes)`, so indexing shifts instead of dividing.
    line_shift: u32,
    /// `log2(sets)` when `sets` is a power of two (every Table 2
    /// geometry), so indexing masks and shifts instead of dividing.
    set_bits: Option<u32>,
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
            tags: vec![0; sets * ways],
            dirty: vec![false; sets * ways],
            len: vec![0; sets],
            sets,
            ways,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: sets.is_power_of_two().then(|| sets.trailing_zeros()),
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
        let (line, sets) = (addr >> self.line_shift, self.sets as u64);
        match self.set_bits {
            Some(bits) => ((line & (sets - 1)) as usize, line >> bits),
            None => ((line % sets) as usize, line / sets),
        }
    }

    /// Move recency positions `0..n` of the set starting at `lo` back one
    /// place and put `tag` in front with dirty bit `dirty`. A plain loop,
    /// inlined: over a set's few positions it beats two `memmove` calls.
    #[inline(always)]
    fn push_front(&mut self, lo: usize, n: usize, tag: u64, dirty: bool) {
        let (tags, bits) = (&mut self.tags[lo..=lo + n], &mut self.dirty[lo..=lo + n]);
        for i in (0..n).rev() {
            tags[i + 1] = tags[i];
            bits[i + 1] = bits[i];
        }
        tags[0] = tag;
        bits[0] = dirty;
    }

    /// Access `addr`; returns `true` on hit. On a miss the line is filled
    /// (write-allocate), possibly evicting the LRU way; a dirty eviction is
    /// counted as a write-back. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.stats.accesses += 1;
        let (idx, tag) = self.index_and_tag(addr);
        let (lo, len) = (idx * self.ways, self.len[idx] as usize);
        if let Some(pos) = self.tags[lo..lo + len].iter().position(|&t| t == tag) {
            let dirty = self.dirty[lo + pos] | is_write;
            self.push_front(lo, pos, tag, dirty);
            self.stats.hits += 1;
            return true;
        }
        // Miss: a full set's least recent tag falls off the end.
        if len == self.ways {
            self.stats.writebacks += u64::from(self.dirty[lo + len - 1]);
        } else {
            self.len[idx] += 1;
        }
        self.push_front(lo, len.min(self.ways - 1), tag, is_write);
        false
    }

    /// Read `[base, base + bytes)` one address per line, in order. This
    /// leaves the same lines resident, in the same recency order and with
    /// the same dirty bits, as
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
    /// form (DESIGN.md §17). The sweep's lines are consecutive, so each set
    /// reads every `sets`-th of them: `reads` lines with the consecutive
    /// tags `tag0 … tag0 + reads − 1`. The set ends with the last
    /// `k = min(reads, ways)` of those in front, clean, followed by its
    /// first `ways − k` earlier tags with their dirty bits, whenever
    ///
    /// - it holds none of the swept tags, so every read misses; or
    /// - `reads ≥ 2 * ways`, or `reads ≥ ways` and it holds no dirty line:
    ///   no earlier tag survives, and no swept line can end dirty.
    ///
    /// Any other set replays its own reads through [`Cache::access`]. A
    /// sweep over lines no set holds, such as the warm-up of an
    /// application's own address range, thus costs at most one write per
    /// cache line instead of one `ways`-wide probe per swept line.
    pub fn fill_sequential(&mut self, base: u64, bytes: u64) {
        let stats = self.stats;
        let line_bytes = self.cfg.line_bytes;
        let n = bytes.div_ceil(line_bytes);
        let (sets, ways) = (self.sets as u64, self.ways);
        let (rounds, extra) = (n / sets, n % sets);
        // The `d`-th swept line (`d < sets`) heads the run of lines swept
        // at `d + j * sets` that share its set, with tags `tag0 + j`.
        for d in 0..n.min(sets) {
            let reads = rounds + u64::from(d < extra);
            let (idx, tag0) = self.index_and_tag(base + d * line_bytes);
            let (lo, len) = (idx * ways, self.len[idx] as usize);
            let closed_form = reads >= 2 * ways as u64
                || !self.tags[lo..lo + len]
                    .iter()
                    .any(|&t| t.wrapping_sub(tag0) < reads)
                || (reads >= ways as u64 && !self.dirty[lo..lo + len].contains(&true));
            if closed_form {
                let k = reads.min(ways as u64) as usize;
                let kept = len.min(ways - k);
                self.tags.copy_within(lo..lo + kept, lo + k);
                self.dirty.copy_within(lo..lo + kept, lo + k);
                for (i, t) in self.tags[lo..lo + k].iter_mut().enumerate() {
                    *t = tag0 + reads - 1 - i as u64;
                }
                self.dirty[lo..lo + k].fill(false);
                self.len[idx] = (k + kept) as u32;
            } else {
                for j in 0..reads {
                    let _ = self.access(base + (d + j * sets) * line_bytes, false);
                }
            }
        }
        self.stats = stats;
    }

    /// Whether `addr`'s line is currently resident (no state change).
    pub fn contains(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        let lo = idx * self.ways;
        self.tags[lo..lo + self.len[idx] as usize].contains(&tag)
    }

    /// Invalidate the entire cache (e.g. on migration); statistics are kept.
    pub fn flush(&mut self) {
        self.len.fill(0);
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
