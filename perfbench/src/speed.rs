//! Host speed: a fixed piece of reference work, timed next to every
//! measured operation, that turns host seconds into reference seconds.
//!
//! The benchmark runs on a shared host whose speed drifts with the load
//! of other guests: ten-second stretches of the same grid cells ran at
//! 0.80x to 1.38x their median time within three minutes. The drift lasts
//! longer than a run, so medians within a run cannot remove it. The
//! reference work slows down with the simulator when the host does. Timed
//! on as many threads as the measured operation uses, just before and
//! just after it, it gives the host's speed over that operation, and
//! [`Speed::around`] returns the factor that divides the drift out.
//!
//! The reference work is the benchmark's own code and shares none with
//! the simulator, so a change to the simulator does not move it. It
//! mirrors the simulator's two kinds of host work: a small interpreter
//! (branchy register and table updates, like a pipeline model) and a
//! three-level set-associative cache model with LRU replacement over
//! about 3 MB of tags (like the memory hierarchy model).

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Host seconds one unit of reference work takes on the reference host.
/// A time in reference seconds is the time the operation would take on a
/// host where a unit takes exactly this long. The value is a fixed scale
/// near the unit's median on the host this benchmark was defined on (a
/// shared two-vCPU guest on an Intel Xeon, CPU model 143), where units
/// took 0.26-0.40 s.
pub const REFERENCE_S: f64 = 0.280;

/// Interpreter passes over its 256-instruction program per unit.
const INTERP_PASSES: u64 = 32_000;
/// Cache-model accesses per unit.
const CACHE_ACCESSES: u64 = 3_000_000;

/// One set-associative level: `sets` x `ways` tags with last-use stamps.
struct Level {
    tags: Vec<u64>,
    stamps: Vec<u32>,
    sets: usize,
    ways: usize,
}

impl Level {
    fn new(sets: usize, ways: usize) -> Self {
        Level {
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            sets,
            ways,
        }
    }

    /// Look `line` up; on a miss, replace the least recently used way.
    fn access(&mut self, line: u64, now: u32) -> bool {
        let base = (line as usize & (self.sets - 1)) * self.ways;
        let (mut victim, mut oldest) = (base, u32::MAX);
        for w in base..base + self.ways {
            if self.tags[w] == line {
                self.stamps[w] = now;
                return true;
            }
            if self.stamps[w] < oldest {
                oldest = self.stamps[w];
                victim = w;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = now;
        false
    }
}

/// One thread's reference work and its state, allocated once so a unit
/// never measures page faults.
struct Kernel {
    program: [u8; 256],
    table: Vec<u64>,
    levels: [Level; 3],
    rng: u64,
    stream: u64,
    now: u32,
}

impl Kernel {
    fn new() -> Self {
        let mut program = [0u8; 256];
        let mut s = 0x1234_5678_u64;
        for op in program.iter_mut() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *op = (s >> 59) as u8;
        }
        Kernel {
            program,
            table: vec![0; 4096],
            levels: [
                Level::new(64, 8),
                Level::new(1024, 16),
                Level::new(16_384, 16),
            ],
            rng: 0x9e37_79b9,
            stream: 0,
            now: 0,
        }
    }

    /// One unit of reference work; returns a checksum.
    fn run(&mut self) -> u64 {
        let mut regs = [1u64; 16];
        let table = &mut self.table;
        for pass in 0..INTERP_PASSES as usize {
            for (pc, &op) in self.program.iter().enumerate() {
                let (a, b) = (pc & 15, (pc * 7 + pass) & 15);
                match op & 7 {
                    0 => regs[a] = regs[a].wrapping_add(regs[b]),
                    1 => regs[a] ^= regs[b].rotate_left(13),
                    2 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                    3 => {
                        let i = regs[b] as usize & 4095;
                        table[i] = table[i].wrapping_add(regs[a]);
                    }
                    4 => regs[b] ^= table[regs[a] as usize & 4095],
                    5 => {
                        if regs[a] & 1 == 0 {
                            regs[b] = regs[b].wrapping_add(3)
                        } else {
                            regs[b] >>= 1
                        }
                    }
                    6 => regs[a] = regs[a].wrapping_sub(regs[b] >> 3),
                    _ => {
                        if regs[a] > regs[b] {
                            regs.swap(a, b)
                        }
                    }
                }
            }
        }
        // Three of four accesses stream through 64k lines, the rest fall
        // anywhere in 4M lines: L1 and L2 hit the stream, L3 the reuse.
        let (mut rng, mut stream, mut hits) = (self.rng, self.stream, 0u64);
        let [l1, l2, l3] = &mut self.levels;
        for _ in 0..CACHE_ACCESSES {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let line = if rng & 3 != 0 {
                stream = stream.wrapping_add(1);
                stream & 0xffff
            } else {
                (rng >> 20) & 0x3f_ffff
            };
            self.now = self.now.wrapping_add(1);
            let now = self.now;
            hits += if l1.access(line, now) {
                1
            } else if l2.access(line, now) {
                2
            } else {
                u64::from(l3.access(line, now)) * 3
            };
        }
        (self.rng, self.stream) = (rng, stream);
        regs.iter().fold(hits, |x, y| x ^ y)
    }
}

/// The reference work for `threads` threads, and the host's speed as it
/// measures it.
pub struct Speed {
    kernels: Vec<Kernel>,
    resident_mb: f64,
    last_s: f64,
    /// Every timed unit's host seconds, in order.
    pub units_s: Vec<f64>,
}

impl Speed {
    /// Reference work for `threads` threads, warmed by one untimed unit.
    pub fn new(threads: usize) -> Self {
        let rss_before = crate::rss_mb();
        let mut speed = Speed {
            kernels: (0..threads).map(|_| Kernel::new()).collect(),
            resident_mb: 0.0,
            last_s: 0.0,
            units_s: Vec::new(),
        };
        speed.unit();
        speed.units_s.clear();
        speed.last_s = speed.unit();
        speed.resident_mb = crate::rss_mb() - rss_before;
        speed
    }

    /// Run one unit on every thread at once; the threads' mean host
    /// seconds. The mean, not the slowest thread, because the pool hands
    /// work to whichever thread is free, so its time follows the threads'
    /// mean speed.
    ///
    /// The threads are spawned for each unit and end with it, as the
    /// simulator's pool threads do: with two threads kept for the whole
    /// run instead, the serve workload's peak resident size read anywhere
    /// from 17.5 to 24 MB.
    fn unit(&mut self) -> f64 {
        let secs: Vec<f64> = thread::scope(|s| {
            let handles: Vec<_> = self
                .kernels
                .iter_mut()
                .map(|k| {
                    s.spawn(move || {
                        let t0 = Instant::now();
                        black_box(k.run());
                        t0.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference work does not panic"))
                .collect()
        });
        let mean = crate::stats::mean(&secs);
        self.units_s.push(mean);
        mean
    }

    /// Run `op` between two units of reference work (the unit before it
    /// is the previous call's unit after). Returns `op`'s result and the
    /// host's speed over it: reference seconds per host second, by which
    /// a host time measured inside `op` is multiplied.
    pub fn around<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last_s;
        let out = op();
        self.last_s = self.unit();
        (out, REFERENCE_S / ((before + self.last_s) / 2.0))
    }

    /// [`Speed::around`] timing `op` as a whole: its result, host seconds
    /// and reference seconds.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let t0 = Instant::now();
        let (out, speed) = self.around(|| {
            let out = op();
            (out, t0.elapsed().as_secs_f64())
        });
        (out.0, out.1, out.1 * speed)
    }

    /// How much slower than the reference host this host ran: the median
    /// timed unit over [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.units_s) / REFERENCE_S
    }

    /// Megabytes the reference work holds resident (its arrays, measured
    /// once warm), which the process's peak resident size includes.
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_work_is_deterministic() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        assert_eq!(a.run(), b.run());
        assert_eq!(a.run(), b.run());
    }

    #[test]
    fn the_speed_factor_is_reference_over_host_seconds() {
        let mut speed = Speed::new(1);
        let (out, factor) = speed.around(|| 7);
        assert_eq!(out, 7);
        let (before, after) = (speed.units_s[0], speed.units_s[1]);
        assert_eq!(factor, REFERENCE_S / ((before + after) / 2.0));
        let (_, host_s, ref_s) = speed.time(|| ());
        assert!(host_s >= 0.0 && ref_s >= 0.0);
    }
}
