//! Deterministic synthetic trace generation.
//!
//! [`TraceGenerator`] turns a [`BenchmarkProfile`] into an infinite,
//! reproducible stream of dynamic instructions. Two independent streams are
//! exposed:
//!
//! * the **correct path** ([`InstrSource::next_instr`]), which advances the
//!   program through its phases, and
//! * the **wrong path** ([`InstrSource::wrong_path_instr`]), used by the core
//!   model to fill the pipeline after a branch misprediction. Wrong-path
//!   instructions are drawn from a separate RNG so that speculation depth
//!   (which varies with microarchitecture) never perturbs the correct-path
//!   instruction stream — a property the determinism tests rely on.
//!
//! Sampling is table-driven: each phase precomputes quantile tables for the
//! instruction mix and the dependency-distance distribution, so generating
//! one instruction costs a single 64-bit RNG draw plus table lookups (plus
//! one more draw for memory addresses).

use crate::instr::{Instr, OpClass};
use crate::profile::{BenchmarkProfile, MemoryProfile, OpMix, PhaseProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A source of dynamic instructions for a core model.
///
/// Implemented by [`TraceGenerator`]; core models are generic over this
/// trait so tests can drive them with hand-built instruction sequences.
pub trait InstrSource {
    /// Produce the next correct-path instruction.
    fn next_instr(&mut self) -> Instr;

    /// Produce a speculative wrong-path instruction.
    ///
    /// Calls to this method must not affect the sequence returned by
    /// [`next_instr`](Self::next_instr).
    fn wrong_path_instr(&mut self) -> Instr;
}

/// Memory regions are laid out as `[hot | cold | stream]` at `addr_base`.
const REGION_ALIGN: u64 = 64;

/// Quantile-table resolution for op and dependency sampling.
const TABLE: usize = 1024;

/// Cap on the part of an application's address span that a run
/// pre-warms into the shared L3 (see [`TraceGenerator::l3_warm_span`]).
const L3_WARM_BYTES: u64 = 32 << 20;

/// Precomputed sampling tables for one phase.
#[derive(Debug, Clone)]
struct PhaseTables {
    /// Op class per quantile bucket.
    op: Box<[OpClass; TABLE]>,
    /// Dependency distance per quantile bucket (geometric distribution).
    dep: Box<[u16; TABLE]>,
    /// 16-bit misprediction threshold (`rate * 65536`).
    mis_threshold: u16,
    /// 16-bit I-cache miss threshold.
    ic_threshold: u16,
}

impl PhaseTables {
    fn build(phase: &PhaseProfile) -> Self {
        let mut op = Box::new([OpClass::IntAlu; TABLE]);
        for (i, slot) in op.iter_mut().enumerate() {
            let u = (i as f64 + 0.5) / TABLE as f64;
            *slot = sample_op_cdf(&phase.mix, u);
        }
        let mut dep = Box::new([1u16; TABLE]);
        let p = (1.0 / phase.mean_dep_dist).min(1.0);
        let log1mp = (1.0 - p).max(1e-12).ln();
        for (i, slot) in dep.iter_mut().enumerate() {
            let u = ((i as f64 + 0.5) / TABLE as f64).max(1e-12);
            let d = (u.ln() / log1mp).ceil();
            *slot = d.clamp(1.0, 255.0) as u16;
        }
        PhaseTables {
            op,
            dep,
            mis_threshold: (phase.branch_mispredict_rate * 65536.0).round() as u16,
            ic_threshold: (phase.icache_miss_rate * 65536.0).round() as u16,
        }
    }
}

fn sample_op_cdf(mix: &OpMix, u: f64) -> OpClass {
    let mut acc = mix.load;
    if u < acc {
        return OpClass::Load;
    }
    acc += mix.store;
    if u < acc {
        return OpClass::Store;
    }
    acc += mix.branch;
    if u < acc {
        return OpClass::Branch;
    }
    acc += mix.int_mul;
    if u < acc {
        return OpClass::IntMul;
    }
    acc += mix.int_div;
    if u < acc {
        return OpClass::IntDiv;
    }
    acc += mix.fp_add;
    if u < acc {
        return OpClass::FpAdd;
    }
    acc += mix.fp_mul;
    if u < acc {
        return OpClass::FpMul;
    }
    acc += mix.fp_div;
    if u < acc {
        return OpClass::FpDiv;
    }
    acc += mix.nop;
    if u < acc {
        return OpClass::Nop;
    }
    OpClass::IntAlu
}

/// Deterministic statistical instruction generator.
///
/// # Examples
///
/// ```
/// use relsim_trace::{BenchmarkProfile, InstrSource, PhaseProfile, Suite, TraceGenerator};
///
/// let profile = BenchmarkProfile::single_phase(
///     "demo", Suite::Fp, PhaseProfile::compute(10_000));
/// let mut gen = TraceGenerator::new(profile, 42, 0);
/// let first = gen.next_instr();
/// let mut gen2 = gen.clone_reset();
/// assert_eq!(first, gen2.next_instr(), "generation is deterministic");
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    tables: Vec<PhaseTables>,
    addr_base: u64,
    seed: u64,
    rng: SmallRng,
    wp_rng: SmallRng,
    phase_idx: usize,
    instrs_in_phase: u64,
    generated: u64,
    stream_pos: u64,
}

impl TraceGenerator {
    /// Create a generator for `profile`, seeded with `seed`.
    ///
    /// `addr_base` offsets every generated memory address, giving each
    /// co-running application a disjoint physical address range.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`BenchmarkProfile::is_valid`]).
    pub fn new(profile: BenchmarkProfile, seed: u64, addr_base: u64) -> Self {
        assert!(
            profile.is_valid(),
            "invalid benchmark profile {:?}",
            profile.name
        );
        let tables = profile.phases.iter().map(PhaseTables::build).collect();
        TraceGenerator {
            tables,
            addr_base,
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            wp_rng: SmallRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c909),
            phase_idx: 0,
            instrs_in_phase: 0,
            generated: 0,
            stream_pos: 0,
            profile,
        }
    }

    /// Name of the underlying benchmark profile.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// The profile this generator draws from.
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Number of correct-path instructions generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Index of the phase the generator is currently in.
    pub fn current_phase(&self) -> usize {
        self.phase_idx
    }

    /// The hot working-set span `(base, bytes)` of the current phase —
    /// the region a core's L1/L2 would hold warm for this application.
    pub fn hot_span(&self) -> (u64, u64) {
        let hot = self.profile.phases[self.phase_idx].mem.hot_bytes;
        (self.addr_base, hot)
    }

    /// The address span `(base, bytes)` this generator draws memory
    /// accesses from, across all phases. Useful for pre-warming caches.
    pub fn address_span(&self) -> (u64, u64) {
        let span = self
            .profile
            .phases
            .iter()
            .map(|p| p.mem.hot_bytes.max(REGION_ALIGN) + 2 * p.mem.cold_bytes.max(REGION_ALIGN))
            .max()
            .unwrap_or(0);
        (self.addr_base, span)
    }

    /// The region `(base, bytes)` a run pre-warms into the shared L3 in
    /// place of SimPoint warm state: the top 32 MB of
    /// [`address_span`](Self::address_span), or all of it when smaller.
    pub fn l3_warm_span(&self) -> (u64, u64) {
        let (base, span) = self.address_span();
        let warm = span.min(L3_WARM_BYTES);
        (base + span - warm, warm)
    }

    /// Reset to the initial state (an identical stream will be produced).
    pub fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        self.wp_rng = SmallRng::seed_from_u64(self.seed ^ 0x6a09_e667_f3bc_c909);
        self.phase_idx = 0;
        self.instrs_in_phase = 0;
        self.generated = 0;
        self.stream_pos = 0;
    }

    /// Return a fresh generator with identical configuration and seed.
    pub fn clone_reset(&self) -> Self {
        TraceGenerator::new(self.profile.clone(), self.seed, self.addr_base)
    }

    fn advance_phase_cursor(&mut self) {
        self.instrs_in_phase += 1;
        if self.instrs_in_phase >= self.profile.phases[self.phase_idx].len_instrs {
            self.instrs_in_phase = 0;
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
        }
    }

    fn sample_addr(&mut self, mem: &MemoryProfile, wrong_path: bool) -> u64 {
        let rng = if wrong_path {
            &mut self.wp_rng
        } else {
            &mut self.rng
        };
        let u: f64 = rng.gen();
        let hot_len = mem.hot_bytes.max(REGION_ALIGN);
        let cold_len = mem.cold_bytes.max(REGION_ALIGN);
        let addr = if u < mem.stream_fraction && !wrong_path {
            // Sequential walk over the stream region.
            let off = self.stream_pos;
            self.stream_pos = (self.stream_pos + mem.stream_stride) % cold_len;
            self.addr_base + hot_len + cold_len + off
        } else if u < mem.stream_fraction + mem.hot_fraction {
            let off = rng.gen_range(0..hot_len);
            self.addr_base + off
        } else {
            let off = rng.gen_range(0..cold_len);
            self.addr_base + hot_len + off
        };
        addr & !7 // 8-byte alignment
    }

    fn gen_instr(&mut self, wrong_path: bool) -> Instr {
        let t = &self.tables[self.phase_idx];
        // One 64-bit draw covers op selection, both dependency distances,
        // the misprediction/I-cache events and src2 presence:
        //   bits  0..10  op bucket          bits 10..20  dep1 bucket
        //   bits 20..30  dep2 bucket        bits 30..46  mispredict check
        //   bits 46..62  icache check       bits 62..64  src2 presence
        let bits: u64 = if wrong_path {
            self.wp_rng.gen()
        } else {
            self.rng.gen()
        };
        let op = t.op[(bits & 0x3ff) as usize];
        let d1 = t.dep[((bits >> 10) & 0x3ff) as usize];
        let d2 = t.dep[((bits >> 20) & 0x3ff) as usize];
        let mis_bits = ((bits >> 30) & 0xffff) as u16;
        let ic_bits = ((bits >> 46) & 0xffff) as u16;
        let src2_bits = (bits >> 62) & 0x3;

        let (src1, src2) = match op {
            OpClass::Nop => (None, None),
            OpClass::Load | OpClass::Branch => (Some(d1), None),
            OpClass::IntAlu => {
                // ~50% of ALU ops are two-source.
                (Some(d1), (src2_bits & 1 == 0).then_some(d2))
            }
            _ => (Some(d1), Some(d2)),
        };

        let mispredict = !wrong_path && op == OpClass::Branch && mis_bits < t.mis_threshold;
        let icache_miss = ic_bits < t.ic_threshold;

        let addr = if op.is_mem() {
            let mem = self.profile.phases[self.phase_idx].mem;
            self.sample_addr(&mem, wrong_path)
        } else {
            0
        };

        if !wrong_path {
            self.generated += 1;
            self.advance_phase_cursor();
        }

        Instr {
            op,
            src1,
            src2,
            addr,
            mispredict,
            icache_miss,
        }
    }
}

impl InstrSource for TraceGenerator {
    fn next_instr(&mut self) -> Instr {
        self.gen_instr(false)
    }

    fn wrong_path_instr(&mut self) -> Instr {
        self.gen_instr(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Suite;

    fn demo_profile() -> BenchmarkProfile {
        BenchmarkProfile::single_phase("demo", Suite::Int, {
            let mut p = PhaseProfile::compute(1000);
            p.mix = OpMix::int_default();
            p.branch_mispredict_rate = 0.05;
            p.icache_miss_rate = 0.01;
            p
        })
    }

    #[test]
    fn deterministic_stream() {
        let mut a = TraceGenerator::new(demo_profile(), 7, 0);
        let mut b = TraceGenerator::new(demo_profile(), 7, 0);
        for _ in 0..5000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn wrong_path_does_not_perturb_correct_path() {
        let mut a = TraceGenerator::new(demo_profile(), 7, 0);
        let mut b = TraceGenerator::new(demo_profile(), 7, 0);
        for i in 0..3000 {
            if i % 7 == 0 {
                // b speculates down the wrong path; a does not.
                for _ in 0..10 {
                    let _ = b.wrong_path_instr();
                }
            }
            assert_eq!(a.next_instr(), b.next_instr(), "diverged at {i}");
        }
    }

    #[test]
    fn reset_restores_initial_stream() {
        let mut g = TraceGenerator::new(demo_profile(), 99, 0);
        let first: Vec<_> = (0..100).map(|_| g.next_instr()).collect();
        for _ in 0..5000 {
            let _ = g.next_instr();
        }
        g.reset();
        let again: Vec<_> = (0..100).map(|_| g.next_instr()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn mix_frequencies_approximately_match() {
        let mut g = TraceGenerator::new(demo_profile(), 1, 0);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[g.next_instr().op.index()] += 1;
        }
        let mix = OpMix::int_default();
        let frac = |c: usize| c as f64 / n as f64;
        assert!((frac(counts[OpClass::Load.index()]) - mix.load).abs() < 0.01);
        assert!((frac(counts[OpClass::Store.index()]) - mix.store).abs() < 0.01);
        assert!((frac(counts[OpClass::Branch.index()]) - mix.branch).abs() < 0.01);
        assert!((frac(counts[OpClass::Nop.index()]) - mix.nop).abs() < 0.005);
    }

    #[test]
    fn dep_distance_mean_tracks_parameter() {
        for mean in [1.5, 4.0, 12.0] {
            let mut phase = PhaseProfile::compute(1000);
            phase.mean_dep_dist = mean;
            let t = PhaseTables::build(&phase);
            let got: f64 = t.dep.iter().map(|&d| d as f64).sum::<f64>() / TABLE as f64;
            assert!((got - mean).abs() / mean < 0.12, "mean {mean}: got {got}");
        }
    }

    #[test]
    fn mispredict_rate_approximately_matches() {
        let mut g = TraceGenerator::new(demo_profile(), 11, 0);
        let mut branches = 0u64;
        let mut mispredicts = 0u64;
        for _ in 0..400_000 {
            let i = g.next_instr();
            if i.op == OpClass::Branch {
                branches += 1;
                mispredicts += i.mispredict as u64;
            }
        }
        let rate = mispredicts as f64 / branches as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn phases_cycle() {
        let profile = BenchmarkProfile {
            name: "phased".into(),
            suite: Suite::Fp,
            phases: vec![PhaseProfile::compute(100), PhaseProfile::compute(50)],
        };
        let mut g = TraceGenerator::new(profile, 5, 0);
        assert_eq!(g.current_phase(), 0);
        for _ in 0..100 {
            let _ = g.next_instr();
        }
        assert_eq!(g.current_phase(), 1);
        for _ in 0..50 {
            let _ = g.next_instr();
        }
        assert_eq!(g.current_phase(), 0, "phases wrap around");
    }

    #[test]
    fn addresses_respect_base_and_alignment() {
        let base = 1 << 32;
        let mut g = TraceGenerator::new(demo_profile(), 11, base);
        let mut seen_mem = 0;
        for _ in 0..10_000 {
            let i = g.next_instr();
            if i.op.is_mem() {
                seen_mem += 1;
                assert!(i.addr >= base, "addr below base");
                assert_eq!(i.addr % 8, 0, "addr unaligned");
            }
        }
        assert!(seen_mem > 1000, "expected plenty of memory ops");
    }

    #[test]
    fn address_span_covers_all_regions() {
        let g = TraceGenerator::new(demo_profile(), 1, 1 << 20);
        let (base, span) = g.address_span();
        assert_eq!(base, 1 << 20);
        let mem = demo_profile().phases[0].mem;
        assert_eq!(span, mem.hot_bytes + 2 * mem.cold_bytes);
    }

    #[test]
    #[should_panic(expected = "invalid benchmark profile")]
    fn invalid_profile_rejected() {
        let bad = BenchmarkProfile {
            name: "bad".into(),
            suite: Suite::Int,
            phases: vec![],
        };
        let _ = TraceGenerator::new(bad, 0, 0);
    }
}
