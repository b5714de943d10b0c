//! Active fault-injection campaigns against *live* runs (DESIGN.md §15).
//!
//! [`fault_injection`](crate::fault_injection) validates the ACE counters
//! passively: it reconstructs a timeline after the run and asks how often
//! a random strike *would have* hit ACE state. This module goes the rest
//! of the way for the reliability-mode study: it draws a deterministic
//! campaign of single-bit faults up front ([`draw_campaign`]), and — for
//! checkpoint/rollback mode — actually rewinds and re-executes a live
//! core ([`run_checkpointed`]), proving that rollback recovery restores
//! bit-identical committed state.
//!
//! Determinism contract: a campaign is a pure function of
//! `(duration, cores, faults, seed)`. One `SmallRng` stream drawn in
//! injection order produces every fault, so results cannot depend on
//! worker count or scheduling; callers derive per-cell seeds with
//! [`mix_seed`] instead of splitting streams across workers.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use relsim_cpu::{Checkpoint, Core, CoreConfig, NullObserver, StateDigest};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_trace::{BenchmarkProfile, TraceGenerator};
use serde::{Deserialize, Serialize};

/// Derive a deterministic per-cell RNG seed from a base seed and a cell
/// label (e.g. `"milc/big"`). FNV-1a over the label, finished with a
/// splitmix64 avalanche so nearby labels land far apart. Grid drivers use
/// one stream per cell, keyed by the cell itself — never per worker — so
/// campaigns are `-jN`-invariant by construction.
pub fn mix_seed(base: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// How one injected fault ended (the outcome taxonomy of DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// The struck bit held no ACE state: the fault cannot affect output.
    Masked,
    /// The fault hit ACE state but checkpoint/rollback re-executed the
    /// epoch, restoring correct state.
    RecoveredByRollback,
    /// The fault hit ACE state but a redundant replica (DMR pair or
    /// backup core) masked it at compare/commit.
    RecoveredByReplica,
    /// Silent data corruption: the fault reached committed state.
    Sdc,
}

impl FaultOutcome {
    /// Stable lowercase name used in events and counters.
    pub fn name(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::RecoveredByRollback => "recovered_rollback",
            FaultOutcome::RecoveredByReplica => "recovered_replica",
            FaultOutcome::Sdc => "sdc",
        }
    }
}

/// One drawn (not yet classified) fault of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RawFault {
    /// Injection index within the campaign (RNG draw order).
    pub injection: u64,
    /// Strike tick, uniform in `[0, duration)`.
    pub tick: u64,
    /// Struck core, uniform in `[0, cores)`.
    pub core: usize,
    /// Uniform draw in `[0, 1)`; the strike hits ACE state when this is
    /// below the struck core's ACE-bit occupancy at the strike tick.
    pub hit_draw: f64,
}

/// Draw a whole campaign of `faults` single-bit strikes from one seeded
/// stream, in injection order. Pure function of its arguments.
///
/// # Panics
///
/// Panics if `duration` or `cores` is zero.
pub fn draw_campaign(duration: u64, cores: usize, faults: u64, seed: u64) -> Vec<RawFault> {
    assert!(duration > 0, "campaign needs a nonempty run");
    assert!(cores > 0, "campaign needs at least one core");
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..faults)
        .map(|injection| RawFault {
            injection,
            tick: rng.gen_range(0..duration),
            core: rng.gen_range(0..cores),
            hit_draw: rng.gen::<f64>(),
        })
        .collect()
}

/// Result of a checkpointed live run ([`run_checkpointed`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RollbackRun {
    /// Correct-path instructions committed at the end of the run.
    pub committed: u64,
    /// Core cycles elapsed (excludes re-execution: rollback rewinds the
    /// core's own cycle counter along with the rest of its state).
    pub cycles: u64,
    /// Ticks re-executed across all rollbacks (the recovery cost a
    /// hardware implementation would pay in time and energy).
    pub reexec_ticks: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed (= faults recovered).
    pub rollbacks: u64,
    /// Digest of final committed state, for equivalence assertions.
    pub state: StateDigest,
}

/// Run `profile` on a core of `cfg` for `duration` ticks under
/// checkpoint/rollback: a [`Checkpoint`] is captured every `interval`
/// ticks, and each tick listed in `fault_ticks` triggers a detected fault
/// — the machine is restored to the last checkpoint and re-executes from
/// there. Because restore-then-replay is an identity on the deterministic
/// model, the final [`StateDigest`] equals the fault-free run's digest;
/// the re-executed ticks are reported as `reexec_ticks` so callers can
/// charge the recovery overhead to CPI and energy.
///
/// `fault_ticks` entries outside `[0, duration)` are ignored; duplicates
/// within one epoch each trigger their own rollback.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub fn run_checkpointed(
    cfg: &CoreConfig,
    profile: &BenchmarkProfile,
    seed: u64,
    duration: u64,
    interval: u64,
    fault_ticks: &[u64],
) -> RollbackRun {
    assert!(interval > 0, "checkpoint interval must be positive");
    let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
    let mut src = TraceGenerator::new(profile.clone(), seed, 0);
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut obs = NullObserver;

    let mut faults: Vec<u64> = fault_ticks
        .iter()
        .copied()
        .filter(|&t| t < duration)
        .collect();
    faults.sort_unstable();
    let mut next_fault = 0usize;

    let mut ckpt = Checkpoint::capture(&core, &src, &shared, 0);
    let mut checkpoints = 1u64;
    let mut rollbacks = 0u64;
    let mut reexec_ticks = 0u64;

    let mut t = 0u64;
    while t < duration {
        if t > ckpt.tick && t.is_multiple_of(interval) {
            ckpt = Checkpoint::capture(&core, &src, &shared, t);
            checkpoints += 1;
        }
        // A fault detected at tick t strikes before the tick executes;
        // rollback rewinds to the last checkpoint and resumes from there.
        if next_fault < faults.len() && faults[next_fault] == t {
            next_fault += 1;
            rollbacks += 1;
            reexec_ticks += t - ckpt.tick;
            ckpt.restore(&mut core, &mut src, &mut shared);
            t = ckpt.tick;
            continue;
        }
        // Settle at the next checkpoint and the next fault, where the
        // state is captured or rolled back.
        let mut limit = ((t / interval + 1) * interval).min(duration);
        if let Some(&f) = faults.get(next_fault) {
            limit = limit.min(f);
        }
        t = core.step(t, limit, &mut src, &mut shared, &mut obs);
    }

    RollbackRun {
        committed: core.committed(),
        cycles: core.cycles(),
        reexec_ticks,
        checkpoints,
        rollbacks,
        state: StateDigest::of(&core, &src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_stable_and_label_sensitive() {
        let a = mix_seed(7, "milc/big");
        assert_eq!(a, mix_seed(7, "milc/big"), "pure function");
        assert_ne!(a, mix_seed(7, "milc/small"));
        assert_ne!(a, mix_seed(8, "milc/big"));
    }

    #[test]
    fn campaign_is_deterministic_and_in_range() {
        let a = draw_campaign(10_000, 4, 500, 42);
        let b = draw_campaign(10_000, 4, 500, 42);
        assert_eq!(a, b);
        for f in &a {
            assert!(f.tick < 10_000);
            assert!(f.core < 4);
            assert!((0.0..1.0).contains(&f.hit_draw));
        }
        let c = draw_campaign(10_000, 4, 500, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn outcome_names_are_stable() {
        assert_eq!(FaultOutcome::Masked.name(), "masked");
        assert_eq!(
            FaultOutcome::RecoveredByRollback.name(),
            "recovered_rollback"
        );
        assert_eq!(FaultOutcome::RecoveredByReplica.name(), "recovered_replica");
        assert_eq!(FaultOutcome::Sdc.name(), "sdc");
    }

    #[test]
    fn rollback_recovers_to_fault_free_state() {
        let cfg = CoreConfig::small();
        let p = relsim_trace::spec_profile("hmmer").unwrap();
        let clean = run_checkpointed(&cfg, &p, 3, 20_000, 4_000, &[]);
        assert_eq!(clean.rollbacks, 0);
        assert_eq!(clean.reexec_ticks, 0);
        let faulty = run_checkpointed(&cfg, &p, 3, 20_000, 4_000, &[6_500, 13_000, 19_999]);
        assert_eq!(faulty.rollbacks, 3);
        assert!(faulty.reexec_ticks > 0);
        assert_eq!(
            faulty.state, clean.state,
            "recovered run must commit identical state"
        );
    }

    #[test]
    fn out_of_range_faults_are_ignored() {
        let cfg = CoreConfig::small();
        let p = relsim_trace::spec_profile("milc").unwrap();
        let r = run_checkpointed(&cfg, &p, 1, 5_000, 1_000, &[5_000, 90_000]);
        assert_eq!(r.rollbacks, 0);
    }
}
