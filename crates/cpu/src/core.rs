//! A unified wrapper over the two core models.

use crate::config::{CoreConfig, CoreKind};
use crate::cpi::CpiStack;
use crate::events::RetireObserver;
use crate::inorder::InorderCore;
use crate::ooo::OooCore;
use relsim_mem::{CacheStats, PrivateCacheConfig, PrivateCaches, SharedMem};
use relsim_obs::span::{self, Stage};
use relsim_trace::InstrSource;

/// Either core type, behind one interface.
///
/// The multicore `System` in the `relsim` crate holds a `Vec<Core>` and
/// advances each one with [`Core::step`]; dispatching through this enum
/// keeps the hot loop monomorphic. The variants are boxed — the
/// arena-based core structs are several KB each, and one pointer
/// indirection per core step is cheaper than copying that much state
/// through every `Vec<Core>` move.
#[derive(Debug, Clone)]
pub enum Core {
    /// Big out-of-order core.
    Big(Box<OooCore>),
    /// Small in-order core.
    Small(Box<InorderCore>),
}

impl Core {
    /// Build a core of the kind requested by `cfg`.
    pub fn new(cfg: CoreConfig, cache_cfg: PrivateCacheConfig) -> Self {
        match cfg.kind {
            CoreKind::Big => Core::Big(Box::new(OooCore::new(cfg, cache_cfg))),
            CoreKind::Small => Core::Small(Box::new(InorderCore::new(cfg, cache_cfg))),
        }
    }

    /// The core's kind.
    pub fn kind(&self) -> CoreKind {
        match self {
            Core::Big(_) => CoreKind::Big,
            Core::Small(_) => CoreKind::Small,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        match self {
            Core::Big(c) => c.config(),
            Core::Small(c) => c.config(),
        }
    }

    /// Advance one global tick. Every tick is simulated; callers that
    /// advance a core over a range of ticks use [`Self::step`], which
    /// charges the dead ones in closed form.
    pub fn tick(
        &mut self,
        now: u64,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
        obs: &mut dyn RetireObserver,
    ) {
        match self {
            Core::Big(c) => c.tick(now, src, shared, obs),
            Core::Small(c) => c.tick(now, src, shared, obs),
        }
    }

    /// Tick at `now`, charge the dead ticks that follow in closed form,
    /// and return the next tick at which the core must be stepped.
    ///
    /// The dead ticks run up to the core's event horizon or `limit`,
    /// whichever is earlier, so the return value `next` always satisfies
    /// `now < next <= limit` (`limit > now` is required). The core's state
    /// at `next` is exactly the state ticking every tick of `[now, next)`
    /// would leave, retire events included, so a caller may read it,
    /// snapshot it or stop at `next` (DESIGN.md §11). `limit = now + 1`
    /// is a plain [`Self::tick`] and never computes the horizon.
    pub fn step(
        &mut self,
        now: u64,
        limit: u64,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
        obs: &mut dyn RetireObserver,
    ) -> u64 {
        debug_assert!(limit > now, "step limit {limit} is not after now={now}");
        self.tick(now, src, shared, obs);
        if limit <= now + 1 {
            return now + 1;
        }
        span::scope(Stage::SkipBookkeeping, || {
            let next = self.next_event(now).min(limit);
            if next > now + 1 {
                self.skip_to(now + 1, next);
            }
            next
        })
    }

    /// Conservative event horizon: the earliest tick strictly after `now`
    /// at which this core's architectural state can change; see
    /// `OooCore::next_event`. Always returns a value `> now`.
    fn next_event(&self, now: u64) -> u64 {
        match self {
            Core::Big(c) => c.next_event(now),
            Core::Small(c) => c.next_event(now),
        }
    }

    /// Charge the dead ticks `[from, to)` in closed form; sound only when
    /// `to` does not exceed the horizon reported by `next_event`. See
    /// `OooCore::skip_to`.
    fn skip_to(&mut self, from: u64, to: u64) {
        match self {
            Core::Big(c) => c.skip_to(from, to),
            Core::Small(c) => c.skip_to(from, to),
        }
    }

    /// Correct-path instructions committed so far.
    pub fn committed(&self) -> u64 {
        match self {
            Core::Big(c) => c.committed(),
            Core::Small(c) => c.committed(),
        }
    }

    /// Core cycles elapsed.
    pub fn cycles(&self) -> u64 {
        match self {
            Core::Big(c) => c.cycles(),
            Core::Small(c) => c.cycles(),
        }
    }

    /// Accumulated CPI stack.
    pub fn cpi_stack(&self) -> &CpiStack {
        match self {
            Core::Big(c) => c.cpi_stack(),
            Core::Small(c) => c.cpi_stack(),
        }
    }

    /// Committed instruction counts per [`relsim_trace::OpClass`] index.
    pub fn class_counts(&self) -> &[u64; 10] {
        match self {
            Core::Big(c) => c.class_counts(),
            Core::Small(c) => c.class_counts(),
        }
    }

    /// Committed loads served by each memory level (L1, L2, L3, Memory).
    pub fn loads_by_level(&self) -> &[u64; 4] {
        match self {
            Core::Big(c) => c.loads_by_level(),
            Core::Small(c) => c.loads_by_level(),
        }
    }

    /// Fast-forward across a tick window without cycle timing; see
    /// [`OooCore::fast_forward`].
    pub fn fast_forward(
        &mut self,
        start: u64,
        ticks: u64,
        instructions: u64,
        template: &CpiStack,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
    ) {
        match self {
            Core::Big(c) => c.fast_forward(start, ticks, instructions, template, src, shared),
            Core::Small(c) => c.fast_forward(start, ticks, instructions, template, src, shared),
        }
    }

    /// Squash in-flight state on application migration.
    pub fn reset_pipeline(&mut self) {
        match self {
            Core::Big(c) => c.reset_pipeline(),
            Core::Small(c) => c.reset_pipeline(),
        }
    }

    /// Private-cache statistics (L1I, L1D, L2).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        match self {
            Core::Big(c) => c.caches().stats(),
            Core::Small(c) => c.caches().stats(),
        }
    }

    /// Mutable access to the private caches.
    pub fn caches_mut(&mut self) -> &mut PrivateCaches {
        match self {
            Core::Big(c) => c.caches_mut(),
            Core::Small(c) => c.caches_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::StateDigest;
    use crate::events::{NullObserver, RecordingObserver, RetireEvent};
    use relsim_mem::SharedMemConfig;
    use relsim_trace::TraceGenerator;

    /// Run milc (seed 7) for 20k ticks. The naive twin ticks every tick
    /// and never reads the horizon. The overshooting twin charges each
    /// dead stretch (a horizon more than a cycle ahead) in closed form
    /// through one cycle *past* its horizon: the skips a horizon that is
    /// late by one cycle would issue.
    fn run_twin(cfg: &CoreConfig, overshoot: bool) -> (Vec<RetireEvent>, StateDigest) {
        let ticks = 20_000;
        let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
        let mut src = TraceGenerator::new(relsim_trace::spec_profile("milc").unwrap(), 7, 0);
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = RecordingObserver::default();
        let tpc = cfg.ticks_per_cycle;
        let mut t = 0;
        while t < ticks {
            core.tick(t, &mut src, &mut shared, &mut obs);
            let late = if overshoot {
                core.next_event(t) + tpc
            } else {
                0
            };
            t = if late > t + 2 * tpc && late < ticks {
                core.skip_to(t + 1, late);
                late
            } else {
                t + 1
            };
        }
        (obs.events, StateDigest::of(&core, &src))
    }

    /// The ticked-twin comparison of `tests/horizon_equivalence.rs` can
    /// fail: skips one cycle past the horizon show up in the retire stream
    /// or the state digest, on both core kinds.
    #[test]
    fn skipping_one_cycle_past_the_horizon_diverges_from_the_ticked_twin() {
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let naive = run_twin(&cfg, false);
            let broken = run_twin(&cfg, true);
            assert!(
                broken.0 != naive.0 || broken.1 != naive.1,
                "{:?}: an unsound skip left no trace",
                cfg.kind
            );
        }
    }

    #[test]
    fn wrapper_dispatches_to_both_kinds() {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let kind = cfg.kind;
            let mut core = Core::new(cfg, PrivateCacheConfig::default());
            assert_eq!(core.kind(), kind);
            let p = relsim_trace::spec_profile("namd").unwrap();
            let mut src = TraceGenerator::new(p, 1, 0);
            for t in 0..5000 {
                core.tick(t, &mut src, &mut shared, &mut obs);
            }
            assert!(core.committed() > 0, "{kind} committed nothing");
            assert!(core.cycles() > 0);
            assert_eq!(core.cpi_stack().total(), core.cycles());
            core.reset_pipeline();
        }
    }

    #[test]
    fn fast_forward_preserves_counter_invariants() {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let mut core = Core::new(cfg, PrivateCacheConfig::default());
            let p = relsim_trace::spec_profile("milc").unwrap();
            let mut src = TraceGenerator::new(p, 7, 0);
            // Detailed interval first, so there is a CPI template.
            for t in 0..4000 {
                core.tick(t, &mut src, &mut shared, &mut obs);
            }
            let cycles_before = core.cycles();
            let committed_before = core.committed();
            let generated_before = src.generated();
            let template = *core.cpi_stack();
            core.fast_forward(4000, 16_000, 9_000, &template, &mut src, &mut shared);
            assert_eq!(core.cycles(), cycles_before + 16_000);
            assert_eq!(core.committed(), committed_before + 9_000);
            assert_eq!(
                core.cpi_stack().total(),
                core.cycles(),
                "CPI total must stay equal to cycles through a fast-forward"
            );
            let total: u64 = core.class_counts().iter().sum();
            assert_eq!(total, core.committed());
            assert!(
                src.generated() >= generated_before + 9_000,
                "trace position must advance through the window"
            );
            // Detailed simulation resumes cleanly after the window.
            for t in 20_000..24_000 {
                core.tick(t, &mut src, &mut shared, &mut obs);
            }
            assert_eq!(core.cpi_stack().total(), core.cycles());
            assert!(core.committed() > committed_before + 9_000);
        }
    }

    #[test]
    fn class_counts_sum_to_committed() {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        let mut core = Core::new(CoreConfig::big(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("bzip2").unwrap();
        let mut src = TraceGenerator::new(p, 5, 0);
        for t in 0..10_000 {
            core.tick(t, &mut src, &mut shared, &mut obs);
        }
        let total: u64 = core.class_counts().iter().sum();
        assert_eq!(total, core.committed());
    }
}
