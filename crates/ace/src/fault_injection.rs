//! Monte Carlo fault-injection validation of the ACE analysis.
//!
//! The paper (following Mukherjee et al.) uses ACE analysis *instead of*
//! fault injection to evaluate reliability. This module closes the loop:
//! it reconstructs the ACE-bit timeline of a run from retirement events by
//! interval arithmetic (an independent code path from the counters),
//! injects simulated single-bit faults at uniformly random (tick, bit)
//! coordinates, and checks that the measured probability of striking ACE
//! state converges to the AVF that the counters report.
//!
//! A fault is counted as an *ACE hit* when the struck bit belonged to a
//! structure entry that was holding correct-path, non-NOP instruction
//! state at the strike tick — exactly the paper's ACE definition.

use crate::counters::avf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use relsim_cpu::{CoreConfig, CoreKind, RetireEvent};
use relsim_trace::OpClass;
use serde::{Deserialize, Serialize};

/// Result of a fault-injection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Number of faults injected.
    pub injections: u64,
    /// Faults that struck ACE state.
    pub ace_hits: u64,
    /// The hit-rate estimate of AVF.
    pub avf_estimate: f64,
    /// 95% confidence half-width of the estimate (normal approximation).
    pub confidence_95: f64,
    /// AVF computed by interval reconstruction (the campaign's ground
    /// truth, integrated exactly over the timeline).
    pub avf_exact: f64,
}

impl CampaignResult {
    /// Whether a counter-reported AVF is consistent with this campaign
    /// (inside the 95% interval widened by `slack`).
    pub fn consistent_with(&self, counter_avf: f64, slack: f64) -> bool {
        (counter_avf - self.avf_estimate).abs() <= self.confidence_95 + slack
    }
}

/// Per-tick ACE bit counts reconstructed from retirement events.
///
/// Built once per campaign; ticks are bucketed to bound memory
/// (`bucket_ticks` ticks per bucket, ACE bit-time averaged per bucket).
#[derive(Debug, Clone)]
pub struct AceTimeline {
    bucket_ticks: u64,
    /// Average ACE bits during each bucket.
    buckets: Vec<f64>,
    total_bits: u64,
}

impl AceTimeline {
    /// Reconstruct the timeline for a run of `duration` ticks on a core of
    /// configuration `cfg`, from its retirement events.
    ///
    /// # Panics
    ///
    /// Panics if `duration` or `bucket_ticks` is zero.
    pub fn from_events(
        cfg: &CoreConfig,
        events: &[RetireEvent],
        duration: u64,
        bucket_ticks: u64,
    ) -> Self {
        assert!(duration > 0 && bucket_ticks > 0);
        let n_buckets = duration.div_ceil(bucket_ticks) as usize;
        let mut bit_time = vec![0.0f64; n_buckets];

        // Spread `bits` uniformly over the interval [from, to) of ticks.
        let mut add = |from: u64, to: u64, bits: u64| {
            let (from, to) = (from.min(duration), to.min(duration));
            if from >= to || bits == 0 {
                return;
            }
            let mut t = from;
            while t < to {
                let b = (t / bucket_ticks) as usize;
                let bucket_end = ((b as u64 + 1) * bucket_ticks).min(to);
                bit_time[b] += (bucket_end - t) as f64 * bits as f64;
                t = bucket_end;
            }
        };

        let bits = cfg.bits;
        for ev in events {
            if ev.op == OpClass::Nop {
                continue;
            }
            match cfg.kind {
                CoreKind::Big => {
                    add(ev.dispatch, ev.commit, bits.rob_entry);
                    add(ev.dispatch, ev.issue, bits.iq_entry);
                    match ev.op {
                        OpClass::Load => add(ev.dispatch, ev.commit, bits.lq_entry),
                        OpClass::Store => add(ev.dispatch, ev.commit, bits.sq_entry),
                        _ => {}
                    }
                    if ev.has_output {
                        let reg = if ev.op.is_fp() {
                            bits.fp_reg
                        } else {
                            bits.int_reg
                        };
                        add(ev.finish, ev.commit, reg);
                    }
                }
                CoreKind::Small => {
                    add(ev.dispatch, ev.commit, bits.rob_entry);
                    add(ev.dispatch, ev.issue, bits.iq_entry);
                    if ev.op == OpClass::Store {
                        add(ev.issue, ev.commit, bits.sq_entry);
                    }
                }
            }
            let fu = if ev.op.is_fp() {
                bits.fp_fu
            } else {
                bits.int_fu
            };
            add(
                ev.issue,
                ev.issue + ev.exec_latency * cfg.ticks_per_cycle,
                fu,
            );
        }

        // Always-ACE live architectural registers.
        let arch = (u64::from(cfg.arch_int_regs) * bits.int_reg
            + u64::from(cfg.arch_fp_regs) * bits.fp_reg) as f64
            * bits.arch_reg_live_fraction;
        let buckets: Vec<f64> = bit_time
            .iter()
            .enumerate()
            .map(|(b, &bt)| {
                let start = b as u64 * bucket_ticks;
                let len = (bucket_ticks).min(duration - start) as f64;
                bt / len + arch
            })
            .collect();

        AceTimeline {
            bucket_ticks,
            buckets,
            total_bits: cfg.total_bits(),
        }
    }

    /// Average ACE bits at the bucket containing `tick`.
    pub fn ace_bits_at(&self, tick: u64) -> f64 {
        let b = (tick / self.bucket_ticks) as usize;
        self.buckets.get(b).copied().unwrap_or(0.0)
    }

    /// Exact AVF integrated over the timeline.
    pub fn avf(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        let mean: f64 = self.buckets.iter().sum::<f64>() / self.buckets.len() as f64;
        mean / self.total_bits as f64
    }
}

/// Run a fault-injection campaign of `injections` uniformly random
/// single-bit faults against the reconstructed timeline.
///
/// # Examples
///
/// ```
/// use relsim_ace::fault_injection::{run_campaign, AceTimeline};
/// use relsim_cpu::{CoreConfig, RetireEvent};
/// use relsim_trace::OpClass;
///
/// let cfg = CoreConfig::big();
/// let events = vec![RetireEvent {
///     op: OpClass::IntAlu, dispatch: 0, issue: 2, finish: 3, commit: 50,
///     exec_latency: 1, has_output: true,
/// }];
/// let timeline = AceTimeline::from_events(&cfg, &events, 100, 10);
/// let result = run_campaign(&timeline, 10_000, 42);
/// assert!(result.consistent_with(timeline.avf(), 0.01));
/// ```
pub fn run_campaign(timeline: &AceTimeline, injections: u64, seed: u64) -> CampaignResult {
    run_campaign_traced(timeline, injections, seed, &mut relsim_obs::NullSink)
}

/// [`run_campaign`], streaming one `FaultInjected` event per injection to
/// `sink` (tick = strike tick, outcome `"ace_hit"` or `"masked"`). The
/// event stream is a deterministic function of the seed.
pub fn run_campaign_traced(
    timeline: &AceTimeline,
    injections: u64,
    seed: u64,
    sink: &mut dyn relsim_obs::EventSink,
) -> CampaignResult {
    assert!(injections > 0, "need at least one injection");
    let mut rng = SmallRng::seed_from_u64(seed);
    let duration = timeline.buckets.len() as u64 * timeline.bucket_ticks;
    let mut hits = 0u64;
    for i in 0..injections {
        let tick = rng.gen_range(0..duration);
        // A uniformly random bit of the core is struck; it is ACE with
        // probability ace_bits(t) / total_bits.
        let p = (timeline.ace_bits_at(tick) / timeline.total_bits as f64).clamp(0.0, 1.0);
        let hit = rng.gen::<f64>() < p;
        if hit {
            hits += 1;
        }
        sink.emit(&relsim_obs::Event::FaultInjected {
            tick,
            injection: i,
            structure: "core".to_string(),
            outcome: if hit { "ace_hit" } else { "masked" }.to_string(),
        });
    }
    sink.flush();
    let est = hits as f64 / injections as f64;
    let ci = 1.96 * (est * (1.0 - est) / injections as f64).sqrt();
    CampaignResult {
        injections,
        ace_hits: hits,
        avf_estimate: est,
        confidence_95: ci,
        avf_exact: timeline.avf(),
    }
}

/// Convenience: run a benchmark in isolation on a core, reconstruct its
/// ACE timeline, inject faults and compare against the counter AVF.
///
/// Returns `(campaign, counter_avf)`.
pub fn validate_counters(
    cfg: &CoreConfig,
    profile: &relsim_trace::BenchmarkProfile,
    duration: u64,
    injections: u64,
    seed: u64,
) -> (CampaignResult, f64) {
    validate_counters_traced(
        cfg,
        profile,
        duration,
        injections,
        seed,
        &mut relsim_obs::NullSink,
    )
}

/// [`validate_counters`], streaming the fault-injection campaign's
/// `FaultInjected` events to `sink`.
pub fn validate_counters_traced(
    cfg: &CoreConfig,
    profile: &relsim_trace::BenchmarkProfile,
    duration: u64,
    injections: u64,
    seed: u64,
    sink: &mut dyn relsim_obs::EventSink,
) -> (CampaignResult, f64) {
    use crate::counters::PerfectAceCounters;
    use relsim_cpu::{Core, RetireObserver};
    use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
    use relsim_trace::TraceGenerator;

    struct Both {
        counters: PerfectAceCounters,
        events: Vec<RetireEvent>,
    }
    impl RetireObserver for Both {
        fn on_retire(&mut self, ev: &RetireEvent) {
            self.counters.on_retire(ev);
            self.events.push(*ev);
        }
    }

    let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut gen = TraceGenerator::new(profile.clone(), seed, 0);
    let mut both = Both {
        counters: PerfectAceCounters::new(cfg),
        events: Vec::new(),
    };
    let mut t = 0;
    while t < duration {
        t = core.step(t, duration, &mut gen, &mut shared, &mut both);
    }
    let counter_avf = avf(both.counters.abc(duration), cfg.total_bits(), duration);
    let timeline = AceTimeline::from_events(cfg, &both.events, duration, 64);
    let campaign = run_campaign_traced(&timeline, injections, seed ^ 0xfa57, sink);
    (campaign, counter_avf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dispatch: u64, issue: u64, finish: u64, commit: u64) -> RetireEvent {
        RetireEvent {
            op: OpClass::IntAlu,
            dispatch,
            issue,
            finish,
            commit,
            exec_latency: 1,
            has_output: true,
        }
    }

    #[test]
    fn empty_timeline_has_only_register_floor() {
        let cfg = CoreConfig::big();
        let t = AceTimeline::from_events(&cfg, &[], 1000, 10);
        let floor = 3072.0 * cfg.bits.arch_reg_live_fraction / cfg.total_bits() as f64;
        assert!((t.avf() - floor).abs() < 1e-12);
    }

    #[test]
    fn timeline_matches_counter_arithmetic() {
        // One instruction resident 0..50: interval reconstruction and the
        // counter formula must agree exactly.
        let cfg = CoreConfig::big();
        let events = vec![ev(0, 2, 3, 50)];
        let t = AceTimeline::from_events(&cfg, &events, 100, 10);
        use crate::counters::PerfectAceCounters;
        use relsim_cpu::RetireObserver;
        let mut c = PerfectAceCounters::new(&cfg);
        c.on_retire(&events[0]);
        let counter_avf = avf(c.abc(100), cfg.total_bits(), 100);
        assert!(
            (t.avf() - counter_avf).abs() < 1e-9,
            "timeline {} vs counters {counter_avf}",
            t.avf()
        );
    }

    #[test]
    fn campaign_converges_to_exact_avf() {
        let cfg = CoreConfig::big();
        let events: Vec<RetireEvent> = (0..50)
            .map(|i| ev(i * 20, i * 20 + 3, i * 20 + 4, i * 20 + 18))
            .collect();
        let t = AceTimeline::from_events(&cfg, &events, 1000, 10);
        let r = run_campaign(&t, 200_000, 7);
        assert!(
            r.consistent_with(t.avf(), 0.0),
            "estimate {} ± {} vs exact {}",
            r.avf_estimate,
            r.confidence_95,
            r.avf_exact
        );
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let cfg = CoreConfig::big();
        let events = vec![ev(0, 2, 3, 40), ev(10, 12, 13, 90)];
        let t = AceTimeline::from_events(&cfg, &events, 200, 10);
        let a = run_campaign(&t, 10_000, 3);
        let b = run_campaign(&t, 10_000, 3);
        assert_eq!(a, b);
        let c = run_campaign(&t, 10_000, 4);
        assert_ne!(a.ace_hits, c.ace_hits);
    }

    #[test]
    fn end_to_end_validation_on_real_workload() {
        let cfg = CoreConfig::big();
        let profile = relsim_trace::spec_profile("hmmer").unwrap();
        let (campaign, counter_avf) = validate_counters(&cfg, &profile, 60_000, 100_000, 11);
        // The interval reconstruction and the counters share the ACE
        // definition but not code; they must agree closely, and the Monte
        // Carlo estimate must bracket them.
        assert!(
            (campaign.avf_exact - counter_avf).abs() / counter_avf < 0.02,
            "reconstruction {} vs counters {counter_avf}",
            campaign.avf_exact
        );
        assert!(
            campaign.consistent_with(counter_avf, 0.01),
            "fault injection {} ± {} vs counters {counter_avf}",
            campaign.avf_estimate,
            campaign.confidence_95
        );
    }

    #[test]
    fn traced_campaign_emits_one_event_per_injection() {
        use relsim_obs::{Event, MemorySink};
        let cfg = CoreConfig::big();
        let events = vec![ev(0, 2, 3, 40), ev(10, 12, 13, 90)];
        let t = AceTimeline::from_events(&cfg, &events, 200, 10);
        let mut sink = MemorySink::new();
        let r = run_campaign_traced(&t, 500, 3, &mut sink);
        assert_eq!(sink.events.len(), 500);
        let hits = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::FaultInjected { outcome, .. } if outcome == "ace_hit"))
            .count() as u64;
        assert_eq!(hits, r.ace_hits, "event outcomes match the result");
        // Tracing must not perturb the campaign's RNG stream.
        let untraced = run_campaign(&t, 500, 3);
        assert_eq!(untraced, r);
    }

    #[test]
    #[should_panic(expected = "at least one injection")]
    fn zero_injections_rejected() {
        let cfg = CoreConfig::big();
        let t = AceTimeline::from_events(&cfg, &[], 100, 10);
        let _ = run_campaign(&t, 0, 1);
    }
}
