//! Record/replay traces and validate ACE analysis with fault injection.
//!
//! Demonstrates two library features beyond the paper's core experiments:
//! the compact binary trace format (generate once, replay anywhere) and
//! the Monte Carlo fault-injection campaign that cross-checks the ACE
//! counters.
//!
//! ```text
//! cargo run --release --example trace_and_faults
//! ```

use relsim_ace::fault_injection::validate_counters;
use relsim_cpu::{Core, CoreConfig, NullObserver};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_trace::{record_from_source, spec_profile, RecordedTrace, TraceGenerator};

fn main() {
    // 1. Record 200k instructions of milc to an in-memory trace file.
    let profile = spec_profile("milc").expect("catalog benchmark");
    let mut live = TraceGenerator::new(profile.clone(), 7, 0);
    let mut buf = Vec::new();
    let n = record_from_source(&mut live, 200_000, &mut buf).expect("record");
    println!(
        "recorded {n} milc instructions into {} bytes ({} B/instr)",
        buf.len(),
        buf.len() as u64 / n
    );

    // 2. Replay the trace through the big core and compare against live
    //    generation — bit-identical behaviour.
    let run = |mut src: Box<dyn relsim_trace::InstrSource>| {
        let mut core = Core::new(CoreConfig::big(), PrivateCacheConfig::default());
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        let mut t = 0;
        while t < 150_000 {
            t = core.step(t, 150_000, src.as_mut(), &mut shared, &mut obs);
        }
        (core.committed(), core.cycles())
    };
    let replayed = RecordedTrace::read(&buf[..]).expect("valid trace");
    let from_replay = run(Box::new(replayed));
    let from_live = run(Box::new(TraceGenerator::new(profile.clone(), 7, 0)));
    println!(
        "replayed run:  {} instructions in {} cycles",
        from_replay.0, from_replay.1
    );
    println!(
        "live run:      {} instructions in {} cycles",
        from_live.0, from_live.1
    );
    assert_eq!(from_replay, from_live, "replay must match live generation");

    // 3. Fault-injection: cross-check the ACE counters.
    println!("\ninjecting 200,000 random single-bit faults against the ACE timeline...");
    for cfg in [CoreConfig::big(), CoreConfig::small()] {
        let kind = cfg.kind;
        let (campaign, counter_avf) = validate_counters(&cfg, &profile, 120_000, 200_000, 3);
        println!(
            "{kind:>6} core: counters say AVF {counter_avf:.4}; {} faults hit ACE state \
             -> AVF {:.4} ± {:.4} ({})",
            campaign.ace_hits,
            campaign.avf_estimate,
            campaign.confidence_95,
            if campaign.consistent_with(counter_avf, 0.005) {
                "consistent"
            } else {
                "INCONSISTENT"
            }
        );
    }
}
