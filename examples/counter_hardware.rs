//! The hardware ACE counter architecture (Section 4.2): compare the
//! quantized hardware counters against perfect accounting on a real
//! instruction stream, and print the hardware cost table.
//!
//! ```text
//! cargo run --release --example counter_hardware
//! ```

use relsim_ace::hw_cost::{baseline_big, in_order_small, rob_only_big};
use relsim_ace::{AceCounter, CounterKind};
use relsim_cpu::{Core, CoreConfig, RetireObserver};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_trace::{spec_profile, TraceGenerator};

/// Feed one core three counters at once.
struct Tee<'a>(&'a mut [AceCounter]);

impl RetireObserver for Tee<'_> {
    fn on_retire(&mut self, ev: &relsim_cpu::RetireEvent) {
        for c in self.0.iter_mut() {
            c.on_retire(ev);
        }
    }
}

fn main() {
    println!("# Hardware cost (Section 4.2)");
    for (label, cost, paper) in [
        ("baseline big core", baseline_big(128, 4), 904),
        ("ROB-only big core", rob_only_big(128, 4), 296),
        ("in-order small core", in_order_small(5, 2), 67),
    ] {
        println!(
            "  {label:<20}: {:>5} bits = {:>3} bytes (paper: {paper})",
            cost.total_bits(),
            cost.total_bytes()
        );
    }

    println!("\n# Counter accuracy on a real instruction stream (big core)");
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "benchmark", "perfect ABC", "baseline HW", "ROB-only HW", "HW err", "ROBcover"
    );
    let ticks = 300_000u64;
    for name in ["milc", "hmmer", "gobmk", "mcf", "povray"] {
        let cfg = CoreConfig::big();
        let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut src = TraceGenerator::new(spec_profile(name).unwrap(), 1, 0);
        let mut counters = [
            AceCounter::new(&cfg, CounterKind::Perfect),
            AceCounter::new(&cfg, CounterKind::HwBaseline),
            AceCounter::new(&cfg, CounterKind::HwRobOnly),
        ];
        let mut t = 0;
        while t < ticks {
            t = core.step(t, ticks, &mut src, &mut shared, &mut Tee(&mut counters));
        }
        let perfect = counters[0].abc(ticks);
        let hw = counters[1].abc(ticks);
        let rob = counters[2].abc(ticks);
        println!(
            "{:<12} {:>14.3e} {:>14.3e} {:>14.3e} {:>8.2}% {:>8.2}%",
            name,
            perfect,
            hw,
            rob,
            (hw / perfect - 1.0) * 100.0,
            rob / perfect * 100.0
        );
    }
    println!(
        "\nThe baseline hardware tracks perfect accounting closely despite its \
         wrapped 12-bit\ntimestamps; the ROB-only variant captures a stable share \
         of core ABC, which is why\nrelative scheduling decisions survive the \
         3x cheaper implementation (Figure 10)."
    );
}
