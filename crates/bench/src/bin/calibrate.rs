//! Profile calibration report: for every SPEC CPU2006 profile, compare the
//! configured statistical targets against the realized characteristics of
//! the generated stream and the resulting microarchitectural behaviour.
//! Used when tuning the workload catalog (DESIGN.md §1).

use relsim_cpu::{Core, CoreConfig, NullObserver};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_trace::{spec2006_profiles, InstrSource, OpClass, TraceGenerator};

fn main() {
    relsim_bench::obs_init();
    let quick = std::env::args().any(|a| a == "--quick");
    let n_instr: u64 = if quick { 50_000 } else { 300_000 };
    let ticks: u64 = if quick { 100_000 } else { 400_000 };

    println!("# Workload profile calibration ({n_instr} instrs sampled, {ticks}-tick sim)");
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>8}",
        "benchmark", "load%", "br%", "mis/br", "nop%", "dep(avg)", "bigIPC", "l1d%", "mem/Ki"
    );
    for p in spec2006_profiles() {
        // Stream statistics.
        let mut g = TraceGenerator::new(p.clone(), 1, 0);
        let (mut loads, mut branches, mut mis, mut nops, mut dep_sum, mut dep_n) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for _ in 0..n_instr {
            let i = g.next_instr();
            match i.op {
                OpClass::Load => loads += 1,
                OpClass::Branch => {
                    branches += 1;
                    mis += i.mispredict as u64;
                }
                OpClass::Nop => nops += 1,
                _ => {}
            }
            for d in [i.src1, i.src2].into_iter().flatten() {
                dep_sum += u64::from(d);
                dep_n += 1;
            }
        }
        // Microarchitectural behaviour on the big core.
        let cfg = CoreConfig::big();
        let mut core = Core::new(cfg, PrivateCacheConfig::default());
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut src = TraceGenerator::new(p.clone(), 1, 0);
        let (base, bytes) = src.l3_warm_span();
        shared.warm_region(base, bytes);
        let mut obs = NullObserver;
        for t in 0..ticks {
            core.tick(t, &mut src, &mut shared, &mut obs);
        }
        let (l1i, l1d, _) = core.cache_stats();
        let _ = l1i;
        let mem_per_ki = core.loads_by_level()[3] as f64 / (core.committed() as f64 / 1000.0);
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>7.3} {:>6.2}% {:>8.2} {:>8.3} {:>6.1}% {:>8.2}",
            p.name,
            loads as f64 / n_instr as f64 * 100.0,
            branches as f64 / n_instr as f64 * 100.0,
            if branches > 0 {
                mis as f64 / branches as f64
            } else {
                0.0
            },
            nops as f64 / n_instr as f64 * 100.0,
            dep_sum as f64 / dep_n.max(1) as f64,
            core.committed() as f64 / core.cycles() as f64,
            (1.0 - l1d.miss_ratio()) * 100.0,
            mem_per_ki,
        );
    }
}
