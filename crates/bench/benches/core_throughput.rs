//! Simulation throughput of the two core models on representative
//! workload profiles (simulated cycles per wall second).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use relsim_ace::{AceCounter, CounterKind};
use relsim_cpu::{Core, CoreConfig};
use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
use relsim_trace::{spec_profile, TraceGenerator};

fn bench_cores(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_throughput");
    const TICKS: u64 = 50_000;
    group.throughput(Throughput::Elements(TICKS));
    for bench in ["hmmer", "milc", "gobmk"] {
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let label = format!("{bench}/{}", cfg.kind);
            group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
                b.iter(|| {
                    let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
                    let mut shared = SharedMem::new(SharedMemConfig::default());
                    let mut counter = AceCounter::new(cfg, CounterKind::Perfect);
                    let mut src = TraceGenerator::new(spec_profile(bench).unwrap(), 1, 0);
                    let mut t = 0;
                    while t < TICKS {
                        t = core.step(t, TICKS, &mut src, &mut shared, &mut counter);
                    }
                    core.committed()
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cores
}
criterion_main!(benches);
