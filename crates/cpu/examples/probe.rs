use relsim_cpu::*;
use relsim_mem::*;
use relsim_trace::*;
use std::time::Instant;

struct Replay {
    v: Vec<Instr>,
    i: usize,
}
impl InstrSource for Replay {
    fn next_instr(&mut self) -> Instr {
        let x = self.v[self.i % self.v.len()];
        self.i += 1;
        x
    }
    fn wrong_path_instr(&mut self) -> Instr {
        Instr {
            op: OpClass::IntAlu,
            src1: Some(1),
            ..Instr::nop()
        }
    }
}

fn main() {
    // 1) generation alone
    let mut g = TraceGenerator::new(spec_profile("hmmer").unwrap(), 1, 0);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..2_000_000 {
        acc = acc.wrapping_add(g.next_instr().addr);
    }
    println!(
        "gen alone: {:.0}ns/instr (acc {acc})",
        t0.elapsed().as_secs_f64() / 2e6 * 1e9
    );

    // 2) pre-generated replay through the core
    let mut g = TraceGenerator::new(spec_profile("hmmer").unwrap(), 1, 0);
    let v: Vec<Instr> = (0..2_000_000).map(|_| g.next_instr()).collect();
    let mut core = Core::new(CoreConfig::big(), PrivateCacheConfig::default());
    let mut shared = SharedMem::new(SharedMemConfig::default());
    let mut src = Replay { v, i: 0 };
    let mut obs = NullObserver;
    let t0 = Instant::now();
    let mut t = 0;
    while t < 1_000_000 {
        t = core.step(t, 1_000_000, &mut src, &mut shared, &mut obs);
    }
    let el = t0.elapsed().as_secs_f64();
    println!(
        "core only: {:.0}ns/cycle, ipc={:.2}, {:.0}ns/instr",
        el / 1e6 * 1e9,
        core.committed() as f64 / 1e6,
        el / core.committed() as f64 * 1e9
    );
}
