use relsim::experiments::*;
use relsim::mixes::Mix;
use relsim::*;

fn main() {
    let scale = Scale::default_scale();
    let ctx = Context::build(scale);
    let mixes = [
        ("HHLL", vec!["milc", "zeusmp", "astar", "perlbench"]),
        ("HHHH", vec!["calculix", "bwaves", "leslie3d", "lbm"]),
        ("MMMM", vec!["gamess", "hmmer", "gromacs", "tonto"]),
        ("LLLL", vec!["gcc", "xalancbmk", "mcf", "libquantum"]),
    ];
    let settings = [(0.0, 1.0), (0.0, 0.6), (0.03, 0.6), (0.08, 0.5)];
    let cfgs = hcmp_config(&ctx, 2, 2);
    println!(
        "{:<6} {:<10} {}",
        "mix",
        "sched",
        settings.map(|(t, b)| format!("  th{t}/bl{b}")).join("")
    );
    for (label, names) in &mixes {
        let mix = Mix {
            category: label.to_string(),
            benchmarks: names.iter().map(|s| s.to_string()).collect(),
        };
        for sched in [SchedKind::PerfOpt, SchedKind::RelOpt] {
            let mut row = String::new();
            for (th, bl) in settings {
                let p = SamplingParams {
                    switch_threshold: th,
                    sample_blend: bl,
                    ..SamplingParams::default()
                };
                let (e, _) = run_mix(&ctx, &cfgs, &mix, sched, p);
                row += &format!(" {:>10.3e}", e.sser);
            }
            println!("{:<6} {:<10}{row}", label, format!("{:?}", sched));
        }
    }
}
