//! Statistical profiles for the 29 SPEC CPU2006 benchmarks.
//!
//! This module is the repository's substitution for the paper's
//! 1-billion-instruction SimPoint traces (DESIGN.md §1). Each benchmark is
//! described by instruction mix, ILP (mean dependency distance), branch
//! misprediction rate, I-cache miss rate and memory working-set behaviour.
//! The parameters are calibrated so that the *mechanisms* that produce the
//! paper's AVF spread are present:
//!
//! * front-end-miss-dominated codes (gobmk, sjeng, perlbench, gcc, …) drain
//!   the pipeline and exhibit **low** big-core AVF;
//! * memory-intensive codes that also mispredict heavily (mcf, libquantum,
//!   astar, omnetpp) fill the ROB with **un-ACE wrong-path** instructions
//!   underneath long-latency loads — also low AVF;
//! * memory-streaming codes with predictable branches (milc, lbm, leslie3d,
//!   bwaves, GemsFDTD, cactusADM) block the ROB head on memory with
//!   correct-path state behind it — **high** AVF;
//! * compute-dense, high-occupancy codes (zeusmp, hmmer) — high AVF;
//! * calculix carries an explicit low-ABC end-of-run phase, reproducing the
//!   phase change the paper uses in Figure 4.

use crate::profile::{BenchmarkProfile, MemoryProfile, OpMix, PhaseProfile, Suite};
use std::sync::OnceLock;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Nominal phase length for single-phase benchmarks (statistically
/// homogeneous, so the value only affects phase-cycling bookkeeping).
const PHASE: u64 = 1_000_000;

#[allow(clippy::too_many_arguments)]
fn mix(
    load: f64,
    store: f64,
    branch: f64,
    int_mul: f64,
    int_div: f64,
    fp_add: f64,
    fp_mul: f64,
    fp_div: f64,
    nop: f64,
) -> OpMix {
    let m = OpMix {
        load,
        store,
        branch,
        int_mul,
        int_div,
        fp_add,
        fp_mul,
        fp_div,
        nop,
    };
    debug_assert!(m.is_valid(), "invalid mix");
    m
}

fn mem(stream: f64, hot: f64, hot_bytes: u64, cold_bytes: u64) -> MemoryProfile {
    let m = MemoryProfile {
        stream_fraction: stream,
        hot_fraction: hot,
        hot_bytes,
        cold_bytes,
        stream_stride: 8,
    };
    debug_assert!(m.is_valid(), "invalid memory profile");
    m
}

fn phase(
    len: u64,
    mix: OpMix,
    dep: f64,
    mispredict: f64,
    icache: f64,
    mem: MemoryProfile,
) -> PhaseProfile {
    PhaseProfile {
        len_instrs: len,
        mix,
        mean_dep_dist: dep,
        branch_mispredict_rate: mispredict,
        icache_miss_rate: icache,
        mem,
    }
}

fn bench(name: &str, suite: Suite, phases: Vec<PhaseProfile>) -> BenchmarkProfile {
    let b = BenchmarkProfile {
        name: name.to_owned(),
        suite,
        phases,
    };
    debug_assert!(b.is_valid());
    b
}

/// Build the full catalog of 29 SPEC CPU2006 benchmark profiles
/// (12 SPECint + 17 SPECfp), in suite order.
///
/// # Examples
///
/// ```
/// let profiles = relsim_trace::spec2006_profiles();
/// assert_eq!(profiles.len(), 29);
/// assert!(profiles.iter().any(|p| p.name == "mcf"));
/// ```
pub fn spec2006_profiles() -> Vec<BenchmarkProfile> {
    use Suite::{Fp, Int};
    vec![
        // ------------------------------------------------------ SPECint
        // perlbench: branchy interpreter with a large instruction footprint;
        // front-end misses drain the pipeline -> low AVF.
        bench(
            "perlbench",
            Int,
            vec![phase(
                PHASE,
                mix(0.24, 0.11, 0.21, 0.005, 0.0005, 0.0, 0.0, 0.0, 0.02),
                3.5,
                0.050,
                0.015,
                mem(0.05, 0.88, 32 * KB, MB),
            )],
        ),
        // bzip2: compression loops, modest working set -> medium.
        bench(
            "bzip2",
            Int,
            vec![phase(
                PHASE,
                mix(0.26, 0.09, 0.15, 0.01, 0.0, 0.0, 0.0, 0.0, 0.01),
                4.5,
                0.040,
                0.0005,
                mem(0.10, 0.80, 24 * KB, 2 * MB),
            )],
        ),
        // gcc: compiler; branchy with big code footprint -> low.
        bench(
            "gcc",
            Int,
            vec![phase(
                PHASE,
                mix(0.25, 0.13, 0.20, 0.005, 0.0, 0.0, 0.0, 0.0, 0.03),
                3.5,
                0.045,
                0.020,
                mem(0.05, 0.80, 32 * KB, 4 * MB),
            )],
        ),
        // mcf: pointer-chasing over a huge graph with poorly-predicted
        // branches; the ROB fills with wrong-path instructions underneath
        // memory accesses -> low AVF despite being memory-intensive.
        bench(
            "mcf",
            Int,
            vec![phase(
                PHASE,
                mix(0.35, 0.09, 0.19, 0.0, 0.0, 0.0, 0.0, 0.0, 0.01),
                3.0,
                0.090,
                0.001,
                mem(0.05, 0.30, 16 * KB, 256 * MB),
            )],
        ),
        // gobmk: game tree search, worst-case branch prediction -> low.
        bench(
            "gobmk",
            Int,
            vec![phase(
                PHASE,
                mix(0.22, 0.12, 0.21, 0.005, 0.0, 0.0, 0.0, 0.0, 0.02),
                3.2,
                0.110,
                0.010,
                mem(0.03, 0.92, 32 * KB, 512 * KB),
            )],
        ),
        // hmmer: high-IPC dense integer compute, nearly perfect prediction;
        // back-end queues stay full -> high occupancy, medium/high AVF.
        bench(
            "hmmer",
            Int,
            vec![phase(
                PHASE,
                mix(0.28, 0.12, 0.08, 0.01, 0.0, 0.0, 0.0, 0.0, 0.005),
                7.0,
                0.010,
                0.0002,
                mem(0.02, 0.96, 24 * KB, 256 * KB),
            )],
        ),
        // sjeng: chess search, heavy misprediction -> low.
        bench(
            "sjeng",
            Int,
            vec![phase(
                PHASE,
                mix(0.21, 0.08, 0.22, 0.005, 0.0, 0.0, 0.0, 0.0, 0.02),
                3.2,
                0.100,
                0.005,
                mem(0.03, 0.92, 32 * KB, 512 * KB),
            )],
        ),
        // libquantum: streaming over large arrays, but the frequent
        // mispredicted loop-exit branches put wrong-path state underneath
        // the memory accesses -> low AVF (paper, Section 2.3).
        bench(
            "libquantum",
            Int,
            vec![phase(
                PHASE,
                mix(0.25, 0.07, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.01),
                5.0,
                0.055,
                0.0001,
                mem(0.60, 0.20, 16 * KB, 128 * MB),
            )],
        ),
        // h264ref: media encoder, regular kernels -> medium.
        bench(
            "h264ref",
            Int,
            vec![phase(
                PHASE,
                mix(0.28, 0.13, 0.10, 0.02, 0.0, 0.0, 0.0, 0.0, 0.01),
                5.0,
                0.025,
                0.002,
                mem(0.15, 0.85, 32 * KB, MB),
            )],
        ),
        // omnetpp: discrete-event simulation, pointer-heavy with
        // mispredictions -> low.
        bench(
            "omnetpp",
            Int,
            vec![phase(
                PHASE,
                mix(0.28, 0.15, 0.18, 0.005, 0.0, 0.0, 0.0, 0.0, 0.015),
                3.3,
                0.050,
                0.010,
                mem(0.05, 0.50, 32 * KB, 48 * MB),
            )],
        ),
        // astar: path-finding, data-dependent branches over a large map ->
        // low.
        bench(
            "astar",
            Int,
            vec![phase(
                PHASE,
                mix(0.29, 0.09, 0.17, 0.0, 0.0, 0.0, 0.0, 0.0, 0.01),
                3.1,
                0.080,
                0.0005,
                mem(0.05, 0.50, 24 * KB, 24 * MB),
            )],
        ),
        // xalancbmk: XML transformation, branchy with a large footprint ->
        // low/medium.
        bench(
            "xalancbmk",
            Int,
            vec![phase(
                PHASE,
                mix(0.30, 0.09, 0.22, 0.0, 0.0, 0.0, 0.0, 0.0, 0.01),
                3.4,
                0.035,
                0.015,
                mem(0.05, 0.70, 32 * KB, 8 * MB),
            )],
        ),
        // ------------------------------------------------------- SPECfp
        // bwaves: blast-wave CFD, long vectorizable streams -> high.
        bench(
            "bwaves",
            Fp,
            vec![phase(
                PHASE,
                mix(0.30, 0.08, 0.03, 0.0, 0.0, 0.16, 0.13, 0.005, 0.01),
                9.0,
                0.004,
                0.0001,
                mem(0.70, 0.15, 16 * KB, 96 * MB),
            )],
        ),
        // gamess: quantum chemistry, cache-resident compute -> medium.
        bench(
            "gamess",
            Fp,
            vec![phase(
                PHASE,
                mix(0.26, 0.08, 0.07, 0.005, 0.0, 0.16, 0.13, 0.005, 0.01),
                5.5,
                0.012,
                0.003,
                mem(0.05, 0.95, 32 * KB, 512 * KB),
            )],
        ),
        // milc: lattice QCD; memory-intensive with predictable control flow,
        // loads block the ROB head with ACE state behind them -> high
        // (paper, Section 2.3).
        bench(
            "milc",
            Fp,
            vec![phase(
                PHASE,
                mix(0.32, 0.12, 0.02, 0.0, 0.0, 0.15, 0.12, 0.002, 0.01),
                10.0,
                0.002,
                0.0002,
                mem(0.55, 0.25, 16 * KB, 128 * MB),
            )],
        ),
        // zeusmp: CFD with high IPC and MLP via full back-end queues -> high
        // (paper, Section 2.3).
        bench(
            "zeusmp",
            Fp,
            vec![phase(
                PHASE,
                mix(0.26, 0.10, 0.03, 0.005, 0.0, 0.18, 0.15, 0.005, 0.005),
                9.0,
                0.002,
                0.0003,
                mem(0.05, 0.92, 32 * KB, MB),
            )],
        ),
        // gromacs: molecular dynamics, cache-friendly kernels -> medium.
        bench(
            "gromacs",
            Fp,
            vec![phase(
                PHASE,
                mix(0.28, 0.09, 0.06, 0.005, 0.0, 0.16, 0.13, 0.008, 0.01),
                6.0,
                0.010,
                0.001,
                mem(0.05, 0.90, 32 * KB, MB),
            )],
        ),
        // cactusADM: numerical relativity stencils over big grids -> high.
        bench(
            "cactusADM",
            Fp,
            vec![phase(
                PHASE,
                mix(0.30, 0.11, 0.01, 0.0, 0.0, 0.18, 0.15, 0.003, 0.005),
                7.0,
                0.001,
                0.0002,
                mem(0.40, 0.45, 32 * KB, 48 * MB),
            )],
        ),
        // leslie3d: CFD streams -> high.
        bench(
            "leslie3d",
            Fp,
            vec![phase(
                PHASE,
                mix(0.30, 0.10, 0.04, 0.0, 0.0, 0.16, 0.13, 0.004, 0.01),
                8.5,
                0.003,
                0.0002,
                mem(0.60, 0.20, 24 * KB, 80 * MB),
            )],
        ),
        // namd: molecular dynamics, cache-resident -> medium.
        bench(
            "namd",
            Fp,
            vec![phase(
                PHASE,
                mix(0.26, 0.07, 0.05, 0.005, 0.0, 0.18, 0.15, 0.005, 0.005),
                6.5,
                0.006,
                0.0003,
                mem(0.05, 0.95, 32 * KB, 512 * KB),
            )],
        ),
        // dealII: finite elements, mixed behaviour -> medium.
        bench(
            "dealII",
            Fp,
            vec![phase(
                PHASE,
                mix(0.30, 0.10, 0.13, 0.005, 0.0, 0.11, 0.08, 0.004, 0.01),
                4.5,
                0.020,
                0.004,
                mem(0.05, 0.75, 32 * KB, 8 * MB),
            )],
        ),
        // soplex: LP solver with large sparse data -> sensitive (used in the
        // paper's Figure 11 example).
        bench(
            "soplex",
            Fp,
            vec![phase(
                PHASE,
                mix(0.32, 0.08, 0.14, 0.005, 0.0, 0.10, 0.07, 0.003, 0.01),
                6.0,
                0.020,
                0.002,
                mem(0.20, 0.55, 32 * KB, 24 * MB),
            )],
        ),
        // povray: ray tracer with near-constant behaviour; single phase ->
        // the flat ABC line in Figure 4.
        bench(
            "povray",
            Fp,
            vec![phase(
                PHASE,
                mix(0.28, 0.11, 0.12, 0.005, 0.0, 0.13, 0.10, 0.008, 0.01),
                5.0,
                0.015,
                0.002,
                mem(0.03, 0.93, 32 * KB, 512 * KB),
            )],
        ),
        // calculix: structural mechanics; a long high-occupancy compute
        // phase followed by a short, branchy, low-ABC phase, reproducing the
        // end-of-run ABC drop the paper exploits in Figure 4.
        bench(
            "calculix",
            Fp,
            vec![
                phase(
                    150_000,
                    mix(0.26, 0.08, 0.04, 0.005, 0.0, 0.18, 0.15, 0.005, 0.005),
                    7.5,
                    0.003,
                    0.0003,
                    mem(0.25, 0.60, 32 * KB, 8 * MB),
                ),
                phase(
                    40_000,
                    mix(0.22, 0.10, 0.20, 0.005, 0.0, 0.04, 0.03, 0.0, 0.02),
                    2.8,
                    0.070,
                    0.010,
                    mem(0.05, 0.85, 32 * KB, MB),
                ),
            ],
        ),
        // GemsFDTD: finite-difference time domain, streaming -> high.
        bench(
            "GemsFDTD",
            Fp,
            vec![phase(
                PHASE,
                mix(0.31, 0.10, 0.03, 0.0, 0.0, 0.15, 0.13, 0.003, 0.01),
                9.0,
                0.003,
                0.0002,
                mem(0.65, 0.15, 16 * KB, 96 * MB),
            )],
        ),
        // tonto: quantum chemistry -> medium.
        bench(
            "tonto",
            Fp,
            vec![phase(
                PHASE,
                mix(0.26, 0.09, 0.08, 0.005, 0.0, 0.15, 0.13, 0.005, 0.01),
                5.0,
                0.012,
                0.004,
                mem(0.05, 0.90, 32 * KB, MB),
            )],
        ),
        // lbm: lattice Boltzmann; almost pure streaming with virtually no
        // branches -> high.
        bench(
            "lbm",
            Fp,
            vec![phase(
                PHASE,
                mix(0.32, 0.14, 0.01, 0.0, 0.0, 0.16, 0.14, 0.002, 0.005),
                10.0,
                0.0005,
                0.0001,
                mem(0.75, 0.10, 16 * KB, 192 * MB),
            )],
        ),
        // wrf: weather model, mixed compute/memory -> medium.
        bench(
            "wrf",
            Fp,
            vec![phase(
                PHASE,
                mix(0.28, 0.09, 0.06, 0.005, 0.0, 0.16, 0.13, 0.004, 0.01),
                6.0,
                0.008,
                0.003,
                mem(0.20, 0.70, 32 * KB, 16 * MB),
            )],
        ),
        // sphinx3: speech recognition -> medium.
        bench(
            "sphinx3",
            Fp,
            vec![phase(
                PHASE,
                mix(0.30, 0.06, 0.09, 0.005, 0.0, 0.14, 0.11, 0.003, 0.01),
                5.5,
                0.015,
                0.002,
                mem(0.30, 0.60, 24 * KB, 8 * MB),
            )],
        ),
    ]
}

/// Look up one benchmark profile by name.
///
/// # Examples
///
/// ```
/// let mcf = relsim_trace::spec_profile("mcf").expect("mcf exists");
/// assert_eq!(mcf.name, "mcf");
/// assert!(relsim_trace::spec_profile("nosuch").is_none());
/// ```
pub fn spec_profile(name: &str) -> Option<BenchmarkProfile> {
    catalog().iter().find(|p| p.name == name).cloned()
}

/// Names of all 29 benchmarks, in catalog order.
pub fn spec_names() -> Vec<String> {
    catalog().iter().map(|p| p.name.clone()).collect()
}

/// The catalog, built once per process: lookups clone one profile
/// instead of rebuilding all 29.
fn catalog() -> &'static [BenchmarkProfile] {
    static CATALOG: OnceLock<Vec<BenchmarkProfile>> = OnceLock::new();
    CATALOG.get_or_init(spec2006_profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_29_valid_benchmarks() {
        let all = spec2006_profiles();
        assert_eq!(all.len(), 29);
        for p in &all {
            assert!(p.is_valid(), "{} invalid", p.name);
        }
        let ints = all.iter().filter(|p| p.suite == Suite::Int).count();
        let fps = all.iter().filter(|p| p.suite == Suite::Fp).count();
        assert_eq!(ints, 12);
        assert_eq!(fps, 17);
    }

    #[test]
    fn lookups_return_the_catalog_profiles() {
        let all = spec2006_profiles();
        assert_eq!(
            spec_names(),
            all.iter().map(|p| p.name.clone()).collect::<Vec<_>>()
        );
        for p in &all {
            assert_eq!(spec_profile(&p.name).as_ref(), Some(p));
        }
        assert!(spec_profile("nosuch").is_none());
    }

    #[test]
    fn names_unique() {
        let names = spec_names();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn calculix_has_phase_change() {
        let c = spec_profile("calculix").unwrap();
        assert!(c.phases.len() >= 2, "calculix needs an end-of-run phase");
        let first = &c.phases[0];
        let last = c.phases.last().unwrap();
        assert!(
            last.branch_mispredict_rate > first.branch_mispredict_rate * 5.0,
            "final phase should be drain-heavy (low ABC)"
        );
    }

    #[test]
    fn povray_is_single_phase() {
        let p = spec_profile("povray").unwrap();
        assert_eq!(p.phases.len(), 1, "povray has near-constant ABC (Fig. 4)");
    }

    #[test]
    fn low_avf_candidates_mispredict_more_than_high() {
        let get = |n: &str| spec_profile(n).unwrap().phases[0].branch_mispredict_rate;
        for low in ["mcf", "gobmk", "sjeng", "libquantum"] {
            for high in ["milc", "lbm", "zeusmp", "leslie3d"] {
                assert!(
                    get(low) > get(high) * 5.0,
                    "{low} should mispredict far more than {high}"
                );
            }
        }
    }
}
