//! # relsim-ace
//!
//! ACE-bit counting, AVF computation and the hardware counter architecture
//! of *Reliability-Aware Scheduling on Heterogeneous Multicore Processors*
//! (HPCA 2017, Section 4.2).
//!
//! Three counter implementations are provided behind one interface
//! ([`AceCounter`]):
//!
//! * [`PerfectAceCounters`] — exact per-structure ACE bit-time accounting;
//! * [`HwAceCounters`] with [`CounterKind::HwBaseline`] — the paper's
//!   baseline hardware (two 12-bit timestamps per ROB entry, five 32-bit
//!   accumulators; 904 bytes per big core), emulated faithfully including
//!   timestamp wrap-around;
//! * [`HwAceCounters`] with [`CounterKind::HwRobOnly`] — the
//!   area-optimized variant that tracks ROB occupancy only (296 bytes) and
//!   uses it as a proxy for core ABC.
//!
//! The [`hw_cost`] module reproduces the paper's hardware cost arithmetic
//! (904 / 296 / 67 bytes), and [`fault_injection`] validates the ACE
//! analysis against Monte Carlo fault injection — the methodology ACE
//! analysis was designed to replace.
//!
//! # Quick start
//!
//! ```
//! use relsim_ace::{avf, AceCounter, CounterKind};
//! use relsim_cpu::{Core, CoreConfig};
//! use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
//! use relsim_trace::{spec_profile, TraceGenerator};
//!
//! let cfg = CoreConfig::big();
//! let mut core = Core::new(cfg.clone(), PrivateCacheConfig::default());
//! let mut counters = AceCounter::new(&cfg, CounterKind::Perfect);
//! let mut shared = SharedMem::new(SharedMemConfig::default());
//! let mut src = TraceGenerator::new(spec_profile("milc").unwrap(), 1, 0);
//! let mut tick = 0;
//! while tick < 50_000 {
//!     tick = core.step(tick, 50_000, &mut src, &mut shared, &mut counters);
//! }
//! let milc_avf = avf(counters.abc(50_000), cfg.total_bits(), 50_000);
//! println!("milc big-core AVF = {milc_avf:.3}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
pub mod fault_injection;
mod hardware;
pub mod hw_cost;
pub mod live;
mod tracker;

pub use counters::{avf, AbcStack, AceCounter, PerfectAceCounters, ABC_STACK_NAMES};
pub use hardware::{CounterKind, HwAceCounters};
pub use tracker::{AvfTracker, AvfWindow};
