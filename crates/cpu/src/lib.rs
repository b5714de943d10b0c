//! # relsim-cpu
//!
//! Cycle-level core models for the `relsim` heterogeneous multicore
//! simulator: a big 4-wide out-of-order core ([`OooCore`]) and a small
//! 2-wide in-order core ([`InorderCore`]), configured per Table 2 of
//! *Reliability-Aware Scheduling on Heterogeneous Multicore Processors*
//! (HPCA 2017).
//!
//! The models reproduce the microarchitectural mechanisms the paper's
//! reliability analysis depends on: ROB fill-up under memory stalls,
//! wrong-path execution after branch mispredictions, front-end drains, and
//! finite back-end resources. Committed instructions are reported to a
//! [`RetireObserver`] with full dispatch/issue/finish/commit timestamps,
//! from which the ACE counters in `relsim-ace` derive per-structure
//! occupancy.
//!
//! # Quick start
//!
//! ```
//! use relsim_cpu::{Core, CoreConfig, RecordingObserver};
//! use relsim_mem::{PrivateCacheConfig, SharedMem, SharedMemConfig};
//! use relsim_trace::{spec_profile, TraceGenerator};
//!
//! let mut core = Core::new(CoreConfig::big(), PrivateCacheConfig::default());
//! let mut shared = SharedMem::new(SharedMemConfig::default());
//! let mut src = TraceGenerator::new(spec_profile("milc").unwrap(), 1, 0);
//! let mut obs = RecordingObserver::default();
//! // `step` ticks once, charges the dead ticks after it in closed form,
//! // and returns the next tick the core must be stepped at.
//! let mut tick = 0;
//! while tick < 50_000 {
//!     tick = core.step(tick, 50_000, &mut src, &mut shared, &mut obs);
//! }
//! let ipc = core.committed() as f64 / core.cycles() as f64;
//! println!("milc on the big core: IPC = {ipc:.2}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod checkpoint;
mod config;
mod core;
mod cpi;
mod events;
mod ff;
mod fu;
mod inorder;
mod ooo;
mod wheel;

pub use crate::core::Core;
pub use checkpoint::{Checkpoint, StateDigest};
pub use config::{BitWidths, CoreConfig, CoreKind, FuConfig};
pub use cpi::{CpiStack, StallCause, CPI_COMPONENT_NAMES};
pub use events::{NullObserver, RecordingObserver, RetireEvent, RetireObserver};
pub use fu::FuPool;
pub use inorder::InorderCore;
pub use ooo::OooCore;
