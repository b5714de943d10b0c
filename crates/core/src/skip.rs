//! Process-wide default for the event-horizon cycle-skipping mode of the
//! detailed engine (DESIGN.md §11).
//!
//! Skipping is on by default: every core advances through
//! [`Core::step`](relsim_cpu::Core::step), which charges dead ticks in
//! closed form up to the core's event horizon, and the result is
//! byte-identical to ticking every tick (the horizon-equivalence test
//! suite is the referee), so there is no accuracy trade-off, only speed.
//! `--no-skip` flips this default off and selects the referee: a naive
//! loop that ticks every core on every tick and never reads a horizon, for
//! A/B timing and for bisecting a suspected equivalence bug. Only the
//! multicore [`System`](crate::System) reads the flag; bare-core loops
//! (isolated runs, counter validation, checkpointed runs) always step.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default, consulted by [`System::new`](crate::System::new).
/// Stored as an atomic so reads are lock-free; set once at startup by
/// `obs_init` before any parallel work begins, mirroring
/// [`sampling::set_default`](crate::sampling::set_default).
static DEFAULT_ENABLED: AtomicBool = AtomicBool::new(true);

/// Install the process-wide default for cycle skipping. Call before
/// spawning experiment-pool workers.
pub fn set_default_enabled(enabled: bool) {
    DEFAULT_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether newly built [`System`](crate::System)s skip dead cycles.
pub fn default_enabled() -> bool {
    DEFAULT_ENABLED.load(Ordering::SeqCst)
}
