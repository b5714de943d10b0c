//! relsim-obs: the observability layer threaded through the simulation
//! stack.
//!
//! The simulator used to report results only as end-of-run aggregates and
//! scattered stderr prints. This crate gives every run four structured
//! views instead:
//!
//! 1. a [`Recorder`] — named counters, gauges, and log2-bucketed
//!    histograms, cheap enough to update inside the simulation loop and
//!    snapshotable to JSON ([`MetricsSnapshot`]);
//! 2. a structured JSONL event log — an [`Event`] per scheduler decision,
//!    migration, sample, quantum boundary, or injected fault, each
//!    carrying its simulated-tick timestamp, written through a pluggable
//!    [`EventSink`] (file, in-memory for tests, or null). Event bytes are
//!    a deterministic function of the run's seed, so determinism tests can
//!    assert byte-identical logs;
//! 3. a span profiler ([`span`], off unless `--profile` or
//!    `--trace-spans`) that partitions host wall-time exactly across
//!    named stages, from `System::new` set-up through the engine loop to
//!    metric evaluation, and reports a [`StageProfile`] per run;
//! 4. a [`RunManifest`] — written by `simulate` next to its
//!    `--metrics-out`/`--trace-out` file and by `relsim-serve` per
//!    computed request — capturing the run's configuration, scheduler,
//!    seed, scale, elapsed time and (when profiled) the stage profile, so
//!    a result can be traced back to its exact configuration.
//!
//! Entry points for binaries live in [`ObsArgs`] (`--trace-out`,
//! `--metrics-out`, `--quiet`, `--log-level`) and the [`error!`],
//! [`warn!`], [`info!`], [`debug!`] logging macros, which write progress
//! to stderr so stdout stays machine-parseable.

pub mod alloc;
pub mod chrome;
pub mod cli;
pub mod events;
pub mod log;
pub mod manifest;
pub mod recorder;
pub mod span;

pub use chrome::{to_chrome_json, write_chrome_trace};
pub use cli::{ObsArgs, OBS_HELP};
pub use events::{file_sink, Event, EventSink, JsonlSink, MemorySink, NullSink};
pub use manifest::{manifest_path, write_manifest, RunManifest, StageProfile, StageStat};
pub use recorder::{
    CounterId, GaugeId, Histogram, HistogramId, HistogramSnapshot, MetricsSnapshot, Recorder,
};
pub use span::{SpanRecord, SpanThread, Stage};

pub use log::{log_level, set_log_level, LogLevel};

use std::io;
use std::path::Path;

/// Everything a traced run carries: the event sink, the metrics
/// recorder (which also receives the span profiler's `prof.*` series),
/// and any span threads drained from the profiler. `RunObs::disabled()`
/// is the zero-overhead default used by untraced runs.
pub struct RunObs {
    pub sink: Box<dyn EventSink>,
    pub recorder: Recorder,
    /// Completed span threads (see [`span`]): one per logical unit of
    /// work, merged in deterministic grid order by the parallel pool.
    pub spans: Vec<SpanThread>,
}

impl RunObs {
    /// A null-sink observer: events are dropped, metrics still accumulate
    /// (a handful of adds per quantum).
    pub fn disabled() -> Self {
        Self::with_sink(Box::new(NullSink))
    }

    /// Observe a run through the given sink.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        RunObs {
            sink,
            recorder: Recorder::new(),
            spans: Vec::new(),
        }
    }

    /// An observer that buffers events in memory (a [`MemorySink`]) so
    /// they can be taken back with `sink.take_events()` and replayed into
    /// another sink later. Used for per-job observation in the parallel
    /// experiment pool.
    pub fn buffered() -> Self {
        Self::with_sink(Box::new(MemorySink::new()))
    }

    /// Emit one event to the sink.
    #[inline]
    pub fn emit(&mut self, event: Event) {
        self.sink.emit(&event);
    }

    /// Drain the calling thread's span-profiler state into this observer:
    /// self-times and stage histograms fold into the recorder (as
    /// `prof.*` metrics), and trace records become a [`SpanThread`] named
    /// `thread_name` (only pushed when records were collected). Call once
    /// per unit of work, on the thread that did the work.
    pub fn absorb_spans(&mut self, thread_name: &str) {
        let mut records = Vec::new();
        span::drain_into(&mut self.recorder, &mut records);
        if !records.is_empty() {
            self.spans.push(SpanThread {
                name: thread_name.to_string(),
                records,
            });
        }
    }
}

impl Default for RunObs {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Write `bytes` to `path` atomically: parent directories are created if
/// missing and the content lands via a temp file + rename, so a reader
/// (or a concurrent writer of the same figure) never sees a partial file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_creates_directories() {
        let dir = std::env::temp_dir().join(format!("relsim-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/nested/out.json");
        write_atomic(&path, b"{}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{}");
        // Overwrite works and leaves no temp files behind.
        write_atomic(&path, b"[1]").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"[1]");
        let siblings: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(siblings.len(), 1, "temp files left behind: {siblings:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
