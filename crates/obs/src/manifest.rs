//! Run manifests: the provenance record written next to a result.

use crate::recorder::MetricsSnapshot;
use crate::span::STAGES;
use crate::write_atomic;
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::path::{Path, PathBuf};

/// Everything needed to trace a result file back to its exact
/// configuration and reproduce it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Producing binary, e.g. `"simulate"` or `"fig6_sser"`.
    pub tool: String,
    /// The repository's result-schema version (`relsim_bench::MODEL_VERSION`).
    pub model_version: u32,
    /// Scheduler name as reported by `Scheduler::name()`.
    pub scheduler: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Simulated duration in ticks.
    pub duration_ticks: u64,
    /// The experiment `Scale` as generic JSON (kept generic so obs does
    /// not depend on the core crate).
    pub scale: Value,
    /// The full `SystemConfig` as generic JSON.
    pub config: Value,
    /// Host wall time consumed by the run, in seconds.
    pub elapsed_seconds: f64,
    /// Result/trace/metrics files this run produced.
    pub outputs: Vec<String>,
    /// Result-cache traffic during the run (`relsim_cache::CacheStats` as
    /// generic JSON), or `None` when caching was disabled. Manifests
    /// written before the cache existed deserialize with `None`.
    pub cache: Option<Value>,
    /// Stage-level self-profile of the run (see [`crate::span`]), or
    /// `None` when profiling was off. Manifests written before the
    /// profiler existed deserialize with `None`.
    pub stage_profile: Option<StageProfile>,
}

impl RunManifest {
    /// Start a manifest with the identity fields; callers fill in the
    /// timing and output fields as the run completes.
    pub fn new(tool: &str, model_version: u32, scheduler: &str, seed: u64) -> Self {
        RunManifest {
            tool: tool.to_string(),
            model_version,
            scheduler: scheduler.to_string(),
            seed,
            duration_ticks: 0,
            scale: Value::Null,
            config: Value::Null,
            elapsed_seconds: 0.0,
            outputs: Vec::new(),
            cache: None,
            stage_profile: None,
        }
    }
}

/// Wall-time attribution for one instrumented stage (see [`crate::span`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Stage name, e.g. `"select_issue"`.
    pub stage: String,
    /// Total self-time attributed to the stage, across all cores and
    /// worker threads, in seconds.
    pub self_seconds: f64,
    /// Number of completed spans for the stage.
    pub calls: u64,
    /// Median span duration in nanoseconds (log2-bucket estimate).
    pub p50_ns: u64,
    /// 99th-percentile span duration in nanoseconds (log2-bucket estimate).
    pub p99_ns: u64,
}

/// The stage-level self-profile block of a [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Per-stage attribution, in fixed stage order, stages with zero
    /// self-time omitted.
    pub stages: Vec<StageStat>,
    /// Sum of all stage self-times in seconds. Because self-times
    /// partition the instrumented region, this equals the wall time spent
    /// inside the outermost spans.
    pub attributed_seconds: f64,
}

impl StageProfile {
    /// Rebuild the profile from the `prof.*` metrics a drained span
    /// profiler leaves in a [`MetricsSnapshot`]. Returns `None` when the
    /// snapshot carries no profiling data (profiling was off).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Option<StageProfile> {
        let mut stages = Vec::new();
        let mut total_ns = 0u64;
        for stage in STAGES {
            let suffix = format!(".{}.self_ns", stage.name());
            let self_ns: u64 = snap
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("prof.") && n.ends_with(&suffix))
                .map(|(_, v)| v)
                .sum();
            if self_ns == 0 {
                continue;
            }
            total_ns += self_ns;
            let hist_name = format!("prof.{}.span_ns", stage.name());
            let hist = snap.histograms.iter().find(|h| h.name == hist_name);
            stages.push(StageStat {
                stage: stage.name().to_string(),
                self_seconds: self_ns as f64 / 1e9,
                calls: hist.map(|h| h.count).unwrap_or(0),
                p50_ns: hist.map(|h| h.p50).unwrap_or(0),
                p99_ns: hist.map(|h| h.p99).unwrap_or(0),
            });
        }
        if stages.is_empty() {
            return None;
        }
        Some(StageProfile {
            stages,
            attributed_seconds: total_ns as f64 / 1e9,
        })
    }

    /// Self-seconds for a stage by name, if present.
    pub fn seconds(&self, stage: &str) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.self_seconds)
    }
}

/// The manifest path for a result file: `foo.json` -> `foo.manifest.json`.
pub fn manifest_path(result: &Path) -> PathBuf {
    let stem = result
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "result".to_string());
    result.with_file_name(format!("{stem}.manifest.json"))
}

/// Atomically write `manifest` next to `result`, returning the path.
pub fn write_manifest(result: &Path, manifest: &RunManifest) -> io::Result<PathBuf> {
    let path = manifest_path(result);
    let bytes = serde_json::to_vec_pretty(manifest)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_atomic(&path, &bytes)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_path_is_sibling_with_suffix() {
        assert_eq!(
            manifest_path(Path::new("out/fig6_sser.json")),
            PathBuf::from("out/fig6_sser.manifest.json")
        );
    }

    #[test]
    fn manifest_round_trips() {
        let mut m = RunManifest::new("simulate", 3, "sampling-sser", 2017);
        m.duration_ticks = 1_200_000;
        m.scale = Value::Object(vec![(
            "run_ticks".to_string(),
            Value::Number(serde::Number::PosInt(1_200_000)),
        )]);
        m.outputs = vec!["trace.jsonl".to_string()];
        let bytes = serde_json::to_vec(&m).unwrap();
        let back: RunManifest = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn stage_profile_from_snapshot_sums_cores_in_stage_order() {
        use crate::recorder::Recorder;
        let mut rec = Recorder::new();
        // Register out of stage order and split across cores + host.
        for (name, v) in [
            ("prof.core1.commit.self_ns", 2_000_000_000u64),
            ("prof.host.scheduler.self_ns", 500_000_000),
            ("prof.core0.fetch.self_ns", 1_000_000_000),
            ("prof.core1.fetch.self_ns", 3_000_000_000),
        ] {
            let id = rec.counter(name);
            rec.add(id, v);
        }
        let h = rec.histogram("prof.fetch.span_ns");
        for _ in 0..10 {
            rec.observe(h, 1_000);
        }
        let p = StageProfile::from_snapshot(&rec.snapshot()).unwrap();
        let names: Vec<&str> = p.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, ["fetch", "commit", "scheduler"]);
        assert_eq!(p.seconds("fetch"), Some(4.0));
        assert_eq!(p.stages[0].calls, 10);
        assert!((p.attributed_seconds - 6.5).abs() < 1e-9);
        // No prof metrics at all -> no profile.
        assert_eq!(
            StageProfile::from_snapshot(&Recorder::new().snapshot()),
            None
        );
    }

    #[test]
    fn manifest_without_stage_profile_deserializes_to_none() {
        let mut m = RunManifest::new("simulate", 3, "static", 7);
        m.stage_profile = Some(StageProfile {
            stages: vec![StageStat {
                stage: "fetch".into(),
                self_seconds: 1.5,
                calls: 42,
                p50_ns: 100,
                p99_ns: 900,
            }],
            attributed_seconds: 1.5,
        });
        let bytes = serde_json::to_vec(&m).unwrap();
        let back: RunManifest = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, m);
        // Older manifests lack the key entirely.
        let legacy =
            String::from_utf8(serde_json::to_vec(&RunManifest::new("t", 3, "s", 1)).unwrap())
                .unwrap()
                .replace(",\"stage_profile\":null", "");
        assert!(!legacy.contains("stage_profile"));
        let back: RunManifest = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.stage_profile, None);
        // Manifests from older versions also carry a `host_profile`
        // object; unknown keys are ignored.
        let fresh = RunManifest::new("t", 3, "s", 1);
        let with_host_profile = String::from_utf8(serde_json::to_vec(&fresh).unwrap())
            .unwrap()
            .replace(
                ",\"outputs\":",
                ",\"host_profile\":{\"phases\":[[\"setup\",0.25],[\"core_tick\",1.5]],\
                     \"attributed_seconds\":1.75,\"elapsed_seconds\":2.0},\"outputs\":",
            );
        assert!(with_host_profile.contains("host_profile"));
        let back: RunManifest = serde_json::from_str(&with_host_profile).unwrap();
        assert_eq!(back, fresh);
    }

    #[test]
    fn write_manifest_lands_next_to_result() {
        let dir = std::env::temp_dir().join(format!("relsim-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let result = dir.join("fig.json");
        let m = RunManifest::new("t", 3, "static", 1);
        let path = write_manifest(&result, &m).unwrap();
        assert_eq!(path, dir.join("fig.manifest.json"));
        let back: RunManifest = serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
