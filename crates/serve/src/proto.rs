//! Wire types of the relsim-serve protocol, and the one function that
//! turns a request into an artifact.
//!
//! The determinism contract extends to the wire: for a given
//! [`SimRequest`] and reference table, [`run_request`] +
//! [`artifact_bytes`] produce exactly the bytes the batch CLI
//! (`simulate --result-out`) writes. The daemon serves either those
//! bytes freshly computed, or the same bytes replayed from the
//! content-addressed cache — a client can never tell which.

use relsim::evaluate::{evaluate, DEFAULT_IFR};
use relsim::isolated::ReferenceTable;
use relsim::{
    AppSpec, CounterKind, Objective, RandomScheduler, SamplingParams, SamplingScheduler, Scheduler,
    StaticScheduler, System, SystemConfig,
};
use relsim_cache::Key;
use relsim_obs::span::{self, Stage};
use relsim_obs::RunObs;
use relsim_power::{PowerModel, SharedActivity};
use serde::{Deserialize, Serialize};

/// One simulation request: "run this mix under this scheduler/config".
/// Mirrors the `simulate` CLI flags one-for-one, so any request the
/// daemon serves can be reproduced offline with the batch tool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRequest {
    /// Benchmark per core, in placement order (`--benchmarks`).
    pub benchmarks: Vec<String>,
    /// Number of big cores (`--big`).
    pub big: usize,
    /// Number of small cores (`--small`).
    pub small: usize,
    /// `random` | `performance` | `reliability` | `static`.
    pub scheduler: String,
    /// Simulated duration in ticks (`--ticks`).
    pub ticks: u64,
    /// Scheduler quantum in ticks (`--quantum`).
    pub quantum: u64,
    /// Run the small cores at half frequency (`--half-freq-small`).
    pub half_freq_small: bool,
    /// Use the ROB-only hardware counter variant (`--rob-only`).
    pub rob_only: bool,
}

/// Scheduler names a request may carry.
pub const SCHEDULERS: [&str; 4] = ["random", "performance", "reliability", "static"];

impl SimRequest {
    /// Check the request is well-formed and runnable *before* admission,
    /// so malformed input is rejected with a 400 instead of panicking a
    /// pool job. The error string goes back to the client verbatim.
    pub fn validate(&self) -> Result<(), String> {
        if self.big + self.small == 0 {
            return Err("need at least one core".into());
        }
        if self.benchmarks.len() != self.big + self.small {
            return Err(format!(
                "need exactly one benchmark per core ({} cores, {} benchmarks)",
                self.big + self.small,
                self.benchmarks.len()
            ));
        }
        if self.ticks == 0 || self.quantum == 0 {
            return Err("ticks and quantum must be positive".into());
        }
        if !SCHEDULERS.contains(&self.scheduler.as_str()) {
            return Err(format!(
                "unknown scheduler {:?} (expected one of {:?})",
                self.scheduler, SCHEDULERS
            ));
        }
        for name in &self.benchmarks {
            if relsim_trace::spec_profile(name).is_none() {
                return Err(format!("unknown benchmark {name:?}"));
            }
        }
        Ok(())
    }
}

/// Per-application row of a [`SimArtifact`] (one line of the
/// `simulate` table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRow {
    /// Benchmark name.
    pub name: String,
    /// Fraction of the run spent on a big core.
    pub big_frac: f64,
    /// Instructions committed.
    pub instructions: u64,
    /// Weighted soft-error rate (Equation 2).
    pub wser: f64,
    /// Slowdown versus the isolated big core.
    pub slowdown: f64,
    /// Migrations this application underwent.
    pub migrations: u64,
}

/// The complete result of one request — everything the `simulate`
/// CLI prints, as one serializable value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimArtifact {
    /// Simulation model version ([`relsim::cache::MODEL_VERSION`]).
    pub model_version: u32,
    /// The request this artifact answers.
    pub request: SimRequest,
    /// Canonical scheduler name (`Scheduler::name()`).
    pub scheduler: String,
    /// System soft-error rate; lower is better.
    pub sser: f64,
    /// System throughput; higher is better.
    pub stp: f64,
    /// Average normalized turnaround time; lower is better.
    pub antt: f64,
    /// Chip power, watts.
    pub chip_watts: f64,
    /// System (chip + DRAM) power, watts.
    pub system_watts: f64,
    /// Total migrations.
    pub migrations: u64,
    /// Per-application rows, in placement order.
    pub apps: Vec<AppRow>,
}

/// The canonical byte encoding of an artifact — the daemon's response
/// body and the batch CLI's `--result-out` file are both exactly this.
pub fn artifact_bytes(artifact: &SimArtifact) -> Vec<u8> {
    serde_json::to_vec_pretty(artifact).expect("artifact serializes")
}

/// Content key for a request against a given reference table. Includes
/// the table fingerprint and the process-wide sampling/skip defaults
/// (like the batch drivers' cell keys), so entries are shared with
/// nothing that could produce different bytes.
pub fn request_key(fingerprint: &str, req: &SimRequest) -> Key {
    relsim::cache::key(
        "serve-run/v1",
        &(
            fingerprint,
            req,
            relsim::sampling::default_config(),
            relsim::skip::default_enabled(),
        ),
    )
}

/// Run one validated request to completion: build the system, run it
/// under the requested scheduler, evaluate against `refs`, and fold the
/// power report in. Deterministic given `(refs, req)` — the app seeds
/// are fixed (`i + 1`, matching the `simulate` CLI), so two calls
/// anywhere produce identical artifacts.
pub fn run_request(refs: &ReferenceTable, req: &SimRequest, obs: &mut RunObs) -> SimArtifact {
    let mut cfg = if req.half_freq_small {
        SystemConfig::hcmp_slow_small(req.big, req.small)
    } else {
        SystemConfig::hcmp(req.big, req.small)
    };
    cfg.quantum_ticks = req.quantum;
    cfg.migration_ticks = (req.quantum / 50).max(1);
    if req.rob_only {
        cfg.counter_kind = CounterKind::HwRobOnly;
    }
    let kinds = cfg.core_kinds();
    let mut scheduler: Box<dyn Scheduler> = match req.scheduler.as_str() {
        "random" => Box::new(RandomScheduler::new(kinds, req.quantum, 1)),
        "performance" => Box::new(SamplingScheduler::new(
            Objective::Stp,
            kinds,
            req.quantum,
            SamplingParams::default(),
        )),
        "reliability" => Box::new(SamplingScheduler::new(
            Objective::Sser,
            kinds,
            req.quantum,
            SamplingParams::default(),
        )),
        "static" => Box::new(StaticScheduler::new(
            (0..req.benchmarks.len()).collect(),
            req.quantum,
        )),
        other => panic!("unvalidated scheduler {other:?}"),
    };
    let specs: Vec<AppSpec> = req
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, n)| AppSpec::spec(n, i as u64 + 1))
        .collect();
    let mut system = System::new(cfg, &specs);
    let result = system.run_traced(scheduler.as_mut(), req.ticks, obs);
    let eval = span::scope(Stage::Metrics, || evaluate(&result, refs, DEFAULT_IFR));
    let power = PowerModel::default().report(
        &result
            .cores
            .iter()
            .map(|c| c.to_activity())
            .collect::<Vec<_>>(),
        &SharedActivity {
            l3_accesses: result.shared.l3_accesses,
            mem_requests: result.shared.mem_requests,
        },
        result.duration,
    );
    let apps = result
        .apps
        .iter()
        .zip(&eval.apps)
        .map(|(a, e)| AppRow {
            name: a.name.clone(),
            big_frac: a.ticks_on_big as f64 / result.duration as f64,
            instructions: a.instructions,
            wser: e.wser,
            slowdown: e.slowdown,
            migrations: a.migrations,
        })
        .collect();
    SimArtifact {
        model_version: relsim::cache::MODEL_VERSION,
        request: req.clone(),
        scheduler: scheduler.name().to_string(),
        sser: eval.sser,
        stp: eval.stp,
        antt: eval.antt,
        chip_watts: power.chip_watts,
        system_watts: power.system_watts(),
        migrations: result.migrations,
        apps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> SimRequest {
        SimRequest {
            benchmarks: vec!["milc".into(), "hmmer".into()],
            big: 1,
            small: 1,
            scheduler: "reliability".into(),
            ticks: 10_000,
            quantum: 2_500,
            half_freq_small: false,
            rob_only: false,
        }
    }

    #[test]
    fn validate_catches_malformed_requests() {
        assert!(req().validate().is_ok());
        let mut r = req();
        r.big = 2;
        assert!(r.validate().unwrap_err().contains("benchmark per core"));
        let mut r = req();
        r.scheduler = "greedy".into();
        assert!(r.validate().unwrap_err().contains("unknown scheduler"));
        let mut r = req();
        r.benchmarks[0] = "nonesuch".into();
        assert!(r.validate().unwrap_err().contains("unknown benchmark"));
        let mut r = req();
        r.ticks = 0;
        assert!(r.validate().is_err());
    }

    #[test]
    fn request_round_trips_as_json() {
        let r = req();
        let bytes = serde_json::to_vec(&r).unwrap();
        let back: SimRequest = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn request_key_separates_requests_and_tables() {
        let a = request_key("fp1", &req());
        assert_eq!(a, request_key("fp1", &req()));
        assert_ne!(a, request_key("fp2", &req()));
        let mut r = req();
        r.ticks += 1;
        assert_ne!(a, request_key("fp1", &r));
    }
}
