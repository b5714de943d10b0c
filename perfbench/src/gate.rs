//! The output-correctness gate.
//!
//! Every timed operation's simulated output is reduced to a digest (the
//! cache's own content hash over its serialized form) and must equal:
//!
//! * the digest pinned in `pins.txt` for that workload and seed (or, for
//!   served bodies, that request) at the current `MODEL_VERSION`, when a
//!   pin exists;
//! * every earlier output of the same operation in this invocation;
//! * an independently computed result: the traced pass's sequential,
//!   decomposed cells for the grid, the decomposed run for the sampled
//!   run, and `artifact_bytes(run_request(..))` for each served body.
//!
//! A mismatch, a pool failure, a non-200 response or a timeout fails the
//! operation; failed operations are counted against attempted ones.

use relsim_cache::Key;
use serde::Serialize;
use std::collections::HashMap;

/// The pinned digests, one `model_version workload key digest` per line.
const PINS: &str = include_str!("../pins.txt");

/// Digest of a serializable output.
pub fn digest<T: Serialize + ?Sized>(value: &T) -> String {
    Key::of(value).hex()
}

/// Digest of raw bytes (a served body).
pub fn digest_bytes(bytes: &[u8]) -> String {
    Key::of_bytes(bytes).hex()
}

/// Pinned digests for the running `MODEL_VERSION`.
#[derive(Debug, Default)]
pub struct Pins {
    by_key: HashMap<(String, String), String>,
}

impl Pins {
    /// The pins recorded for the simulator this benchmark is linked to.
    pub fn current() -> Self {
        Self::parse(PINS, relsim::cache::MODEL_VERSION)
    }

    /// Parse pin lines, keeping those for `model_version`. Blank lines
    /// and `#` comments are skipped.
    pub fn parse(text: &str, model_version: u32) -> Self {
        let mut by_key = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() == 4 && f[0].parse::<u32>().ok() == Some(model_version) {
                by_key.insert((f[1].to_string(), f[2].to_string()), f[3].to_string());
            }
        }
        Pins { by_key }
    }

    /// The pinned digest of `workload`'s output under `key`, if any.
    pub fn get(&self, workload: &str, key: &str) -> Option<&str> {
        self.by_key
            .get(&(workload.to_string(), key.to_string()))
            .map(String::as_str)
    }

    /// Number of pins for `workload`.
    pub fn count(&self, workload: &str) -> usize {
        self.by_key.keys().filter(|(w, _)| w == workload).count()
    }
}

/// What one operation's output must equal: its pin (if any) and the
/// first output seen for it.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    pin: Option<String>,
    seen: Option<String>,
}

impl Reference {
    /// A reference with an optional pinned digest.
    pub fn new(pin: Option<&str>) -> Self {
        Reference {
            pin: pin.map(str::to_string),
            seen: None,
        }
    }

    /// Whether a pin backs this reference.
    pub fn pinned(&self) -> bool {
        self.pin.is_some()
    }

    /// The digest every output must equal so far, if one is known.
    pub fn expected(&self) -> Option<&str> {
        self.pin.as_deref().or(self.seen.as_deref())
    }

    /// Check one output digest; the first unpinned output becomes the
    /// reference for later ones.
    pub fn check(&mut self, what: &str, got: &str) -> Result<(), String> {
        if let Some(want) = self.expected() {
            if want != got {
                return Err(format!("{what}: output digest {got} != expected {want}"));
            }
        }
        if self.seen.is_none() {
            self.seen = Some(got.to_string());
        }
        Ok(())
    }
}

/// Counts of attempted and failed operations, plus the first few
/// failure reasons for the report.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed the gate.
    pub failed: u64,
    /// The first failure reasons, for the text report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation and its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    /// Failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Fail if the experiment pool caught any job panic since the last call.
pub fn pool_failures() -> Result<(), String> {
    let failures = relsim::pool::take_failures();
    match failures.first() {
        None => Ok(()),
        Some(f) => Err(format!(
            "{} pool job(s) panicked, first {}[{}]: {}",
            failures.len(),
            f.label,
            f.index,
            f.message
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_filter_by_model_version() {
        let pins = Pins::parse(
            "# c\n3 grid-2b2s 7 aa\n2 grid-2b2s 7 bb\n\n3 grid-2b2s 8 cc\n",
            3,
        );
        assert_eq!(pins.get("grid-2b2s", "7"), Some("aa"));
        assert_eq!(pins.get("grid-2b2s", "9"), None);
        assert_eq!(pins.count("grid-2b2s"), 2);
    }

    #[test]
    fn reference_holds_pin_and_first_output() {
        let mut pinned = Reference::new(Some("aa"));
        assert!(pinned.check("x", "aa").is_ok());
        assert!(pinned.check("x", "bb").is_err());
        let mut free = Reference::new(None);
        assert!(free.check("x", "bb").is_ok());
        assert!(free.check("x", "cc").is_err());
        assert!(free.check("x", "bb").is_ok());
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.error_rate(), 0.5);
    }
}
