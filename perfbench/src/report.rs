//! Metric names, units and the result line.
//!
//! The metrics are the ones `BENCHMARK.json` lists: end-to-end metrics
//! with tracing off, per-layer metrics from the traced pass. Every
//! workload reports every metric; a layer that does no work on a
//! workload reports 0 there.

use crate::gate::Tally;
use serde::Deserialize;

/// The benchmark's definition, which lists every metric with its unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    /// Name in the result line.
    pub name: String,
    /// Unit.
    pub unit: String,
}

#[derive(Deserialize)]
struct Listed {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn listed() -> Listed {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json lists the metrics")
}

/// The end-to-end metrics, in `BENCHMARK.json`'s order.
pub fn end_to_end() -> Vec<Metric> {
    listed().end_to_end
}

/// The per-layer metrics, in `BENCHMARK.json`'s order.
pub fn per_layer() -> Vec<Metric> {
    listed().per_layer
}

/// Metric values by name; unset names read 0.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Set `name` (which must be one of the declared metrics).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            end_to_end()
                .iter()
                .chain(&per_layer())
                .any(|m| m.name == name),
            "undeclared metric {name}"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Value of `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Everything one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end values (tracing off).
    pub e2e: Values,
    /// Sample counts behind the end-to-end timings, by metric name.
    pub samples: Vec<(&'static str, usize)>,
    /// Per-layer values (traced pass).
    pub layers: Values,
    /// Extra lines for the text report (digests, checks, context).
    pub notes: Vec<String>,
}

impl Report {
    /// Print the text report, then the JSON result line (always last).
    pub fn print(&self, workload: &str, trace: bool) {
        for n in &self.notes {
            println!("# {n}");
        }
        println!("workload {workload}: end-to-end (tracing off)");
        let e2e = end_to_end();
        for m in &e2e {
            let n = self
                .samples
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(String::new(), |(_, n)| format!("  (n={n})"));
            println!(
                "  {:<26} {:>14.6} {}{n}",
                m.name,
                self.e2e.get(&m.name),
                m.unit
            );
        }
        println!(
            "  {:<26} {:>14.6} share  (failed {} of {} operations)",
            "error_rate",
            self.tally.error_rate(),
            self.tally.failed,
            self.tally.attempted
        );
        for r in &self.tally.reasons {
            println!("  FAILED: {r}");
        }
        let (values, listed) = if trace {
            println!("workload {workload}: per layer (traced pass)");
            let layers = per_layer();
            for m in &layers {
                println!(
                    "  {:<26} {:>14.6} {}",
                    m.name,
                    self.layers.get(&m.name),
                    m.unit
                );
            }
            (&self.layers, layers)
        } else {
            (&self.e2e, e2e)
        };
        let metrics: Vec<String> = listed
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(values.get(&m.name)),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with all its digits; non-finite values (a failed
/// operation's infinite latency) print as a very large number so the
/// line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_metrics_read_zero_and_values_stay_finite_json() {
        let mut v = Values::default();
        v.set("wall_s", 1.5);
        assert_eq!(v.get("wall_s"), 1.5);
        assert_eq!(v.get("sim_mips"), 0.0);
        assert_eq!(json_number(f64::INFINITY), "1e300");
        assert_eq!(json_number(0.1), "0.1");
    }
}
