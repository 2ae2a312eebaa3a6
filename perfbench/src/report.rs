//! Metric names, units and the result line every run prints.

use crate::spans::Span;
use crate::stats::{median, percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run on every workload.
/// What each one measures on each workload is in the README. Every timing
/// among them is CPU time.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("round_s", "s"),
];

/// Per-layer metrics, printed by every traced run on every workload. A
/// layer that a workload does not call reads 0 there. Counts and times
/// are per round unless the README says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The end-to-end metrics measured with tracing on (tracing overhead is
    // their ratio to the untraced run's).
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MiB"),
    ("traced.ops_per_s", "1/s"),
    ("traced.op_p50_us", "us"),
    ("traced.op_tail_us", "us"),
    ("traced.round_s", "s"),
    ("trace.spans", "count"),
    // harp-workload
    ("workload.parse_ms", "ms"),
    // harp-rm
    ("rm.register.calls", "count"),
    ("rm.register.total_ms", "ms"),
    ("rm.register.p50_us", "us"),
    ("rm.register.p99_us", "us"),
    ("rm.submit_points.calls", "count"),
    ("rm.submit_points.total_ms", "ms"),
    ("rm.submit_points.p50_us", "us"),
    ("rm.submit_points.p99_us", "us"),
    ("rm.set_priority.calls", "count"),
    ("rm.set_priority.total_ms", "ms"),
    ("rm.set_priority.p50_us", "us"),
    ("rm.deregister.calls", "count"),
    ("rm.deregister.total_ms", "ms"),
    ("rm.deregister.p50_us", "us"),
    ("rm.inject_fault.calls", "count"),
    ("rm.inject_fault.total_ms", "ms"),
    ("rm.inject_fault.p50_us", "us"),
    ("rm.tick.calls", "count"),
    ("rm.tick.total_ms", "ms"),
    ("rm.tick.p50_us", "us"),
    ("rm.tick.p99_us", "us"),
    ("rm.directives", "count"),
    ("rm.directives_changed", "count"),
    ("rm.solves", "count"),
    ("rm.non_solve_ms", "ms"),
    // harp-alloc (process-wide solver counters)
    ("alloc.solves", "count"),
    ("alloc.solve_ms", "ms"),
    ("alloc.memo_hits", "count"),
    ("alloc.certified", "count"),
    ("alloc.full", "count"),
    ("alloc.pruned_options", "count"),
    // libharp / harp-proto / harp-daemon
    ("transport.connect.p50_us", "us"),
    ("transport.connect.p99_us", "us"),
    ("transport.connect.total_ms", "ms"),
    ("libharp.connect.p50_us", "us"),
    ("libharp.connect.p99_us", "us"),
    ("libharp.connect.total_ms", "ms"),
    ("libharp.activate.p50_us", "us"),
    ("libharp.activate.p99_us", "us"),
    ("libharp.activate.total_ms", "ms"),
    ("libharp.exit.p50_us", "us"),
    ("libharp.exit.p99_us", "us"),
    ("libharp.exit.total_ms", "ms"),
    ("daemon.frames", "count"),
    ("daemon.flushes", "count"),
    ("daemon.accepts", "count"),
    ("daemon.hangups", "count"),
    ("journal.bytes", "B"),
    ("journal.records", "count"),
    // harp-bench / harp-sim / harp-sched
    ("dse.ms", "ms"),
    ("learn.ms", "ms"),
    ("learn.runs", "count"),
    ("sim.cfs.ms", "ms"),
    ("sim.cfs.events", "count"),
    ("sim.eas.ms", "ms"),
    ("sim.eas.events", "count"),
    ("sim.itd.ms", "ms"),
    ("sim.itd.events", "count"),
    ("sim.harp.ms", "ms"),
    ("sim.harp.events", "count"),
    ("sim.harp_offline.ms", "ms"),
    ("sim.harp_offline.events", "count"),
    ("sim.harp_noscaling.ms", "ms"),
    ("sim.harp_noscaling.events", "count"),
    ("eval.harp_energy_j", "J"),
    ("eval.harp_makespan_s", "s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (whole rounds only).
    pub attempted: u64,
    /// Operations that returned an error, and `paper-eval` cells whose
    /// instances retired the wrong amount of work.
    pub failed: u64,
    /// Output checks that did not hold, in discovery order.
    pub violations: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Whole rounds measured.
    pub rounds: u64,
}

impl Outcome {
    /// Records a failed output check (the first few are kept verbatim).
    pub fn violation(&mut self, msg: impl Into<String>) {
        if self.violations.len() < 20 {
            self.violations.push(msg.into());
        } else if self.violations.len() == 20 {
            self.violations.push("(further violations elided)".into());
        }
    }

    /// Counts an attempted operation and whether it returned an error.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// A set-up step: not a measured operation, so an error fails the run
    /// instead of counting in `failed`.
    pub fn setup<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        r.map_err(|e| self.violation(format!("set-up {what} failed: {e}")))
            .ok()
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Per-layer latency summary of the spans named `name` (`us` samples),
    /// stored under `key.p50_us` and `key.total_ms` (per round), plus
    /// `key.calls` (per round) when `with_calls` and `key.p99_us` when
    /// `with_p99`. A p99 with fewer than ten samples beyond it reads 0.
    pub fn call_stats(&mut self, key: &str, samples: &[f64], with_calls: bool, with_p99: bool) {
        let rounds = self.rounds.max(1) as f64;
        if with_calls {
            self.layer(&format!("{key}.calls"), samples.len() as f64 / rounds);
        }
        self.layer(
            &format!("{key}.total_ms"),
            samples.iter().sum::<f64>() / 1e3 / rounds,
        );
        self.layer(&format!("{key}.p50_us"), median(samples).unwrap_or(0.0));
        if with_p99 {
            self.layer(
                &format!("{key}.p99_us"),
                percentile(samples, 99.0).unwrap_or(0.0),
            );
        }
    }

    /// Copies the end-to-end values into their `traced.` per-layer names
    /// and records the span count.
    pub fn traced_copies(&mut self, spans: &[Span]) {
        let e2e: Vec<(&str, f64)> = self.e2e.iter().map(|(k, v)| (*k, *v)).collect();
        for (k, v) in e2e {
            self.layer(&format!("traced.{k}"), v);
        }
        self.layer(
            "trace.spans",
            spans.len() as f64 / self.rounds.max(1) as f64,
        );
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the end-to-end (untraced) or per-layer (traced)
    /// metrics.
    pub fn json(&self, traced: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.rows(traced).into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        s.push_str("}}");
        s
    }

    /// `(name, unit, value)` for every metric the run prints.
    pub fn rows(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        if traced {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, self.layers.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            E2E.iter()
                .map(|&(n, u)| (n, u, self.e2e.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
    }
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in E2E.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in E2E.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json lacks {name} [{unit}]"
            );
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, E2E.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric_in_order() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e.insert("setup_s", 0.5);
        let line = o.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), E2E.len());
        o.violation("bad");
        assert!(o.json(true).starts_with("{\"correct\": false"));
        assert_eq!(o.json(true).matches("\"value\"").count(), PER_LAYER.len());
    }
}
