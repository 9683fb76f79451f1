//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use crate::stats::{percentile, MIN_BEYOND};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("record_overhead", "x"),
    ("replay_overhead", "x"),
    ("recording_bytes_per_minstr", "B/Minstr"),
    ("open_ms", "ms"),
    ("session_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: printed by every traced run of every workload. A
/// layer that does no work on a workload reads 0, as does a percentile
/// without enough samples beyond it (the report lines say which).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.nproc", "count"),
    ("host.parallel_capacity", "x"),
    ("trace.overhead_ms", "ms"),
    ("os.native_ms", "ms"),
    ("os.native_minstr_per_s", "Minstr/s"),
    ("record.minstr_per_s", "Minstr/s"),
    ("vm.state_hash_ms", "ms"),
    ("vm.state_hash_us_p50", "us"),
    ("vm.hashed_pages", "count"),
    ("vm.hash_skipped_pages", "count"),
    ("record.thread_parallel.ms", "ms"),
    ("record.thread_parallel.epoch_us_p50", "us"),
    ("record.thread_parallel.epochs", "count"),
    ("checkpoint.capture_us_p50", "us"),
    ("checkpoint.image_ms", "ms"),
    ("checkpoint.image_pages", "count"),
    ("checkpoint.restore_us_p50", "us"),
    ("record.epoch_parallel.verify_ms", "ms"),
    ("record.epoch_parallel.verify_us_p50", "us"),
    ("record.epoch_parallel.live_ms", "ms"),
    ("record.epoch_parallel.divergences", "count"),
    ("record.epoch_parallel.serialized_epochs", "count"),
    ("record.epoch_parallel.useful_ratio", "ratio"),
    ("logs.codec.encode_us", "us"),
    ("logs.codec.decode_us", "us"),
    ("logs.log_bytes", "B"),
    ("journal.write_ms", "ms"),
    ("journal.epoch_write_us_p50", "us"),
    ("journal.epoch_write_us_p99", "us"),
    ("journal.bytes", "B"),
    ("journal.flushes", "count"),
    ("journal.commit_gap_us_p50", "us"),
    ("journal.commit_gap_us_p99", "us"),
    ("journal.salvage_mib_per_s", "MiB/s"),
    ("record.coordinator.self_ms", "ms"),
    ("record.model_overhead", "ratio"),
    ("record.pipelined.utilization", "ratio"),
    ("record.pipelined.cancelled_epochs", "count"),
    ("replay.sequential_minstr_per_s", "Minstr/s"),
    ("replay.epoch_us_p50", "us"),
    ("replay.parallel_efficiency", "ratio"),
    ("replay.parallel_minstr_per_s", "Minstr/s"),
    ("dpd.proto.submit_rtt_us_p50", "us"),
    ("dpd.proto.submit_rtt_us_p99", "us"),
    ("dpd.proto.status_rtt_us_p50", "us"),
    ("dpd.admission.wait_us_p50", "us"),
    ("dpd.admission.wait_us_p99", "us"),
    ("dpd.admission.rejected_ratio", "ratio"),
    ("dpd.daemon.degraded_runs", "count"),
    ("dpd.daemon.retries", "count"),
    ("dpd.session_p99_ms", "ms"),
    ("dpd.attach_mib_per_s", "MiB/s"),
    ("loadgen.late_us_p99", "us"),
];

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    /// Why a per-layer metric reads 0 (no work, too few samples).
    notes: BTreeMap<&'static str, String>,
}

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `name` to the `q`th percentile of `samples` times `scale`. With
    /// too few samples beyond it, `name` reads 0 and the report says why.
    pub fn set_percentile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        q: f64,
        scale: f64,
        what: &str,
    ) {
        match percentile(samples, q) {
            Some(v) => self.set(name, v * scale),
            None => {
                let need = (MIN_BEYOND as f64 / (1.0 - q / 100.0)).ceil();
                let why = format!("{} {what}, p{q} needs {need}", samples.len());
                self.notes.insert(name, why);
            }
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The end of a run: the human-readable report lines (stdout, before the
/// result) and the result line itself.
pub struct Outcome {
    /// Every output checked out and the determinism self-check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Values by metric name.
    pub metrics: Metrics,
}

/// Renders the report lines and the result line for the chosen set of
/// metrics (`END_TO_END` or `PER_LAYER`). Returns an error naming a metric
/// that is missing or not a finite number where one is required.
pub fn render(
    outcome: &Outcome,
    set: &[(&'static str, &str)],
    zero_ok: bool,
) -> Result<(Vec<String>, String), String> {
    let mut lines = Vec::new();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in set.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            Some(v) if v.is_finite() && (zero_ok || v > 0.0) => v + 0.0,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if zero_ok => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        let note = outcome
            .metrics
            .notes
            .get(name)
            .map(|n| format!("   ({n})"))
            .unwrap_or_default();
        lines.push(format!("{name:<44} {value:>16.4} {unit}{note}"));
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok((lines, json))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units in `BENCHMARK.json`, in order, for one section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at =
                        entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = rest[open..].find('"').expect("value closes") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(set: &[(&str, &str)]) -> Vec<(String, String)> {
        set.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_prints_every_metric_and_rejects_gaps() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set_percentile("b", &[1.0; 5], 50.0, 1.0, "samples");
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m,
        };
        let set = [("a", "ms"), ("b", "us")];
        let (lines, json) = render(&outcome, &set, true).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("5 samples, p50 needs 20"), "{}", lines[1]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"us\"}}}"
        );
        assert!(
            render(&outcome, &set, false).is_err(),
            "end-to-end metrics are never 0"
        );
    }
}
