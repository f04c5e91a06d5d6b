//! The result of one run, the metrics its result line holds, and the line's
//! JSON rendering.

/// The metrics of an untraced run's result line, with their units, as
/// `BENCHMARK.json` lists them under `end_to_end`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("success_share", "share"),
    ("rss_mb", "MiB"),
    ("map", "score"),
];

/// The metrics of a traced run's result line, with their units, as
/// `BENCHMARK.json` lists them under `per_layer`. Every workload measures
/// every one of them. Per-predicate metrics are listed for the predicates
/// every workload sends (Cosine, BM25, HMM); the other predicates' figures,
/// and the layers only one workload has (shard, live writes), are printed
/// as `layer` note lines instead.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("serve.overhead_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("cache.hit_share", "share"),
    ("cache.hit_us", "us"),
    ("setup.build_s", "s"),
    ("setup.first_touch_ms", "ms"),
    ("setup.first_touch_ms.Cosine", "ms"),
    ("setup.first_touch_ms.BM25", "ms"),
    ("setup.first_touch_ms.HMM", "ms"),
    ("prepare.query_us", "us"),
    ("route.scan_share", "share"),
    ("exec.p50_ms", "ms"),
    ("exec.p99_ms", "ms"),
    ("exec.Cosine.p50_ms", "ms"),
    ("exec.BM25.p50_ms", "ms"),
    ("exec.HMM.p50_ms", "ms"),
    ("work.Cosine.candidates", "count"),
    ("work.BM25.candidates", "count"),
    ("work.HMM.candidates", "count"),
    ("work.Cosine.postings", "count"),
    ("work.BM25.postings", "count"),
    ("work.HMM.postings", "count"),
    ("trace.overhead_share", "share"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests and writes attempted in the measured phase.
    pub attempted: u64,
    /// Attempted operations that errored or failed their answer check.
    pub failed: u64,
    /// Whether every check of the run passed (answers, writes, determinism
    /// of the reference itself).
    pub correct: bool,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result: sample counts,
    /// digests, the first failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Append a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Keep exactly the `declared` metrics, in declared order; every other
    /// measured metric becomes a `layer <name>=<value> <unit>` note line. A
    /// declared metric that was not measured, or not in its declared unit,
    /// makes the run incorrect.
    pub fn restrict(&mut self, declared: &[(&str, &str)]) {
        let measured = std::mem::take(&mut self.metrics);
        for &(name, unit) in declared {
            match measured.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => self.metrics.push(m.clone()),
                Some(m) => {
                    self.correct = false;
                    self.note(format!("FAILED metric {name} is in {}, not {unit}", m.unit));
                }
                None => {
                    self.correct = false;
                    self.note(format!("FAILED metric {name} was not measured"));
                }
            }
        }
        for m in measured.iter().filter(|m| declared.iter().all(|d| d.0 != m.name)) {
            self.note(format!("layer {}={} {}", m.name, m.value, m.unit));
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// Non-finite values cannot be written as JSON numbers; a run that
    /// produced one is reported as incorrect with the value omitted.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line() {
        let mut outcome = Outcome { attempted: 3, correct: true, ..Outcome::default() };
        outcome.metric("qps", 12.5, "1/s");
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        outcome.metric("p50_ms", f64::NAN, "ms");
        assert!(outcome.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn restricting_keeps_the_declared_metrics_and_notes_the_rest() {
        let mut outcome = Outcome { correct: true, ..Outcome::default() };
        outcome.metric("extra", 2.0, "ms");
        outcome.metric("qps", 12.5, "1/s");
        outcome.restrict(&[("qps", "1/s")]);
        assert!(outcome.correct);
        assert_eq!(outcome.metrics, vec![Metric { name: "qps".into(), value: 12.5, unit: "1/s" }]);
        assert_eq!(outcome.notes, vec!["layer extra=2 ms".to_string()]);

        outcome.restrict(&[("qps", "ms"), ("p50_ms", "ms")]);
        assert!(!outcome.correct);
        assert!(outcome.metrics.is_empty());
        assert_eq!(outcome.notes.len(), 3);
    }
}
