//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's declared metrics
//! (they mirror `BENCHMARK.json`; a test keeps the two in step). Every
//! run prints all end-to-end metrics (untraced) or all per-layer metrics
//! (traced) as the last line of standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit). Reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("blocks_read_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: (name, unit). A layer a workload never reaches
/// reports a measured 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // set-up layers
    ("data.generate_ms", "ms"),
    ("store.persist_ms", "ms"),
    ("store.bitmap.build_ms", "ms"),
    ("core.truth_ms", "ms"),
    // store.file / store.io reads (bench-side backend wrapper)
    ("store.read.calls", "count/query"),
    ("store.read.busy_ms", "ms/query"),
    ("store.read.p50_us", "us"),
    ("store.read.p90_us", "us"),
    ("store.read.errors", "count"),
    // store.file block cache
    ("store.cache.hit_ratio", "ratio"),
    ("store.cache.evictions", "count/query"),
    ("store.cache.pressure", "count/query"),
    ("store.cache.prefetch_useful_ratio", "ratio"),
    // store.io block counts
    ("store.io.blocks_read", "count/query"),
    ("store.io.blocks_skipped", "count/query"),
    ("store.io.tuples_read", "count/query"),
    // core.histsim (replay)
    ("core.accumulate.busy_ms", "ms/query"),
    ("core.merge.busy_ms", "ms/query"),
    ("core.merge.cells", "count/query"),
    ("core.clear.busy_ms", "ms/query"),
    ("core.phase.busy_ms", "ms/query"),
    ("core.phase.calls", "count/query"),
    ("core.samples", "count/query"),
    ("core.stage2_rounds", "count/query"),
    ("core.useful_sample_ratio", "ratio"),
    // engine.progress / engine.policy (replay)
    ("engine.progress.busy_ms", "ms/query"),
    ("engine.policy.busy_ms", "ms/query"),
    ("engine.policy.read_useful_ratio", "ratio"),
    // engine.exec
    ("engine.exec.run_ms", "ms/query"),
    ("engine.exec.exact_finishes", "count/query"),
    ("engine.exec.unattributed_ms", "ms/query"),
    // engine.service
    ("engine.service.submit_us", "us"),
    ("engine.service.rejected", "count"),
    ("engine.service.quanta", "count/query"),
    ("engine.service.steals", "count/query"),
    ("engine.service.blocks_per_quantum", "blocks"),
    // store.live
    ("store.live.append.busy_ms", "ms"),
    ("store.live.append.p50_us", "us"),
    ("store.live.append.p90_us", "us"),
    ("store.live.snapshot.p50_us", "us"),
    ("store.live.wal_syncs_per_record", "ratio"),
    ("store.live.persisted_segments", "count"),
    ("store.live.compactions", "count"),
    ("store.live.pinned_snapshot_bytes_peak", "bytes"),
    ("store.live.errors", "count"),
    ("store.live.open_ms", "ms"),
    ("store.live.recovered_rows", "count"),
    ("store.live.disk_bytes_per_row", "bytes/row"),
    // the tracing itself
    ("trace.overhead_pct", "%"),
];

/// Metric values collected by a workload run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a declared metric name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// How a run went, beside its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, and appends on `live-htap`).
    pub attempted: u64,
    /// Operations that failed (error, rejection, cancellation, wrong or
    /// guarantee-violating answer).
    pub failed: u64,
    /// Run-level checks that failed (e.g. recovery), by description.
    pub check_failures: Vec<String>,
}

impl Outcome {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a run-level check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// True when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: every metric of `declared`, in order. Missing
/// end-to-end metrics are a bug (panic); missing per-layer metrics are a
/// layer the workload never reached and print as 0.
pub fn result_line(outcome: &Outcome, metrics: &Metrics, traced: bool) -> String {
    let declared = if traced { PER_LAYER } else { END_TO_END };
    let mut m = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = match metrics.get(name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_lists_every_per_layer_metric() {
        let mut m = Metrics::default();
        m.set("core.samples", 12.5);
        let mut o = Outcome::default();
        o.op(true);
        o.op(false);
        let line = result_line(&o, &m, true);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"core.samples\": {\"value\": 12.5, \"unit\": \"count/query\"}"));
        assert!(line.contains("\"store.read.calls\": {\"value\": 0,"));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn missing_end_to_end_metric_panics() {
        result_line(&Outcome::default(), &Metrics::default(), false);
    }
}
