//! Metric tables, the human-readable report, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A declared metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, measured with tracing off; every workload reports
/// every one of them (see the README for what each means per workload).
pub const END_TO_END: &[MetricDef] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, measured in the traced run; a layer a workload never
/// reaches reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("exec.units", "count"),
    ("exec.bringup_s", "s"),
    ("exec.steady_s", "s"),
    ("exec.bringup_ratio", "ratio"),
    ("exec.worker_util", "ratio"),
    ("exec.pool_creates", "count"),
    ("exec.pool_reuses", "count"),
    ("exec.blueprint_hits", "count"),
    ("exec.blueprint_misses", "count"),
    ("exec.store_hits", "count"),
    ("exec.store_misses", "count"),
    ("exec.store_writes", "count"),
    ("alg.alg1_rows", "count"),
    ("alg.alg1_search_steps", "count"),
    ("alg.alg1_ber_measurements", "count"),
    ("alg.alg2_probe_reads", "count"),
    ("alg.alg3_window_measurements", "count"),
    ("alg.alg1_row_ms", "ms"),
    ("alg.alg2_row_ms", "ms"),
    ("alg.alg3_row_ms", "ms"),
    ("softmc.act", "count"),
    ("softmc.programs", "count"),
    ("softmc.hammer_us", "us"),
    ("softmc.rd", "count"),
    ("softmc.wr", "count"),
    ("softmc.read_row_us", "us"),
    ("dram.disturb_events", "count"),
    ("dram.flips_hammer", "count"),
    ("dram.flips_retention", "count"),
    ("dram.reset_us", "us"),
    ("dram.blueprint_ms", "ms"),
    ("spice.batch_new_us", "us"),
    ("spice.trial_us", "us"),
    ("spice.trial_failures", "count"),
    ("par.efficiency", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.outside_handler_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.job_run_ms", "ms"),
    ("serve.lru_hits", "count"),
    ("serve.lru_misses", "count"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minflt", "count"),
    ("proc.nivcsw", "count"),
    ("obs.overhead_ratio", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number: value, unit and how many samples it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it (1 for a single measurement or a count).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (work units, Monte-Carlo trials or requests).
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// Why operations failed.
    pub errors: Vec<String>,
    /// The metrics of the JSON result line, keyed by name.
    pub metrics: BTreeMap<&'static str, Reading>,
    /// Extra readings printed in the report only (workload-specific views
    /// such as request-latency percentiles).
    pub extra: Vec<(&'static str, Reading)>,
}

impl Outcome {
    /// Records a metric of the result line.
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.insert(
            name,
            Reading {
                value,
                unit,
                samples,
            },
        );
    }

    /// Records a report-only reading.
    pub fn note(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.extra.push((
            name,
            Reading {
                value,
                unit,
                samples,
            },
        ));
    }

    /// Records `n` failed operations with their cause.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.errors.push(why);
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Renders a number as JSON: non-finite values (an empty ratio) read 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The final JSON line. `defs` is the declared metric set; the outcome must
/// hold exactly those metrics with those units.
///
/// # Errors
///
/// Names a missing, undeclared or mis-united metric.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    for name in outcome.metrics.keys() {
        if !defs.iter().any(|(d, _)| d == name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    let mut metrics = String::new();
    for (i, &(name, unit)) in defs.iter().enumerate() {
        let r = outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if r.unit != unit {
            return Err(format!(
                "metric {name} measured in {}, declared {unit}",
                r.unit
            ));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(r.value)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    ))
}

/// The human-readable table: one line per metric with unit and sample
/// count, result-line metrics first.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!("# {workload}\n");
    let _ = writeln!(
        out,
        "{:<30} {:>16} {:<6} {:>8}  kind",
        "metric", "value", "unit", "samples"
    );
    let failed_ratio = Reading {
        value: outcome.failed as f64 / outcome.attempted.max(1) as f64,
        unit: "ratio",
        samples: outcome.attempted as usize,
    };
    let rows = outcome
        .metrics
        .iter()
        .map(|(n, r)| (*n, r, "result"))
        .chain(outcome.extra.iter().map(|(n, r)| (*n, r, "report")))
        .chain(std::iter::once(("failed_ratio", &failed_ratio, "report")));
    for (name, r, kind) in rows {
        let _ = writeln!(
            out,
            "{name:<30} {:>16.6} {:<6} {:>8}  {kind}",
            r.value, r.unit, r.samples
        );
    }
    let _ = writeln!(
        out,
        "attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for e in &outcome.errors {
        let _ = writeln!(out, "error: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn declared_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("exec.bringup_s"));
        assert!(valid_name("p99-ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ops/s"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_requires_exactly_the_declared_set() {
        let defs: &[MetricDef] = &[("wall_s", "s"), ("ops_per_s", "1/s")];
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.set("wall_s", "s", 1.25, 3);
        assert!(result_line(&o, defs).is_err());
        o.set("ops_per_s", "1/s", 8.0, 3);
        assert_eq!(
            result_line(&o, defs).unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 8.0, \"unit\": \"1/s\"}}}"
        );
        o.set("stray", "s", 1.0, 1);
        assert!(result_line(&o, defs).is_err());
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Value::Array(list) = json.field(key) else {
                panic!("{key} is not a list");
            };
            let text_of = |v: &Value| match v {
                Value::Str(s) => s.clone(),
                other => panic!("expected a string, got {other:?}"),
            };
            let declared: Vec<(String, String)> = list
                .iter()
                .map(|m| (text_of(m.field("name")), text_of(m.field("unit"))))
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }
}
