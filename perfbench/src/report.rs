//! Metric tables, the per-run report and its JSON output.

use crate::adapters::RoundLog;
use crate::stats::Summary;
use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("round_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("slo_ok_ratio", "ratio"),
];

/// Per-layer metrics: printed by every traced run, on every workload; a
/// layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("round_ms_p99", "ms"),
    ("mean_jct_s", "s"),
    ("submit_ms_p50", "ms"),
    ("submit_ms_p90", "ms"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("workload.synth_s", "s"),
    ("simulator.events", "count"),
    ("simulator.self_s", "s"),
    ("simulator.step_us_p50", "us"),
    ("simulator.step_us_p99", "us"),
    ("reconcile.proposals", "count"),
    ("reconcile.ops", "count"),
    ("reconcile.noop_deploys", "count"),
    ("reconcile.ops_per_proposal", "ratio"),
    ("reconcile.diff_us_p50", "us"),
    ("baselines.self_s", "s"),
    ("ones.rounds", "count"),
    ("ones.proposal_ratio", "ratio"),
    ("ones.self_s", "s"),
    ("evo.generations", "count"),
    ("evo.candidates_scored", "count"),
    ("evo.refresh_s", "s"),
    ("evo.derive_s", "s"),
    ("evo.score_s", "s"),
    ("evo.gen_ms_p50", "ms"),
    ("evo.cache_lookups", "count"),
    ("evo.cache_hit_rate", "ratio"),
    ("evo.warm_lookups", "count"),
    ("evo.warm_hit_rate", "ratio"),
    ("dlperf.evals", "count"),
    ("oned.step_batch_ms_p50", "ms"),
    ("oned.step_batch_ms_p99", "ms"),
    ("oned.publish_ms_p50", "ms"),
    ("oned.core_gap_ms_p50", "ms"),
    ("oned.core_gap_ms_p99", "ms"),
    ("oned.submit_wait_ms_p50", "ms"),
    ("oned.submit_wait_ms_p90", "ms"),
    ("oned.backend_submit_us_p50", "us"),
    ("oned.query.cluster_ms_p50", "ms"),
    ("oned.query.jobs_ms_p50", "ms"),
    ("oned.query.events_ms_p50", "ms"),
    ("oned.query.metrics_ms_p50", "ms"),
    ("oned.requests_sent", "count"),
    ("oned.requests_failed", "count"),
    ("oned.generator_late_ms_p99", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// What one benchmark run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Every timing's summary, for the stats line.
    pub stats: Vec<(String, Summary)>,
    /// Raw samples behind reported medians, for the stats line.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Operations attempted (scheduling rounds or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Extra figures for the stats line (not metrics).
    pub notes: Vec<(String, f64)>,
    /// Self time per layer of the traced run, largest first.
    pub split: Vec<(String, f64)>,
}

impl Report {
    /// Sets metric `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Metric `name`, or 0 when unset.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records raw samples for the stats line.
    pub fn sample(&mut self, name: &str, values: Vec<f64>) {
        self.samples.push((name.to_string(), values));
    }

    /// Records an extra figure for the stats line.
    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_string(), value));
    }

    /// Records the self-time split of the traced run.
    pub fn self_split(&mut self, layers: &[(&str, f64)]) {
        let mut split: Vec<(String, f64)> =
            layers.iter().map(|(n, v)| ((*n).to_string(), *v)).collect();
        split.sort_by(|a, b| b.1.total_cmp(&a.1));
        self.split = split;
    }

    /// The stats line: every timing's median, supported tail and count,
    /// the raw per-sub-run samples, notes and the self-time split.
    #[must_use]
    pub fn stats_json(&self) -> String {
        let timings: Vec<String> = self
            .stats
            .iter()
            .map(|(n, s)| format!("\"{n}\":{}", s.json()))
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(n, v)| {
                let vals: Vec<String> = v.iter().map(|x| format!("{}", finite(*x))).collect();
                format!("\"{n}\":[{}]", vals.join(","))
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(n, v)| format!("\"{n}\":{}", finite(*v)))
            .collect();
        let total: f64 = self.split.iter().map(|(_, v)| v).sum();
        let split: Vec<String> = self
            .split
            .iter()
            .map(|(n, v)| {
                let share = if total > 0.0 { v / total } else { 0.0 };
                format!("[\"{n}\",{},{share:.4}]", finite(*v))
            })
            .collect();
        format!(
            "{{\"stats\":{{\"timings\":{{{}}},\"samples\":{{{}}},\"notes\":{{{}}},\"self_split\":[{}]}}}}",
            timings.join(","),
            samples.join(","),
            notes.join(","),
            split.join(",")
        )
    }

    /// The result line: the per-layer metrics of a traced run, or the
    /// end-to-end metrics of an untraced one. A per-layer metric the run
    /// did not set reads 0; an unset end-to-end metric is a failure.
    #[must_use]
    pub fn result_json(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut failures = self.failures.clone();
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                if !traced && !self.values.contains_key(name) {
                    failures.push(format!("end-to-end metric {name} was not measured"));
                }
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    finite(self.get(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// `v` as JSON can carry it: 0 for NaN and the infinities, and for -0,
/// which an empty float sum returns.
#[must_use]
pub fn finite(v: f64) -> f64 {
    if v.is_finite() && v != 0.0 {
        v
    } else {
        0.0
    }
}

/// Current value of every registered `ones-obs` counter.
#[must_use]
pub fn registry_counters() -> BTreeMap<&'static str, u64> {
    ones_obs::registry_snapshot()
        .into_iter()
        .filter_map(|s| match s.value {
            ones_obs::MetricValue::Counter(v) => Some((s.key, v)),
            _ => None,
        })
        .collect()
}

/// The `ones`, `baselines`, `evo`, `dlperf` and reconcile-diff metrics of
/// a traced run, from the scheduler adapter's log and the span self
/// times by layer.
pub fn scheduler_layers(report: &mut Report, log: &RoundLog, by_layer: &BTreeMap<&str, f64>) {
    let on_event = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0);
    let evo_s = (log.refresh_ns + log.derive_ns + log.score_ns) as f64 / 1e9;
    let rounds = log.on_event_ns.len() as f64;
    let ones_rounds = if on_event("ones") > 0.0 { rounds } else { 0.0 };
    report.set("baselines.self_s", on_event("baselines"));
    report.set("ones.rounds", ones_rounds);
    report.set(
        "ones.proposal_ratio",
        if ones_rounds > 0.0 {
            log.proposals as f64 / ones_rounds
        } else {
            0.0
        },
    );
    report.set("ones.self_s", (on_event("ones") - evo_s).max(0.0));
    report.set("evo.generations", log.generations as f64);
    report.set("evo.candidates_scored", log.candidates_scored as f64);
    report.set("evo.refresh_s", log.refresh_ns as f64 / 1e9);
    report.set("evo.derive_s", log.derive_ns as f64 / 1e9);
    report.set("evo.score_s", log.score_ns as f64 / 1e9);
    let gens = Summary::of(log.gen_ms.clone());
    report.set("evo.gen_ms_p50", gens.p50);
    report.stats.push(("evo.gen_ms".into(), gens));
    let lookups = log.cache_hits + log.cache_misses;
    report.set("evo.cache_lookups", lookups as f64);
    report.set("evo.cache_hit_rate", ratio(log.cache_hits, lookups));
    let warm = log.warm_hits + log.warm_misses;
    report.set("evo.warm_lookups", warm as f64);
    report.set("evo.warm_hit_rate", ratio(log.warm_hits, warm));
    report.set("dlperf.evals", log.cache_misses as f64);
    report.set("reconcile.proposals", log.proposals as f64);
    let diffs = Summary::of(log.diff_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
    report.set("reconcile.diff_us_p50", diffs.p50);
    report.stats.push(("reconcile.diff_us".into(), diffs));
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables match `BENCHMARK.json` at the repository root.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(|x| x.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn finite_values_print_as_json_numbers() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(format!("{}", finite(empty)), "0");
        assert_eq!(finite(f64::NAN), 0.0);
        assert_eq!(finite(f64::INFINITY), 0.0);
        assert_eq!(finite(1.5), 1.5);
    }

    #[test]
    fn unset_end_to_end_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 0.5);
        let line = r.result_json(false);
        assert!(line.starts_with("{\"correct\":false"), "{line}");
        let line = r.result_json(true);
        assert!(line.starts_with("{\"correct\":true"), "{line}");
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(1));
    }
}
