//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` declares the same metrics; a unit test keeps the two in
//! step.  Units name the clock wherever a clock is involved — `sim_ms` and
//! `1/sim_s` are simulated time, `wall_ms` and `1/wall_s` wall time, `cpu_us`
//! process CPU time — so no value can be read on the wrong clock.

use std::collections::BTreeMap;

use serde::{Serialize, Value};

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name in `BENCHMARK.json` and in the result line.
    pub name: &'static str,
    /// The unit, clock included.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change is rejected.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("fs_cpu_us_per_delivery", "cpu_us", Lower, 0.25),
    e2e("crash_cpu_us_per_delivery", "cpu_us", Lower, 0.25),
    e2e("fs_sim_capacity_per_s", "1/sim_s", Higher, 0.15),
    e2e("crash_sim_capacity_per_s", "1/sim_s", Higher, 0.05),
    e2e("fs_sim_latency_ms_p50", "sim_ms", Lower, 0.05),
    e2e("fs_sim_latency_ms_p99", "sim_ms", Lower, 0.25),
    e2e("crash_sim_latency_ms_p50", "sim_ms", Lower, 0.05),
    e2e("fs_wall_capacity_per_s", "1/wall_s", Higher, 0.25),
    e2e("crash_wall_capacity_per_s", "1/wall_s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single layers (module names), from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("common.codec.encode_ns", "ns", Lower),
    layer("common.codec.decode_ns", "ns", Lower),
    layer("common.codec.fs_bytes_per_delivery", "B", Lower),
    layer("common.codec.crash_bytes_per_delivery", "B", Lower),
    layer("crypto.sign_ns", "ns", Lower),
    layer("crypto.verify_ns", "ns", Lower),
    layer("crypto.verify_memo_ns", "ns", Lower),
    layer("crypto.verify_batch8_ns_per_mac", "ns", Lower),
    layer("crypto.hmac_mb_per_s", "MB/s", Higher),
    layer("crypto.est_us_per_delivery", "cpu_us", Lower),
    layer("crypto.est_share", "ratio", Lower),
    layer("failsignal.sign_output_ns", "ns", Lower),
    layer("failsignal.accept_ns", "ns", Lower),
    layer("failsignal.pair_frames_per_delivery", "count", Lower),
    layer("failsignal.external_frames_per_delivery", "count", Lower),
    layer("failsignal.lift_cpu_ratio", "ratio", Lower),
    layer("failsignal.lift_frames_ratio", "ratio", Lower),
    layer("failsignal.lift_sim_latency_ratio", "ratio", Lower),
    layer("failsignal.fail_signals", "count", Lower),
    layer("failsignal.detect_sim_ms", "sim_ms", Lower),
    layer("newtop.frames_per_delivery", "count", Lower),
    layer("newtop.sim_events_per_delivery", "count", Lower),
    layer("smr.frames_per_command", "count", Lower),
    layer("smr.fs_rejoin_sim_ms", "sim_ms", Lower),
    layer("smr.crash_rejoin_sim_ms", "sim_ms", Lower),
    layer("smr.snapshot_rejoin_sim_ms_p50", "sim_ms", Lower),
    layer("simnet.sim.fs_events_per_delivery", "count", Lower),
    layer("simnet.sim.crash_events_per_delivery", "count", Lower),
    layer("simnet.sim.timers_per_delivery", "count", Lower),
    layer("simnet.sim.cpu_ns_per_event", "ns", Lower),
    layer("simnet.sched.pending_events", "count", Lower),
    layer("simnet.sched.hold_ns", "ns", Lower),
    layer("simnet.trace.overhead_ratio", "ratio", Lower),
    layer("simnet.threaded.busy_share", "ratio", Higher),
    layer("simnet.threaded.cores_used", "ratio", Higher),
    layer("simnet.threaded.fs_wall_latency_ms_p50", "wall_ms", Lower),
    layer("simnet.threaded.fs_wall_latency_ms_p99", "wall_ms", Lower),
    layer(
        "simnet.threaded.crash_wall_latency_ms_p50",
        "wall_ms",
        Lower,
    ),
    layer("simnet.threaded.settle_s", "s", Lower),
    layer("simnet.load.offered_rate_error", "ratio", Lower),
    layer("simnet.load.shed_ratio", "ratio", Lower),
    layer("simnet.load.blocked_ratio", "ratio", Lower),
    layer("harness.build_s_fs", "s", Lower),
    layer("harness.build_s_crash", "s", Lower),
    layer("harness.inspect_s", "s", Lower),
    layer("harness.cluster.scaling_efficiency", "ratio", Higher),
    layer("harness.cluster.router_frames_per_command", "count", Lower),
    layer("faults.injected", "count", Higher),
    layer("faults.dropped_down", "count", Lower),
    layer("faults.lifecycle_events", "count", Higher),
    layer("faults.abandoned_in_flight", "count", Lower),
    layer("bench.reps", "count", Higher),
    layer("bench.cpu_rep_median_us", "cpu_us", Lower),
    layer("bench.cpu_rep_iqr_us", "cpu_us", Lower),
    layer("bench.latency_samples", "count", Higher),
    layer("bench.unattributed_us_per_delivery", "cpu_us", Lower),
    layer("bench.failed_ratio", "ratio", Lower),
];

/// How long one run measures, in seconds (`run_seconds`): the closed cells
/// repeat until this much time has passed since the workload started.
pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`: the driver's contract, generated from the
/// catalogue and the workload plans so the two cannot drift apart
/// (`fs-benchmark --describe` prints it; a unit test compares the file).
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let metric = |def: &MetricDef| {
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            def.name,
            def.unit,
            def.better.name()
        )
    };
    let list = |rows: Vec<String>| rows.join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect()),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The benchmark's result: the object printed as the last line of standard
/// output, in exactly the shape the driver's contract fixes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every output check passed.
    pub correct: bool,
    /// Requests offered to the system, all cells and repetitions.
    pub attempted: u64,
    /// Requests that did not complete, plus violated checks.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Picks the catalogue's metrics out of `values`.
    ///
    /// # Panics
    ///
    /// Panics when a declared metric was not measured — a bug in the
    /// benchmark, which must never be papered over with a default.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        catalogue: &[MetricDef],
        values: &Values,
    ) -> Self {
        let metrics = catalogue
            .iter()
            .map(|def| {
                let value = *values.get(def.name).unwrap_or_else(|| {
                    panic!("metric `{}` was declared but not measured", def.name)
                });
                assert!(value.is_finite(), "metric `{}` is {value}", def.name);
                (def.name.to_string(), value, def.unit.to_string())
            })
            .collect();
        Self {
            correct,
            attempted,
            failed,
            metrics,
        }
    }
}

impl Serialize for ResultLine {
    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::Map(vec![
                    ("value".to_string(), Value::F64(*value)),
                    ("unit".to_string(), Value::Str(unit.clone())),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ])
    }
}

impl serde::Deserialize for ResultLine {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = serde::value_as_map(v, "ResultLine")?;
        let field = |name| serde::map_field(map, name, "ResultLine");
        let metrics = serde::value_as_map(field("metrics")?, "metrics")?
            .iter()
            .map(|(name, entry)| {
                let entry = serde::value_as_map(entry, "metric")?;
                Ok((
                    name.clone(),
                    f64::from_value(serde::map_field(entry, "value", "metric")?)?,
                    String::from_value(serde::map_field(entry, "unit", "metric")?)?,
                ))
            })
            .collect::<Result<_, serde::Error>>()?;
        Ok(Self {
            correct: bool::from_value(field("correct")?)?,
            attempted: u64::from_value(field("attempted")?)?,
            failed: u64::from_value(field("failed")?)?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn result_line_round_trips_through_json() {
        let mut values = Values::new();
        for (i, def) in END_TO_END.iter().enumerate() {
            values.insert(def.name, 1.25 + i as f64 / 3.0);
        }
        let line = ResultLine::new(true, 1000, 0, END_TO_END, &values);
        let json = serde_json::to_string(&line).unwrap();
        assert!(!json.contains('\n'));
        assert!(json.starts_with("{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{"));
        let back: ResultLine = serde_json::from_str(&json).unwrap();
        assert_eq!(back, line);
        assert_eq!(back.metrics.len(), END_TO_END.len());
        assert_eq!(back.metrics[0].0, "setup_s");
        assert_eq!(back.metrics[0].2, "s");
    }

    #[test]
    #[should_panic(expected = "declared but not measured")]
    fn a_missing_metric_is_a_bug_not_a_default() {
        ResultLine::new(true, 1, 0, END_TO_END, &Values::new());
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let mut names = BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.insert(def.name), "{} declared twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{def:?}");
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what the
    /// program prints.  The file must be exactly what `--describe` generates.
    #[test]
    fn benchmark_json_is_the_generated_description() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let workloads: Vec<(&str, &str)> = crate::workloads::PLANS
            .iter()
            .map(|p| (p.name, p.why))
            .collect();
        assert_eq!(
            committed,
            benchmark_json(&workloads),
            "regenerate with `fs-benchmark --describe > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
