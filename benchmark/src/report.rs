//! Metric definitions (mirrored in `BENCHMARK.json`), the reduction of raw samples to
//! reported values, and the text / JSON the run prints and writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// An end-to-end metric: something a user of the runtime would see. Every workload
/// reports every one of them. `bound` is the share of the parent's median by which
/// the metric may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "teardown_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

/// How a per-layer metric is taken from its raw series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    Median,
    P99,
    Mean,
    Sum,
}

/// A per-layer metric: `series` names the raw samples (collected in traced sessions,
/// or the single value of a replay / a computed figure), `reduce` the statistic.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Direction, as `BENCHMARK.json` lists it (the test below holds the two together).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub series: &'static str,
    pub reduce: Reduce,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    series: &'static str,
    reduce: Reduce,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        series,
        reduce,
    }
}

/// A metric that is one number per run (a replay or a computed figure): its series
/// carries its own name.
const fn single(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    layer(name, unit, better, name, Reduce::Median)
}

use Reduce::{Mean, Median, Sum, P99};

pub const PER_LAYER: [PerLayer; 56] = [
    // session / setup
    single("session.build_us", "us", "lower"),
    single("session.submit_pilot_us", "us", "lower"),
    single("platform.batch.submit_us", "us", "lower"),
    // the task path as the caller sees it
    single("session.submit_tasks_us_per_task", "us", "lower"),
    single("session.drain_us_per_task", "us", "lower"),
    // executor
    layer(
        "executor.spawn_to_scheduling_us_p50",
        "us",
        "lower",
        "executor.spawn_to_scheduling_us",
        Median,
    ),
    layer(
        "executor.executing_to_done_us_p50",
        "us",
        "lower",
        "executor.executing_to_done_us",
        Median,
    ),
    single("executor.thread_spawn_ref_us", "us", "lower"),
    single("executor.unattributed_us_per_task", "us", "lower"),
    single("executor.threads_after_submit", "count", "lower"),
    // scheduler
    layer(
        "scheduler.placement_wait_us_p50",
        "us",
        "lower",
        "scheduler.placement_wait_us",
        Median,
    ),
    layer(
        "scheduler.placement_wait_us_p99",
        "us",
        "lower",
        "scheduler.placement_wait_us",
        P99,
    ),
    layer(
        "scheduler.admission_batch_mean",
        "count",
        "higher",
        "scheduler.admission_batch",
        Mean,
    ),
    layer(
        "scheduler.admission_shard_wakeups_mean",
        "count",
        "lower",
        "scheduler.admission_shard_wakeups",
        Mean,
    ),
    single("scheduler.alloc_release_ns", "ns", "lower"),
    layer(
        "scheduler.scheduling_to_executing_us_p50",
        "us",
        "lower",
        "scheduler.scheduling_to_executing_us",
        Median,
    ),
    layer(
        "scheduler.scheduling_to_executing_us_p99",
        "us",
        "lower",
        "scheduler.scheduling_to_executing_us",
        P99,
    ),
    single("scheduler.slot_idle_share", "ratio", "lower"),
    layer(
        "scheduler.gang_wait_ms_p50",
        "ms",
        "lower",
        "scheduler.gang_wait_ms",
        Median,
    ),
    layer(
        "scheduler.gang_overtakes_mean",
        "count",
        "lower",
        "scheduler.gang_overtakes",
        Mean,
    ),
    layer(
        "scheduler.gang_drain_ms_p50",
        "ms",
        "lower",
        "scheduler.gang_drain_ms",
        Median,
    ),
    // platform.batch
    single("platform.batch.alloc_release_ns", "ns", "lower"),
    single("platform.batch.gang_alloc_release_ns", "ns", "lower"),
    layer(
        "platform.batch.shard_probes_mean",
        "count",
        "lower",
        "platform.batch.shard_probes",
        Mean,
    ),
    // records
    single("records.transition_ns", "ns", "lower"),
    // comm
    single("comm.pubsub.publish0_ns", "ns", "lower"),
    single("comm.pubsub.publish1_ns", "ns", "lower"),
    layer(
        "comm.pubsub.fanout_width_mean",
        "count",
        "lower",
        "comm.pubsub.fanout_width",
        Mean,
    ),
    single("comm.pubsub.delivered_per_task", "count", "lower"),
    layer(
        "comm.reqrep.communication_us_p50",
        "us",
        "lower",
        "comm.reqrep.communication_us",
        Median,
    ),
    layer(
        "comm.reqrep.communication_us_p99",
        "us",
        "lower",
        "comm.reqrep.communication_us",
        P99,
    ),
    layer(
        "comm.registry.publish_us_mean",
        "us",
        "lower",
        "comm.registry.publish_us",
        Mean,
    ),
    single("comm.registry.register_lookup_ns", "ns", "lower"),
    // serving
    layer(
        "serving.service_us_p50",
        "us",
        "lower",
        "serving.service_us",
        Median,
    ),
    layer(
        "serving.service_us_p99",
        "us",
        "lower",
        "serving.service_us",
        P99,
    ),
    layer(
        "serving.inference_us_p50",
        "us",
        "lower",
        "serving.inference_us",
        Median,
    ),
    single("serving.served_balance", "ratio", "higher"),
    layer(
        "serving.queue_depth_mean",
        "count",
        "lower",
        "serving.queue_depth",
        Mean,
    ),
    layer(
        "serving.queue_delay_us_p50",
        "us",
        "lower",
        "serving.queue_delay_us",
        Median,
    ),
    layer(
        "serving.batch_size_mean",
        "count",
        "higher",
        "serving.batch_size",
        Mean,
    ),
    layer(
        "serving.replica_outstanding_mean",
        "count",
        "lower",
        "serving.replica_outstanding",
        Mean,
    ),
    layer("serving.shed_count", "count", "lower", "serving.shed", Sum),
    layer(
        "serving.host.init_us_mean",
        "us",
        "lower",
        "serving.host.init_us",
        Mean,
    ),
    layer(
        "platform.launcher.launch_us_mean",
        "us",
        "lower",
        "platform.launcher.launch_us",
        Mean,
    ),
    // sim
    single("sim.metrics.record_ns", "ns", "lower"),
    single("sim.metrics.record_contended_ns", "ns", "lower"),
    single("sim.metrics.samples_total", "count", "lower"),
    single("sim.metrics.series_count", "count", "lower"),
    single("sim.clock.sleep_overshoot_us_p50", "us", "lower"),
    single("sim.clock.sleep_overshoot_us_p99", "us", "lower"),
    // workflows
    single("workflows.dsl.stage_simulate_us", "us", "lower"),
    single("workflows.dsl.stage_learn_infer_us", "us", "lower"),
    single("workflows.dsl.stage_gap_us", "us", "lower"),
    single("workflows.dsl.makespan_over_ideal", "ratio", "lower"),
    // process
    single("process.cpu_us_per_op", "us", "lower"),
    single("trace.overhead_pct", "%", "lower"),
];

/// Raw per-layer samples, keyed by series name.
pub type Series = BTreeMap<&'static str, Vec<f64>>;

/// A reported value with the sample it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Metric {
    /// `value` taken from `samples` at quantile `q`; quartiles describe the sample.
    pub fn quantile_of(name: &'static str, unit: &'static str, samples: &[f64], q: f64) -> Self {
        let s = stats::sorted(samples);
        Metric::of_sorted(name, unit, &s, stats::quantile_sorted(&s, q))
    }

    fn of_sorted(name: &'static str, unit: &'static str, sorted: &[f64], value: f64) -> Self {
        Metric {
            name,
            unit,
            value,
            n: sorted.len(),
            p25: stats::quantile_sorted(sorted, 0.25),
            p75: stats::quantile_sorted(sorted, 0.75),
        }
    }
}

/// Reduce the collected series to the per-layer metrics, in table order. A layer the
/// workload did not exercise reports 0 with `n = 0`.
pub fn per_layer(series: &Series) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|def| {
            let samples = series.get(def.series).map_or(&[][..], Vec::as_slice);
            let sorted = stats::sorted(samples);
            let value = match def.reduce {
                Median => stats::quantile_sorted(&sorted, 0.5),
                P99 => stats::quantile_sorted(&sorted, 0.99),
                Mean => stats::mean(samples),
                Sum => samples.iter().sum(),
            };
            Metric::of_sorted(def.name, def.unit, &sorted, value)
        })
        .collect()
}

/// One table row: `name workload value unit n p25 p75`.
pub fn row(m: &Metric, workload: &str) -> String {
    format!(
        "{:<42} {:<16} {:>16.6} {:<6} n={:<8} p25={:<14.6} p75={:.6}",
        m.name, workload, m.value, m.unit, m.n, m.p25, m.p75
    )
}

/// A finite number as JSON (non-finite values, which no metric should produce, as 0).
pub fn num(v: f64) -> String {
    if v == 0.0 {
        // Covers -0.0, the sum of an empty series.
        "0".to_string()
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line the benchmark contract asks for, as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Metrics with their samples' shape, for the files under `benchmark/out/`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"p25\": {}, \"p75\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit),
                m.n,
                num(m.p25),
                num(m.p75)
            )
        })
        .collect();
    format!("{{\n{}\n  }}", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let names = BENCHMARK_JSON.matches("\"name\":").count();
        assert_eq!(
            names,
            crate::WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists exactly the workloads and metrics the binary reports"
        );
        for w in crate::WORKLOADS {
            assert!(
                BENCHMARK_JSON.contains(&format!("\"name\": \"{w}\"")),
                "{w}"
            );
        }
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(BENCHMARK_JSON.contains(&entry), "{entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(BENCHMARK_JSON.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn reduction_and_result_line() {
        let mut series = Series::new();
        series.insert(
            "scheduler.placement_wait_us",
            (1..=101).map(f64::from).collect(),
        );
        series.insert("serving.shed", vec![1.0, 1.0]);
        let layers = per_layer(&series);
        assert_eq!(layers.len(), PER_LAYER.len());
        let get = |n: &str| layers.iter().find(|m| m.name == n).unwrap().clone();
        assert_eq!(get("scheduler.placement_wait_us_p50").value, 51.0);
        assert_eq!(get("scheduler.placement_wait_us_p99").value, 100.0);
        assert_eq!(get("serving.shed_count").value, 2.0);
        let idle = get("scheduler.slot_idle_share");
        assert_eq!((idle.value, idle.n), (0.0, 0), "unexercised layer reads 0");
        let line = result_line(
            true,
            10,
            0,
            &[Metric::quantile_of("setup_s", "s", &[0.25], 0.5)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
