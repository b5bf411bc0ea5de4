//! Runtime metrics: the paper's three quantities, collected with component breakdowns.
//!
//! * **Bootstrap Time (BT)** — per local service instance: `launch` + `init` + `publish`.
//! * **Response Time (RT)** — per inference request, client-observed:
//!   `communication` + `service` + `inference`.
//! * **Inference Time (IT)** — the `inference` component in isolation.
//!
//! All values are virtual seconds. The recorders are shared (`Arc<RuntimeMetrics>`)
//! between the executor, the service manager, and the client tasks that issue requests,
//! and the experiment harness reads the summaries after the workload drains.
//!
//! Recording is per thread and reading merges (see [`hpcml_sim::metrics`]): every
//! recorder keeps a few cache-line-padded stripes, a thread always records into the
//! same one, and a read returns each thread's records in that thread's order. What is
//! kept per response is four numbers — the request's index and its three components —
//! in blocks that are never reallocated; the [`ComponentSample`]s the readers get, with
//! their `request.NNNNNN` entity and named components, are built by the read.
//! A placed task attempt is one row as well (`TaskRow`: 16 bytes, one stripe lock, no
//! name look-up); [`RuntimeMetrics::scalar_values`] derives its two series from the rows.
//!
//! `RuntimeMetrics` is itself the [`ScalarSink`] the session wires into the comm fabric
//! and the serving plane. Their per-event widths, depths and counts
//! (`comm.fanout.width`, `serving.queue.depth`, `serving.batch.size`,
//! `serving.replica.outstanding`, `comm.queue.depth`) arrive through
//! [`ScalarSink::record_count`] and are kept as exact `value → count` tables, so a
//! request or a publish adds no bytes once its values have been seen; they read back
//! in ascending order. Every other scalar keeps one `f64` per record.

use std::collections::BTreeMap;
use std::sync::Arc;

use hpcml_serving::request::REQUEST_ID_NAMESPACE;
use hpcml_sim::ids;
use hpcml_sim::metrics::{
    component_summaries, total_summary, Blocks, BreakdownRecorder, ComponentSample, MetricRegistry,
    ScalarSink, Striped,
};
use hpcml_sim::stats::Summary;

use crate::records::BootstrapTimes;

/// Component name: service launch.
pub const C_LAUNCH: &str = "launch";
/// Component name: model load / initialisation.
pub const C_INIT: &str = "init";
/// Component name: endpoint publication.
pub const C_PUBLISH: &str = "publish";
/// Component name: request+reply network time.
pub const C_COMMUNICATION: &str = "communication";
/// Component name: service-side queueing + parsing + serialisation.
pub const C_SERVICE: &str = "service";
/// Component name: model compute time.
pub const C_INFERENCE: &str = "inference";

/// What is kept of one response: the request's index in [`REQUEST_ID_NAMESPACE`] and the
/// three components, in the order [`RuntimeMetrics::response_samples`] names them.
#[derive(Debug, Clone, Copy)]
struct ResponseRow {
    request: u64,
    communication: f64,
    service: f64,
    inference: f64,
}

impl ResponseRow {
    fn sample(&self) -> ComponentSample {
        ComponentSample::new(ids::format_id(REQUEST_ID_NAMESPACE, self.request))
            .with(C_COMMUNICATION, self.communication)
            .with(C_SERVICE, self.service)
            .with(C_INFERENCE, self.inference)
    }
}

/// What one placed task attempt measured, recorded once: where its execution ends, or
/// — `exec_secs` still NaN — where the attempt ends before that.
#[derive(Debug)]
pub(crate) struct TaskRow {
    pub(crate) placement_wait_secs: f64,
    pub(crate) exec_secs: f64,
}

/// Shared collection of runtime metrics.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    bootstrap: BreakdownRecorder,
    response: Striped<Blocks<ResponseRow>>,
    tasks: Striped<Blocks<TaskRow>>,
    registry: MetricRegistry,
}

impl RuntimeMetrics {
    /// Create an empty metric set.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record the bootstrap breakdown of one service instance.
    pub fn record_bootstrap(&self, service_id: &str, times: BootstrapTimes) {
        self.bootstrap.record(
            ComponentSample::new(service_id)
                .with(C_LAUNCH, times.launch_secs)
                .with(C_INIT, times.init_secs)
                .with(C_PUBLISH, times.publish_secs),
        );
    }

    /// Record the response breakdown of one inference request, named by its index in
    /// [`REQUEST_ID_NAMESPACE`] — what [`hpcml_serving::InferenceRequest::renew_id`]
    /// returns (request `7` reads back as `request.000007`).
    pub fn record_response(&self, request: u64, communication: f64, service: f64, inference: f64) {
        self.response.local().push(ResponseRow {
            request,
            communication,
            service,
            inference,
        });
    }

    /// Record what one placed task attempt measured.
    pub(crate) fn record_task(&self, row: TaskRow) {
        self.tasks.local().push(row);
    }

    /// Record an arbitrary named scalar (staging durations, task durations, ...).
    pub fn record_scalar(&self, name: &str, value: f64) {
        self.registry.record(name, value);
    }

    /// Number of bootstrap samples recorded.
    pub fn bootstrap_count(&self) -> usize {
        self.bootstrap.len()
    }

    /// Number of response samples recorded.
    pub fn response_count(&self) -> usize {
        self.response.each().map(|stripe| stripe.len()).sum()
    }

    /// Per-component bootstrap summaries (`launch`, `init`, `publish`).
    pub fn bootstrap_summaries(&self) -> BTreeMap<String, Summary> {
        self.bootstrap.component_summaries()
    }

    /// Summary of total bootstrap time per service.
    pub fn bootstrap_total_summary(&self) -> Summary {
        self.bootstrap.total_summary()
    }

    /// Per-component response summaries (`communication`, `service`, `inference`).
    pub fn response_summaries(&self) -> BTreeMap<String, Summary> {
        component_summaries(&self.response_samples())
    }

    /// Summary of total response time per request.
    pub fn response_total_summary(&self) -> Summary {
        total_summary(&self.response_samples())
    }

    /// Summary of the inference component alone (the paper's IT metric).
    pub fn inference_summary(&self) -> Summary {
        self.response_summaries()
            .remove(C_INFERENCE)
            .unwrap_or_default()
    }

    /// Raw bootstrap samples (for CSV export by the harness).
    pub fn bootstrap_samples(&self) -> Vec<ComponentSample> {
        self.bootstrap.samples()
    }

    /// Raw response samples (for CSV export by the harness), built here from the rows
    /// that were recorded: each client's in the order it made its requests.
    pub fn response_samples(&self) -> Vec<ComponentSample> {
        self.response.read(|row| Some(row.sample()))
    }

    /// Scalar series accessor.
    pub fn scalar_summary(&self, name: &str) -> Summary {
        Summary::from_slice(&self.scalar_values(name))
    }

    /// Scalar series values; the two series of a `TaskRow` are its columns, and a
    /// counted series reads back in ascending order ([`MetricRegistry::values`]).
    pub fn scalar_values(&self, name: &str) -> Vec<f64> {
        let mut values = self.registry.values(name);
        let column: fn(&TaskRow) -> Option<f64> = match name {
            "task.placement_wait_secs" => |row| Some(row.placement_wait_secs),
            "task.exec_secs" => |row| Some(row.exec_secs).filter(|secs| !secs.is_nan()),
            _ => return values,
        };
        values.extend(self.tasks.read(column));
        values
    }
}

/// The sink of a session's comm fabric and serving plane.
impl ScalarSink for RuntimeMetrics {
    fn record(&self, name: &str, value: f64) {
        self.record_scalar(name, value);
    }

    fn record_count(&self, name: &str, value: u64) {
        self.registry.record_count(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_sim::metrics::SharedScalarSink;

    #[test]
    fn bootstrap_recording_and_summaries() {
        let m = RuntimeMetrics::new();
        for i in 0..16 {
            m.record_bootstrap(
                &format!("service.{i}"),
                BootstrapTimes {
                    launch_secs: 2.0,
                    init_secs: 30.0 + i as f64 * 0.1,
                    publish_secs: 0.3,
                },
            );
        }
        assert_eq!(m.bootstrap_count(), 16);
        let s = m.bootstrap_summaries();
        assert!((s[C_LAUNCH].mean - 2.0).abs() < 1e-12);
        assert!(s[C_INIT].mean > 30.0);
        assert!(s[C_PUBLISH].mean < s[C_LAUNCH].mean);
        assert!(m.bootstrap_total_summary().mean > 32.0);
        assert_eq!(m.bootstrap_samples().len(), 16);
    }

    #[test]
    fn response_recording_and_inference_summary() {
        let m = RuntimeMetrics::new();
        for i in 0..100 {
            m.record_response(i, 0.0001, 0.00005, 2.0);
        }
        assert_eq!(m.response_count(), 100);
        let s = m.response_summaries();
        assert!(s[C_INFERENCE].mean > 100.0 * s[C_COMMUNICATION].mean);
        assert!((m.inference_summary().mean - 2.0).abs() < 1e-9);
        assert!((m.response_total_summary().mean - 2.00015).abs() < 1e-6);
        let samples = m.response_samples();
        assert_eq!(samples.len(), 100);
        assert_eq!(samples[7].entity, "request.000007");
        assert_eq!(
            samples[7].components,
            ComponentSample::new("")
                .with(C_COMMUNICATION, 0.0001)
                .with(C_SERVICE, 0.00005)
                .with(C_INFERENCE, 2.0)
                .components
        );
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RuntimeMetrics::new();
        assert_eq!(m.bootstrap_count(), 0);
        assert_eq!(m.inference_summary().count, 0);
        assert_eq!(m.response_total_summary().mean, 0.0);
    }

    #[test]
    fn scalar_series() {
        let m = RuntimeMetrics::new();
        m.record_scalar("staging.secs", 1.5);
        m.record_scalar("staging.secs", 2.5);
        assert_eq!(m.scalar_values("staging.secs").len(), 2);
        assert!((m.scalar_summary("staging.secs").mean - 2.0).abs() < 1e-12);
        assert_eq!(m.scalar_values("missing"), Vec::<f64>::new());
    }

    #[test]
    fn a_counted_series_reads_back_what_was_recorded() {
        let m = RuntimeMetrics::new();
        let sink = Arc::clone(&m) as SharedScalarSink;
        let depths = [4u64, 1, 3, 1, 2, 9, 1];
        for depth in depths {
            sink.record_count("serving.queue.depth", depth);
        }
        sink.record("serving.queue.delay_secs", 0.25);
        let values = m.scalar_values("serving.queue.depth");
        assert_eq!(values, [1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 9.0]);
        assert_eq!(
            m.scalar_summary("serving.queue.depth"),
            Summary::from_slice(&values)
        );
        assert_eq!(m.scalar_summary("serving.queue.depth").count, depths.len());
        assert_eq!(m.scalar_values("serving.queue.delay_secs"), [0.25]);
    }
}
