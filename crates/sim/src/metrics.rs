//! Concurrent metric collection with per-component breakdowns.
//!
//! The paper's three metrics — Bootstrap Time (BT), Response Time (RT), Inference Time
//! (IT) — are each decomposed into named components (e.g. BT = launch + init + publish;
//! RT = communication + service + inference). [`BreakdownRecorder`] collects one
//! [`ComponentSample`] per entity (service instance, request) from any thread, and the
//! harness aggregates them into per-component [`Summary`] statistics.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// One measured sample decomposed into named components (all in virtual seconds).
///
/// Samples are kept one per request for the length of a session, so a sample is two
/// allocations — the entity and one exactly-sized component list — and component
/// names, which are constants of the recording code, are borrowed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentSample {
    /// Identifier of the measured entity (service id, request id, ...).
    pub entity: String,
    /// Ordered `(component name, seconds)` pairs.
    pub components: Vec<(Cow<'static, str>, f64)>,
}

impl ComponentSample {
    /// Create a sample for `entity` with no components yet (room for the three both
    /// of the paper's breakdowns have).
    pub fn new(entity: impl Into<String>) -> Self {
        ComponentSample {
            entity: entity.into(),
            components: Vec::with_capacity(3),
        }
    }

    /// Append a component measurement.
    pub fn with(mut self, name: &'static str, seconds: f64) -> Self {
        self.components.push((Cow::Borrowed(name), seconds));
        self
    }

    /// Total across all components.
    pub fn total(&self) -> f64 {
        self.components.iter().map(|(_, v)| v).sum()
    }

    /// Value of a single component, if present.
    pub fn component(&self, name: &str) -> Option<f64> {
        self.components
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Thread-safe collector of [`ComponentSample`]s for one metric (e.g. "bootstrap_time").
#[derive(Debug, Default)]
pub struct BreakdownRecorder {
    samples: Mutex<Vec<ComponentSample>>,
}

impl BreakdownRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, sample: ComponentSample) {
        self.samples.lock().push(sample);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all samples recorded so far.
    pub fn samples(&self) -> Vec<ComponentSample> {
        self.samples.lock().clone()
    }

    /// Remove and return all samples.
    pub fn drain(&self) -> Vec<ComponentSample> {
        std::mem::take(&mut *self.samples.lock())
    }

    /// Per-component summary statistics across all samples. Components missing from a
    /// sample are simply not counted for that sample.
    pub fn component_summaries(&self) -> BTreeMap<String, Summary> {
        let samples = self.samples.lock();
        let mut per_component: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for s in samples.iter() {
            for (name, value) in &s.components {
                per_component.entry(name).or_default().push(*value);
            }
        }
        per_component
            .into_iter()
            .map(|(name, values)| (name.to_string(), Summary::from_slice(&values)))
            .collect()
    }

    /// Summary of per-sample totals.
    pub fn total_summary(&self) -> Summary {
        let totals: Vec<f64> = self.samples.lock().iter().map(|s| s.total()).collect();
        Summary::from_slice(&totals)
    }
}

/// Named registry of scalar metric series, shared across runtime components.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    series: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl MetricRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a value to the named series (creating it on first use — the only time
    /// the name is copied).
    pub fn record(&self, name: &str, value: f64) {
        let mut series = self.series.lock();
        match series.get_mut(name) {
            Some(values) => values.push(value),
            None => {
                series.insert(name.to_string(), vec![value]);
            }
        }
    }

    /// All values recorded under `name` (empty if unknown).
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.series.lock().get(name).cloned().unwrap_or_default()
    }

    /// Summary statistics for `name`.
    pub fn summary(&self, name: &str) -> Summary {
        Summary::from_slice(&self.values(name))
    }

    /// Names of all series recorded so far.
    pub fn names(&self) -> Vec<String> {
        self.series.lock().keys().cloned().collect()
    }

    /// Total number of values across all series.
    pub fn total_count(&self) -> usize {
        self.series.lock().values().map(|v| v.len()).sum()
    }

    /// Remove all series.
    pub fn clear(&self) {
        self.series.lock().clear();
    }
}

/// Destination for the named scalar observations a layer records on its hot paths
/// (the comm fabric's `comm.*` series, the serving plane's `serving.*` series). The
/// runtime wires the session's metric recorder in; standalone uses pass
/// [`null_sink`]. Implemented for any `Fn(&str, f64)` closure.
pub trait ScalarSink: Send + Sync {
    /// Record one named scalar observation.
    fn record(&self, name: &str, value: f64);
}

impl<F: Fn(&str, f64) + Send + Sync> ScalarSink for F {
    fn record(&self, name: &str, value: f64) {
        self(name, value)
    }
}

/// Shared handle to a scalar sink.
pub type SharedScalarSink = Arc<dyn ScalarSink>;

/// A sink that drops every observation.
pub fn null_sink() -> SharedScalarSink {
    Arc::new(|_: &str, _: f64| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn component_sample_accessors() {
        let s = ComponentSample::new("service.000001")
            .with("launch", 1.0)
            .with("init", 30.0)
            .with("publish", 0.5);
        assert_eq!(s.total(), 31.5);
        assert_eq!(s.component("init"), Some(30.0));
        assert_eq!(s.component("missing"), None);
    }

    #[test]
    fn recorder_aggregates_components() {
        let r = BreakdownRecorder::new();
        assert!(r.is_empty());
        for i in 0..10 {
            r.record(
                ComponentSample::new(format!("svc.{i}"))
                    .with("launch", 1.0 + i as f64 * 0.1)
                    .with("init", 30.0),
            );
        }
        assert_eq!(r.len(), 10);
        let summaries = r.component_summaries();
        assert_eq!(summaries.len(), 2);
        assert!((summaries["init"].mean - 30.0).abs() < 1e-12);
        assert!((summaries["launch"].mean - 1.45).abs() < 1e-9);
        let totals = r.total_summary();
        assert_eq!(totals.count, 10);
        assert!(totals.mean > 31.0);
        assert_eq!(r.samples().len(), 10);
        let drained = r.drain();
        assert_eq!(drained.len(), 10);
        assert!(r.is_empty());
    }

    #[test]
    fn recorder_handles_heterogeneous_components() {
        let r = BreakdownRecorder::new();
        r.record(ComponentSample::new("a").with("x", 1.0));
        r.record(ComponentSample::new("b").with("y", 2.0));
        let s = r.component_summaries();
        assert_eq!(s["x"].count, 1);
        assert_eq!(s["y"].count, 1);
    }

    #[test]
    fn metric_registry_records_series() {
        let m = MetricRegistry::new();
        m.record("rt", 0.1);
        m.record("rt", 0.2);
        m.record("it", 3.0);
        assert_eq!(m.values("rt"), vec![0.1, 0.2]);
        assert_eq!(m.values("unknown"), Vec::<f64>::new());
        assert_eq!(m.names(), vec!["it".to_string(), "rt".to_string()]);
        assert_eq!(m.total_count(), 3);
        assert!((m.summary("rt").mean - 0.15).abs() < 1e-12);
        m.clear();
        assert_eq!(m.total_count(), 0);
    }

    #[test]
    fn closure_sink_records_and_null_sink_drops() {
        let seen = Arc::new(MetricRegistry::new());
        let seen2 = Arc::clone(&seen);
        let sink: SharedScalarSink =
            Arc::new(move |name: &str, value: f64| seen2.record(name, value));
        sink.record("comm.fanout.width", 3.0);
        null_sink().record("dropped", 1.0);
        assert_eq!(seen.values("comm.fanout.width"), vec![3.0]);
        assert_eq!(seen.total_count(), 1);
    }

    #[test]
    fn registry_is_thread_safe() {
        let m = Arc::new(MetricRegistry::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    m.record("x", (t * 100 + i) as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.values("x").len(), 400);
    }
}
