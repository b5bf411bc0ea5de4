//! Concurrent metric collection with per-component breakdowns.
//!
//! The paper's three metrics — Bootstrap Time (BT), Response Time (RT), Inference Time
//! (IT) — are each decomposed into named components (e.g. BT = launch + init + publish;
//! RT = communication + service + inference). [`BreakdownRecorder`] collects one
//! [`ComponentSample`] per entity (service instance, request) from any thread, and the
//! harness aggregates them into per-component [`Summary`] statistics.
//!
//! # Recording is per thread, reading merges
//!
//! Every recorder here is [`Striped`]: a small fixed number of cache-line-padded
//! stripes, each behind a mutex of its own, of which a recording thread always uses the
//! same one (chosen by a thread-local index, handed out round-robin the first time a
//! thread records anything). Two threads that record at the same time therefore share
//! no lock and no cache line unless their indices collide (see `STRIPES`). Reads
//! visit the stripes in index order and merge what they find, so a read sees **each
//! thread's records in the order that thread made them, and promises nothing about
//! the order of two threads' records relative to each other** — a reader that needs
//! one must carry it in the value (a timestamp, an index). Counts, sums, summaries and
//! percentiles do not depend on it.
//!
//! A scalar series is one of two kinds, fixed by the call that records it:
//!
//! * **values** ([`MetricRegistry::record`]): every `f64` in [`Blocks`] — appended to,
//!   never reallocated, never copied — and read back in the order above;
//! * **counts** ([`MetricRegistry::record_count`]): a small-integer observation (a
//!   width, a depth, a count) kept as an exact `value → count` table per stripe, so the
//!   series costs memory per *distinct* value, not per record. A read returns every
//!   recorded value once, **in ascending order** — the one exception to the order
//!   contract; lengths, sums, means and percentiles are those of the values recorded.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};

use crate::stats::Summary;

/// Stripes per recorder: few enough to merge on every read. Stripe indices are handed
/// out process-wide to every thread that ever records (entity threads, pool workers,
/// earlier sessions' threads), so two threads whose indices differ by a multiple of
/// `STRIPES` share a stripe for as long as they live, and with more recorders than
/// stripes (the paper's 16-client sweep) every stripe is shared. The count was chosen
/// with at most two threads recording at once on a 2-vCPU host;
/// `metrics/record_scalar/{1,2,16}` (`runtime_hotpaths` bench) reads what a record
/// costs with more recorders than stripes.
const STRIPES: usize = 8;

/// One stripe, alone on its cache lines (two: adjacent lines are fetched in pairs).
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe<T>(Mutex<T>);

/// `STRIPES` copies of a collector, one of which each thread records into (see the
/// module docs). Nothing is allocated until a stripe's collector allocates.
#[derive(Debug, Default)]
pub struct Striped<T> {
    stripes: [Stripe<T>; STRIPES],
}

impl<T> Striped<T> {
    /// The calling thread's own stripe, locked.
    pub fn local(&self) -> MutexGuard<'_, T> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
        }
        self.stripes[INDEX.with(|index| *index)].0.lock()
    }

    /// Every stripe in index order, each locked while it is looked at and no longer.
    pub fn each(&self) -> impl Iterator<Item = MutexGuard<'_, T>> {
        self.stripes.iter().map(|stripe| stripe.0.lock())
    }
}

/// An append-only sequence kept in blocks that are never reallocated and never copied
/// once made: the first holds 64 values, each later one twice as many as the one
/// before, up to 4096. A series that grows for the length of a session costs one
/// allocation per block and at most one block of slack.
#[derive(Debug, Clone)]
pub struct Blocks<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Blocks<T> {
    fn default() -> Self {
        Blocks {
            blocks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> Blocks<T> {
    const FIRST_BLOCK: usize = 64;
    const LARGEST_BLOCK: usize = 4096;

    /// Append one value.
    pub fn push(&mut self, value: T) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < block.capacity() => block.push(value),
            _ => {
                let room = self.blocks.last().map_or(Self::FIRST_BLOCK, |last| {
                    (2 * last.capacity()).min(Self::LARGEST_BLOCK)
                });
                let mut block = Vec::with_capacity(room);
                block.push(value);
                self.blocks.push(block);
            }
        }
        self.len += 1;
    }

    /// Number of values appended.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The values in the order they were appended.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flatten()
    }
}

impl<T> Striped<Blocks<T>> {
    /// `read` of every value that has one: each thread's in the order it appended them
    /// (see the module docs for what that promises), in one allocation sized for all —
    /// a 60 000-sample read that grew its buffer instead moved glibc's consolidation of
    /// the samples' freed chunks into the next session's set-up (+1.5 ms per session).
    pub fn read<U>(&self, read: impl Fn(&T) -> Option<U>) -> Vec<U> {
        let mut out = Vec::with_capacity(self.each().map(|stripe| stripe.len()).sum());
        for stripe in self.each() {
            out.extend(stripe.iter().filter_map(&read));
        }
        out
    }
}

/// An exact `value → count` table of a counted series, sorted by value: a record is a
/// binary search and, for a value not seen before on this stripe, one insertion.
#[derive(Debug, Default)]
struct Counts {
    table: Vec<(u64, u64)>,
}

impl Counts {
    /// Count one more `value`.
    fn add(&mut self, value: u64) {
        match self.table.binary_search_by_key(&value, |&(v, _)| v) {
            Ok(at) => self.table[at].1 += 1,
            Err(at) => self.table.insert(at, (value, 1)),
        }
    }

    /// Number of values counted.
    fn len(&self) -> usize {
        self.table.iter().map(|&(_, n)| n as usize).sum()
    }
}

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
    samples: Striped<Vec<ComponentSample>>,
}

impl BreakdownRecorder {
    /// Create an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, sample: ComponentSample) {
        self.samples.local().push(sample);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.each().map(|stripe| stripe.len()).sum()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all samples recorded so far, each thread's in the order it
    /// recorded them.
    pub fn samples(&self) -> Vec<ComponentSample> {
        self.samples
            .each()
            .flat_map(|stripe| stripe.clone())
            .collect()
    }

    /// Remove and return all samples.
    pub fn drain(&self) -> Vec<ComponentSample> {
        self.samples
            .each()
            .flat_map(|mut stripe| std::mem::take(&mut *stripe))
            .collect()
    }

    /// Per-component summary statistics across all samples. Components missing from a
    /// sample are simply not counted for that sample.
    pub fn component_summaries(&self) -> BTreeMap<String, Summary> {
        component_summaries(&self.samples())
    }

    /// Summary of per-sample totals.
    pub fn total_summary(&self) -> Summary {
        total_summary(&self.samples())
    }
}

/// Per-component summary statistics of `samples`.
pub fn component_summaries(samples: &[ComponentSample]) -> BTreeMap<String, Summary> {
    let mut per_component: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (name, value) in &s.components {
            per_component.entry(name).or_default().push(*value);
        }
    }
    per_component
        .into_iter()
        .map(|(name, values)| (name.to_string(), Summary::from_slice(&values)))
        .collect()
}

/// Summary of the per-sample totals of `samples`.
pub fn total_summary(samples: &[ComponentSample]) -> Summary {
    let totals: Vec<f64> = samples.iter().map(ComponentSample::total).collect();
    Summary::from_slice(&totals)
}

/// One stripe's series, by kind (see the module docs).
#[derive(Debug, Default)]
struct Series {
    values: BTreeMap<String, Blocks<f64>>,
    counts: BTreeMap<String, Counts>,
}

/// Named registry of scalar metric series, shared across runtime components.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    series: Striped<Series>,
}

impl MetricRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a value to the named series, on the calling thread's stripe (creating
    /// the series there on first use — the only time the name is copied).
    pub fn record(&self, name: &str, value: f64) {
        let values = &mut self.series.local().values;
        match values.get_mut(name) {
            Some(series) => series.push(value),
            None => values.entry(name.to_string()).or_default().push(value),
        }
    }

    /// Count one small-integer observation of the named series, on the calling
    /// thread's stripe: a counted series keeps one entry per distinct value, however
    /// many times each is recorded (see the module docs).
    pub fn record_count(&self, name: &str, value: u64) {
        let counts = &mut self.series.local().counts;
        match counts.get_mut(name) {
            Some(series) => series.add(value),
            None => counts.entry(name.to_string()).or_default().add(value),
        }
    }

    /// All values recorded under `name` (empty if unknown), each once.
    ///
    /// **Order:** the values one thread recorded with [`record`](Self::record) are in
    /// the order it recorded them; values of different threads are grouped by thread,
    /// not interleaved by time (see the module docs). Compare against a timeline only
    /// what one thread recorded, or sort. Values counted with
    /// [`record_count`](Self::record_count) follow, merged over every thread, in
    /// ascending order.
    pub fn values(&self, name: &str) -> Vec<f64> {
        let mut values = Vec::new();
        let mut counts = BTreeMap::<u64, usize>::new();
        for stripe in self.series.each() {
            if let Some(series) = stripe.values.get(name) {
                values.reserve(series.len());
                values.extend(series.iter());
            }
            if let Some(series) = stripe.counts.get(name) {
                for &(value, n) in &series.table {
                    *counts.entry(value).or_default() += n as usize;
                }
            }
        }
        values.reserve(counts.values().sum());
        for (value, n) in counts {
            values.extend(std::iter::repeat_n(value as f64, n));
        }
        values
    }

    /// Names of all series recorded so far, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names = BTreeSet::new();
        for stripe in self.series.each() {
            names.extend(stripe.values.keys().chain(stripe.counts.keys()).cloned());
        }
        names.into_iter().collect()
    }

    /// Total number of values across all series.
    pub fn total_count(&self) -> usize {
        self.series
            .each()
            .map(|stripe| {
                stripe.values.values().map(Blocks::len).sum::<usize>()
                    + stripe.counts.values().map(Counts::len).sum::<usize>()
            })
            .sum()
    }

    /// Remove all series.
    pub fn clear(&self) {
        for mut stripe in self.series.each() {
            *stripe = Series::default();
        }
    }
}

/// Destination for the named scalar observations a layer records on its hot paths
/// (the comm fabric's `comm.*` series, the serving plane's `serving.*` series). The
/// runtime wires the session's metric recorder in, which keeps integer observations as
/// counts; standalone uses pass [`null_sink`]. Implemented for any `Fn(&str, f64)`
/// closure, which receives integer observations through [`record`](Self::record), in
/// the order they are made.
pub trait ScalarSink: Send + Sync {
    /// Record one named scalar observation.
    fn record(&self, name: &str, value: f64);

    /// Record one named small-integer observation (a width, a depth, a count). A sink
    /// may keep these as counts and read them back in ascending order
    /// ([`MetricRegistry::record_count`]); by default it is [`record`](Self::record)ed
    /// as an `f64`.
    fn record_count(&self, name: &str, value: u64) {
        self.record(name, value as f64);
    }
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
    fn a_closure_sink_keeps_integer_records_exact_and_in_order() {
        let seen = Arc::new(MetricRegistry::new());
        let seen2 = Arc::clone(&seen);
        let sink: SharedScalarSink =
            Arc::new(move |name: &str, value: f64| seen2.record(name, value));
        for depth in [3, 1, 2, 1] {
            sink.record_count("comm.queue.depth", depth);
        }
        assert_eq!(seen.values("comm.queue.depth"), [3.0, 1.0, 2.0, 1.0]);
    }

    #[test]
    fn a_counted_series_reads_back_every_value_once_in_ascending_order() {
        let m = Arc::new(MetricRegistry::new());
        let threads = 2 * STRIPES;
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for i in 0..100 {
                        m.record_count("width", (t * 7 + i) % 13);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.record("width", 0.5);
        let mut recorded: Vec<f64> = (0..threads as u64)
            .flat_map(|t| (0..100).map(move |i| ((t * 7 + i) % 13) as f64))
            .collect();
        recorded.sort_by(f64::total_cmp);
        let values = m.values("width");
        assert_eq!(values.len(), threads * 100 + 1);
        assert_eq!(values[0], 0.5, "recorded values come first");
        assert_eq!(values[1..], recorded[..], "every count once, ascending");
        assert_eq!(m.total_count(), threads * 100 + 1);
        assert_eq!(m.names(), ["width"]);
        m.clear();
        assert_eq!(m.total_count(), 0);
        assert!(m.values("width").is_empty());
    }

    #[test]
    fn a_counted_series_keeps_one_entry_per_distinct_value() {
        let m = MetricRegistry::new();
        for i in 0..1_000_000u64 {
            m.record_count("serving.batch.size", i % 16);
        }
        let stripe = m.series.local();
        let counts = &stripe.counts["serving.batch.size"];
        assert_eq!(counts.table.len(), 16);
        assert_eq!(counts.len(), 1_000_000);
        drop(stripe);
        let values = m.values("serving.batch.size");
        assert_eq!(values.len(), 1_000_000);
        assert!(values.windows(2).all(|pair| pair[0] <= pair[1]));
        assert_eq!(
            values.iter().sum::<f64>(),
            62_500.0 * (0..16).sum::<u64>() as f64
        );
    }

    #[test]
    fn blocks_keep_order_and_never_move_what_they_hold() {
        let mut blocks = Blocks::default();
        assert!(blocks.is_empty());
        blocks.push(0u64);
        let first = blocks.iter().next().unwrap() as *const u64;
        for i in 1..20_000u64 {
            blocks.push(i);
        }
        assert_eq!(blocks.len(), 20_000);
        assert!(blocks.iter().copied().eq(0..20_000));
        assert_eq!(
            blocks.iter().next().unwrap() as *const u64,
            first,
            "the first block is where it was 19 999 appends ago"
        );
        let room: usize = blocks.blocks.iter().map(Vec::capacity).sum();
        assert!(
            room - blocks.len() <= Blocks::<u64>::LARGEST_BLOCK,
            "at most one block of slack: room for {room}"
        );
    }

    #[test]
    fn each_thread_reads_back_its_own_records_in_order() {
        // More threads than stripes, so some share one: order within a thread holds
        // either way, and nothing is lost or counted twice.
        let m = Arc::new(MetricRegistry::new());
        let r = Arc::new(BreakdownRecorder::new());
        let threads = 2 * STRIPES;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (m, r) = (Arc::clone(&m), Arc::clone(&r));
                thread::spawn(move || {
                    for i in 0..500 {
                        m.record("x", (t * 1000 + i) as f64);
                        if i % 100 == 0 {
                            r.record(ComponentSample::new(format!("t{t}")).with("i", i as f64));
                        }
                    }
                    m.record(if t % 2 == 0 { "even" } else { "odd" }, t as f64);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let values = m.values("x");
        assert_eq!(values.len(), threads * 500);
        for t in 0..threads {
            let mine: Vec<f64> = values
                .iter()
                .copied()
                .filter(|v| (*v as usize) / 1000 == t)
                .collect();
            let expected: Vec<f64> = (0..500).map(|i| (t * 1000 + i) as f64).collect();
            assert_eq!(mine, expected, "thread {t}");
        }
        assert_eq!(m.names(), ["even", "odd", "x"]);
        assert_eq!(m.total_count(), threads * 501);
        assert_eq!(m.values("even").len(), threads / 2);
        assert_eq!(r.len(), threads * 5);
        for t in 0..threads {
            let mine: Vec<f64> = r
                .samples()
                .iter()
                .filter(|s| s.entity == format!("t{t}"))
                .map(|s| s.component("i").unwrap())
                .collect();
            assert_eq!(mine, [0.0, 100.0, 200.0, 300.0, 400.0], "thread {t}");
        }
        assert_eq!(r.component_summaries()["i"].count, threads * 5);
        assert_eq!(r.drain().len(), threads * 5);
        assert!(r.is_empty());
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
