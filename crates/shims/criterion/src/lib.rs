//! Offline shim for the `criterion` surface used by this workspace's benches.
//!
//! Implements a compact timing harness behind criterion's API: warm-up, then timed
//! batches until the measurement budget is spent, reporting the median per-iteration
//! time. No statistical regression machinery — the workspace benches compare orders of
//! magnitude (e.g. allocation latency across node counts), for which median ns/iter is
//! plenty. Output format: `name  time: [median ns/iter]  iters: N`.
//!
//! As with criterion, the first argument after `--` that is not a flag filters the
//! benches by name: `cargo bench --bench runtime_hotpaths -- metrics` runs only those
//! whose name contains `metrics`.

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Run one benchmark function.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(name, self.sample_size, self.measurement_time, f);
        self
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            _parent: self,
        }
    }
}

/// A named group sharing sample-size/measurement-time configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Set the total measurement budget per benchmark.
    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    /// Benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_bench(
            &format!("{}/{}", self.name, id.0),
            self.sample_size,
            self.measurement_time,
            f,
        );
        self
    }

    /// Benchmark parameterised by an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_bench(
            &format!("{}/{}", self.name, id.0),
            self.sample_size,
            self.measurement_time,
            |b| f(b, input),
        );
        self
    }

    /// Finish the group (no-op; reports are printed eagerly).
    pub fn finish(self) {}
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Identifier `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Timer handle passed to each benchmark closure.
pub struct Bencher {
    /// Measured per-iteration durations (one per sample).
    samples: Vec<f64>,
    sample_size: usize,
    measurement_time: Duration,
}

impl Bencher {
    /// Time `f`, batching iterations so that per-call overhead amortises away.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and batch sizing: grow the batch until one batch costs >= ~1 ms.
        let mut batch = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 4;
        }
        let deadline = Instant::now() + self.measurement_time;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.samples
                .push(start.elapsed().as_secs_f64() / batch as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

/// The name filter of this run: the first command-line argument that is not a flag.
fn filter() -> Option<&'static str> {
    static FILTER: OnceLock<Option<String>> = OnceLock::new();
    FILTER
        .get_or_init(|| std::env::args().skip(1).find(|arg| !arg.starts_with('-')))
        .as_deref()
}

/// Whether the bench `name` runs under `filter`: every bench when there is none.
fn selected(filter: Option<&str>, name: &str) -> bool {
    filter.is_none_or(|filter| name.contains(filter))
}

fn run_bench<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_size: usize,
    measurement_time: Duration,
    mut f: F,
) {
    if !selected(filter(), name) {
        return;
    }
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size,
        measurement_time,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{name:<48} time: [no samples]");
        return;
    }
    b.samples.sort_by(|a, x| a.partial_cmp(x).unwrap());
    let median = b.samples[b.samples.len() / 2];
    let (scaled, unit) = if median < 1e-6 {
        (median * 1e9, "ns")
    } else if median < 1e-3 {
        (median * 1e6, "µs")
    } else {
        (median * 1e3, "ms")
    };
    println!(
        "{name:<48} time: [{scaled:9.2} {unit}/iter]  samples: {}",
        b.samples.len()
    );
}

/// Bundle benchmark functions under one group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes harness flags (e.g. `--bench`), which are ignored;
            // a name filter is read where each bench runs.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.measurement_time(Duration::from_millis(20));
        let mut count = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(7), &7u64, |b, &x| {
            b.iter(|| {
                count = count.wrapping_add(x);
                count
            })
        });
        group.finish();
        assert!(count > 0);
    }

    #[test]
    fn a_filter_selects_the_benches_whose_name_contains_it() {
        assert!(
            selected(None, "metrics/record_count/16"),
            "no filter: every bench"
        );
        assert!(selected(Some("metrics"), "metrics/record_count/16"));
        assert!(selected(Some("record_count/1"), "metrics/record_count/16"));
        assert!(!selected(Some("metrics"), "scheduler/allocate_release/4"));
        assert!(
            !selected(Some("Metrics"), "metrics/record_scalar/1"),
            "case matters"
        );
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("alloc", 256).0, "alloc/256");
        assert_eq!(BenchmarkId::from_parameter("local").0, "local");
    }
}
