//! Process-wide unique, human-readable identifiers.
//!
//! Pilot runtimes name their entities with stable, sortable identifiers such as
//! `task.000042` or `pilot.0001`; log lines and metric records refer to entities by these
//! names. This module provides the generator for that scheme: a relaxed counter per
//! namespace for the ones drawn per task and per request, a map behind a mutex for
//! the rest.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::pool::OwnLine;

static GLOBAL: IdGenerator = IdGenerator::new();

/// The namespaces the runtime draws from on its hot paths (one id per request, per
/// task): each has a counter of its own, found without a lock.
const HOT_NAMESPACES: [&str; 2] = ["request", "task"];

/// Generates monotonically increasing identifiers per namespace.
pub struct IdGenerator {
    /// One counter per entry of [`HOT_NAMESPACES`], on a cache line of its own so
    /// that tasks and requests numbered at the same time do not share one.
    hot: [OwnLine<AtomicU64>; HOT_NAMESPACES.len()],
    /// Every other namespace, created on first use.
    counters: Mutex<BTreeMap<String, u64>>,
    /// The message uid, drawn twice per request by every client: a line of its own
    /// too, away from the `counters` mutex.
    fallback: OwnLine<AtomicU64>,
}

impl IdGenerator {
    /// Create an empty generator (used for the global instance and for tests).
    pub const fn new() -> Self {
        IdGenerator {
            hot: [const { OwnLine(AtomicU64::new(0)) }; HOT_NAMESPACES.len()],
            counters: Mutex::new(BTreeMap::new()),
            fallback: OwnLine(AtomicU64::new(0)),
        }
    }

    /// Next numeric index within `namespace` (starts at 0).
    pub fn next_index(&self, namespace: &str) -> u64 {
        if let Some(hot) = HOT_NAMESPACES.iter().position(|ns| *ns == namespace) {
            return self.hot[hot].fetch_add(1, Ordering::Relaxed);
        }
        let mut map = self.counters.lock();
        if let Some(counter) = map.get_mut(namespace) {
            let v = *counter;
            *counter += 1;
            return v;
        }
        // Only a namespace's first call copies its name.
        map.insert(namespace.to_string(), 1);
        0
    }

    /// Next formatted identifier, e.g. `next_id("task")` → `"task.000007"`.
    pub fn next_id(&self, namespace: &str) -> String {
        format_id(namespace, self.next_index(namespace))
    }

    /// A unique integer with no namespace (monotonic across the whole process).
    pub fn next_uid(&self) -> u64 {
        self.fallback.fetch_add(1, Ordering::Relaxed)
    }
}

/// The identifier [`IdGenerator::next_id`] makes of an index: `("task", 7)` →
/// `"task.000007"`. For stores that keep the index and render the name on read.
pub fn format_id(namespace: &str, index: u64) -> String {
    // Sized up front: `format!` sizes for the literal `.` alone and grows once.
    let mut id = String::with_capacity(namespace.len() + 7);
    write_id(&mut id, namespace, index);
    id
}

/// The index [`format_id`] made `id` of within `namespace`, if `id` is such an
/// identifier: `("task", "task.000007")` → `Some(7)`, `("task", "task.1234567")` →
/// `Some(1_234_567)`; `"task.7"`, `"task.0000007"` and `"service.000007"` are no task
/// identifier, so each index has one name.
pub fn parse_id(namespace: &str, id: &str) -> Option<u64> {
    let digits = id.strip_prefix(namespace)?.strip_prefix('.')?;
    let padded = digits.len() == 6 || (digits.len() > 6 && !digits.starts_with('0'));
    if !padded || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Append the identifier [`format_id`] returns to `id`: for a caller that keeps one
/// buffer and renames what is in it.
pub fn write_id(id: &mut String, namespace: &str, index: u64) {
    write!(id, "{namespace}.{index:06}").expect("writing to a String cannot fail");
}

impl Default for IdGenerator {
    fn default() -> Self {
        Self::new()
    }
}

/// Next formatted identifier from the process-global generator.
pub fn next_id(namespace: &str) -> String {
    GLOBAL.next_id(namespace)
}

/// Next numeric index from the process-global generator.
pub fn next_index(namespace: &str) -> u64 {
    GLOBAL.next_index(namespace)
}

/// A process-globally unique integer.
pub fn next_uid() -> u64 {
    GLOBAL.next_uid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ids_are_sequential_per_namespace() {
        let g = IdGenerator::new();
        assert_eq!(g.next_id("task"), "task.000000");
        assert_eq!(g.next_id("task"), "task.000001");
        assert_eq!(g.next_id("pilot"), "pilot.000000");
        assert_eq!(g.next_id("task"), "task.000002");
    }

    #[test]
    fn global_ids_are_unique_across_threads() {
        let g = Arc::new(IdGenerator::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(thread::spawn(move || {
                (0..250).map(|_| g.next_id("x")).collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(seen.insert(id), "duplicate identifier generated");
            }
        }
        assert_eq!(seen.len(), 2000);
    }

    #[test]
    fn hot_and_other_namespaces_count_apart_and_format_alike() {
        let g = IdGenerator::new();
        assert_eq!(g.next_index("request"), 0);
        assert_eq!(
            g.next_index("requests"),
            0,
            "a name of its own, not a prefix"
        );
        assert_eq!(g.next_index("request"), 1);
        assert_eq!(g.next_id("request"), format_id("request", 2));
        assert_eq!(format_id("request", 1_234_567), "request.1234567");
    }

    #[test]
    fn parse_id_reads_back_exactly_what_format_id_writes() {
        for index in [0, 7, 999_999, 1_000_000, 1_234_567, u64::MAX] {
            assert_eq!(parse_id("task", &format_id("task", index)), Some(index));
        }
        for other in [
            "task.7",
            "task.0000007",
            "task.-00001",
            "task.00000a",
            "task000007",
            "tasks.000007",
            "service.000007",
            "task.99999999999999999999",
        ] {
            assert_eq!(parse_id("task", other), None, "{other}");
        }
    }

    #[test]
    fn uid_is_monotonic() {
        let g = IdGenerator::new();
        let a = g.next_uid();
        let b = g.next_uid();
        assert!(b > a);
    }

    #[test]
    fn global_helpers_work() {
        let a = next_id("unit-test-ns");
        let b = next_id("unit-test-ns");
        assert_ne!(a, b);
        assert!(a.starts_with("unit-test-ns."));
        let _ = next_index("unit-test-ns2");
        let u1 = next_uid();
        let u2 = next_uid();
        assert!(u2 > u1);
    }
}
