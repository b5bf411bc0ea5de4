//! Continuous micro-batching: the per-model batch assembler and its configuration.
//!
//! Requests admitted by the serving front-end queue into a [`BatchAssembler`]; a batch
//! dispatches as soon as `max_batch_size` entries are waiting **or** the oldest entry
//! has waited `batch_latency_budget_secs` on the virtual clock — whichever comes first.
//! Under load batches fill instantly (throughput mode); under light traffic a request
//! waits at most the latency budget before dispatching in a small batch (latency
//! mode). The assembler is a plain FIFO owned by the service's front-end run — one
//! pass at a time, on whichever thread holds the run — so it needs no lock of its own:
//! arrival order in equals dispatch order out, which is what preserves per-client FIFO
//! end to end.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Configuration of one service instance's serving plane.
///
/// The defaults (`replicas = 1`, `max_batch_size = 1`) reproduce the seed-era
/// one-request-one-backend-call behaviour exactly — batching and replication are
/// opt-in per service, mirroring the `allocator_shards = 1` legacy escape hatch of the
/// sharded allocator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Number of `ModelHost` replicas behind the endpoint.
    pub replicas: usize,
    /// Maximum requests dispatched to a replica in one batch.
    pub max_batch_size: usize,
    /// Virtual seconds a request may wait in the assembler before a partial batch is
    /// dispatched anyway.
    pub batch_latency_budget_secs: f64,
    /// Bound on the assembler queue; requests beyond it are shed with a retry-after.
    pub queue_capacity: usize,
    /// Whether deadline-aware admission control is active: requests carrying a
    /// deadline header are shed when the estimated queue delay exceeds it.
    pub shed_deadlines: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            replicas: 1,
            max_batch_size: 1,
            batch_latency_budget_secs: 0.02,
            queue_capacity: 4096,
            shed_deadlines: true,
        }
    }
}

impl ServingConfig {
    /// Number of replicas (clamped to at least 1).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Maximum batch size (clamped to at least 1; 1 = unbatched legacy dispatch).
    pub fn max_batch_size(mut self, n: usize) -> Self {
        self.max_batch_size = n.max(1);
        self
    }

    /// Batch latency budget in virtual seconds.
    pub fn batch_latency_budget_secs(mut self, secs: f64) -> Self {
        self.batch_latency_budget_secs = secs.max(0.0);
        self
    }

    /// Assembler queue bound.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Enable or disable deadline-aware shedding.
    pub fn shed_deadlines(mut self, shed: bool) -> Self {
        self.shed_deadlines = shed;
        self
    }
}

/// One entry popped from the assembler, with the virtual time it arrived.
#[derive(Debug)]
pub struct Dispatch<T> {
    /// The queued item.
    pub item: T,
    /// Virtual time (seconds) the item entered the assembler.
    pub arrival_secs: f64,
}

struct Pending<T> {
    item: T,
    arrival_secs: f64,
}

/// FIFO batch assembler dispatching on size or latency-budget expiry.
pub struct BatchAssembler<T> {
    queue: VecDeque<Pending<T>>,
    max_batch_size: usize,
    budget_secs: f64,
}

impl<T> BatchAssembler<T> {
    /// Create an assembler with the given dispatch thresholds.
    pub fn new(max_batch_size: usize, budget_secs: f64) -> Self {
        BatchAssembler {
            queue: VecDeque::new(),
            max_batch_size: max_batch_size.max(1),
            budget_secs: budget_secs.max(0.0),
        }
    }

    /// Queue one item that arrived at `arrival_secs` (virtual).
    pub fn push(&mut self, item: T, arrival_secs: f64) {
        self.queue.push_back(Pending { item, arrival_secs });
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the assembler is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arrival time of the oldest queued item.
    pub fn oldest_arrival_secs(&self) -> Option<f64> {
        self.queue.front().map(|p| p.arrival_secs)
    }

    /// Virtual seconds until the oldest entry's budget expires (`<= 0` means a batch
    /// is already due). `None` when the assembler is empty or a full batch is waiting
    /// (due immediately).
    pub fn secs_until_due(&self, now_secs: f64) -> Option<f64> {
        if self.queue.len() >= self.max_batch_size {
            return Some(0.0);
        }
        self.queue
            .front()
            .map(|p| (p.arrival_secs + self.budget_secs) - now_secs)
    }

    /// Pop the next ready batch, oldest first:
    ///
    /// * a full batch (`max_batch_size` entries) dispatches immediately;
    /// * otherwise a partial batch dispatches once the oldest entry has aged past the
    ///   latency budget, or when `force` is set (the flush when a service stops).
    ///
    /// Returns `None` when nothing is due yet.
    pub fn take_ready(&mut self, now_secs: f64, force: bool) -> Option<Vec<Dispatch<T>>> {
        if self.queue.is_empty() {
            return None;
        }
        let full = self.queue.len() >= self.max_batch_size;
        let expired = self
            .queue
            .front()
            .map(|p| now_secs - p.arrival_secs >= self.budget_secs)
            .unwrap_or(false);
        if !(full || expired || force) {
            return None;
        }
        let n = self.queue.len().min(self.max_batch_size);
        Some(
            self.queue
                .drain(..n)
                .map(|p| Dispatch {
                    item: p.item,
                    arrival_secs: p.arrival_secs,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn config_defaults_are_exact_legacy() {
        let c = ServingConfig::default();
        assert_eq!(c.replicas, 1);
        assert_eq!(c.max_batch_size, 1);
        assert!(c.shed_deadlines);
        let c = c.replicas(0).max_batch_size(0).queue_capacity(0);
        assert_eq!((c.replicas, c.max_batch_size, c.queue_capacity), (1, 1, 1));
    }

    #[test]
    fn full_batch_dispatches_immediately() {
        let mut a = BatchAssembler::new(3, 10.0);
        for i in 0..7 {
            a.push(i, 0.0);
        }
        // Size trumps budget: three full batches pop with no time elapsed at all.
        let b1 = a.take_ready(0.0, false).unwrap();
        let b2 = a.take_ready(0.0, false).unwrap();
        assert_eq!(b1.iter().map(|d| d.item).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(b2.iter().map(|d| d.item).collect::<Vec<_>>(), vec![3, 4, 5]);
        // One entry left: below max size and budget not expired -> not due.
        assert!(a.take_ready(0.0, false).is_none());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn partial_batch_waits_for_the_budget() {
        let mut a = BatchAssembler::new(8, 0.5);
        a.push("r1", 1.0);
        a.push("r2", 1.2);
        assert!(a.take_ready(1.3, false).is_none(), "budget not expired");
        let due = a.secs_until_due(1.3).unwrap();
        assert!(
            (due - 0.2).abs() < 1e-9,
            "oldest entry due in 0.2s, got {due}"
        );
        let batch = a.take_ready(1.5, false).unwrap();
        assert_eq!(batch.len(), 2, "expiry flushes everything waiting (<= max)");
        assert!(a.is_empty());
    }

    #[test]
    fn force_flushes_regardless_of_thresholds() {
        let mut a = BatchAssembler::new(8, 100.0);
        a.push(1, 0.0);
        assert!(a.take_ready(0.0, false).is_none());
        assert_eq!(a.take_ready(0.0, true).unwrap().len(), 1);
        assert!(a.take_ready(0.0, true).is_none(), "empty stays empty");
    }

    /// Seeded property: random arrivals and poll times — dispatch preserves FIFO,
    /// never exceeds the latency budget at dispatch-decision time, never dispatches a
    /// partial batch early, and never exceeds the maximum batch size.
    #[test]
    fn seeded_dispatch_property() {
        for seed in [7u64, 1024279, 42] {
            let mut rng = StdRng::seed_from_u64(seed);
            let max_batch = 1 + rng.gen_range(0..8u32) as usize;
            let budget = 0.05 + rng.gen::<f64>() * 0.5;
            let mut a = BatchAssembler::new(max_batch, budget);
            let mut now = 0.0f64;
            let mut next_id = 0u64;
            let mut dispatched: Vec<u64> = Vec::new();
            for _ in 0..500 {
                // Random arrivals...
                for _ in 0..rng.gen_range(0..4u32) {
                    a.push(next_id, now);
                    next_id += 1;
                }
                // ...then a poll after a random virtual delay.
                now += rng.gen::<f64>() * budget * 0.75;
                while let Some(batch) = a.take_ready(now, false) {
                    assert!(batch.len() <= max_batch, "batch over max size");
                    if batch.len() < max_batch {
                        let oldest = batch[0].arrival_secs;
                        assert!(
                            now - oldest >= budget - 1e-9,
                            "partial batch dispatched before budget: waited {}",
                            now - oldest
                        );
                    }
                    for d in batch {
                        dispatched.push(d.item);
                    }
                }
                // Budget invariant: after polling, nothing due is still queued.
                if let Some(oldest) = a.oldest_arrival_secs() {
                    assert!(
                        now - oldest < budget,
                        "expired entry left queued after poll"
                    );
                }
            }
            // FIFO: items (globally ordered by arrival) dispatch in arrival order.
            let mut sorted = dispatched.clone();
            sorted.sort_unstable();
            assert_eq!(dispatched, sorted, "seed {seed}: dispatch reordered FIFO");
        }
    }
}
