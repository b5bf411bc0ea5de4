//! Continuous micro-batching: the per-model batch assembler and its configuration.
//!
//! Requests admitted by the serving front-end go through a [`BatchAssembler`]; a batch
//! is complete as soon as `max_batch_size` entries are together **or** the oldest entry
//! has waited `batch_latency_budget_secs` on the virtual clock — whichever comes first
//! (throughput mode under load, latency mode under light traffic). The assembler holds
//! only what waits: the push that completes a batch ([`BatchAssembler::push`]) returns
//! it — with `max_batch_size` 1 that is every push, and nothing is ever queued — and
//! only a partial batch stays, for [`BatchAssembler::take_ready`] to hand out when its
//! budget expires. It is a plain FIFO owned by the service's front-end run — one pass
//! at a time — so it needs no lock: arrival order in equals dispatch order out, which
//! is what preserves per-client FIFO end to end.
//!
//! A [`Batch`] is one value whatever its size: a batch of one is the entry itself, where
//! its holder put it (the stack); a larger one is a single allocation.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Configuration of one service instance's serving plane. The defaults (`replicas = 1`,
/// `max_batch_size = 1`) are one request, one backend call; batching and replication
/// are opt-in per service.
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

/// A batch of entries in arrival order, as one value (see the module docs). Batches,
/// the backend's results for them and nothing else travel this way.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch<T> {
    /// A batch of one: no allocation.
    One(T),
    /// Any other number of entries.
    Many(Vec<T>),
}

/// A batch reads and writes as the slice of its entries, in order.
impl<T> std::ops::Deref for Batch<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Batch::One(only) => std::slice::from_ref(only),
            Batch::Many(entries) => entries,
        }
    }
}

impl<T> std::ops::DerefMut for Batch<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Batch::One(only) => std::slice::from_mut(only),
            Batch::Many(entries) => entries,
        }
    }
}

impl<T> FromIterator<T> for Batch<T> {
    fn from_iter<I: IntoIterator<Item = T>>(entries: I) -> Self {
        let mut entries = entries.into_iter();
        match (entries.next(), entries.next()) {
            (Some(only), None) => Batch::One(only),
            (first, second) => {
                Batch::Many(first.into_iter().chain(second).chain(entries).collect())
            }
        }
    }
}

impl<T> IntoIterator for Batch<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            Batch::One(only) => (Some(only), Vec::new()),
            Batch::Many(entries) => (None, entries),
        };
        one.into_iter().chain(many)
    }
}

struct Pending<T> {
    item: T,
    arrival_secs: f64,
}

/// FIFO batch assembler completing batches on size or latency-budget expiry.
pub struct BatchAssembler<T> {
    /// The partial batch: fewer than `max_batch_size` entries, waiting for company.
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

    /// Add one item that arrived at `arrival_secs` (virtual). If it completes a batch
    /// — it is the `max_batch_size`-th together — the batch is returned, oldest first,
    /// and the item was never queued; otherwise it waits.
    pub fn push(&mut self, item: T, arrival_secs: f64) -> Option<Batch<T>> {
        if self.queue.len() + 1 < self.max_batch_size {
            self.queue.push_back(Pending { item, arrival_secs });
            return None;
        }
        let waiting = self.queue.drain(..).map(|p| p.item);
        Some(waiting.chain(Some(item)).collect())
    }

    /// Number of waiting items.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether nothing waits.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arrival time of the oldest waiting item.
    pub fn oldest_arrival_secs(&self) -> Option<f64> {
        self.queue.front().map(|p| p.arrival_secs)
    }

    /// Take the partial batch if it is due: once its oldest entry has aged past the
    /// latency budget, or when `force` is set (the flush when a service stops).
    /// `None` when nothing waits or nothing is due yet.
    pub fn take_ready(&mut self, now_secs: f64, force: bool) -> Option<Batch<T>> {
        let oldest = self.oldest_arrival_secs()?;
        if !(force || now_secs - oldest >= self.budget_secs) {
            return None;
        }
        Some(self.queue.drain(..).map(|p| p.item).collect())
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
    fn the_push_that_fills_a_batch_returns_it_and_queues_nothing() {
        let mut a = BatchAssembler::new(3, 10.0);
        let completed: Vec<Batch<i32>> = (0..7).filter_map(|i| a.push(i, 0.0)).collect();
        // Size trumps budget: two full batches came back with no time elapsed at all,
        // from the pushes of 2 and 5.
        assert_eq!(
            completed,
            [Batch::Many(vec![0, 1, 2]), Batch::Many(vec![3, 4, 5])]
        );
        // One entry left: below max size and budget not expired -> not due.
        assert!(a.take_ready(0.0, false).is_none());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn a_batch_of_one_is_the_entry_itself() {
        let mut a = BatchAssembler::new(1, 10.0);
        assert_eq!(a.push("only", 0.0), Some(Batch::One("only")));
        assert!(
            a.is_empty(),
            "unbatched: every push completes, nothing ever waits"
        );
        let one: Batch<u8> = [7].into_iter().collect();
        assert_eq!((&one[..], one.len()), (&[7][..], 1));
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [7]);
        let none: Batch<u8> = std::iter::empty().collect();
        assert!(none.is_empty());
        let mut three: Batch<u8> = (1..=3).collect();
        three[0] = 9;
        assert_eq!(three.into_iter().collect::<Vec<_>>(), [9, 2, 3]);
    }

    #[test]
    fn partial_batch_waits_for_the_budget() {
        let mut a = BatchAssembler::new(8, 0.5);
        assert!(a.push("r1", 1.0).is_none());
        assert!(a.push("r2", 1.2).is_none());
        assert!(a.take_ready(1.3, false).is_none(), "budget not expired");
        assert_eq!(a.oldest_arrival_secs(), Some(1.0), "due at 1.5");
        let batch = a.take_ready(1.5, false).unwrap();
        assert_eq!(batch.len(), 2, "expiry flushes everything waiting (< max)");
        assert!(a.is_empty());
    }

    #[test]
    fn force_flushes_regardless_of_thresholds() {
        let mut a = BatchAssembler::new(8, 100.0);
        assert!(a.push(1, 0.0).is_none());
        assert!(a.take_ready(0.0, false).is_none());
        assert_eq!(a.take_ready(0.0, true), Some(Batch::One(1)));
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
            // Arrival time by id: ids are handed out in arrival order.
            let mut arrived: Vec<f64> = Vec::new();
            let mut dispatched: Vec<usize> = Vec::new();
            for _ in 0..500 {
                // Random arrivals: a push that fills a batch hands it back full...
                for _ in 0..rng.gen_range(0..4u32) {
                    arrived.push(now);
                    if let Some(batch) = a.push(arrived.len() - 1, now) {
                        assert_eq!(batch.len(), max_batch, "completed by size");
                        dispatched.extend(batch);
                    }
                    assert!(a.len() < max_batch, "a full batch never waits");
                }
                // ...then a poll after a random virtual delay takes what has expired.
                now += rng.gen::<f64>() * budget * 0.75;
                if let Some(batch) = a.take_ready(now, false) {
                    assert!(batch.len() < max_batch, "only a partial batch waits");
                    let oldest = arrived[batch[0]];
                    assert!(
                        now - oldest >= budget - 1e-9,
                        "partial batch dispatched before budget: waited {}",
                        now - oldest
                    );
                    dispatched.extend(batch);
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
            assert!(
                dispatched.windows(2).all(|pair| pair[0] < pair[1]),
                "seed {seed}: dispatch reordered FIFO"
            );
        }
    }
}
