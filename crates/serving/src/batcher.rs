//! Batching: the serving plane's configuration and the [`Batch`] a replica begins.
//!
//! Requests batch where they already wait — in the queue of a busy replica (see
//! [`crate::pool`]). A replica that frees takes everything queued behind it, in dispatch
//! order and up to `max_batch_size`, as one backend call; a request that finds its
//! replica idle is begun alone at once. Nothing waits for company: a work-conserving
//! replica never idles while a request waits, so a batch is as large as load makes it.
//!
//! A [`Batch`] is one value whatever its size: a batch of one is the entry itself, where
//! its holder put it (the stack); a larger one is a single allocation.

use serde::{Deserialize, Serialize};

use crate::backend::CALIBRATED_BATCH_SIZE;

/// Configuration of one service instance's serving plane. The defaults are one replica
/// that begins up to [`CALIBRATED_BATCH_SIZE`] waiting requests as one backend call;
/// `max_batch_size(1)` is the paper's service, one request at a time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Number of `ModelHost` replicas behind the endpoint.
    pub replicas: usize,
    /// Maximum requests a replica begins as one backend call.
    pub max_batch_size: usize,
    /// Bound on the requests admitted and not yet answered; requests beyond it are
    /// shed with a retry-after.
    pub queue_capacity: usize,
    /// Whether deadline-aware admission control is active: requests carrying a
    /// deadline header are shed when the estimated queue delay exceeds it.
    pub shed_deadlines: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            replicas: 1,
            max_batch_size: CALIBRATED_BATCH_SIZE,
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

    /// Maximum batch size (clamped to at least 1; 1 = one request per backend call).
    pub fn max_batch_size(mut self, n: usize) -> Self {
        self.max_batch_size = n.max(1);
        self
    }

    /// Bound on admitted, unanswered requests.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_batch_at_the_calibration_point() {
        let c = ServingConfig::default();
        assert_eq!(c.replicas, 1);
        assert_eq!(c.max_batch_size, CALIBRATED_BATCH_SIZE);
        assert_eq!(CALIBRATED_BATCH_SIZE, 8);
        assert!(c.shed_deadlines);
        let c = c.replicas(0).max_batch_size(0).queue_capacity(0);
        assert_eq!((c.replicas, c.max_batch_size, c.queue_capacity), (1, 1, 1));
    }

    #[test]
    fn a_batch_of_one_is_the_entry_itself() {
        let one: Batch<u8> = [7].into_iter().collect();
        assert_eq!(one, Batch::One(7));
        assert_eq!((&one[..], one.len()), (&[7][..], 1));
        assert_eq!(one.into_iter().collect::<Vec<_>>(), [7]);
        let none: Batch<u8> = std::iter::empty().collect();
        assert!(none.is_empty());
        let mut three: Batch<u8> = (1..=3).collect();
        assert_eq!(three, Batch::Many(vec![1, 2, 3]));
        three[0] = 9;
        assert_eq!(three.into_iter().collect::<Vec<_>>(), [9, 2, 3]);
    }
}
