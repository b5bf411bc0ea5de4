//! The serving plane's configuration.
//!
//! A replica runs up to `max_batch_size` requests on its backend at once: a request
//! dispatched to it joins the running batch there and then, and leaves it when its own
//! time is up (see [`crate::pool`]). Only requests beyond the cap wait. Nothing waits
//! for company, so a batch is as wide as load makes it.

use serde::{Deserialize, Serialize};

use crate::backend::CALIBRATED_BATCH_SIZE;

/// Configuration of one service instance's serving plane. The defaults are one replica
/// that runs up to [`CALIBRATED_BATCH_SIZE`] requests at once; `max_batch_size(1)` is
/// the paper's service, one request at a time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Number of `ModelHost` replicas behind the endpoint.
    pub replicas: usize,
    /// Maximum requests a replica runs on its backend at once.
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

    /// Maximum batch size (clamped to at least 1; 1 = one request at a time).
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
}
