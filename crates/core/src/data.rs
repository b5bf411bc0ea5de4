//! Data manager and stagers.
//!
//! The architecture collects RADICAL-Pilot's data capabilities into a `DataManager`
//! (paper Fig. 2): before a task executes, its input directives are staged to the
//! execution sandbox; after it finishes, outputs are staged back. The LUCID pipelines
//! move anything from kilobyte CSV files to the 1.6 TB cell-painting image set (via
//! Globus), so staging durations are modelled from dataset size, a per-transfer setup
//! latency and a bandwidth that depends on whether the endpoint is platform-local or
//! remote.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use hpcml_sim::clock::SharedClock;
use hpcml_sim::dist::Dist;

use crate::describe::DataDirective;
use crate::metrics::RuntimeMetrics;

/// Transfer performance model for one class of endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferProfile {
    /// Sustained bandwidth, MiB per second.
    pub bandwidth_mib_s: f64,
    /// Per-transfer setup latency, seconds.
    pub setup_secs: Dist,
}

impl TransferProfile {
    /// Platform-local staging (parallel filesystem): ~1 GiB/s, negligible setup.
    pub fn local_fs() -> Self {
        TransferProfile {
            bandwidth_mib_s: 1024.0,
            setup_secs: Dist::normal(0.02, 0.005),
        }
    }

    /// Wide-area transfer (Globus-class): ~200 MiB/s with a few seconds of setup.
    pub fn wide_area() -> Self {
        TransferProfile {
            bandwidth_mib_s: 200.0,
            setup_secs: Dist::normal(3.0, 0.5),
        }
    }

    /// Expected transfer duration for `size_mib`.
    pub fn mean_secs(&self, size_mib: f64) -> f64 {
        self.setup_secs.mean() + size_mib / self.bandwidth_mib_s
    }
}

/// The data manager: executes staging directives on the virtual clock.
pub struct DataManager {
    clock: SharedClock,
    local: TransferProfile,
    remote: TransferProfile,
    rng: Mutex<StdRng>,
    metrics: Arc<RuntimeMetrics>,
}

impl std::fmt::Debug for DataManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataManager")
            .field("local_bw", &self.local.bandwidth_mib_s)
            .field("remote_bw", &self.remote.bandwidth_mib_s)
            .finish()
    }
}

impl DataManager {
    /// Create a data manager with default transfer profiles.
    pub fn new(clock: SharedClock, metrics: Arc<RuntimeMetrics>, seed: u64) -> Self {
        DataManager {
            clock,
            local: TransferProfile::local_fs(),
            remote: TransferProfile::wide_area(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            metrics,
        }
    }

    /// Override the transfer profiles.
    pub fn with_profiles(mut self, local: TransferProfile, remote: TransferProfile) -> Self {
        self.local = local;
        self.remote = remote;
        self
    }

    /// Sample how many (virtual) seconds transferring `directive` takes, without
    /// spending them: the non-blocking half of [`DataManager::stage`], for callers
    /// that wait on a timer instead of a sleeping thread and then call
    /// [`DataManager::record_transfer`].
    pub fn transfer_secs(&self, directive: &DataDirective) -> f64 {
        let profile = if directive.remote {
            self.remote
        } else {
            self.local
        };
        let setup = {
            let mut rng = self.rng.lock();
            profile.setup_secs.sample(&mut *rng).max(0.0)
        };
        setup + directive.size_mib.max(0.0) / profile.bandwidth_mib_s
    }

    /// Record a finished transfer of `directive` that took `secs`.
    pub fn record_transfer(&self, directive: &DataDirective, secs: f64) {
        self.metrics.record_scalar("staging.secs", secs);
        self.metrics
            .record_scalar("staging.mib", directive.size_mib);
    }

    /// Stage one directive; returns the (virtual) seconds spent.
    pub fn stage(&self, directive: &DataDirective) -> f64 {
        let secs = self.transfer_secs(directive);
        self.clock.sleep(std::time::Duration::from_secs_f64(secs));
        self.record_transfer(directive, secs);
        secs
    }

    /// Stage a set of directives sequentially; returns the total seconds spent.
    pub fn stage_all(&self, directives: &[DataDirective]) -> f64 {
        directives.iter().map(|d| self.stage(d)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_sim::clock::ClockSpec;

    fn manager(scale: f64) -> (SharedClock, DataManager) {
        let clock = ClockSpec::scaled(scale).build();
        let metrics = RuntimeMetrics::new();
        (Arc::clone(&clock), DataManager::new(clock, metrics, 5))
    }

    #[test]
    fn local_staging_is_fast() {
        let (clock, dm) = manager(10_000.0);
        let t0 = clock.now();
        let secs = dm.stage(&DataDirective::local("features.csv", 100.0));
        assert!(
            secs < 1.0,
            "100 MiB local should stage in well under a second, got {secs}"
        );
        assert!(clock.now().since(t0).as_secs_f64() >= secs * 0.5);
    }

    #[test]
    fn remote_staging_includes_setup_and_bandwidth() {
        let (_clock, dm) = manager(100_000.0);
        let secs = dm.stage(&DataDirective::remote("vcf-sample", 300.0));
        // ~3 s setup + 1.5 s transfer.
        assert!(secs > 2.0 && secs < 10.0, "remote 300 MiB took {secs}");
    }

    #[test]
    fn large_remote_dataset_scales_with_size() {
        let (_clock, dm) = manager(1_000_000.0);
        let small = dm.stage(&DataDirective::remote("a", 1_000.0));
        let large = dm.stage(&DataDirective::remote("b", 100_000.0));
        assert!(large > 10.0 * small, "large {large} vs small {small}");
    }

    #[test]
    fn stage_all_sums_and_records_metrics() {
        let clock = ClockSpec::scaled(100_000.0).build();
        let metrics = RuntimeMetrics::new();
        let dm = DataManager::new(clock, Arc::clone(&metrics), 6);
        let total = dm.stage_all(&[
            DataDirective::local("x", 10.0),
            DataDirective::local("y", 20.0),
        ]);
        assert!(total > 0.0);
        assert_eq!(metrics.scalar_values("staging.secs").len(), 2);
        assert!((metrics.scalar_summary("staging.mib").mean - 15.0).abs() < 1e-9);
        assert!(!format!("{dm:?}").is_empty());
    }

    #[test]
    fn empty_directive_costs_only_setup() {
        let (_clock, dm) = manager(100_000.0);
        let secs = dm.stage(&DataDirective::local("empty", 0.0));
        assert!(secs < 0.1);
    }

    #[test]
    fn profile_means() {
        assert!(
            TransferProfile::wide_area().mean_secs(200.0)
                > TransferProfile::local_fs().mean_secs(200.0)
        );
    }
}
