//! Platform catalog: the machines the paper evaluates on, expressed as data.
//!
//! * **OLCF Frontier** — 9,408 nodes, 64-core AMD EPYC, 4× MI250X presenting 8 GCDs
//!   ("GPUs") per node, 512 GiB RAM. Used for Experiment 1 (bootstrap scaling, 640 GPUs).
//! * **NCSA Delta** — A100 GPU partition: 4× A100-40GB per node, 64 cores, 256 GiB.
//!   Used for Experiments 2 and 3 (local services, 256 cores / 16 GPUs per pilot).
//! * **R3** — a cloud-hosted server exposing ML capabilities over REST/ZeroMQ, reached
//!   over a WAN link with ~0.47 ms latency. Used as the remote deployment target.
//!
//! A [`PlatformSpec`] bundles the node shape, node count, launcher kind, and the
//! latency profiles of its interconnect and of the WAN path towards remote platforms.

use crate::launcher::LauncherKind;
use crate::network::LatencyProfile;
use crate::resources::NodeSpec;

/// Identifier of a platform in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// OLCF Frontier (exascale, MI250X GPUs).
    Frontier,
    /// NCSA Delta (A100 GPUs).
    Delta,
    /// R3: remote cloud host serving ML models.
    R3Cloud,
    /// A small local test platform (used by unit tests and the quickstart example).
    Local,
}

impl PlatformId {
    /// Resolve the catalog entry for this platform.
    pub fn spec(self) -> PlatformSpec {
        match self {
            PlatformId::Frontier => PlatformSpec::frontier(),
            PlatformId::Delta => PlatformSpec::delta(),
            PlatformId::R3Cloud => PlatformSpec::r3_cloud(),
            PlatformId::Local => PlatformSpec::local(),
        }
    }

    /// Short lower-case name used in identifiers and hostnames.
    pub fn short_name(self) -> &'static str {
        match self {
            PlatformId::Frontier => "frontier",
            PlatformId::Delta => "delta",
            PlatformId::R3Cloud => "r3",
            PlatformId::Local => "local",
        }
    }
}

impl std::fmt::Display for PlatformId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Full description of a platform: node shape and count, launcher, latency profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Catalog identifier.
    pub id: PlatformId,
    /// Human-readable name.
    pub name: String,
    /// Number of compute nodes available to batch jobs.
    pub num_nodes: usize,
    /// Shape of each node.
    pub node: NodeSpec,
    /// Launcher used to start tasks/services on compute nodes.
    pub launcher: LauncherKind,
    /// Latency of the node-to-node interconnect (same platform).
    pub intra_latency: LatencyProfile,
    /// Latency of the WAN path from a compute node of this platform to a remote
    /// service endpoint (e.g. Delta → R3).
    pub wan_latency: LatencyProfile,
    /// Mean batch-queue wait in seconds for a pilot-sized job (0 for cloud/local).
    pub queue_wait_mean_secs: f64,
    /// True if this "platform" is a persistent remote service host rather than a batch
    /// HPC machine (no pilot allocation or bootstrap needed — paper §IV).
    pub is_remote_service_host: bool,
}

impl PlatformSpec {
    /// OLCF Frontier catalog entry.
    pub fn frontier() -> Self {
        PlatformSpec {
            id: PlatformId::Frontier,
            name: "OLCF Frontier".to_string(),
            num_nodes: 9408,
            // 64 cores, 8 GCDs (4x MI250X), 512 GiB RAM, 64 GiB HBM per GCD.
            node: NodeSpec::new(64, 8, 512.0, 64.0),
            launcher: LauncherKind::MpiPrrte,
            intra_latency: LatencyProfile::hpc_interconnect(),
            wan_latency: LatencyProfile::wan(),
            queue_wait_mean_secs: 120.0,
            is_remote_service_host: false,
        }
    }

    /// NCSA Delta (A100 partition) catalog entry.
    pub fn delta() -> Self {
        PlatformSpec {
            id: PlatformId::Delta,
            name: "NCSA Delta (A100)".to_string(),
            num_nodes: 100,
            node: NodeSpec::new(64, 4, 256.0, 40.0),
            launcher: LauncherKind::MpiPrrte,
            // Paper-measured inter-node latency on Delta: 0.063 ms +/- 0.014 ms.
            intra_latency: LatencyProfile::paper_local(),
            // Paper-measured node-to-node latency towards R3: 0.47 ms +/- 0.04 ms.
            wan_latency: LatencyProfile::paper_remote(),
            queue_wait_mean_secs: 60.0,
            is_remote_service_host: false,
        }
    }

    /// R3 cloud service host catalog entry.
    pub fn r3_cloud() -> Self {
        PlatformSpec {
            id: PlatformId::R3Cloud,
            name: "R3 cloud service host".to_string(),
            num_nodes: 4,
            node: NodeSpec::new(32, 8, 256.0, 40.0),
            launcher: LauncherKind::Fork,
            intra_latency: LatencyProfile::datacenter(),
            wan_latency: LatencyProfile::paper_remote(),
            queue_wait_mean_secs: 0.0,
            is_remote_service_host: true,
        }
    }

    /// Small local platform for tests and examples (2 nodes, 8 cores, 2 GPUs each).
    pub fn local() -> Self {
        PlatformSpec {
            id: PlatformId::Local,
            name: "local test platform".to_string(),
            num_nodes: 2,
            node: NodeSpec::new(8, 2, 64.0, 16.0),
            launcher: LauncherKind::Fork,
            intra_latency: LatencyProfile::loopback(),
            wan_latency: LatencyProfile::paper_remote(),
            queue_wait_mean_secs: 0.0,
            is_remote_service_host: false,
        }
    }

    /// Total GPUs across the platform.
    pub fn total_gpus(&self) -> u64 {
        self.num_nodes as u64 * self.node.gpus as u64
    }

    /// Total cores across the platform.
    pub fn total_cores(&self) -> u64 {
        self.num_nodes as u64 * self.node.cores as u64
    }

    /// Synthetic hostname of node `index`.
    pub fn node_name(&self, index: usize) -> String {
        format!("{}-{:05}", self.id.short_name(), index)
    }

    /// Override the number of nodes (used to build right-sized pilots in tests).
    pub fn with_num_nodes(mut self, n: usize) -> Self {
        self.num_nodes = n;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_entries_have_expected_shapes() {
        let f = PlatformSpec::frontier();
        assert_eq!(f.node.gpus, 8);
        assert_eq!(f.node.cores, 64);
        assert_eq!(f.num_nodes, 9408);
        assert_eq!(f.launcher, LauncherKind::MpiPrrte);
        assert!(
            f.total_gpus() >= 640,
            "Frontier must fit experiment 1's 640 GPUs"
        );

        let d = PlatformSpec::delta();
        assert_eq!(d.node.gpus, 4);
        // Experiment 2/3 pilots: 256 cores, 16 GPUs → 4 Delta nodes.
        assert!(d.total_cores() >= 256);
        assert!(d.total_gpus() >= 16);

        let r = PlatformSpec::r3_cloud();
        assert!(r.is_remote_service_host);
        assert_eq!(r.queue_wait_mean_secs, 0.0);

        let l = PlatformSpec::local();
        assert_eq!(l.num_nodes, 2);
    }

    #[test]
    fn platform_id_roundtrip() {
        for id in [
            PlatformId::Frontier,
            PlatformId::Delta,
            PlatformId::R3Cloud,
            PlatformId::Local,
        ] {
            assert_eq!(id.spec().id, id);
            assert!(!id.short_name().is_empty());
            assert_eq!(format!("{id}"), id.short_name());
        }
    }

    #[test]
    fn node_name_carries_the_index() {
        let d = PlatformSpec::delta();
        assert_eq!(d.node_name(3), "delta-00003");
        assert_ne!(d.node_name(1), d.node_name(2));
    }

    #[test]
    fn with_num_nodes_overrides() {
        let f = PlatformSpec::frontier().with_num_nodes(80);
        assert_eq!(f.num_nodes, 80);
        assert_eq!(f.total_gpus(), 640);
    }

    #[test]
    fn paper_latency_profiles_are_wired() {
        let d = PlatformSpec::delta();
        // Local: 0.063 ms mean; remote: 0.47 ms mean (paper §IV-C).
        assert!((d.intra_latency.mean_ms() - 0.063).abs() < 1e-9);
        assert!((d.wan_latency.mean_ms() - 0.47).abs() < 1e-9);
    }
}
