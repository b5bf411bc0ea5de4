//! Experiment 1 / Fig. 3: scaling of local service bootstrap time (BT).
//!
//! The paper launches 1, 2, 4, 8, 20, 40, 80, 160, 320 and 640 service instances — each
//! hosting a llama-8b model on one Frontier GPU — and reports the three bootstrap
//! components per instance count: `launch` (flat up to ~160, then growing
//! super-linearly), `init` (model load, dominant and roughly constant), and `publish`
//! (endpoint publication, always below launch).

use std::collections::BTreeMap;
use std::time::Duration;

use hpcml_platform::PlatformId;
use hpcml_runtime::describe::{PilotDescription, ServiceDescription};
use hpcml_runtime::session::Session;
use hpcml_serving::ModelSpec;
use hpcml_sim::clock::ClockSpec;
use hpcml_sim::stats::Summary;

use crate::report::Row;

/// Configuration of one bootstrap-scaling run.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Numbers of concurrent service instances to sweep over.
    pub instance_counts: Vec<usize>,
    /// Clock compression factor.
    pub clock_scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Model hosted by every service instance.
    pub model: ModelSpec,
}

impl BootstrapConfig {
    /// The paper's full sweep (1–640 instances).
    pub fn paper() -> Self {
        BootstrapConfig {
            instance_counts: vec![1, 2, 4, 8, 20, 40, 80, 160, 320, 640],
            clock_scale: 400.0,
            seed: 42,
            model: ModelSpec::sim_llama_8b(),
        }
    }

    /// Reduced sweep used by default so the binary finishes in a few seconds.
    pub fn quick() -> Self {
        BootstrapConfig {
            instance_counts: vec![1, 2, 4, 8, 20, 40],
            clock_scale: 400.0,
            seed: 42,
            model: ModelSpec::sim_llama_8b(),
        }
    }
}

/// Result of one instance-count configuration.
#[derive(Debug, Clone)]
pub struct BootstrapResult {
    /// Number of concurrently bootstrapped services.
    pub instances: usize,
    /// Per-component summaries (`launch`, `init`, `publish`).
    pub components: BTreeMap<String, Summary>,
    /// Summary of total bootstrap time per service.
    pub total: Summary,
}

impl BootstrapResult {
    /// Convert to a printable row.
    pub fn to_row(&self) -> Row {
        Row::new(
            format!("instances={}", self.instances),
            self.components.clone(),
            self.total,
        )
    }
}

/// Bootstrap `instances` llama-8b services concurrently on a Frontier-profile pilot and
/// measure the per-service bootstrap breakdown.
pub fn run_one(instances: usize, config: &BootstrapConfig) -> BootstrapResult {
    let session = Session::builder(format!("exp1-{instances}"))
        .platform(PlatformId::Frontier)
        .clock(ClockSpec::scaled(config.clock_scale))
        .seed(config.seed)
        .build()
        .expect("session");

    // One GPU per service; Frontier nodes expose 8 GPUs, so round the node count up.
    let nodes = instances.div_ceil(8).max(1);
    session
        .submit_pilot(
            PilotDescription::new(PlatformId::Frontier)
                .nodes(nodes)
                .runtime_secs(7200.0),
        )
        .expect("pilot");

    let handles: Vec<_> = (0..instances)
        .map(|i| {
            session
                .submit_service(
                    ServiceDescription::new(format!("llm-{i:04}"))
                        .model(config.model.clone())
                        .gpus(1)
                        .startup_timeout_secs(3600.0),
                )
                .expect("submit service")
        })
        .collect();
    for h in &handles {
        h.wait_ready_timeout(Duration::from_secs(600))
            .expect("service ready");
    }

    let metrics = session.metrics();
    let result = BootstrapResult {
        instances,
        components: metrics.bootstrap_summaries(),
        total: metrics.bootstrap_total_summary(),
    };
    session.close();
    result
}

/// Run the full sweep.
pub fn run_sweep(config: &BootstrapConfig) -> Vec<BootstrapResult> {
    config
        .instance_counts
        .iter()
        .map(|&n| run_one(n, config))
        .collect()
}

/// Configuration of one pilot-resize latency run: how large the pilot starts, by how
/// many nodes each cycle grows and shrinks it, and how many cycles to time.
///
/// Resize latency is a first-order scalability metric for leadership-class pilots
/// (the RADICAL-Pilot characterization reports bootstrap/resize cost alongside
/// utilisation): an elastic pilot is only useful if joining and retiring nodes is
/// cheap next to the workload it rebalances.
#[derive(Debug, Clone)]
pub struct ResizeConfig {
    /// Pilot sizes (in nodes) to sweep over.
    pub node_counts: Vec<usize>,
    /// Nodes added by each expand and retired by each shrink.
    pub delta: usize,
    /// Timed expand+shrink cycles per pilot size.
    pub cycles: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ResizeConfig {
    /// Full sweep across pilot sizes up to leadership scale.
    pub fn paper() -> Self {
        ResizeConfig {
            node_counts: vec![8, 64, 512, 2048],
            delta: 8,
            cycles: 32,
            seed: 42,
        }
    }

    /// Reduced sweep used by default.
    pub fn quick() -> Self {
        ResizeConfig {
            node_counts: vec![8, 64],
            delta: 4,
            cycles: 16,
            seed: 42,
        }
    }
}

/// Result of one resize-latency configuration: real-time seconds per operation.
#[derive(Debug, Clone)]
pub struct ResizeResult {
    /// Pilot size the cycles ran against.
    pub nodes: usize,
    /// Per-cycle `expand(delta)` latency (real seconds).
    pub expand: Summary,
    /// Per-cycle `shrink(delta)` latency (real seconds).
    pub shrink: Summary,
}

impl ResizeResult {
    /// Convert to a printable row.
    pub fn to_row(&self) -> Row {
        let mut components = BTreeMap::new();
        components.insert("expand".to_string(), self.expand);
        components.insert("shrink".to_string(), self.shrink);
        // One "total" cycle = an expand followed by a shrink; summing the
        // per-operation summaries component-wise is the per-cycle bound.
        let total = Summary {
            count: self.expand.count,
            mean: self.expand.mean + self.shrink.mean,
            std_dev: self.expand.std_dev + self.shrink.std_dev,
            min: self.expand.min + self.shrink.min,
            max: self.expand.max + self.shrink.max,
            p50: self.expand.p50 + self.shrink.p50,
            p90: self.expand.p90 + self.shrink.p90,
            p95: self.expand.p95 + self.shrink.p95,
            p99: self.expand.p99 + self.shrink.p99,
        };
        Row::new(format!("nodes={}", self.nodes), components, total)
    }
}

/// Time `cycles` expand+shrink cycles of `delta` nodes against a `nodes`-node
/// Frontier-profile pilot. Latencies are wall-clock: resize is a runtime control
/// operation, not a simulated workload, so real seconds are the honest unit.
pub fn run_resize_one(nodes: usize, config: &ResizeConfig) -> ResizeResult {
    let session = Session::builder(format!("exp1-resize-{nodes}"))
        .platform(PlatformId::Frontier)
        .clock(ClockSpec::scaled(10_000.0))
        .seed(config.seed)
        .build()
        .expect("session");
    let pilot = session
        .submit_pilot(
            PilotDescription::new(PlatformId::Frontier)
                .nodes(nodes)
                .runtime_secs(7200.0),
        )
        .expect("pilot");
    let mut expand = Vec::with_capacity(config.cycles);
    let mut shrink = Vec::with_capacity(config.cycles);
    for _ in 0..config.cycles {
        let t = std::time::Instant::now();
        pilot.resize(nodes + config.delta).expect("expand");
        expand.push(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        pilot.resize(nodes).expect("shrink");
        shrink.push(t.elapsed().as_secs_f64());
    }
    assert_eq!(pilot.attached_nodes(), nodes, "cycles must be size-neutral");
    session.close();
    ResizeResult {
        nodes,
        expand: Summary::from_slice(&expand),
        shrink: Summary::from_slice(&shrink),
    }
}

/// Run the resize-latency sweep.
pub fn run_resize_sweep(config: &ResizeConfig) -> Vec<ResizeResult> {
    config
        .node_counts
        .iter()
        .map(|&n| run_resize_one(n, config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_components_have_paper_shape_at_small_scale() {
        let _serial = crate::serial();
        let config = BootstrapConfig {
            instance_counts: vec![4],
            clock_scale: 2000.0,
            seed: 7,
            model: ModelSpec::sim_llama_8b(),
        };
        let r = run_one(4, &config);
        assert_eq!(r.instances, 4);
        assert_eq!(r.components["init"].count, 4);
        // init dominates launch; publish stays below launch (paper Fig. 3).
        assert!(r.components["init"].mean > r.components["launch"].mean);
        assert!(r.components["publish"].mean < r.components["launch"].mean);
        assert!(r.total.mean >= r.components["init"].mean);
        assert!(!r.to_row().label.is_empty());
    }

    #[test]
    fn resize_cycles_are_size_neutral_and_measured() {
        let _serial = crate::serial();
        let config = ResizeConfig {
            node_counts: vec![4, 16],
            delta: 2,
            cycles: 4,
            seed: 7,
        };
        let results = run_resize_sweep(&config);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.expand.count, 4);
            assert_eq!(r.shrink.count, 4);
            assert!(r.expand.mean > 0.0 && r.shrink.mean > 0.0);
            assert!(r.expand.min <= r.expand.p99 && r.expand.p99 <= r.expand.max);
            let row = r.to_row();
            assert!(row.label.contains("nodes="));
        }
    }

    #[test]
    fn launch_grows_with_concurrency_past_the_knee() {
        let _serial = crate::serial();
        let config = BootstrapConfig {
            instance_counts: vec![8, 320],
            clock_scale: 6000.0,
            seed: 9,
            model: ModelSpec::sim_llama_8b(),
        };
        let small = run_one(8, &config);
        let big = run_one(320, &config);
        assert!(
            big.components["launch"].mean > small.components["launch"].mean * 1.5,
            "launch at 320 ({:.2}s) must exceed launch at 8 ({:.2}s)",
            big.components["launch"].mean,
            small.components["launch"].mean
        );
        // Init stays roughly constant per instance.
        let ratio = big.components["init"].mean / small.components["init"].mean;
        assert!((0.6..1.6).contains(&ratio), "init ratio {ratio}");
    }
}
