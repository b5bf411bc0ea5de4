//! Experiment 2 / Figs. 4–5: strong and weak scaling of service response time (RT).
//!
//! A Delta-profile pilot hosts NOOP services (local scenario) or talks to NOOP services
//! hosted on the R3 cloud platform (remote scenario). A set of client tasks each send a
//! fixed number of inference requests; the response time of every request is decomposed
//! into `communication`, `service` and `inference`. The paper sweeps:
//!
//! * strong scaling — 16 clients against 1, 2, 4, 8, 16 services;
//! * weak scaling — N clients against N services for N in 1, 2, 4, 8, 16.
//!
//! This module is also reused by experiment 3 (same topology, llama-8b model instead of
//! NOOP, so inference dominates instead of communication).

use std::collections::BTreeMap;
use std::time::Duration;

use hpcml_platform::PlatformId;
use hpcml_runtime::describe::{PilotDescription, ServiceDescription, TaskDescription, TaskKind};
use hpcml_runtime::session::Session;
use hpcml_serving::{ModelSpec, ServingConfig};
use hpcml_sim::clock::ClockSpec;
use hpcml_sim::dist::Dist;
use hpcml_sim::stats::Summary;

use crate::report::Row;

/// Where the services run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Services run on the same Delta pilot as the client tasks.
    Local,
    /// Services run on the remote R3 cloud host.
    Remote,
}

impl Deployment {
    /// Short label used in row names.
    pub fn label(self) -> &'static str {
        match self {
            Deployment::Local => "local",
            Deployment::Remote => "remote",
        }
    }
}

/// Which scaling mode a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Fixed number of clients (16 in the paper), growing number of services.
    Strong,
    /// Clients and services grow together (N/N).
    Weak,
}

/// Configuration of one response/inference-time scaling run.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Service counts to sweep over.
    pub service_counts: Vec<usize>,
    /// Number of clients for strong scaling (the paper uses 16).
    pub strong_clients: usize,
    /// Requests sent by each client.
    pub requests_per_client: u32,
    /// Model hosted by the services.
    pub model: ModelSpec,
    /// Local or remote service deployment.
    pub deployment: Deployment,
    /// Clock compression factor (use < 1 to *dilate* time for sub-millisecond
    /// communication measurements, > 1 to compress long inference runs).
    pub clock_scale: f64,
    /// Generation budget per request (relevant for LLM models only).
    pub max_tokens: u32,
    /// Serving-plane shape for every service in the sweep: replicas, batch cap,
    /// shedding. The paper's services are single-threaded and queue further requests
    /// (§IV-A), so its configurations pin `max_batch_size(1)`.
    pub serving: ServingConfig,
    /// RNG seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// Paper-parameterised NOOP configuration (1024 requests per client).
    pub fn paper_noop(deployment: Deployment) -> Self {
        ScalingConfig {
            service_counts: vec![1, 2, 4, 8, 16],
            strong_clients: 16,
            requests_per_client: 1024,
            model: ModelSpec::noop(),
            deployment,
            // Dilate time 4x so that sub-millisecond network latencies dominate the
            // (scaled-down) real scheduling jitter.
            clock_scale: 0.25,
            max_tokens: 1,
            serving: ServingConfig::default().max_batch_size(1),
            seed: 42,
        }
    }

    /// Reduced NOOP configuration used by default (128 requests per client).
    pub fn quick_noop(deployment: Deployment) -> Self {
        let mut c = Self::paper_noop(deployment);
        c.requests_per_client = 128;
        c
    }

    /// Paper-parameterised llama-8b configuration (experiment 3).
    pub fn paper_llm(deployment: Deployment) -> Self {
        ScalingConfig {
            service_counts: vec![1, 2, 4, 8, 16],
            strong_clients: 16,
            requests_per_client: 64,
            model: ModelSpec::sim_llama_8b(),
            deployment,
            clock_scale: 800.0,
            max_tokens: 128,
            serving: ServingConfig::default().max_batch_size(1),
            seed: 42,
        }
    }

    /// Reduced llama-8b configuration used by default.
    pub fn quick_llm(deployment: Deployment) -> Self {
        let mut c = Self::paper_llm(deployment);
        c.requests_per_client = 8;
        c.service_counts = vec![1, 2, 4, 8, 16];
        c
    }
}

/// Result of one `(clients, services)` configuration.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Number of client tasks.
    pub clients: usize,
    /// Number of service instances.
    pub services: usize,
    /// Deployment scenario.
    pub deployment: Deployment,
    /// Per-component response summaries (`communication`, `service`, `inference`).
    pub components: BTreeMap<String, Summary>,
    /// Summary of total response time per request.
    pub total: Summary,
}

impl ScalingResult {
    /// Convert to a printable row.
    pub fn to_row(&self) -> Row {
        Row::new(
            format!(
                "{} clients={} services={}",
                self.deployment.label(),
                self.clients,
                self.services
            ),
            self.components.clone(),
            self.total,
        )
    }
}

/// Run one `(clients, services)` configuration.
pub fn run_one(clients: usize, services: usize, config: &ScalingConfig) -> ScalingResult {
    let session = Session::builder(format!(
        "exp2-{}-{}x{}",
        config.deployment.label(),
        clients,
        services
    ))
    .platform(PlatformId::Delta)
    .clock(ClockSpec::scaled(config.clock_scale))
    .seed(config.seed)
    .build()
    .expect("session");

    // The paper's experiment 2/3 pilot: 256 cores / 16 GPUs => 4 Delta nodes.
    session
        .submit_pilot(
            PilotDescription::new(PlatformId::Delta)
                .nodes(4)
                .runtime_secs(7200.0),
        )
        .expect("pilot");

    // Bring the services up.
    let service_names: Vec<String> = (0..services).map(|i| format!("svc-{i:03}")).collect();
    let svc_handles: Vec<_> = service_names
        .iter()
        .map(|name| {
            let mut desc = ServiceDescription::new(name.clone()).model(config.model.clone());
            desc = if config.model.is_noop() {
                desc.cores(1)
            } else {
                desc.gpus(1)
            };
            desc = desc.serving(config.serving.clone());
            if config.deployment == Deployment::Remote {
                desc = desc.remote(PlatformId::R3Cloud);
            }
            session.submit_service(desc).expect("submit service")
        })
        .collect();
    for h in &svc_handles {
        h.wait_ready_timeout(Duration::from_secs(300))
            .expect("service ready");
    }

    // Launch the clients; each sends every request to the least-loaded of all
    // services, in rotation among equally loaded ones.
    let client_handles: Vec<_> = (0..clients)
        .map(|i| {
            session
                .submit_task(
                    TaskDescription::new(format!("client-{i:03}"))
                        .kind(TaskKind::InferenceClient {
                            selector: hpcml_runtime::describe::ServiceSelector::Named(
                                service_names.clone(),
                            ),
                            requests: config.requests_per_client,
                            prompt_words: 48,
                            max_tokens: config.max_tokens,
                            think_time_secs: Dist::constant(0.0),
                        })
                        .cores(1),
                )
                .expect("submit client task")
        })
        .collect();
    for h in &client_handles {
        h.wait_done_timeout(Duration::from_secs(900))
            .expect("client done");
    }

    let metrics = session.metrics();
    let result = ScalingResult {
        clients,
        services,
        deployment: config.deployment,
        components: metrics.response_summaries(),
        total: metrics.response_total_summary(),
    };
    session.close();
    result
}

/// Run a strong- or weak-scaling sweep.
pub fn run_sweep(scaling: Scaling, config: &ScalingConfig) -> Vec<ScalingResult> {
    config
        .service_counts
        .iter()
        .map(|&services| {
            let clients = match scaling {
                Scaling::Strong => config.strong_clients,
                Scaling::Weak => services,
            };
            run_one(clients, services, config)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(deployment: Deployment) -> ScalingConfig {
        ScalingConfig {
            service_counts: vec![1, 2],
            strong_clients: 4,
            requests_per_client: 12,
            model: ModelSpec::noop(),
            deployment,
            clock_scale: 0.5,
            max_tokens: 1,
            serving: ServingConfig::default(),
            seed: 3,
        }
    }

    #[test]
    fn local_noop_rt_is_dominated_by_communication() {
        let _serial = crate::serial();
        let r = run_one(2, 2, &tiny(Deployment::Local));
        assert_eq!(r.components["communication"].count, 24);
        assert!(
            r.components["inference"].mean < 1e-6,
            "NOOP inference must be ~0"
        );
        assert!(
            r.components["communication"].mean > r.components["service"].mean,
            "communication {:.6} must dominate service {:.6}",
            r.components["communication"].mean,
            r.components["service"].mean
        );
        // Local latency is sub-millisecond.
        assert!(
            r.total.mean < 0.01,
            "local NOOP RT should be well below 10 ms, got {}",
            r.total.mean
        );
        assert!(r.to_row().label.contains("local"));
    }

    #[test]
    fn remote_noop_rt_exceeds_local() {
        let _serial = crate::serial();
        let local = run_one(2, 2, &tiny(Deployment::Local));
        let remote = run_one(2, 2, &tiny(Deployment::Remote));
        assert!(
            remote.components["communication"].mean > 2.0 * local.components["communication"].mean,
            "remote communication {:.6} must clearly exceed local {:.6}",
            remote.components["communication"].mean,
            local.components["communication"].mean
        );
    }

    #[test]
    fn batched_serving_config_flows_through_the_sweep() {
        let _serial = crate::serial();
        let mut config = tiny(Deployment::Local);
        config.serving = ServingConfig::default().max_batch_size(4);
        let r = run_one(2, 1, &config);
        assert_eq!(r.components["communication"].count, 24);
    }

    #[test]
    fn weak_scaling_sweep_runs_all_configurations() {
        let _serial = crate::serial();
        let config = tiny(Deployment::Local);
        let results = run_sweep(Scaling::Weak, &config);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].clients, 1);
        assert_eq!(results[1].clients, 2);
        let strong = run_sweep(Scaling::Strong, &config);
        assert!(strong.iter().all(|r| r.clients == 4));
    }
}
