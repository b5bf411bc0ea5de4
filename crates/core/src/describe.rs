//! Descriptions: what the user submits through the unified API.
//!
//! The paper's execution model starts with the client submitting `TaskDescription`s and
//! `ServiceDescription`s through one API (Fig. 2, flow ①). Descriptions are pure data;
//! the runtime turns them into stateful records at submission time.

use serde::{Deserialize, Serialize};

use hpcml_platform::{PlatformId, ResourceRequest};

// Re-exported so description-level callers (the workflow DSL in particular) can name
// the packing policy without depending on `hpcml_platform` directly.
pub use hpcml_platform::GangPacking;
use hpcml_serving::{ModelSpec, ServingConfig};
use hpcml_sim::dist::Dist;

/// A data staging directive: move a named dataset into or out of the task sandbox.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataDirective {
    /// Dataset name (for bookkeeping and metrics).
    pub name: String,
    /// Dataset size in MiB.
    pub size_mib: f64,
    /// True if the source/destination is on a remote platform (e.g. transfered with
    /// Globus, like the Cell Painting imagery), false for platform-local staging.
    pub remote: bool,
}

impl DataDirective {
    /// Local staging directive.
    pub fn local(name: impl Into<String>, size_mib: f64) -> Self {
        DataDirective {
            name: name.into(),
            size_mib,
            remote: false,
        }
    }

    /// Remote (wide-area) staging directive.
    pub fn remote(name: impl Into<String>, size_mib: f64) -> Self {
        DataDirective {
            name: name.into(),
            size_mib,
            remote: true,
        }
    }
}

/// How an inference client selects the services it sends requests to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceSelector {
    /// Explicit list of service names.
    Named(Vec<String>),
    /// All services hosting the given model.
    ByModel(String),
    /// Any registered service.
    Any,
}

/// What a task does when it executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Does nothing (placeholder / dependency barrier).
    Noop,
    /// A self-contained compute kernel of stochastic duration (CPU or GPU work such as
    /// data preprocessing, enrichment analysis, or a training step).
    Compute {
        /// Duration distribution, seconds.
        duration_secs: Dist,
    },
    /// A client that sends inference requests to one or more model services (each to
    /// the one with the fewest requests in flight, in rotation among equals),
    /// recording response/inference time metrics.
    InferenceClient {
        /// Which services to send to.
        selector: ServiceSelector,
        /// How many requests to send.
        requests: u32,
        /// Approximate prompt length in words.
        prompt_words: u32,
        /// Generation budget per request.
        max_tokens: u32,
        /// Think time between consecutive requests, seconds.
        think_time_secs: Dist,
    },
}

impl TaskKind {
    /// Convenience constructor for an inference client targeting services by name.
    pub fn inference_client(service: impl Into<String>, requests: u32) -> Self {
        TaskKind::InferenceClient {
            selector: ServiceSelector::Named(vec![service.into()]),
            requests,
            prompt_words: 48,
            max_tokens: 128,
            think_time_secs: Dist::constant(0.0),
        }
    }

    /// Convenience constructor for an inference client targeting all services of a model.
    pub fn inference_client_for_model(model: impl Into<String>, requests: u32) -> Self {
        TaskKind::InferenceClient {
            selector: ServiceSelector::ByModel(model.into()),
            requests,
            prompt_words: 48,
            max_tokens: 128,
            think_time_secs: Dist::constant(0.0),
        }
    }

    /// Convenience constructor for a fixed-duration compute task.
    pub fn compute_secs(secs: f64) -> Self {
        TaskKind::Compute {
            duration_secs: Dist::constant(secs),
        }
    }
}

/// Description of a compute task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDescription {
    /// User-facing task name.
    pub name: String,
    /// What the task does.
    pub kind: TaskKind,
    /// Resources requested. Cores/GPUs/memory apply per member node; `nodes > 1`
    /// declares a multi-node MPI task placed as a gang of idle nodes.
    pub resources: ResourceRequest,
    /// Datasets staged in before execution.
    pub stage_in: Vec<DataDirective>,
    /// Datasets staged out after execution.
    pub stage_out: Vec<DataDirective>,
    /// Services that must be `Ready` before this task may start executing.
    pub after_services: Vec<String>,
    /// Free-form tags (pipeline name, stage name, ...).
    pub tags: Vec<(String, String)>,
    /// How many times the task may be re-run after losing its slot to a node
    /// failure (exponential backoff on the session clock between attempts). 0 (the
    /// default) fails the task on the first eviction.
    pub max_retries: u32,
}

impl TaskDescription {
    /// Create a task description (defaults: NOOP kind, 1 core, no staging).
    pub fn new(name: impl Into<String>) -> Self {
        TaskDescription {
            name: name.into(),
            kind: TaskKind::Noop,
            resources: ResourceRequest::default(),
            stage_in: Vec::new(),
            stage_out: Vec::new(),
            after_services: Vec::new(),
            tags: Vec::new(),
            max_retries: 0,
        }
    }

    /// Set the task kind.
    pub fn kind(mut self, kind: TaskKind) -> Self {
        self.kind = kind;
        self
    }

    /// Allow up to `n` retries after a node failure evicts the task's slot
    /// mid-run. Each retry requeues at the front of the task's wait class with
    /// exponential backoff on the session clock; the task only reaches
    /// `TaskState::Failed` once the budget is exhausted.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Request CPU cores.
    pub fn cores(mut self, cores: u32) -> Self {
        self.resources.cores = cores.max(1);
        self
    }

    /// Request GPUs.
    pub fn gpus(mut self, gpus: u32) -> Self {
        self.resources.gpus = gpus;
        if self.resources.cores == 0 {
            self.resources.cores = 1;
        }
        self
    }

    /// Request memory (GiB).
    pub fn mem_gib(mut self, mem: f64) -> Self {
        self.resources.mem_gib = mem;
        self
    }

    /// Declare a multi-node MPI task spanning `nodes` distinct nodes (clamped to
    /// ≥ 1). The task's cores/GPUs/memory are reserved on *each* member node
    /// (ranks-per-node semantics) and the gang is placed atomically — across
    /// partially free nodes under the default [`GangPacking::Partial`] policy, or on
    /// fully idle nodes only under [`GangPacking::Whole`] (see
    /// [`TaskDescription::gang_packing`]).
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.resources.nodes = nodes.max(1);
        self
    }

    /// Pin this task's gang packing policy, overriding the session default
    /// (`SessionBuilder::gang_packing`, itself [`GangPacking::Partial`] unless
    /// configured): `Partial` best-fits gang members across partially free nodes,
    /// `Whole` claims only fully idle nodes. Meaningful for multi-node tasks; a
    /// single-node placement ignores it.
    pub fn gang_packing(mut self, packing: GangPacking) -> Self {
        self.resources.packing = Some(packing);
        self
    }

    /// Add an input staging directive.
    pub fn stage_in(mut self, d: DataDirective) -> Self {
        self.stage_in.push(d);
        self
    }

    /// Add an output staging directive.
    pub fn stage_out(mut self, d: DataDirective) -> Self {
        self.stage_out.push(d);
        self
    }

    /// Require a service to be ready before this task executes.
    pub fn after_service(mut self, service: impl Into<String>) -> Self {
        self.after_services.push(service.into());
        self
    }

    /// Attach a tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.push((key.into(), value.into()));
        self
    }
}

/// Where a service instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServicePlacement {
    /// On the session's local pilot (resources are carved from the pilot allocation and
    /// the service is bootstrapped — launch/init/publish — at submission).
    LocalPilot,
    /// On a remote platform that persistently hosts models (no bootstrap measured, as
    /// in the paper's remote scenario).
    Remote(PlatformId),
}

/// Description of a service instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDescription {
    /// User-facing service name; also the endpoint name clients look up.
    pub name: String,
    /// The model this service hosts.
    pub model: ModelSpec,
    /// Resources requested (local placement only).
    pub resources: ResourceRequest,
    /// Placement: local pilot or remote platform.
    pub placement: ServicePlacement,
    /// Seconds to wait for readiness before giving up.
    pub startup_timeout_secs: f64,
    /// Serving-plane configuration: replica count, batch cap and admission control.
    /// The default is one replica that runs up to 8 requests on its backend at once,
    /// each joining the running batch when it is dispatched; `max_batch_size(1)` is the
    /// paper's one-request-at-a-time service.
    #[serde(default)]
    pub serving: ServingConfig,
    /// Free-form tags.
    pub tags: Vec<(String, String)>,
}

impl ServiceDescription {
    /// Create a service description (defaults: NOOP model, 1 core / 0 GPU, local).
    pub fn new(name: impl Into<String>) -> Self {
        ServiceDescription {
            name: name.into(),
            model: ModelSpec::noop(),
            resources: ResourceRequest::default(),
            placement: ServicePlacement::LocalPilot,
            startup_timeout_secs: 600.0,
            serving: ServingConfig::default(),
            tags: Vec::new(),
        }
    }

    /// Run `n` model replicas behind the endpoint. The resource request widens to an
    /// `n`-node gang so each replica gets its own node share; requests route to the
    /// replica with the fewest outstanding requests.
    pub fn replicas(mut self, n: usize) -> Self {
        let n = n.max(1);
        self.serving.replicas = n;
        self.resources.nodes = self.resources.nodes.max(n);
        self
    }

    /// Begin at most `n` waiting requests per backend call (1: one at a time).
    pub fn max_batch_size(mut self, n: usize) -> Self {
        self.serving.max_batch_size = n.max(1);
        self
    }

    /// Replace the whole serving configuration. Widens the resource request to a gang
    /// when the config asks for more replicas than nodes.
    pub fn serving(mut self, config: ServingConfig) -> Self {
        self.resources.nodes = self.resources.nodes.max(config.replicas.max(1));
        self.serving = config;
        self
    }

    /// Set the hosted model.
    pub fn model(mut self, model: ModelSpec) -> Self {
        self.model = model;
        self
    }

    /// Request GPUs (and at least one core).
    pub fn gpus(mut self, gpus: u32) -> Self {
        self.resources.gpus = gpus;
        if self.resources.cores == 0 {
            self.resources.cores = 1;
        }
        self
    }

    /// Request CPU cores.
    pub fn cores(mut self, cores: u32) -> Self {
        self.resources.cores = cores.max(1);
        self
    }

    /// Place the service on a remote platform.
    pub fn remote(mut self, platform: PlatformId) -> Self {
        self.placement = ServicePlacement::Remote(platform);
        self
    }

    /// Set the startup timeout.
    pub fn startup_timeout_secs(mut self, secs: f64) -> Self {
        self.startup_timeout_secs = secs;
        self
    }

    /// Attach a tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.push((key.into(), value.into()));
        self
    }

    /// The endpoint name this service registers under.
    pub fn endpoint_name(&self) -> String {
        format!("service.{}", self.name)
    }
}

/// Description of a pilot (resource acquisition request).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PilotDescription {
    /// Target platform.
    pub platform: PlatformId,
    /// Number of whole nodes.
    pub nodes: usize,
    /// Walltime in seconds.
    pub runtime_secs: f64,
    /// Whether to model batch-queue waiting time.
    pub model_queue_wait: bool,
}

impl PilotDescription {
    /// Create a pilot description with 1 node and 1 h of walltime.
    pub fn new(platform: PlatformId) -> Self {
        PilotDescription {
            platform,
            nodes: 1,
            runtime_secs: 3600.0,
            model_queue_wait: false,
        }
    }

    /// Set the node count.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Set the walltime.
    pub fn runtime_secs(mut self, secs: f64) -> Self {
        self.runtime_secs = secs;
        self
    }

    /// Enable queue-wait modelling.
    pub fn with_queue_wait(mut self, enable: bool) -> Self {
        self.model_queue_wait = enable;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_description_builder() {
        let t = TaskDescription::new("preprocess")
            .kind(TaskKind::compute_secs(12.0))
            .cores(4)
            .mem_gib(8.0)
            .stage_in(DataDirective::remote("cell-paint-shard", 1600.0))
            .stage_out(DataDirective::local("features", 50.0))
            .after_service("llm-0")
            .tag("pipeline", "cell-painting");
        assert_eq!(t.name, "preprocess");
        assert_eq!(t.resources.cores, 4);
        assert_eq!(t.resources.mem_gib, 8.0);
        assert_eq!(t.stage_in.len(), 1);
        assert!(t.stage_in[0].remote);
        assert_eq!(t.stage_out.len(), 1);
        assert_eq!(t.after_services, vec!["llm-0".to_string()]);
        assert_eq!(t.tags.len(), 1);
        assert!(matches!(t.kind, TaskKind::Compute { .. }));
        assert_eq!(t.max_retries, 0, "retries are opt-in");
        assert_eq!(t.max_retries(3).max_retries, 3);
    }

    #[test]
    fn task_gpu_request_keeps_a_core() {
        let t = TaskDescription::new("train").gpus(2);
        assert_eq!(t.resources.gpus, 2);
        assert!(t.resources.cores >= 1);
    }

    #[test]
    fn task_gang_packing_override() {
        let inherit = TaskDescription::new("mpi").cores(8).nodes(4);
        assert_eq!(
            inherit.resources.packing, None,
            "unset policy inherits the session default"
        );
        let pinned = TaskDescription::new("mpi-whole")
            .cores(8)
            .nodes(4)
            .gang_packing(GangPacking::Whole);
        assert_eq!(pinned.resources.packing, Some(GangPacking::Whole));
    }

    #[test]
    fn inference_client_constructors() {
        let k = TaskKind::inference_client("llm-0", 64);
        match k {
            TaskKind::InferenceClient {
                selector, requests, ..
            } => {
                assert_eq!(selector, ServiceSelector::Named(vec!["llm-0".to_string()]));
                assert_eq!(requests, 64);
            }
            _ => panic!("wrong kind"),
        }
        let k = TaskKind::inference_client_for_model("llama-8b", 8);
        assert!(matches!(
            k,
            TaskKind::InferenceClient {
                selector: ServiceSelector::ByModel(_),
                ..
            }
        ));
    }

    #[test]
    fn service_description_builder_and_endpoint_name() {
        let s = ServiceDescription::new("llm-0")
            .model(ModelSpec::sim_llama_8b())
            .gpus(1)
            .startup_timeout_secs(120.0)
            .tag("stage", "training");
        assert_eq!(s.endpoint_name(), "service.llm-0");
        assert_eq!(s.resources.gpus, 1);
        assert_eq!(s.placement, ServicePlacement::LocalPilot);
        assert_eq!(s.startup_timeout_secs, 120.0);
        assert_eq!(s.model.name, "llama-8b");
    }

    #[test]
    fn remote_service_placement() {
        let s = ServiceDescription::new("remote-llm").remote(PlatformId::R3Cloud);
        assert_eq!(s.placement, ServicePlacement::Remote(PlatformId::R3Cloud));
    }

    #[test]
    fn pilot_description_builder() {
        let p = PilotDescription::new(PlatformId::Delta)
            .nodes(4)
            .runtime_secs(7200.0)
            .with_queue_wait(true);
        assert_eq!(p.platform, PlatformId::Delta);
        assert_eq!(p.nodes, 4);
        assert_eq!(p.runtime_secs, 7200.0);
        assert!(p.model_queue_wait);
    }

    #[test]
    fn data_directive_constructors() {
        let l = DataDirective::local("csv", 2.0);
        assert!(!l.remote);
        let r = DataDirective::remote("images", 1_600_000.0);
        assert!(r.remote);
        assert_eq!(r.name, "images");
    }
}
