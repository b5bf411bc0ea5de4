//! The Uncertainty Quantification pipeline (paper §II-C, Table I pipeline 3).
//!
//! Three stages:
//!
//! 1. **Data preparation** (CPU, service-enabled): a small Q&A dataset (~3.4 MB) is
//!    preprocessed for each UQ sub-task — computationally negligible.
//! 2. **UQ methods with three-level parallelism** (GPU): the innermost level compares UQ
//!    methods (Bayesian LoRA, LoRA ensemble, ...), the middle level repeats each with
//!    multiple random seeds, and the outermost level spans base LLMs (Llama, Mistral).
//!    Every combination is an independent GPU fine-tuning task using 5–60 GB of GPU
//!    memory; all of them should run with maximal concurrency.
//! 3. **Post-processing** (GPU, service-enabled): results are aggregated into summary
//!    metrics, with an LLM service assisting the comparison report.
//!
//! Optionally, the pipeline can be prefixed with an **MPI ensemble-simulation stage**
//! (disabled by default, enabled via [`UqConfig::with_mpi_simulation`]): multi-node MPI
//! simulation tasks generate the raw samples the Q&A preparation consumes, the
//! hybrid MD-then-ML shape of the DeepDriveMD-style workflows ("Asynchronous Execution
//! of Heterogeneous Tasks in ML-driven HPC Workflows", Pascuzzi et al.). Each ensemble
//! member declares `nodes(n)` and is placed by the runtime as an atomic gang of
//! distinct nodes (co-locating on partially free ones under the default
//! [`GangPacking::Partial`] policy; see [`UqConfig::mpi_sim_packing`]).

use hpcml_runtime::describe::{
    DataDirective, GangPacking, ServiceDescription, TaskDescription, TaskKind,
};
use hpcml_serving::ModelSpec;
use hpcml_sim::dist::Dist;

use crate::dsl::{Pipeline, Stage};

/// Scale parameters of the UQ pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct UqConfig {
    /// UQ methods evaluated at the innermost level.
    pub methods: Vec<String>,
    /// Random seeds per method (middle level).
    pub seeds: usize,
    /// Base LLMs compared at the outermost level.
    pub models: Vec<String>,
    /// Q&A dataset size in MiB (paper: ~3.4 MB).
    pub dataset_mib: f64,
    /// Mean duration of one fine-tuning UQ task, virtual seconds.
    pub finetune_secs: f64,
    /// GPU memory per fine-tuning task, GiB (paper: 5–60 GB depending on model/LoRA).
    pub finetune_gpu_mem_gib: f64,
    /// Requests sent to the post-processing LLM service.
    pub postprocess_requests: u32,
    /// MPI ensemble-simulation members run before data preparation (0 = no
    /// simulation stage, the paper's plain three-stage pipeline).
    pub mpi_sim_tasks: usize,
    /// Whole nodes each MPI simulation member spans (gang placement).
    pub mpi_sim_nodes: usize,
    /// MPI ranks (cores) per member node.
    pub mpi_ranks_per_node: u32,
    /// Mean duration of one MPI simulation member, virtual seconds.
    pub mpi_sim_secs: f64,
    /// Gang packing policy pinned on the MPI simulation members (`None` is the
    /// default, [`GangPacking::Partial`]): `Partial` lets half-node ensemble members
    /// co-locate with fine-tuning tasks on shared nodes; `Whole` reserves fully idle
    /// nodes per member.
    pub mpi_sim_packing: Option<GangPacking>,
}

impl UqConfig {
    /// Paper-scale configuration: 4 methods x 5 seeds x 2 models = 40 GPU tasks.
    pub fn paper_scale() -> Self {
        UqConfig {
            methods: vec![
                "bayesian-lora".to_string(),
                "lora-ensemble".to_string(),
                "mc-dropout".to_string(),
                "deep-ensemble".to_string(),
            ],
            seeds: 5,
            models: vec!["llama-8b".to_string(), "mistral-7b".to_string()],
            dataset_mib: 3.4,
            finetune_secs: 1800.0,
            finetune_gpu_mem_gib: 30.0,
            postprocess_requests: 32,
            mpi_sim_tasks: 0,
            mpi_sim_nodes: 2,
            mpi_ranks_per_node: 32,
            mpi_sim_secs: 900.0,
            mpi_sim_packing: None,
        }
    }

    /// Small configuration for tests and examples.
    pub fn test_scale() -> Self {
        UqConfig {
            methods: vec!["bayesian-lora".to_string(), "lora-ensemble".to_string()],
            seeds: 2,
            models: vec!["noop".to_string()],
            dataset_mib: 3.4,
            finetune_secs: 3.0,
            finetune_gpu_mem_gib: 4.0,
            postprocess_requests: 4,
            mpi_sim_tasks: 0,
            mpi_sim_nodes: 2,
            mpi_ranks_per_node: 4,
            mpi_sim_secs: 2.0,
            mpi_sim_packing: None,
        }
    }

    /// Prefix the pipeline with `tasks` MPI ensemble-simulation members, each
    /// spanning `nodes` distinct nodes and running for roughly `secs` virtual
    /// seconds. Under the default [`GangPacking::Partial`] policy a member
    /// whose ranks-per-node share is below a whole node co-locates with other work;
    /// pin [`UqConfig::with_mpi_packing`] to override.
    pub fn with_mpi_simulation(mut self, tasks: usize, nodes: usize, secs: f64) -> Self {
        self.mpi_sim_tasks = tasks;
        self.mpi_sim_nodes = nodes.max(1);
        self.mpi_sim_secs = secs;
        self
    }

    /// Pin the gang packing policy of the MPI simulation members (overriding the
    /// default, [`GangPacking::Partial`]).
    pub fn with_mpi_packing(mut self, packing: GangPacking) -> Self {
        self.mpi_sim_packing = Some(packing);
        self
    }

    /// Number of fine-tuning tasks the three-level hierarchy expands to.
    pub fn total_uq_tasks(&self) -> usize {
        self.methods.len() * self.seeds * self.models.len()
    }
}

impl Default for UqConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

/// Build the Uncertainty Quantification pipeline.
pub fn uncertainty_quantification_pipeline(config: &UqConfig) -> Pipeline {
    // Optional stage 0: multi-node MPI ensemble simulation generating the raw samples
    // (hybrid MD-then-ML shape; each member is an atomic gang of `mpi_sim_nodes`
    // distinct nodes — partially free ones under the default Partial packing, fully
    // idle ones when `mpi_sim_packing` pins `Whole`).
    let sim_stage = (config.mpi_sim_tasks > 0).then(|| {
        Stage::new("ensemble-simulation").tasks((0..config.mpi_sim_tasks).map(|i| {
            let mut task = TaskDescription::new(format!("uq-md-ensemble-{i:02}"))
                .kind(TaskKind::Compute {
                    duration_secs: Dist::lognormal_mean_cv(config.mpi_sim_secs.max(0.001), 0.1),
                })
                .cores(config.mpi_ranks_per_node)
                .nodes(config.mpi_sim_nodes)
                .stage_out(DataDirective::local(format!("md-trajectory-{i:02}"), 512.0))
                .tag("pipeline", "uncertainty-quantification")
                .tag("stage", "ensemble-simulation")
                .tag("mpi_nodes", config.mpi_sim_nodes.to_string());
            if let Some(packing) = config.mpi_sim_packing {
                task = task.gang_packing(packing);
            }
            task
        }))
    });

    // Stage 1: negligible data preparation.
    let stage1 = Stage::new("data-preparation").task(
        TaskDescription::new("uq-data-prep")
            .kind(TaskKind::Compute {
                duration_secs: Dist::uniform(0.5, 2.0),
            })
            .cores(1)
            .stage_in(DataDirective::local("qa-dataset", config.dataset_mib))
            .tag("pipeline", "uncertainty-quantification")
            .tag("stage", "data-prep"),
    );

    // Stage 2: three-level hierarchy of fine-tuning tasks (model x method x seed).
    let mut stage2 = Stage::new("uq-methods-three-level");
    for model in &config.models {
        for method in &config.methods {
            for seed in 0..config.seeds {
                stage2 = stage2.task(
                    TaskDescription::new(format!("uq-{model}-{method}-s{seed}"))
                        .kind(TaskKind::Compute {
                            duration_secs: Dist::lognormal_mean_cv(
                                config.finetune_secs.max(0.001),
                                0.2,
                            ),
                        })
                        .gpus(1)
                        .mem_gib(config.finetune_gpu_mem_gib)
                        .tag("pipeline", "uncertainty-quantification")
                        .tag("stage", "uq-methods")
                        .tag("model", model.clone())
                        .tag("method", method.clone())
                        .tag("seed", seed.to_string()),
                );
            }
        }
    }

    // Stage 3: post-processing with an LLM service summarising the comparison.
    let model = ModelSpec::by_name(
        config
            .models
            .first()
            .map(String::as_str)
            .unwrap_or("llama-8b"),
    )
    .unwrap_or_else(ModelSpec::sim_llama_8b);
    let stage3 = Stage::new("post-processing")
        .service(
            ServiceDescription::new("uq-report-llm")
                .model(model)
                .gpus(1)
                .tag("pipeline", "uncertainty-quantification"),
        )
        .task(
            TaskDescription::new("uq-aggregate-metrics")
                .kind(TaskKind::Compute {
                    duration_secs: Dist::uniform(1.0, 3.0),
                })
                .cores(2)
                .stage_out(DataDirective::local("uq-summary.csv", 1.0))
                .tag("pipeline", "uncertainty-quantification")
                .tag("stage", "post-processing"),
        )
        .task(
            TaskDescription::new("uq-report-client")
                .kind(TaskKind::inference_client(
                    "uq-report-llm",
                    config.postprocess_requests,
                ))
                .cores(1)
                .after_service("uq-report-llm")
                .tag("pipeline", "uncertainty-quantification")
                .tag("stage", "post-processing"),
        );

    let mut pipeline = Pipeline::new("uncertainty-quantification");
    if let Some(sim) = sim_stage {
        pipeline = pipeline.stage(sim);
    }
    pipeline.stage(stage1).stage(stage2).stage(stage3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::tasks_by_tag;

    #[test]
    fn three_level_hierarchy_expands_correctly() {
        let cfg = UqConfig::paper_scale();
        assert_eq!(cfg.total_uq_tasks(), 4 * 5 * 2);
        let p = uncertainty_quantification_pipeline(&cfg);
        assert_eq!(p.stages.len(), 3);
        assert_eq!(p.stages[1].tasks.len(), cfg.total_uq_tasks());
        let by_stage = tasks_by_tag(&p, "stage");
        assert_eq!(by_stage["uq-methods"], cfg.total_uq_tasks());
    }

    #[test]
    fn uq_tasks_are_gpu_tasks_with_memory_requirements() {
        let cfg = UqConfig::paper_scale();
        let p = uncertainty_quantification_pipeline(&cfg);
        for t in &p.stages[1].tasks {
            assert_eq!(t.resources.gpus, 1);
            assert!((t.resources.mem_gib - 30.0).abs() < 1e-9);
            assert!(t.tags.iter().any(|(k, _)| k == "method"));
            assert!(t.tags.iter().any(|(k, _)| k == "seed"));
        }
    }

    #[test]
    fn post_processing_uses_a_service() {
        let p = uncertainty_quantification_pipeline(&UqConfig::test_scale());
        assert_eq!(p.stages[2].services.len(), 1);
        assert!(p.stages[2]
            .tasks
            .iter()
            .any(|t| matches!(t.kind, TaskKind::InferenceClient { .. })));
    }

    #[test]
    fn mpi_simulation_stage_is_off_by_default_and_prefixes_when_enabled() {
        let plain = uncertainty_quantification_pipeline(&UqConfig::paper_scale());
        assert_eq!(plain.stages.len(), 3, "paper pipeline has no MPI stage");

        let cfg = UqConfig::paper_scale().with_mpi_simulation(4, 3, 600.0);
        let p = uncertainty_quantification_pipeline(&cfg);
        assert_eq!(p.stages.len(), 4);
        assert_eq!(p.stages[0].name, "ensemble-simulation");
        assert_eq!(p.stages[0].tasks.len(), 4);
        for t in &p.stages[0].tasks {
            assert_eq!(t.resources.nodes, 3, "ensemble members are 3-node gangs");
            assert_eq!(t.resources.cores, cfg.mpi_ranks_per_node);
            assert!(t.resources.is_gang());
            assert_eq!(
                t.resources.packing, None,
                "members take the default packing unless pinned"
            );
            assert!(t.tags.iter().any(|(k, v)| k == "mpi_nodes" && v == "3"));
        }
        let by_stage = tasks_by_tag(&p, "stage");
        assert_eq!(by_stage["ensemble-simulation"], 4);
    }

    #[test]
    fn mpi_simulation_packing_is_pinned_when_configured() {
        let cfg = UqConfig::paper_scale()
            .with_mpi_simulation(2, 2, 600.0)
            .with_mpi_packing(GangPacking::Whole);
        let p = uncertainty_quantification_pipeline(&cfg);
        for t in &p.stages[0].tasks {
            assert_eq!(t.resources.packing, Some(GangPacking::Whole));
        }
    }

    #[test]
    fn every_model_method_seed_combination_is_unique() {
        let cfg = UqConfig::paper_scale();
        let p = uncertainty_quantification_pipeline(&cfg);
        let names: std::collections::HashSet<&str> =
            p.stages[1].tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), cfg.total_uq_tasks());
    }
}
