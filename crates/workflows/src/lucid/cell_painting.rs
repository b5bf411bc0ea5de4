//! The Cell Painting pipeline (paper §II-A, Table I pipeline 1).
//!
//! Two stages:
//!
//! 1. **Data pre-processing & augmentation** (CPU): the ~1.6 TB cell-painting image set
//!    is split into shards; each shard is staged in (the paper uses Globus for the
//!    wide-area transfer), normalised and augmented. No GPU needed.
//! 2. **Model training with hyper-parameter optimisation** (GPU): a ViT model is
//!    fine-tuned under an Optuna-style HPO loop; multiple trials train concurrently,
//!    each on one GPU, while a feature-extraction service (the fine-tuned ViT exposed
//!    through the runtime's service interface) answers classification requests.

use hpcml_runtime::describe::{DataDirective, ServiceDescription, TaskDescription, TaskKind};
use hpcml_serving::ModelSpec;
use hpcml_sim::dist::Dist;

use crate::dsl::{Pipeline, Stage};
use crate::hpo::{HpoStudy, SamplerKind};

/// Scale parameters of the Cell Painting pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CellPaintingConfig {
    /// Number of dataset shards processed in stage 1.
    pub shards: usize,
    /// Size of each shard in MiB (paper total: ~1.6 TB).
    pub shard_size_mib: f64,
    /// Mean pre-processing duration per shard, virtual seconds.
    pub preprocess_secs: f64,
    /// Number of HPO trials trained in stage 2.
    pub hpo_trials: usize,
    /// Mean duration of one training trial, virtual seconds.
    pub train_secs: f64,
    /// Number of classification requests sent to the feature-extraction service.
    pub inference_requests: u32,
    /// RNG seed for the HPO sampler.
    pub seed: u64,
}

impl CellPaintingConfig {
    /// Paper-scale configuration (1.6 TB over 64 shards, 32 HPO trials).
    pub fn paper_scale() -> Self {
        CellPaintingConfig {
            shards: 64,
            shard_size_mib: 25_600.0, // 64 x 25 GiB = 1.6 TiB
            preprocess_secs: 600.0,
            hpo_trials: 32,
            train_secs: 3_600.0,
            inference_requests: 256,
            seed: 1,
        }
    }

    /// Small configuration for tests and the quickstart example.
    pub fn test_scale() -> Self {
        CellPaintingConfig {
            shards: 4,
            shard_size_mib: 50.0,
            preprocess_secs: 5.0,
            hpo_trials: 4,
            train_secs: 10.0,
            inference_requests: 8,
            seed: 1,
        }
    }
}

impl Default for CellPaintingConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

/// Build the Cell Painting pipeline.
pub fn cell_painting_pipeline(config: &CellPaintingConfig) -> Pipeline {
    // Stage 1: data pre-processing and augmentation (CPU-only, data-heavy).
    let preprocess_tasks = (0..config.shards).map(|i| {
        TaskDescription::new(format!("cp-preprocess-{i:03}"))
            .kind(TaskKind::Compute {
                duration_secs: Dist::lognormal_mean_cv(config.preprocess_secs.max(0.001), 0.2),
            })
            .cores(4)
            .stage_in(DataDirective::remote(
                format!("cell-paint-shard-{i:03}"),
                config.shard_size_mib,
            ))
            .stage_out(DataDirective::local(
                format!("augmented-shard-{i:03}"),
                config.shard_size_mib * 0.4,
            ))
            .tag("pipeline", "cell-painting")
            .tag("stage", "preprocess")
    });
    let stage1 = Stage::new("data-preprocessing-augmentation").tasks(preprocess_tasks);

    // Stage 2: ViT fine-tuning under HPO + the fine-tuned model exposed as a service.
    let mut study = HpoStudy::new(
        HpoStudy::cell_painting_space(),
        SamplerKind::QuantileGuided,
        config.seed,
    );
    let mut stage2 = Stage::new("model-training-hpo").service(
        ServiceDescription::new("vit-features")
            .model(ModelSpec::sim_vit_base())
            .gpus(1)
            .tag("pipeline", "cell-painting"),
    );
    for _ in 0..config.hpo_trials {
        let trial = study.suggest();
        // Larger batches shorten the epoch wall-time slightly; dropout/lr have no cost impact.
        let batch = trial.params.get("batch_size").copied().unwrap_or(64.0);
        let duration = config.train_secs * (96.0 / batch).clamp(0.5, 2.0);
        let mut task = TaskDescription::new(format!("cp-train-trial-{:03}", trial.id))
            .kind(TaskKind::Compute {
                duration_secs: Dist::lognormal_mean_cv(duration.max(0.001), 0.15),
            })
            .gpus(1)
            .mem_gib(32.0)
            .after_service("vit-features")
            .tag("pipeline", "cell-painting")
            .tag("stage", "training")
            .tag("trial", trial.id.to_string());
        for (k, v) in &trial.params {
            task = task.tag(format!("hpo.{k}"), format!("{v:.6}"));
        }
        stage2 = stage2.task(task);
    }
    // Classification clients exercising the fine-tuned model through the service API.
    stage2 = stage2.task(
        TaskDescription::new("cp-feature-extraction-client")
            .kind(TaskKind::inference_client(
                "vit-features",
                config.inference_requests,
            ))
            .cores(1)
            .tag("pipeline", "cell-painting")
            .tag("stage", "training"),
    );

    Pipeline::new("cell-painting").stage(stage1).stage(stage2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::tasks_by_tag;

    #[test]
    fn structure_matches_config() {
        let cfg = CellPaintingConfig::test_scale();
        let p = cell_painting_pipeline(&cfg);
        assert_eq!(p.stages.len(), 2);
        assert_eq!(p.stages[0].tasks.len(), cfg.shards);
        // trials + one inference client task.
        assert_eq!(p.stages[1].tasks.len(), cfg.hpo_trials + 1);
        assert_eq!(p.stages[1].services.len(), 1);
        let by_stage = tasks_by_tag(&p, "stage");
        assert_eq!(by_stage["preprocess"], cfg.shards);
        assert_eq!(by_stage["training"], cfg.hpo_trials + 1);
    }

    #[test]
    fn preprocess_tasks_stage_remote_data() {
        let p = cell_painting_pipeline(&CellPaintingConfig::test_scale());
        for t in &p.stages[0].tasks {
            assert_eq!(t.stage_in.len(), 1);
            assert!(
                t.stage_in[0].remote,
                "cell painting imagery arrives over the WAN"
            );
            assert_eq!(t.resources.gpus, 0, "pre-processing does not need GPUs");
        }
    }

    #[test]
    fn training_tasks_use_gpus_and_carry_hpo_params() {
        let p = cell_painting_pipeline(&CellPaintingConfig::test_scale());
        let trials: Vec<_> = p.stages[1]
            .tasks
            .iter()
            .filter(|t| t.tags.iter().any(|(k, _)| k == "trial"))
            .collect();
        assert!(!trials.is_empty());
        for t in trials {
            assert_eq!(t.resources.gpus, 1);
            assert!(t.tags.iter().any(|(k, _)| k == "hpo.learning_rate"));
            assert!(t.after_services.contains(&"vit-features".to_string()));
        }
    }

    #[test]
    fn paper_scale_is_bigger_than_test_scale() {
        let paper = CellPaintingConfig::paper_scale();
        let test = CellPaintingConfig::test_scale();
        assert!(paper.shards > test.shards);
        assert!(
            paper.shard_size_mib * paper.shards as f64 > 1_500_000.0,
            "paper scale must be ~1.6 TB"
        );
        assert!(paper.hpo_trials > test.hpo_trials);
        assert_eq!(CellPaintingConfig::default(), test);
    }
}
