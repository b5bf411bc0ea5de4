//! The Signature Detection pipeline (paper §II-B, Table I pipeline 2).
//!
//! Three stages over 15 VCF samples (~300 MB each):
//!
//! 1. **Data preparation** (CPU, service-enabled): per-sample VEP annotation, 1–5 minutes
//!    and ~3 GB of memory per run; runs are independent and execute concurrently.
//! 2. **Mutation detection analysis** (CPU): pathway/GO enrichment per sample, minutes of
//!    CPU time, parallelisable across cores — not exposed as a service.
//! 3. **LLM-based signature comparison** (GPU, service-enabled): an LLM service mines the
//!    enriched results and literature to generate hypotheses; analysis tasks send it
//!    inference requests.

use hpcml_runtime::describe::{DataDirective, ServiceDescription, TaskDescription, TaskKind};
use hpcml_serving::ModelSpec;
use hpcml_sim::dist::Dist;

use crate::dsl::{Pipeline, Stage};

/// Scale parameters of the Signature Detection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SignatureDetectionConfig {
    /// Number of VCF samples (paper: 15).
    pub samples: usize,
    /// VCF size per sample in MiB (paper: ~300 MB).
    pub vcf_size_mib: f64,
    /// VEP annotation duration range per sample, virtual seconds (paper: 1–5 minutes).
    pub vep_secs: (f64, f64),
    /// Mean enrichment-analysis duration per sample, virtual seconds.
    pub enrichment_secs: f64,
    /// Number of LLM comparison requests per sample in stage 3.
    pub llm_requests_per_sample: u32,
    /// Which LLM the comparison service hosts.
    pub llm_model: String,
}

impl SignatureDetectionConfig {
    /// Paper-scale configuration.
    pub fn paper_scale() -> Self {
        SignatureDetectionConfig {
            samples: 15,
            vcf_size_mib: 300.0,
            vep_secs: (60.0, 300.0),
            enrichment_secs: 180.0,
            llm_requests_per_sample: 8,
            llm_model: "llama-8b".to_string(),
        }
    }

    /// Small configuration for tests and examples.
    pub fn test_scale() -> Self {
        SignatureDetectionConfig {
            samples: 3,
            vcf_size_mib: 30.0,
            vep_secs: (2.0, 6.0),
            enrichment_secs: 3.0,
            llm_requests_per_sample: 2,
            llm_model: "noop".to_string(),
        }
    }
}

impl Default for SignatureDetectionConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

/// Build the Signature Detection pipeline.
pub fn signature_detection_pipeline(config: &SignatureDetectionConfig) -> Pipeline {
    // Stage 1: VEP annotation per sample.
    let vep_tasks = (0..config.samples).map(|i| {
        TaskDescription::new(format!("sd-vep-{i:02}"))
            .kind(TaskKind::Compute {
                duration_secs: Dist::uniform(
                    config.vep_secs.0,
                    config.vep_secs.1.max(config.vep_secs.0 + 1e-9),
                ),
            })
            .cores(1)
            .mem_gib(3.0)
            .stage_in(DataDirective::local(
                format!("sample-{i:02}.vcf"),
                config.vcf_size_mib,
            ))
            .stage_out(DataDirective::local(
                format!("sample-{i:02}.annotated.vcf"),
                config.vcf_size_mib * 1.2,
            ))
            .tag("pipeline", "signature-detection")
            .tag("stage", "vep-annotation")
    });
    let stage1 = Stage::new("data-preparation-vep").tasks(vep_tasks);

    // Stage 2: pathway/GO enrichment per sample (CPU, parallel across cores).
    let enrichment_tasks = (0..config.samples).map(|i| {
        TaskDescription::new(format!("sd-enrichment-{i:02}"))
            .kind(TaskKind::Compute {
                duration_secs: Dist::lognormal_mean_cv(config.enrichment_secs.max(0.001), 0.25),
            })
            .cores(4)
            .stage_out(DataDirective::local(
                format!("sample-{i:02}.dose-response.csv"),
                0.5,
            ))
            .tag("pipeline", "signature-detection")
            .tag("stage", "mutation-analysis")
    });
    let stage2 = Stage::new("mutation-detection-analysis").tasks(enrichment_tasks);

    // Stage 3: LLM-based signature comparison through a model service.
    let model = ModelSpec::by_name(&config.llm_model).unwrap_or_else(ModelSpec::sim_llama_8b);
    let mut stage3 = Stage::new("llm-signature-comparison").service(
        ServiceDescription::new("sd-llm")
            .model(model)
            .gpus(1)
            .tag("pipeline", "signature-detection"),
    );
    for i in 0..config.samples {
        stage3 = stage3.task(
            TaskDescription::new(format!("sd-llm-compare-{i:02}"))
                .kind(TaskKind::inference_client(
                    "sd-llm",
                    config.llm_requests_per_sample,
                ))
                .cores(1)
                .after_service("sd-llm")
                .tag("pipeline", "signature-detection")
                .tag("stage", "llm-comparison"),
        );
    }

    Pipeline::new("signature-detection")
        .stage(stage1)
        .stage(stage2)
        .stage(stage3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_paper() {
        let cfg = SignatureDetectionConfig::paper_scale();
        let p = signature_detection_pipeline(&cfg);
        assert_eq!(p.stages.len(), 3);
        assert_eq!(p.stages[0].tasks.len(), 15, "paper uses 15 samples");
        assert_eq!(p.stages[1].tasks.len(), 15);
        assert_eq!(p.stages[2].tasks.len(), 15);
        assert_eq!(p.stages[2].services.len(), 1);
        assert!(p.stages[0].services.is_empty());
        assert!(p.stages[1].services.is_empty());
    }

    #[test]
    fn vep_tasks_match_resource_requirements() {
        let cfg = SignatureDetectionConfig::paper_scale();
        let p = signature_detection_pipeline(&cfg);
        for t in &p.stages[0].tasks {
            assert_eq!(t.resources.mem_gib, 3.0, "VEP needs ~3 GB per run");
            assert_eq!(t.resources.gpus, 0);
            assert!((t.stage_in[0].size_mib - 300.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stage3_clients_depend_on_the_llm_service() {
        let p = signature_detection_pipeline(&SignatureDetectionConfig::test_scale());
        for t in &p.stages[2].tasks {
            assert!(t.after_services.contains(&"sd-llm".to_string()));
            assert!(matches!(t.kind, TaskKind::InferenceClient { .. }));
        }
    }

    #[test]
    fn unknown_model_falls_back_to_llama() {
        let mut cfg = SignatureDetectionConfig::test_scale();
        cfg.llm_model = "does-not-exist".to_string();
        let p = signature_detection_pipeline(&cfg);
        assert_eq!(p.stages[2].services[0].model.name, "llama-8b");
    }
}
