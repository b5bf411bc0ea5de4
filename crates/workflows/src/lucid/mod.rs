//! The three LUCID use-case pipelines of the paper's §II and Table I.
//!
//! Each builder returns a [`crate::dsl::Pipeline`] whose structure matches the paper's
//! description; dataset sizes and per-stage durations are configurable so that the same
//! pipeline can run at paper scale (virtual hours) or at test scale (virtual seconds)
//! while exercising identical runtime code paths: data staging, concurrent CPU tasks,
//! GPU training tasks, and model services with inference-client tasks.

mod cell_painting;
mod signature_detection;
mod uq;

pub use cell_painting::{cell_painting_pipeline, CellPaintingConfig};
pub use signature_detection::{signature_detection_pipeline, SignatureDetectionConfig};
pub use uq::{uncertainty_quantification_pipeline, UqConfig};

/// One row of the paper's Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseCaseRow {
    /// Pipeline identifier (1-3).
    pub id: u8,
    /// Pipeline name.
    pub pipeline: &'static str,
    /// Stage name.
    pub stage: &'static str,
    /// Resource type (CPU / GPU).
    pub resource: &'static str,
    /// Whether the stage is enabled as a service.
    pub as_service: bool,
}

/// The contents of the paper's Table I: pipelines, stages, resource types and whether
/// each stage is exposed through the service interface.
pub fn use_case_table() -> Vec<UseCaseRow> {
    vec![
        UseCaseRow {
            id: 1,
            pipeline: "Cell Painting",
            stage: "Data pre-processing & augmentation",
            resource: "CPU",
            as_service: true,
        },
        UseCaseRow {
            id: 1,
            pipeline: "Cell Painting",
            stage: "Model training with hyperparameter optimization",
            resource: "GPU",
            as_service: true,
        },
        UseCaseRow {
            id: 2,
            pipeline: "Signature Detection",
            stage: "Data Preparation",
            resource: "CPU",
            as_service: true,
        },
        UseCaseRow {
            id: 2,
            pipeline: "Signature Detection",
            stage: "Mutation Detection Analysis",
            resource: "CPU",
            as_service: false,
        },
        UseCaseRow {
            id: 2,
            pipeline: "Signature Detection",
            stage: "LLM-based signature comparison",
            resource: "GPU",
            as_service: true,
        },
        UseCaseRow {
            id: 3,
            pipeline: "Uncertainty Quantification",
            stage: "Data Preparation",
            resource: "CPU",
            as_service: true,
        },
        UseCaseRow {
            id: 3,
            pipeline: "Uncertainty Quantification",
            stage: "UQ methods with three-level parallelism",
            resource: "GPU",
            as_service: false,
        },
        UseCaseRow {
            id: 3,
            pipeline: "Uncertainty Quantification",
            stage: "Post-processing",
            resource: "GPU",
            as_service: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_structure() {
        let rows = use_case_table();
        assert_eq!(
            rows.len(),
            8,
            "Table I has eight stages across three pipelines"
        );
        assert_eq!(rows.iter().filter(|r| r.id == 1).count(), 2);
        assert_eq!(rows.iter().filter(|r| r.id == 2).count(), 3);
        assert_eq!(rows.iter().filter(|r| r.id == 3).count(), 3);
        assert_eq!(rows.iter().filter(|r| r.as_service).count(), 6);
        assert_eq!(rows.iter().filter(|r| r.resource == "GPU").count(), 4);
    }

    #[test]
    fn pipeline_builders_match_table_stage_counts() {
        let rows = use_case_table();
        let cp = cell_painting_pipeline(&CellPaintingConfig::test_scale());
        assert_eq!(cp.stages.len(), rows.iter().filter(|r| r.id == 1).count());
        let sd = signature_detection_pipeline(&SignatureDetectionConfig::test_scale());
        assert_eq!(sd.stages.len(), rows.iter().filter(|r| r.id == 2).count());
        let uq = uncertainty_quantification_pipeline(&UqConfig::test_scale());
        assert_eq!(uq.stages.len(), rows.iter().filter(|r| r.id == 3).count());
    }
}
