//! Model catalog: the specifications of the models a service can host.
//!
//! A [`ModelSpec`] is pure data: parameter count, GPU memory footprint, load-time
//! distribution, prompt-evaluation and token-generation rates. The calibration targets
//! an A100-40GB-class GPU (NCSA Delta) for the LLM entries, matching the platforms the
//! paper evaluates on; absolute numbers are documented in EXPERIMENTS.md and only the
//! resulting *shapes* (init ≫ launch ≫ publish; inference ≫ communication) are relied on.

use hpcml_sim::dist::Dist;

/// What kind of capability a model exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Immediately replies without computing anything (experiment 2's NOOP model).
    Noop,
    /// Auto-regressive large language model (prompt eval + token generation).
    Llm,
    /// Image classifier (fixed per-image cost), used by the Cell Painting pipeline.
    ImageClassifier,
}

/// Specification of a servable model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name (e.g. `llama-8b`).
    pub name: String,
    /// Capability kind.
    pub kind: ModelKind,
    /// Number of parameters, in billions (0 for NOOP).
    pub params_b: f64,
    /// GPU memory needed to host the model, GiB.
    pub gpu_mem_gib: f64,
    /// Time to load the model into memory and initialise it (the `init` component of
    /// the paper's bootstrap time).
    pub load_secs: Dist,
    /// Prompt-processing throughput, tokens per second.
    pub prompt_tokens_per_sec: f64,
    /// Auto-regressive generation throughput, tokens per second.
    pub gen_tokens_per_sec: f64,
    /// Per-request fixed overhead inside the backend (tokenisation, sampling setup).
    pub per_request_overhead_secs: Dist,
}

impl ModelSpec {
    /// The NOOP model: replies instantly, used to measure pure communication overheads.
    pub fn noop() -> Self {
        ModelSpec {
            name: "noop".to_string(),
            kind: ModelKind::Noop,
            params_b: 0.0,
            gpu_mem_gib: 0.0,
            load_secs: Dist::constant(0.0),
            prompt_tokens_per_sec: f64::INFINITY,
            gen_tokens_per_sec: f64::INFINITY,
            per_request_overhead_secs: Dist::constant(0.0),
        }
    }

    /// Llama-3-8B-class model served by an Ollama-like host on an A100-class GPU.
    pub fn sim_llama_8b() -> Self {
        ModelSpec {
            name: "llama-8b".to_string(),
            kind: ModelKind::Llm,
            params_b: 8.0,
            gpu_mem_gib: 16.0,
            // Pulling weights from the filesystem + initialising the runtime: ~30 s,
            // with a long-ish tail (parallel filesystem contention).
            load_secs: Dist::lognormal_mean_cv(30.0, 0.15),
            prompt_tokens_per_sec: 900.0,
            gen_tokens_per_sec: 40.0,
            per_request_overhead_secs: Dist::normal(0.08, 0.02),
        }
    }

    /// Llama-3-70B-class model (multi-GPU class footprint) for scaling studies.
    pub fn sim_llama_70b() -> Self {
        ModelSpec {
            name: "llama-70b".to_string(),
            kind: ModelKind::Llm,
            params_b: 70.0,
            gpu_mem_gib: 140.0,
            load_secs: Dist::lognormal_mean_cv(180.0, 0.2),
            prompt_tokens_per_sec: 250.0,
            gen_tokens_per_sec: 12.0,
            per_request_overhead_secs: Dist::normal(0.15, 0.03),
        }
    }

    /// Mistral-7B-class model (used by the UQ pipeline's model comparison level).
    pub fn sim_mistral_7b() -> Self {
        ModelSpec {
            name: "mistral-7b".to_string(),
            kind: ModelKind::Llm,
            params_b: 7.0,
            gpu_mem_gib: 15.0,
            load_secs: Dist::lognormal_mean_cv(28.0, 0.15),
            prompt_tokens_per_sec: 950.0,
            gen_tokens_per_sec: 44.0,
            per_request_overhead_secs: Dist::normal(0.08, 0.02),
        }
    }

    /// ViT-base image classifier fine-tuned by the Cell Painting pipeline.
    pub fn sim_vit_base() -> Self {
        ModelSpec {
            name: "vit-base".to_string(),
            kind: ModelKind::ImageClassifier,
            params_b: 0.086,
            gpu_mem_gib: 2.0,
            load_secs: Dist::lognormal_mean_cv(8.0, 0.2),
            // For a classifier we interpret "tokens" as images.
            prompt_tokens_per_sec: 0.0,
            gen_tokens_per_sec: 120.0,
            per_request_overhead_secs: Dist::normal(0.01, 0.002),
        }
    }

    /// Look a catalog entry up by name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "noop" => Some(Self::noop()),
            "llama-8b" => Some(Self::sim_llama_8b()),
            "llama-70b" => Some(Self::sim_llama_70b()),
            "mistral-7b" => Some(Self::sim_mistral_7b()),
            "vit-base" => Some(Self::sim_vit_base()),
            _ => None,
        }
    }

    /// All catalog entries.
    pub fn catalog() -> Vec<Self> {
        vec![
            Self::noop(),
            Self::sim_llama_8b(),
            Self::sim_llama_70b(),
            Self::sim_mistral_7b(),
            Self::sim_vit_base(),
        ]
    }

    /// Whether the model fits on a GPU with `gpu_mem_gib` of memory.
    pub fn fits_gpu(&self, gpu_mem_gib: f64) -> bool {
        self.gpu_mem_gib <= gpu_mem_gib + 1e-9
    }

    /// Whether this is the NOOP model.
    pub fn is_noop(&self) -> bool {
        self.kind == ModelKind::Noop
    }

    /// Expected (mean) load time in seconds.
    pub fn mean_load_secs(&self) -> f64 {
        self.load_secs.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_expected_models() {
        let catalog = ModelSpec::catalog();
        assert_eq!(catalog.len(), 5);
        let names: Vec<&str> = catalog.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"noop"));
        assert!(names.contains(&"llama-8b"));
        for m in &catalog {
            assert_eq!(ModelSpec::by_name(&m.name).as_ref(), Some(m));
        }
        assert!(ModelSpec::by_name("gpt-5").is_none());
    }

    #[test]
    fn noop_is_free() {
        let noop = ModelSpec::noop();
        assert!(noop.is_noop());
        assert_eq!(noop.mean_load_secs(), 0.0);
        assert_eq!(noop.gpu_mem_gib, 0.0);
        assert!(noop.fits_gpu(0.0));
    }

    #[test]
    fn llama_8b_calibration_shape() {
        let m = ModelSpec::sim_llama_8b();
        assert!(!m.is_noop());
        // Load time dominates launch (~2 s) and publish (<1 s): paper Fig. 3.
        assert!(m.mean_load_secs() > 10.0);
        // Fits a single A100-40GB (Delta) and a single MI250X GCD (Frontier, 64 GB).
        assert!(m.fits_gpu(40.0));
        assert!(m.fits_gpu(64.0));
        assert!(!m.fits_gpu(8.0));
        // Generation is the slow part.
        assert!(m.gen_tokens_per_sec < m.prompt_tokens_per_sec);
    }

    #[test]
    fn bigger_models_cost_more() {
        let small = ModelSpec::sim_llama_8b();
        let big = ModelSpec::sim_llama_70b();
        assert!(big.gpu_mem_gib > small.gpu_mem_gib);
        assert!(big.mean_load_secs() > small.mean_load_secs());
        assert!(big.gen_tokens_per_sec < small.gen_tokens_per_sec);
        assert!(
            !big.fits_gpu(40.0),
            "llama-70b must not fit a single A100-40GB"
        );
    }

    #[test]
    fn vit_is_a_classifier() {
        let v = ModelSpec::sim_vit_base();
        assert_eq!(v.kind, ModelKind::ImageClassifier);
        assert!(v.fits_gpu(16.0));
    }
}
