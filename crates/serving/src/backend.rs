//! Model backends: the pure duration/token model behind a hosted capability.
//!
//! A [`ModelBackend`] does not sleep or touch the clock; it only *computes* what an
//! inference would cost alone (tokens produced, seconds of GPU time). A replica of the
//! serving plane spends that time on the virtual clock, at [`progress_rate`] of the
//! sequences sharing the backend with it, which keeps backends trivially testable and
//! deterministic under a fixed RNG seed.

use bytes::Bytes;
use rand::Rng;

use hpcml_sim::dist::Dist;

use crate::model::{ModelKind, ModelSpec};
use crate::request::InferenceRequest;

/// Outcome of one backend inference computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendResult {
    /// Generated text, as the payload a reply carries it in: a backend that answers
    /// every request alike (NOOP) hands out views of one buffer.
    pub text: Bytes,
    /// Prompt tokens processed.
    pub prompt_tokens: u32,
    /// Tokens generated.
    pub completion_tokens: u32,
    /// GPU/compute seconds the inference takes.
    pub compute_secs: f64,
}

/// Marginal decode-step cost of each additional sequence in a continuous batch,
/// relative to a solo sequence. Auto-regressive decoding is memory-bandwidth-bound, so
/// adding a sequence to a decode step costs far less than a full extra step — this
/// calibration (~15%) reproduces the 3-4x throughput win of continuous batching at
/// batch size 8 reported for vLLM-class servers.
pub const MARGINAL_DECODE_COST: f64 = 0.15;

/// The batch size [`MARGINAL_DECODE_COST`] is calibrated at, and so the default cap on
/// the sequences a replica runs at once.
pub const CALIBRATED_BATCH_SIZE: usize = 8;

/// How fast each of `width` sequences sharing the backend progresses, in solo seconds
/// per second: every decode step serves all of them, at [`MARGINAL_DECODE_COST`] extra
/// per sequence beyond the first. A sequence alone runs at its solo cost; eight of
/// equal cost end together 3.9× sooner than one after another would.
pub fn progress_rate(width: usize) -> f64 {
    1.0 / (1.0 + MARGINAL_DECODE_COST * width.saturating_sub(1) as f64)
}

/// A servable model implementation.
pub trait ModelBackend: Send + Sync {
    /// The model specification this backend implements.
    fn spec(&self) -> &ModelSpec;

    /// Sample the model load/initialisation duration in seconds.
    fn sample_load_secs<'a>(&self, rng: &mut (dyn rand::RngCore + 'a)) -> f64;

    /// Compute the result of one inference request.
    fn infer<'a>(
        &self,
        request: &InferenceRequest,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> BackendResult;
}

/// The NOOP backend: replies immediately with a static response (experiment 2).
#[derive(Debug, Clone)]
pub struct NoopBackend {
    spec: ModelSpec,
    /// The static response.
    text: Bytes,
}

impl NoopBackend {
    /// Create a NOOP backend.
    pub fn new() -> Self {
        NoopBackend {
            spec: ModelSpec::noop(),
            text: Bytes::from_static(b"noop"),
        }
    }
}

impl Default for NoopBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelBackend for NoopBackend {
    fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    fn sample_load_secs<'a>(&self, _rng: &mut (dyn rand::RngCore + 'a)) -> f64 {
        0.0
    }

    fn infer<'a>(
        &self,
        request: &InferenceRequest,
        _rng: &mut (dyn rand::RngCore + 'a),
    ) -> BackendResult {
        BackendResult {
            text: self.text.clone(),
            prompt_tokens: request.prompt_tokens(),
            completion_tokens: 0,
            compute_secs: 0.0,
        }
    }
}

/// Simulated LLM backend: prompt processing + auto-regressive generation at the rates
/// given by the [`ModelSpec`], with a small per-request overhead and stochastic output
/// length.
#[derive(Debug, Clone)]
pub struct SimLlmBackend {
    spec: ModelSpec,
    /// Fraction of `max_tokens` actually generated (models early stop tokens).
    output_fraction: Dist,
}

impl SimLlmBackend {
    /// Create a backend for the given model specification.
    pub fn new(spec: ModelSpec) -> Self {
        assert!(
            spec.kind != ModelKind::Noop,
            "use NoopBackend for the noop model"
        );
        SimLlmBackend {
            spec,
            output_fraction: Dist::TruncatedNormal {
                mean: 0.85,
                std: 0.15,
                lo: 0.2,
                hi: 1.0,
            },
        }
    }

    /// Llama-8b backend with catalog calibration.
    pub fn llama_8b() -> Self {
        Self::new(ModelSpec::sim_llama_8b())
    }

    fn generated_tokens<R: Rng + ?Sized>(&self, max_tokens: u32, rng: &mut R) -> u32 {
        if self.spec.kind == ModelKind::ImageClassifier {
            // A classifier emits a single label per request.
            return 1;
        }
        let frac = self.output_fraction.sample(rng);
        ((max_tokens as f64) * frac).round().max(1.0) as u32
    }
}

impl ModelBackend for SimLlmBackend {
    fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    fn sample_load_secs<'a>(&self, rng: &mut (dyn rand::RngCore + 'a)) -> f64 {
        self.spec.load_secs.sample(rng).max(0.0)
    }

    fn infer<'a>(
        &self,
        request: &InferenceRequest,
        rng: &mut (dyn rand::RngCore + 'a),
    ) -> BackendResult {
        let prompt_tokens = request.prompt_tokens();
        let completion_tokens = self.generated_tokens(request.max_tokens, rng);
        let prompt_secs = if self.spec.prompt_tokens_per_sec > 0.0
            && self.spec.prompt_tokens_per_sec.is_finite()
        {
            prompt_tokens as f64 / self.spec.prompt_tokens_per_sec
        } else {
            0.0
        };
        let gen_secs = if self.spec.gen_tokens_per_sec.is_finite() {
            completion_tokens as f64 / self.spec.gen_tokens_per_sec
        } else {
            0.0
        };
        let overhead = self.spec.per_request_overhead_secs.sample(rng).max(0.0);
        let compute_secs = prompt_secs + gen_secs + overhead;
        BackendResult {
            text: synth_completion(&self.spec.name, completion_tokens).into(),
            prompt_tokens,
            completion_tokens,
            compute_secs,
        }
    }
}

/// Deterministic synthetic completion text of roughly `tokens` tokens.
fn synth_completion(model: &str, tokens: u32) -> String {
    let mut out = String::with_capacity(tokens as usize * 6);
    out.push_str("[generated by ");
    out.push_str(model);
    out.push(']');
    for i in 0..tokens {
        out.push_str(" tok");
        out.push_str(&(i % 97).to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn request(words: usize, max_tokens: u32) -> InferenceRequest {
        let prompt = vec!["radiation"; words].join(" ");
        InferenceRequest::new(prompt, max_tokens)
    }

    #[test]
    fn noop_backend_is_free() {
        let b = NoopBackend::new();
        let mut r = rng();
        assert_eq!(b.sample_load_secs(&mut r), 0.0);
        let res = b.infer(&request(20, 128), &mut r);
        assert_eq!(res.compute_secs, 0.0);
        assert_eq!(res.completion_tokens, 0);
        assert_eq!(&res.text[..], b"noop");
        assert!(b.spec().is_noop());
    }

    #[test]
    fn llm_inference_dominated_by_generation() {
        let b = SimLlmBackend::llama_8b();
        let mut r = rng();
        let res = b.infer(&request(100, 256), &mut r);
        assert!(res.completion_tokens >= 1 && res.completion_tokens <= 256);
        // ≥ 51 tokens at 40 tok/s ≈ ≥ 1.3 s; must greatly exceed communication (~ms).
        assert!(res.compute_secs > 0.5, "compute {:.3}s", res.compute_secs);
        assert!(res.prompt_tokens > 100);
        assert!(!res.text.is_empty());
    }

    #[test]
    fn llm_load_time_is_tens_of_seconds() {
        let b = SimLlmBackend::llama_8b();
        let mut r = rng();
        let mean: f64 = (0..200).map(|_| b.sample_load_secs(&mut r)).sum::<f64>() / 200.0;
        assert!((mean - 30.0).abs() < 5.0, "mean load {mean}");
    }

    #[test]
    fn longer_outputs_cost_more() {
        let b = SimLlmBackend::llama_8b();
        let mut r = rng();
        let short: f64 = (0..50)
            .map(|_| b.infer(&request(10, 16), &mut r).compute_secs)
            .sum::<f64>()
            / 50.0;
        let long: f64 = (0..50)
            .map(|_| b.infer(&request(10, 512), &mut r).compute_secs)
            .sum::<f64>()
            / 50.0;
        assert!(long > 4.0 * short, "long {long} vs short {short}");
    }

    #[test]
    fn classifier_emits_single_label() {
        let b = SimLlmBackend::new(ModelSpec::sim_vit_base());
        let mut r = rng();
        let res = b.infer(&request(5, 128), &mut r);
        assert_eq!(res.completion_tokens, 1);
        assert!(res.compute_secs < 0.1);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let b = SimLlmBackend::llama_8b();
        let req = request(30, 64);
        let a = {
            let mut r = StdRng::seed_from_u64(5);
            b.infer(&req, &mut r)
        };
        let c = {
            let mut r = StdRng::seed_from_u64(5);
            b.infer(&req, &mut r)
        };
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "NoopBackend")]
    fn sim_backend_rejects_noop_spec() {
        let _ = SimLlmBackend::new(ModelSpec::noop());
    }

    /// When `solos` sequences begun together end, each progressing at
    /// [`progress_rate`] of the width still live: the shortest ends first and frees its
    /// share for the rest.
    fn all_ended_secs(mut solos: Vec<f64>) -> f64 {
        solos.sort_by(f64::total_cmp);
        let (mut done, mut elapsed) = (0.0, 0.0);
        for (ended, solo) in solos.iter().enumerate() {
            elapsed += (solo - done) / progress_rate(solos.len() - ended);
            done = *solo;
        }
        elapsed
    }

    #[test]
    fn sequences_sharing_the_backend_are_sublinear_and_bounded_by_serial() {
        let b = SimLlmBackend::llama_8b();
        let mut r = rng();
        assert_eq!(
            progress_rate(1),
            1.0,
            "a sequence alone runs at its solo cost"
        );
        for width in [2, 3, 8] {
            let solos: Vec<f64> = (0..width)
                .map(|_| b.infer(&request(30, 128), &mut r).compute_secs)
                .collect();
            let serial: f64 = solos.iter().sum();
            let slowest = solos.iter().copied().fold(0.0, f64::max);
            let together = all_ended_secs(solos);
            assert!(
                together >= slowest,
                "{width} wide: no earlier than the slowest solo ({together} < {slowest})"
            );
            assert!(
                together <= serial,
                "{width} wide: no later than one after another ({together} > {serial})"
            );
            if width == 8 {
                assert!(
                    serial / together >= 1.5,
                    "8-wide must be >= 1.5x serial: {serial} vs {together}"
                );
            }
        }
    }
}
