//! The model host: an Ollama stand-in.
//!
//! A [`ModelHost`] owns one [`ModelBackend`], loads it (spending the load time on the
//! virtual clock — this is the `init` component of the paper's bootstrap time), and then
//! begins requests on it one at a time ([`ModelHost::begin`]): the backend call that
//! says what a request costs alone. A replica of the serving plane spends that cost on
//! the clock while the request shares the backend in a batch of up to `max_batch_size`,
//! each member joining when it is dispatched and leaving when its own time is up. With
//! `ServingConfig::max_batch_size(1)` that is one request at a time, exactly like the
//! paper's current implementation: "services are single-threaded, and, as such, they
//! only handle one request at a time, queuing further incoming requests" (§IV-A).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use hpcml_sim::clock::SharedClock;
use hpcml_sim::pool::OwnLine;

use crate::backend::{BackendResult, ModelBackend, NoopBackend, SimLlmBackend};
use crate::model::{ModelKind, ModelSpec};
use crate::request::{InferenceRequest, InferenceResponse};

/// Errors raised by a model host.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// A request arrived before the model finished loading.
    NotLoaded,
    /// The model does not fit the GPU memory of the slot it was placed on.
    InsufficientGpuMemory {
        /// GiB needed by the model.
        needed_gib: f64,
        /// GiB available on the assigned GPU.
        available_gib: f64,
    },
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::NotLoaded => write!(f, "model is not loaded yet"),
            HostError::InsufficientGpuMemory { needed_gib, available_gib } => write!(
                f,
                "model needs {needed_gib:.1} GiB of GPU memory but only {available_gib:.1} GiB is available"
            ),
        }
    }
}

impl std::error::Error for HostError {}

/// What a host writes per request, behind one lock and on one cache line.
struct Drawn {
    rng: StdRng,
    requests_served: u64,
}

/// Hosts one model instance: load once, then serve requests sequentially.
pub struct ModelHost {
    backend: Box<dyn ModelBackend>,
    clock: SharedClock,
    loaded: AtomicBool,
    drawn: OwnLine<Mutex<Drawn>>,
    /// Serialises request handling: a single-threaded backend can only run one
    /// inference at a time even if multiple serve threads share the host.
    serve_lock: Mutex<()>,
}

impl std::fmt::Debug for ModelHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHost")
            .field("model", &self.backend.spec().name)
            .field("loaded", &self.is_loaded())
            .field("requests_served", &self.requests_served())
            .finish()
    }
}

impl ModelHost {
    /// Create a host around an explicit backend.
    pub fn new(backend: Box<dyn ModelBackend>, clock: SharedClock, seed: u64) -> Self {
        ModelHost {
            backend,
            clock,
            loaded: AtomicBool::new(false),
            drawn: OwnLine(Mutex::new(Drawn {
                rng: StdRng::seed_from_u64(seed),
                requests_served: 0,
            })),
            serve_lock: Mutex::new(()),
        }
    }

    /// Create a host for a catalog model, choosing the right backend kind.
    pub fn from_spec(spec: ModelSpec, clock: SharedClock, seed: u64) -> Self {
        let backend: Box<dyn ModelBackend> = match spec.kind {
            ModelKind::Noop => Box::new(NoopBackend::new()),
            _ => Box::new(SimLlmBackend::new(spec)),
        };
        Self::new(backend, clock, seed)
    }

    /// The hosted model's specification.
    pub fn spec(&self) -> &ModelSpec {
        self.backend.spec()
    }

    /// Whether [`ModelHost::load`] has completed.
    pub fn is_loaded(&self) -> bool {
        self.loaded.load(Ordering::Acquire)
    }

    /// Number of requests handed to the backend so far.
    pub fn requests_served(&self) -> u64 {
        self.drawn.lock().requests_served
    }

    /// Check that the model fits a GPU with `available_gib` of memory.
    pub fn check_gpu_fit(&self, available_gib: f64) -> Result<(), HostError> {
        let spec = self.backend.spec();
        if spec.fits_gpu(available_gib) {
            Ok(())
        } else {
            Err(HostError::InsufficientGpuMemory {
                needed_gib: spec.gpu_mem_gib,
                available_gib,
            })
        }
    }

    /// Load and initialise the model, spending the sampled load time on the virtual
    /// clock. Returns the load duration in seconds. Loading twice is a no-op.
    pub fn load(&self) -> f64 {
        if self.loaded.swap(true, Ordering::AcqRel) {
            return 0.0;
        }
        let load_secs = self.backend.sample_load_secs(&mut self.drawn.lock().rng);
        self.clock.sleep(Duration::from_secs_f64(load_secs));
        load_secs
    }

    /// Serve one inference request, spending its compute time on the virtual clock
    /// under the serve lock: [`ModelHost::begin`] and a sleep, for callers that can
    /// block. A replica of the serving plane parks on a timer instead.
    ///
    /// The returned response has `service_secs = 0`; the service layer that owns the
    /// endpoint fills in queueing/parsing time.
    pub fn handle(&self, request: &InferenceRequest) -> Result<InferenceResponse, HostError> {
        let _guard = self.serve_lock.lock();
        let result = self.begin(request)?;
        self.clock
            .sleep(Duration::from_secs_f64(result.compute_secs));
        Ok(InferenceResponse {
            request_id: request.request_id.clone(),
            text: String::from_utf8_lossy(&result.text).into_owned(),
            prompt_tokens: result.prompt_tokens,
            completion_tokens: result.completion_tokens,
            inference_secs: result.compute_secs,
            service_secs: 0.0,
            model: self.backend.spec().name.clone(),
        })
    }

    /// Make the backend call for `request` and learn what it costs alone, without
    /// spending that time: the caller lets it pass on the clock and then answers from
    /// the result.
    pub fn begin(&self, request: &InferenceRequest) -> Result<BackendResult, HostError> {
        if !self.is_loaded() {
            return Err(HostError::NotLoaded);
        }
        let mut drawn = self.drawn.lock();
        drawn.requests_served += 1;
        Ok(self.backend.infer(request, &mut drawn.rng))
    }

    /// The clock this host spends time on.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

/// Convenience constructor used throughout the tests and benches.
pub fn shared_host(spec: ModelSpec, clock: SharedClock, seed: u64) -> Arc<ModelHost> {
    Arc::new(ModelHost::from_spec(spec, clock, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcml_sim::clock::ClockSpec;

    fn clock() -> SharedClock {
        ClockSpec::scaled(100_000.0).build()
    }

    #[test]
    fn load_spends_virtual_time_once() {
        let c = clock();
        let host = ModelHost::from_spec(ModelSpec::sim_llama_8b(), std::sync::Arc::clone(&c), 1);
        assert!(!host.is_loaded());
        let t0 = c.now();
        let load = host.load();
        assert!(
            load > 10.0,
            "llama-8b load should be tens of seconds, got {load}"
        );
        assert!(c.now().since(t0).as_secs_f64() >= load * 0.5);
        assert!(host.is_loaded());
        assert_eq!(host.load(), 0.0, "second load must be a no-op");
    }

    #[test]
    fn handle_before_load_fails() {
        let host = ModelHost::from_spec(ModelSpec::noop(), clock(), 2);
        let err = host.handle(&InferenceRequest::new("hi", 4)).unwrap_err();
        assert_eq!(err, HostError::NotLoaded);
    }

    #[test]
    fn noop_host_serves_instantly() {
        let c = clock();
        let host = ModelHost::from_spec(ModelSpec::noop(), std::sync::Arc::clone(&c), 3);
        assert_eq!(host.load(), 0.0);
        let resp = host.handle(&InferenceRequest::new("ping", 1)).unwrap();
        assert_eq!(resp.inference_secs, 0.0);
        assert_eq!(resp.model, "noop");
        assert_eq!(host.requests_served(), 1);
    }

    #[test]
    fn llm_host_spends_inference_time() {
        let c = clock();
        let host = ModelHost::from_spec(ModelSpec::sim_llama_8b(), std::sync::Arc::clone(&c), 4);
        host.load();
        let t0 = c.now();
        let resp = host
            .handle(&InferenceRequest::new("a ".repeat(50).as_str(), 128))
            .unwrap();
        let elapsed = c.now().since(t0).as_secs_f64();
        assert!(resp.inference_secs > 0.5);
        assert!(elapsed >= resp.inference_secs * 0.5);
        assert_eq!(resp.service_secs, 0.0);
        assert!(resp.server_side_secs() > 0.5);
    }

    #[test]
    fn begin_draws_what_handle_spends() {
        let c = clock();
        let request = InferenceRequest::new("b ".repeat(40), 96);
        let begun = ModelHost::from_spec(ModelSpec::sim_llama_8b(), Arc::clone(&c), 11);
        assert_eq!(begun.begin(&request).unwrap_err(), HostError::NotLoaded);
        let handled = ModelHost::from_spec(ModelSpec::sim_llama_8b(), Arc::clone(&c), 11);
        begun.load();
        handled.load();
        let result = begun.begin(&request).unwrap();
        let response = handled.handle(&request).unwrap();
        assert_eq!(response.inference_secs, result.compute_secs);
        assert_eq!(response.completion_tokens, result.completion_tokens);
        assert_eq!(begun.requests_served(), 1);
    }

    #[test]
    fn gpu_fit_check() {
        let host = ModelHost::from_spec(ModelSpec::sim_llama_70b(), clock(), 5);
        assert!(host.check_gpu_fit(200.0).is_ok());
        let err = host.check_gpu_fit(40.0).unwrap_err();
        assert!(matches!(err, HostError::InsufficientGpuMemory { .. }));
        assert!(err.to_string().contains("GiB"));
    }

    #[test]
    fn debug_and_clock_accessors() {
        let host = shared_host(ModelSpec::noop(), clock(), 6);
        assert!(format!("{host:?}").contains("noop"));
        assert!(host.clock().scale() > 1.0);
        assert!(host.spec().is_noop());
    }
}
