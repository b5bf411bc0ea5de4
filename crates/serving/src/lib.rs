//! # hpcml-serving — model hosting and serving substrate
//!
//! The paper hosts a Meta Llama 3 8B model with **Ollama** behind each service instance,
//! plus a **NOOP** model used to isolate communication overheads. Neither Ollama nor GPU
//! inference is available to this reproduction, so this crate rebuilds the serving
//! substrate with calibrated simulated backends:
//!
//! * [`model`] — [`ModelSpec`]: the model catalog entries (NOOP, llama-8b-class,
//!   llama-70b-class, mistral-7b-class, a ViT classifier) with load-time, prompt-eval
//!   and token-generation rate distributions and GPU memory footprints;
//! * [`backend`] — [`ModelBackend`]: turns an [`InferenceRequest`] into token counts and
//!   durations ([`NoopBackend`] replies instantly, [`SimLlmBackend`] models
//!   prompt-processing + auto-regressive generation);
//! * [`host`] — [`ModelHost`]: the Ollama stand-in. Loads a model (sleeping the sampled
//!   load time on the virtual clock — the `init` component of the paper's bootstrap
//!   time) and begins requests on its backend one at a time (the paper's services are
//!   single-threaded and queue further incoming requests: one request at a time is
//!   `ServingConfig::max_batch_size(1)`);
//! * [`config`] — [`ServingConfig`]: replicas, the batch cap (by default the batch size
//!   the backend's cost model is calibrated at), the admission bound and shedding;
//! * [`pool`] — [`ReplicaPool`]: N hosts behind one endpoint with
//!   least-outstanding-requests routing over lock-free per-replica counters, runtime
//!   scale-up and drain-based scale-down; a replica is a resumable run — not a
//!   thread — that admits requests at decode-step granularity: one dispatched to a
//!   replica with fewer than `max_batch_size` live sequences joins the running batch
//!   at once, on the thread that dispatches it, every live sequence progresses at
//!   [`backend::progress_rate`] of the batch's width, each is answered when its own
//!   time is up, only requests beyond the cap queue, and the replica parks on a timer
//!   until the next sequence ends;
//! * [`service`] — [`InferenceService`]: the admission front-end binding a
//!   [`hpcml_comm::ReqRepServer`] endpoint to the serving plane — requests that
//!   arrive as shared values, never encoded, deadline-aware admission control with
//!   load shedding and replica routing — decomposing each reply into the paper's `service` and
//!   `inference` time components; a resumable run too, advanced by the client thread
//!   that sends a request and carries it into the pass, so a request that never waits
//!   is never queued and never changes threads;
//! * [`protocol`] — the message kinds and header keys of the service API (inference
//!   requests/replies, readiness probes, shedding, shutdown).
//!
//! The calibration constants (load ≈ 30 s, ≈ 40 generated tokens/s for an 8B model on an
//! A100-class GPU) reproduce the paper's qualitative result: model initialisation
//! dominates bootstrap, and inference duration dominates response time by orders of
//! magnitude over communication.

#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod host;
pub mod model;
pub mod pool;
pub mod protocol;
pub mod request;
pub mod service;

pub use backend::{ModelBackend, NoopBackend, SimLlmBackend};
pub use config::ServingConfig;
pub use host::ModelHost;
pub use model::{ModelKind, ModelSpec};
pub use pool::ReplicaPool;
pub use request::{InferenceRequest, InferenceResponse};
pub use service::InferenceService;
