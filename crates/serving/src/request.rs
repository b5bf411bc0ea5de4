//! Inference request and response types exchanged over the service API.
//!
//! A request travels to its service as a value: the client shares one
//! [`InferenceRequest`] with the request message
//! ([`crate::service::inference_request_message`]), the service's front-end reads the
//! ids from it and hands the same request on to a replica. Nothing encodes or decodes
//! it; the link prices it by [`InferenceRequest::wire_len`], what it would weigh on a
//! length-prefixed wire.

/// The [`hpcml_sim::ids`] namespace request identifiers are drawn from: request `7` is
/// `request.000007`.
pub const REQUEST_ID_NAMESPACE: &str = "request";

/// A single inference request submitted to a model service.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// Client-assigned request identifier.
    pub request_id: String,
    /// Prompt text (or image descriptor for classifier models).
    pub prompt: String,
    /// Upper bound on generated tokens.
    pub max_tokens: u32,
    /// Identifier of the requesting client (task id).
    pub client_id: String,
}

impl InferenceRequest {
    /// Create a request with a generated identifier.
    pub fn new(prompt: impl Into<String>, max_tokens: u32) -> Self {
        InferenceRequest {
            request_id: hpcml_sim::ids::next_id(REQUEST_ID_NAMESPACE),
            prompt: prompt.into(),
            max_tokens,
            client_id: String::new(),
        }
    }

    /// Attach the requesting client's identifier.
    pub fn from_client(mut self, client_id: impl Into<String>) -> Self {
        self.client_id = client_id.into();
        self
    }

    /// Give the request a fresh identifier, written over the old one, and return its
    /// index in [`REQUEST_ID_NAMESPACE`]. A closed-loop client that sends the same
    /// prompt again renews one request instead of building the next: no prompt is
    /// copied and no identifier allocated.
    pub fn renew_id(&mut self) -> u64 {
        let index = hpcml_sim::ids::next_index(REQUEST_ID_NAMESPACE);
        self.request_id.clear();
        hpcml_sim::ids::write_id(&mut self.request_id, REQUEST_ID_NAMESPACE, index);
        index
    }

    /// Rough prompt length in tokens (whitespace tokenisation ≈ 1.3 tokens per word,
    /// which is accurate enough for duration modelling).
    pub fn prompt_tokens(&self) -> u32 {
        let words = self.prompt.split_whitespace().count() as f64;
        (words * 1.3).ceil() as u32
    }

    /// What the request would weigh on a length-prefixed wire, in bytes: a version
    /// byte, then `request_id`, `client_id`, the 4-byte `max_tokens` and `prompt`, each
    /// string after a 4-byte length.
    pub fn wire_len(&self) -> usize {
        1 + 4 + self.request_id.len() + 4 + self.client_id.len() + 4 + 4 + self.prompt.len()
    }
}

/// The result of serving one inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResponse {
    /// The request this responds to.
    pub request_id: String,
    /// Generated text (synthetic in this reproduction).
    pub text: String,
    /// Number of prompt tokens processed.
    pub prompt_tokens: u32,
    /// Number of tokens generated.
    pub completion_tokens: u32,
    /// Pure model compute time, seconds (the paper's `inference` component).
    pub inference_secs: f64,
    /// Time spent queued and being parsed/serialised by the service, seconds (the
    /// paper's `service` component).
    pub service_secs: f64,
    /// Name of the model that served the request.
    pub model: String,
}

impl InferenceResponse {
    /// Total time spent at the service (queue + handling + compute).
    pub fn server_side_secs(&self) -> f64 {
        self.inference_secs + self.service_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builder_and_token_estimate() {
        let r = InferenceRequest::new("what is the mechanism of low dose radiation damage", 128)
            .from_client("task.000001");
        assert_eq!(r.max_tokens, 128);
        assert_eq!(r.client_id, "task.000001");
        assert!(r.request_id.starts_with("request."));
        // 9 words * 1.3 = 11.7 -> 12 tokens
        assert_eq!(r.prompt_tokens(), 12);
    }

    #[test]
    fn a_renewed_request_has_the_id_a_new_one_would_have_got() {
        let mut r = InferenceRequest::new("again", 8).from_client("task.000001");
        let before = r.request_id.clone();
        let index = r.renew_id();
        assert_ne!(r.request_id, before);
        assert_eq!(
            r.request_id,
            hpcml_sim::ids::format_id(REQUEST_ID_NAMESPACE, index)
        );
        assert_eq!(
            (r.prompt.as_str(), r.client_id.as_str()),
            ("again", "task.000001")
        );
    }

    #[test]
    fn empty_prompt_has_zero_tokens() {
        let r = InferenceRequest::new("", 8);
        assert_eq!(r.prompt_tokens(), 0);
    }

    #[test]
    fn response_totals() {
        let resp = InferenceResponse {
            request_id: "request.000001".into(),
            text: "answer".into(),
            prompt_tokens: 10,
            completion_tokens: 50,
            inference_secs: 2.5,
            service_secs: 0.01,
            model: "llama-8b".into(),
        };
        assert!((resp.server_side_secs() - 2.51).abs() < 1e-12);
    }
}
