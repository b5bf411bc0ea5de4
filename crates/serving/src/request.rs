//! Inference request and response types exchanged over the service API.
//!
//! Requests cross the wire as a small length-prefixed binary payload (the same codec
//! idiom as `hpcml_comm::Message`): a version byte followed by length-prefixed string
//! fields and a fixed-width token bound. [`InferenceRequest::decode_view`] decodes a
//! borrowed [`InferenceRequestView`] with zero allocation — the hot admission path
//! inspects ids without materialising owned strings — and malformed payloads surface
//! as a typed [`ProtocolError`] instead of a silent `None`.

use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::protocol::ProtocolError;

/// Wire version of the request payload codec.
const REQUEST_WIRE_VERSION: u8 = 1;

/// The [`hpcml_sim::ids`] namespace request identifiers are drawn from: request `7` is
/// `request.000007`.
pub const REQUEST_ID_NAMESPACE: &str = "request";

/// A single inference request submitted to a model service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Exact encoded payload size in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + 4 + self.request_id.len() + 4 + self.client_id.len() + 4 + 4 + self.prompt.len()
    }

    /// Encode to the binary wire payload.
    pub fn encode_payload(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        buf.put_u8(REQUEST_WIRE_VERSION);
        put_str(&mut buf, &self.request_id);
        put_str(&mut buf, &self.client_id);
        buf.put_u32(self.max_tokens);
        put_str(&mut buf, &self.prompt);
        debug_assert_eq!(buf.len(), self.encoded_len(), "encoded_len must be exact");
        buf.freeze()
    }

    /// Decode a borrowed, zero-allocation view of an encoded payload.
    pub fn decode_view(payload: &[u8]) -> Result<InferenceRequestView<'_>, ProtocolError> {
        let mut cur = Cursor {
            data: payload,
            at: 0,
        };
        let version = cur.u8("version")?;
        if version != REQUEST_WIRE_VERSION {
            return Err(ProtocolError::UnsupportedVersion(version));
        }
        let request_id = cur.str_field("request_id")?;
        let client_id = cur.str_field("client_id")?;
        let max_tokens = cur.u32("max_tokens")?;
        let prompt = cur.str_field("prompt")?;
        if cur.at != payload.len() {
            return Err(ProtocolError::TrailingBytes {
                extra: payload.len() - cur.at,
            });
        }
        Ok(InferenceRequestView {
            request_id,
            client_id,
            max_tokens,
            prompt,
        })
    }

    /// Decode an owned request from an encoded payload.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ProtocolError> {
        Self::decode_view(payload).map(|v| v.to_request())
    }
}

/// Borrowed decode of one request payload: every field points into the source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferenceRequestView<'a> {
    /// Client-assigned request identifier.
    pub request_id: &'a str,
    /// Identifier of the requesting client.
    pub client_id: &'a str,
    /// Upper bound on generated tokens.
    pub max_tokens: u32,
    /// Prompt text.
    pub prompt: &'a str,
}

impl InferenceRequestView<'_> {
    /// Materialise an owned [`InferenceRequest`] (copies; call once admission decided).
    pub fn to_request(&self) -> InferenceRequest {
        InferenceRequest {
            request_id: self.request_id.to_string(),
            prompt: self.prompt.to_string(),
            max_tokens: self.max_tokens,
            client_id: self.client_id.to_string(),
        }
    }
}

/// Borrowing cursor over an encoded payload (mirror of the `hpcml_comm` codec cursor,
/// with field names threaded through for typed errors).
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(ProtocolError::Truncated { field })?;
        if end > self.data.len() {
            return Err(ProtocolError::Truncated { field });
        }
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(
            self.take(4, field)?.try_into().expect("4 bytes"),
        ))
    }

    fn str_field(&mut self, field: &'static str) -> Result<&'a str, ProtocolError> {
        let len = self.u32(field)? as usize;
        let raw = self.take(len, field)?;
        std::str::from_utf8(raw).map_err(|_| ProtocolError::InvalidUtf8 { field })
    }
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// The result of serving one inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    fn payload_roundtrip() {
        let r =
            InferenceRequest::new("multi\nline\nprompt with newlines", 64).from_client("task.7");
        let encoded = r.encode_payload();
        assert_eq!(encoded.len(), r.encoded_len(), "encoded_len is exact");
        let decoded = InferenceRequest::decode_payload(&encoded).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn payload_roundtrip_preserves_hostile_field_contents() {
        // The seed-era newline-delimited codec could not carry newlines in the id or
        // client fields; the length-prefixed codec must round-trip anything.
        let r = InferenceRequest {
            request_id: "id\nwith\nnewlines".into(),
            prompt: "unicode ∞ prompt \0 with nul".into(),
            max_tokens: u32::MAX,
            client_id: "client\n\n".into(),
        };
        let decoded = InferenceRequest::decode_payload(&r.encode_payload()).unwrap();
        assert_eq!(decoded, r);
    }

    #[test]
    fn decode_view_borrows_from_the_buffer() {
        let r = InferenceRequest::new("zero copy decode", 32).from_client("task.9");
        let encoded = r.encode_payload();
        let view = InferenceRequest::decode_view(&encoded).unwrap();
        assert_eq!(view.request_id, r.request_id);
        assert_eq!(view.client_id, "task.9");
        assert_eq!(view.max_tokens, 32);
        assert_eq!(view.prompt, "zero copy decode");
        let buf_range = encoded.as_ptr() as usize..encoded.as_ptr() as usize + encoded.len();
        assert!(
            buf_range.contains(&(view.prompt.as_ptr() as usize)),
            "prompt borrows"
        );
        assert_eq!(view.to_request(), r);
    }

    #[test]
    fn decode_rejects_garbage_with_typed_errors() {
        assert_eq!(
            InferenceRequest::decode_view(b""),
            Err(ProtocolError::Truncated { field: "version" })
        );
        assert_eq!(
            InferenceRequest::decode_view(&[99]),
            Err(ProtocolError::UnsupportedVersion(99))
        );
        // Valid frame truncated at every prefix length must fail as Truncated.
        let encoded = InferenceRequest::new("p", 1)
            .from_client("c")
            .encode_payload();
        for cut in 0..encoded.len() {
            let err = InferenceRequest::decode_view(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::Truncated { .. } | ProtocolError::UnsupportedVersion(_)
                ),
                "cut at {cut}: {err:?}"
            );
        }
        // Trailing bytes after a complete frame are corruption, not padding.
        let mut extra = encoded.to_vec();
        extra.push(0);
        assert_eq!(
            InferenceRequest::decode_view(&extra),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let r = InferenceRequest::new("ok", 1).from_client("c");
        let mut raw = r.encode_payload().to_vec();
        // Corrupt the last prompt byte into an invalid UTF-8 continuation.
        let n = raw.len();
        raw[n - 1] = 0xFF;
        assert_eq!(
            InferenceRequest::decode_view(&raw),
            Err(ProtocolError::InvalidUtf8 { field: "prompt" })
        );
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
