//! The service API protocol: message kinds and header keys.
//!
//! Every service instance, regardless of the model it hosts, speaks this protocol over
//! its REQ/REP endpoint — this is the "unified API for ML models" of the paper's §III.
//! The protocol is deliberately model-agnostic: an inference request carries the
//! [`crate::request::InferenceRequest`] itself, shared with its client and never encoded
//! (a request message without one is answered with a [`KIND_ERROR`] reply); replies
//! carry the time-decomposition headers the metrics need. Overload is part of the
//! protocol: a service may answer a request with a [`KIND_SHED`] reply carrying a
//! retry-after hint instead of queueing it unboundedly.

/// Message kind: inference request (client → service).
pub const KIND_INFER_REQUEST: &str = "inference.request";
/// Message kind: inference reply (service → client).
pub const KIND_INFER_REPLY: &str = "inference.reply";
/// Message kind: readiness/liveness probe (manager → service).
pub const KIND_PING: &str = "service.ping";
/// Message kind: probe acknowledgement (service → manager).
pub const KIND_PONG: &str = "service.pong";
/// Message kind: orderly shutdown request (manager → service).
pub const KIND_SHUTDOWN: &str = "service.shutdown";
/// Message kind: error reply (service → client).
pub const KIND_ERROR: &str = "service.error";
/// Message kind: admission-control rejection (service → client). The reply carries
/// [`HDR_RETRY_AFTER_SECS`] — the service's estimate of when the queue will have
/// drained enough for a retry to be admitted.
pub const KIND_SHED: &str = "service.shed";

/// Header: time spent queued + parsing + serialising at the service, seconds.
pub const HDR_SERVICE_SECS: &str = "svc.service_secs";
/// Header: the request's own time on the backend, from joining the running batch to
/// its end, seconds.
pub const HDR_INFERENCE_SECS: &str = "svc.inference_secs";
/// Header: name of the model that served the request.
pub const HDR_MODEL: &str = "svc.model";
/// Header: request identifier.
pub const HDR_REQUEST_ID: &str = "svc.request_id";
/// Header: number of generated tokens.
pub const HDR_COMPLETION_TOKENS: &str = "svc.completion_tokens";
/// Header: number of prompt tokens.
pub const HDR_PROMPT_TOKENS: &str = "svc.prompt_tokens";
/// Header: error description on `KIND_ERROR` replies.
pub const HDR_ERROR: &str = "svc.error";
/// Header (request): the client's queueing-delay deadline in seconds. A service with
/// admission control sheds the request when its estimated queue delay exceeds this.
pub const HDR_DEADLINE_SECS: &str = "svc.deadline_secs";
/// Header ([`KIND_SHED`] reply): suggested virtual seconds to wait before retrying.
pub const HDR_RETRY_AFTER_SECS: &str = "svc.retry_after_secs";
/// Header (reply): width of the running batch this request joined, itself included.
pub const HDR_BATCH_SIZE: &str = "svc.batch_size";
/// Header (reply): virtual seconds from the request's admission to its dispatch to a
/// replica — its handling, as it passed on the clock.
pub const HDR_BATCH_WAIT_SECS: &str = "svc.batch_wait_secs";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_headers_are_distinct() {
        let all = [
            KIND_INFER_REQUEST,
            KIND_INFER_REPLY,
            KIND_PING,
            KIND_PONG,
            KIND_SHUTDOWN,
            KIND_ERROR,
            KIND_SHED,
            HDR_SERVICE_SECS,
            HDR_INFERENCE_SECS,
            HDR_MODEL,
            HDR_REQUEST_ID,
            HDR_COMPLETION_TOKENS,
            HDR_PROMPT_TOKENS,
            HDR_ERROR,
            HDR_DEADLINE_SECS,
            HDR_RETRY_AFTER_SECS,
            HDR_BATCH_SIZE,
            HDR_BATCH_WAIT_SECS,
        ];
        let unique: std::collections::HashSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
