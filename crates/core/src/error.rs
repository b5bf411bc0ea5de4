//! The runtime's error type.

use std::fmt;

use hpcml_comm::CommError;
use hpcml_platform::{BatchError, ResourceError};

/// Errors surfaced through the runtime's public API.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The platform's batch system rejected a pilot request.
    Batch(BatchError),
    /// Slot allocation failed in a way that cannot be retried.
    Resource(ResourceError),
    /// A messaging operation failed.
    Comm(CommError),
    /// An entity was referenced that the session does not know about.
    UnknownEntity(String),
    /// An operation was attempted in an illegal state (e.g. submitting a task before
    /// any pilot is active).
    InvalidState(String),
    /// Waiting for a state change timed out.
    WaitTimeout {
        /// Entity waited on.
        entity: String,
        /// State that was awaited.
        awaited: String,
    },
    /// A task or service failed; the payload carries the reason.
    Failed(String),
    /// A service a task depends on ended without publishing its endpoint.
    DependencyFailed {
        /// The service's name.
        service: String,
        /// Its failure reason, or the state it ended in.
        reason: String,
    },
    /// The session is already closed.
    SessionClosed,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Batch(e) => write!(f, "batch system error: {e}"),
            RuntimeError::Resource(e) => write!(f, "resource error: {e}"),
            RuntimeError::Comm(e) => write!(f, "communication error: {e}"),
            RuntimeError::UnknownEntity(id) => write!(f, "unknown entity: {id}"),
            RuntimeError::InvalidState(msg) => write!(f, "invalid state: {msg}"),
            RuntimeError::WaitTimeout { entity, awaited } => {
                write!(f, "timed out waiting for {entity} to reach {awaited}")
            }
            RuntimeError::Failed(reason) => write!(f, "entity failed: {reason}"),
            RuntimeError::DependencyFailed { service, reason } => {
                write!(f, "service {service} ended unpublished: {reason}")
            }
            RuntimeError::SessionClosed => write!(f, "session is closed"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<BatchError> for RuntimeError {
    fn from(e: BatchError) -> Self {
        RuntimeError::Batch(e)
    }
}

impl From<ResourceError> for RuntimeError {
    fn from(e: ResourceError) -> Self {
        RuntimeError::Resource(e)
    }
}

impl From<CommError> for RuntimeError {
    fn from(e: CommError) -> Self {
        RuntimeError::Comm(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: RuntimeError = BatchError::EmptyRequest.into();
        assert!(matches!(e, RuntimeError::Batch(_)));
        assert!(e.to_string().contains("batch"));

        let e: RuntimeError = ResourceError::InsufficientResources.into();
        assert!(e.to_string().contains("resource"));

        let e: RuntimeError = CommError::Timeout.into();
        assert!(e.to_string().contains("communication"));

        assert!(RuntimeError::UnknownEntity("task.1".into())
            .to_string()
            .contains("task.1"));
        assert!(RuntimeError::WaitTimeout {
            entity: "svc.1".into(),
            awaited: "Ready".into()
        }
        .to_string()
        .contains("Ready"));
        assert!(RuntimeError::SessionClosed.to_string().contains("closed"));
        let e = RuntimeError::DependencyFailed {
            service: "llm-0".into(),
            reason: "model does not fit".into(),
        };
        assert!(e.to_string().contains("llm-0") && e.to_string().contains("fit"));
        assert!(RuntimeError::Failed("boom".into())
            .to_string()
            .contains("boom"));
        assert!(RuntimeError::InvalidState("no pilot".into())
            .to_string()
            .contains("no pilot"));
    }
}
