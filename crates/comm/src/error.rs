//! Error type shared by all communication primitives.

use std::fmt;

/// Errors raised by the messaging layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer endpoint hung up (channel disconnected).
    Disconnected,
    /// A blocking receive or request timed out.
    Timeout,
    /// A named endpoint was not found in the registry.
    EndpointNotFound(String),
    /// The endpoint name is already registered.
    AlreadyRegistered(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected => write!(f, "peer endpoint disconnected"),
            CommError::Timeout => write!(f, "operation timed out"),
            CommError::EndpointNotFound(name) => write!(f, "endpoint not found: {name}"),
            CommError::AlreadyRegistered(name) => write!(f, "endpoint already registered: {name}"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CommError::Disconnected.to_string().contains("disconnected"));
        assert!(CommError::Timeout.to_string().contains("timed out"));
        assert!(CommError::EndpointNotFound("svc".into())
            .to_string()
            .contains("svc"));
        assert!(CommError::AlreadyRegistered("svc".into())
            .to_string()
            .contains("svc"));
    }
}
