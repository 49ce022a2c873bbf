//! Error type for the Rhychee-FL framework.

use std::fmt;

use rhychee_fhe::FheError;

/// Errors produced by federated-learning configuration and execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlError {
    /// Invalid framework configuration.
    InvalidConfig(String),
    /// The dataset cannot support the requested setup.
    DataError(String),
    /// An underlying homomorphic-encryption operation failed.
    Fhe(FheError),
    /// The LWE noise budget cannot support the client count.
    NoiseBudget { clients: usize, budget: usize },
    /// The aggregator broke an invariant mid-round and had to abandon
    /// the fold (e.g. closing a sum no upload ever reached). Distinct
    /// from a per-upload rejection —
    /// those NACK the one upload and leave the round running.
    StreamingAbort(String),
    /// A model payload is malformed: wrong tag, a count above its cap,
    /// truncation or trailing bytes ([`crate::codec`]).
    Payload(String),
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlError::InvalidConfig(msg) => write!(f, "invalid FL configuration: {msg}"),
            FlError::DataError(msg) => write!(f, "dataset error: {msg}"),
            FlError::Fhe(e) => write!(f, "FHE operation failed: {e}"),
            FlError::NoiseBudget { clients, budget } => write!(
                f,
                "LWE noise budget supports only {budget} additions, but {clients} clients requested"
            ),
            FlError::StreamingAbort(msg) => {
                write!(f, "streaming aggregation aborted: {msg}")
            }
            FlError::Payload(msg) => write!(f, "malformed model payload: {msg}"),
        }
    }
}

impl std::error::Error for FlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlError::Fhe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FheError> for FlError {
    fn from(e: FheError) -> Self {
        FlError::Fhe(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FlError::InvalidConfig("clients must be positive".into());
        assert!(e.to_string().contains("clients"));
        let e: FlError = FheError::LevelExhausted.into();
        assert!(matches!(e, FlError::Fhe(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e = FlError::NoiseBudget { clients: 100, budget: 79 };
        assert!(e.to_string().contains("79"));
    }
}
