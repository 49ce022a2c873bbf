//! Error type shared by all homomorphic-encryption schemes in this crate.

use std::fmt;

/// Errors produced by FHE parameter validation and homomorphic operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FheError {
    /// A parameter set failed validation (ring degree, prime sizes, …).
    InvalidParams(String),
    /// Two ciphertexts have incompatible levels for the requested operation.
    LevelMismatch { lhs: usize, rhs: usize },
    /// Two ciphertexts have incompatible scales for the requested operation.
    ScaleMismatch { lhs: f64, rhs: f64 },
    /// No modulus level remains to drop (rescale at the bottom of the chain).
    LevelExhausted,
    /// The plaintext does not fit the available slots or message modulus.
    PlaintextTooLarge { len: usize, capacity: usize },
    /// A plaintext slot value is NaN or infinite (`index` is the first).
    NonFinitePlaintext { index: usize },
    /// A plaintext value exceeds the scheme's message modulus.
    MessageOutOfRange { value: i64, modulus: u64 },
    /// A ciphertext cannot be encoded in the requested wire format.
    Serialize(String),
    /// A serialized ciphertext could not be parsed.
    Deserialize(String),
}

impl fmt::Display for FheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FheError::InvalidParams(msg) => write!(f, "invalid FHE parameters: {msg}"),
            FheError::LevelMismatch { lhs, rhs } => {
                write!(f, "ciphertext level mismatch: {lhs} vs {rhs}")
            }
            FheError::ScaleMismatch { lhs, rhs } => {
                write!(f, "ciphertext scale mismatch: {lhs} vs {rhs}")
            }
            FheError::LevelExhausted => write!(f, "no modulus level left to rescale"),
            FheError::PlaintextTooLarge { len, capacity } => {
                write!(f, "plaintext of {len} values exceeds capacity {capacity}")
            }
            FheError::NonFinitePlaintext { index } => {
                write!(f, "plaintext value at slot {index} is not finite")
            }
            FheError::MessageOutOfRange { value, modulus } => {
                write!(f, "message {value} outside plaintext modulus {modulus}")
            }
            FheError::Serialize(msg) => write!(f, "ciphertext serialization failed: {msg}"),
            FheError::Deserialize(msg) => write!(f, "ciphertext deserialization failed: {msg}"),
        }
    }
}

impl std::error::Error for FheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FheError::LevelMismatch { lhs: 2, rhs: 1 };
        assert!(e.to_string().contains("2 vs 1"));
        let e = FheError::ScaleMismatch { lhs: 1024.0, rhs: 2048.0 };
        assert!(e.to_string().contains("scale"));
        let e = FheError::InvalidParams("n must be a power of two".into());
        assert!(e.to_string().contains("power of two"));
    }

    #[test]
    fn error_trait_object_compatible() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<FheError>();
    }
}
