//! Error types shared across the suite.

use core::fmt;

use crate::id::ProcessId;

/// The error type returned by the public APIs of the suite.
///
/// Every variant is descriptive enough for a caller to act on without string
/// matching; `Display` messages are lowercase and concise (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A destination process is unknown to the transport.
    UnknownProcess(ProcessId),
    /// A configuration value was invalid (e.g. κ < 1 or a zero-size group).
    InvalidConfig(String),
    /// The threaded runtime's channel to a peer was disconnected.
    Disconnected(ProcessId),
}

/// Why a signature check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SignatureError {
    /// The signature bytes do not verify under the claimed signer's key.
    Invalid,
    /// The claimed signer is not present in the key directory.
    UnknownSigner,
    /// A double signature was required but only one signature was present.
    MissingCoSignature,
    /// The two signatures of a double-signed message are from the same
    /// wrapper instead of from both wrappers of the pair.
    DuplicateSigner,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::Invalid => write!(f, "signature does not verify"),
            SignatureError::UnknownSigner => write!(f, "unknown signer"),
            SignatureError::MissingCoSignature => write!(f, "missing co-signature"),
            SignatureError::DuplicateSigner => write!(f, "both signatures from the same signer"),
        }
    }
}

/// Why decoding a wire message failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the announced length.
    UnexpectedEof {
        /// Bytes needed by the decoder.
        wanted: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A tag byte did not correspond to any known variant.
    UnknownTag(u8),
    /// A length prefix exceeded the configured maximum.
    LengthOverflow {
        /// The announced length.
        length: usize,
        /// The configured maximum.
        max: usize,
    },
    /// A UTF-8 string field contained invalid UTF-8.
    InvalidUtf8,
    /// Trailing bytes remained after a complete value was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { wanted, available } => {
                write!(
                    f,
                    "unexpected end of buffer: wanted {wanted} bytes, {available} available"
                )
            }
            CodecError::UnknownTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::LengthOverflow { length, max } => {
                write!(f, "length {length} exceeds maximum {max}")
            }
            CodecError::InvalidUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownProcess(p) => write!(f, "unknown process {p}"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Disconnected(p) => write!(f, "channel to process {p} disconnected"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient result alias used across the workspace.
pub type Result<T, E = Error> = core::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
        assert_send_sync::<CodecError>();
        assert_send_sync::<SignatureError>();
    }

    #[test]
    fn display_messages_are_lowercase() {
        let samples = [
            Error::UnknownProcess(ProcessId(1)).to_string(),
            Error::InvalidConfig("kappa must be at least 1".into()).to_string(),
            Error::Disconnected(ProcessId(2)).to_string(),
            CodecError::InvalidUtf8.to_string(),
            SignatureError::DuplicateSigner.to_string(),
        ];
        for s in samples {
            let first = s.chars().next().unwrap();
            assert!(
                first.is_lowercase() || !first.is_alphabetic(),
                "message {s:?}"
            );
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn errors_have_no_source() {
        use std::error::Error as _;
        assert!(Error::Disconnected(ProcessId(3)).source().is_none());
        assert!(CodecError::UnknownTag(0xff).source().is_none());
    }
}
