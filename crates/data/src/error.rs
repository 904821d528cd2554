//! The single workspace error enum.
//!
//! Every crate in the stack reports failures through [`ValmodError`]:
//! the data substrate's parse/validation failures, the core driver's
//! parameter rejections, and the service layer's overload and protocol
//! errors all live in one enum with context-preserving variants, so a
//! failure crosses crate boundaries without stringly conversions. The
//! historical per-crate names (`DataError`, `ServeError`) remain as type
//! aliases — variants are constructible and matchable through an alias,
//! so existing call sites keep working.
//!
//! Every variant maps to a stable machine-readable [`ValmodError::kind`]
//! string used on the service wire; overload (`busy`) and deadline
//! misses are ordinary, expected errors — the scheduler degrades by
//! *reporting* them, never by panicking or dropping connections.

use std::fmt;
use std::io;

/// Alias kept for source compatibility with the data substrate's
/// original error type.
pub type DataError = ValmodError;

/// Errors produced anywhere in the VALMOD stack, from file loading to
/// query serving.
#[derive(Debug)]
pub enum ValmodError {
    /// An I/O failure: series file access or a service socket.
    Io(io::Error),
    /// A value in a text file could not be parsed as a finite `f64`.
    Parse {
        /// 1-based line number of the offending value.
        line: usize,
        /// The raw token that failed to parse.
        token: String,
    },
    /// A non-finite value (NaN or ±∞) was encountered where a finite sample
    /// is required.
    NonFinite {
        /// Index of the offending sample.
        index: usize,
    },
    /// The series is too short for the requested operation.
    TooShort {
        /// Actual series length.
        len: usize,
        /// Minimum length required.
        required: usize,
    },
    /// An invalid parameter combination (empty range, zero length, …).
    InvalidParameter(String),
    /// The bounded request queue is full; retry later (load shedding).
    Busy,
    /// The request's deadline passed before a result could be delivered.
    DeadlineExceeded,
    /// The engine is shutting down and accepts no new work.
    ShuttingDown,
    /// No series is loaded under the given name.
    UnknownSeries(String),
    /// A series with this name already exists (and `replace` was not set).
    SeriesExists(String),
    /// A request line could not be parsed or is missing fields.
    Protocol(String),
    /// The server failed while handling the request (a worker's job
    /// panicked); the request may be retried.
    Internal(String),
}

impl ValmodError {
    /// The stable machine-readable error category used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            ValmodError::Io(_) => "io",
            ValmodError::Parse { .. } => "parse",
            ValmodError::NonFinite { .. } => "non_finite",
            ValmodError::TooShort { .. } => "too_short",
            ValmodError::InvalidParameter(_) => "invalid_parameter",
            ValmodError::Busy => "busy",
            ValmodError::DeadlineExceeded => "deadline",
            ValmodError::ShuttingDown => "shutting_down",
            ValmodError::UnknownSeries(_) => "unknown_series",
            ValmodError::SeriesExists(_) => "series_exists",
            ValmodError::Protocol(_) => "protocol",
            ValmodError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ValmodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValmodError::Io(e) => write!(f, "I/O error: {e}"),
            ValmodError::Parse { line, token } => {
                write!(f, "cannot parse {token:?} as a finite number (line {line})")
            }
            ValmodError::NonFinite { index } => {
                write!(f, "non-finite sample at index {index}")
            }
            ValmodError::TooShort { len, required } => {
                write!(f, "series of length {len} is shorter than required {required}")
            }
            ValmodError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ValmodError::Busy => write!(f, "request queue is full; retry later"),
            ValmodError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ValmodError::ShuttingDown => write!(f, "server is shutting down"),
            ValmodError::UnknownSeries(name) => write!(f, "no series named {name:?} is loaded"),
            ValmodError::SeriesExists(name) => {
                write!(f, "series {name:?} already exists (pass \"replace\": true to overwrite)")
            }
            ValmodError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ValmodError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ValmodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValmodError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ValmodError {
    fn from(e: io::Error) -> Self {
        ValmodError::Io(e)
    }
}

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, ValmodError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = DataError::Parse { line: 3, token: "abc".into() };
        assert!(e.to_string().contains("line 3"));
        let e = DataError::TooShort { len: 5, required: 10 };
        assert!(e.to_string().contains('5') && e.to_string().contains("10"));
        let e = DataError::NonFinite { index: 42 };
        assert!(e.to_string().contains("42"));
        let e = DataError::InvalidParameter("l_min > l_max".into());
        assert!(e.to_string().contains("l_min"));
        let e = ValmodError::UnknownSeries("sensor".into());
        assert!(e.to_string().contains("sensor"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io_err = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DataError = io_err.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn kinds_are_stable_and_distinct() {
        let errs = [
            ValmodError::Io(io::Error::other("net")),
            ValmodError::Parse { line: 1, token: "x".into() },
            ValmodError::NonFinite { index: 0 },
            ValmodError::TooShort { len: 1, required: 2 },
            ValmodError::InvalidParameter("p".into()),
            ValmodError::Busy,
            ValmodError::DeadlineExceeded,
            ValmodError::ShuttingDown,
            ValmodError::UnknownSeries("x".into()),
            ValmodError::SeriesExists("x".into()),
            ValmodError::Protocol("bad".into()),
        ];
        let kinds: Vec<_> = errs.iter().map(|e| e.kind()).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len(), "kinds must be distinct: {kinds:?}");
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn variants_work_through_the_legacy_alias() {
        // DataError is an alias of ValmodError; construction and
        // matching through it must keep compiling across the workspace.
        let e: DataError = DataError::NonFinite { index: 7 };
        assert!(matches!(e, ValmodError::NonFinite { index: 7 }));
        assert_eq!(e.kind(), "non_finite");
    }
}
