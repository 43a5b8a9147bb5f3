//! The error type shared by the SQL frontend and both engines.

use std::fmt;

/// Errors raised while lexing, parsing, binding, or executing SQL.
///
/// The public query path is **panic-free**: every malformed input,
/// unsupported operation, arithmetic overflow, or exhausted resource
/// budget must surface as one of these variants, never as a process
/// abort. `Internal` is the `catch_unwind` backstop for defects that
/// slip through the typed paths.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexer-level problem (unterminated string, stray character).
    Lex(String),
    /// Grammar-level problem.
    Parse(String),
    /// Name resolution / type checking problem.
    Bind(String),
    /// Catalog problem (unknown table, duplicate index, ...).
    Catalog(String),
    /// Runtime evaluation problem.
    Execution(String),
    /// A value had the wrong runtime type for an operation.
    Type(String),
    /// Integer/decimal arithmetic overflowed.
    Overflow(String),
    /// An index, ordinal, or argument was outside its valid range.
    OutOfRange(String),
    /// A per-query resource budget was exceeded (timeout, row budget,
    /// recursion/parser depth, cancellation).
    ResourceExhausted(String),
    /// On-disk state failed an integrity check (WAL CRC mismatch,
    /// bad magic, truncated checkpoint). Recovery refuses to guess.
    Corruption(String),
    /// The storage layer hit an I/O failure (disk full, permission,
    /// injected fault). The in-memory state is unchanged.
    Io(String),
    /// A defect reached the panic backstop; the query failed but the
    /// process survives. Always a bug worth reporting.
    Internal(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Bind(m) => write!(f, "binder error: {m}"),
            SqlError::Catalog(m) => write!(f, "catalog error: {m}"),
            SqlError::Execution(m) => write!(f, "execution error: {m}"),
            SqlError::Type(m) => write!(f, "type error: {m}"),
            SqlError::Overflow(m) => write!(f, "overflow: {m}"),
            SqlError::OutOfRange(m) => write!(f, "out of range: {m}"),
            SqlError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            SqlError::Corruption(m) => write!(f, "corruption: {m}"),
            SqlError::Io(m) => write!(f, "io error: {m}"),
            SqlError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Convenience alias.
pub type SqlResult<T> = Result<T, SqlError>;

impl SqlError {
    pub fn execution(msg: impl Into<String>) -> Self {
        SqlError::Execution(msg.into())
    }

    pub fn bind(msg: impl Into<String>) -> Self {
        SqlError::Bind(msg.into())
    }

    pub fn overflow(msg: impl Into<String>) -> Self {
        SqlError::Overflow(msg.into())
    }

    pub fn resource_exhausted(msg: impl Into<String>) -> Self {
        SqlError::ResourceExhausted(msg.into())
    }

    pub fn internal(msg: impl Into<String>) -> Self {
        SqlError::Internal(msg.into())
    }

    pub fn corruption(msg: impl Into<String>) -> Self {
        SqlError::Corruption(msg.into())
    }

    pub fn io(msg: impl Into<String>) -> Self {
        SqlError::Io(msg.into())
    }

    /// True for errors that indicate an engine defect rather than bad
    /// user input.
    pub fn is_internal(&self) -> bool {
        matches!(self, SqlError::Internal(_))
    }
}

impl From<mduck_temporal::TemporalError> for SqlError {
    fn from(e: mduck_temporal::TemporalError) -> Self {
        use mduck_temporal::TemporalError as TE;
        match &e {
            TE::Parse(_) => SqlError::Execution(format!("temporal: {e}")),
            TE::Invalid(_) => SqlError::Execution(format!("temporal: {e}")),
            TE::Unsupported(_) => SqlError::Execution(format!("temporal: {e}")),
            TE::Geo(_) => SqlError::Execution(format!("temporal: {e}")),
            TE::Overflow(_) => SqlError::Overflow(format!("temporal: {e}")),
            TE::OutOfRange(_) => SqlError::OutOfRange(format!("temporal: {e}")),
            TE::ResourceExhausted(_) => SqlError::ResourceExhausted(format!("temporal: {e}")),
        }
    }
}
