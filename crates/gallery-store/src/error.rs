//! Error types for the storage substrate.

use std::fmt;

/// Errors produced by the metadata store, blob store, WAL, and DAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name.
    NoSuchTable(String),
    /// No column with this name in the table schema.
    NoSuchColumn { table: String, column: String },
    /// A row gave this column more than one value.
    DuplicateColumn { table: String, column: String },
    /// A record with this primary key already exists (records are immutable).
    DuplicateKey(String),
    /// No record with this primary key.
    NoSuchKey(String),
    /// The value supplied for a column does not match the declared type.
    TypeMismatch {
        column: String,
        expected: &'static str,
        got: &'static str,
    },
    /// A required (non-nullable) column was missing from the record.
    MissingColumn(String),
    /// No blob stored at this location.
    NoSuchBlob(String),
    /// Blob checksum verification failed (corruption).
    ChecksumMismatch { location: String },
    /// An injected or real I/O failure.
    Io(String),
    /// A fault-injection hook fired.
    InjectedFault(&'static str),
    /// WAL is corrupt or truncated mid-entry.
    WalCorrupt(String),
    /// Query constraint is malformed (unknown operator/field combination).
    BadQuery(String),
}

impl StoreError {
    /// Whether the failure is *transient*: retrying the exact same
    /// operation may succeed without any other intervention. Injected
    /// faults and I/O errors qualify; semantic errors (missing keys,
    /// duplicate keys, schema violations) and detected corruption do not —
    /// retrying those would either fail identically or mask a bug.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io(_) | StoreError::InjectedFault(_))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::TableExists(t) => write!(f, "table already exists: {t}"),
            StoreError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StoreError::NoSuchColumn { table, column } => {
                write!(f, "no such column {column} in table {table}")
            }
            StoreError::DuplicateColumn { table, column } => {
                write!(f, "column {column} given twice in a row of table {table}")
            }
            StoreError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            StoreError::NoSuchKey(k) => write!(f, "no such key: {k}"),
            StoreError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "type mismatch on column {column}: expected {expected}, got {got}"
            ),
            StoreError::MissingColumn(c) => write!(f, "missing required column: {c}"),
            StoreError::NoSuchBlob(l) => write!(f, "no such blob: {l}"),
            StoreError::ChecksumMismatch { location } => {
                write!(f, "checksum mismatch for blob at {location}")
            }
            StoreError::Io(m) => write!(f, "i/o error: {m}"),
            StoreError::InjectedFault(site) => write!(f, "injected fault at {site}"),
            StoreError::WalCorrupt(m) => write!(f, "wal corrupt: {m}"),
            StoreError::BadQuery(m) => write!(f, "bad query: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StoreError>;
