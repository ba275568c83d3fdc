//! Error types for the storage substrate.

use std::fmt;

/// All the ways a query or storage operation can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Lexing/parsing failure, with position and message.
    Syntax { pos: usize, message: String },
    /// Reference to an unknown table.
    UnknownTable(String),
    /// Reference to an unknown column.
    UnknownColumn { table: String, column: String },
    /// Value incompatible with the column type.
    TypeMismatch {
        column: String,
        expected: &'static str,
    },
    /// INSERT arity doesn't match the schema.
    ArityMismatch { expected: usize, got: usize },
    /// Duplicate primary key on INSERT.
    DuplicateKey(String),
    /// The Raft leader for a region is unavailable (crashed / partitioned).
    NoLeader { region: u64 },
    /// A consistent read could not validate the leader lease.
    LeaseExpired { region: u64 },
    /// Operation routed to a node that does not lead the region (stale
    /// routing after failover).
    NotLeader { region: u64, node: usize },
    /// Feature deliberately outside the SQL subset.
    Unsupported(String),
    /// A required component (e.g. a cache shard) is down and the caller's
    /// policy forbids degraded fallback.
    Unavailable { what: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Syntax { pos, message } => {
                write!(f, "syntax error at byte {pos}: {message}")
            }
            StoreError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            StoreError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} on table {table}")
            }
            StoreError::TypeMismatch { column, expected } => {
                write!(f, "type mismatch for column {column}: expected {expected}")
            }
            StoreError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            StoreError::DuplicateKey(k) => write!(f, "duplicate primary key: {k}"),
            StoreError::NoLeader { region } => write!(f, "region {region} has no live leader"),
            StoreError::LeaseExpired { region } => {
                write!(f, "leader lease expired for region {region}")
            }
            StoreError::NotLeader { region, node } => {
                write!(f, "node {node} is not the leader of region {region}")
            }
            StoreError::Unsupported(what) => write!(f, "unsupported SQL: {what}"),
            StoreError::Unavailable { what } => write!(f, "unavailable: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

pub type StoreResult<T> = Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_usefully() {
        let e = StoreError::UnknownColumn {
            table: "tables".into(),
            column: "nope".into(),
        };
        assert!(e.to_string().contains("nope"));
        assert!(e.to_string().contains("tables"));
        let e = StoreError::Syntax {
            pos: 7,
            message: "expected FROM".into(),
        };
        assert!(e.to_string().contains("byte 7"));
    }
}
