//! Error types for the storage layer.

use std::fmt;

/// Errors surfaced by catalog and table operations.
///
/// Programmer errors (type mismatches in already-validated plans, out of
/// range RIDs) panic instead; these variants cover conditions that depend on
/// runtime configuration, such as looking up statistics that were never
/// built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No table with the given name is registered in the catalog.
    UnknownTable(String),
    /// The table exists but has no column with the given name.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// Column that was not found.
        column: String,
    },
    /// A table with this name is already registered.
    DuplicateTable(String),
    /// A row being appended does not match the schema.
    SchemaMismatch(String),
    /// A foreign key joins a column that is not `Int`, or would create a
    /// cycle.
    InvalidForeignKey(String),
    /// A column that must be unique (a primary key behind a unique index)
    /// holds the same key twice.
    DuplicateKey {
        /// Table holding the key column.
        table: String,
        /// The unique column.
        column: String,
        /// The repeated key.
        key: i64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            StorageError::UnknownColumn { table, column } => {
                write!(f, "unknown column {table:?}.{column:?}")
            }
            StorageError::DuplicateTable(t) => write!(f, "table {t:?} already exists"),
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::InvalidForeignKey(msg) => write!(f, "invalid foreign key: {msg}"),
            StorageError::DuplicateKey { table, column, key } => {
                write!(
                    f,
                    "duplicate key {key} in unique column {table:?}.{column:?}"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StorageError::UnknownTable("t".into()).to_string(),
            "unknown table \"t\""
        );
        assert_eq!(
            StorageError::UnknownColumn {
                table: "t".into(),
                column: "c".into()
            }
            .to_string(),
            "unknown column \"t\".\"c\""
        );
        assert!(StorageError::DuplicateTable("x".into())
            .to_string()
            .contains("already exists"));
        assert_eq!(
            StorageError::DuplicateKey {
                table: "t".into(),
                column: "pk".into(),
                key: 7
            }
            .to_string(),
            "duplicate key 7 in unique column \"t\".\"pk\""
        );
    }
}
