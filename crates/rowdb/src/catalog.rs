//! Row-oriented heap tables (the PostgreSQL storage substrate): the
//! engine's side of the session's [`Storage`] seam.

use std::borrow::Cow;

use mduck_sql::{LogicalType, SqlError, SqlResult, Value};
use mduck_wal::session::{Storage, TableIndex};

/// A heap table: rows stored row-major, as in a row store.
pub struct HeapTable {
    pub name: String,
    pub column_names: Vec<String>,
    pub column_types: Vec<LogicalType>,
    pub rows: Vec<Vec<Value>>,
    pub indexes: Vec<Box<dyn TableIndex>>,
}

/// A staged change to a heap: cells to overwrite, or a mask of the rows
/// to drop.
pub enum StagedRows {
    Cells(Vec<(u64, u64, Value)>),
    Dead(Vec<bool>),
}

impl Storage for HeapTable {
    type Staged = StagedRows;

    fn new(name: String, columns: Vec<(String, LogicalType)>) -> Self {
        HeapTable {
            name,
            column_names: columns.iter().map(|(n, _)| n.to_ascii_lowercase()).collect(),
            column_types: columns.into_iter().map(|(_, t)| t).collect(),
            rows: Vec::new(),
            indexes: Vec::new(),
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn column_names(&self) -> &[String] {
        &self.column_names
    }

    fn column_types(&self) -> Vec<LogicalType> {
        self.column_types.clone()
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn row(&self, i: usize) -> Cow<'_, [Value]> {
        Cow::Borrowed(&self.rows[i])
    }

    fn column_values(&self, col: usize) -> Vec<Value> {
        self.rows.iter().map(|r| r[col].clone()).collect()
    }

    /// Append rows. Atomic: arity is validated before anything mutates,
    /// and the heap itself is only extended after every index accepted
    /// the new entries — so a failure never leaves half-applied rows. An
    /// index that fails mid-append may hold partial entries; it (and any
    /// index fed before it) is dropped rather than left serving stale
    /// row ids, with the error saying so.
    fn append_rows(&mut self, rows: &[Vec<Value>]) -> SqlResult<()> {
        let first = self.rows.len() as u64;
        for row in rows {
            if row.len() != self.column_names.len() {
                return Err(SqlError::execution(format!(
                    "INSERT has {} values, table {} has {} columns",
                    row.len(),
                    self.name,
                    self.column_names.len()
                )));
            }
        }
        for k in 0..self.indexes.len() {
            let col = self.indexes[k].column();
            let values: Vec<Value> = rows.iter().map(|r| r[col].clone()).collect();
            if let Err(e) = self.indexes[k].append(&values, first) {
                let dropped: Vec<String> =
                    self.indexes.drain(..=k).map(|i| i.name().to_string()).collect();
                return Err(SqlError::execution(format!(
                    "{e}; index(es) {dropped:?} on table {} were dropped to preserve \
                     consistency and must be re-created",
                    self.name
                )));
            }
        }
        self.rows.extend_from_slice(rows);
        Ok(())
    }

    fn truncate(&mut self, len: usize) {
        self.rows.truncate(len);
    }

    fn stage_update(&self, cells: &[(u64, u64, Value)]) -> SqlResult<StagedRows> {
        Ok(StagedRows::Cells(cells.to_vec()))
    }

    fn stage_delete(&self, rows: &[u64]) -> SqlResult<StagedRows> {
        let mut dead = vec![false; self.rows.len()];
        for r in rows {
            dead[*r as usize] = true;
        }
        Ok(StagedRows::Dead(dead))
    }

    fn staged_values(&self, staged: &StagedRows, col: usize) -> Vec<Value> {
        match staged {
            StagedRows::Cells(cells) => {
                let mut values = self.column_values(col);
                for (r, c, v) in cells {
                    if *c as usize == col {
                        values[*r as usize] = v.clone();
                    }
                }
                values
            }
            StagedRows::Dead(dead) => self
                .rows
                .iter()
                .zip(dead)
                .filter(|(_, dead)| !**dead)
                .map(|(row, _)| row[col].clone())
                .collect(),
        }
    }

    fn apply(&mut self, staged: StagedRows) {
        match staged {
            StagedRows::Cells(cells) => {
                for (r, c, v) in cells {
                    self.rows[r as usize][c as usize] = v;
                }
            }
            StagedRows::Dead(dead) => {
                let mut dead = dead.into_iter();
                self.rows.retain(|_| !dead.next().unwrap_or(false));
            }
        }
    }

    fn indexes(&self) -> &[Box<dyn TableIndex>] {
        &self.indexes
    }

    fn indexes_mut(&mut self) -> &mut Vec<Box<dyn TableIndex>> {
        &mut self.indexes
    }
}
