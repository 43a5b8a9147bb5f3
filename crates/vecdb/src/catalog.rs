//! Base tables in columnar storage: the engine's side of the session's
//! [`Storage`] seam.

use std::borrow::Cow;

use mduck_sql::{LogicalType, SqlError, SqlResult, Value};
use mduck_wal::session::{Storage, TableIndex};

use crate::column::{Chunks, ColumnData, DataChunk, VECTOR_SIZE};

/// A base table: full columnar storage plus any attached indexes.
pub struct Table {
    pub name: String,
    pub column_names: Vec<String>,
    pub columns: Vec<ColumnData>,
    pub indexes: Vec<Box<dyn TableIndex>>,
}

impl Table {
    /// Check, without mutating anything, that `rows` can be appended:
    /// arity and per-column type acceptance. After this returns `Ok`,
    /// the column phase of [`Storage::append_rows`] cannot fail.
    fn validate_append(&self, rows: &[Vec<Value>]) -> SqlResult<()> {
        for row in rows {
            if row.len() != self.columns.len() {
                return Err(SqlError::execution(format!(
                    "INSERT has {} values, table {} has {} columns",
                    row.len(),
                    self.name,
                    self.columns.len()
                )));
            }
            for (c, v) in self.columns.iter().zip(row) {
                c.accepts(v)?;
            }
        }
        Ok(())
    }

    /// The table as execution chunks.
    /// Number of [`VECTOR_SIZE`] chunks a full scan of this table yields.
    pub fn chunk_count(&self) -> usize {
        self.row_count().div_ceil(VECTOR_SIZE)
    }

    /// Materialize the `i`-th scan chunk (rows `i*VECTOR_SIZE ..`). The
    /// unit of work a morsel worker claims during a parallel scan.
    pub fn chunk_at(&self, i: usize) -> DataChunk {
        let n = self.row_count();
        let start = i * VECTOR_SIZE;
        let len = VECTOR_SIZE.min(n.saturating_sub(start));
        let mut cols = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            let mut nc = ColumnData::new(&c.ty);
            nc.extend_from(c, start, len);
            cols.push(nc);
        }
        DataChunk::from_columns(cols)
    }

    pub fn scan_chunks(&self) -> Chunks {
        let mut out = Chunks::default();
        for i in 0..self.chunk_count() {
            out.chunks.push(self.chunk_at(i));
        }
        out
    }

    /// Gather specific row ids (index scan result path).
    pub fn gather_rows(&self, row_ids: &[u64]) -> Chunks {
        let sel: Vec<usize> = row_ids.iter().map(|&r| r as usize).collect();
        let mut out = Chunks::default();
        for chunk_sel in sel.chunks(VECTOR_SIZE) {
            let cols: Vec<ColumnData> =
                self.columns.iter().map(|c| c.gather(chunk_sel)).collect();
            out.chunks.push(DataChunk::from_columns(cols));
        }
        out
    }
}


/// Replaced columns, by position.
pub type StagedColumns = Vec<(usize, ColumnData)>;

impl Storage for Table {
    type Staged = StagedColumns;

    fn new(name: String, columns: Vec<(String, LogicalType)>) -> Self {
        Table {
            name,
            column_names: columns.iter().map(|(n, _)| n.to_ascii_lowercase()).collect(),
            columns: columns.iter().map(|(_, t)| ColumnData::new(t)).collect(),
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
        self.columns.iter().map(|c| c.ty.clone()).collect()
    }

    fn row_count(&self) -> usize {
        self.columns.first().map(ColumnData::len).unwrap_or(0)
    }

    fn row(&self, i: usize) -> Cow<'_, [Value]> {
        Cow::Owned(self.columns.iter().map(|c| c.get(i)).collect())
    }

    fn column_values(&self, col: usize) -> Vec<Value> {
        (0..self.row_count()).map(|i| self.columns[col].get(i)).collect()
    }

    /// Append rows, feeding attached indexes through the index-first
    /// `Append` path (§4.2.1). Atomic: on any failure the columns are
    /// rolled back to their pre-call length, so a half-applied INSERT is
    /// never visible (statement atomicity depends on this).
    fn append_rows(&mut self, rows: &[Vec<Value>]) -> SqlResult<()> {
        self.validate_append(rows)?;
        let first_row = self.row_count();
        for row in rows {
            for (c, v) in self.columns.iter_mut().zip(row) {
                if let Err(e) = c.push(v) {
                    // Unreachable after validation, but a defect here
                    // must degrade to an error, not to ragged columns.
                    for c in &mut self.columns {
                        c.truncate(first_row);
                    }
                    return Err(e);
                }
            }
        }
        for k in 0..self.indexes.len() {
            let col = self.indexes[k].column();
            let values: Vec<Value> = rows.iter().map(|r| r[col].clone()).collect();
            if let Err(e) = self.indexes[k].append(&values, first_row as u64) {
                for c in &mut self.columns {
                    c.truncate(first_row);
                }
                // Indexes fed so far hold entries for the rows just
                // rolled back; an index is only an access path, so
                // dropping them is safe where serving stale row ids
                // is not.
                let dropped: Vec<String> =
                    self.indexes.drain(..=k).map(|i| i.name().to_string()).collect();
                return Err(SqlError::execution(format!(
                    "{e}; index(es) {dropped:?} on table {} were dropped to preserve \
                     consistency and must be re-created",
                    self.name
                )));
            }
        }
        Ok(())
    }

    fn truncate(&mut self, len: usize) {
        for c in &mut self.columns {
            c.truncate(len);
        }
    }

    /// Rebuild each touched column with its replacements applied
    /// (columns are immutable vectors; cell-wise edits would be
    /// quadratic). A value the column type rejects fails the staging.
    fn stage_update(&self, cells: &[(u64, u64, Value)]) -> SqlResult<StagedColumns> {
        let mut values: Vec<(usize, Vec<Value>)> = Vec::new();
        for (row, col, v) in cells {
            let col = *col as usize;
            let k = match values.iter().position(|(c, _)| *c == col) {
                Some(k) => k,
                None => {
                    values.push((col, self.column_values(col)));
                    values.len() - 1
                }
            };
            values[k].1[*row as usize] = v.clone();
        }
        let mut staged = Vec::with_capacity(values.len());
        for (col, vals) in values {
            let mut nc = ColumnData::new(&self.columns[col].ty);
            for v in &vals {
                nc.push(v)?;
            }
            staged.push((col, nc));
        }
        Ok(staged)
    }

    fn stage_delete(&self, rows: &[u64]) -> SqlResult<StagedColumns> {
        let mut dead = vec![false; self.row_count()];
        for r in rows {
            dead[*r as usize] = true;
        }
        let keep: Vec<usize> = (0..dead.len()).filter(|i| !dead[*i]).collect();
        Ok(self.columns.iter().map(|c| c.gather(&keep)).enumerate().collect())
    }

    fn staged_values(&self, staged: &StagedColumns, col: usize) -> Vec<Value> {
        match staged.iter().find(|(c, _)| *c == col) {
            Some((_, nc)) => (0..nc.len()).map(|i| nc.get(i)).collect(),
            None => self.column_values(col),
        }
    }

    fn apply(&mut self, staged: StagedColumns) {
        for (col, nc) in staged {
            self.columns[col] = nc;
        }
    }

    fn indexes(&self) -> &[Box<dyn TableIndex>] {
        &self.indexes
    }

    fn indexes_mut(&mut self) -> &mut Vec<Box<dyn TableIndex>> {
        &mut self.indexes
    }
}
