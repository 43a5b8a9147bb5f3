//! The storage seam between the session and an engine's table layout,
//! and the one table catalog both engines share.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mduck_sql::{Catalog, LogicalType, SqlError, SqlResult, Value};

use super::index::TableIndex;

/// One base table as an engine stores it. The session drives every
/// commit through these methods; the layout behind them (column vectors
/// or a row heap) is the engine's business.
///
/// Changes to existing rows are two-phase: `stage_*` builds the new state
/// without touching the table (and may fail), [`Storage::apply`] installs
/// it and cannot fail. The session validates row and column positions
/// before staging, so implementations may index with them directly.
pub trait Storage: Send + Sync {
    /// A staged change: new storage built but not yet installed.
    type Staged;

    fn new(name: String, columns: Vec<(String, LogicalType)>) -> Self;
    /// The lower-case table name.
    fn name(&self) -> &str;
    /// The lower-case column names, in table order.
    fn column_names(&self) -> &[String];
    fn column_types(&self) -> Vec<LogicalType>;
    fn row_count(&self) -> usize;
    /// Row `i`, borrowed where the layout allows it.
    fn row(&self, i: usize) -> Cow<'_, [Value]>;
    /// All values of one column (bulk index construction).
    fn column_values(&self, col: usize) -> Vec<Value>;

    /// Append rows, feeding the attached indexes. Atomic: on any failure
    /// the table holds exactly its pre-call rows.
    fn append_rows(&mut self, rows: &[Vec<Value>]) -> SqlResult<()>;
    /// Keep only the first `len` rows (the rollback of an append whose
    /// log record failed); the caller rebuilds the indexes.
    fn truncate(&mut self, len: usize);

    /// Stage `(row, column, value)` replacements.
    fn stage_update(&self, cells: &[(u64, u64, Value)]) -> SqlResult<Self::Staged>;
    /// Stage the removal of the given row ids.
    fn stage_delete(&self, rows: &[u64]) -> SqlResult<Self::Staged>;
    /// The values column `col` will hold once `staged` is applied.
    fn staged_values(&self, staged: &Self::Staged, col: usize) -> Vec<Value>;
    /// Install a staged change.
    fn apply(&mut self, staged: Self::Staged);

    fn indexes(&self) -> &[Box<dyn TableIndex>];
    fn indexes_mut(&mut self) -> &mut Vec<Box<dyn TableIndex>>;

    fn column_index(&self, name: &str) -> Option<usize> {
        let lname = name.to_ascii_lowercase();
        self.column_names().iter().position(|n| *n == lname)
    }

    /// Column names paired with their types.
    fn schema(&self) -> Vec<(String, LogicalType)> {
        self.column_names().iter().cloned().zip(self.column_types()).collect()
    }
}

/// A reader-writer lock over one table. A poisoned lock is recovered
/// rather than propagated: the session's panic backstop turns a panicking
/// statement into an error, and the table must stay usable after it.
pub struct TableLock<T>(RwLock<T>);

impl<T> TableLock<T> {
    pub fn new(table: T) -> Self {
        TableLock(RwLock::new(table))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The database catalog: lower-case name → table.
pub struct TableCatalog<T> {
    tables: TableLock<HashMap<String, Arc<TableLock<T>>>>,
}

impl<T> Default for TableCatalog<T> {
    fn default() -> Self {
        TableCatalog { tables: TableLock::new(HashMap::new()) }
    }
}

impl<T: Storage> TableCatalog<T> {
    pub fn create_table(
        &self,
        name: &str,
        columns: Vec<(String, LogicalType)>,
        if_not_exists: bool,
    ) -> SqlResult<()> {
        let lname = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&lname) {
            if if_not_exists {
                return Ok(());
            }
            return Err(SqlError::Catalog(format!("table {name:?} already exists")));
        }
        tables.insert(lname.clone(), Arc::new(TableLock::new(T::new(lname, columns))));
        Ok(())
    }

    pub fn drop_table(&self, name: &str, if_exists: bool) -> SqlResult<()> {
        let lname = name.to_ascii_lowercase();
        if self.tables.write().remove(&lname).is_none() && !if_exists {
            return Err(SqlError::Catalog(format!("table {name:?} does not exist")));
        }
        Ok(())
    }

    pub fn get(&self, name: &str) -> SqlResult<Arc<TableLock<T>>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| SqlError::Catalog(format!("table {name:?} does not exist")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }
}

impl<T: Storage> Catalog for TableCatalog<T> {
    fn table_schema(&self, name: &str) -> Option<Vec<(String, LogicalType)>> {
        let t = self.tables.read().get(&name.to_ascii_lowercase())?.clone();
        let schema = t.read().schema();
        Some(schema)
    }
}
