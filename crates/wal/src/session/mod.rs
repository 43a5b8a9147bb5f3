//! One session layer under both engines.
//!
//! [`Session`] is everything a database instance does that is not
//! storage layout or execution: the SQL-text entry points and the query
//! log, `PRAGMA` dispatch, DDL, the commit disciplines of INSERT, UPDATE
//! and DELETE, the WAL attach / checkpoint / recovery path, the table
//! catalog, the index framework, and the no-panic backstop. An engine
//! plugs in through two traits and nothing else:
//!
//! * [`Storage`] — how one table stores its rows (column vectors or a
//!   row heap) and stages changes to them;
//! * [`Executor`] — how a bound SELECT runs, and how it renders under
//!   `EXPLAIN` and `EXPLAIN ANALYZE`.
//!
//! So the two engines differ exactly where the paper varies them.

mod catalog;
mod index;

use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

use mduck_obs::{Histogram, Metrics, OpBreakdown, QueryProgress, StageBreakdown};
use mduck_sql::ast::{InsertSource, SelectStmt, Statement};
use mduck_sql::eval::{eval, NoSubqueries, OuterStack};
use mduck_sql::{
    parse_statement, Binder, BoundSelect, Catalog, ExecGuard, ExecLimits, Expr, Field,
    LogicalType, PragmaValue, Registry, Schema, SqlError, SqlResult, Value,
};

pub use catalog::{Storage, TableCatalog, TableLock};
pub use index::{IndexType, IndexTypeRegistry, TableIndex};

use crate::{DurabilityManager, IndexDef, Recovery, Snapshot, TableSnapshot, WalRecord};

/// Sanity bound on `PRAGMA threads` input, whatever the engine.
pub const MAX_THREADS: usize = 256;

/// A query result: output schema plus materialized rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    pub fn empty() -> Self {
        QueryResult { schema: Schema::default(), rows: Vec::new() }
    }

    /// Column names.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// ASCII table rendering for examples and demos.
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> =
            self.schema.fields.iter().map(|f| f.name.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .schema
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("{:width$}", f.name, width = widths[i]))
            .collect();
        out.push_str(&header.join(" │ "));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "─".repeat(*w)).collect::<Vec<_>>().join("─┼─"));
        out.push('\n');
        for row in rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join(" │ "));
            out.push('\n');
        }
        out
    }
}

/// A profiled SELECT: result, analyzed-plan text, per-operator actuals.
#[derive(Debug, Clone)]
pub struct ProfiledQuery {
    pub result: QueryResult,
    /// The `EXPLAIN ANALYZE` rendering.
    pub explain: String,
    /// Flattened (preorder) per-operator actuals of the join/scan tree;
    /// empty when the engine does not profile operators.
    pub operators: Vec<OpBreakdown>,
    /// Post-join stage actuals (aggregate, projection, order_by, ...) of
    /// the top-level plan.
    pub stages: Vec<StageBreakdown>,
    /// End-to-end execution wall time.
    pub total_ms: f64,
    /// Peak bytes tracked by the statement's memory scope.
    pub mem_peak: u64,
}

/// What an executor hook sees of one statement.
pub struct ExecCx<'a, T> {
    pub catalog: &'a TableCatalog<T>,
    pub registry: &'a Registry,
    /// The statement's guard: cancellation, deadline, row and memory budgets.
    pub guard: &'a ExecGuard,
    /// Worker threads the statement may use (1 = serial).
    pub threads: usize,
    /// Live completion estimate, `None` where nobody polls it.
    pub progress: Option<Arc<QueryProgress>>,
}

/// An engine's executor: the one part of a SELECT the session does not
/// run itself. The session parses and binds; the hooks plan and execute.
pub trait Executor {
    type Table: Storage;
    /// The engine name in the query log, and the prefix of its phase
    /// spans (`<name>.query`, `.parse`, `.bind`, ...).
    const NAME: &'static str;
    /// The index method of `CREATE INDEX` without `USING`.
    const DEFAULT_INDEX_METHOD: &'static str;
    /// The most worker threads a statement can use.
    const MAX_THREADS: usize;

    /// The parse- and bind-phase latency histograms.
    fn phase_ns(m: &Metrics) -> (&Histogram, &Histogram);

    /// Index types every fresh database has before extensions load.
    fn builtin_index_types() -> IndexTypeRegistry {
        IndexTypeRegistry::default()
    }

    /// Execute a bound SELECT to rows.
    fn select(cx: &ExecCx<'_, Self::Table>, plan: &BoundSelect) -> SqlResult<Vec<Vec<Value>>>;

    /// The `EXPLAIN` text of a bound SELECT.
    fn explain(cx: &ExecCx<'_, Self::Table>, plan: &BoundSelect) -> SqlResult<String>;

    /// Execute a bound SELECT under profiling (`EXPLAIN ANALYZE`).
    fn explain_analyze(
        cx: &ExecCx<'_, Self::Table>,
        plan: &BoundSelect,
    ) -> SqlResult<ProfiledQuery>;
}

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A staged UPDATE or DELETE: the new storage and rebuilt indexes, not
/// yet installed.
type Staged<T> = (<T as Storage>::Staged, Vec<(usize, Box<dyn TableIndex>)>);

/// An in-process database instance over one engine.
///
/// Extensions install themselves by mutating [`Session::registry_mut`]
/// and [`Session::index_types_mut`] at load time, exactly as MobilityDuck
/// registers its types, functions, casts, operators, and index types
/// against DuckDB (§3.3–§4.1).
pub struct Session<E: Executor> {
    catalog: TableCatalog<E::Table>,
    registry: RwLock<Registry>,
    index_types: RwLock<IndexTypeRegistry>,
    limits: RwLock<ExecLimits>,
    /// Worker threads for morsel-driven execution; 0 = auto-detect.
    threads: AtomicUsize,
    /// Progress handle of the most recent SQL-text statement, pollable
    /// from other threads via [`Session::progress`]. Kept after the
    /// statement finishes (reporting `1.0`) until the next one replaces
    /// it.
    current_progress: Mutex<Option<Arc<QueryProgress>>>,
    /// Durability manager when a WAL is attached ([`Session::open`] /
    /// `PRAGMA wal='path'`); `None` keeps the in-memory default.
    wal: RwLock<Option<Arc<DurabilityManager>>>,
    /// Serializes catalog/data commits and checkpoints, so a checkpoint
    /// image is always consistent with the WAL position it claims to
    /// cover and the log order always matches the apply order.
    commit_lock: Mutex<()>,
    engine: PhantomData<fn() -> E>,
}

impl<E: Executor> Default for Session<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Executor> Session<E> {
    /// A fresh instance with the built-in SQL surface.
    pub fn new() -> Self {
        Session {
            catalog: TableCatalog::default(),
            registry: RwLock::new(Registry::with_builtins()),
            index_types: RwLock::new(E::builtin_index_types()),
            limits: RwLock::new(ExecLimits::default()),
            threads: AtomicUsize::new(0),
            current_progress: Mutex::new(None),
            wal: RwLock::new(None),
            commit_lock: Mutex::new(()),
            engine: PhantomData,
        }
    }

    /// A durable instance: open (or create) the WAL at `path`, recover
    /// whatever a previous process committed, and log every later DDL
    /// and DML statement. Only the built-in SQL surface is recovered —
    /// databases using extension types must [`Session::new`], load the
    /// extension, then attach with [`Session::attach_wal`] so recovery
    /// can decode the extension values.
    pub fn open(path: impl AsRef<Path>) -> SqlResult<Self> {
        let db = Self::new();
        db.attach_wal(path)?;
        Ok(db)
    }

    /// Completion estimate of the most recent [`Session::execute`] /
    /// [`Session::execute_analyzed`] statement: monotonically
    /// non-decreasing in `[0, 1]`, exactly `1.0` once finished, `None`
    /// before any statement ran. Safe to poll from another thread while
    /// the statement is still executing.
    pub fn progress(&self) -> Option<f64> {
        lock(&self.current_progress).as_ref().map(|p| p.fraction())
    }

    /// Set the worker-thread count for morsel-driven execution; `0`
    /// restores auto-detection. Equivalent to `PRAGMA threads = N`. The
    /// engine's own maximum caps it.
    pub fn set_threads(&self, n: usize) {
        self.threads.store(n.min(E::MAX_THREADS), Ordering::Relaxed);
    }

    /// The configured thread count (`0` = auto-detect).
    pub fn threads(&self) -> usize {
        self.threads.load(Ordering::Relaxed)
    }

    /// The thread count statements actually execute with: the configured
    /// value, or (when auto) the `MDUCK_THREADS` environment variable,
    /// or `std::thread::available_parallelism`, capped by the engine.
    pub fn effective_threads(&self) -> usize {
        // A serial engine skips detection: `available_parallelism` reads
        // the cgroup quota on every call.
        if E::MAX_THREADS == 1 {
            return 1;
        }
        let configured = self.threads();
        if configured > 0 {
            return configured;
        }
        if let Ok(v) = std::env::var("MDUCK_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n.min(E::MAX_THREADS);
                }
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(E::MAX_THREADS)
    }

    /// Set the resource limits applied to every subsequent statement.
    pub fn set_exec_limits(&self, limits: ExecLimits) {
        *write(&self.limits) = limits;
    }

    /// The resource limits currently in force.
    pub fn exec_limits(&self) -> ExecLimits {
        read(&self.limits).clone()
    }

    /// Mutate the function/type/cast registry (extension load hook).
    pub fn registry_mut(&self) -> RwLockWriteGuard<'_, Registry> {
        write(&self.registry)
    }

    pub fn registry(&self) -> RwLockReadGuard<'_, Registry> {
        read(&self.registry)
    }

    /// Mutate the index-type registry (extension load hook).
    pub fn index_types_mut(&self) -> RwLockWriteGuard<'_, IndexTypeRegistry> {
        write(&self.index_types)
    }

    // ------------------------------------------------------ durability

    /// Attach a WAL to a live database (`PRAGMA wal='path'`): recover
    /// the on-disk state into the catalog, then log every later DDL/DML
    /// statement. When the WAL is brand new and the database already
    /// holds tables, an immediate checkpoint captures them — otherwise
    /// the pre-attach state would never be covered by recovery.
    pub fn attach_wal(&self, path: impl AsRef<Path>) -> SqlResult<()> {
        let _commit = lock(&self.commit_lock);
        if read(&self.wal).is_some() {
            return Err(SqlError::execution(
                "a WAL is already attached; detach it first (PRAGMA wal='off')",
            ));
        }
        let (manager, recovery) = DurabilityManager::open(path.as_ref(), &self.registry())?;
        self.apply_recovery(&recovery)?;
        let manager = Arc::new(manager);
        let fresh = recovery.snapshot.is_none() && recovery.records.is_empty();
        if fresh && !self.catalog.table_names().is_empty() {
            self.checkpoint_locked(&manager)?;
        }
        *write(&self.wal) = Some(manager);
        Ok(())
    }

    /// Detach the WAL (`PRAGMA wal='off'`). Already-logged state stays
    /// on disk; later statements are in-memory only.
    pub fn detach_wal(&self) {
        let _commit = lock(&self.commit_lock);
        *write(&self.wal) = None;
    }

    /// The attached durability manager, if any.
    pub fn wal(&self) -> Option<Arc<DurabilityManager>> {
        read(&self.wal).clone()
    }

    /// Snapshot the whole database into the checkpoint file and truncate
    /// the WAL (the `CHECKPOINT` statement). Returns `false` (and does
    /// nothing) when no WAL is attached.
    pub fn checkpoint(&self) -> SqlResult<bool> {
        let Some(manager) = self.wal() else { return Ok(false) };
        let _commit = lock(&self.commit_lock);
        self.checkpoint_locked(&manager)?;
        Ok(true)
    }

    /// Checkpoint body; caller holds `commit_lock` so no DML can slip
    /// between building the image and stamping its WAL position.
    fn checkpoint_locked(&self, manager: &DurabilityManager) -> SqlResult<()> {
        manager.checkpoint(&self.snapshot_state())
    }

    /// Materialize the catalog and every table (rows, indexes) as a
    /// checkpoint image, tables sorted by name.
    fn snapshot_state(&self) -> Snapshot {
        let mut tables = Vec::new();
        for name in self.catalog.table_names() {
            let Ok(t) = self.catalog.get(&name) else { continue };
            let t = t.read();
            let indexes: Vec<IndexDef> = t
                .indexes()
                .iter()
                .map(|i| IndexDef {
                    name: i.name().to_string(),
                    method: i.method().to_string(),
                    column: t.column_names()[i.column()].clone(),
                })
                .collect();
            let rows: Vec<Vec<Value>> = (0..t.row_count()).map(|i| t.row(i).into_owned()).collect();
            tables.push(TableSnapshot {
                name: t.name().to_string(),
                columns: t.schema(),
                indexes,
                rows,
            });
        }
        Snapshot { tables }
    }

    /// Rebuild in-memory state from what recovery found on disk: the
    /// checkpoint image first (tables, rows, then indexes over them),
    /// then every WAL record in log order.
    fn apply_recovery(&self, recovery: &Recovery) -> SqlResult<()> {
        if let Some(snapshot) = &recovery.snapshot {
            for ts in &snapshot.tables {
                self.catalog.create_table(&ts.name, ts.columns.clone(), false)?;
                self.catalog.get(&ts.name)?.write().append_rows(&ts.rows)?;
            }
            for ts in &snapshot.tables {
                for idx in &ts.indexes {
                    self.create_index(&idx.name, &ts.name, &idx.method, &idx.column)?;
                }
            }
        }
        for record in &recovery.records {
            self.apply_record(record)?;
        }
        Ok(())
    }

    /// Replay one WAL record through the same storage paths the live
    /// statements use, so replay is apply — byte-for-byte the same
    /// coercions, the same validation, the same index rebuilds.
    fn apply_record(&self, record: &WalRecord) -> SqlResult<()> {
        match record {
            WalRecord::CreateTable { name, columns } => {
                self.catalog.create_table(name, columns.clone(), false)
            }
            WalRecord::DropTable { name } => self.catalog.drop_table(name, false),
            WalRecord::CreateIndex { name, table, method, column } => {
                self.create_index(name, table, method, column)
            }
            WalRecord::Insert { table, rows } => {
                let t = self.catalog.get(table)?;
                let appended = t.write().append_rows(rows);
                appended
            }
            WalRecord::Update { table, .. } | WalRecord::Delete { table, .. } => {
                let t = self.catalog.get(table)?;
                let mut t = t.write();
                let staged = self.stage_change(&t, record)?;
                install(&mut *t, staged);
                Ok(())
            }
        }
    }

    /// Append one record to the attached WAL, if any. Returns whether
    /// the log has grown past the auto-checkpoint threshold.
    fn wal_append(&self, record: &WalRecord) -> SqlResult<bool> {
        match &*read(&self.wal) {
            Some(manager) => manager.append(record),
            None => Ok(false),
        }
    }

    /// Run the size-triggered checkpoint after a statement committed.
    /// A failure here must not fail that statement — it is already
    /// applied and durable in the log; the WAL simply keeps growing and
    /// the next trigger retries (a simulated crash poisons the manager
    /// and surfaces on the next statement instead).
    fn maybe_auto_checkpoint(&self, needed: bool) {
        if !needed {
            return;
        }
        let Some(manager) = self.wal() else { return };
        let _commit = lock(&self.commit_lock);
        if self.checkpoint_locked(&manager).is_ok() {
            mduck_obs::metrics().wal_auto_checkpoints.inc(1);
        }
    }

    // ------------------------------------------------- commit disciplines

    /// Bulk-insert pre-typed rows through the full commit path: atomic
    /// append, WAL record, auto-checkpoint — identical durability to an
    /// `INSERT` statement, without parse/bind overhead. This is what
    /// bulk loaders (berlinmod) should call so loaded data survives a
    /// crash like any other committed rows.
    pub fn insert_rows(&self, table: &str, rows: &[Vec<Value>]) -> SqlResult<usize> {
        let needed = {
            let _commit = lock(&self.commit_lock);
            let t = self.catalog.get(table)?;
            let mut t = t.write();
            self.append_logged(&mut t, rows)?
        };
        self.maybe_auto_checkpoint(needed);
        Ok(rows.len())
    }

    /// Apply (atomic — see [`Storage::append_rows`]), then log. On a log
    /// failure the append is undone: the statement must not report
    /// failure while leaving its rows behind, and the WAL must not miss
    /// rows a later recovery would then silently drop. Caller holds
    /// `commit_lock`.
    fn append_logged(&self, t: &mut E::Table, rows: &[Vec<Value>]) -> SqlResult<bool> {
        let pre_rows = t.row_count();
        t.append_rows(rows)?;
        let wal = read(&self.wal);
        // No WAL: skip the record copy entirely (hot bulk-load path).
        let Some(manager) = wal.as_ref() else { return Ok(false) };
        match manager.append(&WalRecord::Insert { table: t.name().to_string(), rows: rows.to_vec() })
        {
            Ok(needed) => Ok(needed),
            Err(e) => {
                t.truncate(pre_rows);
                let all: Vec<usize> = (0..t.column_names().len()).collect();
                self.rebuild_indexes(t, &all)?;
                Err(e)
            }
        }
    }

    /// Stage-log-apply for UPDATE and DELETE: the new storage and every
    /// rebuilt index are staged first, the record is logged, and only
    /// then is anything installed — installing cannot fail, so a trip or
    /// an I/O error anywhere leaves the table untouched. Caller holds
    /// `commit_lock`.
    fn commit_change(&self, t: &mut E::Table, record: WalRecord) -> SqlResult<bool> {
        let staged = self.stage_change(t, &record)?;
        let needed = self.wal_append(&record)?;
        install(t, staged);
        Ok(needed)
    }

    /// Stage the change an `Update` or `Delete` record describes. Every
    /// cell and row id is checked against the table first, so a record
    /// that does not fit it (a corrupt log) is a typed error on both
    /// engines rather than a panic or a silent skip.
    fn stage_change(&self, t: &E::Table, record: &WalRecord) -> SqlResult<Staged<E::Table>> {
        let (n_rows, n_cols) = (t.row_count() as u64, t.column_names().len() as u64);
        let (staged, cols) = match record {
            WalRecord::Update { cells, .. } => {
                let mut cols: Vec<usize> = Vec::new();
                for (r, c, _) in cells {
                    if *r >= n_rows || *c >= n_cols {
                        return Err(SqlError::corruption(format!(
                            "wal update cell ({r}, {c}) outside table {} ({n_rows} rows, \
                             {n_cols} columns)",
                            t.name()
                        )));
                    }
                    if !cols.contains(&(*c as usize)) {
                        cols.push(*c as usize);
                    }
                }
                (t.stage_update(cells)?, cols)
            }
            WalRecord::Delete { rows, .. } => {
                if let Some(r) = rows.iter().find(|r| **r >= n_rows) {
                    return Err(SqlError::corruption(format!(
                        "wal delete of row {r} outside table {} ({n_rows} rows)",
                        t.name()
                    )));
                }
                (t.stage_delete(rows)?, (0..n_cols as usize).collect())
            }
            _ => return Err(SqlError::internal("only UPDATE and DELETE changes are staged")),
        };
        let indexes = self.stage_index_rebuilds(t, &cols, |col| t.staged_values(&staged, col))?;
        Ok((staged, indexes))
    }

    /// Build replacement indexes for every index over one of `cols`,
    /// reading the indexed values through `values_of` (so callers can
    /// point it at staged storage that is not in the table yet). Returns
    /// `(index slot, new index)` pairs; assigning them cannot fail.
    fn stage_index_rebuilds(
        &self,
        t: &E::Table,
        cols: &[usize],
        values_of: impl Fn(usize) -> Vec<Value>,
    ) -> SqlResult<Vec<(usize, Box<dyn TableIndex>)>> {
        let index_types = read(&self.index_types);
        let types = t.column_types();
        let mut out = Vec::new();
        for (slot, idx) in t.indexes().iter().enumerate() {
            let col = idx.column();
            if !cols.contains(&col) {
                continue;
            }
            let method = idx.method();
            let it = index_types
                .get(method)
                .ok_or_else(|| SqlError::Catalog(format!("index type {method} vanished")))?;
            out.push((slot, it.create(idx.name(), col, &types[col], &values_of(col))?));
        }
        Ok(out)
    }

    fn rebuild_indexes(&self, t: &mut E::Table, cols: &[usize]) -> SqlResult<()> {
        let staged = self.stage_index_rebuilds(t, cols, |col| t.column_values(col))?;
        for (slot, idx) in staged {
            t.indexes_mut()[slot] = idx;
        }
        Ok(())
    }

    /// `CREATE INDEX ... USING <method>(col)`: the data-first bulk path
    /// (§4.2.2).
    fn create_index(&self, name: &str, table: &str, method: &str, column: &str) -> SqlResult<()> {
        let method = index_method::<E>(method);
        let index_type = read(&self.index_types)
            .get(&method)
            .ok_or_else(|| SqlError::Catalog(format!("unknown index type {method:?}")))?;
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let col = t
            .column_index(column)
            .ok_or_else(|| SqlError::Catalog(format!("no column {column:?} in {table:?}")))?;
        let ty = t.column_types().swap_remove(col);
        if !index_type.can_index(&ty) {
            return Err(SqlError::Catalog(format!(
                "index method {method} cannot index type {}",
                ty.name()
            )));
        }
        if t.indexes().iter().any(|i| i.name() == name) {
            return Err(SqlError::Catalog(format!("index {name:?} already exists")));
        }
        let index = index_type.create(name, col, &ty, &t.column_values(col))?;
        t.indexes_mut().push(index);
        Ok(())
    }

    // ------------------------------------------------------ entry points

    /// Execute one SQL statement. `SHOW TABLES` and `DESCRIBE <table>`
    /// are handled as utility statements, as in DuckDB's shell.
    pub fn execute(&self, sql: &str) -> SqlResult<QueryResult> {
        if let Some(result) = self.utility(sql) {
            return result;
        }
        let stmt = self.parse_timed(sql)?;
        let guard = ExecGuard::new(&read(&self.limits));
        self.execute_logged(sql, &stmt, &guard)
    }

    /// Execute one SQL statement under a caller-supplied guard, so the
    /// caller can keep the [`mduck_sql::CancelHandle`] (to cancel from
    /// another thread) or spend one budget across several statements.
    pub fn execute_with_guard(&self, sql: &str, guard: &ExecGuard) -> SqlResult<QueryResult> {
        let stmt = self.parse_timed(sql)?;
        self.execute_logged(sql, &stmt, guard)
    }

    /// Execute a `;`-separated script, returning the last result.
    pub fn execute_script(&self, sql: &str) -> SqlResult<QueryResult> {
        let stmts = mduck_sql::parse_script(sql)?;
        let mut last = QueryResult::empty();
        for s in &stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// Execute a parsed statement under the database's configured limits.
    pub fn execute_statement(&self, stmt: &Statement) -> SqlResult<QueryResult> {
        let guard = ExecGuard::new(&read(&self.limits));
        self.execute_statement_guarded(stmt, &guard)
    }

    /// Execute a parsed statement under a caller-supplied guard.
    ///
    /// This is the engine's no-panic boundary: any panic that escapes the
    /// executor (a bug, by contract) is caught here and surfaced as
    /// [`SqlError::Internal`] instead of unwinding into the host process.
    pub fn execute_statement_guarded(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
    ) -> SqlResult<QueryResult> {
        catch_panics(|| self.run_statement(stmt, guard, None))
    }

    /// Execute a SELECT with profiling enabled and return the result
    /// alongside the analyzed plan rendering and the per-operator and
    /// per-stage actuals the engine records (the programmatic `EXPLAIN
    /// ANALYZE`).
    pub fn execute_analyzed(&self, sql: &str) -> SqlResult<ProfiledQuery> {
        let stmt = self.parse_timed(sql)?;
        let Statement::Select(sel) = stmt else {
            return Err(SqlError::Bind("execute_analyzed supports SELECT".into()));
        };
        let guard = ExecGuard::new(&read(&self.limits));
        let id = mduck_obs::next_query_id();
        let sql_text = sql.trim().to_string();
        let progress = self.begin_progress(&sql_text);
        let start = Instant::now();
        let result = catch_panics(|| self.run_analyzed(&sel, &guard, Some(Arc::clone(&progress))));
        let (rows_returned, error, profile) = match &result {
            Ok(pq) => (pq.result.rows.len() as u64, None, Some(pq.explain.clone())),
            Err(e) => (0, Some(e.to_string()), None),
        };
        self.finish_and_log(id, sql_text, &progress, start, &guard, rows_returned, error, profile);
        result
    }

    /// `SHOW TABLES` and `DESCRIBE <table>`, answered from the catalog
    /// without parsing; `None` for every other statement.
    fn utility(&self, sql: &str) -> Option<SqlResult<QueryResult>> {
        let trimmed = sql.trim().trim_end_matches(';').trim();
        if trimmed.eq_ignore_ascii_case("show tables") {
            let rows = self.catalog.table_names().into_iter().map(|n| vec![Value::text(n)]);
            return Some(Ok(QueryResult { schema: text_schema(&["name"]), rows: rows.collect() }));
        }
        let table = strip_keyword(trimmed, "describe")?.trim();
        Some(match self.catalog.table_schema(table) {
            Some(cols) => Ok(QueryResult {
                schema: text_schema(&["column_name", "column_type"]),
                rows: cols
                    .into_iter()
                    .map(|(n, ty)| vec![Value::text(n), Value::text(ty.name())])
                    .collect(),
            }),
            None => Err(SqlError::Catalog(format!("table {table:?} does not exist"))),
        })
    }

    /// Parse one statement, feeding the parse-phase latency histogram.
    fn parse_timed(&self, sql: &str) -> SqlResult<Statement> {
        let _s = mduck_obs::span(format!("{}.parse", E::NAME));
        let start = Instant::now();
        let stmt = parse_statement(sql);
        E::phase_ns(mduck_obs::metrics()).0.observe(start.elapsed().as_nanos() as u64);
        stmt
    }

    fn begin_progress(&self, sql_text: &str) -> Arc<QueryProgress> {
        let progress = QueryProgress::begin(sql_text);
        *lock(&self.current_progress) = Some(Arc::clone(&progress));
        progress
    }

    /// Shared body of the SQL-text entry points: register live progress,
    /// execute, then push one record to the query log. Statements that
    /// arrive pre-parsed ([`Session::execute_statement`]) skip the log —
    /// there is no SQL text to record for them.
    fn execute_logged(
        &self,
        sql: &str,
        stmt: &Statement,
        guard: &ExecGuard,
    ) -> SqlResult<QueryResult> {
        let id = mduck_obs::next_query_id();
        let sql_text = sql.trim().to_string();
        let progress = self.begin_progress(&sql_text);
        let start = Instant::now();
        // While the JSONL sink is live, SELECTs run under profiling so
        // slow statements can attach their EXPLAIN ANALYZE text.
        let (result, profile) = match stmt {
            Statement::Select(sel) if mduck_obs::query_log_sink_active() => {
                match catch_panics(|| self.run_analyzed(sel, guard, Some(Arc::clone(&progress))))
                {
                    Ok(pq) => (Ok(pq.result), Some(pq.explain)),
                    Err(e) => (Err(e), None),
                }
            }
            _ => (
                catch_panics(|| self.run_statement(stmt, guard, Some(Arc::clone(&progress)))),
                None,
            ),
        };
        let rows_returned = result.as_ref().map(|r| r.rows.len() as u64).unwrap_or(0);
        let error = result.as_ref().err().map(|e| e.to_string());
        self.finish_and_log(id, sql_text, &progress, start, guard, rows_returned, error, profile);
        result
    }

    /// Finish the progress handle and append the statement's query-log
    /// record. The profile text is attached only when the statement was at
    /// least as slow as `PRAGMA slow_query_ms`.
    #[allow(clippy::too_many_arguments)]
    fn finish_and_log(
        &self,
        id: u64,
        sql: String,
        progress: &QueryProgress,
        start: Instant,
        guard: &ExecGuard,
        rows_returned: u64,
        error: Option<String>,
        profile: Option<String>,
    ) {
        progress.finish();
        let duration = start.elapsed();
        let slow = duration.as_millis() as u64 >= mduck_obs::slow_threshold_ms();
        mduck_obs::log_query(mduck_obs::QueryLogRecord {
            id,
            engine: E::NAME,
            sql,
            duration_us: duration.as_micros() as u64,
            rows_returned,
            rows_scanned: guard.rows_scanned(),
            guard_trip: guard.trip_label(),
            mem_peak: guard.mem().peak(),
            threads: self.effective_threads() as u32,
            error,
            profile: if slow { profile } else { None },
        });
    }

    fn cx<'a>(
        &'a self,
        registry: &'a Registry,
        guard: &'a ExecGuard,
        progress: Option<Arc<QueryProgress>>,
    ) -> ExecCx<'a, E::Table> {
        ExecCx {
            catalog: &self.catalog,
            registry,
            guard,
            threads: self.effective_threads(),
            progress,
        }
    }

    /// The SELECT prelude both plain and profiled execution share: count
    /// the query, open its span, bind under the bind-phase timer, then
    /// hand the bound plan to `run`.
    fn with_bound_select<R>(
        &self,
        sel: &SelectStmt,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
        run: impl FnOnce(&ExecCx<'_, E::Table>, BoundSelect) -> SqlResult<R>,
    ) -> SqlResult<R> {
        let m = mduck_obs::metrics();
        m.queries_executed.inc(1);
        m.active_queries.add(1);
        let _active = GaugeGuard;
        let _query_span = mduck_obs::span(format!("{}.query", E::NAME));
        let registry = self.registry();
        let bind_start = Instant::now();
        let plan = {
            let _s = mduck_obs::span(format!("{}.bind", E::NAME));
            Binder::new(&self.catalog, &registry).bind_select(sel)?
        };
        E::phase_ns(m).1.observe(bind_start.elapsed().as_nanos() as u64);
        // A guard canceled (or past its deadline) before execution stops
        // the statement here, whether or not the executor ticks it early.
        guard.tick()?;
        run(&self.cx(&registry, guard, progress), plan)
    }

    /// Shared body of `EXPLAIN ANALYZE` and [`Session::execute_analyzed`].
    fn run_analyzed(
        &self,
        sel: &SelectStmt,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
    ) -> SqlResult<ProfiledQuery> {
        self.with_bound_select(sel, guard, progress, |cx, plan| E::explain_analyze(cx, &plan))
    }

    fn run_statement(
        &self,
        stmt: &Statement,
        guard: &ExecGuard,
        progress: Option<Arc<QueryProgress>>,
    ) -> SqlResult<QueryResult> {
        match stmt {
            Statement::Select(sel) => self.with_bound_select(sel, guard, progress, |cx, plan| {
                let rows = E::select(cx, &plan)?;
                Ok(QueryResult { schema: plan.output_schema, rows })
            }),
            Statement::Explain { statement, analyze } => {
                let Statement::Select(sel) = statement.as_ref() else {
                    return Err(SqlError::Bind("EXPLAIN supports SELECT".into()));
                };
                let text = if *analyze {
                    self.run_analyzed(sel, guard, progress)?.explain
                } else {
                    let registry = self.registry();
                    let plan = Binder::new(&self.catalog, &registry).bind_select(sel)?;
                    E::explain(&self.cx(&registry, guard, progress), &plan)?
                };
                Ok(QueryResult {
                    schema: text_schema(&["explain"]),
                    rows: vec![vec![Value::text(text)]],
                })
            }
            Statement::Pragma { name, value } => self.run_pragma(name, value.as_ref()),
            Statement::CreateTable { name, columns, if_not_exists } => {
                let cols = {
                    let registry = self.registry();
                    let mut cols = Vec::with_capacity(columns.len());
                    for (cname, tname) in columns {
                        cols.push((cname.clone(), registry.resolve_type(tname)?));
                    }
                    cols
                };
                let needed = {
                    let _commit = lock(&self.commit_lock);
                    // Pre-check so an IF NOT EXISTS no-op logs nothing
                    // and a name clash fails before the WAL sees it.
                    if self.catalog.table_schema(name).is_some() {
                        if *if_not_exists {
                            return Ok(QueryResult::empty());
                        }
                        return Err(SqlError::Catalog(format!("table {name:?} already exists")));
                    }
                    let needed = self.wal_append(&WalRecord::CreateTable {
                        name: name.to_ascii_lowercase(),
                        columns: cols.clone(),
                    })?;
                    self.catalog.create_table(name, cols, *if_not_exists)?;
                    needed
                };
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult::empty())
            }
            Statement::DropTable { name, if_exists } => {
                let needed = {
                    let _commit = lock(&self.commit_lock);
                    if self.catalog.table_schema(name).is_none() {
                        if *if_exists {
                            return Ok(QueryResult::empty());
                        }
                        return Err(SqlError::Catalog(format!("table {name:?} does not exist")));
                    }
                    let needed = self
                        .wal_append(&WalRecord::DropTable { name: name.to_ascii_lowercase() })?;
                    self.catalog.drop_table(name, true)?;
                    needed
                };
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult::empty())
            }
            Statement::CreateIndex { name, table, method, column } => {
                let needed = {
                    let _commit = lock(&self.commit_lock);
                    self.create_index(name, table, method, column)?;
                    let record = WalRecord::CreateIndex {
                        name: name.clone(),
                        table: table.to_ascii_lowercase(),
                        method: index_method::<E>(method),
                        column: column.clone(),
                    };
                    match self.wal_append(&record) {
                        Ok(needed) => needed,
                        Err(e) => {
                            // Undo the in-memory index: dropping an
                            // access path is always safe, and the
                            // statement must not report failure while
                            // leaving the index behind.
                            if let Ok(t) = self.catalog.get(table) {
                                t.write().indexes_mut().retain(|i| i.name() != name);
                            }
                            return Err(e);
                        }
                    }
                };
                self.maybe_auto_checkpoint(needed);
                Ok(QueryResult::empty())
            }
            Statement::Insert { table, columns, source } => {
                let (n, needed) = self.insert(table, columns.as_deref(), source, guard)?;
                self.maybe_auto_checkpoint(needed);
                Ok(count_result(n))
            }
            Statement::Update { table, sets, where_clause } => {
                let (n, needed) = self.update(table, sets, where_clause.as_ref(), guard)?;
                self.maybe_auto_checkpoint(needed);
                Ok(count_result(n))
            }
            Statement::Delete { table, where_clause } => {
                let (n, needed) = self.delete(table, where_clause.as_ref(), guard)?;
                self.maybe_auto_checkpoint(needed);
                Ok(count_result(n))
            }
            Statement::Checkpoint => {
                let ran = self.checkpoint()?;
                let (schema, rows) = mduck_sql::introspect::checkpoint_result(ran);
                Ok(QueryResult { schema, rows })
            }
        }
    }

    /// The session settings (`threads`, `memory_limit`, `wal`,
    /// `wal_autocheckpoint`); everything else is shared introspection.
    fn run_pragma(&self, name: &str, value: Option<&PragmaValue>) -> SqlResult<QueryResult> {
        if name == "threads" {
            if let Some(v) = value {
                let v = v.as_int().ok_or_else(|| {
                    SqlError::Bind(format!("PRAGMA threads expects an integer, got {v:?}"))
                })?;
                if !(0..=MAX_THREADS as i64).contains(&v) {
                    return Err(SqlError::OutOfRange(format!(
                        "PRAGMA threads expects 0..={MAX_THREADS}, got {v}"
                    )));
                }
                self.set_threads(v as usize);
            }
            let (schema, rows) = mduck_sql::introspect::threads_result(self.effective_threads());
            return Ok(QueryResult { schema, rows });
        }
        if name == "memory_limit" {
            if let Some(v) = value {
                let limit = mduck_sql::introspect::parse_memory_limit(v)?;
                write(&self.limits).memory_limit = limit;
            }
            let (schema, rows) =
                mduck_sql::introspect::memory_limit_result(read(&self.limits).memory_limit);
            return Ok(QueryResult { schema, rows });
        }
        if name == "wal" {
            if let Some(v) = value {
                let path = match v {
                    PragmaValue::Str(s) => s.clone(),
                    PragmaValue::Int(n) => {
                        return Err(SqlError::Bind(format!(
                            "PRAGMA wal expects a path string, got {n}"
                        )))
                    }
                };
                let trimmed = path.trim();
                if trimmed.is_empty()
                    || trimmed.eq_ignore_ascii_case("off")
                    || trimmed.eq_ignore_ascii_case("none")
                {
                    self.detach_wal();
                } else {
                    self.attach_wal(trimmed)?;
                }
            }
            let shown = self.wal().map(|m| m.wal_path().display().to_string());
            let (schema, rows) = mduck_sql::introspect::wal_result(shown);
            return Ok(QueryResult { schema, rows });
        }
        if name == "wal_autocheckpoint" {
            if let Some(v) = value {
                let n = v.as_int().ok_or_else(|| {
                    SqlError::Bind(format!(
                        "PRAGMA wal_autocheckpoint expects a byte count, got {v:?}"
                    ))
                })?;
                if n < 0 {
                    return Err(SqlError::OutOfRange(format!(
                        "PRAGMA wal_autocheckpoint expects a non-negative byte count, got {n}"
                    )));
                }
                match self.wal() {
                    Some(m) => m.set_auto_checkpoint(n as u64),
                    None => {
                        return Err(SqlError::execution(
                            "no WAL attached; PRAGMA wal='path' first",
                        ))
                    }
                }
            }
            let current = self.wal().map(|m| m.auto_checkpoint()).unwrap_or(0);
            let (schema, rows) = mduck_sql::introspect::wal_autocheckpoint_result(current);
            return Ok(QueryResult { schema, rows });
        }
        match mduck_sql::introspect::pragma(name, value)? {
            Some((schema, rows)) => Ok(QueryResult { schema, rows }),
            None => Err(SqlError::Catalog(format!("unknown pragma {name:?}"))),
        }
    }

    /// INSERT body; returns `(rows inserted, auto-checkpoint due)`.
    fn insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, bool)> {
        let registry = self.registry();
        // Compute the incoming rows first (they may SELECT from the target).
        let incoming: Vec<Vec<Value>> = match source {
            InsertSource::Values(rows) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        let bound =
                            mduck_sql::binder::bind_constant_expr(e, &self.catalog, &registry)?;
                        vals.push(eval(&bound, &[], &OuterStack::EMPTY, &NoSubqueries)?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Select(sel) => {
                let plan = Binder::new(&self.catalog, &registry).bind_select(sel)?;
                E::select(&self.cx(&registry, guard, None), &plan)?
            }
        };
        guard.check_rows(incoming.len())?;
        let _commit = lock(&self.commit_lock);
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let rows = reorder_for_insert(&*t, columns, incoming)?;
        let rows = coerce_rows(&registry, &t.column_types(), rows)?;
        let needed = self.append_logged(&mut t, &rows)?;
        Ok((rows.len(), needed))
    }

    /// The scope UPDATE and DELETE expressions bind against: the
    /// target table's columns, qualified by its name.
    fn table_scope(&self, table: &str) -> SqlResult<Schema> {
        let cols = self
            .catalog
            .table_schema(table)
            .ok_or_else(|| SqlError::Catalog(format!("table {table:?} does not exist")))?;
        let qualifier = table.to_ascii_lowercase();
        Ok(Schema::new(
            cols.into_iter()
                .map(|(name, ty)| Field { name, table: Some(qualifier.clone()), ty })
                .collect(),
        ))
    }

    /// UPDATE body; returns `(rows updated, auto-checkpoint due)`. Every
    /// row is evaluated against the untouched table first (each charged
    /// to the row budget), then the cells commit stage-log-apply.
    fn update(
        &self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, bool)> {
        let registry = self.registry();
        let schema = self.table_scope(table)?;
        let mut binder = Binder::new(&self.catalog, &registry);
        let mut bound_sets = Vec::with_capacity(sets.len());
        for (col, e) in sets {
            let idx = schema
                .resolve(None, &col.to_ascii_lowercase())
                .map_err(|_| SqlError::Catalog(format!("no column {col:?}")))?;
            bound_sets.push((idx as u64, binder.bind_expr(e, &schema)?));
        }
        let bound_where = where_clause.map(|w| binder.bind_expr(w, &schema)).transpose()?;
        let _commit = lock(&self.commit_lock);
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let mut cells: Vec<(u64, u64, Value)> = Vec::new();
        let mut updated = 0usize;
        for i in 0..t.row_count() {
            guard.check_rows(1)?;
            let row = t.row(i);
            if let Some(w) = &bound_where {
                if !matches!(eval(w, &row, &OuterStack::EMPTY, &NoSubqueries)?, Value::Bool(true)) {
                    continue;
                }
            }
            for (col, e) in &bound_sets {
                cells.push((i as u64, *col, eval(e, &row, &OuterStack::EMPTY, &NoSubqueries)?));
            }
            updated += 1;
        }
        if updated == 0 {
            return Ok((0, false));
        }
        let record = WalRecord::Update { table: t.name().to_string(), cells };
        Ok((updated, self.commit_change(&mut t, record)?))
    }

    /// DELETE body; returns `(rows deleted, auto-checkpoint due)`.
    /// Stage-log-apply, like [`Session::update`].
    fn delete(
        &self,
        table: &str,
        where_clause: Option<&Expr>,
        guard: &ExecGuard,
    ) -> SqlResult<(usize, bool)> {
        let registry = self.registry();
        let schema = self.table_scope(table)?;
        let bound_where = where_clause
            .map(|w| Binder::new(&self.catalog, &registry).bind_expr(w, &schema))
            .transpose()?;
        let _commit = lock(&self.commit_lock);
        let t = self.catalog.get(table)?;
        let mut t = t.write();
        let mut deleted_rows: Vec<u64> = Vec::new();
        for i in 0..t.row_count() {
            guard.check_rows(1)?;
            let delete = match &bound_where {
                Some(w) => matches!(
                    eval(w, &t.row(i), &OuterStack::EMPTY, &NoSubqueries)?,
                    Value::Bool(true)
                ),
                None => true,
            };
            if delete {
                deleted_rows.push(i as u64);
            }
        }
        let deleted = deleted_rows.len();
        if deleted == 0 {
            return Ok((0, false));
        }
        let record = WalRecord::Delete { table: t.name().to_string(), rows: deleted_rows };
        Ok((deleted, self.commit_change(&mut t, record)?))
    }
}

/// Install a staged change; cannot fail.
fn install<T: Storage>(t: &mut T, (staged, indexes): Staged<T>) {
    t.apply(staged);
    for (slot, idx) in indexes {
        t.indexes_mut()[slot] = idx;
    }
}

/// The upper-case method of a `CREATE INDEX`, the engine's default when
/// `USING` is absent.
fn index_method<E: Executor>(method: &str) -> String {
    if method.is_empty() {
        E::DEFAULT_INDEX_METHOD.to_string()
    } else {
        method.to_uppercase()
    }
}

/// The one-column result of a DML statement: the affected row count.
fn count_result(n: usize) -> QueryResult {
    QueryResult {
        schema: Schema::new(vec![Field { name: "count".into(), table: None, ty: LogicalType::Int }]),
        rows: vec![vec![Value::Int(n as i64)]],
    }
}

/// A schema of unqualified text columns.
fn text_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Field { name: (*n).into(), table: None, ty: LogicalType::Text })
            .collect(),
    )
}

/// Decrements the active-query gauge on drop (error paths included).
struct GaugeGuard;

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        mduck_obs::metrics().active_queries.add(-1);
    }
}

/// The no-panic backstop: a panic escaping the executor is a bug by
/// contract, but it must degrade to an error, not unwind into (and
/// possibly abort) the host process. The interior locks recover from
/// poisoning, so catching here leaves the database usable. Stack
/// overflows and `abort()` are not unwinds and cannot be caught — the
/// parser's depth limit prevents the former up front.
fn catch_panics<T>(f: impl FnOnce() -> SqlResult<T>) -> SqlResult<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(SqlError::internal(format!("executor panicked: {msg}")))
        }
    }
}

/// Coerce incoming rows to the table's column types through registered
/// casts (SQL's implicit assignment casts: VALUES ('2025-01-01') into a
/// TIMESTAMPTZ column, text literals into UDT columns, ...).
fn coerce_rows(
    registry: &Registry,
    types: &[LogicalType],
    rows: Vec<Vec<Value>>,
) -> SqlResult<Vec<Vec<Value>>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let mut coerced = Vec::with_capacity(row.len());
        for (v, ty) in row.into_iter().zip(types) {
            if v.is_null() || &v.logical_type() == ty || v.logical_type().coercible_to(ty) {
                coerced.push(v);
            } else if let Some(cast) = registry.resolve_cast(&v.logical_type(), ty) {
                coerced.push(cast(&[v])?);
            } else {
                coerced.push(v); // let column storage report the mismatch
            }
        }
        out.push(coerced);
    }
    Ok(out)
}

/// Case-insensitive keyword-prefix stripper for utility statements.
/// Checked slicing: `kw.len()` may fall inside a multi-byte character of
/// arbitrary input, where `&s[..n]` would panic.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let prefix = s.get(..kw.len())?;
    if prefix.eq_ignore_ascii_case(kw) && s.as_bytes().get(kw.len())?.is_ascii_whitespace() {
        s.get(kw.len() + 1..)
    } else {
        None
    }
}

/// Spread an INSERT's listed columns over the full table width, NULL
/// elsewhere.
fn reorder_for_insert<T: Storage>(
    t: &T,
    columns: Option<&[String]>,
    incoming: Vec<Vec<Value>>,
) -> SqlResult<Vec<Vec<Value>>> {
    let Some(cols) = columns else { return Ok(incoming) };
    let mut mapping = Vec::with_capacity(cols.len());
    for c in cols {
        mapping.push(t.column_index(c).ok_or_else(|| SqlError::Catalog(format!("no column {c:?}")))?);
    }
    let width = t.column_names().len();
    let mut out = Vec::with_capacity(incoming.len());
    for row in incoming {
        if row.len() != mapping.len() {
            return Err(SqlError::execution("INSERT arity mismatch"));
        }
        let mut full = vec![Value::Null; width];
        for (v, &dst) in row.into_iter().zip(&mapping) {
            full[dst] = v;
        }
        out.push(full);
    }
    Ok(out)
}
