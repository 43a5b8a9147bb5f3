//! Physical planning and vectorized execution of bound SELECT plans.
//!
//! The join order, predicate placement and estimates come from the shared
//! [`JoinPlan`]; this module lowers it to a tree of scans, filters, hash
//! joins (equality keys) and nested-loop joins (everything else). The
//! engine's own hook is the §4.3 mechanism: a filter of the shape
//! `column && constant` over an indexed column is replaced by an index
//! scan on the registered TRTREE index.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mduck_sql::eval::{eval, NoSubqueries, OuterStack, SubqueryExec};
use mduck_sql::planner::{selectivity, SidedPreds};
use mduck_sql::{
    BoundExpr, BoundFrom, BoundSelect, ExecGuard, JoinPlan, LogicalType, Registry, ScanNode,
    SortKey, SqlError, SqlResult, Value,
};

use mduck_wal::session::{Storage, TableCatalog};

use crate::catalog::Table;
use crate::column::{Chunks, ColumnData, DataChunk, VECTOR_SIZE};
use crate::expr::{eval_vector, filter_chunk};
use crate::parallel::{contiguous_ranges, morsel_map, ParStats, MIN_PARALLEL_MORSELS};

/// Shared execution context for one statement.
pub struct EngineCtx<'a> {
    pub catalog: &'a TableCatalog<Table>,
    pub registry: &'a Registry,
    /// Per-statement resource guard: cancellation, deadline, row budget.
    /// Charged at chunk boundaries throughout the executor.
    pub guard: &'a ExecGuard,
    /// Materialized CTEs by global index.
    pub ctes: RefCell<HashMap<usize, Arc<Chunks>>>,
    /// Statistics: rows read by scans (EXPLAIN ANALYZE-style diagnostics).
    pub rows_scanned: RefCell<usize>,
    /// Per-operator/per-stage actuals, populated only under
    /// `EXPLAIN ANALYZE` (see [`EngineCtx::enable_profiling`]).
    pub profile: Option<Profile>,
    /// Worker threads for morsel-driven execution (1 = serial). Set from
    /// the database's `PRAGMA threads` / config knob.
    pub threads: usize,
    /// Live completion estimate for this statement, fed at morsel/chunk
    /// granularity; `None` on paths nobody polls (subordinate executions).
    pub progress: Option<Arc<mduck_obs::QueryProgress>>,
}

/// Actuals recorded for one physical operator across all its executions
/// (a correlated subquery re-runs its operators once per outer row).
#[derive(Debug, Default, Clone)]
pub struct OpProf {
    pub execs: u64,
    /// Inclusive wall time (children's time subtracted at render time).
    pub elapsed_ns: u64,
    pub rows_out: u64,
    pub chunks_out: u64,
    /// Rows read from storage by this operator (scans only).
    pub rows_scanned: u64,
    /// Bytes of buffers this operator materialized (charged against the
    /// statement's memory guard as they were allocated).
    pub mem_bytes: u64,
}

/// Actuals for one post-join stage (aggregate, projection, order_by, ...)
/// of one [`BoundSelect`].
#[derive(Debug, Default, Clone)]
pub struct StageProf {
    pub execs: u64,
    pub elapsed_ns: u64,
    pub rows_out: u64,
    /// Bytes of buffers this stage materialized (hash-agg group tables,
    /// sort keys).
    pub mem_bytes: u64,
}

/// Actuals of one *parallel* stage, aggregated across workers and (for
/// re-executed subplans) across executions.
#[derive(Debug, Default, Clone)]
pub struct ParProf {
    pub execs: u64,
    /// Maximum worker count observed.
    pub workers: u64,
    /// Summed per-worker busy time across all executions.
    pub busy_ns: u64,
    /// Busy time of the slowest worker of any execution.
    pub max_worker_ns: u64,
    /// Total morsels dispatched.
    pub morsels: u64,
    /// Per-worker morsel counts of the most recent execution.
    pub per_worker: Vec<u64>,
}

/// Profiling sink for `EXPLAIN ANALYZE`. Operators are keyed by node
/// address within the physical tree (stable for the duration of one
/// execution), stages by the owning plan's address plus stage name;
/// parallel actuals share the stage keying (operator address + stage
/// name for tree nodes).
#[derive(Debug, Default)]
pub struct Profile {
    pub ops: RefCell<HashMap<usize, OpProf>>,
    pub stages: RefCell<HashMap<(usize, &'static str), StageProf>>,
    pub parallel: RefCell<HashMap<(usize, &'static str), ParProf>>,
}

/// The opaque profiling key of a physical operator node.
pub fn op_key(op: &PhysOp) -> usize {
    op as *const PhysOp as usize
}

/// The opaque profiling key of a plan's post-join stages.
pub fn plan_key(plan: &BoundSelect) -> usize {
    plan as *const BoundSelect as usize
}

impl<'a> EngineCtx<'a> {
    pub fn new(catalog: &'a TableCatalog<Table>, registry: &'a Registry, guard: &'a ExecGuard) -> Self {
        EngineCtx {
            catalog,
            registry,
            guard,
            ctes: RefCell::new(HashMap::new()),
            rows_scanned: RefCell::new(0),
            profile: None,
            threads: 1,
            progress: None,
        }
    }

    /// Builder: set the worker-thread count for this statement.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder: attach a live-progress handle for this statement.
    pub fn with_progress(mut self, progress: Option<Arc<mduck_obs::QueryProgress>>) -> Self {
        self.progress = progress;
        self
    }

    /// True when a stage may fan out to the worker pool: more than one
    /// thread configured and no correlated outer context (workers use
    /// [`NoSubqueries`] and cannot see outer rows; per-stage gating
    /// additionally requires the expressions involved to be non-complex).
    pub fn parallel_ok(&self, outer: &OuterStack<'_>) -> bool {
        self.threads > 1 && outer.is_empty()
    }

    /// Turn on per-operator/per-stage actuals (`EXPLAIN ANALYZE`).
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Profile::default());
    }

    fn record_stage(&self, plan: &BoundSelect, name: &'static str, start: Instant, rows: usize) {
        if let Some(p) = &self.profile {
            let mut stages = p.stages.borrow_mut();
            let e = stages.entry((plan_key(plan), name)).or_default();
            e.execs += 1;
            e.elapsed_ns += start.elapsed().as_nanos() as u64;
            e.rows_out += rows as u64;
        }
    }

    /// Record the worker-pool actuals of one parallel stage execution
    /// under `(plan-or-op key, stage name)`.
    fn record_parallel(&self, key: usize, name: &'static str, stats: &ParStats) {
        if let Some(p) = &self.profile {
            let mut par = p.parallel.borrow_mut();
            let e = par.entry((key, name)).or_default();
            e.execs += 1;
            e.workers = e.workers.max(stats.workers as u64);
            e.busy_ns += stats.busy_ns;
            e.max_worker_ns = e.max_worker_ns.max(stats.max_worker_ns);
            e.morsels += stats.morsels();
            e.per_worker = stats.morsels_per_worker.clone();
        }
    }

    /// Charge materialized bytes to the statement's memory guard and
    /// attribute them to an operator node (under profiling). Fails when
    /// the charge pushes the statement over `PRAGMA memory_limit`.
    fn charge_op_mem(&self, key: usize, bytes: u64) -> SqlResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        let check = self.guard.charge_mem(bytes);
        self.attribute_op_mem(key, bytes);
        check
    }

    /// Attribute bytes to an operator node *without* charging the guard —
    /// used by coordinators for buffers morsel workers already charged
    /// (workers share the guard but cannot touch the `RefCell` profile).
    fn attribute_op_mem(&self, key: usize, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(p) = &self.profile {
            p.ops.borrow_mut().entry(key).or_default().mem_bytes += bytes;
        }
    }

    /// Charge + attribute for a post-join stage (aggregate, order_by).
    fn charge_stage_mem(&self, plan: &BoundSelect, name: &'static str, bytes: u64) -> SqlResult<()> {
        if bytes == 0 {
            return Ok(());
        }
        let check = self.guard.charge_mem(bytes);
        self.attribute_stage_mem(plan, name, bytes);
        check
    }

    /// Profile-only attribution for worker-charged stage buffers.
    fn attribute_stage_mem(&self, plan: &BoundSelect, name: &'static str, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(p) = &self.profile {
            p.stages.borrow_mut().entry((plan_key(plan), name)).or_default().mem_bytes += bytes;
        }
    }
}

struct PlanExecutor<'a, 'b> {
    ctx: &'b EngineCtx<'a>,
}

impl SubqueryExec for PlanExecutor<'_, '_> {
    fn execute(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Vec<Value>>> {
        // Correlated subqueries re-enter the executor once per outer row;
        // the guard bounds both the depth and (via tick) the wall clock.
        self.ctx.guard.enter_subquery()?;
        let r = execute_select(self.ctx, plan, outer);
        self.ctx.guard.exit_subquery();
        r
    }
}

// ------------------------------------------------------------ physical plan

/// The join/scan tree (everything above it — aggregation, projection,
/// ordering — is driven directly from the [`BoundSelect`]).
#[derive(Debug, Clone)]
pub enum PhysOp {
    SeqScan {
        table: String,
    },
    /// §4.3 index-scan injection: `column <op> constant` answered by the
    /// index named; `fallback` re-applies the original predicate if the
    /// index declines at run time.
    IndexScan {
        table: String,
        index: String,
        op: String,
        constant: Value,
        fallback: BoundExpr,
    },
    CteScan {
        index: usize,
        name: String,
    },
    SubqueryScan {
        plan: Box<BoundSelect>,
        types: Vec<LogicalType>,
    },
    Series {
        args: Vec<BoundExpr>,
    },
    /// `mduck_spans()`: snapshot of the tracing-span ring buffer.
    SpansScan {
        types: Vec<LogicalType>,
    },
    /// `mduck_progress()`: snapshot of the live-progress registry.
    ProgressScan {
        types: Vec<LogicalType>,
    },
    /// `mduck_query_log()`: snapshot of the query-log history.
    QueryLogScan {
        types: Vec<LogicalType>,
    },
    Filter {
        pred: BoundExpr,
        child: Box<PhysOp>,
    },
    /// Hash join building on the right input; `preds` (over the joined
    /// layout) are checked on each key match before it is materialized.
    HashJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        left_keys: Vec<BoundExpr>,
        /// Over the right child's own column space.
        right_keys: Vec<BoundExpr>,
        preds: Vec<BoundExpr>,
    },
    /// Nested-loop join: every row pair for which all `preds` (over the
    /// joined layout) hold; a cross product when `preds` is empty.
    CrossJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        preds: Vec<BoundExpr>,
    },
}

/// A plan's join/scan tree lowered from the shared [`JoinPlan`], plus what
/// runs between the tree and the post-join stages.
#[derive(Debug)]
pub struct PhysPlan {
    /// Boxed so node keys ([`op_key`]) survive moves of the plan.
    pub tree: Box<PhysOp>,
    /// FROM-layout column `i` is column `permutation[i]` of the tree's
    /// output; `None` when the join order is the FROM order.
    pub permutation: Option<Vec<usize>>,
    /// Conjuncts with subqueries, applied over the FROM layout.
    pub residual: Vec<BoundExpr>,
    /// Planner row estimates by node key ([`op_key`]).
    pub estimates: HashMap<usize, f64>,
}

/// Lower the shared join plan of a SELECT to a physical tree. The
/// engine's hook is §4.3 index-scan injection: a base table's local
/// `column && constant` filter becomes a scan of its TRTREE index.
pub fn physical_plan(ctx: &EngineCtx<'_>, plan: &BoundSelect) -> SqlResult<PhysPlan> {
    let table_rows = |name: &str| ctx.catalog.get(name).ok().map(|t| t.read().row_count());
    let jp = JoinPlan::new(plan, &table_rows)?;
    let mut estimates = HashMap::new();
    let mut tree = scan_tree(ctx, &plan.from[jp.first.rel], &jp.first, &mut estimates)?;
    for step in jp.steps {
        let right = scan_tree(ctx, &plan.from[step.right.rel], &step.right, &mut estimates)?;
        let (left_keys, right_keys) = step.keys.into_iter().unzip::<_, _, Vec<_>, Vec<_>>();
        tree = Box::new(if left_keys.is_empty() {
            PhysOp::CrossJoin { left: tree, right, preds: step.preds }
        } else {
            PhysOp::HashJoin { left: tree, right, left_keys, right_keys, preds: step.preds }
        });
        estimates.insert(op_key(&tree), step.est_rows);
    }
    Ok(PhysPlan { tree, permutation: jp.permutation, residual: jp.residual, estimates })
}

/// One FROM item's scan with its local filters stacked on top.
fn scan_tree(
    ctx: &EngineCtx<'_>,
    from: &BoundFrom,
    scan: &ScanNode,
    estimates: &mut HashMap<usize, f64>,
) -> SqlResult<Box<PhysOp>> {
    let mut filters = scan.filters.clone();
    let mut est = scan.base_rows;
    let mut base = base_relation(from)?;
    if let BoundFrom::Table { name, .. } = from {
        for pos in 0..filters.len() {
            if let Some(op) = match_index_pattern(ctx, name, &filters[pos])? {
                est *= selectivity(&filters.remove(pos));
                base = op;
                break;
            }
        }
    }
    let mut node = Box::new(base);
    estimates.insert(op_key(&node), est);
    for pred in filters {
        est *= selectivity(&pred);
        node = Box::new(PhysOp::Filter { pred, child: node });
        estimates.insert(op_key(&node), est);
    }
    Ok(node)
}

fn base_relation(f: &BoundFrom) -> SqlResult<PhysOp> {
    Ok(match f {
        BoundFrom::Table { name, .. } => PhysOp::SeqScan { table: name.clone() },
        BoundFrom::Cte { index, alias, .. } => {
            PhysOp::CteScan { index: *index, name: alias.clone() }
        }
        BoundFrom::Subquery { plan, schema, .. } => PhysOp::SubqueryScan {
            plan: plan.clone(),
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
        BoundFrom::Series { args, .. } => PhysOp::Series { args: args.clone() },
        BoundFrom::Spans { schema, .. } => PhysOp::SpansScan {
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
        BoundFrom::Progress { schema, .. } => PhysOp::ProgressScan {
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
        BoundFrom::QueryLog { schema, .. } => PhysOp::QueryLogScan {
            types: schema.fields.iter().map(|fl| fl.ty.clone()).collect(),
        },
    })
}

/// Stable snake_case operator name (span labels, bench breakdowns).
pub fn op_name(op: &PhysOp) -> &'static str {
    match op {
        PhysOp::SeqScan { .. } => "seq_scan",
        PhysOp::IndexScan { .. } => "index_scan",
        PhysOp::CteScan { .. } => "cte_scan",
        PhysOp::SubqueryScan { .. } => "subquery_scan",
        PhysOp::Series { .. } => "generate_series",
        PhysOp::SpansScan { .. } => "spans_scan",
        PhysOp::ProgressScan { .. } => "progress_scan",
        PhysOp::QueryLogScan { .. } => "query_log_scan",
        PhysOp::Filter { .. } => "filter",
        PhysOp::HashJoin { .. } => "hash_join",
        PhysOp::CrossJoin { .. } => "cross_product",
    }
}

/// Recognize `col <op> constant` (or commuted) over an indexed column of
/// `table`. Returns an [`PhysOp::IndexScan`] when an index is willing.
fn match_index_pattern(
    ctx: &EngineCtx<'_>,
    table: &str,
    pred: &BoundExpr,
) -> SqlResult<Option<PhysOp>> {
    let BoundExpr::Call { name: op, args, .. } = pred else {
        return Ok(None);
    };
    if args.len() != 2 {
        return Ok(None);
    }
    // `&&` commutes; other operators are used as written.
    let (col, constant) = match (&args[0], &args[1]) {
        (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => (*index, v.clone()),
        (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) if op == "&&" => {
            (*index, v.clone())
        }
        _ => return Ok(None),
    };
    let t = ctx.catalog.get(table)?;
    let t = t.read();
    for idx in &t.indexes {
        if idx.column() == col {
            return Ok(Some(PhysOp::IndexScan {
                table: table.to_string(),
                index: idx.name().to_string(),
                op: op.clone(),
                constant,
                fallback: pred.clone(),
            }));
        }
    }
    Ok(None)
}

// ------------------------------------------------------------ execution

/// Execute a physical tree, producing chunks.
///
/// This is a thin observability wrapper around [`run_op`]: it bumps the
/// global chunk counter and, under `EXPLAIN ANALYZE`, records per-node
/// actuals (inclusive wall time, output rows/chunks) and a tracing span.
pub fn execute_op(
    ctx: &EngineCtx<'_>,
    op: &PhysOp,
    outer: &OuterStack<'_>,
) -> SqlResult<Chunks> {
    // Operator spans only under profiling: a correlated subquery re-runs
    // its tree per outer row and would otherwise flood the span ring.
    let _span = ctx
        .profile
        .as_ref()
        .map(|_| mduck_obs::span(format!("vecdb.op.{}", op_name(op))));
    let start = Instant::now();
    let result = run_op(ctx, op, outer);
    if let Ok(chunks) = &result {
        mduck_obs::metrics().chunks_produced.inc(chunks.chunks.len() as u64);
        if let Some(p) = &ctx.profile {
            let mut ops = p.ops.borrow_mut();
            let e = ops.entry(op_key(op)).or_default();
            e.execs += 1;
            e.elapsed_ns += start.elapsed().as_nanos() as u64;
            e.rows_out += chunks.row_count() as u64;
            e.chunks_out += chunks.chunks.len() as u64;
        }
    }
    result
}

/// Charge `n` scanned rows to the guard, the statement statistic, the
/// global metric, and (under profiling) the scan node itself.
fn note_scanned(ctx: &EngineCtx<'_>, op: &PhysOp, n: usize) -> SqlResult<()> {
    ctx.guard.check_rows(n)?;
    ctx.guard.note_scanned(n);
    *ctx.rows_scanned.borrow_mut() += n;
    mduck_obs::metrics().rows_scanned.inc(n as u64);
    if let Some(p) = &ctx.profile {
        p.ops.borrow_mut().entry(op_key(op)).or_default().rows_scanned += n as u64;
    }
    Ok(())
}

fn run_op(
    ctx: &EngineCtx<'_>,
    op: &PhysOp,
    outer: &OuterStack<'_>,
) -> SqlResult<Chunks> {
    let exec = PlanExecutor { ctx };
    match op {
        PhysOp::SeqScan { table } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            mduck_obs::metrics().full_scans.inc(1);
            note_scanned(ctx, op, t.row_count())?;
            let n = t.chunk_count();
            if let Some(pr) = &ctx.progress {
                pr.add_total(n as u64);
            }
            if ctx.parallel_ok(outer) && n >= MIN_PARALLEL_MORSELS {
                // Parallel materialization: each morsel is one chunk range
                // of the column store, claimed dynamically and reassembled
                // in row order. Workers charge the shared memory guard as
                // they materialize, so `PRAGMA memory_limit` trips
                // mid-flight; the coordinator attributes the bytes to the
                // node afterwards (the profile is not thread-safe).
                let guard = ctx.guard;
                let table = &*t;
                let progress = ctx.progress.as_deref();
                let (chunks, stats) = morsel_map(ctx.threads, n, |i| {
                    guard.tick()?;
                    let chunk = table.chunk_at(i);
                    let bytes = chunk.approx_bytes();
                    guard.charge_mem(bytes)?;
                    if let Some(pr) = progress {
                        pr.add_done(1);
                    }
                    Ok((chunk, bytes))
                })?;
                if let Some(stats) = &stats {
                    ctx.record_parallel(op_key(op), "scan", stats);
                }
                let mut out = Chunks::default();
                let mut bytes = 0u64;
                for (chunk, b) in chunks {
                    bytes += b;
                    out.chunks.push(chunk);
                }
                ctx.attribute_op_mem(op_key(op), bytes);
                Ok(out)
            } else {
                let out = t.scan_chunks();
                if let Some(pr) = &ctx.progress {
                    pr.add_done(n as u64);
                }
                ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
                Ok(out)
            }
        }
        PhysOp::IndexScan { table, index: _, op: iop, constant, fallback } => {
            let t = ctx.catalog.get(table)?;
            let t = t.read();
            let mut hit = None;
            for idx in &t.indexes {
                if let Some(rows) = idx.try_scan(iop, constant)? {
                    hit = Some(rows);
                    break;
                }
            }
            match hit {
                Some(mut rows) => {
                    rows.sort_unstable();
                    mduck_obs::metrics().index_probes.inc(1);
                    note_scanned(ctx, op, rows.len())?;
                    let out = t.gather_rows(&rows);
                    ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
                    Ok(out)
                }
                None => {
                    // Index declined: sequential scan + original filter.
                    mduck_obs::metrics().full_scans.inc(1);
                    note_scanned(ctx, op, t.row_count())?;
                    let chunks = t.scan_chunks();
                    ctx.charge_op_mem(op_key(op), chunks.approx_bytes())?;
                    filter_chunks(ctx, chunks, fallback, outer, &exec, op_key(op))
                }
            }
        }
        PhysOp::CteScan { index, .. } => {
            let ctes = ctx.ctes.borrow();
            let mat = ctes
                .get(index)
                .ok_or_else(|| SqlError::execution(format!("CTE {index} not materialized")))?;
            let out = (**mat).clone();
            drop(ctes);
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::SubqueryScan { plan, types } => {
            let rows = execute_select(ctx, plan, outer)?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Series { args } => {
            let vals: SqlResult<Vec<Value>> =
                args.iter().map(|a| eval(a, &[], outer, &exec)).collect();
            let vals = vals?;
            let Some(first) = vals.first() else {
                return Err(SqlError::execution("generate_series requires arguments"));
            };
            let start = first.as_int()?;
            let stop = if vals.len() > 1 { vals[1].as_int()? } else { start };
            let step = if vals.len() > 2 { vals[2].as_int()? } else { 1 };
            if step == 0 {
                return Err(SqlError::execution("generate_series step must be nonzero"));
            }
            let mut out = Chunks::default();
            let mut chunk = DataChunk::new(&[LogicalType::Int]);
            let mut v = start;
            loop {
                let more = (step > 0 && v <= stop) || (step < 0 && v >= stop);
                if !more {
                    break;
                }
                chunk.push_row(&[Value::Int(v)])?;
                if chunk.len >= VECTOR_SIZE {
                    ctx.guard.check_rows(chunk.len)?;
                    out.chunks
                        .push(std::mem::replace(&mut chunk, DataChunk::new(&[LogicalType::Int])));
                }
                // `stop` may be i64::MAX; stepping past it must not overflow.
                v = match v.checked_add(step) {
                    Some(next) => next,
                    None => break,
                };
            }
            if chunk.len > 0 {
                ctx.guard.check_rows(chunk.len)?;
                out.chunks.push(chunk);
            }
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::SpansScan { types } => {
            let rows = mduck_sql::introspect::span_rows();
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::ProgressScan { types } => {
            let rows = mduck_sql::introspect::progress_rows();
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::QueryLogScan { types } => {
            let rows = mduck_sql::introspect::query_log_rows();
            ctx.guard.check_rows(rows.len())?;
            let out = Chunks::from_rows(types, &rows)?;
            ctx.charge_op_mem(op_key(op), out.approx_bytes())?;
            Ok(out)
        }
        PhysOp::Filter { pred, child } => {
            let input = execute_op(ctx, child, outer)?;
            filter_chunks(ctx, input, pred, outer, &exec, op_key(op))
        }
        PhysOp::CrossJoin { left, right, preds } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            nested_loop_join(ctx, &l, &r, preds, outer, &exec, op_key(op))
        }
        PhysOp::HashJoin { left, right, left_keys, right_keys, preds } => {
            let l = execute_op(ctx, left, outer)?;
            let r = execute_op(ctx, right, outer)?;
            hash_join(ctx, &l, &r, left_keys, right_keys, preds, outer, &exec, op_key(op))
        }
    }
}

/// Apply `pred` across all chunks. `key` names the owning operator or
/// plan for parallel actuals. Fans out to the morsel pool when the
/// statement allows it and the predicate carries no subqueries (workers
/// evaluate with [`NoSubqueries`] and an empty outer stack).
fn filter_chunks(
    ctx: &EngineCtx<'_>,
    input: Chunks,
    pred: &BoundExpr,
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key: usize,
) -> SqlResult<Chunks> {
    if let Some(pr) = &ctx.progress {
        pr.add_total(input.chunks.len() as u64);
    }
    if ctx.parallel_ok(outer)
        && !pred.is_complex()
        && input.chunks.len() >= MIN_PARALLEL_MORSELS
    {
        let guard = ctx.guard;
        let chunks = &input.chunks;
        let progress = ctx.progress.as_deref();
        let (results, stats) = morsel_map(ctx.threads, chunks.len(), |i| {
            guard.tick()?;
            let chunk = &chunks[i];
            let sel = filter_chunk(pred, chunk, &OuterStack::EMPTY, &NoSubqueries)?;
            let dropped = (chunk.len - sel.len()) as u64;
            let kept = if sel.len() == chunk.len {
                Some(chunk.clone())
            } else if sel.is_empty() {
                None
            } else {
                Some(chunk.select(&sel))
            };
            // The kept copy is a fresh buffer: charge the shared guard
            // from the worker so the memory limit trips mid-stage.
            let bytes = kept.as_ref().map_or(0, DataChunk::approx_bytes);
            guard.charge_mem(bytes)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok((kept, dropped, bytes))
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(key, "filter", stats);
        }
        // Per-worker counters are merged by the coordinator and flushed
        // into the global registry exactly once per stage.
        let mut counters = mduck_obs::WorkerCounters::default();
        let mut out = Chunks::default();
        let mut bytes = 0u64;
        for (kept, dropped, b) in results {
            counters.rows_filtered += dropped;
            bytes += b;
            if let Some(c) = kept {
                out.chunks.push(c);
            }
        }
        counters.flush();
        ctx.attribute_op_mem(key, bytes);
        return Ok(out);
    }
    let mut out = Chunks::default();
    let mut dropped = 0u64;
    for chunk in &input.chunks {
        ctx.guard.tick()?;
        let sel = filter_chunk(pred, chunk, outer, exec)?;
        dropped += (chunk.len - sel.len()) as u64;
        if sel.len() == chunk.len {
            out.chunks.push(chunk.clone());
        } else if !sel.is_empty() {
            out.chunks.push(chunk.select(&sel));
        }
        if let Some(pr) = &ctx.progress {
            pr.add_done(1);
        }
    }
    ctx.charge_op_mem(key, out.approx_bytes())?;
    mduck_obs::metrics().rows_filtered.inc(dropped);
    Ok(out)
}

/// Flatten chunks into one big chunk (join build sides).
fn flatten(chunks: &Chunks, types: Vec<LogicalType>) -> DataChunk {
    let mut cols: Vec<ColumnData> = types.iter().map(ColumnData::new).collect();
    for chunk in &chunks.chunks {
        for (dst, src) in cols.iter_mut().zip(&chunk.columns) {
            dst.extend_from(src, 0, chunk.len);
        }
    }
    DataChunk::from_columns(cols)
}

fn chunk_types(chunks: &Chunks) -> Vec<LogicalType> {
    chunks
        .chunks
        .first()
        .map(|c| c.columns.iter().map(|col| col.ty.clone()).collect())
        .unwrap_or_default()
}

/// Two input chunks a run of candidate pairs comes from, each with the
/// join predicates' side expressions evaluated over it.
struct PairInputs<'x> {
    l: &'x DataChunk,
    r: &'x DataChunk,
    l_side: &'x DataChunk,
    r_side: &'x DataChunk,
}

/// Collects a join's (left row, right row) pairs. Candidates are tested
/// against the join's predicates a block of `VECTOR_SIZE` at a time (one
/// guard tick per block), on a narrow pair chunk gathered from the side
/// expressions; survivors are materialized into output chunks, each
/// charged to the row budget and the memory guard as it is built.
struct PairSink<'a> {
    ctx: &'a EngineCtx<'a>,
    outer: &'a OuterStack<'a>,
    exec: &'a dyn SubqueryExec,
    key: usize,
    sided: SidedPreds,
    cand: (Vec<usize>, Vec<usize>),
    keep: (Vec<usize>, Vec<usize>),
    out: Chunks,
}

impl<'a> PairSink<'a> {
    fn new(
        ctx: &'a EngineCtx<'a>,
        outer: &'a OuterStack<'a>,
        exec: &'a dyn SubqueryExec,
        key: usize,
        sided: SidedPreds,
    ) -> Self {
        PairSink {
            ctx,
            outer,
            exec,
            key,
            sided,
            cand: Default::default(),
            keep: Default::default(),
            out: Chunks::default(),
        }
    }

    /// Evaluate one side's expressions over an input chunk.
    fn side(&self, exprs: &[BoundExpr], chunk: &DataChunk) -> SqlResult<DataChunk> {
        let cols: SqlResult<Vec<ColumnData>> =
            exprs.iter().map(|e| eval_vector(e, chunk, self.outer, self.exec)).collect();
        Ok(DataChunk { columns: cols?, len: chunk.len })
    }

    fn left_side(&self, l: &DataChunk) -> SqlResult<DataChunk> {
        self.side(&self.sided.left, l)
    }

    fn right_side(&self, r: &DataChunk) -> SqlResult<DataChunk> {
        self.side(&self.sided.right, r)
    }

    /// Offer row `li` of `inp.l` paired with row `ri` of `inp.r`. Every
    /// pair offered until the next [`PairSink::finish_inputs`] must come
    /// from the same inputs.
    fn push(&mut self, inp: &PairInputs<'_>, li: usize, ri: usize) -> SqlResult<()> {
        if self.sided.preds.is_empty() {
            self.keep.0.push(li);
            self.keep.1.push(ri);
            if self.keep.0.len() >= VECTOR_SIZE {
                self.emit(inp)?;
            }
        } else {
            self.cand.0.push(li);
            self.cand.1.push(ri);
            if self.cand.0.len() >= VECTOR_SIZE {
                self.test(inp)?;
            }
        }
        Ok(())
    }

    /// Test the buffered candidates; keep those every predicate accepts.
    fn test(&mut self, inp: &PairInputs<'_>) -> SqlResult<()> {
        self.ctx.guard.tick()?;
        let (cl, cr) = std::mem::take(&mut self.cand);
        let mut cur = combine(inp.l_side, &cl, inp.r_side, &cr);
        // Positions in the candidate block still alive.
        let mut alive: Vec<usize> = (0..cur.len).collect();
        for pred in &self.sided.preds {
            let sel = filter_chunk(pred, &cur, self.outer, self.exec)?;
            if sel.len() < cur.len {
                alive = sel.iter().map(|&k| alive[k]).collect();
                if alive.is_empty() {
                    break;
                }
                cur = cur.select(&sel);
            }
        }
        for k in alive {
            self.keep.0.push(cl[k]);
            self.keep.1.push(cr[k]);
            if self.keep.0.len() >= VECTOR_SIZE {
                self.emit(inp)?;
            }
        }
        Ok(())
    }

    /// Materialize the kept pairs as one output chunk.
    fn emit(&mut self, inp: &PairInputs<'_>) -> SqlResult<()> {
        if self.keep.0.is_empty() {
            return Ok(());
        }
        self.ctx.guard.check_rows(self.keep.0.len())?;
        let chunk = combine(inp.l, &self.keep.0, inp.r, &self.keep.1);
        self.ctx.charge_op_mem(self.key, chunk.approx_bytes())?;
        self.out.chunks.push(chunk);
        self.keep.0.clear();
        self.keep.1.clear();
        Ok(())
    }

    /// Flush everything buffered for `inp` before other inputs are
    /// offered.
    fn finish_inputs(&mut self, inp: &PairInputs<'_>) -> SqlResult<()> {
        if !self.cand.0.is_empty() {
            self.test(inp)?;
        }
        self.emit(inp)
    }

    fn finish(self) -> Chunks {
        mduck_obs::metrics().rows_joined.inc(self.out.row_count() as u64);
        self.out
    }
}

/// Nested-loop join of every left row with every right row, keeping the
/// pairs `preds` accept; a plain cross product when `preds` is empty.
/// Every left row meets every right row, so each one-side subexpression of
/// the predicates is computed once per input row, not per pair (DuckDB's
/// nested-loop join likewise evaluates each side of a join condition once
/// per chunk).
fn nested_loop_join(
    ctx: &EngineCtx<'_>,
    l: &Chunks,
    r: &Chunks,
    preds: &[BoundExpr],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key: usize,
) -> SqlResult<Chunks> {
    if l.row_count() == 0 || r.row_count() == 0 {
        return Ok(Chunks::default());
    }
    let rflat = flatten(r, chunk_types(r));
    // The flattened right side is a fresh buffer.
    ctx.charge_op_mem(key, rflat.approx_bytes())?;
    let sided = SidedPreds::new(preds, l.num_columns(), true);
    let mut sink = PairSink::new(ctx, outer, exec, key, sided);
    let r_side = sink.right_side(&rflat)?;
    for lchunk in &l.chunks {
        let l_side = sink.left_side(lchunk)?;
        let inp = PairInputs { l: lchunk, r: &rflat, l_side: &l_side, r_side: &r_side };
        for li in 0..lchunk.len {
            for ri in 0..rflat.len {
                sink.push(&inp, li, ri)?;
            }
        }
        sink.finish_inputs(&inp)?;
    }
    Ok(sink.finish())
}

fn combine(l: &DataChunk, lsel: &[usize], r: &DataChunk, rsel: &[usize]) -> DataChunk {
    let mut cols = Vec::with_capacity(l.columns.len() + r.columns.len());
    for c in &l.columns {
        cols.push(c.gather(lsel));
    }
    for c in &r.columns {
        cols.push(c.gather(rsel));
    }
    DataChunk { columns: cols, len: lsel.len() }
}

/// Each row's serialized join key, `None` where a key is NULL (NULL never
/// joins).
fn row_keys(
    chunk: &DataChunk,
    keys: &[BoundExpr],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
) -> SqlResult<Vec<Option<Vec<u8>>>> {
    let key_cols: SqlResult<Vec<ColumnData>> =
        keys.iter().map(|k| eval_vector(k, chunk, outer, exec)).collect();
    let key_cols = key_cols?;
    Ok((0..chunk.len)
        .map(|i| {
            let mut key = Vec::new();
            for kc in &key_cols {
                let v = kc.get(i);
                if v.is_null() {
                    return None;
                }
                v.hash_key(&mut key);
            }
            Some(key)
        })
        .collect())
}

/// Hash join on the keys, building on the input with fewer rows; the
/// placed `preds` are checked on each key match, on just the columns they
/// read, before it is materialized. Output columns are the left's, then
/// the right's.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    ctx: &EngineCtx<'_>,
    l: &Chunks,
    r: &Chunks,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    preds: &[BoundExpr],
    outer: &OuterStack<'_>,
    exec: &dyn SubqueryExec,
    key_op: usize,
) -> SqlResult<Chunks> {
    if l.row_count() == 0 || r.row_count() == 0 {
        return Ok(Chunks::default());
    }
    let build_left = l.row_count() < r.row_count();
    let (build, build_keys, probe, probe_keys) =
        if build_left { (l, left_keys, r, right_keys) } else { (r, right_keys, l, left_keys) };
    // The flattened build chunk plus a rough per-entry estimate for the
    // hash table itself are charged up front — the build side is the
    // operator's dominant allocation.
    let flat = flatten(build, chunk_types(build));
    ctx.charge_op_mem(key_op, flat.approx_bytes() + flat.len as u64 * 48)?;
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::with_capacity(flat.len);
    for (i, key) in row_keys(&flat, build_keys, outer, exec)?.into_iter().enumerate() {
        if let Some(key) = key {
            table.entry(key).or_default().push(i);
        }
    }
    let sided = SidedPreds::new(preds, l.num_columns(), false);
    let mut sink = PairSink::new(ctx, outer, exec, key_op, sided);
    let flat_side =
        if build_left { sink.left_side(&flat)? } else { sink.right_side(&flat)? };
    for chunk in probe.chunks.iter().filter(|c| c.len > 0) {
        let chunk_side = if build_left { sink.right_side(chunk)? } else { sink.left_side(chunk)? };
        let inp = if build_left {
            PairInputs { l: &flat, r: chunk, l_side: &flat_side, r_side: &chunk_side }
        } else {
            PairInputs { l: chunk, r: &flat, l_side: &chunk_side, r_side: &flat_side }
        };
        for (i, key) in row_keys(chunk, probe_keys, outer, exec)?.into_iter().enumerate() {
            let Some(matches) = key.and_then(|k| table.get(&k)) else { continue };
            for &b in matches {
                if build_left {
                    sink.push(&inp, b, i)?;
                } else {
                    sink.push(&inp, i, b)?;
                }
            }
        }
        sink.finish_inputs(&inp)?;
    }
    Ok(sink.finish())
}

// ------------------------------------------------------------ full select

/// Execute a bound SELECT to rows.
pub fn execute_select(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    execute_select_inner(ctx, plan, None, outer)
}

/// Execute a bound SELECT against a pre-planned join tree. `EXPLAIN
/// ANALYZE` plans once up front so the profiled node keys match the tree
/// it renders afterwards.
pub fn execute_select_planned(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    phys: &PhysPlan,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    execute_select_inner(ctx, plan, Some(phys), outer)
}

fn execute_select_inner(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    planned: Option<&PhysPlan>,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    let exec = PlanExecutor { ctx };

    // 1. Materialize this plan's CTEs (in order; later ones may reference
    //    earlier ones). Global indices were assigned by the binder in
    //    binding order starting at the count before this plan — recover
    //    them by running a counter alongside.
    materialize_ctes(ctx, plan, outer)?;

    // 2. Input relation: the join tree's output back in the FROM column
    //    layout, then the residual (subquery-bearing) conjuncts.
    let run_tree = |phys: &PhysPlan| -> SqlResult<Chunks> {
        let mut chunks = execute_op(ctx, &phys.tree, outer)?;
        if let Some(perm) = &phys.permutation {
            for chunk in &mut chunks.chunks {
                let mut cols: Vec<Option<ColumnData>> =
                    std::mem::take(&mut chunk.columns).into_iter().map(Some).collect();
                chunk.columns = perm.iter().filter_map(|&i| cols[i].take()).collect();
            }
        }
        if !phys.residual.is_empty() {
            let t = Instant::now();
            for pred in &phys.residual {
                chunks = filter_chunks(ctx, chunks, pred, outer, &exec, plan_key(plan))?;
            }
            ctx.record_stage(plan, "filter", t, chunks.row_count());
        }
        Ok(chunks)
    };
    let input: Chunks = if plan.from.is_empty() {
        // SELECT without FROM: one empty row.
        let mut c = Chunks::default();
        c.chunks.push(DataChunk { columns: vec![], len: 1 });
        c
    } else {
        match planned {
            Some(phys) => run_tree(phys)?,
            None => run_tree(&physical_plan(ctx, plan)?)?,
        }
    };

    // 3. Aggregation → environment rows.
    let (env_rows, env_is_input) = if plan.aggregated {
        let t = Instant::now();
        let rows = aggregate(ctx, plan, &input, outer)?;
        ctx.record_stage(plan, "aggregate", t, rows.len());
        (rows, false)
    } else {
        (Vec::new(), true)
    };

    // 4 + 5. HAVING + projection.
    let proj_start = Instant::now();
    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    let mut env_kept: Vec<Vec<Value>> = Vec::new();
    let needs_env = plan
        .order_by
        .iter()
        .any(|o| matches!(o.key, SortKey::Input(_)));
    if env_is_input {
        let simple = plan.projections.iter().all(|p| !p.is_complex());
        if ctx.parallel_ok(outer) && simple && input.chunks.len() >= MIN_PARALLEL_MORSELS {
            // Parallel projection: each worker projects whole chunks into
            // row vectors, reassembled in chunk order.
            let guard = ctx.guard;
            let chunks = &input.chunks;
            let projections = &plan.projections;
            let progress = ctx.progress.as_deref();
            if let Some(pr) = progress {
                pr.add_total(chunks.len() as u64);
            }
            let (parts, stats) = morsel_map(ctx.threads, chunks.len(), |ci| {
                let chunk = &chunks[ci];
                guard.check_rows(chunk.len)?;
                let proj_cols: SqlResult<Vec<ColumnData>> = projections
                    .iter()
                    .map(|p| eval_vector(p, chunk, &OuterStack::EMPTY, &NoSubqueries))
                    .collect();
                let proj_cols = proj_cols?;
                let mut rows: Vec<Vec<Value>> = Vec::with_capacity(chunk.len);
                let mut env: Vec<Vec<Value>> = Vec::new();
                for i in 0..chunk.len {
                    rows.push(proj_cols.iter().map(|c| c.get(i)).collect());
                    if needs_env {
                        env.push(chunk.row(i));
                    }
                }
                if let Some(pr) = progress {
                    pr.add_done(1);
                }
                Ok((rows, env))
            })?;
            if let Some(stats) = &stats {
                ctx.record_parallel(plan_key(plan), "projection", stats);
            }
            for (rows, env) in parts {
                out_rows.extend(rows);
                env_kept.extend(env);
            }
        } else {
            for chunk in &input.chunks {
                ctx.guard.check_rows(chunk.len)?;
                // Vectorized projection straight off the input chunks.
                let proj_cols: SqlResult<Vec<ColumnData>> = plan
                    .projections
                    .iter()
                    .map(|p| eval_vector(p, chunk, outer, &exec))
                    .collect();
                let proj_cols = proj_cols?;
                for i in 0..chunk.len {
                    out_rows.push(proj_cols.iter().map(|c| c.get(i)).collect());
                    if needs_env {
                        env_kept.push(chunk.row(i));
                    }
                }
            }
        }
    } else {
        for row in env_rows {
            if let Some(h) = &plan.having {
                if !matches!(eval(h, &row, outer, &exec)?, Value::Bool(true)) {
                    continue;
                }
            }
            let mut out = Vec::with_capacity(plan.projections.len());
            for p in &plan.projections {
                out.push(eval(p, &row, outer, &exec)?);
            }
            out_rows.push(out);
            if needs_env {
                env_kept.push(row);
            }
        }
    }
    ctx.record_stage(plan, "projection", proj_start, out_rows.len());

    // 6. DISTINCT.
    if plan.distinct {
        let t = Instant::now();
        let mut seen = std::collections::HashSet::new();
        let mut kept_out = Vec::with_capacity(out_rows.len());
        let mut kept_env = Vec::new();
        for (i, row) in out_rows.into_iter().enumerate() {
            let mut key = Vec::new();
            for v in &row {
                v.hash_key(&mut key);
            }
            if seen.insert(key) {
                if needs_env {
                    kept_env.push(env_kept[i].clone());
                }
                kept_out.push(row);
            }
        }
        out_rows = kept_out;
        env_kept = kept_env;
        ctx.record_stage(plan, "distinct", t, out_rows.len());
    }

    // 7. ORDER BY. Rows are *moved* into the keyed vector and moved back
    // out after sorting — the sort permutation is applied without cloning
    // a single output row.
    if !plan.order_by.is_empty() {
        let t = Instant::now();
        let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(out_rows.len());
        let mut key_bytes = 0u64;
        for (i, row) in out_rows.into_iter().enumerate() {
            let mut keys = Vec::with_capacity(plan.order_by.len());
            for o in &plan.order_by {
                let v = match &o.key {
                    SortKey::Output(j) => row[*j].clone(),
                    SortKey::Input(e) => eval(e, &env_kept[i], outer, &exec)?,
                };
                key_bytes += 32 + v.approx_bytes();
                keys.push(v);
            }
            keyed.push((keys, row));
        }
        // The sort key vector is the stage's own allocation (rows are
        // moved, not copied).
        ctx.charge_stage_mem(plan, "order_by", key_bytes)?;
        let mut cmp_err = None;
        keyed.sort_by(|(a, _), (b, _)| {
            mduck_sql::cmp_order_keys(a, b, &plan.order_by, &mut cmp_err)
        });
        if let Some(e) = cmp_err {
            return Err(e);
        }
        out_rows = keyed.into_iter().map(|(_, row)| row).collect();
        ctx.record_stage(plan, "order_by", t, out_rows.len());
    }

    // 8. OFFSET / LIMIT.
    if plan.offset.is_some() || plan.limit.is_some() {
        let t = Instant::now();
        if let Some(off) = plan.offset {
            let off = off as usize;
            out_rows = if off >= out_rows.len() { Vec::new() } else { out_rows.split_off(off) };
        }
        if let Some(lim) = plan.limit {
            out_rows.truncate(lim as usize);
        }
        ctx.record_stage(plan, "limit", t, out_rows.len());
    }
    Ok(out_rows)
}

/// Materialize the plan's CTEs into the shared context, in declaration
/// order (later CTEs may reference earlier ones).
fn materialize_ctes(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<()> {
    for cte in &plan.ctes {
        let rows = execute_select(ctx, &cte.plan, outer)?;
        let types: Vec<LogicalType> = cte
            .plan
            .output_schema
            .fields
            .iter()
            .map(|f| f.ty.clone())
            .collect();
        let chunks = Chunks::from_rows(&types, &rows)?;
        ctx.ctes.borrow_mut().insert(cte.index, Arc::new(chunks));
    }
    Ok(())
}

/// One aggregation group, carrying its hash key so partial group sets can
/// be merged across workers.
struct Group {
    key_bytes: Vec<u8>,
    keys: Vec<Value>,
    states: Vec<Box<dyn mduck_sql::AggState>>,
    distinct_seen: Vec<Option<std::collections::HashSet<Vec<u8>>>>,
}

/// Groups in **first-seen order** — a hash index for lookup plus an
/// ordered vector. Serial and parallel aggregation both emit groups in
/// the order the first row of each group appears in the input, which is
/// what makes two-phase results byte-identical to serial ones.
#[derive(Default)]
struct GroupSet {
    index: HashMap<Vec<u8>, usize>,
    groups: Vec<Group>,
}

/// Hash aggregation: returns the environment rows
/// `[group keys ++ aggregate results]`.
///
/// Three execution paths, chosen per statement:
/// 1. **Two-phase parallel** — every aggregate state supports
///    [`mduck_sql::AggState::exact_merge`] and none is DISTINCT: workers
///    fold *contiguous* chunk ranges into partial group sets, merged
///    serially in range order.
/// 2. **Hybrid parallel** — some state merges inexactly (float sums) or
///    is DISTINCT: workers only evaluate group keys / arguments per
///    chunk; the state fold stays serial in chunk order.
/// 3. **Serial** — complex expressions (subqueries), correlated context,
///    or too little input.
fn aggregate(
    ctx: &EngineCtx<'_>,
    plan: &BoundSelect,
    input: &Chunks,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Vec<Value>>> {
    let exec = PlanExecutor { ctx };
    let make_group = |key_bytes: Vec<u8>, keys: Vec<Value>| -> Group {
        Group {
            key_bytes,
            keys,
            states: plan.aggregates.iter().map(|a| (a.factory)()).collect(),
            distinct_seen: plan
                .aggregates
                .iter()
                .map(|a| a.distinct.then(std::collections::HashSet::new))
                .collect(),
        }
    };
    // Vectorized evaluation of group keys and aggregate arguments.
    let eval_cols = |chunk: &DataChunk,
                     outer: &OuterStack<'_>,
                     exec: &dyn SubqueryExec|
     -> SqlResult<(Vec<ColumnData>, Vec<Vec<ColumnData>>)> {
        let key_cols: SqlResult<Vec<ColumnData>> = plan
            .group_by
            .iter()
            .map(|g| eval_vector(g, chunk, outer, exec))
            .collect();
        let arg_cols: SqlResult<Vec<Vec<ColumnData>>> = plan
            .aggregates
            .iter()
            .map(|a| {
                a.args
                    .iter()
                    .map(|arg| eval_vector(arg, chunk, outer, exec))
                    .collect()
            })
            .collect();
        Ok((key_cols?, arg_cols?))
    };
    // Per-group footprint estimate: key bytes, key values, and a flat
    // allowance per aggregate state. Charged against the shared guard as
    // groups are *created* — in two-phase workers too, where the shared
    // root accumulating across partials is exactly what lets an oversized
    // hash table trip `PRAGMA memory_limit` mid-flight.
    let nstates = plan.aggregates.len() as u64;
    let group_bytes = |g: &Group| -> u64 {
        64 + g.key_bytes.len() as u64
            + g.keys.iter().map(Value::approx_bytes).sum::<u64>()
            + nstates * 48
    };
    let guard = ctx.guard;
    // Fold one chunk's evaluated columns into a group set, row by row.
    let fold_cols = |set: &mut GroupSet,
                     len: usize,
                     key_cols: &[ColumnData],
                     arg_cols: &[Vec<ColumnData>]|
     -> SqlResult<()> {
        let mut key = Vec::new();
        for i in 0..len {
            key.clear();
            let mut keys = Vec::with_capacity(key_cols.len());
            for kc in key_cols {
                let v = kc.get(i);
                v.hash_key(&mut key);
                keys.push(v);
            }
            let gi = match set.index.get(&key) {
                Some(&gi) => gi,
                None => {
                    let gi = set.groups.len();
                    set.index.insert(key.clone(), gi);
                    set.groups.push(make_group(key.clone(), keys));
                    guard.charge_mem(group_bytes(&set.groups[gi]))?;
                    gi
                }
            };
            let group = &mut set.groups[gi];
            for (ai, cols) in arg_cols.iter().enumerate() {
                let args: Vec<Value> = cols.iter().map(|c| c.get(i)).collect();
                if let Some(seen) = &mut group.distinct_seen[ai] {
                    let mut akey = Vec::new();
                    for a in &args {
                        a.hash_key(&mut akey);
                    }
                    if !seen.insert(akey) {
                        continue;
                    }
                }
                group.states[ai].update(&args)?;
            }
        }
        Ok(())
    };

    let n = input.chunks.len();
    let complex = plan.group_by.iter().any(BoundExpr::is_complex)
        || plan
            .aggregates
            .iter()
            .any(|a| a.args.iter().any(BoundExpr::is_complex));
    let parallel = ctx.parallel_ok(outer) && !complex && n >= MIN_PARALLEL_MORSELS;
    // DISTINCT gates updates *before* they reach the state, so partial
    // states would double-count across workers — those statements use the
    // hybrid path, as do aggregates whose merge is not exact (float sums).
    let two_phase = parallel
        && !plan.aggregates.iter().any(|a| a.distinct)
        && plan.aggregates.iter().all(|a| (a.factory)().exact_merge());

    let mut set = GroupSet::default();
    let progress = ctx.progress.as_deref();
    if two_phase {
        // Phase 1: contiguous chunk ranges → partial group sets. Ranges
        // (rather than dynamic single-chunk claiming) keep every state's
        // update order a subsequence of the serial order.
        let chunks = &input.chunks;
        let ranges = contiguous_ranges(n, ctx.threads);
        if let Some(pr) = progress {
            pr.add_total(ranges.len() as u64);
        }
        let (partials, stats) = morsel_map(ctx.threads, ranges.len(), |ri| {
            let mut part = GroupSet::default();
            for chunk in &chunks[ranges[ri].clone()] {
                guard.check_rows(chunk.len)?;
                let (key_cols, arg_cols) =
                    eval_cols(chunk, &OuterStack::EMPTY, &NoSubqueries)?;
                fold_cols(&mut part, chunk.len, &key_cols, &arg_cols)?;
            }
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok(part)
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(plan_key(plan), "aggregate", stats);
        }
        // Phase 2: merge partials in range order — group discovery order
        // and state contents match a serial left-to-right run exactly.
        for partial in partials {
            for mut g in partial.groups {
                match set.index.get(&g.key_bytes) {
                    Some(&gi) => {
                        let dst = &mut set.groups[gi];
                        for (s, o) in dst.states.iter_mut().zip(g.states.iter_mut()) {
                            s.merge(&mut **o)?;
                        }
                    }
                    None => {
                        set.index.insert(g.key_bytes.clone(), set.groups.len());
                        set.groups.push(g);
                    }
                }
            }
        }
    } else if parallel {
        // Hybrid: parallel expression evaluation, serial state fold.
        let chunks = &input.chunks;
        if let Some(pr) = progress {
            pr.add_total(n as u64);
        }
        let (cols, stats) = morsel_map(ctx.threads, n, |i| {
            let chunk = &chunks[i];
            guard.check_rows(chunk.len)?;
            let (key_cols, arg_cols) = eval_cols(chunk, &OuterStack::EMPTY, &NoSubqueries)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
            Ok((chunk.len, key_cols, arg_cols))
        })?;
        if let Some(stats) = &stats {
            ctx.record_parallel(plan_key(plan), "aggregate", stats);
        }
        for (len, key_cols, arg_cols) in &cols {
            ctx.guard.tick()?;
            fold_cols(&mut set, *len, key_cols, arg_cols)?;
        }
    } else {
        if let Some(pr) = progress {
            pr.add_total(input.chunks.len() as u64);
        }
        for chunk in &input.chunks {
            ctx.guard.check_rows(chunk.len)?;
            let (key_cols, arg_cols) = eval_cols(chunk, outer, &exec)?;
            fold_cols(&mut set, chunk.len, &key_cols, &arg_cols)?;
            if let Some(pr) = progress {
                pr.add_done(1);
            }
        }
    }
    // Attribute the surviving group table to the stage for `EXPLAIN
    // ANALYZE`; the guard was already charged group-by-group above.
    ctx.attribute_stage_mem(
        plan,
        "aggregate",
        set.groups.iter().map(&group_bytes).sum::<u64>(),
    );

    // GROUP BY with no groups in the input and no keys still yields one row
    // (global aggregate); with keys it yields nothing.
    if set.groups.is_empty() && plan.group_by.is_empty() {
        let mut g = make_group(Vec::new(), Vec::new());
        let mut row = Vec::new();
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        return Ok(vec![row]);
    }

    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(set.groups.len());
    for mut g in set.groups {
        let mut row = g.keys;
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        rows.push(row);
    }
    Ok(rows)
}
