//! Row-at-a-time execution of bound plans — the PostgreSQL-style baseline.
//!
//! Every operator processes one `Vec<Value>` row at a time through the
//! shared tree-walking evaluator (no vectorized fast paths, no columnar
//! gathers). The planner mirrors PostgreSQL's choices: hash joins for
//! equality conjuncts, and — when indexes exist (the paper's "MobilityDB
//! with indexes" scenario) — index scans for single-table predicates and
//! GiST-style index nested-loop joins for spatiotemporal join predicates
//! like Q10's `t2.Trip && expandSpace(t1.trip::STBOX, 3.0)`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use mduck_obs::QueryProgress;
use mduck_sql::ast::BinaryOp;
use mduck_sql::eval::{eval, OuterStack, SubqueryExec};
use mduck_sql::planner::SidedPreds;
use mduck_sql::{
    BoundExpr, BoundFrom, BoundSelect, ExecGuard, JoinPlan, JoinStep, Registry, ScanNode,
    SortKey, SqlError, SqlResult, Value,
};

use mduck_wal::session::TableCatalog;

use crate::catalog::HeapTable;

type Row = Vec<Value>;

/// Execution context for one statement.
pub struct RowCtx<'a> {
    pub catalog: &'a TableCatalog<HeapTable>,
    pub registry: &'a Registry,
    /// The per-statement guard: rows-scanned budget, memory accounting.
    pub guard: &'a ExecGuard,
    /// Live progress of the statement, if the caller registered one.
    pub progress: Option<&'a QueryProgress>,
    pub ctes: RefCell<HashMap<usize, Arc<Vec<Row>>>>,
    pub rows_scanned: RefCell<usize>,
}

impl<'a> RowCtx<'a> {
    pub fn new(catalog: &'a TableCatalog<HeapTable>, registry: &'a Registry, guard: &'a ExecGuard) -> Self {
        RowCtx {
            catalog,
            registry,
            guard,
            progress: None,
            ctes: RefCell::new(HashMap::new()),
            rows_scanned: RefCell::new(0),
        }
    }

    pub fn with_progress(mut self, progress: Option<&'a QueryProgress>) -> Self {
        self.progress = progress;
        self
    }
}

/// Heap-tuple cost of one materialized row: a `Vec<Value>` header plus the
/// per-value estimates (`Value::approx_bytes`). The row engine charges
/// every row it materializes — scans, join builds/outputs, group states —
/// against the statement's memory scope, so `PRAGMA memory_limit` trips
/// identically to the vectorized engine's allocation-cumulative model.
fn row_bytes(row: &Row) -> u64 {
    24 + row.iter().map(Value::approx_bytes).sum::<u64>()
}

struct RowExecutor<'a, 'b> {
    ctx: &'b RowCtx<'a>,
}

impl SubqueryExec for RowExecutor<'_, '_> {
    fn execute(&self, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Row>> {
        execute_select(self.ctx, plan, outer)
    }
}

/// Tuple deforming + detoasting, as PostgreSQL performs on every heap
/// tuple access: extension values are materialized from their wire format
/// (the varlena/BLOB form MobilityDB stores) before the executor touches
/// them. The columnar engine does not pay this — DuckDB hands the flat
/// in-memory representation straight to MEOS — which is one of the
/// engine-level asymmetries Figure 12 measures.
fn detoast_row(ctx: &RowCtx<'_>, row: &Row) -> SqlResult<Row> {
    let mut out = Vec::with_capacity(row.len());
    for v in row {
        match v {
            Value::Ext(e) => match ctx.registry.ext_codec(e.type_name()) {
                Some(dec) => out.push(dec(&e.obj.to_bytes())?),
                None => out.push(v.clone()),
            },
            other => out.push(other.clone()),
        }
    }
    Ok(out)
}

// ------------------------------------------------------------ planning

/// The engine's index-scan hook on the shared plan: a base table whose
/// local filter is `col <op> constant` over an indexed column is read
/// through that index. Returns the filter's position, operator and
/// constant.
fn index_probe(
    ctx: &RowCtx<'_>,
    from: &BoundFrom,
    scan: &ScanNode,
) -> SqlResult<Option<(usize, String, Value)>> {
    let BoundFrom::Table { name, .. } = from else { return Ok(None) };
    let t = ctx.catalog.get(name)?;
    let t = t.read();
    for (pos, f) in scan.filters.iter().enumerate() {
        if let Some((col, op, constant)) = constant_pattern(f) {
            if t.indexes.iter().any(|i| i.column() == col) {
                return Ok(Some((pos, op, constant)));
            }
        }
    }
    Ok(None)
}

/// The engine's GiST index nested-loop hook on the shared plan: a join
/// step without hash keys whose right item is a base table read without
/// an index probe, and whose predicate compares an indexed column of it
/// (by a registered operator) with an expression over the left row.
/// Returns the operator and the probe expression.
fn index_nl(
    ctx: &RowCtx<'_>,
    from: &BoundFrom,
    step: &JoinStep,
    left_width: usize,
) -> SqlResult<Option<(String, BoundExpr)>> {
    let BoundFrom::Table { name, .. } = from else { return Ok(None) };
    if !step.keys.is_empty() || index_probe(ctx, from, &step.right)?.is_some() {
        return Ok(None);
    }
    let t = ctx.catalog.get(name)?;
    let t = t.read();
    for c in &step.preds {
        if let Some((col, op, probe)) = join_probe_pattern(c, left_width) {
            if t.indexes.iter().any(|i| i.column() == col) {
                return Ok(Some((op, probe)));
            }
        }
    }
    Ok(None)
}

/// `col <op> literal` over the local column space.
fn constant_pattern(c: &BoundExpr) -> Option<(usize, String, Value)> {
    match c {
        BoundExpr::Call { name, args, .. } if args.len() == 2 => match (&args[0], &args[1]) {
            (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v)) => {
                Some((*index, name.clone(), v.clone()))
            }
            (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) if name == "&&" => {
                Some((*index, name.clone(), v.clone()))
            }
            _ => None,
        },
        BoundExpr::Compare { op: BinaryOp::Eq, left, right } => match (&**left, &**right) {
            (BoundExpr::ColumnRef { index, .. }, BoundExpr::Literal(v))
            | (BoundExpr::Literal(v), BoundExpr::ColumnRef { index, .. }) => {
                Some((*index, "=".into(), v.clone()))
            }
            _ => None,
        },
        _ => None,
    }
}

/// `right_col <op> expr(left)` join pattern (commuting `&&`) over a join
/// step's layout, whose first `left_width` columns are the left row's.
/// Returns the right column (local), operator, and the probe expression
/// over the left row.
fn join_probe_pattern(c: &BoundExpr, left_width: usize) -> Option<(usize, String, BoundExpr)> {
    let BoundExpr::Call { name, args, .. } = c else { return None };
    if args.len() != 2 {
        return None;
    }
    let col_of_right = |e: &BoundExpr| match e {
        BoundExpr::ColumnRef { index, .. } if *index >= left_width => Some(*index - left_width),
        _ => None,
    };
    let over_left = |e: &BoundExpr| {
        let mut cols = Vec::new();
        e.collect_columns(&mut cols);
        !cols.is_empty() && cols.iter().all(|&x| x < left_width)
    };
    if let Some(col) = col_of_right(&args[0]) {
        if over_left(&args[1]) {
            return Some((col, name.clone(), args[1].clone()));
        }
    }
    if name == "&&" || name == "=" {
        if let Some(col) = col_of_right(&args[1]) {
            if over_left(&args[0]) {
                return Some((col, name.clone(), args[0].clone()));
            }
        }
    }
    None
}

/// Render a PostgreSQL-style indented text plan for EXPLAIN.
pub fn explain_select(ctx: &RowCtx<'_>, plan: &BoundSelect) -> SqlResult<String> {
    let mut out = String::new();
    if plan.limit.is_some() || plan.offset.is_some() {
        let mut parts = Vec::new();
        if let Some(l) = plan.limit {
            parts.push(format!("{l} rows"));
        }
        if let Some(o) = plan.offset {
            parts.push(format!("offset {o}"));
        }
        out.push_str(&format!("Limit ({})\n", parts.join(", ")));
    }
    if !plan.order_by.is_empty() {
        out.push_str("Sort\n");
    }
    if plan.distinct {
        out.push_str("Unique\n");
    }
    if plan.aggregated {
        out.push_str(&format!(
            "HashAggregate (groups: {}, aggregates: {})\n",
            plan.group_by.len(),
            plan.aggregates.len()
        ));
    }
    if plan.from.is_empty() {
        out.push_str("Result\n");
        return Ok(out);
    }
    let jp = row_join_plan(ctx, plan)?;
    // Render join steps top-down (last join is outermost).
    let mut widths: Vec<usize> = Vec::with_capacity(jp.steps.len());
    let mut width = plan.from[jp.first.rel].schema().len();
    for step in &jp.steps {
        widths.push(width);
        width += plan.from[step.right.rel].schema().len();
    }
    let mut depth = 0usize;
    for (step, &left_width) in jp.steps.iter().zip(&widths).rev() {
        let pad = "  ".repeat(depth);
        let from = &plan.from[step.right.rel];
        let est = fmt_est(step.est_rows);
        match index_nl(ctx, from, step, left_width)? {
            Some((op, _)) => out.push_str(&format!(
                "{pad}Nested Loop (index probe: {op} via GiST)  {est}\n"
            )),
            None if !step.keys.is_empty() => {
                out.push_str(&format!("{pad}Hash Join (keys: {})  {est}\n", step.keys.len()))
            }
            None => {
                out.push_str(&format!("{pad}Nested Loop"));
                if !step.preds.is_empty() {
                    out.push_str(&format!("  Join Filter: {} condition(s)", step.preds.len()));
                }
                out.push_str(&format!("  {est}\n"));
            }
        }
        depth += 1;
    }
    let pad = "  ".repeat(depth);
    render_scan(ctx, &mut out, &pad, &plan.from[jp.first.rel], &jp.first)?;
    for step in &jp.steps {
        render_scan(ctx, &mut out, &pad, &plan.from[step.right.rel], &step.right)?;
    }
    Ok(out)
}

fn fmt_est(rows: f64) -> String {
    format!("(est rows={})", rows.round().max(1.0))
}

fn render_scan(
    ctx: &RowCtx<'_>,
    out: &mut String,
    pad: &str,
    from: &BoundFrom,
    scan: &ScanNode,
) -> SqlResult<()> {
    let mut filters = scan.filters.len();
    let node = match from {
        BoundFrom::Table { name, .. } => match index_probe(ctx, from, scan)? {
            Some((_, op, _)) => {
                filters -= 1;
                format!("Index Scan on {name} ({op} probe)")
            }
            None => format!("Seq Scan on {name}"),
        },
        BoundFrom::Cte { index, .. } => format!("CTE Scan (slot {index})"),
        BoundFrom::Subquery { .. } => "Subquery Scan".into(),
        BoundFrom::Series { .. } => "Function Scan on generate_series".into(),
        BoundFrom::Spans { .. } => "Function Scan on mduck_spans".into(),
        BoundFrom::Progress { .. } => "Function Scan on mduck_progress".into(),
        BoundFrom::QueryLog { .. } => "Function Scan on mduck_query_log".into(),
    };
    out.push_str(&format!("{pad}{node}"));
    if filters > 0 {
        out.push_str(&format!("  Filter: {filters} condition(s)"));
    }
    out.push_str(&format!("  {}\n", fmt_est(scan.est_rows)));
    Ok(())
}

// ------------------------------------------------------------ execution

/// The shared join plan of `plan`, estimated from the heap tables' row
/// counts.
fn row_join_plan(ctx: &RowCtx<'_>, plan: &BoundSelect) -> SqlResult<JoinPlan> {
    let table_rows = |name: &str| ctx.catalog.get(name).ok().map(|t| t.read().rows.len());
    JoinPlan::new(plan, &table_rows)
}

/// Keep the rows every predicate accepts.
fn filter_rows(
    ctx: &RowCtx<'_>,
    mut rows: Vec<Row>,
    preds: &[BoundExpr],
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    for f in preds {
        let before = rows.len();
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if matches!(eval(f, &row, outer, &exec)?, Value::Bool(true)) {
                kept.push(row);
            }
        }
        mduck_obs::metrics().rows_filtered.inc((before - kept.len()) as u64);
        rows = kept;
    }
    Ok(rows)
}

/// True when every predicate accepts `row`.
fn accepts(
    ctx: &RowCtx<'_>,
    preds: &[BoundExpr],
    row: &[Value],
    outer: &OuterStack<'_>,
) -> SqlResult<bool> {
    let exec = RowExecutor { ctx };
    for p in preds {
        if !matches!(eval(p, row, outer, &exec)?, Value::Bool(true)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Read one FROM item's rows with its local filters applied.
fn scan_rel(
    ctx: &RowCtx<'_>,
    from: &BoundFrom,
    scan: &ScanNode,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let BoundFrom::Table { name, .. } = from else {
        let rows = source_rows(ctx, from, outer)?;
        return filter_rows(ctx, rows, &scan.filters, outer);
    };
    let exec = RowExecutor { ctx };
    let mut filters = scan.filters.clone();
    let probe = index_probe(ctx, from, scan)?.map(|(pos, op, constant)| {
        let original = filters.remove(pos);
        (op, constant, original)
    });
    let t = ctx.catalog.get(name)?;
    let t = t.read();
    let mut out = Vec::new();
    let candidate_rows: Option<Vec<u64>> = match &probe {
        Some((op, constant, _)) => {
            let mut hit = None;
            for idx in &t.indexes {
                if let Some(rows) = idx.try_scan(op, constant)? {
                    hit = Some(rows);
                    break;
                }
            }
            hit
        }
        None => None,
    };
    let mut process = |row: Row| -> SqlResult<()> {
        if accepts(ctx, &filters, &row, outer)? {
            ctx.guard.charge_mem(row_bytes(&row))?;
            out.push(row);
        }
        Ok(())
    };
    let candidates;
    match (candidate_rows, &probe) {
        (Some(mut ids), Some((_, _, original))) => {
            ids.sort_unstable();
            candidates = ids.len();
            *ctx.rows_scanned.borrow_mut() += ids.len();
            ctx.guard.note_scanned(ids.len());
            let m = mduck_obs::metrics();
            m.index_probes.inc(1);
            m.rows_scanned.inc(ids.len() as u64);
            if let Some(pr) = ctx.progress {
                pr.add_total(ids.len() as u64);
            }
            for id in ids {
                if let Some(pr) = ctx.progress {
                    pr.add_done(1);
                }
                let row = detoast_row(ctx, &t.rows[id as usize])?;
                // Re-check the indexed predicate (the index may be
                // lossy) plus residual filters.
                if !matches!(eval(original, &row, outer, &exec)?, Value::Bool(true)) {
                    continue;
                }
                process(row)?;
            }
        }
        _ => {
            candidates = t.rows.len();
            *ctx.rows_scanned.borrow_mut() += t.rows.len();
            ctx.guard.note_scanned(t.rows.len());
            let m = mduck_obs::metrics();
            m.full_scans.inc(1);
            m.rows_scanned.inc(t.rows.len() as u64);
            if let Some(pr) = ctx.progress {
                pr.add_total(t.rows.len() as u64);
            }
            for stored in &t.rows {
                if let Some(pr) = ctx.progress {
                    pr.add_done(1);
                }
                let row = detoast_row(ctx, stored)?;
                if let Some((_, _, original)) = &probe {
                    if !matches!(eval(original, &row, outer, &exec)?, Value::Bool(true)) {
                        continue;
                    }
                }
                process(row)?;
            }
        }
    }
    mduck_obs::metrics().rows_filtered.inc(candidates.saturating_sub(out.len()) as u64);
    Ok(out)
}

/// Rows of a FROM item that is not a base table.
fn source_rows(ctx: &RowCtx<'_>, from: &BoundFrom, outer: &OuterStack<'_>) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    match from {
        BoundFrom::Table { .. } => Err(SqlError::internal("base tables are read by scan_rel")),
        BoundFrom::Cte { index, .. } => {
            let ctes = ctx.ctes.borrow();
            let rows = ctes
                .get(index)
                .ok_or_else(|| SqlError::execution(format!("CTE {index} not materialized")))?;
            Ok((**rows).clone())
        }
        BoundFrom::Subquery { plan, .. } => execute_select(ctx, plan, outer),
        BoundFrom::Series { args, .. } => {
            let vals: SqlResult<Vec<Value>> =
                args.iter().map(|a| eval(a, &[], outer, &exec)).collect();
            let vals = vals?;
            let start = vals[0].as_int()?;
            let stop = if vals.len() > 1 { vals[1].as_int()? } else { start };
            let step = if vals.len() > 2 { vals[2].as_int()? } else { 1 };
            if step == 0 {
                return Err(SqlError::execution("generate_series step must be nonzero"));
            }
            let mut out = Vec::new();
            let mut v = start;
            while (step > 0 && v <= stop) || (step < 0 && v >= stop) {
                out.push(vec![Value::Int(v)]);
                v += step;
            }
            Ok(out)
        }
        BoundFrom::Spans { .. } => Ok(mduck_sql::introspect::span_rows()),
        BoundFrom::Progress { .. } => Ok(mduck_sql::introspect::progress_rows()),
        BoundFrom::QueryLog { .. } => Ok(mduck_sql::introspect::query_log_rows()),
    }
}

/// Join the FROM items in the shared plan's order and return the joined
/// rows in the FROM column layout, residual conjuncts applied.
fn join_rows(ctx: &RowCtx<'_>, plan: &BoundSelect, outer: &OuterStack<'_>) -> SqlResult<Vec<Row>> {
    let jp = row_join_plan(ctx, plan)?;
    let first = &plan.from[jp.first.rel];
    let mut acc = scan_rel(ctx, first, &jp.first, outer)?;
    let mut width = first.schema().len();
    for step in &jp.steps {
        let from = &plan.from[step.right.rel];
        acc = match index_nl(ctx, from, step, width)? {
            Some(probe) => index_nl_join(ctx, acc, from, step, probe, outer)?,
            None => {
                let right = scan_rel(ctx, from, &step.right, outer)?;
                if step.keys.is_empty() {
                    nested_loop_join(ctx, &acc, &right, width, &step.preds, outer)?
                } else {
                    hash_join(ctx, &acc, &right, step, outer)?
                }
            }
        };
        width += from.schema().len();
        mduck_obs::metrics().rows_joined.inc(acc.len() as u64);
    }
    if let Some(perm) = &jp.permutation {
        for row in &mut acc {
            let mut joined = std::mem::take(row);
            *row = perm.iter().map(|&i| std::mem::replace(&mut joined[i], Value::Null)).collect();
        }
    }
    filter_rows(ctx, acc, &jp.residual, outer)
}

/// Nested-loop join: every left row paired with every right row that the
/// placed predicates accept. Like PostgreSQL, it evaluates the predicates
/// per pair, on a narrow row of just the columns they read, so rejected
/// pairs are never materialized; the guard is ticked per pair.
fn nested_loop_join(
    ctx: &RowCtx<'_>,
    left: &[Row],
    right: &[Row],
    left_width: usize,
    preds: &[BoundExpr],
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    let sided = SidedPreds::new(preds, left_width, false);
    let mut pair: Vec<Value> = Vec::with_capacity(sided.left.len() + sided.right.len());
    let mut out = Vec::new();
    for l in left {
        for r in right {
            ctx.guard.tick()?;
            if !sided.preds.is_empty() {
                pair.clear();
                for e in &sided.left {
                    pair.push(eval(e, l, outer, &exec)?);
                }
                for e in &sided.right {
                    pair.push(eval(e, r, outer, &exec)?);
                }
                if !accepts(ctx, &sided.preds, &pair, outer)? {
                    continue;
                }
            }
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            ctx.guard.charge_mem(row_bytes(&row))?;
            out.push(row);
        }
    }
    Ok(out)
}

/// Hash join on the step's keys, building on the side with fewer rows;
/// the step's other predicates are checked on each match before it is
/// kept. Output rows are the left row's values, then the right row's.
fn hash_join(
    ctx: &RowCtx<'_>,
    left: &[Row],
    right: &[Row],
    step: &JoinStep,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    // The serialized key of a left (`on_left`) or right row; `None` when a
    // key is NULL (NULL never joins).
    let key_of = |row: &Row, on_left: bool| -> SqlResult<Option<Vec<u8>>> {
        let mut key = Vec::new();
        for (l, r) in &step.keys {
            let v = eval(if on_left { l } else { r }, row, outer, &exec)?;
            if v.is_null() {
                return Ok(None);
            }
            v.hash_key(&mut key);
        }
        Ok(Some(key))
    };
    let build_left = left.len() < right.len();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };
    let mut table: HashMap<Vec<u8>, Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, b) in build.iter().enumerate() {
        if let Some(key) = key_of(b, build_left)? {
            // Build-side state: the serialized key plus a bucket slot per
            // entry.
            ctx.guard.charge_mem(32 + key.len() as u64)?;
            table.entry(key).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for p in probe {
        let Some(matches) = key_of(p, !build_left)?.and_then(|k| table.get(&k)) else { continue };
        for &i in matches {
            let (l, r) = if build_left { (&build[i], p) } else { (p, &build[i]) };
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            if accepts(ctx, &step.preds, &row, outer)? {
                ctx.guard.charge_mem(row_bytes(&row))?;
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// GiST index nested loop: probe the right table's index with an
/// expression over each left row, then re-check every placed predicate
/// (the index may be lossy) on the candidate pair.
fn index_nl_join(
    ctx: &RowCtx<'_>,
    left: Vec<Row>,
    from: &BoundFrom,
    step: &JoinStep,
    (op, probe): (String, BoundExpr),
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let BoundFrom::Table { name, .. } = from else {
        return Err(SqlError::execution("index NL join needs a base table"));
    };
    let exec = RowExecutor { ctx };
    let t = ctx.catalog.get(name)?;
    let t = t.read();
    let mut out = Vec::new();
    for l in &left {
        let probe_val = eval(&probe, l, outer, &exec)?;
        if probe_val.is_null() {
            continue;
        }
        let mut ids = None;
        for idx in &t.indexes {
            if let Some(hit) = idx.try_scan(&op, &probe_val)? {
                ids = Some(hit);
                break;
            }
        }
        let Some(ids) = ids else {
            return Err(SqlError::execution(
                "planned index NL join but no index accepted the probe",
            ));
        };
        *ctx.rows_scanned.borrow_mut() += ids.len();
        ctx.guard.note_scanned(ids.len());
        let m = mduck_obs::metrics();
        m.index_probes.inc(1);
        m.rows_scanned.inc(ids.len() as u64);
        for id in ids {
            let r = detoast_row(ctx, &t.rows[id as usize])?;
            if !accepts(ctx, &step.right.filters, &r, outer)? {
                continue;
            }
            let mut row = l.clone();
            row.extend(r.iter().cloned());
            if accepts(ctx, &step.preds, &row, outer)? {
                ctx.guard.charge_mem(row_bytes(&row))?;
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Execute a bound SELECT, row at a time.
pub fn execute_select(
    ctx: &RowCtx<'_>,
    plan: &BoundSelect,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };

    // CTEs first.
    for cte in &plan.ctes {
        let rows = execute_select(ctx, &cte.plan, outer)?;
        ctx.ctes.borrow_mut().insert(cte.index, Arc::new(rows));
    }

    // FROM/WHERE pipeline.
    let mut rows: Vec<Row> =
        if plan.from.is_empty() { vec![Vec::new()] } else { join_rows(ctx, plan, outer)? };

    // Aggregation.
    if plan.aggregated {
        rows = aggregate_rows(ctx, plan, rows, outer)?;
        if let Some(h) = &plan.having {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if matches!(eval(h, &row, outer, &exec)?, Value::Bool(true)) {
                    kept.push(row);
                }
            }
            rows = kept;
        }
    }

    // Projection.
    let needs_env = plan.order_by.iter().any(|o| matches!(o.key, SortKey::Input(_)));
    let mut out_rows: Vec<Row> = Vec::with_capacity(rows.len());
    let mut env_rows: Vec<Row> = Vec::new();
    for row in rows {
        let mut out = Vec::with_capacity(plan.projections.len());
        for p in &plan.projections {
            out.push(eval(p, &row, outer, &exec)?);
        }
        out_rows.push(out);
        if needs_env {
            env_rows.push(row);
        }
    }

    // DISTINCT.
    if plan.distinct {
        let mut seen = std::collections::HashSet::new();
        let mut kept = Vec::with_capacity(out_rows.len());
        let mut kept_env = Vec::new();
        for (i, row) in out_rows.into_iter().enumerate() {
            let mut key = Vec::new();
            for v in &row {
                v.hash_key(&mut key);
            }
            if seen.insert(key) {
                if needs_env {
                    kept_env.push(env_rows[i].clone());
                }
                kept.push(row);
            }
        }
        out_rows = kept;
        env_rows = kept_env;
    }

    // ORDER BY.
    if !plan.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(out_rows.len());
        for (i, row) in out_rows.into_iter().enumerate() {
            let mut keys = Vec::with_capacity(plan.order_by.len());
            for o in &plan.order_by {
                keys.push(match &o.key {
                    SortKey::Output(j) => row[*j].clone(),
                    SortKey::Input(e) => eval(e, &env_rows[i], outer, &exec)?,
                });
            }
            keyed.push((keys, row));
        }
        let mut cmp_err = None;
        keyed.sort_by(|(a, _), (b, _)| {
            mduck_sql::cmp_order_keys(a, b, &plan.order_by, &mut cmp_err)
        });
        if let Some(e) = cmp_err {
            return Err(e);
        }
        out_rows = keyed.into_iter().map(|(_, r)| r).collect();
    }

    // OFFSET / LIMIT.
    if let Some(off) = plan.offset {
        let off = off as usize;
        out_rows = if off >= out_rows.len() { Vec::new() } else { out_rows.split_off(off) };
    }
    if let Some(lim) = plan.limit {
        out_rows.truncate(lim as usize);
    }
    Ok(out_rows)
}

fn aggregate_rows(
    ctx: &RowCtx<'_>,
    plan: &BoundSelect,
    rows: Vec<Row>,
    outer: &OuterStack<'_>,
) -> SqlResult<Vec<Row>> {
    let exec = RowExecutor { ctx };
    struct Group {
        keys: Vec<Value>,
        states: Vec<Box<dyn mduck_sql::AggState>>,
        distinct_seen: Vec<Option<std::collections::HashSet<Vec<u8>>>>,
    }
    let mut groups: HashMap<Vec<u8>, Group> = HashMap::new();
    for row in &rows {
        let mut key = Vec::new();
        let mut keys = Vec::with_capacity(plan.group_by.len());
        for g in &plan.group_by {
            let v = eval(g, row, outer, &exec)?;
            v.hash_key(&mut key);
            keys.push(v);
        }
        let group = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                // New group: charge the key copies plus a fixed estimate
                // per aggregate state, so unbounded-cardinality GROUP BYs
                // trip `PRAGMA memory_limit` like the vectorized engine.
                ctx.guard.charge_mem(
                    64 + keys.iter().map(Value::approx_bytes).sum::<u64>()
                        + plan.aggregates.len() as u64 * 48,
                )?;
                e.insert(Group {
                    keys,
                    states: plan.aggregates.iter().map(|a| (a.factory)()).collect(),
                    distinct_seen: plan
                        .aggregates
                        .iter()
                        .map(|a| a.distinct.then(std::collections::HashSet::new))
                        .collect(),
                })
            }
        };
        for (ai, agg) in plan.aggregates.iter().enumerate() {
            let mut args = Vec::with_capacity(agg.args.len());
            for a in &agg.args {
                args.push(eval(a, row, outer, &exec)?);
            }
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
    if groups.is_empty() && plan.group_by.is_empty() {
        let mut states: Vec<Box<dyn mduck_sql::AggState>> =
            plan.aggregates.iter().map(|a| (a.factory)()).collect();
        let mut row = Vec::new();
        for s in &mut states {
            row.push(s.finalize()?);
        }
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (_, mut g) in groups {
        let mut row = g.keys;
        for s in &mut g.states {
            row.push(s.finalize()?);
        }
        out.push(row);
    }
    Ok(out)
}
