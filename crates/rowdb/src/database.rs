//! The row-store database instance (the PostgreSQL/MobilityDB analogue).
//! The shared session runs every statement; this engine contributes its
//! heap tables and the Volcano executor below.

use std::sync::Arc;
use std::time::Instant;

use mduck_obs::{Histogram, Metrics};
use mduck_sql::eval::OuterStack;
use mduck_sql::{BoundSelect, SqlResult, Value};
use mduck_wal::session::{
    ExecCx, Executor, IndexTypeRegistry, ProfiledQuery, QueryResult, Session,
};

use crate::catalog::HeapTable;
use crate::exec::{execute_select, explain_select, RowCtx};
use crate::index::BTreeIndexType;

/// An in-process row-store database.
pub type RowDatabase = Session<RowEngine>;

/// The tuple-at-a-time executor. Single-threaded by design: it stands in
/// for PostgreSQL, so `PRAGMA threads` is accepted and reports 1.
pub struct RowEngine;

fn row_ctx<'a>(cx: &'a ExecCx<'_, HeapTable>) -> RowCtx<'a> {
    RowCtx::new(cx.catalog, cx.registry, cx.guard).with_progress(cx.progress.as_deref())
}

/// Run a bound SELECT under the exec-phase span and timer.
fn timed_select(ctx: &RowCtx<'_>, plan: &BoundSelect) -> SqlResult<(Vec<Vec<Value>>, f64)> {
    let exec_start = Instant::now();
    let rows = {
        let _s = mduck_obs::span("rowdb.exec");
        execute_select(ctx, plan, &OuterStack::EMPTY)?
    };
    let elapsed = exec_start.elapsed();
    mduck_obs::metrics().rowdb_exec_ns.observe(elapsed.as_nanos() as u64);
    Ok((rows, elapsed.as_secs_f64() * 1e3))
}

impl Executor for RowEngine {
    type Table = HeapTable;
    const NAME: &'static str = "rowdb";
    const DEFAULT_INDEX_METHOD: &'static str = "BTREE";
    const MAX_THREADS: usize = 1;

    fn phase_ns(m: &Metrics) -> (&Histogram, &Histogram) {
        (&m.rowdb_parse_ns, &m.rowdb_bind_ns)
    }

    fn builtin_index_types() -> IndexTypeRegistry {
        let mut types = IndexTypeRegistry::default();
        types.register(Arc::new(BTreeIndexType));
        types
    }

    fn select(cx: &ExecCx<'_, HeapTable>, plan: &BoundSelect) -> SqlResult<Vec<Vec<Value>>> {
        Ok(timed_select(&row_ctx(cx), plan)?.0)
    }

    /// PostgreSQL-style indented text plan.
    fn explain(cx: &ExecCx<'_, HeapTable>, plan: &BoundSelect) -> SqlResult<String> {
        explain_select(&row_ctx(cx), plan)
    }

    /// The plan text with PostgreSQL's execution totals appended below
    /// it; the row engine keeps no per-operator actuals.
    fn explain_analyze(
        cx: &ExecCx<'_, HeapTable>,
        plan: &BoundSelect,
    ) -> SqlResult<ProfiledQuery> {
        let ctx = row_ctx(cx);
        let mut explain = explain_select(&ctx, plan)?;
        let (rows, total_ms) = timed_select(&ctx, plan)?;
        explain.push_str(&format!("Execution Time: {total_ms:.3} ms\n"));
        explain.push_str(&format!("Rows Returned: {}\n", rows.len()));
        explain.push_str(&format!("Rows Scanned: {}\n", *ctx.rows_scanned.borrow()));
        Ok(ProfiledQuery {
            result: QueryResult { schema: plan.output_schema.clone(), rows },
            explain,
            operators: Vec::new(),
            stages: Vec::new(),
            total_ms,
            mem_peak: cx.guard.mem().peak(),
        })
    }
}
