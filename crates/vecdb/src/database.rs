//! The embeddable database instance: the `duckdb.Connection` analogue.
//! The shared session runs every statement; this engine contributes its
//! columnar tables and the vectorized executor below.

use std::time::Instant;

use mduck_obs::{Histogram, Metrics};
use mduck_sql::eval::OuterStack;
use mduck_sql::{BoundSelect, SqlError, SqlResult, Value};
use mduck_wal::session::{ExecCx, Executor, ProfiledQuery, QueryResult, Session};

use crate::catalog::Table;
use crate::exec::{execute_select, execute_select_planned, physical_plan, plan_key, EngineCtx};
use crate::explain::{op_breakdown, render_plan, render_plan_analyzed, stage_breakdown, AnalyzeData};

/// An in-process database instance (the DuckDB substrate).
pub type Database = Session<VecEngine>;

/// The vectorized executor: physical planning with TRTREE scan
/// injection, then chunk-at-a-time, morsel-parallel execution.
pub struct VecEngine;

fn engine_ctx<'a>(cx: &'a ExecCx<'_, Table>) -> EngineCtx<'a> {
    EngineCtx::new(cx.catalog, cx.registry, cx.guard)
        .with_threads(cx.threads)
        .with_progress(cx.progress.clone())
}

impl Executor for VecEngine {
    type Table = Table;
    const NAME: &'static str = "vecdb";
    const DEFAULT_INDEX_METHOD: &'static str = "TRTREE";
    const MAX_THREADS: usize = mduck_wal::session::MAX_THREADS;

    fn phase_ns(m: &Metrics) -> (&Histogram, &Histogram) {
        (&m.vecdb_parse_ns, &m.vecdb_bind_ns)
    }

    fn select(cx: &ExecCx<'_, Table>, plan: &BoundSelect) -> SqlResult<Vec<Vec<Value>>> {
        let m = mduck_obs::metrics();
        let ctx = engine_ctx(cx);
        if plan.from.is_empty() {
            let _s = mduck_obs::span("vecdb.exec");
            let exec_start = Instant::now();
            let rows = execute_select(&ctx, plan, &OuterStack::EMPTY)?;
            m.vecdb_exec_ns.observe(exec_start.elapsed().as_nanos() as u64);
            return Ok(rows);
        }
        let plan_start = Instant::now();
        let phys = {
            let _s = mduck_obs::span("vecdb.plan");
            physical_plan(&ctx, plan)?
        };
        m.vecdb_plan_ns.observe(plan_start.elapsed().as_nanos() as u64);
        let _s = mduck_obs::span("vecdb.exec");
        let exec_start = Instant::now();
        let rows = execute_select_planned(&ctx, plan, &phys, &OuterStack::EMPTY)?;
        m.vecdb_exec_ns.observe(exec_start.elapsed().as_nanos() as u64);
        Ok(rows)
    }

    fn explain(cx: &ExecCx<'_, Table>, plan: &BoundSelect) -> SqlResult<String> {
        let ctx = EngineCtx::new(cx.catalog, cx.registry, cx.guard);
        Ok(render_plan(plan, &physical_plan(&ctx, plan)?))
    }

    /// Plan once, execute the planned tree under profiling, render actuals.
    fn explain_analyze(cx: &ExecCx<'_, Table>, plan: &BoundSelect) -> SqlResult<ProfiledQuery> {
        let m = mduck_obs::metrics();
        let mut ctx = engine_ctx(cx);
        ctx.enable_profiling();
        let plan_start = Instant::now();
        let phys = {
            let _s = mduck_obs::span("vecdb.plan");
            physical_plan(&ctx, plan)?
        };
        m.vecdb_plan_ns.observe(plan_start.elapsed().as_nanos() as u64);
        let exec_start = Instant::now();
        let rows = {
            let _s = mduck_obs::span("vecdb.exec");
            execute_select_planned(&ctx, plan, &phys, &OuterStack::EMPTY)?
        };
        let exec_elapsed = exec_start.elapsed();
        m.vecdb_exec_ns.observe(exec_elapsed.as_nanos() as u64);
        let profile = ctx
            .profile
            .as_ref()
            .ok_or_else(|| SqlError::internal("profiling sink disappeared"))?;
        let total_ms = exec_elapsed.as_secs_f64() * 1e3;
        let analyze = AnalyzeData {
            profile,
            plan_key: plan_key(plan),
            total_ms,
            result_rows: rows.len(),
        };
        Ok(ProfiledQuery {
            explain: render_plan_analyzed(plan, &phys, &analyze),
            operators: op_breakdown(&phys.tree, profile),
            stages: stage_breakdown(plan_key(plan), profile),
            result: QueryResult { schema: plan.output_schema.clone(), rows },
            total_ms,
            mem_peak: cx.guard.mem().peak(),
        })
    }
}
