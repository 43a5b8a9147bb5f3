//! Flattened actuals of one profiled statement, as the engines hand them
//! to callers of `execute_analyzed` (bench exports, stage-timing checks).

/// One per-operator row of an analyzed plan.
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    pub op: &'static str,
    pub detail: String,
    pub execs: u64,
    /// Exclusive wall time (children subtracted).
    pub elapsed_ms: f64,
    pub rows_out: u64,
    pub chunks_out: u64,
    pub rows_scanned: u64,
    /// Bytes of output/state this operator materialized (charged against
    /// the statement's memory scope).
    pub mem_bytes: u64,
}

/// One post-join stage's actuals of the top-level plan.
#[derive(Debug, Clone)]
pub struct StageBreakdown {
    pub stage: &'static str,
    pub execs: u64,
    pub elapsed_ms: f64,
    pub rows_out: u64,
    /// Bytes of state this stage materialized (sort keys, group states).
    pub mem_bytes: u64,
}
