//! The traced run's recorder: spans around the benchmark's calls into
//! each layer, plus snapshots of the program's own counters and
//! histograms taken at the same boundaries.
//!
//! Everything stays in memory until the run ends. Untraced runs use a
//! disabled [`Tracer`], which records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use mduck_bench::json::Json;

/// One finished span. Spans of one statement share `stmt`.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub name: &'static str,
    pub parent: Option<u64>,
    pub stmt: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; a disabled tracer is a no-op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Indexes into `spans` of the open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; pass the token to [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, stmt: Option<u64>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let parent = self.stack.last().map(|&p| self.spans[p].id);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            id: idx as u64 + 1,
            name,
            parent,
            stmt,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, token: Option<usize>) {
        if let Some(idx) = token {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            if let Some(pos) = self.stack.iter().rposition(|&i| i == idx) {
                self.stack.truncate(pos);
            }
        }
    }

    /// Per span name: (total self time in ms, span count). Self time is a
    /// span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            let e = out.entry(s.name).or_default();
            e.0 += self_ns as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn render(&self) -> String {
        let opt = |v: Option<u64>| v.map(|x| Json::Int(x as i64)).unwrap_or(Json::Null);
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::Obj(vec![
                ("id", Json::Int(s.id as i64)),
                ("name", Json::Str(s.name.into())),
                ("parent", opt(s.parent)),
                ("stmt", opt(s.stmt)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

macro_rules! counters {
    ($($field:ident => $read:expr,)*) => {
        /// The program's counters and histogram sums at one instant.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn now() -> Self {
                let m = mduck_obs::metrics();
                Counters { $($field: $read(m),)* }
            }

            /// Growth since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            pub fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }

            pub fn to_json(self) -> Json {
                Json::Obj(vec![$((stringify!($field), Json::Int(self.$field as i64)),)*])
            }
        }
    };
}

counters! {
    rows_scanned => |m: &mduck_obs::Metrics| m.rows_scanned.get(),
    rows_filtered => |m: &mduck_obs::Metrics| m.rows_filtered.get(),
    rows_joined => |m: &mduck_obs::Metrics| m.rows_joined.get(),
    index_probes => |m: &mduck_obs::Metrics| m.index_probes.get(),
    full_scans => |m: &mduck_obs::Metrics| m.full_scans.get(),
    chunks_produced => |m: &mduck_obs::Metrics| m.chunks_produced.get(),
    morsels_dispatched => |m: &mduck_obs::Metrics| m.morsels_dispatched.get(),
    parallel_stages => |m: &mduck_obs::Metrics| m.parallel_stages.get(),
    vec_parse_ns => |m: &mduck_obs::Metrics| m.vecdb_parse_ns.sum(),
    vec_bind_ns => |m: &mduck_obs::Metrics| m.vecdb_bind_ns.sum(),
    vec_plan_ns => |m: &mduck_obs::Metrics| m.vecdb_plan_ns.sum(),
    vec_exec_ns => |m: &mduck_obs::Metrics| m.vecdb_exec_ns.sum(),
    row_parse_ns => |m: &mduck_obs::Metrics| m.rowdb_parse_ns.sum(),
    row_bind_ns => |m: &mduck_obs::Metrics| m.rowdb_bind_ns.sum(),
    row_exec_ns => |m: &mduck_obs::Metrics| m.rowdb_exec_ns.sum(),
    wal_records => |m: &mduck_obs::Metrics| m.wal_records_appended.get(),
    wal_bytes => |m: &mduck_obs::Metrics| m.wal_bytes_written.get(),
    wal_append_ns => |m: &mduck_obs::Metrics| m.wal_append_ns.sum(),
    wal_checkpoints => |m: &mduck_obs::Metrics| m.wal_checkpoints.get(),
    wal_checkpoint_ns => |m: &mduck_obs::Metrics| m.wal_checkpoint_ns.sum(),
    wal_recoveries => |m: &mduck_obs::Metrics| m.wal_recoveries.get(),
    wal_recovery_ns => |m: &mduck_obs::Metrics| m.wal_recovery_ns.sum(),
    wal_replayed => |m: &mduck_obs::Metrics| m.wal_records_replayed.get(),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        let inner = t.enter("inner", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.exit(inner);
        t.exit(outer);
        let st = t.self_times();
        assert!(st["inner"].0 >= 5.0);
        assert!(st["outer"].0 < st["inner"].0);
        assert_eq!(t.spans[1].parent, Some(t.spans[0].id));
        assert!(t.render().contains("\"stmt\":7"));

        let mut off = Tracer::new(false);
        assert!(off.enter("x", None).is_none());
        assert!(off.self_times().is_empty());
    }
}
