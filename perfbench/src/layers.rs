//! Per-layer metrics of the traced run, by crate: set-up layers,
//! frontend histograms, executor counters and operator actuals, direct
//! kernel probes, WAL counters and span self times.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mduck_geo::{algorithms, gserialized, wkb, Geometry};
use mduck_temporal::binser;
use mduck_temporal::temporal::{parse_tgeompoint, TGeomPoint};
use mduck_temporal::{TimestampTz, TstzSpan};

use crate::engine::Scn;
use crate::fixture::{Fixture, Kind};
use crate::trace::{Counters, Tracer};
use crate::workload::{setup_times, Part, Run};

/// Operator and stage kinds reported from `execute_analyzed`.
pub const OP_KINDS: [&str; 7] = [
    "cross_product",
    "filter",
    "hash_join",
    "seq_scan",
    "aggregate",
    "distinct",
    "order_by",
];

/// Span names whose self time is reported.
pub const SPAN_NAMES: [&str; 12] = [
    "setup",
    "generate",
    "load",
    "index_build",
    "pass",
    "execute",
    "verify",
    "wal_attach",
    "wal_ingest",
    "wal_recover",
    "analyze",
    "probe",
];

/// Every per-layer metric, by name, with units, in output order.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("berlinmod.network_s", "s"),
    ("berlinmod.generate_s", "s"),
    ("quackdb.load_s", "s"),
    ("rowdb.load_s", "s"),
    ("rowdb.index_build_s", "s"),
    ("sql.parse_us", "us"),
    ("quackdb.bind_ms", "ms"),
    ("quackdb.plan_ms", "ms"),
    ("quackdb.exec_ms", "ms"),
    ("rowdb.bind_ms", "ms"),
    ("rowdb.exec_ms", "ms"),
    ("sql.frontend_share", "ratio"),
    ("quackdb.op.cross_product_ms", "ms"),
    ("quackdb.op.cross_product_rows", "count"),
    ("quackdb.op.filter_ms", "ms"),
    ("quackdb.op.filter_rows", "count"),
    ("quackdb.op.hash_join_ms", "ms"),
    ("quackdb.op.hash_join_rows", "count"),
    ("quackdb.op.seq_scan_ms", "ms"),
    ("quackdb.op.seq_scan_rows", "count"),
    ("quackdb.op.aggregate_ms", "ms"),
    ("quackdb.op.aggregate_rows", "count"),
    ("quackdb.op.distinct_ms", "ms"),
    ("quackdb.op.distinct_rows", "count"),
    ("quackdb.op.order_by_ms", "ms"),
    ("quackdb.op.order_by_rows", "count"),
    ("quackdb.mem_peak_mb", "MB"),
    ("quackdb.rows_joined", "count"),
    ("quackdb.rows_filtered", "count"),
    ("quackdb.chunks_produced", "count"),
    ("quackdb.morsels_dispatched", "count"),
    ("quackdb.parallel_stages", "count"),
    ("quackdb.rows_joined_per_result", "ratio"),
    ("rowdb.row.rows_scanned", "count"),
    ("rowdb.row.rows_joined", "count"),
    ("rowdb.row.rows_joined_per_result", "ratio"),
    ("rowdb.row.index_probes", "count"),
    ("rowdb.row.full_scans", "count"),
    ("rowdb.rowidx.rows_scanned", "count"),
    ("rowdb.rowidx.rows_joined", "count"),
    ("rowdb.rowidx.rows_joined_per_result", "ratio"),
    ("rowdb.rowidx.index_probes", "count"),
    ("rowdb.rowidx.full_scans", "count"),
    ("temporal.value_at_ns", "ns"),
    ("temporal.at_time_ns", "ns"),
    ("temporal.tdwithin_ns", "ns"),
    ("temporal.parse_literal_us", "us"),
    ("temporal.binser_decode_ns", "ns"),
    ("temporal.binser_encode_ns", "ns"),
    ("geo.intersects_ns", "ns"),
    ("geo.wkb_decode_ns", "ns"),
    ("geo.native_decode_ns", "ns"),
    ("wal.records_appended", "count"),
    ("wal.bytes_written", "bytes"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.append_ms", "ms"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoint_bytes", "bytes"),
    ("wal.recovery_ms", "ms"),
    ("wal.records_replayed", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.self.setup_ms", "ms"),
    ("trace.self.generate_ms", "ms"),
    ("trace.self.load_ms", "ms"),
    ("trace.self.index_build_ms", "ms"),
    ("trace.self.pass_ms", "ms"),
    ("trace.self.execute_ms", "ms"),
    ("trace.self.verify_ms", "ms"),
    ("trace.self.wal_attach_ms", "ms"),
    ("trace.self.wal_ingest_ms", "ms"),
    ("trace.self.wal_recover_ms", "ms"),
    ("trace.self.analyze_ms", "ms"),
    ("trace.self.probe_ms", "ms"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// ns (or other unit) per call: run `f` over `items` until `min` passes.
fn per_call<T>(items: &[T], min: Duration, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < min {
        for it in items {
            f(it);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Time the algebra kernels directly on the workload's own trips.
fn kernel_probes(fx: &Fixture, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let min = Duration::from_millis(30);
    let step = (fx.data.trips.len() / 200).max(1);
    let trips: Vec<&TGeomPoint> = fx
        .data
        .trips
        .iter()
        .step_by(step)
        .map(|t| &t.trip)
        .collect();
    let span_of = |t: &TGeomPoint| {
        let s = t.timespan();
        (s.lower.0, s.upper.0)
    };
    let instants: Vec<(&TGeomPoint, TimestampTz)> = trips
        .iter()
        .map(|t| {
            let (lo, hi) = span_of(t);
            (*t, TimestampTz(lo + (hi - lo) / 2))
        })
        .collect();
    let periods: Vec<(&TGeomPoint, TstzSpan)> = trips
        .iter()
        .filter_map(|t| {
            let (lo, hi) = span_of(t);
            let q = (hi - lo) / 4;
            TstzSpan::new(TimestampTz(lo + q), TimestampTz(hi - q), true, true)
                .ok()
                .map(|p| (*t, p))
        })
        .collect();
    // Trips that overlap in time: neighbours in start order.
    let mut by_start = trips.clone();
    by_start.sort_by_key(|t| span_of(t).0);
    let pairs: Vec<(&TGeomPoint, &TGeomPoint)> =
        by_start.windows(2).map(|w| (w[0], w[1])).collect();
    let literals: Vec<String> = trips.iter().map(|t| t.as_ewkt()).collect();
    let encoded: Vec<Vec<u8>> = trips
        .iter()
        .map(|t| binser::tgeompoint_to_bytes(t))
        .collect();
    let trajs: Vec<Geometry> = trips.iter().map(|t| t.trajectory()).collect();
    let wkbs: Vec<Vec<u8>> = trajs.iter().map(wkb::to_wkb).collect();
    let natives: Vec<Vec<u8>> = trajs.iter().map(gserialized::to_native).collect();
    let points = &fx.data.points;
    let shapes: Vec<(&Geometry, &Geometry)> = trajs
        .iter()
        .enumerate()
        .map(|(i, g)| (g, &points[i % points.len()]))
        .collect();

    let mut out = Vec::new();
    let mut probe = |tr: &mut Tracer, name: &'static str, ns: &dyn Fn() -> f64| {
        let tok = tr.enter("probe", None);
        out.push((name, ns()));
        tr.exit(tok);
    };
    probe(tr, "temporal.value_at_ns", &|| {
        per_call(&instants, min, |(t, at)| {
            black_box(t.value_at(*at));
        })
    });
    probe(tr, "temporal.at_time_ns", &|| {
        per_call(&periods, min, |(t, p)| {
            black_box(t.at_period(p));
        })
    });
    probe(tr, "temporal.tdwithin_ns", &|| {
        per_call(&pairs, min, |(a, b)| {
            black_box(a.tdwithin(b, 10.0));
        })
    });
    probe(tr, "temporal.parse_literal_us", &|| {
        per_call(&literals, min, |s| {
            black_box(parse_tgeompoint(s).ok());
        }) / 1e3
    });
    probe(tr, "temporal.binser_decode_ns", &|| {
        per_call(&encoded, min, |b| {
            black_box(binser::tgeompoint_from_bytes(b).ok());
        })
    });
    probe(tr, "temporal.binser_encode_ns", &|| {
        per_call(&trips, min, |t| {
            black_box(binser::tgeompoint_to_bytes(t));
        })
    });
    probe(tr, "geo.intersects_ns", &|| {
        per_call(&shapes, min, |(a, b)| {
            black_box(algorithms::intersects(a, b));
        })
    });
    probe(tr, "geo.wkb_decode_ns", &|| {
        per_call(&wkbs, min, |b| {
            black_box(wkb::from_wkb(b).ok());
        })
    });
    probe(tr, "geo.native_decode_ns", &|| {
        per_call(&natives, min, |b| {
            black_box(gserialized::from_native(b).ok());
        })
    });
    out
}

/// Per-operator actuals from one analyzed execution of each SELECT the
/// workload sends to the vectorized engine: (op ms, op rows, mem peak MB).
fn analyze(fx: &Fixture, run: &mut Run) -> ([f64; 7], [f64; 7], f64) {
    let mut ms = [0.0; 7];
    let mut rows = [0.0; 7];
    let mut mem_peak = 0u64;
    let stmts = if fx.kind == Kind::Suite {
        &fx.stream
    } else {
        &fx.lookups
    };
    let db = fx
        .db(Scn::Vec)
        .vec()
        .expect("the vec scenario is a quackdb database");
    for (i, st) in stmts.iter().enumerate() {
        let tok = run.tracer.enter("analyze", Some(i as u64));
        let profiled = db.execute_analyzed(&st.sql);
        run.tracer.exit(tok);
        match profiled {
            Ok(p) => {
                mem_peak = mem_peak.max(p.mem_peak);
                let ops = p.operators.iter().map(|o| (o.op, o.elapsed_ms, o.rows_out));
                let stages = p.stages.iter().map(|s| (s.stage, s.elapsed_ms, s.rows_out));
                for (kind, elapsed, out) in ops.chain(stages) {
                    if let Some(k) = OP_KINDS.iter().position(|k| *k == kind) {
                        ms[k] += elapsed;
                        rows[k] += out as f64;
                    }
                }
            }
            Err(e) => eprintln!("analyze of statement {i} failed: {e}"),
        }
    }
    (ms, rows, mem_peak as f64 / (1u64 << 20) as f64)
}

/// Mean µs per `mduck_sql::parse_statement` call over the workload's statements.
fn parse_probe(fx: &Fixture, tr: &mut Tracer) -> f64 {
    let tok = tr.enter("probe", None);
    let stmts: Vec<&str> = fx.stream.iter().map(|s| s.sql.as_str()).take(400).collect();
    let ns = per_call(&stmts, Duration::from_millis(30), |sql| {
        black_box(mduck_sql::parse_statement(sql).ok());
    });
    tr.exit(tok);
    ns / 1e3
}

/// All per-layer metric values of a traced run (same order as
/// [`PER_LAYER`]); `overhead_pct` compares it with the untraced run.
pub fn per_layer(fx: &Fixture, run: &mut Run, overhead_pct: f64) -> Vec<f64> {
    let (op_ms, op_rows, mem_peak_mb) = analyze(fx, run);
    let kernels = kernel_probes(fx, &mut run.tracer);
    let parse_us = parse_probe(fx, &mut run.tracer);

    let zero = Counters::default();
    let c = |scn, part| *run.counters.get(&(scn, part)).unwrap_or(&zero);
    let s = |scn| {
        run.samples
            .get(&(scn, Part::Stream))
            .cloned()
            .unwrap_or_default()
    };
    let (vc, vs) = (c(Scn::Vec, Part::Stream), s(Scn::Vec));
    let passes = |n: &crate::workload::Samples| n.pass_s.len().max(1) as f64;
    let mut row_both = c(Scn::Row, Part::Stream);
    row_both.add(&c(Scn::RowIdx, Part::Stream));
    let row_stmts = (s(Scn::Row).statements + s(Scn::RowIdx).statements) as f64;

    let mut frontend_ns = 0.0;
    let mut exec_wall_ns = 0.0;
    for scn in [Scn::Vec, Scn::Row, Scn::RowIdx] {
        let k = c(scn, Part::Stream);
        frontend_ns +=
            (k.vec_parse_ns + k.vec_bind_ns + k.vec_plan_ns + k.row_parse_ns + k.row_bind_ns)
                as f64;
        exec_wall_ns += s(scn).lat_us.iter().sum::<f64>() * 1e3;
    }

    let t = &setup_times(fx, run);
    let mut v = vec![
        t.network,
        t.generate,
        t.vec_load,
        t.row_load,
        t.index_build,
        parse_us,
        ratio(vc.vec_bind_ns as f64 / 1e6, vs.statements as f64),
        ratio(vc.vec_plan_ns as f64 / 1e6, vs.statements as f64),
        ratio(vc.vec_exec_ns as f64 / 1e6, vs.statements as f64),
        ratio(row_both.row_bind_ns as f64 / 1e6, row_stmts),
        ratio(row_both.row_exec_ns as f64 / 1e6, row_stmts),
        ratio(frontend_ns, exec_wall_ns),
    ];
    for k in 0..OP_KINDS.len() {
        v.push(op_ms[k]);
        v.push(op_rows[k]);
    }
    let pv = passes(&vs);
    v.extend([
        mem_peak_mb,
        vc.rows_joined as f64 / pv,
        vc.rows_filtered as f64 / pv,
        vc.chunks_produced as f64 / pv,
        vc.morsels_dispatched as f64 / pv,
        vc.parallel_stages as f64 / pv,
        ratio(vc.rows_joined as f64, vs.result_rows as f64),
    ]);
    for scn in [Scn::Row, Scn::RowIdx] {
        let (k, n) = (c(scn, Part::Stream), s(scn));
        let p = passes(&n);
        v.extend([
            k.rows_scanned as f64 / p,
            k.rows_joined as f64 / p,
            ratio(k.rows_joined as f64, n.result_rows as f64),
            k.index_probes as f64 / p,
            k.full_scans as f64 / p,
        ]);
    }
    for (name, ns) in kernels {
        assert_eq!(PER_LAYER[v.len()].0, name, "kernel probes follow PER_LAYER");
        v.push(ns);
    }

    let mut w = c(Scn::Vec, Part::Durable);
    w.add(&c(Scn::Row, Part::Durable));
    let rounds: f64 = run
        .durable
        .values()
        .map(|d| d.ingest_s.len() as f64)
        .sum::<f64>()
        .max(1.0);
    let ckpt_bytes: f64 = run
        .durable
        .values()
        .map(|d| d.checkpoint_bytes as f64)
        .sum();
    let recoveries = (w.wal_recoveries as f64).max(1.0);
    v.extend([
        w.wal_records as f64 / rounds,
        w.wal_bytes as f64 / rounds,
        ratio(
            (w.wal_bytes as f64 + ckpt_bytes) / rounds,
            fx.literal_bytes as f64,
        ),
        w.wal_append_ns as f64 / 1e6 / rounds,
        w.wal_checkpoints as f64 / rounds,
        w.wal_checkpoint_ns as f64 / 1e6 / rounds,
        ckpt_bytes / rounds,
        w.wal_recovery_ns as f64 / 1e6 / recoveries,
        w.wal_replayed as f64 / recoveries,
        overhead_pct,
    ]);
    let self_times = run.tracer.self_times();
    v.extend(
        SPAN_NAMES
            .iter()
            .map(|n| self_times.get(n).map_or(0.0, |e| e.0)),
    );
    assert_eq!(v.len(), PER_LAYER.len(), "one value per per-layer metric");
    v
}
