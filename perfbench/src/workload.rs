//! The measured part of a run: statement passes, fleet lookups and
//! durable ingest with cold recovery, interleaved under one time budget.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mduck_sql::Value;

use crate::engine::{result_digest, trip_digests, Db, Scn, TRIPS_READBACK};
use crate::fixture::{median_setup, trip_index_ddl, Fixture, Kind, SetupTimes, Stmt, INGEST_DDL};
use crate::stats::{geomean, percentile};
use crate::trace::{Counters, Tracer};

/// Which part of a run a statement belongs to (counter attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Part {
    /// The workload's statement passes.
    Stream,
    /// The fleet lookups run beside another workload's stream.
    Lookups,
    /// Durable ingest and recovery rounds, counted per round.
    Durable,
}

/// Latency samples of one scenario in one part.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall time of each full pass, seconds.
    pub pass_s: Vec<f64>,
    /// Every statement's latency, microseconds.
    pub lat_us: Vec<f64>,
    /// Latencies per statement of the list, seconds.
    pub per_stmt: Vec<Vec<f64>>,
    /// Statements executed and rows they returned.
    pub statements: u64,
    pub result_rows: u64,
}

/// Durable-round samples of one scenario.
#[derive(Debug, Clone, Default)]
pub struct Durable {
    pub ingest_s: Vec<f64>,
    /// Latency of each INSERT of the stream, seconds.
    pub per_stmt: Vec<Vec<f64>>,
    pub recovery_ms: Vec<f64>,
    /// Bytes of checkpoint files written.
    pub checkpoint_bytes: u64,
}

/// Operation accounting plus everything a run measured.
pub struct Run {
    pub threads: usize,
    pub work: PathBuf,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub samples: BTreeMap<(Scn, Part), Samples>,
    pub durable: BTreeMap<Scn, Durable>,
    /// Set-ups repeated during the run, beside the fixture's own.
    pub setup_reps: Vec<SetupTimes>,
    /// Counter growth per scenario and part (traced runs only).
    pub counters: BTreeMap<(Scn, Part), Counters>,
    /// Reference digest per (part, statement index): the first result seen.
    refs: HashMap<(Part, usize), (usize, u64)>,
    next_stmt: u64,
}

impl Run {
    pub fn new(threads: usize, work: PathBuf, tracer: Tracer) -> Run {
        Run {
            threads,
            work,
            tracer,
            attempted: 0,
            failed: 0,
            samples: BTreeMap::new(),
            durable: BTreeMap::new(),
            setup_reps: Vec::new(),
            counters: BTreeMap::new(),
            refs: HashMap::new(),
            next_stmt: 0,
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {what}");
        }
    }

    /// One checked operation that is not a timed statement.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Execute one statement: timed, spanned, counted. `None` on error.
    fn exec(&mut self, db: &Db, scn: Scn, part: Part, sql: &str) -> Option<(f64, Vec<Vec<Value>>)> {
        self.next_stmt += 1;
        let tok = self.tracer.enter("execute", Some(self.next_stmt));
        let before = self.tracer.enabled().then(Counters::now);
        let start = Instant::now();
        let result = db.execute(sql);
        let secs = start.elapsed().as_secs_f64();
        // Durable rounds snapshot the whole round instead (WAL attach and
        // recovery happen outside any statement).
        if let Some(before) = before.filter(|_| part != Part::Durable) {
            let delta = Counters::now().since(&before);
            self.counters.entry((scn, part)).or_default().add(&delta);
        }
        self.tracer.exit(tok);
        self.attempted += 1;
        match result {
            Ok(rows) => Some((secs, rows)),
            Err(e) => {
                let head: String = sql.split_whitespace().collect::<Vec<_>>().join(" ");
                let head: String = head.chars().take(90).collect();
                self.fail(format!("{} {head}: {e}", scn.name()));
                None
            }
        }
    }

    /// One pass over read statements; every result must match the first
    /// result any scenario returned for the same statement.
    pub fn read_pass(&mut self, db: &Db, scn: Scn, part: Part, stmts: &[Stmt]) {
        let tok = self.tracer.enter("pass", None);
        let mut pass = 0.0;
        let mut rows_out = 0u64;
        let mut lat = Vec::with_capacity(stmts.len());
        for (i, st) in stmts.iter().enumerate() {
            let Some((secs, rows)) = self.exec(db, scn, part, &st.sql) else {
                continue;
            };
            pass += secs;
            rows_out += rows.len() as u64;
            lat.push((i, secs));
            let digest = result_digest(&rows);
            let reference = *self.refs.entry((part, i)).or_insert(digest);
            if digest != reference {
                self.fail(format!(
                    "{} statement {i} returned {} rows that differ from the reference ({} rows)",
                    scn.name(),
                    digest.0,
                    reference.0
                ));
            }
        }
        self.record(scn, part, pass, rows_out, &lat);
        self.tracer.exit(tok);
    }

    fn record(&mut self, scn: Scn, part: Part, pass: f64, rows: u64, lat: &[(usize, f64)]) {
        let s = self.samples.entry((scn, part)).or_default();
        s.pass_s.push(pass);
        s.statements += lat.len() as u64;
        s.result_rows += rows;
        for &(i, secs) in lat {
            s.lat_us.push(secs * 1e6);
            push_at(&mut s.per_stmt, i, secs);
        }
    }

    /// The ingest stream into a fresh in-memory database, then the gate.
    pub fn insert_pass(&mut self, fx: &Fixture, scn: Scn) {
        let tok = self.tracer.enter("pass", None);
        let db = Db::fresh(scn, self.threads);
        let mut ddl = INGEST_DDL.to_string();
        if scn == Scn::RowIdx {
            ddl = format!("{ddl};\n{}", trip_index_ddl());
        }
        let created = db.execute_each(&ddl);
        self.check(created.is_ok(), || {
            format!("{} ingest DDL: {created:?}", scn.name())
        });
        let mut pass = 0.0;
        let mut lat = Vec::with_capacity(fx.stream.len());
        for (i, st) in fx.stream.iter().enumerate() {
            if let Some((secs, _)) = self.exec(&db, scn, Part::Stream, &st.sql) {
                pass += secs;
                lat.push((i, secs));
            }
        }
        self.record(scn, Part::Stream, pass, 0, &lat);
        self.verify_trips(fx, &db, scn, "after the in-memory stream");
        self.tracer.exit(tok);
    }

    /// The database must hold exactly the generated trips.
    fn verify_trips(&mut self, fx: &Fixture, db: &Db, scn: Scn, when: &str) {
        let tok = self.tracer.enter("verify", None);
        let got = db
            .execute(TRIPS_READBACK)
            .map_err(|e| e.to_string())
            .and_then(|r| trip_digests(&r));
        let ok = got.as_ref().is_ok_and(|d| *d == fx.expected_trips);
        self.check(ok, || match &got {
            Ok(d) => format!(
                "{} {when}: {} trips, expected {} (or checksums differ)",
                scn.name(),
                d.len(),
                fx.expected_trips.len()
            ),
            Err(e) => format!("{} {when}: {e}", scn.name()),
        });
        self.tracer.exit(tok);
    }

    /// Commit the workload's trips with a WAL attached, one autocommitted
    /// INSERT each and one CHECKPOINT after the first half, drop the
    /// database and reopen cold (checkpoint load plus replay of the second
    /// half). Both states must hold exactly the trips.
    pub fn durable_round(&mut self, fx: &Fixture, scn: Scn, round: usize) {
        let tok = self.tracer.enter("durable", None);
        let before = self.tracer.enabled().then(Counters::now);
        let dir = self.work.join(format!("wal-{}-{round}", scn.name()));
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            self.check(false, || format!("creating {}: {e}", dir.display()));
            self.tracer.exit(tok);
            return;
        }
        let wal = dir.join("db.wal");
        let ckpt = dir.join("db.wal.ckpt");

        let attach = self.tracer.enter("wal_attach", None);
        let db = Db::fresh(scn, self.threads);
        // The round's one checkpoint is the explicit one below.
        let pragma = "PRAGMA wal_autocheckpoint = 0";
        let attached = db
            .attach_wal(&wal)
            .and_then(|_| db.execute(pragma).map(|_| ()));
        self.tracer.exit(attach);
        self.check(attached.is_ok(), || {
            format!("{} attaching a WAL: {attached:?}", scn.name())
        });

        let ingest = self.tracer.enter("wal_ingest", None);
        let mut ingest_s = 0.0;
        let mut per_stmt = Vec::new();
        let mut ckpt_bytes = 0u64;
        let created = db.execute(INGEST_DDL);
        self.check(created.is_ok(), || {
            format!("{} ingest DDL: {created:?}", scn.name())
        });
        let half = fx.inserts.len() / 2;
        for (i, st) in fx.inserts.iter().enumerate() {
            if i == half {
                // Timed by the WAL's own checkpoint histogram, not here.
                let done = db.execute("CHECKPOINT");
                self.check(done.is_ok(), || {
                    format!("{} CHECKPOINT: {done:?}", scn.name())
                });
                ckpt_bytes = std::fs::metadata(&ckpt).map_or(0, |m| m.len());
            }
            if let Some((secs, _)) = self.exec(&db, scn, Part::Durable, &st.sql) {
                ingest_s += secs;
                per_stmt.push((i, secs));
            }
        }
        self.tracer.exit(ingest);
        self.verify_trips(fx, &db, scn, "after the durable stream");
        drop(db);

        let recover = self.tracer.enter("wal_recover", None);
        let start = Instant::now();
        let db = Db::fresh(scn, self.threads);
        let reopened = db
            .attach_wal(&wal)
            .and_then(|_| db.execute("SELECT count(*) FROM trips"));
        let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
        self.tracer.exit(recover);
        self.check(reopened.is_ok(), || {
            format!("{} cold reopen: {reopened:?}", scn.name())
        });
        self.verify_trips(fx, &db, scn, "after recovery");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);

        let d = self.durable.entry(scn).or_default();
        d.ingest_s.push(ingest_s);
        for (i, secs) in per_stmt {
            push_at(&mut d.per_stmt, i, secs);
        }
        d.recovery_ms.push(recovery_ms);
        d.checkpoint_bytes += ckpt_bytes;
        if let Some(before) = before {
            let delta = Counters::now().since(&before);
            self.counters
                .entry((scn, Part::Durable))
                .or_default()
                .add(&delta);
        }
        self.tracer.exit(tok);
    }
}

/// Append `x` to the samples of statement `i`.
fn push_at(per_stmt: &mut Vec<Vec<f64>>, i: usize, x: f64) {
    if per_stmt.len() <= i {
        per_stmt.resize(i + 1, Vec::new());
    }
    per_stmt[i].push(x);
}

type Work<'a> = Box<dyn FnMut(&mut Run, usize) + 'a>;

/// One repeatable unit of a run's work with its share of the time.
struct Unit<'a> {
    share: f64,
    min: usize,
    count: usize,
    spent: f64,
    work: Work<'a>,
}

impl<'a> Unit<'a> {
    fn new(share: f64, min: usize, work: impl FnMut(&mut Run, usize) + 'a) -> Self {
        Unit {
            share,
            min,
            count: 0,
            spent: 0.0,
            work: Box::new(work),
        }
    }
}

/// Run the units interleaved until `budget` has passed and each ran its
/// minimum: always the unit furthest below its share of the time spent,
/// so every metric samples the whole run rather than one stretch of it.
fn interleave(run: &mut Run, budget: Duration, mut units: Vec<Unit>) {
    let start = Instant::now();
    loop {
        let below_min = units.iter().any(|u| u.count < u.min);
        if !below_min && start.elapsed() >= budget {
            break;
        }
        let lag = |u: &Unit| u.spent / u.share;
        let pick = (0..units.len())
            .filter(|&i| !below_min || units[i].count < units[i].min)
            .min_by(|&a, &b| lag(&units[a]).total_cmp(&lag(&units[b])))
            .expect("at least one unit");
        let u = &mut units[pick];
        let t = Instant::now();
        (u.work)(run, u.count);
        u.spent += t.elapsed().as_secs_f64();
        u.count += 1;
    }
}

/// Measure a workload for `seconds`.
pub fn measure(fx: &Fixture, run: &mut Run, seconds: f64) {
    let stream = move |run: &mut Run, _: usize| {
        let tok = run.tracer.enter("stream", None);
        for scn in [Scn::Vec, Scn::Row, Scn::RowIdx] {
            if fx.kind == Kind::Ingest {
                run.insert_pass(fx, scn);
            } else {
                run.read_pass(fx.db(scn), scn, Part::Stream, &fx.stream);
            }
        }
        run.tracer.exit(tok);
    };
    let lookups = move |run: &mut Run, _: usize| {
        let tok = run.tracer.enter("lookups", None);
        for scn in [Scn::Vec, Scn::RowIdx] {
            run.read_pass(fx.db(scn), scn, Part::Lookups, &fx.lookups);
        }
        run.tracer.exit(tok);
    };
    let durable = move |run: &mut Run, round: usize| {
        for scn in [Scn::Vec, Scn::Row] {
            run.durable_round(fx, scn, round);
        }
    };
    // Set-up repeats across the run, so its median spans the same
    // stretches of the machine as the statements do.
    let setup = move |run: &mut Run, _: usize| match fx.setup_again(run.threads, &mut run.tracer) {
        Ok(t) => run.setup_reps.push(t),
        Err(e) => run.check(false, || format!("set-up: {e}")),
    };
    // Shares of (passes, side lookups, durable rounds, set-ups); on
    // `bm-lookup` the passes are the lookups.
    let (p, l, d, s) = match fx.kind {
        Kind::Suite => (0.76, 0.07, 0.15, 0.02),
        Kind::Lookup => (0.60, 0.0, 0.37, 0.03),
        Kind::Ingest => (0.25, 0.12, 0.60, 0.03),
    };
    let mut units = vec![
        Unit::new(p, 4, stream),
        Unit::new(d, 4, durable),
        Unit::new(s, 6, setup),
    ];
    if fx.kind != Kind::Lookup {
        units.push(Unit::new(l, 4, lookups));
    }
    let root = run.tracer.enter("measure", None);
    interleave(run, Duration::from_secs_f64(seconds), units);
    run.tracer.exit(root);
}

/// Median set-up times over the fixture's repetitions and the run's.
pub fn setup_times(fx: &Fixture, run: &Run) -> SetupTimes {
    median_setup(&[fx.setup_reps.as_slice(), &run.setup_reps].concat())
}

/// The end-to-end metrics, by name, with units.
pub const END_TO_END: [(&str, &str); 16] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("vec_suite_s", "s"),
    ("row_suite_s", "s"),
    ("rowidx_suite_s", "s"),
    ("vec_geomean_ms", "ms"),
    ("row_geomean_ms", "ms"),
    ("rowidx_geomean_ms", "ms"),
    ("vec_lookup_p50_us", "us"),
    ("vec_lookup_p99_us", "us"),
    ("rowidx_lookup_p50_us", "us"),
    ("rowidx_lookup_p99_us", "us"),
    ("vec_ingest_s", "s"),
    ("row_ingest_s", "s"),
    ("vec_recovery_ms", "ms"),
    ("row_recovery_ms", "ms"),
];

/// Compute the end-to-end metric values (same order as [`END_TO_END`]).
///
/// Statement times are best-of-run: every statement of a list runs many
/// times across the whole run, and its fastest run is its cost. A shared
/// host slows the process for stretches of a run, by different amounts
/// from run to run; that moves every other statistic of the samples,
/// while the fastest run moves only when the program's own cost does.
/// Summing over the statements averages out the noise of single minima.
/// A pass is the sum of its statements' best times; a template's latency
/// is the mean best time of its statements; the lookup percentiles are
/// taken over the lookups' best times; recovery is the best of the run's
/// rounds.
pub fn end_to_end(fx: &Fixture, run: &Run, peak_rss_mb: f64) -> Vec<f64> {
    let empty = Samples::default();
    let stream = |scn| run.samples.get(&(scn, Part::Stream)).unwrap_or(&empty);
    let best = |v: &Vec<f64>| v.iter().copied().fold(f64::INFINITY, f64::min);
    let pass = |per_stmt: &[Vec<f64>]| {
        per_stmt
            .iter()
            .filter(|v| !v.is_empty())
            .map(best)
            .sum::<f64>()
    };
    let geo = |s: &Samples| {
        let mut per_template = vec![(0.0, 0usize); fx.templates.len()];
        for (st, v) in fx.stream.iter().zip(&s.per_stmt) {
            if !v.is_empty() {
                per_template[st.template].0 += best(v) * 1e3;
                per_template[st.template].1 += 1;
            }
        }
        let means: Vec<f64> = per_template
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(sum, n)| sum / *n as f64)
            .collect();
        geomean(&means)
    };
    let lookup_part = if fx.kind == Kind::Lookup {
        Part::Stream
    } else {
        Part::Lookups
    };
    let lookup_us = |scn, p: f64| {
        let s = run.samples.get(&(scn, lookup_part)).unwrap_or(&empty);
        let bests: Vec<f64> = s
            .per_stmt
            .iter()
            .filter(|v| !v.is_empty())
            .map(best)
            .collect();
        percentile(&bests, p) * 1e6
    };
    let dur = |scn| run.durable.get(&scn).cloned().unwrap_or_default();
    let (dv, dr) = (dur(Scn::Vec), dur(Scn::Row));
    vec![
        setup_times(fx, run).total,
        peak_rss_mb,
        pass(&stream(Scn::Vec).per_stmt),
        pass(&stream(Scn::Row).per_stmt),
        pass(&stream(Scn::RowIdx).per_stmt),
        geo(stream(Scn::Vec)),
        geo(stream(Scn::Row)),
        geo(stream(Scn::RowIdx)),
        lookup_us(Scn::Vec, 0.5),
        lookup_us(Scn::Vec, 0.99),
        lookup_us(Scn::RowIdx, 0.5),
        lookup_us(Scn::RowIdx, 0.99),
        pass(&dv.per_stmt),
        pass(&dr.per_stmt),
        best(&dv.recovery_ms),
        best(&dr.recovery_ms),
    ]
}
