//! Workload inputs: the generated dataset, the loaded databases and the
//! rendered statements. Everything is derived from the workload, `sf`
//! and `seed`.

use std::time::Instant;

use berlinmod::{benchmark_queries, BerlinModData, RoadNetwork, ScaleFactor, Trip};
use mduck_sql::Value;
use mduck_temporal::{TimestampTz, TstzSpan};

use crate::engine::{trip_digest, Db, Scn};
use crate::stats::median;
use crate::trace::Tracer;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Lookup,
    Ingest,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "bm-suite" => Some(Kind::Suite),
            "bm-lookup" => Some(Kind::Lookup),
            "bm-ingest" => Some(Kind::Ingest),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Suite => "bm-suite",
            Kind::Lookup => "bm-lookup",
            Kind::Ingest => "bm-ingest",
        }
    }

    /// The seed the dataset is generated with: `bm-suite` pins its one
    /// dataset, the others draw theirs from `--seed`.
    pub fn data_seed(self, seed: u64) -> u64 {
        match self {
            Kind::Suite => SUITE_DATA_SEED,
            Kind::Lookup | Kind::Ingest => seed,
        }
    }

    /// The scale factor the workload is defined at.
    pub fn default_sf(self) -> f64 {
        match self {
            Kind::Suite => 0.001,
            Kind::Lookup | Kind::Ingest => 0.01,
        }
    }
}

/// The road network is the fixed city, as Berlin's map is in BerlinMOD;
/// the data seed draws the fleet and its trips.
pub const NETWORK_SEED: u64 = 42;

/// The generator seed of `bm-suite`'s one dataset. At SF-0.001 (63
/// vehicles) the fleets of different seeds change the suite's cost by up
/// to a third, Q12's self-join most; Fig 12 measures one dataset.
pub const SUITE_DATA_SEED: u64 = 42;

/// Number of statements in the seeded lookup list: enough that ten
/// lookups lie beyond the reported p99.
pub const LOOKUPS: usize = 1000;

/// The ingest target table: the trip columns of the BerlinMOD schema.
pub const INGEST_DDL: &str =
    "CREATE TABLE trips(tripid INTEGER, vehicleid INTEGER, day DATE, seqno INTEGER, trip TGEOMPOINT)";

/// One statement of a workload's list; `template` indexes its labels.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub template: usize,
    pub sql: String,
}

/// Set-up times of one repetition, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub network: f64,
    pub generate: f64,
    pub vec_load: f64,
    pub row_load: f64,
    pub index_build: f64,
}

/// A workload's inputs and its loaded read databases.
pub struct Fixture {
    pub kind: Kind,
    pub data: BerlinModData,
    /// The statement list the workload's passes run.
    pub stream: Vec<Stmt>,
    pub templates: Vec<String>,
    /// The fleet lookup list (the stream itself on `bm-lookup`).
    pub lookups: Vec<Stmt>,
    /// One INSERT per generated trip: the durable rounds of every
    /// workload (and the stream itself on `bm-ingest`).
    pub inserts: Vec<Stmt>,
    /// Loaded databases the read statements run against.
    pub dbs: Vec<(Scn, Db)>,
    /// Sorted per-trip checksums of the generated trips.
    pub expected_trips: Vec<u64>,
    /// Bytes of the trips' tgeompoint text literals.
    pub literal_bytes: usize,
    /// The set-up repetitions made before measuring.
    pub setup_reps: Vec<SetupTimes>,
    /// The scale factor and `--seed` the fixture was built from.
    pub sf: f64,
    pub seed: u64,
}

/// Median of each set-up time over the repetitions.
pub fn median_setup(reps: &[SetupTimes]) -> SetupTimes {
    let med = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    SetupTimes {
        total: med(|t| t.total),
        network: med(|t| t.network),
        generate: med(|t| t.generate),
        vec_load: med(|t| t.vec_load),
        row_load: med(|t| t.row_load),
        index_build: med(|t| t.index_build),
    }
}

/// SplitMix64: the benchmark's own seeded stream of choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn ts(t: i64) -> String {
    Value::Timestamp(t).to_string()
}

/// The seeded fleet-dashboard lookups, parameters drawn from the data:
/// vehicle and licence by id, position at an instant, distance in a period.
/// The templates rotate, so every seed sends the same mix.
pub fn lookup_list(data: &BerlinModData, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::new(seed);
    (0..LOOKUPS)
        .map(|i| {
            let trip = &data.trips[rng.below(data.trips.len())];
            let span = trip.trip.timespan();
            let (lo, hi) = (span.lower.0, span.upper.0);
            let at = |f: f64| lo + ((hi - lo) as f64 * f) as i64;
            let v = trip.vehicle_id;
            let template = i % 3;
            let sql = match template {
                0 => format!(
                    "SELECT v.vehicleid, v.model, l.license FROM vehicles v, licenses l \
                     WHERE v.vehicleid = l.vehicleid AND v.vehicleid = {v}"
                ),
                1 => {
                    let t = ts(at(0.05 + 0.9 * rng.unit()));
                    format!(
                        "SELECT tripid, valueAtTimestamp(trip, timestamptz '{t}')::GEOMETRY \
                         FROM trips WHERE vehicleid = {v} AND trip::tstzspan @> timestamptz '{t}'"
                    )
                }
                _ => {
                    let start = at(0.9 * rng.unit());
                    let period = TstzSpan::new(
                        TimestampTz(start),
                        TimestampTz(start + 15 * 60 * 1_000_000),
                        true,
                        true,
                    )
                    .expect("a 15-minute period is a valid span");
                    format!(
                        "SELECT sum(length(atTime(trip, tstzspan '{period}'))) FROM trips \
                         WHERE vehicleid = {v} AND trip::tstzspan && tstzspan '{period}'"
                    )
                }
            };
            Stmt { template, sql }
        })
        .collect()
}

/// One autocommitted INSERT per generated trip, trip as its text
/// literal, in an order drawn by the seed.
pub fn insert_list(data: &BerlinModData, seed: u64) -> Vec<Stmt> {
    let mut order: Vec<&Trip> = data.trips.iter().collect();
    let mut rng = Rng::new(seed ^ 0x1e5e_4700);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
        .into_iter()
        .map(|t| Stmt {
            template: 0,
            sql: format!(
                "INSERT INTO trips VALUES ({}, {}, '{}'::date, {}, '{}'::tgeompoint)",
                t.trip_id,
                t.vehicle_id,
                Value::Date(t.day.0),
                t.seq_no,
                t.trip.as_ewkt()
            ),
        })
        .collect()
}

/// The trip indexes of the indexed scenario, as used by the ingest table.
pub fn trip_index_ddl() -> String {
    BerlinModData::index_ddl()
        .split(';')
        .map(str::trim)
        .filter(|s| s.contains(" ON trips "))
        .collect::<Vec<_>>()
        .join(";\n")
}

impl Fixture {
    /// Generate, load and render `reps` times (at least once); keep the
    /// last repetition and every repetition's times.
    pub fn build(
        kind: Kind,
        sf: f64,
        seed: u64,
        threads: usize,
        reps: usize,
        tracer: &mut Tracer,
    ) -> Result<Fixture, String> {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..reps.max(1) {
            let (fixture, t) = Self::build_once(kind, sf, seed, threads, tracer)?;
            times.push(t);
            last = Some(fixture);
        }
        let mut fixture = last.expect("at least one repetition");
        fixture.setup_reps = times;
        Ok(fixture)
    }

    /// One more set-up like the fixture's own, for its times only.
    pub fn setup_again(&self, threads: usize, tracer: &mut Tracer) -> Result<SetupTimes, String> {
        Self::build_once(self.kind, self.sf, self.seed, threads, tracer).map(|(_, t)| t)
    }

    fn build_once(
        kind: Kind,
        sf: f64,
        seed: u64,
        threads: usize,
        tr: &mut Tracer,
    ) -> Result<(Fixture, SetupTimes), String> {
        let mut t = SetupTimes::default();
        let start = Instant::now();
        let root = tr.enter("setup", None);

        let timed = |tr: &mut Tracer, name: &'static str| (tr.enter(name, None), Instant::now());
        let (tok, t0) = timed(tr, "network");
        let net = RoadNetwork::generate(NETWORK_SEED);
        t.network = t0.elapsed().as_secs_f64();
        tr.exit(tok);
        let (tok, t0) = timed(tr, "generate");
        let data = BerlinModData::generate(&net, ScaleFactor(sf), kind.data_seed(seed));
        t.generate = t0.elapsed().as_secs_f64();
        tr.exit(tok);
        if data.trips.is_empty() {
            return Err(format!("SF {sf} with seed {seed} generates no trips"));
        }

        let scns: &[Scn] = match kind {
            Kind::Suite | Kind::Lookup => &[Scn::Vec, Scn::Row, Scn::RowIdx],
            Kind::Ingest => &[Scn::Vec, Scn::RowIdx],
        };
        let mut dbs = Vec::new();
        let mut row_loads = Vec::new();
        for &scn in scns {
            let (tok, t0) = timed(tr, "load");
            let db = Db::fresh(scn, threads);
            db.load(&data)
                .map_err(|e| format!("loading {}: {e}", scn.name()))?;
            let secs = t0.elapsed().as_secs_f64();
            tr.exit(tok);
            match scn {
                Scn::Vec => t.vec_load = secs,
                Scn::Row | Scn::RowIdx => row_loads.push(secs),
            }
            if scn == Scn::RowIdx {
                let (tok, t0) = timed(tr, "index_build");
                db.execute_each(BerlinModData::index_ddl())
                    .map_err(|e| format!("building indexes: {e}"))?;
                t.index_build = t0.elapsed().as_secs_f64();
                tr.exit(tok);
            }
            dbs.push((scn, db));
        }
        t.row_load = median(&row_loads);

        let (tok, _) = timed(tr, "render");
        let lookups = lookup_list(&data, seed);
        let inserts = insert_list(&data, seed);
        let (stream, templates) = match kind {
            Kind::Suite => {
                let qs = benchmark_queries();
                let templates = qs.iter().map(|(id, _, _)| format!("Q{id}")).collect();
                let stream = qs
                    .iter()
                    .enumerate()
                    .map(|(i, (_, _, sql))| Stmt {
                        template: i,
                        sql: sql.to_string(),
                    })
                    .collect();
                (stream, templates)
            }
            Kind::Lookup => (
                lookups.clone(),
                ["vehicle", "position", "distance"]
                    .map(String::from)
                    .to_vec(),
            ),
            Kind::Ingest => (inserts.clone(), vec!["insert".to_string()]),
        };
        let mut expected_trips: Vec<u64> = data
            .trips
            .iter()
            .map(|t| {
                let day = Value::Date(t.day.0).to_string();
                trip_digest(t.trip_id, t.vehicle_id, &day, t.seq_no, &t.trip.as_text())
            })
            .collect();
        expected_trips.sort_unstable();
        let literal_bytes: usize = data.trips.iter().map(|t| t.trip.as_ewkt().len()).sum();
        tr.exit(tok);

        tr.exit(root);
        t.total = start.elapsed().as_secs_f64();
        let fixture = Fixture {
            kind,
            data,
            stream,
            templates,
            lookups,
            inserts,
            dbs,
            expected_trips,
            literal_bytes,
            setup_reps: Vec::new(),
            sf,
            seed,
        };
        Ok((fixture, t))
    }

    pub fn db(&self, scn: Scn) -> &Db {
        &self
            .dbs
            .iter()
            .find(|(s, _)| *s == scn)
            .expect("scenario loaded by the fixture")
            .1
    }
}
