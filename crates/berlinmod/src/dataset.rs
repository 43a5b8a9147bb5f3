//! Dataset assembly and loading: the BerlinMOD tables (Vehicles, Licenses,
//! Trips, Points, Regions, Instants, Periods), their 10-row benchmark
//! samples (Licenses1/2, Instants1, Periods1, Points1, Regions1), and the
//! `hanoi` district table — loaded identically into both engines.

use mduck_geo::point::Point;
use mduck_geo::{wkb, Geometry};
use mduck_sql::{SqlResult, Value};
use mduck_temporal::span::TstzSpan;
use mduck_temporal::TimestampTz;
use mobilityduck::{MdTGeomPoint, MdTstzSpan};
use mduck_prng::StdRng;
use mduck_prng::{RngExt, SeedableRng};

use crate::network::{RoadNetwork, NETWORK_SRID};
use crate::trips::{first_day, generate_trips, ScaleFactor, Trip, Vehicle};

/// A fully generated BerlinMOD-Hanoi dataset, engine-agnostic.
pub struct BerlinModData {
    pub sf: ScaleFactor,
    pub vehicles: Vec<Vehicle>,
    pub trips: Vec<Trip>,
    pub points: Vec<Geometry>,
    pub regions: Vec<Geometry>,
    pub instants: Vec<TimestampTz>,
    pub periods: Vec<TstzSpan>,
    pub districts: Vec<(String, Geometry, f64)>,
}

impl BerlinModData {
    /// Generate the dataset for a scale factor (deterministic).
    pub fn generate(net: &RoadNetwork, sf: ScaleFactor, seed: u64) -> Self {
        let (vehicles, trips) = generate_trips(net, sf, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);

        // Query points: sampled from actual trip waypoints so point-based
        // queries (Q4, Q7, Q11) have hits.
        let mut points = Vec::with_capacity(100);
        for _ in 0..100 {
            let t = &trips[rng.random_range(0..trips.len())];
            let i = rng.random_range(0..t.trip.temp.num_instants());
            points.extend(
                t.trip.temp.instants().nth(i).map(|at| {
                    Geometry::from_point(at.value).with_srid(NETWORK_SRID)
                }),
            );
        }

        // Query regions: random 1–3 km squares within the city.
        let mut regions = Vec::with_capacity(100);
        for _ in 0..100 {
            let t = &trips[rng.random_range(0..trips.len())];
            let c = t.trip.temp.start_value();
            let half = rng.random_range(500.0..1500.0);
            regions.push(
                Geometry::polygon(vec![vec![
                    Point::new(c.x - half, c.y - half),
                    Point::new(c.x + half, c.y - half),
                    Point::new(c.x + half, c.y + half),
                    Point::new(c.x - half, c.y + half),
                    Point::new(c.x - half, c.y - half),
                ]])
                .expect("square region")
                .with_srid(NETWORK_SRID),
            );
        }

        // Query instants: uniform over the simulated window.
        let start = first_day().at_midnight();
        let days = sf.num_days() as i64;
        let span_usecs = days * 86_400_000_000;
        let instants: Vec<TimestampTz> = (0..100)
            .map(|_| TimestampTz(start.0 + rng.random_range(0..span_usecs)))
            .collect();

        // Query periods: 2–24-hour windows.
        let periods: Vec<TstzSpan> = (0..100)
            .map(|_| {
                let lo = TimestampTz(start.0 + rng.random_range(0..span_usecs));
                let len = rng.random_range(2..24) * 3_600_000_000i64;
                TstzSpan::new(lo, TimestampTz(lo.0 + len), true, true)
                    .expect("positive period")
            })
            .collect();

        let districts = net
            .districts
            .iter()
            .map(|d| (d.name.to_string(), d.polygon.clone(), d.population_weight))
            .collect();

        BerlinModData { sf, vehicles, trips, points, regions, instants, periods, districts }
    }

    /// Approximate dataset size in bytes (Table 2's Size column): the
    /// in-memory footprint of the trip observations.
    pub fn approx_size_bytes(&self) -> usize {
        let instants: usize = self.trips.iter().map(|t| t.trip.temp.num_instants()).sum();
        // One observation = point (16) + timestamp (8) + row bookkeeping,
        // matching BerlinMOD's CSV-ish accounting.
        instants * 72 + self.trips.len() * 64
    }

    pub fn total_trip_points(&self) -> usize {
        self.trips.iter().map(|t| t.trip.temp.num_instants()).sum()
    }

    /// The DDL both engines run.
    pub fn ddl() -> &'static str {
        "CREATE TABLE vehicles(vehicleid INTEGER, license VARCHAR, vehicletype VARCHAR, model VARCHAR);
         CREATE TABLE licenses(licenseid INTEGER, license VARCHAR, vehicleid INTEGER);
         CREATE TABLE trips(tripid INTEGER, vehicleid INTEGER, day DATE, seqno INTEGER, trip TGEOMPOINT, traj WKB_BLOB);
         CREATE TABLE points(pointid INTEGER, geom WKB_BLOB);
         CREATE TABLE regions(regionid INTEGER, geom WKB_BLOB);
         CREATE TABLE instants(instantid INTEGER, instant TIMESTAMPTZ);
         CREATE TABLE periods(periodid INTEGER, period TSTZSPAN);
         CREATE TABLE licenses1(licenseid INTEGER, license VARCHAR, vehicleid INTEGER);
         CREATE TABLE licenses2(licenseid INTEGER, license VARCHAR, vehicleid INTEGER);
         CREATE TABLE instants1(instantid INTEGER, instant TIMESTAMPTZ);
         CREATE TABLE periods1(periodid INTEGER, period TSTZSPAN);
         CREATE TABLE points1(pointid INTEGER, geom WKB_BLOB);
         CREATE TABLE regions1(regionid INTEGER, geom WKB_BLOB);
         CREATE TABLE hanoi(municipalityname VARCHAR, geom WKB_BLOB, population DOUBLE);"
    }

    /// The CREATE INDEX script of the "MobilityDB with indexes" scenario.
    pub fn index_ddl() -> &'static str {
        "CREATE INDEX trips_trip_gist ON trips USING GIST(trip);
         CREATE INDEX trips_vehicle_btree ON trips USING BTREE(vehicleid);
         CREATE INDEX vehicles_id_btree ON vehicles USING BTREE(vehicleid);
         CREATE INDEX licenses_vehicle_btree ON licenses USING BTREE(vehicleid);"
    }

    /// All tables as (name, rows) pairs, in insertion order.
    pub fn table_rows(&self) -> Vec<(&'static str, Vec<Vec<Value>>)> {
        let vehicles: Vec<Vec<Value>> = self
            .vehicles
            .iter()
            .map(|v| {
                vec![
                    Value::Int(v.vehicle_id),
                    Value::text(&v.license),
                    Value::text(v.vehicle_type),
                    Value::text(v.model),
                ]
            })
            .collect();
        let licenses: Vec<Vec<Value>> = self
            .vehicles
            .iter()
            .map(|v| {
                vec![Value::Int(v.vehicle_id), Value::text(&v.license), Value::Int(v.vehicle_id)]
            })
            .collect();
        let trips: Vec<Vec<Value>> = self
            .trips
            .iter()
            .map(|t| {
                let traj = t.trip.trajectory();
                vec![
                    Value::Int(t.trip_id),
                    Value::Int(t.vehicle_id),
                    Value::Date(t.day.0),
                    Value::Int(t.seq_no),
                    MdTGeomPoint(t.trip.clone()).into_value(),
                    Value::blob(wkb::to_wkb(&traj)),
                ]
            })
            .collect();
        let points: Vec<Vec<Value>> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, g)| vec![Value::Int(i as i64 + 1), Value::blob(wkb::to_wkb(g))])
            .collect();
        let regions: Vec<Vec<Value>> = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, g)| vec![Value::Int(i as i64 + 1), Value::blob(wkb::to_wkb(g))])
            .collect();
        let instants: Vec<Vec<Value>> = self
            .instants
            .iter()
            .enumerate()
            .map(|(i, t)| vec![Value::Int(i as i64 + 1), Value::Timestamp(t.0)])
            .collect();
        let periods: Vec<Vec<Value>> = self
            .periods
            .iter()
            .enumerate()
            .map(|(i, p)| vec![Value::Int(i as i64 + 1), MdTstzSpan(*p).into_value()])
            .collect();
        let hanoi: Vec<Vec<Value>> = self
            .districts
            .iter()
            .map(|(name, g, pop)| {
                vec![
                    Value::text(name),
                    Value::blob(wkb::to_wkb(g)),
                    Value::Float(*pop * 600_000.0),
                ]
            })
            .collect();
        // 10-row samples (deterministic prefix picks, as the paper's
        // benchmark "extracted samples").
        let licenses1: Vec<Vec<Value>> = licenses.iter().take(10).cloned().collect();
        let licenses2: Vec<Vec<Value>> =
            licenses.iter().skip(10).take(10).cloned().collect();
        let instants1: Vec<Vec<Value>> = instants.iter().take(10).cloned().collect();
        let periods1: Vec<Vec<Value>> = periods.iter().take(10).cloned().collect();
        let points1: Vec<Vec<Value>> = points.iter().take(10).cloned().collect();
        let regions1: Vec<Vec<Value>> = regions.iter().take(10).cloned().collect();
        vec![
            ("vehicles", vehicles),
            ("licenses", licenses),
            ("trips", trips),
            ("points", points),
            ("regions", regions),
            ("instants", instants),
            ("periods", periods),
            ("licenses1", licenses1),
            ("licenses2", licenses2),
            ("instants1", instants1),
            ("periods1", periods1),
            ("points1", points1),
            ("regions1", regions1),
            ("hanoi", hanoi),
        ]
    }

    /// Load into a quackdb (MobilityDuck) instance.
    pub fn load_into_quack(&self, db: &quackdb::Database) -> SqlResult<()> {
        for stmt in Self::ddl().split(';') {
            let stmt = stmt.trim();
            if !stmt.is_empty() {
                db.execute(stmt)?;
            }
        }
        for (name, rows) in self.table_rows() {
            // The engine's bulk commit path: atomic, WAL-logged when a
            // WAL is attached, so loaded datasets are as durable as any
            // INSERT statement.
            db.insert_rows(name, &rows)?;
        }
        Ok(())
    }

    /// Load into a rowdb (MobilityDB-baseline) instance; `with_indexes`
    /// reproduces the paper's indexed scenario.
    pub fn load_into_row(&self, db: &mduck_rowdb::RowDatabase, with_indexes: bool) -> SqlResult<()> {
        for stmt in Self::ddl().split(';') {
            let stmt = stmt.trim();
            if !stmt.is_empty() {
                db.execute(stmt)?;
            }
        }
        for (name, rows) in self.table_rows() {
            db.insert_rows(name, rows)?;
        }
        if with_indexes {
            for stmt in Self::index_ddl().split(';') {
                let stmt = stmt.trim();
                if !stmt.is_empty() {
                    db.execute(stmt)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (RoadNetwork, BerlinModData) {
        let net = RoadNetwork::generate(42);
        let data = BerlinModData::generate(&net, ScaleFactor(0.001), 42);
        (net, data)
    }

    #[test]
    fn dataset_shapes() {
        let (_, data) = small();
        assert_eq!(data.vehicles.len(), 63);
        assert_eq!(data.points.len(), 100);
        assert_eq!(data.regions.len(), 100);
        assert_eq!(data.instants.len(), 100);
        assert_eq!(data.periods.len(), 100);
        assert_eq!(data.districts.len(), 12);
        assert!(data.approx_size_bytes() > 0);
    }

    #[test]
    fn loads_into_both_engines() {
        let (_, data) = small();
        let vdb = quackdb::Database::new();
        mobilityduck::load(&vdb);
        data.load_into_quack(&vdb).unwrap();
        let rdb = mduck_rowdb::RowDatabase::new();
        mobilityduck::load_row(&rdb);
        data.load_into_row(&rdb, true).unwrap();

        for (table, expect) in [
            ("vehicles", data.vehicles.len()),
            ("trips", data.trips.len()),
            ("licenses1", 10),
            ("points", 100),
            ("hanoi", 12),
        ] {
            let q = format!("SELECT count(*) FROM {table}");
            assert_eq!(
                vdb.execute(&q).unwrap().rows[0][0].to_string(),
                expect.to_string(),
                "quackdb {table}"
            );
            assert_eq!(
                rdb.execute(&q).unwrap().rows[0][0].to_string(),
                expect.to_string(),
                "rowdb {table}"
            );
        }
    }
}
