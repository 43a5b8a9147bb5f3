//! The three execution scenarios of Figure 12 behind one interface, and
//! the digests the correctness gate compares.

use std::path::Path;

use berlinmod::BerlinModData;
use mduck_rowdb::RowDatabase;
use mduck_sql::{SqlResult, Value};
use quackdb::Database;

/// An execution scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scn {
    /// The vectorized engine (`quackdb`).
    Vec,
    /// The row engine (`mduck-rowdb`) without indexes.
    Row,
    /// The row engine with `BerlinModData::index_ddl()`.
    RowIdx,
}

impl Scn {
    pub fn name(self) -> &'static str {
        match self {
            Scn::Vec => "vec",
            Scn::Row => "row",
            Scn::RowIdx => "rowidx",
        }
    }
}

/// One database of either engine.
pub enum Db {
    Vec(Database),
    Row(RowDatabase),
}

impl Db {
    /// An empty database with the MobilityDuck extension loaded; the
    /// vectorized engine runs on `threads` workers.
    pub fn fresh(scn: Scn, threads: usize) -> Db {
        match scn {
            Scn::Vec => {
                let db = Database::new();
                mobilityduck::load(&db);
                db.set_threads(threads);
                Db::Vec(db)
            }
            Scn::Row | Scn::RowIdx => {
                let db = RowDatabase::new();
                mobilityduck::load_row(&db);
                Db::Row(db)
            }
        }
    }

    pub fn execute(&self, sql: &str) -> SqlResult<Vec<Vec<Value>>> {
        match self {
            Db::Vec(db) => db.execute(sql).map(|r| r.rows),
            Db::Row(db) => db.execute(sql).map(|r| r.rows),
        }
    }

    /// Run each `;`-separated statement of a script.
    pub fn execute_each(&self, script: &str) -> SqlResult<()> {
        for stmt in script.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            self.execute(stmt)?;
        }
        Ok(())
    }

    /// Bulk-load the dataset through the engine's commit path (no indexes).
    pub fn load(&self, data: &BerlinModData) -> SqlResult<()> {
        match self {
            Db::Vec(db) => data.load_into_quack(db),
            Db::Row(db) => data.load_into_row(db, false),
        }
    }

    pub fn attach_wal(&self, path: &Path) -> SqlResult<()> {
        match self {
            Db::Vec(db) => db.attach_wal(path),
            Db::Row(db) => db.attach_wal(path),
        }
    }

    pub fn vec(&self) -> Option<&Database> {
        match self {
            Db::Vec(db) => Some(db),
            Db::Row(_) => None,
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Order-insensitive digest of a result: the rows are rendered, sorted
/// and hashed. Floats are compared to 10 significant digits, so sums
/// taken in a different order by different executors still agree.
pub fn result_digest(rows: &[Vec<Value>]) -> (usize, u64) {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| r.iter().map(cell).collect::<Vec<_>>().join("\u{1f}"))
        .collect();
    lines.sort_unstable();
    let h = lines
        .iter()
        .fold(FNV_SEED, |h, l| fnv(l.as_bytes(), fnv(b"\x1e", h)));
    (rows.len(), h)
}

fn cell(v: &Value) -> String {
    match v {
        Value::Float(x) => format!("{x:.9e}"),
        other => other.to_string(),
    }
}

/// The per-trip checksum of the ingest gate: trip id, vehicle, day,
/// sequence number and the trip's text form.
pub fn trip_digest(tripid: i64, vehicleid: i64, day: &str, seqno: i64, text: &str) -> u64 {
    let key = format!("{tripid}|{vehicleid}|{day}|{seqno}|{text}");
    fnv(key.as_bytes(), FNV_SEED)
}

/// The statement that reads back what [`trip_digest`] covers.
pub const TRIPS_READBACK: &str = "SELECT tripid, vehicleid, day, seqno, asText(trip) FROM trips";

/// Sorted per-trip checksums of a readback result, or why it is malformed.
pub fn trip_digests(rows: &[Vec<Value>]) -> Result<Vec<u64>, String> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        match r.as_slice() {
            [Value::Int(id), Value::Int(v), day, Value::Int(seq), Value::Text(text)] => {
                out.push(trip_digest(*id, *v, &day.to_string(), *seq, text))
            }
            other => return Err(format!("unexpected readback row {other:?}")),
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_and_float_noise() {
        let a = vec![
            vec![Value::Int(1), Value::Float(0.1 + 0.2)],
            vec![Value::Int(2), Value::Null],
        ];
        let b = vec![
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(1), Value::Float(0.3)],
        ];
        assert_eq!(result_digest(&a), result_digest(&b));
        let c = vec![
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(1), Value::Float(0.31)],
        ];
        assert_ne!(result_digest(&a), result_digest(&c));
    }
}
