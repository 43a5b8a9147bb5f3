//! Malformed-input regression tests: each case is a class of input that
//! historically panics hand-written parsers. Every one must come back as
//! a typed `Err`, never a panic, and engine errors must never be the
//! `Internal` backstop variant.

use mduck_geo::wkb::{from_wkb, to_wkb};
use mduck_geo::wkt::parse_wkt;
use mduck_geo::gserialized::{from_native, peek_bbox, to_native};
use mduck_sql::{SqlError, Value};
use mduck_temporal::temporal::{parse_tfloat, parse_tgeompoint};
use mduck_temporal::{parse_span, parse_stbox, parse_timestamp, TstzSpan};
use quackdb::Database;

fn db() -> Database {
    let d = Database::new();
    mobilityduck::load(&d);
    d
}

fn assert_typed_err(db: &Database, sql: &str) {
    match db.execute(sql) {
        Ok(_) => panic!("expected an error for {sql:?}"),
        Err(e) => assert!(!e.is_internal(), "panic leaked through backstop on {sql:?}: {e}"),
    }
}

// ------------------------------------------------------------------ WKB

#[test]
fn truncated_wkb_is_an_error() {
    let g = parse_wkt("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))").unwrap();
    let full = to_wkb(&g);
    // Every prefix must fail cleanly (byte 0 = endianness, then type,
    // ring counts, then coordinates).
    for cut in 0..full.len() {
        assert!(from_wkb(&full[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }
    assert!(from_wkb(&full).is_ok());
}

#[test]
fn wkb_with_hostile_counts_is_an_error() {
    let g = parse_wkt("LINESTRING(0 0, 1 1)").unwrap();
    let mut b = to_wkb(&g);
    // Overwrite the point count (little-endian u32 after byte-order +
    // geometry-type header) with u32::MAX: must not attempt a
    // multi-gigabyte allocation or read out of bounds.
    b[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(from_wkb(&b).is_err());
}

#[test]
fn truncated_native_geometry_is_an_error() {
    let g = parse_wkt("LINESTRING(0 0, 1 1, 2 2)").unwrap();
    let full = to_native(&g);
    for cut in 0..full.len() {
        assert!(from_native(&full[..cut]).is_err(), "prefix of {cut} bytes parsed");
        let _ = peek_bbox(&full[..cut]); // must not panic either
    }
    assert!(from_native(&full).is_ok());
}

// ------------------------------------------------------------------ WKT

#[test]
fn unclosed_wkt_rings_are_errors() {
    for s in [
        "POLYGON((0 0, 10 0, 10 10",
        "POLYGON((0 0, 10 0, 10 10)",
        "POLYGON(0 0, 10 0)",
        "LINESTRING(0 0",
        "LINESTRING(0 0,",
        "MULTIPOLYGON(((0 0, 1 0, 1 1)",
        "GEOMETRYCOLLECTION(POINT(1 2)",
        "POINT(1",
        "POINT(",
        "SRID=;POINT(1 2)",
        "SRID=4326POINT(1 2)",
    ] {
        assert!(parse_wkt(s).is_err(), "{s:?} parsed");
    }
}

#[test]
fn wkt_with_multibyte_utf8_is_an_error_not_a_panic() {
    // Byte 5 of these inputs is inside a multi-byte char; unchecked
    // `&s[..5]` slicing panics (regression: SRID-prefix detection).
    for s in ["POIN\u{30C8}(1 2)", "SRI\u{30C8}=4326;POINT(0 0)", "\u{00E9}\u{00E9}\u{00E9}"] {
        assert!(parse_wkt(s).is_err(), "{s:?} parsed");
    }
}

// ------------------------------------------------------------- temporal

#[test]
fn out_of_order_timestamps_are_errors() {
    for s in [
        "[Point(0 0)@2025-01-02, Point(1 1)@2025-01-01]",
        "[Point(0 0)@2025-01-01, Point(1 1)@2025-01-01]", // duplicate
        "{[Point(0 0)@2025-02-01, Point(1 1)@2025-02-02], [Point(2 2)@2025-01-01, Point(3 3)@2025-01-02]}",
    ] {
        assert!(parse_tgeompoint(s).is_err(), "{s:?} parsed");
    }
    assert!(parse_tfloat("[2.5@2025-06-01, 1.5@2025-01-01]").is_err());
}

#[test]
fn malformed_temporal_literals_are_errors() {
    for s in [
        "",
        "[",
        "[]",
        "[Point(0 0)@]",
        "[@2025-01-01]",
        "[Point(0 0)@2025-01-01",
        "Point(0 0)@not-a-date",
        "SRID=99999999999999999999;Point(0 0)@2025-01-01",
        "Interp=Bogus;[1@2025-01-01]",
        "{",
        "{}",
    ] {
        assert!(parse_tgeompoint(s).is_err(), "{s:?} parsed");
    }
}

#[test]
fn malformed_spans_and_boxes_are_errors() {
    for s in ["", "[", "[1,", "[2, 1]", "(1, 1)", "[a, b]", "[1 2]"] {
        assert!(parse_span::<i64>(s).is_err(), "{s:?} parsed");
    }
    assert!(parse_span::<mduck_temporal::TimestampTz>("[2025-06-01, 2025-01-01]")
        .map(|_: TstzSpan| ())
        .is_err());
    for s in ["STBOX", "STBOX X((1,2),(3))", "STBOX X((1,2)", "STBOX Q((1,2),(3,4))", "TBOX XT("]
    {
        assert!(parse_stbox(s).is_err(), "{s:?} parsed");
    }
}

#[test]
fn nan_and_infinite_inputs_never_panic() {
    // Rust's f64 FromStr accepts "NaN"/"inf"; span and temporal-value
    // parsing must reject NaN (it breaks ordering) rather than admit a
    // value that panics the first comparison.
    assert!(parse_span::<f64>("[NaN, 1]").map(|_: mduck_temporal::FloatSpan| ()).is_err());
    assert!(parse_span::<f64>("[1, NaN]").map(|_: mduck_temporal::FloatSpan| ()).is_err());
    assert!(parse_tfloat("NaN@2025-01-01").is_err());
    assert!(parse_tfloat("[NaN@2025-01-01, 1@2025-01-02]").is_err());

    // Infinite coordinates parse (1e999 overflows to inf) — everything
    // downstream, including R-tree construction over NaN centers, must
    // stay panic-free.
    let db = db();
    db.execute("CREATE TABLE weird(g GEOMETRY)").unwrap();
    db.execute("INSERT INTO weird VALUES ('POLYGON((-1e999 0, 1e999 0, 0 1e999, -1e999 0))'::GEOMETRY)")
        .ok();
    db.execute("INSERT INTO weird VALUES ('POINT(1 2)'::GEOMETRY)").unwrap();
    match db.execute("CREATE INDEX widx ON weird USING RTREE(g)") {
        Ok(_) => {}
        Err(e) => assert!(!e.is_internal(), "index build panicked: {e}"),
    }
}

#[test]
fn malformed_timestamps_are_errors() {
    for s in ["", "2025", "2025-13-01", "2025-01-32", "2025-01-01 25:00:00", "99999999-01-01"] {
        assert!(parse_timestamp(s).is_err(), "{s:?} parsed");
    }
}

// ------------------------------------------------------------------ SQL

#[test]
fn unterminated_string_literals_are_errors() {
    let db = db();
    for sql in [
        "SELECT 'abc",
        "SELECT 'it''s",
        "SELECT \"ident",
        "SELECT 'a' || 'b",
        "INSERT INTO t VALUES ('x",
    ] {
        match db.execute(sql) {
            Err(SqlError::Lex(_)) => {}
            other => panic!("expected a lex error for {sql:?}, got {other:?}"),
        }
    }
}

#[test]
fn arithmetic_edge_cases_are_typed_errors() {
    let db = db();
    // Division/modulo by zero and i64 overflow: release builds wrap or
    // abort on naive arithmetic; these must be typed errors instead.
    // (The literal -9223372036854775808 lexes as a float — its magnitude
    // overflows i64 — so i64::MIN is spelled arithmetically.)
    assert_typed_err(&db, "SELECT 1 / 0");
    assert_typed_err(&db, "SELECT 1 % 0");
    assert_typed_err(&db, "SELECT (-9223372036854775807 - 1) / -1");
    assert_typed_err(&db, "SELECT (-9223372036854775807 - 1) % -1");
    assert_typed_err(&db, "SELECT 9223372036854775807 + 1");
    assert_typed_err(&db, "SELECT (-9223372036854775807 - 1) - 1");
    assert_typed_err(&db, "SELECT 9223372036854775807 * 2");
}

#[test]
fn deep_nesting_is_a_typed_error() {
    let db = db();
    for depth in [65usize, 100, 500, 2000] {
        let sql = format!("SELECT {}1{}", "(".repeat(depth), ")".repeat(depth));
        match db.execute(&sql) {
            Err(SqlError::ResourceExhausted(_)) => {}
            other => panic!("expected ResourceExhausted at depth {depth}, got {other:?}"),
        }
    }
}

#[test]
fn garbage_statements_are_typed_errors() {
    let db = db();
    for sql in [
        ";;;",
        "SELEC 1",
        "SELECT FROM WHERE",
        "INSERT INTO VALUES (1)",
        "CREATE TABLE (a INTEGER)",
        "\u{30C8}\u{30C8}\u{30C8}",
        "SELECT * FROM missing_table",
        "SELECT missing_fn(1)",
        "SELECT 1 + 'not a number'",
    ] {
        match db.execute(sql) {
            Ok(_) => panic!("expected an error for {sql:?}"),
            Err(e) => assert!(!e.is_internal(), "internal error on {sql:?}: {e}"),
        }
    }
}

// ------------------------------------------------------------------ WAL

/// A CRC-valid log whose last record does not fit the table it names
/// (a column or row past the end) is corruption, and both engines say so
/// the same way on replay: never a panic, never a silently dropped edit.
#[test]
fn wal_edits_outside_the_table_are_corruption_on_both_engines() {
    use mduck_wal::{DurabilityManager, WalRecord};

    let bad_records = [
        ("update_col", WalRecord::Update { table: "t".into(), cells: vec![(0, 99, Value::Int(1))] }),
        ("update_row", WalRecord::Update { table: "t".into(), cells: vec![(99, 0, Value::Int(1))] }),
        ("delete_row", WalRecord::Delete { table: "t".into(), rows: vec![99] }),
    ];
    for (name, bad) in bad_records {
        let path = std::env::temp_dir()
            .join(format!("mduck_malformed_{}_{name}.wal", std::process::id()));
        let remove = |p: &std::path::Path| {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
        };
        remove(&path);
        {
            let registry = mduck_sql::Registry::with_builtins();
            let (wal, _) = DurabilityManager::open(&path, &registry).unwrap();
            for record in [
                WalRecord::CreateTable {
                    name: "t".into(),
                    columns: vec![("a".into(), mduck_sql::LogicalType::Int)],
                },
                WalRecord::Insert { table: "t".into(), rows: vec![vec![Value::Int(7)]; 3] },
                bad,
            ] {
                wal.append(&record).unwrap();
            }
        }
        match Database::open(&path) {
            Err(SqlError::Corruption(_)) => {}
            other => panic!("vecdb {name}: expected Corruption, got {:?}", other.err()),
        }
        match mduck_rowdb::RowDatabase::open(&path) {
            Err(SqlError::Corruption(_)) => {}
            other => panic!("rowdb {name}: expected Corruption, got {:?}", other.err()),
        }
        remove(&path);
    }
}
