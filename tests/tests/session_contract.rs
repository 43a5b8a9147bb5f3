//! The session contract, checked once per engine: both engines run under
//! the one `mduck_wal::session::Session`, so the same statement must
//! meet the same row budget, return the same result shape and honour
//! the same guard on either.

use std::time::Duration;

use mduck_sql::{ExecGuard, ExecLimits, SqlError, Value};
use mduck_wal::session::{Executor, QueryResult, Session};

/// A database holding `t(a INTEGER)` with the rows 1..=1000.
fn with_thousand_rows<E: Executor>() -> Session<E> {
    let db = Session::<E>::new();
    db.execute("CREATE TABLE t(a INTEGER)").unwrap();
    db.execute("INSERT INTO t SELECT * FROM generate_series(1, 1000)").unwrap();
    db
}

fn sum_and_count<E: Executor>(db: &Session<E>) -> Vec<Value> {
    db.execute("SELECT sum(a), count(*) FROM t").unwrap().rows.remove(0)
}

fn assert_exhausted(engine: &str, sql: &str, r: Result<QueryResult, SqlError>) {
    match r {
        Err(SqlError::ResourceExhausted(_)) => {}
        other => panic!("{engine}: {sql}: expected ResourceExhausted, got {other:?}"),
    }
}

fn row_budget_covers_dml<E: Executor>() {
    let db = with_thousand_rows::<E>();
    let before = sum_and_count(&db);
    db.set_exec_limits(ExecLimits::default().with_row_budget(100));
    for sql in ["UPDATE t SET a = a + 1", "DELETE FROM t", "INSERT INTO t SELECT * FROM t"] {
        assert_exhausted(E::NAME, sql, db.execute(sql));
    }
    db.set_exec_limits(ExecLimits::default());
    assert_eq!(sum_and_count(&db), before, "{}: a tripped statement left changes", E::NAME);
}

fn dml_returns_one_count_column<E: Executor>() {
    let db = Session::<E>::new();
    db.execute("CREATE TABLE t(a INTEGER)").unwrap();
    for (sql, n) in [
        ("INSERT INTO t VALUES (1), (2), (3)", 3),
        ("UPDATE t SET a = a * 10 WHERE a > 1", 2),
        ("DELETE FROM t WHERE a = 1", 1),
    ] {
        let r = db.execute(sql).unwrap();
        assert_eq!(r.column_names(), ["count"], "{}: {sql}", E::NAME);
        assert_eq!(r.rows, vec![vec![Value::Int(n)]], "{}: {sql}", E::NAME);
    }
}

fn utility_statements_answer<E: Executor>() {
    let db = Session::<E>::new();
    db.execute("CREATE TABLE t(a INTEGER, b VARCHAR)").unwrap();
    db.execute("CREATE TABLE s(x INTEGER)").unwrap();
    let tables = db.execute("SHOW TABLES").unwrap();
    assert_eq!(tables.column_names(), ["name"], "{}", E::NAME);
    assert_eq!(tables.rows, vec![vec![Value::text("s")], vec![Value::text("t")]], "{}", E::NAME);
    let described = db.execute("DESCRIBE t").unwrap();
    assert_eq!(described.column_names(), ["column_name", "column_type"], "{}", E::NAME);
    let names: Vec<String> = described.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, ["a", "b"], "{}", E::NAME);
    assert!(matches!(db.execute("DESCRIBE missing"), Err(SqlError::Catalog(_))), "{}", E::NAME);
}

fn caller_guard_cancels<E: Executor>() {
    let db = with_thousand_rows::<E>();
    // Canceled before the statement starts: the first tick trips it.
    let guard = ExecGuard::new(&ExecLimits::default());
    guard.cancel_handle().cancel();
    assert_exhausted(E::NAME, "SELECT", db.execute_with_guard("SELECT * FROM t", &guard));

    // Canceled from another thread mid-flight: a 10^9-pair join with
    // no output must still stop.
    let guard = ExecGuard::new(&ExecLimits::default());
    let handle = guard.cancel_handle();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        handle.cancel();
    });
    let sql = "SELECT count(*) FROM t x, t y, t z WHERE x.a + y.a + z.a < 0";
    let r = db.execute_with_guard(sql, &guard);
    canceller.join().unwrap();
    match r {
        Err(SqlError::ResourceExhausted(msg)) => assert!(msg.contains("canceled"), "{msg}"),
        other => panic!("{}: expected cancellation, got {other:?}", E::NAME),
    }
}

#[test]
fn row_budget_covers_update_delete_and_insert_select() {
    row_budget_covers_dml::<quackdb::VecEngine>();
    row_budget_covers_dml::<mduck_rowdb::RowEngine>();
}

#[test]
fn dml_results_carry_one_count_column() {
    dml_returns_one_count_column::<quackdb::VecEngine>();
    dml_returns_one_count_column::<mduck_rowdb::RowEngine>();
}

#[test]
fn show_tables_and_describe_answer() {
    utility_statements_answer::<quackdb::VecEngine>();
    utility_statements_answer::<mduck_rowdb::RowEngine>();
}

#[test]
fn execute_with_guard_cancels() {
    caller_guard_cancels::<quackdb::VecEngine>();
    caller_guard_cancels::<mduck_rowdb::RowEngine>();
}
