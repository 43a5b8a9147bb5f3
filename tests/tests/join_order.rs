//! Join order is the planner's choice, never the result's: every
//! multi-relation BerlinMOD query returns the same rows whatever order its
//! FROM items are written in, on the vectorized engine (serial and with a
//! worker pool) and on the row engine without and with indexes.

use berlinmod::{benchmark_queries, BerlinModData, RoadNetwork, ScaleFactor};
use mduck_prng::{RngExt, SeedableRng, StdRng};
use mduck_rowdb::RowDatabase;
use mduck_sql::Value;
use quackdb::Database;

/// FROM orders tried per query besides the written one.
const PERMUTATIONS: usize = 4;

struct Engines {
    vec: Database,
    row: RowDatabase,
    rowidx: RowDatabase,
}

fn berlinmod_engines() -> Engines {
    let net = RoadNetwork::generate(42);
    let data = BerlinModData::generate(&net, ScaleFactor(0.001), 42);
    let vec = Database::new();
    mobilityduck::load(&vec);
    data.load_into_quack(&vec).expect("load quackdb");
    let row = RowDatabase::new();
    mobilityduck::load_row(&row);
    data.load_into_row(&row, false).expect("load rowdb");
    let rowidx = RowDatabase::new();
    mobilityduck::load_row(&rowidx);
    data.load_into_row(&rowidx, true).expect("load indexed rowdb");
    Engines { vec, row, rowidx }
}

/// Rows as strings, sorted: results compared order-insensitively.
fn row_set(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> =
        rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
    out.sort();
    out
}

impl Engines {
    /// The query's row set on every engine configuration, labelled.
    fn run_all(&self, sql: &str) -> Vec<(&'static str, Vec<Vec<String>>)> {
        let vec_at = |threads: usize| {
            self.vec.set_threads(threads);
            let r = self.vec.execute(sql).unwrap_or_else(|e| panic!("vec t={threads}: {e}\n{sql}"));
            row_set(&r.rows)
        };
        let row_on = |db: &RowDatabase, label: &str| {
            let r = db.execute(sql).unwrap_or_else(|e| panic!("{label}: {e}\n{sql}"));
            row_set(&r.rows)
        };
        vec![
            ("vec threads=1", vec_at(1)),
            ("vec threads=4", vec_at(4)),
            ("row", row_on(&self.row, "row")),
            ("rowidx", row_on(&self.rowidx, "rowidx")),
        ]
    }
}

/// Byte ranges of the comma-separated FROM lists in `sql` (the main query
/// and CTE bodies) that name more than one item.
fn from_lists(sql: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Some(i) = sql[at..].find("FROM ") {
        let start = at + i + "FROM ".len();
        let rest = &sql[start..];
        let end = ["WHERE", "ORDER BY", "GROUP BY", ")"]
            .iter()
            .filter_map(|k| rest.find(k))
            .min()
            .unwrap_or(rest.len());
        let list = rest[..end].trim_end();
        if list.contains(',') {
            out.push((start, start + list.len()));
        }
        at = start;
    }
    out
}

/// `sql` with every multi-item FROM list shuffled by `rng`.
fn permute_from(sql: &str, lists: &[(usize, usize)], rng: &mut StdRng) -> String {
    let mut out = sql.to_string();
    for &(start, end) in lists.iter().rev() {
        let mut items: Vec<&str> = sql[start..end].split(',').map(str::trim).collect();
        rng.shuffle(&mut items);
        out.replace_range(start..end, &items.join(", "));
    }
    out
}

#[test]
fn from_order_never_changes_results() {
    let engines = berlinmod_engines();
    let mut queries: Vec<(String, String)> = benchmark_queries()
        .into_iter()
        .map(|(id, _, sql)| (format!("Q{id}"), sql.to_string()))
        .collect();
    // Plain Q12 is empty at SF-0.001; a 3000 m radius makes it return rows.
    let q12 = benchmark_queries().into_iter().find(|(id, _, _)| *id == 12).expect("Q12 exists").2;
    queries.push(("Q12 (3000 m)".into(), q12.replace("25.0", "3000.0")));

    let mut tested = 0;
    for (seed, (label, sql)) in queries.iter().enumerate() {
        let lists = from_lists(sql);
        if lists.is_empty() {
            continue;
        }
        tested += 1;
        let runs = engines.run_all(sql);
        let want = runs[0].1.clone();
        if label == "Q12 (3000 m)" {
            assert!(!want.is_empty(), "{label} should return rows");
        }
        for (config, got) in &runs {
            assert_eq!(got, &want, "{label} on {config} differs from vec threads=1\n{sql}");
        }
        let mut rng = StdRng::seed_from_u64(seed as u64);
        for _ in 0..PERMUTATIONS {
            let permuted = permute_from(sql, &lists, &mut rng);
            for (config, got) in engines.run_all(&permuted) {
                assert_eq!(
                    got, want,
                    "{label} on {config}: FROM order changed the result\n{permuted}"
                );
            }
        }
    }
    assert!(tested >= 16, "only {tested} multi-relation queries found");
}

/// A CASE predicate local to a later FROM item is filtered at that item's
/// scan, over the item's own columns, on both engines.
#[test]
fn case_predicate_on_a_later_from_item() {
    let setup = "CREATE TABLE a(x INTEGER, y INTEGER);
                 CREATE TABLE b(k INTEGER, v INTEGER);
                 INSERT INTO a VALUES (1, 10), (2, 20);
                 INSERT INTO b VALUES (1, 5), (2, 50);";
    let sql = "SELECT a.x, b.k FROM a, b WHERE (CASE WHEN b.v > 10 THEN 1 ELSE 0 END) = 1";
    let vec = Database::new();
    vec.execute_script(setup).unwrap();
    let row = RowDatabase::new();
    row.execute_script(setup).unwrap();
    let want = vec![vec!["1".to_string(), "2".to_string()], vec!["2".into(), "2".into()]];
    assert_eq!(row_set(&vec.execute(sql).unwrap().rows), want, "vec");
    assert_eq!(row_set(&row.execute(sql).unwrap().rows), want, "row");
}

/// The engines' access-path hooks survive on the shared plan, and both
/// EXPLAINs print its row estimates.
#[test]
fn shared_plan_keeps_engine_hooks_and_shows_estimates() {
    let engines = berlinmod_engines();
    let sql = |id: u32| benchmark_queries().into_iter().find(|q| q.0 == id).expect("query").2;
    // The join inside Q10's CTE: a GiST index nested-loop join on the
    // indexed row engine.
    let q10 = "EXPLAIN SELECT l1.license, t2.vehicleid
               FROM trips t1, licenses1 l1, trips t2, vehicles v
               WHERE t1.vehicleid = l1.vehicleid AND t2.vehicleid = v.vehicleid AND
                     t1.vehicleid <> t2.vehicleid AND
                     t2.trip && expandSpace(t1.trip::STBOX, 3.0)";
    let plan = engines.rowidx.execute(q10).unwrap().rows[0][0].to_string();
    assert!(plan.contains("Nested Loop (index probe: && via GiST)"), "{plan}");
    assert!(plan.contains("(est rows="), "{plan}");
    let plan = engines.row.execute(q10).unwrap().rows[0][0].to_string();
    assert!(!plan.contains("GiST"), "{plan}");
    // Q12 filters inside its nested-loop joins: no predicate-less cross
    // product of two trips tables.
    let plan = engines.vec.execute(&format!("EXPLAIN {}", sql(12))).unwrap().rows[0][0].to_string();
    assert!(plan.contains("est: "), "{plan}");
    assert_eq!(plan.matches("CROSS_PRODUCT").count(), 3, "{plan}");
    assert_eq!(plan.matches("HASH_JOIN").count(), 2, "{plan}");
}
