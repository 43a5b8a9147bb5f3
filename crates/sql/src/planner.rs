//! Logical join planning shared by both executors.
//!
//! A bound SELECT's FROM items and WHERE conjuncts become one left-deep
//! join order that both engines execute:
//!
//! 1. every conjunct is classified as *local* (one FROM item), *equi*
//!    (`a = b` between disjoint sets of items), *theta* (any other
//!    predicate over several items) or *complex* (subqueries, outer
//!    references, no columns at all);
//! 2. local conjuncts filter their item's scan;
//! 3. the join order is greedy: start from the item with the fewest
//!    estimated rows, then repeatedly add the item whose join yields the
//!    fewest estimated rows, preferring items a conjunct connects to the
//!    joined set. Ties go to the lower FROM index, so plans are
//!    deterministic;
//! 4. each multi-item conjunct is placed at the lowest join that covers
//!    it: equalities between the two inputs become hash keys, the rest
//!    are evaluated inside the join;
//! 5. the joined row is permuted back to the FROM column layout once, at
//!    the root, where the complex conjuncts are applied. Aggregation,
//!    projection and ORDER BY see the FROM layout as before.
//!
//! Estimates use only catalog row counts and a fixed selectivity per
//! predicate class, so planning never scans data.

use crate::ast::BinaryOp;
use crate::bound::{split_conjuncts, BoundExpr, BoundFrom, BoundSelect};
use crate::error::{SqlError, SqlResult};

/// Rows assumed for a FROM item the catalog cannot count (CTEs,
/// subqueries, table functions).
const DEFAULT_ROWS: f64 = 1000.0;
/// `a = b`, against a constant or across items.
const SEL_EQ: f64 = 0.01;
/// Bounding-box or span overlap (`&&`).
const SEL_OVERLAP: f64 = 0.01;
/// Containment (`@>`, `<@`).
const SEL_CONTAINS: f64 = 0.01;
/// Range comparisons (`<`, `<=`, `>`, `>=`).
const SEL_RANGE: f64 = 1.0 / 3.0;
/// Every other predicate (`<>`, function predicates, OR, ...).
const SEL_OTHER: f64 = 0.5;

/// Fixed selectivity of one conjunct, by predicate class.
pub fn selectivity(pred: &BoundExpr) -> f64 {
    match pred {
        BoundExpr::Compare { op: BinaryOp::Eq, .. } => SEL_EQ,
        BoundExpr::Compare {
            op: BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq,
            ..
        } => SEL_RANGE,
        BoundExpr::Call { name, .. } => match name.as_str() {
            "=" => SEL_EQ,
            "&&" => SEL_OVERLAP,
            "@>" | "<@" => SEL_CONTAINS,
            "<" | "<=" | ">" | ">=" => SEL_RANGE,
            _ => SEL_OTHER,
        },
        _ => SEL_OTHER,
    }
}

/// How a WHERE conjunct relates to the FROM items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Local,
    Equi,
    Theta,
    Complex,
}

struct Conjunct {
    expr: BoundExpr,
    class: Class,
    /// FROM items the conjunct references, ascending.
    rels: Vec<usize>,
}

/// One FROM item's scan with the conjuncts local to it.
#[derive(Debug, Clone)]
pub struct ScanNode {
    /// Index into `BoundSelect::from`.
    pub rel: usize,
    /// Local conjuncts over the item's own columns, in WHERE order.
    pub filters: Vec<BoundExpr>,
    /// Estimated rows of the item before its filters.
    pub base_rows: f64,
    /// Estimated rows after its filters.
    pub est_rows: f64,
}

/// Joining one more FROM item onto everything joined before it.
#[derive(Debug, Clone)]
pub struct JoinStep {
    pub right: ScanNode,
    /// Hash keys `(left, right)`: `left` over the left input's columns,
    /// `right` over the right item's own columns.
    pub keys: Vec<(BoundExpr, BoundExpr)>,
    /// The other conjuncts placed at this join, in WHERE order, over the
    /// joined layout (the left input's columns, then the right item's).
    pub preds: Vec<BoundExpr>,
    /// Estimated output rows.
    pub est_rows: f64,
}

/// A left-deep join plan over a SELECT's FROM items.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    pub first: ScanNode,
    pub steps: Vec<JoinStep>,
    /// FROM-layout column `i` is column `permutation[i]` of the joined
    /// row; `None` when the join order is the FROM order.
    pub permutation: Option<Vec<usize>>,
    /// Complex conjuncts, over the FROM layout, applied after the
    /// permutation.
    pub residual: Vec<BoundExpr>,
}

impl JoinPlan {
    /// Plan `select`'s joins. `table_rows` returns a base table's row
    /// count, or `None` when it is unknown.
    pub fn new(
        select: &BoundSelect,
        table_rows: &dyn Fn(&str) -> Option<usize>,
    ) -> SqlResult<JoinPlan> {
        let n = select.from.len();
        if n == 0 {
            return Err(SqlError::execution("cannot plan joins for a FROM-less select"));
        }
        let mut starts = Vec::with_capacity(n);
        let mut width = 0usize;
        for f in &select.from {
            starts.push(width);
            width += f.schema().len();
        }
        let rel_of = |col: usize| starts.partition_point(|&s| s <= col).saturating_sub(1);
        let rels_of = |e: &BoundExpr| {
            let mut cols = Vec::new();
            e.collect_columns(&mut cols);
            let mut rels: Vec<usize> = cols.into_iter().map(rel_of).collect();
            rels.sort_unstable();
            rels.dedup();
            rels
        };

        let mut exprs = Vec::new();
        if let Some(f) = &select.filter {
            split_conjuncts(f, &mut exprs);
        }
        let conjuncts: Vec<Conjunct> = exprs
            .into_iter()
            .map(|expr| {
                let rels = rels_of(&expr);
                let class = if expr.is_complex() || rels.is_empty() {
                    Class::Complex
                } else if rels.len() == 1 {
                    Class::Local
                } else if is_equi(&expr, &rels_of) {
                    Class::Equi
                } else {
                    Class::Theta
                };
                Conjunct { expr, class, rels }
            })
            .collect();

        let scans: Vec<ScanNode> = select
            .from
            .iter()
            .enumerate()
            .map(|(rel, f)| {
                let base_rows = match f {
                    BoundFrom::Table { name, .. } => {
                        table_rows(name).map_or(DEFAULT_ROWS, |r| r as f64)
                    }
                    _ => DEFAULT_ROWS,
                };
                let start = starts[rel];
                let filters: Vec<BoundExpr> = conjuncts
                    .iter()
                    .filter(|c| c.class == Class::Local && c.rels[0] == rel)
                    .map(|c| c.expr.map_columns(&|col| col - start))
                    .collect();
                let est_rows = filters.iter().map(selectivity).product::<f64>() * base_rows;
                ScanNode { rel, filters, base_rows, est_rows }
            })
            .collect();

        // Greedy order. `step_conj[k]` lists the multi-item conjuncts the
        // k-th join places, `step_est[k]` its estimated output rows.
        let mut joined = vec![false; n];
        let mut placed: Vec<bool> =
            conjuncts.iter().map(|c| matches!(c.class, Class::Local | Class::Complex)).collect();
        let first = (0..n)
            .fold(0, |best, r| if scans[r].est_rows < scans[best].est_rows { r } else { best });
        joined[first] = true;
        let mut order = vec![first];
        let mut step_conj: Vec<Vec<usize>> = Vec::new();
        let mut step_est: Vec<f64> = Vec::new();
        let mut est = scans[first].est_rows;
        while order.len() < n {
            // (connected, estimated rows, item, conjuncts placed)
            let mut best: Option<(bool, f64, usize, Vec<usize>)> = None;
            for r in (0..n).filter(|&r| !joined[r]) {
                let newly: Vec<usize> = (0..conjuncts.len())
                    .filter(|&ci| {
                        !placed[ci]
                            && conjuncts[ci].rels.contains(&r)
                            && conjuncts[ci].rels.iter().all(|&x| x == r || joined[x])
                    })
                    .collect();
                let connected = !newly.is_empty();
                let e = newly.iter().map(|&ci| selectivity(&conjuncts[ci].expr)).product::<f64>()
                    * est
                    * scans[r].est_rows;
                let better = match &best {
                    None => true,
                    Some((bc, be, _, _)) => (connected && !bc) || (connected == *bc && e < *be),
                };
                if better {
                    best = Some((connected, e, r, newly));
                }
            }
            let Some((_, e, r, newly)) = best else { break };
            for &ci in &newly {
                placed[ci] = true;
            }
            joined[r] = true;
            order.push(r);
            step_conj.push(newly);
            step_est.push(e);
            est = e;
        }

        // Joined-layout position of every FROM-layout column.
        let mut pos_of = vec![0usize; width];
        let mut pos = 0usize;
        for &r in &order {
            let w = select.from[r].schema().len();
            for i in 0..w {
                pos_of[starts[r] + i] = pos + i;
            }
            pos += w;
        }
        let to_joined = |col: usize| pos_of[col];

        let mut scans: Vec<Option<ScanNode>> = scans.into_iter().map(Some).collect();
        let mut take_scan = |r: usize| {
            scans[r].take().ok_or_else(|| SqlError::internal("join order repeats a FROM item"))
        };
        let first = take_scan(first)?;
        let mut steps = Vec::with_capacity(n - 1);
        for ((k, newly), est_rows) in step_conj.into_iter().enumerate().zip(step_est) {
            let r = order[k + 1];
            let left: &[usize] = &order[..=k];
            let start = starts[r];
            let mut keys = Vec::new();
            let mut preds = Vec::new();
            for ci in newly {
                let c = &conjuncts[ci];
                let key = match (&c.expr, c.class) {
                    (BoundExpr::Compare { left: a, right: b, .. }, Class::Equi) => {
                        let over_left = |e: &BoundExpr| rels_of(e).iter().all(|x| left.contains(x));
                        let over_right = |e: &BoundExpr| rels_of(e) == [r];
                        if over_left(a) && over_right(b) {
                            Some((a, b))
                        } else if over_left(b) && over_right(a) {
                            Some((b, a))
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                match key {
                    Some((l, rt)) => {
                        keys.push((l.map_columns(&to_joined), rt.map_columns(&|col| col - start)))
                    }
                    None => preds.push(c.expr.map_columns(&to_joined)),
                }
            }
            steps.push(JoinStep { right: take_scan(r)?, keys, preds, est_rows });
        }
        let identity = order.iter().enumerate().all(|(i, &r)| i == r);
        Ok(JoinPlan {
            first,
            steps,
            permutation: (!identity).then_some(pos_of),
            residual: conjuncts
                .into_iter()
                .filter(|c| c.class == Class::Complex)
                .map(|c| c.expr)
                .collect(),
        })
    }
}

/// A join step's predicates split by input side, so an engine can test a
/// candidate row pair on a narrow pair row before it builds the full
/// joined row. The pair row holds the values of `left` (over the left
/// input's columns) followed by those of `right` (over the right input's
/// own columns); `preds` read the pair row.
#[derive(Debug, Clone)]
pub struct SidedPreds {
    pub left: Vec<BoundExpr>,
    pub right: Vec<BoundExpr>,
    pub preds: Vec<BoundExpr>,
}

impl SidedPreds {
    /// Split `preds`, which are over a joined layout whose first
    /// `left_width` columns are the left input's. Without `hoist`, the
    /// sides are just the columns the predicates read, and the predicates
    /// are evaluated whole per pair. With `hoist`, every largest
    /// subexpression over one input only becomes a side expression, so it
    /// is computed once per input row instead of once per pair.
    pub fn new(preds: &[BoundExpr], left_width: usize, hoist: bool) -> SidedPreds {
        let mut sides = (Vec::new(), Vec::new());
        let split: Vec<BoundExpr> =
            preds.iter().map(|p| split_side(p, left_width, hoist, &mut sides)).collect();
        let (left, right) = sides;
        let n = left.len();
        let preds = split
            .iter()
            .map(|p| p.map_columns(&|c| if c >= RIGHT { n + c - RIGHT } else { c }))
            .collect();
        SidedPreds { left, right, preds }
    }
}

/// Pair-row slots of right-side expressions are numbered from here until
/// the number of left-side expressions is known.
const RIGHT: usize = usize::MAX / 2;

/// `e` with its one-side subexpressions replaced by references to their
/// pair-row slots (right slots offset by [`RIGHT`]), registering each in
/// `sides` once.
fn split_side(
    e: &BoundExpr,
    left_width: usize,
    hoist: bool,
    sides: &mut (Vec<BoundExpr>, Vec<BoundExpr>),
) -> BoundExpr {
    let mut cols = Vec::new();
    e.collect_columns(&mut cols);
    let one_side =
        (hoist && !cols.is_empty() && !e.is_complex()) || matches!(e, BoundExpr::ColumnRef { .. });
    let on_left = cols.iter().all(|&c| c < left_width);
    if !one_side || !(on_left || cols.iter().all(|&c| c >= left_width)) {
        return e.map_children(&mut |c| split_side(c, left_width, hoist, sides));
    }
    let (list, expr, base) = if on_left {
        (&mut sides.0, e.clone(), 0)
    } else {
        (&mut sides.1, e.map_columns(&|c| c - left_width), RIGHT)
    };
    let key = format!("{expr:?}");
    let slot = match list.iter().position(|x| format!("{x:?}") == key) {
        Some(slot) => slot,
        None => {
            list.push(expr);
            list.len() - 1
        }
    };
    BoundExpr::ColumnRef { index: base + slot, ty: e.ty() }
}

/// `a = b` where both sides have columns and no FROM item in common.
fn is_equi(e: &BoundExpr, rels_of: &dyn Fn(&BoundExpr) -> Vec<usize>) -> bool {
    let BoundExpr::Compare { op: BinaryOp::Eq, left, right } = e else {
        return false;
    };
    let (l, r) = (rels_of(left), rels_of(right));
    !l.is_empty() && !r.is_empty() && l.iter().all(|x| !r.contains(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::Catalog;
    use crate::value::LogicalType;
    use crate::{parse_statement, Binder, Registry, Statement};

    /// Tables `a`, `b`, `c`, `d`, each `(id INTEGER, x INTEGER)`, holding
    /// 10, 1000, 10 and 100 rows.
    struct Tables;

    impl Catalog for Tables {
        fn table_schema(&self, name: &str) -> Option<Vec<(String, LogicalType)>> {
            ["a", "b", "c", "d"]
                .contains(&name)
                .then(|| vec![("id".into(), LogicalType::Int), ("x".into(), LogicalType::Int)])
        }
    }

    fn rows(name: &str) -> Option<usize> {
        match name {
            "a" | "c" => Some(10),
            "b" => Some(1000),
            "d" => Some(100),
            _ => None,
        }
    }

    fn plan(sql: &str) -> JoinPlan {
        let Statement::Select(sel) = parse_statement(sql).unwrap() else { panic!("not a select") };
        let registry = Registry::with_builtins();
        let bound = Binder::new(&Tables, &registry).bind_select(&sel).unwrap();
        JoinPlan::new(&bound, &rows).unwrap()
    }

    fn order(p: &JoinPlan) -> Vec<usize> {
        std::iter::once(p.first.rel).chain(p.steps.iter().map(|s| s.right.rel)).collect()
    }

    #[test]
    fn smallest_first_then_connected_ties_by_from_index() {
        // a and c tie at 10 rows: a wins on FROM index; b is the only item
        // connected to a, then c connects through b.
        let p = plan("SELECT * FROM b, a, c WHERE b.id = a.id AND b.x = c.x");
        assert_eq!(order(&p), vec![1, 0, 2]);
        // Joined layout is a, b, c: FROM column i of b, a, c sits at
        // permutation[i].
        assert_eq!(p.permutation, Some(vec![2, 3, 0, 1, 4, 5]));
        assert_eq!(p.steps[0].keys.len(), 1);
        assert_eq!(p.steps[1].keys.len(), 1);
    }

    #[test]
    fn connected_items_beat_smaller_unconnected_ones() {
        // c (10 rows) is smaller than d (100) but shares no predicate with
        // a; d does.
        let p = plan("SELECT * FROM a, c, d WHERE a.x < d.x");
        assert_eq!(order(&p), vec![0, 2, 1]);
        assert_eq!(p.steps[0].preds.len(), 1, "the theta conjunct joins d");
        assert!(p.steps[1].preds.is_empty() && p.steps[1].keys.is_empty(), "c is a cross product");
    }

    #[test]
    fn conjuncts_are_placed_where_they_are_covered() {
        let p = plan(
            "SELECT * FROM a, b WHERE b.x > 5 AND a.id = b.id AND a.x + b.x < 9 \
             AND a.id IN (SELECT id FROM c)",
        );
        assert_eq!(order(&p), vec![0, 1]);
        assert_eq!(p.permutation, None, "FROM order needs no permutation");
        // Local to b, over b's own columns.
        assert_eq!(format!("{:?}", p.steps[0].right.filters), "[(col#1 > lit(Int(5)))]");
        assert_eq!(format!("{:?}", p.steps[0].keys), "[(col#0, col#0)]");
        assert_eq!(format!("{:?}", p.steps[0].preds), "[((col#1 + col#3) < lit(Int(9)))]");
        assert_eq!(p.residual.len(), 1, "the subquery conjunct runs at the root");
        assert_eq!(p.first.est_rows, 10.0);
        assert!((p.steps[0].right.est_rows - 1000.0 * SEL_RANGE).abs() < 1e-9);
    }

    #[test]
    fn join_predicates_split_by_side() {
        let p = plan("SELECT * FROM a, b WHERE a.x < b.x AND a.id + 1 = b.id * 2 + a.id");
        // `a.id + 1 = b.id * 2 + a.id` mixes sides at its top: a theta
        // conjunct, not a hash key.
        let preds = &p.steps[0].preds;
        assert_eq!(preds.len(), 2);
        let narrow = SidedPreds::new(preds, 2, false);
        assert_eq!(format!("{:?}", narrow.left), "[col#1, col#0]");
        assert_eq!(format!("{:?}", narrow.right), "[col#1, col#0]");
        assert_eq!(
            format!("{:?}", narrow.preds),
            "[(col#0 < col#2), ((col#1 + lit(Int(1))) = ((col#3 * lit(Int(2))) + col#1))]"
        );
        let hoisted = SidedPreds::new(preds, 2, true);
        assert_eq!(format!("{:?}", hoisted.left), "[col#1, (col#0 + lit(Int(1))), col#0]");
        assert_eq!(format!("{:?}", hoisted.right), "[col#1, (col#0 * lit(Int(2)))]");
        assert_eq!(format!("{:?}", hoisted.preds), "[(col#0 < col#3), (col#1 = (col#4 + col#2))]");
    }
}
