//! The exhaustive all-pairs definitions of `distance` and `intersects`,
//! kept as the reference the pruned nearest-feature search must match bit
//! for bit, and the seeded differential test that checks it.

use mduck_prng::{RngExt, SeedableRng, StdRng};

use super::*;

/// Minimum distance over every feature pair, without pruning.
pub(crate) fn ref_distance(a: &Geometry, b: &Geometry) -> f64 {
    let mut best = f64::INFINITY;

    // Point-vs-b for all points of a, and segment-vs-segment for all pairs.
    let mut a_pts: Vec<Point> = Vec::new();
    a.for_each_point(&mut |p| a_pts.push(p));
    let mut b_pts: Vec<Point> = Vec::new();
    b.for_each_point(&mut |p| b_pts.push(p));
    let mut a_segs: Vec<(Point, Point)> = Vec::new();
    a.for_each_segment(&mut |p, q| a_segs.push((p, q)));
    let mut b_segs: Vec<(Point, Point)> = Vec::new();
    b.for_each_segment(&mut |p, q| b_segs.push((p, q)));

    // Containment: a point of one inside a polygon of the other → 0.
    for g in a.flatten() {
        if matches!(g.data, GeomData::Polygon(_)) && b_pts.iter().any(|p| ref_covers(g, *p)) {
            return 0.0;
        }
    }
    for g in b.flatten() {
        if matches!(g.data, GeomData::Polygon(_)) && a_pts.iter().any(|p| ref_covers(g, *p)) {
            return 0.0;
        }
    }

    if a_segs.is_empty() && b_segs.is_empty() {
        for p in &a_pts {
            for q in &b_pts {
                best = best.min(p.distance(q));
            }
        }
        return if best.is_finite() { best } else { f64::NAN };
    }
    if a_segs.is_empty() {
        for p in &a_pts {
            for (q1, q2) in &b_segs {
                best = best.min(point_segment_distance(*p, *q1, *q2));
            }
            // b may also contain bare points.
            for q in &b_pts {
                best = best.min(p.distance(q));
            }
        }
        return best;
    }
    if b_segs.is_empty() {
        return ref_distance(b, a);
    }
    for (p1, p2) in &a_segs {
        for (q1, q2) in &b_segs {
            best = best.min(segment_segment_distance(*p1, *p2, *q1, *q2));
            if best == 0.0 {
                return 0.0;
            }
        }
    }
    // Isolated points on either side (multipoints inside collections).
    for p in &a_pts {
        for (q1, q2) in &b_segs {
            best = best.min(point_segment_distance(*p, *q1, *q2));
        }
    }
    for q in &b_pts {
        for (p1, p2) in &a_segs {
            best = best.min(point_segment_distance(*q, *p1, *p2));
        }
    }
    best
}

/// Box test, then an exhaustive distance of exactly 0.
pub(crate) fn ref_intersects(a: &Geometry, b: &Geometry) -> bool {
    match (a.bounding_rect(), b.bounding_rect()) {
        (Some(ra), Some(rb)) => {
            if !ra.intersects(&rb) {
                return false;
            }
        }
        _ => return false, // an empty geometry intersects nothing
    }
    ref_distance(a, b) == 0.0
}

/// Even-odd point-in-polygon visiting every edge of every ring.
fn ref_point_in_rings(p: Point, rings: &[Vec<Point>]) -> bool {
    let mut inside = false;
    for ring in rings {
        for w in ring.windows(2) {
            let (a, b) = (w[0], w[1]);
            if point_segment_distance(p, a, b) == 0.0 {
                return true;
            }
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
        }
    }
    inside
}

fn ref_covers(g: &Geometry, p: Point) -> bool {
    match &g.data {
        GeomData::Polygon(rings) => ref_point_in_rings(p, rings),
        _ => geometry_covers_point(g, p),
    }
}

// ------------------------------------------------------ differential test

/// Coordinates near the BerlinMOD SRID's magnitude, on an integer grid
/// (exact touches and collinear runs) or real-valued.
struct Gen {
    rng: StdRng,
    origin: Point,
    grid: bool,
    extent: f64,
}

impl Gen {
    fn point(&mut self) -> Point {
        let e = self.extent;
        let (dx, dy) = if self.grid {
            let n = e as i64;
            (self.rng.random_range(-n..=n) as f64, self.rng.random_range(-n..=n) as f64)
        } else {
            (self.rng.random_range(-e..e), self.rng.random_range(-e..e))
        };
        Point::new(self.origin.x + dx, self.origin.y + dy)
    }

    /// A walk of `n` vertices: repeated vertices (zero-length segments),
    /// straight collinear runs and turns.
    fn path(&mut self, n: usize) -> Vec<Point> {
        let mut last = self.point();
        let mut ps = vec![last];
        while ps.len() < n {
            let next = match self.rng.random_range(0u32..6) {
                0 => last,
                1 if ps.len() >= 2 => last + (last - ps[ps.len() - 2]),
                _ => {
                    let step = if self.grid { 1.0 } else { self.extent / 8.0 };
                    let k = if self.grid { 3 } else { 1 };
                    let (dx, dy) = if self.grid {
                        (self.rng.random_range(-k..=k) as f64, self.rng.random_range(-k..=k) as f64)
                    } else {
                        (self.rng.random_range(-step..step), self.rng.random_range(-step..step))
                    };
                    Point::new(last.x + dx * step, last.y + dy * step)
                }
            };
            ps.push(next);
            last = next;
        }
        ps
    }

    /// An axis-aligned ring around `c` with half-sizes `w`, `h`.
    fn rect_ring(c: Point, w: f64, h: f64) -> Vec<Point> {
        vec![
            Point::new(c.x - w, c.y - h),
            Point::new(c.x + w, c.y - h),
            Point::new(c.x + w, c.y + h),
            Point::new(c.x - w, c.y + h),
            Point::new(c.x - w, c.y - h),
        ]
    }

    /// Closed polygon rings: a rectangle with up to two holes, or a
    /// (possibly degenerate) triangle.
    fn rings(&mut self) -> Vec<Vec<Point>> {
        let c = self.point();
        let half = if self.grid { 4.0 } else { self.extent / 3.0 };
        if self.rng.random_bool(0.3) {
            return vec![vec![c, self.point(), self.point(), c]];
        }
        let mut rings = vec![Self::rect_ring(c, half, half * 0.75)];
        for k in 0..self.rng.random_range(0usize..3) {
            let hole = Point::new(c.x + (k as f64 - 0.5) * half * 0.5, c.y);
            rings.push(Self::rect_ring(hole, half * 0.2, half * 0.2));
        }
        rings
    }

    fn geometry(&mut self, depth: u32) -> Geometry {
        let data = match self.rng.random_range(0u32..10) {
            0 => GeomData::Point(self.point()),
            1 => GeomData::MultiPoint((0..self.rng.random_range(0usize..5)).map(|_| self.point()).collect()),
            2 | 3 => {
                let n = self.rng.random_range(2usize..40);
                GeomData::LineString(self.path(n))
            }
            // Decoders admit linestrings WKT cannot spell: empty and one-point.
            4 => {
                let mut ps = self.path(1);
                if self.rng.random_bool(0.5) {
                    ps.clear();
                }
                GeomData::LineString(ps)
            }
            5 => GeomData::MultiLineString(
                (0..self.rng.random_range(0usize..4))
                    .map(|_| {
                        let n = self.rng.random_range(1usize..30);
                        self.path(n)
                    })
                    .collect(),
            ),
            6 | 7 => GeomData::Polygon(self.rings()),
            _ if depth < 2 => GeomData::GeometryCollection(
                (0..self.rng.random_range(0usize..4)).map(|_| self.geometry(depth + 1)).collect(),
            ),
            _ => GeomData::Point(self.point()),
        };
        Geometry { srid: 0, data }
    }
}

/// Equal bits, or both NaN.
fn same(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

fn check_pair(a: &Geometry, b: &Geometry, extra_d: f64) {
    let want = ref_distance(a, b);
    let got = distance(a, b);
    assert!(same(got, want), "distance {got:?} != {want:?}\na = {a:?}\nb = {b:?}");
    assert_eq!(intersects(a, b), ref_intersects(a, b), "intersects\na = {a:?}\nb = {b:?}");
    let ds = [
        want,
        want.next_down(),
        want.next_up(),
        want * 0.5,
        want * 2.0,
        0.0,
        -0.0,
        -1.0,
        f64::NAN,
        f64::INFINITY,
        extra_d,
    ];
    for d in ds {
        assert_eq!(dwithin(a, b, d), want <= d, "dwithin(d = {d:?}), distance {want:?}\na = {a:?}\nb = {b:?}");
    }
}

#[test]
fn pruned_search_matches_exhaustive_reference() {
    let mut rng = StdRng::seed_from_u64(0x6e0_d1ff);
    for case in 0..3000u64 {
        let grid = case % 3 == 0;
        let origin = Point::new(
            1e6 * rng.random_range(0.5..1.5f64),
            1e6 * rng.random_range(0.5..1.5f64),
        );
        let extent = if grid { 12.0 } else { [50.0, 2_000.0, 1e5][(case % 3) as usize] };
        let mut gen = Gen { rng: StdRng::seed_from_u64(case ^ 0x5eed), origin, grid, extent };
        let a = gen.geometry(0);
        let b = gen.geometry(0);
        let extra_d = rng.random_range(0.0..extent);
        check_pair(&a, &b, extra_d);
        check_pair(&b, &a, extra_d);
        check_pair(&a, &a, extra_d);
    }
}

#[test]
fn pruned_search_matches_reference_on_extreme_coordinates() {
    // Huge and tiny magnitudes (squares near overflow, gaps that underflow).
    // NaN and infinite coordinates are out: the kernels assert against the
    // NaN they produce in debug builds.
    let specials = [1e150, -1e150, 3e-160, -3e-160, 1e-300, 0.0];
    let mut rng = StdRng::seed_from_u64(0xbad_c00d);
    for case in 0..600u64 {
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(case),
            origin: Point::new(1e6, 1e6),
            grid: case % 2 == 0,
            extent: 10.0,
        };
        let a = gen.geometry(0);
        let b = gen.geometry(0);
        // Overwrite one coordinate of a point or linestring.
        let v = specials[rng.random_range(0..specials.len())];
        let on_x = rng.random_bool(0.5);
        let poison = |p: &mut Point| if on_x { p.x = v } else { p.y = v };
        let mut a2 = a.clone();
        match &mut a2.data {
            GeomData::Point(p) => poison(p),
            GeomData::LineString(ps) if !ps.is_empty() => {
                let i = rng.random_range(0..ps.len());
                poison(&mut ps[i]);
            }
            _ => {}
        }
        check_pair(&a2, &b, 5.0);
        check_pair(&b, &a2, 5.0);
    }
}

#[test]
fn empty_operands_follow_reference_conventions() {
    let empty = Geometry::collection(vec![]);
    let pt = Geometry::point(1.0, 2.0);
    let line = Geometry { srid: 0, data: GeomData::LineString(vec![Point::ORIGIN, Point::new(3.0, 4.0)]) };
    let one = Geometry { srid: 0, data: GeomData::LineString(vec![Point::new(3.0, 4.0)]) };
    for (a, b) in [(&empty, &empty), (&empty, &pt), (&empty, &line), (&one, &line), (&one, &pt)] {
        check_pair(a, b, 1.0);
        check_pair(b, a, 1.0);
    }
    assert!(distance(&empty, &pt).is_nan());
    assert_eq!(distance(&empty, &line), f64::INFINITY);
    assert!(!intersects(&empty, &line));
    assert!(!dwithin(&pt, &pt, f64::NAN));
    assert!(!dwithin(&pt, &pt, -1.0));
    assert!(dwithin(&pt, &pt, -0.0));
}

#[test]
fn point_in_rings_matches_reference() {
    let mut rng = StdRng::seed_from_u64(0x7019);
    for case in 0..500u64 {
        let mut gen = Gen {
            rng: StdRng::seed_from_u64(case),
            origin: Point::new(1e6, 1e6),
            grid: case % 2 == 0,
            extent: 12.0,
        };
        let rings = gen.rings();
        for _ in 0..20 {
            let p = if rng.random_bool(0.5) {
                gen.point()
            } else {
                // Exactly on a ring vertex or edge midpoint.
                let r = &rings[rng.random_range(0..rings.len())];
                let i = rng.random_range(0..r.len() - 1);
                r[i].lerp(&r[i + 1], if rng.random_bool(0.5) { 0.0 } else { 0.5 })
            };
            assert_eq!(point_in_rings(p, &rings), ref_point_in_rings(p, &rings), "{p:?} in {rings:?}");
        }
    }
}
