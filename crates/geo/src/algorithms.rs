//! Metric and topological algorithms: distance, intersection tests,
//! point-in-polygon, and segment/polygon clipping (the kernel behind
//! `atGeometry`, `ST_Intersects`, `ST_Distance`, `eDwithin`).

use std::ops::ControlFlow;

use crate::geometry::{GeomData, Geometry};
use crate::point::{Point, Rect};

/// Distance from point `p` to segment `a`–`b`.
pub fn point_segment_distance(p: Point, a: Point, b: Point) -> f64 {
    let ab = b - a;
    let len_sq = ab.dot(ab);
    if len_sq == 0.0 {
        return p.distance(&a);
    }
    let t = ((p - a).dot(ab) / len_sq).clamp(0.0, 1.0);
    p.distance(&a.lerp(&b, t))
}

/// Squared orientation-robust segment intersection test (closed segments).
pub fn segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    fn orient(a: Point, b: Point, c: Point) -> f64 {
        (b - a).cross(c - a)
    }
    fn on_segment(a: Point, b: Point, c: Point) -> bool {
        c.x >= a.x.min(b.x) && c.x <= a.x.max(b.x) && c.y >= a.y.min(b.y) && c.y <= a.y.max(b.y)
    }
    let d1 = orient(q1, q2, p1);
    let d2 = orient(q1, q2, p2);
    let d3 = orient(p1, p2, q1);
    let d4 = orient(p1, p2, q2);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    (d1 == 0.0 && on_segment(q1, q2, p1))
        || (d2 == 0.0 && on_segment(q1, q2, p2))
        || (d3 == 0.0 && on_segment(p1, p2, q1))
        || (d4 == 0.0 && on_segment(p1, p2, q2))
}

/// Minimum distance between two closed segments.
pub fn segment_segment_distance(p1: Point, p2: Point, q1: Point, q2: Point) -> f64 {
    if segments_intersect(p1, p2, q1, q2) {
        return 0.0;
    }
    point_segment_distance(p1, q1, q2)
        .min(point_segment_distance(p2, q1, q2))
        .min(point_segment_distance(q1, p1, p2))
        .min(point_segment_distance(q2, p1, p2))
}

/// Even-odd point-in-polygon over all rings (holes handled by parity).
/// Points exactly on an edge count as inside.
///
/// A point outside a ring's bounding box, widened by the rounding slack,
/// can neither lie on that ring nor change the parity: the ray crosses a
/// closed ring an even number of times or not at all. Such rings are
/// skipped without running their edge loop, and the boundary test only
/// runs for edges whose own box is near the point.
pub fn point_in_rings(p: Point, rings: &[Vec<Point>]) -> bool {
    let mut inside = false;
    for ring in rings {
        let r = covering_rect(ring.iter().copied());
        let m = slack(magnitude(&r).max(p.x.abs()).max(p.y.abs()));
        if !r.expand_by(m).contains_point(&p) {
            continue;
        }
        for w in ring.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Boundary counts as inside.
            if seg_rect(a, b).expand_by(m).contains_point(&p)
                && point_segment_distance(p, a, b) == 0.0
            {
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

/// True when point `p` lies inside/on geometry `g` (polygon interior counts;
/// lines and points require exact incidence).
pub fn geometry_covers_point(g: &Geometry, p: Point) -> bool {
    match &g.data {
        GeomData::Point(q) => *q == p,
        GeomData::MultiPoint(qs) => qs.contains(&p),
        GeomData::LineString(ps) => {
            ps.windows(2).any(|w| point_segment_distance(p, w[0], w[1]) == 0.0)
        }
        GeomData::MultiLineString(lines) => lines
            .iter()
            .any(|ps| ps.windows(2).any(|w| point_segment_distance(p, w[0], w[1]) == 0.0)),
        GeomData::Polygon(rings) => point_in_rings(p, rings),
        GeomData::GeometryCollection(gs) => gs.iter().any(|g| geometry_covers_point(g, p)),
    }
}

// ------------------------------------------------ nearest-feature search

/// Early exit for the visitors of the nearest-feature search.
pub type Flow = ControlFlow<()>;

/// One operand of [`distance`], [`intersects`] and [`dwithin`], seen as the
/// features the search visits in place: paths (runs of vertices whose
/// consecutive pairs are the segments), bare points, and polygons.
///
/// [`Geometry`] implements it over its payload; a moving point implements
/// it over its instants, so its trajectory never has to be built.
pub trait Features {
    /// The vertices of one path, in order.
    type Path<'s>: Iterator<Item = Point> + Clone
    where
        Self: 's;
    /// Visit every path (linestrings, polygon rings). A one-vertex path
    /// counts as a bare point.
    fn each_path<'s>(&'s self, f: &mut impl FnMut(Self::Path<'s>) -> Flow) -> Flow;
    /// Visit every bare point (points, multipoint members).
    fn each_point(&self, f: &mut impl FnMut(Point) -> Flow) -> Flow;
    /// Visit the rings of every polygon; a point inside one is at distance 0.
    fn each_polygon(&self, f: &mut impl FnMut(&[Vec<Point>]) -> Flow) -> Flow;
}

impl Features for Geometry {
    type Path<'s> = std::iter::Copied<std::slice::Iter<'s, Point>>;

    fn each_path<'s>(&'s self, f: &mut impl FnMut(Self::Path<'s>) -> Flow) -> Flow {
        match &self.data {
            GeomData::Point(_) | GeomData::MultiPoint(_) => Flow::Continue(()),
            GeomData::LineString(ps) => f(ps.iter().copied()),
            GeomData::Polygon(rings) | GeomData::MultiLineString(rings) => {
                rings.iter().try_for_each(|r| f(r.iter().copied()))
            }
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.each_path(f)),
        }
    }

    fn each_point(&self, f: &mut impl FnMut(Point) -> Flow) -> Flow {
        match &self.data {
            GeomData::Point(p) => f(*p),
            GeomData::MultiPoint(ps) => ps.iter().try_for_each(|p| f(*p)),
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.each_point(f)),
            _ => Flow::Continue(()),
        }
    }

    fn each_polygon(&self, f: &mut impl FnMut(&[Vec<Point>]) -> Flow) -> Flow {
        match &self.data {
            GeomData::Polygon(rings) => f(rings),
            GeomData::GeometryCollection(gs) => gs.iter().try_for_each(|g| g.each_polygon(f)),
            _ => Flow::Continue(()),
        }
    }
}

impl<T: Features + ?Sized> Features for &T {
    type Path<'s>
        = T::Path<'s>
    where
        Self: 's;

    fn each_path<'s>(&'s self, f: &mut impl FnMut(Self::Path<'s>) -> Flow) -> Flow {
        (**self).each_path(f)
    }

    fn each_point(&self, f: &mut impl FnMut(Point) -> Flow) -> Flow {
        (**self).each_point(f)
    }

    fn each_polygon(&self, f: &mut impl FnMut(&[Vec<Point>]) -> Flow) -> Flow {
        (**self).each_polygon(f)
    }
}

/// Minimum Euclidean distance between two geometries (`ST_Distance`).
///
/// Empty operands follow the conventions of the all-pairs definition:
/// NaN when neither side has a segment or a pair of points, +inf when only
/// the segment-free side is empty.
pub fn distance(a: &impl Features, b: &impl Features) -> f64 {
    nearest(a, b, &extent(a), &extent(b), f64::INFINITY, 0.0)
}

/// Topological intersection test (`ST_Intersects`): the bounding boxes
/// meet and the distance is 0. The search stops at the first touching
/// pair and skips every pair whose boxes are apart.
pub fn intersects(a: &impl Features, b: &impl Features) -> bool {
    let (ra, rb) = (extent(a), extent(b));
    ra.intersects(&rb) && nearest(a, b, &ra, &rb, 0.0, 0.0) == 0.0
}

/// `distance(a, b) <= d` (`ST_DWithin`, `eDwithin` against a geometry),
/// stopping at the first pair within `d` and skipping pairs whose boxes
/// are farther apart than `d`. NaN and negative `d` are never satisfied.
pub fn dwithin(a: &impl Features, b: &impl Features, d: f64) -> bool {
    d >= 0.0 && nearest(a, b, &extent(a), &extent(b), d, d) <= d
}

/// Relative rounding slack of the pruning tests. The kernels round to
/// within a few dozen ulps of the coordinate magnitude, so a box that is
/// farther than `slack` beyond a distance bound cannot hold a feature whose
/// *computed* distance meets the bound.
const SLACK_REL: f64 = 1e-9;
/// Absolute floor of the slack: squares of gaps below ~1e-162 underflow to
/// a computed distance of exactly 0.
const SLACK_ABS: f64 = 1e-150;

/// The pruning slack for coordinates of magnitude `m` (inf when the input
/// holds an infinite coordinate, which disables pruning).
fn slack(m: f64) -> f64 {
    m * SLACK_REL + SLACK_ABS
}

/// Largest absolute coordinate of a box.
fn magnitude(r: &Rect) -> f64 {
    r.xmin.abs().max(r.xmax.abs()).max(r.ymin.abs()).max(r.ymax.abs())
}

/// The box with no points; it is apart from everything.
const EMPTY: Rect = Rect {
    xmin: f64::INFINITY,
    ymin: f64::INFINITY,
    xmax: f64::NEG_INFINITY,
    ymax: f64::NEG_INFINITY,
};

/// The box of a ring, or the whole plane when a coordinate is NaN (a NaN
/// vertex breaks the parity argument that makes the box test exact).
fn covering_rect(ps: impl Iterator<Item = Point>) -> Rect {
    let mut r = EMPTY;
    for p in ps {
        if p.x.is_nan() || p.y.is_nan() {
            return Rect::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY);
        }
        r.expand_to(p);
    }
    r
}

/// Squared gap between two boxes: a lower bound on the squared distance
/// of anything inside them.
#[inline]
fn gap_sq(a: &Rect, b: &Rect) -> f64 {
    let dx = (b.xmin - a.xmax).max(a.xmin - b.xmax).max(0.0);
    let dy = (b.ymin - a.ymax).max(a.ymin - b.ymax).max(0.0);
    dx * dx + dy * dy
}

#[inline]
fn seg_rect(p: Point, q: Point) -> Rect {
    Rect::new(p.x, p.y, q.x, q.y)
}

/// The box of every non-NaN coordinate of `g` ([`EMPTY`] when there is
/// none). NaN coordinates only produce NaN distances, which `min` ignores.
fn extent(g: &impl Features) -> Rect {
    let mut r = EMPTY;
    let _ = each_vertex(g, &mut |p| {
        r.expand_to(p);
        Flow::Continue(())
    });
    r
}

/// Every coordinate of `g`: path vertices and bare points.
fn each_vertex(g: &impl Features, f: &mut impl FnMut(Point) -> Flow) -> Flow {
    g.each_path(&mut |path| path.into_iter().try_for_each(&mut *f))?;
    g.each_point(f)
}

/// Bare points plus the vertices of one-vertex paths.
fn each_bare_point(g: &impl Features, f: &mut impl FnMut(Point) -> Flow) -> Flow {
    g.each_path(&mut |mut path| match (path.next(), path.next()) {
        (Some(p), None) => f(p),
        _ => Flow::Continue(()),
    })?;
    g.each_point(f)
}

fn has_segments(g: &impl Features) -> bool {
    g.each_path(&mut |mut path| {
        if path.nth(1).is_some() {
            Flow::Break(())
        } else {
            Flow::Continue(())
        }
    })
    .is_break()
}

/// Segments per block: a path is visited in runs of this many segments,
/// each with its bounding box.
const BLOCK: usize = 8;

/// Up to [`BLOCK`] consecutive segments of a path and their box.
struct Block {
    pts: [Point; BLOCK + 1],
    n: usize,
    rect: Rect,
}

impl Block {
    fn start(p: Point) -> Block {
        let mut rect = EMPTY;
        rect.expand_to(p);
        Block { pts: [p; BLOCK + 1], n: 1, rect }
    }

    fn push(&mut self, p: Point) {
        self.pts[self.n] = p;
        self.n += 1;
        self.rect.expand_to(p);
    }

    fn vertices(&self) -> &[Point] {
        &self.pts[..self.n]
    }
}

/// Split a path into blocks; consecutive blocks share their end vertex. A
/// one-vertex path has no block.
fn each_block(mut path: impl Iterator<Item = Point>, mut f: impl FnMut(&Block) -> Flow) -> Flow {
    let Some(first) = path.next() else {
        return Flow::Continue(());
    };
    let mut block = Block::start(first);
    for p in path {
        block.push(p);
        if block.n == BLOCK + 1 {
            f(&block)?;
            block = Block::start(p);
        }
    }
    if block.n > 1 {
        f(&block)?;
    }
    Flow::Continue(())
}

/// The running state of one nearest-feature search.
struct Nearest {
    /// Smallest distance seen so far.
    best: f64,
    /// Distances above this do not change the answer.
    need: f64,
    /// A best distance at or below this decides the answer.
    stop: f64,
    slack: f64,
    /// `(min(best, need) + slack)²`: a pair whose boxes are farther apart
    /// than this cannot lower `best` or meet `need`.
    cut_sq: f64,
}

impl Nearest {
    fn new(need: f64, stop: f64, slack: f64) -> Nearest {
        let cut = need + slack;
        Nearest { best: f64::INFINITY, need, stop, slack, cut_sq: cut * cut }
    }

    #[inline]
    fn far(&self, a: &Rect, b: &Rect) -> bool {
        gap_sq(a, b) > self.cut_sq
    }

    /// Record a candidate distance; breaks once the answer is decided.
    #[inline]
    fn offer(&mut self, d: f64) -> Flow {
        if d < self.best {
            self.best = d;
            let cut = d.min(self.need) + self.slack;
            self.cut_sq = cut * cut;
            if d <= self.stop {
                return Flow::Break(());
            }
        }
        Flow::Continue(())
    }
}

/// The nearest-feature search behind [`distance`], [`intersects`] and
/// [`dwithin`]; `ra` and `rb` are the operands' [`extent`]s. It visits the
/// same feature pairs as the all-pairs definition — containment, then
/// segment/segment, point/segment and point/point pairs — except the pairs
/// whose boxes are farther apart than `min(best, need)` plus the rounding
/// slack, and it returns as soon as the best distance is at or below
/// `stop`. Skipped pairs cannot hold the minimum, so the result is
/// bit-identical to the exhaustive loops whenever it is at or below
/// `need`.
fn nearest(a: &impl Features, b: &impl Features, ra: &Rect, rb: &Rect, need: f64, stop: f64) -> f64 {
    let slack = slack(magnitude(ra).max(magnitude(rb)));
    // Containment: a point of one inside a polygon of the other → 0.
    if covers_any(a, b, rb, slack) || covers_any(b, a, ra, slack) {
        return 0.0;
    }
    let mut s = Nearest::new(need, stop, slack);
    let _ = match (has_segments(a), has_segments(b)) {
        (false, false) => {
            let _ = each_vertex(a, &mut |p| each_vertex(b, &mut |q| s.offer(p.distance(&q))));
            return if s.best.is_finite() { s.best } else { f64::NAN };
        }
        (false, true) => points_to_all(a, b, &mut s),
        (true, false) => points_to_all(b, a, &mut s),
        (true, true) => segment_pairs(a, b, rb, &mut s),
    };
    s.best
}

/// Does a polygon of `g` cover a coordinate of `other` (whose box is
/// `other_rect`)? `slack` covers both operands' magnitudes.
fn covers_any(g: &impl Features, other: &impl Features, other_rect: &Rect, slack: f64) -> bool {
    g.each_polygon(&mut |rings| {
        let zone = covering_rect(rings.iter().flatten().copied()).expand_by(slack);
        if !zone.intersects(other_rect) {
            return Flow::Continue(());
        }
        each_vertex(other, &mut |p| {
            if zone.contains_point(&p) && point_in_rings(p, rings) {
                Flow::Break(())
            } else {
                Flow::Continue(())
            }
        })
    })
    .is_break()
}

/// Segments of `a` × segments of `b`, then the bare points of each side ×
/// the segments of the other.
fn segment_pairs(a: &impl Features, b: &impl Features, rb: &Rect, s: &mut Nearest) -> Flow {
    segments_to_segments(a, b, rb, s)?;
    points_to_segments(a, b, s)?;
    points_to_segments(b, a, s)
}

/// Segment pairs of `a` × `b`, block pair by block pair.
fn segments_to_segments(a: &impl Features, b: &impl Features, rb: &Rect, s: &mut Nearest) -> Flow {
    a.each_path(&mut |pa| {
        each_block(pa, |ba| {
            if s.far(&ba.rect, rb) {
                return Flow::Continue(());
            }
            b.each_path(&mut |pb| {
                each_block(pb, |bb| {
                    if s.far(&ba.rect, &bb.rect) {
                        return Flow::Continue(());
                    }
                    for u in ba.vertices().windows(2) {
                        let ru = seg_rect(u[0], u[1]);
                        if s.far(&ru, &bb.rect) {
                            continue;
                        }
                        for v in bb.vertices().windows(2) {
                            if !s.far(&ru, &seg_rect(v[0], v[1])) {
                                s.offer(segment_segment_distance(u[0], u[1], v[0], v[1]))?;
                            }
                        }
                    }
                    Flow::Continue(())
                })
            })
        })
    })
}

/// Bare points of `pts` × segments of `segs`.
fn points_to_segments(pts: &impl Features, segs: &impl Features, s: &mut Nearest) -> Flow {
    each_bare_point(pts, &mut |p| {
        let rp = Rect::from_point(p);
        segs.each_path(&mut |path| {
            each_block(path, |blk| {
                if s.far(&rp, &blk.rect) {
                    return Flow::Continue(());
                }
                for v in blk.vertices().windows(2) {
                    if !s.far(&rp, &seg_rect(v[0], v[1])) {
                        s.offer(point_segment_distance(p, v[0], v[1]))?;
                    }
                }
                Flow::Continue(())
            })
        })
    })
}

/// Every coordinate of the segment-free `pts` × every segment and every
/// coordinate of `all`.
fn points_to_all(pts: &impl Features, all: &impl Features, s: &mut Nearest) -> Flow {
    each_vertex(pts, &mut |p| {
        let rp = Rect::from_point(p);
        all.each_path(&mut |path| {
            each_block(path, |blk| {
                if s.far(&rp, &blk.rect) {
                    return Flow::Continue(());
                }
                for v in blk.vertices().windows(2) {
                    s.offer(point_segment_distance(p, v[0], v[1]))?;
                }
                for q in blk.vertices() {
                    s.offer(p.distance(q))?;
                }
                Flow::Continue(())
            })
        })?;
        each_bare_point(all, &mut |q| s.offer(p.distance(&q)))
    })
}

/// Parameter intervals of segment `a`→`b` (as fractions of [0,1]) that lie
/// inside polygon `rings`. This is the clipping kernel behind `atGeometry`:
/// a temporal segment restricted to a district polygon.
///
/// Robustness strategy: collect the parameters where the segment crosses any
/// ring edge, sort them, then classify each sub-interval by testing its
/// midpoint with even-odd point-in-polygon.
pub fn clip_segment_to_rings(a: Point, b: Point, rings: &[Vec<Point>]) -> Vec<(f64, f64)> {
    let mut cuts = vec![0.0, 1.0];
    let d = b - a;
    for ring in rings {
        for w in ring.windows(2) {
            let (q1, q2) = (w[0], w[1]);
            let e = q2 - q1;
            let denom = d.cross(e);
            if denom != 0.0 {
                let t = (q1 - a).cross(e) / denom;
                let u = (q1 - a).cross(d) / denom;
                if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
                    cuts.push(t);
                }
            } else {
                // Parallel: project endpoints when collinear.
                if (q1 - a).cross(d) == 0.0 {
                    let len_sq = d.dot(d);
                    if len_sq > 0.0 {
                        for q in [q1, q2] {
                            let t = (q - a).dot(d) / len_sq;
                            if (0.0..=1.0).contains(&t) {
                                cuts.push(t);
                            }
                        }
                    }
                }
            }
        }
    }
    // total_cmp: intersection parameters computed from degenerate
    // (infinite-coordinate) input can be NaN; sorting must not panic.
    cuts.sort_by(|x, y| x.total_cmp(y));
    cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    let mut out: Vec<(f64, f64)> = Vec::new();
    for w in cuts.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        let mid = a.lerp(&b, (t0 + t1) * 0.5);
        if point_in_rings(mid, rings) {
            match out.last_mut() {
                Some(last) if (last.1 - t0).abs() < 1e-12 => last.1 = t1,
                _ => out.push((t0, t1)),
            }
        }
    }
    out
}

/// Collect several geometries into one (`ST_Collect`): points fuse into a
/// multipoint, linestrings into a multilinestring, anything else into a
/// geometry collection. The SRID of the first non-zero-SRID member wins.
pub fn collect(geoms: Vec<Geometry>) -> Geometry {
    let srid = geoms.iter().map(|g| g.srid).find(|s| *s != 0).unwrap_or(0);
    let all_points = geoms.iter().all(|g| matches!(g.data, GeomData::Point(_)));
    if all_points && !geoms.is_empty() {
        let pts = geoms.iter().filter_map(Geometry::as_point).collect();
        return Geometry::multipoint(pts).with_srid(srid);
    }
    let all_lines = geoms.iter().all(|g| matches!(g.data, GeomData::LineString(_)));
    if all_lines && !geoms.is_empty() {
        let lines = geoms
            .into_iter()
            .map(|g| match g.data {
                GeomData::LineString(ps) => ps,
                _ => unreachable!(),
            })
            .collect();
        return Geometry::multilinestring(lines).with_srid(srid);
    }
    Geometry::collection(geoms).with_srid(srid)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse_wkt;

    fn g(s: &str) -> Geometry {
        parse_wkt(s).unwrap()
    }

    #[test]
    fn point_segment() {
        let d = point_segment_distance(Point::new(0.0, 1.0), Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(d, 1.0);
        // Beyond the end: distance to endpoint.
        let d = point_segment_distance(Point::new(5.0, 0.0), Point::new(-1.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(d, 4.0);
        // Degenerate segment.
        let d = point_segment_distance(Point::new(3.0, 4.0), Point::ORIGIN, Point::ORIGIN);
        assert_eq!(d, 5.0);
    }

    #[test]
    fn segment_intersection_cases() {
        let o = Point::new(0.0, 0.0);
        assert!(segments_intersect(o, Point::new(2.0, 2.0), Point::new(0.0, 2.0), Point::new(2.0, 0.0)));
        assert!(!segments_intersect(o, Point::new(1.0, 0.0), Point::new(0.0, 1.0), Point::new(1.0, 1.0)));
        // Touching at an endpoint counts.
        assert!(segments_intersect(o, Point::new(1.0, 1.0), Point::new(1.0, 1.0), Point::new(2.0, 0.0)));
        // Collinear overlap counts.
        assert!(segments_intersect(o, Point::new(2.0, 0.0), Point::new(1.0, 0.0), Point::new(3.0, 0.0)));
        // Collinear disjoint does not.
        assert!(!segments_intersect(o, Point::new(1.0, 0.0), Point::new(2.0, 0.0), Point::new(3.0, 0.0)));
    }

    #[test]
    fn point_in_polygon_with_hole() {
        let rings = match g("POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))").data {
            GeomData::Polygon(r) => r,
            _ => unreachable!(),
        };
        assert!(point_in_rings(Point::new(1.0, 1.0), &rings));
        assert!(!point_in_rings(Point::new(5.0, 5.0), &rings)); // in the hole
        assert!(!point_in_rings(Point::new(11.0, 5.0), &rings));
        assert!(point_in_rings(Point::new(0.0, 5.0), &rings)); // boundary
    }

    #[test]
    fn distance_pairs() {
        assert_eq!(distance(&g("POINT(0 0)"), &g("POINT(3 4)")), 5.0);
        assert_eq!(distance(&g("POINT(0 1)"), &g("LINESTRING(-1 0,1 0)")), 1.0);
        assert_eq!(distance(&g("LINESTRING(0 0,2 2)"), &g("LINESTRING(0 2,2 0)")), 0.0);
        let d = distance(&g("LINESTRING(0 0,1 0)"), &g("LINESTRING(0 2,1 2)"));
        assert_eq!(d, 2.0);
        // Point inside polygon → 0.
        assert_eq!(distance(&g("POINT(5 5)"), &g("POLYGON((0 0,10 0,10 10,0 10,0 0))")), 0.0);
        // Point outside polygon → distance to boundary.
        assert_eq!(distance(&g("POINT(15 5)"), &g("POLYGON((0 0,10 0,10 10,0 10,0 0))")), 5.0);
    }

    #[test]
    fn intersects_uses_boxes_then_exact() {
        assert!(intersects(&g("LINESTRING(0 0,2 2)"), &g("LINESTRING(0 2,2 0)")));
        assert!(!intersects(&g("POINT(0 0)"), &g("POINT(1 0)")));
        assert!(intersects(&g("POINT(5 5)"), &g("POLYGON((0 0,10 0,10 10,0 10,0 0))")));
        assert!(!intersects(&g("GEOMETRYCOLLECTION EMPTY"), &g("POINT(0 0)")));
    }

    #[test]
    fn clip_segment_through_square() {
        let rings = match g("POLYGON((0 0,10 0,10 10,0 10,0 0))").data {
            GeomData::Polygon(r) => r,
            _ => unreachable!(),
        };
        // Segment crossing straight through.
        let iv = clip_segment_to_rings(Point::new(-5.0, 5.0), Point::new(15.0, 5.0), &rings);
        assert_eq!(iv.len(), 1);
        assert!((iv[0].0 - 0.25).abs() < 1e-9 && (iv[0].1 - 0.75).abs() < 1e-9);
        // Entirely inside.
        let iv = clip_segment_to_rings(Point::new(1.0, 1.0), Point::new(2.0, 2.0), &rings);
        assert_eq!(iv, vec![(0.0, 1.0)]);
        // Entirely outside.
        let iv = clip_segment_to_rings(Point::new(20.0, 20.0), Point::new(30.0, 30.0), &rings);
        assert!(iv.is_empty());
    }

    #[test]
    fn clip_segment_with_hole() {
        let rings = match g("POLYGON((0 0,10 0,10 10,0 10,0 0),(4 4,6 4,6 6,4 6,4 4))").data {
            GeomData::Polygon(r) => r,
            _ => unreachable!(),
        };
        // Crosses the hole: two inside intervals.
        let iv = clip_segment_to_rings(Point::new(0.0, 5.0), Point::new(10.0, 5.0), &rings);
        assert_eq!(iv.len(), 2);
        assert!((iv[0].1 - 0.4).abs() < 1e-9);
        assert!((iv[1].0 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn collect_fuses_kinds() {
        let m = collect(vec![g("SRID=4326;POINT(1 1)"), g("POINT(2 2)")]);
        assert!(matches!(m.data, GeomData::MultiPoint(_)));
        assert_eq!(m.srid, 4326);
        let ml = collect(vec![g("LINESTRING(0 0,1 1)"), g("LINESTRING(2 2,3 3)")]);
        assert!(matches!(ml.data, GeomData::MultiLineString(_)));
        let c = collect(vec![g("POINT(1 1)"), g("LINESTRING(0 0,1 1)")]);
        assert!(matches!(c.data, GeomData::GeometryCollection(_)));
    }
}
