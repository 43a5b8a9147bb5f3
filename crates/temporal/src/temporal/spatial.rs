//! `tgeompoint`: temporal geometry points and their spatial operators —
//! `trajectory`, `length`, `speed`, `atGeometry`, `atStbox`, `tdistance`,
//! `tDwithin`, `eDwithin`, `eIntersects` — the functions the BerlinMOD
//! queries exercise.

use mduck_geo::algorithms::{
    clip_segment_to_rings, dwithin, geometry_covers_point, intersects, Features, Flow,
};
use mduck_geo::geometry::GeomData;
use mduck_geo::point::Point;
use mduck_geo::Geometry;

use crate::boxes::STBox;
use crate::error::{TemporalError, TemporalResult};
use crate::span::TstzSpan;
use crate::spanset::TstzSpanSet;
use crate::temporal::{
    parse_temporal, synchronize, Interp, TFloat, TInstant, TSequence, Temporal,
};
use crate::time::{Interval, TimestampTz, USECS_PER_SEC};

/// A temporal geometry point: a [`Temporal<Point>`] plus the SRID shared by
/// all its positions.
#[derive(Debug, Clone, PartialEq)]
pub struct TGeomPoint {
    pub temp: Temporal<Point>,
    pub srid: i32,
}

/// Parse a `tgeompoint` literal (optionally `SRID=n;`-prefixed).
pub fn parse_tgeompoint(s: &str) -> TemporalResult<TGeomPoint> {
    let (temp, srid) = parse_temporal::<Point>(s)?;
    Ok(TGeomPoint { temp, srid: srid.unwrap_or(0) })
}

impl std::fmt::Display for TGeomPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.temp)
    }
}

impl TGeomPoint {
    /// Build from a temporal point and SRID.
    pub fn new(temp: Temporal<Point>, srid: i32) -> Self {
        TGeomPoint { temp, srid }
    }

    /// An instant tgeompoint.
    pub fn instant(p: Point, t: TimestampTz, srid: i32) -> Self {
        TGeomPoint { temp: Temporal::Instant(TInstant::new(p, t)), srid }
    }

    /// A linear sequence from (point, timestamp) pairs.
    pub fn linear_seq(points: Vec<(Point, TimestampTz)>, srid: i32) -> TemporalResult<Self> {
        let instants = points
            .into_iter()
            .map(|(p, t)| TInstant::new(p, t))
            .collect();
        let seq = TSequence::new(instants, true, true, Interp::Linear)?;
        Ok(TGeomPoint { temp: Temporal::Sequence(seq), srid })
    }

    /// `asText` rendering (no SRID prefix).
    pub fn as_text(&self) -> String {
        self.temp.to_string()
    }

    /// `asEWKT` rendering (SRID prefix when known).
    pub fn as_ewkt(&self) -> String {
        if self.srid != 0 {
            format!("SRID={};{}", self.srid, self.temp)
        } else {
            self.temp.to_string()
        }
    }

    /// Bounding period (`::tstzspan` cast in Query 3).
    pub fn timespan(&self) -> TstzSpan {
        self.temp.timespan()
    }

    /// Position at a timestamp as a point geometry (`valueAtTimestamp`).
    pub fn value_at(&self, t: TimestampTz) -> Option<Geometry> {
        self.temp
            .value_at(t)
            .map(|p| Geometry::from_point(p).with_srid(self.srid))
    }

    /// Spatiotemporal bounding box (`::stbox` cast).
    pub fn stbox(&self) -> STBox {
        let mut rect = mduck_geo::point::Rect::from_point(self.temp.start_value());
        for i in self.temp.instants() {
            rect.expand_to(i.value);
        }
        STBox { srid: self.srid, rect: Some(rect), period: Some(self.temp.timespan()) }
    }

    /// The traversed geometry (`trajectory()`): a linestring for moving
    /// linear sequences, a point when stationary, a multipoint for
    /// discrete/step subtypes, and a collection across sequence sets.
    pub fn trajectory(&self) -> Geometry {
        let mut parts: Vec<Geometry> =
            self.temp.as_sequences().iter().map(seq_trajectory).collect();
        let g = if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            mduck_geo::algorithms::collect(parts)
        };
        g.with_srid(self.srid)
    }

    /// Total length traveled, in the units of the SRID (`length()`).
    pub fn length(&self) -> f64 {
        let mut total = 0.0;
        for s in self.temp.as_sequences().iter() {
            if s.interp == Interp::Linear {
                for w in s.instants().windows(2) {
                    total += w[0].value.distance(&w[1].value);
                }
            }
        }
        total
    }

    /// Speed as a step `tfloat` in units/second (`speed()`).
    pub fn speed(&self) -> TemporalResult<TFloat> {
        let mut seqs: Vec<TSequence<f64>> = Vec::new();
        for s in self.temp.as_sequences().iter() {
            if s.interp != Interp::Linear || s.num_instants() < 2 {
                continue;
            }
            let mut instants: Vec<TInstant<f64>> = Vec::with_capacity(s.num_instants());
            let w = s.instants();
            for k in 0..w.len() - 1 {
                let dt = (w[k + 1].t.0 - w[k].t.0) as f64 / USECS_PER_SEC as f64;
                let v = w[k].value.distance(&w[k + 1].value) / dt;
                instants.push(TInstant::new(v, w[k].t));
            }
            let last_v = instants.last().unwrap().value;
            instants.push(TInstant::new(last_v, w.last().unwrap().t));
            seqs.push(TSequence::new(instants, s.lower_inc, s.upper_inc, Interp::Step)?);
        }
        Temporal::from_sequences(seqs)
            .map_err(|_| TemporalError::Invalid("speed undefined for non-moving value".into()))
    }

    /// Restrict in time.
    pub fn at_period(&self, p: &TstzSpan) -> Option<TGeomPoint> {
        self.temp.at_period(p).map(|t| TGeomPoint::new(t, self.srid))
    }

    /// Restrict in time by a period set.
    pub fn at_periodset(&self, ps: &TstzSpanSet) -> Option<TGeomPoint> {
        self.temp.at_periodset(ps).map(|t| TGeomPoint::new(t, self.srid))
    }

    /// Restrict to the instants where the moving point is exactly at `p`
    /// (`atValues` with a point geometry, Query 7).
    pub fn at_value(&self, p: Point) -> Option<TGeomPoint> {
        self.temp.at_value(&p).map(|t| TGeomPoint::new(t, self.srid))
    }

    /// Restrict the moving point to a geometry (`atGeometry`). Polygons
    /// keep the stretches traveled inside; points keep exact passages.
    pub fn at_geometry(&self, g: &Geometry) -> TemporalResult<Option<TGeomPoint>> {
        let mut seqs: Vec<TSequence<Point>> = Vec::new();
        for prim in g.flatten() {
            match &prim.data {
                GeomData::Point(p) => {
                    if let Some(t) = self.temp.at_value(p) {
                        seqs.extend(t.as_sequences().into_owned());
                    }
                }
                GeomData::MultiPoint(ps) => {
                    for p in ps {
                        if let Some(t) = self.temp.at_value(p) {
                            seqs.extend(t.as_sequences().into_owned());
                        }
                    }
                }
                GeomData::Polygon(rings) => {
                    for s in self.temp.as_sequences().iter() {
                        restrict_seq_to_rings(s, rings, &mut seqs);
                    }
                }
                other => {
                    return Err(TemporalError::Unsupported(format!(
                        "atGeometry over {:?} geometries",
                        std::mem::discriminant(other)
                    )))
                }
            }
        }
        seqs.sort_by_key(|s| s.start().t);
        seqs.dedup_by(|a, b| a.start().t == b.start().t && a.num_instants() == b.num_instants());
        Ok(Temporal::from_sequences(seqs)
            .ok()
            .map(|t| TGeomPoint::new(t, self.srid)))
    }

    /// Restrict to a spatiotemporal box (`atStbox`).
    pub fn at_stbox(&self, b: &STBox) -> TemporalResult<Option<TGeomPoint>> {
        let mut current = self.clone();
        if let Some(p) = &b.period {
            match current.at_period(p) {
                Some(c) => current = c,
                None => return Ok(None),
            }
        }
        if let Some(r) = &b.rect {
            let poly = Geometry::polygon(vec![vec![
                Point::new(r.xmin, r.ymin),
                Point::new(r.xmax, r.ymin),
                Point::new(r.xmax, r.ymax),
                Point::new(r.xmin, r.ymax),
                Point::new(r.xmin, r.ymin),
            ]])?;
            return current.at_geometry(&poly);
        }
        Ok(Some(current))
    }

    /// Temporal distance to another moving point (`tdistance`): a linear
    /// `tfloat` sampled at synchronized instants plus the per-segment
    /// distance minima (the same approximation MEOS makes).
    pub fn tdistance(&self, other: &TGeomPoint) -> Option<TFloat> {
        let synced = synchronize(&self.temp, &other.temp);
        let mut seqs: Vec<TSequence<f64>> = Vec::new();
        for s in synced {
            let mut instants: Vec<TInstant<f64>> = Vec::new();
            for k in 0..s.samples.len() {
                let (t, a, b) = &s.samples[k];
                instants.push(TInstant::new(a.distance(b), *t));
                if k + 1 < s.samples.len() {
                    let (t1, a1, b1) = &s.samples[k + 1];
                    // Relative motion c + v·u over u ∈ [0,1].
                    let c = *a - *b;
                    let v = (*a1 - *a) - (*b1 - *b);
                    let vv = v.dot(v);
                    if vv > 0.0 {
                        let u_star = -(c.dot(v)) / vv;
                        if u_star > 1e-9 && u_star < 1.0 - 1e-9 {
                            let tm = TimestampTz(
                                t.0 + ((t1.0 - t.0) as f64 * u_star).round() as i64,
                            );
                            if tm > *t && tm < *t1 {
                                let d = (c + v * u_star).norm();
                                instants.push(TInstant::new(d, tm));
                            }
                        }
                    }
                }
            }
            let interp = if instants.len() == 1 { Interp::Discrete } else { Interp::Linear };
            if let Ok(seq) = TSequence::new(instants, s.lower_inc, s.upper_inc, interp) {
                seqs.push(seq);
            }
        }
        Temporal::from_sequences(seqs).ok()
    }

    /// Temporal within-distance (`tDwithin`): a `tbool` that is true
    /// exactly while the two moving points are within `d` of each other.
    /// Per synchronized segment the quadratic `|c + v·u|² ≤ d²` is solved
    /// exactly.
    pub fn tdwithin(&self, other: &TGeomPoint, d: f64) -> Option<crate::temporal::TBool> {
        let synced = synchronize(&self.temp, &other.temp);
        let mut seqs: Vec<TSequence<bool>> = Vec::new();
        for s in synced {
            let period = s.period();
            let mut true_spans: Vec<TstzSpan> = Vec::new();
            if s.samples.len() == 1 {
                let (t, a, b) = &s.samples[0];
                let within = a.distance(b) <= d;
                seqs.push(
                    TSequence::new(
                        vec![TInstant::new(within, *t)],
                        true,
                        true,
                        Interp::Step,
                    )
                    .expect("singleton"),
                );
                continue;
            }
            for k in 0..s.samples.len() - 1 {
                let (t0, a0, b0) = &s.samples[k];
                let (t1, a1, b1) = &s.samples[k + 1];
                let c = *a0 - *b0;
                let v = (*a1 - *a0) - (*b1 - *b0);
                for (u0, u1) in solve_within(c, v, d) {
                    let span_lo = TimestampTz(t0.0 + ((t1.0 - t0.0) as f64 * u0).round() as i64);
                    let span_hi = TimestampTz(t0.0 + ((t1.0 - t0.0) as f64 * u1).round() as i64);
                    if let Ok(sp) = TstzSpan::new(span_lo, span_hi, true, true) {
                        true_spans.push(sp);
                    }
                }
            }
            seqs.extend(spatial_tbool_from_intervals(&period, true_spans));
        }
        Temporal::from_sequences(seqs).ok()
    }

    /// Ever within distance (`eDwithin`, Query 6 / the §6.2 close-pairs
    /// demo).
    pub fn edwithin(&self, other: &TGeomPoint, d: f64) -> bool {
        match self.tdwithin(other, d) {
            Some(t) => t.ever_true(),
            None => false,
        }
    }

    /// Always within distance (`aDwithin`), over the synchronized time.
    pub fn adwithin(&self, other: &TGeomPoint, d: f64) -> bool {
        match self.tdwithin(other, d) {
            Some(t) => t.always_true(),
            None => false,
        }
    }

    /// Ever within distance of a static geometry: the trajectory is within
    /// `d` of `g`, searched in place without building the trajectory.
    pub fn edwithin_geo(&self, g: &Geometry, d: f64) -> bool {
        dwithin(self, g, d)
    }

    /// Does the moving point ever intersect the geometry
    /// (`eIntersects`)? Same answer as intersecting the trajectory.
    pub fn eintersects(&self, g: &Geometry) -> bool {
        intersects(self, g)
    }

    /// Is the moving point always inside the geometry (`aIntersects`-style
    /// check over polygons)?
    pub fn always_inside(&self, g: &Geometry) -> bool {
        // Every instant inside, and (for linear movement) every segment
        // fully inside; for convex-ish district polygons checking segment
        // midpoints alongside endpoints is exact enough for benchmarks.
        for s in self.temp.as_sequences().iter() {
            for w in s.instants().windows(2) {
                let mid = w[0].value.lerp(&w[1].value, 0.5);
                if !geometry_covers_point(g, mid) {
                    return false;
                }
            }
            for i in s.instants() {
                if !geometry_covers_point(g, i.value) {
                    return false;
                }
            }
        }
        true
    }

    /// Shift the value in time.
    pub fn shift_time(&self, delta: &Interval) -> TGeomPoint {
        TGeomPoint::new(self.temp.shift_time(delta), self.srid)
    }
}

/// A moving point as the features of its trajectory, read in place: each
/// linear sequence is a path over its positions with consecutive repeats
/// skipped (a stationary one is a bare point), and the instants of discrete
/// and step sequences are bare points, as [`TGeomPoint::trajectory`] builds
/// them.
impl Features for TGeomPoint {
    type Path<'s> = Positions<'s>;

    fn each_path<'s>(&'s self, f: &mut impl FnMut(Positions<'s>) -> Flow) -> Flow {
        let (_, seqs) = self.temp.parts();
        seqs.iter()
            .filter(|s| s.interp == Interp::Linear)
            .try_for_each(|s| f(Positions { rest: s.instants().iter(), last: None }))
    }

    fn each_point(&self, f: &mut impl FnMut(Point) -> Flow) -> Flow {
        let (instant, seqs) = self.temp.parts();
        if let Some(i) = instant {
            f(i.value)?;
        }
        seqs.iter()
            .filter(|s| s.interp != Interp::Linear)
            .try_for_each(|s| s.instants().iter().try_for_each(|i| f(i.value)))
    }

    fn each_polygon(&self, _: &mut impl FnMut(&[Vec<Point>]) -> Flow) -> Flow {
        Flow::Continue(())
    }
}

/// The positions of a linear sequence, skipping consecutive repeats.
#[derive(Clone)]
pub struct Positions<'a> {
    rest: std::slice::Iter<'a, TInstant<Point>>,
    last: Option<Point>,
}

impl Iterator for Positions<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        loop {
            let p = self.rest.next()?.value;
            if self.last != Some(p) {
                self.last = Some(p);
                return Some(p);
            }
        }
    }
}

/// The trajectory of a single sequence.
fn seq_trajectory(s: &TSequence<Point>) -> Geometry {
    let pts: Vec<Point> = s.instants().iter().map(|i| i.value).collect();
    if s.interp == Interp::Linear && pts.len() > 1 {
        let mut dedup: Vec<Point> = Vec::with_capacity(pts.len());
        for p in pts {
            if dedup.last() != Some(&p) {
                dedup.push(p);
            }
        }
        if dedup.len() == 1 {
            Geometry::from_point(dedup[0])
        } else {
            Geometry::linestring(dedup).expect("≥2 points")
        }
    } else {
        let mut distinct: Vec<Point> = Vec::new();
        for p in pts {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        if distinct.len() == 1 {
            Geometry::from_point(distinct[0])
        } else {
            Geometry::multipoint(distinct)
        }
    }
}

/// Clip one sequence against polygon rings, pushing the kept stretches.
fn restrict_seq_to_rings(
    s: &TSequence<Point>,
    rings: &[Vec<Point>],
    out: &mut Vec<TSequence<Point>>,
) {
    use mduck_geo::algorithms::point_in_rings;
    if s.interp != Interp::Linear {
        let kept: Vec<TInstant<Point>> = s
            .instants()
            .iter()
            .filter(|i| point_in_rings(i.value, rings))
            .cloned()
            .collect();
        if !kept.is_empty() {
            out.push(TSequence::discrete(kept).expect("ordered"));
        }
        return;
    }
    // Collect per-segment inside-intervals in time, then merge into runs.
    let instants = s.instants();
    let mut spans: Vec<(TimestampTz, TimestampTz)> = Vec::new();
    if instants.len() == 1 {
        if point_in_rings(instants[0].value, rings) {
            spans.push((instants[0].t, instants[0].t));
        }
    }
    for w in instants.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        for (f0, f1) in clip_segment_to_rings(a.value, b.value, rings) {
            let t0 = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * f0).round() as i64);
            let t1 = TimestampTz(a.t.0 + ((b.t.0 - a.t.0) as f64 * f1).round() as i64);
            match spans.last_mut() {
                Some(last) if last.1 >= t0 => last.1 = last.1.max(t1),
                _ => spans.push((t0, t1)),
            }
        }
    }
    for (t0, t1) in spans {
        if t0 == t1 {
            out.push(
                TSequence::new(
                    vec![TInstant::new(s.interpolate_raw(t0), t0)],
                    true,
                    true,
                    Interp::Linear,
                )
                .expect("singleton"),
            );
        } else if let Some(sub) = s.at_period(
            &TstzSpan::new(t0, t1, true, true).expect("ordered clip bounds"),
        ) {
            out.push(sub);
        }
    }
}

/// Solve `|c + v·u| ≤ d` for `u ∈ [0, 1]`; returns the (0 or 1) interval.
fn solve_within(c: Point, v: Point, d: f64) -> Vec<(f64, f64)> {
    let a = v.dot(v);
    if a == 0.0 {
        return if c.norm() <= d { vec![(0.0, 1.0)] } else { vec![] };
    }
    let b = 2.0 * c.dot(v);
    let cc = c.dot(c) - d * d;
    let disc = b * b - 4.0 * a * cc;
    if disc < 0.0 {
        return vec![];
    }
    let sq = disc.sqrt();
    let u0 = ((-b - sq) / (2.0 * a)).max(0.0);
    let u1 = ((-b + sq) / (2.0 * a)).min(1.0);
    if u0 > u1 {
        vec![]
    } else {
        vec![(u0, u1)]
    }
}

/// Build step `tbool` sequences over `period`: `true` on the (merged)
/// `true_spans`, `false` on the rest.
pub(crate) fn spatial_tbool_from_intervals(
    period: &TstzSpan,
    true_spans: Vec<TstzSpan>,
) -> Vec<TSequence<bool>> {
    let mut out: Vec<TSequence<bool>> = Vec::new();
    let make =
        |v: bool, sp: &TstzSpan| -> TSequence<bool> {
            if sp.lower == sp.upper {
                TSequence::new(vec![TInstant::new(v, sp.lower)], true, true, Interp::Step)
                    .expect("singleton")
            } else {
                TSequence::new(
                    vec![TInstant::new(v, sp.lower), TInstant::new(v, sp.upper)],
                    sp.lower_inc,
                    sp.upper_inc,
                    Interp::Step,
                )
                .expect("ordered bounds")
            }
        };
    let trues = TstzSpanSet::new(true_spans.clone()).ok();
    let trues = match trues {
        Some(ts) => match ts.intersection_span(period) {
            Some(clipped) => clipped,
            None => {
                out.push(make(false, period));
                return out;
            }
        },
        None => {
            out.push(make(false, period));
            return out;
        }
    };
    let falses = TstzSpanSet::from_span(*period).minus(&trues);
    let mut pieces: Vec<(bool, TstzSpan)> = Vec::new();
    for sp in trues.spans() {
        pieces.push((true, *sp));
    }
    if let Some(fs) = falses {
        for sp in fs.spans() {
            pieces.push((false, *sp));
        }
    }
    pieces.sort_by(|a, b| a.1.cmp_span(&b.1));
    for (v, sp) in pieces {
        out.push(make(v, &sp));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::parse_timestamp;
    use mduck_geo::wkt::{parse_wkt, to_wkt};

    fn ts(s: &str) -> TimestampTz {
        parse_timestamp(s).unwrap()
    }

    fn tg(s: &str) -> TGeomPoint {
        parse_tgeompoint(s).unwrap()
    }

    #[test]
    fn parse_print_paper_literal() {
        // The §3.5 overlap example literal.
        let t = tg("{[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02, Point(1 1)@2025-01-03], \
                    [Point(3 3)@2025-01-04, Point(3 3)@2025-01-05]}");
        assert_eq!(t.temp.num_instants(), 5);
        let b = t.stbox();
        assert_eq!(b.rect.unwrap(), mduck_geo::point::Rect::new(1.0, 1.0, 3.0, 3.0));
        // Paper: && STBOX X((10.0,20.0),(10.0,20.0)) is false.
        let q = crate::parse_stbox("STBOX X((10.0,20.0),(10.0,20.0))").unwrap();
        assert!(!b.overlaps(&q).unwrap());
    }

    #[test]
    fn at_time_matches_paper_example() {
        // §3.5 atTime example.
        let t = tg("{[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02, Point(1 1)@2025-01-03], \
                    [Point(3 3)@2025-01-04, Point(3 3)@2025-01-05]}");
        let p: TstzSpan = crate::parse_span("[2025-01-01, 2025-01-02]").unwrap();
        let r = t.at_period(&p).unwrap();
        assert_eq!(
            r.as_text(),
            "[POINT(1 1)@2025-01-01 00:00:00+00, POINT(2 2)@2025-01-02 00:00:00+00]"
        );
    }

    #[test]
    fn trajectory_and_length() {
        let t = tg("[Point(0 0)@2025-01-01, Point(3 4)@2025-01-02, Point(3 8)@2025-01-03]");
        let traj = t.trajectory();
        assert_eq!(to_wkt(&traj, None), "LINESTRING(0 0,3 4,3 8)");
        assert_eq!(t.length(), 9.0);
        // Stationary → point.
        let still = tg("[Point(5 5)@2025-01-01, Point(5 5)@2025-01-02]");
        assert_eq!(to_wkt(&still.trajectory(), None), "POINT(5 5)");
        assert_eq!(still.length(), 0.0);
        // Discrete → multipoint.
        let disc = tg("{Point(0 0)@2025-01-01, Point(1 1)@2025-01-02}");
        assert_eq!(to_wkt(&disc.trajectory(), None), "MULTIPOINT(0 0,1 1)");
    }

    #[test]
    fn value_at_interpolates() {
        let t = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let g = t.value_at(ts("2025-01-02")).unwrap();
        assert_eq!(g.as_point().unwrap(), Point::new(5.0, 0.0));
        assert!(t.value_at(ts("2026-01-01")).is_none());
    }

    #[test]
    fn at_value_finds_passage() {
        let t = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let r = t.at_value(Point::new(5.0, 0.0)).unwrap();
        assert_eq!(r.temp.start_timestamp(), ts("2025-01-02"));
        assert!(t.at_value(Point::new(5.0, 1.0)).is_none());
    }

    #[test]
    fn at_geometry_polygon_clips() {
        // Move along y=5 from x=-5 to x=15; square [0,10]².
        let t = tg("[Point(-5 5)@2025-01-01, Point(15 5)@2025-01-05]");
        let square = parse_wkt("POLYGON((0 0,10 0,10 10,0 10,0 0))").unwrap();
        let r = t.at_geometry(&square).unwrap().unwrap();
        // Inside for fractions [0.25, 0.75] of 4 days → Jan 2 .. Jan 4.
        assert_eq!(r.temp.start_timestamp(), ts("2025-01-02"));
        assert_eq!(r.temp.end_timestamp(), ts("2025-01-04"));
        assert_eq!(r.length(), 10.0);
        // Fully outside → None.
        let far = parse_wkt("POLYGON((100 100,110 100,110 110,100 110,100 100))").unwrap();
        assert!(t.at_geometry(&far).unwrap().is_none());
    }

    #[test]
    fn at_stbox_restricts_both_dims() {
        let t = tg("[Point(-5 5)@2025-01-01, Point(15 5)@2025-01-05]");
        let b = crate::parse_stbox(
            "STBOX XT(((0,0),(10,10)),[2025-01-01, 2025-01-03])",
        )
        .unwrap();
        let r = t.at_stbox(&b).unwrap().unwrap();
        assert_eq!(r.temp.start_timestamp(), ts("2025-01-02"));
        assert_eq!(r.temp.end_timestamp(), ts("2025-01-03"));
    }

    #[test]
    fn tdistance_has_minimum_sample() {
        // Two points crossing: distance dips to 0 at the midpoint.
        let a = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let b = tg("[Point(10 0)@2025-01-01, Point(0 0)@2025-01-03]");
        let d = a.tdistance(&b).unwrap();
        assert_eq!(d.value_at(ts("2025-01-02")), Some(0.0));
        assert_eq!(d.start_value(), 10.0);
        assert_eq!(d.end_value(), 10.0);
        assert_eq!(d.min_value(), 0.0);
    }

    #[test]
    fn tdwithin_exact_interval() {
        // Head-on at combined speed 10 units/day, within 2.5 → |20 - 10t| ≤ 2.5
        // Wait: relative position 10-2*5t... use the crossing setup above.
        let a = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let b = tg("[Point(10 0)@2025-01-01, Point(0 0)@2025-01-03]");
        // Relative distance: |10 - 10u·2|? c = -10, v = +20 per 2 days.
        let w = a.tdwithin(&b, 2.0).unwrap();
        let ps = w.when_true().unwrap();
        assert_eq!(ps.num_spans(), 1);
        // |−10 + 20u| ≤ 2 → u ∈ [0.4, 0.6] of 2 days → ±4.8h around Jan 2.
        assert_eq!(ps.spans()[0].lower, ts("2025-01-01 19:12:00"));
        assert_eq!(ps.spans()[0].upper, ts("2025-01-02 04:48:00"));
        assert!(a.edwithin(&b, 2.0));
        assert!(!a.adwithin(&b, 2.0));
        // Never within 0.0... actually they touch exactly at u=0.5.
        assert!(a.edwithin(&b, 0.0));
    }

    #[test]
    fn tdwithin_parallel_never_within() {
        let a = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-03]");
        let b = tg("[Point(0 5)@2025-01-01, Point(10 5)@2025-01-03]");
        let w = a.tdwithin(&b, 2.0).unwrap();
        assert!(w.when_true().is_none());
        assert!(!a.edwithin(&b, 2.0));
        assert!(a.edwithin(&b, 5.0));
        assert!(a.adwithin(&b, 5.0)); // constant distance 5 ≤ 5
    }

    #[test]
    fn eintersects_static_geometry() {
        let t = tg("[Point(-5 5)@2025-01-01, Point(15 5)@2025-01-05]");
        let square = parse_wkt("POLYGON((0 0,10 0,10 10,0 10,0 0))").unwrap();
        assert!(t.eintersects(&square));
        let far = parse_wkt("POLYGON((100 100,110 100,110 110,100 110,100 100))").unwrap();
        assert!(!t.eintersects(&far));
        assert!(t.edwithin_geo(&far, 200.0));
    }

    #[test]
    fn speed_step_values() {
        // 10 units in 1 day, then stationary for 1 day.
        let t = tg("[Point(0 0)@2025-01-01, Point(10 0)@2025-01-02, Point(10 0)@2025-01-03]");
        let s = t.speed().unwrap();
        let day_secs = 86_400.0;
        assert!((s.start_value() - 10.0 / day_secs).abs() < 1e-12);
        assert_eq!(s.value_at(ts("2025-01-02 12:00:00")), Some(0.0));
    }

    #[test]
    fn ewkt_includes_srid() {
        let t = parse_tgeompoint("SRID=4326;[Point(1 1)@2025-01-01, Point(2 2)@2025-01-02]")
            .unwrap();
        assert_eq!(t.srid, 4326);
        assert!(t.as_ewkt().starts_with("SRID=4326;["));
        assert!(!t.as_text().contains("SRID"));
    }
}
