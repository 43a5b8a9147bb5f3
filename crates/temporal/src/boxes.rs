//! Bounding boxes: `tbox` (value × time) and `stbox` (space × time).
//!
//! `stbox` is the type the paper's TRTREE index is built on (§4); `tbox`
//! bounds numeric temporal types. Literal syntax and printing follow
//! MobilityDB (`STBOX XT(((x1,y1),(x2,y2)),[t1,t2])`, `TBOXFLOAT XT(...)`).

use std::fmt;

use mduck_geo::point::{Point, Rect};
use mduck_geo::wkt::fmt_coord;
use mduck_geo::Geometry;

use crate::error::{TemporalError, TemporalResult};
use crate::set::split_srid_prefix;
use crate::span::{parse_span, FloatSpan, IntSpan, Span, TstzSpan};
use crate::time::{Interval, TimestampTz};

/// The value dimension of a [`TBox`]: integer or float span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TBoxSpan {
    Int(IntSpan),
    Float(FloatSpan),
}

impl TBoxSpan {
    fn as_float(&self) -> FloatSpan {
        match self {
            TBoxSpan::Int(s) => Span {
                lower: s.lower as f64,
                upper: s.upper as f64,
                lower_inc: s.lower_inc,
                upper_inc: s.upper_inc,
            },
            TBoxSpan::Float(s) => *s,
        }
    }
}

/// A bounding box for numeric temporal values: an optional value span and
/// an optional period; at least one dimension is present.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TBox {
    pub span: Option<TBoxSpan>,
    pub period: Option<TstzSpan>,
}

impl TBox {
    pub fn new(span: Option<TBoxSpan>, period: Option<TstzSpan>) -> TemporalResult<Self> {
        if span.is_none() && period.is_none() {
            return Err(TemporalError::Invalid("tbox needs at least one dimension".into()));
        }
        Ok(TBox { span, period })
    }

    /// Grow the time dimension by `iv` on both sides.
    pub fn expand_time(&self, iv: &Interval) -> TemporalResult<TBox> {
        let period = self
            .period
            .ok_or_else(|| TemporalError::Invalid("tbox has no time dimension".into()))?;
        let expanded = TstzSpan::new(
            period.lower.sub_interval(iv),
            period.upper.add_interval(iv),
            period.lower_inc,
            period.upper_inc,
        )?;
        Ok(TBox { span: self.span, period: Some(expanded) })
    }

    /// Grow the value dimension by `d` on both sides.
    pub fn expand_value(&self, d: f64) -> TemporalResult<TBox> {
        let span = self
            .span
            .ok_or_else(|| TemporalError::Invalid("tbox has no value dimension".into()))?
            .as_float();
        let expanded = FloatSpan::new(
            span.lower - d,
            span.upper + d,
            span.lower_inc,
            span.upper_inc,
        )?;
        Ok(TBox { span: Some(TBoxSpan::Float(expanded)), period: self.period })
    }

    /// Overlap test over the shared dimensions; errors when none is shared.
    pub fn overlaps(&self, other: &TBox) -> TemporalResult<bool> {
        let mut shared = false;
        if let (Some(a), Some(b)) = (&self.span, &other.span) {
            shared = true;
            if !a.as_float().overlaps(&b.as_float()) {
                return Ok(false);
            }
        }
        if let (Some(a), Some(b)) = (&self.period, &other.period) {
            shared = true;
            if !a.overlaps(b) {
                return Ok(false);
            }
        }
        if !shared {
            return Err(TemporalError::Invalid("tboxes share no dimension".into()));
        }
        Ok(true)
    }

    /// Containment test (`@>`) over shared dimensions; errors when the
    /// contained operand has a dimension the container lacks.
    pub fn contains(&self, other: &TBox) -> TemporalResult<bool> {
        if let Some(b) = &other.span {
            match &self.span {
                None => return Err(TemporalError::Invalid("container lacks value dim".into())),
                Some(a) => {
                    if !a.as_float().contains_span(&b.as_float()) {
                        return Ok(false);
                    }
                }
            }
        }
        if let Some(b) = &other.period {
            match &self.period {
                None => return Err(TemporalError::Invalid("container lacks time dim".into())),
                Some(a) => {
                    if !a.contains_span(b) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &TBox) -> TBox {
        let span = match (&self.span, &other.span) {
            (Some(a), Some(b)) => {
                let (fa, fb) = (a.as_float(), b.as_float());
                Some(TBoxSpan::Float(Span {
                    lower: fa.lower.min(fb.lower),
                    upper: fa.upper.max(fb.upper),
                    lower_inc: true,
                    upper_inc: true,
                }))
            }
            (Some(a), None) | (None, Some(a)) => Some(*a),
            (None, None) => None,
        };
        let period = union_period(&self.period, &other.period);
        TBox { span, period }
    }
}

fn union_period(a: &Option<TstzSpan>, b: &Option<TstzSpan>) -> Option<TstzSpan> {
    match (a, b) {
        (Some(x), Some(y)) => Some(Span {
            lower: if x.lower <= y.lower { x.lower } else { y.lower },
            upper: if x.upper >= y.upper { x.upper } else { y.upper },
            lower_inc: if x.lower <= y.lower { x.lower_inc } else { y.lower_inc },
            upper_inc: if x.upper >= y.upper { x.upper_inc } else { y.upper_inc },
        }),
        (Some(x), None) | (None, Some(x)) => Some(*x),
        (None, None) => None,
    }
}

impl fmt::Display for TBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match &self.span {
            Some(TBoxSpan::Int(_)) => "TBOXINT",
            Some(TBoxSpan::Float(_)) => "TBOXFLOAT",
            None => "TBOX",
        };
        match (&self.span, &self.period) {
            (Some(s), Some(p)) => {
                write!(f, "{tag} XT({},{})", tbox_span_str(s), period_str(p))
            }
            (Some(s), None) => write!(f, "{tag} X({})", tbox_span_str(s)),
            (None, Some(p)) => write!(f, "{tag} T({})", period_str(p)),
            (None, None) => unreachable!("tbox always has a dimension"),
        }
    }
}

fn tbox_span_str(s: &TBoxSpan) -> String {
    match s {
        TBoxSpan::Int(s) => s.to_string(),
        TBoxSpan::Float(s) => s.to_string(),
    }
}

fn period_str(p: &TstzSpan) -> String {
    p.to_string()
}

/// A spatiotemporal bounding box: optional spatial rectangle (with SRID)
/// and optional period; at least one dimension is present.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct STBox {
    pub srid: i32,
    pub rect: Option<Rect>,
    pub period: Option<TstzSpan>,
}

impl STBox {
    pub fn new(srid: i32, rect: Option<Rect>, period: Option<TstzSpan>) -> TemporalResult<Self> {
        if rect.is_none() && period.is_none() {
            return Err(TemporalError::Invalid("stbox needs at least one dimension".into()));
        }
        Ok(STBox { srid, rect, period })
    }

    /// Box around a geometry (no time dimension).
    pub fn from_geometry(g: &Geometry) -> TemporalResult<Self> {
        let rect = g
            .bounding_rect()
            .ok_or_else(|| TemporalError::Invalid("empty geometry has no stbox".into()))?;
        STBox::new(g.srid, Some(rect), None)
    }

    /// Box around a geometry valid at one instant.
    pub fn from_geometry_at(g: &Geometry, t: TimestampTz) -> TemporalResult<Self> {
        let mut b = STBox::from_geometry(g)?;
        b.period = Some(TstzSpan::singleton(t));
        Ok(b)
    }

    /// Time-only box.
    pub fn from_period(p: TstzSpan) -> Self {
        STBox { srid: 0, rect: None, period: Some(p) }
    }

    /// Grow the spatial dimensions by `d` on every side (§3.5
    /// `expandSpace`).
    pub fn expand_space(&self, d: f64) -> TemporalResult<STBox> {
        let rect = self
            .rect
            .ok_or_else(|| TemporalError::Invalid("stbox has no spatial dimension".into()))?;
        let e = rect.expand_by(d);
        if e.xmin > e.xmax || e.ymin > e.ymax {
            return Err(TemporalError::Invalid("expansion made the box empty".into()));
        }
        Ok(STBox { srid: self.srid, rect: Some(e), period: self.period })
    }

    /// Grow the time dimension by `iv` on both sides (§3.5 `expandTime`).
    pub fn expand_time(&self, iv: &Interval) -> TemporalResult<STBox> {
        let period = self
            .period
            .ok_or_else(|| TemporalError::Invalid("stbox has no time dimension".into()))?;
        let expanded = TstzSpan::new(
            period.lower.sub_interval(iv),
            period.upper.add_interval(iv),
            period.lower_inc,
            period.upper_inc,
        )?;
        Ok(STBox { srid: self.srid, rect: self.rect, period: Some(expanded) })
    }

    /// Overlap test (`&&`) over shared dimensions; errors when none shared
    /// or the SRIDs differ.
    pub fn overlaps(&self, other: &STBox) -> TemporalResult<bool> {
        self.check_srid(other)?;
        let mut shared = false;
        if let (Some(a), Some(b)) = (&self.rect, &other.rect) {
            shared = true;
            if !a.intersects(b) {
                return Ok(false);
            }
        }
        if let (Some(a), Some(b)) = (&self.period, &other.period) {
            shared = true;
            if !a.overlaps(b) {
                return Ok(false);
            }
        }
        if !shared {
            return Err(TemporalError::Invalid("stboxes share no dimension".into()));
        }
        Ok(true)
    }

    /// Containment test (`@>`): `self` contains `other`.
    pub fn contains(&self, other: &STBox) -> TemporalResult<bool> {
        self.check_srid(other)?;
        if let Some(b) = &other.rect {
            match &self.rect {
                None => return Err(TemporalError::Invalid("container lacks space dim".into())),
                Some(a) => {
                    if !a.contains_rect(b) {
                        return Ok(false);
                    }
                }
            }
        }
        if let Some(b) = &other.period {
            match &self.period {
                None => return Err(TemporalError::Invalid("container lacks time dim".into())),
                Some(a) => {
                    if !a.contains_span(b) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Smallest box containing both operands.
    pub fn union(&self, other: &STBox) -> TemporalResult<STBox> {
        self.check_srid(other)?;
        let rect = match (&self.rect, &other.rect) {
            (Some(a), Some(b)) => Some(a.union(b)),
            (Some(a), None) | (None, Some(a)) => Some(*a),
            (None, None) => None,
        };
        let period = union_period(&self.period, &other.period);
        let srid = if self.srid != 0 { self.srid } else { other.srid };
        STBox::new(srid, rect, period)
    }

    fn check_srid(&self, other: &STBox) -> TemporalResult<()> {
        if self.srid != 0 && other.srid != 0 && self.srid != other.srid {
            return Err(TemporalError::Invalid(format!(
                "stbox SRIDs differ: {} vs {}",
                self.srid, other.srid
            )));
        }
        Ok(())
    }

    /// The (xmin, ymin, tmin, xmax, ymax, tmax) tuple for R-tree indexing;
    /// missing dimensions become the full axis.
    pub fn to_xyt(&self) -> ([f64; 3], [f64; 3]) {
        let (xmin, ymin, xmax, ymax) = match self.rect {
            Some(r) => (r.xmin, r.ymin, r.xmax, r.ymax),
            None => (f64::NEG_INFINITY, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY),
        };
        let (tmin, tmax) = match self.period {
            Some(p) => (p.lower.0 as f64, p.upper.0 as f64),
            None => (f64::NEG_INFINITY, f64::INFINITY),
        };
        ([xmin, ymin, tmin], [xmax, ymax, tmax])
    }

    /// Spatial-only geometry rendering of the box (a polygon, or point for
    /// degenerate boxes) — the `geometry(stbox)` cast from §4.4.
    pub fn to_geometry(&self) -> TemporalResult<Geometry> {
        let r = self
            .rect
            .ok_or_else(|| TemporalError::Invalid("stbox has no spatial dimension".into()))?;
        let g = if r.xmin == r.xmax && r.ymin == r.ymax {
            Geometry::from_point(Point::new(r.xmin, r.ymin))
        } else {
            Geometry::polygon(vec![vec![
                Point::new(r.xmin, r.ymin),
                Point::new(r.xmax, r.ymin),
                Point::new(r.xmax, r.ymax),
                Point::new(r.xmin, r.ymax),
                Point::new(r.xmin, r.ymin),
            ]])?
        };
        Ok(g.with_srid(self.srid))
    }
}

impl fmt::Display for STBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.srid != 0 {
            write!(f, "SRID={};", self.srid)?;
        }
        match (&self.rect, &self.period) {
            (Some(r), Some(p)) => write!(
                f,
                "STBOX XT((({},{}),({},{})),{})",
                fmt_coord(r.xmin, None),
                fmt_coord(r.ymin, None),
                fmt_coord(r.xmax, None),
                fmt_coord(r.ymax, None),
                p
            ),
            (Some(r), None) => write!(
                f,
                "STBOX X((({},{}),({},{})))",
                fmt_coord(r.xmin, None),
                fmt_coord(r.ymin, None),
                fmt_coord(r.xmax, None),
                fmt_coord(r.ymax, None),
            ),
            (None, Some(p)) => write!(f, "STBOX T({p})"),
            (None, None) => unreachable!("stbox always has a dimension"),
        }
    }
}

// ---------------------------------------------------------------- parsing

/// Parse an `stbox` literal:
/// `STBOX X((x1,y1),(x2,y2))`, `STBOX T([t1,t2])`,
/// `STBOX XT(((x1,y1),(x2,y2)),[t1,t2])`, with optional `SRID=n;` prefix.
pub fn parse_stbox(s: &str) -> TemporalResult<STBox> {
    let (body, srid) = split_srid_prefix(s.trim());
    let bad = || TemporalError::Parse(format!("invalid stbox {s:?}"));
    let upper = body.to_ascii_uppercase();
    if !upper.starts_with("STBOX") {
        return Err(bad());
    }
    let rest = body[5..].trim_start();
    let (flags, rest) = take_flags(rest);
    let inner = strip_parens(rest).ok_or_else(bad)?;
    match flags.as_str() {
        "X" => {
            // Accept both `STBOX X((x1,y1),(x2,y2))` (input form) and the
            // printed form with one extra layer of parentheses.
            let body = match strip_double_wrap(inner) {
                Some(unwrapped) => unwrapped,
                None => inner,
            };
            let (r, leftover) = parse_rect(body).ok_or_else(bad)?;
            if !leftover.trim().is_empty() {
                return Err(bad());
            }
            STBox::new(srid.unwrap_or(0), Some(r), None)
        }
        "T" => {
            let p: TstzSpan = parse_span(inner.trim())?;
            STBox::new(srid.unwrap_or(0), None, Some(p))
        }
        "XT" => {
            // ((x1,y1),(x2,y2)),[t1,t2] — the rect part is itself inside
            // one extra pair of parens.
            let inner = inner.trim();
            if !inner.starts_with('(') {
                return Err(bad());
            }
            let close = matching_paren(inner).ok_or_else(bad)?;
            let rect_body = &inner[1..close];
            let (r, leftover) = parse_rect(rect_body).ok_or_else(bad)?;
            if !leftover.trim().is_empty() {
                return Err(bad());
            }
            let after = inner[close + 1..].trim_start();
            let after = after.strip_prefix(',').ok_or_else(bad)?;
            let p: TstzSpan = parse_span(after.trim())?;
            STBox::new(srid.unwrap_or(0), Some(r), Some(p))
        }
        _ => Err(bad()),
    }
}

/// Parse a `tbox` literal:
/// `TBOXINT XT([1,5],[t1,t2])`, `TBOXFLOAT X([1.5,2.5])`, `TBOX T([t1,t2])`.
pub fn parse_tbox(s: &str) -> TemporalResult<TBox> {
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid tbox {s:?}"));
    let upper = s.to_ascii_uppercase();
    let (is_int, rest) = if upper.starts_with("TBOXINT") {
        (Some(true), s[7..].trim_start())
    } else if upper.starts_with("TBOXFLOAT") {
        (Some(false), s[9..].trim_start())
    } else if upper.starts_with("TBOX") {
        (None, s[4..].trim_start())
    } else {
        return Err(bad());
    };
    let (flags, rest) = take_flags(rest);
    let inner = strip_parens(rest).ok_or_else(bad)?;
    let make_span = |txt: &str| -> TemporalResult<TBoxSpan> {
        match is_int {
            Some(true) => Ok(TBoxSpan::Int(parse_span(txt)?)),
            _ => Ok(TBoxSpan::Float(parse_span(txt)?)),
        }
    };
    match flags.as_str() {
        "X" => TBox::new(Some(make_span(inner.trim())?), None),
        "T" => TBox::new(None, Some(parse_span(inner.trim())?)),
        "XT" => {
            let parts = crate::set::split_top_level(inner);
            if parts.len() != 2 {
                return Err(bad());
            }
            TBox::new(Some(make_span(parts[0])?), Some(parse_span(parts[1])?))
        }
        _ => Err(bad()),
    }
}

fn take_flags(s: &str) -> (String, &str) {
    let mut flags = String::new();
    let mut rest = s;
    for (i, c) in s.char_indices() {
        if c == 'X' || c == 'T' || c == 'x' || c == 't' {
            flags.push(c.to_ascii_uppercase());
        } else {
            rest = &s[i..];
            break;
        }
    }
    (flags, rest.trim_start())
}

/// If `s` is exactly one paren group wrapping the whole rect (printed
/// form), return its interior.
fn strip_double_wrap(s: &str) -> Option<&str> {
    let s = s.trim();
    if !s.starts_with('(') {
        return None;
    }
    let close = matching_paren(s)?;
    if close != s.len() - 1 {
        return None;
    }
    let interior = s[1..close].trim();
    // Interior must itself look like "(x,y),(x,y)" (starts with a group
    // that doesn't span everything).
    if interior.starts_with('(') && matching_paren(interior)? != interior.len() - 1 {
        Some(interior)
    } else {
        None
    }
}

fn strip_parens(s: &str) -> Option<&str> {
    let s = s.trim();
    if s.starts_with('(') && s.ends_with(')') {
        Some(&s[1..s.len() - 1])
    } else {
        None
    }
}

fn matching_paren(s: &str) -> Option<usize> {
    let mut depth = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse `(x1,y1),(x2,y2)` returning the rect and the unparsed remainder.
fn parse_rect(s: &str) -> Option<(Rect, &str)> {
    let s = s.trim();
    let (p1, rest) = parse_pair(s)?;
    let rest = rest.trim_start().strip_prefix(',')?;
    let (p2, rest) = parse_pair(rest.trim_start())?;
    Some((Rect::new(p1.0, p1.1, p2.0, p2.1), rest))
}

fn parse_pair(s: &str) -> Option<((f64, f64), &str)> {
    let s = s.trim_start();
    let inner_end = matching_paren(s)?;
    let body = &s[1..inner_end];
    let comma = body.find(',')?;
    let x: f64 = body[..comma].trim().parse().ok()?;
    let y: f64 = body[comma + 1..].trim().parse().ok()?;
    Some(((x, y), &s[inner_end + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::parse_interval;

    #[test]
    fn stbox_x_parse_print() {
        let b = parse_stbox("STBOX X((1.0,2.0),(3.0,4.0))").unwrap();
        assert_eq!(b.rect.unwrap(), Rect::new(1.0, 2.0, 3.0, 4.0));
        assert!(b.period.is_none());
        assert_eq!(b.to_string(), "STBOX X(((1,2),(3,4)))");
    }

    #[test]
    fn stbox_xt_matches_paper_example() {
        // §3.5: expandSpace(stbox 'STBOX XT(((1.0,2.0),(1.0,2.0)),
        // [2025-01-01,2025-01-01])', 2.0)
        let b = parse_stbox("STBOX XT(((1.0,2.0),(1.0,2.0)),[2025-01-01,2025-01-01])").unwrap();
        let e = b.expand_space(2.0).unwrap();
        assert_eq!(
            e.to_string(),
            "STBOX XT(((-1,0),(3,4)),[2025-01-01 00:00:00+00, 2025-01-01 00:00:00+00])"
        );
    }

    #[test]
    fn tbox_expand_time_matches_paper_example() {
        // §3.5: expandTime(tbox 'TBOXFLOAT XT([1.0,2.0],
        // [2025-01-01,2025-01-02])', interval '1 day')
        let b = parse_tbox("TBOXFLOAT XT([1.0,2.0],[2025-01-01,2025-01-02])").unwrap();
        let e = b.expand_time(&parse_interval("1 day").unwrap()).unwrap();
        assert_eq!(
            e.to_string(),
            "TBOXFLOAT XT([1, 2],[2024-12-31 00:00:00+00, 2025-01-03 00:00:00+00])"
        );
    }

    #[test]
    fn stbox_overlap_semantics() {
        let a = parse_stbox("STBOX X((0,0),(10,10))").unwrap();
        let b = parse_stbox("STBOX X((5,5),(15,15))").unwrap();
        let c = parse_stbox("STBOX X((11,11),(12,12))").unwrap();
        assert!(a.overlaps(&b).unwrap());
        assert!(!a.overlaps(&c).unwrap());
        // Time-only vs space-only share nothing → error.
        let t = parse_stbox("STBOX T([2025-01-01, 2025-01-02])").unwrap();
        assert!(a.overlaps(&t).is_err());
        // Paper §3.5 overlap example evaluates to false.
        let traj = parse_stbox("STBOX X((1,1),(3,3))").unwrap();
        let query = parse_stbox("STBOX X((10.0,20.0),(10.0,20.0))").unwrap();
        assert!(!traj.overlaps(&query).unwrap());
    }

    #[test]
    fn stbox_xt_overlap_requires_both_dims() {
        let a = parse_stbox("STBOX XT(((0,0),(10,10)),[2025-01-01, 2025-01-02])").unwrap();
        let same_space_diff_time =
            parse_stbox("STBOX XT(((0,0),(10,10)),[2025-02-01, 2025-02-02])").unwrap();
        assert!(!a.overlaps(&same_space_diff_time).unwrap());
        let both = parse_stbox("STBOX XT(((5,5),(6,6)),[2025-01-01, 2025-01-01])").unwrap();
        assert!(a.overlaps(&both).unwrap());
    }

    #[test]
    fn stbox_contains_union() {
        let a = parse_stbox("STBOX X((0,0),(10,10))").unwrap();
        let b = parse_stbox("STBOX X((2,2),(3,3))").unwrap();
        assert!(a.contains(&b).unwrap());
        assert!(!b.contains(&a).unwrap());
        let u = a.union(&b).unwrap();
        assert_eq!(u.rect.unwrap(), Rect::new(0.0, 0.0, 10.0, 10.0));
    }

    #[test]
    fn stbox_srid_handling() {
        let a = parse_stbox("SRID=4326;STBOX X((0,0),(1,1))").unwrap();
        assert_eq!(a.srid, 4326);
        assert!(a.to_string().starts_with("SRID=4326;STBOX X"));
        let b = parse_stbox("SRID=3857;STBOX X((0,0),(1,1))").unwrap();
        assert!(a.overlaps(&b).is_err());
    }

    #[test]
    fn stbox_from_geometry() {
        let g = mduck_geo::wkt::parse_wkt("SRID=7;LINESTRING(0 0, 4 2)").unwrap();
        let b = STBox::from_geometry(&g).unwrap();
        assert_eq!(b.srid, 7);
        assert_eq!(b.rect.unwrap(), Rect::new(0.0, 0.0, 4.0, 2.0));
        let poly = b.to_geometry().unwrap();
        assert_eq!(poly.srid, 7);
        assert!(mduck_geo::algorithms::geometry_covers_point(
            &poly,
            Point::new(2.0, 1.0)
        ));
    }

    #[test]
    fn stbox_to_xyt() {
        let b = parse_stbox("STBOX XT(((1,2),(3,4)),[2025-01-01, 2025-01-02])").unwrap();
        let (lo, hi) = b.to_xyt();
        assert_eq!(lo[0], 1.0);
        assert_eq!(hi[1], 4.0);
        assert!(lo[2] < hi[2]);
        let t = parse_stbox("STBOX T([2025-01-01, 2025-01-02])").unwrap();
        let (lo, _) = t.to_xyt();
        assert_eq!(lo[0], f64::NEG_INFINITY);
    }

    #[test]
    fn tbox_int_float_variants() {
        let b = parse_tbox("TBOXINT XT([1, 5],[2025-01-01, 2025-01-02])").unwrap();
        assert!(matches!(b.span, Some(TBoxSpan::Int(_))));
        assert_eq!(
            b.to_string(),
            "TBOXINT XT([1, 6),[2025-01-01 00:00:00+00, 2025-01-02 00:00:00+00])"
        );
        let t = parse_tbox("TBOX T([2025-01-01, 2025-01-02])").unwrap();
        assert!(t.span.is_none());
        assert!(parse_tbox("TBOX").is_err());
        assert!(parse_tbox("TBOXFLOAT XT([1,2])").is_err());
    }

    #[test]
    fn tbox_overlaps_contains() {
        let a = parse_tbox("TBOXFLOAT X([0, 10])").unwrap();
        let b = parse_tbox("TBOXFLOAT X([5, 15])").unwrap();
        assert!(a.overlaps(&b).unwrap());
        assert!(!a.contains(&b).unwrap());
        assert!(a.contains(&parse_tbox("TBOXFLOAT X([1, 2])").unwrap()).unwrap());
        let u = a.union(&b);
        assert_eq!(u.span.unwrap().as_float().upper, 15.0);
        let t = parse_tbox("TBOX T([2025-01-01, 2025-01-02])").unwrap();
        assert!(a.overlaps(&t).is_err());
    }
}
