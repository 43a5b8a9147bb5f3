//! The 2-D point / vector type used throughout the workspace.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A 2-D point (also used as a free vector where convenient).
///
/// Coordinates are `f64`; equality is exact bitwise-value equality, which is
/// what the temporal algebra needs to detect repeated instants. Use
/// [`Point::close_to`] for tolerance-based comparisons in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Create a point; panics in debug builds if a coordinate is NaN.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        debug_assert!(!x.is_nan() && !y.is_nan(), "NaN coordinate");
        Point { x, y }
    }

    /// The origin, `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        (*self - *other).norm()
    }

    /// Vector dot product.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the 3-D cross product (signed parallelogram area).
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean norm when treated as a vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Linear interpolation: `self + t * (other - self)`.
    #[inline]
    pub fn lerp(&self, other: &Point, t: f64) -> Point {
        Point::new(
            self.x + t * (other.x - self.x),
            self.y + t * (other.y - self.y),
        )
    }

    /// True when both coordinate deltas are within `eps`.
    #[inline]
    pub fn close_to(&self, other: &Point, eps: f64) -> bool {
        (self.x - other.x).abs() <= eps && (self.y - other.y).abs() <= eps
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned 2-D rectangle, the building block for geometry bounding
/// boxes and (with a time span) for `stbox`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub xmin: f64,
    pub ymin: f64,
    pub xmax: f64,
    pub ymax: f64,
}

impl Rect {
    /// Rectangle from two corner values; normalizes min/max ordering.
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Rect {
            xmin: x1.min(x2),
            ymin: y1.min(y2),
            xmax: x1.max(x2),
            ymax: y1.max(y2),
        }
    }

    /// Degenerate rectangle covering a single point.
    pub fn from_point(p: Point) -> Self {
        Rect { xmin: p.x, ymin: p.y, xmax: p.x, ymax: p.y }
    }

    /// Smallest rectangle containing both operands.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xmin: self.xmin.min(other.xmin),
            ymin: self.ymin.min(other.ymin),
            xmax: self.xmax.max(other.xmax),
            ymax: self.ymax.max(other.ymax),
        }
    }

    /// Grow to include a point.
    pub fn expand_to(&mut self, p: Point) {
        self.xmin = self.xmin.min(p.x);
        self.ymin = self.ymin.min(p.y);
        self.xmax = self.xmax.max(p.x);
        self.ymax = self.ymax.max(p.y);
    }

    /// Grow every side outward by `d` (negative shrinks).
    pub fn expand_by(&self, d: f64) -> Rect {
        Rect {
            xmin: self.xmin - d,
            ymin: self.ymin - d,
            xmax: self.xmax + d,
            ymax: self.ymax + d,
        }
    }

    /// Closed-interval overlap test.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xmin <= other.xmax
            && other.xmin <= self.xmax
            && self.ymin <= other.ymax
            && other.ymin <= self.ymax
    }

    /// True when `other` lies entirely inside `self` (closed).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.xmin <= other.xmin
            && self.xmax >= other.xmax
            && self.ymin <= other.ymin
            && self.ymax >= other.ymax
    }

    /// Point membership (closed).
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.xmin && p.x <= self.xmax && p.y >= self.ymin && p.y <= self.ymax
    }

    /// Width × height.
    pub fn area(&self) -> f64 {
        (self.xmax - self.xmin) * (self.ymax - self.ymin)
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new((self.xmin + self.xmax) * 0.5, (self.ymin + self.ymax) * 0.5)
    }

    /// Minimum distance between two rectangles (0 when they intersect).
    pub fn distance(&self, other: &Rect) -> f64 {
        let dx = (other.xmin - self.xmax).max(self.xmin - other.xmax).max(0.0);
        let dy = (other.ymin - self.ymax).max(self.ymin - other.ymax).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!((b - a).norm(), 5.0);
        assert_eq!(a + b, Point::new(5.0, 8.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(a.cross(b), 1.0 * 6.0 - 2.0 * 4.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -10.0);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        assert_eq!(a.lerp(&b, 0.5), Point::new(5.0, -5.0));
    }

    #[test]
    fn rect_normalizes_and_tests_overlap() {
        let r = Rect::new(5.0, 5.0, 1.0, 1.0);
        assert_eq!(r.xmin, 1.0);
        assert_eq!(r.ymax, 5.0);
        assert!(r.intersects(&Rect::new(4.0, 4.0, 9.0, 9.0)));
        assert!(!r.intersects(&Rect::new(6.0, 6.0, 9.0, 9.0)));
        // Touching edges count as intersecting (closed intervals).
        assert!(r.intersects(&Rect::new(5.0, 5.0, 9.0, 9.0)));
    }

    #[test]
    fn rect_contains_and_distance() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert!(r.contains_rect(&Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert!(!r.contains_rect(&Rect::new(1.0, 1.0, 5.0, 2.0)));
        assert!(r.contains_point(&Point::new(4.0, 0.0)));
        assert_eq!(r.distance(&Rect::new(7.0, 0.0, 8.0, 1.0)), 3.0);
        assert_eq!(r.distance(&Rect::new(2.0, 2.0, 3.0, 3.0)), 0.0);
        let d = r.distance(&Rect::new(7.0, 8.0, 9.0, 9.0));
        assert!((d - 5.0).abs() < 1e-12); // 3-4-5 triangle
    }

    #[test]
    fn rect_union_expand() {
        let mut r = Rect::from_point(Point::new(1.0, 1.0));
        r.expand_to(Point::new(-1.0, 3.0));
        assert_eq!(r, Rect::new(-1.0, 1.0, 1.0, 3.0));
        let u = r.union(&Rect::new(0.0, 0.0, 5.0, 0.5));
        assert_eq!(u, Rect::new(-1.0, 0.0, 5.0, 3.0));
        assert_eq!(r.expand_by(1.0), Rect::new(-2.0, 0.0, 2.0, 4.0));
    }
}
