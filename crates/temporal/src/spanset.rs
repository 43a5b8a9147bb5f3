//! The `spanset` template type: a normalized list of disjoint,
//! non-adjacent spans (`intspanset`, `floatspanset`, `datespanset`,
//! `tstzspanset`). `tstzspanset` is MobilityDB's *periodset* — the return
//! type of `whenTrue()` in the paper's Query 10.

use std::fmt;

use crate::error::{TemporalError, TemporalResult};
use crate::span::{parse_span, Span, SpanValue};
use crate::time::{Interval, TimestampTz};

/// A non-empty, normalized set of spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSet<T: SpanValue> {
    spans: Vec<Span<T>>,
}

/// `intspanset` / `bigintspanset`.
pub type IntSpanSet = SpanSet<i64>;
/// `floatspanset`.
pub type FloatSpanSet = SpanSet<f64>;
/// `datespanset`.
pub type DateSpanSet = SpanSet<crate::time::Date>;
/// `tstzspanset` (periodset).
pub type TstzSpanSet = SpanSet<TimestampTz>;

impl<T: SpanValue> SpanSet<T> {
    /// Build from arbitrary spans: sorts, merges overlapping/adjacent ones.
    pub fn new(mut spans: Vec<Span<T>>) -> TemporalResult<Self> {
        if spans.is_empty() {
            return Err(TemporalError::Invalid("spanset must be non-empty".into()));
        }
        spans.sort_by(|a, b| a.cmp_span(b));
        let mut merged: Vec<Span<T>> = Vec::with_capacity(spans.len());
        for s in spans {
            match merged.last_mut() {
                Some(last) => match last.union_if_touching(&s) {
                    Some(u) => *last = u,
                    None => merged.push(s),
                },
                None => merged.push(s),
            }
        }
        Ok(SpanSet { spans: merged })
    }

    /// A spanset holding one span.
    pub fn from_span(span: Span<T>) -> Self {
        SpanSet { spans: vec![span] }
    }

    pub fn spans(&self) -> &[Span<T>] {
        &self.spans
    }

    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Bounding span.
    pub fn to_span(&self) -> Span<T> {
        let first = &self.spans[0];
        let last = self.spans.last().unwrap();
        Span {
            lower: first.lower,
            upper: last.upper,
            lower_inc: first.lower_inc,
            upper_inc: last.upper_inc,
        }
    }

    pub fn contains_value(&self, v: T) -> bool {
        self.spans.iter().any(|s| s.contains_value(v))
    }

    pub fn overlaps_span(&self, other: &Span<T>) -> bool {
        self.spans.iter().any(|s| s.overlaps(other))
    }

    pub fn overlaps(&self, other: &SpanSet<T>) -> bool {
        // Merge-scan over both ordered lists.
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let a = &self.spans[i];
            let b = &other.spans[j];
            if a.overlaps(b) {
                return true;
            }
            if a.left_of(b) {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Union with another spanset.
    pub fn union(&self, other: &SpanSet<T>) -> SpanSet<T> {
        let mut spans = self.spans.clone();
        spans.extend(other.spans.iter().copied());
        SpanSet::new(spans).expect("non-empty")
    }

    /// Intersection (`None` when empty).
    pub fn intersection(&self, other: &SpanSet<T>) -> Option<SpanSet<T>> {
        let mut out = Vec::new();
        for a in &self.spans {
            for b in &other.spans {
                if let Some(ix) = a.intersection(b) {
                    out.push(ix);
                }
            }
        }
        SpanSet::new(out).ok()
    }

    /// Intersection with a single span (`None` when empty).
    pub fn intersection_span(&self, other: &Span<T>) -> Option<SpanSet<T>> {
        let out: Vec<Span<T>> =
            self.spans.iter().filter_map(|s| s.intersection(other)).collect();
        SpanSet::new(out).ok()
    }

    /// Difference (`None` when empty).
    pub fn minus(&self, other: &SpanSet<T>) -> Option<SpanSet<T>> {
        let mut current = self.spans.clone();
        for b in &other.spans {
            let mut next = Vec::with_capacity(current.len() + 1);
            for a in current {
                next.extend(a.minus(b));
            }
            current = next;
        }
        SpanSet::new(current).ok()
    }

    /// Total width (sum over member spans), as a double.
    pub fn width(&self) -> f64 {
        self.spans.iter().map(Span::width).sum()
    }

    /// Shift every span by `delta`.
    pub fn shift(&self, delta: T::Delta) -> SpanSet<T> {
        SpanSet { spans: self.spans.iter().map(|s| s.shift(delta)).collect() }
    }
}

impl TstzSpanSet {
    /// Sum of member durations (`duration(ps, false)` in MobilityDB).
    pub fn duration(&self) -> Interval {
        Interval::from_usecs(self.spans.iter().map(|s| s.upper.0 - s.lower.0).sum())
    }

    /// Duration of the bounding period (`duration(ps, true)`).
    pub fn duration_bound(&self) -> Interval {
        self.to_span().duration()
    }
}

impl<T: SpanValue> fmt::Display for SpanSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

/// Parse a spanset literal `{[a, b), [c, d]}`.
pub fn parse_spanset<T: SpanValue>(s: &str) -> TemporalResult<SpanSet<T>> {
    let s = s.trim();
    let bad = || TemporalError::Parse(format!("invalid spanset {s:?}"));
    if !s.starts_with('{') || !s.ends_with('}') {
        return Err(bad());
    }
    let inner = &s[1..s.len() - 1];
    let parts = crate::set::split_top_level(inner);
    if parts.is_empty() {
        return Err(bad());
    }
    let spans: TemporalResult<Vec<Span<T>>> = parts.iter().map(|p| parse_span(p)).collect();
    SpanSet::new(spans?)
}

/// Convenience alias for periods.
pub fn parse_periodset(s: &str) -> TemporalResult<TstzSpanSet> {
    parse_spanset(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fss(s: &str) -> FloatSpanSet {
        parse_spanset(s).unwrap()
    }

    #[test]
    fn normalization_merges() {
        let s = fss("{[3, 4], [1, 2], [2, 3]}");
        assert_eq!(s.num_spans(), 1);
        assert_eq!(s.to_string(), "{[1, 4]}");
        // Adjacent-but-open stays split.
        let s = fss("{[1, 2), (2, 3]}");
        assert_eq!(s.num_spans(), 2);
        // Adjacent closed/open merges.
        let s = fss("{[1, 2), [2, 3]}");
        assert_eq!(s.num_spans(), 1);
    }

    #[test]
    fn spanset_algebra() {
        let a = fss("{[0, 2], [4, 6]}");
        let b = fss("{[1, 5]}");
        assert!(a.overlaps(&b));
        assert_eq!(a.intersection(&b).unwrap().to_string(), "{[1, 2], [4, 5]}");
        assert_eq!(a.minus(&b).unwrap().to_string(), "{[0, 1), (5, 6]}");
        assert_eq!(a.union(&b).to_string(), "{[0, 6]}");
        assert!(a.minus(&a).is_none());
        assert!(!a.overlaps(&fss("{[2.5, 3.5]}")));
    }

    #[test]
    fn bounding_span_and_width() {
        let a = fss("{[0, 1], [9, 10]}");
        assert_eq!(a.to_span().to_string(), "[0, 10]");
        assert_eq!(a.width(), 2.0);
        assert!(a.contains_value(9.5));
        assert!(!a.contains_value(5.0));
    }

    #[test]
    fn periodset_durations() {
        let ps = parse_periodset("{[2025-01-01, 2025-01-02], [2025-01-05, 2025-01-06]}").unwrap();
        assert_eq!(ps.duration().to_string(), "2 days");
        assert_eq!(ps.duration_bound().to_string(), "5 days");
    }

    #[test]
    fn int_spanset_canonical() {
        let s: IntSpanSet = parse_spanset("{[1, 2], [3, 4]}").unwrap();
        // [1,2] = [1,3) and [3,4] = [3,5): adjacent after canonicalization.
        assert_eq!(s.num_spans(), 1);
        assert_eq!(s.to_string(), "{[1, 5)}");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_spanset::<f64>("{}").is_err());
        assert!(parse_spanset::<f64>("[1, 2]").is_err());
        assert!(parse_spanset::<f64>("{[2, 1]}").is_err());
    }
}
