//! Temporal types: `tbool`, `tint`, `tfloat`, `ttext`, `tgeompoint`.
//!
//! A temporal value is a function from time to a base type, represented by
//! one of three subtypes (as in MEOS):
//!
//! * **instant** — a single `value@timestamp`,
//! * **sequence** — an interval of time with values at instants and an
//!   interpolation (discrete, step, or linear) between them,
//! * **sequence set** — a set of disjoint sequences, representing the
//!   "temporal gaps" the paper highlights (§2.2).

mod agg;
mod boolops;
mod parse;
mod restrict;
mod spatial;
mod sync;

pub use agg::*;
pub use boolops::*;
pub use parse::*;
pub use restrict::*;
pub use spatial::*;
pub use sync::*;

use std::borrow::Cow;
use std::fmt;

use mduck_geo::point::Point;

use crate::error::{TemporalError, TemporalResult};
use crate::span::{Span, TstzSpan};
use crate::spanset::TstzSpanSet;
use crate::time::{Interval, TimestampTz};

/// Interpolation behaviour between the instants of a sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interp {
    /// Isolated instants: the value is defined only *at* the instants.
    Discrete,
    /// The value holds constant until the next instant.
    Step,
    /// The value moves linearly between instants.
    Linear,
}

/// A base type over which temporal types can be built.
pub trait TValue: Clone + PartialEq + fmt::Debug {
    /// Whether linear interpolation is meaningful (floats, points).
    const CAN_LINEAR: bool;
    /// The interpolation assumed when a continuous literal doesn't say.
    fn default_interp() -> Interp {
        if Self::CAN_LINEAR {
            Interp::Linear
        } else {
            Interp::Step
        }
    }
    /// Interpolate between two values (`frac` in [0, 1]). Step types return
    /// the first value.
    fn lerp(a: &Self, b: &Self, frac: f64) -> Self;
    /// Parse a value token from a literal (everything before the `@`).
    fn parse_tvalue(s: &str) -> TemporalResult<Self>;
    /// Print a value into a literal.
    fn write_tvalue(&self, out: &mut String);
}

impl TValue for bool {
    const CAN_LINEAR: bool = false;
    fn lerp(a: &Self, _b: &Self, _frac: f64) -> Self {
        *a
    }
    fn parse_tvalue(s: &str) -> TemporalResult<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "t" | "true" => Ok(true),
            "f" | "false" => Ok(false),
            other => Err(TemporalError::Parse(format!("invalid boolean {other:?}"))),
        }
    }
    fn write_tvalue(&self, out: &mut String) {
        out.push(if *self { 't' } else { 'f' });
    }
}

impl TValue for i64 {
    const CAN_LINEAR: bool = false;
    fn lerp(a: &Self, _b: &Self, _frac: f64) -> Self {
        *a
    }
    fn parse_tvalue(s: &str) -> TemporalResult<Self> {
        s.trim()
            .parse()
            .map_err(|_| TemporalError::Parse(format!("invalid integer {s:?}")))
    }
    fn write_tvalue(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl TValue for f64 {
    const CAN_LINEAR: bool = true;
    fn lerp(a: &Self, b: &Self, frac: f64) -> Self {
        a + (b - a) * frac
    }
    fn parse_tvalue(s: &str) -> TemporalResult<Self> {
        let v: f64 = s
            .trim()
            .parse()
            .map_err(|_| TemporalError::Parse(format!("invalid float {s:?}")))?;
        if v.is_nan() {
            return Err(TemporalError::Parse("NaN is not a valid temporal value".into()));
        }
        Ok(v)
    }
    fn write_tvalue(&self, out: &mut String) {
        out.push_str(&mduck_geo::wkt::fmt_coord(*self, None));
    }
}

impl TValue for String {
    const CAN_LINEAR: bool = false;
    fn lerp(a: &Self, _b: &Self, _frac: f64) -> Self {
        a.clone()
    }
    fn parse_tvalue(s: &str) -> TemporalResult<Self> {
        let s = s.trim();
        if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
            Ok(s[1..s.len() - 1].replace("\\\"", "\""))
        } else {
            Ok(s.to_string())
        }
    }
    fn write_tvalue(&self, out: &mut String) {
        out.push('"');
        out.push_str(&self.replace('"', "\\\""));
        out.push('"');
    }
}

impl TValue for Point {
    const CAN_LINEAR: bool = true;
    fn lerp(a: &Self, b: &Self, frac: f64) -> Self {
        a.lerp(b, frac)
    }
    fn parse_tvalue(s: &str) -> TemporalResult<Self> {
        let g = mduck_geo::wkt::parse_wkt(s.trim())?;
        g.as_point()
            .ok_or_else(|| TemporalError::Parse(format!("expected a point, got {s:?}")))
    }
    fn write_tvalue(&self, out: &mut String) {
        out.push_str("POINT(");
        out.push_str(&mduck_geo::wkt::fmt_coord(self.x, None));
        out.push(' ');
        out.push_str(&mduck_geo::wkt::fmt_coord(self.y, None));
        out.push(')');
    }
}

/// A single `value@timestamp`.
#[derive(Debug, Clone, PartialEq)]
pub struct TInstant<V: TValue> {
    pub value: V,
    pub t: TimestampTz,
}

impl<V: TValue> TInstant<V> {
    pub fn new(value: V, t: TimestampTz) -> Self {
        TInstant { value, t }
    }
}

/// A sequence of instants over a time interval with an interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct TSequence<V: TValue> {
    instants: Vec<TInstant<V>>,
    pub lower_inc: bool,
    pub upper_inc: bool,
    pub interp: Interp,
}

impl<V: TValue> TSequence<V> {
    /// Build with validation: non-empty, strictly increasing timestamps,
    /// linear only when the base type supports it, and MEOS's bound rules
    /// (a single-instant continuous sequence is `[v@t]`; discrete
    /// sequences are always closed).
    pub fn new(
        instants: Vec<TInstant<V>>,
        lower_inc: bool,
        upper_inc: bool,
        interp: Interp,
    ) -> TemporalResult<Self> {
        if instants.is_empty() {
            return Err(TemporalError::Invalid("sequence needs at least one instant".into()));
        }
        if interp == Interp::Linear && !V::CAN_LINEAR {
            return Err(TemporalError::Invalid(
                "linear interpolation is not defined for this base type".into(),
            ));
        }
        for w in instants.windows(2) {
            if w[0].t >= w[1].t {
                return Err(TemporalError::Invalid(format!(
                    "instants must be strictly increasing ({} then {})",
                    w[0].t, w[1].t
                )));
            }
        }
        let (lower_inc, upper_inc) = if interp == Interp::Discrete || instants.len() == 1 {
            (true, true)
        } else {
            (lower_inc, upper_inc)
        };
        if instants.len() > 1 && !lower_inc && !upper_inc && instants.len() == 2 {
            // fine: (v1@t1, v2@t2) is a valid open sequence
        }
        Ok(TSequence { instants, lower_inc, upper_inc, interp })
    }

    /// A discrete sequence from instants.
    pub fn discrete(instants: Vec<TInstant<V>>) -> TemporalResult<Self> {
        TSequence::new(instants, true, true, Interp::Discrete)
    }

    pub fn instants(&self) -> &[TInstant<V>] {
        &self.instants
    }

    pub fn num_instants(&self) -> usize {
        self.instants.len()
    }

    pub fn start(&self) -> &TInstant<V> {
        &self.instants[0]
    }

    pub fn end(&self) -> &TInstant<V> {
        self.instants.last().unwrap()
    }

    /// Bounding period of the sequence.
    pub fn period(&self) -> TstzSpan {
        Span {
            lower: self.start().t,
            upper: self.end().t,
            lower_inc: self.lower_inc,
            upper_inc: self.upper_inc || self.instants.len() == 1,
        }
    }

    /// Value at `t`, honouring interpolation and bound inclusivity.
    pub fn value_at(&self, t: TimestampTz) -> Option<V> {
        if self.interp == Interp::Discrete {
            return self
                .instants
                .iter()
                .find(|i| i.t == t)
                .map(|i| i.value.clone());
        }
        if !self.period().contains_value(t) {
            return None;
        }
        match self.instants.binary_search_by(|i| i.t.cmp(&t)) {
            Ok(idx) => Some(self.instants[idx].value.clone()),
            Err(idx) => {
                // t strictly between instants idx-1 and idx.
                let a = &self.instants[idx - 1];
                let b = &self.instants[idx];
                match self.interp {
                    Interp::Step => Some(a.value.clone()),
                    Interp::Linear => {
                        let frac = (t.0 - a.t.0) as f64 / (b.t.0 - a.t.0) as f64;
                        Some(V::lerp(&a.value, &b.value, frac))
                    }
                    Interp::Discrete => unreachable!(),
                }
            }
        }
    }
}

/// A set of disjoint sequences with a common interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct TSequenceSet<V: TValue> {
    sequences: Vec<TSequence<V>>,
}

impl<V: TValue> TSequenceSet<V> {
    /// Build with validation: non-empty, time-ordered, non-overlapping,
    /// uniform non-discrete interpolation.
    pub fn new(sequences: Vec<TSequence<V>>) -> TemporalResult<Self> {
        if sequences.is_empty() {
            return Err(TemporalError::Invalid("sequence set needs a sequence".into()));
        }
        let interp = sequences[0].interp;
        if interp == Interp::Discrete {
            return Err(TemporalError::Invalid(
                "sequence sets cannot hold discrete sequences".into(),
            ));
        }
        for s in &sequences {
            if s.interp != interp {
                return Err(TemporalError::Invalid("mixed interpolations in set".into()));
            }
        }
        for w in sequences.windows(2) {
            let a = w[0].period();
            let b = w[1].period();
            if !a.left_of(&b) {
                return Err(TemporalError::Invalid(
                    "sequences must be ordered and disjoint".into(),
                ));
            }
        }
        Ok(TSequenceSet { sequences })
    }

    pub fn sequences(&self) -> &[TSequence<V>] {
        &self.sequences
    }

    pub fn interp(&self) -> Interp {
        self.sequences[0].interp
    }
}

/// A temporal value of any subtype.
#[derive(Debug, Clone, PartialEq)]
pub enum Temporal<V: TValue> {
    Instant(TInstant<V>),
    Sequence(TSequence<V>),
    SequenceSet(TSequenceSet<V>),
}

/// `tbool`.
pub type TBool = Temporal<bool>;
/// `tint` (step interpolation).
pub type TInt = Temporal<i64>;
/// `tfloat`.
pub type TFloat = Temporal<f64>;
/// `ttext`.
pub type TText = Temporal<String>;

impl<V: TValue> Temporal<V> {
    /// All instants in temporal order.
    pub fn instants(&self) -> impl Iterator<Item = &TInstant<V>> + Clone {
        let (instant, seqs) = self.parts();
        instant.into_iter().chain(seqs.iter().flat_map(|s| s.instants.iter()))
    }

    /// The value as its lone instant or its sequences, both borrowed.
    pub(crate) fn parts(&self) -> (Option<&TInstant<V>>, &[TSequence<V>]) {
        match self {
            Temporal::Instant(i) => (Some(i), &[]),
            Temporal::Sequence(s) => (None, std::slice::from_ref(s)),
            Temporal::SequenceSet(ss) => (None, &ss.sequences),
        }
    }

    pub fn num_instants(&self) -> usize {
        match self {
            Temporal::Instant(_) => 1,
            Temporal::Sequence(s) => s.num_instants(),
            Temporal::SequenceSet(ss) => ss.sequences.iter().map(TSequence::num_instants).sum(),
        }
    }

    /// The sequences of the value, borrowed; only an instant is copied,
    /// into a one-instant discrete sequence (used by generic algorithms).
    pub fn as_sequences(&self) -> Cow<'_, [TSequence<V>]> {
        match self.parts() {
            (Some(i), _) => Cow::Owned(
                vec![TSequence::discrete(vec![i.clone()]).expect("valid singleton")]
            ),
            (None, seqs) => Cow::Borrowed(seqs),
        }
    }

    /// The interpolation of the value.
    pub fn interp(&self) -> Interp {
        match self {
            Temporal::Instant(_) => Interp::Discrete,
            Temporal::Sequence(s) => s.interp,
            Temporal::SequenceSet(ss) => ss.interp(),
        }
    }

    pub fn start_timestamp(&self) -> TimestampTz {
        match self {
            Temporal::Instant(i) => i.t,
            Temporal::Sequence(s) => s.start().t,
            Temporal::SequenceSet(ss) => ss.sequences[0].start().t,
        }
    }

    pub fn end_timestamp(&self) -> TimestampTz {
        match self {
            Temporal::Instant(i) => i.t,
            Temporal::Sequence(s) => s.end().t,
            Temporal::SequenceSet(ss) => ss.sequences.last().unwrap().end().t,
        }
    }

    pub fn start_value(&self) -> V {
        match self {
            Temporal::Instant(i) => i.value.clone(),
            Temporal::Sequence(s) => s.start().value.clone(),
            Temporal::SequenceSet(ss) => ss.sequences[0].start().value.clone(),
        }
    }

    pub fn end_value(&self) -> V {
        match self {
            Temporal::Instant(i) => i.value.clone(),
            Temporal::Sequence(s) => s.end().value.clone(),
            Temporal::SequenceSet(ss) => ss.sequences.last().unwrap().end().value.clone(),
        }
    }

    /// All distinct timestamps.
    pub fn timestamps(&self) -> Vec<TimestampTz> {
        self.instants().map(|i| i.t).collect()
    }

    /// Bounding period (`::tstzspan` in the paper's Query 3).
    pub fn timespan(&self) -> TstzSpan {
        match self {
            Temporal::Instant(i) => TstzSpan::singleton(i.t),
            Temporal::Sequence(s) => {
                if s.interp == Interp::Discrete {
                    Span {
                        lower: s.start().t,
                        upper: s.end().t,
                        lower_inc: true,
                        upper_inc: true,
                    }
                } else {
                    s.period()
                }
            }
            Temporal::SequenceSet(ss) => {
                let first = ss.sequences[0].period();
                let last = ss.sequences.last().unwrap().period();
                Span {
                    lower: first.lower,
                    upper: last.upper,
                    lower_inc: first.lower_inc,
                    upper_inc: last.upper_inc,
                }
            }
        }
    }

    /// The time over which the value is defined, as a period set. Discrete
    /// subtypes yield degenerate singleton periods.
    pub fn time(&self) -> TstzSpanSet {
        let spans: Vec<TstzSpan> = match self {
            Temporal::Instant(i) => vec![TstzSpan::singleton(i.t)],
            Temporal::Sequence(s) => {
                if s.interp == Interp::Discrete {
                    s.instants.iter().map(|i| TstzSpan::singleton(i.t)).collect()
                } else {
                    vec![s.period()]
                }
            }
            Temporal::SequenceSet(ss) => ss.sequences.iter().map(TSequence::period).collect(),
        };
        TstzSpanSet::new(spans).expect("non-empty by construction")
    }

    /// `duration(temp, boundspan)`: with `boundspan = true` the length of
    /// the bounding period, otherwise the summed duration over which the
    /// value is actually defined (0 for discrete subtypes).
    pub fn duration(&self, boundspan: bool) -> Interval {
        if boundspan {
            return Interval::from_usecs(self.end_timestamp().0 - self.start_timestamp().0);
        }
        match self {
            Temporal::Instant(_) => Interval::ZERO,
            Temporal::Sequence(s) => {
                if s.interp == Interp::Discrete {
                    Interval::ZERO
                } else {
                    Interval::from_usecs(s.end().t.0 - s.start().t.0)
                }
            }
            Temporal::SequenceSet(ss) => Interval::from_usecs(
                ss.sequences.iter().map(|s| s.end().t.0 - s.start().t.0).sum(),
            ),
        }
    }

    /// Value at a timestamp (`valueAtTimestamp`), `None` outside the
    /// definition time.
    pub fn value_at(&self, t: TimestampTz) -> Option<V> {
        match self {
            Temporal::Instant(i) => (i.t == t).then(|| i.value.clone()),
            Temporal::Sequence(s) => s.value_at(t),
            Temporal::SequenceSet(ss) => {
                ss.sequences.iter().find_map(|s| s.value_at(t))
            }
        }
    }

    /// Shift the whole value in time.
    pub fn shift_time(&self, delta: &Interval) -> Temporal<V> {
        let shift_seq = |s: &TSequence<V>| TSequence {
            instants: s
                .instants
                .iter()
                .map(|i| TInstant::new(i.value.clone(), i.t.add_interval(delta)))
                .collect(),
            lower_inc: s.lower_inc,
            upper_inc: s.upper_inc,
            interp: s.interp,
        };
        match self {
            Temporal::Instant(i) => {
                Temporal::Instant(TInstant::new(i.value.clone(), i.t.add_interval(delta)))
            }
            Temporal::Sequence(s) => Temporal::Sequence(shift_seq(s)),
            Temporal::SequenceSet(ss) => Temporal::SequenceSet(TSequenceSet {
                sequences: ss.sequences.iter().map(shift_seq).collect(),
            }),
        }
    }

    /// All values at instants (no interpolation applied).
    pub fn values(&self) -> Vec<V> {
        self.instants().map(|i| i.value.clone()).collect()
    }

    /// Build the canonical enum from a list of sequences (unwraps
    /// singletons).
    pub fn from_sequences(mut seqs: Vec<TSequence<V>>) -> TemporalResult<Temporal<V>> {
        match seqs.len() {
            0 => Err(TemporalError::Invalid("no sequences".into())),
            1 => {
                let s = seqs.pop().unwrap();
                if s.num_instants() == 1 && s.interp == Interp::Discrete {
                    Ok(Temporal::Instant(s.instants.into_iter().next().unwrap()))
                } else {
                    Ok(Temporal::Sequence(s))
                }
            }
            _ => {
                if seqs[0].interp == Interp::Discrete {
                    // Merge discrete sequences into one.
                    let mut instants: Vec<TInstant<V>> =
                        seqs.into_iter().flat_map(|s| s.instants).collect();
                    instants.sort_by_key(|i| i.t);
                    instants.dedup_by(|a, b| a.t == b.t);
                    Ok(Temporal::Sequence(TSequence::discrete(instants)?))
                } else {
                    Ok(Temporal::SequenceSet(TSequenceSet::new(seqs)?))
                }
            }
        }
    }
}

impl<V: TValue + PartialOrd> Temporal<V> {
    /// Minimum value over all instants. For linear interpolation the
    /// extremes are always attained at instants, so this is exact.
    pub fn min_value(&self) -> V {
        self.values()
            .into_iter()
            .min_by(|a, b| a.partial_cmp(b).expect("unordered values"))
            .expect("non-empty")
    }

    pub fn max_value(&self) -> V {
        self.values()
            .into_iter()
            .max_by(|a, b| a.partial_cmp(b).expect("unordered values"))
            .expect("non-empty")
    }
}

impl<V: TValue> Temporal<V> {
    /// Ever-equality: does the value ever take `v`? For linear
    /// interpolation only instants are checked here; continuous
    /// pass-through is handled by the typed `at_value` implementations.
    pub fn ever_eq_at_instants(&self, v: &V) -> bool {
        self.instants().any(|i| &i.value == v)
    }

    /// Always-equality at instants.
    pub fn always_eq_at_instants(&self, v: &V) -> bool {
        self.instants().all(|i| &i.value == v)
    }
}

// ---------------------------------------------------------------- display

fn write_instant<V: TValue>(out: &mut String, i: &TInstant<V>) {
    i.value.write_tvalue(out);
    out.push('@');
    out.push_str(&i.t.to_string());
}

fn write_sequence<V: TValue>(out: &mut String, s: &TSequence<V>) {
    let (open, close) = match s.interp {
        Interp::Discrete => ('{', '}'),
        _ => (if s.lower_inc { '[' } else { '(' }, if s.upper_inc { ']' } else { ')' }),
    };
    out.push(open);
    for (idx, i) in s.instants.iter().enumerate() {
        if idx > 0 {
            out.push_str(", ");
        }
        write_instant(out, i);
    }
    out.push(close);
}

impl<V: TValue> fmt::Display for Temporal<V> {
    /// MobilityDB literal syntax. A non-default interpolation on a
    /// continuous subtype is printed as an `Interp=Step;` prefix.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        match self {
            Temporal::Instant(i) => write_instant(&mut s, i),
            Temporal::Sequence(seq) => {
                if seq.interp == Interp::Step && V::default_interp() == Interp::Linear {
                    s.push_str("Interp=Step;");
                }
                write_sequence(&mut s, seq);
            }
            Temporal::SequenceSet(ss) => {
                if ss.interp() == Interp::Step && V::default_interp() == Interp::Linear {
                    s.push_str("Interp=Step;");
                }
                s.push('{');
                for (idx, seq) in ss.sequences.iter().enumerate() {
                    if idx > 0 {
                        s.push_str(", ");
                    }
                    write_sequence(&mut s, seq);
                }
                s.push('}');
            }
        }
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::parse_timestamp;

    fn ts(s: &str) -> TimestampTz {
        parse_timestamp(s).unwrap()
    }

    #[test]
    fn sequence_validation() {
        let i1 = TInstant::new(1.0, ts("2025-01-01"));
        let i2 = TInstant::new(2.0, ts("2025-01-02"));
        assert!(TSequence::new(vec![i1.clone(), i2.clone()], true, true, Interp::Linear).is_ok());
        assert!(TSequence::new(vec![i2.clone(), i1.clone()], true, true, Interp::Linear).is_err());
        assert!(TSequence::<f64>::new(vec![], true, true, Interp::Linear).is_err());
        // Linear rejected for step-only base types.
        let b1 = TInstant::new(true, ts("2025-01-01"));
        let b2 = TInstant::new(false, ts("2025-01-02"));
        assert!(TSequence::new(vec![b1, b2], true, true, Interp::Linear).is_err());
    }

    #[test]
    fn value_at_linear_and_step() {
        let seq = TSequence::new(
            vec![
                TInstant::new(0.0, ts("2025-01-01")),
                TInstant::new(10.0, ts("2025-01-02")),
            ],
            true,
            true,
            Interp::Linear,
        )
        .unwrap();
        assert_eq!(seq.value_at(ts("2025-01-01 12:00:00")), Some(5.0));
        assert_eq!(seq.value_at(ts("2025-01-01")), Some(0.0));
        assert_eq!(seq.value_at(ts("2025-01-03")), None);

        let step = TSequence::new(seq.instants().to_vec(), true, true, Interp::Step).unwrap();
        assert_eq!(step.value_at(ts("2025-01-01 12:00:00")), Some(0.0));
        assert_eq!(step.value_at(ts("2025-01-02")), Some(10.0));
    }

    #[test]
    fn open_bounds_respected() {
        let seq = TSequence::new(
            vec![
                TInstant::new(0.0, ts("2025-01-01")),
                TInstant::new(10.0, ts("2025-01-02")),
            ],
            false,
            false,
            Interp::Linear,
        )
        .unwrap();
        assert_eq!(seq.value_at(ts("2025-01-01")), None);
        assert_eq!(seq.value_at(ts("2025-01-02")), None);
        assert_eq!(seq.value_at(ts("2025-01-01 12:00:00")), Some(5.0));
    }

    #[test]
    fn sequence_set_validation() {
        let s1 = TSequence::new(
            vec![
                TInstant::new(1.0, ts("2025-01-01")),
                TInstant::new(2.0, ts("2025-01-02")),
            ],
            true,
            true,
            Interp::Linear,
        )
        .unwrap();
        let s2 = TSequence::new(
            vec![
                TInstant::new(3.0, ts("2025-01-03")),
                TInstant::new(4.0, ts("2025-01-04")),
            ],
            true,
            true,
            Interp::Linear,
        )
        .unwrap();
        assert!(TSequenceSet::new(vec![s1.clone(), s2.clone()]).is_ok());
        assert!(TSequenceSet::new(vec![s2, s1]).is_err()); // out of order
    }

    #[test]
    fn duration_semantics() {
        // Discrete: bounding-span duration 2 days, plain duration zero.
        let d = TSequence::discrete(vec![
            TInstant::new(1i64, ts("2025-01-01")),
            TInstant::new(2, ts("2025-01-02")),
            TInstant::new(1, ts("2025-01-03")),
        ])
        .unwrap();
        let t = Temporal::Sequence(d);
        assert_eq!(t.duration(true).to_string(), "2 days");
        assert_eq!(t.duration(false).to_string(), "00:00:00");
    }

    #[test]
    fn timespan_and_time() {
        let s1 = TSequence::new(
            vec![
                TInstant::new(1.0, ts("2025-01-01")),
                TInstant::new(2.0, ts("2025-01-02")),
            ],
            true,
            true,
            Interp::Linear,
        )
        .unwrap();
        let s2 = TSequence::new(
            vec![
                TInstant::new(3.0, ts("2025-01-04")),
                TInstant::new(4.0, ts("2025-01-05")),
            ],
            true,
            true,
            Interp::Linear,
        )
        .unwrap();
        let t = Temporal::SequenceSet(TSequenceSet::new(vec![s1, s2]).unwrap());
        assert_eq!(t.timespan().duration().to_string(), "4 days");
        assert_eq!(t.time().num_spans(), 2);
        assert_eq!(t.duration(false).to_string(), "2 days");
    }

    #[test]
    fn min_max_values() {
        let t: TFloat = Temporal::Sequence(
            TSequence::new(
                vec![
                    TInstant::new(5.0, ts("2025-01-01")),
                    TInstant::new(-1.0, ts("2025-01-02")),
                    TInstant::new(3.0, ts("2025-01-03")),
                ],
                true,
                true,
                Interp::Linear,
            )
            .unwrap(),
        );
        assert_eq!(t.min_value(), -1.0);
        assert_eq!(t.max_value(), 5.0);
        assert_eq!(t.start_value(), 5.0);
        assert_eq!(t.end_value(), 3.0);
    }

    #[test]
    fn shift_time_moves_everything() {
        let t: TInt = Temporal::Instant(TInstant::new(7, ts("2025-01-01")));
        let s = t.shift_time(&Interval::from_days(3));
        assert_eq!(s.start_timestamp(), ts("2025-01-04"));
        assert_eq!(s.value_at(ts("2025-01-04")), Some(7));
    }
}
