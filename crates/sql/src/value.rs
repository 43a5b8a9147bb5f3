//! Runtime values and logical types.
//!
//! Extension types (the MobilityDuck UDTs — `stbox`, `tgeompoint`, `span`,
//! ...) are carried as [`ExtValue`]: a type name plus an `Arc`'d opaque
//! object implementing [`ExtObject`]. This mirrors the paper's design where
//! MEOS types live in DuckDB as aliased BLOBs: the logical type is opaque
//! to the engine, and only registered functions/casts can look inside.

use std::any::Any;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{SqlError, SqlResult};

/// A logical (column) type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LogicalType {
    /// The type of NULL literals; coerces to anything.
    Null,
    Bool,
    Int,
    Float,
    Text,
    Blob,
    Timestamp,
    Date,
    Interval,
    /// An extension type, identified by its canonical lower-case name
    /// (e.g. `"stbox"`, `"tgeompoint"`).
    Ext(Arc<str>),
    /// An untyped list (the `list()` aggregate's output).
    List,
    /// Registration wildcard: matches any argument type.
    Any,
}

impl LogicalType {
    pub fn ext(name: &str) -> LogicalType {
        LogicalType::Ext(Arc::from(name.to_ascii_lowercase().as_str()))
    }

    /// Can a value of `self` be used where `target` is expected without an
    /// explicit cast?
    pub fn coercible_to(&self, target: &LogicalType) -> bool {
        if self == target || matches!(target, LogicalType::Any) || matches!(self, LogicalType::Null)
        {
            return true;
        }
        matches!(
            (self, target),
            (LogicalType::Int, LogicalType::Float) | (LogicalType::Date, LogicalType::Timestamp)
        )
    }

    /// Display name (matches what `DESCRIBE` would print).
    pub fn name(&self) -> String {
        match self {
            LogicalType::Null => "NULL".into(),
            LogicalType::Bool => "BOOLEAN".into(),
            LogicalType::Int => "BIGINT".into(),
            LogicalType::Float => "DOUBLE".into(),
            LogicalType::Text => "VARCHAR".into(),
            LogicalType::Blob => "BLOB".into(),
            LogicalType::Timestamp => "TIMESTAMPTZ".into(),
            LogicalType::Date => "DATE".into(),
            LogicalType::Interval => "INTERVAL".into(),
            LogicalType::Ext(n) => n.to_uppercase(),
            LogicalType::List => "LIST".into(),
            LogicalType::Any => "ANY".into(),
        }
    }
}

/// Behaviour every extension object must provide so the engine can print,
/// hash, compare, and serialize it without knowing its structure.
pub trait ExtObject: Any + Send + Sync + fmt::Debug {
    fn as_any(&self) -> &dyn Any;
    /// Canonical lower-case type name (must match the registered alias).
    fn ext_type_name(&self) -> &str;
    /// Textual rendering used in query results.
    fn to_text(&self) -> String;
    /// Binary rendering (the BLOB the paper stores).
    fn to_bytes(&self) -> Vec<u8>;
    /// Equality against another object of the same extension type.
    fn eq_obj(&self, other: &dyn ExtObject) -> bool {
        self.to_bytes() == other.to_bytes()
    }
    /// Total order used by ORDER BY / MIN / MAX; defaults to byte order.
    fn cmp_obj(&self, other: &dyn ExtObject) -> Ordering {
        self.to_bytes().cmp(&other.to_bytes())
    }
    /// Approximate heap footprint, for per-query memory accounting.
    /// Must be O(1) — an estimate, not a serialization. Types whose size
    /// varies by orders of magnitude (temporal sequences) should
    /// override this; the default covers small fixed-shape objects.
    fn approx_bytes(&self) -> u64 {
        64
    }
}

/// A runtime extension value.
#[derive(Clone)]
pub struct ExtValue {
    pub obj: Arc<dyn ExtObject>,
}

impl ExtValue {
    pub fn new(obj: Arc<dyn ExtObject>) -> Self {
        ExtValue { obj }
    }

    pub fn type_name(&self) -> &str {
        self.obj.ext_type_name()
    }

    /// Downcast to a concrete extension payload.
    pub fn downcast<T: 'static>(&self) -> Option<&T> {
        self.obj.as_any().downcast_ref::<T>()
    }
}

impl fmt::Debug for ExtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ExtValue({}: {})", self.type_name(), self.obj.to_text())
    }
}

impl PartialEq for ExtValue {
    fn eq(&self, other: &Self) -> bool {
        self.type_name() == other.type_name() && self.obj.eq_obj(other.obj.as_ref())
    }
}

/// A runtime value.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    Blob(Arc<[u8]>),
    /// Microseconds since the Unix epoch, UTC.
    Timestamp(i64),
    /// Days since the Unix epoch.
    Date(i32),
    Interval {
        months: i32,
        days: i32,
        usecs: i64,
    },
    Ext(ExtValue),
    List(Arc<Vec<Value>>),
}

impl Value {
    pub fn text(s: impl AsRef<str>) -> Value {
        Value::Text(Arc::from(s.as_ref()))
    }

    pub fn blob(b: impl Into<Arc<[u8]>>) -> Value {
        Value::Blob(b.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The logical type of this value.
    pub fn logical_type(&self) -> LogicalType {
        match self {
            Value::Null => LogicalType::Null,
            Value::Bool(_) => LogicalType::Bool,
            Value::Int(_) => LogicalType::Int,
            Value::Float(_) => LogicalType::Float,
            Value::Text(_) => LogicalType::Text,
            Value::Blob(_) => LogicalType::Blob,
            Value::Timestamp(_) => LogicalType::Timestamp,
            Value::Date(_) => LogicalType::Date,
            Value::Interval { .. } => LogicalType::Interval,
            Value::Ext(e) => LogicalType::ext(e.type_name()),
            Value::List(_) => LogicalType::List,
        }
    }

    /// Approximate bytes this value occupies when materialized, for
    /// per-query memory accounting. Shared payloads (`Arc` text, blobs,
    /// lists) are counted at every reference: the accounting measures
    /// what operators materialize, not unique ownership.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Date(_) => 4,
            Value::Interval { .. } => 16,
            Value::Text(s) => 16 + s.len() as u64,
            Value::Blob(b) => 16 + b.len() as u64,
            Value::Ext(e) => 16 + e.obj.approx_bytes(),
            Value::List(l) => 24 + l.iter().map(Value::approx_bytes).sum::<u64>(),
        }
    }

    pub fn as_list(&self) -> SqlResult<&[Value]> {
        match self {
            Value::List(l) => Ok(l),
            other => Err(SqlError::execution(format!("expected LIST, got {other:?}"))),
        }
    }

    pub fn as_bool(&self) -> SqlResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(SqlError::execution(format!("expected BOOLEAN, got {other:?}"))),
        }
    }

    pub fn as_int(&self) -> SqlResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(SqlError::execution(format!("expected BIGINT, got {other:?}"))),
        }
    }

    pub fn as_float(&self) -> SqlResult<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(SqlError::execution(format!("expected DOUBLE, got {other:?}"))),
        }
    }

    pub fn as_text(&self) -> SqlResult<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(SqlError::execution(format!("expected VARCHAR, got {other:?}"))),
        }
    }

    pub fn as_timestamp(&self) -> SqlResult<i64> {
        match self {
            Value::Timestamp(t) => Ok(*t),
            Value::Date(d) => Ok(*d as i64 * 86_400_000_000),
            other => Err(SqlError::execution(format!("expected TIMESTAMPTZ, got {other:?}"))),
        }
    }

    pub fn as_ext(&self) -> SqlResult<&ExtValue> {
        match self {
            Value::Ext(e) => Ok(e),
            other => Err(SqlError::execution(format!("expected extension value, got {other:?}"))),
        }
    }

    /// Downcast an extension value's payload.
    pub fn ext_as<T: 'static>(&self) -> SqlResult<&T> {
        self.as_ext()?
            .downcast::<T>()
            .ok_or_else(|| SqlError::execution("extension value of unexpected concrete type"))
    }

    /// SQL equality (NULL ≠ anything). Numeric types compare across
    /// Int/Float.
    pub fn sql_eq(&self, other: &Value) -> bool {
        matches!(self.sql_cmp(other), Some(Ordering::Equal))
    }

    /// SQL ordering; `None` when either side is NULL or types are
    /// incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => a.partial_cmp(b),
            (Int(a), Float(b)) => (*a as f64).partial_cmp(b),
            (Float(a), Int(b)) => a.partial_cmp(&(*b as f64)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Date(a), Timestamp(b)) => Some((*a as i64 * 86_400_000_000).cmp(b)),
            (Timestamp(a), Date(b)) => Some(a.cmp(&(*b as i64 * 86_400_000_000))),
            (
                Interval { months: m1, days: d1, usecs: u1 },
                Interval { months: m2, days: d2, usecs: u2 },
            ) => {
                let a = (*m1 as i64 * 30 + *d1 as i64) * 86_400_000_000 + u1;
                let b = (*m2 as i64 * 30 + *d2 as i64) * 86_400_000_000 + u2;
                Some(a.cmp(&b))
            }
            (Ext(a), Ext(b)) if a.type_name() == b.type_name() => {
                Some(a.obj.cmp_obj(b.obj.as_ref()))
            }
            (List(_), List(_)) => None,
            _ => None,
        }
    }

    /// A stable hash key for GROUP BY / DISTINCT / hash joins. NULLs hash
    /// together (SQL DISTINCT semantics).
    pub fn hash_key(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Int(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                // Hash integral floats like ints so 1 and 1.0 join.
                if f.fract() == 0.0 && f.abs() < 9e15 {
                    out.push(2);
                    out.extend_from_slice(&(*f as i64).to_le_bytes());
                } else {
                    out.push(3);
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
            }
            Value::Text(s) => {
                out.push(4);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Blob(b) => {
                out.push(5);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Value::Timestamp(t) => {
                out.push(6);
                out.extend_from_slice(&t.to_le_bytes());
            }
            Value::Date(d) => {
                out.push(7);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Interval { months, days, usecs } => {
                out.push(8);
                out.extend_from_slice(&months.to_le_bytes());
                out.extend_from_slice(&days.to_le_bytes());
                out.extend_from_slice(&usecs.to_le_bytes());
            }
            Value::Ext(e) => {
                out.push(9);
                let bytes = e.obj.to_bytes();
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&bytes);
            }
            Value::List(items) => {
                out.push(10);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for v in items.iter() {
                    v.hash_key(out);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    /// Result rendering (Postgres-flavoured).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{}.0", *v as i64)
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Text(s) => write!(f, "{s}"),
            Value::Blob(b) => {
                write!(f, "\\x")?;
                for byte in b.iter().take(32) {
                    write!(f, "{byte:02x}")?;
                }
                if b.len() > 32 {
                    write!(f, "… ({} bytes)", b.len())?;
                }
                Ok(())
            }
            Value::Timestamp(t) => write!(f, "{}", fmt_timestamp(*t)),
            Value::Date(d) => write!(f, "{}", fmt_date(*d)),
            Value::Interval { months, days, usecs } => {
                write!(f, "{}", fmt_interval(*months, *days, *usecs))
            }
            Value::Ext(e) => write!(f, "{}", e.obj.to_text()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

// Minimal local timestamp formatting (the temporal crate owns the real
// implementation; this one keeps the sql crate dependency-free and is
// format-compatible).
fn fmt_timestamp(micros: i64) -> String {
    const USECS_PER_DAY: i64 = 86_400_000_000;
    let days = micros.div_euclid(USECS_PER_DAY);
    let tod = micros.rem_euclid(USECS_PER_DAY);
    let (y, m, d) = civil_from_days(days);
    let h = tod / 3_600_000_000;
    let mi = (tod / 60_000_000) % 60;
    let s = (tod / 1_000_000) % 60;
    let us = tod % 1_000_000;
    let mut out = format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}");
    if us != 0 {
        let frac = format!("{us:06}");
        out.push('.');
        out.push_str(frac.trim_end_matches('0'));
    }
    out.push_str("+00");
    out
}

fn fmt_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

fn fmt_interval(months: i32, days: i32, usecs: i64) -> String {
    // Justify: fold whole days out of the microsecond part (matches the
    // temporal crate's printer, so `interval '2 days'` and a 48-hour
    // difference render identically).
    const USECS_PER_DAY: i64 = 86_400_000_000;
    let extra_days = usecs.div_euclid(USECS_PER_DAY);
    let days = days + extra_days as i32;
    let usecs = usecs.rem_euclid(USECS_PER_DAY);
    let mut parts: Vec<String> = Vec::new();
    let years = months / 12;
    let months = months % 12;
    if years != 0 {
        parts.push(format!("{years} year{}", if years.abs() == 1 { "" } else { "s" }));
    }
    if months != 0 {
        parts.push(format!("{months} mon{}", if months.abs() == 1 { "" } else { "s" }));
    }
    if days != 0 {
        parts.push(format!("{days} day{}", if days.abs() == 1 { "" } else { "s" }));
    }
    if usecs != 0 || parts.is_empty() {
        let h = usecs / 3_600_000_000;
        let mi = (usecs / 60_000_000) % 60;
        let s = (usecs / 1_000_000) % 60;
        let frac = usecs % 1_000_000;
        let mut t = format!("{h:02}:{mi:02}:{s:02}");
        if frac != 0 {
            let fs = format!("{frac:06}");
            t.push('.');
            t.push_str(fs.trim_end_matches('0'));
        }
        parts.push(t);
    }
    parts.join(" ")
}

pub(crate) fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_types() {
        assert_eq!(Value::Int(1).logical_type(), LogicalType::Int);
        assert!(LogicalType::Int.coercible_to(&LogicalType::Float));
        assert!(!LogicalType::Float.coercible_to(&LogicalType::Int));
        assert!(LogicalType::Null.coercible_to(&LogicalType::Text));
        assert!(LogicalType::ext("STBOX") == LogicalType::ext("stbox"));
    }

    #[test]
    fn sql_cmp_promotes_numerics() {
        assert!(Value::Int(1).sql_eq(&Value::Float(1.0)));
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Greater)
        );
        assert!(Value::Null.sql_cmp(&Value::Int(1)).is_none());
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn hash_key_joins_int_and_float() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(7).hash_key(&mut a);
        Value::Float(7.0).hash_key(&mut b);
        assert_eq!(a, b);
        let mut c = Vec::new();
        Value::Float(7.5).hash_key(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::text("hi").to_string(), "hi");
        assert_eq!(Value::Timestamp(0).to_string(), "1970-01-01 00:00:00+00");
        assert_eq!(Value::Date(20_089).to_string(), "2025-01-01");
    }

    #[test]
    fn date_timestamp_cross_compare() {
        let d = Value::Date(20_089);
        let t = Value::Timestamp(20_089 * 86_400_000_000);
        assert!(d.sql_eq(&t));
    }
}
