//! Extension type wrappers: every MEOS type exposed to the engines as a
//! user-defined type (the paper's §3.3 — MEOS types live in DuckDB as
//! aliased BLOBs whose contents only the extension's functions interpret).

use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

use mduck_geo::{gserialized, Geometry};
use mduck_sql::{ExtObject, ExtValue, LogicalType, SqlResult, Value};
use mduck_temporal::set::{DateSet, FloatSet, GeomSet, IntSet, TextSet, TstzSet};
use mduck_temporal::span::{DateSpan, FloatSpan, IntSpan, TstzSpan};
use mduck_temporal::spanset::{DateSpanSet, FloatSpanSet, IntSpanSet, TstzSpanSet};
use mduck_temporal::temporal::{TBool, TFloat, TGeomPoint, TInt, TText};
use mduck_temporal::{STBox, TBox};

/// Implement [`ExtObject`] for a wrapper around a temporal-algebra type.
macro_rules! ext_wrapper {
    ($wrapper:ident, $inner:ty, $name:literal) => {
        /// Extension payload wrapper (`
        #[doc = $name]
        /// `).
        #[derive(Debug, Clone, PartialEq)]
        pub struct $wrapper(pub $inner);

        impl ExtObject for $wrapper {
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn ext_type_name(&self) -> &str {
                $name
            }
            fn to_text(&self) -> String {
                self.0.to_string()
            }
            fn to_bytes(&self) -> Vec<u8> {
                self.0.to_string().into_bytes()
            }
        }

        impl $wrapper {
            /// Wrap into a runtime [`Value`].
            pub fn into_value(self) -> Value {
                Value::Ext(ExtValue::new(Arc::new(self)))
            }
        }
    };
}

// Boxes.
ext_wrapper!(MdStbox, STBox, "stbox");
ext_wrapper!(MdTbox, TBox, "tbox");

// Spans.
ext_wrapper!(MdIntSpan, IntSpan, "intspan");
ext_wrapper!(MdBigintSpan, IntSpan, "bigintspan");
ext_wrapper!(MdFloatSpan, FloatSpan, "floatspan");
ext_wrapper!(MdDateSpan, DateSpan, "datespan");
ext_wrapper!(MdTstzSpan, TstzSpan, "tstzspan");

// Span sets.
ext_wrapper!(MdIntSpanSet, IntSpanSet, "intspanset");
ext_wrapper!(MdBigintSpanSet, IntSpanSet, "bigintspanset");
ext_wrapper!(MdFloatSpanSet, FloatSpanSet, "floatspanset");
ext_wrapper!(MdDateSpanSet, DateSpanSet, "datespanset");
ext_wrapper!(MdTstzSpanSet, TstzSpanSet, "tstzspanset");

// Sets.
ext_wrapper!(MdIntSet, IntSet, "intset");
ext_wrapper!(MdBigintSet, IntSet, "bigintset");
ext_wrapper!(MdFloatSet, FloatSet, "floatset");
ext_wrapper!(MdTextSet, TextSet, "textset");
ext_wrapper!(MdDateSet, DateSet, "dateset");
ext_wrapper!(MdTstzSet, TstzSet, "tstzset");

// Temporal types.
ext_wrapper!(MdTBool, TBool, "tbool");
ext_wrapper!(MdTInt, TInt, "tint");
ext_wrapper!(MdTFloat, TFloat, "tfloat");
ext_wrapper!(MdTText, TText, "ttext");

/// `tgeompoint` (prints via `asText`, serializes via EWKT-style text).
#[derive(Debug, Clone, PartialEq)]
pub struct MdTGeomPoint(pub TGeomPoint);

impl ExtObject for MdTGeomPoint {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn ext_type_name(&self) -> &str {
        "tgeompoint"
    }
    fn to_text(&self) -> String {
        self.0.as_ewkt()
    }
    fn to_bytes(&self) -> Vec<u8> {
        // The MEOS-flat-varlena-style wire format (see
        // `mduck_temporal::binser`): what MobilityDB stores on disk and
        // what the row engine deforms/detoasts per access.
        mduck_temporal::binser::tgeompoint_to_bytes(&self.0)
    }
    fn approx_bytes(&self) -> u64 {
        tgeompoint_approx_bytes(&self.0)
    }
}

impl MdTGeomPoint {
    pub fn into_value(self) -> Value {
        Value::Ext(ExtValue::new(Arc::new(self)))
    }
}

/// `tgeometry`: the general temporal geometry of Table 1. Backed by the
/// same point implementation (the paper's evaluation only moves points);
/// its default interpolation is `step`, matching MobilityDB.
#[derive(Debug, Clone, PartialEq)]
pub struct MdTGeometry(pub TGeomPoint);

impl ExtObject for MdTGeometry {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn ext_type_name(&self) -> &str {
        "tgeometry"
    }
    fn to_text(&self) -> String {
        // Step interpolation is tgeometry's default, so the Interp prefix
        // (printed by the point-type formatter, whose default is linear)
        // is dropped — matching the paper's §3.5 output.
        let s = self.0.as_ewkt();
        match s.strip_prefix("Interp=Step;") {
            Some(rest) => rest.to_string(),
            None => s,
        }
    }
    fn to_bytes(&self) -> Vec<u8> {
        mduck_temporal::binser::tgeompoint_to_bytes(&self.0)
    }
    fn approx_bytes(&self) -> u64 {
        tgeompoint_approx_bytes(&self.0)
    }
}

/// Size estimate shared by the temporal-point wrappers: sequences grow
/// with their instant count (x, y, t, flags per instant), so a BerlinMOD
/// trip weighs its real length rather than the 64-byte `ExtObject`
/// default.
fn tgeompoint_approx_bytes(t: &TGeomPoint) -> u64 {
    48 + t.temp.num_instants() as u64 * 32
}

impl MdTGeometry {
    pub fn into_value(self) -> Value {
        Value::Ext(ExtValue::new(Arc::new(self)))
    }
}

/// `geomset`.
#[derive(Debug, Clone, PartialEq)]
pub struct MdGeomSet(pub GeomSet);

impl ExtObject for MdGeomSet {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn ext_type_name(&self) -> &str {
        "geomset"
    }
    fn to_text(&self) -> String {
        self.0.as_ewkt(None)
    }
    fn to_bytes(&self) -> Vec<u8> {
        self.0.as_ewkt(None).into_bytes()
    }
}

impl MdGeomSet {
    pub fn into_value(self) -> Value {
        Value::Ext(ExtValue::new(Arc::new(self)))
    }
}

/// `geometry`: the native (GSERIALIZED-like) geometry type. This is the
/// stand-in for the DuckDB Spatial extension's GEOMETRY; the `_gs`
/// functions of §6.3 return it directly, skipping WKB round trips.
#[derive(Debug, Clone, PartialEq)]
pub struct MdGeom(pub Geometry);

impl ExtObject for MdGeom {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn ext_type_name(&self) -> &str {
        "geometry"
    }
    fn to_text(&self) -> String {
        mduck_geo::wkt::to_ewkt(&self.0, None)
    }
    fn to_bytes(&self) -> Vec<u8> {
        gserialized::to_native(&self.0)
    }
}

impl MdGeom {
    pub fn into_value(self) -> Value {
        Value::Ext(ExtValue::new(Arc::new(self)))
    }
}

// ---------------------------------------------------------------- helpers

/// Logical types for the registered UDTs.
pub fn lt(name: &str) -> LogicalType {
    LogicalType::ext(name)
}

/// Extract a geometry from any of the accepted spatial representations:
/// the native GEOMETRY ext type, a WKB/native BLOB, or WKT text. This is
/// the proxy layer of §6.2/§7 — BLOB-borne geometries are decoded on every
/// call, which is precisely the overhead the `_gs` fast path avoids. A
/// native geometry is borrowed; only a decode or an stbox conversion owns.
pub fn value_to_geometry(v: &Value) -> SqlResult<Cow<'_, Geometry>> {
    match v {
        Value::Ext(e) => {
            if let Some(g) = e.downcast::<MdGeom>() {
                return Ok(Cow::Borrowed(&g.0));
            }
            if let Some(b) = e.downcast::<MdStbox>() {
                return b.0.to_geometry().map(Cow::Owned).map_err(to_exec);
            }
            Err(mduck_sql::SqlError::execution(format!(
                "expected a geometry, got {}",
                e.type_name()
            )))
        }
        Value::Blob(b) => {
            let g = if gserialized::is_native(b) {
                gserialized::from_native(b)
            } else {
                mduck_geo::wkb::from_wkb(b)
            };
            g.map(Cow::Owned).map_err(to_exec)
        }
        Value::Text(s) => mduck_geo::wkt::parse_wkt(s).map(Cow::Owned).map_err(to_exec),
        other => Err(mduck_sql::SqlError::execution(format!(
            "expected a geometry, got {other:?}"
        ))),
    }
}

/// Borrow a tgeompoint (accepting both tgeompoint and tgeometry values).
pub fn value_to_tgeom(v: &Value) -> SqlResult<&TGeomPoint> {
    let e = v.as_ext()?;
    if let Some(t) = e.downcast::<MdTGeomPoint>() {
        return Ok(&t.0);
    }
    if let Some(t) = e.downcast::<MdTGeometry>() {
        return Ok(&t.0);
    }
    Err(mduck_sql::SqlError::execution(format!(
        "expected a temporal geometry, got {}",
        e.type_name()
    )))
}

/// Extract an stbox.
pub fn value_to_stbox(v: &Value) -> SqlResult<STBox> {
    let e = v.as_ext()?;
    if let Some(b) = e.downcast::<MdStbox>() {
        return Ok(b.0);
    }
    if let Some(t) = e.downcast::<MdTGeomPoint>() {
        return Ok(t.0.stbox());
    }
    if let Some(t) = e.downcast::<MdTGeometry>() {
        return Ok(t.0.stbox());
    }
    Err(mduck_sql::SqlError::execution(format!(
        "expected an stbox, got {}",
        e.type_name()
    )))
}

/// Extract a `tstzspan`.
pub fn value_to_period(v: &Value) -> SqlResult<TstzSpan> {
    Ok(v.ext_as::<MdTstzSpan>()?.0)
}

/// Map temporal-algebra errors into execution errors.
pub fn to_exec(e: impl std::fmt::Display) -> mduck_sql::SqlError {
    mduck_sql::SqlError::execution(e.to_string())
}

/// Wrap an interval value.
pub fn value_to_interval(v: &Value) -> SqlResult<mduck_temporal::Interval> {
    match v {
        Value::Interval { months, days, usecs } => Ok(mduck_temporal::Interval {
            months: *months,
            days: *days,
            usecs: *usecs,
        }),
        other => Err(mduck_sql::SqlError::execution(format!(
            "expected an interval, got {other:?}"
        ))),
    }
}

/// Wrap a timestamp value.
pub fn value_to_ts(v: &Value) -> SqlResult<mduck_temporal::TimestampTz> {
    Ok(mduck_temporal::TimestampTz(v.as_timestamp()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mduck_temporal::parse_stbox;
    use mduck_temporal::temporal::parse_tgeompoint;

    #[test]
    fn wrappers_print_like_their_inner_type() {
        let b = parse_stbox("STBOX X((1,2),(3,4))").unwrap();
        let v = MdStbox(b).into_value();
        assert_eq!(v.to_string(), "STBOX X(((1,2),(3,4)))");
        assert_eq!(v.logical_type(), LogicalType::ext("stbox"));
    }

    #[test]
    fn geometry_accepts_all_representations() {
        let g = mduck_geo::wkt::parse_wkt("POINT(1 2)").unwrap();
        // Native ext value.
        let v = MdGeom(g.clone()).into_value();
        assert!(matches!(value_to_geometry(&v).unwrap(), Cow::Borrowed(x) if *x == g));
        // WKB blob.
        let v = Value::blob(mduck_geo::wkb::to_wkb(&g));
        assert_eq!(*value_to_geometry(&v).unwrap(), g);
        // Native blob.
        let v = Value::blob(gserialized::to_native(&g));
        assert_eq!(*value_to_geometry(&v).unwrap(), g);
        // WKT text.
        let v = Value::text("POINT(1 2)");
        assert_eq!(*value_to_geometry(&v).unwrap(), g);
        assert!(value_to_geometry(&Value::Int(3)).is_err());
    }

    #[test]
    fn tgeom_and_stbox_extraction() {
        let t = parse_tgeompoint("[Point(0 0)@2025-01-01, Point(2 2)@2025-01-02]").unwrap();
        let v = MdTGeomPoint(t.clone()).into_value();
        assert_eq!(*value_to_tgeom(&v).unwrap(), t);
        let b = value_to_stbox(&v).unwrap();
        assert_eq!(b.rect.unwrap().xmax, 2.0);
        assert!(b.period.is_some());
    }

    #[test]
    fn ext_equality_via_bytes() {
        let a = MdTstzSpan(mduck_temporal::parse_span("[2025-01-01, 2025-01-02]").unwrap())
            .into_value();
        let b = MdTstzSpan(mduck_temporal::parse_span("[2025-01-01, 2025-01-02]").unwrap())
            .into_value();
        assert!(a.sql_eq(&b));
    }
}
