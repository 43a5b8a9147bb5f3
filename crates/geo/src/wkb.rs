//! WKB / EWKB binary encoding.
//!
//! This is the `WKB_BLOB` interchange format of the paper's proxy layer to
//! the DuckDB Spatial extension (§6.2, §7): little-endian OGC WKB, with the
//! PostGIS EWKB SRID flag (`0x2000_0000`) when an SRID is present.

use crate::error::{GeoError, GeoResult};
use crate::geometry::{GeomData, Geometry, GeometryKind};
use crate::point::Point;
use crate::SRID_UNKNOWN;

const EWKB_SRID_FLAG: u32 = 0x2000_0000;

/// Encode as (E)WKB, little-endian. Emits the SRID header only on the
/// outermost geometry, as PostGIS does.
pub fn to_wkb(g: &Geometry) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + g.num_points() * 16);
    write_geom(&mut out, g, true);
    out
}

/// Decode (E)WKB, accepting both byte orders.
pub fn from_wkb(bytes: &[u8]) -> GeoResult<Geometry> {
    let mut r = Reader { bytes, pos: 0 };
    let g = read_geom(&mut r, SRID_UNKNOWN)?;
    Ok(g)
}

fn write_geom(out: &mut Vec<u8>, g: &Geometry, outermost: bool) {
    out.push(1); // little-endian
    let mut code = g.kind().wkb_code();
    let with_srid = outermost && g.srid != SRID_UNKNOWN;
    if with_srid {
        code |= EWKB_SRID_FLAG;
    }
    out.extend_from_slice(&code.to_le_bytes());
    if with_srid {
        out.extend_from_slice(&(g.srid as u32).to_le_bytes());
    }
    match &g.data {
        GeomData::Point(p) => write_point(out, p),
        GeomData::LineString(ps) => write_points(out, ps),
        GeomData::Polygon(rings) => {
            out.extend_from_slice(&(rings.len() as u32).to_le_bytes());
            for r in rings {
                write_points(out, r);
            }
        }
        GeomData::MultiPoint(ps) => {
            out.extend_from_slice(&(ps.len() as u32).to_le_bytes());
            for p in ps {
                // Each member is a full WKB point.
                let child = Geometry::from_point(*p);
                write_geom(out, &child, false);
            }
        }
        GeomData::MultiLineString(lines) => {
            out.extend_from_slice(&(lines.len() as u32).to_le_bytes());
            for l in lines {
                out.push(1);
                out.extend_from_slice(&GeometryKind::LineString.wkb_code().to_le_bytes());
                write_points(out, l);
            }
        }
        GeomData::GeometryCollection(gs) => {
            out.extend_from_slice(&(gs.len() as u32).to_le_bytes());
            for child in gs {
                write_geom(out, child, false);
            }
        }
    }
}

fn write_point(out: &mut Vec<u8>, p: &Point) {
    out.extend_from_slice(&p.x.to_le_bytes());
    out.extend_from_slice(&p.y.to_le_bytes());
}

fn write_points(out: &mut Vec<u8>, ps: &[Point]) {
    out.extend_from_slice(&(ps.len() as u32).to_le_bytes());
    for p in ps {
        write_point(out, p);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> GeoResult<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(GeoError::ParseWkb(format!(
                "unexpected end of input at byte {} (need {n} more)",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> GeoResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn take_arr<const N: usize>(&mut self) -> GeoResult<[u8; N]> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    fn u32(&mut self, le: bool) -> GeoResult<u32> {
        let b: [u8; 4] = self.take_arr()?;
        Ok(if le { u32::from_le_bytes(b) } else { u32::from_be_bytes(b) })
    }

    fn f64(&mut self, le: bool) -> GeoResult<f64> {
        let b: [u8; 8] = self.take_arr()?;
        Ok(if le { f64::from_le_bytes(b) } else { f64::from_be_bytes(b) })
    }

    fn point(&mut self, le: bool) -> GeoResult<Point> {
        let x = self.f64(le)?;
        let y = self.f64(le)?;
        Ok(Point { x, y })
    }

    /// A member count that the remaining bytes can hold, each member taking
    /// at least `min_bytes`; anything larger is rejected before it can size
    /// an allocation.
    fn count(&mut self, le: bool, min_bytes: usize, what: &str) -> GeoResult<usize> {
        let n = self.u32(le)? as usize;
        if n > (self.bytes.len() - self.pos) / min_bytes {
            return Err(GeoError::ParseWkb(format!("implausible {what} count {n}")));
        }
        Ok(n)
    }

    fn points(&mut self, le: bool) -> GeoResult<Vec<Point>> {
        let n = self.count(le, 16, "point")?;
        let mut ps = Vec::with_capacity(n);
        for _ in 0..n {
            ps.push(self.point(le)?);
        }
        Ok(ps)
    }
}

fn read_geom(r: &mut Reader<'_>, inherited_srid: i32) -> GeoResult<Geometry> {
    let le = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(GeoError::ParseWkb(format!("bad byte order marker {other}"))),
    };
    let raw_code = r.u32(le)?;
    let mut srid = inherited_srid;
    if raw_code & EWKB_SRID_FLAG != 0 {
        srid = r.u32(le)? as i32;
    }
    // Mask PostGIS Z/M/SRID flags; reject Z/M payloads (we are 2-D only).
    if raw_code & 0x8000_0000 != 0 || raw_code & 0x4000_0000 != 0 {
        return Err(GeoError::ParseWkb("Z/M dimensions are not supported".into()));
    }
    let code = raw_code & 0x0FFF_FFFF;
    let data = match code {
        1 => GeomData::Point(r.point(le)?),
        2 => GeomData::LineString(r.points(le)?),
        3 => {
            let n = r.count(le, 4, "ring")?;
            let mut rings = Vec::with_capacity(n);
            for _ in 0..n {
                rings.push(r.points(le)?);
            }
            GeomData::Polygon(rings)
        }
        4 => {
            let n = r.count(le, 21, "multipoint member")?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                let child = read_geom(r, srid)?;
                match child.data {
                    GeomData::Point(p) => ps.push(p),
                    _ => return Err(GeoError::ParseWkb("multipoint member not a point".into())),
                }
            }
            GeomData::MultiPoint(ps)
        }
        5 => {
            let n = r.count(le, 9, "multilinestring member")?;
            let mut lines = Vec::with_capacity(n);
            for _ in 0..n {
                let child = read_geom(r, srid)?;
                match child.data {
                    GeomData::LineString(ps) => lines.push(ps),
                    _ => {
                        return Err(GeoError::ParseWkb(
                            "multilinestring member not a linestring".into(),
                        ))
                    }
                }
            }
            GeomData::MultiLineString(lines)
        }
        7 => {
            let n = r.count(le, 9, "collection member")?;
            let mut gs = Vec::with_capacity(n);
            for _ in 0..n {
                gs.push(read_geom(r, srid)?);
            }
            GeomData::GeometryCollection(gs)
        }
        other => return Err(GeoError::ParseWkb(format!("unknown WKB type code {other}"))),
    };
    Ok(Geometry { srid, data })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wkt::parse_wkt;

    fn roundtrip(wkt: &str) {
        let g = parse_wkt(wkt).unwrap();
        let bytes = to_wkb(&g);
        let back = from_wkb(&bytes).unwrap();
        assert_eq!(g.data, back.data, "payload roundtrip for {wkt}");
        assert_eq!(g.srid, back.srid, "srid roundtrip for {wkt}");
    }

    #[test]
    fn wkb_roundtrips() {
        roundtrip("POINT(1 2)");
        roundtrip("SRID=4326;POINT(2.340088 49.400250)");
        roundtrip("LINESTRING(0 0,1 1,2 0)");
        roundtrip("POLYGON((0 0,4 0,4 4,0 4,0 0),(1 1,2 1,2 2,1 2,1 1))");
        roundtrip("MULTIPOINT(1 1,2 2)");
        roundtrip("MULTILINESTRING((0 0,1 1),(2 2,3 3))");
        roundtrip("GEOMETRYCOLLECTION(POINT(1 2),LINESTRING(0 0,1 1))");
    }

    #[test]
    fn wkb_point_layout_is_standard() {
        // Canonical little-endian WKB for POINT(1 2): 01 01000000 then two doubles.
        let g = parse_wkt("POINT(1 2)").unwrap();
        let b = to_wkb(&g);
        assert_eq!(b.len(), 21);
        assert_eq!(&b[..5], &[1, 1, 0, 0, 0]);
        assert_eq!(f64::from_le_bytes(b[5..13].try_into().unwrap()), 1.0);
        assert_eq!(f64::from_le_bytes(b[13..21].try_into().unwrap()), 2.0);
    }

    #[test]
    fn truncated_input_rejected() {
        let g = parse_wkt("LINESTRING(0 0,1 1)").unwrap();
        let b = to_wkb(&g);
        for cut in [0, 1, 5, 9, b.len() - 1] {
            assert!(from_wkb(&b[..cut]).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn big_endian_accepted() {
        // Hand-built big-endian WKB for POINT(1 2).
        let mut b = vec![0u8];
        b.extend_from_slice(&1u32.to_be_bytes());
        b.extend_from_slice(&1f64.to_be_bytes());
        b.extend_from_slice(&2f64.to_be_bytes());
        let g = from_wkb(&b).unwrap();
        assert_eq!(g.as_point().unwrap(), Point::new(1.0, 2.0));
    }

    #[test]
    fn oversized_member_counts_rejected() {
        // A polygon claiming u32::MAX rings must fail with a typed error
        // instead of reserving ~100 GB for them.
        let mut b = vec![1u8];
        b.extend_from_slice(&3u32.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(from_wkb(&b), Err(GeoError::ParseWkb(_))));
        for code in [4u32, 5, 7] {
            let mut b = vec![1u8];
            b.extend_from_slice(&code.to_le_bytes());
            b.extend_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(from_wkb(&b), Err(GeoError::ParseWkb(_))), "type {code}");
        }
    }

    #[test]
    fn zm_flags_rejected() {
        let mut b = vec![1u8];
        b.extend_from_slice(&(1u32 | 0x8000_0000).to_le_bytes());
        b.extend_from_slice(&1f64.to_le_bytes());
        b.extend_from_slice(&2f64.to_le_bytes());
        assert!(from_wkb(&b).is_err());
    }
}
