//! Compact binary serialization of temporal values — the equivalent of
//! MEOS's flat varlena format, in which MobilityDB stores temporal values
//! on disk and DuckDB stores them as BLOBs.
//!
//! The row engine uses this to *deform/detoast* tuples on access
//! (PostgreSQL reads heap tuples attribute by attribute and detoasts
//! varlena values before every function call); the binary form is also
//! what hashing and equality of extension values run over.

use mduck_geo::point::Point;

use crate::error::{TemporalError, TemporalResult};
use crate::span::TstzSpan;
use crate::temporal::{Interp, TGeomPoint, TInstant, TSequence, Temporal};
use crate::time::TimestampTz;
use crate::STBox;

const MAGIC_TGEOM: u8 = 0xB1;
const MAGIC_SPAN: u8 = 0xB2;
const MAGIC_STBOX: u8 = 0xB3;

fn interp_tag(i: Interp) -> u8 {
    match i {
        Interp::Discrete => 0,
        Interp::Step => 1,
        Interp::Linear => 2,
    }
}

fn tag_interp(t: u8) -> TemporalResult<Interp> {
    Ok(match t {
        0 => Interp::Discrete,
        1 => Interp::Step,
        2 => Interp::Linear,
        other => return Err(TemporalError::Parse(format!("bad interp tag {other}"))),
    })
}

/// Encode a `tgeompoint`.
pub fn tgeompoint_to_bytes(t: &TGeomPoint) -> Vec<u8> {
    let seqs = t.temp.as_sequences();
    let n_points: usize = seqs.iter().map(|s| s.num_instants()).sum();
    let mut out = Vec::with_capacity(16 + seqs.len() * 8 + n_points * 24);
    out.push(MAGIC_TGEOM);
    out.extend_from_slice(&t.srid.to_le_bytes());
    out.push(match &t.temp {
        Temporal::Instant(_) => 0u8,
        Temporal::Sequence(_) => 1,
        Temporal::SequenceSet(_) => 2,
    });
    out.extend_from_slice(&(seqs.len() as u32).to_le_bytes());
    for s in seqs.iter() {
        out.push(interp_tag(s.interp));
        out.push(s.lower_inc as u8);
        out.push(s.upper_inc as u8);
        out.extend_from_slice(&(s.num_instants() as u32).to_le_bytes());
        for i in s.instants() {
            out.extend_from_slice(&i.value.x.to_le_bytes());
            out.extend_from_slice(&i.value.y.to_le_bytes());
            out.extend_from_slice(&i.t.0.to_le_bytes());
        }
    }
    out
}

/// Decode a `tgeompoint`.
pub fn tgeompoint_from_bytes(b: &[u8]) -> TemporalResult<TGeomPoint> {
    let mut r = Reader { b, pos: 0 };
    if r.u8()? != MAGIC_TGEOM {
        return Err(TemporalError::Parse("bad tgeompoint magic".into()));
    }
    let srid = r.i32()?;
    let subtype = r.u8()?;
    let n_seqs = r.u32()? as usize;
    if n_seqs > b.len() {
        return Err(TemporalError::Parse("implausible sequence count".into()));
    }
    let mut seqs = Vec::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        let interp = tag_interp(r.u8()?)?;
        let lower_inc = r.u8()? != 0;
        let upper_inc = r.u8()? != 0;
        let n = r.u32()? as usize;
        if n > b.len() / 24 + 1 {
            return Err(TemporalError::Parse("implausible instant count".into()));
        }
        let mut instants = Vec::with_capacity(n);
        for _ in 0..n {
            let x = r.f64()?;
            let y = r.f64()?;
            let t = TimestampTz(r.i64()?);
            instants.push(TInstant::new(Point::new(x, y), t));
        }
        seqs.push(TSequence::new(instants, lower_inc, upper_inc, interp)?);
    }
    let temp = match subtype {
        0 => {
            let s = seqs
                .into_iter()
                .next()
                .ok_or_else(|| TemporalError::Parse("instant without sequence".into()))?;
            Temporal::Instant(s.instants()[0].clone())
        }
        _ => Temporal::from_sequences(seqs)?,
    };
    Ok(TGeomPoint::new(temp, srid))
}

/// Encode a `tstzspan`.
pub fn tstzspan_to_bytes(s: &TstzSpan) -> Vec<u8> {
    let mut out = Vec::with_capacity(19);
    out.push(MAGIC_SPAN);
    out.extend_from_slice(&s.lower.0.to_le_bytes());
    out.extend_from_slice(&s.upper.0.to_le_bytes());
    out.push(s.lower_inc as u8);
    out.push(s.upper_inc as u8);
    out
}

/// Decode a `tstzspan`.
pub fn tstzspan_from_bytes(b: &[u8]) -> TemporalResult<TstzSpan> {
    let mut r = Reader { b, pos: 0 };
    if r.u8()? != MAGIC_SPAN {
        return Err(TemporalError::Parse("bad tstzspan magic".into()));
    }
    let lower = TimestampTz(r.i64()?);
    let upper = TimestampTz(r.i64()?);
    let lower_inc = r.u8()? != 0;
    let upper_inc = r.u8()? != 0;
    TstzSpan::new(lower, upper, lower_inc, upper_inc)
}

/// Encode an `stbox`.
pub fn stbox_to_bytes(s: &STBox) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(MAGIC_STBOX);
    out.extend_from_slice(&s.srid.to_le_bytes());
    out.push(s.rect.is_some() as u8);
    out.push(s.period.is_some() as u8);
    if let Some(r) = s.rect {
        for v in [r.xmin, r.ymin, r.xmax, r.ymax] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    if let Some(p) = s.period {
        out.extend_from_slice(&p.lower.0.to_le_bytes());
        out.extend_from_slice(&p.upper.0.to_le_bytes());
        out.push(p.lower_inc as u8);
        out.push(p.upper_inc as u8);
    }
    out
}

/// Decode an `stbox`.
pub fn stbox_from_bytes(b: &[u8]) -> TemporalResult<STBox> {
    let mut r = Reader { b, pos: 0 };
    if r.u8()? != MAGIC_STBOX {
        return Err(TemporalError::Parse("bad stbox magic".into()));
    }
    let srid = r.i32()?;
    let has_rect = r.u8()? != 0;
    let has_period = r.u8()? != 0;
    let rect = if has_rect {
        Some(mduck_geo::point::Rect {
            xmin: r.f64()?,
            ymin: r.f64()?,
            xmax: r.f64()?,
            ymax: r.f64()?,
        })
    } else {
        None
    };
    let period = if has_period {
        let lower = TimestampTz(r.i64()?);
        let upper = TimestampTz(r.i64()?);
        let lower_inc = r.u8()? != 0;
        let upper_inc = r.u8()? != 0;
        Some(TstzSpan::new(lower, upper, lower_inc, upper_inc)?)
    } else {
        None
    };
    STBox::new(srid, rect, period)
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> TemporalResult<&[u8]> {
        if self.pos + n > self.b.len() {
            return Err(TemporalError::Parse("truncated binary value".into()));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn take_arr<const N: usize>(&mut self) -> TemporalResult<[u8; N]> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }
    fn u8(&mut self) -> TemporalResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> TemporalResult<u32> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }
    fn i32(&mut self) -> TemporalResult<i32> {
        Ok(i32::from_le_bytes(self.take_arr()?))
    }
    fn i64(&mut self) -> TemporalResult<i64> {
        Ok(i64::from_le_bytes(self.take_arr()?))
    }
    fn f64(&mut self) -> TemporalResult<f64> {
        Ok(f64::from_le_bytes(self.take_arr()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::parse_tgeompoint;

    #[test]
    fn tgeompoint_roundtrip() {
        for lit in [
            "Point(1 2)@2025-01-01",
            "[Point(0 0)@2025-01-01, Point(5 5)@2025-01-02)",
            "{Point(0 0)@2025-01-01, Point(1 1)@2025-01-02}",
            "SRID=3405;{[Point(0 0)@2025-01-01, Point(5 5)@2025-01-02], \
             [Point(9 9)@2025-01-03, Point(9 9)@2025-01-04]}",
        ] {
            let t = parse_tgeompoint(lit).unwrap();
            let b = tgeompoint_to_bytes(&t);
            let back = tgeompoint_from_bytes(&b).unwrap();
            assert_eq!(t, back, "roundtrip for {lit}");
        }
    }

    #[test]
    fn span_and_stbox_roundtrip() {
        let s: TstzSpan = crate::parse_span("[2025-01-01, 2025-01-03)").unwrap();
        assert_eq!(tstzspan_from_bytes(&tstzspan_to_bytes(&s)).unwrap(), s);
        for lit in [
            "STBOX X((1,2),(3,4))",
            "STBOX T([2025-01-01, 2025-01-02])",
            "SRID=3405;STBOX XT(((1,2),(3,4)),[2025-01-01, 2025-01-02])",
        ] {
            let b = crate::parse_stbox(lit).unwrap();
            assert_eq!(stbox_from_bytes(&stbox_to_bytes(&b)).unwrap(), b, "{lit}");
        }
    }

    #[test]
    fn corrupt_input_rejected() {
        let t = parse_tgeompoint("[Point(0 0)@2025-01-01, Point(5 5)@2025-01-02]").unwrap();
        let b = tgeompoint_to_bytes(&t);
        assert!(tgeompoint_from_bytes(&b[..b.len() - 3]).is_err());
        assert!(tgeompoint_from_bytes(&[]).is_err());
        let mut bad = b.clone();
        bad[0] = 0;
        assert!(tgeompoint_from_bytes(&bad).is_err());
    }
}
