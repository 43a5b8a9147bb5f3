//! Extended MEOS surface: temporal arithmetic, temporal comparisons,
//! ever/always predicates, tbool logic, and additional accessors — the
//! functions beyond the benchmark's needs that move the implementation
//! toward full Table-1 parity (the paper's stated future work).

use mduck_sql::{LogicalType, Registry, SqlError, Value};
use mduck_temporal::set::Set;
use mduck_temporal::temporal::{tfloat_cmp_const, Temporal};

use crate::types::*;

/// Register the extended surface.
pub fn register_extended(reg: &mut Registry) {
    register_temporal_math(reg);
    register_temporal_comparisons(reg);
    register_ever_always(reg);
    register_tbool_logic(reg);
    register_more_accessors(reg);
}

// -------------------------------------------------------- temporal math

fn register_temporal_math(reg: &mut Registry) {
    // tfloat ⊕ float (and the commuted forms), computed instant-wise — the
    // value-level lifting MEOS provides for temporal arithmetic.
    macro_rules! tfloat_const_op {
        ($sym:literal, $f:expr) => {
            reg.register_scalar(
                $sym,
                vec![lt("tfloat"), LogicalType::Float],
                lt("tfloat"),
                |a| {
                    let t = &a[0].ext_as::<MdTFloat>()?.0;
                    let k = a[1].as_float()?;
                    let f = $f;
                    Ok(MdTFloat(t.map_values(|v| f(*v, k))).into_value())
                },
            );
            reg.register_scalar(
                $sym,
                vec![LogicalType::Float, lt("tfloat")],
                lt("tfloat"),
                |a| {
                    let k = a[0].as_float()?;
                    let t = &a[1].ext_as::<MdTFloat>()?.0;
                    let f = $f;
                    Ok(MdTFloat(t.map_values(|v| f(k, *v))).into_value())
                },
            );
        };
    }
    tfloat_const_op!("+", |a: f64, b: f64| a + b);
    tfloat_const_op!("-", |a: f64, b: f64| a - b);
    tfloat_const_op!("*", |a: f64, b: f64| a * b);
    reg.register_scalar("/", vec![lt("tfloat"), LogicalType::Float], lt("tfloat"), |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        let k = a[1].as_float()?;
        if k == 0.0 {
            return Err(SqlError::execution("division by zero"));
        }
        Ok(MdTFloat(t.map_values(|v| v / k)).into_value())
    });
    // tint ⊕ int.
    reg.register_scalar("+", vec![lt("tint"), LogicalType::Int], lt("tint"), |a| {
        let t = &a[0].ext_as::<MdTInt>()?.0;
        let k = a[1].as_int()?;
        Ok(MdTInt(t.map_values(|v| v + k)).into_value())
    });
    reg.register_scalar("*", vec![lt("tint"), LogicalType::Int], lt("tint"), |a| {
        let t = &a[0].ext_as::<MdTInt>()?.0;
        let k = a[1].as_int()?;
        Ok(MdTInt(t.map_values(|v| v * k)).into_value())
    });
    // round(tfloat, digits), abs(tfloat).
    reg.register_scalar("round", vec![lt("tfloat"), LogicalType::Int], lt("tfloat"), |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        let scale = 10f64.powi(a[1].as_int()? as i32);
        Ok(MdTFloat(t.map_values(|v| (v * scale).round() / scale)).into_value())
    });
    reg.register_scalar("abs", vec![lt("tfloat")], lt("tfloat"), |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        Ok(MdTFloat(t.map_values(|v| v.abs())).into_value())
    });
    // twAvg: time-weighted average of a tfloat.
    reg.register_scalar("twavg", vec![lt("tfloat")], LogicalType::Float, |a| {
        let t = &a[0].ext_as::<MdTFloat>()?.0;
        let mut weighted = 0.0f64;
        let mut total = 0.0f64;
        for s in t.as_sequences().iter() {
            let inst = s.instants();
            if inst.len() == 1 {
                continue;
            }
            for w in inst.windows(2) {
                let dt = (w[1].t.0 - w[0].t.0) as f64;
                let mean = match s.interp {
                    mduck_temporal::temporal::Interp::Linear => (w[0].value + w[1].value) / 2.0,
                    _ => w[0].value,
                };
                weighted += mean * dt;
                total += dt;
            }
        }
        if total == 0.0 {
            // Discrete/instant: plain average.
            let vals = t.values();
            Ok(Value::Float(vals.iter().sum::<f64>() / vals.len() as f64))
        } else {
            Ok(Value::Float(weighted / total))
        }
    });
}

// -------------------------------------------------- temporal comparisons

fn register_temporal_comparisons(reg: &mut Registry) {
    // tfloat <op> float → tbool with exact crossings ("#<" family in
    // MobilityDB; exposed here as functions).
    macro_rules! tcmp {
        ($name:literal, $cmp:expr) => {
            reg.register_scalar(
                $name,
                vec![lt("tfloat"), LogicalType::Float],
                lt("tbool"),
                |a| {
                    let t = &a[0].ext_as::<MdTFloat>()?.0;
                    let k = a[1].as_float()?;
                    let c = $cmp;
                    Ok(MdTBool(tfloat_cmp_const(t, k, |v| c(v, k))).into_value())
                },
            );
        };
    }
    tcmp!("tlt", |v: f64, k: f64| v < k);
    tcmp!("tle", |v: f64, k: f64| v <= k);
    tcmp!("tgt", |v: f64, k: f64| v > k);
    tcmp!("tge", |v: f64, k: f64| v >= k);
    tcmp!("teq", |v: f64, k: f64| v == k);
    tcmp!("tne", |v: f64, k: f64| v != k);
}

// ------------------------------------------------------------ ever/always

fn register_ever_always(reg: &mut Registry) {
    reg.register_scalar("ever_eq", vec![lt("tint"), LogicalType::Int], LogicalType::Bool, |a| {
        let t = &a[0].ext_as::<MdTInt>()?.0;
        Ok(Value::Bool(t.ever_eq_at_instants(&a[1].as_int()?)))
    });
    reg.register_scalar(
        "always_eq",
        vec![lt("tint"), LogicalType::Int],
        LogicalType::Bool,
        |a| {
            let t = &a[0].ext_as::<MdTInt>()?.0;
            Ok(Value::Bool(t.always_eq_at_instants(&a[1].as_int()?)))
        },
    );
    reg.register_scalar(
        "ever_eq",
        vec![lt("tfloat"), LogicalType::Float],
        LogicalType::Bool,
        |a| {
            let t = &a[0].ext_as::<MdTFloat>()?.0;
            // Linear interpolation: crossing counts as ever-equal.
            Ok(Value::Bool(t.at_value(&a[1].as_float()?).is_some()))
        },
    );
    reg.register_scalar(
        "ever_eq",
        vec![lt("ttext"), LogicalType::Text],
        LogicalType::Bool,
        |a| {
            let t = &a[0].ext_as::<MdTText>()?.0;
            Ok(Value::Bool(t.ever_eq_at_instants(&a[1].as_text()?.to_string())))
        },
    );
    reg.register_scalar("ever_true", vec![lt("tbool")], LogicalType::Bool, |a| {
        Ok(Value::Bool(a[0].ext_as::<MdTBool>()?.0.ever_true()))
    });
    reg.register_scalar("always_true", vec![lt("tbool")], LogicalType::Bool, |a| {
        Ok(Value::Bool(a[0].ext_as::<MdTBool>()?.0.always_true()))
    });
}

// ------------------------------------------------------------ tbool logic

fn register_tbool_logic(reg: &mut Registry) {
    reg.register_scalar("tnot", vec![lt("tbool")], lt("tbool"), |a| {
        Ok(MdTBool(a[0].ext_as::<MdTBool>()?.0.tnot()).into_value())
    });
    reg.register_scalar("tand", vec![lt("tbool"), lt("tbool")], lt("tbool"), |a| {
        let x = &a[0].ext_as::<MdTBool>()?.0;
        let y = &a[1].ext_as::<MdTBool>()?.0;
        match x.tand(y) {
            Some(t) => Ok(MdTBool(t).into_value()),
            None => Ok(Value::Null),
        }
    });
    reg.register_scalar("tor", vec![lt("tbool"), lt("tbool")], lt("tbool"), |a| {
        let x = &a[0].ext_as::<MdTBool>()?.0;
        let y = &a[1].ext_as::<MdTBool>()?.0;
        match x.tor(y) {
            Some(t) => Ok(MdTBool(t).into_value()),
            None => Ok(Value::Null),
        }
    });
}

// --------------------------------------------------------- more accessors

fn register_more_accessors(reg: &mut Registry) {
    // timestamps(temp) → tstzset.
    for tty in [lt("tbool"), lt("tint"), lt("tfloat"), lt("ttext"), lt("tgeompoint"), lt("tgeometry")]
    {
        reg.register_scalar("timestamps", vec![tty.clone()], lt("tstzset"), |a| {
            let e = a[0].as_ext()?;
            let ts: Vec<mduck_temporal::TimestampTz> = if let Some(t) = e.downcast::<MdTBool>() {
                t.0.timestamps()
            } else if let Some(t) = e.downcast::<MdTInt>() {
                t.0.timestamps()
            } else if let Some(t) = e.downcast::<MdTFloat>() {
                t.0.timestamps()
            } else if let Some(t) = e.downcast::<MdTText>() {
                t.0.timestamps()
            } else {
                value_to_tgeom(&a[0])?.temp.timestamps()
            };
            Ok(MdTstzSet(Set::new(ts).map_err(to_exec)?).into_value())
        });
        reg.register_scalar("numsequences", vec![tty.clone()], LogicalType::Int, |a| {
            let e = a[0].as_ext()?;
            let n = if let Some(t) = e.downcast::<MdTBool>() {
                count_seqs(&t.0)
            } else if let Some(t) = e.downcast::<MdTInt>() {
                count_seqs(&t.0)
            } else if let Some(t) = e.downcast::<MdTFloat>() {
                count_seqs(&t.0)
            } else if let Some(t) = e.downcast::<MdTText>() {
                count_seqs(&t.0)
            } else {
                count_seqs(&value_to_tgeom(&a[0])?.temp)
            };
            Ok(Value::Int(n as i64))
        });
        reg.register_scalar("interp", vec![tty], LogicalType::Text, |a| {
            let e = a[0].as_ext()?;
            let interp = if let Some(t) = e.downcast::<MdTBool>() {
                t.0.interp()
            } else if let Some(t) = e.downcast::<MdTInt>() {
                t.0.interp()
            } else if let Some(t) = e.downcast::<MdTFloat>() {
                t.0.interp()
            } else if let Some(t) = e.downcast::<MdTText>() {
                t.0.interp()
            } else {
                value_to_tgeom(&a[0])?.temp.interp()
            };
            Ok(Value::text(match interp {
                mduck_temporal::temporal::Interp::Discrete => "Discrete",
                mduck_temporal::temporal::Interp::Step => "Step",
                mduck_temporal::temporal::Interp::Linear => "Linear",
            }))
        });
    }
    // valueSet(tint) → intset; startValue/endValue geometries.
    reg.register_scalar("getvalues", vec![lt("tint")], lt("intset"), |a| {
        let t = &a[0].ext_as::<MdTInt>()?.0;
        Ok(MdIntSet(Set::new(t.values()).map_err(to_exec)?).into_value())
    });
    for src in [lt("tgeompoint"), lt("tgeometry")] {
        reg.register_scalar("startvalue", vec![src.clone()], LogicalType::Blob, |a| {
            let t = value_to_tgeom(&a[0])?;
            let g = mduck_geo::Geometry::from_point(t.temp.start_value()).with_srid(t.srid);
            Ok(Value::blob(mduck_geo::wkb::to_wkb(&g)))
        });
        reg.register_scalar("endvalue", vec![src], LogicalType::Blob, |a| {
            let t = value_to_tgeom(&a[0])?;
            let g = mduck_geo::Geometry::from_point(t.temp.end_value()).with_srid(t.srid);
            Ok(Value::blob(mduck_geo::wkb::to_wkb(&g)))
        });
    }
    // Span width / set span.
    reg.register_scalar("width", vec![lt("floatspan")], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].ext_as::<MdFloatSpan>()?.0.width()))
    });
    reg.register_scalar("width", vec![lt("intspan")], LogicalType::Float, |a| {
        Ok(Value::Float(a[0].ext_as::<MdIntSpan>()?.0.width()))
    });
    reg.register_scalar("span", vec![lt("tstzset")], lt("tstzspan"), |a| {
        Ok(MdTstzSpan(a[0].ext_as::<MdTstzSet>()?.0.to_span()).into_value())
    });
    reg.register_scalar("span", vec![lt("tstzspanset")], lt("tstzspan"), |a| {
        Ok(MdTstzSpan(a[0].ext_as::<MdTstzSpanSet>()?.0.to_span()).into_value())
    });
}

fn count_seqs<V: mduck_temporal::temporal::TValue>(t: &Temporal<V>) -> usize {
    match t {
        Temporal::Instant(_) => 1,
        Temporal::Sequence(_) => 1,
        Temporal::SequenceSet(ss) => ss.sequences().len(),
    }
}
