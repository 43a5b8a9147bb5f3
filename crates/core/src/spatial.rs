//! The miniature "Spatial extension": `ST_*` functions over GEOMETRY /
//! WKB_BLOB, standing in for DuckDB Spatial, plus the MobilityDuck-native
//! `_gs` fast-path equivalents of §6.3 (Query 5).
//!
//! The `ST_*` family accepts geometries as WKB blobs or native GEOMETRY
//! values; WKB arguments pay a parse on every call — the overhead the `_gs`
//! functions avoid by keeping the native representation end to end.

use std::borrow::Cow;
use std::sync::Arc;

use mduck_geo::algorithms;
use mduck_geo::point::Point;
use mduck_geo::Geometry;
use mduck_sql::{LogicalType, Registry, SqlError, SqlResult, Value};

use crate::types::{lt, value_to_geometry, MdGeom};

/// Register the ST_* surface and the `_gs` fast paths.
pub fn register_spatial(reg: &mut Registry) {
    let geom_tys = [lt("geometry"), LogicalType::Blob, LogicalType::Text];

    for a_ty in &geom_tys {
        for b_ty in &geom_tys {
            reg.register_scalar(
                "st_intersects",
                vec![a_ty.clone(), b_ty.clone()],
                LogicalType::Bool,
                |a| {
                    let x = value_to_geometry(&a[0])?;
                    let y = value_to_geometry(&a[1])?;
                    Ok(Value::Bool(algorithms::intersects(&*x, &*y)))
                },
            );
            reg.register_scalar(
                "st_distance",
                vec![a_ty.clone(), b_ty.clone()],
                LogicalType::Float,
                |a| {
                    let x = value_to_geometry(&a[0])?;
                    let y = value_to_geometry(&a[1])?;
                    Ok(Value::Float(algorithms::distance(&*x, &*y)))
                },
            );
            reg.register_scalar(
                "st_dwithin",
                vec![a_ty.clone(), b_ty.clone(), LogicalType::Float],
                LogicalType::Bool,
                |a| {
                    let x = value_to_geometry(&a[0])?;
                    let y = value_to_geometry(&a[1])?;
                    Ok(Value::Bool(algorithms::dwithin(&*x, &*y, a[2].as_float()?)))
                },
            );
            reg.register_scalar(
                "st_equals",
                vec![a_ty.clone(), b_ty.clone()],
                LogicalType::Bool,
                |a| {
                    let x = value_to_geometry(&a[0])?;
                    let y = value_to_geometry(&a[1])?;
                    Ok(Value::Bool(x.data == y.data))
                },
            );
        }
        reg.register_scalar("st_astext", vec![a_ty.clone()], LogicalType::Text, |a| {
            Ok(Value::text(mduck_geo::wkt::to_wkt(&*value_to_geometry(&a[0])?, None)))
        });
        reg.register_scalar("st_asewkt", vec![a_ty.clone()], LogicalType::Text, |a| {
            Ok(Value::text(mduck_geo::wkt::to_ewkt(&*value_to_geometry(&a[0])?, None)))
        });
        reg.register_scalar("st_length", vec![a_ty.clone()], LogicalType::Float, |a| {
            Ok(Value::Float(value_to_geometry(&a[0])?.length()))
        });
        reg.register_scalar("st_x", vec![a_ty.clone()], LogicalType::Float, |a| {
            let g = value_to_geometry(&a[0])?;
            g.as_point()
                .map(|p| Value::Float(p.x))
                .ok_or_else(|| SqlError::execution("ST_X expects a point"))
        });
        reg.register_scalar("st_y", vec![a_ty.clone()], LogicalType::Float, |a| {
            let g = value_to_geometry(&a[0])?;
            g.as_point()
                .map(|p| Value::Float(p.y))
                .ok_or_else(|| SqlError::execution("ST_Y expects a point"))
        });
        reg.register_scalar("st_srid", vec![a_ty.clone()], LogicalType::Int, |a| {
            Ok(Value::Int(value_to_geometry(&a[0])?.srid as i64))
        });
        reg.register_scalar("st_npoints", vec![a_ty.clone()], LogicalType::Int, |a| {
            Ok(Value::Int(value_to_geometry(&a[0])?.num_points() as i64))
        });
        // ST_Collect over a list — Query 5's aggregation pipeline:
        // `ST_Collect(list(trajectory(...)::GEOMETRY))`. Every WKB member
        // pays a parse.
        reg.register_scalar("st_collect", vec![LogicalType::List], LogicalType::Blob, |a| {
            let items = a[0].as_list()?;
            let geoms: SqlResult<Vec<Geometry>> =
                items.iter().map(|v| value_to_geometry(v).map(Cow::into_owned)).collect();
            let collected = algorithms::collect(geoms?);
            Ok(Value::blob(mduck_geo::wkb::to_wkb(&collected)))
        });
    }
    // ST_Point / ST_MakeEnvelope constructors.
    reg.register_scalar(
        "st_point",
        vec![LogicalType::Float, LogicalType::Float],
        lt("geometry"),
        |a| {
            Ok(MdGeom(Geometry::point(a[0].as_float()?, a[1].as_float()?)).into_value())
        },
    );
    reg.register_scalar(
        "st_makeenvelope",
        vec![LogicalType::Float, LogicalType::Float, LogicalType::Float, LogicalType::Float],
        lt("geometry"),
        |a| {
            let (xmin, ymin, xmax, ymax) =
                (a[0].as_float()?, a[1].as_float()?, a[2].as_float()?, a[3].as_float()?);
            let poly = Geometry::polygon(vec![vec![
                Point::new(xmin, ymin),
                Point::new(xmax, ymin),
                Point::new(xmax, ymax),
                Point::new(xmin, ymax),
                Point::new(xmin, ymin),
            ]])
            .map_err(crate::types::to_exec)?;
            Ok(MdGeom(poly).into_value())
        },
    );
    reg.register_scalar("st_geomfromtext", vec![LogicalType::Text], lt("geometry"), |a| {
        Ok(MdGeom(mduck_geo::wkt::parse_wkt(a[0].as_text()?).map_err(crate::types::to_exec)?)
            .into_value())
    });
    reg.register_scalar(
        "st_setsrid",
        vec![lt("geometry"), LogicalType::Int],
        lt("geometry"),
        |a| {
            let g = value_to_geometry(&a[0])?;
            Ok(MdGeom(g.into_owned().with_srid(a[1].as_int()? as i32)).into_value())
        },
    );

    // ---- the `_gs` fast path (§6.3): native representation end to end.
    reg.register_scalar("collect_gs", vec![LogicalType::List], lt("geometry"), |a| {
        let items = a[0].as_list()?;
        // Native members are copied without any decoding. The copy is deep
        // (`Geometry` owns its coordinates): the collection owns them all.
        let geoms: SqlResult<Vec<Geometry>> =
            items.iter().map(|v| value_to_geometry(v).map(Cow::into_owned)).collect();
        Ok(MdGeom(algorithms::collect(geoms?)).into_value())
    });
    reg.register_scalar(
        "distance_gs",
        vec![lt("geometry"), lt("geometry")],
        LogicalType::Float,
        |a| {
            let x = &a[0].ext_as::<MdGeom>()?.0;
            let y = &a[1].ext_as::<MdGeom>()?.0;
            Ok(Value::Float(algorithms::distance(x, y)))
        },
    );
    reg.register_scalar(
        "intersects_gs",
        vec![lt("geometry"), lt("geometry")],
        LogicalType::Bool,
        |a| {
            let x = &a[0].ext_as::<MdGeom>()?.0;
            let y = &a[1].ext_as::<MdGeom>()?.0;
            Ok(Value::Bool(algorithms::intersects(x, y)))
        },
    );
    let _ = Arc::new(());
}
