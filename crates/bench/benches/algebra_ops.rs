//! Micro-benchmarks of the temporal algebra itself (the ablation DESIGN.md
//! calls out): synchronization-heavy operators (tdwithin, tdistance),
//! restriction (atTime/atGeometry), the WKB-vs-native `_gs` geometry
//! round trip of §6.3, and the box-pruned kernels (distance, intersects,
//! dwithin, eIntersects, stbox) on their own, apart from any planner.

use mduck_bench::micro::bench_function;
use mduck_geo::algorithms::{collect, distance, dwithin, intersects};
use mduck_geo::point::Point;
use mduck_geo::{gserialized, wkb, Geometry};
use mduck_temporal::span::TstzSpan;
use mduck_temporal::temporal::TGeomPoint;
use mduck_temporal::TimestampTz;

fn make_trip(n: usize, phase: f64) -> TGeomPoint {
    let pts: Vec<(Point, TimestampTz)> = (0..n)
        .map(|i| {
            let t = i as f64;
            (
                Point::new((t * 0.1 + phase).sin() * 1000.0, (t * 0.07 + phase).cos() * 1000.0),
                TimestampTz(1_700_000_000_000_000 + i as i64 * 60_000_000),
            )
        })
        .collect();
    TGeomPoint::linear_seq(pts, 3405).unwrap()
}

/// Axis-aligned square polygon of half-size `r` around `c`.
fn rect_around(c: Point, r: f64) -> Geometry {
    Geometry::polygon(vec![vec![
        Point::new(c.x - r, c.y - r),
        Point::new(c.x + r, c.y - r),
        Point::new(c.x + r, c.y + r),
        Point::new(c.x - r, c.y + r),
        Point::new(c.x - r, c.y - r),
    ]])
    .unwrap()
}

/// Query 5's operand: the collected trajectories of one vehicle, `trips`
/// trips of `segs` segments each, shifted by `dx`.
fn collected_trips(trips: usize, segs: usize, phase: f64, dx: f64) -> Geometry {
    collect(
        (0..trips)
            .map(|k| {
                make_trip(segs + 1, phase + k as f64 * 0.7)
                    .trajectory()
                    .map_points(&|p| Point::new(p.x + dx, p.y))
            })
            .collect(),
    )
}

fn main() {
    let a = make_trip(200, 0.0);
    let b = make_trip(200, 0.5);
    bench_function("tdwithin_200x200", || a.tdwithin(&b, 50.0).map(|t| t.num_instants()));
    bench_function("tdistance_200x200", || a.tdistance(&b).map(|t| t.num_instants()));
    let period = TstzSpan::new(
        TimestampTz(1_700_000_000_000_000 + 30 * 60_000_000),
        TimestampTz(1_700_000_000_000_000 + 90 * 60_000_000),
        true,
        true,
    )
    .unwrap();
    bench_function("attime_200", || a.at_period(&period).map(|t| t.temp.num_instants()));
    let square = rect_around(Point::new(0.0, 0.0), 500.0);
    bench_function("atgeometry_200", || a.at_geometry(&square).unwrap().map(|t| t.length()));

    // The §6.3 conversion-overhead ablation: WKB round trip vs native.
    let traj = a.trajectory();
    bench_function("geometry_wkb_roundtrip", || {
        wkb::from_wkb(&wkb::to_wkb(&traj)).unwrap().num_points()
    });
    bench_function("geometry_native_roundtrip", || {
        gserialized::from_native(&gserialized::to_native(&traj)).unwrap().num_points()
    });
    let bytes = gserialized::to_native(&traj);
    bench_function("geometry_native_peek_bbox", || gserialized::peek_bbox(&bytes).unwrap().0);

    // The box-pruned kernels. Q5: distance between two vehicles' collected
    // trajectories (9 trips x 30 segments), crossing and 5 km apart.
    let mls_a = collected_trips(9, 30, 0.0, 0.0);
    let mls_b = collected_trips(9, 30, 0.35, 0.0);
    let mls_far = collected_trips(9, 30, 0.35, 5_000.0);
    bench_function("distance_mls_9x30_crossing", || distance(&mls_a, &mls_b));
    bench_function("distance_mls_9x30_apart", || distance(&mls_a, &mls_far));
    // ST_Intersects of a trajectory with a rectangle: one on the path, one
    // inside the trajectory's box but off the path.
    let on_path = rect_around(a.temp.start_value(), 20.0);
    let off_path = rect_around(Point::new(0.0, 0.0), 20.0);
    bench_function("intersects_traj_rect_hit", || intersects(&traj, &on_path));
    bench_function("intersects_traj_rect_miss", || intersects(&traj, &off_path));
    let centre = Geometry::from_point(Point::new(0.0, 0.0));
    bench_function("dwithin_traj_point", || dwithin(&traj, &centre, 990.0));
    // Q13/Q16: eIntersects(atTime(trip, period), region).
    let region = rect_around(Point::new(800.0, 600.0), 150.0);
    bench_function("eintersects_attime_200", || {
        a.at_period(&period).map(|t| t.eintersects(&region))
    });
    bench_function("stbox_200", || a.stbox());
}
