//! Property-based tests over the temporal algebra's core invariants,
//! driven by the in-repo deterministic PRNG (seeded, reproducible runs).

use mduck_prng::{RngExt, SeedableRng, StdRng};

use mduck_temporal::span::{parse_span, FloatSpan, Span};
use mduck_temporal::spanset::SpanSet;
use mduck_temporal::temporal::{Interp, TGeomPoint, TInstant, TSequence, Temporal};
use mduck_temporal::TimestampTz;

const CASES: usize = 256;

fn gen_float_span(rng: &mut StdRng) -> FloatSpan {
    let li = rng.random_bool(0.5);
    let ui = rng.random_bool(0.5);
    let lo = rng.random_range(-1000.0..1000.0f64);
    let width = rng.random_range(0.001..500.0f64);
    Span::new(lo, lo + width, li, ui).expect("positive width")
}

#[test]
fn span_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0001);
    for _ in 0..CASES {
        let s = gen_float_span(&mut rng);
        let printed = s.to_string();
        let back: FloatSpan = parse_span(&printed).unwrap();
        assert_eq!(s, back);
    }
}

#[test]
fn span_intersection_is_commutative_and_contained() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0002);
    for _ in 0..CASES {
        let a = gen_float_span(&mut rng);
        let b = gen_float_span(&mut rng);
        let ab = a.intersection(&b);
        let ba = b.intersection(&a);
        assert_eq!(&ab, &ba);
        if let Some(ix) = ab {
            assert!(a.contains_span(&ix));
            assert!(b.contains_span(&ix));
            assert!(a.overlaps(&b));
        } else {
            assert!(!a.overlaps(&b));
        }
    }
}

#[test]
fn span_minus_never_overlaps_the_subtrahend() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0003);
    for _ in 0..CASES {
        let a = gen_float_span(&mut rng);
        let b = gen_float_span(&mut rng);
        for piece in a.minus(&b) {
            assert!(!piece.overlaps(&b), "{piece} overlaps {b}");
            assert!(a.contains_span(&piece));
        }
    }
}

#[test]
fn spanset_normalization_is_canonical() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0004);
    for _ in 0..CASES {
        let n = rng.random_range(1usize..8);
        let spans: Vec<FloatSpan> = (0..n).map(|_| gen_float_span(&mut rng)).collect();
        let ss = SpanSet::new(spans.clone()).unwrap();
        // Members are ordered and pairwise non-touching.
        for w in ss.spans().windows(2) {
            assert!(w[0].left_of(&w[1]));
            assert!(!w[0].overlaps(&w[1]));
            assert!(!w[0].adjacent(&w[1]));
        }
        // Rebuilding from the normalized members is the identity.
        let again = SpanSet::new(ss.spans().to_vec()).unwrap();
        assert_eq!(&ss, &again);
        // Every input value point stays covered.
        for s in &spans {
            assert!(ss.contains_value(s.lower) || !s.lower_inc);
        }
    }
}

#[test]
fn spanset_union_minus_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0005);
    for _ in 0..CASES {
        let na = rng.random_range(1usize..5);
        let nb = rng.random_range(1usize..5);
        let a: Vec<FloatSpan> = (0..na).map(|_| gen_float_span(&mut rng)).collect();
        let b: Vec<FloatSpan> = (0..nb).map(|_| gen_float_span(&mut rng)).collect();
        let sa = SpanSet::new(a).unwrap();
        let sb = SpanSet::new(b).unwrap();
        let union = sa.union(&sb);
        // (a ∪ b) − b ⊆ a and never overlaps b.
        if let Some(diff) = union.minus(&sb) {
            assert!(!diff.overlaps(&sb));
            for s in diff.spans() {
                assert!(sa.overlaps_span(s));
            }
        }
    }
}

fn gen_tfloat_seq(rng: &mut StdRng) -> Temporal<f64> {
    let n = rng.random_range(2usize..12);
    let mut ts: Vec<(f64, i64)> = (0..n)
        .map(|_| (rng.random_range(-100.0..100.0f64), rng.random_range(1i64..100_000)))
        .collect();
    ts.sort_by_key(|(_, t)| *t);
    ts.dedup_by_key(|(_, t)| *t);
    let li = rng.random_bool(0.5);
    let ui = rng.random_bool(0.5);
    let base = 1_700_000_000_000_000i64;
    let instants: Vec<TInstant<f64>> = ts
        .into_iter()
        .map(|(v, dt)| TInstant::new(v, TimestampTz(base + dt * 1_000_000)))
        .collect();
    if instants.len() == 1 {
        Temporal::Instant(instants.into_iter().next().unwrap())
    } else {
        Temporal::Sequence(TSequence::new(instants, li, ui, Interp::Linear).unwrap())
    }
}

#[test]
fn temporal_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0006);
    for _ in 0..CASES {
        let t = gen_tfloat_seq(&mut rng);
        let printed = t.to_string();
        let back = mduck_temporal::temporal::parse_tfloat(&printed).unwrap();
        assert_eq!(back.to_string(), printed);
    }
}

#[test]
fn at_period_result_is_within_period() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0007);
    for _ in 0..CASES {
        let t = gen_tfloat_seq(&mut rng);
        let lo = rng.random_range(0i64..100_000);
        let w = rng.random_range(1i64..50_000);
        let base = 1_700_000_000_000_000i64;
        let p = mduck_temporal::TstzSpan::new(
            TimestampTz(base + lo * 1_000_000),
            TimestampTz(base + (lo + w) * 1_000_000),
            true,
            true,
        )
        .unwrap();
        if let Some(r) = t.at_period(&p) {
            assert!(p.contains_span(&r.timespan()), "{} ⊄ {}", r.timespan(), p);
            // Values agree with the original at shared instants.
            let mid = r.start_timestamp();
            let a = r.value_at(mid);
            let b = t.value_at(mid);
            if let (Some(x), Some(y)) = (a, b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn minus_then_at_covers_everything() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0008);
    for _ in 0..CASES {
        let t = gen_tfloat_seq(&mut rng);
        let lo = rng.random_range(0i64..100_000);
        let w = rng.random_range(1i64..50_000);
        let base = 1_700_000_000_000_000i64;
        let p = mduck_temporal::TstzSpan::new(
            TimestampTz(base + lo * 1_000_000),
            TimestampTz(base + (lo + w) * 1_000_000),
            true,
            true,
        )
        .unwrap();
        let inside = t.at_period(&p).map(|x| x.duration(false).approx_usecs()).unwrap_or(0);
        let outside = t.minus_period(&p).map(|x| x.duration(false).approx_usecs()).unwrap_or(0);
        let total = t.duration(false).approx_usecs();
        assert!((inside + outside - total).abs() <= 2, "{inside} + {outside} != {total}");
    }
}

fn gen_trip(rng: &mut StdRng, start_range: std::ops::Range<i64>) -> TGeomPoint {
    let n = rng.random_range(2usize..10);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(-500.0..500.0f64), rng.random_range(-500.0..500.0f64)))
        .collect();
    let start = rng.random_range(start_range);
    let base = 1_700_000_000_000_000i64 + start * 1_000_000;
    let instants: Vec<(mduck_geo::Point, TimestampTz)> = pts
        .into_iter()
        .enumerate()
        .map(|(i, (x, y))| (mduck_geo::Point::new(x, y), TimestampTz(base + i as i64 * 60_000_000)))
        .collect();
    TGeomPoint::linear_seq(instants, 0).unwrap()
}

#[test]
fn tdwithin_agrees_with_sampled_distances() {
    let mut rng = StdRng::seed_from_u64(0x5ea_0009);
    for _ in 0..64 {
        let a = gen_trip(&mut rng, 0..50);
        let b = gen_trip(&mut rng, 0..50);
        let d = rng.random_range(1.0..400.0f64);
        // Wherever tdwithin says true/false, the sampled distance agrees.
        if let Some(w) = a.tdwithin(&b, d) {
            for inst in w.instants() {
                let pa = a.temp.value_at(inst.t);
                let pb = b.temp.value_at(inst.t);
                if let (Some(pa), Some(pb)) = (pa, pb) {
                    let dist = pa.distance(&pb);
                    if inst.value {
                        assert!(dist <= d + 1e-3, "claimed within but {dist} > {d}");
                    }
                }
            }
            // eDwithin consistency.
            assert_eq!(w.ever_true(), a.edwithin(&b, d));
        }
    }
}

#[test]
fn trajectory_length_matches_instant_polyline() {
    let mut rng = StdRng::seed_from_u64(0x5ea_000a);
    for _ in 0..64 {
        let a = gen_trip(&mut rng, 0..10);
        let len = a.length();
        let traj_len = a.trajectory().length();
        assert!((len - traj_len).abs() < 1e-6);
        // The bounding box contains every instant.
        let b = a.stbox();
        let rect = b.rect.unwrap();
        for i in a.temp.instants() {
            assert!(rect.contains_point(&i.value));
        }
    }
}

/// A moving point near BerlinMOD-scale coordinates: one or more linear,
/// step or discrete sequences (or a lone instant), with stationary
/// stretches, on an integer grid (exact touches) or real-valued.
fn gen_moving_point(rng: &mut StdRng, origin: mduck_geo::Point, grid: bool) -> TGeomPoint {
    use mduck_geo::Point;
    let coord = |rng: &mut StdRng| {
        if grid {
            rng.random_range(-12i64..=12) as f64
        } else {
            rng.random_range(-500.0..500.0f64)
        }
    };
    let base = 1_700_000_000_000_000i64;
    let interp = [Interp::Linear, Interp::Linear, Interp::Step, Interp::Discrete]
        [rng.random_range(0usize..4)];
    let n_seqs = rng.random_range(1usize..4);
    let mut t = base;
    let mut seqs = Vec::new();
    for _ in 0..n_seqs {
        let n = rng.random_range(1usize..30);
        let mut p = Point::new(origin.x + coord(rng), origin.y + coord(rng));
        let mut instants = Vec::new();
        for _ in 0..n {
            if rng.random_bool(0.7) {
                p = Point::new(origin.x + coord(rng), origin.y + coord(rng));
            }
            instants.push(TInstant::new(p, TimestampTz(t)));
            t += 60_000_000;
        }
        t += 600_000_000;
        let seq = if interp == Interp::Discrete {
            TSequence::discrete(instants)
        } else {
            TSequence::new(instants, true, true, interp)
        };
        seqs.push(seq.unwrap());
    }
    let temp = if rng.random_bool(0.1) {
        Temporal::Instant(seqs[0].instants()[0].clone())
    } else {
        Temporal::from_sequences(seqs).unwrap()
    };
    TGeomPoint::new(temp, 0)
}

fn gen_region(rng: &mut StdRng, origin: mduck_geo::Point, trip: &TGeomPoint) -> mduck_geo::Geometry {
    use mduck_geo::{Geometry, Point};
    let c = Point::new(
        origin.x + rng.random_range(-20i64..=20) as f64,
        origin.y + rng.random_range(-20i64..=20) as f64,
    );
    let ring = |c: Point, w: f64| {
        vec![
            Point::new(c.x - w, c.y - w),
            Point::new(c.x + w, c.y - w),
            Point::new(c.x + w, c.y + w),
            Point::new(c.x - w, c.y + w),
            Point::new(c.x - w, c.y - w),
        ]
    };
    let vertex = trip.temp.instants().nth(rng.random_range(0..trip.temp.num_instants())).unwrap().value;
    match rng.random_range(0u32..5) {
        0 => Geometry::polygon(vec![ring(c, 6.0), ring(c, 2.0)]).unwrap(),
        1 => Geometry::polygon(vec![ring(c, rng.random_range(1.0..300.0f64))]).unwrap(),
        2 => Geometry::from_point(if rng.random_bool(0.5) { vertex } else { c }),
        3 => Geometry::linestring(vec![c, vertex, Point::new(c.x + 7.0, c.y - 3.0)]).unwrap(),
        _ => Geometry::collection(vec![
            Geometry::multipoint(vec![c, Point::new(c.x + 1.0, c.y)]),
            Geometry::polygon(vec![ring(Point::new(c.x + 30.0, c.y), 4.0)]).unwrap(),
        ]),
    }
}

#[test]
fn eintersects_and_edwithin_match_the_built_trajectory() {
    use mduck_geo::algorithms::{distance, intersects};
    let mut rng = StdRng::seed_from_u64(0x5ea_000b);
    for case in 0..1500 {
        let origin = mduck_geo::Point::new(
            rng.random_range(5e5..2e6f64),
            rng.random_range(5e5..2e6f64),
        );
        let trip = gen_moving_point(&mut rng, origin, case % 2 == 0);
        // Also the restricted trip the BerlinMOD queries test (atTime).
        let span = trip.timespan();
        let mid = TimestampTz(span.lower.0 + (span.upper.0 - span.lower.0) / 3);
        let cut = Span::new(span.lower, mid, true, true).ok().and_then(|p| trip.at_period(&p));
        for t in std::iter::once(&trip).chain(cut.as_ref()) {
            let g = gen_region(&mut rng, origin, t);
            let traj = t.trajectory();
            let want = distance(&traj, &g);
            let got = distance(t, &g);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "distance {got} != {want}\n{t}\n{g:?}"
            );
            assert_eq!(t.eintersects(&g), intersects(&traj, &g), "{t}\n{g:?}");
            for d in [want, want.next_down(), want * 0.5, 0.0, -1.0, f64::NAN, rng.random_range(0.0..50.0)] {
                assert_eq!(t.edwithin_geo(&g, d), want <= d, "d = {d}\n{t}\n{g:?}");
            }
        }
    }
}
