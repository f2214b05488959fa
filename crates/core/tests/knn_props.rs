//! Seeded property test: k-NN over the curve-cell walk returns exactly the
//! brute-force nearest distances.
//!
//! Two temporal tables, so the walk goes through each spatial secondary:
//! a Z2T point table (Z2 cells) and an XZ2T linestring table (XZ2 cells,
//! with objects filed at interior cells). Coordinates are snapped to
//! quadtree cell edges at several levels, the data is split across
//! SSTables and the memtable, and records are moved and deleted between
//! flushes, so stale secondary keys would surface as wrong answers.

use just_core::{knn, KnnConfig};
use just_geo::{Geometry, LineString, Point};
use just_kvstore::{Store, StoreOptions};
use just_obs::Rng;
use just_storage::{Field, FieldType, IndexKind, Row, Schema, StTable, StorageConfig, Value};
use std::collections::BTreeMap;

/// A coordinate near `center`: half the time snapped onto a cell edge of
/// a random quadtree level (6..=20), in the curves' normalised space, and
/// moved up to two ulps off it (the curves' normalisation rounds such
/// values into the neighbouring cell).
fn coord(rng: &mut Rng, center: f64, spread: f64, origin: f64, span: f64) -> f64 {
    let v = center + (rng.gen_f64() - 0.5) * spread;
    if rng.gen_bool(0.5) {
        let cells = (1u64 << rng.gen_range(6..21u32)) as f64;
        let edge = origin + span * (((v - origin) / span) * cells).round() / cells;
        // Every coordinate here is positive, so the bit pattern orders
        // like the value.
        f64::from_bits((edge.to_bits() as i64 + rng.gen_range(-2..3i64)) as u64)
    } else {
        v
    }
}

fn point(rng: &mut Rng) -> Point {
    Point::new(
        coord(rng, 116.4, 0.6, -180.0, 360.0),
        coord(rng, 39.9, 0.6, -90.0, 180.0),
    )
}

/// A short polyline (2–4 vertices) whose extent ranges from a few metres
/// to tens of kilometres, so it lands at many XZ2 levels.
fn line(rng: &mut Rng) -> Geometry {
    let start = point(rng);
    let reach = [0.0005, 0.005, 0.05, 0.3][rng.gen_range(0..4usize)];
    let mut pts = vec![start];
    for _ in 0..rng.gen_range(1..4usize) {
        let last = *pts.last().unwrap();
        pts.push(Point::new(
            last.x + (rng.gen_f64() - 0.5) * reach,
            last.y + (rng.gen_f64() - 0.5) * reach,
        ));
    }
    Geometry::LineString(LineString::new(pts))
}

fn row(fid: i64, geom: Geometry, t: i64) -> Row {
    Row::new(vec![Value::Int(fid), Value::Geom(geom), Value::Date(t)])
}

fn check_table(label: &str, geom_ty: FieldType, want: IndexKind, make: fn(&mut Rng) -> Geometry) {
    let dir = std::env::temp_dir().join(format!("just-knn-props-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir, StoreOptions::default()).unwrap();
    let schema = Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("geom", geom_ty),
        Field::new("time", FieldType::Date),
    ])
    .unwrap();
    let table = StTable::create(&store, label, schema, StorageConfig::default()).unwrap();
    assert_eq!(table.knn_curve(), Some(want), "{label}: k-NN curve");

    let mut rng = Rng::seed_from_u64(0x6b6e_6e00 ^ label.len() as u64);
    let mut model: BTreeMap<i64, Geometry> = BTreeMap::new();
    const DAY_MS: i64 = 86_400_000;
    let mut next_fid = 0i64;
    // Three generations: the first two end in a flush (SSTables), the last
    // stays in the memtable. Each moves and deletes some earlier records.
    for generation in 0..3 {
        for _ in 0..200 {
            let geom = make(&mut rng);
            let t = rng.gen_range(0..5i64) * DAY_MS + rng.gen_range(0..DAY_MS);
            table.insert(&row(next_fid, geom.clone(), t)).unwrap();
            model.insert(next_fid, geom);
            next_fid += 1;
        }
        for _ in 0..40 {
            let fid = rng.gen_range(0..next_fid);
            if rng.gen_bool(0.5) {
                let geom = make(&mut rng);
                table.insert(&row(fid, geom.clone(), 0)).unwrap();
                model.insert(fid, geom);
            } else {
                table.delete(&Value::Int(fid)).unwrap();
                model.remove(&fid);
            }
        }
        if generation < 2 {
            table.flush().unwrap();
        }
    }

    let n = model.len();
    for case in 0..12 {
        let q = point(&mut rng);
        let mut brute: Vec<f64> = model.values().map(|g| g.distance_to_point(&q)).collect();
        brute.sort_by(f64::total_cmp);
        for k in [1, 10, 150, n + 7] {
            let got = knn(&table, q, k, &KnnConfig::default()).unwrap();
            assert_eq!(got.len(), k.min(n), "{label} case {case} k={k}");
            let mut fids = Vec::new();
            for (i, (r, d)) in got.iter().enumerate() {
                let fid = r.values[0].as_int().unwrap();
                fids.push(fid);
                // The row is the live version, and its distance is exact.
                let live = model.get(&fid).unwrap_or_else(|| {
                    panic!("{label} case {case} k={k}: deleted fid {fid} returned")
                });
                assert_eq!(
                    *d,
                    live.distance_to_point(&q),
                    "{label} fid {fid}: stale row"
                );
                assert_eq!(
                    *d, brute[i],
                    "{label} case {case} k={k}: rank {i} of q=({}, {})",
                    q.x, q.y
                );
            }
            fids.sort_unstable();
            fids.dedup();
            assert_eq!(
                fids.len(),
                got.len(),
                "{label} case {case} k={k}: duplicates"
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn z2t_point_table_matches_brute_force() {
    check_table("pts", FieldType::Point, IndexKind::Z2, |rng| {
        Geometry::Point(point(rng))
    });
}

#[test]
fn xz2t_linestring_table_matches_brute_force() {
    check_table("lines", FieldType::LineString, IndexKind::Xz2, line);
}
