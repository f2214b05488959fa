//! k-NN query — Algorithm 1 of the paper, with the Lemma 1 area pruning.
//!
//! The areas are the cells of the table's own spatial curve: the Z2 or
//! XZ2 quadtree its k-NN index (the spatial-only secondary of a temporal
//! table, else the primary) is keyed by. Cells wait in a priority queue
//! ordered by `d_A(q, a)` (Equation 4); they are expanded nearest-first,
//! children computed in cell space, and expansion stops as soon as the
//! nearest unexplored cell is farther than the current k-th best record.
//!
//! A small cell is resolved by scanning its code subtree: one exact key
//! range, fanned out over the salt shards. No query window is
//! decomposed, and because leaf subtrees are disjoint no key is read
//! twice. XZ2 also files objects at interior cells, so splitting an XZ2
//! cell first scans the cell's own single code; every object filed under
//! a cell lies inside the cell's *enlarged* cell, which is its Lemma 1
//! bound.

use crate::{CoreError, Result};
use just_curves::{KeyRange, Xz2, Z2};
use just_geo::{Point, Rect};
use just_storage::{IndexKind, KvEntry, Row, StTable};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Tuning for the expansion.
#[derive(Debug, Clone, Copy)]
pub struct KnnConfig {
    /// Minimum area side in km: areas at most this wide trigger a range
    /// query instead of splitting ("g = 1km × 1km is a system parameter").
    pub min_area_km: f64,
    /// Safety cap on range queries (cell scans, one key range each), so
    /// absurd `k` on sparse data terminates promptly.
    pub max_range_queries: usize,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            min_area_km: 1.0,
            max_range_queries: 100_000,
        }
    }
}

/// Cached handles to the process-wide k-NN counters.
struct KnnObs {
    /// Key ranges scanned: leaf subtrees plus XZ2 interior cells' own codes.
    cells_scanned: just_obs::Counter,
    /// Cells split into their four children.
    cells_split: just_obs::Counter,
    /// Records decoded and measured against the query point.
    candidates: just_obs::Counter,
}

fn knn_obs() -> &'static KnnObs {
    static OBS: OnceLock<KnnObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let obs = just_obs::global();
        KnnObs {
            cells_scanned: obs.counter("just_knn_cells_scanned"),
            cells_split: obs.counter("just_knn_cells_split"),
            candidates: obs.counter("just_knn_candidates"),
        }
    })
}

/// What one k-NN walk did (charged to the global counters by [`knn`]).
#[derive(Debug, Default)]
struct KnnStats {
    cells_scanned: u64,
    cells_split: u64,
    candidates: u64,
}

/// Candidate record ordered by distance (max-heap: the worst candidate on
/// top so it can be evicted). It stays an undecoded entry until it is
/// among the final `k`.
struct Candidate {
    dist: f64,
    entry: KvEntry,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A quadtree cell of the k-NN curve: `(x, y)` in `0..2^level`.
#[derive(Debug, Clone, Copy)]
struct Cell {
    level: u32,
    x: u64,
    y: u64,
}

impl Cell {
    const ROOT: Cell = Cell {
        level: 0,
        x: 0,
        y: 0,
    };

    /// The four children, in Z-order.
    fn children(self) -> [Cell; 4] {
        [0u64, 1, 2, 3].map(|q| Cell {
            level: self.level + 1,
            x: 2 * self.x + (q & 1),
            y: 2 * self.y + (q >> 1),
        })
    }

    /// The cell's longer (east-west) side in km, at latitude scale: good
    /// enough for the split/scan decision.
    fn side_km(self) -> f64 {
        360.0 / (1u64 << self.level) as f64 * just_geo::METERS_PER_DEGREE_LAT / 1000.0
    }
}

/// The curve the table's k-NN index is keyed by.
enum Curve {
    Z2(Z2),
    Xz2(Xz2),
}

impl Curve {
    fn of(table: &StTable) -> Result<Curve> {
        match table.knn_curve() {
            Some(IndexKind::Z2) => Ok(Curve::Z2(Z2::default())),
            Some(IndexKind::Xz2) => Ok(Curve::Xz2(Xz2::default())),
            _ => Err(CoreError::Invalid(format!(
                "k-NN needs a spatial index; table {} is indexed by {}",
                table.name(),
                table.strategy().kind()
            ))),
        }
    }

    /// The deepest level: a cell there is always a leaf.
    fn max_level(&self) -> u32 {
        match self {
            Curve::Z2(z2) => z2.bits(),
            Curve::Xz2(xz2) => xz2.g(),
        }
    }

    /// The Lemma 1 bound: a rectangle holding every record filed under
    /// the cell's subtree.
    fn bounds(&self, c: Cell) -> Rect {
        match self {
            Curve::Z2(z2) => z2.cell_bounds(c.level, c.x, c.y),
            Curve::Xz2(xz2) => xz2.cell_bounds(c.level, c.x, c.y),
        }
    }

    /// The codes of every record filed under the cell's subtree.
    fn subtree(&self, c: Cell) -> KeyRange {
        match self {
            Curve::Z2(z2) => z2.cell_range(c.level, c.x, c.y),
            Curve::Xz2(xz2) => xz2.cell_range(c.level, c.x, c.y),
        }
    }

    /// The code of records filed at the cell itself, if the curve files
    /// any at interior cells (XZ2 does; Z2 files points only at leaves).
    fn own(&self, c: Cell) -> Option<KeyRange> {
        match self {
            Curve::Z2(_) => None,
            Curve::Xz2(xz2) => Some(KeyRange::point(xz2.cell_code(c.level, c.x, c.y))),
        }
    }
}

/// Cell ordered by `d_A(q, a)` (min-heap via reversal).
struct Area {
    dist: f64,
    cell: Cell,
}

impl PartialEq for Area {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for Area {}
impl Ord for Area {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Area {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the k-NN query of Algorithm 1 against an indexed table. Returns
/// up to `k` rows with their Euclidean distances (degrees), nearest first.
pub fn knn(table: &StTable, q: Point, k: usize, config: &KnnConfig) -> Result<Vec<(Row, f64)>> {
    let (results, stats) = walk(table, q, k, config)?;
    let obs = knn_obs();
    obs.cells_scanned.add(stats.cells_scanned);
    obs.cells_split.add(stats.cells_split);
    obs.candidates.add(stats.candidates);
    Ok(results)
}

fn walk(
    table: &StTable,
    q: Point,
    k: usize,
    config: &KnnConfig,
) -> Result<(Vec<(Row, f64)>, KnnStats)> {
    let mut stats = KnnStats::default();
    if k == 0 {
        return Ok((Vec::new(), stats));
    }
    let curve = Curve::of(table)?;
    // cq: max-heap of the best k candidates seen (worst on top).
    let mut cq: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    // aq: min-heap of cells by distance to q, seeded with the root.
    let mut aq: BinaryHeap<Area> = BinaryHeap::new();
    aq.push(Area {
        dist: curve.bounds(Cell::ROOT).min_distance(&q),
        cell: Cell::ROOT,
    });

    while let Some(area) = aq.pop() {
        // Lemma 1 (area pruning): every unexplored record is at least
        // area.dist away; with k candidates, the worst nearer than that,
        // stop.
        if cq.len() == k && cq.peek().is_some_and(|worst| area.dist > worst.dist) {
            break;
        }
        if stats.cells_scanned >= config.max_range_queries as u64 {
            break;
        }
        // Adaptive leaf size: cells far from q are scanned at coarser
        // granularity (one range instead of hundreds), which keeps
        // sparse-data k-NN from grinding through thousands of tiny cells.
        // Pruning is unaffected — only the scan unit grows with distance.
        let dist_km = area.dist * just_geo::METERS_PER_DEGREE_LAT / 1000.0;
        let leaf_km = config.min_area_km.max(dist_km);
        if area.cell.level < curve.max_level() && area.cell.side_km() > leaf_km {
            stats.cells_split += 1;
            // Records filed at the cell itself share its bound, which
            // just passed the Lemma 1 test: scan them now.
            if let Some(own) = curve.own(area.cell) {
                scan(table, own, q, k, &mut cq, &mut stats)?;
            }
            for child in area.cell.children() {
                aq.push(Area {
                    dist: curve.bounds(child).min_distance(&q),
                    cell: child,
                });
            }
            continue;
        }
        scan(table, curve.subtree(area.cell), q, k, &mut cq, &mut stats)?;
    }

    // Ascending by distance: nearest first.
    let results = cq
        .into_sorted_vec()
        .into_iter()
        .map(|c| Ok((table.decode_entry(&c.entry)?, c.dist)))
        .collect::<Result<Vec<_>>>()?;
    Ok((results, stats))
}

/// Scans one curve range and offers every record in it to the candidate
/// heap `cq` (capacity `k`). Only the index fields are decoded here, so a
/// record that never makes the final `k` never pays for its other fields
/// (a trajectory's compressed GPS list).
fn scan(
    table: &StTable,
    range: KeyRange,
    q: Point,
    k: usize,
    cq: &mut BinaryHeap<Candidate>,
    stats: &mut KnnStats,
) -> Result<()> {
    stats.cells_scanned += 1;
    let mut hits = table.scan_curve_ranges(&[range], just_storage::ScanOptions::default())?;
    while let Some(batch) = hits.next_batch()? {
        stats.candidates += batch.len() as u64;
        for entry in batch {
            let meta = table.decode_meta(&entry)?;
            let Some(geom) = &meta.geom else { continue };
            let dist = geom.distance_to_point(&q);
            cq.push(Candidate { dist, entry });
            if cq.len() > k {
                cq.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use just_geo::Geometry;
    use just_kvstore::{Store, StoreOptions};
    use just_storage::{Field, FieldType, Schema, StorageConfig, Value};
    use std::collections::HashSet;

    fn setup(points: &[(i64, f64, f64)]) -> (StTable, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "just-knn-{}-{:?}-{}",
            std::process::id(),
            std::thread::current().id(),
            points.len()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::open(&dir, StoreOptions::default()).unwrap();
        let schema = Schema::new(vec![
            Field::new("fid", FieldType::Int).primary(),
            Field::new("geom", FieldType::Point),
        ])
        .unwrap();
        let table = StTable::create(&store, "pts", schema, StorageConfig::default()).unwrap();
        for (fid, lng, lat) in points {
            table
                .insert(&Row::new(vec![
                    Value::Int(*fid),
                    Value::Geom(Geometry::Point(Point::new(*lng, *lat))),
                ]))
                .unwrap();
        }
        (table, dir)
    }

    fn grid_points(n: usize) -> Vec<(i64, f64, f64)> {
        grid(n, 0.01)
    }

    /// `n × n` points `step` degrees apart from (116, 39).
    fn grid(n: usize, step: f64) -> Vec<(i64, f64, f64)> {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                pts.push((
                    (i * n + j) as i64,
                    116.0 + i as f64 * step,
                    39.0 + j as f64 * step,
                ));
            }
        }
        pts
    }

    #[test]
    fn keys_scanned_stay_within_ten_k_on_a_dense_grid() {
        // 60 × 60 points 0.002° (~220 m) apart. Planning each ring as a
        // depth-9 window (a ~60 × 39 km code range) read the whole grid
        // per ring; exact cell ranges read only cells near the answer.
        let (table, dir) = setup(&grid(60, 0.002));
        for q in [
            Point::new(116.0601, 39.0603),
            Point::new(116.0, 39.0),
            Point::new(116.1187, 39.0409),
            Point::new(116.03, 39.11),
        ] {
            for k in [10, 50, 150] {
                let (got, stats) = walk(&table, q, k, &KnnConfig::default()).unwrap();
                assert_eq!(got.len(), k);
                assert!(
                    stats.candidates <= 10 * k as u64,
                    "q=({}, {}) k={k}: {stats:?}",
                    q.x,
                    q.y
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn walk_stats_reach_the_global_counters() {
        let (table, dir) = setup(&grid_points(5));
        let obs = just_obs::global();
        let before = obs.counter("just_knn_candidates").get();
        let (_, stats) = walk(&table, Point::new(116.02, 39.02), 3, &KnnConfig::default()).unwrap();
        assert!(stats.cells_scanned > 0 && stats.cells_split > 0 && stats.candidates > 0);
        knn(&table, Point::new(116.02, 39.02), 3, &KnnConfig::default()).unwrap();
        // Other tests run concurrently: the counter moved by at least ours.
        assert!(obs.counter("just_knn_candidates").get() - before >= stats.candidates);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn knn_matches_brute_force() {
        let pts = grid_points(12);
        let (table, dir) = setup(&pts);
        let q = Point::new(116.053, 39.047);
        for k in [1, 3, 10, 25] {
            let got = knn(&table, q, k, &KnnConfig::default()).unwrap();
            assert_eq!(got.len(), k);
            // Brute-force reference.
            let mut brute: Vec<(i64, f64)> = pts
                .iter()
                .map(|(fid, lng, lat)| (*fid, q.distance(&Point::new(*lng, *lat))))
                .collect();
            brute.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let got_dists: Vec<f64> = got.iter().map(|(_, d)| *d).collect();
            let brute_dists: Vec<f64> = brute.iter().take(k).map(|(_, d)| *d).collect();
            for (g, b) in got_dists.iter().zip(&brute_dists) {
                assert!(
                    (g - b).abs() < 1e-12,
                    "k={k}: {got_dists:?} vs {brute_dists:?}"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let pts = grid_points(3);
        let (table, dir) = setup(&pts);
        let got = knn(&table, Point::new(116.0, 39.0), 100, &KnnConfig::default()).unwrap();
        assert_eq!(got.len(), 9);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn k_zero_is_empty() {
        let (table, dir) = setup(&grid_points(2));
        assert!(knn(&table, Point::new(0.0, 0.0), 0, &KnnConfig::default())
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let (table, dir) = setup(&grid_points(6));
        let got = knn(&table, Point::new(116.02, 39.02), 10, &KnnConfig::default()).unwrap();
        let mut fids: Vec<i64> = got
            .iter()
            .map(|(r, _)| r.values[0].as_int().unwrap())
            .collect();
        let dists: Vec<f64> = got.iter().map(|(_, d)| *d).collect();
        assert!(
            dists.windows(2).all(|w| w[0] <= w[1]),
            "unsorted: {dists:?}"
        );
        fids.sort_unstable();
        fids.dedup();
        assert_eq!(fids.len(), got.len(), "duplicates in result");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn paper_figure7_example_shape() {
        // A coarse re-creation of Figure 7: points clustered so the
        // expansion must cross quadrant boundaries to find the true 3-NN.
        let pts = vec![
            (1, 116.0005, 39.0005), // p1: in the same small cell as q
            (2, 115.9995, 39.0005), // p2: adjacent cell west
            (3, 116.0005, 38.9995), // p3: adjacent cell south
            (4, 115.9990, 38.9990), // p4: diagonal cell
            (5, 116.4, 39.4),       // far away
        ];
        let (table, dir) = setup(&pts);
        let q = Point::new(116.0004, 39.0004);
        let got = knn(
            &table,
            q,
            3,
            &KnnConfig {
                min_area_km: 0.1,
                ..Default::default()
            },
        )
        .unwrap();
        let fids: HashSet<i64> = got
            .iter()
            .map(|(r, _)| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(fids, HashSet::from([1, 2, 3]));
        std::fs::remove_dir_all(dir).ok();
    }
}
