//! Seeded inputs and the brute-force result oracle.
//!
//! Everything a run sends is derived from `--seed`: the Order and Traj
//! datasets (the `just-bench` generators behind the `figures` binary),
//! the query windows, the kNN points and the open-loop insert batches.
//! The oracle answers every statement by brute force over the generated
//! data, so a result is checked without trusting any engine code path.

use just_bench::workload::{Order, OrderDataset, TrajDataset, TrajRecord};
use just_bench::workload::{CITY, DAY_MS};
use just_geo::{Geometry, Point, Rect};
use just_obs::Rng;
use just_ql::QueryResult;
use just_storage::{Row, Value};

/// The Orders table, as created over the wire: no compressed fields.
pub const ORDERS_DDL: &str = "CREATE TABLE orders (fid integer:primary key, time date, geom point)";
/// The trajectory plugin table (gzip-compressed `gps_list`).
pub const TRAJ_DDL: &str = "CREATE TABLE traj AS trajectory";

/// A spatial window and an optional time window, as pushed into a scan.
pub type Window = (Rect, Option<(i64, i64)>);

/// One read statement of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    /// `geom WITHIN` window on Orders.
    Range { rect: Rect },
    /// `geom WITHIN` window plus `time BETWEEN` on Orders.
    StRange { rect: Rect, t: (i64, i64) },
    /// `mbr WITHIN` window on Traj.
    TrajRange { rect: Rect },
    /// `mbr WITHIN` window plus `time_start BETWEEN` on Traj.
    TrajSt { rect: Rect, t: (i64, i64) },
    /// `geom IN st_KNN(point, k)` on Orders.
    Knn { q: Point, k: usize },
}

impl Query {
    /// The statement type the latency lines are grouped by.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Range { .. } | Query::TrajRange { .. } => "range",
            Query::StRange { .. } | Query::TrajSt { .. } => "st_range",
            Query::Knn { .. } => "knn",
        }
    }

    /// The user-visible table the statement reads.
    pub fn table(&self) -> &'static str {
        match self {
            Query::TrajRange { .. } | Query::TrajSt { .. } => "traj",
            _ => "orders",
        }
    }

    /// The spatial window and time window pushed into the scan.
    pub fn window(&self) -> Option<Window> {
        match *self {
            Query::Range { rect } | Query::TrajRange { rect } => Some((rect, None)),
            Query::StRange { rect, t } | Query::TrajSt { rect, t } => Some((rect, Some(t))),
            Query::Knn { .. } => None,
        }
    }

    /// The JustQL text. Coordinates print in Rust's shortest round-trip
    /// form, so the engine parses back exactly the window the oracle uses.
    pub fn sql(&self) -> String {
        let mbr = |r: &Rect| {
            format!(
                "st_makeMBR({}, {}, {}, {})",
                r.min_x, r.min_y, r.max_x, r.max_y
            )
        };
        match self {
            Query::Range { rect } => {
                format!("SELECT fid, time, geom FROM orders WHERE geom WITHIN {}", mbr(rect))
            }
            Query::StRange { rect, t } => format!(
                "SELECT fid, time, geom FROM orders WHERE geom WITHIN {} AND time BETWEEN {} AND {}",
                mbr(rect),
                t.0,
                t.1
            ),
            Query::TrajRange { rect } => format!(
                "SELECT oid, length(gps_list) FROM traj WHERE mbr WITHIN {}",
                mbr(rect)
            ),
            Query::TrajSt { rect, t } => format!(
                "SELECT oid, length(gps_list) FROM traj WHERE mbr WITHIN {} \
                 AND time_start BETWEEN {} AND {}",
                mbr(rect),
                t.0,
                t.1
            ),
            Query::Knn { q, k } => format!(
                "SELECT fid, distance FROM orders WHERE geom IN st_KNN(st_makePoint({}, {}), {k})",
                q.x, q.y
            ),
        }
    }
}

/// `n` points spread over the city on a jittered grid: the city is cut
/// into about `n` cells, each contributing one uniform point, in a seeded
/// order. Every run then samples dense and sparse districts in the same
/// proportion, so the statement mix, not luck, sets the medians.
fn centres(n: usize, rng: &mut Rng) -> Vec<Point> {
    let g = (n as f64).sqrt().ceil().max(1.0) as usize;
    let mut cells: Vec<usize> = (0..g * g).collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..i + 1));
    }
    let (x0, y0) = (CITY.min_x + 0.1, CITY.min_y + 0.1);
    let (w, h) = (
        (CITY.max_x - CITY.min_x - 0.2) / g as f64,
        (CITY.max_y - CITY.min_y - 0.2) / g as f64,
    );
    cells
        .into_iter()
        .take(n)
        .map(|c| {
            let (cx, cy) = ((c % g) as f64, (c / g) as f64);
            Point::new(x0 + (cx + rng.gen_f64()) * w, y0 + (cy + rng.gen_f64()) * h)
        })
        .collect()
}

/// `n` Orders statements alternating 3×3 km spatial windows with
/// 3×3 km × 1 day spatio-temporal windows (the paper's defaults).
pub fn order_range_queries(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6f72_6e67);
    centres(n, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let rect = Rect::window_km(c, 3.0);
            if i % 2 == 0 {
                Query::Range { rect }
            } else {
                let start = rng.gen_range(0..60 * DAY_MS);
                Query::StRange {
                    rect,
                    t: (start, start + DAY_MS),
                }
            }
        })
        .collect()
}

/// `n` spatial-only 3×3 km windows (the `order_ingest` reader).
pub fn order_spatial_queries(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7370_6174);
    centres(n, &mut rng)
        .into_iter()
        .map(|c| Query::Range {
            rect: Rect::window_km(c, 3.0),
        })
        .collect()
}

/// `n` Traj statements: 5–7 km windows, alternating spatial-only and
/// spatial plus a 10-day `time_start` window, so each returns tens of
/// trajectories (the data spans 31 days).
pub fn traj_queries(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7472_616a);
    centres(n, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let rect = Rect::window_km(c, rng.gen_range(5.0..7.0));
            if i % 2 == 0 {
                Query::TrajRange { rect }
            } else {
                let start = rng.gen_range(0..21 * DAY_MS);
                Query::TrajSt {
                    rect,
                    t: (start, start + 10 * DAY_MS),
                }
            }
        })
        .collect()
}

/// `n` kNN statements at seeded points.
pub fn knn_queries(n: usize, k: usize, seed: u64) -> Vec<Query> {
    centres(n, &mut Rng::seed_from_u64(seed ^ 0x6b6e_6e00))
        .into_iter()
        .map(|q| Query::Knn { q, k })
        .collect()
}

/// Fresh orders for the open-loop writer: same generator, a seed of its
/// own, and ids above every loaded row.
pub fn fresh_orders(n: usize, first_fid: i64, seed: u64) -> Vec<Order> {
    let mut orders = OrderDataset::generate(n, seed ^ 0x696e_6773).orders;
    for (i, o) in orders.iter_mut().enumerate() {
        o.fid = first_fid + i as i64;
    }
    orders
}

/// Multi-row `INSERT` text for a batch of orders.
pub fn insert_sql(orders: &[Order]) -> String {
    let values: Vec<String> = orders
        .iter()
        .map(|o| {
            format!(
                "({}, {}, st_makePoint({}, {}))",
                o.fid, o.time_ms, o.point.x, o.point.y
            )
        })
        .collect();
    format!("INSERT INTO orders VALUES {}", values.join(", "))
}

/// Engine rows for orders (the schema of [`ORDERS_DDL`]).
pub fn order_rows(orders: &[Order]) -> Vec<Row> {
    just_bench::workload::order_rows(orders)
}

/// The index-relevant digest of one trajectory.
#[derive(Debug, Clone)]
pub struct TrajFacts {
    /// Record id.
    pub oid: String,
    /// Spatial MBR of the GPS list.
    pub mbr: Rect,
    /// First and last timestamp.
    pub span: (i64, i64),
    /// GPS points.
    pub points: usize,
}

/// Trajectories as engine rows plus the facts the oracle needs. The GPS
/// samples move into the rows (the layout of `just-bench`'s
/// `traj_rows`) instead of being copied, which halves the peak memory of
/// generating 6.4M points.
pub fn traj_inputs(n: usize, points: usize, seed: u64) -> (Vec<Row>, Vec<TrajFacts>) {
    let data = TrajDataset::generate(n, points, seed);
    let mut rows = Vec::with_capacity(n);
    let mut facts = Vec::with_capacity(n);
    for t in data.trajectories {
        let f = traj_facts(&t);
        let (first, last) = match (t.samples.first(), t.samples.last()) {
            (Some(a), Some(b)) => (Point::new(a.lng, a.lat), Point::new(b.lng, b.lat)),
            _ => unreachable!("generated trajectories have points"),
        };
        rows.push(Row::new(vec![
            Value::Str(t.oid),
            Value::Geom(Geometry::Rect(f.mbr)),
            Value::Date(f.span.0),
            Value::Date(f.span.1),
            Value::Geom(Geometry::Point(first)),
            Value::Geom(Geometry::Point(last)),
            Value::GpsList(t.samples),
        ]));
        facts.push(f);
    }
    (rows, facts)
}

fn traj_facts(t: &TrajRecord) -> TrajFacts {
    TrajFacts {
        oid: t.oid.clone(),
        mbr: t.mbr(),
        span: t.time_span(),
        points: t.samples.len(),
    }
}

/// Brute-force answers over the generated data.
#[derive(Debug, Default)]
pub struct Oracle {
    /// `(fid, point, time)` of every Orders row the table should hold.
    pub orders: Vec<(i64, Point, i64)>,
    /// Every trajectory the table should hold.
    pub trajs: Vec<TrajFacts>,
}

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Sorted Orders ids.
    Fids(Vec<i64>),
    /// Sorted `(oid, points)` pairs.
    Trajs(Vec<(String, i64)>),
    /// Ascending multiset of the k smallest distances.
    Dists(Vec<f64>),
}

impl Oracle {
    /// An oracle over loaded orders.
    pub fn of_orders(orders: &[Order]) -> Self {
        let mut o = Oracle::default();
        o.add_orders(orders);
        o
    }

    /// Adds rows the table should now hold.
    pub fn add_orders(&mut self, orders: &[Order]) {
        self.orders
            .extend(orders.iter().map(|o| (o.fid, o.point, o.time_ms)));
    }

    /// Expected answer to `q`.
    pub fn expect(&self, q: &Query) -> Expected {
        match *q {
            Query::Range { rect } => self.fids(|p, _| rect.contains_point(p)),
            Query::StRange { rect, t } => {
                self.fids(|p, time| rect.contains_point(p) && (t.0..=t.1).contains(&time))
            }
            // `mbr WITHIN` keeps trajectories whose MBR lies inside the
            // window. The engine maps a `time_start BETWEEN a AND b`
            // window on the trajectory table onto the record's whole
            // extent `[time_start, time_end]`: it matches when the two
            // intervals overlap.
            Query::TrajRange { rect } => self.trajs(|f| rect.contains_rect(&f.mbr)),
            Query::TrajSt { rect, t } => {
                self.trajs(|f| rect.contains_rect(&f.mbr) && f.span.0 <= t.1 && f.span.1 >= t.0)
            }
            Query::Knn { q, k } => {
                let mut d: Vec<f64> = self
                    .orders
                    .iter()
                    .map(|(_, p, _)| just_geo::euclidean(p, &q))
                    .collect();
                d.sort_by(f64::total_cmp);
                d.truncate(k);
                Expected::Dists(d)
            }
        }
    }

    fn fids(&self, keep: impl Fn(&Point, i64) -> bool) -> Expected {
        let mut v: Vec<i64> = self
            .orders
            .iter()
            .filter(|(_, p, t)| keep(p, *t))
            .map(|(f, _, _)| *f)
            .collect();
        v.sort_unstable();
        Expected::Fids(v)
    }

    fn trajs(&self, keep: impl Fn(&TrajFacts) -> bool) -> Expected {
        let mut v: Vec<(String, i64)> = self
            .trajs
            .iter()
            .filter(|f| keep(f))
            .map(|f| (f.oid.clone(), f.points as i64))
            .collect();
        v.sort();
        Expected::Trajs(v)
    }
}

/// Reduces a result to the shape of [`Expected`]; `None` when the result
/// is not a dataset of the statement's projection.
pub fn answer_of(q: &Query, result: &QueryResult) -> Option<Expected> {
    let rows = &result.dataset()?.rows;
    match q {
        Query::Range { .. } | Query::StRange { .. } => {
            let mut v = rows
                .iter()
                .map(|r| r.values.first().and_then(Value::as_int))
                .collect::<Option<Vec<i64>>>()?;
            v.sort_unstable();
            Some(Expected::Fids(v))
        }
        Query::TrajRange { .. } | Query::TrajSt { .. } => {
            let mut v = rows
                .iter()
                .map(|r| match (r.values.first(), r.values.get(1)) {
                    (Some(Value::Str(oid)), Some(Value::Int(n))) => Some((oid.clone(), *n)),
                    _ => None,
                })
                .collect::<Option<Vec<(String, i64)>>>()?;
            v.sort();
            Some(Expected::Trajs(v))
        }
        Query::Knn { .. } => {
            let mut d = rows
                .iter()
                .map(|r| match r.values.get(1) {
                    Some(Value::Float(d)) => Some(*d),
                    _ => None,
                })
                .collect::<Option<Vec<f64>>>()?;
            d.sort_by(f64::total_cmp);
            Some(Expected::Dists(d))
        }
    }
}

/// Whether `got` answers `q` correctly. kNN compares the multiset of
/// distances, which tolerates ties broken either way.
pub fn matches(expected: &Expected, got: &Expected) -> bool {
    match (expected, got) {
        (Expected::Dists(a), Expected::Dists(b)) => {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-12)
        }
        _ => expected == got,
    }
}
