//! One module per table/figure of the paper's evaluation. Each `run`
//! writes a text rendition of the figure's data series to the given
//! writer.

pub mod durability;
pub mod exec_compile;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig8;
pub mod ingest_concurrency;
pub mod join_sort;
pub mod mvcc_split;
pub mod obs_overhead;
pub mod read_path;
pub mod scan_stream;
pub mod serve;
pub mod tables;

use crate::workload::{order_rows, traj_rows, Order, TrajRecord};
use just_core::{Engine, EngineConfig};
use just_curves::TimePeriod;
use just_geo::{Geometry, Rect};
use just_storage::{Field, FieldType, IndexKind, Schema, SpatialPredicate};
use std::path::PathBuf;
use std::time::Duration;

/// A JUST engine in a throwaway directory; removed on drop.
pub struct TempEngine {
    /// The engine.
    pub engine: Engine,
    dir: PathBuf,
}

impl TempEngine {
    /// Opens an engine under a unique temp directory.
    pub fn new(tag: &str) -> TempEngine {
        let dir = std::env::temp_dir().join(format!(
            "just-fig-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let engine = Engine::open(&dir, EngineConfig::default()).expect("engine open");
        TempEngine { engine, dir }
    }
}

impl Drop for TempEngine {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The Order table schema (with a compressible address field so the
/// paper's "compressing small fields backfires" lesson is reproducible).
pub fn order_schema(compress_fields: bool) -> Schema {
    let codec = if compress_fields {
        just_compress::Codec::Gzip
    } else {
        just_compress::Codec::None
    };
    Schema::new(vec![
        Field::new("fid", FieldType::Int).primary(),
        Field::new("time", FieldType::Date),
        Field::new("geom", FieldType::Point),
        Field::new("addr", FieldType::Str).compressed(codec),
    ])
    .expect("order schema")
}

/// Order rows including the address field.
pub fn order_rows_with_addr(orders: &[Order]) -> Vec<just_storage::Row> {
    order_rows(orders)
        .into_iter()
        .zip(orders)
        .map(|(mut row, o)| {
            row.values.push(just_storage::Value::Str(format!(
                "No.{} Jingdong Rd, Daxing District, Beijing",
                o.fid
            )));
            row
        })
        .collect()
}

/// The trajectory plugin schema, optionally without GPS-list compression
/// (the JUSTnc variant).
pub fn traj_schema(compress: bool) -> Schema {
    if compress {
        return Schema::trajectory();
    }
    let mut fields = Schema::trajectory().fields().to_vec();
    for f in &mut fields {
        f.compress = just_compress::Codec::None;
    }
    Schema::new(fields).expect("traj schema")
}

/// Builds an Order table with the given index configuration, returning
/// the engine and the insert+flush ("indexing") time.
pub fn build_order_table(
    tag: &str,
    orders: &[Order],
    index: Option<IndexKind>,
    period: TimePeriod,
    compress_fields: bool,
) -> (TempEngine, Duration) {
    let te = TempEngine::new(tag);
    te.engine
        .create_table("orders", order_schema(compress_fields), index, Some(period))
        .expect("create orders");
    let rows = order_rows_with_addr(orders);
    let (_, elapsed) = crate::harness::time_once(|| {
        te.engine.insert("orders", &rows).expect("insert orders");
        te.engine.flush_all().expect("flush");
    });
    (te, elapsed)
}

/// Builds a Traj plugin table, returning the engine and the indexing
/// time.
pub fn build_traj_table(
    tag: &str,
    trajs: &[TrajRecord],
    index: Option<IndexKind>,
    period: TimePeriod,
    compress: bool,
) -> (TempEngine, Duration) {
    let te = TempEngine::new(tag);
    te.engine
        .create_table("traj", traj_schema(compress), index, Some(period))
        .expect("create traj");
    let rows = traj_rows(trajs);
    let (_, elapsed) = crate::harness::time_once(|| {
        te.engine.insert("traj", &rows).expect("insert traj");
        te.engine.flush_all().expect("flush");
    });
    (te, elapsed)
}

/// The range parity guard of Figs 11 and 12: each JUST answer checked is
/// compared, as a set of record ids, with a brute-force scan of the
/// generated data under the predicate the engine refines with.
#[derive(Debug, Default)]
pub struct RangeParity {
    checked: usize,
    mismatches: Vec<String>,
}

impl RangeParity {
    /// Runs one Order query on `te` (`geom` within `window`, and `time`
    /// inside `t` when given) and checks its ids.
    pub fn orders(
        &mut self,
        label: &str,
        te: &TempEngine,
        orders: &[Order],
        window: &Rect,
        t: Option<(i64, i64)>,
    ) {
        let want = orders
            .iter()
            .filter(|o| Geometry::Point(o.point).within_rect(window))
            .filter(|o| t.is_none_or(|(a, b)| a <= o.time_ms && o.time_ms <= b))
            .map(|o| o.fid.to_string());
        self.check(
            label,
            te,
            "orders",
            window,
            t,
            SpatialPredicate::Within,
            want,
        );
    }

    /// Runs one Traj query on `te` (MBR intersecting `window`, and the
    /// trajectory's time span overlapping `t` when given) and checks its
    /// ids.
    pub fn trajs(
        &mut self,
        label: &str,
        te: &TempEngine,
        trajs: &[TrajRecord],
        window: &Rect,
        t: Option<(i64, i64)>,
    ) {
        let want = trajs
            .iter()
            .filter(|r| Geometry::Rect(r.mbr()).intersects_rect(window))
            .filter(|r| {
                let (t0, t1) = r.time_span();
                t.is_none_or(|(a, b)| t1 >= a && t0 <= b)
            })
            .map(|r| r.oid.clone());
        self.check(
            label,
            te,
            "traj",
            window,
            t,
            SpatialPredicate::Intersects,
            want,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        label: &str,
        te: &TempEngine,
        table: &str,
        window: &Rect,
        t: Option<(i64, i64)>,
        predicate: SpatialPredicate,
        want: impl Iterator<Item = String>,
    ) {
        let got = match t {
            Some((a, b)) => te.engine.st_range(table, window, a, b, predicate),
            None => te.engine.spatial_range(table, window, predicate),
        }
        .expect("range query");
        let mut got: Vec<String> = got.rows.iter().map(|r| r.values[0].to_string()).collect();
        let mut want: Vec<String> = want.collect();
        got.sort_unstable();
        want.sort_unstable();
        self.checked += 1;
        if got != want {
            self.mismatches.push(format!(
                "{label} {table} {window:?}{}: {} rows, want {}",
                t.map(|(a, b)| format!(" t=[{a}, {b}]")).unwrap_or_default(),
                got.len(),
                want.len()
            ));
        }
    }

    /// Writes the `parity guard: PASS|FAIL` line; `true` on PASS.
    pub fn report(&self, out: &mut impl std::io::Write) -> bool {
        let ok = self.mismatches.is_empty() && self.checked > 0;
        writeln!(
            out,
            "parity guard: {} ({} of {} range answers differ from brute force{}{})",
            if ok { "PASS" } else { "FAIL" },
            self.mismatches.len(),
            self.checked,
            if self.mismatches.is_empty() { "" } else { ": " },
            self.mismatches
                .iter()
                .take(5)
                .cloned()
                .collect::<Vec<_>>()
                .join("; "),
        )
        .unwrap();
        ok
    }
}
