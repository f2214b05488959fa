//! Figure 13: k-NN query performance vs data size and k.
//!
//! A parity guard checks every JUST k-NN answer of 13c and 13d: per query,
//! the distances JUST returns must equal the kd-tree baseline's on Order
//! and a brute-force scan's on Traj.

use crate::config::BenchConfig;
use crate::figures::{build_order_table, build_traj_table};
use crate::harness::{median_latency, ms, Report, Table};
use crate::workload::{order_records, query_points, OrderDataset, TrajDataset};
use just_baselines::*;
use just_core::Engine;
use just_curves::TimePeriod;
use just_geo::{Geometry, Point};
use std::collections::HashMap;
use std::io::Write;

/// Runs Figure 13 (a–d). Returns `false` when the parity guard fails.
pub fn run(cfg: &BenchConfig, out: &mut impl Write, report: &mut Report) -> bool {
    report.phase("generate");
    let orders = OrderDataset::generate(cfg.orders, cfg.seed);
    let trajs = TrajDataset::generate(cfg.trajectories, cfg.points_per_trajectory, cfg.seed);
    let points = query_points(cfg.queries_per_point, cfg.seed);
    let k = cfg.default_k();

    report.phase("13a");
    // ---- 13a: Order, vs data size --------------------------------------
    let mut ta = Table::new(&["data %", "JUST", "rtree", "grid", "quadtree", "kdtree"]);
    for &pct in &cfg.data_sizes_pct {
        let slice = orders.fraction(pct);
        let (te, _) = build_order_table("f13a", &slice, None, TimePeriod::Day, false);
        let recs = order_records(&slice);
        let mut row = vec![pct.to_string()];
        row.push(ms(median_latency(&points, |q| {
            te.engine.knn("orders", *q, k).unwrap();
        })));
        for mut engine in mem_engines() {
            engine.build(&recs).unwrap();
            row.push(ms(median_latency(&points, |q| {
                engine.knn(*q, k).unwrap();
            })));
        }
        ta.row(row);
    }
    writeln!(out, "== Fig 13a: k-NN vs data size (Order, k={k}, ms) ==").unwrap();
    writeln!(out, "{}", ta.render()).unwrap();

    report.phase("13b");
    // ---- 13b: Traj, vs data size (JUSTnc + capped rtree) ----------------
    let full_payload: usize = trajs.total_points() * 24;
    let cap = MemoryBudget {
        bytes: Some(full_payload * 6 / 10),
    };
    let traj_k = k.min(trajs.trajectories.len().max(1));
    let mut tb = Table::new(&["data %", "JUST", "JUSTnc", "rtree@cap"]);
    for &pct in &cfg.data_sizes_pct {
        let slice = trajs.fraction(pct);
        if slice.is_empty() {
            continue;
        }
        let (te, _) = build_traj_table("f13b", &slice, None, TimePeriod::Day, true);
        let (te_nc, _) = build_traj_table("f13b-nc", &slice, None, TimePeriod::Day, false);
        let kk = traj_k.min(slice.len());
        let mut row = vec![pct.to_string()];
        for engine in [&te, &te_nc] {
            row.push(ms(median_latency(&points, |q| {
                engine.engine.knn("traj", *q, kk).unwrap();
            })));
        }
        let mut rtree = RTreeEngine::new(cap);
        row.push(match rtree.build(&traj_records(&slice)) {
            Ok(()) => ms(median_latency(&points, |q| {
                rtree.knn(*q, kk).unwrap();
            })),
            Err(EngineError::OutOfMemory { .. }) => "OOM".into(),
            Err(e) => format!("err:{e}"),
        });
        tb.row(row);
    }
    writeln!(out, "== Fig 13b: k-NN vs data size (Traj, ms) ==").unwrap();
    writeln!(out, "{}", tb.render()).unwrap();

    report.phase("13c");
    // ---- 13c: Order, vs k ----------------------------------------------
    let (te, _) = build_order_table("f13c", &orders.orders, None, TimePeriod::Day, false);
    let recs = order_records(&orders.orders);
    let mut engines = mem_engines();
    for e in &mut engines {
        e.build(&recs).unwrap();
    }
    let mut tc = Table::new(&["k", "JUST", "rtree", "grid", "quadtree", "kdtree"]);
    for &k in &cfg.k_values {
        let mut row = vec![k.to_string()];
        row.push(ms(median_latency(&points, |q| {
            te.engine.knn("orders", *q, k).unwrap();
        })));
        for engine in &engines {
            row.push(ms(median_latency(&points, |q| {
                engine.knn(*q, k).unwrap();
            })));
        }
        tc.row(row);
    }
    writeln!(out, "== Fig 13c: k-NN vs k (Order, ms) ==").unwrap();
    writeln!(out, "{}", tc.render()).unwrap();

    // Parity, Order: JUST against the kd-tree (ids mapped back to points).
    report.phase("parity");
    let kdtree = &engines[3];
    let point_of: HashMap<u64, Point> = recs.iter().map(|r| (r.id, r.point)).collect();
    let mut mismatches = Vec::new();
    for &k in &cfg.k_values {
        for q in &points {
            let want: Vec<f64> = kdtree
                .knn(*q, k)
                .unwrap()
                .iter()
                .map(|id| point_of[id].distance(q))
                .collect();
            if just_distances(&te.engine, "orders", *q, k) != want {
                mismatches.push(format!("Order k={k} q=({}, {})", q.x, q.y));
            }
        }
    }

    report.phase("13d");
    // ---- 13d: Traj, vs k -------------------------------------------------
    let (tt, _) = build_traj_table("f13d", &trajs.trajectories, None, TimePeriod::Day, true);
    let (tt_nc, _) = build_traj_table("f13d-nc", &trajs.trajectories, None, TimePeriod::Day, false);
    let mut td = Table::new(&["k", "JUST", "JUSTnc"]);
    for &k in &cfg.k_values {
        let kk = k.min(trajs.trajectories.len());
        let mut row = vec![k.to_string()];
        for engine in [&tt, &tt_nc] {
            row.push(ms(median_latency(&points, |q| {
                engine.engine.knn("traj", *q, kk).unwrap();
            })));
        }
        td.row(row);
    }
    writeln!(out, "== Fig 13d: k-NN vs k (Traj, ms) ==").unwrap();
    writeln!(out, "{}", td.render()).unwrap();

    // Parity, Traj: both tables against a brute-force scan of the MBRs
    // (the indexed geometry).
    report.phase("parity");
    for &k in &cfg.k_values {
        let kk = k.min(trajs.trajectories.len());
        for q in &points {
            let mut want: Vec<f64> = trajs
                .trajectories
                .iter()
                .map(|t| Geometry::Rect(t.mbr()).distance_to_point(q))
                .collect();
            want.sort_by(f64::total_cmp);
            want.truncate(kk);
            for (label, engine) in [("JUST", &tt), ("JUSTnc", &tt_nc)] {
                if just_distances(&engine.engine, "traj", *q, kk) != want {
                    mismatches.push(format!("Traj {label} k={kk} q=({}, {})", q.x, q.y));
                }
            }
        }
    }
    let ok = mismatches.is_empty();
    writeln!(
        out,
        "parity guard: {} ({} k-NN answers differ from the kd-tree / brute force{}{})",
        if ok { "PASS" } else { "FAIL" },
        mismatches.len(),
        if ok { "" } else { ": " },
        mismatches
            .iter()
            .take(5)
            .cloned()
            .collect::<Vec<_>>()
            .join("; "),
    )
    .unwrap();
    ok
}

/// The distances of JUST's k-NN answer, nearest first.
fn just_distances(engine: &Engine, table: &str, q: Point, k: usize) -> Vec<f64> {
    engine
        .knn(table, q, k)
        .unwrap()
        .rows
        .iter()
        .map(|row| {
            row.values
                .last()
                .and_then(|v| v.as_float())
                .expect("k-NN rows end with the distance")
        })
        .collect()
}

fn mem_engines() -> Vec<Box<dyn SpatialEngine>> {
    vec![
        Box::new(RTreeEngine::new(MemoryBudget::unlimited())),
        Box::new(GridEngine::new(MemoryBudget::unlimited(), 32)),
        Box::new(QuadTreeEngine::new(MemoryBudget::unlimited())),
        Box::new(KdTreeEngine::new(MemoryBudget::unlimited())),
    ]
}

fn traj_records(trajs: &[crate::workload::TrajRecord]) -> Vec<StRecord> {
    crate::workload::traj_records(trajs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_runs_at_tiny_scale() {
        let cfg = BenchConfig {
            orders: 500,
            trajectories: 6,
            points_per_trajectory: 100,
            data_sizes_pct: vec![100],
            k_values: vec![5],
            queries_per_point: 3,
            ..BenchConfig::default()
        };
        let mut buf = Vec::new();
        let ok = run(&cfg, &mut buf, &mut Report::new("fig13"));
        let text = String::from_utf8(buf).unwrap();
        for sec in ["Fig 13a", "Fig 13b", "Fig 13c", "Fig 13d"] {
            assert!(text.contains(sec), "{sec} missing");
        }
        assert!(ok, "guard must pass: {text}");
        assert!(text.contains("parity guard: PASS"), "{text}");
    }
}
