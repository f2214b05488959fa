//! Figure 11: spatial range query performance vs data size and spatial
//! window, JUST vs the in-memory and disk baselines.
//!
//! A parity guard checks every JUST and JUSTnc answer against a
//! brute-force scan of the generated data.

use crate::config::BenchConfig;
use crate::figures::{build_order_table, build_traj_table, RangeParity};
use crate::harness::{median_latency, ms, Report, Table};
use crate::workload::{order_records, query_windows, traj_records, OrderDataset, TrajDataset};
use just_baselines::*;
use just_curves::TimePeriod;
use just_storage::SpatialPredicate;
use std::io::Write;

/// Runs Figure 11 (a–d). Returns `false` when the parity guard fails.
pub fn run(cfg: &BenchConfig, out: &mut impl Write, report: &mut Report) -> bool {
    let mut parity = RangeParity::default();
    report.phase("generate");
    let orders = OrderDataset::generate(cfg.orders, cfg.seed);
    let trajs = TrajDataset::generate(cfg.trajectories, cfg.points_per_trajectory, cfg.seed);
    let windows = query_windows(cfg.queries_per_point, cfg.default_window_km(), cfg.seed);

    report.phase("11a");
    // ---- 11a: Order, query time vs data size ---------------------------
    let mut ta = Table::new(&[
        "data %",
        "JUST (ms)",
        "rtree (ms)",
        "grid (ms)",
        "quadtree (ms)",
        "hadoop (ms)",
    ]);
    for &pct in &cfg.data_sizes_pct {
        let slice = orders.fraction(pct);
        let (te, _) = build_order_table("f11a", &slice, None, TimePeriod::Day, false);
        let recs = order_records(&slice);
        let mut row = vec![pct.to_string()];
        row.push(ms(median_latency(&windows, |w| {
            te.engine
                .spatial_range("orders", w, SpatialPredicate::Within)
                .unwrap();
        })));
        for engine in baseline_set(pct) {
            row.push(run_engine_ranges(engine, &recs, &windows));
        }
        ta.row(row);
        for w in &windows {
            parity.orders("11a JUST", &te, &slice, w, None);
        }
    }
    writeln!(out, "== Fig 11a: spatial range vs data size (Order) ==").unwrap();
    writeln!(out, "{}", ta.render()).unwrap();

    report.phase("11b");
    // ---- 11b: Traj, query time vs data size (with JUSTnc) --------------
    let mut tb = Table::new(&[
        "data %",
        "JUST (ms)",
        "JUSTnc (ms)",
        "rtree@cap (ms)",
        "grid@cap (ms)",
    ]);
    let full_payload: usize = trajs.total_points() * 24;
    let cap = MemoryBudget {
        bytes: Some(full_payload * 6 / 10),
    };
    for &pct in &cfg.data_sizes_pct {
        let slice = trajs.fraction(pct);
        let (te, _) = build_traj_table("f11b", &slice, None, TimePeriod::Day, true);
        let (te_nc, _) = build_traj_table("f11b-nc", &slice, None, TimePeriod::Day, false);
        let recs = traj_records(&slice);
        let mut row = vec![pct.to_string()];
        for engine in [&te, &te_nc] {
            row.push(ms(median_latency(&windows, |w| {
                engine
                    .engine
                    .spatial_range("traj", w, SpatialPredicate::Intersects)
                    .unwrap();
            })));
        }
        row.push(run_engine_ranges(
            Box::new(RTreeEngine::new(cap)),
            &recs,
            &windows,
        ));
        row.push(run_engine_ranges(
            Box::new(GridEngine::new(cap, 32)),
            &recs,
            &windows,
        ));
        tb.row(row);
        for w in &windows {
            parity.trajs("11b JUST", &te, &slice, w, None);
            parity.trajs("11b JUSTnc", &te_nc, &slice, w, None);
        }
    }
    writeln!(out, "== Fig 11b: spatial range vs data size (Traj) ==").unwrap();
    writeln!(out, "{}", tb.render()).unwrap();

    report.phase("11cd");
    // ---- 11c/11d: query time vs spatial window -------------------------
    let (te_o, _) = build_order_table("f11c", &orders.orders, None, TimePeriod::Day, false);
    let recs_o = order_records(&orders.orders);
    let (te_t, _) = build_traj_table("f11d", &trajs.trajectories, None, TimePeriod::Day, true);
    let (te_t_nc, _) =
        build_traj_table("f11d-nc", &trajs.trajectories, None, TimePeriod::Day, false);
    let recs_t = traj_records(&trajs.trajectories);

    let mut tc = Table::new(&[
        "window km",
        "JUST (ms)",
        "rtree (ms)",
        "grid (ms)",
        "quadtree (ms)",
        "hadoop (ms)",
    ]);
    let mut td = Table::new(&[
        "window km",
        "JUST (ms)",
        "JUSTnc (ms)",
        "rtree (ms)",
        "grid (ms)",
    ]);
    for &km in &cfg.spatial_windows_km {
        let windows = query_windows(cfg.queries_per_point, km, cfg.seed);
        let mut row = vec![format!("{km}x{km}")];
        row.push(ms(median_latency(&windows, |w| {
            te_o.engine
                .spatial_range("orders", w, SpatialPredicate::Within)
                .unwrap();
        })));
        for engine in baseline_set(100) {
            row.push(run_engine_ranges(engine, &recs_o, &windows));
        }
        tc.row(row);
        for w in &windows {
            parity.orders("11c JUST", &te_o, &orders.orders, w, None);
            parity.trajs("11d JUST", &te_t, &trajs.trajectories, w, None);
            parity.trajs("11d JUSTnc", &te_t_nc, &trajs.trajectories, w, None);
        }

        let mut row = vec![format!("{km}x{km}")];
        for engine in [&te_t, &te_t_nc] {
            row.push(ms(median_latency(&windows, |w| {
                engine
                    .engine
                    .spatial_range("traj", w, SpatialPredicate::Intersects)
                    .unwrap();
            })));
        }
        row.push(run_engine_ranges(
            Box::new(RTreeEngine::new(MemoryBudget::unlimited())),
            &recs_t,
            &windows,
        ));
        row.push(run_engine_ranges(
            Box::new(GridEngine::new(MemoryBudget::unlimited(), 32)),
            &recs_t,
            &windows,
        ));
        td.row(row);
    }
    writeln!(out, "== Fig 11c: spatial range vs window (Order) ==").unwrap();
    writeln!(out, "{}", tc.render()).unwrap();
    writeln!(out, "== Fig 11d: spatial range vs window (Traj) ==").unwrap();
    writeln!(out, "{}", td.render()).unwrap();
    parity.report(out)
}

fn baseline_set(pct: u32) -> Vec<Box<dyn SpatialEngine>> {
    let dir = std::env::temp_dir().join(format!(
        "just-f11-hadoop-{}-{pct}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    std::fs::remove_dir_all(&dir).ok();
    vec![
        Box::new(RTreeEngine::new(MemoryBudget::unlimited())),
        Box::new(GridEngine::new(MemoryBudget::unlimited(), 32)),
        Box::new(QuadTreeEngine::new(MemoryBudget::unlimited())),
        Box::new(HadoopSimEngine::new(
            dir,
            crate::config::BenchConfig::default().hadoop_job_overhead,
            false,
        )),
    ]
}

fn run_engine_ranges(
    mut engine: Box<dyn SpatialEngine>,
    recs: &[StRecord],
    windows: &[just_geo::Rect],
) -> String {
    match engine.build(recs) {
        Ok(()) => ms(median_latency(windows, |w| {
            engine.spatial_range(w).unwrap();
        })),
        Err(EngineError::OutOfMemory { .. }) => "OOM".into(),
        Err(other) => format!("err:{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_runs_at_tiny_scale() {
        let cfg = BenchConfig {
            orders: 300,
            trajectories: 6,
            points_per_trajectory: 150,
            data_sizes_pct: vec![100],
            spatial_windows_km: vec![2.0],
            queries_per_point: 3,
            hadoop_job_overhead: std::time::Duration::ZERO,
            ..BenchConfig::default()
        };
        let mut buf = Vec::new();
        let ok = run(&cfg, &mut buf, &mut Report::new("fig11"));
        let text = String::from_utf8(buf).unwrap();
        for sec in ["Fig 11a", "Fig 11b", "Fig 11c", "Fig 11d"] {
            assert!(text.contains(sec), "{sec} missing");
        }
        assert!(ok, "guard must pass: {text}");
        assert!(text.contains("parity guard: PASS"), "{text}");
    }
}
